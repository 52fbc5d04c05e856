//! Word-parallel (PPSFP-style) fault simulation kernel.
//!
//! The scalar path ([`crate::propagate`]/[`crate::respond`]) answers "does pressure reach the
//! sinks?" for **one** `(vector, fault set)` combination per BFS. Campaigns
//! and audits ask that question for thousands of fault scenarios against
//! the *same* suite, so this module packs [`LANES`] scenarios into one
//! `u64` per graph element and propagates all of them through a single
//! bitset BFS — the classic parallel-fault answer from VLSI ATPG,
//! transplanted to valve-array pressure propagation.
//!
//! The kernel runs on the chip's [`ChipGraph`], which each [`TestSuite`]
//! builds once: every channel is one node, and two nodes are joined by one
//! arc per valve between them. Faults touch valves only, so the cells of
//! one node share pressure in every scenario, and a valve whose two cells
//! share a node, bypassed by its channel, changes no reading. So every set
//! below is a set of nodes, and the sink readings are those of the sink
//! ports' nodes.
//!
//! * `LaneSet` — one `u64` lane word per element of some universe
//!   (per valve: "which scenarios hold this valve open"; per node: "which
//!   scenarios pressurise this node"),
//! * `BitFrontier` — the reusable bitset-BFS worklist: seeds a lane word
//!   at the source nodes and saturates reachability with word-wide
//!   AND/OR over the graph's arcs,
//! * [`BitSimulator`] — the fault-dropping sweep built on top, bound to
//!   one suite and its graph: applies the suite vector by vector to a
//!   chunk of scenarios and reports which ones some vector detects, plus
//!   [`KernelStats`] counters. The same word pass drives the two-fault
//!   audit's stuck-at-0 pre-pass (see "Two-fault audit by composition" in
//!   the crate docs).
//!
//! # Vector-major sweep with fault dropping
//!
//! [`BitSimulator::sweep`] walks the suite once over a whole chunk of
//! scenarios ([`SWEEP_CHUNK`] in campaigns and audits). It visits each
//! scenario only at the vectors its relevance mask selects (below), in
//! vector order, and drops it once a vector detects it. At each visit it
//! sorts the scenario into one of three outcomes, using what the
//! [`TestSuite`] keeps per vector: the fault-free pressure region `R`, the
//! sink side `S` (the nodes joined to a sink port's node by commanded-open
//! valves) and, when `R` is a chain, its chain positions. A scenario that
//! *reads golden* moves on to the next vector of its mask unsimulated, one
//! that is *detected* is marked with no word pass, and only the scenarios
//! left to *simulate* are packed 64 per word pass, with only the occupied
//! lanes seeded at the sources and compared at the sinks. Per-vector
//! lists hold each undetected scenario at its next visit, so a vector
//! outside a scenario's mask costs it nothing.
//!
//! # Deciding scenarios from regions
//!
//! The rules speak of the valves whose effective state
//! ([`FaultSet::effective_states`]: commanded state, then control leaks by
//! the actuator's command, then stuck-at overrides) differs from their
//! command:
//!
//! * a *closing* is a stuck-at-0 on a commanded-open valve, or a control
//!   leak whose actuator is commanded closed and whose victim is commanded
//!   open and not stuck-at-1;
//! * an *opening* is a stuck-at-1 on a commanded-closed valve.
//!
//! A change *touches* a set of nodes when its valve has an endpoint node
//! in it. A node is *sealed* under a vector when every arc at it is a
//! valve the vector commands closed.
//!
//! **Reads golden** when no closing touches `R`, and every opening that
//! touches `R` either has both endpoints in `R` or leads from `R` to a
//! sealed node `y` outside `S` that no other change touches. `R` holds
//! the sources and is closed under the fault-free open valves, since it is
//! their reach, and no closing removes a valve inside it, so the faulty
//! reach contains `R`. The arcs leaving `R` are valves at their commanded
//! (closed) state, except the openings into the nodes `y`. Every arc at
//! such a `y` is a commanded-closed valve, and only the opening from `R`
//! changes among them, so pressure that enters `y` stays there. The faulty
//! reach is therefore exactly `R` plus those nodes `y`. None of them holds
//! a sink, because a sink's node lies in `S`, so every sink reads golden.
//! With no such openings this is the plain skip rule: a scenario that
//! changes no valve touching `R` reads golden.
//!
//! **Detected** when no closing touches `R ∪ S`, and some opening leads
//! from `R` into a node `x` of `S` outside `R`. The faulty reach contains
//! `R` as above, and the opening carries pressure into `x`. `x` is joined
//! to a sink's node by commanded-open valves, whose endpoints all lie in
//! `S`, and no closing touches `S`, so pressure reaches that sink. `R` is
//! closed under the commanded-open valves and does not hold `x`, so golden
//! leaves that sink dry while the faulty chip pressurises it.
//!
//! **Cut** (detected) on a chain, described next.
//!
//! **Simulate** every other scenario. The classifier makes one pass over
//! a scenario's faults. Off chains it returns at the first closing that
//! touches `R`; on a chain it scans on for the earliest cut and the
//! openings before it.
//!
//! # Cutting chains
//!
//! A node's *chain position* is the fewest commanded-open valves on a
//! route to it from a source node, so a commanded-open valve joins
//! positions that differ by at most one. Every source node sits at
//! position 0, a sealed source island included. `R` is a *chain* when
//! some sink lies at a position above 0 and, below the largest such
//! position `p`, every position `j` is joined to `j + 1` by exactly one
//! open valve. A plan's flow-path and leakage vectors open valves that
//! string nodes one after another from a source to the sinks, so their
//! regions are chains. A second open valve from some position below `p`
//! to the next breaks the rule: a parallel valve, a branch, or a second
//! source node's own way forward.
//!
//! A closing whose valve joins positions `k` and `k + 1` *cuts the chain
//! at `k`*. Take a scenario's earliest cut `k`. **Cut** marks it detected
//! when `k < p` and no opening has an endpoint at a position `≤ k`
//! (openings with both endpoints in `R` count too). Let `S_k` be the
//! nodes at positions `≤ k`. `S_k` holds every source, and the only
//! fault-free open valve leaving it is the one the cut closes: the valve
//! joining `k` to `k + 1` is the only one. Closings only remove arcs, and
//! no opening touches `S_k`, so the faulty reach stays inside `S_k`. The
//! sink at position `p > k` lies outside it: golden pressurises it and the
//! faulty chip does not.
//!
//! # Relevance masks
//!
//! The suite keeps three bitsets over its vectors per valve, in the terms
//! of "Deciding scenarios from regions". A node is a *dead end* under a
//! vector when it is sealed and lies outside `S`.
//!
//! * The *closing* mask holds the vectors that pressurise some sink and
//!   command the valve open with its endpoints in `R`, so that closing it
//!   touches `R`.
//! * The *opening* mask holds the vectors that command the valve closed
//!   with exactly one endpoint in `R`, so that opening it crosses `R`,
//!   unless its far node is a dead end.
//! * The *dead-end* mask holds the vectors at which the valve crosses `R`
//!   into a dead end.
//!
//! A bypassed valve is in no mask, since it changes no reading. A
//! scenario's mask is the OR over its faults of the closing mask (a
//! stuck-at-0's valve, a control leak's victim) or the opening mask (a
//! stuck-at-1's valve). When two of its stuck-at-1 valves share an
//! endpoint node, their dead-end masks join in too. A leak closes its
//! victim only where its actuator is commanded closed, so the victim's
//! mask is a superset of where it matters, which is still exact. Masks
//! only schedule visits: a visited scenario is classified on all of its
//! faults. Two lemmas show that every visit they leave out reads golden.
//!
//! **Lemma A.** A scenario that opens no valve crossing `R` keeps the
//! faulty reach inside `R`. The faulty flood starts at the sources, inside
//! `R`. `R` is closed under the fault-free open valves, so every arc from
//! `R` to a node outside it is a commanded-closed valve with exactly one
//! endpoint in `R`, and the first node outside `R` that the flood reaches
//! would come through such a valve. Only a stuck-at-1 opens one, and that
//! opening would cross `R`. So at a vector that pressurises no sink, where
//! `R` holds no sink, such a scenario reads golden whatever it closes.
//!
//! **Lemma B.** Let every opening that crosses `R` lead into a dead end,
//! and no two of the scenario's stuck-at-1 valves share a node. Pressure
//! that enters a dead end `y` can leave it only through a second
//! effectively open arc at `y`. None of `y`'s arcs is commanded open, so
//! no closing happens there, and only a stuck-at-1 opens one, which would
//! share `y` with the valve the pressure came through. With lemma A, the
//! faulty reach stays inside `R` plus such dead ends, which hold no sink:
//! a sink's node lies in `S`.
//!
//! At a vector outside a scenario's mask, every opening that crosses `R`
//! leads into a dead end (its opening bit is clear), and none does when
//! two stuck-at-1 valves share a node (its dead-end bit is clear too); a
//! closing touches `R` only at a vector that pressurises no sink (its
//! closing bit is clear). So the faulty reach stays inside `R` plus dead
//! ends. Where no sink is wet, every sink reads dry, as golden. Where one
//! is, no closing touches `R`, so the faulty reach also keeps all of `R`,
//! which holds the sources and loses no arc, and every reading is golden.
//! Skipping the visit changes no outcome.
//!
//! # Scalar-oracle invariant
//!
//! For every `(vector, fault set)` the lane bit computed here equals the
//! scalar result of [`crate::respond`] compared against the
//! suite's golden response — byte for byte, not approximately. The scalar
//! path stays in the tree as the oracle, and it walks the cells, not the
//! graph: the differential tests build the expected
//! [`crate::campaign::CampaignRow`]s and audit `undetected` lists by
//! applying [`TestSuite::detects`] to each trial, fault and pair, on
//! complete and on deliberately weak suites, and assert that the campaign
//! and the audits report exactly those; the unit tests below check the
//! per-scenario reachability sets, cell by cell, and both decided outcomes
//! of the classifier against [`crate::respond`], and that every visit the
//! relevance masks skip responds golden under [`crate::respond`].

use crate::fault::Fault;
#[cfg(doc)]
use crate::fault::FaultSet;
use crate::pressure::Response;
use crate::suite::TestSuite;
use fpva_grid::{ChipGraph, TestVector, ValveId};
use std::collections::VecDeque;
use std::ops::Range;

/// Scenarios packed per machine word.
pub const LANES: usize = 64;

/// Scenarios per sweep: the fixed work-chunk size of the bit-parallel
/// campaign and audits. A multiple of [`LANES`] and never derived from the
/// thread count, so the chunk decomposition, and with it every
/// [`KernelStats`] counter, is the same for every pool size. A larger
/// chunk gives each vector more still-undetected scenarios to pack into
/// full words; a chunk's fault sets stay small next to the chip.
pub const SWEEP_CHUNK: usize = 32 * LANES;

/// The region classifier and the relevance masks, on the suite's graph.
impl TestSuite {
    /// Sorts one scenario under vector `i` into an [`Outcome`], from the
    /// vector's golden region, sink side and, when the region is a chain,
    /// its chain positions; the rules and why each is exact are in the
    /// module docs. One pass over `faults`. Off chains it returns at the
    /// first closing that touches the golden region; on a chain it scans
    /// on for the earliest cut and the openings before it.
    fn classify(&self, i: usize, faults: &[Fault]) -> Outcome {
        let graph = self.graph();
        let vector = &self.vectors()[i];
        let (reach, sink_side) = (self.golden_reach(i), self.sink_side(i));
        let chain = self.chain(i);
        let position = |c: u32| chain.map_or(u16::MAX, |chain| chain.position[c as usize]);
        // Some closing touches `sink_side`.
        let mut closes_sink_side = false;
        // Some opening leads from `reach` into `sink_side`.
        let mut enters_sink_side = false;
        // Some opening touching `reach` is neither internal to it nor
        // leads into a sealed node that only it touches.
        let mut undecided = false;
        // Some closing touches `reach` (only on a chain: elsewhere that
        // decides `Simulate` at once).
        let mut closes_reach = false;
        // The earliest chain position a closing cuts at, and the earliest
        // position an opening touches.
        let (mut cut, mut opened) = (u16::MAX, u16::MAX);
        for &fault in faults {
            match change(vector, fault, faults) {
                None => {}
                Some(Change::Closes(v)) => {
                    let [a, b] = graph.valve_nodes(v);
                    if holds(reach, a) || holds(reach, b) {
                        if chain.is_none() {
                            return Outcome::Simulate;
                        }
                        closes_reach = true;
                        let (pa, pb) = (position(a), position(b));
                        if pa != pb {
                            cut = cut.min(pa.min(pb));
                        }
                    }
                    closes_sink_side |= holds(sink_side, a) || holds(sink_side, b);
                }
                Some(Change::Opens(v)) => {
                    let [a, b] = graph.valve_nodes(v);
                    opened = opened.min(position(a)).min(position(b));
                    let y = match (holds(reach, a), holds(reach, b)) {
                        (true, false) => b,
                        (false, true) => a,
                        _ => continue,
                    };
                    if holds(sink_side, y) {
                        enters_sink_side = true;
                    } else if !self.sealed(vector, y)
                        || self.touched_elsewhere(vector, y, v, faults)
                    {
                        undecided = true;
                    }
                }
            }
        }
        if closes_reach {
            let last_sink = chain.map_or(0, |chain| chain.last_sink);
            if cut < last_sink && opened > cut {
                Outcome::Detected
            } else {
                Outcome::Simulate
            }
        } else if enters_sink_side && !closes_sink_side {
            Outcome::Detected
        } else if enters_sink_side || undecided {
            Outcome::Simulate
        } else {
            Outcome::ReadsGolden
        }
    }

    /// Whether every arc at node `x` is a valve that `vector` commands
    /// closed.
    pub(crate) fn sealed(&self, vector: &TestVector, x: u32) -> bool {
        self.graph()
            .arcs(x as usize)
            .iter()
            .all(|arc| !vector.is_open(ValveId(arc.valve as usize)))
    }

    /// Writes into `mask` the vectors at which a sweep visits the scenario
    /// `faults`, bit `i % 64` of word `i / 64` for vector `i`: the OR of
    /// its faults' relevance masks, with the dead-end masks of its
    /// stuck-at-1 faults when two of them meet at a node.
    fn relevance_mask(&self, faults: &[Fault], mask: &mut [u64]) {
        let dead_ends = self.stuck_open_valves_meet(faults);
        for (block, word) in mask.iter_mut().enumerate() {
            *word = faults.iter().fold(0, |word, &fault| {
                word | self.relevance(fault, block, dead_ends)
            });
        }
    }

    /// Whether two stuck-at-1 faults among `faults` sit on valves that
    /// share an endpoint node: only then may a scenario's dead-end
    /// openings change a reading (see "Relevance masks" in the module
    /// docs).
    fn stuck_open_valves_meet(&self, faults: &[Fault]) -> bool {
        let graph = self.graph();
        faults.iter().enumerate().any(|(k, &fault)| {
            let Fault::StuckAt1(a) = fault else {
                return false;
            };
            let [a0, a1] = graph.valve_nodes(a);
            faults[k + 1..].iter().any(|&other| {
                matches!(other, Fault::StuckAt1(b)
                    if graph.valve_nodes(b).iter().any(|&x| x == a0 || x == a1))
            })
        })
    }

    /// Whether some change among `faults` on a valve other than `valve`
    /// touches node `x`.
    fn touched_elsewhere(
        &self,
        vector: &TestVector,
        x: u32,
        valve: ValveId,
        faults: &[Fault],
    ) -> bool {
        faults.iter().any(|&fault| {
            change(vector, fault, faults).is_some_and(|change| {
                let w = change.valve();
                w != valve && self.graph().valve_nodes(w).contains(&x)
            })
        })
    }
}

/// What a vector's regions decide about one scenario (see "Deciding
/// scenarios from regions" in the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// The scenario responds like the fault-free chip: carry it on.
    ReadsGolden,
    /// The scenario's response differs from golden: mark it detected.
    Detected,
    /// The regions cannot decide: pack it into a word pass.
    Simulate,
}

/// A valve whose effective state differs from its command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Change {
    /// A commanded-open valve that is effectively closed.
    Closes(ValveId),
    /// A commanded-closed valve that is effectively open.
    Opens(ValveId),
}

impl Change {
    /// The changed valve.
    fn valve(self) -> ValveId {
        match self {
            Change::Closes(v) | Change::Opens(v) => v,
        }
    }
}

/// How `fault`, one of the scenario `faults`, changes its valve under
/// `vector`, following the [`FaultSet::effective_states`] rules valve by
/// valve; `None` when the valve keeps its command.
fn change(vector: &TestVector, fault: Fault, faults: &[Fault]) -> Option<Change> {
    match fault {
        Fault::StuckAt0(v) if vector.is_open(v) => Some(Change::Closes(v)),
        Fault::StuckAt1(v) if !vector.is_open(v) => Some(Change::Opens(v)),
        // A stuck-at-1 victim stays open whatever the leak does.
        Fault::ControlLeak { actuator, victim }
            if !vector.is_open(actuator)
                && vector.is_open(victim)
                && !faults.contains(&Fault::StuckAt1(victim)) =>
        {
            Some(Change::Closes(victim))
        }
        _ => None,
    }
}

/// Whether node `x` lies in `set`, a bitset over the graph's nodes (bit
/// `x % 64` of word `x / 64`).
pub(crate) fn holds(set: &[u64], x: u32) -> bool {
    set[x as usize / 64] >> (x % 64) & 1 == 1
}

/// The first vector at or after `from` whose bit is set in `mask`, a
/// bitset over vectors (bit `i % 64` of word `i / 64` for vector `i`).
fn next_visit(mask: &[u64], from: usize) -> Option<usize> {
    let mut block = from / 64;
    let mut word = mask.get(block)? & (!0u64 << (from % 64));
    while word == 0 {
        block += 1;
        word = *mask.get(block)?;
    }
    Some(block * 64 + word.trailing_zeros() as usize)
}

/// The valve whose effective state `fault` can change: a stuck-at
/// fault's own valve, a control leak's victim.
pub(crate) fn changed_valve(fault: Fault) -> ValveId {
    match fault {
        Fault::StuckAt0(v) | Fault::StuckAt1(v) => v,
        Fault::ControlLeak { victim, .. } => victim,
    }
}

/// One `u64` lane word per element of some universe — per valve ("which
/// scenarios hold this valve open") or per node ("which scenarios reach
/// this node"). Bit `l` of word `i` belongs to scenario lane `l`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LaneSet {
    words: Vec<u64>,
}

impl LaneSet {
    /// All-zero lane words over `len` elements.
    pub(crate) fn zeros(len: usize) -> Self {
        LaneSet {
            words: vec![0; len],
        }
    }

    /// Number of elements (words), not lanes.
    pub(crate) fn len(&self) -> usize {
        self.words.len()
    }

    /// The lane word of element `i`.
    pub(crate) fn word(&self, i: usize) -> u64 {
        self.words[i]
    }

    /// Clears every word to zero.
    pub(crate) fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Broadcasts a per-element predicate to all 64 lanes: element `i`
    /// becomes all-ones when `pred(i)`, all-zeros otherwise.
    pub(crate) fn broadcast(&mut self, pred: impl Fn(usize) -> bool) {
        for (i, w) in self.words.iter_mut().enumerate() {
            *w = if pred(i) { !0 } else { 0 };
        }
    }

    /// Sets lane `lane` of element `i`.
    pub(crate) fn set_lane(&mut self, i: usize, lane: usize) {
        debug_assert!(lane < LANES);
        self.words[i] |= 1 << lane;
    }

    /// Clears lane `lane` of element `i`.
    pub(crate) fn clear_lane(&mut self, i: usize, lane: usize) {
        debug_assert!(lane < LANES);
        self.words[i] &= !(1 << lane);
    }

    /// `true` when lane `lane` of element `i` is set.
    pub(crate) fn lane(&self, i: usize, lane: usize) -> bool {
        debug_assert!(lane < LANES);
        self.words[i] >> lane & 1 == 1
    }
}

/// Reusable bitset-BFS state: the per-node reached [`LaneSet`] plus the
/// worklist. One propagation floods **all 64 lanes at once** — the inner
/// loop is `reached[node] & open[valve]` per arc, i.e. the per-scenario
/// BFS of [`crate::propagate`] collapsed into word-wide AND/OR.
#[derive(Debug, Clone)]
pub(crate) struct BitFrontier {
    reached: LaneSet,
    queue: VecDeque<u32>,
    queued: Vec<bool>,
}

impl BitFrontier {
    /// Fresh frontier for a graph of `nodes` nodes.
    pub(crate) fn new(nodes: usize) -> Self {
        BitFrontier {
            reached: LaneSet::zeros(nodes),
            queue: VecDeque::new(),
            queued: vec![false; nodes],
        }
    }

    /// Floods reachability from `seeds` in the lanes of `lanes`: lane `l`
    /// of node `x` ends up set exactly when `lanes` holds `l` and scenario
    /// `l` (whose open valves are lane `l` of `open`) lets pressure travel
    /// from some seed to `x`; every other lane stays empty everywhere.
    /// Seeded at the source nodes, this is the scalar propagation of up to
    /// 64 scenarios at once. The graph is undirected, so seeding at the
    /// sinks computes "which scenarios let this node reach a sink".
    ///
    /// # Panics
    ///
    /// Panics if `open` was not sized for `graph`'s valve count or the
    /// frontier for its node count.
    pub(crate) fn flood(&mut self, graph: &ChipGraph, seeds: &[u32], lanes: u64, open: &LaneSet) {
        assert_eq!(open.len(), graph.valve_count(), "open-lane/valve mismatch");
        assert_eq!(
            self.reached.len(),
            graph.node_count(),
            "frontier/graph mismatch"
        );
        self.reached.clear();
        self.queue.clear();
        for &s in seeds {
            let si = s as usize;
            if self.reached.words[si] == 0 {
                self.reached.words[si] = lanes;
                self.queued[si] = true;
                self.queue.push_back(s);
            }
        }
        while let Some(x) = self.queue.pop_front() {
            let xi = x as usize;
            self.queued[xi] = false;
            let w = self.reached.words[xi];
            for arc in graph.arcs(xi) {
                let pass = w & open.words[arc.valve as usize];
                let yi = arc.to as usize;
                let new = pass & !self.reached.words[yi];
                if new != 0 {
                    self.reached.words[yi] |= new;
                    if !self.queued[yi] {
                        self.queued[yi] = true;
                        self.queue.push_back(arc.to);
                    }
                }
            }
        }
    }

    /// The per-node reached lanes of the last flood.
    pub(crate) fn reached(&self) -> &LaneSet {
        &self.reached
    }
}

/// Work counters of a campaign/audit run, for throughput reporting.
///
/// All counters are a pure function of `(chip, suite, config)` — chunk
/// decomposition, fault dropping and lane packing are deterministic — so
/// stats, like rows, are identical for every thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelStats {
    /// 64-scenario blocks of the bit-parallel kernel's input: a sweep over
    /// `n` scenarios adds `n.div_ceil(64)`, however few word passes it
    /// needs. The two-fault audit's pre-pass over `n` stuck-at-0 faults
    /// adds the same.
    pub blocks: usize,
    /// Packed bitset-BFS passes of the bit-parallel kernel: per vector, one
    /// per 64 still-undetected scenarios that the vector's regions cannot
    /// decide (in the two-fault audit's pre-pass, per 64 stuck-at-0 faults
    /// that close a valve touching the golden region and have partners
    /// left to resolve). Scenarios the regions decide, as reading golden or
    /// as detected, cost no pass.
    pub word_passes: usize,
    /// Scenarios swept by the bit-parallel kernel, the two-fault audit's
    /// pre-pass stuck-at-0 faults included.
    pub lanes: usize,
}

impl KernelStats {
    /// Accumulates another counter set into this one (used to merge
    /// per-chunk stats in worker-pool order).
    pub fn merge(&mut self, other: &KernelStats) {
        self.blocks += other.blocks;
        self.word_passes += other.word_passes;
        self.lanes += other.lanes;
    }
}

/// Batch fault-detection engine bound to one [`TestSuite`] and the graph
/// the suite built for its chip: owns the scratch buffers (the
/// per-valve open lanes and the bitset-BFS frontier) that every word pass
/// of [`BitSimulator::sweep`] reuses, and accumulates [`KernelStats`].
/// Campaigns and audits build one per chunk of [`SWEEP_CHUNK`] scenarios,
/// which amortises the allocation.
#[derive(Debug)]
pub struct BitSimulator<'s> {
    suite: &'s TestSuite,
    open: LaneSet,
    frontier: BitFrontier,
    stats: KernelStats,
}

impl<'s> BitSimulator<'s> {
    /// A simulator with fresh scratch state over `suite` and its graph.
    pub fn new(suite: &'s TestSuite) -> Self {
        let graph = suite.graph();
        BitSimulator {
            suite,
            open: LaneSet::zeros(graph.valve_count()),
            frontier: BitFrontier::new(graph.node_count()),
            stats: KernelStats::default(),
        }
    }

    /// Work counters accumulated so far.
    pub fn stats(&self) -> KernelStats {
        self.stats
    }

    /// Sets every valve's lane word to its commanded state under `vector`.
    fn load_vector(&mut self, vector: &TestVector) {
        self.open.broadcast(|i| vector.is_open(ValveId(i)));
    }

    /// Applies one scenario's faults to lane `lane` of the loaded vector,
    /// replicating [`FaultSet::effective_states`] per lane: control leaks
    /// force their victim closed when the actuator is commanded closed,
    /// then stuck-at faults override everything.
    fn inject(&mut self, vector: &TestVector, lane: usize, faults: &[Fault]) {
        for fault in faults {
            if let Fault::ControlLeak { actuator, victim } = fault {
                if !vector.is_open(*actuator) {
                    self.open.clear_lane(victim.index(), lane);
                }
            }
        }
        for fault in faults {
            match fault {
                Fault::StuckAt0(v) => self.open.clear_lane(v.index(), lane),
                Fault::StuckAt1(v) => self.open.set_lane(v.index(), lane),
                Fault::ControlLeak { .. } => {}
            }
        }
    }

    /// Undoes [`BitSimulator::inject`] for every lane at once: the valves
    /// `faults` can change get their commanded word back.
    fn restore(&mut self, vector: &TestVector, faults: &[Fault]) {
        for &fault in faults {
            let v = changed_valve(fault);
            self.open.words[v.index()] = if vector.is_open(v) { !0 } else { 0 };
        }
    }

    /// Applies the suite to every scenario (one fault list each, e.g. a
    /// [`FaultSet`]) and returns, per scenario, whether some vector's
    /// response deviates from the suite's golden response — the detection
    /// rule of [`TestSuite::detects`].
    ///
    /// The sweep is vector-major (see the module docs): each scenario is
    /// visited only at the vectors its faults touch, in vector order, and
    /// there the vector's regions decide what they can; the vector
    /// simulates only the rest, 64 per word pass, and a scenario leaves
    /// the sweep once detected. Memory and the word-pass count grow with
    /// `scenarios.len()`, so callers sweep a chunk of at most
    /// [`SWEEP_CHUNK`] scenarios at a time.
    ///
    /// # Panics
    ///
    /// Panics if a fault references a valve outside the suite's chip.
    pub fn sweep<S: AsRef<[Fault]>>(&mut self, scenarios: &[S]) -> Vec<bool> {
        let suite = self.suite;
        self.stats.blocks += scenarios.len().div_ceil(LANES);
        self.stats.lanes += scenarios.len();
        let mut detected = vec![false; scenarios.len()];
        // Per scenario, its relevance mask over the vectors: the OR of
        // its faults' masks, `words` words at `s * words`.
        let words = suite.len().div_ceil(64);
        let mut masks = vec![0u64; scenarios.len() * words];
        // Per vector, the undetected scenarios to visit there next.
        let mut visits: Vec<Vec<usize>> = vec![Vec::new(); suite.len()];
        for (s, mask) in masks.chunks_exact_mut(words.max(1)).enumerate() {
            suite.relevance_mask(scenarios[s].as_ref(), mask);
            if let Some(i) = next_visit(mask, 0) {
                visits[i].push(s);
            }
        }
        // The scenarios visited at the current vector, and those of them
        // its regions cannot decide.
        let (mut visiting, mut packed) = (Vec::new(), Vec::new());
        for (i, (vector, golden)) in suite.vectors().iter().zip(suite.expected()).enumerate() {
            std::mem::swap(&mut visiting, &mut visits[i]);
            packed.clear();
            let mut carry = |s: usize| {
                if let Some(next) = next_visit(&masks[s * words..(s + 1) * words], i + 1) {
                    visits[next].push(s);
                }
            };
            for s in visiting.drain(..) {
                match suite.classify(i, scenarios[s].as_ref()) {
                    Outcome::ReadsGolden => carry(s),
                    Outcome::Detected => detected[s] = true,
                    Outcome::Simulate => packed.push(s),
                }
            }
            if packed.is_empty() {
                continue;
            }
            self.load_vector(vector);
            for block in packed.chunks(LANES) {
                let differs = self.word_pass(vector, golden, scenarios, block);
                for (lane, &s) in block.iter().enumerate() {
                    if differs >> lane & 1 == 1 {
                        detected[s] = true;
                    } else {
                        carry(s);
                    }
                }
            }
        }
        detected
    }

    /// The stuck-at-1 partners that each stuck-at-0 valve of `valves`
    /// leaves to simulation in the two-fault audit, one entry per valve.
    ///
    /// A pair (stuck-at-0 `a`, stuck-at-1 `b`) is detected when some vector
    /// detects `a` alone and `b` is commanded open in it or has both or
    /// neither endpoint node in the region the vector pressurises under
    /// `a` alone (see the crate docs). So for every vector that detects
    /// `a`, only the commanded-closed partners crossing that region's
    /// boundary survive: the first detection scatters them from the
    /// frontier, later ones filter the list, and `a` stays in the pre-pass
    /// until its list is empty. The entry is `None` when no vector detects
    /// `a`, so every partner survives. Lists are in valve order.
    ///
    /// The stuck-at-0 scenarios are packed and counted in [`KernelStats`]
    /// like [`BitSimulator::sweep`]'s. A lone stuck-at-0 is simulated
    /// exactly when it closes a valve touching the golden region, that is,
    /// at the vectors of its relevance mask: everywhere else it reads
    /// golden. The mask holds only vectors that pressurise a sink, since
    /// elsewhere a stuck-at-0 only shrinks a dry region. The pre-pass needs
    /// the faulty frontier to list partners, so it ignores the cut rule,
    /// which decides many such stuck-at-0 faults detected on chains
    /// without one.
    ///
    /// # Panics
    ///
    /// Panics if `valves` reaches past the suite's chip.
    pub(crate) fn undecided_partners(&mut self, valves: Range<usize>) -> Vec<Option<Vec<ValveId>>> {
        let suite = self.suite;
        let graph = suite.graph();
        let scenarios: Vec<[Fault; 1]> = valves.map(|a| [Fault::StuckAt0(ValveId(a))]).collect();
        self.stats.blocks += scenarios.len().div_ceil(LANES);
        self.stats.lanes += scenarios.len();
        let mut partners: Vec<Option<Vec<ValveId>>> = vec![None; scenarios.len()];
        // The stuck-at-0 valves with partners left to resolve.
        let mut pending: Vec<usize> = (0..scenarios.len()).collect();
        let mut packed = Vec::new();
        for (i, (vector, golden)) in suite.vectors().iter().zip(suite.expected()).enumerate() {
            if pending.is_empty() {
                break;
            }
            packed.clear();
            packed.extend(
                pending.iter().copied().filter(|&s| {
                    suite.relevance(scenarios[s][0], i / 64, false) >> (i % 64) & 1 == 1
                }),
            );
            if packed.is_empty() {
                continue;
            }
            self.load_vector(vector);
            for block in packed.chunks(LANES) {
                let differs = self.word_pass(vector, golden, &scenarios, block);
                let reached = self.frontier.reached();
                // The lanes of `block` in which valve `b` is commanded
                // closed and has exactly one endpoint node reached.
                let crossing = |b: usize| {
                    let [x0, x1] = graph.valve_nodes(ValveId(b));
                    if vector.is_open(ValveId(b)) {
                        0
                    } else {
                        reached.word(x0 as usize) ^ reached.word(x1 as usize)
                    }
                };
                let mut fresh = 0u64;
                for (lane, &s) in block.iter().enumerate() {
                    if differs >> lane & 1 == 1 && partners[s].is_none() {
                        fresh |= 1 << lane;
                        partners[s] = Some(Vec::new());
                    }
                }
                if fresh != 0 {
                    for b in 0..graph.valve_count() {
                        let mut lanes = crossing(b) & fresh;
                        while lanes != 0 {
                            let s = block[lanes.trailing_zeros() as usize];
                            partners[s]
                                .as_mut()
                                .expect("a fresh lane has a list")
                                .push(ValveId(b));
                            lanes &= lanes - 1;
                        }
                    }
                }
                let mut again = differs & !fresh;
                while again != 0 {
                    let lane = again.trailing_zeros();
                    partners[block[lane as usize]]
                        .as_mut()
                        .expect("a detected lane has a list")
                        .retain(|b| crossing(b.index()) >> lane & 1 == 1);
                    again &= again - 1;
                }
            }
            pending.retain(|&s| partners[s].as_ref().is_none_or(|list| !list.is_empty()));
        }
        partners
    }

    /// One packed word pass over the loaded `vector`: injects the faults of
    /// `block`'s scenarios (lane `l` carries `scenarios[block[l]]`, at most
    /// [`LANES`] of them), floods only those lanes from the sources,
    /// restores the commanded valve words and returns the lanes whose sink
    /// readings differ from `golden`. The frontier keeps the pass's reach.
    fn word_pass<S: AsRef<[Fault]>>(
        &mut self,
        vector: &TestVector,
        golden: &Response,
        scenarios: &[S],
        block: &[usize],
    ) -> u64 {
        let graph = self.suite.graph();
        for (lane, &s) in block.iter().enumerate() {
            self.inject(vector, lane, scenarios[s].as_ref());
        }
        let live = !0u64 >> (LANES - block.len());
        self.frontier
            .flood(graph, graph.source_nodes(), live, &self.open);
        self.stats.word_passes += 1;
        let reached = self.frontier.reached();
        let mut differs = 0u64;
        for (&x, &gold) in graph.sink_port_nodes().iter().zip(golden.readings()) {
            let gold = if gold { !0u64 } else { 0 };
            differs |= reached.word(x as usize) ^ gold;
        }
        for &s in block {
            self.restore(vector, scenarios[s].as_ref());
        }
        differs & live
    }
}

/// The integration tests' seeded chips, so the classifier's unit test
/// runs on the cases of their sweep oracle.
#[cfg(test)]
#[path = "../../../tests/common/mod.rs"]
mod common;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultSet;
    use crate::pressure::Pressure;
    use fpva_grid::{
        layouts, EdgeId, Fpva, FpvaBuilder, PortKind, Side, TestVector, ValveId, ValveState,
    };
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn line3() -> Fpva {
        FpvaBuilder::new(1, 3)
            .port(0, 0, Side::West, PortKind::Source)
            .port(0, 2, Side::East, PortKind::Sink)
            .build()
            .unwrap()
    }

    #[test]
    fn lowering_drops_walls_and_tags_valves() {
        let f = FpvaBuilder::new(1, 3)
            .obstacle(0, 1, 0, 1)
            .port(0, 0, Side::West, PortKind::Source)
            .port(0, 2, Side::East, PortKind::Sink)
            .build()
            .unwrap();
        let suite = TestSuite::new(&f, vec![]);
        let graph = suite.graph();
        assert_eq!(graph.node_count(), 3);
        assert_eq!(graph.valve_count(), 0);
        // Both edges border the obstacle: no arcs at all.
        assert_eq!(graph.arc_count(), 0);
        assert_eq!(graph.source_nodes(), &[0]);
        assert_eq!(graph.sink_port_nodes(), &[2]);
    }

    #[test]
    fn lowering_records_valve_endpoint_cells() {
        // Without channels, every cell is a node of its own, numbered as
        // the cells are.
        let f = layouts::full_array(2, 3);
        let suite = TestSuite::new(&f, vec![]);
        let graph = suite.graph();
        for (v, edge) in f.valves() {
            let (a, b) = edge.endpoints();
            let cells = [a, b].map(|c| u32::try_from(f.cell_index(c)).unwrap());
            assert_eq!(graph.valve_nodes(v), cells, "{v}");
            let [x, y] = cells;
            let valve = u32::try_from(v.index()).unwrap();
            assert!(graph
                .arcs(x as usize)
                .iter()
                .any(|a| (a.to, a.valve) == (y, valve)));
            assert!(graph
                .arcs(y as usize)
                .iter()
                .any(|a| (a.to, a.valve) == (x, valve)));
        }
    }

    #[test]
    fn channels_conduct_in_every_lane() {
        let f = FpvaBuilder::new(1, 3)
            .channel_horizontal(0, 0, 2)
            .port(0, 0, Side::West, PortKind::Source)
            .port(0, 2, Side::East, PortKind::Sink)
            .build()
            .unwrap();
        let suite = TestSuite::new(&f, vec![TestVector::all_open(0)]);
        // The channel is one node, which holds both ports and has no arcs.
        let graph = suite.graph();
        assert_eq!(graph.node_count(), 1);
        assert_eq!(graph.arc_count(), 0);
        assert_eq!(graph.sink_port_nodes(), graph.source_nodes());
        assert!(suite.expected()[0].any_pressure());
        let mut sim = BitSimulator::new(&suite);
        // A fault-free scenario is never detected.
        assert_eq!(sim.sweep(&[FaultSet::new()]), [false]);
    }

    /// Exhaustive oracle check on a small chip: every vector × a batch of
    /// random fault sets, bit lanes vs scalar responses.
    #[test]
    fn propagation_matches_scalar_oracle_on_random_scenarios() {
        let f = layouts::full_array(3, 4);
        let suite = TestSuite::new(&f, vec![]);
        let graph = suite.graph();
        let mut frontier = BitFrontier::new(graph.node_count());
        let leaks = crate::ObservableLeaks::build(&f);
        let mut rng = StdRng::seed_from_u64(11);
        for round in 0..8 {
            // A random vector and 64 random fault sets.
            let mut vector = TestVector::all_closed(f.valve_count());
            for (v, _) in f.valves() {
                if rng.gen_range(0..2) == 1 {
                    vector.set(v, ValveState::Open);
                }
            }
            let sets: Vec<FaultSet> = (0..LANES)
                .map(|_| {
                    crate::campaign::random_fault_set_from(&f, &mut rng, round % 4 + 1, &leaks)
                })
                .collect();
            let mut sim = BitSimulator::new(&suite);
            sim.load_vector(&vector);
            for (lane, set) in sets.iter().enumerate() {
                sim.inject(&vector, lane, set.faults());
            }
            frontier.flood(graph, graph.source_nodes(), !0, &sim.open);
            for (lane, set) in sets.iter().enumerate() {
                let scalar = crate::pressure::propagate(&f, &vector, set);
                for ci in 0..f.cell_count() {
                    assert_eq!(
                        frontier.reached().lane(graph.node(ci), lane),
                        scalar.at(f.cell_at(ci)),
                        "round {round} lane {lane} cell {ci}: {set:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn sweep_matches_suite_detects() {
        let f = layouts::table1_5x5();
        let suite = TestSuite::new(
            &f,
            vec![
                TestVector::all_open(f.valve_count()),
                TestVector::all_closed(f.valve_count()),
            ],
        );
        let leaks = crate::ObservableLeaks::build(&f);
        let mut rng = StdRng::seed_from_u64(5);
        // 70 sets: one full block plus a partial one.
        let sets: Vec<FaultSet> = (0..70)
            .map(|i| crate::campaign::random_fault_set_from(&f, &mut rng, i % 5 + 1, &leaks))
            .collect();
        let mut sim = BitSimulator::new(&suite);
        let detected = sim.sweep(&sets);
        for (set, &hit) in sets.iter().zip(&detected) {
            assert_eq!(hit, suite.detects(&f, set), "{set:?}");
        }
        assert!(
            detected.contains(&false),
            "the weak suite lets some sets escape"
        );
        let stats = sim.stats();
        assert_eq!(stats.blocks, 2);
        assert_eq!(stats.lanes, 70);
        // At most two packed passes per vector.
        assert!((1..=4).contains(&stats.word_passes), "{stats:?}");
    }

    #[test]
    fn empty_block_detects_nothing() {
        let f = line3();
        let suite = TestSuite::new(&f, vec![TestVector::all_open(f.valve_count())]);
        let mut sim = BitSimulator::new(&suite);
        assert!(sim.sweep::<FaultSet>(&[]).is_empty());
        assert_eq!(sim.stats(), KernelStats::default());
    }

    /// Both decided outcomes of the classifier are exact: on the cases of
    /// the integration sweep oracle (`for_each_classifier_case`), every
    /// scenario it reads golden responds like the fault-free chip under
    /// scalar `respond`, and every scenario it marks detected does not.
    /// The walks' chains make the cut rule decide more than a thousand.
    #[test]
    fn decided_scenarios_match_scalar_respond() {
        let (mut golden, mut detected, mut cut) = (0, 0, 0);
        super::common::for_each_classifier_case(|f, vector, sets| {
            let suite = TestSuite::new(f, vec![vector.clone()]);
            for set in sets {
                let reads_golden = crate::respond(f, vector, set) == suite.expected()[0];
                match suite.classify(0, set.faults()) {
                    Outcome::ReadsGolden => {
                        golden += 1;
                        assert!(
                            reads_golden,
                            "read golden but detected: {set:?} under {vector:?}"
                        );
                    }
                    Outcome::Detected => {
                        detected += 1;
                        cut += usize::from(super::common::closes_golden_region(f, vector, set));
                        assert!(
                            !reads_golden,
                            "marked detected but golden: {set:?} under {vector:?}"
                        );
                    }
                    Outcome::Simulate => {}
                }
            }
        });
        assert!(
            golden > 1000 && detected > 1000 && cut > 1000,
            "{golden} read golden, {detected} detected, {cut} of them by the cut rule"
        );
    }

    /// The relevance masks are exact: on the same cases, every scenario
    /// whose mask skips the vector responds like the fault-free chip under
    /// scalar `respond`.
    #[test]
    fn masked_out_scenarios_read_golden() {
        let (mut skipped, mut visited) = (0, 0);
        super::common::for_each_classifier_case(|f, vector, sets| {
            let suite = TestSuite::new(f, vec![vector.clone()]);
            let mut mask = [0];
            for set in sets {
                suite.relevance_mask(set.faults(), &mut mask);
                if mask[0] & 1 == 1 {
                    visited += 1;
                    continue;
                }
                skipped += 1;
                assert_eq!(
                    crate::respond(f, vector, set),
                    suite.expected()[0],
                    "{set:?} under {vector:?}"
                );
            }
        });
        assert!(
            skipped > 1000 && visited > 1000,
            "{skipped} skipped, {visited} visited"
        );
    }

    /// A 2x2 array with the source at `(0, 0)`, sinks at `(0, 1)` and
    /// `(1, 1)`, and its valves: top, bottom, left and right.
    fn two_sinks() -> (Fpva, [ValveId; 4]) {
        let f = FpvaBuilder::new(2, 2)
            .port(0, 0, Side::West, PortKind::Source)
            .port(0, 1, Side::East, PortKind::Sink)
            .port(1, 1, Side::East, PortKind::Sink)
            .build()
            .unwrap();
        let valves = [
            EdgeId::horizontal(0, 0),
            EdgeId::horizontal(1, 0),
            EdgeId::vertical(0, 0),
            EdgeId::vertical(0, 1),
        ]
        .map(|edge| f.valve_at(edge).unwrap());
        (f, valves)
    }

    /// Visits the masks skip, skipped or visited as lemmas A and B say.
    fn check_tight_mask_cases() {
        let stuck = |faults: Vec<Fault>| FaultSet::try_from_faults(faults).unwrap();
        // Lemma A: on a cut vector no sink is wet, so a stuck-at-0 or a
        // leak that only closes a valve inside `R` is never visited.
        let f = line3();
        let mut cut = TestVector::all_open(f.valve_count());
        cut.set(ValveId(1), ValveState::Closed);
        let suite = TestSuite::new(&f, vec![cut.clone()]);
        for set in [
            stuck(vec![Fault::StuckAt0(ValveId(0))]),
            stuck(vec![Fault::ControlLeak {
                actuator: ValveId(1),
                victim: ValveId(0),
            }]),
        ] {
            let mut mask = [0];
            suite.relevance_mask(set.faults(), &mut mask);
            assert_eq!(mask, [0], "{set:?}");
            assert_eq!(crate::respond(&f, &cut, &set), suite.expected()[0]);
        }
        // Lemma B: the path vector opens the top valve, so the left valve
        // leads from `R` into the sealed cell `(1, 0)` off the sink side,
        // and the right valve into the sealed sink cell `(1, 1)`.
        let (f, [top, bottom, left, right]) = two_sinks();
        let vector = TestVector::from_open_valves(f.valve_count(), [top]);
        let suite = TestSuite::new(&f, vec![vector.clone()]);
        let mut sim = BitSimulator::new(&suite);
        let alone = stuck(vec![Fault::StuckAt1(left)]);
        let meeting = stuck(vec![Fault::StuckAt1(left), Fault::StuckAt1(bottom)]);
        let into_sink = stuck(vec![Fault::StuckAt1(right)]);
        let mut mask = [0];
        suite.relevance_mask(alone.faults(), &mut mask);
        assert_eq!(mask, [0], "one opening into a dead end is skipped");
        assert_eq!(crate::respond(&f, &vector, &alone), suite.expected()[0]);
        // A second stuck-at-1 at `(1, 0)` carries the pressure on to the
        // second sink: the pair is visited and detected.
        suite.relevance_mask(meeting.faults(), &mut mask);
        assert_eq!(mask, [1], "two openings at one sealed cell are visited");
        assert_ne!(crate::respond(&f, &vector, &meeting), suite.expected()[0]);
        // A sealed sink cell is no dead end.
        suite.relevance_mask(into_sink.faults(), &mut mask);
        assert_eq!(mask, [1], "an opening into a sealed sink is visited");
        assert_eq!(sim.sweep(&[alone, meeting, into_sink]), [false, true, true]);
    }

    /// Checks that every visit the relevance masks skip responds golden
    /// under scalar `respond`, on `chips` chips of `SMALL_CHIPS` with
    /// valves, each under a suite of four walk vectors and four random
    /// ones. Per walk vector come 64 fault sets drawn toward its golden
    /// region and 64 uniform ones, each checked at all eight vectors.
    /// Returns the skipped visits at which a closing touches `R` (lemma
    /// A's) and those at which an opening crosses `R` into a dead end
    /// (lemma B's), and the visits the dead-end masks add that detect
    /// their scenario.
    fn check_tight_masks(chips: usize, seed: u64) -> [usize; 3] {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut by_a, mut by_b, mut meeting) = (0, 0, 0);
        for _ in 0..chips {
            let f = loop {
                let f = layouts::generated(&super::common::SMALL_CHIPS, &mut |range| {
                    rng.gen_range(range)
                });
                if f.valve_count() > 0 {
                    break f;
                }
            };
            let leaks = crate::ObservableLeaks::build(&f);
            let walks: Vec<TestVector> = (0..4)
                .map(|_| super::common::walk_vector(&f, &mut rng))
                .collect();
            let mut vectors = walks.clone();
            vectors.extend(random_vectors(&f, &mut rng, 2).into_iter().take(4));
            let suite = TestSuite::new(&f, vectors);
            let mut sets = Vec::new();
            for walk in &walks {
                sets.extend(super::common::region_fault_sets(&f, walk, &mut rng));
                sets.extend((0..64).map(|k| {
                    let count = (k % 5 + 1).min(f.valve_count());
                    crate::campaign::random_fault_set_from(&f, &mut rng, count, &leaks)
                }));
            }
            let golden: Vec<Pressure> = suite
                .vectors()
                .iter()
                .map(|v| crate::propagate(&f, v, &FaultSet::new()))
                .collect();
            let mut mask = [0];
            for set in &sets {
                suite.relevance_mask(set.faults(), &mut mask);
                let plain = set
                    .faults()
                    .iter()
                    .fold(0, |word, &fault| word | suite.relevance(fault, 0, false));
                for (i, vector) in suite.vectors().iter().enumerate() {
                    let reads_golden = crate::respond(&f, vector, set) == suite.expected()[i];
                    if mask[0] >> i & 1 == 1 {
                        meeting += usize::from(plain >> i & 1 == 0 && !reads_golden);
                        continue;
                    }
                    assert!(
                        reads_golden,
                        "skipped but detected: {set:?} under {vector:?}"
                    );
                    let (mut closes, mut crosses) = (false, false);
                    for &fault in set.faults() {
                        let v = changed_valve(fault);
                        let (a, b) = f.valve_endpoints(v);
                        let (a, b) = (golden[i].at(a), golden[i].at(b));
                        if matches!(fault, Fault::StuckAt1(_)) {
                            crosses |= !vector.is_open(v) && a != b;
                        } else {
                            closes |= vector.is_open(v) && (a || b);
                        }
                    }
                    by_a += usize::from(closes);
                    by_b += usize::from(crosses);
                }
            }
        }
        [by_a, by_b, meeting]
    }

    /// The tightened masks skip only visits that cannot change a reading:
    /// the cases of lemmas A and B, then random multi-port chips.
    #[test]
    fn tight_masks_skip_only_golden_visits() {
        check_tight_mask_cases();
        let [by_a, by_b, meeting] = check_tight_masks(100, 0x7167);
        assert!(
            by_a > 5000 && by_b > 20_000 && meeting > 500,
            "lemma A skipped {by_a}, lemma B {by_b}; dead ends detected {meeting}"
        );
    }

    #[test]
    #[ignore = "release-only: scalar responses of every visit on 4000 chips"]
    fn tight_masks_skip_only_golden_visits_at_scale() {
        let [by_a, by_b, meeting] = check_tight_masks(4000, 0x7168);
        assert!(
            by_a > 200_000 && by_b > 800_000 && meeting > 20_000,
            "lemma A skipped {by_a}, lemma B {by_b}; dead ends detected {meeting}"
        );
    }

    /// Twelve random vectors for `f`, each valve open with probability
    /// `open_in_4 / 4`. Sparser vectors make more stuck-at-0 faults
    /// detectable; denser ones pressurise more sinks.
    fn random_vectors(f: &Fpva, rng: &mut StdRng, open_in_4: usize) -> Vec<TestVector> {
        (0..12)
            .map(|_| {
                let mut vector = TestVector::all_closed(f.valve_count());
                for (v, _) in f.valves() {
                    if rng.gen_range(0..4usize) < open_in_4 {
                        vector.set(v, ValveState::Open);
                    }
                }
                vector
            })
            .collect()
    }

    /// Whether `b` is commanded closed in `vector` and has exactly one
    /// endpoint cell in `reach`.
    fn crosses(f: &Fpva, reach: &Pressure, vector: &TestVector, b: usize) -> bool {
        let (c0, c1) = f.valve_endpoints(ValveId(b));
        !vector.is_open(ValveId(b)) && reach.at(c0) != reach.at(c1)
    }

    /// The composition rule is exact: whenever a vector detects a
    /// stuck-at-0 alone and the stuck-at-1 partner is commanded open or
    /// does not cross the stuck-at-0's pressure region, the pair responds
    /// like the stuck-at-0 alone.
    #[test]
    fn composed_pairs_respond_like_their_stuck_at_0() {
        let mut composed = 0;
        for f in [
            layouts::table1_5x5(),
            layouts::full_array(3, 4),
            layouts::custom_biochip(),
        ] {
            let mut rng = StdRng::seed_from_u64(23);
            let suite = TestSuite::new(&f, random_vectors(&f, &mut rng, 3));
            for _ in 0..30 {
                let a = ValveId(rng.gen_range(0..f.valve_count()));
                let alone = FaultSet::try_from_faults(vec![Fault::StuckAt0(a)]).unwrap();
                for (vector, golden) in suite.vectors().iter().zip(suite.expected()) {
                    let response = crate::respond(&f, vector, &alone);
                    if response == *golden {
                        continue;
                    }
                    let reach = crate::propagate(&f, vector, &alone);
                    for b in (0..f.valve_count()).filter(|&b| b != a.index()) {
                        if crosses(&f, &reach, vector, b) {
                            continue;
                        }
                        composed += 1;
                        let pair = FaultSet::try_from_faults(vec![
                            Fault::StuckAt0(a),
                            Fault::StuckAt1(ValveId(b)),
                        ])
                        .unwrap();
                        assert_eq!(
                            crate::respond(&f, vector, &pair),
                            response,
                            "{pair:?} under {vector:?}"
                        );
                    }
                }
            }
        }
        assert!(composed > 1000, "the rule decided only {composed} pairs");
    }

    /// The pre-pass's partner lists equal the composition rule applied
    /// with the scalar oracle: `None` when no vector detects the stuck-at-0
    /// alone, otherwise every partner that is commanded closed and crosses
    /// the stuck-at-0's pressure region under every detecting vector.
    #[test]
    fn partner_lists_follow_the_composition_rule() {
        let (mut detected, mut undetected, mut filtered) = (0, 0, 0);
        for f in [layouts::table1_5x5(), layouts::custom_biochip()] {
            let nv = f.valve_count();
            let mut rng = StdRng::seed_from_u64(29);
            let vectors = [2, 2, 2, 3].map(|open_in_4| random_vectors(&f, &mut rng, open_in_4));
            let suite = TestSuite::new(&f, vectors.concat());
            let expected: Vec<Option<Vec<ValveId>>> = (0..nv)
                .map(|a| {
                    let alone =
                        FaultSet::try_from_faults(vec![Fault::StuckAt0(ValveId(a))]).unwrap();
                    let mut partners: Option<Vec<ValveId>> = None;
                    for (vector, golden) in suite.vectors().iter().zip(suite.expected()) {
                        if crate::respond(&f, vector, &alone) == *golden {
                            continue;
                        }
                        let reach = crate::propagate(&f, vector, &alone);
                        filtered += usize::from(partners.is_some());
                        let list = partners.get_or_insert_with(|| {
                            (0..nv).filter(|&b| b != a).map(ValveId).collect()
                        });
                        list.retain(|b| crosses(&f, &reach, vector, b.index()));
                    }
                    partners
                })
                .collect();
            // Two calls, the second off a lane-word boundary.
            let split = nv / 2 + 1;
            let mut sim = BitSimulator::new(&suite);
            let mut lists = sim.undecided_partners(0..split);
            lists.extend(sim.undecided_partners(split..nv));
            assert_eq!(lists, expected);
            detected += lists.iter().filter(|list| list.is_some()).count();
            undetected += lists.iter().filter(|list| list.is_none()).count();
            let stats = sim.stats();
            assert_eq!(stats.lanes, nv);
            assert_eq!(
                stats.blocks,
                split.div_ceil(LANES) + (nv - split).div_ceil(LANES)
            );
        }
        assert!(
            detected > 50 && undetected > 50 && filtered > 40,
            "{detected} detected, {undetected} undetected, {filtered} filtered"
        );
    }

    #[test]
    fn sweep_packs_only_disturbed_undetected_scenarios() {
        let f = line3();
        let open = TestVector::all_open(f.valve_count());
        let suite = TestSuite::new(&f, vec![open.clone(), open]);
        let stuck = |fault: Fault| FaultSet::try_from_faults(vec![fault]).unwrap();
        // 100 stuck-at-1 faults on commanded-open valves change nothing;
        // 100 stuck-at-0 faults are all caught by the first vector.
        let mut sets = vec![stuck(Fault::StuckAt1(ValveId(0))); 100];
        sets.extend(vec![stuck(Fault::StuckAt0(ValveId(1))); 100]);
        let mut sim = BitSimulator::new(&suite);
        let detected = sim.sweep(&sets);
        assert!(detected[..100].iter().all(|&hit| !hit));
        assert!(detected[100..].iter().all(|&hit| hit));
        let stats = sim.stats();
        assert_eq!(stats.blocks, 4);
        assert_eq!(stats.lanes, 200);
        // The all-open vector's golden region is a chain of the three
        // cells, and each stuck-at-0 cuts it before the sink with nothing
        // opened, so the first vector marks all 100 detected with no word
        // pass. The stuck-at-1 faults touch no vector's mask: neither
        // vector visits them.
        assert_eq!(stats.word_passes, 0);
    }

    #[test]
    fn stuck_at_lanes_detected_independently() {
        let f = line3();
        // All-open path vector: a stuck-at-0 anywhere on the series line
        // kills the sink reading; a stuck-at-1 is invisible.
        let suite = TestSuite::new(&f, vec![TestVector::all_open(f.valve_count())]);
        let sets = [
            FaultSet::try_from_faults(vec![Fault::StuckAt0(ValveId(0))]).unwrap(),
            FaultSet::try_from_faults(vec![Fault::StuckAt1(ValveId(0))]).unwrap(),
            FaultSet::new(),
            FaultSet::try_from_faults(vec![Fault::StuckAt0(ValveId(1))]).unwrap(),
        ];
        let mut sim = BitSimulator::new(&suite);
        assert_eq!(sim.sweep(&sets), [true, false, false, true]);
    }

    #[test]
    fn control_leak_follows_actuator_command_per_lane() {
        // 2x2 array; leak actuator commanded closed drags the victim
        // closed only in the lane carrying the leak.
        let f = layouts::full_array(2, 2);
        let suite = TestSuite::new(&f, vec![]);
        let a = ValveId(0);
        let v = f.valve_neighbors(a)[0];
        let mut vector = TestVector::all_open(f.valve_count());
        vector.set(a, ValveState::Closed);
        let leak = FaultSet::try_from_faults(vec![Fault::ControlLeak {
            actuator: a,
            victim: v,
        }])
        .unwrap();
        let mut sim = BitSimulator::new(&suite);
        sim.load_vector(&vector);
        sim.inject(&vector, 0, leak.faults());
        // Lane 0 carries the leak: victim closed. Lane 1 is fault-free:
        // victim follows its open command.
        assert!(!sim.open.lane(v.index(), 0));
        assert!(sim.open.lane(v.index(), 1));
        // Restoring gives the victim its commanded word back.
        sim.restore(&vector, leak.faults());
        assert_eq!(sim.open.word(v.index()), !0);
        // With the actuator commanded open the leak is dormant.
        let all_open = TestVector::all_open(f.valve_count());
        sim.load_vector(&all_open);
        sim.inject(&all_open, 0, leak.faults());
        assert!(sim.open.lane(v.index(), 0));
    }

    #[test]
    fn frontier_is_reusable_across_propagations() {
        let f = line3();
        let graph = ChipGraph::new(&f);
        let mut frontier = BitFrontier::new(graph.node_count());
        let mut open = LaneSet::zeros(graph.valve_count());
        open.broadcast(|_| true);
        frontier.flood(&graph, graph.source_nodes(), !0, &open);
        assert_eq!(frontier.reached().word(2), !0);
        open.broadcast(|_| false);
        frontier.flood(&graph, graph.source_nodes(), !0, &open);
        assert_eq!(frontier.reached().word(2), 0, "stale lanes must be cleared");
        assert_eq!(frontier.reached().word(0), !0, "sources stay pressurised");
    }

    #[test]
    fn lane_set_bit_ops() {
        let mut set = LaneSet::zeros(3);
        assert_eq!(set.len(), 3);
        set.set_lane(1, 63);
        assert!(set.lane(1, 63));
        assert_eq!(set.word(1), 1 << 63);
        set.clear_lane(1, 63);
        assert_eq!(set.word(1), 0);
        set.broadcast(|i| i == 2);
        assert_eq!(set.word(2), !0);
        set.clear();
        assert_eq!(set.word(2), 0);
    }
}
