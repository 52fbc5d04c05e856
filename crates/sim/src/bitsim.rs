//! Word-parallel (PPSFP-style) fault simulation kernel.
//!
//! The scalar path ([`crate::propagate`]/[`crate::respond`]) answers "does pressure reach the
//! sinks?" for **one** `(vector, fault set)` combination per BFS. Campaigns
//! and audits ask that question for thousands of fault scenarios against
//! the *same* suite, so this module packs [`LANES`] scenarios into one
//! `u64` per graph element and propagates all of them through a single
//! bitset BFS — the classic parallel-fault answer from VLSI ATPG,
//! transplanted to valve-array pressure propagation:
//!
//! * [`LoweredChip`] — the chip's cell adjacency lowered once per chip into
//!   a flat CSR table (wall edges dropped, channel edges marked
//!   always-open, valve edges tagged with their dense valve index), plus
//!   the two endpoint cells of every valve,
//! * [`LaneSet`] — one `u64` lane word per element of some universe
//!   (per valve: "which scenarios hold this valve open"; per cell: "which
//!   scenarios pressurise this cell"),
//! * [`BitFrontier`] — the reusable bitset-BFS worklist: seeds a lane word
//!   at the source cells and saturates reachability with word-wide
//!   AND/OR over the lowered adjacency,
//! * [`BitSimulator`] — the fault-dropping sweep built on top: applies a
//!   suite vector by vector to a chunk of scenarios and reports which
//!   ones some vector detects, plus [`KernelStats`] counters.
//!
//! # Vector-major sweep with fault dropping
//!
//! [`BitSimulator::sweep`] walks the suite once over a whole chunk of
//! scenarios ([`SWEEP_CHUNK`] in campaigns and audits). At each vector it
//! looks only at the scenarios no earlier vector detected (fault
//! dropping), and simulates only those the vector can *disturb*: one of
//! their faults changes the effective state ([`FaultSet::effective_states`]:
//! commanded state, then control leaks by the actuator's command, then
//! stuck-at overrides) of a valve with an endpoint in the vector's
//! fault-free pressure region `R`, which the [`TestSuite`] keeps per
//! vector. The disturbed scenarios are packed 64 per word pass in scenario
//! order, with only the occupied lanes seeded at the sources and compared
//! at the sinks. Every other scenario is carried to the next vector
//! unsimulated.
//!
//! Skipping a scenario is exact. `R` holds the sources and is closed under
//! the fault-free open edges, since it is their reach. If the scenario
//! changes no valve that touches `R`, every edge leaving `R` is a channel
//! or a valve at its commanded state, so it is closed under the faulty
//! open edges too, and the edges inside `R` that carried the golden
//! pressure are unchanged. The faulty reach is therefore `R` itself, and
//! every sink reads golden.
//!
//! # Scalar-oracle invariant
//!
//! For every `(vector, fault set)` the lane bit computed here equals the
//! scalar result of [`crate::respond`] compared against the
//! suite's golden response — byte for byte, not approximately. The scalar
//! path stays in the tree as the oracle: the differential campaign and
//! audit tests run both kernels, on complete and on deliberately weak
//! suites, and assert identical [`crate::campaign::CampaignRow`]s and
//! `undetected` lists; the unit tests below check the per-scenario
//! reachability sets and the skip rule themselves. Anything observable
//! may *only* differ in speed.

use crate::fault::Fault;
#[cfg(doc)]
use crate::fault::FaultSet;
use crate::suite::TestSuite;
use fpva_grid::{EdgeKind, Fpva, PortKind, TestVector, ValveId};
use std::collections::VecDeque;

/// Scenarios packed per machine word.
pub const LANES: usize = 64;

/// Scenarios per sweep: the fixed work-chunk size of the bit-parallel
/// campaign and audits. A multiple of [`LANES`] and never derived from the
/// thread count, so the chunk decomposition, and with it every
/// [`KernelStats`] counter, is the same for every pool size. A larger
/// chunk gives each vector more still-undetected scenarios to pack into
/// full words; a chunk's fault sets stay small next to the chip.
pub const SWEEP_CHUNK: usize = 32 * LANES;

/// Gate marker for an always-open (channel) edge in the lowered adjacency.
const OPEN_GATE: u32 = u32::MAX;

/// A chip's adjacency pre-lowered for the bitset kernel: flat CSR arrays
/// built **once** per chip (next to [`crate::campaign::ObservableLeaks`] in
/// a campaign) and shared read-only by every worker.
///
/// Wall edges are dropped at lowering time, channel edges carry an
/// always-open marker, and valve edges carry the dense valve index — so
/// the BFS inner loop is a word AND against the per-valve lane word, with
/// no `EdgeKind` dispatch or `EdgeId` arithmetic left on the hot path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoweredChip {
    cell_count: usize,
    valve_count: usize,
    /// CSR row starts: cell `c`'s neighbours live at
    /// `adj_start[c]..adj_start[c + 1]`.
    adj_start: Vec<u32>,
    /// Neighbour cell index of each adjacency entry.
    adj_next: Vec<u32>,
    /// Gate of each adjacency entry: [`OPEN_GATE`] or a valve index.
    adj_gate: Vec<u32>,
    /// Source-port cells (deduplicated, in port order).
    sources: Vec<u32>,
    /// Sink-port cells in port declaration order — parallel to the
    /// readings of a [`crate::Response`], duplicates kept.
    sinks: Vec<u32>,
    /// The two endpoint cells of each valve, by dense valve index.
    valve_cells: Vec<[u32; 2]>,
}

impl LoweredChip {
    /// Lowers `fpva`'s adjacency. Cost is one scan over the cells and
    /// edges; do it once per chip, not per campaign row.
    pub fn build(fpva: &Fpva) -> Self {
        let cell_count = fpva.cell_count();
        let mut adj_start = Vec::with_capacity(cell_count + 1);
        let mut adj_next = Vec::new();
        let mut adj_gate = Vec::new();
        adj_start.push(0);
        for ci in 0..cell_count {
            let cell = fpva.cell_at(ci);
            for (edge, next) in fpva.neighbors(cell) {
                let gate = match fpva.edge_kind(edge) {
                    EdgeKind::Wall => continue,
                    EdgeKind::Open => OPEN_GATE,
                    EdgeKind::Valve => {
                        let v = fpva.valve_at(edge).expect("valve edge has a valve id");
                        u32::try_from(v.index()).expect("valve index fits u32")
                    }
                };
                adj_next.push(u32::try_from(fpva.cell_index(next)).expect("cell fits u32"));
                adj_gate.push(gate);
            }
            adj_start.push(u32::try_from(adj_next.len()).expect("adjacency fits u32"));
        }
        let mut sources = Vec::new();
        let mut sinks = Vec::new();
        for (_, port) in fpva.ports() {
            let ci = u32::try_from(fpva.cell_index(port.cell)).expect("cell fits u32");
            match port.kind {
                PortKind::Source => {
                    if !sources.contains(&ci) {
                        sources.push(ci);
                    }
                }
                PortKind::Sink => sinks.push(ci),
            }
        }
        let cell_of = |c| u32::try_from(fpva.cell_index(c)).expect("cell fits u32");
        let valve_cells = fpva
            .valves()
            .map(|(v, _)| {
                let (a, b) = fpva.valve_endpoints(v);
                [cell_of(a), cell_of(b)]
            })
            .collect();
        LoweredChip {
            cell_count,
            valve_count: fpva.valve_count(),
            adj_start,
            adj_next,
            adj_gate,
            sources,
            sinks,
            valve_cells,
        }
    }

    /// Number of fluid cells of the lowered chip.
    pub fn cell_count(&self) -> usize {
        self.cell_count
    }

    /// Number of valves of the lowered chip.
    pub fn valve_count(&self) -> usize {
        self.valve_count
    }

    /// Dense cell indices of the source ports (deduplicated).
    pub fn source_cells(&self) -> &[u32] {
        &self.sources
    }

    /// Dense cell indices of the sink ports, in port declaration order
    /// (one entry per sink port, so the slice is parallel to golden
    /// response readings).
    pub fn sink_cells(&self) -> &[u32] {
        &self.sinks
    }

    /// Whether some fault of `faults` changes the effective state of a
    /// valve with an endpoint in `reach` (a bitset over dense cell
    /// indices) when the chip is driven with `vector`. "Changes" follows
    /// the [`FaultSet::effective_states`] rules valve by valve, so it holds
    /// exactly when the valve's effective state differs from its command.
    fn disturbs(&self, vector: &TestVector, reach: &[u64], faults: &[Fault]) -> bool {
        let borders = |v: ValveId| {
            self.valve_cells[v.index()]
                .iter()
                .any(|&c| reach[c as usize / 64] >> (c % 64) & 1 == 1)
        };
        faults.iter().any(|&fault| {
            let changes = match fault {
                Fault::StuckAt0(v) => vector.is_open(v),
                Fault::StuckAt1(v) => !vector.is_open(v),
                // A stuck-at-1 victim stays open whatever the leak does.
                Fault::ControlLeak { actuator, victim } => {
                    !vector.is_open(actuator)
                        && vector.is_open(victim)
                        && !faults.contains(&Fault::StuckAt1(victim))
                }
            };
            changes && borders(changed_valve(fault))
        })
    }
}

/// The valve whose effective state `fault` can change: a stuck-at
/// fault's own valve, a control leak's victim.
fn changed_valve(fault: Fault) -> ValveId {
    match fault {
        Fault::StuckAt0(v) | Fault::StuckAt1(v) => v,
        Fault::ControlLeak { victim, .. } => victim,
    }
}

/// One `u64` lane word per element of some universe — per valve ("which
/// scenarios hold this valve open") or per cell ("which scenarios reach
/// this cell"). Bit `l` of word `i` belongs to scenario lane `l`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneSet {
    words: Vec<u64>,
}

impl LaneSet {
    /// All-zero lane words over `len` elements.
    pub fn zeros(len: usize) -> Self {
        LaneSet {
            words: vec![0; len],
        }
    }

    /// Number of elements (words), not lanes.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// `true` when the universe has no elements.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The lane word of element `i`.
    pub fn word(&self, i: usize) -> u64 {
        self.words[i]
    }

    /// Clears every word to zero.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Broadcasts a per-element predicate to all 64 lanes: element `i`
    /// becomes all-ones when `pred(i)`, all-zeros otherwise.
    pub fn broadcast(&mut self, pred: impl Fn(usize) -> bool) {
        for (i, w) in self.words.iter_mut().enumerate() {
            *w = if pred(i) { !0 } else { 0 };
        }
    }

    /// Sets lane `lane` of element `i`.
    pub fn set_lane(&mut self, i: usize, lane: usize) {
        debug_assert!(lane < LANES);
        self.words[i] |= 1 << lane;
    }

    /// Clears lane `lane` of element `i`.
    pub fn clear_lane(&mut self, i: usize, lane: usize) {
        debug_assert!(lane < LANES);
        self.words[i] &= !(1 << lane);
    }

    /// `true` when lane `lane` of element `i` is set.
    pub fn lane(&self, i: usize, lane: usize) -> bool {
        debug_assert!(lane < LANES);
        self.words[i] >> lane & 1 == 1
    }
}

/// Reusable bitset-BFS state: the per-cell reached [`LaneSet`] plus the
/// worklist. One propagation floods **all 64 lanes at once** — the inner
/// loop is `reached[cell] & open[valve]` per adjacency entry, i.e. the
/// per-scenario BFS of [`crate::propagate`] collapsed into
/// word-wide AND/OR.
#[derive(Debug, Clone)]
pub struct BitFrontier {
    reached: LaneSet,
    queue: VecDeque<u32>,
    queued: Vec<bool>,
}

impl BitFrontier {
    /// Fresh frontier for a chip with `cells` fluid cells.
    pub fn new(cells: usize) -> Self {
        BitFrontier {
            reached: LaneSet::zeros(cells),
            queue: VecDeque::new(),
            queued: vec![false; cells],
        }
    }

    /// Floods reachability from the chip's source cells: lane `l` of cell
    /// `c` ends up set exactly when scenario `l` (whose open valves are
    /// lane `l` of `open`) lets pressure travel from some source to `c`.
    ///
    /// `open` must hold one word per valve of `chip`. Source cells are
    /// pressurised in every lane, mirroring the scalar propagation.
    pub fn propagate(&mut self, chip: &LoweredChip, open: &LaneSet) {
        self.propagate_from(chip, chip.source_cells(), open);
    }

    /// Like [`BitFrontier::propagate`], seeded at an arbitrary cell set —
    /// the graph is undirected, so seeding at the sinks computes "which
    /// scenarios let this cell reach a sink" (used by the
    /// observable-leak precomputation).
    ///
    /// # Panics
    ///
    /// Panics if `open` was not sized for `chip`'s valve count or the
    /// frontier for its cell count.
    pub fn propagate_from(&mut self, chip: &LoweredChip, seeds: &[u32], open: &LaneSet) {
        self.flood(chip, seeds, !0, open);
    }

    /// [`BitFrontier::propagate_from`] with only the lanes of `lanes`
    /// pressurised at the seeds; every other lane stays empty everywhere.
    fn flood(&mut self, chip: &LoweredChip, seeds: &[u32], lanes: u64, open: &LaneSet) {
        assert_eq!(open.len(), chip.valve_count, "open-lane/valve mismatch");
        assert_eq!(
            self.reached.len(),
            chip.cell_count,
            "frontier/chip mismatch"
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
        while let Some(c) = self.queue.pop_front() {
            let ci = c as usize;
            self.queued[ci] = false;
            let w = self.reached.words[ci];
            let lo = chip.adj_start[ci] as usize;
            let hi = chip.adj_start[ci + 1] as usize;
            for k in lo..hi {
                let gate = chip.adj_gate[k];
                let pass = if gate == OPEN_GATE {
                    w
                } else {
                    w & open.words[gate as usize]
                };
                let ni = chip.adj_next[k] as usize;
                let new = pass & !self.reached.words[ni];
                if new != 0 {
                    self.reached.words[ni] |= new;
                    if !self.queued[ni] {
                        self.queued[ni] = true;
                        self.queue.push_back(chip.adj_next[k]);
                    }
                }
            }
        }
    }

    /// The per-cell reached lanes of the last propagation.
    pub fn reached(&self) -> &LaneSet {
        &self.reached
    }

    /// Lane word of one cell (by dense cell index).
    pub fn lanes_at(&self, cell: usize) -> u64 {
        self.reached.word(cell)
    }
}

/// Which simulation kernel a campaign or audit runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimKernel {
    /// One BFS per `(vector, fault set)` — the original path, kept as the
    /// differential oracle.
    Scalar,
    /// [`LANES`] fault scenarios per word through one bitset BFS per
    /// vector (this module). Produces byte-identical results.
    #[default]
    BitParallel,
}

/// Work counters of a campaign/audit run, for throughput reporting.
///
/// All counters are a pure function of `(chip, suite, config)` — chunk
/// decomposition, fault dropping and lane packing are deterministic — so
/// stats, like rows, are identical for every thread count *within* one
/// kernel. Across kernels only the results match; the stats are exactly
/// what differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelStats {
    /// 64-scenario blocks of the bit-parallel kernel's input: a sweep over
    /// `n` scenarios adds `n.div_ceil(64)`, however few word passes it
    /// needs.
    pub blocks: usize,
    /// Packed bitset-BFS passes of the bit-parallel kernel: per vector, one
    /// per 64 still-undetected scenarios that the vector disturbs.
    pub word_passes: usize,
    /// Scenarios swept by the bit-parallel kernel.
    pub lanes: usize,
    /// Scalar BFS passes (vector applications) by the scalar kernel.
    pub scalar_passes: usize,
}

impl KernelStats {
    /// Accumulates another counter set into this one (used to merge
    /// per-chunk stats in worker-pool order).
    pub fn merge(&mut self, other: &KernelStats) {
        self.blocks += other.blocks;
        self.word_passes += other.word_passes;
        self.lanes += other.lanes;
        self.scalar_passes += other.scalar_passes;
    }
}

/// Batch fault-detection engine over one lowered chip: owns the scratch
/// buffers ([`LaneSet`] of per-valve open lanes + [`BitFrontier`]) that
/// every word pass of [`BitSimulator::sweep`] reuses, and accumulates
/// [`KernelStats`]. Campaigns and audits build one per chunk of
/// [`SWEEP_CHUNK`] scenarios, which amortises the allocation.
#[derive(Debug)]
pub struct BitSimulator<'c> {
    chip: &'c LoweredChip,
    open: LaneSet,
    frontier: BitFrontier,
    stats: KernelStats,
}

impl<'c> BitSimulator<'c> {
    /// A simulator with fresh scratch state over one lowered chip.
    pub fn new(chip: &'c LoweredChip) -> Self {
        BitSimulator {
            chip,
            open: LaneSet::zeros(chip.valve_count()),
            frontier: BitFrontier::new(chip.cell_count()),
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
    /// response deviates from the suite's golden response — the criterion
    /// of [`TestSuite::detects`].
    ///
    /// The sweep is vector-major (see the module docs): a vector simulates
    /// only the still-undetected scenarios it disturbs, 64 per word pass,
    /// and the sweep ends once every scenario is detected. Memory and the
    /// word-pass count grow with `scenarios.len()`, so callers sweep a
    /// chunk of at most [`SWEEP_CHUNK`] scenarios at a time.
    ///
    /// # Panics
    ///
    /// Panics if the suite's vectors were built for a different valve
    /// count than the lowered chip, or if a fault references a valve
    /// outside the chip.
    pub fn sweep<S: AsRef<[Fault]>>(&mut self, suite: &TestSuite, scenarios: &[S]) -> Vec<bool> {
        let chip = self.chip;
        self.stats.blocks += scenarios.len().div_ceil(LANES);
        self.stats.lanes += scenarios.len();
        let mut detected = vec![false; scenarios.len()];
        // The scenarios no vector has detected yet, in scenario order.
        let mut pending: Vec<usize> = (0..scenarios.len()).collect();
        // The pending scenarios the current vector disturbs.
        let mut packed = Vec::new();
        for (i, (vector, golden)) in suite.vectors().iter().zip(suite.expected()).enumerate() {
            if pending.is_empty() {
                break;
            }
            assert_eq!(
                vector.len(),
                chip.valve_count(),
                "vector/chip size mismatch"
            );
            let reach = suite.golden_reach(i);
            packed.clear();
            packed.extend(
                pending
                    .iter()
                    .copied()
                    .filter(|&s| chip.disturbs(vector, reach, scenarios[s].as_ref())),
            );
            if packed.is_empty() {
                continue;
            }
            self.load_vector(vector);
            for block in packed.chunks(LANES) {
                for (lane, &s) in block.iter().enumerate() {
                    self.inject(vector, lane, scenarios[s].as_ref());
                }
                let live = !0u64 >> (LANES - block.len());
                self.frontier
                    .flood(chip, chip.source_cells(), live, &self.open);
                self.stats.word_passes += 1;
                let mut differs = 0u64;
                for (&cell, &gold) in chip.sink_cells().iter().zip(golden.readings()) {
                    let gold = if gold { !0u64 } else { 0 };
                    differs |= self.frontier.lanes_at(cell as usize) ^ gold;
                }
                for (lane, &s) in block.iter().enumerate() {
                    detected[s] = differs >> lane & 1 == 1;
                    self.restore(vector, scenarios[s].as_ref());
                }
            }
            pending.retain(|&s| !detected[s]);
        }
        detected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultSet;
    use fpva_grid::{layouts, FpvaBuilder, Side, TestVector, ValveId, ValveState};
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
        let chip = LoweredChip::build(&f);
        assert_eq!(chip.cell_count(), 3);
        assert_eq!(chip.valve_count(), 0);
        // Both edges border the obstacle: all adjacency entries dropped.
        assert_eq!(chip.adj_next.len(), 0);
        assert_eq!(chip.source_cells(), &[0]);
        assert_eq!(chip.sink_cells(), &[2]);
    }

    #[test]
    fn lowering_records_valve_endpoint_cells() {
        let f = layouts::full_array(2, 3);
        let chip = LoweredChip::build(&f);
        for (v, edge) in f.valves() {
            let (a, b) = edge.endpoints();
            let cells = [a, b].map(|c| u32::try_from(f.cell_index(c)).unwrap());
            assert_eq!(chip.valve_cells[v.index()], cells, "{v}");
        }
    }

    #[test]
    fn channel_edges_are_always_open_gates() {
        let f = FpvaBuilder::new(1, 3)
            .channel_horizontal(0, 0, 2)
            .port(0, 0, Side::West, PortKind::Source)
            .port(0, 2, Side::East, PortKind::Sink)
            .build()
            .unwrap();
        let chip = LoweredChip::build(&f);
        assert!(chip.adj_gate.iter().all(|&g| g == OPEN_GATE));
        let mut sim = BitSimulator::new(&chip);
        let suite = TestSuite::new(&f, vec![TestVector::all_open(0)]);
        // Channels conduct in every lane; a fault-free scenario is never
        // detected.
        assert_eq!(sim.sweep(&suite, &[FaultSet::new()]), [false]);
    }

    /// Exhaustive oracle check on a small chip: every vector × a batch of
    /// random fault sets, bit lanes vs scalar responses.
    #[test]
    fn propagation_matches_scalar_oracle_on_random_scenarios() {
        let f = layouts::full_array(3, 4);
        let chip = LoweredChip::build(&f);
        let mut frontier = BitFrontier::new(chip.cell_count());
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
                .map(|_| crate::campaign::random_fault_set(&f, &mut rng, round % 4 + 1, true))
                .collect();
            let mut sim = BitSimulator::new(&chip);
            sim.load_vector(&vector);
            for (lane, set) in sets.iter().enumerate() {
                sim.inject(&vector, lane, set.faults());
            }
            frontier.propagate(&chip, &sim.open);
            for (lane, set) in sets.iter().enumerate() {
                let scalar = crate::pressure::propagate(&f, &vector, set);
                for ci in 0..f.cell_count() {
                    assert_eq!(
                        frontier.reached().lane(ci, lane),
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
        let chip = LoweredChip::build(&f);
        let suite = TestSuite::new(
            &f,
            vec![
                TestVector::all_open(f.valve_count()),
                TestVector::all_closed(f.valve_count()),
            ],
        );
        let mut rng = StdRng::seed_from_u64(5);
        // 70 sets: one full block plus a partial one.
        let sets: Vec<FaultSet> = (0..70)
            .map(|i| crate::campaign::random_fault_set(&f, &mut rng, i % 5 + 1, true))
            .collect();
        let mut sim = BitSimulator::new(&chip);
        let detected = sim.sweep(&suite, &sets);
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
        let chip = LoweredChip::build(&f);
        let suite = TestSuite::new(&f, vec![TestVector::all_open(f.valve_count())]);
        let mut sim = BitSimulator::new(&chip);
        assert!(sim.sweep::<FaultSet>(&suite, &[]).is_empty());
        assert_eq!(sim.stats(), KernelStats::default());
    }

    /// The skip rule is exact: whenever a scenario disturbs no valve
    /// bordering a vector's golden reach, its scalar response is golden.
    #[test]
    fn undisturbed_scenarios_read_golden() {
        let mut skipped = 0;
        for f in [
            layouts::table1_5x5(),
            layouts::full_array(3, 4),
            layouts::custom_biochip(),
        ] {
            let chip = LoweredChip::build(&f);
            let mut rng = StdRng::seed_from_u64(17);
            let vectors: Vec<TestVector> = (0..12)
                .map(|_| {
                    let mut vector = TestVector::all_closed(f.valve_count());
                    for (v, _) in f.valves() {
                        if rng.gen_range(0..4) != 0 {
                            vector.set(v, ValveState::Open);
                        }
                    }
                    vector
                })
                .collect();
            let suite = TestSuite::new(&f, vectors);
            for k in 0..300 {
                let set = crate::campaign::random_fault_set(&f, &mut rng, k % 5 + 1, true);
                for (i, vector) in suite.vectors().iter().enumerate() {
                    if !chip.disturbs(vector, suite.golden_reach(i), set.faults()) {
                        skipped += 1;
                        assert_eq!(
                            crate::respond(&f, vector, &set),
                            suite.expected()[i],
                            "vector {i}: {set:?}"
                        );
                    }
                }
            }
        }
        assert!(skipped > 1000, "the rule skipped only {skipped} checks");
    }

    #[test]
    fn sweep_packs_only_disturbed_undetected_scenarios() {
        let f = line3();
        let chip = LoweredChip::build(&f);
        let open = TestVector::all_open(f.valve_count());
        let suite = TestSuite::new(&f, vec![open.clone(), open]);
        let stuck = |fault: Fault| FaultSet::try_from_faults(vec![fault]).unwrap();
        // 100 stuck-at-1 faults on commanded-open valves change nothing;
        // 100 stuck-at-0 faults are all caught by the first vector.
        let mut sets = vec![stuck(Fault::StuckAt1(ValveId(0))); 100];
        sets.extend(vec![stuck(Fault::StuckAt0(ValveId(1))); 100]);
        let mut sim = BitSimulator::new(&chip);
        let detected = sim.sweep(&suite, &sets);
        assert!(detected[..100].iter().all(|&hit| !hit));
        assert!(detected[100..].iter().all(|&hit| hit));
        let stats = sim.stats();
        assert_eq!(stats.blocks, 4);
        assert_eq!(stats.lanes, 200);
        // Two passes pack the 100 stuck-at-0 scenarios on the first
        // vector; the second vector has nothing left to simulate.
        assert_eq!(stats.word_passes, 2);
    }

    #[test]
    fn stuck_at_lanes_detected_independently() {
        let f = line3();
        let chip = LoweredChip::build(&f);
        // All-open path vector: a stuck-at-0 anywhere on the series line
        // kills the sink reading; a stuck-at-1 is invisible.
        let suite = TestSuite::new(&f, vec![TestVector::all_open(f.valve_count())]);
        let sets = [
            FaultSet::try_from_faults(vec![Fault::StuckAt0(ValveId(0))]).unwrap(),
            FaultSet::try_from_faults(vec![Fault::StuckAt1(ValveId(0))]).unwrap(),
            FaultSet::new(),
            FaultSet::try_from_faults(vec![Fault::StuckAt0(ValveId(1))]).unwrap(),
        ];
        let mut sim = BitSimulator::new(&chip);
        assert_eq!(sim.sweep(&suite, &sets), [true, false, false, true]);
    }

    #[test]
    fn control_leak_follows_actuator_command_per_lane() {
        // 2x2 array; leak actuator commanded closed drags the victim
        // closed only in the lane carrying the leak.
        let f = layouts::full_array(2, 2);
        let chip = LoweredChip::build(&f);
        let a = ValveId(0);
        let v = f.valve_neighbors(a)[0];
        let mut vector = TestVector::all_open(f.valve_count());
        vector.set(a, ValveState::Closed);
        let leak = FaultSet::try_from_faults(vec![Fault::ControlLeak {
            actuator: a,
            victim: v,
        }])
        .unwrap();
        let mut sim = BitSimulator::new(&chip);
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
        let chip = LoweredChip::build(&f);
        let mut frontier = BitFrontier::new(chip.cell_count());
        let mut open = LaneSet::zeros(chip.valve_count());
        open.broadcast(|_| true);
        frontier.propagate(&chip, &open);
        assert_eq!(frontier.lanes_at(2), !0);
        open.broadcast(|_| false);
        frontier.propagate(&chip, &open);
        assert_eq!(frontier.lanes_at(2), 0, "stale lanes must be cleared");
        assert_eq!(frontier.lanes_at(0), !0, "sources stay pressurised");
    }

    #[test]
    fn lane_set_bit_ops() {
        let mut set = LaneSet::zeros(3);
        assert_eq!(set.len(), 3);
        assert!(!set.is_empty());
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
