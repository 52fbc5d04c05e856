//! The random multi-fault injection experiment of Section IV.
//!
//! The paper injects one to five random faults into each Table I array,
//! applies the generated test vectors and checks detection; the process is
//! repeated 10 000 times per fault count. [`run`] reproduces that protocol
//! on a [`TestSuite`], spreading the trials over a scoped worker pool
//! ([`crate::exec`]) without giving up reproducibility: every trial draws
//! from its own RNG, seeded by [`trial_seed`] from
//! `(config.seed, fault_count, trial_index)`, so the campaign outcome is a
//! pure function of `(chip, suite, config)` — independent of thread count,
//! trial order and the order of [`CampaignConfig::fault_counts`].

use crate::bitsim::{BitFrontier, BitSimulator, KernelStats, LaneSet, LANES, SWEEP_CHUNK};
use crate::exec;
use crate::fault::{Fault, FaultSet};
use crate::suite::TestSuite;
use fpva_grid::{ChipGraph, Fpva, TestVector, ValveId, ValveState};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Whether a control-leak `(actuator → victim)` is observable at all by
/// pressure metering: with the actuator closed, some source→sink pressure
/// must be able to reach the victim's edge. The reciprocal valve pairs of
/// port-less corner cells fail this (each hides the other), so injecting
/// them would unfairly penalise *any* pressure-based method — the paper's
/// included.
pub fn leak_is_observable(fpva: &Fpva, actuator: ValveId, victim: ValveId) -> bool {
    // Close actuator and victim, open everything else; check that the two
    // endpoint cells of the victim straddle the sources and sinks. One
    // vector serves both the forward propagation and the reverse search —
    // the graph is undirected, so "some sink reaches `cell`" and "`cell`
    // reaches some sink" coincide. (The former code rebuilt the vector
    // and a fresh visited buffer per sink, per endpoint — O(sinks ×
    // valves) allocations per injected leak on the Table I campaigns.)
    let mut vector = TestVector::all_open(fpva.valve_count());
    vector.set(actuator, ValveState::Closed);
    vector.set(victim, ValveState::Closed);
    let (u, v) = fpva.edge_of(victim).endpoints();
    // Source side: a goal-directed BFS that stops once both victim
    // endpoints are resolved (a fault-free `propagate` is exactly
    // open-edge reachability from the sources, but floods every cell).
    let sources: Vec<_> = fpva.sources().map(|(_, p)| p.cell).collect();
    let (mut at_u, mut at_v) = (false, false);
    bfs_visit(fpva, &sources, &vector, |cell| {
        at_u |= cell == u;
        at_v |= cell == v;
        at_u && at_v
    });
    // Which victim endpoints the source side pressurises decides which
    // the sink side still has to reach.
    let (need_v, need_u) = (at_u, at_v);
    if !need_u && !need_v {
        return false;
    }
    // Sink side: one multi-source BFS over the same vector, stopping as
    // soon as a needed endpoint is reached.
    let sinks: Vec<_> = fpva.sinks().map(|(_, p)| p.cell).collect();
    let mut observable = false;
    bfs_visit(fpva, &sinks, &vector, |cell| {
        observable = (need_v && cell == v) || (need_u && cell == u);
        observable
    });
    observable
}

/// Multi-source BFS from `starts` over a vector's open edges, invoking
/// `visit` on every dequeued cell; stops early once `visit` returns `true`.
pub(crate) fn bfs_visit(
    fpva: &Fpva,
    starts: &[fpva_grid::CellId],
    vector: &TestVector,
    mut visit: impl FnMut(fpva_grid::CellId) -> bool,
) {
    let mut seen = vec![false; fpva.cell_count()];
    let mut queue = std::collections::VecDeque::new();
    for &s in starts {
        let ix = fpva.cell_index(s);
        if !seen[ix] {
            seen[ix] = true;
            queue.push_back(s);
        }
    }
    while let Some(cell) = queue.pop_front() {
        if visit(cell) {
            return;
        }
        for (edge, next) in fpva.neighbors(cell) {
            if fpva.edge_is_open(edge, vector) && !seen[fpva.cell_index(next)] {
                seen[fpva.cell_index(next)] = true;
                queue.push_back(next);
            }
        }
    }
}

/// Pre-computed table of the control-leak pairs that pressure metering can
/// observe at all on one chip.
///
/// Building the table runs one [`leak_is_observable`] BFS per ordered
/// adjacent valve pair — **once** per chip, instead of once per redraw
/// inside the campaign's hot loop. The table is plain shared data
/// (`Send + Sync`), so one instance serves every worker of a parallel
/// campaign read-only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObservableLeaks {
    pairs: Vec<(ValveId, ValveId)>,
}

impl ObservableLeaks {
    /// Scans every ordered adjacent `(actuator, victim)` pair of `fpva`
    /// and keeps the observable ones, in `(actuator, victim)` scan order.
    pub fn build(fpva: &Fpva) -> Self {
        Self::par_build(fpva, 1)
    }

    /// Like [`ObservableLeaks::build`], with the candidate-pair probes
    /// spread over `threads` workers (`0` = all CPUs). The resulting table
    /// is identical for every thread count.
    ///
    /// The probes run on the bit-parallel kernel, over the chip's
    /// [`ChipGraph`] built once for them: [`LANES`] candidate pairs share
    /// one word, and two
    /// full-flood passes (forward from the sources, backward from the
    /// sinks) replace the per-pair goal-directed BFS of
    /// [`leak_is_observable`] — which stays as the scalar oracle, pinned
    /// equal by the unit tests. Undirected reachability makes the two
    /// formulations coincide: a pair is observable exactly when the
    /// sources reach one victim endpoint and the sinks reach the other.
    pub fn par_build(fpva: &Fpva, threads: usize) -> Self {
        const PAIR_CHUNK: usize = 4 * LANES;
        let graph = &ChipGraph::new(fpva);
        let candidates: Vec<(ValveId, ValveId)> = fpva.valve_neighbor_pairs().collect();
        let chunks = exec::run_chunked(threads, candidates.len(), PAIR_CHUNK, |range| {
            let mut fwd = BitFrontier::new(graph.node_count());
            let mut bwd = BitFrontier::new(graph.node_count());
            let mut open = LaneSet::zeros(graph.valve_count());
            let mut pairs = Vec::new();
            for block in candidates[range].chunks(LANES) {
                // Lane l: actuator and victim closed, everything else open.
                open.broadcast(|_| true);
                for (lane, &(actuator, victim)) in block.iter().enumerate() {
                    open.clear_lane(actuator.index(), lane);
                    open.clear_lane(victim.index(), lane);
                }
                fwd.flood(graph, graph.source_nodes(), !0, &open);
                bwd.flood(graph, graph.sink_port_nodes(), !0, &open);
                for (lane, &(actuator, victim)) in block.iter().enumerate() {
                    let [ui, wi] = graph.valve_nodes(victim).map(|x| x as usize);
                    let observable = (fwd.reached().lane(ui, lane) && bwd.reached().lane(wi, lane))
                        || (fwd.reached().lane(wi, lane) && bwd.reached().lane(ui, lane));
                    if observable {
                        pairs.push((actuator, victim));
                    }
                }
            }
            pairs
        });
        ObservableLeaks {
            pairs: chunks.concat(),
        }
    }

    /// The observable `(actuator, victim)` pairs, in scan order.
    pub fn pairs(&self) -> &[(ValveId, ValveId)] {
        &self.pairs
    }

    /// Number of observable pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// `true` when no adjacent leak on this chip is observable.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }
}

/// Derives the seed of one trial's private RNG from the campaign seed, the
/// row's fault count and the trial index (SplitMix64-style finalisers with
/// distinct odd multipliers per coordinate).
///
/// Giving every trial its own generator is what makes campaign results
/// independent of trial order, row order and thread count: the former
/// implementation threaded one sequential `StdRng` stream through all rows
/// and trials, so the same seed produced different per-row results
/// whenever `fault_counts` was reordered or subset — and would have
/// produced thread-count-dependent results under any parallel split.
pub fn trial_seed(seed: u64, fault_count: usize, trial: usize) -> u64 {
    fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    let mut h = mix(seed.wrapping_add(0x9E37_79B9_7F4A_7C15));
    h = mix(h ^ (fault_count as u64).wrapping_mul(0xA24B_AED4_963E_E407));
    mix(h ^ (trial as u64).wrapping_mul(0x9FB2_1C65_1E98_DF25))
}

/// Parameters of a fault-injection campaign.
///
/// # Determinism contract
///
/// For a fixed `(chip, suite)`, the rows returned by [`run`] are a pure
/// function of this configuration's `seed`, `trials` and the *set* of
/// `fault_counts`: each row depends only on its own fault count (trial `i`
/// of fault count `k` uses the RNG seeded by [`trial_seed`]`(seed, k, i)`).
/// In particular the results do **not** change with
/// [`CampaignConfig::threads`], with the ordering of `fault_counts`, or
/// when `fault_counts` is subset. The bit-parallel kernel packs trials
/// into lanes but evaluates the same detection predicate on each trial's
/// fault set, so every row equals, byte for byte, the row that
/// [`TestSuite::detects`] gives when applied to those fault sets one by
/// one.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Trials per fault count (the paper uses 10 000).
    pub trials: usize,
    /// Numbers of simultaneous faults to inject (the paper uses 1..=5).
    pub fault_counts: Vec<usize>,
    /// RNG seed, for reproducible campaigns.
    pub seed: u64,
    /// Worker threads for the trial sweep: `1` runs serial on the calling
    /// thread, `0` uses one worker per available CPU. Results are
    /// identical for every value (see the determinism contract above).
    pub threads: usize,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            trials: 10_000,
            fault_counts: vec![1, 2, 3, 4, 5],
            seed: 0xF97A_2017,
            threads: 1,
        }
    }
}

/// The per-chip campaign state [`run_in`] takes besides the suite: the
/// observable-leak table, built **once** per chip and shared read-only by
/// any number of [`run_in`] calls (and their workers). The suite already
/// holds the chip's lowering. The name stays for callers that build the
/// table as `ChipContext::build`, such as the benchmark harness
/// (`perfbench/src/workload.rs`).
pub type ChipContext = ObservableLeaks;

/// Outcome for one fault count.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignRow {
    /// Number of simultaneous faults injected per trial.
    pub fault_count: usize,
    /// Trials run.
    pub trials: usize,
    /// Trials in which the suite detected the fault set.
    pub detected: usize,
    /// Up to [`MAX_RECORDED_ESCAPES`] fault sets that escaped, in trial
    /// order, for diagnosis.
    pub escapes: Vec<FaultSet>,
}

/// How many escaping fault sets a [`CampaignRow`] records verbatim.
pub const MAX_RECORDED_ESCAPES: usize = 8;

impl CampaignRow {
    /// Fraction of trials detected, in `[0, 1]`, or `None` when no trials
    /// ran — an empty campaign says nothing about the suite, so reporting
    /// a number (the old code said `1.0`, which reads as "fully detected"
    /// in bench output) would be misleading.
    pub fn detection_rate(&self) -> Option<f64> {
        if self.trials == 0 {
            return None;
        }
        Some(self.detected as f64 / self.trials as f64)
    }

    /// `true` when every trial was detected (the paper's reported result).
    pub fn all_detected(&self) -> bool {
        self.detected == self.trials
    }
}

/// Draws one random fault set with exactly `count` distinct faults, taking
/// control-leak candidates from a pre-built [`ObservableLeaks`] table.
///
/// Mix: stuck-at-0 and stuck-at-1 each ~40 %, control leaks ~20 % (when a
/// non-empty table is supplied). Leak pairs are drawn uniformly from the
/// observable table, so an unobservable leak can never be injected *and*
/// never costs a redraw; the only redraws left are genuine non-progress
/// (duplicate faults and stuck-at-0/1 conflicts on one valve), which is
/// what the stall bound counts. The former per-redraw observability BFS
/// both dominated campaign runtime and — because its total attempt bound
/// counted unobservable redraws as failures — could spuriously panic on
/// leak-heavy small arrays.
///
/// The campaign draws its trials with the same drawer, so a trial's fault
/// set is this function's result for the RNG seeded by [`trial_seed`].
///
/// # Panics
///
/// Panics if the array has no valves, if `count` exceeds the number of
/// distinct compatible faults this chip supports (one stuck-at per valve
/// plus the observable leak pairs), or if drawing stalls without progress
/// for an implausible number of consecutive attempts.
pub fn random_fault_set_from(
    fpva: &Fpva,
    rng: &mut impl Rng,
    count: usize,
    leaks: &ObservableLeaks,
) -> FaultSet {
    let mut faults = Vec::with_capacity(count);
    Drawer::new(fpva, count, leaks).draw(rng, &mut faults);
    FaultSet::try_from_faults(faults).expect("construction avoids conflicts")
}

/// Uniform samples from `0..span` by rejection, with the rejection zone
/// computed once: each sample consumes the same random words and returns
/// the same value as `rng.gen_range(0..span)`.
#[derive(Debug, Clone, Copy)]
struct Span {
    span: u64,
    /// The largest accepted word: the zone below it is a whole number of
    /// spans, so `word % span` is unbiased.
    zone: u64,
}

impl Span {
    /// # Panics
    ///
    /// Panics if `span` is zero.
    fn new(span: usize) -> Self {
        let span = span as u64;
        Span {
            span,
            zone: u64::MAX - (u64::MAX - span + 1) % span,
        }
    }

    fn sample(self, rng: &mut impl RngCore) -> usize {
        loop {
            let word = rng.next_u64();
            if word <= self.zone {
                return (word % self.span) as usize;
            }
        }
    }
}

/// Draws fault sets of one size on one chip (see
/// [`random_fault_set_from`]), appending each set's faults to a caller's
/// buffer; the spans of the fault kinds, the valves and the leak table
/// are set up once per drawer.
#[derive(Debug)]
struct Drawer<'a> {
    count: usize,
    /// Distinct compatible faults the chip supports.
    capacity: usize,
    kinds: Span,
    valves: Span,
    leaks: &'a [(ValveId, ValveId)],
    /// The leak table's span, when it is not empty.
    leak: Option<Span>,
}

impl<'a> Drawer<'a> {
    /// # Panics
    ///
    /// Panics if the array has no valves, or if `count` exceeds the
    /// number of distinct compatible faults the chip supports.
    fn new(fpva: &Fpva, count: usize, leaks: &'a ObservableLeaks) -> Self {
        let nv = fpva.valve_count();
        assert!(nv > 0, "cannot inject faults into an array without valves");
        let n_leaks = leaks.len();
        assert!(
            count <= nv + n_leaks,
            "cannot build {count} distinct compatible faults: this array supports \
             at most {nv} stuck-at faults plus {n_leaks} observable leaks"
        );
        Drawer {
            count,
            capacity: nv + n_leaks,
            kinds: Span::new(if n_leaks > 0 { 5 } else { 4 }),
            valves: Span::new(nv),
            leaks: leaks.pairs(),
            leak: (n_leaks > 0).then(|| Span::new(n_leaks)),
        }
    }

    /// Appends one fault set of `count` distinct compatible faults to
    /// `out`.
    ///
    /// # Panics
    ///
    /// Panics if drawing stalls without progress for an implausible
    /// number of consecutive attempts.
    fn draw(&self, rng: &mut impl RngCore, out: &mut Vec<Fault>) {
        let start = out.len();
        let mut stalled = 0usize;
        while out.len() - start < self.count {
            assert!(
                stalled < 10_000 * (self.count + 1),
                "fault drawing made no progress for {stalled} attempts \
                 (requested {} of at most {})",
                self.count,
                self.capacity
            );
            let fault = match self.kinds.sample(rng) {
                0 | 1 => Fault::StuckAt0(ValveId(self.valves.sample(rng))),
                2 | 3 => Fault::StuckAt1(ValveId(self.valves.sample(rng))),
                _ => {
                    let leak = self.leak.expect("leaks are drawn only from a table");
                    let (actuator, victim) = self.leaks[leak.sample(rng)];
                    Fault::ControlLeak { actuator, victim }
                }
            };
            let drawn = &out[start..];
            let conflict = match fault {
                Fault::StuckAt0(v) => drawn.contains(&Fault::StuckAt1(v)),
                Fault::StuckAt1(v) => drawn.contains(&Fault::StuckAt0(v)),
                Fault::ControlLeak { .. } => false,
            };
            if conflict || drawn.contains(&fault) {
                stalled += 1;
                continue;
            }
            stalled = 0;
            out.push(fault);
        }
    }
}

/// Runs the full campaign: for every entry of
/// [`CampaignConfig::fault_counts`], injects random fault sets
/// [`CampaignConfig::trials`] times and counts detections, chunking the
/// trials over [`CampaignConfig::threads`] workers.
///
/// See the determinism contract on [`CampaignConfig`]: the returned rows
/// are byte-identical for every thread count and `fault_counts` ordering.
///
/// # Panics
///
/// Panics if the array has no valves, or if a row's fault count exceeds
/// the chip's distinct-fault capacity (see [`random_fault_set_from`]).
pub fn run(fpva: &Fpva, suite: &TestSuite, config: &CampaignConfig) -> Vec<CampaignRow> {
    let leaks = ObservableLeaks::par_build(fpva, config.threads);
    run_in(fpva, suite, config, &leaks).0
}

/// [`run`] against a pre-built leak table, skipping the per-run setup
/// entirely (the suite lowered the chip when it was built) — the entry
/// point for repeated campaigns over one chip (and for benchmarks that
/// want to time the simulation kernel, not the setup). Also reports the
/// kernel's work counters summed over all rows; the stats, like the rows,
/// are identical for every thread count.
pub fn run_in(
    fpva: &Fpva,
    suite: &TestSuite,
    config: &CampaignConfig,
    leaks: &ObservableLeaks,
) -> (Vec<CampaignRow>, KernelStats) {
    let mut stats = KernelStats::default();
    let rows = config
        .fault_counts
        .iter()
        .map(|&fault_count| {
            let (row, row_stats) = run_row(fpva, suite, config, leaks, fault_count);
            stats.merge(&row_stats);
            row
        })
        .collect();
    (rows, stats)
}

/// One campaign row: the trials go in [`SWEEP_CHUNK`]-trial chunks, each
/// drawn with its per-trial RNGs into one flat buffer and pushed through
/// one vector-major sweep over its slices; only a recorded escape becomes
/// a [`FaultSet`]. The chunk size is fixed, so the decomposition never
/// affects the row: detection is per trial and escapes merge in trial
/// order.
fn run_row(
    fpva: &Fpva,
    suite: &TestSuite,
    config: &CampaignConfig,
    leaks: &ObservableLeaks,
    fault_count: usize,
) -> (CampaignRow, KernelStats) {
    let chunks = exec::run_chunked(config.threads, config.trials, SWEEP_CHUNK, |trials| {
        let drawer = Drawer::new(fpva, fault_count, leaks);
        let mut faults = Vec::with_capacity(trials.len() * fault_count);
        for trial in trials.clone() {
            let mut rng = StdRng::seed_from_u64(trial_seed(config.seed, fault_count, trial));
            drawer.draw(&mut rng, &mut faults);
        }
        let sets: Vec<&[Fault]> = (0..trials.len())
            .map(|t| &faults[t * fault_count..][..fault_count])
            .collect();
        let mut sim = BitSimulator::new(suite);
        let verdicts = sim.sweep(&sets);
        let mut detected = 0usize;
        let mut escapes = Vec::new();
        for (set, hit) in sets.into_iter().zip(verdicts) {
            if hit {
                detected += 1;
            } else if escapes.len() < MAX_RECORDED_ESCAPES {
                escapes.push(set.iter().copied().collect());
            }
        }
        (detected, escapes, sim.stats())
    });
    // Chunks arrive in trial order; keeping each chunk's first
    // MAX_RECORDED_ESCAPES and truncating the concatenation yields exactly
    // the first MAX_RECORDED_ESCAPES escapes of the whole row, independent
    // of the chunk decomposition.
    let mut detected = 0usize;
    let mut escapes = Vec::new();
    let mut stats = KernelStats::default();
    for (chunk_detected, chunk_escapes, chunk_stats) in chunks {
        detected += chunk_detected;
        stats.merge(&chunk_stats);
        escapes.extend(
            chunk_escapes
                .into_iter()
                .take(MAX_RECORDED_ESCAPES - escapes.len()),
        );
    }
    let row = CampaignRow {
        fault_count,
        trials: config.trials,
        detected,
        escapes,
    };
    (row, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpva_grid::{layouts, FpvaBuilder, PortKind, Side, TestVector};

    #[test]
    fn random_fault_sets_have_requested_size() {
        let f = layouts::table1_5x5();
        let leaks = ObservableLeaks::build(&f);
        let mut rng = StdRng::seed_from_u64(7);
        for count in 1..=5 {
            let set = random_fault_set_from(&f, &mut rng, count, &leaks);
            assert_eq!(set.len(), count);
        }
    }

    #[test]
    fn random_fault_sets_never_conflict() {
        let f = layouts::table1_5x5();
        let leaks = ObservableLeaks::build(&f);
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..200 {
            let set = random_fault_set_from(&f, &mut rng, 5, &leaks);
            // try_from_faults re-validates.
            assert!(FaultSet::try_from_faults(set.faults().to_vec()).is_ok());
        }
    }

    /// A span consumes the same random words and returns the same values
    /// as `gen_range`, so the campaign draws the fault sets that per-call
    /// sampling drew; the last two spans reject about a quarter and half
    /// of all words.
    #[test]
    fn spans_sample_like_gen_range() {
        for span in [1, 4, 5, 39, 1704, 3 << 62, (1 << 63) + 1] {
            let mut ours = StdRng::seed_from_u64(span as u64);
            let mut theirs = ours.clone();
            for _ in 0..200 {
                assert_eq!(Span::new(span).sample(&mut ours), theirs.gen_range(0..span));
            }
        }
    }

    #[test]
    fn observable_table_matches_per_pair_probe() {
        let f = layouts::table1_5x5();
        let table = ObservableLeaks::build(&f);
        assert!(!table.is_empty());
        for &(a, b) in table.pairs() {
            assert!(leak_is_observable(&f, a, b));
        }
        let probed: usize = f
            .valves()
            .map(|(a, _)| {
                f.valve_neighbors(a)
                    .into_iter()
                    .filter(|&b| leak_is_observable(&f, a, b))
                    .count()
            })
            .sum();
        assert_eq!(table.len(), probed);
        assert_eq!(table, ObservableLeaks::par_build(&f, 4));
    }

    #[test]
    fn leak_heavy_small_array_draws_do_not_stall() {
        // A series pipeline has adjacent valves but no observable leak at
        // all; the old attempt bound counted every unobservable redraw as
        // a failure and could spuriously panic here. With the table, the
        // leak kind is simply never drawn.
        let f = FpvaBuilder::new(1, 4)
            .port(0, 0, Side::West, PortKind::Source)
            .port(0, 3, Side::East, PortKind::Sink)
            .build()
            .unwrap();
        let leaks = ObservableLeaks::build(&f);
        assert!(leaks.is_empty());
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            // count == valve count: the full stuck-at capacity, reachable
            // only because redraws are bounded by non-progress alone.
            let set = random_fault_set_from(&f, &mut rng, 3, &leaks);
            assert_eq!(set.len(), 3);
            assert!(set
                .faults()
                .iter()
                .all(|fault| !matches!(fault, Fault::ControlLeak { .. })));
        }
    }

    #[test]
    #[should_panic(expected = "distinct compatible faults")]
    fn over_capacity_request_panics_upfront() {
        let f = FpvaBuilder::new(1, 4)
            .port(0, 0, Side::West, PortKind::Source)
            .port(0, 3, Side::East, PortKind::Sink)
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        // 3 valves, no observable leaks: 4 distinct faults cannot exist.
        random_fault_set_from(&f, &mut rng, 4, &ObservableLeaks::build(&f));
    }

    fn small_suite(f: &Fpva) -> TestSuite {
        TestSuite::new(
            f,
            vec![
                TestVector::all_open(f.valve_count()),
                TestVector::all_closed(f.valve_count()),
            ],
        )
    }

    #[test]
    fn campaign_is_reproducible() {
        let f = layouts::table1_5x5();
        let suite = small_suite(&f);
        let config = CampaignConfig {
            trials: 50,
            fault_counts: vec![1, 2],
            ..Default::default()
        };
        let a = run(&f, &suite, &config);
        let b = run(&f, &suite, &config);
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
        assert!(a.iter().all(|row| row.trials == 50));
    }

    #[test]
    fn rows_do_not_depend_on_fault_count_ordering() {
        // Regression: rows used to consume one shared sequential RNG
        // stream, so [2, 1] and [1, 2] gave different per-row results for
        // the same seed.
        let f = layouts::table1_5x5();
        let suite = small_suite(&f);
        let config = |fault_counts| CampaignConfig {
            trials: 40,
            fault_counts,
            ..Default::default()
        };
        let forward = run(&f, &suite, &config(vec![1, 2]));
        let reversed = run(&f, &suite, &config(vec![2, 1]));
        assert_eq!(forward[0], reversed[1]);
        assert_eq!(forward[1], reversed[0]);
        // Subsetting must not change a row either.
        let only_two = run(&f, &suite, &config(vec![2]));
        assert_eq!(only_two[0], forward[1]);
    }

    #[test]
    fn rows_do_not_depend_on_thread_count() {
        let f = layouts::table1_5x5();
        let suite = small_suite(&f);
        let config = |threads| CampaignConfig {
            // Two full bit-parallel chunks and a partial one, so the
            // pooled runs really split the row.
            trials: 2 * SWEEP_CHUNK + 70,
            fault_counts: vec![1, 3],
            threads,
            ..Default::default()
        };
        let serial = run(&f, &suite, &config(1));
        for threads in [0, 2, 8] {
            assert_eq!(
                run(&f, &suite, &config(threads)),
                serial,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn trial_seeds_are_pairwise_distinct() {
        let mut seen = std::collections::HashSet::new();
        for fault_count in 1..=5 {
            for trial in 0..200 {
                assert!(seen.insert(trial_seed(0xF97A_2017, fault_count, trial)));
            }
        }
    }

    #[test]
    fn weak_suite_misses_faults() {
        // A suite with no vectors detects nothing.
        let f = layouts::table1_5x5();
        let suite = TestSuite::new(&f, vec![]);
        let config = CampaignConfig {
            trials: 20,
            fault_counts: vec![1],
            ..Default::default()
        };
        let rows = run(&f, &suite, &config);
        assert_eq!(rows[0].detected, 0);
        assert_eq!(rows[0].detection_rate(), Some(0.0));
        assert!(!rows[0].all_detected());
        assert_eq!(rows[0].escapes.len(), MAX_RECORDED_ESCAPES.min(20));
    }

    #[test]
    fn detection_rate_bounds() {
        let row = CampaignRow {
            fault_count: 1,
            trials: 4,
            detected: 3,
            escapes: vec![],
        };
        assert!((row.detection_rate().unwrap() - 0.75).abs() < 1e-12);
        let empty = CampaignRow {
            fault_count: 1,
            trials: 0,
            detected: 0,
            escapes: vec![],
        };
        // No trials say nothing about the suite — explicitly not 1.0.
        assert_eq!(empty.detection_rate(), None);
        assert!(empty.all_detected(), "vacuously true on zero trials");
    }
}
