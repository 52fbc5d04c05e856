//! Exhaustive coverage audits.
//!
//! The campaign in [`crate::campaign`] samples the fault space; the audits
//! here enumerate it. [`single_fault_coverage`] checks every stuck-at fault
//! (2·n_v of them), [`leak_coverage`] every physically adjacent control
//! leak, and [`two_fault_audit`] every (stuck-at-0, stuck-at-1) pair — the
//! combination Section III-A identifies as the dangerous mutually masking
//! case and the paper's "any two faults" guarantee is about. The pair
//! universe is quadratic in the valve count, so the bit-parallel kernel
//! decides most pairs by composition: a pair responds like its stuck-at-0
//! alone on any vector that detects the stuck-at-0 and whose pressure
//! region under it the stuck-at-1 valve cannot change, so only the pairs
//! whose stuck-at-1 crosses every such region are simulated. The audit
//! runs in fixed chunks of stuck-at-0 valves on the same scoped worker
//! pool ([`crate::exec`]) as the campaign.

use crate::bitsim::{BitSimulator, KernelStats, LANES, SWEEP_CHUNK};
use crate::exec;
use crate::fault::Fault;
use crate::suite::TestSuite;
use fpva_grid::{Fpva, ValveId};
use std::ops::Range;

/// Result of a fault-universe sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageReport<F> {
    /// Faults (or fault pairs) examined.
    pub total: usize,
    /// The ones no vector detected.
    pub undetected: Vec<F>,
    /// Work counters of the bit-parallel kernel that ran the sweep,
    /// identical across thread counts.
    pub stats: KernelStats,
}

impl<F> CoverageReport<F> {
    /// Detected fraction, in `[0, 1]`, or `None` when the examined
    /// universe was empty — a sweep over nothing says nothing, so
    /// reporting a number (the old code said `1.0`, which reads as "fully
    /// covered" in bench output) would be misleading.
    pub fn coverage(&self) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        Some((self.total - self.undetected.len()) as f64 / self.total as f64)
    }

    /// `true` when everything was detected.
    pub fn is_complete(&self) -> bool {
        self.undetected.is_empty()
    }
}

/// Checks every single stuck-at-0 and stuck-at-1 fault.
pub fn single_fault_coverage(fpva: &Fpva, suite: &TestSuite) -> CoverageReport<Fault> {
    let universe: Vec<Fault> = fpva
        .valves()
        .flat_map(|(v, _)| [Fault::StuckAt0(v), Fault::StuckAt1(v)])
        .collect();
    sweep_universe(suite, &universe)
}

/// Checks every control-leak fault between physically adjacent valves
/// (ordered pairs: the leak direction matters).
pub fn leak_coverage(fpva: &Fpva, suite: &TestSuite) -> CoverageReport<Fault> {
    let universe: Vec<Fault> = fpva
        .valve_neighbor_pairs()
        .map(|(actuator, victim)| Fault::ControlLeak { actuator, victim })
        .collect();
    sweep_universe(suite, &universe)
}

/// Serial sweep over an explicit single-fault universe: one vector-major
/// [`BitSimulator::sweep`] per [`SWEEP_CHUNK`] faults.
fn sweep_universe(suite: &TestSuite, universe: &[Fault]) -> CoverageReport<Fault> {
    let mut sim = BitSimulator::new(suite);
    let mut undetected = Vec::new();
    for chunk in universe.chunks(SWEEP_CHUNK) {
        let scenarios: Vec<[Fault; 1]> = chunk.iter().map(|&fault| [fault]).collect();
        let verdicts = sim.sweep(&scenarios);
        for (&fault, hit) in chunk.iter().zip(verdicts) {
            if !hit {
                undetected.push(fault);
            }
        }
    }
    CoverageReport {
        total: universe.len(),
        undetected,
        stats: sim.stats(),
    }
}

/// Stuck-at-0 valves per work chunk of the two-fault audit. A multiple of
/// [`LANES`] and never derived from the thread count, so the chunk
/// decomposition, and with it the `undetected` order and every
/// [`KernelStats`] counter, is the same for every pool size. A larger
/// chunk packs more stuck-at-0 lanes into each word pass of the pre-pass;
/// 256 still splits the 30×30 audit into seven pool chunks.
pub const VALVE_CHUNK: usize = 4 * LANES;

/// Checks every (stuck-at-0, stuck-at-1) pair on distinct valves — the
/// mutual-masking scenario of the paper's Fig. 5(c)/(d) — spreading the
/// O(n_v²) pair universe over `threads` workers (`1` = serial on the
/// calling thread, `0` = all CPUs). The report is identical for every
/// thread count, with `undetected` in the serial scan order (outer
/// stuck-at-0 valve, inner stuck-at-1 valve).
///
/// The outer stuck-at-0 valves go in chunks of [`VALVE_CHUNK`]. Each chunk
/// first sweeps its stuck-at-0 faults alone: a pair (stuck-at-0 `a`,
/// stuck-at-1 `b`) is detected whenever some vector detects `a` alone and
/// `b` is commanded open in it or does not cross the boundary of the
/// region it pressurises under `a`, because that region then stays closed
/// under the pair's open edges and the pair responds exactly like `a`.
/// Only the surviving pairs, in scan order, go through vector-major
/// [`BitSimulator::sweep`]s of at most [`SWEEP_CHUNK`] pairs each; a
/// stuck-at-0 no vector detects keeps all of its partners. This keeps the
/// audit exhaustive on every Table I array.
///
/// [`KernelStats`] counts both stages like sweeps: the stuck-at-0
/// scenarios of the first stage add to `lanes`, their 64-scenario blocks
/// to `blocks` and its packed passes to `word_passes`, on top of the
/// surviving pairs' sweeps.
pub fn two_fault_audit(
    fpva: &Fpva,
    suite: &TestSuite,
    threads: usize,
) -> CoverageReport<(Fault, Fault)> {
    let nv = fpva.valve_count();
    let chunks = exec::run_chunked(threads, nv, VALVE_CHUNK, |valves| {
        composed_chunk(suite, nv, valves)
    });
    let mut undetected = Vec::new();
    let mut stats = KernelStats::default();
    for (chunk_undetected, chunk_stats) in chunks {
        undetected.extend(chunk_undetected);
        stats.merge(&chunk_stats);
    }
    CoverageReport {
        total: nv * nv.saturating_sub(1),
        undetected,
        stats,
    }
}

/// The undetected pairs of the stuck-at-0 valves `valves` of the `nv`
/// valves, in scan order: the single-fault pre-pass, then a sweep of the
/// surviving pairs [`SWEEP_CHUNK`] at a time.
fn composed_chunk(
    suite: &TestSuite,
    nv: usize,
    valves: Range<usize>,
) -> (Vec<(Fault, Fault)>, KernelStats) {
    let mut sim = BitSimulator::new(suite);
    let partners = sim.undecided_partners(valves.clone());
    let mut pairs = valves.zip(partners).flat_map(|(a, list)| {
        let list = list.unwrap_or_else(|| (0..nv).filter(|&b| b != a).map(ValveId).collect());
        list.into_iter()
            .map(move |b| [Fault::StuckAt0(ValveId(a)), Fault::StuckAt1(b)])
    });
    let mut undetected = Vec::new();
    loop {
        let scenarios: Vec<[Fault; 2]> = pairs.by_ref().take(SWEEP_CHUNK).collect();
        if scenarios.is_empty() {
            break;
        }
        let verdicts = sim.sweep(&scenarios);
        for (&[a, b], hit) in scenarios.iter().zip(verdicts) {
            if !hit {
                undetected.push((a, b));
            }
        }
    }
    (undetected, sim.stats())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultSet;
    use fpva_grid::{FpvaBuilder, PortKind, Side, TestVector, ValveState};

    /// 1x4 pipeline: valves v0, v1, v2 in series.
    fn line4() -> Fpva {
        FpvaBuilder::new(1, 4)
            .port(0, 0, Side::West, PortKind::Source)
            .port(0, 3, Side::East, PortKind::Sink)
            .build()
            .unwrap()
    }

    /// A complete suite for the pipeline: the all-open "path" vector covers
    /// stuck-at-0 on every valve; per-valve cuts cover stuck-at-1.
    fn complete_suite(f: &Fpva) -> TestSuite {
        let mut vectors = vec![TestVector::all_open(f.valve_count())];
        for (v, _) in f.valves() {
            let mut cut = TestVector::all_open(f.valve_count());
            cut.set(v, ValveState::Closed);
            vectors.push(cut);
        }
        TestSuite::new(f, vectors)
    }

    #[test]
    fn complete_suite_covers_all_single_faults() {
        let f = line4();
        let suite = complete_suite(&f);
        let report = single_fault_coverage(&f, &suite);
        assert_eq!(report.total, 2 * 3);
        assert!(report.is_complete(), "undetected: {:?}", report.undetected);
        assert_eq!(report.coverage(), Some(1.0));
    }

    #[test]
    fn missing_cut_vector_shows_up_as_undetected() {
        let f = line4();
        // Only the all-open vector: stuck-at-1 faults cannot be seen.
        let suite = TestSuite::new(&f, vec![TestVector::all_open(f.valve_count())]);
        let report = single_fault_coverage(&f, &suite);
        assert_eq!(report.undetected.len(), 3);
        assert!(report
            .undetected
            .iter()
            .all(|fault| matches!(fault, Fault::StuckAt1(_))));
        assert!((report.coverage().unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn two_fault_pairs_on_pipeline() {
        let f = line4();
        let suite = complete_suite(&f);
        let report = two_fault_audit(&f, &suite, 1);
        assert_eq!(report.total, 3 * 2);
        // On a series pipeline the all-open vector always exposes the
        // stuck-at-0 (there is no detour), so every pair is caught.
        assert!(report.is_complete(), "undetected: {:?}", report.undetected);
    }

    #[test]
    fn two_fault_audit_is_thread_count_invariant() {
        let f = line4();
        // The pathless suite leaves pairs undetected, exercising the
        // chunk-ordered merge of the `undetected` list.
        let suite = TestSuite::new(&f, vec![TestVector::all_closed(f.valve_count())]);
        let serial = two_fault_audit(&f, &suite, 1);
        assert!(!serial.is_complete());
        for threads in [0, 2, 8] {
            assert_eq!(
                two_fault_audit(&f, &suite, threads),
                serial,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn two_fault_audit_handles_tiny_arrays() {
        let f = FpvaBuilder::new(1, 2)
            .port(0, 0, Side::West, PortKind::Source)
            .port(0, 1, Side::East, PortKind::Sink)
            .build()
            .unwrap();
        assert_eq!(f.valve_count(), 1);
        let suite = complete_suite(&f);
        let report = two_fault_audit(&f, &suite, 4);
        assert_eq!(report.total, 0);
        assert_eq!(report.coverage(), None);
        assert!(report.is_complete());
    }

    #[test]
    fn leak_coverage_counts_ordered_adjacent_pairs() {
        let f = line4();
        let suite = complete_suite(&f);
        let report = leak_coverage(&f, &suite);
        // v0-v1, v1-v0, v1-v2, v2-v1: 4 ordered adjacent pairs.
        assert_eq!(report.total, 4);
        // On a series pipeline every leak is inherently unobservable:
        // commanding the actuator closed already removes all pressure, so
        // the victim's drag-closure changes nothing. The audit must report
        // all four pairs as undetected (and the campaign generator skips
        // such pairs via the `ObservableLeaks` table).
        assert_eq!(
            report.undetected.len(),
            4,
            "undetected: {:?}",
            report.undetected
        );
        for (a, _) in f.valves() {
            for b in f.valve_neighbors(a) {
                assert!(
                    !crate::campaign::leak_is_observable(&f, a, b),
                    "series-pipeline pair ({a},{b}) cannot be observable"
                );
            }
        }
    }

    #[test]
    fn empty_report_coverage_is_explicitly_undefined() {
        let report: CoverageReport<Fault> = CoverageReport {
            total: 0,
            undetected: vec![],
            stats: KernelStats::default(),
        };
        assert_eq!(report.coverage(), None);
        assert!(report.is_complete());
    }

    /// Every audit against the scalar oracle, `TestSuite::detects` applied
    /// to each fault and pair: same universe, same `undetected` list.
    #[test]
    fn audits_agree_across_kernels() {
        fn misses<F: Copy>(
            f: &Fpva,
            suite: &TestSuite,
            universe: &[F],
            faults: impl Fn(F) -> Vec<Fault>,
        ) -> Vec<F> {
            let detects = |&x: &F| {
                let set = FaultSet::try_from_faults(faults(x)).expect("compatible faults");
                suite.detects(f, &set)
            };
            universe.iter().copied().filter(|x| !detects(x)).collect()
        }
        let f = line4();
        let valves: Vec<ValveId> = f.valves().map(|(v, _)| v).collect();
        let singles: Vec<Fault> = valves
            .iter()
            .flat_map(|&v| [Fault::StuckAt0(v), Fault::StuckAt1(v)])
            .collect();
        let leaks: Vec<Fault> = valves
            .iter()
            .flat_map(|&actuator| {
                f.valve_neighbors(actuator)
                    .into_iter()
                    .map(move |victim| Fault::ControlLeak { actuator, victim })
            })
            .collect();
        let pairs: Vec<(Fault, Fault)> = valves
            .iter()
            .flat_map(|&a| {
                valves
                    .iter()
                    .filter(move |&&b| b != a)
                    .map(move |&b| (Fault::StuckAt0(a), Fault::StuckAt1(b)))
            })
            .collect();
        for suite in [
            complete_suite(&f),
            TestSuite::new(&f, vec![TestVector::all_open(f.valve_count())]),
            TestSuite::new(&f, vec![TestVector::all_closed(f.valve_count())]),
            TestSuite::new(&f, vec![]),
        ] {
            for (bit, universe) in [
                (single_fault_coverage(&f, &suite), &singles),
                (leak_coverage(&f, &suite), &leaks),
            ] {
                assert_eq!(bit.total, universe.len());
                assert_eq!(bit.undetected, misses(&f, &suite, universe, |x| vec![x]));
            }
            let bit = two_fault_audit(&f, &suite, 2);
            assert_eq!(bit.total, pairs.len());
            assert_eq!(
                bit.undetected,
                misses(&f, &suite, &pairs, |(a, b)| vec![a, b])
            );
        }
    }
}
