//! Exhaustive coverage audits.
//!
//! The campaign in [`crate::campaign`] samples the fault space; the audits
//! here enumerate it. [`single_fault_coverage`] checks every stuck-at fault
//! (2·n_v of them), [`leak_coverage`] every physically adjacent control
//! leak, and [`two_fault_audit`] every (stuck-at-0, stuck-at-1) pair — the
//! combination Section III-A identifies as the dangerous mutually masking
//! case and the paper's "any two faults" guarantee is about. The pairwise
//! sweep is quadratic in the valve count, so it runs on the same scoped
//! worker pool ([`crate::exec`]) as the campaign.

use crate::bitsim::{BitSimulator, KernelStats, LoweredChip, SimKernel, SWEEP_CHUNK};
use crate::exec;
use crate::fault::{Fault, FaultSet};
use crate::suite::TestSuite;
use fpva_grid::{Fpva, ValveId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Result of a fault-universe sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageReport<F> {
    /// Faults (or fault pairs) examined.
    pub total: usize,
    /// The ones no vector detected.
    pub undetected: Vec<F>,
    /// Work counters of the kernel that ran the sweep. Identical across
    /// thread counts (but not across kernels — that is the point of the
    /// counters); `total`/`undetected` are identical across both.
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

/// Checks every single stuck-at-0 and stuck-at-1 fault, on the default
/// (bit-parallel) kernel.
pub fn single_fault_coverage(fpva: &Fpva, suite: &TestSuite) -> CoverageReport<Fault> {
    single_fault_coverage_with(fpva, suite, SimKernel::default())
}

/// [`single_fault_coverage`] on an explicit kernel. `total`/`undetected`
/// are identical for both kernels; the scalar path is the differential
/// oracle.
pub fn single_fault_coverage_with(
    fpva: &Fpva,
    suite: &TestSuite,
    kernel: SimKernel,
) -> CoverageReport<Fault> {
    let universe: Vec<Fault> = fpva
        .valves()
        .flat_map(|(v, _)| [Fault::StuckAt0(v), Fault::StuckAt1(v)])
        .collect();
    sweep_universe(fpva, suite, kernel, universe)
}

/// Checks every control-leak fault between physically adjacent valves
/// (ordered pairs: the leak direction matters), on the default
/// (bit-parallel) kernel.
pub fn leak_coverage(fpva: &Fpva, suite: &TestSuite) -> CoverageReport<Fault> {
    leak_coverage_with(fpva, suite, SimKernel::default())
}

/// [`leak_coverage`] on an explicit kernel.
pub fn leak_coverage_with(
    fpva: &Fpva,
    suite: &TestSuite,
    kernel: SimKernel,
) -> CoverageReport<Fault> {
    let universe: Vec<Fault> = fpva
        .valves()
        .flat_map(|(actuator, _)| {
            fpva.valve_neighbors(actuator)
                .into_iter()
                .map(move |victim| Fault::ControlLeak { actuator, victim })
        })
        .collect();
    sweep_universe(fpva, suite, kernel, universe)
}

/// Serial sweep over an explicit single-fault universe: scalar per-fault
/// detection, or one vector-major [`BitSimulator::sweep`] per
/// [`SWEEP_CHUNK`] faults on the bit-parallel kernel.
fn sweep_universe(
    fpva: &Fpva,
    suite: &TestSuite,
    kernel: SimKernel,
    universe: Vec<Fault>,
) -> CoverageReport<Fault> {
    let total = universe.len();
    let mut undetected = Vec::new();
    let mut stats = KernelStats::default();
    match kernel {
        SimKernel::Scalar => {
            for fault in universe {
                let set = FaultSet::try_from_faults(vec![fault]).expect("single fault is valid");
                match suite.first_detecting_vector(fpva, &set) {
                    Some(ix) => stats.scalar_passes += ix + 1,
                    None => {
                        stats.scalar_passes += suite.len();
                        undetected.push(fault);
                    }
                }
            }
        }
        SimKernel::BitParallel => {
            let chip = LoweredChip::build(fpva);
            let mut sim = BitSimulator::new(&chip);
            for chunk in universe.chunks(SWEEP_CHUNK) {
                let scenarios: Vec<[Fault; 1]> = chunk.iter().map(|&fault| [fault]).collect();
                let verdicts = sim.sweep(suite, &scenarios);
                for (&fault, hit) in chunk.iter().zip(verdicts) {
                    if !hit {
                        undetected.push(fault);
                    }
                }
            }
            stats = sim.stats();
        }
    }
    CoverageReport {
        total,
        undetected,
        stats,
    }
}

/// Checks every (stuck-at-0, stuck-at-1) pair on distinct valves — the
/// mutual-masking scenario of the paper's Fig. 5(c)/(d) — spreading the
/// O(n_v²) sweep over `threads` workers (`1` = serial on the calling
/// thread, `0` = all CPUs), on the default (bit-parallel) kernel. The
/// report is identical for every thread count, with `undetected` in the
/// serial scan order (outer stuck-at-0 valve, inner stuck-at-1 valve).
/// Exhaustive even on the large arrays given enough threads;
/// [`two_fault_audit_sampled`] remains the cheap alternative.
pub fn two_fault_audit(
    fpva: &Fpva,
    suite: &TestSuite,
    threads: usize,
) -> CoverageReport<(Fault, Fault)> {
    two_fault_audit_with(fpva, suite, threads, SimKernel::default())
}

/// [`two_fault_audit`] on an explicit kernel. `total`/`undetected` are
/// identical for both kernels. Both split the scan order into chunks of
/// [`SWEEP_CHUNK`] pairs, a fixed size, so the chunk decomposition, and
/// with it the `undetected` ordering, never depends on the thread count;
/// the bit-parallel kernel pushes each chunk through one vector-major
/// [`BitSimulator::sweep`].
pub fn two_fault_audit_with(
    fpva: &Fpva,
    suite: &TestSuite,
    threads: usize,
    kernel: SimKernel,
) -> CoverageReport<(Fault, Fault)> {
    let nv = fpva.valve_count();
    let total = nv * nv.saturating_sub(1);
    // Pair index -> (a, b), b skipping the diagonal; matches the nested
    // `for a { for b }` scan order.
    let pair_at = |p: usize| {
        let a = p / (nv - 1);
        let r = p % (nv - 1);
        let b = if r >= a { r + 1 } else { r };
        (Fault::StuckAt0(ValveId(a)), Fault::StuckAt1(ValveId(b)))
    };
    let lowered = (kernel == SimKernel::BitParallel && total > 0).then(|| LoweredChip::build(fpva));
    let chunks = exec::run_chunked(threads, total, SWEEP_CHUNK, |pairs| {
        let mut stats = KernelStats::default();
        let mut undetected = Vec::new();
        match &lowered {
            Some(chip) => {
                let scenarios: Vec<[Fault; 2]> = pairs
                    .map(|p| {
                        let (a, b) = pair_at(p);
                        [a, b]
                    })
                    .collect();
                let mut sim = BitSimulator::new(chip);
                let verdicts = sim.sweep(suite, &scenarios);
                for (&[a, b], hit) in scenarios.iter().zip(verdicts) {
                    if !hit {
                        undetected.push((a, b));
                    }
                }
                stats = sim.stats();
            }
            None => {
                for p in pairs {
                    let pair = pair_at(p);
                    let set = FaultSet::try_from_faults(vec![pair.0, pair.1])
                        .expect("distinct valves cannot conflict");
                    match suite.first_detecting_vector(fpva, &set) {
                        Some(ix) => stats.scalar_passes += ix + 1,
                        None => {
                            stats.scalar_passes += suite.len();
                            undetected.push(pair);
                        }
                    }
                }
            }
        }
        (undetected, stats)
    });
    let mut undetected = Vec::new();
    let mut stats = KernelStats::default();
    for (chunk_undetected, chunk_stats) in chunks {
        undetected.extend(chunk_undetected);
        stats.merge(&chunk_stats);
    }
    CoverageReport {
        total,
        undetected,
        stats,
    }
}

/// Randomly samples `samples` (stuck-at-0, stuck-at-1) pairs; reproducible
/// via `seed`.
///
/// # Panics
///
/// Panics if the array has fewer than two valves.
pub fn two_fault_audit_sampled(
    fpva: &Fpva,
    suite: &TestSuite,
    samples: usize,
    seed: u64,
) -> CoverageReport<(Fault, Fault)> {
    let nv = fpva.valve_count();
    assert!(nv >= 2, "two-fault audit needs at least two valves");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut undetected = Vec::new();
    let mut stats = KernelStats::default();
    for _ in 0..samples {
        let a = ValveId(rng.gen_range(0..nv));
        let b = loop {
            let b = ValveId(rng.gen_range(0..nv));
            if b != a {
                break b;
            }
        };
        let pair = (Fault::StuckAt0(a), Fault::StuckAt1(b));
        let set = FaultSet::try_from_faults(vec![pair.0, pair.1])
            .expect("distinct valves cannot conflict");
        match suite.first_detecting_vector(fpva, &set) {
            Some(ix) => stats.scalar_passes += ix + 1,
            None => {
                stats.scalar_passes += suite.len();
                undetected.push(pair);
            }
        }
    }
    CoverageReport {
        total: samples,
        undetected,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn sampled_audit_is_reproducible() {
        let f = line4();
        let suite = complete_suite(&f);
        let a = two_fault_audit_sampled(&f, &suite, 25, 9);
        let b = two_fault_audit_sampled(&f, &suite, 25, 9);
        assert_eq!(a, b);
        assert_eq!(a.total, 25);
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

    /// Every audit, bit-parallel vs the scalar oracle: identical verdicts.
    #[test]
    fn audits_agree_across_kernels() {
        let f = line4();
        for suite in [
            complete_suite(&f),
            TestSuite::new(&f, vec![TestVector::all_open(f.valve_count())]),
            TestSuite::new(&f, vec![TestVector::all_closed(f.valve_count())]),
            TestSuite::new(&f, vec![]),
        ] {
            for (bit, scalar) in [
                (
                    single_fault_coverage_with(&f, &suite, SimKernel::BitParallel),
                    single_fault_coverage_with(&f, &suite, SimKernel::Scalar),
                ),
                (
                    leak_coverage_with(&f, &suite, SimKernel::BitParallel),
                    leak_coverage_with(&f, &suite, SimKernel::Scalar),
                ),
            ] {
                assert_eq!(bit.total, scalar.total);
                assert_eq!(bit.undetected, scalar.undetected);
                assert_eq!(bit.stats.scalar_passes, 0);
                assert_eq!(scalar.stats.blocks, 0);
            }
            let bit = two_fault_audit_with(&f, &suite, 2, SimKernel::BitParallel);
            let scalar = two_fault_audit_with(&f, &suite, 2, SimKernel::Scalar);
            assert_eq!(bit.total, scalar.total);
            assert_eq!(bit.undetected, scalar.undetected);
        }
    }
}
