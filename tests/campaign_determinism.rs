//! The campaign engine's determinism contract, end to end: for a fixed
//! seed the rows are a pure function of `(chip, suite, config)` —
//! independent of the thread count, of the ordering of `fault_counts`,
//! and of subsetting. Also covers the multi-sink campaign smoke case and
//! the explicit empty-universe reporting.

use fpva::grid::{PortKind, Side};
use fpva::sim::audit::{self, VALVE_CHUNK};
use fpva::sim::bitsim::SWEEP_CHUNK;
use fpva::sim::campaign::{self, CampaignConfig};
use fpva::{layouts, Atpg, CampaignRow, CoverageReport, Fault, Fpva, TestSuite};
use proptest::prelude::*;
use std::sync::OnceLock;

/// The 5x5 Table I array with its generated suite, built once — plan
/// generation dominates these tests otherwise.
fn planned_5x5() -> &'static (Fpva, TestSuite) {
    static PLANNED: OnceLock<(Fpva, TestSuite)> = OnceLock::new();
    PLANNED.get_or_init(|| {
        let fpva = layouts::table1_5x5();
        let suite = Atpg::new()
            .generate(&fpva)
            .expect("5x5 plan generates")
            .to_suite(&fpva);
        (fpva, suite)
    })
}

/// The multi-sink chip of `examples/custom_biochip`: transport channels,
/// a 2x2 obstacle, one source and two sinks on different edges.
fn custom_biochip() -> Fpva {
    fpva::FpvaBuilder::new(12, 12)
        .channel_horizontal(2, 1, 6)
        .channel_vertical(9, 4, 8)
        .obstacle(6, 3, 7, 4)
        .port(0, 0, Side::West, PortKind::Source)
        .port(11, 11, Side::East, PortKind::Sink)
        .port(11, 0, Side::South, PortKind::Sink)
        .build()
        .expect("example layout is valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn rows_are_thread_count_invariant_for_any_seed(seed in any::<u64>()) {
        let (fpva, suite) = planned_5x5();
        let config = |threads| CampaignConfig {
            // Two full bit-parallel chunks and a partial one, so the
            // pooled run really splits each row.
            trials: 2 * SWEEP_CHUNK + 72,
            fault_counts: vec![1, 3],
            seed,
            threads,
        };
        let serial = campaign::run(fpva, suite, &config(1));
        let pooled = campaign::run(fpva, suite, &config(8));
        prop_assert_eq!(serial, pooled);
    }

    #[test]
    fn rows_are_fault_count_order_invariant_for_any_seed(seed in any::<u64>()) {
        let (fpva, suite) = planned_5x5();
        let config = |fault_counts| CampaignConfig {
            trials: 30,
            fault_counts,
            seed,
            threads: 2,
        };
        let forward = campaign::run(fpva, suite, &config(vec![1, 2]));
        let reversed = campaign::run(fpva, suite, &config(vec![2, 1]));
        prop_assert_eq!(&forward[0], &reversed[1]);
        prop_assert_eq!(&forward[1], &reversed[0]);
    }
}

#[test]
fn multi_sink_campaign_smoke() {
    let fpva = custom_biochip();
    let suite = Atpg::new()
        .generate(&fpva)
        .expect("custom biochip plan generates")
        .to_suite(&fpva);
    // Two full bit-parallel chunks and a partial one per row.
    let trials = 2 * SWEEP_CHUNK + 60;
    let config = |threads| CampaignConfig {
        trials,
        fault_counts: vec![1, 2],
        threads,
        ..Default::default()
    };
    let rows = campaign::run(&fpva, &suite, &config(4));
    assert_eq!(rows.len(), 2);
    for row in &rows {
        assert_eq!(row.trials, trials);
        assert!(row.detected <= row.trials);
        assert!(row.escapes.len() <= campaign::MAX_RECORDED_ESCAPES);
        // The generated suite catches most random faults even on this
        // irregular chip (some valves are reported untestable, so 100% is
        // not guaranteed the way it is on the full arrays).
        assert!(
            row.detection_rate().expect("trials ran") > 0.5,
            "suspiciously low detection at {} faults: {}/{}",
            row.fault_count,
            row.detected,
            row.trials
        );
    }
    assert_eq!(rows, campaign::run(&fpva, &suite, &config(1)));
}

#[test]
fn two_fault_audit_is_thread_count_invariant_end_to_end() {
    // The smallest square array whose stuck-at-0 valves span two full
    // audit chunks and a partial one, so the pooled runs really split it.
    let valves = |n: usize| 2 * n * (n - 1);
    let side = (2..)
        .find(|&n| valves(n) > 2 * VALVE_CHUNK && valves(n) % VALVE_CHUNK != 0)
        .expect("valve counts grow without bound");
    let fpva = layouts::full_array(side, side);
    let plan = Atpg::new()
        .generate(&fpva)
        .expect("full array plan generates");
    // The flow paths alone let pairs escape, so the chunk-ordered merge
    // of a non-empty `undetected` list is compared too.
    let paths = plan.flow_paths().iter().map(|p| p.to_vector(&fpva));
    let suite = TestSuite::new(&fpva, paths.collect());
    let serial = audit::two_fault_audit(&fpva, &suite, 1);
    assert_eq!(serial.total, valves(side) * (valves(side) - 1));
    assert!(!serial.is_complete(), "the weak suite lets pairs escape");
    for threads in [2, 8] {
        assert_eq!(audit::two_fault_audit(&fpva, &suite, threads), serial);
    }
}

#[test]
fn empty_universes_are_reported_explicitly() {
    let empty_row = CampaignRow {
        fault_count: 1,
        trials: 0,
        detected: 0,
        escapes: vec![],
    };
    assert_eq!(empty_row.detection_rate(), None);
    let empty_report: CoverageReport<Fault> = CoverageReport {
        total: 0,
        undetected: vec![],
        stats: fpva::KernelStats::default(),
    };
    assert_eq!(empty_report.coverage(), None);

    // A zero-trial campaign is a no-op, not a "fully detected" claim.
    let (fpva, suite) = planned_5x5();
    let rows = campaign::run(
        fpva,
        suite,
        &CampaignConfig {
            trials: 0,
            fault_counts: vec![1],
            threads: 4,
            ..Default::default()
        },
    );
    assert_eq!(rows[0].detection_rate(), None);
    assert_eq!(rows[0].detected, 0);
}
