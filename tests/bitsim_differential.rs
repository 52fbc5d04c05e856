//! Differential tests for the bit-parallel simulation kernel against the
//! scalar oracle, `TestSuite::detects` applied to each trial's fault set,
//! each fault and each pair: the vector-major bitset sweep must reproduce
//! the oracle's campaign rows **byte for byte** — same detections, same
//! escapes, same order — and its audits' `undetected` lists, on every
//! Table I layout and on the multi-sink example chip, for every lane
//! packing and chunk split (trial counts off the 64-lane and chunk
//! boundaries included). Complete plans detect nearly every fault, so the
//! weak-suite cases apply only a plan's flow paths, or only its cuts, to
//! make faults escape. The two-fault audit, which simulates only the pairs
//! its single-fault pre-pass leaves undecided, must also report exactly
//! the pairs the sweep of every pair misses. Small generated chips with
//! random ports pin the sweep's region classifier, scenario by scenario,
//! under random vectors and source-to-sink walks.

mod common;

use fpva::sim::audit::{leak_coverage, single_fault_coverage, two_fault_audit};
use fpva::sim::bitsim::{BitSimulator, SWEEP_CHUNK};
use fpva::sim::campaign::{self, CampaignConfig};
use fpva::{
    layouts, Atpg, CampaignRow, CoverageReport, Fault, FaultSet, Fpva, KernelStats,
    ObservableLeaks, TestSuite, ValveId,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;

/// The 5x5 Table I array with its generated suite, built once — plan
/// generation dominates the edge-case tests otherwise.
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

/// Runs a campaign and asserts that its rows equal the scalar oracle's.
fn assert_rows_match_oracle(
    fpva: &Fpva,
    suite: &TestSuite,
    config: &CampaignConfig,
) -> Vec<CampaignRow> {
    let leaks = ObservableLeaks::build(fpva);
    let oracle: Vec<CampaignRow> = config
        .fault_counts
        .iter()
        .map(|&k| {
            let trials = oracle_trials(fpva, suite, &leaks, config.seed, k, config.trials);
            oracle_row(k, &trials)
        })
        .collect();
    assert_eq!(
        campaign::run(fpva, suite, config),
        oracle,
        "bit-parallel rows diverged from the scalar oracle"
    );
    oracle
}

/// Plans a suite and checks its campaign rows against the oracle on one
/// layout.
fn differential_on(name: &str, fpva: &Fpva, trials: usize) {
    let suite = Atpg::new()
        .generate(fpva)
        .unwrap_or_else(|e| panic!("{name}: plan generates: {e}"))
        .to_suite(fpva);
    let config = CampaignConfig {
        trials,
        fault_counts: vec![1, 3],
        seed: 0x1eaf_5eed ^ trials as u64,
        threads: 1,
    };
    let rows = assert_rows_match_oracle(fpva, &suite, &config);
    assert_eq!(rows.len(), 2, "{name}: one row per fault count");
    for row in &rows {
        assert_eq!(row.trials, trials, "{name}");
    }
}

#[test]
fn rows_match_scalar_oracle_on_small_table1_layouts() {
    differential_on("5x5", &layouts::table1_5x5(), 70);
    differential_on("10x10", &layouts::table1_10x10(), 40);
}

#[test]
fn rows_match_scalar_oracle_on_multi_sink_biochip() {
    // The irregular multi-sink chip: channels, an obstacle, sinks on two
    // different edges — exercises multi-seed forward floods and the
    // multi-port response comparison per lane.
    differential_on("custom_biochip", &layouts::custom_biochip(), 70);
}

/// The full Table I sweep, 30x30 included.
#[test]
fn rows_match_scalar_oracle_on_all_table1_layouts() {
    for entry in layouts::table1() {
        differential_on(entry.name, &entry.fpva, 70);
    }
}

#[test]
fn lane_packing_edge_cases_match_scalar_oracle() {
    let (fpva, suite) = planned_5x5();
    // 63/65/70 straddle the 64-lane word boundary, so the trailing block
    // of each row is partial; 64 is exactly one full word (live mask all
    // ones); 1 is a single-lane block.
    for trials in [1, 63, 64, 65, 70] {
        let config = CampaignConfig {
            trials,
            fault_counts: vec![2],
            seed: 7,
            threads: 1,
        };
        let rows = assert_rows_match_oracle(fpva, suite, &config);
        assert_eq!(rows[0].trials, trials);
    }
}

/// `fpva`'s complete plan suite, then two weak suites from the same plan:
/// its flow-path vectors only, and its cut vectors only. Cut vectors
/// cannot see a stuck-at-0, and path vectors see a stuck-at-1 only where
/// it pressurises an otherwise dry sink, so plenty of faults escape each.
fn plan_suites(fpva: &Fpva) -> [(&'static str, TestSuite); 3] {
    let plan = Atpg::new().generate(fpva).expect("plan generates");
    let paths = plan.flow_paths().iter().map(|p| p.to_vector(fpva));
    let cuts = plan.cut_sets().iter().map(|c| c.to_vector(fpva));
    [
        ("complete plan", plan.to_suite(fpva)),
        ("paths only", TestSuite::new(fpva, paths.collect())),
        ("cuts only", TestSuite::new(fpva, cuts.collect())),
    ]
}

/// Every single stuck-at fault, in the audit's scan order.
fn single_faults(fpva: &Fpva) -> impl Iterator<Item = Fault> + '_ {
    fpva.valves()
        .flat_map(|(v, _)| [Fault::StuckAt0(v), Fault::StuckAt1(v)])
}

/// Every control leak between adjacent valves, in the audit's scan order.
fn leak_faults(fpva: &Fpva) -> impl Iterator<Item = Fault> + '_ {
    fpva.valves().flat_map(move |(actuator, _)| {
        fpva.valve_neighbors(actuator)
            .into_iter()
            .map(move |victim| Fault::ControlLeak { actuator, victim })
    })
}

/// Every (stuck-at-0, stuck-at-1) pair on distinct valves, in the
/// two-fault audit's scan order.
fn stuck_at_pairs(fpva: &Fpva) -> impl Iterator<Item = (Fault, Fault)> {
    let nv = fpva.valve_count();
    (0..nv).flat_map(move |a| {
        (0..nv)
            .filter(move |&b| b != a)
            .map(move |b| (Fault::StuckAt0(ValveId(a)), Fault::StuckAt1(ValveId(b))))
    })
}

/// Asserts that an audit examined exactly `universe` and reports as
/// undetected, in order, the scenarios `TestSuite::detects` misses;
/// returns how many escaped.
fn assert_audits_agree<F: Copy + PartialEq + std::fmt::Debug>(
    what: &str,
    bit: &CoverageReport<F>,
    fpva: &Fpva,
    suite: &TestSuite,
    universe: impl Iterator<Item = F>,
    faults: impl Fn(F) -> Vec<Fault>,
) -> usize {
    let (mut total, mut undetected) = (0, Vec::new());
    for scenario in universe {
        total += 1;
        let set = FaultSet::try_from_faults(faults(scenario)).expect("compatible faults");
        if !suite.detects(fpva, &set) {
            undetected.push(scenario);
        }
    }
    assert_eq!(bit.total, total, "{what}: universe size");
    assert_eq!(bit.undetected, undetected, "{what}: undetected");
    undetected.len()
}

/// Trial counts on both sides of the 64-lane and the chunk boundaries.
const TRIAL_COUNTS: [usize; 7] = [
    1,
    63,
    64,
    65,
    SWEEP_CHUNK - 1,
    SWEEP_CHUNK,
    SWEEP_CHUNK + 70,
];

/// The scalar oracle on trials `0..trials` of one campaign row: each
/// trial's fault set, drawn as `campaign::run` draws it (from its own RNG
/// seeded by `trial_seed`), with the verdict of `TestSuite::detects`.
fn oracle_trials(
    fpva: &Fpva,
    suite: &TestSuite,
    leaks: &ObservableLeaks,
    seed: u64,
    fault_count: usize,
    trials: usize,
) -> Vec<(FaultSet, bool)> {
    (0..trials)
        .map(|trial| {
            let mut rng = StdRng::seed_from_u64(campaign::trial_seed(seed, fault_count, trial));
            let set = campaign::random_fault_set_from(fpva, &mut rng, fault_count, leaks);
            let detected = suite.detects(fpva, &set);
            (set, detected)
        })
        .collect()
}

/// The campaign row of a prefix of oracle trials: every trial depends
/// only on its own index, so the first `n` trials of a longer row are the
/// whole of an `n`-trial row.
fn oracle_row(fault_count: usize, trials: &[(FaultSet, bool)]) -> CampaignRow {
    CampaignRow {
        fault_count,
        trials: trials.len(),
        detected: trials.iter().filter(|(_, detected)| *detected).count(),
        escapes: trials
            .iter()
            .filter(|(_, detected)| !detected)
            .map(|(set, _)| set.clone())
            .take(campaign::MAX_RECORDED_ESCAPES)
            .collect(),
    }
}

/// Campaign rows at every count of [`TRIAL_COUNTS`], fault counts 1–5
/// with control leaks, and the audits, under both weak suites of `fpva`:
/// the bit kernel, on the worker pool, must match the scalar oracle, and
/// the suites must actually let faults escape.
fn weak_suites_match_scalar_oracle(name: &str, fpva: &Fpva, pair_audit: bool) {
    let leaks = ObservableLeaks::build(fpva);
    let longest = TRIAL_COUNTS.into_iter().max().expect("non-empty");
    let [_, paths, cuts] = plan_suites(fpva);
    for (suite_name, suite) in [paths, cuts] {
        let what = format!("{name}, {suite_name}");
        let seed = 0x3ea_c5ee;
        let oracle: Vec<_> = (1..=5)
            .map(|k| oracle_trials(fpva, &suite, &leaks, seed, k, longest))
            .collect();
        for trials in TRIAL_COUNTS {
            let config = CampaignConfig {
                trials,
                fault_counts: (1..=5).collect(),
                seed,
                threads: 0,
            };
            let expected: Vec<CampaignRow> = (1..=5)
                .zip(&oracle)
                .map(|(k, row)| oracle_row(k, &row[..trials]))
                .collect();
            assert_eq!(
                campaign::run(fpva, &suite, &config),
                expected,
                "{what}: {trials} trials"
            );
        }
        let escaped = oracle.iter().flatten().filter(|(_, hit)| !hit).count();
        assert!(escaped > 0, "{what}: no campaign trial escaped");
        let audit_escapes = assert_audits_agree(
            &format!("{what}: single faults"),
            &single_fault_coverage(fpva, &suite),
            fpva,
            &suite,
            single_faults(fpva),
            |fault| vec![fault],
        ) + assert_audits_agree(
            &format!("{what}: leaks"),
            &leak_coverage(fpva, &suite),
            fpva,
            &suite,
            leak_faults(fpva),
            |fault| vec![fault],
        );
        assert!(audit_escapes > 0, "{what}: every single fault detected");
        if pair_audit {
            let pairs = assert_audits_agree(
                &format!("{what}: two-fault pairs"),
                &two_fault_audit(fpva, &suite, 0),
                fpva,
                &suite,
                stuck_at_pairs(fpva),
                |(a, b)| vec![a, b],
            );
            assert!(pairs > 0, "{what}: every two-fault pair detected");
        }
    }
}

#[test]
fn weak_suites_match_scalar_oracle_on_table1_5x5() {
    weak_suites_match_scalar_oracle("5x5", &layouts::table1_5x5(), true);
}

// The larger weak-suite cases run in release CI. On a 2-vCPU 2.0 GHz Xeon
// they take about 2 s (10x10), 8 s (custom_biochip) and 30 s (30x30)
// there, nearly all of it in the scalar oracle, and 10 to 20 times as
// long in a debug build.

#[test]
#[ignore = "release-only: the scalar oracle is slow in a debug build"]
fn weak_suites_match_scalar_oracle_on_table1_10x10() {
    weak_suites_match_scalar_oracle("10x10", &layouts::table1_10x10(), true);
}

#[test]
#[ignore = "release-only: the scalar oracle is slow in a debug build"]
fn weak_suites_match_scalar_oracle_on_multi_sink_biochip() {
    weak_suites_match_scalar_oracle("custom_biochip", &layouts::custom_biochip(), true);
}

/// Without the exhaustive two-fault audit, whose scalar oracle would
/// apply up to the whole suite to each of about 2.9 M pairs.
#[test]
#[ignore = "release-only: the scalar oracle is slow in a debug build"]
fn weak_suites_match_scalar_oracle_on_table1_30x30() {
    weak_suites_match_scalar_oracle("30x30", &layouts::table1_30x30(), false);
}

/// The two-fault audit without the single-fault pre-pass: every
/// (stuck-at-0, stuck-at-1) pair in scan order, pushed through
/// `BitSimulator::sweep` in `SWEEP_CHUNK` chunks. The sweep itself is
/// pinned to the scalar oracle by the cases above. Returns the universe
/// size and the undetected pairs.
fn unpruned_pair_audit(fpva: &Fpva, suite: &TestSuite) -> (usize, Vec<(Fault, Fault)>) {
    let mut sim = BitSimulator::new(suite);
    let mut pairs = stuck_at_pairs(fpva).map(|(a, b)| [a, b]);
    let (mut total, mut undetected) = (0, Vec::new());
    loop {
        let scenarios: Vec<[Fault; 2]> = pairs.by_ref().take(SWEEP_CHUNK).collect();
        if scenarios.is_empty() {
            return (total, undetected);
        }
        total += scenarios.len();
        let verdicts = sim.sweep(&scenarios);
        undetected.extend(
            scenarios
                .iter()
                .zip(verdicts)
                .filter(|(_, hit)| !hit)
                .map(|(&[a, b], _)| (a, b)),
        );
    }
}

/// The pruned two-fault audit against [`unpruned_pair_audit`], under
/// `fpva`'s complete plan and both weak suites: same universe, same
/// `undetected` list in the same order.
fn pruned_audit_matches_unpruned_sweep(name: &str, fpva: &Fpva) {
    let mut escaped = 0;
    for (suite_name, suite) in plan_suites(fpva) {
        let pruned = two_fault_audit(fpva, &suite, 0);
        let (total, undetected) = unpruned_pair_audit(fpva, &suite);
        assert_eq!(pruned.total, total, "{name}, {suite_name}: universe size");
        assert_eq!(
            pruned.undetected, undetected,
            "{name}, {suite_name}: undetected"
        );
        escaped += undetected.len();
    }
    assert!(escaped > 0, "{name}: no suite let a pair escape");
}

#[test]
fn pruned_pair_audit_matches_unpruned_sweep_on_table1_10x10() {
    pruned_audit_matches_unpruned_sweep("10x10", &layouts::table1_10x10());
}

#[test]
fn pruned_pair_audit_matches_unpruned_sweep_on_multi_sink_biochip() {
    pruned_audit_matches_unpruned_sweep("custom_biochip", &layouts::custom_biochip());
}

// The larger arrays run in release CI. The cuts-only suite detects no
// stuck-at-0, so it prunes nothing and its 30x30 case sweeps all 2.9 M
// pairs on both sides.

#[test]
#[ignore = "release-only: the unpruned sweep is slow in a debug build"]
fn pruned_pair_audit_matches_unpruned_sweep_on_table1_15x15() {
    pruned_audit_matches_unpruned_sweep("15x15", &layouts::table1_15x15());
}

#[test]
#[ignore = "release-only: the unpruned sweep is slow in a debug build"]
fn pruned_pair_audit_matches_unpruned_sweep_on_table1_20x20() {
    pruned_audit_matches_unpruned_sweep("20x20", &layouts::table1_20x20());
}

#[test]
#[ignore = "release-only: the unpruned sweep is slow in a debug build"]
fn pruned_pair_audit_matches_unpruned_sweep_on_table1_30x30() {
    pruned_audit_matches_unpruned_sweep("30x30", &layouts::table1_30x30());
}

/// The oracle of the sweep's region classifier: on every case of
/// `common::for_each_classifier_case` (64 generated chips with random
/// ports, `table1_5x5` and `custom_biochip`, twelve random vectors and
/// four source-to-sink walks each), a one-vector suite must give the
/// case's 64 fault sets the same verdicts under `BitSimulator::sweep` as
/// under `TestSuite::detects`. A detected set that closes a valve of the
/// golden region is swept again alone: with no word pass, the cut rule
/// decided it, and the walks make it do so more than a thousand times.
#[test]
fn sweep_matches_suite_detects_on_generated_chips() {
    let (mut hits, mut escapes, mut cut) = (0, 0, 0);
    common::for_each_classifier_case(|fpva, vector, sets| {
        let suite = TestSuite::new(fpva, vec![vector.clone()]);
        let verdicts = BitSimulator::new(&suite).sweep(sets);
        for (set, hit) in sets.iter().zip(verdicts) {
            assert_eq!(
                hit,
                suite.detects(fpva, set),
                "{set:?} under {vector:?} on {fpva:?}"
            );
            hits += usize::from(hit);
            escapes += usize::from(!hit);
            if hit && common::closes_golden_region(fpva, vector, set) {
                let mut alone = BitSimulator::new(&suite);
                alone.sweep(std::slice::from_ref(set));
                cut += usize::from(alone.stats().word_passes == 0);
            }
        }
    });
    assert!(
        hits > 1000 && escapes > 1000 && cut > 1000,
        "{hits} detected ({cut} by the cut rule), {escapes} escaped"
    );
}

/// The kernel's work counters `(blocks, word_passes, lanes)` on each
/// Table I plan, for a 2048-trial campaign at fault counts 1–5 (default
/// seed, one thread), then the two-fault, single-fault and leak audits.
/// They move only when visit scheduling, the region classifier or word
/// packing changes; a change that means to move them says why. Every
/// trial is detected, and the audits leave 0, 0 and 4 faults undetected
/// (the leaks between the two valves of a port-less corner cell).
#[test]
fn kernel_counters_are_pinned_on_table1_plans() {
    type Counts = (usize, usize, usize);
    let pinned: [[Counts; 4]; 5] = [
        [(160, 72, 10240), (2, 16, 56), (2, 0, 78), (3, 0, 176)],
        [(160, 70, 10240), (6, 35, 327), (6, 1, 352), (15, 0, 926)],
        [(160, 70, 10240), (15, 95, 825), (13, 1, 822), (36, 0, 2256)],
        [
            (160, 70, 10240),
            (21, 149, 1248),
            (24, 5, 1488),
            (66, 0, 4170),
        ],
        [
            (160, 76, 10240),
            (54, 382, 3159),
            (54, 6, 3408),
            (153, 0, 9770),
        ],
    ];
    let counts = |stats: KernelStats| (stats.blocks, stats.word_passes, stats.lanes);
    for (entry, expected) in layouts::table1().into_iter().zip(pinned) {
        let (name, f) = (entry.name, &entry.fpva);
        let suite = Atpg::new().generate(f).expect("plan generates").to_suite(f);
        let config = CampaignConfig {
            trials: 2048,
            fault_counts: (1..=5).collect(),
            threads: 1,
            ..Default::default()
        };
        let (rows, stats) = campaign::run_in(f, &suite, &config, &ObservableLeaks::build(f));
        assert!(
            rows.iter().all(CampaignRow::all_detected),
            "{name}: {rows:?}"
        );
        let pairs = two_fault_audit(f, &suite, 1);
        let singles = single_fault_coverage(f, &suite);
        let leaks = leak_coverage(f, &suite);
        assert_eq!(
            [
                pairs.undetected.len(),
                singles.undetected.len(),
                leaks.undetected.len()
            ],
            [0, 0, 4],
            "{name}: undetected"
        );
        assert_eq!(
            [stats, pairs.stats, singles.stats, leaks.stats].map(counts),
            expected,
            "{name}: campaign, two-fault, single-fault and leak counters"
        );
    }
}

#[test]
fn empty_universe_is_undefined_under_the_bit_kernel() {
    let (fpva, suite) = planned_5x5();
    let config = CampaignConfig {
        trials: 0,
        fault_counts: vec![1],
        ..Default::default()
    };
    let rows = campaign::run(fpva, suite, &config);
    assert_eq!(rows[0].detection_rate(), None, "zero trials is a no-op");
    assert_eq!(rows[0].detected, 0);
    assert!(rows[0].escapes.is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // For arbitrary seeds (hence arbitrary fault mixes, control leaks
    // included) and a trial count off the lane boundary, the bit kernel
    // and the scalar oracle agree row for row — and the bit kernel stays
    // thread-count invariant on top.
    #[test]
    fn kernels_agree_for_any_seed(seed in any::<u64>()) {
        let (fpva, suite) = planned_5x5();
        let config = |threads| CampaignConfig {
            trials: 45,
            fault_counts: vec![1, 2],
            seed,
            threads,
        };
        let serial = assert_rows_match_oracle(fpva, suite, &config(1));
        let pooled = assert_rows_match_oracle(fpva, suite, &config(4));
        prop_assert_eq!(serial, pooled);
    }
}
