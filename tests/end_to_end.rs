//! End-to-end integration: generate plans for the paper's benchmark
//! arrays and audit them with the simulator.

use fpva::grid::{PortKind, Side};
use fpva::layouts::{self, GenSpec, PortRule};
use fpva::sim::{audit, Fault, FaultSet};
use fpva::{Atpg, Fpva, FpvaBuilder, ValveId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

#[test]
fn table1_valve_counts_match_paper() {
    let expected = [39, 176, 411, 744, 1704];
    for (entry, &nv) in layouts::table1().iter().zip(&expected) {
        assert_eq!(entry.fpva.valve_count(), nv, "{}", entry.name);
    }
}

#[test]
fn plans_leave_no_untestable_faults_on_benchmark_arrays() {
    for entry in layouts::table1() {
        let plan = Atpg::new().generate(&entry.fpva).unwrap();
        assert!(plan.untestable_open().is_empty(), "{}", entry.name);
        assert!(plan.untestable_closed().is_empty(), "{}", entry.name);
        // The only permissible leftovers are leak pairs that are
        // *certified* untestable (the port-less corner pockets).
        for &(a, b) in plan.untestable_pairs() {
            assert!(
                fpva::atpg::leakage::pair_untestable(&entry.fpva, a, b),
                "{}: pair ({a},{b}) left uncovered without certificate",
                entry.name
            );
        }
    }
}

#[test]
fn table1_vector_counts_stay_within_the_restart_router_counts() {
    // `N` per row from the randomized restart router the exact router
    // replaced; the cut-set column is untouched by routing.
    let before = [20, 39, 68, 70, 106];
    for (entry, &max) in layouts::table1().iter().zip(&before) {
        let plan = Atpg::new().generate(&entry.fpva).unwrap();
        assert!(
            plan.vector_count() <= max,
            "{}: N = {} > {max}",
            entry.name,
            plan.vector_count()
        );
        assert_eq!(
            plan.cut_sets().len(),
            entry.paper_cut_sets,
            "{}",
            entry.name
        );
    }
}

#[test]
fn mid_side_ports_leave_no_valve_falsely_untestable() {
    // Source above the middle of the top row, sink below the middle of
    // the bottom row: every band path is dropped and the greedy fix-up
    // routes everything. The restart router gave up on two valves here
    // that the plan's own suite then detected, so they were never
    // untestable.
    let f = FpvaBuilder::new(5, 7)
        .port(0, 3, Side::North, PortKind::Source)
        .port(4, 3, Side::South, PortKind::Sink)
        .build()
        .unwrap();
    let plan = Atpg::new().generate(&f).unwrap();
    assert!(
        plan.untestable_open().is_empty(),
        "{:?}",
        plan.untestable_open()
    );
    let report = audit::single_fault_coverage(&f, &plan.to_suite(&f));
    assert!(report.is_complete(), "escapes: {:?}", report.undetected);
    // The multi-sink example chip: every valve lies on some flow path.
    let custom = layouts::custom_biochip();
    let plan = Atpg::new().generate(&custom).unwrap();
    assert!(
        plan.untestable_open().is_empty(),
        "{:?}",
        plan.untestable_open()
    );
}

/// A 4×4 chip whose channels on rows 1 and 2 (columns 0–2) are joined by a
/// column-0 channel. The valves between the rows at columns 1 and 2,
/// `ValveId(12)` and `ValveId(13)`, have both cells in that one channel,
/// which bypasses them: the chip graph gives them no arc
/// (`graph::tests::bypassed_valves_have_equal_endpoint_nodes_and_no_arc`
/// in `fpva-grid`). The plan lists both as untestable in either direction,
/// and neither the bit kernel nor the scalar oracle sees their four
/// stuck-at faults.
#[test]
fn channel_bypassed_valves_are_listed_and_undetected() {
    let f = FpvaBuilder::new(4, 4)
        .channel_horizontal(1, 0, 2)
        .channel_horizontal(2, 0, 2)
        .channel_vertical(0, 1, 2)
        .port(0, 0, Side::West, PortKind::Source)
        .port(3, 3, Side::East, PortKind::Sink)
        .build()
        .unwrap();
    let bypassed = [ValveId(12), ValveId(13)];
    let plan = Atpg::new().generate(&f).unwrap();
    for v in bypassed {
        assert!(plan.untestable_open().contains(&v), "{v}");
        assert!(plan.untestable_closed().contains(&v), "{v}");
    }
    let suite = plan.to_suite(&f);
    let report = audit::single_fault_coverage(&f, &suite);
    for fault in bypassed
        .map(Fault::StuckAt0)
        .into_iter()
        .chain(bypassed.map(Fault::StuckAt1))
    {
        assert!(report.undetected.contains(&fault), "{fault:?}");
        let set = FaultSet::try_from_faults(vec![fault]).unwrap();
        assert!(!suite.detects(&f, &set), "{fault:?}");
    }
}

/// Generates `f`'s default plan and checks that every single stuck-at and
/// leak fault its suite misses is listed in the plan's matching
/// `untestable_*` list.
fn assert_undetected_faults_are_listed(f: &Fpva) {
    let plan = Atpg::new().generate(f).unwrap();
    let suite = plan.to_suite(f);
    let single = audit::single_fault_coverage(f, &suite);
    let leak = audit::leak_coverage(f, &suite);
    let unlisted: Vec<&Fault> = single
        .undetected
        .iter()
        .chain(&leak.undetected)
        .filter(|fault| match **fault {
            Fault::StuckAt0(v) => !plan.untestable_open().contains(&v),
            Fault::StuckAt1(v) => !plan.untestable_closed().contains(&v),
            Fault::ControlLeak { actuator, victim } => {
                !plan.untestable_pairs().contains(&(actuator, victim))
            }
        })
        .collect();
    assert!(
        unlisted.is_empty(),
        "undetected but not listed: {unlisted:?} on {f:?}"
    );
}

/// Checks the plans of the generated family: sides in `sides`, up to three
/// channels of either orientation and ports on any boundary cell, with
/// `chips_per_class` chips of each port class: one source and one sink
/// (seed `0x5EEE`), and one or two of each (seed `0x5EEF`), each class on
/// a thread of its own.
fn check_generated_family(sides: Range<usize>, chips_per_class: usize) {
    std::thread::scope(|scope| {
        for (ports, seed) in [(1..2, 0x5EEE), (1..3, 0x5EEF)] {
            let spec = GenSpec {
                sides: sides.clone(),
                channels: 0..4,
                vertical_channels: true,
                ports: PortRule::Boundary(ports),
            };
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed);
                for _ in 0..chips_per_class {
                    let f = layouts::generated(&spec, &mut |range| rng.gen_range(range));
                    assert_undetected_faults_are_listed(&f);
                }
            });
        }
    });
}

#[test]
fn two_source_plans_list_every_fault_they_leave_undetected() {
    // A second inlet masks every valve upstream of it on a path that
    // crosses it, so such a path claims coverage it does not give. Each
    // fault the suite misses must be listed as untestable instead.
    let chips = [
        FpvaBuilder::new(6, 6)
            .port(0, 0, Side::West, PortKind::Source)
            .port(3, 0, Side::West, PortKind::Source)
            .port(5, 5, Side::East, PortKind::Sink),
        FpvaBuilder::new(10, 10)
            .port(0, 0, Side::West, PortKind::Source)
            .port(0, 6, Side::North, PortKind::Source)
            .port(9, 9, Side::East, PortKind::Sink),
        FpvaBuilder::new(10, 10)
            .channel_horizontal(4, 2, 6)
            .port(0, 0, Side::West, PortKind::Source)
            .port(7, 0, Side::West, PortKind::Source)
            .port(9, 9, Side::East, PortKind::Sink),
    ];
    for builder in chips {
        assert_undetected_faults_are_listed(&builder.build().unwrap());
    }
    check_generated_family(4..9, 50);
}

#[test]
#[ignore = "release-only: thousands of generated chips"]
fn generated_plans_list_every_fault_they_leave_undetected_at_scale() {
    check_generated_family(4..13, 2000);
}

#[test]
fn cut_counts_match_table1_on_all_arrays() {
    for entry in layouts::table1() {
        let cuts = fpva::atpg::cutset::straight_line_cuts(&entry.fpva).unwrap();
        assert_eq!(cuts.len(), entry.paper_cut_sets, "{}", entry.name);
    }
}

#[test]
fn cut_set_counts_follow_dimension_formula() {
    // Table I's n_c column is exactly the straight grid lines of each
    // array: (m-1) vertical + (n-1) horizontal — tie the stored paper
    // constants to the dimensions rather than trusting them in isolation.
    for entry in layouts::table1() {
        let (m, n) = (entry.fpva.rows(), entry.fpva.cols());
        assert_eq!(
            entry.paper_cut_sets,
            (m - 1) + (n - 1),
            "{}: cut-set count must be (m-1)+(n-1)",
            entry.name
        );
    }
}

#[test]
fn plans_yield_nonempty_suites_on_small_arrays() {
    for entry in layouts::table1().into_iter().take(3) {
        let plan = Atpg::new().generate(&entry.fpva).unwrap();
        let suite = plan.to_suite(&entry.fpva);
        assert!(!suite.is_empty(), "{}: empty suite", entry.name);
        assert_eq!(suite.len(), plan.vector_count(), "{}", entry.name);
    }
}

#[test]
fn plans_yield_nonempty_suites_on_large_arrays() {
    for entry in layouts::table1().into_iter().skip(3) {
        let plan = Atpg::new().generate(&entry.fpva).unwrap();
        let suite = plan.to_suite(&entry.fpva);
        assert!(!suite.is_empty(), "{}: empty suite", entry.name);
        assert_eq!(suite.len(), plan.vector_count(), "{}", entry.name);
    }
}

#[test]
fn full_single_fault_coverage_5x5() {
    let fpva = layouts::table1_5x5();
    let plan = Atpg::new().generate(&fpva).unwrap();
    let suite = plan.to_suite(&fpva);
    let stuck = audit::single_fault_coverage(&fpva, &suite);
    assert!(
        stuck.is_complete(),
        "stuck-at escapes: {:?}",
        stuck.undetected
    );
    // Every adjacent leak pair is caught except the four physically
    // untestable corner-pocket pairs.
    let leaks = audit::leak_coverage(&fpva, &suite);
    assert_eq!(
        leaks.undetected.len(),
        4,
        "leak escapes: {:?}",
        leaks.undetected
    );
    for fault in &leaks.undetected {
        let fpva::Fault::ControlLeak { actuator, victim } = fault else {
            panic!("unexpected fault kind {fault:?}")
        };
        assert!(fpva::atpg::leakage::pair_untestable(
            &fpva, *actuator, *victim
        ));
    }
}

#[test]
fn full_single_fault_coverage_10x10() {
    let fpva = layouts::table1_10x10();
    let plan = Atpg::new().generate(&fpva).unwrap();
    let suite = plan.to_suite(&fpva);
    let stuck = audit::single_fault_coverage(&fpva, &suite);
    assert!(
        stuck.is_complete(),
        "stuck-at escapes: {:?}",
        stuck.undetected
    );
}

#[test]
fn two_fault_guarantee_exhaustive_5x5() {
    // The paper guarantees detection of any two faults; check every
    // (stuck-at-0, stuck-at-1) pair on the 5x5 array (39*38 pairs).
    let fpva = layouts::table1_5x5();
    let plan = Atpg::new().generate(&fpva).unwrap();
    let suite = plan.to_suite(&fpva);
    // threads: 2 exercises the worker pool in the tier-1 run; the report
    // is identical for every thread count.
    let report = audit::two_fault_audit(&fpva, &suite, 2);
    assert!(
        report.is_complete(),
        "masked pairs: {:?}",
        report.undetected
    );
}

#[test]
fn two_fault_sampled_15x15() {
    // 400 random (stuck-at-0, stuck-at-1) pairs on 15x15, each applied
    // to the suite by the scalar simulator, independently of the
    // bit-parallel kernel the exhaustive audits run on.
    use fpva::{Fault, FaultSet, ValveId};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let fpva = layouts::table1_15x15();
    let plan = Atpg::new().generate(&fpva).unwrap();
    let suite = plan.to_suite(&fpva);
    let nv = fpva.valve_count();
    let mut rng = StdRng::seed_from_u64(21);
    let mut masked = Vec::new();
    for _ in 0..400 {
        let a = ValveId(rng.gen_range(0..nv));
        let b = loop {
            let b = ValveId(rng.gen_range(0..nv));
            if b != a {
                break b;
            }
        };
        let set = FaultSet::try_from_faults(vec![Fault::StuckAt0(a), Fault::StuckAt1(b)])
            .expect("distinct valves cannot conflict");
        if suite.first_detecting_vector(&fpva, &set).is_none() {
            masked.push((a, b));
        }
    }
    assert!(masked.is_empty(), "masked pairs: {masked:?}");
}

#[test]
fn two_fault_guarantee_exhaustive_on_table1() {
    // The paper guarantees detection of any two faults; check every
    // (stuck-at-0, stuck-at-1) pair on every Table I array, up to
    // 1704 * 1703 pairs on 30x30. threads: 2 runs the worker pool on the
    // arrays that span more than one audit chunk; the report is identical
    // for every thread count.
    for entry in layouts::table1() {
        let plan = Atpg::new().generate(&entry.fpva).unwrap();
        let report = audit::two_fault_audit(&entry.fpva, &plan.to_suite(&entry.fpva), 2);
        let nv = entry.fpva.valve_count();
        assert_eq!(report.total, nv * (nv - 1), "{}", entry.name);
        assert!(
            report.is_complete(),
            "{}: masked pairs: {:?}",
            entry.name,
            report.undetected
        );
    }
}

#[test]
fn random_campaign_catches_everything_on_5x5() {
    use fpva::sim::campaign::{self, CampaignConfig};
    let fpva = layouts::table1_5x5();
    let plan = Atpg::new().generate(&fpva).unwrap();
    let suite = plan.to_suite(&fpva);
    let config = CampaignConfig {
        trials: 500,
        ..Default::default()
    };
    for row in campaign::run(&fpva, &suite, &config) {
        assert!(
            row.all_detected(),
            "{} escapes at {} faults: {:?}",
            row.trials - row.detected,
            row.fault_count,
            row.escapes.first()
        );
    }
}

#[test]
fn proposed_is_an_order_of_magnitude_below_baseline() {
    for entry in layouts::table1().into_iter().take(3) {
        let plan = Atpg::new().generate(&entry.fpva).unwrap();
        let baseline = fpva::atpg::baseline::baseline_vector_count(&entry.fpva);
        assert!(
            plan.vector_count() * 3 < baseline,
            "{}: N={} vs baseline {}",
            entry.name,
            plan.vector_count(),
            baseline
        );
    }
}

#[test]
#[ignore = "release-only exact-ILP probe; run with `cargo test --release -- --ignored`"]
fn channelled_5x5_k2_infeasibility_proof_fits_the_probe_budget() {
    // The tentpole claim of the sparse-LU basis (PR 5): on the channelled
    // Table I 5×5, the first exact-ILP feasibility probe (k = 2, the
    // paper's lower bound) is *proven infeasible* inside the default 20s
    // budget instead of burning it — the product-form eta engine of PR 4
    // limited out on every one of its 7 probes. Capping `max_paths` at 2
    // isolates exactly that probe: the result must be a definite "no
    // cover with ≤ 2 paths", with zero limit hits.
    use fpva::atpg::ilp_model::{min_path_cover_ilp_with_stats, PathIlpConfig};
    use fpva::ilp::SolveStatus;
    let f = layouts::table1_5x5();
    let config = PathIlpConfig {
        max_paths: 2,
        ..PathIlpConfig::default()
    };
    let (res, probes) = min_path_cover_ilp_with_stats(&f, &config);
    assert!(res.is_err(), "no 2-path cover exists on the channelled 5x5");
    let [probe] = probes.as_slice() else {
        panic!("exactly the k=2 probe runs, got {} probes", probes.len());
    };
    assert_eq!(
        probe.status,
        SolveStatus::Infeasible,
        "the k=2 infeasibility must be proven, not budget-limited"
    );
    let stats = &probe.stats;
    assert_eq!(
        stats.limit_nodes, 0,
        "no node may be pruned unproven in an infeasibility proof"
    );
    assert!(
        stats.ft_updates > 0 && stats.refactorizations > 0,
        "the proof must have exercised the LU basis (ft={}, refacts={})",
        stats.ft_updates,
        stats.refactorizations
    );
}

#[test]
#[ignore = "release-only exact-ILP probe; run with `cargo test --release -- --ignored`"]
fn unchannelled_5x5_exact_cover_still_solves_in_budget() {
    // PR 4's un-channelled milestone must not regress under the LU
    // engine: the 5×5 exact cover solves with zero limit hits (measured
    // ~0.6s against PR 4's ~10s; the 20s probe budget is the guard).
    use fpva::atpg::ilp_model::{min_path_cover_ilp_with_stats, PathIlpConfig};
    use fpva::ilp::SolveStatus;
    let f = layouts::full_array(5, 5);
    let (res, probes) = min_path_cover_ilp_with_stats(&f, &PathIlpConfig::default());
    let cover = res.expect("5x5 exact cover solves inside the probe budget");
    assert_eq!(cover.paths.len(), 2, "two serpentine-like paths suffice");
    for probe in &probes {
        assert!(
            !matches!(probe.status, SolveStatus::Unknown | SolveStatus::Unbounded),
            "k={} probe hit its limit",
            probe.k
        );
    }
}

#[test]
#[ignore = "release-only exact-ILP probe; run with `cargo test --release -- --ignored`"]
fn unchannelled_5x5_dual_warm_resolves_shrink_the_search_tree() {
    // The dual-simplex tentpole claim (PR 9): child nodes re-solve
    // dually from the parent basis instead of restarting primal
    // phase 1, and on the un-channelled 5×5 exact cover that shrinks
    // the branch-and-bound tree below the primal-only engine's 91
    // nodes (measured: 74 nodes, ~1.1k dual pivots, every child a warm
    // resolve, zero rejected warm bases).
    use fpva::atpg::ilp_model::{min_path_cover_ilp_with_stats, PathIlpConfig};
    let f = layouts::full_array(5, 5);
    let (res, probes) = min_path_cover_ilp_with_stats(&f, &PathIlpConfig::default());
    let cover = res.expect("5x5 exact cover solves inside the probe budget");
    assert_eq!(cover.paths.len(), 2);
    let [probe] = probes.as_slice() else {
        panic!(
            "the k=2 lower bound is feasible, got {} probes",
            probes.len()
        );
    };
    let stats = &probe.stats;
    assert!(
        stats.dual_pivots > 0,
        "child re-solves must exercise the dual simplex (dual_pivots = 0)"
    );
    assert!(
        stats.warm_resolves > 0,
        "every child node should warm-start from its parent basis"
    );
    assert_eq!(
        stats.cold_restarts, 0,
        "no warm basis may be silently rejected into a cold restart"
    );
    assert!(
        stats.nodes < 91,
        "the dual warm path must beat the primal-only 91-node tree, got {}",
        stats.nodes
    );
}

#[test]
#[ignore = "release-only exact-ILP probe; run with `cargo test --release -- --ignored`"]
fn channelled_5x5_k3_probe_is_still_open() {
    // The honest frontier pin: the channelled table1_5x5 cover model at
    // k = 3 is *undecided* within a 10k-node budget. If a future change
    // decides this probe, this test fails on purpose: update it and the
    // ROADMAP frontier entry together.
    use fpva::ilp::{MilpOptions, MilpSolver, SolveStatus};
    let f = layouts::table1_5x5();
    let model = fpva::atpg::ilp_model::cover_model(&f, 3);
    let out = MilpSolver::with_options(MilpOptions {
        stop_at_first: true,
        node_limit: Some(10_000),
        ..MilpOptions::default()
    })
    .solve(&model)
    .expect("the probe itself must not error");
    assert_eq!(
        out.status,
        SolveStatus::Unknown,
        "table1_5x5 k=3 decided as {:?} within 10k nodes — the open \
         frontier entry in ROADMAP.md is stale, rewrite it",
        out.status
    );
}

#[test]
#[ignore = "release-only exact-ILP probe; run with `cargo test --release -- --ignored`"]
fn fixed_cover_probes_keep_their_exact_search_counts() {
    // The fixed instances of the benchmark's `ilp` workload, probed the
    // way it probes them: cover models at k = lb, lb + 1, lb + 2 under
    // product options (first feasible cover, 100 nodes) and proof options
    // (certificate logging, 50 nodes), neither wall-clock limited. The
    // node-budgeted searches are deterministic, so node, LP-iteration and
    // refactorization counts repeat exactly; a speed-up of the LP layer
    // must leave every one of them as it is.
    use fpva::atpg::ilp_model::{cover_model, min_cover_paths};
    use fpva::ilp::{MilpOptions, MilpSolver, SolveStatus};
    use SolveStatus::{Feasible, Infeasible, Unknown};
    let product = MilpOptions {
        stop_at_first: true,
        node_limit: Some(100),
        time_limit: None,
        ..MilpOptions::default()
    };
    let proof = MilpOptions {
        certificate: true,
        node_limit: Some(50),
        time_limit: None,
        ..MilpOptions::default()
    };
    // Per instance and mode: verdicts at k = lb.., then the summed
    // [nodes, LP iterations, refactorizations] over the three probes.
    type Pin = ([SolveStatus; 3], [usize; 3]);
    let pins: [(&str, fpva::Fpva, Pin, Pin); 4] = [
        (
            "full3x3",
            layouts::full_array(3, 3),
            ([Feasible, Feasible, Unknown], [194, 1683, 96]),
            ([Feasible, Unknown, Unknown], [150, 2051, 197]),
        ),
        (
            "full4x4",
            layouts::full_array(4, 4),
            ([Unknown, Unknown, Unknown], [300, 6130, 270]),
            ([Unknown, Unknown, Unknown], [150, 4385, 242]),
        ),
        (
            "full5x5",
            layouts::full_array(5, 5),
            ([Feasible, Unknown, Unknown], [274, 8216, 369]),
            ([Unknown, Unknown, Unknown], [150, 7073, 344]),
        ),
        (
            "table1_5x5",
            layouts::table1_5x5(),
            ([Infeasible, Unknown, Unknown], [201, 6967, 350]),
            ([Infeasible, Unknown, Unknown], [101, 5684, 319]),
        ),
    ];
    for (name, f, want_product, want_proof) in pins {
        let lb = min_cover_paths(&f);
        for (mode, options, want) in [
            ("product", &product, want_product),
            ("proof", &proof, want_proof),
        ] {
            let mut verdicts = Vec::new();
            let mut counts = [0usize; 3];
            for k in lb..lb + 3 {
                let out = MilpSolver::with_options(options.clone())
                    .solve(&cover_model(&f, k))
                    .expect("the probe itself must not error");
                verdicts.push(out.status);
                counts[0] += out.stats.nodes;
                counts[1] += out.stats.lp_iterations;
                counts[2] += out.stats.refactorizations;
            }
            assert_eq!(
                (verdicts.as_slice(), counts),
                (want.0.as_slice(), want.1),
                "{name} {mode} probes: (verdicts, [nodes, lp_iterations, \
                 refactorizations]) moved. These pins change only with a \
                 deliberate change to the search (branching, pricing, \
                 presolve, refactorization triggers) or to its arithmetic; \
                 a pure speed-up must reproduce them bit for bit"
            );
        }
    }
}
