//! End-to-end integration: generate plans for the paper's benchmark
//! arrays and audit them with the simulator.

use fpva::grid::{PortKind, Side};
use fpva::sim::audit;
use fpva::{layouts, Atpg, FpvaBuilder};

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
    let fpva = layouts::table1_15x15();
    let plan = Atpg::new().generate(&fpva).unwrap();
    let suite = plan.to_suite(&fpva);
    let report = audit::two_fault_audit_sampled(&fpva, &suite, 400, 21);
    assert!(
        report.is_complete(),
        "masked pairs: {:?}",
        report.undetected
    );
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
    let f = layouts::table1_5x5();
    let config = PathIlpConfig {
        max_paths: 2,
        ..PathIlpConfig::default()
    };
    let (res, stats) = min_path_cover_ilp_with_stats(&f, &config);
    assert!(res.is_err(), "no 2-path cover exists on the channelled 5x5");
    assert_eq!(stats.probes, 1, "exactly the k=2 probe runs");
    assert_eq!(
        stats.limit_probes, 0,
        "the k=2 infeasibility must be proven, not budget-limited"
    );
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
    let f = layouts::full_array(5, 5);
    let (res, stats) = min_path_cover_ilp_with_stats(&f, &PathIlpConfig::default());
    let cover = res.expect("5x5 exact cover solves inside the probe budget");
    assert_eq!(cover.paths.len(), 2, "two serpentine-like paths suffice");
    assert_eq!(stats.limit_probes, 0);
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
    let (res, stats) = min_path_cover_ilp_with_stats(&f, &PathIlpConfig::default());
    let cover = res.expect("5x5 exact cover solves inside the probe budget");
    assert_eq!(cover.paths.len(), 2);
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
    // The honest frontier pin (PR 10): the channelled table1_5x5 cover
    // model at k = 3 is *undecided* within a 10k-node budget, and the
    // root static analysis explains why none of its levers bite there —
    // the channel placement breaks every lattice automorphism (zero
    // verified generators, so orbit branching has nothing to act on)
    // and the conflict graph is near-empty (a handful of corner-cell
    // edges on ~130 binaries). If a future change decides this probe,
    // this test fails on purpose: update it and the ROADMAP frontier
    // entry together. Measured at PR 10: k = 3 runs past 61k nodes in
    // 120 s without a verdict.
    use fpva::ilp::{MilpOptions, MilpSolver, SolveStatus};
    let f = layouts::table1_5x5();
    let model = fpva::atpg::ilp_model::cover_model(&f, 3);
    let symmetry = fpva::atpg::ilp_model::symmetry_generators(&f, 3);
    assert!(
        symmetry.is_empty(),
        "the channelled 5x5 unexpectedly verified {} symmetry generator(s) — \
         orbit branching may now apply; revisit the ROADMAP frontier entry",
        symmetry.len()
    );
    let out = MilpSolver::with_options(MilpOptions {
        stop_at_first: true,
        node_limit: Some(10_000),
        symmetry,
        ..MilpOptions::default()
    })
    .solve(&model)
    .expect("the probe itself must not error");
    assert!(
        out.stats.analysis.conflict_edges < 20,
        "the conflict graph grew to {} edges — dense enough to revisit \
         clique cuts on this instance",
        out.stats.analysis.conflict_edges
    );
    assert_eq!(
        out.status,
        SolveStatus::Unknown,
        "table1_5x5 k=3 decided as {:?} within 10k nodes — the open \
         frontier entry in ROADMAP.md is stale, rewrite it",
        out.status
    );
}
