//! Property-based tests on the core invariants.

use fpva::atpg::cutset::straight_line_cuts;
use fpva::atpg::heuristic::greedy_cover;
use fpva::grid::{PortKind, Side};
use fpva::sim::{propagate, respond, FaultSet};
use fpva::{FpvaBuilder, TestVector, ValveId, ValveState};
use proptest::prelude::*;

/// Random small layout: dimensions, optional channel, optional obstacle,
/// corner ports. Built so that ports never collide with the obstacle.
fn arb_layout() -> impl Strategy<Value = fpva::Fpva> {
    (
        3usize..7,
        3usize..7,
        any::<bool>(),
        any::<bool>(),
        0usize..100,
    )
        .prop_map(|(rows, cols, with_channel, with_obstacle, salt)| {
            let mut b = FpvaBuilder::new(rows, cols);
            let channel_row = 1 + salt % (rows - 2);
            if with_channel {
                b = b.channel_horizontal(channel_row, 0, cols - 2);
            }
            // Interior 1x1 obstacle, skipped when it would collide with
            // the channel row.
            if with_obstacle && rows >= 5 && cols >= 5 && !(with_channel && channel_row == rows - 2)
            {
                b = b.obstacle(rows - 2, cols - 2, rows - 2, cols - 2);
            }
            b.port(0, 0, Side::West, PortKind::Source)
                .port(rows - 1, cols - 1, Side::East, PortKind::Sink)
                .build()
                .expect("constructed layouts are valid")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn generated_paths_are_simple_and_connected(fpva in arb_layout()) {
        let cover = greedy_cover(&fpva, 11).unwrap();
        for path in &cover.paths {
            let unique: std::collections::HashSet<_> = path.cells().iter().collect();
            prop_assert_eq!(unique.len(), path.len());
            for pair in path.cells().windows(2) {
                prop_assert!(fpva.edge_between(pair[0], pair[1]).is_some());
            }
            // The path vector really delivers pressure to a sink.
            let r = respond(&fpva, &path.to_vector(&fpva), &FaultSet::new());
            prop_assert!(r.any_pressure());
        }
    }

    #[test]
    fn cut_vectors_always_silence_the_meters(fpva in arb_layout()) {
        for cut in straight_line_cuts(&fpva).unwrap() {
            let r = respond(&fpva, &cut.to_vector(&fpva), &FaultSet::new());
            prop_assert!(!r.any_pressure());
        }
    }

    #[test]
    fn opening_more_valves_never_removes_pressure(
        fpva in arb_layout(),
        opens in proptest::collection::vec(0usize..1000, 0..20),
        extra in 0usize..1000,
    ) {
        let nv = fpva.valve_count();
        prop_assume!(nv > 0);
        let mut vector = TestVector::all_closed(nv);
        for o in opens {
            vector.set(ValveId(o % nv), ValveState::Open);
        }
        let before = propagate(&fpva, &vector, &FaultSet::new());
        let mut wider = vector.clone();
        wider.set(ValveId(extra % nv), ValveState::Open);
        let after = propagate(&fpva, &wider, &FaultSet::new());
        for cell in fpva.cells() {
            prop_assert!(!before.at(cell) || after.at(cell), "pressure lost at {cell}");
        }
    }

    #[test]
    fn fault_free_chip_never_fails_its_own_suite(fpva in arb_layout()) {
        let cover = greedy_cover(&fpva, 5).unwrap();
        let mut vectors: Vec<TestVector> =
            cover.paths.iter().map(|p| p.to_vector(&fpva)).collect();
        vectors.extend(straight_line_cuts(&fpva).unwrap().iter().map(|c| c.to_vector(&fpva)));
        let suite = fpva::TestSuite::new(&fpva, vectors);
        prop_assert!(!suite.detects(&fpva, &FaultSet::new()));
    }

    #[test]
    fn single_stuck_faults_on_covered_valves_are_detected(fpva in arb_layout()) {
        use fpva::atpg::cutset::cut_cover;
        use fpva::Fault;
        let cover = greedy_cover(&fpva, 5).unwrap();
        let cuts = cut_cover(&fpva).unwrap();
        let mut vectors: Vec<TestVector> =
            cover.paths.iter().map(|p| p.to_vector(&fpva)).collect();
        vectors.extend(cuts.cuts.iter().map(|c| c.to_vector(&fpva)));
        let suite = fpva::TestSuite::new(&fpva, vectors);
        for (v, _) in fpva.valves() {
            let path_covered = cover.paths.iter().any(|p| p.covers(&fpva, v));
            if path_covered {
                let f = FaultSet::try_from_faults(vec![Fault::StuckAt0(v)]).unwrap();
                prop_assert!(suite.detects(&fpva, &f), "stuck-at-0 {v} escaped");
            }
            // cut_cover reports exposure, not mere membership: every valve
            // it does not list as uncovered must have a detectable
            // stuck-at-1.
            if !cuts.uncovered.contains(&v) {
                let f = FaultSet::try_from_faults(vec![Fault::StuckAt1(v)]).unwrap();
                prop_assert!(suite.detects(&fpva, &f), "stuck-at-1 {v} escaped");
            }
        }
    }
}
