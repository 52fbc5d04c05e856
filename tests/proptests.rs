//! Property-based tests on the core invariants.

use fpva::atpg::cutset::straight_line_cuts;
use fpva::atpg::heuristic::greedy_cover;
use fpva::layouts::{self, GenSpec, PortRule};
use fpva::sim::{propagate, respond, FaultSet};
use fpva::{TestVector, ValveId, ValveState};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Chips of 3–6 cells a side with up to three channels of either
/// orientation and Table I's corner ports.
const CORNER_CHIPS: GenSpec = GenSpec {
    sides: 3..7,
    channels: 0..4,
    vertical_channels: true,
    ports: PortRule::Corners,
};

/// A chip of [`CORNER_CHIPS`] per case, from a seed of its own.
fn corner_chips() -> impl Strategy<Value = fpva::Fpva> {
    any::<u64>().prop_map(|seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        layouts::generated(&CORNER_CHIPS, &mut |range| rng.gen_range(range))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn generated_paths_are_simple_and_connected(fpva in corner_chips()) {
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
    fn cut_vectors_always_silence_the_meters(fpva in corner_chips()) {
        for cut in straight_line_cuts(&fpva).unwrap() {
            let r = respond(&fpva, &cut.to_vector(&fpva), &FaultSet::new());
            prop_assert!(!r.any_pressure());
        }
    }

    #[test]
    fn opening_more_valves_never_removes_pressure(
        fpva in corner_chips(),
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
    fn fault_free_chip_never_fails_its_own_suite(fpva in corner_chips()) {
        let cover = greedy_cover(&fpva, 5).unwrap();
        let mut vectors: Vec<TestVector> =
            cover.paths.iter().map(|p| p.to_vector(&fpva)).collect();
        vectors.extend(straight_line_cuts(&fpva).unwrap().iter().map(|c| c.to_vector(&fpva)));
        let suite = fpva::TestSuite::new(&fpva, vectors);
        prop_assert!(!suite.detects(&fpva, &FaultSet::new()));
    }

    #[test]
    fn single_stuck_faults_on_covered_valves_are_detected(fpva in corner_chips()) {
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
