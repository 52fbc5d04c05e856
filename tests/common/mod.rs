//! The small-chip family and the region-classifier cases shared by the
//! integration tests. `fpva-sim`'s classifier unit tests include this
//! file by path, so it names its dependencies by crate (`fpva_grid`,
//! `fpva_sim`, `rand`), which both builds provide.

// Each test binary uses a subset of these helpers.
#![allow(dead_code)]

use fpva_grid::layouts::{self, GenSpec, PortRule};
use fpva_grid::{CellId, EdgeKind, Fpva, TestVector, ValveId, ValveState};
use fpva_sim::campaign::random_fault_set_from;
use fpva_sim::{propagate, Fault, FaultSet, ObservableLeaks};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Chips of at most 16 cells with channels of either orientation and one
/// or two sources and sinks on the boundary.
pub const SMALL_CHIPS: GenSpec = GenSpec {
    sides: 1..5,
    channels: 0..4,
    vertical_channels: true,
    ports: PortRule::Boundary(1..3),
};

/// Walks the cases of the region-classifier oracles: 64 chips of
/// [`SMALL_CHIPS`] that have valves, then `table1_5x5` and
/// `custom_biochip`. Per chip come twelve random vectors, with each valve
/// open at probability 1/4, 1/2 and 3/4 in turn, then four path-shaped
/// vectors from [`walk_vector`], whose golden regions are chains wherever
/// a walk exists. `case`
/// gets each vector with 64 fault sets of 1–5 faults (at most one per
/// valve): uniform draws ([`random_fault_set_from`]) under the random
/// vectors, draws toward the golden region ([`region_fault_sets`]) under
/// the walks.
pub fn for_each_classifier_case(mut case: impl FnMut(&Fpva, &TestVector, &[FaultSet])) {
    let mut rng = StdRng::seed_from_u64(0xc1a5_51f7);
    let mut draw = |range| rng.gen_range(range);
    let mut chips: Vec<Fpva> =
        std::iter::repeat_with(|| layouts::generated(&SMALL_CHIPS, &mut draw))
            .filter(|f| f.valve_count() > 0)
            .take(64)
            .collect();
    chips.extend([layouts::table1_5x5(), layouts::custom_biochip()]);
    for (i, f) in chips.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(i as u64);
        let leaks = ObservableLeaks::build(f);
        for open_in_4 in [1, 2, 3].repeat(4) {
            let mut vector = TestVector::all_closed(f.valve_count());
            for (v, _) in f.valves() {
                if rng.gen_range(0..4usize) < open_in_4 {
                    vector.set(v, ValveState::Open);
                }
            }
            let sets: Vec<FaultSet> = (0..64)
                .map(|k| {
                    random_fault_set_from(f, &mut rng, (k % 5 + 1).min(f.valve_count()), &leaks)
                })
                .collect();
            case(f, &vector, &sets);
        }
        for _ in 0..4 {
            let vector = walk_vector(f, &mut rng);
            case(f, &vector, &region_fault_sets(f, &vector, &mut rng));
        }
    }
}

/// A vector that opens one simple walk from a random source port to a
/// random sink port: a randomised depth-first search over the channel
/// components that opens one valve per step and enters no component
/// twice, nor one holding a source. The other source components stay
/// islands of the golden region, with every valve around them closed. The
/// vector opens nothing when no such walk exists.
pub fn walk_vector(f: &Fpva, rng: &mut StdRng) -> TestVector {
    // The channel components: cells joined by channel edges.
    let mut component = vec![usize::MAX; f.cell_count()];
    let mut members: Vec<Vec<CellId>> = Vec::new();
    for cell in f.cells() {
        if component[f.cell_index(cell)] != usize::MAX {
            continue;
        }
        component[f.cell_index(cell)] = members.len();
        let mut cells = vec![cell];
        let mut k = 0;
        while let Some(&c) = cells.get(k) {
            for (edge, next) in f.neighbors(c) {
                if f.edge_kind(edge) == EdgeKind::Open
                    && component[f.cell_index(next)] == usize::MAX
                {
                    component[f.cell_index(next)] = members.len();
                    cells.push(next);
                }
            }
            k += 1;
        }
        members.push(cells);
    }
    let of = |cell: CellId| component[f.cell_index(cell)];
    let sources: Vec<usize> = f.sources().map(|(_, p)| of(p.cell)).collect();
    let sinks: Vec<usize> = f.sinks().map(|(_, p)| of(p.cell)).collect();
    let start = *sources.choose(rng).expect("a source port");
    let goal = *sinks.choose(rng).expect("a sink port");
    // The valves from component `c` into other components, shuffled.
    let exits = |c: usize, rng: &mut StdRng| {
        let mut exits: Vec<(ValveId, usize)> = members[c]
            .iter()
            .flat_map(|&cell| f.neighbors(cell))
            .filter_map(|(edge, next)| Some((f.valve_at(edge)?, of(next))))
            .filter(|&(_, next)| next != c)
            .collect();
        exits.shuffle(rng);
        exits
    };
    let mut entered = vec![false; members.len()];
    for &s in &sources {
        entered[s] = true;
    }
    // Per component on the walk: the valve it was entered by, and the
    // exits not yet tried.
    let mut walk = vec![(start, None, exits(start, rng))];
    while let Some((c, _, untried)) = walk.last_mut() {
        if *c == goal {
            break;
        }
        match untried.pop() {
            Some((valve, next)) if !entered[next] => {
                entered[next] = true;
                let untried = exits(next, rng);
                walk.push((next, Some(valve), untried));
            }
            Some(_) => {}
            None => {
                walk.pop();
            }
        }
    }
    TestVector::from_open_valves(f.valve_count(), walk.iter().filter_map(|&(_, v, _)| v))
}

/// 64 fault sets of 1–5 distinct compatible faults (at most one per
/// valve) drawn toward `vector`'s golden region `R`. Each fault is, with
/// equal odds, a stuck-at-0 on a commanded-open valve, a stuck-at-1 on a
/// commanded-closed valve touching `R` (where a walk folds back on itself
/// too), a control leak onto a commanded-open valve from a neighbour, or
/// a stuck-at fault on any valve.
pub fn region_fault_sets(f: &Fpva, vector: &TestVector, rng: &mut StdRng) -> Vec<FaultSet> {
    let golden = propagate(f, vector, &FaultSet::new());
    let open: Vec<ValveId> = vector.iter_open().collect();
    let touching: Vec<ValveId> = f
        .valves()
        .map(|(v, _)| v)
        .filter(|&v| {
            let (a, b) = f.valve_endpoints(v);
            !vector.is_open(v) && (golden.at(a) || golden.at(b))
        })
        .collect();
    (0..64)
        .map(|k| {
            let count = (k % 5 + 1).min(f.valve_count());
            let mut faults: Vec<Fault> = Vec::with_capacity(count);
            while faults.len() < count {
                let fault = match rng.gen_range(0..4) {
                    0 => open.choose(rng).map(|&v| Fault::StuckAt0(v)),
                    1 => touching.choose(rng).map(|&v| Fault::StuckAt1(v)),
                    2 => open.choose(rng).and_then(|&victim| {
                        let actuator = *f.valve_neighbors(victim).choose(rng)?;
                        Some(Fault::ControlLeak { actuator, victim })
                    }),
                    _ => {
                        let v = ValveId(rng.gen_range(0..f.valve_count()));
                        Some(if rng.gen_bool(0.5) {
                            Fault::StuckAt0(v)
                        } else {
                            Fault::StuckAt1(v)
                        })
                    }
                };
                let Some(fault) = fault else { continue };
                let conflict = match fault {
                    Fault::StuckAt0(v) => faults.contains(&Fault::StuckAt1(v)),
                    Fault::StuckAt1(v) => faults.contains(&Fault::StuckAt0(v)),
                    Fault::ControlLeak { .. } => false,
                };
                if !conflict && !faults.contains(&fault) {
                    faults.push(fault);
                }
            }
            FaultSet::try_from_faults(faults).expect("drawn without conflicts")
        })
        .collect()
}

/// Whether some valve that `vector` commands open is closed under `set`
/// and touches the vector's fault-free pressure region: the scenarios
/// that only the chain cut can decide detected without a word pass.
pub fn closes_golden_region(f: &Fpva, vector: &TestVector, set: &FaultSet) -> bool {
    let golden = propagate(f, vector, &FaultSet::new());
    let states = set.effective_states(f, vector);
    f.valves().any(|(v, _)| {
        let (a, b) = f.valve_endpoints(v);
        vector.is_open(v) && !states.is_open(v) && (golden.at(a) || golden.at(b))
    })
}
