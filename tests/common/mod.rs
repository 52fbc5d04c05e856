//! Seeded test chips shared by the integration tests. `fpva-sim`'s
//! classifier unit test includes this file by path, so it names its
//! dependencies by crate (`fpva_grid`, `rand`), which both builds provide.

// Each test binary uses a subset of these helpers.
#![allow(dead_code)]

use fpva_grid::{layouts, Fpva, FpvaBuilder, PortKind, Side, TestVector, ValveState};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A chip of at most 16 cells with random channels, obstacles and one or
/// two sources and sinks on random boundary sides.
pub fn random_chip(rng: &mut StdRng) -> Fpva {
    loop {
        let (rows, cols) = (rng.gen_range(1..5usize), rng.gen_range(1..5usize));
        let mut b = FpvaBuilder::new(rows, cols);
        for _ in 0..rng.gen_range(0..4usize) {
            if rng.gen_bool(0.5) && cols >= 2 {
                let c = rng.gen_range(0..cols - 1);
                b = b.channel_horizontal(rng.gen_range(0..rows), c, rng.gen_range(c + 1..cols));
            } else if rows >= 2 {
                let r = rng.gen_range(0..rows - 1);
                b = b.channel_vertical(rng.gen_range(0..cols), r, rng.gen_range(r + 1..rows));
            }
        }
        for _ in 0..rng.gen_range(0..3usize) {
            let (r, c) = (rng.gen_range(0..rows), rng.gen_range(0..cols));
            b = b.obstacle(r, c, r, c);
        }
        for kind in [PortKind::Source, PortKind::Sink] {
            for _ in 0..rng.gen_range(1..3usize) {
                let side =
                    [Side::North, Side::South, Side::East, Side::West][rng.gen_range(0..4usize)];
                let (r, c) = match side {
                    Side::North => (0, rng.gen_range(0..cols)),
                    Side::South => (rows - 1, rng.gen_range(0..cols)),
                    Side::West => (rng.gen_range(0..rows), 0),
                    Side::East => (rng.gen_range(0..rows), cols - 1),
                };
                b = b.port(r, c, side, kind);
            }
        }
        if let Ok(f) = b.build() {
            return f;
        }
    }
}

/// Walks the cases of the region-classifier oracles: 64 chips from
/// [`random_chip`] that have valves, then `table1_5x5` and
/// `custom_biochip`; per chip, twelve random vectors with each valve open
/// at probability 1/4, 1/2 and 3/4 in turn. `case` gets each vector with
/// the chip's RNG, to draw the vector's fault sets from.
pub fn for_each_classifier_case(mut case: impl FnMut(&Fpva, &TestVector, &mut StdRng)) {
    let mut rng = StdRng::seed_from_u64(0xc1a5_51f7);
    let mut chips: Vec<Fpva> = std::iter::repeat_with(|| random_chip(&mut rng))
        .filter(|f| f.valve_count() > 0)
        .take(64)
        .collect();
    chips.extend([layouts::table1_5x5(), layouts::custom_biochip()]);
    for (i, f) in chips.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(i as u64);
        for open_in_4 in [1, 2, 3].repeat(4) {
            let mut vector = TestVector::all_closed(f.valve_count());
            for (v, _) in f.valves() {
                if rng.gen_range(0..4usize) < open_in_4 {
                    vector.set(v, ValveState::Open);
                }
            }
            case(f, &vector, &mut rng);
        }
    }
}
