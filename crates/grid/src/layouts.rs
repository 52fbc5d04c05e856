//! The benchmark arrays of Table I of the paper, and [`generated`] chips
//! for checks off Table I.
//!
//! The paper specifies the dimensions and valve counts (39, 176, 411, 744
//! and 1704) of its five test arrays and states that they "contain long
//! channels for transportation and obstacle areas without valves", but does
//! not publish the exact layouts. The layouts below are crafted so that the
//! valve count of every array matches the paper **exactly** (asserted in
//! tests), the 20×20 array has three channels and two obstacles as shown in
//! the paper's Fig. 9, and every array has one pressure source in the
//! top-left corner and one pressure meter in the bottom-right corner.
//!
//! That corner port placement makes every straight grid line a valid
//! source/sink separator, which reproduces the paper's cut-set counts
//! `n_c = (rows − 1) + (cols − 1)` for all five arrays (8, 18, 28, 38, 58).

use crate::array::{Fpva, PortKind};
use crate::builder::FpvaBuilder;
use crate::geometry::Side;
use std::ops::Range;

/// A named Table I benchmark instance.
#[derive(Debug, Clone)]
pub struct Table1Entry {
    /// Human-readable name, e.g. `"10x10"`.
    pub name: &'static str,
    /// The paper's valve count for this array (column `n_v`).
    pub paper_valves: usize,
    /// The paper's flow-path vector count (column `n_p`).
    pub paper_flow_paths: usize,
    /// The paper's cut-set vector count (column `n_c`).
    pub paper_cut_sets: usize,
    /// The paper's control-leakage vector count (column `n_l`).
    pub paper_leakage: usize,
    /// The array itself.
    pub fpva: Fpva,
}

fn corner_ports(builder: FpvaBuilder, rows: usize, cols: usize) -> FpvaBuilder {
    builder.port(0, 0, Side::West, PortKind::Source).port(
        rows - 1,
        cols - 1,
        Side::East,
        PortKind::Sink,
    )
}

/// A full `rows × cols` array (no channels or obstacles) with corner ports.
/// The 10×10 instance of this is the array of the paper's Fig. 8.
///
/// # Panics
///
/// Panics if `rows == 0 || cols == 0`.
pub fn full_array(rows: usize, cols: usize) -> Fpva {
    corner_ports(FpvaBuilder::new(rows, cols), rows, cols)
        .build()
        .expect("full array with corner ports is always valid")
}

/// The shape of a family of [`generated`] chips. Each chip also gets
/// zero to two one-cell obstacles.
#[derive(Debug, Clone)]
pub struct GenSpec {
    /// The range of the row count and of the column count.
    pub sides: Range<usize>,
    /// The range of the channel count.
    pub channels: Range<usize>,
    /// Whether a channel may run down a column; otherwise every channel
    /// runs along a row.
    pub vertical_channels: bool,
    /// Where the ports go.
    pub ports: PortRule,
}

/// Where [`generated`] puts a chip's ports.
#[derive(Debug, Clone)]
pub enum PortRule {
    /// Table I's placement: one source on the top-left corner cell,
    /// facing west, and one sink on the bottom-right one, facing east.
    Corners,
    /// Per kind, a count drawn from the range, each port on a random side
    /// and a random cell of that side.
    Boundary(Range<usize>),
}

/// A chip of the family `spec`, built from values `draw(range)` returns
/// in `range`. The caller owns the randomness, so a seeded generator
/// passed as `&mut |r| rng.gen_range(r)` gives a reproducible family.
///
/// The draws come in a fixed order: rows, columns and the channel count;
/// per channel, its orientation (if vertical channels are allowed), its
/// row or column, first cell and last cell; the obstacle count and each
/// obstacle's cell; then, under [`PortRule::Boundary`], per port kind,
/// sources first, the port count and each port's side and cell. A channel
/// on a chip one cell across is skipped, and a layout the builder rejects
/// is drawn again.
pub fn generated(spec: &GenSpec, draw: &mut impl FnMut(Range<usize>) -> usize) -> Fpva {
    loop {
        let (rows, cols) = (draw(spec.sides.clone()), draw(spec.sides.clone()));
        let mut b = FpvaBuilder::new(rows, cols);
        for _ in 0..draw(spec.channels.clone()) {
            let vertical = spec.vertical_channels && draw(0..2) == 1;
            let (across, along) = if vertical { (cols, rows) } else { (rows, cols) };
            if along < 2 {
                continue;
            }
            let (line, first) = (draw(0..across), draw(0..along - 1));
            let last = draw(first + 1..along);
            b = if vertical {
                b.channel_vertical(line, first, last)
            } else {
                b.channel_horizontal(line, first, last)
            };
        }
        for _ in 0..draw(0..3) {
            let (r, c) = (draw(0..rows), draw(0..cols));
            b = b.obstacle(r, c, r, c);
        }
        match &spec.ports {
            PortRule::Corners => b = corner_ports(b, rows, cols),
            PortRule::Boundary(count) => {
                for kind in [PortKind::Source, PortKind::Sink] {
                    for _ in 0..draw(count.clone()) {
                        let side = [Side::North, Side::South, Side::East, Side::West][draw(0..4)];
                        let (r, c) = match side {
                            Side::North => (0, draw(0..cols)),
                            Side::South => (rows - 1, draw(0..cols)),
                            Side::West => (draw(0..rows), 0),
                            Side::East => (draw(0..rows), cols - 1),
                        };
                        b = b.port(r, c, side, kind);
                    }
                }
            }
        }
        if let Ok(f) = b.build() {
            return f;
        }
    }
}

/// Table I row 1: 5×5 array, 39 valves (one short channel).
pub fn table1_5x5() -> Fpva {
    corner_ports(FpvaBuilder::new(5, 5).channel_horizontal(2, 1, 2), 5, 5)
        .build()
        .expect("5x5 layout is valid")
}

/// Table I row 2: 10×10 array, 176 valves (one transportation channel).
pub fn table1_10x10() -> Fpva {
    corner_ports(FpvaBuilder::new(10, 10).channel_horizontal(4, 2, 6), 10, 10)
        .build()
        .expect("10x10 layout is valid")
}

/// Table I row 3: 15×15 array, 411 valves (one long channel).
pub fn table1_15x15() -> Fpva {
    corner_ports(
        FpvaBuilder::new(15, 15).channel_horizontal(7, 2, 11),
        15,
        15,
    )
    .build()
    .expect("15x15 layout is valid")
}

/// Table I row 4: 20×20 array, 744 valves — three channels and two
/// obstacles, matching the structure shown in the paper's Fig. 9.
pub fn table1_20x20() -> Fpva {
    corner_ports(
        FpvaBuilder::new(20, 20)
            .channel_horizontal(3, 2, 5)
            .channel_vertical(3, 14, 17)
            .channel_horizontal(17, 12, 14)
            .obstacle(8, 5, 8, 5)
            .obstacle(13, 14, 13, 14),
        20,
        20,
    )
    .build()
    .expect("20x20 layout is valid")
}

/// Table I row 5: 30×30 array, 1704 valves — three channels and two 2×2
/// obstacle blocks.
pub fn table1_30x30() -> Fpva {
    corner_ports(
        FpvaBuilder::new(30, 30)
            .channel_horizontal(4, 3, 7)
            .channel_vertical(24, 14, 18)
            .channel_horizontal(26, 2, 6)
            .obstacle(8, 8, 9, 9)
            .obstacle(20, 18, 21, 19),
        30,
        30,
    )
    .build()
    .expect("30x30 layout is valid")
}

/// The `examples/custom_biochip` chip: a 12×12 array with two transport
/// channels feeding a work area, a 2×2 sensor obstacle, one pressure
/// source and two meters on different edges — the "incomplete array with
/// fluidic-seas and obstacles" case the paper's method targets.
///
/// The second sink at the bottom-left corner is a known stress case:
/// every source→sinks cut detours around the horizontal channel, which
/// strands the valves straddled by the detour in `untestable_closed`.
/// `fpva-lint` flags exactly those valves, so the layout doubles as the
/// lint regression fixture (single source of truth with the example).
pub fn custom_biochip() -> Fpva {
    FpvaBuilder::new(12, 12)
        .channel_horizontal(2, 1, 6)
        .channel_vertical(9, 4, 8)
        .obstacle(6, 3, 7, 4)
        .port(0, 0, Side::West, PortKind::Source)
        .port(11, 11, Side::East, PortKind::Sink)
        .port(11, 0, Side::South, PortKind::Sink)
        .build()
        .expect("custom biochip layout is valid")
}

/// All five Table I instances, smallest first, with the paper's reported
/// vector counts attached.
pub fn table1() -> Vec<Table1Entry> {
    vec![
        Table1Entry {
            name: "5x5",
            paper_valves: 39,
            paper_flow_paths: 5,
            paper_cut_sets: 8,
            paper_leakage: 4,
            fpva: table1_5x5(),
        },
        Table1Entry {
            name: "10x10",
            paper_valves: 176,
            paper_flow_paths: 4,
            paper_cut_sets: 18,
            paper_leakage: 4,
            fpva: table1_10x10(),
        },
        Table1Entry {
            name: "15x15",
            paper_valves: 411,
            paper_flow_paths: 8,
            paper_cut_sets: 28,
            paper_leakage: 8,
            fpva: table1_15x15(),
        },
        Table1Entry {
            name: "20x20",
            paper_valves: 744,
            paper_flow_paths: 16,
            paper_cut_sets: 38,
            paper_leakage: 16,
            fpva: table1_20x20(),
        },
        Table1Entry {
            name: "30x30",
            paper_valves: 1704,
            paper_flow_paths: 20,
            paper_cut_sets: 58,
            paper_leakage: 20,
            fpva: table1_30x30(),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::CellKind;

    #[test]
    fn valve_counts_match_paper_exactly() {
        for entry in table1() {
            assert_eq!(
                entry.fpva.valve_count(),
                entry.paper_valves,
                "{} valve count deviates from Table I",
                entry.name
            );
        }
    }

    #[test]
    fn full_array_counts() {
        assert_eq!(full_array(10, 10).valve_count(), 180);
        assert_eq!(full_array(5, 5).valve_count(), 40);
    }

    #[test]
    fn every_layout_has_corner_ports() {
        for entry in table1() {
            assert_eq!(entry.fpva.sources().count(), 1);
            assert_eq!(entry.fpva.sinks().count(), 1);
            let (_, src) = entry.fpva.sources().next().unwrap();
            assert_eq!((src.cell.row, src.cell.col), (0, 0));
        }
    }

    #[test]
    fn twenty_has_three_channels_two_obstacles() {
        let f = table1_20x20();
        let obstacle_cells = f
            .cells()
            .filter(|&c| f.cell_kind(c) == CellKind::Obstacle)
            .count();
        assert_eq!(obstacle_cells, 2);
        let channel_cells = f
            .cells()
            .filter(|&c| f.cell_kind(c) == CellKind::Channel)
            .count();
        assert_eq!(channel_cells, 4 + 4 + 3);
    }

    #[test]
    fn layouts_are_deterministic() {
        assert_eq!(table1_20x20(), table1_20x20());
        assert_eq!(table1_30x30(), table1_30x30());
    }
}
