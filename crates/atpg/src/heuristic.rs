//! Greedy flow-path construction.
//!
//! The paper's ILP finds minimum path covers but only scales to small
//! arrays (hence its hierarchical model). [`greedy_cover`] is the scalable
//! engine: it repeatedly routes a flow path through an uncovered valve
//! with the exact [`Router`], collecting other uncovered valves on the
//! way, until all coverable valves are hit. It works on arbitrary layouts
//! with channels and obstacles, and tops up the serpentine bands of the
//! hierarchical engine ([`crate::hierarchy`]).

use crate::connectivity::{endpoint_ports, ports, Router};
use crate::cover::CoverageTracker;
use crate::error::AtpgError;
use crate::path::FlowPath;
use fpva_grid::{CellId, EdgeKind, Fpva, ValveId};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Result of a path-cover construction.
#[derive(Debug, Clone)]
pub struct PathCover {
    /// The generated flow paths.
    pub paths: Vec<FlowPath>,
    /// Valves no simple source→sink path could be routed through (empty on
    /// the paper's layouts).
    pub uncovered: Vec<ValveId>,
}

impl PathCover {
    /// `true` when every valve is on at least one path.
    pub fn is_complete(&self) -> bool {
        self.uncovered.is_empty()
    }
}

/// Builds the row-wise serpentine cell sequence over `rows`, starting at
/// `(row_start, 0)` heading east, for a `rows × cols` region. Ends at the
/// east end when the number of rows is odd, at the west end otherwise.
pub(crate) fn serpentine_cells(row_start: usize, row_end: usize, cols: usize) -> Vec<CellId> {
    let mut cells = Vec::with_capacity((row_end - row_start + 1) * cols);
    for (k, row) in (row_start..=row_end).enumerate() {
        if k % 2 == 0 {
            cells.extend((0..cols).map(|c| CellId::new(row, c)));
        } else {
            cells.extend((0..cols).rev().map(|c| CellId::new(row, c)));
        }
    }
    cells
}

/// Greedy path cover: while uncovered valves remain, route a simple
/// source→sink path through one of them, preferring steps across other
/// uncovered valves (which makes each path sweep large uncovered regions).
/// `seed` breaks ties in the router's walks.
///
/// Valves the router proves unroutable are reported in
/// [`PathCover::uncovered`]: no valid flow path crosses them (e.g. a valve
/// into a single-entry pocket, where a simple path cannot enter and leave).
///
/// # Errors
///
/// Returns [`AtpgError::MissingPorts`] when the array lacks a source or a
/// sink port.
pub fn greedy_cover(fpva: &Fpva, seed: u64) -> Result<PathCover, AtpgError> {
    greedy_cover_on(&Router::new(fpva), seed)
}

/// [`greedy_cover`] on the router of the chip.
pub(crate) fn greedy_cover_on(router: &Router<'_>, seed: u64) -> Result<PathCover, AtpgError> {
    ports(router.fpva())?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tracker = CoverageTracker::new(router.fpva());
    let mut paths: Vec<FlowPath> = Vec::new();
    let uncovered = cover_remaining(router, &mut tracker, &mut paths, &mut rng);
    Ok(PathCover { paths, uncovered })
}

/// Routes additional paths until `tracker` is complete except for the
/// valves no valid path crosses, which it returns ascending; shared by
/// the greedy and hierarchical engines.
pub(crate) fn cover_remaining(
    router: &Router<'_>,
    tracker: &mut CoverageTracker,
    paths: &mut Vec<FlowPath>,
    rng: &mut StdRng,
) -> Vec<ValveId> {
    let fpva = router.fpva();
    let mut uncovered_final: Vec<ValveId> = Vec::new();
    loop {
        let candidates = tracker.uncovered();
        let Some(target) = candidates
            .iter()
            .copied()
            .find(|v| !uncovered_final.contains(v))
        else {
            break;
        };
        let prefer = |e: fpva_grid::EdgeId| -> bool {
            match fpva.edge_kind(e) {
                EdgeKind::Valve => {
                    !tracker.is_covered(fpva.valve_at(e).expect("valve edge has id"))
                }
                _ => false,
            }
        };
        // The router may end at any source/sink pair; read the ports off
        // the path endpoints rather than assuming the first ports.
        let Some(cells) = router.path_through_edge(fpva.edge_of(target), &[], &prefer, rng) else {
            uncovered_final.push(target);
            continue;
        };
        let (src, snk) = endpoint_ports(fpva, &cells).expect("routes end at port cells");
        let path = FlowPath::with_components(fpva, router.components(), src, snk, cells)
            .expect("routes are valid flow paths");
        tracker.cover_all(path.valves(fpva));
        paths.push(path);
    }
    uncovered_final.sort_unstable();
    uncovered_final
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpva_grid::layouts;

    #[test]
    fn greedy_covers_full_grids() {
        for (r, c) in [(3, 3), (4, 4), (4, 6), (5, 5)] {
            let f = layouts::full_array(r, c);
            let cover = greedy_cover(&f, 17).unwrap();
            assert!(
                cover.is_complete(),
                "{r}x{c}: uncovered {:?}",
                cover.uncovered
            );
            for p in &cover.paths {
                let unique: std::collections::HashSet<_> = p.cells().iter().collect();
                assert_eq!(unique.len(), p.len(), "path not simple");
            }
        }
    }

    #[test]
    fn greedy_covers_table1_5x5() {
        let f = layouts::table1_5x5();
        let cover = greedy_cover(&f, 23).unwrap();
        assert!(cover.is_complete());
        // Should be a handful of paths, far below the 39-valve upper bound.
        assert!(
            cover.paths.len() <= 12,
            "too many paths: {}",
            cover.paths.len()
        );
    }

    #[test]
    fn greedy_covers_2x2_with_ports_on_one_row() {
        use fpva_grid::{FpvaBuilder, PortKind, Side};
        let f = FpvaBuilder::new(2, 2)
            .port(0, 0, Side::West, PortKind::Source)
            .port(0, 1, Side::East, PortKind::Sink)
            .build()
            .unwrap();
        let cover = greedy_cover(&f, 3).unwrap();
        // Paths (0,0)-(0,1) and (0,0)-(1,0)-(1,1)-(0,1) cover everything:
        // the bottom detour is a simple path, so all 4 valves are coverable.
        assert!(cover.is_complete(), "uncovered {:?}", cover.uncovered);
    }

    #[test]
    fn greedy_reports_uncoverable_pocket() {
        use fpva_grid::{EdgeId, FpvaBuilder, PortKind, Side};
        // The obstacle at (1,2) leaves (0,2) a dead end, entered only
        // through H(0,1): no simple source->sink path can enter and leave.
        let f = FpvaBuilder::new(3, 3)
            .obstacle(1, 2, 1, 2)
            .port(0, 0, Side::West, PortKind::Source)
            .port(2, 2, Side::East, PortKind::Sink)
            .build()
            .unwrap();
        let pocket = f.valve_at(EdgeId::horizontal(0, 1)).unwrap();
        assert_eq!(greedy_cover(&f, 3).unwrap().uncovered, [pocket]);
    }

    #[test]
    fn greedy_rejects_a_chip_without_a_sink() {
        use fpva_grid::{FpvaBuilder, PortKind, Side};
        let f = FpvaBuilder::new(3, 3)
            .port(0, 0, Side::West, PortKind::Source)
            .build()
            .unwrap();
        assert!(matches!(greedy_cover(&f, 3), Err(AtpgError::MissingPorts)));
    }

    #[test]
    fn greedy_is_deterministic_per_seed() {
        let f = layouts::table1_5x5();
        let a = greedy_cover(&f, 99).unwrap();
        let b = greedy_cover(&f, 99).unwrap();
        assert_eq!(a.paths.len(), b.paths.len());
        for (pa, pb) in a.paths.iter().zip(&b.paths) {
            assert_eq!(pa.cells(), pb.cells());
        }
    }
}
