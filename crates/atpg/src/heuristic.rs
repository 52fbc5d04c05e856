//! Serpentine and greedy flow-path construction.
//!
//! The paper's ILP finds minimum path covers but only scales to small
//! arrays (hence its hierarchical model). This module provides the
//! scalable engines:
//!
//! * [`serpentine_paths`] — the two boustrophedon sweeps (row-wise and
//!   column-wise) that cover a full regular array; the paper's Fig. 8(a)
//!   direct-model result on the 10×10 array has exactly this structure;
//! * [`greedy_cover`] — repeatedly routes a flow path through an
//!   uncovered valve with the exact [`Router`], collecting other uncovered
//!   valves on the way, until all coverable valves are hit. Works on
//!   arbitrary layouts with channels and obstacles.

use crate::connectivity::{endpoint_ports, source_cells, Router};
use crate::cover::CoverageTracker;
use crate::error::AtpgError;
use crate::path::FlowPath;
use fpva_grid::{CellId, EdgeKind, Fpva, PortId, ValveId};
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

fn first_source(fpva: &Fpva) -> Result<PortId, AtpgError> {
    fpva.sources()
        .next()
        .map(|(id, _)| id)
        .ok_or(AtpgError::MissingPorts)
}

fn first_sink(fpva: &Fpva) -> Result<PortId, AtpgError> {
    fpva.sinks()
        .next()
        .map(|(id, _)| id)
        .ok_or(AtpgError::MissingPorts)
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

fn transpose(cells: Vec<CellId>) -> Vec<CellId> {
    cells
        .into_iter()
        .map(|c| CellId::new(c.col, c.row))
        .collect()
}

/// The two serpentine sweeps of a **full** array with corner ports: a
/// row-wise sweep covering every horizontal valve and a column-wise sweep
/// covering every vertical valve. Together they cover all valves when both
/// dimensions are odd; for even dimensions the sweeps end at the wrong
/// corner and `greedy_cover` tops up the remainder.
///
/// # Errors
///
/// Returns [`AtpgError::MissingPorts`] when the array lacks ports, or
/// [`AtpgError::InvalidPath`] when a sweep is blocked (e.g. by an obstacle)
/// or does not terminate on the sink cell.
pub fn serpentine_paths(fpva: &Fpva) -> Result<Vec<FlowPath>, AtpgError> {
    let source = first_source(fpva)?;
    let sink = first_sink(fpva)?;
    let row_sweep = serpentine_cells(0, fpva.rows() - 1, fpva.cols());
    let col_sweep = transpose(serpentine_cells(0, fpva.cols() - 1, fpva.rows()));
    Ok(vec![
        FlowPath::new(fpva, source, sink, row_sweep)?,
        FlowPath::new(fpva, source, sink, col_sweep)?,
    ])
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
/// Returns [`AtpgError::MissingPorts`] when the array lacks ports.
pub fn greedy_cover(fpva: &Fpva, seed: u64) -> Result<PathCover, AtpgError> {
    if source_cells(fpva).is_empty() {
        return Err(AtpgError::MissingPorts);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tracker = CoverageTracker::new(fpva);
    let mut paths: Vec<FlowPath> = Vec::new();
    let uncovered = cover_remaining(fpva, &mut tracker, &mut paths, &mut rng);
    Ok(PathCover { paths, uncovered })
}

/// Routes additional paths until `tracker` is complete except for the
/// valves no valid path crosses, which it returns ascending; shared by
/// the greedy and hierarchical engines.
pub(crate) fn cover_remaining(
    fpva: &Fpva,
    tracker: &mut CoverageTracker,
    paths: &mut Vec<FlowPath>,
    rng: &mut StdRng,
) -> Vec<ValveId> {
    let router = Router::new(fpva);
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
        let path = FlowPath::new(fpva, src, snk, cells).expect("routes are valid flow paths");
        tracker.cover_all(path.valves(fpva));
        paths.push(path);
    }
    uncovered_final.sort_unstable();
    uncovered_final
}

/// Removes paths whose every valve is also covered by the other paths
/// (scanning newest-first, which tends to keep the large early sweeps).
pub fn prune_redundant(fpva: &Fpva, paths: Vec<FlowPath>) -> Vec<FlowPath> {
    let mut keep: Vec<bool> = vec![true; paths.len()];
    let valve_sets: Vec<Vec<ValveId>> = paths.iter().map(|p| p.valves(fpva)).collect();
    for i in (0..paths.len()).rev() {
        let mut counts = vec![0usize; fpva.valve_count()];
        for (j, set) in valve_sets.iter().enumerate() {
            if j != i && keep[j] {
                for v in set {
                    counts[v.index()] += 1;
                }
            }
        }
        // Path i is redundant when every valve it covers is covered elsewhere
        // — unless it is the last remaining path (keep at least one).
        let redundant =
            !valve_sets[i].is_empty() && valve_sets[i].iter().all(|v| counts[v.index()] > 0);
        if redundant && keep.iter().filter(|&&k| k).count() > 1 {
            keep[i] = false;
        }
    }
    paths
        .into_iter()
        .zip(keep)
        .filter_map(|(p, k)| k.then_some(p))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpva_grid::layouts;

    #[test]
    fn serpentines_cover_full_odd_array() {
        let f = layouts::full_array(5, 5);
        let paths = serpentine_paths(&f).unwrap();
        assert_eq!(paths.len(), 2);
        let mut tracker = CoverageTracker::new(&f);
        for p in &paths {
            tracker.cover_all(p.valves(&f));
        }
        assert!(tracker.is_complete(), "{} uncovered", tracker.remaining());
    }

    #[test]
    fn serpentine_fails_on_even_dimension() {
        // Even row count: the row sweep ends at the west edge, not the sink.
        let f = layouts::full_array(4, 4);
        assert!(matches!(
            serpentine_paths(&f),
            Err(AtpgError::InvalidPath { .. })
        ));
    }

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
    fn greedy_reports_uncoverable_pocket() {
        use fpva_grid::{FpvaBuilder, PortKind, Side};
        // 2x2 with sink on the same cell as source's row: valve V(0,1)
        // leads into the dead-end cell (1,1)->(1,0) pocket... build a 1x2
        // with a stub: the valve into a dead-end cell cannot be on a simple
        // source->sink path that returns.
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
    fn prune_drops_fully_shadowed_paths() {
        let f = layouts::full_array(5, 5);
        let mut paths = serpentine_paths(&f).unwrap();
        // Duplicate the first path: the duplicate is redundant.
        paths.push(paths[0].clone());
        let pruned = prune_redundant(&f, paths);
        assert_eq!(pruned.len(), 2);
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
