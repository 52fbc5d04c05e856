//! Hierarchical path construction (Section III-B-4 of the paper).
//!
//! The paper partitions the array into subblocks (5×5 in its evaluation),
//! solves the path problem per block and stitches subpaths along the
//! top-level flow directions. This module implements that decomposition
//! for the corner-port arrays of Table I as **block bands**:
//!
//! * one flow path per *row band* of `block_size` rows — it descends the
//!   west boundary column, serpentines through the whole band (covering
//!   every horizontal valve of those rows, exactly the subpaths of the
//!   paper's Fig. 7(b) concatenated across the block row) and descends the
//!   east boundary column to the sink;
//! * one flow path per *column band*, mirrored.
//!
//! Bands whose serpentine is blocked (obstacles), crosses a second source
//! port's inlet or ends off the sink (partial bands of even width) are
//! skipped, and a greedy fix-up stage covers whatever is left — the
//! hierarchical trade-off the paper reports: a few more vectors than the
//! direct model, far better scalability.

use crate::connectivity::{ports, Router, Routing};
use crate::error::AtpgError;
use crate::heuristic::{cover_remaining, PathCover};
use crate::path::FlowPath;
use fpva_grid::{CellId, CellKind, Fpva};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration of the hierarchical engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// Subblock edge length. `None` (the default) derives it from the
    /// array dimensions via [`HierarchyConfig::derived_block_size`]; a
    /// `Some` value overrides the derivation (the paper evaluates with a
    /// fixed 5).
    pub block_size: Option<usize>,
    /// Seed for the greedy fix-up stage: breaks ties in the router's walks.
    pub seed: u64,
    /// Ignored: the fix-up router is exact and needs no retries. Kept only
    /// because the benchmark harness (`perfbench/src/adapter.rs`) builds
    /// this struct field by field.
    pub tries: usize,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig {
            block_size: None,
            seed: 0x11EA_2017,
            tries: 64,
        }
    }
}

impl HierarchyConfig {
    /// Band height derived from the array size, per the Fig. 8 trade-off:
    /// each band of `b` rows contributes one flow path, so the band count
    /// (and with it the vector count) falls as `b` grows, while the
    /// paper's per-block solve cost argument caps how far `b` may grow
    /// with the array. Half the geometric-mean edge length reproduces the
    /// paper's choice of 5 on the 10×10 evaluation array and keeps small
    /// arrays at that floor.
    pub fn derived_block_size(rows: usize, cols: usize) -> usize {
        let half_mean = ((rows * cols) as f64).sqrt() / 2.0;
        (half_mean.round() as usize).clamp(5, 15)
    }

    /// The band height to use for `fpva`: the explicit override when
    /// set; otherwise [`HierarchyConfig::derived_block_size`] — unless
    /// the array contains obstacle cells, where the derivation falls
    /// back to the paper's 5. A band whose serpentine crosses an
    /// obstacle is skipped wholesale and its valves fall to the greedy
    /// fix-up, so on obstacled arrays a taller band *loses* coverage and
    /// time instead of saving paths (measured: the Table I 20×20 and
    /// 30×30 go incomplete at their derived heights).
    pub fn resolved_block_size(&self, fpva: &Fpva) -> usize {
        if let Some(block) = self.block_size {
            return block.max(1);
        }
        let has_obstacles = fpva
            .cells()
            .any(|c| fpva.cell_kind(c) == CellKind::Obstacle);
        if has_obstacles {
            5
        } else {
            Self::derived_block_size(fpva.rows(), fpva.cols())
        }
    }
}

/// `(row, col)` sequence of the band path for rows `r0..=r1` of a
/// `rows × cols` array: descend column 0 from the top, serpentine the band
/// (row `r0` heading east), then route to the bottom-right corner.
fn band_cells(rows: usize, cols: usize, r0: usize, r1: usize) -> Vec<(usize, usize)> {
    let mut cells: Vec<(usize, usize)> = (0..r0).map(|r| (r, 0)).collect();
    for (k, row) in (r0..=r1).enumerate() {
        if k % 2 == 0 {
            cells.extend((0..cols).map(|c| (row, c)));
        } else {
            cells.extend((0..cols).rev().map(|c| (row, c)));
        }
    }
    if (r1 - r0).is_multiple_of(2) {
        // Band ends at (r1, cols-1): descend the east column to the sink.
        cells.extend((r1 + 1..rows).map(|r| (r, cols - 1)));
    } else {
        // Band ends at (r1, 0): keep descending the west column, then run
        // east along the bottom row.
        cells.extend((r1 + 1..rows).map(|r| (r, 0)));
        cells.extend((1..cols).map(|c| (rows - 1, c)));
    }
    cells
}

/// Attempts to build all band paths; invalid bands are silently skipped
/// (their valves fall through to the fix-up stage).
fn band_paths(router: &Router<'_>, block_size: usize) -> Result<Vec<FlowPath>, AtpgError> {
    let fpva = router.fpva();
    let (source, sink) = ports(fpva)?;
    let band =
        |cells| FlowPath::with_components(fpva, router.graph().components(), source, sink, cells);
    let (rows, cols) = (fpva.rows(), fpva.cols());
    let mut paths = Vec::new();
    // Row bands, then column bands: build on the transposed geometry, then
    // mirror.
    for (transposed, lines, width) in [(false, rows, cols), (true, cols, rows)] {
        let mut r0 = 0;
        while r0 < lines {
            let r1 = (r0 + block_size - 1).min(lines - 1);
            let cells = band_cells(lines, width, r0, r1)
                .into_iter()
                .map(|(r, c)| if transposed { (c, r) } else { (r, c) })
                .map(|(r, c)| CellId::new(r, c))
                .collect();
            if let Ok(p) = band(cells) {
                paths.push(p);
            }
            r0 = r1 + 1;
        }
    }
    Ok(paths)
}

/// Hierarchical path cover: band paths plus a greedy fix-up for valves the
/// bands miss.
///
/// # Errors
///
/// Returns [`AtpgError::MissingPorts`] when the array lacks a source or a
/// sink port.
pub fn hierarchical_cover(fpva: &Fpva, config: &HierarchyConfig) -> Result<PathCover, AtpgError> {
    hierarchical_cover_on(&Router::new(fpva), &mut Routing::default(), config)
}

/// [`hierarchical_cover`] on the router of the chip, routing the fix-up
/// with `routing`.
pub(crate) fn hierarchical_cover_on(
    router: &Router<'_>,
    routing: &mut Routing,
    config: &HierarchyConfig,
) -> Result<PathCover, AtpgError> {
    let fpva = router.fpva();
    let block = config.resolved_block_size(fpva);
    let mut paths = band_paths(router, block)?;
    let mut rng = StdRng::seed_from_u64(config.seed);
    let uncovered = cover_remaining(router, routing, &mut paths, &mut rng);
    Ok(PathCover { paths, uncovered })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpva_grid::layouts;

    fn assert_complete(fpva: &Fpva, cover: &PathCover) {
        assert!(cover.is_complete(), "uncovered: {:?}", cover.uncovered);
        let mut covered = vec![false; fpva.valve_count()];
        for p in &cover.paths {
            for v in p.valves(fpva) {
                covered[v.index()] = true;
            }
        }
        assert!(covered.iter().all(|&c| c));
    }

    #[test]
    fn full_10x10_needs_exactly_four_band_paths() {
        // The paper's Fig. 8(b): hierarchical model with 5x5 blocks on the
        // full 10x10 array yields 4 paths.
        let f = layouts::full_array(10, 10);
        let cover = hierarchical_cover(&f, &HierarchyConfig::default()).unwrap();
        assert_eq!(cover.paths.len(), 4);
        assert_complete(&f, &cover);
    }

    #[test]
    fn bands_handle_partial_blocks() {
        // 7 rows with block size 5: a 5-band and a 2-band.
        let f = layouts::full_array(7, 7);
        let cover = hierarchical_cover(&f, &HierarchyConfig::default()).unwrap();
        assert_complete(&f, &cover);
    }

    #[test]
    fn all_table1_layouts_covered() {
        for entry in layouts::table1() {
            let cover = hierarchical_cover(&entry.fpva, &HierarchyConfig::default())
                .unwrap_or_else(|e| panic!("{}: {e}", entry.name));
            assert_complete(&entry.fpva, &cover);
            // Sanity: vector count stays in the paper's order of magnitude
            // (Table I reports 4..=20 flow paths for these arrays).
            assert!(
                cover.paths.len() <= 2 * entry.paper_flow_paths + 8,
                "{}: {} paths vs paper {}",
                entry.name,
                cover.paths.len(),
                entry.paper_flow_paths
            );
        }
    }

    #[test]
    fn derived_block_size_tracks_array_dims() {
        assert_eq!(HierarchyConfig::derived_block_size(5, 5), 5);
        assert_eq!(HierarchyConfig::derived_block_size(10, 10), 5);
        assert_eq!(HierarchyConfig::derived_block_size(15, 15), 8);
        assert_eq!(HierarchyConfig::derived_block_size(30, 30), 15);
        // Obstacled arrays fall back to the paper's 5.
        let obstacled = layouts::table1_30x30();
        assert_eq!(
            HierarchyConfig::default().resolved_block_size(&obstacled),
            5
        );
        // Explicit override always wins.
        let cfg = HierarchyConfig {
            block_size: Some(7),
            ..Default::default()
        };
        assert_eq!(cfg.resolved_block_size(&obstacled), 7);
    }

    #[test]
    fn derived_bands_do_not_regress_30x30_path_count_or_time() {
        // The Fig. 8 trade-off on the obstacle-free 30×30: the derived
        // band height must yield no more paths (it yields far fewer) and
        // no more generation work than the historical fixed 5.
        let f = layouts::full_array(30, 30);
        let fixed = HierarchyConfig {
            block_size: Some(5),
            ..Default::default()
        };
        let t0 = std::time::Instant::now();
        let fixed_cover = hierarchical_cover(&f, &fixed).unwrap();
        let fixed_time = t0.elapsed();
        let t0 = std::time::Instant::now();
        let auto_cover = hierarchical_cover(&f, &HierarchyConfig::default()).unwrap();
        let auto_time = t0.elapsed();
        assert_complete(&f, &auto_cover);
        assert!(
            auto_cover.paths.len() <= fixed_cover.paths.len(),
            "derived bands produce {} paths vs fixed-5's {}",
            auto_cover.paths.len(),
            fixed_cover.paths.len()
        );
        // Time comparison with generous slack: fewer, longer bands do
        // strictly less serpentine construction, but absolute wall-clock
        // asserts are flaky — require only "not grossly slower".
        assert!(
            auto_time <= fixed_time * 4 + std::time::Duration::from_millis(250),
            "derived bands took {auto_time:?} vs fixed-5's {fixed_time:?}"
        );
    }

    #[test]
    fn block_size_one_still_works() {
        let f = layouts::full_array(3, 3);
        let config = HierarchyConfig {
            block_size: Some(1),
            ..Default::default()
        };
        let cover = hierarchical_cover(&f, &config).unwrap();
        assert_complete(&f, &cover);
    }

    #[test]
    fn paths_are_simple_and_end_at_ports() {
        let f = layouts::table1_20x20();
        let cover = hierarchical_cover(&f, &HierarchyConfig::default()).unwrap();
        for p in &cover.paths {
            let unique: std::collections::HashSet<_> = p.cells().iter().collect();
            assert_eq!(unique.len(), p.len());
            assert_eq!(p.cells()[0], CellId::new(0, 0));
            assert_eq!(*p.cells().last().unwrap(), CellId::new(19, 19));
        }
    }
}
