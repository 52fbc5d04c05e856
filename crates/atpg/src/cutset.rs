//! Cut-set generation (Section III-C of the paper).
//!
//! A *cut-set* is a set of valves whose simultaneous closure separates all
//! source ports from all sink ports; if a pressure meter still reads
//! pressure while a cut-set is closed, some valve is stuck-at-1. Cut-sets
//! start and end at the chip boundary (paper's observation in Fig. 7(d)).
//!
//! Geometrically a cut-set is a **path in the dual lattice**: a curve of
//! corner points crossing valve sites. On the corner-port Table I arrays,
//! straight vertical/horizontal grid lines are valid cuts — yielding
//! exactly the paper's `n_c = (rows − 1) + (cols − 1)` counts — and when a
//! transportation channel crosses a line (the channel site cannot be
//! closed), the dual search detours around it.
//!
//! The two-fault masking pattern of the paper's Fig. 5(c)/(d) is excluded
//! per constraint (9): whenever both dual endpoints of a valve lie on the
//! cut curve, that valve must itself join the cut-set — otherwise one
//! stuck-at-0 fault at that valve could "repair" the cut and mask a
//! stuck-at-1 inside it.

use crate::connectivity::{reachable_from, sink_cells, source_cells};
use crate::error::AtpgError;
use fpva_grid::{Axis, CellId, EdgeId, EdgeKind, Fpva, TestVector, ValveId, ValveState};
use serde::{Deserialize, Serialize};
use std::collections::{HashSet, VecDeque};

/// A validated cut-set.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CutSet {
    valves: Vec<ValveId>,
}

impl CutSet {
    /// Builds a cut-set after checking that closing `valves` (on an
    /// otherwise all-open chip) disconnects every source port from every
    /// sink port.
    ///
    /// # Errors
    ///
    /// [`AtpgError::NotSeparating`] when some sink is still reachable.
    pub fn new(fpva: &Fpva, mut valves: Vec<ValveId>) -> Result<Self, AtpgError> {
        valves.sort_unstable();
        valves.dedup();
        let blocked: HashSet<EdgeId> = valves.iter().map(|&v| fpva.edge_of(v)).collect();
        let reach = reachable_from(fpva, &source_cells(fpva), &blocked);
        for sink in sink_cells(fpva) {
            if reach[fpva.cell_index(sink)] {
                return Err(AtpgError::NotSeparating { reached_sink: sink });
            }
        }
        Ok(CutSet { valves })
    }

    /// The valves of the cut, ascending.
    pub fn valves(&self) -> &[ValveId] {
        &self.valves
    }

    /// Number of valves in the cut.
    pub fn len(&self) -> usize {
        self.valves.len()
    }

    /// `true` when the cut has no valves (possible when walls alone already
    /// separate the ports).
    pub fn is_empty(&self) -> bool {
        self.valves.is_empty()
    }

    /// The test vector realising the cut: cut valves closed, every other
    /// valve open.
    pub fn to_vector(&self, fpva: &Fpva) -> TestVector {
        let mut v = TestVector::all_open(fpva.valve_count());
        for &valve in &self.valves {
            v.set(valve, ValveState::Closed);
        }
        v
    }

    /// Whether the cut contains `valve`.
    pub fn covers(&self, valve: ValveId) -> bool {
        self.valves.binary_search(&valve).is_ok()
    }
}

/// A corner point of the lattice: `(i, j)` with `0 ≤ i ≤ rows`,
/// `0 ≤ j ≤ cols`.
type Corner = (usize, usize);

/// The lattice edge crossed when the cut curve moves between two adjacent
/// corners, or `None` for moves along the chip boundary.
fn crossing(fpva: &Fpva, a: Corner, b: Corner) -> Option<EdgeId> {
    let (rows, cols) = (fpva.rows(), fpva.cols());
    let ((i0, j0), (i1, j1)) = if a <= b { (a, b) } else { (b, a) };
    if j0 == j1 && i1 == i0 + 1 {
        // Vertical move at column boundary j0: crosses H(i0, j0-1).
        if j0 >= 1 && j0 < cols {
            Some(EdgeId::horizontal(i0, j0 - 1))
        } else {
            None
        }
    } else if i0 == i1 && j1 == j0 + 1 {
        // Horizontal move at row boundary i0: crosses V(i0-1, j0).
        if i0 >= 1 && i0 < rows {
            Some(EdgeId::vertical(i0 - 1, j0))
        } else {
            None
        }
    } else {
        None
    }
}

fn corner_neighbors(fpva: &Fpva, c: Corner) -> Vec<Corner> {
    let (rows, cols) = (fpva.rows(), fpva.cols());
    let mut out = Vec::with_capacity(4);
    if c.0 > 0 {
        out.push((c.0 - 1, c.1));
    }
    if c.0 < rows {
        out.push((c.0 + 1, c.1));
    }
    if c.1 > 0 {
        out.push((c.0, c.1 - 1));
    }
    if c.1 < cols {
        out.push((c.0, c.1 + 1));
    }
    out
}

/// May the cut curve take this move? Boundary moves are free; interior
/// moves must cross a closable site (a valve) or an existing wall — never
/// an always-open channel site.
fn move_allowed(fpva: &Fpva, a: Corner, b: Corner) -> bool {
    match crossing(fpva, a, b) {
        None => true,
        Some(edge) => fpva.edge_kind(edge) != EdgeKind::Open,
    }
}

/// Dijkstra in the dual lattice from `start` to the exact corner `goal`,
/// with per-move costs from `cost`. Used for the straight-line cuts: moves
/// off the intended grid line are penalised so a channel produces a *local*
/// detour around its end instead of sliding the whole curve onto the
/// neighbouring line (which would collapse two cuts into one).
fn dual_dijkstra(
    fpva: &Fpva,
    start: Corner,
    goal: Corner,
    cost: impl Fn(Corner, Corner) -> usize,
) -> Option<Vec<Corner>> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let cols = fpva.cols() + 1;
    let index = |c: Corner| c.0 * cols + c.1;
    let n = (fpva.rows() + 1) * cols;
    let mut dist = vec![usize::MAX; n];
    let mut prev: Vec<Option<Corner>> = vec![None; n];
    let mut heap = BinaryHeap::new();
    dist[index(start)] = 0;
    heap.push(Reverse((0usize, start)));
    while let Some(Reverse((d, c))) = heap.pop() {
        if c == goal {
            let mut path = vec![c];
            let mut cur = c;
            while let Some(p) = prev[index(cur)] {
                path.push(p);
                cur = p;
            }
            path.reverse();
            return Some(path);
        }
        if d > dist[index(c)] {
            continue;
        }
        for nb in corner_neighbors(fpva, c) {
            if !move_allowed(fpva, c, nb) {
                continue;
            }
            let nd = d + cost(c, nb);
            if nd < dist[index(nb)] {
                dist[index(nb)] = nd;
                prev[index(nb)] = Some(c);
                heap.push(Reverse((nd, nb)));
            }
        }
    }
    None
}

/// BFS in the dual lattice from `start` to `goal`, avoiding `forbidden`
/// corners. Returns the corner sequence.
fn dual_bfs(
    fpva: &Fpva,
    start: Corner,
    goal: impl Fn(Corner) -> bool,
    forbidden: &HashSet<Corner>,
) -> Option<Vec<Corner>> {
    if forbidden.contains(&start) {
        return None;
    }
    let cols = fpva.cols() + 1;
    let index = |c: Corner| c.0 * cols + c.1;
    let mut prev: Vec<Option<Corner>> = vec![None; (fpva.rows() + 1) * cols];
    let mut seen = vec![false; (fpva.rows() + 1) * cols];
    let mut queue = VecDeque::new();
    seen[index(start)] = true;
    queue.push_back(start);
    while let Some(c) = queue.pop_front() {
        if goal(c) {
            let mut path = vec![c];
            let mut cur = c;
            while let Some(p) = prev[index(cur)] {
                path.push(p);
                cur = p;
            }
            path.reverse();
            return Some(path);
        }
        for n in corner_neighbors(fpva, c) {
            if !seen[index(n)] && !forbidden.contains(&n) && move_allowed(fpva, c, n) {
                seen[index(n)] = true;
                prev[index(n)] = Some(c);
                queue.push_back(n);
            }
        }
    }
    None
}

fn crossed_valves(fpva: &Fpva, corners: &[Corner]) -> Vec<ValveId> {
    corners
        .windows(2)
        .filter_map(|w| crossing(fpva, w[0], w[1]))
        .filter_map(|e| fpva.valve_at(e))
        .collect()
}

/// Applies the paper's constraint (9) to a cut curve: every valve whose
/// *both* dual endpoints lie on the curve is added to the returned valve
/// set, so that no single stuck-at-0 valve can re-form the cut and mask a
/// stuck-at-1 inside it (Fig. 5(c)/(d)).
fn apply_masking_constraint(fpva: &Fpva, corners: &[Corner], valves: &mut Vec<ValveId>) {
    let on_curve: HashSet<Corner> = corners.iter().copied().collect();
    for (valve, edge) in fpva.valves() {
        if valves.contains(&valve) {
            continue;
        }
        let (p, q) = dual_endpoints(edge);
        if on_curve.contains(&p) && on_curve.contains(&q) {
            valves.push(valve);
        }
    }
}

/// The two corner points bounding a lattice edge's crossing segment.
fn dual_endpoints(edge: EdgeId) -> (Corner, Corner) {
    let CellId { row, col } = edge.cell;
    match edge.axis {
        // H(r, c) separates cells (r,c)/(r,c+1): segment at column boundary
        // c+1 from corner (r, c+1) to (r+1, c+1).
        Axis::Horizontal => ((row, col + 1), (row + 1, col + 1)),
        // V(r, c): segment at row boundary r+1 from (r+1, c) to (r+1, c+1).
        Axis::Vertical => ((row + 1, col), (row + 1, col + 1)),
    }
}

/// Valves of a cut curve that violate constraint (9) — used by tests and
/// audits; the generators below always repair violations instead.
pub fn masking_violations(fpva: &Fpva, cut: &CutSet, curve: &[Corner]) -> Vec<ValveId> {
    let on_curve: HashSet<Corner> = curve.iter().copied().collect();
    fpva.valves()
        .filter(|&(v, edge)| {
            if cut.covers(v) {
                return false;
            }
            let (p, q) = dual_endpoints(edge);
            on_curve.contains(&p) && on_curve.contains(&q)
        })
        .map(|(v, _)| v)
        .collect()
}

/// Generates the straight-line cut family: one cut per interior column
/// boundary (vertical lines) and one per interior row boundary (horizontal
/// lines), with dual-lattice detours around channels and the constraint-(9)
/// repair applied. Degenerate curves that fail to separate are dropped.
///
/// On the Table I arrays this produces exactly
/// `(rows − 1) + (cols − 1)` cut-sets — the paper's `n_c` column.
pub fn straight_line_cuts(fpva: &Fpva) -> Result<Vec<CutSet>, AtpgError> {
    if fpva.sources().next().is_none() || fpva.sinks().next().is_none() {
        return Err(AtpgError::MissingPorts);
    }
    let (rows, cols) = (fpva.rows(), fpva.cols());
    let mut cuts: Vec<CutSet> = Vec::new();
    let mut seen: HashSet<Vec<ValveId>> = HashSet::new();
    let mut push_curve = |curve: Option<Vec<Corner>>| {
        let Some(curve) = curve else { return };
        let mut valves = crossed_valves(fpva, &curve);
        apply_masking_constraint(fpva, &curve, &mut valves);
        if let Ok(cut) = CutSet::new(fpva, valves) {
            if seen.insert(cut.valves().to_vec()) {
                cuts.push(cut);
            }
        }
    };
    for j in 1..cols {
        // Vertical moves on the intended column boundary cost 1,
        // everything else 2 (keeps detours local).
        let cost = move |a: Corner, b: Corner| -> usize {
            if a.1 == j && b.1 == j {
                1
            } else {
                2
            }
        };
        push_curve(dual_dijkstra(fpva, (0, j), (rows, j), cost));
    }
    for i in 1..rows {
        let cost = move |a: Corner, b: Corner| -> usize {
            if a.0 == i && b.0 == i {
                1
            } else {
                2
            }
        };
        push_curve(dual_dijkstra(fpva, (i, 0), (i, cols), cost));
    }
    Ok(cuts)
}

/// A cut forced through the given valve's dual segment: the curve runs
/// from one endpoint of the segment to the chip boundary, and from the
/// other endpoint to the boundary avoiding the first half. Used to cover
/// valves the straight-line family misses.
pub fn cut_through_valve(fpva: &Fpva, valve: ValveId) -> Option<CutSet> {
    exposing_cut(fpva, valve, exposed_valves).map(|(cut, _)| cut)
}

/// Decides which members of a cut its vector exposes ([`exposed_valves`];
/// the tests swap in a reference definition).
type Exposure = fn(&Fpva, &CutSet) -> Vec<ValveId>;

/// [`cut_through_valve`], with the cut's exposed members (which always
/// include `valve`).
fn exposing_cut(fpva: &Fpva, valve: ValveId, exposure: Exposure) -> Option<(CutSet, Vec<ValveId>)> {
    let (rows, cols) = (fpva.rows(), fpva.cols());
    let edge = fpva.edge_of(valve);
    let (p, q) = dual_endpoints(edge);
    // The curve must leave sources and sinks on opposite sides; which pair
    // of boundary sides achieves that depends on the port placement, so
    // probe all combinations and keep the first separating curve.
    type SideGoal = fn(Corner, usize, usize) -> bool;
    let sides: [SideGoal; 4] = [
        |c, _, _| c.0 == 0,
        |c, rows, _| c.0 == rows,
        |c, _, _| c.1 == 0,
        |c, _, cols| c.1 == cols,
    ];
    for g1 in sides {
        for g2 in sides {
            let mut forbidden: HashSet<Corner> = HashSet::new();
            forbidden.insert(q);
            let Some(half1) = dual_bfs(fpva, p, |c| g1(c, rows, cols), &forbidden) else {
                continue;
            };
            forbidden.remove(&q);
            forbidden.extend(half1.iter().copied());
            let Some(half2) = dual_bfs(fpva, q, |c| g2(c, rows, cols), &forbidden) else {
                continue;
            };
            // Assemble: boundary <- half1 reversed, p, q, half2 -> boundary.
            let mut curve: Vec<Corner> = half1.into_iter().rev().collect();
            curve.extend(half2);
            let mut valves = crossed_valves(fpva, &curve);
            valves.push(valve);
            apply_masking_constraint(fpva, &curve, &mut valves);
            let Ok(cut) = CutSet::new(fpva, valves) else {
                continue;
            };
            // The cut must be *minimal through `valve`*: a stuck-at-1 at
            // `valve` is only observable if opening it alone reconnects a
            // source to a sink. Otherwise try the next curve shape.
            let exposed = exposure(fpva, &cut);
            if exposed.contains(&valve) {
                return Some((cut, exposed));
            }
        }
    }
    None
}

/// Result of [`cut_cover`].
#[derive(Debug, Clone)]
pub struct CutCover {
    /// The generated cut-sets.
    pub cuts: Vec<CutSet>,
    /// Valves in no cut-set (their stuck-at-1 fault is untestable by
    /// cut vectors); empty on the paper's layouts.
    pub uncovered: Vec<ValveId>,
}

impl CutCover {
    /// `true` when every valve is in at least one cut.
    pub fn is_complete(&self) -> bool {
        self.uncovered.is_empty()
    }
}

/// Valves of `cut` whose stuck-at-1 fault the cut vector *exposes*:
/// opening that valve alone (everything else as commanded) reconnects a
/// source to a sink. Valves the cut merely contains redundantly (e.g.
/// added by the constraint-(9) repair) are not exposed by it.
///
/// With the whole cut closed, one search from the sources and one from
/// the sinks decide every member at once: opening `(x, y)` alone joins a
/// source to a sink exactly when one endpoint is reached from a source and
/// the other from a sink, since any reconnecting route crosses the valve
/// once and avoids every other member.
pub fn exposed_valves(fpva: &Fpva, cut: &CutSet) -> Vec<ValveId> {
    let mut closed = vec![false; fpva.edge_count()];
    for &v in cut.valves() {
        closed[fpva.edge_index(fpva.edge_of(v))] = true;
    }
    let from_sources = reach_around(fpva, &source_cells(fpva), &closed);
    let from_sinks = reach_around(fpva, &sink_cells(fpva), &closed);
    cut.valves()
        .iter()
        .copied()
        .filter(|&v| {
            let (x, y) = fpva.edge_of(v).endpoints();
            let (x, y) = (fpva.cell_index(x), fpva.cell_index(y));
            (from_sources[x] && from_sinks[y]) || (from_sources[y] && from_sinks[x])
        })
        .collect()
}

/// Cells reachable from `starts` over passable edges not marked `closed`
/// (indexed by [`Fpva::edge_index`]).
fn reach_around(fpva: &Fpva, starts: &[CellId], closed: &[bool]) -> Vec<bool> {
    let mut seen = vec![false; fpva.cell_count()];
    let mut queue: Vec<CellId> = Vec::new();
    for &s in starts {
        if !std::mem::replace(&mut seen[fpva.cell_index(s)], true) {
            queue.push(s);
        }
    }
    while let Some(cell) = queue.pop() {
        for (edge, next) in fpva.neighbors(cell) {
            if fpva.edge_kind(edge) != EdgeKind::Wall
                && !closed[fpva.edge_index(edge)]
                && !std::mem::replace(&mut seen[fpva.cell_index(next)], true)
            {
                queue.push(next);
            }
        }
    }
    seen
}

/// The full cut-set generator: straight-line cuts plus targeted cuts for
/// any valve whose stuck-at-1 fault the lines do not *expose* (membership
/// in a cut is not enough — see [`exposed_valves`]).
///
/// # Errors
///
/// Returns [`AtpgError::MissingPorts`] when the array lacks ports.
pub fn cut_cover(fpva: &Fpva) -> Result<CutCover, AtpgError> {
    cut_cover_with(fpva, exposed_valves)
}

fn cut_cover_with(fpva: &Fpva, exposure: Exposure) -> Result<CutCover, AtpgError> {
    let mut cuts = straight_line_cuts(fpva)?;
    let mut exposed = vec![false; fpva.valve_count()];
    for cut in &cuts {
        for v in exposure(fpva, cut) {
            exposed[v.index()] = true;
        }
    }
    let mut uncovered = Vec::new();
    for (v, _) in fpva.valves() {
        if !exposed[v.index()] {
            if let Some((cut, members)) = exposing_cut(fpva, v, exposure) {
                for w in members {
                    exposed[w.index()] = true;
                }
                cuts.push(cut);
            } else {
                uncovered.push(v);
            }
        }
    }
    Ok(CutCover { cuts, uncovered })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpva_grid::{layouts, FpvaBuilder, PortKind, Side};

    #[test]
    fn straight_cut_counts_match_table1() {
        for entry in layouts::table1() {
            let cuts = straight_line_cuts(&entry.fpva).unwrap();
            assert_eq!(
                cuts.len(),
                entry.paper_cut_sets,
                "{}: cut count deviates from Table I",
                entry.name
            );
        }
    }

    #[test]
    fn cuts_cover_every_valve_on_table1_arrays() {
        for entry in layouts::table1() {
            let cover = cut_cover(&entry.fpva).unwrap();
            assert!(
                cover.is_complete(),
                "{}: uncovered {:?}",
                entry.name,
                cover.uncovered
            );
        }
    }

    #[test]
    fn cut_vectors_block_all_pressure() {
        use fpva_sim::{respond, FaultSet};
        let f = layouts::table1_5x5();
        for cut in straight_line_cuts(&f).unwrap() {
            let vec = cut.to_vector(&f);
            let r = respond(&f, &vec, &FaultSet::new());
            assert!(!r.any_pressure(), "cut {:?} leaks", cut.valves());
        }
    }

    #[test]
    fn invalid_cut_rejected() {
        let f = layouts::full_array(3, 3);
        // A single valve never separates a 3x3 grid.
        let err = CutSet::new(&f, vec![ValveId(0)]).unwrap_err();
        assert!(matches!(err, AtpgError::NotSeparating { .. }));
    }

    #[test]
    fn full_column_line_is_a_cut() {
        let f = layouts::full_array(3, 3);
        // Vertical line between columns 0 and 1: H(0,0), H(1,0), H(2,0).
        let valves: Vec<ValveId> = (0..3)
            .map(|r| f.valve_at(EdgeId::horizontal(r, 0)).unwrap())
            .collect();
        let cut = CutSet::new(&f, valves).unwrap();
        assert_eq!(cut.len(), 3);
        assert!(!cut.is_empty());
    }

    #[test]
    fn straight_cuts_have_no_masking_violations_on_full_grid() {
        let f = layouts::full_array(4, 4);
        // Regenerate the curves to audit them.
        for j in 1..4 {
            let curve = dual_bfs(&f, (0, j), |c| c.0 == 4, &HashSet::new()).unwrap();
            let mut valves = crossed_valves(&f, &curve);
            apply_masking_constraint(&f, &curve, &mut valves);
            let cut = CutSet::new(&f, valves).unwrap();
            assert!(masking_violations(&f, &cut, &curve).is_empty());
        }
    }

    #[test]
    fn channel_detour_still_separates() {
        // Channel crossing every vertical line of its columns.
        let f = FpvaBuilder::new(3, 4)
            .channel_horizontal(1, 0, 3)
            .port(0, 0, Side::West, PortKind::Source)
            .port(2, 3, Side::East, PortKind::Sink)
            .build()
            .unwrap();
        let cuts = straight_line_cuts(&f).unwrap();
        assert!(!cuts.is_empty());
        use fpva_sim::{respond, FaultSet};
        for cut in &cuts {
            assert!(!respond(&f, &cut.to_vector(&f), &FaultSet::new()).any_pressure());
        }
    }

    #[test]
    fn cut_through_specific_valve() {
        let f = layouts::full_array(4, 4);
        for (v, _) in f.valves() {
            let cut = cut_through_valve(&f, v).unwrap_or_else(|| panic!("no cut through {v}"));
            assert!(cut.covers(v));
        }
    }

    #[test]
    fn permanently_split_chip_exposes_no_stuck_at_1() {
        // Obstacle spanning a full column splits the chip for good: the
        // meters can never see pressure, so no stuck-at-1 fault is
        // observable and cut_cover must report every valve as uncovered
        // rather than fabricate useless cuts.
        let f = FpvaBuilder::new(3, 5)
            .obstacle(0, 2, 2, 2)
            .port(0, 0, Side::West, PortKind::Source)
            .port(2, 4, Side::East, PortKind::Sink)
            .build()
            .unwrap();
        let cover = cut_cover(&f).unwrap();
        assert!(!cover.is_complete());
        assert_eq!(cover.uncovered.len(), f.valve_count());
    }

    #[test]
    fn exposure_ignores_redundant_members() {
        // A cut with one redundant valve: v is in the cut but opening it
        // does not reconnect anything.
        let f = layouts::full_array(2, 2);
        // Close all 4 valves: a valid cut; opening any single one does not
        // reconnect (0,0) to (1,1)... except it does via two hops? No: one
        // open valve joins only two cells; reaching the sink from the
        // source needs two open valves. So nothing is exposed.
        let all: Vec<ValveId> = f.valves().map(|(v, _)| v).collect();
        let cut = CutSet::new(&f, all).unwrap();
        assert!(exposed_valves(&f, &cut).is_empty());
        // The two-valve cut {H(0,0), V(0,0)} isolates the source cell and
        // exposes both members.
        let tight = CutSet::new(
            &f,
            vec![
                f.valve_at(EdgeId::horizontal(0, 0)).unwrap(),
                f.valve_at(EdgeId::vertical(0, 0)).unwrap(),
            ],
        )
        .unwrap();
        assert_eq!(exposed_valves(&f, &tight).len(), 2);
    }

    /// The reference definition of exposure: one search per member, with
    /// that member open and the rest of the cut closed.
    fn exposed_by_rescan(fpva: &Fpva, cut: &CutSet) -> Vec<ValveId> {
        // Passable edges per cell as (edge index, far cell), built once per
        // cut: in debug builds `Fpva::neighbors` would dominate the searches.
        let adj: Vec<Vec<(usize, usize)>> = fpva
            .cells()
            .map(|c| {
                fpva.neighbors(c)
                    .filter(|&(e, _)| fpva.edge_kind(e) != EdgeKind::Wall)
                    .map(|(e, n)| (fpva.edge_index(e), fpva.cell_index(n)))
                    .collect()
            })
            .collect();
        let index = |cells: Vec<CellId>| -> Vec<usize> {
            cells.into_iter().map(|c| fpva.cell_index(c)).collect()
        };
        let (sources, sinks) = (index(source_cells(fpva)), index(sink_cells(fpva)));
        cut.valves()
            .iter()
            .copied()
            .filter(|&v| {
                let mut closed = vec![false; fpva.edge_count()];
                for &w in cut.valves().iter().filter(|&&w| w != v) {
                    closed[fpva.edge_index(fpva.edge_of(w))] = true;
                }
                let mut seen = vec![false; fpva.cell_count()];
                let mut stack = sources.clone();
                for &s in &sources {
                    seen[s] = true;
                }
                while let Some(x) = stack.pop() {
                    for &(e, y) in &adj[x] {
                        if !closed[e] && !seen[y] {
                            seen[y] = true;
                            stack.push(y);
                        }
                    }
                }
                sinks.iter().any(|&s| seen[s])
            })
            .collect()
    }

    /// Chips with channels, obstacles and one or two ports of each kind on
    /// random boundary sides, drawn from fixed seeds.
    fn generated_chips() -> Vec<Fpva> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xC075);
        let mut chips = Vec::new();
        while chips.len() < 4 {
            let (rows, cols) = (rng.gen_range(4..8), rng.gen_range(4..8));
            let mut b = FpvaBuilder::new(rows, cols);
            for _ in 0..rng.gen_range(0..3usize) {
                let (r, c) = (rng.gen_range(0..rows), rng.gen_range(0..cols - 1));
                b = b.channel_horizontal(r, c, rng.gen_range(c + 1..cols));
            }
            for _ in 0..rng.gen_range(0..3usize) {
                let (r, c) = (rng.gen_range(0..rows), rng.gen_range(0..cols));
                b = b.obstacle(r, c, r, c);
            }
            for kind in [PortKind::Source, PortKind::Sink] {
                for _ in 0..rng.gen_range(1..3usize) {
                    let side = [Side::North, Side::South, Side::East, Side::West]
                        [rng.gen_range(0..4usize)];
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
                chips.push(f);
            }
        }
        chips
    }

    #[test]
    fn two_search_exposure_matches_per_member_rescans() {
        let mut chips: Vec<Fpva> = layouts::table1().into_iter().map(|e| e.fpva).collect();
        chips.push(layouts::custom_biochip());
        chips.extend(generated_chips());
        for f in &chips {
            let fast = cut_cover(f).unwrap();
            let reference = cut_cover_with(f, exposed_by_rescan).unwrap();
            assert_eq!(fast.cuts, reference.cuts);
            assert_eq!(fast.uncovered, reference.uncovered);
            for cut in &fast.cuts {
                assert_eq!(exposed_valves(f, cut), exposed_by_rescan(f, cut));
            }
        }
    }
}
