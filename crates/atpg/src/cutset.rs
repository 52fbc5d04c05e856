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
//!
//! # Cost
//!
//! A grid line that no channel site crosses is its own curve: its `n`
//! moves cost 1 each, while any other route adds an off-line move at cost
//! 2 or a backtrack, so it is the unique cheapest one and needs no search.
//! Only a line a channel crosses runs the Dijkstra search for its detour.
//!
//! Each candidate cut is then decided by two floods over the chip's
//! [`ChipGraph`], where channel sites are inside nodes and walls absent:
//! one from the sources, which drops the candidate as soon as it reaches
//! a sink, and one from the sinks. A cut *exposes* a member
//! whose stuck-at-1 fault it detects: opening that valve alone reconnects
//! a source to a sink. The two floods decide every member at once:
//! opening `(x, y)` alone joins a source to a sink exactly when one
//! endpoint is reached from a source and the other from a sink, since any
//! reconnecting route crosses the valve once and avoids every other
//! member. A member the cut holds redundantly, such as one the
//! constraint-(9) repair added, is not exposed, and a valve inside one
//! channel component is bypassed, so it neither separates nor is exposed.

use crate::connectivity::ports;
use crate::error::AtpgError;
use fpva_grid::{
    Axis, CellId, ChipGraph, EdgeId, EdgeKind, Fpva, PortKind, TestVector, ValveId, ValveState,
};
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
    /// [`AtpgError::NotSeparating`] with the first sink port, in port
    /// order, that is still reachable.
    pub fn new(fpva: &Fpva, mut valves: Vec<ValveId>) -> Result<Self, AtpgError> {
        valves.sort_unstable();
        valves.dedup();
        let graph = ChipGraph::new(fpva);
        let mut closed = vec![false; fpva.valve_count()];
        for v in &valves {
            closed[v.index()] = true;
        }
        let mut reach = vec![false; graph.node_count()];
        if !graph.flood(
            PortKind::Source,
            &closed,
            false,
            &mut reach,
            &mut Vec::new(),
        ) {
            let (_, sink) = fpva
                .sinks()
                .find(|(_, p)| reach[graph.node(fpva.cell_index(p.cell))])
                .expect("a flood that meets a sink node reaches a sink port");
            return Err(AtpgError::NotSeparating {
                reached_sink: sink.cell,
            });
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
///
/// A valve's dual endpoints are adjacent corners, so only the segments
/// between adjacent on-curve corners need a look. Valves already in the
/// set may be pushed again; [`CutSet::new`] sorts and dedups.
fn apply_masking_constraint(fpva: &Fpva, corners: &[Corner], valves: &mut Vec<ValveId>) {
    let cols = fpva.cols() + 1;
    let mut on_curve = vec![false; (fpva.rows() + 1) * cols];
    for &(i, j) in corners {
        on_curve[i * cols + j] = true;
    }
    for &(i, j) in corners {
        // Each segment once, from its upper or left corner.
        for next in [(i + 1, j), (i, j + 1)] {
            if next.0 <= fpva.rows() && next.1 < cols && on_curve[next.0 * cols + next.1] {
                valves.extend(crossing(fpva, (i, j), next).and_then(|e| fpva.valve_at(e)));
            }
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

/// The valves a cut along `curve` closes: those it crosses and the
/// constraint-(9) repair, ascending and without repeats.
fn curve_valves(fpva: &Fpva, curve: &[Corner]) -> Vec<ValveId> {
    let mut valves = crossed_valves(fpva, curve);
    apply_masking_constraint(fpva, curve, &mut valves);
    valves.sort_unstable();
    valves.dedup();
    valves
}

/// Decides candidate cuts on a chip's [`ChipGraph`] by two floods,
/// reusing its buffers from one candidate to the next. A candidate marks
/// its valves in a valve-indexed mask, which the floods read by each arc's
/// valve id.
struct CutCheck<'a> {
    fpva: &'a Fpva,
    graph: &'a ChipGraph,
    /// The candidate's valves, by [`ValveId::index`].
    closed: Vec<bool>,
    from_sources: Vec<bool>,
    from_sinks: Vec<bool>,
    stack: Vec<usize>,
}

impl<'a> CutCheck<'a> {
    fn new(fpva: &'a Fpva, graph: &'a ChipGraph) -> Self {
        let nodes = graph.node_count();
        CutCheck {
            fpva,
            graph,
            closed: vec![false; fpva.valve_count()],
            from_sources: vec![false; nodes],
            from_sinks: vec![false; nodes],
            stack: Vec::new(),
        }
    }

    /// `None` when closing `valves` leaves some sink reachable from a
    /// source; otherwise the members the cut exposes, in the order of
    /// `valves` (see the [module documentation](self)).
    fn decide(&mut self, valves: &[ValveId]) -> Option<Vec<ValveId>> {
        for v in valves {
            self.closed[v.index()] = true;
        }
        let separates = self.graph.flood(
            PortKind::Source,
            &self.closed,
            true,
            &mut self.from_sources,
            &mut self.stack,
        );
        let exposed = separates.then(|| {
            self.graph.flood(
                PortKind::Sink,
                &self.closed,
                true,
                &mut self.from_sinks,
                &mut self.stack,
            );
            let (src, snk) = (&self.from_sources, &self.from_sinks);
            valves
                .iter()
                .copied()
                .filter(|&v| {
                    let [x, y] = self.graph.valve_nodes(v).map(|x| x as usize);
                    (src[x] && snk[y]) || (src[y] && snk[x])
                })
                .collect()
        });
        for v in valves {
            self.closed[v.index()] = false;
        }
        exposed
    }
}

/// Generates the straight-line cut family: one cut per interior column
/// boundary (vertical lines) and one per interior row boundary (horizontal
/// lines), with dual-lattice detours around channels and the constraint-(9)
/// repair applied. Degenerate curves that fail to separate are dropped.
///
/// On the Table I arrays this produces exactly
/// `(rows − 1) + (cols − 1)` cut-sets — the paper's `n_c` column.
pub fn straight_line_cuts(fpva: &Fpva) -> Result<Vec<CutSet>, AtpgError> {
    let cuts = line_cuts(&mut CutCheck::new(fpva, &ChipGraph::new(fpva)))?;
    Ok(cuts.into_iter().map(|(cut, _)| cut).collect())
}

/// The cuts of [`straight_line_cuts`], each with the members it exposes.
fn line_cuts(check: &mut CutCheck<'_>) -> Result<Vec<(CutSet, Vec<ValveId>)>, AtpgError> {
    let fpva = check.fpva;
    ports(fpva)?;
    let mut cuts = Vec::new();
    let mut seen: HashSet<Vec<ValveId>> = HashSet::new();
    for curve in line_curves(fpva) {
        let valves = curve_valves(fpva, &curve);
        if !seen.insert(valves.clone()) {
            continue;
        }
        if let Some(exposed) = check.decide(&valves) {
            cuts.push((CutSet { valves }, exposed));
        }
    }
    Ok(cuts)
}

/// The two boundary corners of each interior grid line: the column
/// boundaries first, then the row boundaries.
fn line_ends(fpva: &Fpva) -> impl Iterator<Item = (Corner, Corner)> {
    let (rows, cols) = (fpva.rows(), fpva.cols());
    let columns = (1..cols).map(move |j| ((0, j), (rows, j)));
    columns.chain((1..rows).map(move |i| ((i, 0), (i, cols))))
}

/// The corners of the grid line from `start` to `goal`, in order.
fn straight_run(start: Corner, goal: Corner) -> Vec<Corner> {
    if start.1 == goal.1 {
        (start.0..=goal.0).map(|i| (i, start.1)).collect()
    } else {
        (start.1..=goal.1).map(|j| (start.0, j)).collect()
    }
}

/// The cost of a move for the curve of the grid line from `start` to
/// `goal`: 1 along the line, 2 anywhere else (keeps detours local).
fn line_cost(start: Corner, goal: Corner) -> impl Fn(Corner, Corner) -> usize {
    let on_line = move |c: Corner| {
        if start.1 == goal.1 {
            c.1 == start.1
        } else {
            c.0 == start.0
        }
    };
    move |a, b| if on_line(a) && on_line(b) { 1 } else { 2 }
}

/// The cheapest curve under [`line_cost`] between a grid line's two
/// boundary corners: the line itself when no channel site crosses it (see
/// the [module documentation](self)), otherwise [`dual_dijkstra`]'s detour.
fn line_curve(fpva: &Fpva, start: Corner, goal: Corner) -> Option<Vec<Corner>> {
    let line = straight_run(start, goal);
    if line.windows(2).all(|w| move_allowed(fpva, w[0], w[1])) {
        return Some(line);
    }
    dual_dijkstra(fpva, start, goal, line_cost(start, goal))
}

/// The dual-lattice curves of [`straight_line_cuts`]: one along each
/// interior column boundary, then one along each interior row boundary,
/// where a route exists.
fn line_curves(fpva: &Fpva) -> impl Iterator<Item = Vec<Corner>> + '_ {
    line_ends(fpva).filter_map(|(start, goal)| line_curve(fpva, start, goal))
}

/// The curves [`exposing_cut`] tries through the given valve's dual
/// segment, in order: from one endpoint of the segment to a chip side,
/// and from the other endpoint to a side avoiding the first half. The
/// curve must leave sources and sinks on opposite sides; which pair of
/// sides achieves that depends on the port placement, so every pair is
/// offered.
fn exposing_curves(fpva: &Fpva, valve: ValveId) -> impl Iterator<Item = Vec<Corner>> + '_ {
    let (rows, cols) = (fpva.rows(), fpva.cols());
    let (p, q) = dual_endpoints(fpva.edge_of(valve));
    type SideGoal = fn(Corner, usize, usize) -> bool;
    let sides: [SideGoal; 4] = [
        |c, _, _| c.0 == 0,
        |c, rows, _| c.0 == rows,
        |c, _, _| c.1 == 0,
        |c, _, cols| c.1 == cols,
    ];
    sides.into_iter().flat_map(move |g1| {
        let half1 = dual_bfs(fpva, p, |c| g1(c, rows, cols), &HashSet::from([q]));
        let forbidden: HashSet<Corner> = half1.iter().flatten().copied().collect();
        sides.into_iter().filter_map(move |g2| {
            let half1 = half1.as_ref()?;
            let half2 = dual_bfs(fpva, q, |c| g2(c, rows, cols), &forbidden)?;
            // Assemble: boundary <- half1 reversed, p, q, half2 -> boundary.
            let mut curve: Vec<Corner> = half1.iter().rev().copied().collect();
            curve.extend(half2);
            Some(curve)
        })
    })
}

/// A cut forced through the given valve's dual segment, with the cut's
/// exposed members (which always include `valve`): the first of
/// [`exposing_curves`] that separates and exposes `valve`. Used to cover
/// valves the straight-line family misses.
fn exposing_cut(check: &mut CutCheck<'_>, valve: ValveId) -> Option<(CutSet, Vec<ValveId>)> {
    let fpva = check.fpva;
    exposing_curves(fpva, valve).find_map(|curve| {
        // The curve crosses `valve`'s own segment from `p` to `q`, so
        // its crossed valves hold `valve`.
        let valves = curve_valves(fpva, &curve);
        // The cut must be *minimal through `valve`*: a stuck-at-1 at
        // `valve` is only observable if opening it alone reconnects a
        // source to a sink. Otherwise try the next curve shape.
        let exposed = check.decide(&valves)?;
        exposed
            .contains(&valve)
            .then_some((CutSet { valves }, exposed))
    })
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

/// The full cut-set generator: straight-line cuts plus targeted cuts for
/// any valve whose stuck-at-1 fault the lines do not *expose* (membership
/// in a cut is not enough — see the [module documentation](self)).
///
/// # Errors
///
/// Returns [`AtpgError::MissingPorts`] when the array lacks ports.
pub fn cut_cover(fpva: &Fpva) -> Result<CutCover, AtpgError> {
    cut_cover_on(fpva, &ChipGraph::new(fpva))
}

/// [`cut_cover`] on the chip's graph.
pub(crate) fn cut_cover_on(fpva: &Fpva, graph: &ChipGraph) -> Result<CutCover, AtpgError> {
    let mut check = CutCheck::new(fpva, graph);
    let mut cuts = Vec::new();
    let mut exposed = vec![false; fpva.valve_count()];
    for (cut, members) in line_cuts(&mut check)? {
        for w in members {
            exposed[w.index()] = true;
        }
        cuts.push(cut);
    }
    let mut uncovered = Vec::new();
    for (v, _) in fpva.valves() {
        if !exposed[v.index()] {
            if let Some((cut, members)) = exposing_cut(&mut check, v) {
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
pub(crate) mod tests {
    use super::*;
    use fpva_grid::layouts::{self, GenSpec, PortRule};
    use fpva_grid::{FpvaBuilder, Side};

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

    /// Valves of a cut curve that violate constraint (9); the generators
    /// always repair violations instead.
    fn masking_violations(fpva: &Fpva, cut: &CutSet, curve: &[Corner]) -> Vec<ValveId> {
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

    #[test]
    fn straight_cuts_have_no_masking_violations_on_full_grid() {
        /// The curve's crossed valves with constraint (9) applied, as a
        /// cut, checked against [`masking_violations`]' scan of every
        /// valve: nothing is missing, and nothing is added beyond what
        /// the scan finds. Returns how many valves the constraint added.
        fn check(f: &Fpva, curve: &[Corner]) -> usize {
            let crossed = crossed_valves(f, curve);
            let as_cut = |mut valves: Vec<ValveId>| {
                valves.sort_unstable();
                valves.dedup();
                CutSet { valves }
            };
            let mut valves = crossed.clone();
            apply_masking_constraint(f, curve, &mut valves);
            let cut = as_cut(valves);
            assert!(masking_violations(f, &cut, curve).is_empty());
            let missing = masking_violations(f, &as_cut(crossed.clone()), curve);
            let added = missing.len();
            let mut expected = crossed;
            expected.extend(missing);
            assert_eq!(cut, as_cut(expected), "curve {curve:?}");
            added
        }

        let f = layouts::full_array(4, 4);
        // Regenerate the curves to audit them.
        for j in 1..4 {
            let curve = dual_bfs(&f, (0, j), |c| c.0 == 4, &HashSet::new()).unwrap();
            check(&f, &curve);
            assert!(CutSet::new(&f, crossed_valves(&f, &curve)).is_ok());
        }
        // A U-turn passes both corners of V(0, 1) without crossing it.
        let u_turn = [(0, 1), (1, 1), (2, 1), (2, 2), (1, 2), (0, 2)];
        assert_eq!(check(&f, &u_turn), 1);
        // The line curves of the generator, detours around channels
        // included.
        let mut chips: Vec<Fpva> = layouts::table1().into_iter().map(|e| e.fpva).collect();
        chips.push(layouts::custom_biochip());
        chips.extend(seeded_chips(4));
        let mut curves = 0;
        for f in &chips {
            for curve in line_curves(f) {
                check(f, &curve);
                curves += 1;
            }
        }
        assert!(curves > 200, "{curves} curves");
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

    /// Checks every grid line of `chips` against [`dual_dijkstra`] under
    /// the same costs; returns how many lines took the straight run and
    /// how many a channel crosses.
    fn check_line_curves(chips: &[Fpva]) -> (usize, usize) {
        let (mut straight, mut searched) = (0, 0);
        for f in chips {
            for (start, goal) in line_ends(f) {
                let expected = dual_dijkstra(f, start, goal, line_cost(start, goal));
                assert_eq!(
                    line_curve(f, start, goal),
                    expected,
                    "{start:?} to {goal:?}"
                );
                let run = straight_run(start, goal);
                if run.windows(2).all(|w| move_allowed(f, w[0], w[1])) {
                    straight += 1;
                } else {
                    searched += 1;
                }
            }
        }
        (straight, searched)
    }

    #[test]
    fn straight_lines_match_dual_dijkstra() {
        let mut chips: Vec<Fpva> = layouts::table1().into_iter().map(|e| e.fpva).collect();
        chips.push(layouts::custom_biochip());
        chips.extend(seeded_chips(4));
        chips.extend((4..=12).map(|n| layouts::full_array(n, n)));
        let (straight, searched) = check_line_curves(&chips);
        assert!(
            straight > 100 && searched > 10,
            "{straight} straight lines, {searched} searched"
        );
    }

    #[test]
    #[ignore = "release-only: hundreds of chips, slow in a debug build"]
    fn straight_lines_match_dual_dijkstra_at_scale() {
        let (straight, searched) = check_line_curves(&seeded_chips(400));
        assert!(
            straight > 1000 && searched > 100,
            "{straight} straight lines, {searched} searched"
        );
    }

    #[test]
    fn cut_through_specific_valve() {
        let f = layouts::full_array(4, 4);
        let graph = ChipGraph::new(&f);
        let mut check = CutCheck::new(&f, &graph);
        for (v, _) in f.valves() {
            let (cut, exposed) =
                exposing_cut(&mut check, v).unwrap_or_else(|| panic!("no cut through {v}"));
            assert!(cut.covers(v));
            assert!(exposed.contains(&v), "{v} in the cut but not exposed");
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

    /// The members of `cut` it exposes, by [`CutCheck::decide`]; nothing
    /// when the cut does not separate.
    fn exposed_valves(fpva: &Fpva, cut: &CutSet) -> Vec<ValveId> {
        let graph = ChipGraph::new(fpva);
        CutCheck::new(fpva, &graph)
            .decide(cut.valves())
            .unwrap_or_default()
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

    /// Passable edges per cell as (edge index, far cell), built once per
    /// chip: in debug builds `Fpva::neighbors` would dominate the searches.
    fn passable(fpva: &Fpva) -> Vec<Vec<(usize, usize)>> {
        fpva.cells()
            .map(|c| {
                fpva.neighbors(c)
                    .filter(|&(e, _)| fpva.edge_kind(e) != EdgeKind::Wall)
                    .map(|(e, n)| (fpva.edge_index(e), fpva.cell_index(n)))
                    .collect()
            })
            .collect()
    }

    /// Whether some source cell reaches a sink cell over `adj` with the
    /// valves `closed` closed: the cell-level search the graph's floods
    /// are checked against.
    fn sources_reach_a_sink(fpva: &Fpva, adj: &[Vec<(usize, usize)>], closed: &[ValveId]) -> bool {
        let mut shut = vec![false; fpva.edge_count()];
        for &w in closed {
            shut[fpva.edge_index(fpva.edge_of(w))] = true;
        }
        let mut seen = vec![false; fpva.cell_count()];
        let mut stack: Vec<usize> = fpva
            .sources()
            .map(|(_, p)| fpva.cell_index(p.cell))
            .collect();
        for &s in &stack {
            seen[s] = true;
        }
        while let Some(x) = stack.pop() {
            for &(e, y) in &adj[x] {
                if !shut[e] && !seen[y] {
                    seen[y] = true;
                    stack.push(y);
                }
            }
        }
        fpva.sinks().any(|(_, p)| seen[fpva.cell_index(p.cell)])
    }

    /// The reference definition of exposure: one search per member, with
    /// that member open and the rest of the cut closed.
    fn exposed_by_rescan(fpva: &Fpva, adj: &[Vec<(usize, usize)>], cut: &CutSet) -> Vec<ValveId> {
        cut.valves()
            .iter()
            .copied()
            .filter(|&v| {
                let rest: Vec<ValveId> = cut.valves().iter().copied().filter(|&w| w != v).collect();
                sources_reach_a_sink(fpva, adj, &rest)
            })
            .collect()
    }

    /// Chips of 4–7 cells a side with horizontal channels and one or two
    /// boundary ports of each kind, twelve pinned by the plan digests.
    const PINNED_CHIPS: GenSpec = GenSpec {
        sides: 4..8,
        channels: 0..3,
        vertical_channels: false,
        ports: PortRule::Boundary(1..3),
    };

    /// The first `count` chips of [`PINNED_CHIPS`] from seed `0xC075`.
    pub(crate) fn seeded_chips(count: usize) -> Vec<Fpva> {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xC075);
        let mut draw = |range| rng.gen_range(range);
        (0..count)
            .map(|_| layouts::generated(&PINNED_CHIPS, &mut draw))
            .collect()
    }

    /// [`cut_cover`] on the cell-level definitions: each candidate checked
    /// by [`sources_reach_a_sink`], its exposure by [`exposed_by_rescan`].
    fn cut_cover_by_rescan(f: &Fpva, adj: &[Vec<(usize, usize)>]) -> CutCover {
        let separating = |valves: Vec<ValveId>| {
            (!sources_reach_a_sink(f, adj, &valves)).then_some(CutSet { valves })
        };
        let mut cuts: Vec<CutSet> = Vec::new();
        for curve in line_curves(f) {
            if let Some(cut) = separating(curve_valves(f, &curve)) {
                if !cuts.contains(&cut) {
                    cuts.push(cut);
                }
            }
        }
        let mut exposed = vec![false; f.valve_count()];
        for cut in &cuts {
            for w in exposed_by_rescan(f, adj, cut) {
                exposed[w.index()] = true;
            }
        }
        let mut uncovered = Vec::new();
        for (v, _) in f.valves() {
            if exposed[v.index()] {
                continue;
            }
            let found = exposing_curves(f, v).find_map(|curve| {
                let cut = separating(curve_valves(f, &curve))?;
                let members = exposed_by_rescan(f, adj, &cut);
                members.contains(&v).then_some((cut, members))
            });
            if let Some((cut, members)) = found {
                for w in members {
                    exposed[w.index()] = true;
                }
                cuts.push(cut);
            } else {
                uncovered.push(v);
            }
        }
        CutCover { cuts, uncovered }
    }

    /// Checks `f`'s cut cover against [`cut_cover_by_rescan`], and the two
    /// floods and [`CutSet::new`] against [`sources_reach_a_sink`] and
    /// [`exposed_by_rescan`] on every line candidate and, on chips of at
    /// most 100 cells, every exposing candidate through every valve.
    /// Returns how many candidates the floods kept and how many they
    /// dropped.
    fn check_cut_decisions(f: &Fpva) -> (usize, usize) {
        let adj = passable(f);
        let fast = cut_cover(f).unwrap();
        let reference = cut_cover_by_rescan(f, &adj);
        assert_eq!(fast.cuts, reference.cuts);
        assert_eq!(fast.uncovered, reference.uncovered);
        for cut in &fast.cuts {
            assert_eq!(exposed_valves(f, cut), exposed_by_rescan(f, &adj, cut));
        }
        let mut candidates: Vec<Vec<ValveId>> =
            line_curves(f).map(|c| curve_valves(f, &c)).collect();
        if f.cell_count() <= 100 {
            for (v, _) in f.valves() {
                candidates.extend(exposing_curves(f, v).map(|c| curve_valves(f, &c)));
            }
        }
        let graph = ChipGraph::new(f);
        let mut check = CutCheck::new(f, &graph);
        let (mut kept, mut dropped) = (0, 0);
        for valves in candidates {
            let decided = check.decide(&valves);
            let separates = !sources_reach_a_sink(f, &adj, &valves);
            assert_eq!(
                CutSet::new(f, valves.clone()).is_ok(),
                separates,
                "{valves:?}"
            );
            if separates {
                let cut = CutSet { valves };
                assert_eq!(decided, Some(exposed_by_rescan(f, &adj, &cut)), "{cut:?}");
                kept += 1;
            } else {
                assert_eq!(decided, None, "{valves:?} does not separate");
                dropped += 1;
            }
        }
        (kept, dropped)
    }

    fn check_all_cut_decisions(chips: &[Fpva]) -> (usize, usize) {
        chips.iter().fold((0, 0), |(kept, dropped), f| {
            let (k, d) = check_cut_decisions(f);
            (kept + k, dropped + d)
        })
    }

    #[test]
    fn two_search_exposure_matches_per_member_rescans() {
        let mut chips: Vec<Fpva> = layouts::table1().into_iter().map(|e| e.fpva).collect();
        chips.push(layouts::custom_biochip());
        chips.extend(seeded_chips(4));
        let (kept, dropped) = check_all_cut_decisions(&chips);
        assert!(
            kept > 1000 && dropped > 1000,
            "{kept} kept, {dropped} dropped"
        );
    }

    #[test]
    #[ignore = "release-only: every candidate cut of hundreds of chips"]
    fn two_search_exposure_matches_per_member_rescans_at_scale() {
        let (kept, dropped) = check_all_cut_decisions(&seeded_chips(300));
        assert!(
            kept > 10_000 && dropped > 10_000,
            "{kept} kept, {dropped} dropped"
        );
    }
}
