//! The immutable FPVA array description.

use crate::geometry::{CellId, EdgeId, EdgeIndexer, Side};
use crate::vector::{TestVector, ValveId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// What occupies an internal edge (a valve site) of the lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EdgeKind {
    /// A real, individually controllable valve.
    Valve,
    /// No valve was built; the site is permanently open. Interior of a
    /// transportation channel ("fluidic sea").
    Open,
    /// Permanently closed; the site borders an obstacle region.
    Wall,
}

/// Role of a fluid cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CellKind {
    /// Ordinary reconfigurable cell.
    Normal,
    /// Cell inside a transportation channel (some of its edges are
    /// [`EdgeKind::Open`]).
    Channel,
    /// Cell inside an obstacle; fluid can never enter it and all its edges
    /// are [`EdgeKind::Wall`].
    Obstacle,
}

/// Whether a boundary port injects or observes pressure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum PortKind {
    /// Air-pressure source connected to the flow layer.
    Source,
    /// Pressure meter ("sink" in the paper's terminology).
    Sink,
}

/// A boundary opening connecting a cell to external plumbing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Port {
    /// The boundary cell the port opens into.
    pub cell: CellId,
    /// The chip side the opening faces; must point off-grid from `cell`.
    pub side: Side,
    /// Source or sink.
    pub kind: PortKind,
}

/// Dense identifier of a port, in declaration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PortId(pub usize);

impl fmt::Display for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// An immutable FPVA: the valve lattice plus channels, obstacles and ports.
///
/// Construct one with [`crate::FpvaBuilder`]. The structure corresponds to
/// the "Inputs" of the paper's problem formulation: the array architecture,
/// the valve sites that are conceptually always open (channels) or always
/// closed (obstacles), and the locations of pressure sources and meters.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fpva {
    rows: usize,
    cols: usize,
    edge_kinds: Vec<EdgeKind>,
    cell_kinds: Vec<CellKind>,
    valve_of_edge: Vec<Option<ValveId>>,
    edge_of_valve: Vec<EdgeId>,
    ports: Vec<Port>,
}

impl Fpva {
    /// Crate-internal constructor; all validation happens in the builder.
    pub(crate) fn from_parts(
        rows: usize,
        cols: usize,
        edge_kinds: Vec<EdgeKind>,
        cell_kinds: Vec<CellKind>,
        ports: Vec<Port>,
    ) -> Self {
        let indexer = EdgeIndexer { rows, cols };
        debug_assert_eq!(edge_kinds.len(), indexer.count());
        debug_assert_eq!(cell_kinds.len(), rows * cols);
        let mut valve_of_edge = vec![None; edge_kinds.len()];
        let mut edge_of_valve = Vec::new();
        for (i, kind) in edge_kinds.iter().enumerate() {
            if *kind == EdgeKind::Valve {
                valve_of_edge[i] = Some(ValveId(edge_of_valve.len()));
                edge_of_valve.push(indexer.edge(i));
            }
        }
        Fpva {
            rows,
            cols,
            edge_kinds,
            cell_kinds,
            valve_of_edge,
            edge_of_valve,
            ports,
        }
    }

    /// Number of cell rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of cell columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of fluid cells (`rows * cols`), obstacles included.
    pub fn cell_count(&self) -> usize {
        self.rows * self.cols
    }

    /// Number of real valves on the chip (the paper's `n_v`).
    pub fn valve_count(&self) -> usize {
        self.edge_of_valve.len()
    }

    /// Number of internal edges (valve sites) of the lattice, of any kind.
    pub fn edge_count(&self) -> usize {
        self.edge_kinds.len()
    }

    pub(crate) fn indexer(&self) -> EdgeIndexer {
        EdgeIndexer {
            rows: self.rows,
            cols: self.cols,
        }
    }

    /// Dense index of an edge, in `0..edge_count()`.
    pub fn edge_index(&self, e: EdgeId) -> usize {
        self.indexer().index(e)
    }

    /// The edge with the given dense index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= edge_count()`.
    pub fn edge_at(&self, index: usize) -> EdgeId {
        assert!(index < self.edge_count(), "edge index {index} out of range");
        self.indexer().edge(index)
    }

    /// Dense index of a cell, row-major.
    pub fn cell_index(&self, c: CellId) -> usize {
        debug_assert!(c.row < self.rows && c.col < self.cols);
        c.row * self.cols + c.col
    }

    /// The cell with the given dense (row-major) index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= cell_count()`.
    pub fn cell_at(&self, index: usize) -> CellId {
        assert!(index < self.cell_count(), "cell index {index} out of range");
        CellId::new(index / self.cols, index % self.cols)
    }

    /// What occupies the edge.
    pub fn edge_kind(&self, e: EdgeId) -> EdgeKind {
        self.edge_kinds[self.edge_index(e)]
    }

    /// Role of the cell.
    pub fn cell_kind(&self, c: CellId) -> CellKind {
        self.cell_kinds[self.cell_index(c)]
    }

    /// The valve occupying edge `e`, if the edge kind is [`EdgeKind::Valve`].
    pub fn valve_at(&self, e: EdgeId) -> Option<ValveId> {
        self.valve_of_edge[self.edge_index(e)]
    }

    /// The edge a valve sits on.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn edge_of(&self, v: ValveId) -> EdgeId {
        self.edge_of_valve[v.0]
    }

    /// The two cells separated by valve `v`.
    pub fn valve_endpoints(&self, v: ValveId) -> (CellId, CellId) {
        self.edge_of(v).endpoints()
    }

    /// Iterates over every valve id together with its edge.
    pub fn valves(&self) -> impl Iterator<Item = (ValveId, EdgeId)> + '_ {
        self.edge_of_valve
            .iter()
            .enumerate()
            .map(|(i, &e)| (ValveId(i), e))
    }

    /// Iterates over every internal edge with its kind.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, EdgeKind)> + '_ {
        self.indexer().iter().zip(self.edge_kinds.iter().copied())
    }

    /// Iterates over every cell id, row-major.
    pub fn cells(&self) -> impl Iterator<Item = CellId> + '_ {
        (0..self.cell_count()).map(|i| self.cell_at(i))
    }

    /// All ports in declaration order.
    pub fn ports(&self) -> impl Iterator<Item = (PortId, &Port)> {
        self.ports.iter().enumerate().map(|(i, p)| (PortId(i), p))
    }

    /// The port with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn port(&self, id: PortId) -> &Port {
        &self.ports[id.0]
    }

    /// Number of ports.
    pub fn port_count(&self) -> usize {
        self.ports.len()
    }

    /// All pressure sources.
    pub fn sources(&self) -> impl Iterator<Item = (PortId, &Port)> {
        self.ports().filter(|(_, p)| p.kind == PortKind::Source)
    }

    /// All pressure meters (sinks).
    pub fn sinks(&self) -> impl Iterator<Item = (PortId, &Port)> {
        self.ports().filter(|(_, p)| p.kind == PortKind::Sink)
    }

    /// The internal edges incident to `cell`, with the neighbouring cell on
    /// the far side of each.
    pub fn neighbors(&self, cell: CellId) -> impl Iterator<Item = (EdgeId, CellId)> + '_ {
        Side::ALL.into_iter().filter_map(move |side| {
            let other = cell.neighbor(side, self.rows, self.cols)?;
            let edge = self
                .edge_between(cell, other)
                .expect("adjacent cells share an edge");
            Some((edge, other))
        })
    }

    /// The edge between two cells, or `None` when they are not orthogonally
    /// adjacent.
    pub fn edge_between(&self, a: CellId, b: CellId) -> Option<EdgeId> {
        let (nw, se) = if (a.row, a.col) <= (b.row, b.col) {
            (a, b)
        } else {
            (b, a)
        };
        if nw.row == se.row && nw.col + 1 == se.col {
            Some(EdgeId::horizontal(nw.row, nw.col))
        } else if nw.col == se.col && nw.row + 1 == se.row {
            Some(EdgeId::vertical(nw.row, nw.col))
        } else {
            None
        }
    }

    /// Whether fluid can cross edge `e` under test vector `vector` on a
    /// fault-free chip: channels are always passable, walls never, and a
    /// valve follows its commanded state.
    ///
    /// # Panics
    ///
    /// Panics if `vector` was built for a different valve count.
    pub fn edge_is_open(&self, e: EdgeId, vector: &TestVector) -> bool {
        match self.edge_kind(e) {
            EdgeKind::Open => true,
            EdgeKind::Wall => false,
            EdgeKind::Valve => {
                let v = self.valve_at(e).expect("valve edge has a valve id");
                vector.is_open(v)
            }
        }
    }

    /// Valves whose control channels are routed next to valve `v`'s: every
    /// valve on an edge touching either endpoint cell of `v`'s edge.
    ///
    /// This is the physical-adjacency relation used for control-layer
    /// leakage faults: leakage can only occur between control channels that
    /// run close to each other.
    pub fn valve_neighbors(&self, v: ValveId) -> Vec<ValveId> {
        let mut out = Vec::new();
        self.valve_neighbors_into(v, &mut out);
        out
    }

    /// [`Fpva::valve_neighbors`] written into `out`, which is cleared
    /// first, so a caller scanning many valves reuses one buffer.
    pub fn valve_neighbors_into(&self, v: ValveId, out: &mut Vec<ValveId>) {
        let edge = self.edge_of(v);
        let (a, b) = edge.endpoints();
        out.clear();
        for cell in [a, b] {
            for (e, _) in self.neighbors(cell) {
                if e == edge {
                    continue;
                }
                if let Some(n) = self.valve_at(e) {
                    if !out.contains(&n) {
                        out.push(n);
                    }
                }
            }
        }
        out.sort_unstable();
    }

    /// Cells on the chip boundary, clockwise starting at `(0, 0)`.
    pub fn boundary_cells(&self) -> Vec<CellId> {
        let (rows, cols) = (self.rows, self.cols);
        let mut out = Vec::new();
        if rows == 1 {
            for c in 0..cols {
                out.push(CellId::new(0, c));
            }
            return out;
        }
        if cols == 1 {
            for r in 0..rows {
                out.push(CellId::new(r, 0));
            }
            return out;
        }
        for c in 0..cols {
            out.push(CellId::new(0, c));
        }
        for r in 1..rows {
            out.push(CellId::new(r, cols - 1));
        }
        for c in (0..cols - 1).rev() {
            out.push(CellId::new(rows - 1, c));
        }
        for r in (1..rows - 1).rev() {
            out.push(CellId::new(r, 0));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FpvaBuilder;

    fn full(rows: usize, cols: usize) -> Fpva {
        FpvaBuilder::new(rows, cols)
            .port(0, 0, Side::West, PortKind::Source)
            .port(rows - 1, cols - 1, Side::East, PortKind::Sink)
            .build()
            .expect("valid layout")
    }

    #[test]
    fn full_grid_counts() {
        let f = full(4, 5);
        assert_eq!(f.cell_count(), 20);
        assert_eq!(f.edge_count(), 4 * 4 + 3 * 5);
        assert_eq!(f.valve_count(), f.edge_count());
        assert_eq!(f.sources().count(), 1);
        assert_eq!(f.sinks().count(), 1);
    }

    #[test]
    fn valve_edge_roundtrip() {
        let f = full(3, 3);
        for (v, e) in f.valves() {
            assert_eq!(f.valve_at(e), Some(v));
            assert_eq!(f.edge_of(v), e);
        }
    }

    #[test]
    fn neighbors_of_corner_and_center() {
        let f = full(3, 3);
        assert_eq!(f.neighbors(CellId::new(0, 0)).count(), 2);
        assert_eq!(f.neighbors(CellId::new(1, 1)).count(), 4);
        assert_eq!(f.neighbors(CellId::new(2, 1)).count(), 3);
    }

    #[test]
    fn edge_between_adjacency() {
        let f = full(3, 3);
        let a = CellId::new(1, 1);
        assert_eq!(
            f.edge_between(a, CellId::new(1, 2)),
            Some(EdgeId::horizontal(1, 1))
        );
        assert_eq!(
            f.edge_between(CellId::new(1, 2), a),
            Some(EdgeId::horizontal(1, 1))
        );
        assert_eq!(
            f.edge_between(a, CellId::new(2, 1)),
            Some(EdgeId::vertical(1, 1))
        );
        assert_eq!(f.edge_between(a, CellId::new(2, 2)), None);
        assert_eq!(f.edge_between(a, a), None);
    }

    #[test]
    fn edge_is_open_follows_vector() {
        let f = full(2, 2);
        let e = EdgeId::horizontal(0, 0);
        let v = f.valve_at(e).unwrap();
        let mut vec = TestVector::all_closed(f.valve_count());
        assert!(!f.edge_is_open(e, &vec));
        vec.set(v, crate::ValveState::Open);
        assert!(f.edge_is_open(e, &vec));
    }

    #[test]
    fn boundary_cells_cover_perimeter_once() {
        let f = full(4, 5);
        let b = f.boundary_cells();
        assert_eq!(b.len(), 2 * 4 + 2 * 5 - 4);
        let unique: std::collections::HashSet<_> = b.iter().copied().collect();
        assert_eq!(unique.len(), b.len());
        for c in &b {
            assert!(c.is_boundary(4, 5));
        }
        // Consecutive boundary cells are orthogonally adjacent (it is a cycle).
        for w in b.windows(2) {
            assert!(
                f.edge_between(w[0], w[1]).is_some(),
                "{} {} not adjacent",
                w[0],
                w[1]
            );
        }
        assert!(f.edge_between(b[0], *b.last().unwrap()).is_some());
    }

    #[test]
    fn boundary_cells_single_row() {
        let f = FpvaBuilder::new(1, 4)
            .port(0, 0, Side::West, PortKind::Source)
            .port(0, 3, Side::East, PortKind::Sink)
            .build()
            .unwrap();
        assert_eq!(f.boundary_cells().len(), 4);
    }

    #[test]
    fn valve_neighbors_center() {
        let f = full(3, 3);
        let e = EdgeId::horizontal(1, 0); // between (1,0) and (1,1)
        let v = f.valve_at(e).unwrap();
        let n = f.valve_neighbors(v);
        // (1,0) touches: V(0,0), V(1,0); (1,1) touches: V(0,1), V(1,1), H(1,1).
        assert_eq!(n.len(), 5);
        assert!(!n.contains(&v));
        let mut buffer = vec![v];
        for (w, _) in f.valves() {
            f.valve_neighbors_into(w, &mut buffer);
            assert_eq!(buffer, f.valve_neighbors(w));
        }
    }
}
