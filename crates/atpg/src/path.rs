//! Simple source→sink flow paths (Section III-A/B of the paper).

use crate::connectivity::components_contiguous;
use crate::error::AtpgError;
use fpva_grid::{
    CellId, ChipGraph, EdgeId, EdgeKind, Fpva, PortId, PortKind, TestVector, ValveId, ValveState,
};
use serde::{Deserialize, Serialize};

/// A *flow path*: a simple (loop- and branch-free) sequence of cells from a
/// source port to a sink port.
///
/// Opening exactly the valves along one flow path and closing everything
/// else yields a test vector whose fault-free response shows pressure at
/// the path's sink; a stuck-at-0 valve on the path removes that pressure.
/// Simplicity matters: a second parallel route would mask the fault
/// (paper's Fig. 5(a)), which is why paths are validated to be simple.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowPath {
    source: PortId,
    sink: PortId,
    cells: Vec<CellId>,
}

impl FlowPath {
    /// Builds and validates a flow path.
    ///
    /// # Errors
    ///
    /// Returns [`AtpgError::InvalidPath`] unless all of the following hold:
    /// both port ids exist on `fpva`; the cell list is non-empty and free
    /// of repetitions; the first cell carries source port `source` and the
    /// last carries sink port `sink`; consecutive cells are orthogonally
    /// adjacent; no traversed edge is a wall; every open component
    /// (channel) is visited in one contiguous run; and no component after
    /// the first holds a source port.
    pub fn new(
        fpva: &Fpva,
        source: PortId,
        sink: PortId,
        cells: Vec<CellId>,
    ) -> Result<Self, AtpgError> {
        Self::with_components(fpva, ChipGraph::new(fpva).components(), source, sink, cells)
    }

    /// [`FlowPath::new`] with the chip's [`ChipGraph::components`] map
    /// already at hand, as a [`crate::connectivity::Router`] holds it.
    pub(crate) fn with_components(
        fpva: &Fpva,
        components: &[usize],
        source: PortId,
        sink: PortId,
        cells: Vec<CellId>,
    ) -> Result<Self, AtpgError> {
        let invalid = |reason: String| AtpgError::InvalidPath { reason };
        if cells.is_empty() {
            return Err(invalid("empty cell list".into()));
        }
        if let Some(port) = [source, sink]
            .into_iter()
            .find(|p| p.0 >= fpva.port_count())
        {
            return Err(invalid(format!("port {port} does not exist")));
        }
        let src_port = fpva.port(source);
        let snk_port = fpva.port(sink);
        if src_port.kind != PortKind::Source {
            return Err(invalid(format!("port {source} is not a source")));
        }
        if snk_port.kind != PortKind::Sink {
            return Err(invalid(format!("port {sink} is not a sink")));
        }
        if cells[0] != src_port.cell {
            return Err(invalid(format!(
                "path starts at {} but source port opens into {}",
                cells[0], src_port.cell
            )));
        }
        if *cells.last().expect("non-empty") != snk_port.cell {
            return Err(invalid(format!(
                "path ends at {} but sink port opens into {}",
                cells.last().expect("non-empty"),
                snk_port.cell
            )));
        }
        let mut seen = vec![false; fpva.cell_count()];
        for &c in &cells {
            if c.row >= fpva.rows() || c.col >= fpva.cols() {
                return Err(invalid(format!("cell {c} outside the array")));
            }
            if std::mem::replace(&mut seen[fpva.cell_index(c)], true) {
                return Err(invalid(format!("cell {c} repeats; path must be simple")));
            }
        }
        for pair in cells.windows(2) {
            let Some(edge) = fpva.edge_between(pair[0], pair[1]) else {
                return Err(invalid(format!(
                    "cells {} and {} are not adjacent",
                    pair[0], pair[1]
                )));
            };
            if fpva.edge_kind(edge) == EdgeKind::Wall {
                return Err(invalid(format!("edge {edge} is a wall")));
            }
        }
        // Channel contiguity: pressure spreads freely through always-open
        // channel sites, so revisiting a channel component after leaving it
        // creates an implicit loop that can mask stuck-at-0 faults on the
        // path (the same interference the paper's Fig. 5(a) forbids).
        if !components_contiguous(fpva, components, &cells) {
            return Err(invalid(
                "path re-enters a transportation channel, creating a pressure bypass loop".into(),
            ));
        }
        // A second pressure inlet feeds everything downstream of it on its
        // own, masking the valves upstream, so no component after the
        // first may hold a source port.
        let comp = |c: CellId| components[fpva.cell_index(c)];
        let first = comp(cells[0]);
        if let Some((inlet, _)) = fpva
            .sources()
            .find(|(_, p)| comp(p.cell) != first && cells.iter().any(|&c| comp(c) == comp(p.cell)))
        {
            return Err(invalid(format!(
                "path passes source port {inlet}, a second inlet that masks the valves upstream"
            )));
        }
        Ok(FlowPath {
            source,
            sink,
            cells,
        })
    }

    /// The source port the path starts from.
    pub fn source(&self) -> PortId {
        self.source
    }

    /// The sink port the path ends at.
    pub fn sink(&self) -> PortId {
        self.sink
    }

    /// The cells visited, source end first.
    pub fn cells(&self) -> &[CellId] {
        &self.cells
    }

    /// Number of cells on the path.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` for a single-cell path (source and sink on the same cell).
    pub fn is_empty(&self) -> bool {
        false // a validated path always has at least one cell
    }

    /// The lattice edges traversed, in order.
    pub fn edges(&self, fpva: &Fpva) -> Vec<EdgeId> {
        self.cells
            .windows(2)
            .map(|p| fpva.edge_between(p[0], p[1]).expect("validated adjacency"))
            .collect()
    }

    /// The real valves traversed (edges of kind `Valve`), in order.
    /// Channel edges on the path carry no valve and are skipped.
    pub fn valves(&self, fpva: &Fpva) -> Vec<ValveId> {
        self.edges(fpva)
            .into_iter()
            .filter_map(|e| fpva.valve_at(e))
            .collect()
    }

    /// The test vector realising this path: path valves open, every other
    /// valve closed.
    pub fn to_vector(&self, fpva: &Fpva) -> TestVector {
        let mut v = TestVector::all_closed(fpva.valve_count());
        for valve in self.valves(fpva) {
            v.set(valve, ValveState::Open);
        }
        v
    }

    /// Whether the path passes through the given valve.
    pub fn covers(&self, fpva: &Fpva, valve: ValveId) -> bool {
        let edge = fpva.edge_of(valve);
        self.cells
            .windows(2)
            .any(|p| fpva.edge_between(p[0], p[1]) == Some(edge))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpva_grid::{layouts, FpvaBuilder, Side};

    fn grid3() -> Fpva {
        layouts::full_array(3, 3)
    }

    fn ports(f: &Fpva) -> (PortId, PortId) {
        let src = f.sources().next().unwrap().0;
        let snk = f.sinks().next().unwrap().0;
        (src, snk)
    }

    fn cells(spec: &[(usize, usize)]) -> Vec<CellId> {
        spec.iter().map(|&(r, c)| CellId::new(r, c)).collect()
    }

    #[test]
    fn straight_diagonal_path() {
        let f = grid3();
        let (src, snk) = ports(&f);
        let p = FlowPath::new(
            &f,
            src,
            snk,
            cells(&[(0, 0), (0, 1), (1, 1), (2, 1), (2, 2)]),
        )
        .expect("valid path");
        assert_eq!(p.len(), 5);
        assert_eq!(p.edges(&f).len(), 4);
        assert_eq!(p.valves(&f).len(), 4);
        let vec = p.to_vector(&f);
        assert_eq!(vec.open_count(), 4);
        assert!(p.covers(&f, p.valves(&f)[0]));
    }

    #[test]
    fn rejects_wrong_endpoints() {
        let f = grid3();
        let (src, snk) = ports(&f);
        let err = FlowPath::new(&f, src, snk, cells(&[(0, 1), (0, 2)])).unwrap_err();
        assert!(matches!(err, AtpgError::InvalidPath { .. }));
        let err = FlowPath::new(&f, src, snk, cells(&[(0, 0), (0, 1)])).unwrap_err();
        assert!(matches!(err, AtpgError::InvalidPath { .. }));
    }

    #[test]
    fn rejects_repeats_and_gaps() {
        let f = grid3();
        let (src, snk) = ports(&f);
        // Repetition.
        let err = FlowPath::new(
            &f,
            src,
            snk,
            cells(&[(0, 0), (0, 1), (0, 0), (1, 0), (2, 0), (2, 1), (2, 2)]),
        )
        .unwrap_err();
        assert!(matches!(err, AtpgError::InvalidPath { .. }));
        // Gap (diagonal step).
        let err = FlowPath::new(&f, src, snk, cells(&[(0, 0), (1, 1), (2, 2)])).unwrap_err();
        assert!(matches!(err, AtpgError::InvalidPath { .. }));
    }

    #[test]
    fn rejects_wall_edges() {
        let f = FpvaBuilder::new(1, 3)
            .obstacle(0, 1, 0, 1)
            .port(0, 0, Side::West, fpva_grid::PortKind::Source)
            .port(0, 2, Side::East, fpva_grid::PortKind::Sink)
            .build()
            .unwrap();
        let (src, snk) = ports(&f);
        let err = FlowPath::new(&f, src, snk, cells(&[(0, 0), (0, 1), (0, 2)])).unwrap_err();
        assert!(matches!(err, AtpgError::InvalidPath { .. }));
    }

    #[test]
    fn channel_edges_carry_no_valves() {
        let f = FpvaBuilder::new(1, 4)
            .channel_horizontal(0, 1, 2)
            .port(0, 0, Side::West, fpva_grid::PortKind::Source)
            .port(0, 3, Side::East, fpva_grid::PortKind::Sink)
            .build()
            .unwrap();
        let (src, snk) = ports(&f);
        let p = FlowPath::new(&f, src, snk, cells(&[(0, 0), (0, 1), (0, 2), (0, 3)])).unwrap();
        assert_eq!(p.edges(&f).len(), 3);
        assert_eq!(p.valves(&f).len(), 2, "the channel edge carries no valve");
    }

    #[test]
    fn single_cell_path_when_ports_share_cell() {
        let f = FpvaBuilder::new(1, 1)
            .port(0, 0, Side::West, fpva_grid::PortKind::Source)
            .port(0, 0, Side::East, fpva_grid::PortKind::Sink)
            .build()
            .unwrap();
        let (src, snk) = ports(&f);
        let p = FlowPath::new(&f, src, snk, cells(&[(0, 0)])).unwrap();
        assert_eq!(p.len(), 1);
        assert!(p.valves(&f).is_empty());
        assert!(!p.is_empty());
    }

    #[test]
    fn rejects_a_second_source_mid_path() {
        // A 1x4 pipeline with a second source on (0,2): pressure entering
        // there reaches the sink on its own and masks the first two valves.
        let f = FpvaBuilder::new(1, 4)
            .port(0, 0, Side::West, fpva_grid::PortKind::Source)
            .port(0, 2, Side::North, fpva_grid::PortKind::Source)
            .port(0, 3, Side::East, fpva_grid::PortKind::Sink)
            .build()
            .unwrap();
        let mut sources = f.sources().map(|(id, _)| id);
        let (first, second) = (sources.next().unwrap(), sources.next().unwrap());
        let snk = f.sinks().next().unwrap().0;
        let err =
            FlowPath::new(&f, first, snk, cells(&[(0, 0), (0, 1), (0, 2), (0, 3)])).unwrap_err();
        assert!(matches!(err, AtpgError::InvalidPath { .. }));
        // The same pipe from the second inlet on is a valid path.
        FlowPath::new(&f, second, snk, cells(&[(0, 2), (0, 3)])).unwrap();
    }

    #[test]
    fn source_sink_port_roles_enforced() {
        let f = grid3();
        let (src, snk) = ports(&f);
        let err = FlowPath::new(&f, snk, src, cells(&[(2, 2), (0, 0)])).unwrap_err();
        assert!(matches!(err, AtpgError::InvalidPath { .. }));
    }

    #[test]
    fn rejects_unknown_port_ids() {
        let f = grid3();
        let (src, snk) = ports(&f);
        let path = cells(&[(0, 0), (0, 1), (0, 2), (1, 2), (2, 2)]);
        FlowPath::new(&f, src, snk, path.clone()).expect("valid path");
        let unknown = PortId(f.port_count());
        for (s, t) in [(unknown, snk), (src, unknown), (PortId(7), PortId(1))] {
            let err = FlowPath::new(&f, s, t, path.clone()).unwrap_err();
            assert!(matches!(err, AtpgError::InvalidPath { .. }), "{err:?}");
        }
    }
}
