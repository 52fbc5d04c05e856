//! Exactness of the flow-path router: on small random chips, a
//! brute-force enumeration of every valid flow path decides which valves
//! are routable, and `Router::path_through_edge` must agree on every
//! valve, with and without each adjacent valve to avoid.
//!
//! A valid flow path is simple, starts at a source port's cell and ends at
//! a sink port's cell, visits every open component in one contiguous run,
//! and enters no component holding a source port other than its first.
//! A valve counts as crossed only when its cells lie in different open
//! components (inside one component the channel bypasses it).

mod common;

use common::SMALL_CHIPS;
use fpva::atpg::connectivity::{endpoint_ports, Router, Routing};
use fpva::grid::{CellId, ChipGraph, EdgeId, EdgeKind, PortKind};
use fpva::{layouts, FlowPath, Fpva};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Depth-first enumeration of valid flow paths; see the module docs.
struct Enumerator<'a> {
    fpva: &'a Fpva,
    comp: Vec<usize>,
    source_comp: Vec<bool>,
    sink_cell: Vec<bool>,
    visited: Vec<bool>,
    /// Components already left by the path so far.
    closed: Vec<bool>,
    /// Valve-id bit masks of the valves each valid path crosses.
    found: Vec<u64>,
}

impl Enumerator<'_> {
    fn extend(&mut self, cell: CellId, crossed: u64) {
        let ix = self.fpva.cell_index(cell);
        if self.sink_cell[ix] {
            self.found.push(crossed);
        }
        for (edge, next) in self.fpva.neighbors(cell) {
            let nx = self.fpva.cell_index(next);
            if self.fpva.edge_kind(edge) == EdgeKind::Wall || self.visited[nx] {
                continue;
            }
            let (here, there) = (self.comp[ix], self.comp[nx]);
            let leaves = here != there;
            if leaves && (self.closed[there] || self.source_comp[there]) {
                continue;
            }
            let bit = self.fpva.valve_at(edge).map_or(0, |v| 1u64 << v.index());
            self.visited[nx] = true;
            let was_closed = self.closed[here];
            self.closed[here] = was_closed || leaves;
            self.extend(next, crossed | bit);
            self.closed[here] = was_closed;
            self.visited[nx] = false;
        }
    }
}

fn valid_path_masks(fpva: &Fpva) -> Vec<u64> {
    let comp = ChipGraph::new(fpva).components().to_vec();
    let n = comp.iter().max().map_or(0, |&m| m + 1);
    let mut source_comp = vec![false; n];
    let mut sink_cell = vec![false; fpva.cell_count()];
    for (_, port) in fpva.ports() {
        let ix = fpva.cell_index(port.cell);
        match port.kind {
            PortKind::Source => source_comp[comp[ix]] = true,
            PortKind::Sink => sink_cell[ix] = true,
        }
    }
    let mut e = Enumerator {
        fpva,
        comp,
        source_comp,
        sink_cell,
        visited: vec![false; fpva.cell_count()],
        closed: vec![false; n],
        found: Vec::new(),
    };
    let mut starts: Vec<CellId> = fpva.sources().map(|(_, p)| p.cell).collect();
    starts.sort_unstable();
    starts.dedup();
    for start in starts {
        e.visited[fpva.cell_index(start)] = true;
        e.extend(start, 0);
        e.visited[fpva.cell_index(start)] = false;
    }
    e.found.sort_unstable();
    e.found.dedup();
    e.found
}

fn crosses(fpva: &Fpva, cells: &[CellId], edge: EdgeId) -> bool {
    cells
        .windows(2)
        .any(|w| fpva.edge_between(w[0], w[1]) == Some(edge))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn router_finds_a_path_iff_one_exists(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let f = layouts::generated(&SMALL_CHIPS, &mut |range| rng.gen_range(range));
        let masks = valid_path_masks(&f);
        let comp = ChipGraph::new(&f).components().to_vec();
        let router = Router::new(&f);
        let mut routing = Routing::default();
        let prefer = |v: fpva::ValveId| (f.edge_index(f.edge_of(v)) as u64 ^ seed).is_multiple_of(3);
        for (valve, edge) in f.valves() {
            let (u, v) = edge.endpoints();
            let separate = comp[f.cell_index(u)] != comp[f.cell_index(v)];
            let avoids = std::iter::once(None).chain(f.valve_neighbors(valve).into_iter().map(Some));
            for avoid in avoids {
                let bit = |x: fpva::ValveId| 1u64 << x.index();
                let exists = separate
                    && masks.iter().any(|&m| {
                        m & bit(valve) != 0 && avoid.is_none_or(|a| m & bit(a) == 0)
                    });
                let avoided: Vec<fpva::ValveId> = avoid.into_iter().collect();
                let got = router.path_through_edge(&mut routing, edge, &avoided, &prefer, &mut rng);
                prop_assert_eq!(
                    got.is_some(),
                    exists,
                    "valve {} avoiding {:?} on {:?}",
                    valve,
                    avoid,
                    f
                );
                let Some(cells) = got else { continue };
                let (src, snk) = endpoint_ports(&f, &cells).expect("routes end at port cells");
                let path = FlowPath::new(&f, src, snk, cells.clone());
                prop_assert!(path.is_ok(), "invalid path {:?}: {:?}", cells, path);
                prop_assert!(crosses(&f, &cells, edge), "path {:?} skips {}", cells, edge);
                for &a in &avoided {
                    prop_assert!(!crosses(&f, &cells, f.edge_of(a)), "path {:?} crosses {}", cells, a);
                }
                let first = comp[f.cell_index(cells[0])];
                prop_assert!(
                    cells.iter().all(|&c| {
                        comp[f.cell_index(c)] == first
                            || f.sources().all(|(_, p)| comp[f.cell_index(p.cell)] != comp[f.cell_index(c)])
                    }),
                    "path {:?} passes a second source",
                    cells
                );
            }
        }
    }
}
