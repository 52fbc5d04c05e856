//! The lowered chip graph: the one lowering of a chip that routing, cut
//! decisions, the bit-parallel simulator and the static lint all read.
//!
//! Pressure spreads freely through a transportation channel, so the paper
//! treats a channel as one pressure region, and a flow path may visit it
//! only in one contiguous run (the interference of its Fig. 5(a)).
//! [`ChipGraph`] contracts every *open component*, the cells joined by
//! always-open channel sites (a channel, or a lone cell), to one node and
//! joins two nodes by one arc per valve between them. Walls are no arcs.
//!
//! A valve whose two cells share a node is bypassed by its channel: it has
//! no arc, and neither its command nor a fault on it changes where pressure
//! goes. Faults touch valves only, so the cells of one node share pressure
//! in every scenario, and a flood over the nodes decides what a flood over
//! the cells does.
//!
//! The graph is flat and owned: the arcs leaving each node are one run of a
//! single array of 8-byte `(node, valve)` pairs, found by per-node offsets,
//! so a search reads consecutive memory and compares valves by id, and
//! threads can share one graph.

use crate::array::{EdgeKind, Fpva, PortKind};
use crate::vector::ValveId;

/// One arc of a [`ChipGraph`]: a valve between two open components.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arc {
    /// The node on the far side.
    pub to: u32,
    /// The valve the arc crosses, by [`ValveId::index`].
    pub valve: u32,
}

/// A chip's flow layer with every open component contracted to one node;
/// see the [module documentation](self).
///
/// Nodes are numbered in the scan order of their first cell, row-major, so
/// a chip without channels numbers its nodes as [`Fpva::cell_index`]
/// numbers its cells. An obstacle cell is a node without arcs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChipGraph {
    /// Node of each cell, by [`Fpva::cell_index`].
    node: Vec<usize>,
    /// The arcs leaving node `x` are `arcs[offsets[x]..offsets[x + 1]]`,
    /// in valve order.
    offsets: Vec<usize>,
    arcs: Vec<Arc>,
    /// The two endpoint nodes of each valve, by [`ValveId::index`]: those
    /// of its cells, in the order [`Fpva::valve_endpoints`] gives them.
    valve_nodes: Vec<[u32; 2]>,
    /// Per node, whether it holds a source port's cell, and a sink port's.
    source: Vec<bool>,
    sink: Vec<bool>,
    /// The source nodes, ascending.
    sources: Vec<u32>,
    /// The node of each sink port, in port order.
    sink_ports: Vec<u32>,
}

/// A node, valve or arc index as stored in the graph's arrays.
fn id(x: usize) -> u32 {
    u32::try_from(x).expect("a chip's lowering has fewer than 2^32 nodes and arcs")
}

impl ChipGraph {
    /// Lowers `fpva`: one scan over its cells and one over its valves.
    pub fn new(fpva: &Fpva) -> Self {
        let node = open_components(fpva);
        let n = node.iter().max().map_or(0, |&m| m + 1);
        let valve_nodes: Vec<[u32; 2]> = fpva
            .valves()
            .map(|(_, edge)| {
                let (a, b) = edge.endpoints();
                [id(node[fpva.cell_index(a)]), id(node[fpva.cell_index(b)])]
            })
            .collect();
        // The valves between two nodes, with their nodes.
        let between = || {
            valve_nodes
                .iter()
                .enumerate()
                .filter(|(_, [x, y])| x != y)
                .map(|(v, &[x, y])| (id(v), x as usize, y as usize))
        };
        let mut offsets = vec![0; n + 1];
        for (_, x, y) in between() {
            offsets[x + 1] += 1;
            offsets[y + 1] += 1;
        }
        for x in 0..n {
            offsets[x + 1] += offsets[x];
        }
        let mut fill = offsets[..n].to_vec();
        let mut arcs = vec![Arc { to: 0, valve: 0 }; offsets[n]];
        for (valve, x, y) in between() {
            for (from, to) in [(x, y), (y, x)] {
                arcs[fill[from]] = Arc { to: id(to), valve };
                fill[from] += 1;
            }
        }
        let mut source = vec![false; n];
        let mut sink = vec![false; n];
        let mut sink_ports = Vec::new();
        for (_, port) in fpva.ports() {
            let x = node[fpva.cell_index(port.cell)];
            match port.kind {
                PortKind::Source => source[x] = true,
                PortKind::Sink => {
                    sink[x] = true;
                    sink_ports.push(id(x));
                }
            }
        }
        let sources = (0..n).filter(|&x| source[x]).map(id).collect();
        ChipGraph {
            node,
            offsets,
            arcs,
            valve_nodes,
            source,
            sink,
            sources,
            sink_ports,
        }
    }

    /// The number of nodes.
    pub fn node_count(&self) -> usize {
        self.source.len()
    }

    /// The number of valves of the chip, bypassed ones included.
    pub fn valve_count(&self) -> usize {
        self.valve_nodes.len()
    }

    /// The number of arcs, two per valve between two nodes.
    pub fn arc_count(&self) -> usize {
        self.arcs.len()
    }

    /// The node of each cell, by [`Fpva::cell_index`].
    pub fn components(&self) -> &[usize] {
        &self.node
    }

    /// The node of the cell with dense index `cell` ([`Fpva::cell_index`]).
    #[inline]
    pub fn node(&self, cell: usize) -> usize {
        self.node[cell]
    }

    /// The arcs leaving node `x`, in valve order.
    #[inline]
    pub fn arcs(&self, x: usize) -> &[Arc] {
        &self.arcs[self.offsets[x]..self.offsets[x + 1]]
    }

    /// The position of node `x`'s first arc among all arcs: node by node,
    /// each node's arcs in valve order.
    pub fn arc_offset(&self, x: usize) -> usize {
        self.offsets[x]
    }

    /// The endpoint nodes of valve `v`, equal when a channel bypasses it.
    #[inline]
    pub fn valve_nodes(&self, v: ValveId) -> [u32; 2] {
        self.valve_nodes[v.index()]
    }

    /// Per node, whether it holds a source port's cell.
    pub fn source_flags(&self) -> &[bool] {
        &self.source
    }

    /// Per node, whether it holds a sink port's cell.
    pub fn sink_flags(&self) -> &[bool] {
        &self.sink
    }

    /// The nodes holding a source port's cell, ascending.
    pub fn source_nodes(&self) -> &[u32] {
        &self.sources
    }

    /// The node of each sink port, in port order, so the list is parallel
    /// to the readings of a sink response.
    pub fn sink_port_nodes(&self) -> &[u32] {
        &self.sink_ports
    }

    /// Marks in `seen` the nodes reachable from those holding a port of
    /// kind `from`, across the valves that `closed` (indexed by
    /// [`ValveId::index`]) leaves open. Channel sites are inside nodes and
    /// walls are no arcs, so neither needs a check. Returns `false` when
    /// the flood reaches a node holding a port of the other kind; with
    /// `stop` set it returns there, and `seen` is partial.
    pub fn flood(
        &self,
        from: PortKind,
        closed: &[bool],
        stop: bool,
        seen: &mut [bool],
        stack: &mut Vec<usize>,
    ) -> bool {
        let (starts, stops) = match from {
            PortKind::Source => (&self.source, &self.sink),
            PortKind::Sink => (&self.sink, &self.source),
        };
        seen.fill(false);
        stack.clear();
        for (x, _) in starts.iter().enumerate().filter(|(_, &start)| start) {
            seen[x] = true;
            stack.push(x);
        }
        let mut apart = true;
        while let Some(x) = stack.pop() {
            if stops[x] {
                apart = false;
                if stop {
                    return false;
                }
            }
            for arc in self.arcs(x) {
                let y = arc.to as usize;
                if !seen[y] && !closed[arc.valve as usize] {
                    seen[y] = true;
                    stack.push(y);
                }
            }
        }
        apart
    }
}

/// Component id per cell (indexed by [`Fpva::cell_index`]): cells joined
/// by always-open channel sites share one, numbered in the scan order of
/// their first cell.
fn open_components(fpva: &Fpva) -> Vec<usize> {
    let mut comp = vec![usize::MAX; fpva.cell_count()];
    let mut stack = Vec::new();
    let mut next = 0usize;
    for cell in fpva.cells() {
        let ix = fpva.cell_index(cell);
        if comp[ix] != usize::MAX {
            continue;
        }
        comp[ix] = next;
        stack.push(cell);
        while let Some(c) = stack.pop() {
            for (edge, n) in fpva.neighbors(c) {
                if fpva.edge_kind(edge) == EdgeKind::Open {
                    let ni = fpva.cell_index(n);
                    if comp[ni] == usize::MAX {
                        comp[ni] = next;
                        stack.push(n);
                    }
                }
            }
        }
        next += 1;
    }
    comp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{CellId, Side};
    use crate::layouts::{self, GenSpec, PortRule};
    use crate::FpvaBuilder;

    /// A channel on row 1 and one on row 2, joined by a column-0 channel:
    /// the valves between the two rows' other cells have both cells in one
    /// node, so they get no arc.
    #[test]
    fn bypassed_valves_have_equal_endpoint_nodes_and_no_arc() {
        let f = FpvaBuilder::new(4, 4)
            .channel_horizontal(1, 0, 2)
            .channel_horizontal(2, 0, 2)
            .channel_vertical(0, 1, 2)
            .port(0, 0, Side::West, PortKind::Source)
            .port(3, 3, Side::East, PortKind::Sink)
            .build()
            .unwrap();
        let graph = ChipGraph::new(&f);
        let bypassed: Vec<ValveId> = f
            .valves()
            .map(|(v, _)| v)
            .filter(|&v| graph.valve_nodes(v)[0] == graph.valve_nodes(v)[1])
            .collect();
        assert_eq!(bypassed, [ValveId(12), ValveId(13)]);
        for v in bypassed {
            let [x, _] = graph.valve_nodes(v);
            let valve = u32::try_from(v.index()).unwrap();
            assert!((0..graph.node_count()).all(|y| graph.arcs(y).iter().all(|a| a.valve != valve)));
            assert_eq!(graph.node(f.cell_index(CellId::new(1, 1))), x as usize);
        }
        assert_eq!(graph.arc_count(), 2 * (f.valve_count() - 2));
    }

    /// Chips of 1–12 cells a side with up to four channels of either
    /// orientation and one to three ports of each kind on the boundary.
    const GRAPH_CHIPS: GenSpec = GenSpec {
        sides: 1..13,
        channels: 0..5,
        vertical_channels: true,
        ports: PortRule::Boundary(1..4),
    };

    /// SplitMix64: draws for [`layouts::generated`] without a `rand`
    /// dependency.
    struct Draws(u64);

    impl Draws {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn range(&mut self, range: std::ops::Range<usize>) -> usize {
            range.start + (self.next() % range.len() as u64) as usize
        }
    }

    /// The cells reachable from `starts` across the channel sites and the
    /// valves `closed` leaves open: the plain cell-level search the graph's
    /// floods replace.
    fn cell_search(f: &Fpva, starts: &[CellId], closed: &[bool]) -> Vec<bool> {
        let mut seen = vec![false; f.cell_count()];
        let mut stack: Vec<CellId> = Vec::new();
        for &cell in starts {
            if !std::mem::replace(&mut seen[f.cell_index(cell)], true) {
                stack.push(cell);
            }
        }
        while let Some(cell) = stack.pop() {
            for (edge, next) in f.neighbors(cell) {
                let open = match f.edge_kind(edge) {
                    EdgeKind::Open => true,
                    EdgeKind::Wall => false,
                    EdgeKind::Valve => !closed[f.valve_at(edge).unwrap().index()],
                };
                if open && !std::mem::replace(&mut seen[f.cell_index(next)], true) {
                    stack.push(next);
                }
            }
        }
        seen
    }

    /// Checks the graph of `f` against the cell-level definitions: nodes
    /// are the channel components, numbered by first cell; each valve's
    /// endpoint nodes are its cells', and it has an arc at both exactly
    /// when they differ; the port flags and lists follow the ports; and
    /// under `masks` random closed-valve sets, both floods, run to the end
    /// and stopped early, agree with [`cell_search`] cell by cell. Returns
    /// the floods checked, those that met the other port kind, and the
    /// bypassed valves seen.
    fn check_graph(f: &Fpva, masks: usize, draws: &mut Draws) -> [usize; 3] {
        let graph = ChipGraph::new(f);
        let mut first = Vec::new();
        for c in 0..f.cell_count() {
            let x = graph.node(c);
            if x == first.len() {
                first.push(c);
            }
            assert!(x < first.len(), "nodes number first cells in scan order");
        }
        assert_eq!(graph.node_count(), first.len());
        let all_closed = vec![true; f.valve_count()];
        let mut size = vec![0; first.len()];
        for c in 0..f.cell_count() {
            size[graph.node(c)] += 1;
        }
        for (x, &c) in first.iter().enumerate() {
            let channel = cell_search(f, &[f.cell_at(c)], &all_closed);
            let cells: Vec<usize> = (0..f.cell_count()).filter(|&d| channel[d]).collect();
            assert_eq!(cells.len(), size[x], "node {x} is its first cell's channel");
            assert!(cells.iter().all(|&d| graph.node(d) == x));
        }
        let mut bypassed = 0;
        for (v, edge) in f.valves() {
            let (a, b) = edge.endpoints();
            let [x, y] = [a, b].map(|c| graph.node(f.cell_index(c)));
            assert_eq!(graph.valve_nodes(v), [x, y].map(|n| n as u32));
            let valve = v.index() as u32;
            let at = |n: usize, m: usize| {
                graph.arcs(n).contains(&Arc {
                    to: m as u32,
                    valve,
                })
            };
            assert_eq!(at(x, y) && at(y, x), x != y, "{v}");
            bypassed += usize::from(x == y);
        }
        for x in 0..graph.node_count() {
            let valves: Vec<u32> = graph.arcs(x).iter().map(|a| a.valve).collect();
            assert!(
                valves.windows(2).all(|w| w[0] < w[1]),
                "arcs in valve order"
            );
        }
        let holds = |kind: PortKind, x: usize| {
            f.ports()
                .any(|(_, p)| p.kind == kind && graph.node(f.cell_index(p.cell)) == x)
        };
        for x in 0..graph.node_count() {
            assert_eq!(graph.source_flags()[x], holds(PortKind::Source, x));
            assert_eq!(graph.sink_flags()[x], holds(PortKind::Sink, x));
        }
        let sources: Vec<u32> = (0..graph.node_count())
            .filter(|&x| holds(PortKind::Source, x))
            .map(|x| x as u32)
            .collect();
        assert_eq!(graph.source_nodes(), sources);
        let sinks: Vec<u32> = f
            .sinks()
            .map(|(_, p)| graph.node(f.cell_index(p.cell)) as u32)
            .collect();
        assert_eq!(graph.sink_port_nodes(), sinks);
        let (mut floods, mut met) = (0, 0);
        let mut seen = vec![false; graph.node_count()];
        let mut stack = Vec::new();
        for k in 0..masks {
            let density = [0, 1, 2, 3][k % 4];
            let closed: Vec<bool> = (0..f.valve_count())
                .map(|_| draws.range(0..4) < density)
                .collect();
            for from in [PortKind::Source, PortKind::Sink] {
                let other = match from {
                    PortKind::Source => PortKind::Sink,
                    PortKind::Sink => PortKind::Source,
                };
                let starts: Vec<CellId> = f
                    .ports()
                    .filter(|(_, p)| p.kind == from)
                    .map(|(_, p)| p.cell)
                    .collect();
                let cells = cell_search(f, &starts, &closed);
                let meets = f
                    .ports()
                    .any(|(_, p)| p.kind == other && cells[f.cell_index(p.cell)]);
                let apart = graph.flood(from, &closed, false, &mut seen, &mut stack);
                assert_eq!(apart, !meets);
                for c in 0..f.cell_count() {
                    assert_eq!(seen[graph.node(c)], cells[c], "cell {c} from {from:?}");
                }
                let stopped = graph.flood(from, &closed, true, &mut seen, &mut stack);
                assert_eq!(stopped, apart);
                if apart {
                    let full = cells
                        .iter()
                        .enumerate()
                        .all(|(c, &r)| seen[graph.node(c)] == r);
                    assert!(full, "an unstopped flood runs to the end");
                }
                floods += 1;
                met += usize::from(meets);
            }
        }
        [floods, met, bypassed]
    }

    /// Table I, `custom_biochip` and `chips` chips of [`GRAPH_CHIPS`].
    fn check_graphs(chips: usize, masks: usize, seed: u64) -> [usize; 3] {
        let mut draws = Draws(seed);
        let mut fixed: Vec<Fpva> = layouts::table1().into_iter().map(|e| e.fpva).collect();
        fixed.push(layouts::custom_biochip());
        let generated: Vec<Fpva> = (0..chips)
            .map(|_| layouts::generated(&GRAPH_CHIPS, &mut |r| draws.range(r)))
            .collect();
        fixed.iter().chain(&generated).fold([0; 3], |sum, f| {
            let got = check_graph(f, masks, &mut draws);
            [0, 1, 2].map(|i| sum[i] + got[i])
        })
    }

    #[test]
    fn node_floods_match_cell_floods() {
        let [floods, met, bypassed] = check_graphs(200, 8, 0x6A4F);
        assert!(
            met > floods / 4 && met < floods * 3 / 4 && bypassed > 0,
            "{met} of {floods} floods met the other kind; {bypassed} bypassed valves"
        );
    }

    #[test]
    #[ignore = "release-only: thousands of chips, slow in a debug build"]
    fn node_floods_match_cell_floods_at_scale() {
        let [floods, met, bypassed] = check_graphs(5000, 16, 0x6A50);
        assert!(
            met > floods / 4 && met < floods * 3 / 4 && bypassed > 10,
            "{met} of {floods} floods met the other kind; {bypassed} bypassed valves"
        );
    }
}
