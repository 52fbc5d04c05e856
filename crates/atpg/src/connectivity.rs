//! Graph utilities over the valve lattice: reachability, open components
//! and the exact flow-path router behind the greedy path cover and the
//! leakage generator.
//!
//! # Routing
//!
//! [`Router`] contracts every open component (a transportation channel,
//! or a lone cell) to one node, joined by one arc per valve between two
//! components. The paper's channel-contiguity rule then says exactly that
//! a flow path is a simple path in this contracted graph. A flow path
//! through valve `(u, v)` is two node-disjoint paths: one from `u`'s or
//! `v`'s node to a source node, one from the other endpoint to a sink
//! node. A unit-capacity max-flow with node splitting decides in
//! O(V + E) whether such a pair exists (Menger's theorem), so
//! [`Router::path_through_edge`] returns `None` only when no valid path
//! exists.
//!
//! A valid path starts at a source port's cell, ends at a sink port's cell,
//! visits every open component in one contiguous run, and enters no
//! component holding a source port other than its first: a second
//! pressure inlet would feed everything downstream of it and mask the
//! valves upstream. Meters in the middle of a path are harmless, since
//! every meter is read. A valve whose two cells share an open component
//! is bypassed by the channel, so no valid path can test it.
//!
//! Construction never backtracks. The source side's flow witness is held
//! back while a guided walk grows the sink side from the other endpoint.
//! Then a second walk grows the source side around it. Each step takes an
//! arc after which the walk's port class is still reachable: a `prefer`red
//! arc if there is one, otherwise any, the random stream breaking ties.
//! The walks wander rather than take shortest routes, so a path sweeps
//! the array the way the greedy cover and leakage generator need. Each
//! component on the result is then expanded back to cells along its
//! always-open edges.
//!
//! A walk keeps one invariant: the node it stands on reached the port
//! class before the walk blocked it. So some neighbour still does, and a
//! lone candidate neighbour needs no check. Several candidates are decided
//! by interleaved breadth-first searches, one per candidate node, each
//! expanding one node per round (the trick of Even and Shiloach, "An
//! On-Line Edge-Deletion Problem", J. ACM 1981, for connectivity under
//! deletions). Searches that meet merge. A search that
//! meets an unblocked node of the port class is feasible; one that runs
//! dry is not, and the walk never enters its piece again. Once all but one
//! have run dry, the last is feasible. A step thus costs about the number
//! of candidates times the size of the pieces it cuts off, or the distance
//! at which its searches meet, rather than a search of everything the walk
//! can still reach.
//!
//! # One router per plan
//!
//! [`crate::Atpg::generate`] lowers a chip once: it builds one [`Router`]
//! and every stage answers its question on that graph. The band check
//! and the greedy fix-up validate their paths against the router's
//! components instead of recomputing them, the cut stage decides each
//! candidate cut by two floods over the contracted graph, and the
//! leakage stage routes on it. The public per-stage entry points
//! ([`crate::hierarchy::hierarchical_cover`], [`crate::heuristic::greedy_cover`],
//! [`crate::cutset::cut_cover`], [`crate::leakage::leakage_vectors`]) each
//! build their own router, so called one by one they return exactly what
//! `generate` does. A router builds the max-flow network behind its
//! feasibility test when it first routes a path, so the cut stage, which
//! only floods, never builds one.

use crate::error::AtpgError;
use fpva_grid::{CellId, EdgeId, EdgeKind, Fpva, PortId, PortKind, ValveId};
use rand::Rng;
use std::collections::VecDeque;
use std::sync::OnceLock;

/// Whether fluid could ever cross this edge on a fault-free chip (i.e. the
/// edge is a valve or an always-open channel site, not a wall).
pub fn edge_passable(fpva: &Fpva, edge: EdgeId) -> bool {
    fpva.edge_kind(edge) != EdgeKind::Wall
}

/// The chip's first source and first sink port.
///
/// # Errors
///
/// Returns [`AtpgError::MissingPorts`] when the chip lacks a source or a
/// sink.
pub(crate) fn ports(fpva: &Fpva) -> Result<(PortId, PortId), AtpgError> {
    let source = fpva.sources().next().map(|(id, _)| id);
    let sink = fpva.sinks().next().map(|(id, _)| id);
    source.zip(sink).ok_or(AtpgError::MissingPorts)
}

/// Resolves the source and sink ports whose cells are the endpoints of a
/// routed path. [`path_through_edge`] routes between *arbitrary*
/// source/sink pairs, so callers must not assume the chip's first ports;
/// on multi-port chips that assumption rejects (or mis-labels) every path
/// that terminates elsewhere.
pub fn endpoint_ports(fpva: &Fpva, cells: &[CellId]) -> Option<(PortId, PortId)> {
    let first = *cells.first()?;
    let last = *cells.last()?;
    let source = fpva
        .sources()
        .find(|(_, p)| p.cell == first)
        .map(|(id, _)| id)?;
    let sink = fpva
        .sinks()
        .find(|(_, p)| p.cell == last)
        .map(|(id, _)| id)?;
    Some((source, sink))
}

/// Component id per cell (indexed by [`Fpva::cell_index`]) where cells
/// joined by always-open channel edges share a component. Cells outside
/// channels are singleton components.
///
/// Pressure spreads freely inside such a component, so a flow path that
/// visits one component in two separate stretches has an implicit bypass
/// loop through the channel — [`crate::FlowPath`] rejects that.
pub fn open_components(fpva: &Fpva) -> Vec<usize> {
    let mut comp = vec![usize::MAX; fpva.cell_count()];
    let mut next = 0usize;
    for cell in fpva.cells() {
        let ix = fpva.cell_index(cell);
        if comp[ix] != usize::MAX {
            continue;
        }
        comp[ix] = next;
        let mut queue = VecDeque::from([cell]);
        while let Some(c) = queue.pop_front() {
            for (edge, n) in fpva.neighbors(c) {
                if fpva.edge_kind(edge) == EdgeKind::Open {
                    let ni = fpva.cell_index(n);
                    if comp[ni] == usize::MAX {
                        comp[ni] = next;
                        queue.push_back(n);
                    }
                }
            }
        }
        next += 1;
    }
    comp
}

/// Checks the channel-contiguity rule: the cells of every open component
/// appear as one contiguous run of `cells`.
pub fn components_contiguous(fpva: &Fpva, components: &[usize], cells: &[CellId]) -> bool {
    // Component ids are below the cell count, so one flag per cell can
    // mark the components the run has left.
    let mut left = vec![false; components.len()];
    let mut current = usize::MAX;
    for &cell in cells {
        let c = components[fpva.cell_index(cell)];
        if c == current {
            continue;
        }
        if current != usize::MAX {
            left[current] = true;
        }
        if left[c] {
            return false;
        }
        current = c;
    }
    true
}

/// Cells of all source ports.
pub fn source_cells(fpva: &Fpva) -> Vec<CellId> {
    fpva.sources().map(|(_, p)| p.cell).collect()
}

/// Cells of all sink ports.
pub fn sink_cells(fpva: &Fpva) -> Vec<CellId> {
    fpva.sinks().map(|(_, p)| p.cell).collect()
}

/// Cells reachable from `starts` over passable edges not marked `closed`
/// (indexed by [`Fpva::edge_index`]). Returns a `cell_count()`-sized
/// reachability mask.
pub fn reachable_from(fpva: &Fpva, starts: &[CellId], closed: &[bool]) -> Vec<bool> {
    let mut seen = vec![false; fpva.cell_count()];
    let mut stack: Vec<CellId> = Vec::new();
    for &s in starts {
        if !std::mem::replace(&mut seen[fpva.cell_index(s)], true) {
            stack.push(s);
        }
    }
    while let Some(cell) = stack.pop() {
        for (edge, next) in fpva.neighbors(cell) {
            if edge_passable(fpva, edge)
                && !closed[fpva.edge_index(edge)]
                && !std::mem::replace(&mut seen[fpva.cell_index(next)], true)
            {
                stack.push(next);
            }
        }
    }
    seen
}

/// The [`reachable_from`] mask with the edges of `valves` closed.
pub(crate) fn closed_edges(fpva: &Fpva, valves: &[ValveId]) -> Vec<bool> {
    let mut closed = vec![false; fpva.edge_count()];
    for &v in valves {
        closed[fpva.edge_index(fpva.edge_of(v))] = true;
    }
    closed
}

/// Routes a valid source→sink flow path through `edge` that crosses none
/// of the `avoid` edges; see the [module documentation](self) for what
/// "valid" means and how the path is built. `prefer` marks the valve
/// edges the path should collect where it has a choice, and `rng` breaks
/// ties among them.
///
/// Returns the cell sequence (first cell = a source-port cell, last = a
/// sink-port cell), or `None` exactly when no valid path exists.
///
/// Builds a [`Router`] per call; callers routing many paths on one chip
/// should build it once and call [`Router::path_through_edge`].
pub fn path_through_edge(
    fpva: &Fpva,
    edge: EdgeId,
    avoid: &[EdgeId],
    prefer: &dyn Fn(EdgeId) -> bool,
    rng: &mut impl Rng,
) -> Option<Vec<CellId>> {
    Router::new(fpva).path_through_edge(edge, avoid, prefer, rng)
}

/// One arc of the contracted graph: a valve between two open components.
#[derive(Debug, Clone, Copy)]
struct Arc {
    /// The node on the far side.
    to: usize,
    /// The valve edge the arc crosses.
    edge: EdgeId,
}

/// The chip's flow layer with every open component contracted to one
/// node: the exact router of the [module documentation](self).
#[derive(Debug, Clone)]
pub struct Router<'a> {
    fpva: &'a Fpva,
    /// Node of each cell ([`open_components`]).
    node: Vec<usize>,
    /// Arcs leaving each node, in valve order.
    adj: Vec<Vec<Arc>>,
    /// Nodes holding a source port's cell.
    source: Vec<bool>,
    /// Nodes holding a sink port's cell.
    sink: Vec<bool>,
    /// The network of [`Router::source_witness`], built on its first
    /// call, so a router that only floods (the cut stage's) never holds
    /// one.
    witness: OnceLock<Witness>,
}

/// The max-flow network of [`Router::source_witness`], with the arcs of
/// every valve.
#[derive(Debug, Clone)]
struct Witness {
    net: Network,
    /// Per node other than a source node: the network index of the arc
    /// out of it across `adj[x][0]`; the arc across `adj[x][k]` is
    /// `2 * k` further on.
    valve_arcs: Vec<usize>,
}

/// Which port class a walk heads for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Toward {
    Sources,
    Sinks,
}

/// Node ids of the witness network: node `x` of the contracted graph is
/// split into `inn(x) = 2x` and `out(x) = 2x + 1`, and the three terminals
/// follow the `n` split nodes.
fn inn(x: usize) -> usize {
    2 * x
}

fn out(x: usize) -> usize {
    2 * x + 1
}

/// The collectors of the source and the sink units, and the super sink,
/// of a witness network over `n` nodes.
fn terminals(n: usize) -> (usize, usize, usize) {
    (2 * n, 2 * n + 1, 2 * n + 2)
}

impl<'a> Router<'a> {
    /// Contracts `fpva`'s open components into the routing graph.
    pub fn new(fpva: &'a Fpva) -> Self {
        let node = open_components(fpva);
        let n = node.iter().max().map_or(0, |&m| m + 1);
        let mut adj = vec![Vec::new(); n];
        for (_, edge) in fpva.valves() {
            let (a, b) = edge.endpoints();
            let (x, y) = (node[fpva.cell_index(a)], node[fpva.cell_index(b)]);
            if x != y {
                adj[x].push(Arc { to: y, edge });
                adj[y].push(Arc { to: x, edge });
            }
        }
        let mut source = vec![false; n];
        let mut sink = vec![false; n];
        for (_, port) in fpva.ports() {
            let x = node[fpva.cell_index(port.cell)];
            match port.kind {
                PortKind::Source => source[x] = true,
                PortKind::Sink => sink[x] = true,
            }
        }
        Router {
            fpva,
            node,
            adj,
            source,
            sink,
            witness: OnceLock::new(),
        }
    }

    /// The witness network, built on the first call.
    fn witness(&self) -> &Witness {
        self.witness.get_or_init(|| {
            let n = self.adj.len();
            let (to_sources, to_sinks, t) = terminals(n);
            let mut net = Network::new(t + 1);
            let mut valve_arcs = vec![usize::MAX; n];
            for (x, arcs) in self.adj.iter().enumerate() {
                net.add(inn(x), out(x));
                if self.source[x] {
                    net.add(out(x), to_sources);
                    continue;
                }
                if self.sink[x] {
                    net.add(out(x), to_sinks);
                }
                valve_arcs[x] = net.to.len();
                for arc in arcs {
                    net.add(out(x), inn(arc.to));
                }
            }
            net.add(to_sources, t);
            net.add(to_sinks, t);
            Witness { net, valve_arcs }
        })
    }

    /// The chip the router was built for.
    pub(crate) fn fpva(&self) -> &'a Fpva {
        self.fpva
    }

    /// The node of each cell: the chip's [`open_components`].
    pub(crate) fn components(&self) -> &[usize] {
        &self.node
    }

    /// The number of nodes of the contracted graph.
    pub(crate) fn node_count(&self) -> usize {
        self.adj.len()
    }

    fn node_of(&self, cell: CellId) -> usize {
        self.node[self.fpva.cell_index(cell)]
    }

    /// Marks in `seen` the nodes reachable from those holding a port of
    /// kind `from`, across the valves whose edges `closed` (indexed by
    /// [`Fpva::edge_index`]) leaves open. Channel sites are inside nodes
    /// and walls are no arcs, so neither needs a check. Stops early and
    /// returns `false` when it reaches a node holding a port of the other
    /// kind.
    pub(crate) fn flood(
        &self,
        from: PortKind,
        closed: &[bool],
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
        while let Some(x) = stack.pop() {
            if stops[x] {
                return false;
            }
            for arc in &self.adj[x] {
                if !seen[arc.to] && !closed[self.fpva.edge_index(arc.edge)] {
                    seen[arc.to] = true;
                    stack.push(arc.to);
                }
            }
        }
        true
    }

    /// The exact router behind [`path_through_edge`]; same contract.
    pub fn path_through_edge(
        &self,
        edge: EdgeId,
        avoid: &[EdgeId],
        prefer: &dyn Fn(EdgeId) -> bool,
        rng: &mut impl Rng,
    ) -> Option<Vec<CellId>> {
        if self.fpva.edge_kind(edge) != EdgeKind::Valve || avoid.contains(&edge) {
            return None;
        }
        let (u, v) = edge.endpoints();
        let (nu, nv) = (self.node_of(u), self.node_of(v));
        let usable = |arc: &Arc| !avoid.contains(&arc.edge);
        let (up, witness) = self.source_witness(nu, nv, avoid)?;
        let down = if up == nu { nv } else { nu };
        let mut blocked = vec![false; self.adj.len()];
        for &x in &witness {
            blocked[x] = true;
        }
        let (down_nodes, down_edges) =
            self.walk(down, Toward::Sinks, &mut blocked, &usable, prefer, rng);
        for &x in &witness {
            blocked[x] = false;
        }
        let (mut nodes, mut edges) =
            self.walk(up, Toward::Sources, &mut blocked, &usable, prefer, rng);
        nodes.reverse();
        edges.reverse();
        nodes.extend(down_nodes);
        edges.push(edge);
        edges.extend(down_edges);
        Some(self.expand(&nodes, &edges))
    }

    /// Decides feasibility by max-flow: from a super source into `nu` and
    /// `nv`, out through one unit to a source node and one to a sink node,
    /// crossing no `avoid`ed valve. Each node has capacity 1, so a valve
    /// inside one component (`nu == nv`) never gets both units; a source
    /// node's only exit is the source terminal, so no flow passes through
    /// one. Returns the endpoint whose unit reaches a source node, with
    /// that unit's nodes (endpoint first).
    ///
    /// A call runs on the router's network, built on the first call, with
    /// a copy of its capacities in which the arcs of the avoided valves are
    /// empty; the super source is the list of its two arcs' heads. Searches
    /// meet the arcs in the order a network built for the call would give
    /// them, so the augmenting paths, and the witness, are the same.
    fn source_witness(
        &self,
        nu: usize,
        nv: usize,
        avoid: &[EdgeId],
    ) -> Option<(usize, Vec<usize>)> {
        let Witness { net, valve_arcs } = self.witness();
        let (to_sources, to_sinks, t) = terminals(self.adj.len());
        let mut cap = net.cap.clone();
        let (mut via, mut queue) = (vec![usize::MAX; net.head.len()], Vec::new());
        for &edge in avoid {
            let (a, b) = edge.endpoints();
            for x in [self.node_of(a), self.node_of(b)] {
                if self.source[x] {
                    continue;
                }
                for (k, arc) in self.adj[x].iter().enumerate() {
                    if arc.edge == edge {
                        cap[valve_arcs[x] + 2 * k] = 0;
                    }
                }
            }
        }
        // The super source's arcs, in the order a search tries them.
        let mut entries = vec![inn(nv), inn(nu)];
        let mut augment = |cap: &mut [u8]| net.augment(cap, &mut entries, t, &mut via, &mut queue);
        if !(augment(&mut cap) && augment(&mut cap)) {
            return None;
        }
        // Both units leave the super source; follow each to its terminal.
        for start in [nu, nv] {
            let mut nodes = vec![start];
            let mut at = out(start);
            loop {
                let next = net.flow_successor(&cap, at);
                if next == to_sources {
                    return Some((start, nodes));
                }
                if next == to_sinks {
                    break;
                }
                nodes.push(next / 2);
                at = out(next / 2);
            }
        }
        unreachable!("a flow of two reaches both terminals")
    }

    /// Grows one side of the path from `start` until it stands on a node of
    /// the port class it heads for, never entering a `blocked` node (nor,
    /// heading for sinks, a source node). Every node it visits is left
    /// blocked. Returns the visited nodes (`start` first) and the valve
    /// edges between them.
    ///
    /// The caller guarantees that the port class is reachable from `start`;
    /// every step keeps it reachable, so the walk never backtracks.
    fn walk(
        &self,
        start: usize,
        toward: Toward,
        blocked: &mut [bool],
        usable: &dyn Fn(&Arc) -> bool,
        prefer: &dyn Fn(EdgeId) -> bool,
        rng: &mut impl Rng,
    ) -> (Vec<usize>, Vec<EdgeId>) {
        let mut nodes = vec![start];
        let mut edges = Vec::new();
        let mut scratch = Scratch::new(self.adj.len());
        let (mut feasible, mut preferred) = (Vec::new(), Vec::new());
        let mut at = start;
        while !self.is_target(at, toward) {
            blocked[at] = true;
            self.feasible_arcs(at, toward, blocked, usable, &mut scratch, &mut feasible);
            preferred.clear();
            preferred.extend(feasible.iter().copied().filter(|a| prefer(a.edge)));
            let pool = if preferred.is_empty() {
                &feasible
            } else {
                &preferred
            };
            let arc = pool[rng.gen_range(0..pool.len())];
            nodes.push(arc.to);
            edges.push(arc.edge);
            at = arc.to;
        }
        blocked[at] = true;
        (nodes, edges)
    }

    fn is_target(&self, x: usize, toward: Toward) -> bool {
        match toward {
            Toward::Sources => self.source[x],
            Toward::Sinks => self.sink[x] && !self.source[x],
        }
    }

    fn passable(&self, x: usize, toward: Toward, blocked: &[bool]) -> bool {
        !blocked[x] && (toward == Toward::Sources || !self.source[x])
    }

    /// Collects into `out`, in adjacency order, the usable arcs from the
    /// (already blocked) node `at` after which the port class stays
    /// reachable.
    ///
    /// `at` reached the port class before it was blocked, so a lone
    /// candidate does. Several are decided by the interleaved searches of
    /// the [module documentation](self): one per candidate node, each
    /// expanding one node per turn, until at most one undecided search is
    /// left and no other has met the port class.
    fn feasible_arcs(
        &self,
        at: usize,
        toward: Toward,
        blocked: &[bool],
        usable: &dyn Fn(&Arc) -> bool,
        scratch: &mut Scratch,
        out: &mut Vec<Arc>,
    ) {
        let passable = |x: usize| self.passable(x, toward, blocked);
        out.clear();
        out.extend(
            self.adj[at]
                .iter()
                .filter(|a| usable(a) && passable(a.to))
                .copied(),
        );
        if out.len() < 2 {
            return;
        }
        scratch.begin();
        for arc in out.iter() {
            if !scratch.seen(arc.to) {
                scratch.start(arc.to, self.is_target(arc.to, toward));
            }
        }
        let mut k = 0;
        while scratch.undecided() {
            if let Some(x) = scratch.next(k) {
                for arc in self.adj[x].iter().filter(|a| usable(a) && passable(a.to)) {
                    scratch.meet(k, arc.to, self.is_target(arc.to, toward));
                }
                scratch.settle(k);
            }
            k = (k + 1) % scratch.len;
        }
        out.retain(|a| scratch.feasible(a.to));
    }

    /// Expands a node path back to cells: `edges[i]` joins `nodes[i]` and
    /// `nodes[i + 1]`; the first node is entered at a source cell and the
    /// last left at a sink cell.
    fn expand(&self, nodes: &[usize], edges: &[EdgeId]) -> Vec<CellId> {
        let cell_in = |edge: EdgeId, x: usize| {
            let (a, b) = edge.endpoints();
            if self.node_of(a) == x {
                a
            } else {
                b
            }
        };
        let is_port = |cell: CellId, kind| {
            self.fpva
                .ports()
                .any(|(_, p)| p.cell == cell && p.kind == kind)
        };
        let mut cells = Vec::new();
        for (i, &x) in nodes.iter().enumerate() {
            let exit = edges.get(i).map(|&e| cell_in(e, x));
            match (i.checked_sub(1).map(|k| cell_in(edges[k], x)), exit) {
                (Some(entry), Some(exit)) => self.within(entry, |c| c == exit, &mut cells),
                (Some(entry), None) => {
                    self.within(entry, |c| is_port(c, PortKind::Sink), &mut cells);
                }
                (None, Some(exit)) => {
                    // The first node: its run is all `cells` holds.
                    self.within(exit, |c| is_port(c, PortKind::Source), &mut cells);
                    cells.reverse();
                }
                (None, None) => unreachable!("a path through a valve spans two nodes"),
            }
        }
        cells
    }

    /// Appends to `cells` the shortest run of cells from `from` to the
    /// first cell meeting `goal` along always-open edges, i.e. inside
    /// `from`'s open component. A run whose first cell meets `goal`, as
    /// every lone cell's does, is that cell alone.
    fn within(&self, from: CellId, goal: impl Fn(CellId) -> bool, cells: &mut Vec<CellId>) {
        if goal(from) {
            cells.push(from);
            return;
        }
        // Components are short channels: a list scan beats a cell-sized map.
        let mut visited: Vec<(CellId, usize)> = vec![(from, usize::MAX)];
        let mut head = 0;
        while !goal(visited[head].0) {
            let cell = visited[head].0;
            for (edge, next) in self.fpva.neighbors(cell) {
                if self.fpva.edge_kind(edge) == EdgeKind::Open
                    && !visited.iter().any(|&(c, _)| c == next)
                {
                    visited.push((next, head));
                }
            }
            head += 1;
        }
        let start = cells.len();
        let mut k = head;
        while k != usize::MAX {
            cells.push(visited[k].0);
            k = visited[k].1;
        }
        cells[start..].reverse();
    }
}

/// What a group of merged searches of [`Scratch`] has found.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Reach {
    /// Still searching.
    #[default]
    Open,
    /// Met an unblocked node of the port class.
    Target,
    /// Ran dry: its piece holds no node of the port class.
    Dry,
}

/// One breadth-first search of a [`Router::feasible_arcs`] step.
#[derive(Debug, Default)]
struct Search {
    /// The nodes it visited, in order; those from `head` on are still to
    /// expand.
    queue: Vec<usize>,
    head: usize,
    /// Union-find parent among the step's searches. A group of merged
    /// searches keeps its verdict and its number of members with nodes
    /// left to expand at its root.
    parent: usize,
    reach: Reach,
    live: usize,
}

/// Reusable state of [`Router::feasible_arcs`] across the steps of a walk:
/// an epoch-stamped owner per node and a pool of searches.
#[derive(Debug)]
struct Scratch {
    /// The step that last visited each node, and the search that did.
    seen: Vec<u32>,
    owner: Vec<usize>,
    epoch: u32,
    /// The step's searches are the first `len`; the rest keep their
    /// queues' allocations for later steps.
    searches: Vec<Search>,
    len: usize,
    /// Groups still `Open`.
    open: usize,
    /// Whether some group met the port class.
    found: bool,
}

impl Scratch {
    fn new(n: usize) -> Self {
        Scratch {
            seen: vec![0; n],
            owner: vec![0; n],
            epoch: 0,
            searches: Vec::new(),
            len: 0,
            open: 0,
            found: false,
        }
    }

    /// Starts a step with nothing visited and no search.
    fn begin(&mut self) {
        self.epoch += 1;
        self.len = 0;
        self.open = 0;
        self.found = false;
    }

    fn seen(&self, x: usize) -> bool {
        self.seen[x] == self.epoch
    }

    /// Starts a search at the unvisited candidate node `x`.
    fn start(&mut self, x: usize, target: bool) {
        let k = self.len;
        if k == self.searches.len() {
            self.searches.push(Search::default());
        }
        let search = &mut self.searches[k];
        search.queue.clear();
        search.head = 0;
        search.parent = k;
        search.reach = Reach::Open;
        search.live = 1;
        self.len += 1;
        self.open += 1;
        self.visit(x, k, target);
    }

    /// Search `k` visits the unvisited node `x`.
    fn visit(&mut self, x: usize, k: usize, target: bool) {
        self.seen[x] = self.epoch;
        self.owner[x] = k;
        self.searches[k].queue.push(x);
        let root = self.find(k);
        if target && self.searches[root].reach == Reach::Open {
            self.searches[root].reach = Reach::Target;
            self.open -= 1;
            self.found = true;
        }
    }

    fn find(&mut self, mut k: usize) -> usize {
        while self.searches[k].parent != k {
            let up = self.searches[self.searches[k].parent].parent;
            self.searches[k].parent = up;
            k = up;
        }
        k
    }

    /// Whether the step must search on: more than one group is undecided,
    /// or one is and another already met the port class. A lone undecided
    /// group with none met holds the node the walk's invariant promises.
    fn undecided(&self) -> bool {
        self.open > 1 || (self.open == 1 && self.found)
    }

    /// The next node search `k` expands, if its group is undecided and it
    /// has one left.
    fn next(&mut self, k: usize) -> Option<usize> {
        let root = self.find(k);
        if self.searches[root].reach != Reach::Open {
            return None;
        }
        let search = &mut self.searches[k];
        let x = *search.queue.get(search.head)?;
        search.head += 1;
        Some(x)
    }

    /// Search `k` steps onto the passable node `y`: it visits `y`, or
    /// merges with the search that already did. No group that ran dry
    /// borders a visited node, so a merge joins two groups that are
    /// undecided or met the port class.
    fn meet(&mut self, k: usize, y: usize, target: bool) {
        if !self.seen(y) {
            self.visit(y, k, target);
            return;
        }
        let (a, b) = (self.find(k), self.find(self.owner[y]));
        if a == b {
            return;
        }
        self.searches[b].parent = a;
        self.searches[a].live += self.searches[b].live;
        let (ra, rb) = (self.searches[a].reach, self.searches[b].reach);
        if ra == Reach::Open || rb == Reach::Open {
            self.open -= 1;
        }
        if rb == Reach::Target {
            self.searches[a].reach = Reach::Target;
        }
    }

    /// Retires search `k` once it has expanded every node it visited; a
    /// group whose members are all retired before meeting the port class
    /// ran dry.
    fn settle(&mut self, k: usize) {
        let search = &self.searches[k];
        if search.head < search.queue.len() {
            return;
        }
        let root = self.find(k);
        let group = &mut self.searches[root];
        group.live -= 1;
        if group.live == 0 && group.reach == Reach::Open {
            group.reach = Reach::Dry;
            self.open -= 1;
        }
    }

    /// Whether the candidate node `x` keeps the port class reachable,
    /// once the step's searches are decided.
    fn feasible(&mut self, x: usize) -> bool {
        let root = self.find(self.owner[x]);
        self.searches[root].reach != Reach::Dry
    }
}

/// A unit-capacity flow network in forward-star form; arc `i`'s residual
/// twin is `i ^ 1`, so even arcs are the forward ones. `cap` holds the
/// capacities before any flow; a max-flow run works on a copy.
#[derive(Debug, Clone)]
struct Network {
    head: Vec<usize>,
    next: Vec<usize>,
    to: Vec<usize>,
    cap: Vec<u8>,
}

impl Network {
    fn new(nodes: usize) -> Self {
        Network {
            head: vec![usize::MAX; nodes],
            next: Vec::new(),
            to: Vec::new(),
            cap: Vec::new(),
        }
    }

    fn arcs(&self, x: usize) -> impl Iterator<Item = usize> + '_ {
        let live = |a: usize| (a != usize::MAX).then_some(a);
        std::iter::successors(live(self.head[x]), move |&a| live(self.next[a]))
    }

    /// Adds a capacity-1 arc and its empty residual twin.
    fn add(&mut self, from: usize, to: usize) {
        for (a, b, cap) in [(from, to, 1), (to, from, 0)] {
            self.next.push(self.head[a]);
            self.head[a] = self.to.len();
            self.to.push(b);
            self.cap.push(cap);
        }
    }

    /// Pushes one unit along a shortest augmenting path in the residual
    /// capacities `cap`, from a super source with one arc into each node
    /// of `entries` (searched in that order) to `t`, and drops the entry
    /// it used; `false` when the flow is already maximum.
    ///
    /// `via` (one `usize::MAX` per node) and `queue` are scratch space for
    /// the search; `via` is handed back as it came, so a caller can reuse
    /// both across augmentations.
    fn augment(
        &self,
        cap: &mut [u8],
        entries: &mut Vec<usize>,
        t: usize,
        via: &mut [usize],
        queue: &mut Vec<usize>,
    ) -> bool {
        const ENTRY: usize = usize::MAX - 1;
        queue.clear();
        for &x in entries.iter() {
            if via[x] == usize::MAX {
                via[x] = ENTRY;
                queue.push(x);
            }
        }
        let mut head = 0;
        while let Some(&x) = queue.get(head) {
            head += 1;
            for a in self.arcs(x) {
                let y = self.to[a];
                if cap[a] > 0 && via[y] == usize::MAX {
                    via[y] = a;
                    queue.push(y);
                }
            }
            if via[t] != usize::MAX {
                break;
            }
        }
        let found = via[t] != usize::MAX;
        if found {
            let mut y = t;
            while via[y] != ENTRY {
                let a = via[y];
                cap[a] -= 1;
                cap[a ^ 1] += 1;
                y = self.to[a ^ 1];
            }
            let used = entries.iter().position(|&x| x == y);
            entries.remove(used.expect("an augmenting path starts at an entry"));
        }
        // Every node the search marked is on the queue.
        for &x in queue.iter() {
            via[x] = usize::MAX;
        }
        found
    }

    /// The head of the forward arc out of `x` that carries flow in the
    /// residual capacities `cap`. Flow shows on the twin: an emptied arc
    /// of an avoided valve has no capacity left either, but carries
    /// nothing.
    fn flow_successor(&self, cap: &[u8], x: usize) -> usize {
        self.arcs(x)
            .find(|&a| a % 2 == 0 && cap[a ^ 1] > 0)
            .map(|a| self.to[a])
            .expect("flow is conserved at every inner node")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpva_grid::{layouts, Axis, FpvaBuilder, Side};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    fn crosses(f: &Fpva, cells: &[CellId], edge: EdgeId) -> bool {
        cells
            .windows(2)
            .any(|w| f.edge_between(w[0], w[1]) == Some(edge))
    }

    /// The cut stage floods the router's graph and never routes, so it
    /// leaves the witness network unbuilt; the first route builds it.
    #[test]
    fn witness_network_is_built_on_the_first_route() {
        let f = layouts::table1_5x5();
        let router = Router::new(&f);
        crate::cutset::cut_cover_on(&router).unwrap();
        assert!(router.witness.get().is_none());
        let edge = f.edge_of(ValveId(0));
        let mut rng = StdRng::seed_from_u64(1);
        assert!(router
            .path_through_edge(edge, &[], &|_| false, &mut rng)
            .is_some());
        assert!(router.witness.get().is_some());
    }

    #[test]
    fn reachability_full_grid() {
        let f = layouts::full_array(3, 3);
        let seen = reachable_from(&f, &[CellId::new(0, 0)], &vec![false; f.edge_count()]);
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn reachability_respects_blocked_edges() {
        let f = layouts::full_array(1, 3);
        let mut closed = vec![false; f.edge_count()];
        closed[f.edge_index(EdgeId::horizontal(0, 1))] = true;
        let seen = reachable_from(&f, &[CellId::new(0, 0)], &closed);
        assert!(seen[f.cell_index(CellId::new(0, 1))]);
        assert!(!seen[f.cell_index(CellId::new(0, 2))]);
    }

    #[test]
    fn obstacles_block_reachability() {
        let f = FpvaBuilder::new(3, 3)
            .obstacle(0, 1, 2, 1)
            .port(0, 0, Side::West, PortKind::Source)
            .port(2, 2, Side::East, PortKind::Sink)
            .build()
            .unwrap();
        let seen = reachable_from(&f, &[CellId::new(0, 0)], &vec![false; f.edge_count()]);
        assert!(
            !seen[f.cell_index(CellId::new(0, 2))],
            "obstacle column splits the array"
        );
    }

    #[test]
    fn routed_paths_are_simple_port_to_port_and_cross_the_edge() {
        let f = layouts::full_array(4, 4);
        let router = Router::new(&f);
        for seed in 0..5 {
            let mut rng = StdRng::seed_from_u64(seed);
            for (_, edge) in f.valves() {
                let path = router
                    .path_through_edge(edge, &[], &|_| false, &mut rng)
                    .expect("every valve of a full grid is routable");
                assert_eq!(path[0], CellId::new(0, 0));
                assert_eq!(*path.last().unwrap(), CellId::new(3, 3));
                let unique: HashSet<_> = path.iter().collect();
                assert_eq!(unique.len(), path.len(), "path must be simple");
                assert!(path
                    .windows(2)
                    .all(|w| f.edge_between(w[0], w[1]).is_some()));
                assert!(crosses(&f, &path, edge), "path skips {edge}");
            }
        }
    }

    #[test]
    fn path_through_every_edge_of_small_grid() {
        let f = layouts::full_array(3, 3);
        let mut rng = StdRng::seed_from_u64(11);
        for (_, edge) in f.valves() {
            let cells = path_through_edge(&f, edge, &[], &|_| false, &mut rng)
                .unwrap_or_else(|| panic!("no path through {edge}"));
            assert!(
                crosses(&f, &cells, edge),
                "returned path skips the requested edge {edge}"
            );
        }
    }

    #[test]
    fn path_through_edge_respects_avoid() {
        let f = layouts::full_array(1, 3);
        let mut rng = StdRng::seed_from_u64(5);
        // A 1x3 pipeline: avoiding edge 0 makes edge 1 unreachable.
        let got = path_through_edge(
            &f,
            EdgeId::horizontal(0, 1),
            &[EdgeId::horizontal(0, 0)],
            &|_| false,
            &mut rng,
        );
        assert!(got.is_none());
    }

    #[test]
    fn open_components_group_channel_cells() {
        let f = FpvaBuilder::new(3, 4)
            .channel_horizontal(1, 0, 2)
            .port(0, 0, Side::North, PortKind::Source)
            .port(2, 3, Side::South, PortKind::Sink)
            .build()
            .unwrap();
        let comps = open_components(&f);
        let id = |r, c| comps[f.cell_index(CellId::new(r, c))];
        assert_eq!(id(1, 0), id(1, 1));
        assert_eq!(id(1, 1), id(1, 2));
        assert_ne!(id(1, 0), id(1, 3));
        assert_ne!(id(0, 0), id(1, 0));
        // Singleton components are all distinct.
        assert_ne!(id(0, 0), id(0, 1));
    }

    #[test]
    fn contiguity_rule_accepts_single_pass() {
        let f = FpvaBuilder::new(3, 4)
            .channel_horizontal(1, 0, 2)
            .port(0, 0, Side::North, PortKind::Source)
            .port(2, 3, Side::South, PortKind::Sink)
            .build()
            .unwrap();
        let comps = open_components(&f);
        // Straight pass through the channel: fine.
        let pass: Vec<CellId> = vec![
            CellId::new(0, 0),
            CellId::new(1, 0),
            CellId::new(1, 1),
            CellId::new(2, 1),
        ];
        assert!(components_contiguous(&f, &comps, &pass));
        // Leave the channel and come back: bypass loop, rejected.
        let reenter: Vec<CellId> = vec![
            CellId::new(1, 0),
            CellId::new(0, 0),
            CellId::new(0, 1),
            CellId::new(1, 1),
        ];
        assert!(!components_contiguous(&f, &comps, &reenter));
    }

    #[test]
    fn path_through_edge_respects_channel_contiguity() {
        // Vertical channel: every valve is routable, and every returned
        // path visits the channel in one run.
        let f = FpvaBuilder::new(5, 5)
            .channel_vertical(2, 1, 3)
            .port(0, 0, Side::West, PortKind::Source)
            .port(4, 4, Side::East, PortKind::Sink)
            .build()
            .unwrap();
        let comps = open_components(&f);
        let mut rng = StdRng::seed_from_u64(2);
        for (_, edge) in f.valves() {
            let cells = path_through_edge(&f, edge, &[], &|_| false, &mut rng)
                .unwrap_or_else(|| panic!("no path through {edge}"));
            assert!(
                components_contiguous(&f, &comps, &cells),
                "path through {edge} re-enters the channel"
            );
        }
    }

    #[test]
    fn preference_biases_first_steps() {
        // The valve below the source corner: the source side is the corner
        // itself, so the walk's first step from (1,0) decides the path.
        // Whichever axis is preferred, every seed takes it.
        let f = layouts::full_array(3, 3);
        let edge = EdgeId::vertical(0, 0);
        for seed in 0..8 {
            let mut rng = StdRng::seed_from_u64(seed);
            let down =
                path_through_edge(&f, edge, &[], &|e| e.axis == Axis::Vertical, &mut rng).unwrap();
            assert_eq!(down[2], CellId::new(2, 0), "preferred vertical step");
            let across =
                path_through_edge(&f, edge, &[], &|e| e.axis == Axis::Horizontal, &mut rng)
                    .unwrap();
            assert_eq!(across[2], CellId::new(1, 1), "preferred horizontal step");
        }
    }

    #[test]
    fn unroutable_pocket_is_none() {
        // (0,2) is a dead end: its only other neighbour is an obstacle, so
        // the valve into it can be entered but never left.
        let f = FpvaBuilder::new(3, 3)
            .obstacle(1, 2, 1, 2)
            .port(0, 0, Side::West, PortKind::Source)
            .port(2, 2, Side::East, PortKind::Sink)
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let pocket = EdgeId::horizontal(0, 1);
        assert!(path_through_edge(&f, pocket, &[], &|_| false, &mut rng).is_none());
        assert!(path_through_edge(&f, EdgeId::vertical(0, 0), &[], &|_| false, &mut rng).is_some());
    }

    #[test]
    fn valve_inside_one_channel_component_is_unroutable() {
        // Two parallel channels joined by a third: the valves between the
        // parallel runs have both cells in one component.
        let f = FpvaBuilder::new(4, 4)
            .channel_horizontal(1, 0, 2)
            .channel_horizontal(2, 0, 2)
            .channel_vertical(2, 1, 2)
            .port(0, 0, Side::West, PortKind::Source)
            .port(3, 3, Side::East, PortKind::Sink)
            .build()
            .unwrap();
        let inner = EdgeId::vertical(1, 0);
        assert_eq!(f.edge_kind(inner), EdgeKind::Valve);
        let mut rng = StdRng::seed_from_u64(4);
        assert!(path_through_edge(&f, inner, &[], &|_| false, &mut rng).is_none());
    }

    #[test]
    fn no_second_source_mid_path() {
        // A 1x4 pipeline with a second source on (0,2): a path through the
        // first two valves would pass that inlet, which feeds the sink on
        // its own and masks them. Only the last valve is testable.
        let f = FpvaBuilder::new(1, 4)
            .port(0, 0, Side::West, PortKind::Source)
            .port(0, 2, Side::North, PortKind::Source)
            .port(0, 3, Side::East, PortKind::Sink)
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        for col in 0..2 {
            let edge = EdgeId::horizontal(0, col);
            assert!(path_through_edge(&f, edge, &[], &|_| false, &mut rng).is_none());
        }
        let last = path_through_edge(&f, EdgeId::horizontal(0, 2), &[], &|_| false, &mut rng);
        assert_eq!(last, Some(vec![CellId::new(0, 2), CellId::new(0, 3)]));
    }

    /// Nodes the reference step's local probe expands before its full
    /// search.
    const LOCAL_PROBE: usize = 24;

    /// Breadth-first search over passable nodes from everything already in
    /// `queue` (and marked in `seen`), expanding at most `limit` nodes.
    fn flood(
        router: &Router<'_>,
        passable: &dyn Fn(usize) -> bool,
        usable: &dyn Fn(&Arc) -> bool,
        seen: &mut [bool],
        queue: &mut Vec<usize>,
        limit: usize,
    ) {
        let mut head = 0;
        while head < queue.len().min(limit) {
            let x = queue[head];
            head += 1;
            for arc in router.adj[x].iter().filter(|a| usable(a)) {
                if passable(arc.to) && !seen[arc.to] {
                    seen[arc.to] = true;
                    queue.push(arc.to);
                }
            }
        }
    }

    /// The walk step the interleaved searches replaced: a bounded probe
    /// from the first candidate, then, if the probe misses a candidate,
    /// one search from the port class. Returns the number of candidates
    /// and the feasible arcs' edges.
    fn feasible_by_flood(
        router: &Router<'_>,
        at: usize,
        toward: Toward,
        blocked: &[bool],
        usable: &dyn Fn(&Arc) -> bool,
    ) -> (usize, Vec<EdgeId>) {
        let n = router.adj.len();
        let passable = |x: usize| router.passable(x, toward, blocked);
        let mut out: Vec<Arc> = router.adj[at]
            .iter()
            .filter(|a| usable(a) && passable(a.to))
            .copied()
            .collect();
        let candidates = out.len();
        if let Some(first) = out.first().map(|a| a.to) {
            let mut seen = vec![false; n];
            seen[first] = true;
            let mut queue = vec![first];
            flood(
                router,
                &passable,
                usable,
                &mut seen,
                &mut queue,
                LOCAL_PROBE,
            );
            if !out.iter().all(|a| seen[a.to]) {
                let mut seen = vec![false; n];
                let mut queue: Vec<usize> = (0..n)
                    .filter(|&x| router.is_target(x, toward) && !blocked[x])
                    .collect();
                for &x in &queue {
                    seen[x] = true;
                }
                flood(router, &passable, usable, &mut seen, &mut queue, usize::MAX);
                out.retain(|a| seen[a.to]);
            }
        }
        (candidates, out.iter().map(|a| a.edge).collect())
    }

    /// Whether `from` reaches an unblocked node of the port class over
    /// passable nodes.
    fn reaches(
        router: &Router<'_>,
        from: usize,
        toward: Toward,
        blocked: &[bool],
        usable: &dyn Fn(&Arc) -> bool,
    ) -> bool {
        let passable = |x: usize| router.passable(x, toward, blocked);
        let mut seen = vec![false; router.adj.len()];
        seen[from] = true;
        let mut queue = vec![from];
        flood(router, &passable, usable, &mut seen, &mut queue, usize::MAX);
        queue.iter().any(|&x| router.is_target(x, toward))
    }

    /// Walks like [`Router::walk`], `walks` times on `f`, each from a random
    /// start that reaches its port class over a random blocked set, with
    /// a random avoided valve half the time. Checks every step's feasible
    /// arcs against [`feasible_by_flood`] and returns how many steps it
    /// checked and how many of them pruned a candidate.
    fn check_walk_steps(f: &Fpva, walks: usize, rng: &mut StdRng) -> (usize, usize) {
        let router = Router::new(f);
        let n = router.adj.len();
        let valves: Vec<EdgeId> = f.valves().map(|(_, e)| e).collect();
        let mut scratch = Scratch::new(n);
        let mut out = Vec::new();
        let (mut steps, mut pruned) = (0, 0);
        for _ in 0..walks {
            let toward = if rng.gen_bool(0.5) {
                Toward::Sources
            } else {
                Toward::Sinks
            };
            let avoid = if valves.is_empty() || rng.gen_bool(0.5) {
                Vec::new()
            } else {
                vec![valves[rng.gen_range(0..valves.len())]]
            };
            let usable = |a: &Arc| !avoid.contains(&a.edge);
            let density = [0.0, 0.15, 0.3, 0.45][rng.gen_range(0..4usize)];
            let mut blocked: Vec<bool> = (0..n).map(|_| rng.gen_bool(density)).collect();
            let mut at = rng.gen_range(0..n);
            blocked[at] = false;
            if router.is_target(at, toward)
                || !router.passable(at, toward, &blocked)
                || !reaches(&router, at, toward, &blocked, &usable)
            {
                continue;
            }
            while !router.is_target(at, toward) {
                blocked[at] = true;
                router.feasible_arcs(at, toward, &blocked, &usable, &mut scratch, &mut out);
                let (candidates, expected) =
                    feasible_by_flood(&router, at, toward, &blocked, &usable);
                let got: Vec<EdgeId> = out.iter().map(|a| a.edge).collect();
                assert_eq!(got, expected, "step from node {at} toward {toward:?}");
                steps += 1;
                pruned += usize::from(expected.len() < candidates);
                at = out[rng.gen_range(0..out.len())].to;
            }
        }
        (steps, pruned)
    }

    /// A chip of 3–12 cells a side with up to three horizontal or vertical
    /// channels, up to two 1×1 or 2×2 obstacles, and one to three ports of
    /// each kind on random boundary cells.
    fn generated_chip(rng: &mut StdRng) -> Fpva {
        loop {
            let (rows, cols) = (rng.gen_range(3..13usize), rng.gen_range(3..13usize));
            let mut b = FpvaBuilder::new(rows, cols);
            for _ in 0..rng.gen_range(0..4usize) {
                if rng.gen_bool(0.5) {
                    let c = rng.gen_range(0..cols - 1);
                    let end = rng.gen_range(c + 1..cols.min(c + 6));
                    b = b.channel_horizontal(rng.gen_range(0..rows), c, end);
                } else {
                    let r = rng.gen_range(0..rows - 1);
                    let end = rng.gen_range(r + 1..rows.min(r + 6));
                    b = b.channel_vertical(rng.gen_range(0..cols), r, end);
                }
            }
            for _ in 0..rng.gen_range(0..3usize) {
                let size = rng.gen_range(0..2usize);
                let (r, c) = (rng.gen_range(0..rows - size), rng.gen_range(0..cols - size));
                b = b.obstacle(r, c, r + size, c + size);
            }
            for kind in [PortKind::Source, PortKind::Sink] {
                for _ in 0..rng.gen_range(1..4usize) {
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
                return f;
            }
        }
    }

    /// Fixed chips followed by `generated` drawn ones.
    fn differential_chips(fixed: Vec<Fpva>, generated: usize, rng: &mut StdRng) -> Vec<Fpva> {
        let mut chips = fixed;
        chips.extend(std::iter::repeat_with(|| generated_chip(rng)).take(generated));
        chips
    }

    fn check_feasible_arcs(chips: &[Fpva], walks: usize, rng: &mut StdRng) -> (usize, usize) {
        chips.iter().fold((0, 0), |(steps, pruned), f| {
            let (s, p) = check_walk_steps(f, walks, rng);
            (steps + s, pruned + p)
        })
    }

    #[test]
    fn feasible_arcs_match_probe_and_flood() {
        let mut rng = StdRng::seed_from_u64(0xF10D);
        let fixed = vec![
            layouts::table1_5x5(),
            layouts::table1_10x10(),
            layouts::custom_biochip(),
        ];
        let chips = differential_chips(fixed, 40, &mut rng);
        let (steps, pruned) = check_feasible_arcs(&chips, 60, &mut rng);
        assert!(
            pruned > 1000,
            "{pruned} of {steps} steps pruned a candidate"
        );
    }

    #[test]
    #[ignore = "release-only: thousands of walks, slow in a debug build"]
    fn feasible_arcs_match_probe_and_flood_at_scale() {
        let mut rng = StdRng::seed_from_u64(0x5CA1E);
        let fixed = vec![
            layouts::table1_5x5(),
            layouts::table1_10x10(),
            layouts::table1_30x30(),
            layouts::custom_biochip(),
        ];
        let chips = differential_chips(fixed, 396, &mut rng);
        let (steps, pruned) = check_feasible_arcs(&chips, 150, &mut rng);
        assert!(
            pruned > 20_000,
            "{pruned} of {steps} steps pruned a candidate"
        );
    }

    /// Pushes one unit from the real super source `s` along a shortest
    /// augmenting path in `net.cap`, as [`Network::augment`] did before
    /// its super source became a list of entries.
    fn augment_from(net: &mut Network, s: usize, t: usize) -> bool {
        let mut via = vec![usize::MAX; net.head.len()];
        let mut queue = VecDeque::from([s]);
        while let Some(x) = queue.pop_front() {
            for a in net.arcs(x) {
                let y = net.to[a];
                if net.cap[a] > 0 && y != s && via[y] == usize::MAX {
                    via[y] = a;
                    queue.push_back(y);
                }
            }
            if via[t] != usize::MAX {
                break;
            }
        }
        if via[t] == usize::MAX {
            return false;
        }
        let mut y = t;
        while y != s {
            let a = via[y];
            net.cap[a] -= 1;
            net.cap[a ^ 1] += 1;
            y = net.to[a ^ 1];
        }
        true
    }

    /// [`Router::source_witness`] as it was: a network built afresh for
    /// the call, without the avoided valves' arcs, with a real super
    /// source, and flow read off the forward arcs.
    fn witness_by_fresh_network(
        router: &Router<'_>,
        nu: usize,
        nv: usize,
        avoid: &[EdgeId],
    ) -> Option<(usize, Vec<usize>)> {
        let n = router.adj.len();
        let (to_sources, to_sinks, t) = terminals(n);
        let s = t + 1;
        let mut net = Network::new(s + 1);
        for x in 0..n {
            net.add(inn(x), out(x));
            if router.source[x] {
                net.add(out(x), to_sources);
                continue;
            }
            if router.sink[x] {
                net.add(out(x), to_sinks);
            }
            for arc in router.adj[x].iter().filter(|a| !avoid.contains(&a.edge)) {
                net.add(out(x), inn(arc.to));
            }
        }
        net.add(s, inn(nu));
        net.add(s, inn(nv));
        net.add(to_sources, t);
        net.add(to_sinks, t);
        if !(augment_from(&mut net, s, t) && augment_from(&mut net, s, t)) {
            return None;
        }
        for start in [nu, nv] {
            let mut nodes = vec![start];
            let mut at = out(start);
            loop {
                let next = net
                    .arcs(at)
                    .find(|&a| a % 2 == 0 && net.cap[a] == 0)
                    .map(|a| net.to[a])
                    .expect("flow is conserved at every inner node");
                if next == to_sources {
                    return Some((start, nodes));
                }
                if next == to_sinks {
                    break;
                }
                nodes.push(next / 2);
                at = out(next / 2);
            }
        }
        unreachable!("a flow of two reaches both terminals")
    }

    /// For every valve of `f`, with no valve avoided and with each
    /// adjacent one avoided, the reusable network's witness equals a
    /// fresh network's. Returns the calls and those that found a witness.
    fn check_witnesses(f: &Fpva) -> (usize, usize) {
        let router = Router::new(f);
        let (mut calls, mut found) = (0, 0);
        for (v, edge) in f.valves() {
            let (a, b) = edge.endpoints();
            let (nu, nv) = (router.node_of(a), router.node_of(b));
            let mut avoids = vec![Vec::new()];
            avoids.extend(f.valve_neighbors(v).into_iter().map(|w| vec![f.edge_of(w)]));
            for avoid in &avoids {
                let got = router.source_witness(nu, nv, avoid);
                let expected = witness_by_fresh_network(&router, nu, nv, avoid);
                assert_eq!(got, expected, "valve {v} avoiding {avoid:?}");
                calls += 1;
                found += usize::from(got.is_some());
            }
        }
        (calls, found)
    }

    fn check_all_witnesses(chips: &[Fpva]) -> (usize, usize) {
        chips.iter().fold((0, 0), |(calls, found), f| {
            let (c, w) = check_witnesses(f);
            (calls + c, found + w)
        })
    }

    #[test]
    fn reused_witness_network_matches_a_fresh_one() {
        let mut rng = StdRng::seed_from_u64(0x1717);
        let fixed = vec![layouts::table1_5x5(), layouts::custom_biochip()];
        let chips = differential_chips(fixed, 2, &mut rng);
        let (calls, found) = check_all_witnesses(&chips);
        assert!(found > calls / 2 && found < calls, "{found} of {calls}");
    }

    #[test]
    #[ignore = "release-only: every valve of every Table I chip, slow in a debug build"]
    fn reused_witness_network_matches_a_fresh_one_at_scale() {
        let mut rng = StdRng::seed_from_u64(0x7177);
        let mut fixed: Vec<Fpva> = layouts::table1().into_iter().map(|e| e.fpva).collect();
        fixed.push(layouts::custom_biochip());
        let chips = differential_chips(fixed, 200, &mut rng);
        let (calls, found) = check_all_witnesses(&chips);
        assert!(found > calls / 2 && found < calls, "{found} of {calls}");
    }
}
