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

use crate::error::AtpgError;
use fpva_grid::{CellId, EdgeId, EdgeKind, Fpva, PortId, PortKind, ValveId};
use rand::Rng;
use std::collections::{HashSet, VecDeque};

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
    let mut closed: HashSet<usize> = HashSet::new();
    let mut current = usize::MAX;
    for &cell in cells {
        let c = components[fpva.cell_index(cell)];
        if c == current {
            continue;
        }
        if current != usize::MAX {
            closed.insert(current);
        }
        if closed.contains(&c) {
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
}

/// Which port class a walk heads for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Toward {
    Sources,
    Sinks,
}

/// Nodes the local connectivity probe of [`Router::feasible_arcs`]
/// expands before falling back to a full reachability search.
const LOCAL_PROBE: usize = 24;

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
        }
    }

    fn node_of(&self, cell: CellId) -> usize {
        self.node[self.fpva.cell_index(cell)]
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
        let (up, witness) = self.source_witness(nu, nv, &usable)?;
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
    /// `nv`, out through one unit to a source node and one to a sink node.
    /// Each node has capacity 1, so a valve inside one component (`nu ==
    /// nv`) never gets both units; a source node's only exit is the source
    /// terminal, so no flow passes through one. Returns the endpoint whose
    /// unit reaches a source node, with that unit's nodes (endpoint first).
    fn source_witness(
        &self,
        nu: usize,
        nv: usize,
        usable: &dyn Fn(&Arc) -> bool,
    ) -> Option<(usize, Vec<usize>)> {
        let n = self.adj.len();
        let (inn, out) = (|x: usize| 2 * x, |x: usize| 2 * x + 1);
        let (s, to_sources, to_sinks, t) = (2 * n, 2 * n + 1, 2 * n + 2, 2 * n + 3);
        let mut net = Network::new(2 * n + 4);
        for x in 0..n {
            net.add(inn(x), out(x));
            if self.source[x] {
                net.add(out(x), to_sources);
                continue;
            }
            if self.sink[x] {
                net.add(out(x), to_sinks);
            }
            for arc in self.adj[x].iter().filter(|a| usable(a)) {
                net.add(out(x), inn(arc.to));
            }
        }
        net.add(s, inn(nu));
        net.add(s, inn(nv));
        net.add(to_sources, t);
        net.add(to_sinks, t);
        if !(net.augment(s, t) && net.augment(s, t)) {
            return None;
        }
        // Both units leave `s`; follow each to its terminal.
        for start in [nu, nv] {
            let mut nodes = vec![start];
            let mut at = out(start);
            loop {
                let next = net.flow_successor(at);
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
        let mut feasible = Vec::new();
        let mut at = start;
        while !self.is_target(at, toward) {
            blocked[at] = true;
            self.feasible_arcs(at, toward, blocked, usable, &mut scratch, &mut feasible);
            let preferred: Vec<Arc> = feasible
                .iter()
                .copied()
                .filter(|a| prefer(a.edge))
                .collect();
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

    /// Collects into `out` the usable arcs from the (already blocked) node
    /// `at` after which the port class stays reachable.
    ///
    /// `at` could reach the port class before it was blocked, so some
    /// neighbour still can; when all candidate neighbours are connected to
    /// each other without `at`, they all can. A bounded search from one of
    /// them settles that in the common case; otherwise one search from the
    /// port class marks exactly the neighbours that reach it.
    fn feasible_arcs(
        &self,
        at: usize,
        toward: Toward,
        blocked: &[bool],
        usable: &dyn Fn(&Arc) -> bool,
        scratch: &mut Scratch,
        out: &mut Vec<Arc>,
    ) {
        out.clear();
        out.extend(
            self.adj[at]
                .iter()
                .filter(|a| usable(a) && self.passable(a.to, toward, blocked))
                .copied(),
        );
        let Some(first) = out.first().map(|a| a.to) else {
            return;
        };
        let passable = |x: usize| self.passable(x, toward, blocked);
        scratch.begin();
        scratch.visit(first);
        self.flood(&passable, usable, scratch, LOCAL_PROBE);
        if out.iter().all(|a| scratch.seen(a.to)) {
            return;
        }
        // Full search from the port class.
        scratch.begin();
        for x in (0..self.adj.len()).filter(|&x| self.is_target(x, toward) && !blocked[x]) {
            scratch.visit(x);
        }
        self.flood(&passable, usable, scratch, usize::MAX);
        out.retain(|a| scratch.seen(a.to));
    }

    /// Breadth-first search over passable nodes from everything already
    /// visited in `scratch`, expanding at most `limit` nodes.
    fn flood(
        &self,
        passable: &dyn Fn(usize) -> bool,
        usable: &dyn Fn(&Arc) -> bool,
        scratch: &mut Scratch,
        limit: usize,
    ) {
        let mut head = 0;
        while head < scratch.queue.len().min(limit) {
            let x = scratch.queue[head];
            head += 1;
            for arc in self.adj[x].iter().filter(|a| usable(a)) {
                if passable(arc.to) && !scratch.seen(arc.to) {
                    scratch.visit(arc.to);
                }
            }
        }
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
                (Some(entry), Some(exit)) => cells.extend(self.within(entry, |c| c == exit)),
                (Some(entry), None) => {
                    cells.extend(self.within(entry, |c| is_port(c, PortKind::Sink)));
                }
                (None, Some(exit)) => {
                    let mut run = self.within(exit, |c| is_port(c, PortKind::Source));
                    run.reverse();
                    cells.extend(run);
                }
                (None, None) => unreachable!("a path through a valve spans two nodes"),
            }
        }
        cells
    }

    /// Shortest run of cells from `from` to the first cell meeting `goal`
    /// along always-open edges, i.e. inside `from`'s open component.
    fn within(&self, from: CellId, goal: impl Fn(CellId) -> bool) -> Vec<CellId> {
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
        let mut run = Vec::new();
        let mut k = head;
        while k != usize::MAX {
            run.push(visited[k].0);
            k = visited[k].1;
        }
        run.reverse();
        run
    }
}

/// Reusable search state over the contracted graph: an epoch-stamped
/// visited set and the search queue.
#[derive(Debug)]
struct Scratch {
    seen: Vec<u32>,
    epoch: u32,
    queue: Vec<usize>,
}

impl Scratch {
    fn new(n: usize) -> Self {
        Scratch {
            seen: vec![0; n],
            epoch: 0,
            queue: Vec::with_capacity(n),
        }
    }

    /// Starts a new search with nothing visited.
    fn begin(&mut self) {
        self.epoch += 1;
        self.queue.clear();
    }

    fn visit(&mut self, x: usize) {
        self.seen[x] = self.epoch;
        self.queue.push(x);
    }

    fn seen(&self, x: usize) -> bool {
        self.seen[x] == self.epoch
    }
}

/// A unit-capacity flow network in forward-star form; arc `i`'s residual
/// twin is `i ^ 1`, so even arcs are the forward ones.
#[derive(Debug)]
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

    /// Pushes one unit along a shortest augmenting path; `false` when the
    /// flow is already maximum.
    fn augment(&mut self, s: usize, t: usize) -> bool {
        let mut via = vec![usize::MAX; self.head.len()];
        let mut queue = VecDeque::from([s]);
        while let Some(x) = queue.pop_front() {
            for a in self.arcs(x) {
                let y = self.to[a];
                if self.cap[a] > 0 && y != s && via[y] == usize::MAX {
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
            self.cap[a] -= 1;
            self.cap[a ^ 1] += 1;
            y = self.to[a ^ 1];
        }
        true
    }

    /// The head of the forward arc out of `x` that carries flow.
    fn flow_successor(&self, x: usize) -> usize {
        self.arcs(x)
            .find(|&a| a % 2 == 0 && self.cap[a] == 0)
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

    fn crosses(f: &Fpva, cells: &[CellId], edge: EdgeId) -> bool {
        cells
            .windows(2)
            .any(|w| f.edge_between(w[0], w[1]) == Some(edge))
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
}
