//! The exact flow-path router behind the greedy path cover and the
//! leakage generator, and the port helpers of the stages that route.
//!
//! # Routing
//!
//! [`Router`] routes on the chip's [`ChipGraph`], which contracts every
//! open component (a transportation channel, or a lone cell) to one node,
//! joined by one arc per valve between two components. The paper's
//! channel-contiguity rule then says exactly that a flow path is a simple
//! path in this contracted graph. A flow path
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
//! A walk reads two node masks: the nodes it may not enter, and the nodes
//! it heads for. The sink side's walk may enter no source node, so the
//! source nodes are blocked with the witness while it runs, and its
//! targets are the sink nodes it can still enter: the sinks that are not
//! sources. The source side's walk heads for the source nodes.
//!
//! A walk keeps one invariant: the node it stands on reached the port
//! class before the walk blocked it. So some neighbour still does, and a
//! lone candidate neighbour needs no check. Several candidates are decided
//! by interleaved breadth-first searches, one per candidate node, each
//! expanding one node per round (the trick of Even and Shiloach, "An
//! On-Line Edge-Deletion Problem", J. ACM 1981, for connectivity under
//! deletions). Searches that meet merge: a step has few, so each carries
//! the label of its group, and a merge relabels the absorbed group's
//! members. A search that meets an unblocked node of the port class is
//! feasible; one that runs dry is not, and the walk never enters its piece
//! again. Once all but one have run dry, the last is feasible. A step thus
//! costs about the number of candidates times the size of the pieces it
//! cuts off, or the distance at which its searches meet, rather than a
//! search of everything the walk can still reach.
//!
//! # One graph per plan, shared by two threads
//!
//! [`crate::Atpg::generate`] lowers a chip once: it builds one [`Router`]
//! around the chip's [`ChipGraph`], and every stage answers its question
//! on that graph. The band check and the greedy fix-up validate their
//! paths against the graph's components instead of recomputing them, the
//! cut stage decides each candidate cut by two of the graph's floods, and
//! the leakage stage routes on it. The public per-stage entry points
//! ([`crate::hierarchy::hierarchical_cover`], [`crate::heuristic::greedy_cover`],
//! [`crate::cutset::cut_cover`], [`crate::leakage::leakage_vectors`]) each
//! lower the chip themselves, so called one by one they return exactly
//! what `generate` does.
//!
//! A router never changes once built. Floods and routes only read it and
//! write into scratch space their caller owns: a flood into the masks and
//! stack it is handed, a route into a [`Routing`]. So the cut stage can
//! flood the graph on a second thread while the calling thread routes on
//! it, and on larger chips `generate` runs it that way. The scratch space
//! follows the stages that route: the path stage and then the leakage
//! stage pass one `Routing` along on the calling thread, so a plan builds
//! the witness network at most once, and the cut stage, which only
//! floods, builds none.
//!
//! The graph is flat, so a search reads consecutive memory and compares
//! valves by id. The first route that gets an empty `Routing` builds in
//! it the max-flow network behind the feasibility test, frozen into the
//! same offset form, and the scratch space of a route: the copy of the
//! network's capacities, the marks and queue of its augmenting searches,
//! the walks' blocked mask, search state and candidate, node and valve
//! buffers, and the cell buffers of the expansion. Every later route
//! reuses them and allocates only the cell path it returns.

use crate::error::AtpgError;
use fpva_grid::graph::Arc;
use fpva_grid::{CellId, ChipGraph, EdgeId, EdgeKind, Fpva, PortId, PortKind, ValveId};
use rand::Rng;

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
/// routed path. [`Router::path_through_edge`] routes between *arbitrary*
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

/// Checks the channel-contiguity rule: the cells of every open component
/// (by `components`, a [`ChipGraph::components`] map) appear as one
/// contiguous run of `cells`.
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

/// A node, valve or network arc index as stored in the router's arrays.
fn id(x: usize) -> u32 {
    u32::try_from(x).expect("a chip's lowering has fewer than 2^32 nodes and arcs")
}

/// The empty entry of the router's linked lists and search marks.
const NONE: usize = usize::MAX;

/// The exact router of the [module documentation](self), on the chip's
/// [`ChipGraph`].
///
/// The graph is built once and never changes: routes only read it, so
/// threads can share one router. What a route writes lives in a
/// [`Routing`] that the caller passes along.
#[derive(Debug, Clone)]
pub struct Router<'a> {
    fpva: &'a Fpva,
    graph: ChipGraph,
}

/// The scratch space of routes on one [`Router`]: the witness max-flow
/// network of its chip and the buffers of a route. A new `Routing` is
/// empty; the first [`Router::path_through_edge`] that gets it builds the
/// network and sizes the buffers for the router's chip, and every later
/// route on that router reuses them, so a route allocates only the path
/// it returns. Pass one `Routing` to one router only.
#[derive(Debug, Clone, Default)]
pub struct Routing {
    scratch: Option<Scratch>,
}

/// What a [`Routing`] holds once built: the witness network of
/// [`Router::source_witness`] and the buffers of a route, each sized for
/// the chip.
#[derive(Debug, Clone)]
struct Scratch {
    net: Network,
    /// Per arc of the contracted graph out of a node other than a source
    /// node: the network's arc across the same valve.
    valve_arcs: Vec<u32>,
    /// The residual capacities of the route's max-flow, and the marks and
    /// queue of its augmenting searches.
    cap: Vec<u8>,
    via: Vec<u32>,
    queue: Vec<u32>,
    /// The source side's witness, endpoint first.
    witness: Vec<usize>,
    walk: Walk,
    /// The cells of one component on the way to a goal, each with the
    /// index of the cell it was reached from ([`Router::within`]).
    run: Vec<(CellId, usize)>,
    /// The route's cells.
    cells: Vec<CellId>,
}

/// The state of a route's two walks.
#[derive(Debug, Clone)]
struct Walk {
    /// Nodes the walk may not enter.
    blocked: Vec<bool>,
    search: Searches,
    /// A step's feasible arcs, and those the caller prefers.
    feasible: Vec<Arc>,
    preferred: Vec<Arc>,
    /// The nodes walked, and the valves between them.
    nodes: Vec<usize>,
    valves: Vec<u32>,
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
    /// Lowers `fpva` into the [`ChipGraph`] the router routes on.
    pub fn new(fpva: &'a Fpva) -> Self {
        Router {
            fpva,
            graph: ChipGraph::new(fpva),
        }
    }

    /// The chip the router was built for.
    pub(crate) fn fpva(&self) -> &'a Fpva {
        self.fpva
    }

    /// The chip's lowered graph, which the router routes on.
    pub(crate) fn graph(&self) -> &ChipGraph {
        &self.graph
    }

    fn node_of(&self, cell: CellId) -> usize {
        self.graph.node(self.fpva.cell_index(cell))
    }

    /// Routes a valid source→sink flow path through `edge` that crosses
    /// none of the `avoid`ed valves; see the [module documentation](self)
    /// for what "valid" means and how the path is built. `prefer` marks
    /// the valves the path should collect where it has a choice, and `rng`
    /// breaks ties among them.
    ///
    /// Returns the cell sequence (first cell = a source-port cell, last =
    /// a sink-port cell), or `None` exactly when no valid path exists.
    /// The first route on an empty `routing` builds its witness network
    /// and buffers; every route reuses them and allocates only the
    /// returned path.
    pub fn path_through_edge(
        &self,
        routing: &mut Routing,
        edge: EdgeId,
        avoid: &[ValveId],
        prefer: &dyn Fn(ValveId) -> bool,
        rng: &mut impl Rng,
    ) -> Option<Vec<CellId>> {
        let valve = self.fpva.valve_at(edge)?;
        if avoid.contains(&valve) {
            return None;
        }
        let r = routing.scratch.get_or_insert_with(|| Scratch::new(self));
        debug_assert!(
            r.valve_arcs.len() == self.graph.arc_count()
                && r.walk.blocked.len() == self.graph.node_count(),
            "a Routing serves the router that built it"
        );
        self.route(r, valve, avoid, prefer, rng)
    }

    /// [`Router::path_through_edge`] on the valve `valve`, with the
    /// scratch space `r`, which it hands back with every node unblocked.
    fn route(
        &self,
        r: &mut Scratch,
        valve: ValveId,
        avoid: &[ValveId],
        prefer: &dyn Fn(ValveId) -> bool,
        rng: &mut impl Rng,
    ) -> Option<Vec<CellId>> {
        let [nu, nv] = self.graph.valve_nodes(valve).map(|x| x as usize);
        let up = self.source_witness(r, nu, nv, avoid)?;
        let down = if up == nu { nv } else { nu };
        let w = &mut r.walk;
        w.nodes.clear();
        w.valves.clear();
        // No flow passes through a source node, so neither the witness nor
        // a source node holds `down`; with the source nodes blocked, the
        // sink side's targets are the sinks that are not sources.
        let sources = self.graph.source_nodes().iter().map(|&x| x as usize);
        for x in r.witness.iter().copied().chain(sources.clone()) {
            w.blocked[x] = true;
        }
        self.walk(w, down, self.graph.sink_flags(), avoid, prefer, rng);
        for x in r.witness.iter().copied().chain(sources) {
            w.blocked[x] = false;
        }
        let (down_nodes, down_valves) = (w.nodes.len(), w.valves.len());
        w.valves.push(id(valve.index()));
        self.walk(w, up, self.graph.source_flags(), avoid, prefer, rng);
        // The source side was walked from `up` outwards: put it first,
        // reversed, ahead of the sink side.
        swap_reversed(&mut w.nodes, down_nodes);
        swap_reversed(&mut w.valves, down_valves);
        for &x in &w.nodes {
            w.blocked[x] = false;
        }
        self.expand(&w.nodes, &w.valves, &mut r.run, &mut r.cells);
        Some(r.cells.clone())
    }

    /// Decides feasibility by max-flow: from a super source into `nu` and
    /// `nv`, out through one unit to a source node and one to a sink node,
    /// crossing no `avoid`ed valve. Each node has capacity 1, so a valve
    /// inside one component (`nu == nv`) never gets both units; a source
    /// node's only exit is the source terminal, so no flow passes through
    /// one. Returns the endpoint whose unit reaches a source node, and
    /// leaves that unit's nodes (endpoint first) in `r.witness`.
    ///
    /// A call runs on the router's network with a copy of its capacities
    /// in which the arcs of the avoided valves are empty; the super source
    /// is the list of its two arcs' heads. Searches meet the arcs in the
    /// order a network built for the call would give them, so the
    /// augmenting paths, and the witness, are the same.
    fn source_witness(
        &self,
        r: &mut Scratch,
        nu: usize,
        nv: usize,
        avoid: &[ValveId],
    ) -> Option<usize> {
        let Scratch {
            net,
            valve_arcs,
            cap,
            via,
            queue,
            witness,
            ..
        } = r;
        let (to_sources, to_sinks, t) = terminals(self.graph.node_count());
        cap.copy_from_slice(&net.cap);
        for &valve in avoid {
            for x in self.graph.valve_nodes(valve).map(|x| x as usize) {
                if self.graph.source_flags()[x] {
                    continue;
                }
                for (p, arc) in (self.graph.arc_offset(x)..).zip(self.graph.arcs(x)) {
                    if arc.valve as usize == valve.index() {
                        cap[valve_arcs[p] as usize] = 0;
                    }
                }
            }
        }
        // The super source's arcs, in the order a search tries them.
        let entries = [inn(nv), inn(nu)];
        let first = net.augment(cap, &entries, t, via, queue)?;
        net.augment(cap, &[entries[1 - first]], t, via, queue)?;
        // Both units leave the super source; follow each to its terminal.
        for start in [nu, nv] {
            witness.clear();
            witness.push(start);
            let mut at = out(start);
            loop {
                let next = net.flow_successor(cap, at);
                if next == to_sources {
                    return Some(start);
                }
                if next == to_sinks {
                    break;
                }
                witness.push(next / 2);
                at = out(next / 2);
            }
        }
        unreachable!("a flow of two reaches both terminals")
    }

    /// Grows one side of the path from `start` until it stands on a node
    /// of `target`, never entering a `blocked` node nor crossing an
    /// `avoid`ed valve. Appends the nodes it visits (`start` first) to
    /// `w.nodes` and the valves between them to `w.valves`, and leaves
    /// every visited node blocked.
    ///
    /// The caller guarantees that a target is reachable from `start`;
    /// every step keeps one reachable, so the walk never backtracks.
    fn walk(
        &self,
        w: &mut Walk,
        start: usize,
        target: &[bool],
        avoid: &[ValveId],
        prefer: &dyn Fn(ValveId) -> bool,
        rng: &mut impl Rng,
    ) {
        w.nodes.push(start);
        let mut at = start;
        while !target[at] {
            w.blocked[at] = true;
            self.feasible_arcs(
                at,
                target,
                &w.blocked,
                avoid,
                &mut w.search,
                &mut w.feasible,
            );
            w.preferred.clear();
            let preferred = w
                .feasible
                .iter()
                .filter(|a| prefer(ValveId(a.valve as usize)));
            w.preferred.extend(preferred);
            let pool = if w.preferred.is_empty() {
                &w.feasible
            } else {
                &w.preferred
            };
            let arc = pool[rng.gen_range(0..pool.len())];
            at = arc.to as usize;
            w.nodes.push(at);
            w.valves.push(arc.valve);
        }
        w.blocked[at] = true;
    }

    /// Collects into `out`, in valve order, the arcs from the (already
    /// blocked) node `at` into unblocked nodes across valves not
    /// `avoid`ed, after which a `target` node stays reachable.
    ///
    /// `at` reached a target before it was blocked, so a lone candidate
    /// does. Several are decided by the interleaved searches of the
    /// [module documentation](self): one per candidate node, each
    /// expanding one node per turn, until at most one undecided search is
    /// left and no other has met a target.
    fn feasible_arcs(
        &self,
        at: usize,
        target: &[bool],
        blocked: &[bool],
        avoid: &[ValveId],
        search: &mut Searches,
        out: &mut Vec<Arc>,
    ) {
        let usable = |a: &&Arc| {
            !blocked[a.to as usize] && avoid.iter().all(|v| v.index() != a.valve as usize)
        };
        out.clear();
        out.extend(self.graph.arcs(at).iter().filter(usable));
        if out.len() < 2 {
            return;
        }
        search.begin();
        for arc in out.iter() {
            let x = arc.to as usize;
            if !search.seen(x) {
                search.start(x, target[x]);
            }
        }
        let mut k = 0;
        while search.undecided() {
            if let Some(x) = search.next(k) {
                for arc in self.graph.arcs(x).iter().filter(usable) {
                    let y = arc.to as usize;
                    search.meet(k, y, target[y]);
                }
                search.settle(k);
            }
            k = (k + 1) % search.searches.len();
        }
        out.retain(|a| search.feasible(a.to as usize));
    }

    /// Expands a node path into `cells`: `valves[i]` joins `nodes[i]` and
    /// `nodes[i + 1]`; the first node is entered at a source cell and the
    /// last left at a sink cell. `run` is scratch space for
    /// [`Router::within`].
    fn expand(
        &self,
        nodes: &[usize],
        valves: &[u32],
        run: &mut Vec<(CellId, usize)>,
        cells: &mut Vec<CellId>,
    ) {
        let cell_in = |valve: u32, x: usize| {
            let (a, b) = self.fpva.edge_of(ValveId(valve as usize)).endpoints();
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
        cells.clear();
        for (i, &x) in nodes.iter().enumerate() {
            let exit = valves.get(i).map(|&e| cell_in(e, x));
            match (i.checked_sub(1).map(|k| cell_in(valves[k], x)), exit) {
                (Some(entry), Some(exit)) => self.within(entry, |c| c == exit, run, cells),
                (Some(entry), None) => {
                    self.within(entry, |c| is_port(c, PortKind::Sink), run, cells);
                }
                (None, Some(exit)) => {
                    // The first node: its run is all `cells` holds.
                    self.within(exit, |c| is_port(c, PortKind::Source), run, cells);
                    cells.reverse();
                }
                (None, None) => unreachable!("a path through a valve spans two nodes"),
            }
        }
    }

    /// Appends to `cells` the shortest run of cells from `from` to the
    /// first cell meeting `goal` along always-open edges, i.e. inside
    /// `from`'s open component. A run whose first cell meets `goal`, as
    /// every lone cell's does, is that cell alone. `run` is scratch space.
    fn within(
        &self,
        from: CellId,
        goal: impl Fn(CellId) -> bool,
        run: &mut Vec<(CellId, usize)>,
        cells: &mut Vec<CellId>,
    ) {
        if goal(from) {
            cells.push(from);
            return;
        }
        // Components are short channels: a list scan beats a cell-sized map.
        run.clear();
        run.push((from, NONE));
        let mut head = 0;
        while !goal(run[head].0) {
            let cell = run[head].0;
            for (edge, next) in self.fpva.neighbors(cell) {
                if self.fpva.edge_kind(edge) == EdgeKind::Open
                    && !run.iter().any(|&(c, _)| c == next)
                {
                    run.push((next, head));
                }
            }
            head += 1;
        }
        let start = cells.len();
        let mut k = head;
        while k != NONE {
            cells.push(run[k].0);
            k = run[k].1;
        }
        cells[start..].reverse();
    }
}

/// Turns `[a, b]`, where `a = buf[..split]`, into `[reversed b, a]`.
fn swap_reversed<T>(buf: &mut [T], split: usize) {
    buf.rotate_left(split);
    let moved = buf.len() - split;
    buf[..moved].reverse();
}

impl Scratch {
    /// The witness network of `router` and route buffers sized for its
    /// chip.
    fn new(router: &Router<'_>) -> Self {
        let graph = &router.graph;
        let n = graph.node_count();
        let (to_sources, to_sinks, t) = terminals(n);
        let mut pairs = Vec::new();
        let mut valve_arcs = vec![u32::MAX; graph.arc_count()];
        for x in 0..n {
            pairs.push((inn(x), out(x)));
            if graph.source_flags()[x] {
                pairs.push((out(x), to_sources));
                continue;
            }
            if graph.sink_flags()[x] {
                pairs.push((out(x), to_sinks));
            }
            for (p, arc) in (graph.arc_offset(x)..).zip(graph.arcs(x)) {
                valve_arcs[p] = id(pairs.len());
                pairs.push((out(x), inn(arc.to as usize)));
            }
        }
        pairs.push((to_sources, t));
        pairs.push((to_sinks, t));
        let (net, forward) = Network::freeze(t + 1, &pairs);
        for a in valve_arcs.iter_mut().filter(|a| **a != u32::MAX) {
            *a = forward[*a as usize];
        }
        let degree = (0..n).map(|x| graph.arcs(x).len()).max().unwrap_or(0);
        let mut cells_per_node = vec![0usize; n];
        for &x in graph.components() {
            cells_per_node[x] += 1;
        }
        let largest = cells_per_node.into_iter().max().unwrap_or(0);
        Scratch {
            valve_arcs,
            cap: net.cap.clone(),
            via: vec![u32::MAX; t + 1],
            queue: Vec::with_capacity(t + 1),
            witness: Vec::with_capacity(n),
            walk: Walk {
                blocked: vec![false; n],
                search: Searches::new(n, degree),
                feasible: Vec::with_capacity(degree),
                preferred: Vec::with_capacity(degree),
                nodes: Vec::with_capacity(n),
                valves: Vec::with_capacity(n),
            },
            run: Vec::with_capacity(largest),
            cells: Vec::with_capacity(graph.components().len()),
            net,
        }
    }
}

/// What a group of merged searches of [`Searches`] has found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reach {
    /// Still searching.
    Open,
    /// Met an unblocked target node.
    Target,
    /// Ran dry: its piece holds no target node.
    Dry,
}

/// One breadth-first search of a [`Router::feasible_arcs`] step. Its
/// queue is a list linked through [`Searches::link`].
#[derive(Debug, Clone, Copy)]
struct Search {
    /// The next node to expand ([`NONE`] when it has none left) and the
    /// last node it visited.
    head: usize,
    tail: usize,
    /// The search whose record holds the group's verdict, and, in that
    /// record, the verdict and the number of members with nodes left to
    /// expand.
    group: usize,
    reach: Reach,
    live: usize,
}

/// Reusable state of [`Router::feasible_arcs`] across the steps of a
/// router's walks: per node an epoch-stamped owner and the link to the
/// next node of its owner's queue, and the step's searches.
#[derive(Debug, Clone)]
struct Searches {
    /// The step that last visited each node, and the search that did.
    seen: Vec<u32>,
    owner: Vec<usize>,
    link: Vec<usize>,
    epoch: u32,
    searches: Vec<Search>,
    /// Groups still `Open`.
    open: usize,
    /// Whether some group met a target.
    found: bool,
}

impl Searches {
    /// State for `nodes` nodes and steps of up to `candidates` candidates.
    fn new(nodes: usize, candidates: usize) -> Self {
        Searches {
            seen: vec![0; nodes],
            owner: vec![0; nodes],
            link: vec![NONE; nodes],
            epoch: 0,
            searches: Vec::with_capacity(candidates),
            open: 0,
            found: false,
        }
    }

    /// Starts a step with nothing visited and no search.
    fn begin(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // The stamps of 2^32 steps ago would read as this step's.
            self.seen.fill(0);
            self.epoch = 1;
        }
        self.searches.clear();
        self.open = 0;
        self.found = false;
    }

    fn seen(&self, x: usize) -> bool {
        self.seen[x] == self.epoch
    }

    /// Starts a search, a group of its own, at the unvisited candidate
    /// node `x`.
    fn start(&mut self, x: usize, target: bool) {
        let k = self.searches.len();
        self.searches.push(Search {
            head: NONE,
            tail: NONE,
            group: k,
            reach: Reach::Open,
            live: 1,
        });
        self.open += 1;
        self.visit(x, k, target);
    }

    /// Search `k` visits the unvisited node `x`.
    fn visit(&mut self, x: usize, k: usize, target: bool) {
        self.seen[x] = self.epoch;
        self.owner[x] = k;
        self.link[x] = NONE;
        let search = &mut self.searches[k];
        if search.head == NONE {
            search.head = x;
        } else {
            self.link[search.tail] = x;
        }
        search.tail = x;
        let group = search.group;
        let group = &mut self.searches[group];
        if target && group.reach == Reach::Open {
            group.reach = Reach::Target;
            self.open -= 1;
            self.found = true;
        }
    }

    /// Whether the step must search on: more than one group is undecided,
    /// or one is and another already met a target. A lone undecided group
    /// with none met holds the node the walk's invariant promises.
    fn undecided(&self) -> bool {
        self.open > 1 || (self.open == 1 && self.found)
    }

    /// The next node search `k` expands, if its group is undecided and it
    /// has one left.
    fn next(&mut self, k: usize) -> Option<usize> {
        let search = self.searches[k];
        if self.searches[search.group].reach != Reach::Open || search.head == NONE {
            return None;
        }
        self.searches[k].head = self.link[search.head];
        Some(search.head)
    }

    /// Search `k` steps onto the passable node `y`: it visits `y`, or its
    /// group absorbs the group of the search that already did. No group
    /// that ran dry borders a visited node, so a merge joins two groups
    /// that are undecided or met a target.
    fn meet(&mut self, k: usize, y: usize, target: bool) {
        if !self.seen(y) {
            self.visit(y, k, target);
            return;
        }
        let (a, b) = (self.searches[k].group, self.searches[self.owner[y]].group);
        if a == b {
            return;
        }
        for search in &mut self.searches {
            if search.group == b {
                search.group = a;
            }
        }
        let (ra, rb) = (self.searches[a].reach, self.searches[b].reach);
        self.searches[a].live += self.searches[b].live;
        if ra == Reach::Open || rb == Reach::Open {
            self.open -= 1;
        }
        if rb == Reach::Target {
            self.searches[a].reach = Reach::Target;
        }
    }

    /// Retires search `k` once it has expanded every node it visited; a
    /// group whose members are all retired before meeting a target ran
    /// dry.
    fn settle(&mut self, k: usize) {
        let search = self.searches[k];
        if search.head != NONE {
            return;
        }
        let group = &mut self.searches[search.group];
        group.live -= 1;
        if group.live == 0 && group.reach == Reach::Open {
            group.reach = Reach::Dry;
            self.open -= 1;
        }
    }

    /// Whether the candidate node `x` keeps a target reachable, once the
    /// step's searches are decided.
    fn feasible(&self, x: usize) -> bool {
        let group = self.searches[self.owner[x]].group;
        self.searches[group].reach != Reach::Dry
    }
}

/// A unit-capacity flow network, frozen: the arcs out of node `x` are
/// `offsets[x]..offsets[x + 1]`, arc `a`'s residual twin is `twin[a]`, and
/// `cap` holds the capacities before any flow, so the forward arcs are
/// those with a unit. A max-flow run works on a copy of `cap`.
#[derive(Debug, Clone)]
struct Network {
    offsets: Vec<u32>,
    to: Vec<u32>,
    twin: Vec<u32>,
    cap: Vec<u8>,
}

impl Network {
    /// The network of the unit arcs `pairs`, added in that order, each
    /// with its empty twin. Each node lists its arcs newest first: the
    /// searches meet them in that order, which fixes the augmenting paths,
    /// the witnesses and so the plans. Returns the network and the index
    /// of each pair's forward arc.
    fn freeze(nodes: usize, pairs: &[(usize, usize)]) -> (Network, Vec<u32>) {
        let mut ends = vec![0usize; nodes + 1];
        for &(a, b) in pairs {
            ends[a + 1] += 1;
            ends[b + 1] += 1;
        }
        for x in 0..nodes {
            ends[x + 1] += ends[x];
        }
        let arcs = ends[nodes];
        let offsets = ends.iter().map(|&e| id(e)).collect();
        // Each node's run fills from its end, so the newest arc is first.
        let mut fill = ends.split_off(1);
        let (mut to, mut twin, mut cap) = (vec![0; arcs], vec![0; arcs], vec![0; arcs]);
        let mut forward = Vec::with_capacity(pairs.len());
        for &(a, b) in pairs {
            fill[a] -= 1;
            fill[b] -= 1;
            let (f, r) = (fill[a], fill[b]);
            (to[f], twin[f], cap[f]) = (id(b), id(r), 1);
            (to[r], twin[r]) = (id(a), id(f));
            forward.push(id(f));
        }
        let net = Network {
            offsets,
            to,
            twin,
            cap,
        };
        (net, forward)
    }

    fn arcs(&self, x: usize) -> std::ops::Range<usize> {
        self.offsets[x] as usize..self.offsets[x + 1] as usize
    }

    /// Pushes one unit along a shortest augmenting path in the residual
    /// capacities `cap`, from a super source with one arc into each node
    /// of `entries` (searched in that order) to `t`. Returns the position
    /// in `entries` of the node the path starts at, or `None` when the
    /// flow is already maximum.
    ///
    /// `via` (one `u32::MAX` per node) and `queue` are scratch space for
    /// the search; `via` is handed back as it came, so a caller can reuse
    /// both across augmentations.
    fn augment(
        &self,
        cap: &mut [u8],
        entries: &[usize],
        t: usize,
        via: &mut [u32],
        queue: &mut Vec<u32>,
    ) -> Option<usize> {
        const UNSEEN: u32 = u32::MAX;
        const ENTRY: u32 = u32::MAX - 1;
        queue.clear();
        for &x in entries {
            if via[x] == UNSEEN {
                via[x] = ENTRY;
                queue.push(id(x));
            }
        }
        let mut head = 0;
        while let Some(&x) = queue.get(head) {
            head += 1;
            for a in self.arcs(x as usize) {
                let y = self.to[a];
                if cap[a] > 0 && via[y as usize] == UNSEEN {
                    via[y as usize] = a as u32;
                    queue.push(y);
                }
            }
            if via[t] != UNSEEN {
                break;
            }
        }
        let used = (via[t] != UNSEEN).then(|| {
            let mut y = t;
            while via[y] != ENTRY {
                let a = via[y] as usize;
                let back = self.twin[a] as usize;
                cap[a] -= 1;
                cap[back] += 1;
                y = self.to[back] as usize;
            }
            let used = entries.iter().position(|&x| x == y);
            used.expect("an augmenting path starts at an entry")
        });
        // Every node the search marked is on the queue.
        for &x in queue.iter() {
            via[x as usize] = UNSEEN;
        }
        used
    }

    /// The head of the forward arc out of `x` that carries flow in the
    /// residual capacities `cap`. Flow shows on the twin: an emptied arc
    /// of an avoided valve has no capacity left either, but carries
    /// nothing.
    fn flow_successor(&self, cap: &[u8], x: usize) -> usize {
        self.arcs(x)
            .find(|&a| self.cap[a] > 0 && cap[self.twin[a] as usize] > 0)
            .map(|a| self.to[a] as usize)
            .expect("flow is conserved at every inner node")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpva_grid::layouts::{self, GenSpec, PortRule};
    use fpva_grid::{Axis, FpvaBuilder, Side};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::{HashSet, VecDeque};

    fn crosses(f: &Fpva, cells: &[CellId], edge: EdgeId) -> bool {
        cells
            .windows(2)
            .any(|w| f.edge_between(w[0], w[1]) == Some(edge))
    }

    /// A new `Routing` holds no witness network and no route buffers;
    /// the first route builds them.
    #[test]
    fn witness_network_is_built_on_the_first_route() {
        let f = layouts::table1_5x5();
        let router = Router::new(&f);
        let mut routing = Routing::default();
        assert!(routing.scratch.is_none());
        let edge = f.edge_of(ValveId(0));
        let mut rng = StdRng::seed_from_u64(1);
        assert!(router
            .path_through_edge(&mut routing, edge, &[], &|_| false, &mut rng)
            .is_some());
        assert!(routing.scratch.is_some());
    }

    /// Per cell of `f`, whether the flood of the router's graph from the
    /// sources, with the valves `closed` closed, reaches the cell's node.
    fn reachable(f: &Fpva, closed: &[bool]) -> Vec<bool> {
        let router = Router::new(f);
        let graph = router.graph();
        let mut seen = vec![false; graph.node_count()];
        graph.flood(PortKind::Source, closed, false, &mut seen, &mut Vec::new());
        (0..f.cell_count()).map(|c| seen[graph.node(c)]).collect()
    }

    #[test]
    fn reachability_full_grid() {
        let f = layouts::full_array(3, 3);
        let seen = reachable(&f, &vec![false; f.valve_count()]);
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn reachability_respects_blocked_edges() {
        let f = layouts::full_array(1, 3);
        let mut closed = vec![false; f.valve_count()];
        closed[f.valve_at(EdgeId::horizontal(0, 1)).unwrap().index()] = true;
        let seen = reachable(&f, &closed);
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
        let seen = reachable(&f, &vec![false; f.valve_count()]);
        assert!(
            !seen[f.cell_index(CellId::new(0, 2))],
            "obstacle column splits the array"
        );
    }

    #[test]
    fn routed_paths_are_simple_port_to_port_and_cross_the_edge() {
        let f = layouts::full_array(4, 4);
        let router = Router::new(&f);
        let mut routing = Routing::default();
        for seed in 0..5 {
            let mut rng = StdRng::seed_from_u64(seed);
            for (_, edge) in f.valves() {
                let path = router
                    .path_through_edge(&mut routing, edge, &[], &|_| false, &mut rng)
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
            let cells = Router::new(&f)
                .path_through_edge(&mut Routing::default(), edge, &[], &|_| false, &mut rng)
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
        let first = f.valve_at(EdgeId::horizontal(0, 0)).unwrap();
        let got = Router::new(&f).path_through_edge(
            &mut Routing::default(),
            EdgeId::horizontal(0, 1),
            &[first],
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
        let router = Router::new(&f);
        let id = |r, c| router.node_of(CellId::new(r, c));
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
        let graph = ChipGraph::new(&f);
        let comps = graph.components();
        // Straight pass through the channel: fine.
        let pass: Vec<CellId> = vec![
            CellId::new(0, 0),
            CellId::new(1, 0),
            CellId::new(1, 1),
            CellId::new(2, 1),
        ];
        assert!(components_contiguous(&f, comps, &pass));
        // Leave the channel and come back: bypass loop, rejected.
        let reenter: Vec<CellId> = vec![
            CellId::new(1, 0),
            CellId::new(0, 0),
            CellId::new(0, 1),
            CellId::new(1, 1),
        ];
        assert!(!components_contiguous(&f, comps, &reenter));
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
        let graph = ChipGraph::new(&f);
        let comps = graph.components();
        let mut rng = StdRng::seed_from_u64(2);
        for (_, edge) in f.valves() {
            let cells = Router::new(&f)
                .path_through_edge(&mut Routing::default(), edge, &[], &|_| false, &mut rng)
                .unwrap_or_else(|| panic!("no path through {edge}"));
            assert!(
                components_contiguous(&f, comps, &cells),
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
        let axis = |v: ValveId| f.edge_of(v).axis;
        for seed in 0..8 {
            let mut rng = StdRng::seed_from_u64(seed);
            let down = Router::new(&f)
                .path_through_edge(
                    &mut Routing::default(),
                    edge,
                    &[],
                    &|v| axis(v) == Axis::Vertical,
                    &mut rng,
                )
                .unwrap();
            assert_eq!(down[2], CellId::new(2, 0), "preferred vertical step");
            let across = Router::new(&f)
                .path_through_edge(
                    &mut Routing::default(),
                    edge,
                    &[],
                    &|v| axis(v) == Axis::Horizontal,
                    &mut rng,
                )
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
        assert!(Router::new(&f)
            .path_through_edge(&mut Routing::default(), pocket, &[], &|_| false, &mut rng)
            .is_none());
        assert!(Router::new(&f)
            .path_through_edge(
                &mut Routing::default(),
                EdgeId::vertical(0, 0),
                &[],
                &|_| false,
                &mut rng
            )
            .is_some());
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
        assert!(Router::new(&f)
            .path_through_edge(&mut Routing::default(), inner, &[], &|_| false, &mut rng)
            .is_none());
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
            assert!(Router::new(&f)
                .path_through_edge(&mut Routing::default(), edge, &[], &|_| false, &mut rng)
                .is_none());
        }
        let last = Router::new(&f).path_through_edge(
            &mut Routing::default(),
            EdgeId::horizontal(0, 2),
            &[],
            &|_| false,
            &mut rng,
        );
        assert_eq!(last, Some(vec![CellId::new(0, 2), CellId::new(0, 3)]));
    }

    /// Nodes the reference step's local probe expands before its full
    /// search.
    const LOCAL_PROBE: usize = 24;

    /// Breadth-first search over unblocked nodes and `usable` arcs from
    /// everything already in `queue` (and marked in `seen`), expanding at
    /// most `limit` nodes.
    fn flood(
        router: &Router<'_>,
        blocked: &[bool],
        usable: &dyn Fn(&Arc) -> bool,
        seen: &mut [bool],
        queue: &mut Vec<usize>,
        limit: usize,
    ) {
        let mut head = 0;
        while head < queue.len().min(limit) {
            let x = queue[head];
            head += 1;
            for arc in router.graph.arcs(x).iter().filter(|a| usable(a)) {
                let y = arc.to as usize;
                if !blocked[y] && !seen[y] {
                    seen[y] = true;
                    queue.push(y);
                }
            }
        }
    }

    /// The walk step the interleaved searches replaced: a bounded probe
    /// from the first candidate, then, if the probe misses a candidate,
    /// one search from the unblocked targets. Returns the number of
    /// candidates and the feasible arcs' valves.
    fn feasible_by_flood(
        router: &Router<'_>,
        at: usize,
        target: &[bool],
        blocked: &[bool],
        usable: &dyn Fn(&Arc) -> bool,
    ) -> (usize, Vec<u32>) {
        let n = router.graph.node_count();
        let mut out: Vec<Arc> = router
            .graph
            .arcs(at)
            .iter()
            .filter(|a| usable(a) && !blocked[a.to as usize])
            .copied()
            .collect();
        let candidates = out.len();
        if let Some(first) = out.first().map(|a| a.to as usize) {
            let mut seen = vec![false; n];
            seen[first] = true;
            let mut queue = vec![first];
            flood(router, blocked, usable, &mut seen, &mut queue, LOCAL_PROBE);
            if !out.iter().all(|a| seen[a.to as usize]) {
                let mut seen = vec![false; n];
                let mut queue: Vec<usize> = (0..n).filter(|&x| target[x] && !blocked[x]).collect();
                for &x in &queue {
                    seen[x] = true;
                }
                flood(router, blocked, usable, &mut seen, &mut queue, usize::MAX);
                out.retain(|a| seen[a.to as usize]);
            }
        }
        (candidates, out.iter().map(|a| a.valve).collect())
    }

    /// Whether `from` reaches a target over unblocked nodes.
    fn reaches(
        router: &Router<'_>,
        from: usize,
        target: &[bool],
        blocked: &[bool],
        usable: &dyn Fn(&Arc) -> bool,
    ) -> bool {
        let mut seen = vec![false; router.graph.node_count()];
        seen[from] = true;
        let mut queue = vec![from];
        flood(router, blocked, usable, &mut seen, &mut queue, usize::MAX);
        queue.iter().any(|&x| target[x])
    }

    /// Walks like [`Router::walk`], `walks` times on `f`, each from a random
    /// start that reaches its targets over a random blocked set, with a
    /// random avoided valve half the time. A walk heads for the source
    /// nodes, or for the sink nodes with every source node blocked, as a
    /// route's two walks do. Checks every step's feasible arcs against
    /// [`feasible_by_flood`] and returns how many steps it checked and how
    /// many of them pruned a candidate.
    fn check_walk_steps(f: &Fpva, walks: usize, rng: &mut StdRng) -> (usize, usize) {
        let router = Router::new(f);
        let n = router.graph.node_count();
        let valves: Vec<ValveId> = f.valves().map(|(v, _)| v).collect();
        let mut search = Searches::new(n, 0);
        let mut out = Vec::new();
        let (mut steps, mut pruned) = (0, 0);
        for _ in 0..walks {
            let to_sources = rng.gen_bool(0.5);
            let avoid = if valves.is_empty() || rng.gen_bool(0.5) {
                Vec::new()
            } else {
                vec![valves[rng.gen_range(0..valves.len())]]
            };
            let usable = |a: &Arc| !avoid.iter().any(|v| v.index() == a.valve as usize);
            let density = [0.0, 0.15, 0.3, 0.45][rng.gen_range(0..4usize)];
            let mut blocked: Vec<bool> = (0..n).map(|_| rng.gen_bool(density)).collect();
            let mut at = rng.gen_range(0..n);
            blocked[at] = false;
            let target = if to_sources {
                router.graph.source_flags()
            } else {
                for (b, &s) in blocked.iter_mut().zip(router.graph.source_flags()) {
                    *b |= s;
                }
                router.graph.sink_flags()
            };
            if target[at] || blocked[at] || !reaches(&router, at, target, &blocked, &usable) {
                continue;
            }
            while !target[at] {
                blocked[at] = true;
                router.feasible_arcs(at, target, &blocked, &avoid, &mut search, &mut out);
                let (candidates, expected) =
                    feasible_by_flood(&router, at, target, &blocked, &usable);
                let got: Vec<u32> = out.iter().map(|a| a.valve).collect();
                assert_eq!(
                    got, expected,
                    "step from node {at}, to sources: {to_sources}"
                );
                steps += 1;
                pruned += usize::from(expected.len() < candidates);
                at = out[rng.gen_range(0..out.len())].to as usize;
            }
        }
        (steps, pruned)
    }

    /// Chips of 3–12 cells a side with channels of either orientation and
    /// one to three ports of each kind on the boundary.
    const DIFFERENTIAL_CHIPS: GenSpec = GenSpec {
        sides: 3..13,
        channels: 0..4,
        vertical_channels: true,
        ports: PortRule::Boundary(1..4),
    };

    /// Fixed chips followed by `generated` ones of [`DIFFERENTIAL_CHIPS`].
    fn differential_chips(fixed: Vec<Fpva>, generated: usize, rng: &mut StdRng) -> Vec<Fpva> {
        let mut draw = |range| rng.gen_range(range);
        let mut chips = fixed;
        chips.extend((0..generated).map(|_| layouts::generated(&DIFFERENTIAL_CHIPS, &mut draw)));
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

    /// A unit-capacity network in forward-star form, each node's arcs in a
    /// linked list, newest first; arc `i`'s residual twin is `i ^ 1`: the
    /// reference the frozen network is checked against.
    struct ListNetwork {
        head: Vec<usize>,
        next: Vec<usize>,
        to: Vec<usize>,
        cap: Vec<u8>,
    }

    impl ListNetwork {
        fn new(nodes: usize) -> Self {
            ListNetwork {
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
    }

    /// Pushes one unit from the real super source `s` along a shortest
    /// augmenting path in `net.cap`.
    fn augment_from(net: &mut ListNetwork, s: usize, t: usize) -> bool {
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

    /// [`Router::source_witness`] on a forward-star network built afresh
    /// for the call, without the avoided valves' arcs, with a real super
    /// source, and flow read off the forward arcs.
    fn witness_by_fresh_network(
        router: &Router<'_>,
        nu: usize,
        nv: usize,
        avoid: &[ValveId],
    ) -> Option<(usize, Vec<usize>)> {
        let n = router.graph.node_count();
        let (to_sources, to_sinks, t) = terminals(n);
        let s = t + 1;
        let mut net = ListNetwork::new(s + 1);
        for x in 0..n {
            net.add(inn(x), out(x));
            if router.graph.source_flags()[x] {
                net.add(out(x), to_sources);
                continue;
            }
            if router.graph.sink_flags()[x] {
                net.add(out(x), to_sinks);
            }
            let kept = router.graph.arcs(x).iter().filter(|a| {
                let valve = ValveId(a.valve as usize);
                !avoid.contains(&valve)
            });
            for arc in kept {
                net.add(out(x), inn(arc.to as usize));
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
    /// adjacent one avoided, the witness of the router's frozen network,
    /// reused across all calls, equals a fresh network's. Returns the
    /// calls and those that found a witness.
    fn check_witnesses(f: &Fpva) -> (usize, usize) {
        let router = Router::new(f);
        let mut scratch = Scratch::new(&router);
        let (mut calls, mut found) = (0, 0);
        for (v, edge) in f.valves() {
            let (a, b) = edge.endpoints();
            let (nu, nv) = (router.node_of(a), router.node_of(b));
            let mut avoids = vec![Vec::new()];
            avoids.extend(f.valve_neighbors(v).into_iter().map(|w| vec![w]));
            for avoid in &avoids {
                let got = router
                    .source_witness(&mut scratch, nu, nv, avoid)
                    .map(|up| (up, scratch.witness.clone()));
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
