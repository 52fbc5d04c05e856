//! Control-layer leakage test vectors.
//!
//! The paper states that control-layer leakage "can also be detected by
//! adapting the valve coverage problem" but omits the construction for
//! space. This module implements that adaptation:
//!
//! A leak fault `(a → b)` closes victim `b` whenever actuator `a` is
//! commanded closed. A **path-shaped vector** detects the pair exactly when
//! `b` lies on the (only) active pressure path while `a` is commanded
//! closed — the leak then erroneously closes `b` and the sink reading
//! disappears. Since a flow-path vector closes every off-path valve, the
//! flow-path suite already covers every pair with `a` off-path and `b`
//! on-path; what remains are pairs where every path through `b` also
//! carries `a`. For each such pair the generator routes an extra flow path
//! through `b` that avoids `a`, with the exact [`Router`]: when it finds
//! none, no valid path exists and the pair is reported uncovered.
//!
//! Physical adjacency (control channels routed next to each other —
//! [`fpva_grid::Fpva::valve_neighbors`]) bounds the pair universe, which
//! keeps the extra-vector count in the order of the flow-path count, as in
//! the paper's Table I (`n_l ≈ n_p`).

use crate::connectivity::{endpoint_ports, ports, Router};
use crate::error::AtpgError;
use crate::path::FlowPath;
use fpva_grid::{EdgeId, Fpva, ValveId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;

/// Certifies that the ordered pair `(actuator, victim)` can never be
/// exposed by any pressure-based vector: with the actuator's edge closed,
/// no source→sink route can cross the victim's edge at all (the victim's
/// behaviour is unobservable). This is the negation of the simulator's
/// [`fpva_sim::campaign::leak_is_observable`].
///
/// The canonical case is the two valves of a port-less corner cell: each
/// is the only route to the other, so closing one hides the other. The
/// paper's pressure-metering methodology cannot test such a pair either.
pub fn pair_untestable(fpva: &Fpva, actuator: ValveId, victim: ValveId) -> bool {
    !fpva_sim::campaign::leak_is_observable(fpva, actuator, victim)
}

/// Output of [`leakage_vectors`].
#[derive(Debug, Clone)]
pub struct LeakageCover {
    /// Extra path-shaped vectors dedicated to leakage (the paper's `n_l`).
    pub paths: Vec<FlowPath>,
    /// Adjacent ordered pairs `(actuator, victim)` that no vector covers
    /// (victim unreachable without crossing the actuator). On the paper's
    /// layouts these are the reciprocal pairs of the port-less corner
    /// cells, each certified by [`pair_untestable`]: 4 on every Table I
    /// plan, 20 in all.
    pub uncovered_pairs: Vec<(ValveId, ValveId)>,
}

impl LeakageCover {
    /// `true` when every adjacent ordered pair is covered.
    pub fn is_complete(&self) -> bool {
        self.uncovered_pairs.is_empty()
    }
}

/// Generates the dedicated control-leakage vectors given the already
/// generated flow paths; `seed` breaks ties in the router's walks.
/// `tries` is ignored (routing is exact and needs no retries); the
/// parameter stays because the benchmark harness
/// (`perfbench/src/adapter.rs`) passes it.
///
/// # Errors
///
/// Returns [`AtpgError::MissingPorts`] when the array lacks ports.
pub fn leakage_vectors(
    fpva: &Fpva,
    flow_paths: &[FlowPath],
    seed: u64,
    _tries: usize,
) -> Result<LeakageCover, AtpgError> {
    ports(fpva)?; // Fail fast when the chip has no source or no sink.
    Ok(leakage_vectors_on(&Router::new(fpva), flow_paths, seed))
}

/// [`leakage_vectors`] on the router of a chip that has ports.
pub(crate) fn leakage_vectors_on(
    router: &Router<'_>,
    flow_paths: &[FlowPath],
    seed: u64,
) -> LeakageCover {
    let fpva = router.fpva();
    let mut rng = StdRng::seed_from_u64(seed);

    // A pair (a, b) is covered iff some path-shaped vector has b on the
    // path and a off it. Per valve, one bit per flow path holding it.
    let words = flow_paths.len().div_ceil(64);
    let mut holders = vec![0u64; fpva.valve_count() * words];
    for (k, path) in flow_paths.iter().enumerate() {
        for v in path.valves(fpva) {
            holders[v.index() * words + k / 64] |= 1 << (k % 64);
        }
    }
    let held = |v: ValveId| &holders[v.index() * words..][..words];
    let covered = |a: ValveId, b: ValveId| held(b).iter().zip(held(a)).any(|(b, a)| b & !a != 0);

    // `pending_victims` counts, per valve, the pairs still in `todo` with
    // that valve as victim (victims repeat across pairs). It is kept in
    // sync with every queue edit, so the routing preference below is one
    // lookup instead of a rescan of the whole queue per expanded edge.
    let mut todo: VecDeque<(ValveId, ValveId)> = VecDeque::new();
    let mut pending_victims = vec![0u32; fpva.valve_count()];
    for (a, b) in fpva.valve_neighbor_pairs() {
        if !covered(a, b) {
            todo.push_back((a, b));
            pending_victims[b.index()] += 1;
        }
    }

    let mut extra_paths: Vec<FlowPath> = Vec::new();
    let mut uncovered: Vec<(ValveId, ValveId)> = Vec::new();
    // The valves of the newest extra path, cleared after its queue scan.
    let mut on_path = vec![false; fpva.valve_count()];
    while let Some(&(a, b)) = todo.front() {
        // Prefer steps that knock out other pending victims, so one extra
        // vector covers many pairs at once.
        let prefer = |e: EdgeId| {
            fpva.valve_at(e)
                .is_some_and(|v| pending_victims[v.index()] > 0)
        };
        let found =
            router.path_through_edge(fpva.edge_of(b), &[fpva.edge_of(a)], &prefer, &mut rng);
        match found {
            Some(cells) => {
                // The router may end at any source/sink pair, so the ports
                // must be read off the path itself.
                let (src, snk) = endpoint_ports(fpva, &cells).expect("routes end at port cells");
                let path = FlowPath::with_components(fpva, router.components(), src, snk, cells)
                    .expect("routes are valid flow paths");
                let valves = path.valves(fpva);
                for v in &valves {
                    on_path[v.index()] = true;
                }
                todo.retain(|&(x, y)| {
                    let keep = !on_path[y.index()] || on_path[x.index()];
                    if !keep {
                        pending_victims[y.index()] -= 1;
                    }
                    keep
                });
                for v in &valves {
                    on_path[v.index()] = false;
                }
                extra_paths.push(path);
            }
            None => {
                uncovered.push((a, b));
                todo.pop_front();
                pending_victims[b.index()] -= 1;
            }
        }
    }
    LeakageCover {
        paths: extra_paths,
        uncovered_pairs: uncovered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristic::greedy_cover;
    use crate::hierarchy::{hierarchical_cover, HierarchyConfig};
    use fpva_grid::layouts;
    use fpva_sim::{audit, TestSuite};
    use std::collections::HashSet;

    #[test]
    fn leak_pairs_all_covered_on_5x5_except_corner_pockets() {
        let f = layouts::table1_5x5();
        let cover = greedy_cover(&f, 7).unwrap();
        assert!(cover.is_complete());
        let leak = leakage_vectors(&f, &cover.paths, 3, 48).unwrap();
        // The two port-less corner cells each contribute a reciprocal pair
        // of physically untestable leaks (4 pairs total).
        assert_eq!(leak.uncovered_pairs.len(), 4, "{:?}", leak.uncovered_pairs);
        for &(a, b) in &leak.uncovered_pairs {
            assert!(
                pair_untestable(&f, a, b),
                "({a},{b}) reported but not certified"
            );
        }

        // Ground truth via simulation: path + leak vectors detect every
        // adjacent control-leak fault except exactly those pairs.
        let mut vectors: Vec<_> = cover.paths.iter().map(|p| p.to_vector(&f)).collect();
        vectors.extend(leak.paths.iter().map(|p| p.to_vector(&f)));
        let suite = TestSuite::new(&f, vectors);
        let report = audit::leak_coverage(&f, &suite);
        assert_eq!(
            report.undetected.len(),
            4,
            "undetected: {:?}",
            report.undetected
        );
        for fault in &report.undetected {
            let fpva_sim::Fault::ControlLeak { actuator, victim } = fault else {
                panic!("unexpected fault kind {fault:?}")
            };
            assert!(leak.uncovered_pairs.contains(&(*actuator, *victim)));
        }
    }

    #[test]
    fn extra_vector_count_is_moderate() {
        let f = layouts::table1_10x10();
        let cover = greedy_cover(&f, 7).unwrap();
        let leak = leakage_vectors(&f, &cover.paths, 3, 48).unwrap();
        // Paper reports n_l = 4 for the 10x10; allow headroom but stay in
        // the same order of magnitude (not O(n_v)).
        assert!(
            leak.paths.len() <= 24,
            "{} leakage vectors",
            leak.paths.len()
        );
        // Only the corner-pocket pairs may remain uncovered.
        for &(a, b) in &leak.uncovered_pairs {
            assert!(
                pair_untestable(&f, a, b),
                "({a},{b}) reported but not certified"
            );
        }
    }

    #[test]
    fn untestable_pairs_are_those_no_route_crosses() {
        // Reference: with both valves closed and all else open, a pair is
        // untestable exactly when no source-side flood reaches one end of
        // the victim while a sink-side flood reaches the other. Two
        // floods per pair, so only the smaller chips.
        use crate::connectivity::{closed_edges, reachable_from, sink_cells, source_cells};
        let chips = [
            layouts::table1_5x5(),
            layouts::table1_10x10(),
            layouts::custom_biochip(),
        ];
        let mut untestable = 0;
        for f in &chips {
            for (a, _) in f.valves() {
                for b in f.valve_neighbors(a) {
                    let closed = closed_edges(f, &[a, b]);
                    let from_sources = reachable_from(f, &source_cells(f), &closed);
                    let from_sinks = reachable_from(f, &sink_cells(f), &closed);
                    let (u, v) = f.edge_of(b).endpoints();
                    let (u, v) = (f.cell_index(u), f.cell_index(v));
                    let crossed =
                        (from_sources[u] && from_sinks[v]) || (from_sources[v] && from_sinks[u]);
                    assert_eq!(pair_untestable(f, a, b), !crossed, "({a},{b})");
                    untestable += usize::from(!crossed);
                }
            }
        }
        assert_eq!(untestable, 10);
    }

    #[test]
    fn untestable_certificate_matches_corner_geometry() {
        let f = layouts::table1_5x5();
        let leak = leakage_vectors(&f, &greedy_cover(&f, 7).unwrap().paths, 3, 48).unwrap();
        for &(a, b) in &leak.uncovered_pairs {
            // Every reported pair touches one of the two port-less corner
            // cells (0,4) or (4,0).
            let cells: Vec<_> = [f.edge_of(a).endpoints(), f.edge_of(b).endpoints()]
                .into_iter()
                .flat_map(|(x, y)| [x, y])
                .collect();
            let corner = cells.iter().any(|c| {
                (c.row == 0 && c.col == f.cols() - 1) || (c.row == f.rows() - 1 && c.col == 0)
            });
            assert!(corner, "pair ({a},{b}) does not touch a corner pocket");
        }
        // And a clearly testable pair is not certified untestable.
        assert!(!pair_untestable(
            &f,
            fpva_grid::ValveId(0),
            fpva_grid::ValveId(4)
        ));
    }

    #[test]
    fn multi_sink_chips_route_to_any_sink() {
        // Regression: with more than one sink, the leakage search may end
        // at a sink other than the chip's first; the generator used to
        // pair every path with the first ports and panic on validation.
        use fpva_grid::{FpvaBuilder, PortKind, Side};
        let f = FpvaBuilder::new(6, 6)
            .port(0, 0, Side::West, PortKind::Source)
            .port(5, 5, Side::East, PortKind::Sink)
            .port(5, 0, Side::South, PortKind::Sink)
            .build()
            .unwrap();
        let cover = greedy_cover(&f, 7).unwrap();
        let leak = leakage_vectors(&f, &cover.paths, 3, 48).unwrap();
        for &(a, b) in &leak.uncovered_pairs {
            assert!(
                pair_untestable(&f, a, b),
                "({a},{b}) reported but not certified"
            );
        }
        // Every generated extra path must end at one of the two sinks.
        for p in &leak.paths {
            let last = *p.cells().last().unwrap();
            assert!(
                f.sinks().any(|(_, port)| port.cell == last),
                "path ends off-sink at {last}"
            );
        }
    }

    #[test]
    fn repair_queue_rework_preserves_cover_and_terminates_promptly() {
        // Reference: the original quadratic repair loop (Vec + `remove(0)`
        // + whole-queue rescan inside `prefer`), kept so the reworked
        // queue can be checked for identical output. Any divergence in
        // pair order or routing preference would shift RNG consumption
        // and change the generated paths.
        fn reference_leakage_vectors(
            fpva: &Fpva,
            flow_paths: &[FlowPath],
            seed: u64,
        ) -> LeakageCover {
            let mut rng = StdRng::seed_from_u64(seed);
            let router = Router::new(fpva);
            let mut path_sets: Vec<HashSet<ValveId>> = flow_paths
                .iter()
                .map(|p| p.valves(fpva).into_iter().collect())
                .collect();
            let pair_covered = |sets: &[HashSet<ValveId>], a: ValveId, b: ValveId| {
                sets.iter().any(|s| s.contains(&b) && !s.contains(&a))
            };
            let mut todo: Vec<(ValveId, ValveId)> = Vec::new();
            for (a, _) in fpva.valves() {
                for b in fpva.valve_neighbors(a) {
                    if !pair_covered(&path_sets, a, b) {
                        todo.push((a, b));
                    }
                }
            }
            let mut extra_paths: Vec<FlowPath> = Vec::new();
            let mut uncovered: Vec<(ValveId, ValveId)> = Vec::new();
            while let Some(&(a, b)) = todo.first() {
                let prefer = |e: EdgeId| {
                    fpva.valve_at(e)
                        .is_some_and(|v| todo.iter().any(|&(_, y)| y == v))
                };
                let found = router.path_through_edge(
                    fpva.edge_of(b),
                    &[fpva.edge_of(a)],
                    &prefer,
                    &mut rng,
                );
                match found {
                    Some(cells) => {
                        let (src, snk) = endpoint_ports(fpva, &cells).unwrap();
                        let path = FlowPath::new(fpva, src, snk, cells).unwrap();
                        path_sets.push(path.valves(fpva).into_iter().collect());
                        extra_paths.push(path);
                        todo.retain(|&(x, y)| {
                            !pair_covered(&path_sets[path_sets.len() - 1..], x, y)
                        });
                    }
                    None => {
                        uncovered.push((a, b));
                        todo.remove(0);
                    }
                }
            }
            LeakageCover {
                paths: extra_paths,
                uncovered_pairs: uncovered,
            }
        }

        // No pre-existing flow paths: every adjacent ordered pair starts
        // uncovered, the many-pairs regime the old loop handled
        // quadratically.
        let f = layouts::full_array(6, 6);
        let t0 = std::time::Instant::now();
        let fast = leakage_vectors(&f, &[], 11, 32).unwrap();
        let elapsed = t0.elapsed();
        let slow = reference_leakage_vectors(&f, &[], 11);
        assert_eq!(fast.paths, slow.paths);
        assert_eq!(fast.uncovered_pairs, slow.uncovered_pairs);
        assert!(!fast.paths.is_empty());
        assert!(
            elapsed < std::time::Duration::from_secs(30),
            "repair took {elapsed:?}"
        );

        // The plan's own regime: the hierarchical flow paths cover most
        // pairs before the queue starts, and the first scan sorts them out.
        let f = layouts::table1_10x10();
        let flow = hierarchical_cover(&f, &HierarchyConfig::default()).unwrap();
        let fast = leakage_vectors(&f, &flow.paths, 5, 32).unwrap();
        let slow = reference_leakage_vectors(&f, &flow.paths, 5);
        assert_eq!(fast.paths, slow.paths);
        assert_eq!(fast.uncovered_pairs, slow.uncovered_pairs);
        assert!(!fast.paths.is_empty());
    }

    #[test]
    fn already_complete_cover_needs_no_extras() {
        // With two disjoint-ish paths every adjacent pair is usually
        // separable; verify on a tiny array where we can reason: 1x3
        // pipeline has pairs (v0,v1), (v1,v0); every path contains both
        // valves, so extras are impossible — pairs must be reported.
        use fpva_grid::{FpvaBuilder, PortKind, Side};
        let f = FpvaBuilder::new(1, 3)
            .port(0, 0, Side::West, PortKind::Source)
            .port(0, 2, Side::East, PortKind::Sink)
            .build()
            .unwrap();
        let cover = greedy_cover(&f, 1).unwrap();
        let leak = leakage_vectors(&f, &cover.paths, 1, 16).unwrap();
        assert_eq!(leak.uncovered_pairs.len(), 2, "series pairs are untestable");
        assert!(leak.paths.is_empty());
    }
}
