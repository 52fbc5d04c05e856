//! End-to-end test-plan generation: the paper's "Outputs".

use crate::config::{AtpgConfig, PathEngine};
use crate::connectivity::{ports, Router, Routing};
use crate::cutset::{cut_cover_on, CutSet};
use crate::error::AtpgError;
use crate::heuristic::{greedy_cover_on, PathCover};
use crate::hierarchy::{hierarchical_cover_on, HierarchyConfig};
use crate::ilp_model::min_path_cover_ilp;
use crate::leakage::{leakage_vectors_on, LeakageCover};
use crate::path::FlowPath;
use fpva_grid::{Fpva, TestVector, ValveId};
use fpva_sim::TestSuite;
use std::num::NonZeroUsize;
use std::sync::OnceLock;
use std::time::{Duration, Instant};
use std::{panic, thread};

/// Per-phase generation timings and diagnostics (the paper's `t_p`, `t_c`,
/// `t_l`, `T` columns).
///
/// Each phase is timed on the thread that runs it. On chips of at least
/// [`Atpg::CUT_HELPER_MIN_VALVES`] valves, on a host with more than one
/// CPU, the cut stage runs on a helper thread beside the path and the
/// leakage stage, so `t_cuts` overlaps `t_paths + t_leakage` and a plan
/// takes about `total() − t_cuts` of wall time.
#[derive(Debug, Clone, Default)]
pub struct GenerationStats {
    /// Flow-path generation time (`t_p`).
    pub t_paths: Duration,
    /// Cut-set generation time (`t_c`).
    pub t_cuts: Duration,
    /// Control-leakage generation time (`t_l`).
    pub t_leakage: Duration,
    /// Which path engine actually produced the paths (the ILP engine falls
    /// back to greedy on solver limits).
    pub path_engine_used: &'static str,
}

impl GenerationStats {
    /// Total generation time, the paper's `T = t_p + t_c + t_l`: the sum
    /// of the phase times, also where the cut stage overlapped the others.
    pub fn total(&self) -> Duration {
        self.t_paths + self.t_cuts + self.t_leakage
    }
}

/// A complete FPVA test plan: flow paths, cut-sets and control-leakage
/// vectors, with everything needed to apply or audit them.
#[derive(Debug, Clone)]
pub struct TestPlan {
    flow_paths: Vec<FlowPath>,
    cut_sets: Vec<CutSet>,
    leakage_paths: Vec<FlowPath>,
    untestable_open: Vec<ValveId>,
    untestable_closed: Vec<ValveId>,
    untestable_pairs: Vec<(ValveId, ValveId)>,
    stats: GenerationStats,
}

impl TestPlan {
    /// The flow paths (`n_p = flow_paths().len()`).
    pub fn flow_paths(&self) -> &[FlowPath] {
        &self.flow_paths
    }

    /// The cut-sets (`n_c`).
    pub fn cut_sets(&self) -> &[CutSet] {
        &self.cut_sets
    }

    /// The dedicated control-leakage paths (`n_l`).
    pub fn leakage_paths(&self) -> &[FlowPath] {
        &self.leakage_paths
    }

    /// Valves whose stuck-at-0 fault no flow path can expose (empty on the
    /// paper's layouts).
    pub fn untestable_open(&self) -> &[ValveId] {
        &self.untestable_open
    }

    /// Valves whose stuck-at-1 fault no cut-set can expose.
    pub fn untestable_closed(&self) -> &[ValveId] {
        &self.untestable_closed
    }

    /// Adjacent control-leak pairs no vector can expose.
    pub fn untestable_pairs(&self) -> &[(ValveId, ValveId)] {
        &self.untestable_pairs
    }

    /// Generation statistics.
    pub fn stats(&self) -> &GenerationStats {
        &self.stats
    }

    /// Total vector count (the paper's `N = n_p + n_c + n_l`).
    pub fn vector_count(&self) -> usize {
        self.flow_paths.len() + self.cut_sets.len() + self.leakage_paths.len()
    }

    /// All vectors in application order: flow paths, then cut-sets, then
    /// leakage vectors.
    pub fn all_vectors(&self, fpva: &Fpva) -> Vec<TestVector> {
        let mut out = Vec::with_capacity(self.vector_count());
        out.extend(self.flow_paths.iter().map(|p| p.to_vector(fpva)));
        out.extend(self.cut_sets.iter().map(|c| c.to_vector(fpva)));
        out.extend(self.leakage_paths.iter().map(|p| p.to_vector(fpva)));
        out
    }

    /// Builds a simulator [`TestSuite`] (with golden responses) from the
    /// plan.
    pub fn to_suite(&self, fpva: &Fpva) -> TestSuite {
        TestSuite::new(fpva, self.all_vectors(fpva))
    }
}

/// The test generator: configure once, [`Atpg::generate`] per array.
///
/// See the [crate-level documentation](crate) for an example.
#[derive(Debug, Clone, Default)]
pub struct Atpg {
    config: AtpgConfig,
}

impl Atpg {
    /// A generator with the default configuration (hierarchical paths,
    /// straight-line cuts, leakage vectors on).
    pub fn new() -> Self {
        Atpg::default()
    }

    /// A generator with an explicit configuration.
    pub fn with_config(config: AtpgConfig) -> Self {
        Atpg { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &AtpgConfig {
        &self.config
    }

    /// The valve count from which [`Atpg::generate`] runs the cut stage on
    /// a helper thread, when the host has more than one CPU. Below it a
    /// scoped spawn and join cost about as much as the cut stage they
    /// would overlap: on a 2-vCPU Xeon they take 27–46 µs, the cut stage
    /// 30–50 µs on 8×8 chips (112 valves) and 40–120 µs on 9×9 and 10×10
    /// ones (144–180 valves).
    pub const CUT_HELPER_MIN_VALVES: usize = 128;

    fn generate_paths(
        &self,
        router: &Router<'_>,
        routing: &mut Routing,
    ) -> Result<(PathCover, &'static str), AtpgError> {
        match &self.config.path_engine {
            PathEngine::Hierarchical => {
                let hc = HierarchyConfig {
                    block_size: self.config.block_size,
                    seed: self.config.seed,
                    tries: self.config.tries,
                };
                Ok((hierarchical_cover_on(router, routing, &hc)?, "hierarchical"))
            }
            PathEngine::Greedy => Ok((
                greedy_cover_on(router, routing, self.config.seed)?,
                "greedy",
            )),
            PathEngine::Ilp(ilp_config) => match min_path_cover_ilp(router.fpva(), ilp_config) {
                Ok(cover) => Ok((cover, "ilp")),
                // Constraints (1)–(8) do not forbid a path through a
                // second inlet, so an extracted path may be invalid.
                Err(AtpgError::Solver { .. } | AtpgError::InvalidPath { .. }) => Ok((
                    greedy_cover_on(router, routing, self.config.seed)?,
                    "greedy (ilp fallback)",
                )),
                Err(e) => Err(e),
            },
        }
    }

    /// The path stage, its time added to `stats.t_paths`.
    fn path_stage(
        &self,
        router: &Router<'_>,
        routing: &mut Routing,
        stats: &mut GenerationStats,
    ) -> Result<PathCover, AtpgError> {
        let t0 = Instant::now();
        let (cover, engine) = self.generate_paths(router, routing)?;
        stats.t_paths += t0.elapsed();
        stats.path_engine_used = engine;
        Ok(cover)
    }

    /// The leakage stage on the flow paths `paths`, timed into
    /// `stats.t_leakage`; empty and untimed when the configuration turns
    /// it off.
    fn leakage_stage(
        &self,
        router: &Router<'_>,
        routing: &mut Routing,
        paths: &[FlowPath],
        stats: &mut GenerationStats,
    ) -> LeakageCover {
        if !self.config.leakage {
            return LeakageCover::default();
        }
        let t0 = Instant::now();
        let leak = leakage_vectors_on(router, routing, paths, self.config.seed ^ 0x5EAF);
        stats.t_leakage = t0.elapsed();
        leak
    }

    /// Generates the full test plan for `fpva`. The chip is lowered once,
    /// into one [`Router`] that every stage works on; `t_paths` includes
    /// that build.
    ///
    /// The cut stage reads nothing the other stages produce and draws no
    /// random numbers. On chips of at least [`Atpg::CUT_HELPER_MIN_VALVES`]
    /// valves, on a host with more than one CPU, it runs on a scoped helper
    /// thread while the calling thread runs the path stage and then the
    /// leakage stage, so `t_c` overlaps `t_p + t_l` and the plan takes
    /// about `T − t_c` of wall time. Elsewhere the calling thread runs it
    /// after them, unless the path stage failed. The plan is the same
    /// either way, and a panic in the cut stage reaches the caller either
    /// way.
    ///
    /// # Errors
    ///
    /// * [`AtpgError::MissingPorts`] — the array has no source or no sink;
    /// * [`AtpgError::Solver`] — only if an engine fails without a
    ///   fallback.
    pub fn generate(&self, fpva: &Fpva) -> Result<TestPlan, AtpgError> {
        self.generate_with(fpva, cut_helper_pays(fpva))
    }

    /// [`Atpg::generate`], with the cut stage on a helper thread when
    /// `helper` is set.
    fn generate_with(&self, fpva: &Fpva, helper: bool) -> Result<TestPlan, AtpgError> {
        ports(fpva)?;
        let mut stats = GenerationStats::default();
        let t0 = Instant::now();
        let router = Router::new(fpva);
        stats.t_paths = t0.elapsed();
        let cut_stage = || {
            let t0 = Instant::now();
            (cut_cover_on(fpva, router.graph()), t0.elapsed())
        };
        // The path and the leakage stage route on the calling thread, one
        // after the other, and share one scratch space; the helper, if
        // any, runs the cut stage beside them.
        let mut routing = Routing::default();
        let (routed, helper_cut) = thread::scope(|s| {
            let helper = helper.then(|| s.spawn(cut_stage));
            let routed = self
                .path_stage(&router, &mut routing, &mut stats)
                .map(|cover| {
                    let leak = self.leakage_stage(&router, &mut routing, &cover.paths, &mut stats);
                    (cover, leak)
                });
            let cut = helper.map(|cut_stage| {
                cut_stage
                    .join()
                    .unwrap_or_else(|payload| panic::resume_unwind(payload))
            });
            (routed, cut)
        });
        let (path_cover, leak) = routed?;
        let (cut, t_cuts) = helper_cut.unwrap_or_else(cut_stage);
        stats.t_cuts = t_cuts;
        let cut = cut?;

        Ok(TestPlan {
            flow_paths: path_cover.paths,
            cut_sets: cut.cuts,
            leakage_paths: leak.paths,
            untestable_open: path_cover.uncovered,
            untestable_closed: cut.uncovered,
            untestable_pairs: leak.uncovered_pairs,
            stats,
        })
    }
}

/// Whether [`Atpg::generate`] runs the cut stage on a helper thread: on
/// chips of at least [`Atpg::CUT_HELPER_MIN_VALVES`] valves, when the host
/// has more than one CPU.
fn cut_helper_pays(fpva: &Fpva) -> bool {
    // On Linux `available_parallelism` reads cgroup files on every call.
    static CPUS: OnceLock<usize> = OnceLock::new();
    fpva.valve_count() >= Atpg::CUT_HELPER_MIN_VALVES
        && *CPUS.get_or_init(|| thread::available_parallelism().map_or(1, NonZeroUsize::get)) > 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ilp_model::PathIlpConfig;
    use fpva_grid::layouts;
    use fpva_sim::audit;

    #[test]
    fn default_plan_for_5x5_is_complete() {
        let f = layouts::table1_5x5();
        let plan = Atpg::new().generate(&f).unwrap();
        assert!(plan.untestable_open().is_empty());
        assert!(plan.untestable_closed().is_empty());
        // Only the physically untestable corner-pocket leak pairs remain.
        for &(a, b) in plan.untestable_pairs() {
            assert!(crate::leakage::pair_untestable(&f, a, b));
        }
        assert_eq!(plan.cut_sets().len(), 8, "Table I n_c");
        assert_eq!(
            plan.vector_count(),
            plan.flow_paths().len() + plan.cut_sets().len() + plan.leakage_paths().len()
        );
        // Full single-fault coverage, verified by simulation.
        let suite = plan.to_suite(&f);
        let report = audit::single_fault_coverage(&f, &suite);
        assert!(report.is_complete(), "undetected: {:?}", report.undetected);
    }

    #[test]
    fn plan_is_far_smaller_than_baseline() {
        let f = layouts::table1_10x10();
        let plan = Atpg::new().generate(&f).unwrap();
        assert!(plan.vector_count() < crate::baseline::baseline_vector_count(&f) / 4);
    }

    #[test]
    fn greedy_engine_works() {
        let f = layouts::table1_5x5();
        let config = AtpgConfig {
            path_engine: PathEngine::Greedy,
            ..Default::default()
        };
        let plan = Atpg::with_config(config).generate(&f).unwrap();
        assert!(plan.untestable_open().is_empty());
        assert_eq!(plan.stats().path_engine_used, "greedy");
    }

    #[test]
    fn ilp_engine_on_tiny_array() {
        let f = layouts::full_array(2, 3);
        let config = AtpgConfig {
            path_engine: PathEngine::Ilp(PathIlpConfig::default()),
            leakage: false,
            ..Default::default()
        };
        let plan = Atpg::with_config(config).generate(&f).unwrap();
        assert!(plan.stats().path_engine_used.starts_with("ilp"));
        assert!(plan.untestable_open().is_empty());
    }

    #[test]
    fn ilp_engine_falls_back_when_a_path_crosses_a_second_inlet() {
        use fpva_grid::{FpvaBuilder, PortKind, Side};
        let f = FpvaBuilder::new(2, 3)
            .port(0, 0, Side::West, PortKind::Source)
            .port(1, 0, Side::West, PortKind::Source)
            .port(1, 2, Side::East, PortKind::Sink)
            .build()
            .unwrap();
        let config = AtpgConfig {
            path_engine: PathEngine::Ilp(PathIlpConfig::default()),
            leakage: false,
            ..Default::default()
        };
        let plan = Atpg::with_config(config).generate(&f).unwrap();
        assert_eq!(plan.stats().path_engine_used, "greedy (ilp fallback)");
    }

    #[test]
    fn missing_ports_rejected() {
        let f = fpva_grid::FpvaBuilder::new(3, 3).build().unwrap();
        assert!(matches!(
            Atpg::new().generate(&f),
            Err(AtpgError::MissingPorts)
        ));
    }

    #[test]
    fn leakage_can_be_disabled() {
        let f = layouts::table1_5x5();
        let config = AtpgConfig {
            leakage: false,
            ..Default::default()
        };
        let plan = Atpg::with_config(config).generate(&f).unwrap();
        assert!(plan.leakage_paths().is_empty());
        assert_eq!(plan.stats().t_leakage, Duration::ZERO);
    }

    /// Checks that `generate` on `f` returns what the public phases return
    /// when called one at a time, as the benchmark's traced run rebuilds
    /// it, for the hierarchical and the greedy engine.
    fn check_public_phases(f: &Fpva) {
        use crate::cutset::cut_cover;
        use crate::heuristic::greedy_cover;
        use crate::hierarchy::hierarchical_cover;
        use crate::leakage::leakage_vectors;
        let config = AtpgConfig::default();
        let hierarchy = HierarchyConfig {
            block_size: config.block_size,
            seed: config.seed,
            tries: config.tries,
        };
        let cuts = cut_cover(f).unwrap();
        for engine in [PathEngine::Hierarchical, PathEngine::Greedy] {
            let paths = match engine {
                PathEngine::Greedy => greedy_cover(f, config.seed),
                _ => hierarchical_cover(f, &hierarchy),
            }
            .unwrap();
            let leak =
                leakage_vectors(f, &paths.paths, config.seed ^ 0x5EAF, config.tries).unwrap();
            let plan = Atpg::with_config(AtpgConfig {
                path_engine: engine,
                ..AtpgConfig::default()
            })
            .generate(f)
            .unwrap();
            let mut vectors: Vec<TestVector> = paths.paths.iter().map(|p| p.to_vector(f)).collect();
            vectors.extend(cuts.cuts.iter().map(|c| c.to_vector(f)));
            vectors.extend(leak.paths.iter().map(|p| p.to_vector(f)));
            assert_eq!(plan.all_vectors(f), vectors);
            assert_eq!(plan.flow_paths(), paths.paths);
            assert_eq!(plan.cut_sets(), cuts.cuts);
            assert_eq!(plan.leakage_paths(), leak.paths);
            assert_eq!(plan.untestable_open(), paths.uncovered);
            assert_eq!(plan.untestable_closed(), cuts.uncovered);
            assert_eq!(plan.untestable_pairs(), leak.uncovered_pairs);
        }
    }

    #[test]
    fn generate_equals_the_public_phases() {
        let mut chips: Vec<Fpva> = layouts::table1().into_iter().map(|e| e.fpva).collect();
        chips.push(layouts::custom_biochip());
        chips.extend(crate::cutset::tests::seeded_chips(12));
        for f in &chips {
            check_public_phases(f);
        }
    }

    #[test]
    #[ignore = "release-only: hundreds of chips, slow in a debug build"]
    fn generate_equals_the_public_phases_at_scale() {
        for f in &crate::cutset::tests::seeded_chips(300) {
            check_public_phases(f);
        }
    }

    /// FNV-1a 64 over the little-endian bytes of `words`.
    fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
        words
            .into_iter()
            .flat_map(u64::to_le_bytes)
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
    }

    /// One word per valve of each vector (1 open), then the untestable
    /// open and closed valves and the untestable pairs, with `u64::MAX`
    /// closing each vector and each valve list.
    fn plan_digest(f: &Fpva, plan: &TestPlan) -> u64 {
        let index = |v: ValveId| v.index() as u64;
        let mut words = Vec::new();
        for vector in plan.all_vectors(f) {
            words.extend(f.valves().map(|(v, _)| u64::from(vector.is_open(v))));
            words.push(u64::MAX);
        }
        words.extend(plan.untestable_open().iter().copied().map(index));
        words.push(u64::MAX);
        words.extend(plan.untestable_closed().iter().copied().map(index));
        words.push(u64::MAX);
        for &(a, b) in plan.untestable_pairs() {
            words.extend([index(a), index(b)]);
        }
        fnv1a(words)
    }

    /// Every vector and verdict of the default plans, hierarchical and
    /// greedy, on Table I, `custom_biochip` and twelve generated chips: a
    /// change that claims the same plans must leave these digests alone.
    #[test]
    fn default_plans_are_pinned() {
        // (digest, N) of the hierarchical plan, then of the greedy one.
        let expected: [(u64, usize, u64, usize); 18] = [
            (0x3ce6_519d_41b8_07c5, 18, 0xd0b9_bf40_44cc_c7c5, 18),
            (0x8790_f2f3_c555_834c, 37, 0xce9e_12ad_5a00_c2ec, 37),
            (0x74fb_c423_4950_a4a1, 54, 0xece3_1a9e_8733_1651, 56),
            (0xc931_3d03_e832_5e28, 69, 0x4e70_5558_3da7_e460, 62),
            (0x546b_a077_6c61_f7e4, 94, 0x38de_86b5_e14b_5025, 92),
            (0xfa83_3665_a158_9675, 131, 0x1ed6_5519_cc02_631c, 132),
            (0x743b_3b04_0b50_4ce7, 29, 0x743b_3b04_0b50_4ce7, 29),
            (0x3c64_6850_d153_3d3d, 13, 0x3c64_6850_d153_3d3d, 13),
            (0xc460_892e_19d6_6918, 16, 0xc460_892e_19d6_6918, 16),
            (0x15b8_404f_c9d2_0284, 18, 0x15b8_404f_c9d2_0284, 18),
            (0x8810_92e9_416b_e0cc, 42, 0x8810_92e9_416b_e0cc, 42),
            (0x22c1_3d8d_e743_5d76, 21, 0x22c1_3d8d_e743_5d76, 21),
            (0xf319_c05d_100f_89da, 12, 0xf319_c05d_100f_89da, 12),
            (0xb128_7072_f988_9e21, 29, 0xb128_7072_f988_9e21, 29),
            (0xe762_53bb_b942_2428, 13, 0xe762_53bb_b942_2428, 13),
            (0x00cc_ef89_ad3d_e3e5, 33, 0x00cc_ef89_ad3d_e3e5, 33),
            (0xf124_ceec_8e97_abce, 23, 0xf124_ceec_8e97_abce, 23),
            (0x19b7_fb28_e5fd_d108, 22, 0x19b7_fb28_e5fd_d108, 22),
        ];
        let mut chips: Vec<Fpva> = layouts::table1().into_iter().map(|e| e.fpva).collect();
        chips.push(layouts::custom_biochip());
        chips.extend(crate::cutset::tests::seeded_chips(12));
        assert_eq!(chips.len(), expected.len());
        // Chips on both sides of the helper threshold, so that both
        // schedules of `generate` stay pinned wherever it moves.
        let below = |f: &Fpva| f.valve_count() < Atpg::CUT_HELPER_MIN_VALVES;
        assert!(chips.iter().any(below) && !chips.iter().all(below));
        for (i, (f, &(hier, hier_n, greedy, greedy_n))) in chips.iter().zip(&expected).enumerate() {
            for (engine, digest, n) in [
                (PathEngine::Hierarchical, hier, hier_n),
                (PathEngine::Greedy, greedy, greedy_n),
            ] {
                let name = format!("chip {i}, {engine:?}");
                let plan = Atpg::with_config(AtpgConfig {
                    path_engine: engine,
                    ..AtpgConfig::default()
                })
                .generate(f)
                .unwrap();
                assert_eq!(plan.vector_count(), n, "{name}");
                assert_eq!(
                    plan_digest(f, &plan),
                    digest,
                    "{name}: {:#018x}",
                    plan_digest(f, &plan)
                );
            }
        }
    }

    /// The cut stage on a helper thread and in line between the other two
    /// give the same plan, whatever the size of the chip and the number of
    /// the host's CPUs.
    #[test]
    fn both_schedules_give_the_same_plans() {
        let mut chips: Vec<Fpva> = layouts::table1().into_iter().map(|e| e.fpva).collect();
        chips.push(layouts::custom_biochip());
        chips.extend(crate::cutset::tests::seeded_chips(12));
        for f in &chips {
            for engine in [PathEngine::Hierarchical, PathEngine::Greedy] {
                let atpg = Atpg::with_config(AtpgConfig {
                    path_engine: engine,
                    ..AtpgConfig::default()
                });
                let inline = atpg.generate_with(f, false).unwrap();
                let helper = atpg.generate_with(f, true).unwrap();
                assert_eq!(plan_digest(f, &helper), plan_digest(f, &inline));
                assert_eq!(helper.vector_count(), inline.vector_count());
                assert_eq!(
                    helper.stats().path_engine_used,
                    inline.stats().path_engine_used
                );
            }
        }
    }

    #[test]
    fn stats_total_sums_phases() {
        let f = layouts::table1_5x5();
        let plan = Atpg::new().generate(&f).unwrap();
        let s = plan.stats();
        assert_eq!(s.total(), s.t_paths + s.t_cuts + s.t_leakage);
    }
}
