//! End-to-end test-plan generation: the paper's "Outputs".

use crate::config::{AtpgConfig, CutEngine, PathEngine};
use crate::cutset::{cut_cover, CutSet};
use crate::error::AtpgError;
use crate::heuristic::{greedy_cover, PathCover};
use crate::hierarchy::{hierarchical_cover, HierarchyConfig};
use crate::ilp_model::min_path_cover_ilp;
use crate::leakage::leakage_vectors;
use crate::path::FlowPath;
use fpva_grid::{Fpva, TestVector, ValveId};
use fpva_sim::TestSuite;
use std::time::{Duration, Instant};

/// Per-phase generation timings and diagnostics (the paper's `t_p`, `t_c`,
/// `t_l`, `T` columns).
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
    /// Total generation time (`T`).
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

    fn generate_paths(&self, fpva: &Fpva) -> Result<(PathCover, &'static str), AtpgError> {
        match &self.config.path_engine {
            PathEngine::Hierarchical => {
                let hc = HierarchyConfig {
                    block_size: self.config.block_size,
                    seed: self.config.seed,
                    tries: self.config.tries,
                };
                Ok((hierarchical_cover(fpva, &hc)?, "hierarchical"))
            }
            PathEngine::Greedy => Ok((greedy_cover(fpva, self.config.seed)?, "greedy")),
            PathEngine::Ilp(ilp_config) => match min_path_cover_ilp(fpva, ilp_config) {
                Ok(cover) => Ok((cover, "ilp")),
                Err(AtpgError::Solver { .. }) => Ok((
                    greedy_cover(fpva, self.config.seed)?,
                    "greedy (ilp fallback)",
                )),
                Err(e) => Err(e),
            },
        }
    }

    /// Generates the full test plan for `fpva`.
    ///
    /// # Errors
    ///
    /// * [`AtpgError::MissingPorts`] — the array has no source or no sink;
    /// * [`AtpgError::Solver`] — only if an engine fails without a
    ///   fallback.
    pub fn generate(&self, fpva: &Fpva) -> Result<TestPlan, AtpgError> {
        if fpva.sources().next().is_none() || fpva.sinks().next().is_none() {
            return Err(AtpgError::MissingPorts);
        }
        let mut stats = GenerationStats::default();

        let t0 = Instant::now();
        let (path_cover, engine) = self.generate_paths(fpva)?;
        stats.t_paths = t0.elapsed();
        stats.path_engine_used = engine;

        let t0 = Instant::now();
        debug_assert_eq!(self.config.cut_engine, CutEngine::StraightLines);
        let cut = cut_cover(fpva)?;
        stats.t_cuts = t0.elapsed();

        let leak = if self.config.leakage {
            let t0 = Instant::now();
            let leak = leakage_vectors(
                fpva,
                &path_cover.paths,
                self.config.seed ^ 0x5EAF,
                self.config.tries,
            )?;
            stats.t_leakage = t0.elapsed();
            leak
        } else {
            crate::leakage::LeakageCover {
                paths: Vec::new(),
                uncovered_pairs: Vec::new(),
            }
        };

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

    #[test]
    fn stats_total_sums_phases() {
        let f = layouts::table1_5x5();
        let plan = Atpg::new().generate(&f).unwrap();
        let s = plan.stats();
        assert_eq!(s.total(), s.t_paths + s.t_cuts + s.t_leakage);
    }
}
