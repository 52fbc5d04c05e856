//! Generator configuration.

use crate::ilp_model::PathIlpConfig;

/// Which flow-path engine [`crate::Atpg`] uses.
#[derive(Debug, Clone, Default)]
pub enum PathEngine {
    /// Block-band hierarchical construction (the paper's scalable mode);
    /// the default.
    #[default]
    Hierarchical,
    /// Direct greedy cover of the whole array.
    Greedy,
    /// The paper's exact ILP (constraints (1)–(8)); practical for small
    /// arrays/subblocks. Falls back to [`PathEngine::Greedy`] when the
    /// solver hits its limits.
    Ilp(PathIlpConfig),
}

/// Which cut-set engine [`crate::Atpg`] uses. Only one engine exists
/// today; the enum keeps the configuration forward-compatible.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub enum CutEngine {
    /// Straight dual-lattice lines with channel detours and targeted
    /// fix-up cuts; reproduces Table I's `n_c`.
    #[default]
    StraightLines,
}

/// Full configuration of [`crate::Atpg`].
#[derive(Debug, Clone)]
pub struct AtpgConfig {
    /// Flow-path engine.
    pub path_engine: PathEngine,
    /// Cut-set engine.
    pub cut_engine: CutEngine,
    /// Subblock edge length for the hierarchical engine. `None` derives
    /// the band height from the array dimensions
    /// ([`crate::hierarchy::HierarchyConfig::derived_block_size`]); the
    /// paper evaluates with a fixed 5.
    pub block_size: Option<usize>,
    /// Whether to generate the control-leakage vectors.
    pub leakage: bool,
    /// Seed that breaks ties in the router's walks.
    pub seed: u64,
    /// Ignored: routing is exact and needs no retries. Kept only because
    /// the benchmark harness (`perfbench/src/adapter.rs`) reads it.
    pub tries: usize,
}

impl Default for AtpgConfig {
    fn default() -> Self {
        AtpgConfig {
            path_engine: PathEngine::default(),
            cut_engine: CutEngine::default(),
            block_size: None,
            leakage: true,
            seed: 0xDA7E_2017,
            tries: 64,
        }
    }
}
