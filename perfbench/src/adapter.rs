//! The one place the benchmark reads the program's statistics structs or
//! calls individual ATPG phases. Only the traced run uses this module; the
//! untraced run calls nothing but the stable public entry points, so a
//! change to these internals never needs a benchmark edit to keep the
//! end-to-end numbers comparable.

use crate::trace;
use fpva_atpg::cutset::cut_cover;
use fpva_atpg::hierarchy::{hierarchical_cover, HierarchyConfig};
use fpva_atpg::leakage::leakage_vectors;
use fpva_atpg::{AtpgConfig, TestPlan};
use fpva_grid::{Fpva, TestVector};
use fpva_ilp::{presolve, CertifySummary, MilpOutcome, Model};
use fpva_sim::{CoverageReport, KernelStats};
use std::time::Instant;

/// Kernel counters as the loop keeps them for the traced run.
pub type KernelRecord = KernelStats;

/// The kernel counters of a two-fault audit report.
pub fn audit_kernel<F>(report: CoverageReport<F>) -> KernelRecord {
    report.stats
}

/// The phase counts and times (`t_p`, `t_c`, `t_l`, seconds) of a plan
/// rebuilt phase by phase.
#[derive(Debug, Clone, Copy)]
pub struct PhasedPlan {
    pub n_p: usize,
    pub n_c: usize,
    pub n_l: usize,
    pub t_p: f64,
    pub t_c: f64,
    pub t_l: f64,
}

/// `f` inside a span, with its duration.
fn timed<T>(name: &'static str, id: &str, f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = trace::span(name, id, f);
    (out, t.elapsed().as_secs_f64())
}

/// Re-runs `Atpg::generate`'s three phases one call at a time, inside
/// `atpg.hierarchy`, `atpg.cutset` and `atpg.leakage` spans, and checks
/// that the result is `plan`: the same vectors in the same order and the
/// same untestable lists. The phase arguments come from
/// `AtpgConfig::default()`, the configuration `Atpg::new()` uses.
pub fn phased_plan(fpva: &Fpva, id: &str, plan: &TestPlan) -> Result<PhasedPlan, String> {
    let config = AtpgConfig::default();
    let hierarchy = HierarchyConfig {
        block_size: config.block_size,
        seed: config.seed,
        tries: config.tries,
    };
    let err = |e: fpva_atpg::AtpgError| e.to_string();
    let (paths, t_p) = timed("atpg.hierarchy", id, || {
        hierarchical_cover(fpva, &hierarchy)
    });
    let paths = paths.map_err(err)?;
    let (cuts, t_c) = timed("atpg.cutset", id, || cut_cover(fpva));
    let cuts = cuts.map_err(err)?;
    // `Atpg::generate` derives the leakage stream from the configured
    // seed; the fidelity check below catches any drift in that rule.
    let (leak, t_l) = timed("atpg.leakage", id, || {
        leakage_vectors(fpva, &paths.paths, config.seed ^ 0x5EAF, config.tries)
    });
    let leak = leak.map_err(err)?;
    let mut vectors: Vec<TestVector> = paths.paths.iter().map(|p| p.to_vector(fpva)).collect();
    vectors.extend(cuts.cuts.iter().map(|c| c.to_vector(fpva)));
    vectors.extend(leak.paths.iter().map(|p| p.to_vector(fpva)));
    if vectors != plan.all_vectors(fpva)
        || paths.uncovered != plan.untestable_open()
        || cuts.uncovered != plan.untestable_closed()
        || leak.uncovered_pairs != plan.untestable_pairs()
    {
        return Err("phase-by-phase plan differs from Atpg::generate".to_string());
    }
    Ok(PhasedPlan {
        n_p: paths.paths.len(),
        n_c: cuts.cuts.len(),
        n_l: leak.paths.len(),
        t_p,
        t_c,
        t_l,
    })
}

/// Branch-and-bound counters of one solve.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolveCounters {
    pub nodes: usize,
    pub lp_iterations: usize,
    pub refactorizations: usize,
    pub dual_pivots: usize,
    pub limit_nodes: usize,
    pub warm_resolves: usize,
    pub cold_restarts: usize,
}

impl SolveCounters {
    pub fn add(&mut self, o: &MilpOutcome) {
        let s = &o.stats;
        self.nodes += s.nodes;
        self.lp_iterations += s.lp_iterations;
        self.refactorizations += s.refactorizations;
        self.dual_pivots += s.dual_pivots;
        self.limit_nodes += s.limit_nodes;
        self.warm_resolves += s.warm_resolves;
        self.cold_restarts += s.cold_restarts;
    }
}

/// Bit-kernel counters: `(blocks, word_passes, lanes)`.
pub fn kernel_counters(stats: &KernelStats) -> (usize, usize, usize) {
    (stats.blocks, stats.word_passes, stats.lanes)
}

/// Leaves a certificate audit re-proved.
pub fn certified_leaves(summary: &CertifySummary) -> usize {
    summary.leaves
}

/// A standalone presolve of `model`, inside an `ilp.presolve` span.
pub fn presolve_once(model: &Model, id: &str) {
    std::hint::black_box(trace::span("ilp.presolve", id, || presolve(model)));
}
