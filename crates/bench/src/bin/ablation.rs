//! Ablation studies on the pipeline's main design choices:
//!
//! 1. **Path engine**: hierarchical (band) vs direct greedy vs exact ILP —
//!    vector counts and runtimes across array sizes (the trade-off behind
//!    the paper's Section III-B-4).
//! 2. **Masking constraint (9)**: pairwise two-fault detection with the
//!    generated cut-sets, exhaustive on the small arrays (the paper's
//!    "guarantee detection of any two faults" claim).
//! 3. **Leakage vectors on/off**: control-leak coverage with and without
//!    the dedicated vectors.
//!
//! Run with `cargo run --release -p fpva-bench --bin ablation`. Pass
//! `--threads N` to spread the pairwise two-fault sweep over N workers
//! (default: one per CPU; the report is identical for every count). A
//! trial count is rejected (exit 2): the ablations run fixed workloads.

use fpva_atpg::ilp_model::{min_path_cover_ilp_with_stats, PathIlpConfig};
use fpva_atpg::{Atpg, AtpgConfig, PathEngine};
use fpva_bench::{outln, percent_or_na, CliArgs};
use fpva_grid::layouts;
use fpva_sim::audit;
use std::time::Instant;

fn main() {
    let threads = CliArgs::parse_threads();
    outln!("== Ablation 1: path engine (count, seconds) ==");
    outln!(
        "{:<8} | {:>14} | {:>14} | {:>14}",
        "array",
        "hierarchical",
        "greedy",
        "ilp(<=5x5)"
    );
    for entry in layouts::table1() {
        let mut row = format!("{:<8} |", entry.name);
        for engine in ["hier", "greedy", "ilp"] {
            let config = match engine {
                "hier" => AtpgConfig {
                    leakage: false,
                    ..Default::default()
                },
                "greedy" => AtpgConfig {
                    path_engine: PathEngine::Greedy,
                    leakage: false,
                    ..Default::default()
                },
                _ => AtpgConfig {
                    path_engine: PathEngine::Ilp(PathIlpConfig::default()),
                    leakage: false,
                    ..Default::default()
                },
            };
            // The exact ILP is only attempted on the smallest array; the
            // larger ones would just burn the probe time limit.
            if engine == "ilp" && entry.fpva.rows() > 5 {
                row.push_str(&format!(" {:>14} |", "skipped"));
                continue;
            }
            let t0 = Instant::now();
            // The exact ILP may exhaust its per-probe time budget, in which
            // case Atpg::generate silently substitutes the greedy cover
            // (stats record the engine actually used); report that as a
            // limit rather than mislabelling greedy numbers as ILP.
            match Atpg::with_config(config).generate(&entry.fpva) {
                Ok(plan) if engine == "ilp" && plan.stats().path_engine_used != "ilp" => {
                    row.push_str(&format!(" limit {:>6.2}s |", t0.elapsed().as_secs_f64()));
                }
                Ok(plan) => row.push_str(&format!(
                    " {:>3} in {:>6.2}s |",
                    plan.flow_paths().len(),
                    t0.elapsed().as_secs_f64()
                )),
                Err(_) => row.push_str(&format!(" error {:>6.2}s |", t0.elapsed().as_secs_f64())),
            }
        }
        outln!("{row}");
    }

    outln!("\n== Ablation 1b: exact-ILP subblock scaling (default limits, one row per probe) ==");
    outln!(
        "{:<10} | {:>5} | {:>2} | {:<10} | {:>8} | {:>11} | {:>6} | {:>8} | {:>9} | {:>8} | {:>9} | {:>6} | {:>4}",
        "block",
        "paths",
        "k",
        "status",
        "seconds",
        "limit-nodes",
        "nodes",
        "refacts",
        "ft-updts",
        "rejected",
        "dual-pivs",
        "warm",
        "cold"
    );
    let channelled = layouts::table1_5x5();
    let blocks: Vec<(String, _)> = (2..=5usize)
        .map(|n| (format!("{n}x{n}"), layouts::full_array(n, n)))
        .chain(std::iter::once(("table1_5x5".to_string(), channelled)))
        .collect();
    for (name, f) in blocks {
        let (res, probes) = min_path_cover_ilp_with_stats(&f, &PathIlpConfig::default());
        let paths = match &res {
            Ok(cover) => cover.paths.len().to_string(),
            Err(_) => "none".into(),
        };
        for probe in &probes {
            let s = &probe.stats;
            outln!(
                "{:<10} | {:>5} | {:>2} | {:<10} | {:>7.2}s | {:>11} | {:>6} | {:>8} | {:>9} | {:>8} | {:>9} | {:>6} | {:>4}",
                name,
                paths,
                probe.k,
                format!("{:?}", probe.status),
                s.elapsed.as_secs_f64(),
                s.limit_nodes,
                s.nodes,
                s.refactorizations,
                s.ft_updates,
                s.rejected_updates,
                s.dual_pivots,
                s.warm_resolves,
                s.cold_restarts
            );
        }
    }

    outln!("\n== Ablation 2: two-fault detection (stuck-at-0 x stuck-at-1 pairs) ==");
    for entry in layouts::table1().into_iter().take(2) {
        let plan = Atpg::new().generate(&entry.fpva).expect("valid layout");
        let suite = plan.to_suite(&entry.fpva);
        let report = audit::two_fault_audit(&entry.fpva, &suite, threads);
        outln!(
            "{:<8}: {}/{} pairs detected ({})",
            entry.name,
            report.total - report.undetected.len(),
            report.total,
            percent_or_na(report.coverage())
        );
    }

    outln!("\n== Ablation 3: control-leak coverage with/without leakage vectors ==");
    for entry in layouts::table1().into_iter().take(2) {
        let with = Atpg::new().generate(&entry.fpva).expect("valid layout");
        let without = Atpg::with_config(AtpgConfig {
            leakage: false,
            ..Default::default()
        })
        .generate(&entry.fpva)
        .expect("valid layout");
        let cov_with = audit::leak_coverage(&entry.fpva, &with.to_suite(&entry.fpva));
        let cov_without = audit::leak_coverage(&entry.fpva, &without.to_suite(&entry.fpva));
        outln!(
            "{:<8}: with n_l={} -> {} | without -> {}",
            entry.name,
            with.leakage_paths().len(),
            percent_or_na(cov_with.coverage()),
            percent_or_na(cov_without.coverage())
        );
    }
}
