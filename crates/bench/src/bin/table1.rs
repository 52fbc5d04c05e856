//! Regenerates **Table I** of the paper: test-vector counts and generation
//! runtimes for the five benchmark arrays, next to the paper's reported
//! numbers and the naive 2·n_v baseline.
//!
//! Run with `cargo run --release -p fpva-bench --bin table1`. Pass
//! `--threads N` to generate the five per-array plans on N workers
//! (default: one per CPU; every plan is deterministic per layout, so the
//! table is identical for every thread count, apart from the timings).
//! On a host with more than one CPU each worker also runs the cut stage of
//! the larger layouts on a helper thread (see `Atpg::generate`). A trial
//! count is rejected (exit 2): this binary runs no campaign.

use fpva_bench::{outln, plan_table1_with, CliArgs};
use fpva_sim::exec;

fn main() {
    let threads = CliArgs::parse_threads();
    // run_chunked caps workers at the chunk count (one chunk per array).
    outln!(
        "Table I — test vector generation (paper numbers in parentheses; {} worker(s))",
        exec::resolve_threads(threads).min(fpva_grid::layouts::table1().len())
    );
    outln!(
        "{:<8} {:>6} | {:>9} {:>9} {:>9} {:>11} | {:>8} {:>8} {:>8} {:>8} | {:>9}",
        "array",
        "n_v",
        "n_p",
        "n_c",
        "n_l",
        "N",
        "t_p(s)",
        "t_c(s)",
        "t_l(s)",
        "T(s)",
        "baseline"
    );
    for planned in plan_table1_with(threads) {
        let e = &planned.entry;
        let p = &planned.plan;
        let s = p.stats();
        let paper_total = e.paper_flow_paths + e.paper_cut_sets + e.paper_leakage;
        outln!(
            "{:<8} {:>6} | {:>4} ({:>2}) {:>4} ({:>2}) {:>4} ({:>2}) {:>5} ({:>3}) | {:>8.3} {:>8.3} {:>8.3} {:>8.3} | {:>9}",
            e.name,
            e.fpva.valve_count(),
            p.flow_paths().len(),
            e.paper_flow_paths,
            p.cut_sets().len(),
            e.paper_cut_sets,
            p.leakage_paths().len(),
            e.paper_leakage,
            p.vector_count(),
            paper_total,
            s.t_paths.as_secs_f64(),
            s.t_cuts.as_secs_f64(),
            s.t_leakage.as_secs_f64(),
            s.total().as_secs_f64(),
            fpva_atpg::baseline::baseline_vector_count(&e.fpva),
        );
        assert!(
            p.untestable_open().is_empty() && p.untestable_closed().is_empty(),
            "{}: plan left untestable stuck-at faults",
            e.name
        );
        // The port-less corner cells contribute physically untestable leak
        // pairs; report any pair left without a certificate.
        for &(a, b) in p.untestable_pairs() {
            if !fpva_atpg::leakage::pair_untestable(&e.fpva, a, b) {
                outln!(
                    "  !! {}: leak pair ({a}, {b}) uncovered without certificate",
                    e.name
                );
            }
        }
    }
    outln!();
    outln!("N is roughly 2*sqrt(n_v) for both implementations; the naive");
    outln!("baseline needs 2*n_v vectors (squared complexity, Section IV).");
    outln!(
        "T = t_p + t_c + t_l. From {} valves up, on a host with more than one CPU",
        fpva_atpg::Atpg::CUT_HELPER_MIN_VALVES
    );
    outln!(
        "(this one has {}), t_c runs beside t_p + t_l, so a plan takes about T - t_c.",
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    );
}
