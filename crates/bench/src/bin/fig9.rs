//! Regenerates **Fig. 9** of the paper: the flow paths covering all 744
//! valves of the 20×20 array with three channels (`~`) and two obstacles
//! (`#`).
//!
//! Run with `cargo run --release -p fpva-bench --bin fig9`. Flags:
//! `--trials N` sweeps N generator seeds and renders the plan with the
//! fewest vectors (default 4; trial 0 is the historical default seed, so
//! the sweep can only improve on the old single-shot output) and
//! `--threads N` spreads the sweep over N workers (default: one per CPU;
//! the rendered figure is identical for every thread count).

use fpva_atpg::{Atpg, AtpgConfig};
use fpva_bench::{outln, render_paths, CliArgs};
use fpva_grid::layouts;
use fpva_sim::exec;

fn main() {
    let args = CliArgs::parse();
    let trials = args.trials.unwrap_or(4).max(1);
    let f = layouts::table1_20x20();
    // Each trial perturbs only the randomized-stage seed (trial 0 is the
    // default configuration); every plan is a pure function of its seed,
    // so the chunked sweep is deterministic for every thread count.
    let per_chunk = exec::run_chunked(args.threads, trials, 1, |range| {
        range
            .map(|trial| {
                let config = AtpgConfig {
                    seed: AtpgConfig::default().seed + trial as u64,
                    ..Default::default()
                };
                Atpg::with_config(config)
                    .generate(&f)
                    .expect("benchmark layout is valid")
            })
            .min_by_key(fpva_atpg::TestPlan::vector_count)
            .expect("chunk is non-empty")
    });
    let plan = per_chunk
        .into_iter()
        .min_by_key(fpva_atpg::TestPlan::vector_count)
        .expect("at least one trial");
    outln!(
        "Fig. 9 — 20x20 array with channels and obstacles: {} flow paths cover all {} valves (paper: 16; best of {} seed(s), {} worker(s))",
        plan.flow_paths().len(),
        f.valve_count(),
        trials,
        // run_chunked caps workers at the chunk count (one per trial).
        exec::resolve_threads(args.threads).min(trials)
    );
    assert!(plan.untestable_open().is_empty());
    outln!("{}", render_paths(&f, plan.flow_paths()));
    outln!("legend: digits/letters = path index, ~ = channel, # = obstacle,");
    outln!("        S = pressure source, M = pressure meter");
}
