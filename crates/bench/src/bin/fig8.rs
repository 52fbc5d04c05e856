//! Regenerates **Fig. 8** of the paper: flow paths on the full 10×10 array
//! from the direct model vs the hierarchical model (5×5 subblocks).
//!
//! The paper's direct ILP finds 2 paths; our direct engine (the greedy
//! cover — the exact ILP is impractical at this size without a commercial
//! solver) typically needs one or two more.
//! The hierarchical engine reproduces the paper's 4 paths exactly.
//!
//! Run with `cargo run --release -p fpva-bench --bin fig8`. Flags:
//! `--trials N` sets the direct engine's best-of-N seed sweep (default
//! 16) and `--threads N` spreads it over N workers (default: one per
//! CPU; the rendered figure is identical for every thread count).

use fpva_atpg::heuristic::greedy_cover;
use fpva_atpg::hierarchy::{hierarchical_cover, HierarchyConfig};
use fpva_bench::{outln, render_paths, CliArgs};
use fpva_grid::layouts;
use fpva_sim::exec;

fn main() {
    let args = CliArgs::parse();
    let seeds = args.trials.unwrap_or(16).max(1);
    let f = layouts::full_array(10, 10);
    // run_chunked caps workers at the chunk count (one chunk per seed).
    outln!(
        "Fig. 8 — full 10x10 array, {} valves ({} direct seeds, {} worker(s))\n",
        f.valve_count(),
        seeds,
        exec::resolve_threads(args.threads).min(seeds)
    );

    // Best-of-seeds randomized direct cover (the exact ILP is out of reach
    // for a textbook branch-and-bound at this size). Each seed's cover is
    // a pure function of the seed, so the chunked sweep is deterministic
    // for every thread count: the winner is the first shortest cover in
    // seed order.
    let per_chunk = exec::run_chunked(args.threads, seeds, 1, |range| {
        range
            .map(|seed| {
                let cover = greedy_cover(&f, 0xF18A ^ seed as u64).expect("full array has ports");
                assert!(cover.is_complete(), "direct cover incomplete");
                cover.paths
            })
            .min_by_key(Vec::len)
            .expect("chunk is non-empty")
    });
    let direct_paths = per_chunk
        .into_iter()
        .min_by_key(Vec::len)
        .expect("at least one seed");
    outln!(
        "(a) direct model: {} paths (paper: 2 via commercial ILP)",
        direct_paths.len()
    );
    outln!("{}", render_paths(&f, &direct_paths));

    let hier = hierarchical_cover(&f, &HierarchyConfig::default()).expect("ports exist");
    assert!(hier.is_complete(), "hierarchical cover incomplete");
    outln!(
        "(b) hierarchical model (5x5 blocks): {} paths (paper: 4)",
        hier.paths.len()
    );
    outln!("{}", render_paths(&f, &hier.paths));
}
