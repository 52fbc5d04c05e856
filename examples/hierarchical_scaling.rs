//! The hierarchical-vs-direct trade-off (the paper's Fig. 8 and the
//! motivation for Section III-B-4): compare path counts and generation
//! times of the hierarchical band engine and the direct greedy engine as
//! the array grows, and show the exact ILP on a subblock-sized array.
//!
//! Run with `cargo run --release --example hierarchical_scaling`.

use fpva::atpg::heuristic::greedy_cover;
use fpva::atpg::hierarchy::{hierarchical_cover, HierarchyConfig};
use fpva::atpg::ilp_model::{min_path_cover_ilp, PathIlpConfig};
use fpva::layouts;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "{:>6} | {:>20} | {:>20}",
        "array", "hierarchical (5x5)", "greedy direct"
    );
    for n in [10usize, 15, 20, 25, 30] {
        let f = layouts::full_array(n, n);
        let t0 = Instant::now();
        let hier = hierarchical_cover(&f, &HierarchyConfig::default())?;
        let t_hier = t0.elapsed();
        let t0 = Instant::now();
        let greedy = greedy_cover(&f, 7)?;
        let t_greedy = t0.elapsed();
        println!(
            "{n:>4}x{n} | {:>8} in {:>7.3}s | {:>8} in {:>7.3}s",
            hier.paths.len(),
            t_hier.as_secs_f64(),
            greedy.paths.len(),
            t_greedy.as_secs_f64()
        );
    }

    // The exact ILP (the paper's constraints (1)-(8)) at subblock scale.
    let f = layouts::full_array(3, 3);
    let t0 = Instant::now();
    let exact = min_path_cover_ilp(&f, &PathIlpConfig::default())?;
    println!(
        "\nexact ILP on 3x3: {} paths (provably minimal cover probe) in {:.3}s",
        exact.paths.len(),
        t0.elapsed().as_secs_f64()
    );
    Ok(())
}
