//! Regenerates the **Section IV fault-detection experiment**: for each
//! Table I array, inject 1–5 random faults, apply the generated vectors,
//! repeat 10 000 times per fault count (the paper reports that all faults
//! were captured).
//!
//! Run with `cargo run --release -p fpva-bench --bin fault_detection`.
//! Flags: `--trials N` (default 10 000; a bare number also works) and
//! `--threads N` (default: one worker per CPU). Results are identical for
//! every thread count — only the runtime differs. Exits 1 when any
//! injected fault set escapes the suite, so a run gates detection.

use fpva_bench::{outln, percent_or_na, plan_table1_with, CliArgs};
use fpva_sim::campaign::{self, CampaignConfig};
use fpva_sim::exec;

fn main() {
    let args = CliArgs::parse();
    let trials = args.trials.unwrap_or(10_000);
    outln!(
        "Section IV experiment — {trials} random injections per fault count, {} worker(s)",
        exec::resolve_threads(args.threads)
    );
    outln!(
        "{:<8} {:>6} {:>4} | {:>10} {:>10} {:>10} {:>10} {:>10}",
        "array",
        "n_v",
        "N",
        "1 fault",
        "2 faults",
        "3 faults",
        "4 faults",
        "5 faults"
    );
    let mut escaped = false;
    for planned in plan_table1_with(args.threads) {
        let e = &planned.entry;
        let suite = planned.plan.to_suite(&e.fpva);
        let config = CampaignConfig {
            trials,
            threads: args.threads,
            ..Default::default()
        };
        let rows = campaign::run(&e.fpva, &suite, &config);
        let cells: Vec<String> = rows
            .iter()
            .map(|r| format!("{:>6}/{}", r.detected, r.trials))
            .collect();
        outln!(
            "{:<8} {:>6} {:>4} | {}",
            e.name,
            e.fpva.valve_count(),
            suite.len(),
            cells.join(" ")
        );
        for r in &rows {
            if !r.all_detected() {
                escaped = true;
                outln!(
                    "  !! {} escapes at {} faults (rate {}), e.g. {:?}",
                    r.trials - r.detected,
                    r.fault_count,
                    percent_or_na(r.detection_rate()),
                    r.escapes.first()
                );
            }
        }
    }
    outln!("\n(paper: all injected faults detected in all 10 000 trials)");
    if escaped {
        eprintln!("error: some injected fault sets escaped the generated suites");
        std::process::exit(1);
    }
}
