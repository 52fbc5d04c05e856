//! The paper's Section IV evaluation in miniature: inject 1–5 random
//! manufacturing faults into the 15x15 benchmark array and count how many
//! fault sets the generated vectors detect.
//!
//! Run with `cargo run --release --example fault_campaign`.

use fpva::sim::campaign::{self, CampaignConfig};
use fpva::{layouts, Atpg};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let fpva = layouts::table1_15x15();
    let plan = Atpg::new().generate(&fpva)?;
    let suite = plan.to_suite(&fpva);
    println!(
        "15x15 array, {} valves, {} test vectors",
        fpva.valve_count(),
        suite.len()
    );

    let config = CampaignConfig {
        trials: 2_000, // the paper uses 10_000; see the fault_detection binary
        fault_counts: vec![1, 2, 3, 4, 5],
        threads: 0, // one worker per CPU; the rows do not depend on this
        ..Default::default()
    };
    println!(
        "{:>7} {:>10} {:>10} {:>9}",
        "faults", "trials", "detected", "rate"
    );
    for row in campaign::run(&fpva, &suite, &config) {
        let rate = row
            .detection_rate()
            .map_or_else(|| "n/a".to_string(), |r| format!("{:.2}%", 100.0 * r));
        println!(
            "{:>7} {:>10} {:>10} {:>9}",
            row.fault_count, row.trials, row.detected, rate
        );
        for escape in row.escapes.iter().take(2) {
            println!("        escape example: {:?}", escape.faults());
        }
    }
    Ok(())
}
