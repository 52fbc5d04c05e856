//! # fpva — testing microfluidic fully programmable valve arrays
//!
//! A Rust reproduction of Liu, Li, Bhattacharya, Chakrabarty, Ho,
//! Schlichtmann, *"Testing Microfluidic Fully Programmable Valve Arrays
//! (FPVAs)"*, **DATE 2017** (arXiv:1705.04996).
//!
//! This facade crate re-exports the workspace:
//!
//! * [`grid`] — the FPVA structural model (valve lattice, channels,
//!   obstacles, ports, test vectors, the Table I benchmark layouts),
//! * [`ilp`] — a self-contained MILP solver (two-phase simplex + branch
//!   and bound) standing in for the commercial ILP solver the paper used,
//! * [`sim`] — the behavioural chip simulator: pressure propagation,
//!   the stuck-at-0/1 and control-leak fault model, random fault
//!   campaigns, exhaustive coverage audits,
//! * [`atpg`] — the paper's contribution: flow-path, cut-set and
//!   control-leakage test-vector generation (ILP, greedy and hierarchical
//!   engines) plus the naive baseline.
//!
//! The most common entry points are re-exported at the crate root.
//!
//! # Example: generate and evaluate a test plan
//!
//! ```
//! use fpva::{Atpg, layouts};
//! use fpva::sim::campaign::{self, CampaignConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let fpva = layouts::table1_5x5();
//! let plan = Atpg::new().generate(&fpva)?;
//! let suite = plan.to_suite(&fpva);
//!
//! // The Section IV experiment, scaled down, spread over two workers —
//! // the rows are byte-identical for every `threads` value.
//! let config = CampaignConfig { trials: 100, threads: 2, ..Default::default() };
//! for row in campaign::run(&fpva, &suite, &config) {
//!     assert!(row.all_detected(), "{} faults escaped", row.fault_count);
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use fpva_atpg as atpg;
pub use fpva_grid as grid;
pub use fpva_ilp as ilp;
pub use fpva_sim as sim;

pub use fpva_atpg::{Atpg, AtpgConfig, AtpgError, CutSet, FlowPath, TestPlan};
pub use fpva_grid::{layouts, Fpva, FpvaBuilder, GridError, TestVector, ValveId, ValveState};
pub use fpva_sim::{
    CampaignConfig, CampaignRow, ChipContext, CoverageReport, Fault, FaultSet, KernelStats,
    ObservableLeaks, TestSuite,
};
