//! Test-vector generation for microfluidic fully programmable valve arrays
//! (FPVAs) — the primary contribution of Liu et al., *"Testing Microfluidic
//! Fully Programmable Valve Arrays (FPVAs)"*, DATE 2017.
//!
//! Manufacturing defects leave valves **stuck-at-0** (cannot open) or
//! **stuck-at-1** (cannot close), or let control-layer pressure leak
//! between neighbouring valves. The paper detects them with three families
//! of test vectors:
//!
//! * **Flow paths** ([`FlowPath`]): simple source→sink paths, no loops or
//!   branches (to avoid the masking of Fig. 5(a)); every valve must lie on
//!   at least one path, so a stuck-at-0 valve kills the pressure reading of
//!   the path that covers it. Generated by the paper's ILP (constraints
//!   (1)–(8), in [`ilp_model`]), by a greedy heuristic ([`heuristic`]),
//!   or hierarchically per serpentine block band ([`hierarchy`]).
//! * **Cut-sets** ([`CutSet`]): valve sets whose closure separates sources
//!   from sinks; a pressure reading while a cut-set is closed proves a
//!   stuck-at-1 valve. Straight grid lines reproduce the paper's cut
//!   counts; the masking pattern of Fig. 5(c)/(d) is excluded per
//!   constraint (9) ([`cutset`]).
//! * **Control-leakage vectors** ([`leakage`]): path-shaped vectors that
//!   put every physically adjacent valve pair in a
//!   "actuator-closed/victim-on-active-path" configuration.
//!
//! [`Atpg`] bundles the three generators into one [`TestPlan`]; the
//! [`baseline`] module counts the vectors of the naive 2·n_v comparison
//! method the paper argues against.
//!
//! # Quick start
//!
//! ```
//! use fpva_atpg::Atpg;
//! use fpva_grid::layouts;
//!
//! # fn main() -> Result<(), fpva_atpg::AtpgError> {
//! let fpva = layouts::table1_5x5();
//! let plan = Atpg::new().generate(&fpva)?;
//! assert!(plan.flow_paths().len() >= 2);
//! assert!(plan.cut_sets().len() == 8); // (5-1) + (5-1), as in Table I
//! let suite = plan.to_suite(&fpva);
//! assert!(suite.len() > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
mod config;
pub mod connectivity;
pub mod cutset;
mod error;
pub mod heuristic;
pub mod hierarchy;
pub mod ilp_model;
pub mod leakage;
mod path;
mod plan;

pub use config::{AtpgConfig, PathEngine};
pub use cutset::CutSet;
pub use error::AtpgError;
pub use path::FlowPath;
pub use plan::{Atpg, GenerationStats, TestPlan};
