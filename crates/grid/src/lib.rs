//! Structural model of a microfluidic **fully programmable valve array**
//! (FPVA), the substrate of the DATE 2017 paper *"Testing Microfluidic Fully
//! Programmable Valve Arrays (FPVAs)"* by Liu et al.
//!
//! An FPVA is a regular `rows × cols` grid of *fluid cells*. Every pair of
//! orthogonally adjacent cells is separated by a *valve site*. A site either
//! carries a real, individually controllable [`ValveId`], is permanently open
//! (part of a transportation **channel** where no valve was built), or is a
//! permanent wall (adjacent to an **obstacle** region). Pressure enters and
//! leaves the chip through boundary [`Port`]s: sources are air-pressure
//! inputs, sinks are pressure meters.
//!
//! The crate provides:
//!
//! * [`Fpva`] — the immutable array description (the paper's "Inputs"),
//! * [`FpvaBuilder`] — ergonomic construction with channels, obstacles and
//!   ports,
//! * [`TestVector`] — one open/closed assignment for every valve (the
//!   paper's "Outputs"),
//! * [`ChipGraph`] — the chip lowered once, every channel contracted to
//!   one node: the graph that routing, cut decisions, the bit-parallel
//!   simulator and the lint read,
//! * [`layouts`] — the five benchmark arrays of Table I with valve counts
//!   matching the paper exactly (39, 176, 411, 744, 1704), and
//!   [`layouts::generated`] chips of a seeded family,
//! * [`render`] — ASCII rendering used to regenerate Fig. 8 and Fig. 9.
//!
//! # Example
//!
//! ```
//! use fpva_grid::{FpvaBuilder, PortKind, Side, TestVector};
//!
//! # fn main() -> Result<(), fpva_grid::GridError> {
//! // A 4x4 array with a source in the top-left and a sink in the
//! // bottom-right corner.
//! let fpva = FpvaBuilder::new(4, 4)
//!     .port(0, 0, Side::West, PortKind::Source)
//!     .port(3, 3, Side::East, PortKind::Sink)
//!     .build()?;
//! assert_eq!(fpva.valve_count(), 2 * 4 * 3);
//!
//! // All-closed chip: nothing can move.
//! let vector = TestVector::all_closed(fpva.valve_count());
//! assert_eq!(vector.open_count(), 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod array;
mod builder;
mod error;
mod geometry;
pub mod graph;
pub mod layouts;
pub mod render;
mod vector;

pub use array::{CellKind, EdgeKind, Fpva, Port, PortId, PortKind};
pub use builder::FpvaBuilder;
pub use error::GridError;
pub use geometry::{Axis, CellId, EdgeId, Side};
pub use graph::ChipGraph;
pub use vector::{TestVector, ValveId, ValveState};
