//! Behavioural simulator for FPVA chips under manufacturing faults.
//!
//! The paper (Liu et al., DATE 2017) evaluates its test vectors by applying
//! them to chips with randomly injected manufacturing defects and checking
//! whether the pressure readings at the sink ports deviate from a fault-free
//! ("golden") chip. This crate is that evaluation engine:
//!
//! * [`Fault`]/[`FaultSet`] — the paper's component-level fault model:
//!   stuck-at-0 (valve cannot open: broken flow channel), stuck-at-1 (valve
//!   cannot close: leaking flow channel / broken control channel) and
//!   control-layer leakage (two valves actuate together),
//! * [`propagate`] — pressure propagation from the source ports through
//!   every passable valve site (the physical behaviour of test pressure in
//!   the flow layer),
//! * [`TestSuite`] — a vector set with pre-computed golden responses and
//!   fault-detection queries,
//! * [`campaign`] — the random multi-fault injection experiment of
//!   Section IV (10 000 trials of 1–5 faults), deterministic for every
//!   thread count via per-trial seed derivation,
//! * [`audit`] — exhaustive single-fault and pairwise two-fault coverage
//!   audits used to check the paper's two-fault detection guarantee,
//! * [`bitsim`] — the bit-parallel (PPSFP-style) simulation kernel: 64
//!   fault scenarios per `u64` word, swept vector by vector with fault
//!   dropping,
//! * [`exec`] — the scoped worker pool the campaign and the pairwise
//!   audit share (fixed-size chunks, merged in chunk order, so results
//!   never depend on the thread count).
//!
//! # Architecture
//!
//! ## The determinism contract
//!
//! Campaign rows are a **pure function of `(chip, suite, config)`** —
//! byte-identical across thread counts, `fault_counts` ordering and
//! subsetting, chunk decomposition, lane packing and kernel choice. The
//! contract has three load-bearing pieces:
//!
//! 1. **Per-trial RNG derivation.** No RNG stream is ever shared: trial
//!    `i` of fault count `k` seeds its own `StdRng` with
//!    [`campaign::trial_seed`]`(seed, k, i)` (SplitMix64-style finalisers
//!    with distinct odd multipliers per coordinate), so a trial's fault
//!    set depends on nothing but its coordinates. This is what makes any
//!    `(fault_count, trial)` range independently schedulable.
//! 2. **Chunk-ordered merge.** [`exec::run_chunked`] splits an index
//!    space into *fixed-size* contiguous chunks (never derived from the
//!    thread count), lets workers claim chunks dynamically, and returns
//!    results **in chunk order**. Merging is therefore deterministic:
//!    detections add up commutatively, and keeping each chunk's first
//!    [`campaign::MAX_RECORDED_ESCAPES`] escapes and truncating the
//!    ordered concatenation yields exactly the first escapes of the whole
//!    row.
//! 3. **Precomputation outside the hot loop.** [`ObservableLeaks`] scans
//!    every ordered adjacent valve pair once per chip (so leak draws are
//!    table lookups, not BFS probes), and [`bitsim::LoweredChip`] lowers
//!    the cell adjacency once per chip into flat CSR arrays. Both are
//!    plain shared data (`Send + Sync`), built once and read by every
//!    worker; [`campaign::ChipContext`] bundles them for reuse across
//!    runs.
//!
//! ## The bit-parallel lane layout
//!
//! The default kernel ([`SimKernel::BitParallel`]) packs
//! [`bitsim::LANES`] = 64 fault scenarios into one `u64` per graph
//! element: lane `l` of the per-valve word says "scenario `l` holds this
//! valve open" (commanded state broadcast, then control-leak victims
//! cleared, then stuck-at overrides — the per-lane replica of
//! [`FaultSet::effective_states`]), and lane `l` of the per-cell word
//! says "scenario `l` pressurises this cell". One bitset BFS
//! ([`bitsim::BitFrontier`]) then floods all 64 scenarios through the
//! lowered adjacency at once — the inner loop is a word-wide AND against
//! the valve's lane word and an OR into the neighbour cell.
//!
//! Which scenarios share a word is decided per vector, not per input
//! block. [`BitSimulator::sweep`] takes a whole chunk of
//! [`bitsim::SWEEP_CHUNK`] = 2048 scenarios (consecutive campaign trials
//! or audit faults) and walks the suite once. At each vector it drops the
//! scenarios an earlier vector detected, and of the rest packs only those
//! the vector can disturb, 64 per word pass in scenario order: a scenario
//! is disturbed when one of its faults changes the effective state of a
//! valve with an endpoint in the vector's fault-free pressure region `R`
//! ([`TestSuite`] keeps `R` per vector). Only the occupied lanes are
//! seeded at the sources and compared at the sinks. The other scenarios
//! move on to the next vector unsimulated, which is exact: `R` holds the
//! sources and is closed under the golden open edges, and when no changed
//! valve touches `R` the faulty open edges leaving `R` are the golden
//! ones, so pressure fills exactly `R` again and every sink reads golden.
//!
//! [`KernelStats`] counts the sweep's work: `blocks` are the input's
//! 64-scenario blocks (`⌈n / 64⌉` per sweep of `n` scenarios), `lanes`
//! the scenarios swept, and `word_passes` the packed passes, so
//! `word_passes / blocks` is the mean number of passes per 64 scenarios.
//!
//! **Scalar-oracle invariant:** the scalar path ([`propagate`],
//! [`TestSuite::detects`], [`campaign::leak_is_observable`]) is retained
//! unchanged and is the oracle — the bit-parallel kernel must reproduce
//! its results *byte for byte* (same rows, same escapes, same
//! observable-leak table), never just statistically. Differential tests
//! (unit, integration and proptest) pin this on every Table I layout and
//! the multi-sink example chip, under complete plans and under weak
//! suites (a plan's paths only, its cuts only) that let faults escape;
//! only [`KernelStats`] may differ between kernels.
//!
//! # Example
//!
//! ```
//! use fpva_grid::{layouts, TestVector};
//! use fpva_sim::{Fault, FaultSet, TestSuite};
//!
//! # fn main() -> Result<(), fpva_sim::SimError> {
//! let fpva = layouts::table1_5x5();
//! // One all-open vector: a stuck-at-0 fault kills the pressure path.
//! let suite = TestSuite::new(&fpva, vec![TestVector::all_open(fpva.valve_count())]);
//! let fault = FaultSet::try_from_faults(vec![Fault::StuckAt0(fpva_grid::ValveId(0))])?;
//! // The 5x5 array is well connected, so one closed valve is *not*
//! // detectable by the all-open vector alone:
//! assert!(!suite.detects(&fpva, &fault));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod bitsim;
pub mod campaign;
mod error;
pub mod exec;
mod fault;
mod pressure;
mod suite;

pub use audit::CoverageReport;
pub use bitsim::{BitFrontier, BitSimulator, KernelStats, LaneSet, LoweredChip, SimKernel};
pub use campaign::{CampaignConfig, CampaignRow, ChipContext, ObservableLeaks};
pub use error::SimError;
pub use fault::{EffectiveStates, Fault, FaultSet};
pub use pressure::{propagate, respond, Pressure, Response};
pub use suite::TestSuite;
