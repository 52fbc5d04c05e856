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
//! subsetting, chunk decomposition and lane packing, and equal to the rows
//! the scalar oracle gives. The contract has three load-bearing pieces:
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
//!    table lookups, not BFS probes), and [`TestSuite::new`] lowers the
//!    chip once into its [`fpva_grid::ChipGraph`], every channel one node
//!    and one arc per valve between two nodes, which the suite keeps for
//!    its own floods and for every [`BitSimulator`] bound to it; the
//!    test generator routes on the same graph. Both are plain shared data
//!    (`Send + Sync`), built once and read
//!    by every worker; [`campaign::run_in`] takes the leak table
//!    ([`campaign::ChipContext`]) for reuse across runs.
//!
//! ## The bit-parallel lane layout
//!
//! The kernel packs [`bitsim::LANES`] = 64 fault scenarios into one `u64`
//! per graph element: lane `l` of the per-valve word says "scenario `l`
//! holds this valve open" (commanded state broadcast, then control-leak
//! victims cleared, then stuck-at overrides — the per-lane replica of
//! [`FaultSet::effective_states`]), and lane `l` of the per-node word says
//! "scenario `l` pressurises this node". Faults touch valves only, so the
//! cells of one node share pressure in every scenario. One bitset BFS then
//! floods all 64 scenarios through the graph's arcs at once — the inner
//! loop is a word-wide AND against the valve's lane word and an OR into
//! the neighbour node.
//!
//! Which scenarios share a word is decided per vector, not per input
//! block. [`BitSimulator::sweep`] takes a whole chunk of
//! [`bitsim::SWEEP_CHUNK`] = 2048 scenarios (consecutive campaign trials
//! or audit faults) and walks the suite once. Each scenario is visited
//! only at the vectors of its relevance mask, the OR of per-valve masks
//! that [`TestSuite`] keeps: the vectors that pressurise a sink and at
//! which one of its closings touches the golden pressure region `R`, and
//! those at which one of its openings crosses `R`. An opening into a *dead
//! end*, a node that holds no sink and whose every arc is a
//! commanded-closed valve, counts only when two of the scenario's
//! stuck-at-1 valves share a node, since only then can pressure leave the
//! dead end. Everywhere else it reads golden. At a visit, what the suite
//! keeps of the vector decides what it can: `R`, the sink side `S` (the
//! nodes joined to a sink port's node by commanded-open valves) and, when
//! `R` is a chain of nodes as on flow-path and leakage vectors, each
//! node's position along it. A scenario *reads golden* when no valve it
//! closes touches `R`, and every valve it opens that touches `R` either
//! lies inside `R` or leads from `R` into a sealed node (every arc at it
//! a commanded-closed valve) outside `S` that no other changed valve
//! touches: pressure then fills `R` and those nodes, and no sink. It is
//! *detected* when no valve it closes touches `R ∪ S` and some valve it
//! opens leads from `R` into a node of `S`: pressure then reaches a sink
//! that golden leaves dry. On a chain it is also *detected* when its
//! earliest closing cuts the chain before the last sink and no valve it
//! opens touches the chain up to the cut: pressure then stays behind the
//! cut. Only the scenarios left undecided are packed, 64 per word pass,
//! with only the occupied lanes seeded at the sources and compared at the
//! sinks; the others move on to their next visit, or out of the sweep,
//! unsimulated. The [`bitsim`] module docs give the rules and the masks in
//! full and why each is exact. On one chunk of 2048 three-fault trials
//! against the 30×30 Table I plan this leaves 18 word passes for the
//! chunk's 32 blocks, where masks with closings at every vector left 46,
//! the regions without chain positions 70, and packing every scenario
//! that changes a valve touching `R` took 121.
//!
//! [`KernelStats`] counts the sweep's work: `blocks` are the input's
//! 64-scenario blocks (`⌈n / 64⌉` per sweep of `n` scenarios), `lanes`
//! the scenarios swept, and `word_passes` the packed passes over the
//! scenarios the regions cannot decide, so `word_passes / blocks` is the
//! mean number of passes per 64 scenarios. Scenarios the regions decide
//! cost no pass and no counter.
//!
//! ## Two-fault audit by composition
//!
//! [`audit::two_fault_audit`] checks all `n_v·(n_v − 1)` (stuck-at-0 `a`,
//! stuck-at-1 `b`) pairs, but simulates only the few that single-fault
//! results cannot decide. Let vector `v` detect `a` alone, and let
//! `R_a(v)` be the region `v` pressurises under `a` alone. If `b` is
//! commanded open in `v`, the pair's valve states are `a`'s. Otherwise, if
//! `b` has both or neither endpoint node in `R_a(v)`, opening it adds no
//! edge leaving `R_a(v)`. Either way `R_a(v)` holds the sources and stays
//! closed under the pair's open edges, and the pair opens every edge `a`
//! does, so the pair pressurises exactly `R_a(v)`, responds like `a` and
//! is detected.
//!
//! The audit therefore splits the stuck-at-0 valves into fixed chunks of
//! [`audit::VALVE_CHUNK`] and runs a pre-pass per chunk that packs the
//! stuck-at-0 faults 64 per word pass, like a sweep. A lone stuck-at-0 is
//! packed exactly at the vectors of its relevance mask, which pressurise a
//! sink and at which it closes a valve touching `R`; elsewhere it reads
//! golden (where no sink is wet, a stuck-at-0 only shrinks a dry region).
//! The pre-pass needs its faulty frontier to list partners, so it ignores
//! the chain cut, which would decide many of these stuck-at-0 faults
//! detected without one. When a vector first detects a
//! lane, the lane's partner list is scattered from the frontier: the
//! commanded-closed valves with exactly one endpoint reached in that lane.
//! Later detections filter the list the same way, and a lane stays in the
//! pre-pass until its list is empty. A stuck-at-0 that no vector detects
//! keeps every partner. The surviving
//! pairs then go, in scan order, through ordinary [`BitSimulator::sweep`]s
//! of at most [`bitsim::SWEEP_CHUNK`] pairs, so the `undetected` list is
//! exactly the unpruned one. On the 30×30 Table I plan this leaves about
//! 1.5 k of 2.9 M pairs to simulate. [`TestSuite::detects`] applied to
//! every pair stays the oracle in the differential tests.
//!
//! The audit's [`KernelStats`] count the pre-pass like a sweep: its
//! stuck-at-0 scenarios go in `lanes`, their 64-scenario blocks in
//! `blocks`, and its packed passes in `word_passes`, on top of the
//! counters of the surviving pairs' sweeps.
//!
//! **Scalar-oracle invariant:** the scalar path ([`propagate`],
//! [`TestSuite::detects`], [`campaign::leak_is_observable`]) is retained
//! unchanged and is the oracle — the bit-parallel kernel must reproduce
//! its results *byte for byte* (same rows, same escapes, same
//! observable-leak table), never just statistically. Differential tests
//! (unit, integration and proptest) apply the scalar path to every trial,
//! fault and pair and pin this on every Table I layout and the multi-sink
//! example chip, under complete plans and under weak suites (a plan's
//! paths only, its cuts only) that let faults escape.
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

// The shared test chips (`tests/common`) name this crate `fpva_sim`.
#[cfg(test)]
extern crate self as fpva_sim;

pub mod audit;
pub mod bitsim;
pub mod campaign;
mod error;
pub mod exec;
mod fault;
mod pressure;
mod suite;

pub use audit::CoverageReport;
pub use bitsim::{BitSimulator, KernelStats};
pub use campaign::{CampaignConfig, CampaignRow, ChipContext, ObservableLeaks};
pub use error::SimError;
pub use fault::{EffectiveStates, Fault, FaultSet};
pub use pressure::{propagate, respond, Pressure, Response};
pub use suite::TestSuite;
