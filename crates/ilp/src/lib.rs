//! A self-contained mixed-integer linear programming (MILP) solver.
//!
//! The FPVA test-generation paper (Liu et al., DATE 2017) formulates flow
//! path and cut-set construction as ILPs (constraints (1)–(9)) and solves
//! them with a commercial solver. No ILP solver is available as an offline
//! dependency, so this crate implements one from scratch:
//!
//! * a modelling API ([`Model`], [`LinExpr`], [`VarId`]) for continuous,
//!   general-integer and binary variables with bounds,
//! * a **sparse revised simplex** for the LP relaxations ([`simplex`]),
//! * a **branch-and-bound** driver ([`MilpSolver`]) on the model as
//!   written, with depth-first search, most-fractional branching, integer
//!   bound propagation at every node ([`presolve`](mod@presolve)),
//!   integral-objective ceiling bounds and node/time limits,
//! * **certificates** of its verdicts, re-checked in exact arithmetic
//!   ([`certify`](mod@certify)).
//!
//! # Branching rule
//!
//! Every node branches on its most fractional integer variable (largest
//! distance of the LP value `v` to the nearest integer; the lowest index
//! wins ties) and explores the side `v` leans to first: the up child
//! `x ≥ ⌊v⌋ + 1` when `v − ⌊v⌋ > 0.5`, the down child `x ≤ ⌊v⌋`
//! otherwise. This is the only search order the driver has.
//!
//! # Bound propagation
//!
//! Branch and bound searches the caller's model in both modes; no
//! reduced copy is built. In product mode every node, the root included,
//! first runs integer bound propagation over the model's rows: for each
//! row and integer variable, the activity range of the other terms
//! implies a floor/ceil bound. These are exact deductions, so a node whose
//! row cannot hold or whose domain empties is pruned without an LP
//! ([`SolveStats::propagation_prunes`]); a model the root pass refutes
//! reports zero nodes. [`presolve()`] runs the root pass alone and
//! reports its verdict ([`PresolveOutcome`], naming the refuting row) and
//! what it tightened ([`PresolveStats`]); `fpva-lint` screens cover models
//! with it. [`numerics_report`] flags tiny/huge coefficients and
//! near-parallel rows before a solve is attempted. Certificate mode
//! propagates nothing (see below).
//!
//! # Revised-simplex architecture
//!
//! The paper's path-cover LPs are extremely sparse — each column touches
//! a handful of degree/flow/cover rows — so the LP engine never builds a
//! tableau:
//!
//! * **Storage.** The constraint matrix is lowered once to compressed
//!   sparse column form ([`sparse::CscMatrix`], assembled through the
//!   sorted-column builder [`SparseVec`]) as a prepared
//!   [`simplex::SparseLp`]. Branch-and-bound re-solves that one object
//!   under per-node bound vectors instead of cloning rows at every node.
//! * **Bounds.** Variable bounds are handled natively: nonbasic variables
//!   rest at a finite bound and may "bound-flip" without a basis change,
//!   so finite upper bounds add no rows (the dense oracle adds one row
//!   per bounded variable).
//! * **Basis.** `B` is held as a sparse LU factorization ([`lu`]):
//!   `B = F·H·V` with `F` the lower-triangular factor of the last
//!   refactorization (a column-eta file), `V` the permuted
//!   upper-triangular factor stored explicitly in dual row/column form,
//!   and `H` a file of Forrest–Tomlin row etas. Refactorization runs
//!   right-looking Gaussian elimination with **Markowitz ordering**
//!   (minimise the `(r−1)(c−1)` fill proxy) under a **threshold
//!   partial-pivoting** stability test. The column-count buckets the
//!   ordering searches are kept up to date across elimination steps (one
//!   bitset per count) instead of rebuilt by an O(m) scan per step, and
//!   yield bit-identically the pivots a per-step rebuild would. Each
//!   simplex pivot then updates the factors in place by one
//!   **Forrest–Tomlin** column replacement instead of appending
//!   product-form etas.
//! * **Refactorization policy.** Rebuilds are no longer a fixed cadence:
//!   the LU layer requests one when update-file fill outgrows the base
//!   factorization or an update fails its stability test (a tiny
//!   re-triangularised diagonal), and the simplex layer adds two of its
//!   own triggers — a short freshness cadence (crisper alphas measurably
//!   improve degenerate ratio-test decisions, a branching-quality knob
//!   inherited from the eta-file era) and an escalation when the
//!   periodic basic-value refresh measures drift. Numerical freshness
//!   (one FTRAN per `VALUES_REFRESH` pivots of [`simplex`]) is thereby
//!   decoupled from rebuild cost.
//! * **Stability safeguards.** An `Optimal`/`Infeasible` verdict is a
//!   *proof* to branch-and-bound, so the engine certifies terminations:
//!   the pivot loop only breaks off freshly recomputed basic values, a
//!   phase-1 infeasibility verdict is re-proven on a fresh
//!   factorization, and every reported optimum must pass a
//!   factor-independent primal-residual audit (`|A·x + s − b|` straight
//!   off the CSC matrix). Tiny blocking pivots on a factor that has
//!   absorbed updates trigger refactorize-and-retry rather than an
//!   unstable Forrest–Tomlin update.
//! * **Pricing.** Projected steepest-edge (Devex) reference weights:
//!   the entering column maximises `d²/w`, with weights updated from the
//!   pivot row. A degenerate-pivot streak switches to **Bland's rule**
//!   until progress resumes (and permanently after a large degenerate
//!   total), which is what terminates classic cycling instances such as
//!   Beale's example.
//! * **Determinism.** No randomisation anywhere; fixed iteration order
//!   and index-based tie-breaking make every solve a pure function of
//!   `(problem, bounds, deadline behaviour)`.
//! * **Limits.** [`MilpOptions::time_limit`] is enforced as a wall-clock
//!   deadline *inside* the pivot loop (a single LP cannot overshoot the
//!   budget; it returns [`simplex::LpStatus::TimeLimit`] with no partial
//!   answer), and [`MilpOptions::node_limit`] bounds the tree size.
//!   Nodes whose LP was cut short are reported in
//!   [`SolveStats::limit_nodes`] — they are *pruned unproven*, so any
//!   outcome with `limit_nodes > 0` is at best [`SolveStatus::Feasible`].
//!
//! The previous dense two-phase tableau solver survives as [`dense`], the
//! reference oracle the `ilp_differential` proptest harness checks the
//! revised simplex against.
//!
//! # Dual simplex warm re-solves
//!
//! Branch-and-bound's child nodes differ from their parent by one
//! tightened bound, which leaves the parent's optimal basis **dual
//! feasible** but (usually) primal infeasible — the textbook dual-simplex
//! starting state. The engine therefore runs a dual walk before the
//! primal phases whenever a warm-started basis has bound violations:
//!
//! * **Pricing.** The leaving row is the basic variable furthest outside
//!   its bounds (switching to smallest-index under Bland's rule). Its
//!   pivot row is accumulated through the CSR row mirror exactly like a
//!   Devex update, and reduced costs are maintained *incrementally*
//!   across pivots (`d_j ← d_j − (d_q/α_rq)·α_rj`) from one BTRAN-priced
//!   seed at walk entry, so a pivot costs one BTRAN for the row and one
//!   FTRAN for the entering column — no per-pivot pricing sweep.
//! * **Bound-flipping ratio test.** Breakpoints are walked in ascending
//!   dual ratio `|d_j|/|α_rj|` with the same EPS tie-tolerancing as the
//!   primal ratio test; a boxed candidate whose whole span cannot absorb
//!   the remaining violation is bound-flipped without a basis change (the
//!   "long step"), and among breakpoints tied at the stopping ratio the
//!   largest pivot-row entry enters for stability. Flips are only applied
//!   when an entering pivot actually follows — flipping without the
//!   accompanying dual step would leave the basis silently dual
//!   infeasible.
//! * **Anti-cycling.** These cover probes are massively degenerate, so
//!   the dual walk gives up much sooner than the primal machinery: a
//!   streak of zero-progress pivots switches to Bland's rule at
//!   `DUAL_DEGEN_FOR_BLAND` and hands the basis back at
//!   `DUAL_DEGEN_STALL`, under an overall per-node pivot budget.
//! * **Consume-or-rollback.** The engine snapshots its exact state
//!   (basis, statuses, values, LU factors) before the walk. A walk that
//!   reaches primal feasibility is consumed — phase 1 is skipped and
//!   phase 2 confirms optimality from the dual-optimal basis; a proven
//!   infeasibility is returned as the node verdict (certifying solves
//!   instead fall through to primal phase 1 so the proof log gets its
//!   Farkas ray). Anything else — stall, budget, deadline — rolls the
//!   engine back bit-identically and the primal path re-solves as if the
//!   dual had never run. The exactness matters: restarting the primal
//!   from a merely *perturbed* copy of the same basis measurably
//!   reshuffles degenerate pricing ties and blows up the search tree.
//!
//! [`SolveStats`] exposes the walk's footprint (`dual_pivots`,
//! `warm_resolves`, `cold_restarts`); the repo-level ablation harness
//! reports them per subblock. Measured on the paper's exact-cover
//! probes, the dual path shrinks the branch-and-bound tree on every
//! unchannelled size (3×3: 57 → 35 nodes, 4×4: 338 → 174, 5×5: 91 → 74
//! at equal-or-better wall-clock) and raises node throughput on the
//! channelled Table I 5×5 by ~39% (fewer refactorizations: the dual
//! verdict spares the phase-1 grind on infeasible children).
//!
//! # Certificates and exact re-verification
//!
//! Every safeguard above still trusts `f64`. The certificate layer
//! removes that trust for terminal verdicts: solvers *log proofs*, and
//! [`certify`](mod@certify) re-checks them in exact arbitrary-precision
//! rational arithmetic ([`bigrat::BigRat`] — every finite `f64` is a
//! dyadic rational, so the conversion is lossless and no dependency is
//! needed).
//!
//! * **LP level.** [`simplex::SimplexEngine::set_certify`] makes each
//!   solve emit an [`simplex::LpCertificate`]: the final primal point and
//!   simplex multipliers for `Optimal`, a phase-1 Farkas ray for
//!   `Infeasible`. [`certify::certify_lp`] re-proves the verdict from the
//!   multipliers alone — the Lagrangian bound `y·b + Σ min dⱼxⱼ` must
//!   reach the primal objective, or the aggregated Farkas row must exceed
//!   the variable box's maximum activity — without trusting the basis or
//!   the factorization.
//! * **MILP level.** [`MilpOptions::certificate`] makes [`MilpSolver`]
//!   record a [`certify::MilpCertificate`]: the full branching tree
//!   (every leaf carrying a Farkas ray, a dominating dual bound, an
//!   integral LP optimum or an empty domain) and the incumbent.
//!   [`certify::certify_outcome`] replays the tree from the root,
//!   re-proves every leaf under its accumulated bounds and re-checks the
//!   incumbent's feasibility and objective — exactly. Rejections are
//!   structured [`certify::CertifyError`]s naming the violated row, bound
//!   or leaf.
//!
//! Certificate mode disables bound propagation, so leaf boxes are root
//! bounds plus branch decisions only and every leaf's multipliers index
//! the caller's rows. A certificate is therefore a complete proof about
//! the model it is checked against; nothing is taken on trust. An
//! `Infeasible` proof has no incumbent, so every one of its leaves must be
//! an exact infeasibility or empty-box proof.
//!
//! It is sized for the instances the paper's *hierarchical* flow produces
//! (subblocks up to a few hundred variables); it is not a general-purpose
//! replacement for a commercial solver on huge direct formulations — that
//! trade-off is exactly why the paper proposes the hierarchical model.
//!
//! # Example: a tiny knapsack
//!
//! ```
//! use fpva_ilp::{Model, MilpSolver, Sense};
//!
//! # fn main() -> Result<(), fpva_ilp::IlpError> {
//! let mut m = Model::new(Sense::Maximize);
//! let x = m.binary_var("x");
//! let y = m.binary_var("y");
//! let z = m.binary_var("z");
//! // weights 3, 4, 5; capacity 7; values 4, 5, 6
//! m.add_leq(3.0 * x + 4.0 * y + 5.0 * z, 7.0);
//! m.set_objective(4.0 * x + 5.0 * y + 6.0 * z);
//! let outcome = MilpSolver::new().solve(&m)?;
//! let best = outcome.best.expect("feasible");
//! assert_eq!(best.objective.round() as i64, 9); // x + y
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bigrat;
mod branch_bound;
pub mod certify;
pub mod dense;
mod error;
mod expr;
pub mod lu;
mod model;
pub mod presolve;
pub mod simplex;
mod solution;
pub mod sparse;

pub use bigrat::BigRat;
pub use branch_bound::{MilpOptions, MilpSolver};
pub use certify::{certify_lp, certify_outcome, CertifyError, CertifySummary, MilpCertificate};
pub use error::IlpError;
pub use expr::{LinExpr, SparseVec, VarId};
pub use model::{ConstraintOp, Model, Sense, VarKind};
pub use presolve::{
    numerics_report, presolve, NumericsReport, PresolveOutcome, PresolveStats, Presolved,
};
pub use solution::{MilpOutcome, Solution, SolveStats, SolveStatus};
