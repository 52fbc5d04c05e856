//! Sparse revised simplex for the LP relaxations.
//!
//! The solver works on [`LpProblem`] (or the prepared [`SparseLp`] form):
//! minimise `c·x` subject to linear rows and per-variable bounds with
//! **finite lower bounds** (upper bounds may be infinite). The path-cover
//! models of the paper are extremely sparse — each column touches a
//! handful of degree/flow/cover rows — so unlike the dense tableau oracle
//! in [`crate::dense`], this implementation never materialises `B⁻¹`:
//!
//! * the constraint matrix is stored once in CSC form
//!   ([`crate::sparse::CscMatrix`]); bounds are handled natively (nonbasic
//!   variables sit at a finite bound), so no upper-bound rows are added;
//! * every row gets one logical (slack) column — `Leq → s ∈ [0, ∞)`,
//!   `Geq → s ∈ (−∞, 0]`, `Eq → s ∈ [0, 0]` — giving an identity cold
//!   starting basis;
//! * feasibility is restored by a **big-M-free primal phase 1**: basic
//!   variables outside their bounds price with cost `∓1`, and the ratio
//!   test lets them block (and leave) at the bound they are approaching.
//!   Because this works from *any* basis, branch-and-bound warm-starts
//!   every child node from its parent's optimal [`Basis`];
//! * the basis is held as a **sparse LU factorization**
//!   ([`crate::lu::LuFactors`]: Markowitz pivot ordering, threshold
//!   partial pivoting) updated in place by **Forrest–Tomlin** after every
//!   pivot; refactorization is triggered by the factor's own
//!   stability/fill-in policy instead of a fixed cadence, while the basic
//!   values are still recomputed exactly every `VALUES_REFRESH` pivots
//!   (the degenerate path-cover LPs branch measurably better against
//!   exact values — that cadence is a solver choice, not a factor one);
//! * pricing is **projected steepest-edge (Devex)** — the entering column
//!   maximises `d²/w` with reference weights updated from the pivot row —
//!   falling back to **Bland's rule** while a degenerate streak persists
//!   (and permanently after a large degenerate total), which terminates
//!   classic cycling instances such as Beale's example;
//! * warm starts from a **dual-feasible** basis (the branch-and-bound
//!   child pattern: a parent's optimal basis after a one-bound change)
//!   skip phase 1 entirely and run the **dual simplex** instead — worst
//!   bound-violation row selection, a bound-flipping dual ratio test with
//!   the same EPS tie-tolerancing, and the same Bland/stall anti-cycling
//!   fallbacks, degrading gracefully to the primal path whenever the
//!   warm basis is unusable or the dual walk stalls.
//!
//! Determinism: all loops run in fixed index order, ties are broken by
//! variable index (Bland) or largest pivot magnitude (otherwise), and no
//! randomisation is used anywhere — a given `(problem, bounds, warm
//! basis)` always performs the identical pivot sequence.
//!
//! This module is public so the branch-and-bound driver and the test
//! suite can exercise it directly; library users normally go through
//! [`crate::MilpSolver`].

use crate::expr::SparseVec;
use crate::lu::{FactorStats, LuFactors};
use crate::model::ConstraintOp;
use crate::sparse::CscMatrix;
use std::time::Instant;

/// Numerical tolerance for pivot selection and feasibility tests.
pub const EPS: f64 = 1e-9;
/// Bound-violation tolerance: basic values within this of their bound
/// count as feasible (phase-1 costs and ratio-test branches key off it).
const FEAS_TOL: f64 = 1e-7;
/// Reduced-cost threshold below which a column may enter.
const DUAL_TOL: f64 = 1e-9;
/// Basic-value drift (incremental vs freshly recomputed, max-norm) above
/// which the periodic refresh escalates to a full refactorization: the
/// factors themselves have degraded, not just the running values.
const DRIFT_REFACTOR_TOL: f64 = 1e-8;
/// A blocking pivot element smaller than this on a non-fresh
/// factorization triggers a refactorize-and-retry of the iteration
/// instead of a Forrest–Tomlin update on a stale tiny pivot.
const SMALL_PIVOT_TOL: f64 = 1e-7;
/// Recompute the basic values from the bounds every this many pivots.
/// Deliberately small: the path-cover LPs are so degenerate that exact
/// basic values measurably steer the ratio test — PR 4 measured a 50×
/// node blowup at a large cadence. With the LU basis this refresh is one
/// FTRAN, **decoupled** from the (much more expensive, policy-driven)
/// refactorization.
const VALUES_REFRESH: usize = 8;
/// Refactorize once this many Forrest–Tomlin updates have accumulated,
/// even though the factors are still numerically healthy. This is a
/// *branching-quality* knob, not a stability one (the LU layer's own
/// drift backstop sits far higher): on the degenerate path-cover LPs,
/// crisper alphas from a fresher factor measurably improve ratio-test
/// tie decisions — sweeping the 5×5 exact cover gave 0.6s at 16 vs 15s
/// at 256 updates. This cadence means engine-driven solves never exceed
/// 16 updates per factor; the LU layer itself supports far longer runs
/// (its drift backstop sits at 1024 — see the
/// `hundreds_of_updates_without_refactorization` unit test in
/// [`crate::lu`]).
const UPDATES_REFACTOR: usize = 16;
/// Deadline polling stride inside the pivot loop.
const DEADLINE_CHECK_EVERY: usize = 128;
/// Consecutive degenerate pivots before Bland's rule engages.
const DEGEN_STREAK_FOR_BLAND: usize = 48;
/// Loose dual-feasibility tolerance for the warm-start gate: a parent's
/// optimal reduced costs satisfy the sign conditions to [`DUAL_TOL`], but
/// reclamping a tightened bound or plain float drift can leave slightly
/// larger residue that the dual ratio test still absorbs harmlessly.
const DUAL_FEAS_TOL: f64 = 1e-7;
/// Consecutive *dual*-degenerate pivots (vanishing dual ratio) before the
/// walk gives the basis back to the primal path. Much tighter than the
/// primal [`DEGEN_STREAK_FOR_BLAND`] machinery: the warm re-solves this
/// engine sees are massively degenerate set-cover probes, and a walk that
/// has ground this many zero-progress pivots in a row almost never
/// converges before the pivot budget while the rollback-plus-primal
/// fallback is cheap. Tuned on the paper's exact-cover probes (a 24-pivot
/// stall cap with Bland from half that was the only setting that beat the
/// primal-only engine on every probe size at once).
const DUAL_DEGEN_STALL: usize = 24;
/// Dual-walk Bland switch: half the stall cap, so the deterministic
/// tie-breaking gets a chance to break the cycle before the walk bails.
const DUAL_DEGEN_FOR_BLAND: usize = DUAL_DEGEN_STALL / 2;

/// One linear constraint row in sparse form.
#[derive(Debug, Clone)]
pub struct LpRow {
    /// `(variable index, coefficient)` pairs; duplicate indices are summed.
    pub coeffs: Vec<(usize, f64)>,
    /// Relational operator.
    pub op: ConstraintOp,
    /// Right-hand side.
    pub rhs: f64,
}

/// An LP in "minimise subject to rows and bounds" form.
#[derive(Debug, Clone)]
pub struct LpProblem {
    /// Objective coefficients, one per variable (minimisation).
    pub objective: Vec<f64>,
    /// Constraint rows.
    pub rows: Vec<LpRow>,
    /// Finite lower bound per variable.
    pub lower: Vec<f64>,
    /// Upper bound per variable; `f64::INFINITY` allowed.
    pub upper: Vec<f64>,
}

/// How an LP solve ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LpStatus {
    /// Optimum found.
    Optimal,
    /// No feasible point.
    Infeasible,
    /// Objective unbounded below.
    Unbounded,
    /// Pivot budget exhausted or numerical failure (treat as a solver
    /// failure).
    IterationLimit,
    /// The caller's wall-clock deadline passed mid-solve; no partial
    /// answer is reported.
    TimeLimit,
}

/// How a solve obtained its starting basis — the non-silent return path
/// for warm-start handling. A caller that hands a [`Basis`] snapshot to
/// [`SimplexEngine::solve`] can tell from this (and from the cumulative
/// [`EngineStats::cold_restarts`] counter) whether the snapshot was
/// actually used or fell back to the cold slack basis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarmStart {
    /// No warm basis was supplied (or the solve answered before touching
    /// the basis, e.g. an empty variable domain).
    Cold,
    /// The snapshot matched the basis the engine already held; the live
    /// factorization was reused as-is.
    Reused,
    /// The snapshot was installed and freshly refactorized.
    Installed,
    /// The snapshot was structurally or numerically unusable; the solve
    /// fell back to the cold slack basis (counted in
    /// [`EngineStats::cold_restarts`]).
    Rejected,
}

/// Warm-start and dual-path counters of a [`SimplexEngine`], cumulative
/// across every solve on the engine — a branch-and-bound run shares one
/// engine, so these directly measure how its children re-solved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Dual simplex pivots performed (bound flips inside the dual ratio
    /// test's long step are not counted).
    pub dual_pivots: usize,
    /// Solves that started from a usable warm basis
    /// ([`WarmStart::Reused`] or [`WarmStart::Installed`]).
    pub warm_resolves: usize,
    /// Solves where a supplied warm basis was rejected and the engine
    /// fell back to the cold slack basis ([`WarmStart::Rejected`]).
    pub cold_restarts: usize,
}

/// Result of [`solve`].
#[derive(Debug, Clone)]
pub struct LpSolution {
    /// Termination status.
    pub status: LpStatus,
    /// Primal point (meaningful only when status is [`LpStatus::Optimal`]).
    pub x: Vec<f64>,
    /// Objective value `c·x`.
    pub objective: f64,
    /// Simplex pivots performed.
    pub iterations: usize,
    /// How the starting basis was obtained (always [`WarmStart::Cold`]
    /// for the plain [`solve`]/[`SparseLp::solve`] entry points).
    pub start: WarmStart,
}

impl LpSolution {
    fn failed(status: LpStatus, n: usize, iterations: usize, start: WarmStart) -> Self {
        LpSolution {
            status,
            x: vec![0.0; n],
            objective: f64::NAN,
            iterations,
            start,
        }
    }
}

/// Proof artifact of a single LP solve, emitted when certification is
/// enabled via [`SimplexEngine::set_certify`] and re-checkable in exact
/// rational arithmetic by [`crate::certify::certify_lp`].
///
/// The multipliers are sign-clamped per row operator (`≤` rows get
/// `y ≤ 0`, `≥` rows `y ≥ 0`) so that the vector is valid dual evidence
/// by construction; the clamp only discards sub-tolerance float noise.
#[derive(Debug, Clone, PartialEq)]
pub enum LpCertificate {
    /// Optimality evidence: the final primal point plus the simplex
    /// multipliers `y = B⁻ᵀc_B`, whose exact Lagrangian bound matches
    /// the primal objective.
    Optimal {
        /// Row multipliers (one per constraint).
        duals: Vec<f64>,
        /// The reported primal point (structural variables).
        x: Vec<f64>,
        /// The reported objective `c·x` (internal minimisation form).
        objective: f64,
    },
    /// Infeasibility evidence: a Farkas ray from the phase-1 optimum —
    /// row multipliers whose aggregated constraint no point in the
    /// variable box can satisfy.
    Infeasible {
        /// Farkas row multipliers (one per constraint).
        farkas: Vec<f64>,
    },
}

/// An opaque basis snapshot from a successful solve, reusable as a warm
/// start for a related solve (same matrix, different bounds) — the
/// branch-and-bound access pattern. A stale or inconsistent snapshot is
/// detected and replaced by the cold slack basis; the fallback is
/// reported through [`LpSolution::start`] and counted in
/// [`EngineStats::cold_restarts`] rather than swallowed silently.
#[derive(Debug, Clone)]
pub struct Basis {
    /// Basic variable per row position (structurals `0..n`, logicals
    /// `n..n + m`).
    basis: Vec<usize>,
    /// Which bound each variable rested at when snapshotted (`true` =
    /// upper); only meaningful for nonbasic variables.
    at_upper: Vec<bool>,
}

/// A prepared LP: constraint matrix in CSC form plus row metadata, built
/// **once** and then solved repeatedly under different variable bounds —
/// exactly the access pattern of branch-and-bound, which previously
/// re-cloned every row at every node.
#[derive(Debug, Clone)]
pub struct SparseLp {
    objective: Vec<f64>,
    cols: CscMatrix,
    /// CSR mirror of `cols` (the transpose, column `i` = row `i`), kept
    /// so the Devex pivot-row update can sweep row-wise and touch only
    /// the columns intersecting the pivot row's support.
    rows_csr: CscMatrix,
    ops: Vec<ConstraintOp>,
    rhs: Vec<f64>,
}

impl SparseLp {
    /// Assembles a prepared LP from its parts.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions are inconsistent (`cols` must be
    /// `ops.len() × objective.len()`).
    pub fn new(
        objective: Vec<f64>,
        cols: CscMatrix,
        ops: Vec<ConstraintOp>,
        rhs: Vec<f64>,
    ) -> Self {
        assert_eq!(cols.ncols(), objective.len(), "objective length mismatch");
        assert_eq!(cols.nrows(), ops.len(), "row op count mismatch");
        assert_eq!(cols.nrows(), rhs.len(), "rhs count mismatch");
        let rows_csr = cols.transpose();
        SparseLp {
            objective,
            cols,
            rows_csr,
            ops,
            rhs,
        }
    }

    /// Converts a row-form [`LpProblem`] (bounds are supplied separately
    /// at [`SparseLp::solve`] time).
    /// # Panics
    ///
    /// Panics if a row references a variable outside the objective.
    pub fn from_problem(p: &LpProblem) -> Self {
        let n = p.objective.len();
        let m = p.rows.len();
        // Scatter the row-form coefficients into per-variable columns;
        // `from_unsorted` sorts each column and sums duplicate row
        // entries (the documented `LpRow::coeffs` semantics).
        let mut columns: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        for (i, row) in p.rows.iter().enumerate() {
            for &(j, a) in &row.coeffs {
                assert!(j < n, "row {i} references variable {j} of {n}");
                columns[j].push((i, a));
            }
        }
        let columns: Vec<SparseVec> = columns.into_iter().map(SparseVec::from_unsorted).collect();
        SparseLp::new(
            p.objective.clone(),
            CscMatrix::from_columns(m, &columns),
            p.rows.iter().map(|r| r.op).collect(),
            p.rows.iter().map(|r| r.rhs).collect(),
        )
    }

    /// Number of structural variables.
    pub fn var_count(&self) -> usize {
        self.objective.len()
    }

    /// The (minimisation-form) objective coefficients.
    pub fn objective(&self) -> &[f64] {
        &self.objective
    }

    /// Number of constraint rows.
    pub fn row_count(&self) -> usize {
        self.rhs.len()
    }

    /// Solves under the given variable bounds with the revised simplex.
    ///
    /// # Panics
    ///
    /// Panics if the bound slices do not match [`SparseLp::var_count`] or
    /// a lower bound is not finite.
    pub fn solve(&self, lower: &[f64], upper: &[f64], deadline: Option<Instant>) -> LpSolution {
        self.engine().solve(lower, upper, deadline, None).0
    }

    /// A reusable [`SimplexEngine`] over this LP. Callers that solve the
    /// same matrix many times under changing bounds (branch-and-bound)
    /// should create the engine once: its factorization, pricing weights
    /// and scratch buffers persist between solves.
    pub fn engine(&self) -> SimplexEngine<'_> {
        SimplexEngine::new(self)
    }
}

/// Solves the LP with the sparse revised simplex.
///
/// # Panics
///
/// Panics if the problem arrays have inconsistent lengths, a lower bound
/// is not finite, or a coefficient is NaN (callers are expected to
/// validate with [`crate::Model::validate`] first).
pub fn solve(p: &LpProblem) -> LpSolution {
    solve_with_deadline(p, None)
}

/// Like [`solve`], but gives up with [`LpStatus::TimeLimit`] once
/// `deadline` passes (checked inside the pivot loop, so a single large LP
/// cannot overshoot a caller's wall-clock budget).
///
/// # Panics
///
/// Same contract as [`solve`].
pub fn solve_with_deadline(p: &LpProblem, deadline: Option<Instant>) -> LpSolution {
    SparseLp::from_problem(p).solve(&p.lower, &p.upper, deadline)
}

/// Where a nonbasic variable currently rests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VStat {
    Basic,
    AtLower,
    AtUpper,
}

/// Outcome of the bounded-variable ratio test.
enum Ratio {
    /// Entering variable travels its whole span to the opposite bound; no
    /// basis change.
    BoundFlip,
    /// Basic variable at `pos` blocks after `theta`; it leaves to its
    /// upper bound when `to_upper`.
    Pivot {
        pos: usize,
        theta: f64,
        to_upper: bool,
    },
    /// Nothing blocks and the span is infinite.
    Unbounded,
}

/// Outcome of a [`SimplexEngine::dual_optimize`] run from a warm basis.
#[derive(Debug)]
enum DualOutcome {
    /// Primal feasibility restored; phase 2 can resume from this basis.
    Feasible,
    /// Dual unbounded — the LP is primal infeasible, re-proved off a
    /// factorization with no accumulated Forrest–Tomlin updates.
    Infeasible,
    /// Degeneracy or numerics stalled the dual walk; the caller falls
    /// back to the primal phase-1 path, which terminates unconditionally.
    Stalled,
    /// Deadline or pivot budget exhausted.
    Limit(LpStatus),
}

/// Reusable revised-simplex state over one [`SparseLp`].
///
/// The engine owns the factorization (a sparse LU of the basis, updated
/// in place by [`lu`](crate::lu) Forrest–Tomlin rank-one replacements),
/// pricing weights and all scratch buffers, so a sequence of related
/// solves — branch-and-bound nodes — pays the setup cost once. When a solve is warm-started from
/// the basis the engine already holds (the common case: a DFS child
/// popped right after its parent), the factorization is reused as-is and
/// only the basic values are recomputed under the new bounds.
pub struct SimplexEngine<'a> {
    lp: &'a SparseLp,
    m: usize,
    /// Structural variable count; logicals are `n..n + m`.
    n: usize,
    lower: Vec<f64>,
    upper: Vec<f64>,
    /// Phase-2 cost per variable (objective on structurals, 0 logicals).
    cost: Vec<f64>,
    x: Vec<f64>,
    stat: Vec<VStat>,
    /// Basic variable per basis position.
    basis: Vec<usize>,
    /// Sparse LU factorization of the basis, Forrest–Tomlin updated in
    /// place; its validity flag doubles as the old "factored" marker.
    lu: LuFactors,
    /// Scratch: the entering column's partial FTRAN (`H⁻¹F⁻¹a_q`), the
    /// spike a Forrest–Tomlin update consumes.
    spike: Vec<f64>,
    /// Pivots since the basic values were last recomputed exactly.
    pivots_since_refresh: usize,
    /// Devex reference weights per variable.
    weights: Vec<f64>,
    /// Scratch for the Devex pivot-row BTRAN.
    rho: Vec<f64>,
    /// Scratch: simplex multipliers.
    y: Vec<f64>,
    /// Scratch: FTRAN'd entering column.
    alpha: Vec<f64>,
    /// Scratch: pivot-row entries `ρᵀa_j` per structural column (reset
    /// via `touched` after every Devex update).
    abar: Vec<f64>,
    /// Scratch: whether `abar[j]` currently holds a live accumulation.
    abar_seen: Vec<bool>,
    /// Scratch: structural columns touched by the current pivot row.
    touched: Vec<usize>,
    /// Scratch: pre-dual-walk engine state `(basis, stat, x, lu,
    /// pivots_since_refresh)`, restored after every dual walk; kept on
    /// the engine so per-node snapshots reuse their allocations.
    snap: (Vec<usize>, Vec<VStat>, Vec<f64>, LuFactors, usize),
    /// Scratch: reduced costs per variable, maintained incrementally
    /// across dual pivots (valid only inside `dual_optimize`).
    dvec: Vec<f64>,
    /// Scratch: `(column, pivot-row entry)` pairs of the current dual
    /// pivot row, for the incremental reduced-cost update.
    dupd: Vec<(usize, f64)>,
    iterations: usize,
    total_degen: usize,
    /// Cumulative dual simplex pivots (see [`EngineStats`]).
    dual_pivots: usize,
    /// Cumulative solves started from a usable warm basis.
    warm_resolves: usize,
    /// Cumulative solves whose supplied warm basis was rejected.
    cold_restarts: usize,
    /// When set, terminal verdicts also record an [`LpCertificate`].
    certify: bool,
    /// Certificate of the most recent solve (taken by the caller).
    certificate: Option<LpCertificate>,
}

impl std::fmt::Debug for SimplexEngine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimplexEngine")
            .field("m", &self.m)
            .field("n", &self.n)
            .finish_non_exhaustive()
    }
}

impl<'a> SimplexEngine<'a> {
    fn new(lp: &'a SparseLp) -> Self {
        let n = lp.var_count();
        let m = lp.row_count();
        let ntotal = n + m;
        let mut lower = vec![0.0; ntotal];
        let mut upper = vec![0.0; ntotal];
        for (i, op) in lp.ops.iter().enumerate() {
            let (lo, hi) = match op {
                ConstraintOp::Leq => (0.0, f64::INFINITY),
                ConstraintOp::Geq => (f64::NEG_INFINITY, 0.0),
                ConstraintOp::Eq => (0.0, 0.0),
            };
            lower[n + i] = lo;
            upper[n + i] = hi;
        }
        let mut cost = vec![0.0; ntotal];
        cost[..n].copy_from_slice(&lp.objective);
        SimplexEngine {
            lp,
            m,
            n,
            lower,
            upper,
            cost,
            x: vec![0.0; ntotal],
            stat: vec![VStat::AtLower; ntotal],
            basis: Vec::with_capacity(m),
            lu: LuFactors::new(),
            spike: Vec::new(),
            pivots_since_refresh: 0,
            weights: vec![1.0; ntotal],
            rho: vec![0.0; m],
            y: vec![0.0; m],
            alpha: Vec::with_capacity(m),
            abar: vec![0.0; n],
            abar_seen: vec![false; n],
            touched: Vec::new(),
            snap: (Vec::new(), Vec::new(), Vec::new(), LuFactors::new(), 0),
            dvec: Vec::new(),
            dupd: Vec::new(),
            iterations: 0,
            total_degen: 0,
            dual_pivots: 0,
            warm_resolves: 0,
            cold_restarts: 0,
            certify: false,
            certificate: None,
        }
    }

    /// Enables or disables proof logging: when on, every
    /// [`LpStatus::Optimal`] or [`LpStatus::Infeasible`] verdict of
    /// [`solve`](Self::solve) leaves an [`LpCertificate`] behind for
    /// [`take_certificate`](Self::take_certificate).
    pub fn set_certify(&mut self, on: bool) {
        self.certify = on;
    }

    /// Takes the certificate of the most recent solve, if one was
    /// emitted. The slot is cleared at the start of every solve, so a
    /// leftover certificate never describes a stale verdict.
    pub fn take_certificate(&mut self) -> Option<LpCertificate> {
        self.certificate.take()
    }

    /// The current simplex multipliers `y = B⁻ᵀc_B` for the phase-1
    /// violation costs or the phase-2 objective, sign-clamped per row
    /// operator so the vector is valid dual evidence by construction.
    fn certificate_multipliers(&mut self, phase1: bool) -> Vec<f64> {
        let mut y = vec![0.0; self.m];
        for (p, &v) in self.basis.iter().enumerate() {
            y[p] = if phase1 {
                if self.x[v] < self.lower[v] - FEAS_TOL {
                    -1.0
                } else if self.x[v] > self.upper[v] + FEAS_TOL {
                    1.0
                } else {
                    0.0
                }
            } else {
                self.cost[v]
            };
        }
        self.btran(&mut y);
        for (i, op) in self.lp.ops.iter().enumerate() {
            match op {
                ConstraintOp::Leq => y[i] = y[i].min(0.0),
                ConstraintOp::Geq => y[i] = y[i].max(0.0),
                ConstraintOp::Eq => {}
            }
        }
        y
    }

    /// Solves under the given bounds, optionally warm-starting from a
    /// basis snapshot of a previous solve. On [`LpStatus::Optimal`] the
    /// final basis is returned for reuse.
    ///
    /// # Panics
    ///
    /// Panics if the bound slices do not match the LP's variable count or
    /// a lower bound is not finite.
    pub fn solve(
        &mut self,
        lower_s: &[f64],
        upper_s: &[f64],
        deadline: Option<Instant>,
        warm: Option<&Basis>,
    ) -> (LpSolution, Option<Basis>) {
        let n = self.n;
        assert_eq!(lower_s.len(), n, "lower bound count mismatch");
        assert_eq!(upper_s.len(), n, "upper bound count mismatch");
        assert!(
            lower_s.iter().all(|l| l.is_finite()),
            "lower bounds must be finite"
        );
        self.certificate = None;
        // An empty variable domain (branch-and-bound can produce one when
        // tightening bounds) makes the whole LP infeasible; the pivot
        // machinery assumes lower <= upper everywhere, so answer here.
        if lower_s.iter().zip(upper_s).any(|(l, u)| l > u) {
            return (
                LpSolution::failed(LpStatus::Infeasible, n, 0, WarmStart::Cold),
                None,
            );
        }
        self.lower[..n].copy_from_slice(lower_s);
        self.upper[..n].copy_from_slice(upper_s);
        self.iterations = 0;
        self.total_degen = 0;

        // Basis selection: reuse the live factorization when the caller
        // hands back exactly the basis this engine last held; otherwise
        // install and refactorize the snapshot; otherwise start cold from
        // the slack basis (which phase 1 can always repair). Each path is
        // counted and reported via `LpSolution::start` — a rejected warm
        // basis is a cold restart the caller can see, not a silent swap.
        let reuse = self.lu.is_valid()
            && warm.is_some_and(|w| w.basis == self.basis && w.at_upper.len() == self.n + self.m);
        let start = if reuse {
            self.reclamp_nonbasics();
            let _ = self.recompute_basic_values();
            self.warm_resolves += 1;
            WarmStart::Reused
        } else if warm.is_some_and(|w| self.install_basis(w)) && self.refactorize().is_ok() {
            self.warm_resolves += 1;
            WarmStart::Installed
        } else {
            self.cold_start();
            if warm.is_some() {
                self.cold_restarts += 1;
                WarmStart::Rejected
            } else {
                WarmStart::Cold
            }
        };

        let max_iters = 2000 + 60 * (self.m + self.n + self.m);

        // Dual warm re-solve: a basis inherited from a parent's optimal
        // solve stays dual feasible after a one-bound change (the
        // branch-and-bound child pattern), so the dual simplex either
        // proves the child infeasible in a handful of pivots — the
        // outcome branch-and-bound consumes as a prune, where the primal
        // restart would grind phase 1 to the same verdict — or walks the
        // basis straight to a primal-feasible (hence optimal) one that
        // phase 2 below confirms without a phase-1 restart. The walk is
        // consumed only on those two clean outcomes; a stalled, capped,
        // or deadline-hit walk is rolled back to the pre-walk state and
        // the primal path re-solves as if the dual had never run.
        if matches!(start, WarmStart::Reused | WarmStart::Installed) && self.has_violations() {
            // Exact engine-state snapshot (basis, factors, values): the
            // rollback must be bit-identical, because even
            // refactorize-level float noise in the restored state flips
            // pricing near-ties downstream and reshuffles the search
            // tree (measured: restarting the primal from a perturbed
            // copy of the same basis blows the 5x5 exact-cover dive from
            // ~90 nodes to thousands). The buffers live on the engine,
            // so a node's snapshot costs copies into already-sized
            // allocations, not fresh ones.
            self.snap.0.clone_from(&self.basis);
            self.snap.1.clone_from(&self.stat);
            self.snap.2.clone_from(&self.x);
            self.snap.3.clone_from(&self.lu);
            self.snap.4 = self.pivots_since_refresh;
            let outcome = self.dual_optimize(max_iters, deadline);
            if !matches!(outcome, DualOutcome::Feasible) {
                // Restore by swap: the snapshot buffers then hold the walk's
                // end state, which the next node's snapshot overwrites.
                std::mem::swap(&mut self.basis, &mut self.snap.0);
                std::mem::swap(&mut self.stat, &mut self.snap.1);
                std::mem::swap(&mut self.x, &mut self.snap.2);
                std::mem::swap(&mut self.lu, &mut self.snap.3);
                self.pivots_since_refresh = self.snap.4;
            }
            match outcome {
                DualOutcome::Limit(status) => {
                    return (LpSolution::failed(status, n, self.iterations, start), None);
                }
                // Certificate-free callers take the (re-proved) verdict
                // as a prune; certifying solves re-derive it below so
                // the proof log gets its Farkas ray. The rollback above
                // leaves the *parent* basis live in the engine, so the
                // pruned child's sibling — the next node branch-and-bound
                // pops — still gets a true reuse of the parent
                // factorization.
                DualOutcome::Infeasible if !self.certify => {
                    return (
                        LpSolution::failed(LpStatus::Infeasible, n, self.iterations, start),
                        None,
                    );
                }
                DualOutcome::Feasible | DualOutcome::Stalled | DualOutcome::Infeasible => {}
            }
        }

        // Both phases, wrapped in a bounded certification loop: an
        // `Infeasible` or `Optimal` verdict is only ever issued off a
        // factorization that has absorbed no Forrest–Tomlin updates, or
        // off a point whose factor-independent primal residual checks
        // out — branch-and-bound consumes these verdicts as *proofs*.
        let mut attempt = 0;
        loop {
            attempt += 1;
            // Phase 1 (only when some basic value violates its bounds).
            if self.has_violations() {
                let status = self.optimize(true, max_iters, deadline);
                if status != LpStatus::Optimal {
                    return (LpSolution::failed(status, n, self.iterations, start), None);
                }
                if self.has_violations() {
                    if self.lu.updates_since_refactor() > 0 && attempt < 3 {
                        // Re-prove the impending infeasibility verdict
                        // from a fresh factorization.
                        if self.refactorize().is_err() {
                            return (
                                LpSolution::failed(
                                    LpStatus::IterationLimit,
                                    n,
                                    self.iterations,
                                    start,
                                ),
                                None,
                            );
                        }
                        continue;
                    }
                    if self.certify {
                        let farkas = self.certificate_multipliers(true);
                        self.certificate = Some(LpCertificate::Infeasible { farkas });
                    }
                    return (
                        LpSolution::failed(LpStatus::Infeasible, n, self.iterations, start),
                        None,
                    );
                }
            }

            // Phase 2: the real objective.
            let status = self.optimize(false, max_iters, deadline);
            if status != LpStatus::Optimal {
                return (LpSolution::failed(status, n, self.iterations, start), None);
            }
            // Factor-independent audit: the reported point must satisfy
            // the rows (logicals absorb each row, so the residual is a
            // direct A·x check) and the basic bounds.
            if self.primal_residual() <= FEAS_TOL && !self.has_violations() {
                break;
            }
            if attempt >= 3 || self.refactorize().is_err() {
                // Refuse to report a point that fails its own audit.
                return (
                    LpSolution::failed(LpStatus::IterationLimit, n, self.iterations, start),
                    None,
                );
            }
        }

        let x: Vec<f64> = self.x[..n].to_vec();
        let objective = self.lp.objective.iter().zip(&x).map(|(c, v)| c * v).sum();
        if self.certify {
            let duals = self.certificate_multipliers(false);
            self.certificate = Some(LpCertificate::Optimal {
                duals,
                x: x.clone(),
                objective,
            });
        }
        let snapshot = Basis {
            basis: self.basis.clone(),
            at_upper: self.stat.iter().map(|&s| s == VStat::AtUpper).collect(),
        };
        (
            LpSolution {
                status: LpStatus::Optimal,
                x,
                objective,
                iterations: self.iterations,
                start,
            },
            Some(snapshot),
        )
    }

    /// Cold start: every logical basic, every structural at its lower
    /// bound; the factorization of the diagonal slack basis is empty.
    fn cold_start(&mut self) {
        self.basis.clear();
        for j in 0..self.n {
            self.stat[j] = VStat::AtLower;
            self.x[j] = self.lower[j];
        }
        for i in 0..self.m {
            self.basis.push(self.n + i);
            self.stat[self.n + i] = VStat::Basic;
        }
        self.refactorize()
            .expect("the all-logical slack basis is a nonsingular diagonal");
    }

    /// Re-rests every nonbasic variable on a finite bound under the
    /// current (possibly tightened) bound vectors, keeping its side where
    /// possible.
    fn reclamp_nonbasics(&mut self) {
        for j in 0..self.n + self.m {
            let prefer_upper = match self.stat[j] {
                VStat::Basic => continue,
                VStat::AtUpper => true,
                VStat::AtLower => false,
            };
            let (stat, value) = if prefer_upper && self.upper[j].is_finite() {
                (VStat::AtUpper, self.upper[j])
            } else if self.lower[j].is_finite() {
                (VStat::AtLower, self.lower[j])
            } else {
                (VStat::AtUpper, self.upper[j])
            };
            self.stat[j] = stat;
            self.x[j] = value;
        }
    }

    /// Tries to adopt a snapshot; `false` when it is structurally unusable.
    fn install_basis(&mut self, warm: &Basis) -> bool {
        let ntotal = self.n + self.m;
        if warm.basis.len() != self.m || warm.at_upper.len() != ntotal {
            return false;
        }
        let mut seen = vec![false; ntotal];
        for &v in &warm.basis {
            if v >= ntotal || seen[v] {
                return false;
            }
            seen[v] = true;
        }
        self.basis.clear();
        self.basis.extend_from_slice(&warm.basis);
        for (j, &basic) in seen.iter().enumerate() {
            self.stat[j] = if basic {
                VStat::Basic
            } else if warm.at_upper[j] {
                VStat::AtUpper
            } else {
                VStat::AtLower
            };
        }
        self.reclamp_nonbasics();
        true
    }

    /// Worst row residual `|a_r·x + s_r − b_r|` of the current point —
    /// an audit that does **not** go through the factorization, so it
    /// stays trustworthy when the factors have degraded.
    fn primal_residual(&self) -> f64 {
        let mut residual = self.lp.rhs.clone();
        for j in 0..self.n {
            let xj = self.x[j];
            if xj != 0.0 {
                for (r, v) in self.lp.cols.col(j) {
                    residual[r] -= v * xj;
                }
            }
        }
        for (i, r) in residual.iter_mut().enumerate() {
            *r -= self.x[self.n + i];
        }
        residual.iter().fold(0.0f64, |acc, r| acc.max(r.abs()))
    }

    /// Whether any basic value sits outside its bounds beyond [`FEAS_TOL`].
    fn has_violations(&self) -> bool {
        self.basis
            .iter()
            .any(|&v| self.x[v] < self.lower[v] - FEAS_TOL || self.x[v] > self.upper[v] + FEAS_TOL)
    }

    /// Visits the `(row, value)` entries of column `j` (structural or
    /// logical).
    #[inline]
    fn for_col(&self, j: usize, mut f: impl FnMut(usize, f64)) {
        if j < self.n {
            for (r, v) in self.lp.cols.col(j) {
                f(r, v);
            }
        } else {
            f(j - self.n, 1.0);
        }
    }

    /// Sparse dot of column `j` with a dense vector.
    #[inline]
    fn col_dot(&self, j: usize, dense: &[f64]) -> f64 {
        if j < self.n {
            self.lp.cols.col_dot(j, dense)
        } else {
            dense[j - self.n]
        }
    }

    /// `out = B⁻¹ · column j` through the LU factors, capturing the
    /// partial transform (the Forrest–Tomlin spike) for a later
    /// [`SimplexEngine::apply_pivot`] on this column.
    fn ftran_col(&mut self, j: usize, out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.m, 0.0);
        if j < self.n {
            for (r, v) in self.lp.cols.col(j) {
                out[r] += v;
            }
        } else {
            out[j - self.n] = 1.0;
        }
        let mut spike = std::mem::take(&mut self.spike);
        self.lu.ftran(out, Some(&mut spike));
        self.spike = spike;
    }

    /// `v ← B⁻ᵀ v` through the LU factors.
    fn btran(&mut self, v: &mut [f64]) {
        self.lu.btran(v);
    }

    /// Rebuilds the LU factorization from the current basis columns
    /// (Markowitz ordering, threshold partial pivoting) and recomputes
    /// the basic values, bounding numerical drift.
    ///
    /// Errors when the basis is numerically singular; the factorization
    /// is then invalid, which the warm-reuse path in `solve` detects.
    fn refactorize(&mut self) -> Result<(), ()> {
        let (cols, n, basis) = (&self.lp.cols, self.n, &self.basis);
        let result = self.lu.factorize(self.m, |p, buf| {
            let v = basis[p];
            if v < n {
                buf.extend(cols.col(v));
            } else {
                buf.push((v - n, 1.0));
            }
        });
        self.pivots_since_refresh = 0;
        match result {
            Ok(()) => {
                let _ = self.recompute_basic_values();
                Ok(())
            }
            Err(_) => Err(()),
        }
    }

    /// Recomputes `x_B = B⁻¹ (b − N x_N)` from the nonbasic values,
    /// returning how far the incrementally maintained values had drifted
    /// (max-norm) — the solver's cheap factorization-health probe.
    fn recompute_basic_values(&mut self) -> f64 {
        let mut r = self.lp.rhs.clone();
        for j in 0..self.n + self.m {
            if self.stat[j] == VStat::Basic {
                continue;
            }
            let xj = self.x[j];
            if xj != 0.0 {
                self.for_col(j, |row, v| r[row] -= v * xj);
            }
        }
        self.lu.ftran(&mut r, None);
        let mut drift = 0.0f64;
        for (&v, &val) in self.basis.iter().zip(&r) {
            drift = drift.max((self.x[v] - val).abs());
            self.x[v] = val;
        }
        self.pivots_since_refresh = 0;
        drift
    }

    /// Cumulative basis-maintenance counters of this engine (survive
    /// refactorizations; shared across all solves on this engine).
    pub fn factor_stats(&self) -> FactorStats {
        self.lu.stats()
    }

    /// Cumulative warm-start and dual-path counters of this engine.
    pub fn engine_stats(&self) -> EngineStats {
        EngineStats {
            dual_pivots: self.dual_pivots,
            warm_resolves: self.warm_resolves,
            cold_restarts: self.cold_restarts,
        }
    }

    /// Picks the entering variable: Devex `d²/w` score, or the
    /// lowest-index eligible column under Bland's rule. In phase 1 all
    /// nonbasic costs are zero, so `d_j = −yᵀa_j`.
    fn price(&self, y: &[f64], phase1: bool, bland: bool) -> Option<(usize, i8)> {
        let mut best: Option<(usize, i8)> = None;
        let mut best_score = 0.0;
        for j in 0..self.n + self.m {
            let dir = match self.stat[j] {
                VStat::Basic => continue,
                VStat::AtLower => 1i8,
                VStat::AtUpper => -1i8,
            };
            if self.lower[j] == self.upper[j] {
                continue; // fixed (e.g. Eq logicals) never re-enter
            }
            let c = if phase1 { 0.0 } else { self.cost[j] };
            let d = c - self.col_dot(j, y);
            let eligible = if dir == 1 {
                d < -DUAL_TOL
            } else {
                d > DUAL_TOL
            };
            if !eligible {
                continue;
            }
            if bland {
                return Some((j, dir));
            }
            let score = d * d / self.weights[j];
            if score > best_score {
                best_score = score;
                best = Some((j, dir));
            }
        }
        best
    }

    /// Bounded-variable ratio test along `±B⁻¹a_q`. In phase 1, a basic
    /// variable outside its bounds blocks at the violated bound it is
    /// moving towards (restoring its feasibility as it leaves the basis)
    /// and never blocks when moving further away.
    fn ratio_test(&self, q: usize, dir: i8, alpha: &[f64], phase1: bool, bland: bool) -> Ratio {
        let span = self.upper[q] - self.lower[q];
        let d = f64::from(dir);
        let mut pivot_theta = f64::INFINITY;
        let mut pos = usize::MAX;
        let mut pos_alpha = 0.0f64;
        let mut to_upper = false;
        for (p, &a) in alpha.iter().enumerate() {
            if a.abs() <= EPS {
                continue;
            }
            let rate = -d * a; // dx_B[p] per unit θ
            let v = self.basis[p];
            let xv = self.x[v];
            let (lo, hi) = (self.lower[v], self.upper[v]);
            let (bound, hits_upper) = if rate > 0.0 {
                // Moving up: a variable below its lower bound regains
                // feasibility at `lo`; a feasible one blocks at `hi`; one
                // above `hi` is moving further away only in phase 1
                // pricing terms — it must not block behind itself.
                if phase1 && xv < lo - FEAS_TOL {
                    (lo, false)
                } else if xv <= hi + FEAS_TOL {
                    if hi == f64::INFINITY {
                        continue;
                    }
                    (hi, true)
                } else {
                    continue;
                }
            } else {
                // Moving down, mirror image.
                if phase1 && xv > hi + FEAS_TOL {
                    (hi, true)
                } else if xv >= lo - FEAS_TOL {
                    if lo == f64::NEG_INFINITY {
                        continue;
                    }
                    (lo, false)
                } else {
                    continue;
                }
            };
            let ratio = ((bound - xv) / rate).max(0.0);
            let take = if pos == usize::MAX {
                ratio < pivot_theta
            } else if ratio < pivot_theta - EPS {
                true
            } else if ratio <= pivot_theta + EPS {
                if bland {
                    v < self.basis[pos]
                } else {
                    a.abs() > pos_alpha.abs()
                }
            } else {
                false
            };
            if take {
                pivot_theta = pivot_theta.min(ratio);
                pos = p;
                pos_alpha = a;
                to_upper = hits_upper;
            }
        }
        // EPS-toleranced like every other ratio tie in this loop: on a
        // degenerate tie between the entering span and the blocking
        // ratio, prefer the flip — it needs no pivot at all, while the
        // tied blocker may carry an arbitrarily small (unstable) alpha.
        // The overshoot this admits is at most EPS·|rate|, inside
        // [`FEAS_TOL`] for the O(1)-scaled path-cover rows.
        if span <= pivot_theta + EPS {
            if span.is_infinite() {
                return Ratio::Unbounded;
            }
            return Ratio::BoundFlip;
        }
        if pos == usize::MAX {
            return Ratio::Unbounded;
        }
        Ratio::Pivot {
            pos,
            theta: pivot_theta,
            to_upper,
        }
    }

    /// Devex weight update from the pivot row, done against the **old**
    /// basis (before the new eta is appended).
    ///
    /// The pivot row `ρᵀA` (with `ρ = B⁻ᵀe_r`) is accumulated through the
    /// CSR mirror: only rows with `ρ_i ≠ 0` are swept, so only columns
    /// intersecting the pivot row's support are touched — a dense scan
    /// over every column (the former second-largest per-pivot cost after
    /// pricing) degenerates to work proportional to the row's fill-in.
    fn devex_update(&mut self, q: usize, alpha: &[f64], r: usize) {
        let ar = alpha[r];
        let gamma = self.weights[q].max(1.0);
        self.rho.iter_mut().for_each(|e| *e = 0.0);
        self.rho[r] = 1.0;
        let mut rho = std::mem::take(&mut self.rho);
        self.btran(&mut rho);
        let mut abar = std::mem::take(&mut self.abar);
        let mut seen = std::mem::take(&mut self.abar_seen);
        let mut touched = std::mem::take(&mut self.touched);
        for (i, &rv) in rho.iter().enumerate() {
            if rv == 0.0 {
                continue;
            }
            // Structural columns crossing row i (per-column contributions
            // accumulate in ascending row order, matching a direct
            // column-wise dot product exactly).
            for (j, a) in self.lp.rows_csr.col(i) {
                if !seen[j] {
                    seen[j] = true;
                    abar[j] = 0.0;
                    touched.push(j);
                }
                abar[j] += a * rv;
            }
            // The logical column of row i is the unit vector e_i.
            let j = self.n + i;
            if self.stat[j] != VStat::Basic && j != q && self.lower[j] != self.upper[j] {
                let cand = (rv / ar) * (rv / ar) * gamma;
                if cand > self.weights[j] {
                    self.weights[j] = cand;
                }
            }
        }
        for &j in &touched {
            seen[j] = false;
            if self.stat[j] == VStat::Basic || j == q || self.lower[j] == self.upper[j] {
                continue;
            }
            let ab = abar[j];
            if ab != 0.0 {
                let cand = (ab / ar) * (ab / ar) * gamma;
                if cand > self.weights[j] {
                    self.weights[j] = cand;
                }
            }
        }
        touched.clear();
        self.abar = abar;
        self.abar_seen = seen;
        self.touched = touched;
        self.rho = rho;
        self.weights[self.basis[r]] = (gamma / (ar * ar)).max(1.0);
        if self.weights.iter().any(|&w| w > 1e8) {
            self.weights.iter_mut().for_each(|w| *w = 1.0);
        }
    }

    /// Executes a basis-changing pivot: updates values, statuses and the
    /// basis map, then Forrest–Tomlin-updates the factorization with the
    /// spike captured by the entering column's FTRAN. When the update is
    /// rejected by the stability test, the basis is refactorized from
    /// scratch instead; `false` means even that failed (numerically
    /// singular basis — the caller must abort the solve).
    #[must_use]
    fn apply_pivot(
        &mut self,
        q: usize,
        dir: i8,
        alpha: &[f64],
        pos: usize,
        theta: f64,
        to_upper: bool,
    ) -> bool {
        let d = f64::from(dir);
        if theta != 0.0 {
            for (p, &a) in alpha.iter().enumerate() {
                if a != 0.0 {
                    let v = self.basis[p];
                    self.x[v] -= d * theta * a;
                }
            }
            self.x[q] += d * theta;
        }
        let leaving = self.basis[pos];
        // Snap the leaver exactly onto the bound it hit.
        self.x[leaving] = if to_upper {
            self.upper[leaving]
        } else {
            self.lower[leaving]
        };
        self.stat[leaving] = if to_upper {
            VStat::AtUpper
        } else {
            VStat::AtLower
        };
        self.stat[q] = VStat::Basic;
        self.basis[pos] = q;
        self.pivots_since_refresh += 1;
        let spike = std::mem::take(&mut self.spike);
        let updated = self.lu.replace_column(pos, &spike);
        self.spike = spike;
        // A rejected update leaves the factors unusable: rebuild from the
        // (already updated) basis, which also restores exact values.
        updated.is_ok() || self.refactorize().is_ok()
    }

    /// Moves the entering variable across its whole span to the opposite
    /// bound; the basis is unchanged.
    fn apply_bound_flip(&mut self, q: usize, dir: i8, alpha: &[f64]) {
        let d = f64::from(dir);
        let span = self.upper[q] - self.lower[q];
        for (p, &a) in alpha.iter().enumerate() {
            if a != 0.0 {
                let v = self.basis[p];
                self.x[v] -= d * span * a;
            }
        }
        if dir == 1 {
            self.x[q] = self.upper[q];
            self.stat[q] = VStat::AtUpper;
        } else {
            self.x[q] = self.lower[q];
            self.stat[q] = VStat::AtLower;
        }
    }

    /// The simplex pivot loop for one phase. Phase 1 minimises the total
    /// bound violation of the basic variables (big-M-free: costs are ∓1
    /// on violated basics, recomputed every iteration) and returns
    /// `Optimal` as soon as the basis is primal feasible; phase 2 runs
    /// the real objective.
    fn optimize(&mut self, phase1: bool, max_iters: usize, deadline: Option<Instant>) -> LpStatus {
        // After this many degenerate pivots in total, stay on Bland's rule
        // for good — unconditional termination beats pricing quality.
        let bland_forever_after = 1000 + 10 * (self.m + self.n);
        let mut local = 0usize;
        let mut degen_streak = 0usize;
        // Whether the current resting point has been re-verified from
        // freshly recomputed values (cleared by any move).
        let mut certified = false;
        let mut y = std::mem::take(&mut self.y);
        let mut alpha = std::mem::take(&mut self.alpha);
        y.clear();
        y.resize(self.m, 0.0);
        let status = loop {
            if local > max_iters {
                break LpStatus::IterationLimit;
            }
            if local.is_multiple_of(DEADLINE_CHECK_EVERY) {
                if let Some(dl) = deadline {
                    if Instant::now() >= dl {
                        break LpStatus::TimeLimit;
                    }
                }
            }
            // Refactorize when the factor's stability/fill policy asks
            // for it; otherwise refresh the basic values (one FTRAN) on
            // the short cadence that keeps degenerate branching honest,
            // escalating to a refactorization when the measured drift
            // says the factors themselves have degraded.
            if self.lu.should_refactor() || self.lu.updates_since_refactor() >= UPDATES_REFACTOR {
                if self.refactorize().is_err() {
                    break LpStatus::IterationLimit;
                }
            } else if self.pivots_since_refresh >= VALUES_REFRESH
                && self.recompute_basic_values() > DRIFT_REFACTOR_TOL
                && self.refactorize().is_err()
            {
                break LpStatus::IterationLimit;
            }
            let bland =
                degen_streak > DEGEN_STREAK_FOR_BLAND || self.total_degen > bland_forever_after;
            // Simplex multipliers for the phase's cost vector.
            let mut any_violation = false;
            for (yp, &v) in y.iter_mut().zip(&self.basis) {
                *yp = if phase1 {
                    if self.x[v] < self.lower[v] - FEAS_TOL {
                        any_violation = true;
                        -1.0
                    } else if self.x[v] > self.upper[v] + FEAS_TOL {
                        any_violation = true;
                        1.0
                    } else {
                        0.0
                    }
                } else {
                    self.cost[v]
                };
            }
            if phase1 && !any_violation {
                // Terminate only off freshly recomputed basic values: the
                // incremental ones may under-report violations (the break
                // is consumed as a feasibility claim by phase 2). One
                // FTRAN, escalating to a rebuild when the measured drift
                // says the factors themselves have degraded.
                if !certified {
                    certified = true;
                    if self.recompute_basic_values() > DRIFT_REFACTOR_TOL
                        && self.refactorize().is_err()
                    {
                        break LpStatus::IterationLimit;
                    }
                    local += 1;
                    continue;
                }
                break LpStatus::Optimal;
            }
            self.btran(&mut y);
            let Some((q, dir)) = self.price(&y, phase1, bland) else {
                // Same certification as the phase-1 break: refresh the
                // values once and re-price before declaring optimality.
                if !certified {
                    certified = true;
                    if self.recompute_basic_values() > DRIFT_REFACTOR_TOL
                        && self.refactorize().is_err()
                    {
                        break LpStatus::IterationLimit;
                    }
                    local += 1;
                    continue;
                }
                break LpStatus::Optimal;
            };
            self.ftran_col(q, &mut alpha);
            match self.ratio_test(q, dir, &alpha, phase1, bland) {
                Ratio::Unbounded => {
                    // Phase-1 infeasibility is bounded below by zero; an
                    // unbounded ray there is numerical breakage, not a
                    // certificate.
                    break if phase1 {
                        LpStatus::IterationLimit
                    } else {
                        LpStatus::Unbounded
                    };
                }
                Ratio::BoundFlip => {
                    self.apply_bound_flip(q, dir, &alpha);
                    degen_streak = 0;
                    certified = false;
                }
                Ratio::Pivot {
                    pos,
                    theta,
                    to_upper,
                } => {
                    // A tiny blocking pivot on a factor that has absorbed
                    // updates is as likely stale arithmetic as a genuine
                    // degenerate pivot: refactorize and redo the
                    // iteration with exact alphas before committing.
                    if alpha[pos].abs() < SMALL_PIVOT_TOL && self.lu.updates_since_refactor() > 0 {
                        if self.refactorize().is_err() {
                            break LpStatus::IterationLimit;
                        }
                        local += 1;
                        continue;
                    }
                    if theta <= 1e-10 {
                        degen_streak += 1;
                        self.total_degen += 1;
                    } else {
                        degen_streak = 0;
                    }
                    self.devex_update(q, &alpha, pos);
                    if !self.apply_pivot(q, dir, &alpha, pos, theta, to_upper) {
                        break LpStatus::IterationLimit;
                    }
                    certified = false;
                }
            }
            self.iterations += 1;
            local += 1;
        };
        self.y = y;
        self.alpha = alpha;
        status
    }

    /// Prices every reduced cost `d_j = c_j − yᵀA_j` into `dvec` (basics
    /// get 0) off a fresh BTRAN of the phase-2 costs, and reports whether
    /// the basis is dual feasible: every nonbasic `d_j` carries the sign
    /// its resting bound requires, within [`DUAL_FEAS_TOL`]. One BTRAN
    /// plus one pricing sweep — the dual walk runs this once at entry
    /// (its feasibility gate doubles as the seed for the incrementally
    /// maintained reduced costs) and again whenever a terminal verdict
    /// must be re-proved off fresh numbers.
    fn price_duals(&mut self, y: &mut Vec<f64>, dvec: &mut Vec<f64>) -> bool {
        y.clear();
        y.resize(self.m, 0.0);
        for (yp, &v) in y.iter_mut().zip(&self.basis) {
            *yp = self.cost[v];
        }
        self.btran(y);
        let ntotal = self.n + self.m;
        dvec.clear();
        dvec.resize(ntotal, 0.0);
        let mut ok = true;
        for j in 0..ntotal {
            let at_upper = match self.stat[j] {
                VStat::Basic => continue,
                VStat::AtUpper => true,
                VStat::AtLower => false,
            };
            let d = if j < self.n {
                self.cost[j] - self.col_dot(j, y)
            } else {
                -y[j - self.n]
            };
            dvec[j] = d;
            if self.lower[j] == self.upper[j] {
                continue; // fixed columns never re-enter; any sign is fine
            }
            if (at_upper && d > DUAL_FEAS_TOL) || (!at_upper && d < -DUAL_FEAS_TOL) {
                ok = false;
            }
        }
        ok
    }

    /// The dual simplex pivot loop: from a dual-feasible basis whose
    /// basic values violate their bounds (the state a parent's optimal
    /// basis is left in after a child tightens one bound), each iteration
    /// picks the worst-violating basic row, accumulates its pivot row
    /// through the CSR mirror (exactly like the Devex update), and runs a
    /// **bound-flipping dual ratio test**: breakpoints are walked in
    /// ascending `|d_j| / |α_rj|` order with the same EPS tie-tolerancing
    /// as the primal ratio test; a boxed candidate whose whole span
    /// cannot absorb the remaining violation is bound-flipped without a
    /// pivot (the long step), and the first candidate that can cover the
    /// rest enters the basis. Exhausting the breakpoints with violation
    /// left over means the dual is unbounded, i.e. the LP is primal
    /// infeasible — re-proved off a fresh factorization exactly like the
    /// primal phase-1 verdict, since branch-and-bound consumes it as a
    /// proof. Anti-cycling mirrors the primal loop: a degenerate streak
    /// switches row/column ties to Bland's rule (which also disables the
    /// long-step flips), and a persistent stall falls back to the primal
    /// path via [`DualOutcome::Stalled`].
    fn dual_optimize(&mut self, max_iters: usize, deadline: Option<Instant>) -> DualOutcome {
        let mut local = 0usize;
        let mut degen_streak = 0usize;
        // A warm child re-solve should finish in a handful of pivots; a
        // dual walk still violating after O(m + n) of them is either
        // cycling on dual degeneracy or fighting numerics, and the primal
        // phase-1 restart is the cheaper way out. This budget bounds the
        // worst-case overhead of *attempting* the dual path per node.
        let budget = (200 + 4 * (self.m + self.n)).min(max_iters);
        // Whether the impending conclusion rests on freshly recomputed
        // basic values (any move clears it) — both the Feasible and the
        // Infeasible break are consumed as trusted claims by `solve`.
        let mut certified = false;
        let mut y = std::mem::take(&mut self.y);
        let mut alpha = std::mem::take(&mut self.alpha);
        let mut dvec = std::mem::take(&mut self.dvec);
        let mut dupd = std::mem::take(&mut self.dupd);
        // `(ratio, variable, pivot-row entry)` breakpoints of one test.
        let mut cands: Vec<(f64, usize, f64)> = Vec::new();
        // The entry gate doubles as the seed of the incrementally
        // maintained reduced costs: a basis that does not price dual
        // feasible is the primal path's problem.
        if !self.price_duals(&mut y, &mut dvec) {
            self.y = y;
            self.alpha = alpha;
            self.dvec = dvec;
            self.dupd = dupd;
            return DualOutcome::Stalled;
        }
        let outcome = loop {
            if local > budget {
                break DualOutcome::Stalled;
            }
            if local.is_multiple_of(DEADLINE_CHECK_EVERY) {
                if let Some(dl) = deadline {
                    if Instant::now() >= dl {
                        break DualOutcome::Limit(LpStatus::TimeLimit);
                    }
                }
            }
            // Same refactorization / value-refresh policy as the primal,
            // plus a fresh pricing of the incrementally maintained
            // reduced costs whenever the factors are rebuilt (their
            // accumulated float error resets with everything else's).
            if self.lu.should_refactor() || self.lu.updates_since_refactor() >= UPDATES_REFACTOR {
                if self.refactorize().is_err() {
                    break DualOutcome::Limit(LpStatus::IterationLimit);
                }
                self.price_duals(&mut y, &mut dvec);
            } else if self.pivots_since_refresh >= VALUES_REFRESH
                && self.recompute_basic_values() > DRIFT_REFACTOR_TOL
                && self.refactorize().is_err()
            {
                break DualOutcome::Limit(LpStatus::IterationLimit);
            }
            let bland = degen_streak > DUAL_DEGEN_FOR_BLAND;
            if degen_streak > DUAL_DEGEN_STALL {
                // Bland's rule alone should have broken the tie chain by
                // now; hand the basis to the primal path rather than keep
                // grinding degenerate dual pivots.
                break DualOutcome::Stalled;
            }
            // Leaving row: the basic value furthest outside its bounds
            // (the dual analogue of Devex pricing), or the smallest
            // violated variable index under Bland's rule.
            let mut r = usize::MAX;
            let mut worst = FEAS_TOL;
            let mut viol_high = false;
            for (p, &v) in self.basis.iter().enumerate() {
                let below = self.lower[v] - self.x[v];
                let above = self.x[v] - self.upper[v];
                let (viol, high) = if below >= above {
                    (below, false)
                } else {
                    (above, true)
                };
                if viol <= FEAS_TOL {
                    continue;
                }
                let take = if bland {
                    r == usize::MAX || v < self.basis[r]
                } else {
                    viol > worst
                };
                if take {
                    r = p;
                    worst = viol;
                    viol_high = high;
                }
            }
            if r == usize::MAX {
                // Primal feasible. Conclude only off fresh values, like
                // the primal phase-1 break — `solve` skips phase 1 on the
                // strength of this.
                if !certified {
                    certified = true;
                    if self.recompute_basic_values() > DRIFT_REFACTOR_TOL
                        && self.refactorize().is_err()
                    {
                        break DualOutcome::Limit(LpStatus::IterationLimit);
                    }
                    local += 1;
                    continue;
                }
                break DualOutcome::Feasible;
            }
            let leave = self.basis[r];
            // Pivot row ρᵀA (ρ = B⁻ᵀe_r) through the CSR mirror; the
            // reduced costs come from the incrementally maintained
            // `dvec`, so no per-pivot BTRAN of the costs is needed.
            self.rho.iter_mut().for_each(|e| *e = 0.0);
            self.rho[r] = 1.0;
            let mut rho = std::mem::take(&mut self.rho);
            self.btran(&mut rho);
            let mut abar = std::mem::take(&mut self.abar);
            let mut seen = std::mem::take(&mut self.abar_seen);
            let mut touched = std::mem::take(&mut self.touched);
            for (i, &rv) in rho.iter().enumerate() {
                if rv == 0.0 {
                    continue;
                }
                for (j, a) in self.lp.rows_csr.col(i) {
                    if !seen[j] {
                        seen[j] = true;
                        abar[j] = 0.0;
                        touched.push(j);
                    }
                    abar[j] += a * rv;
                }
            }
            // Breakpoints: every nonbasic column whose natural move (up
            // from a lower bound, down from an upper one) pushes row r's
            // value back toward its violated bound, keyed by the dual
            // ratio. The basic value changes by −α_rj per unit of an
            // upward move, so fixing a violation from below wants
            // α_rj < 0 at a lower bound and α_rj > 0 at an upper one
            // (mirrored for a violation from above).
            cands.clear();
            dupd.clear();
            for &j in &touched {
                let a = abar[j];
                let at_upper = match self.stat[j] {
                    VStat::Basic => continue,
                    VStat::AtUpper => true,
                    VStat::AtLower => false,
                };
                if a == 0.0 {
                    continue;
                }
                // Every nonbasic column the pivot row touches needs its
                // reduced cost shifted by the dual step, candidate or
                // not.
                dupd.push((j, a));
                if self.lower[j] == self.upper[j] || a.abs() <= EPS {
                    continue;
                }
                let want_pos = viol_high != at_upper;
                if if want_pos { a <= EPS } else { a >= -EPS } {
                    continue;
                }
                let d = dvec[j];
                let ratio = (if at_upper { -d } else { d }).max(0.0) / a.abs();
                cands.push((ratio, j, a));
            }
            for (i, &rv) in rho.iter().enumerate() {
                // The logical column of row i is the unit vector e_i, so
                // its pivot-row entry is ρ_i and its cost is zero.
                if rv == 0.0 {
                    continue;
                }
                let j = self.n + i;
                let at_upper = match self.stat[j] {
                    VStat::Basic => continue,
                    VStat::AtUpper => true,
                    VStat::AtLower => false,
                };
                dupd.push((j, rv));
                if self.lower[j] == self.upper[j] || rv.abs() <= EPS {
                    continue;
                }
                let want_pos = viol_high != at_upper;
                if if want_pos { rv <= EPS } else { rv >= -EPS } {
                    continue;
                }
                let d = dvec[j];
                let ratio = (if at_upper { -d } else { d }).max(0.0) / rv.abs();
                cands.push((ratio, j, rv));
            }
            for &j in &touched {
                seen[j] = false;
            }
            touched.clear();
            self.abar = abar;
            self.abar_seen = seen;
            self.touched = touched;
            self.rho = rho;
            // Ascending dual ratio, variable index breaking exact ties —
            // deterministic, like every other ordering in this module.
            cands.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            // Bound-flipping walk over the breakpoints, in two passes: a
            // *virtual* walk first decides which prefix of the sorted
            // breakpoints flips and which one enters, and the flips are
            // only applied when an entering pivot actually follows. A
            // flip leaves the flipped column's reduced cost unchanged —
            // it is the entering pivot's dual step (at least as large as
            // every flipped ratio) that moves the reduced costs across
            // zero and re-signs them for the new bound. Flipping without
            // that pivot would leave the basis silently dual infeasible,
            // which is exactly the kind of corruption branch-and-bound
            // later consumes as a wrong infeasibility proof. Under
            // Bland's rule the long step is disabled and the
            // smallest-index column within EPS of the minimum ratio
            // enters directly.
            let mut entering: Option<(usize, f64, f64)> = None;
            let mut flips = 0usize;
            if bland {
                if let Some(first) = cands.first() {
                    let cutoff = first.0 + EPS;
                    entering = cands
                        .iter()
                        .filter(|c| c.0 <= cutoff)
                        .map(|&(ratio, j, a)| (j, a, ratio))
                        .min_by_key(|&(j, ..)| j);
                }
            } else {
                let mut remaining = if viol_high {
                    self.x[leave] - self.upper[leave]
                } else {
                    self.lower[leave] - self.x[leave]
                };
                for &(ratio, j, a) in &cands {
                    let span = self.upper[j] - self.lower[j];
                    // EPS-toleranced like the primal flip tie: a boxed
                    // candidate whose whole span cannot absorb what is
                    // left of the violation is marked to flip, and the
                    // walk moves to the next breakpoint.
                    if span.is_finite() && a.abs() * span < remaining - EPS {
                        remaining -= a.abs() * span;
                        flips += 1;
                        continue;
                    }
                    entering = Some((j, a, ratio));
                    break;
                }
                // Degenerate duals tie many breakpoints at the stopping
                // ratio; among them, the largest pivot-row entry gives
                // both the stablest pivot and the longest primal step.
                // Columns skipped over inside the window keep their
                // (near-zero) reduced costs within tolerance.
                if let Some((_, _, stop_ratio)) = entering {
                    let cutoff = stop_ratio + EPS;
                    entering = cands[flips..]
                        .iter()
                        .take_while(|c| c.0 <= cutoff)
                        .max_by(|a, b| a.2.abs().total_cmp(&b.2.abs()))
                        .map(|&(ratio, j, a)| (j, a, ratio));
                }
            }
            if entering.is_some() {
                for &(_, j, _) in &cands[..flips] {
                    let dir: i8 = if self.stat[j] == VStat::AtUpper {
                        -1
                    } else {
                        1
                    };
                    self.ftran_col(j, &mut alpha);
                    self.apply_bound_flip(j, dir, &alpha);
                    certified = false;
                }
            }
            let delta = if viol_high {
                self.x[leave] - self.upper[leave]
            } else {
                self.lower[leave] - self.x[leave]
            };
            let Some((q, _, entering_ratio)) = entering else {
                if delta <= FEAS_TOL {
                    // Drift guard: the row's stored value no longer
                    // violates; pick the next violated row off fresh
                    // numbers.
                    self.iterations += 1;
                    local += 1;
                    continue;
                }
                // No breakpoint (or none left) can move row r to its
                // bound: the dual is unbounded, so the LP is primal
                // infeasible. Re-prove off a fresh factorization and
                // fresh values before concluding, like every other
                // terminal verdict in this engine.
                if self.lu.updates_since_refactor() > 0 {
                    if self.refactorize().is_err() {
                        break DualOutcome::Limit(LpStatus::IterationLimit);
                    }
                    self.price_duals(&mut y, &mut dvec);
                    certified = true;
                    local += 1;
                    continue;
                }
                if !certified {
                    certified = true;
                    if self.recompute_basic_values() > DRIFT_REFACTOR_TOL
                        && self.refactorize().is_err()
                    {
                        break DualOutcome::Limit(LpStatus::IterationLimit);
                    }
                    self.price_duals(&mut y, &mut dvec);
                    local += 1;
                    continue;
                }
                break DualOutcome::Infeasible;
            };
            self.ftran_col(q, &mut alpha);
            let arq = alpha[r];
            if arq.abs() < SMALL_PIVOT_TOL {
                if self.lu.updates_since_refactor() > 0 {
                    // Stale tiny pivot: refactorize and redo the
                    // iteration with exact alphas, as in the primal loop.
                    if self.refactorize().is_err() {
                        break DualOutcome::Limit(LpStatus::IterationLimit);
                    }
                    local += 1;
                    continue;
                }
                if arq.abs() <= EPS {
                    // Hopeless pivot even on fresh factors; let the
                    // primal path take over.
                    break DualOutcome::Stalled;
                }
            }
            let theta = (delta / arq.abs()).max(0.0);
            // Dual degeneracy is a vanishing *dual ratio* — the pivot
            // leaves the dual objective where it was, which is what lets
            // the walk cycle — not a vanishing primal step (the primal
            // step is `delta / |α|`, strictly positive whenever a pivot
            // is taken at all).
            if entering_ratio <= DUAL_TOL {
                degen_streak += 1;
                self.total_degen += 1;
            } else {
                degen_streak = 0;
            }
            let dir: i8 = if self.stat[q] == VStat::AtUpper {
                -1
            } else {
                1
            };
            // The primal Devex reference weights are deliberately left
            // untouched. Any positive weights are a valid Devex state (a
            // stale weight only costs pricing quality, never
            // correctness), and threading the dual pivots through
            // `devex_update` measurably poisons the downstream primal
            // pricing on the massively degenerate cover probes this
            // engine exists for (~8x more nodes on the 4x4 exact-cover
            // dive when the walk maintained the weights).
            // Dual step length forced by the entering column's reduced
            // cost landing on zero: y' = y + (d_q/α_rq)·ρ, hence
            // d_j' = d_j − (d_q/α_rq)·α_rj for every nonbasic column the
            // pivot row touches, and the leaving variable picks up
            // d' = −d_q/α_rq. Read before the pivot clobbers the state.
            let t = dvec[q] / arq;
            if !self.apply_pivot(q, dir, &alpha, r, theta, viol_high) {
                break DualOutcome::Limit(LpStatus::IterationLimit);
            }
            for &(j, a) in &dupd {
                dvec[j] -= t * a;
            }
            dvec[leave] = -t;
            dvec[q] = 0.0;
            certified = false;
            self.dual_pivots += 1;
            self.iterations += 1;
            local += 1;
        };
        self.y = y;
        self.alpha = alpha;
        self.dvec = dvec;
        self.dupd = dupd;
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(coeffs: &[(usize, f64)], op: ConstraintOp, rhs: f64) -> LpRow {
        LpRow {
            coeffs: coeffs.to_vec(),
            op,
            rhs,
        }
    }

    #[test]
    fn textbook_two_var_max() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 (min form: negate).
        let p = LpProblem {
            objective: vec![-3.0, -5.0],
            rows: vec![
                row(&[(0, 1.0)], ConstraintOp::Leq, 4.0),
                row(&[(1, 2.0)], ConstraintOp::Leq, 12.0),
                row(&[(0, 3.0), (1, 2.0)], ConstraintOp::Leq, 18.0),
            ],
            lower: vec![0.0, 0.0],
            upper: vec![f64::INFINITY, f64::INFINITY],
        };
        let s = solve(&p);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!(
            (s.objective - (-36.0)).abs() < 1e-6,
            "objective {}",
            s.objective
        );
        assert!((s.x[0] - 2.0).abs() < 1e-6 && (s.x[1] - 6.0).abs() < 1e-6);
    }

    #[test]
    fn equality_and_geq_need_phase1() {
        // min x + y s.t. x + y = 10, x >= 3, y >= 2.
        let p = LpProblem {
            objective: vec![1.0, 1.0],
            rows: vec![row(&[(0, 1.0), (1, 1.0)], ConstraintOp::Eq, 10.0)],
            lower: vec![3.0, 2.0],
            upper: vec![f64::INFINITY, f64::INFINITY],
        };
        let s = solve(&p);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.objective - 10.0).abs() < 1e-6);
        assert!((s.x[0] + s.x[1] - 10.0).abs() < 1e-6);
        assert!(s.x[0] >= 3.0 - 1e-9 && s.x[1] >= 2.0 - 1e-9);
    }

    #[test]
    fn infeasible_detected() {
        // x <= 1 and x >= 2.
        let p = LpProblem {
            objective: vec![0.0],
            rows: vec![
                row(&[(0, 1.0)], ConstraintOp::Leq, 1.0),
                row(&[(0, 1.0)], ConstraintOp::Geq, 2.0),
            ],
            lower: vec![0.0],
            upper: vec![f64::INFINITY],
        };
        assert_eq!(solve(&p).status, LpStatus::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        // min -x, x >= 0 unconstrained above.
        let p = LpProblem {
            objective: vec![-1.0],
            rows: vec![],
            lower: vec![0.0],
            upper: vec![f64::INFINITY],
        };
        assert_eq!(solve(&p).status, LpStatus::Unbounded);
    }

    #[test]
    fn upper_bounds_respected() {
        // min -x - y with x <= 2.5, y <= 1.5 via bounds only (pure bound
        // flips, no pivots at all).
        let p = LpProblem {
            objective: vec![-1.0, -1.0],
            rows: vec![],
            lower: vec![0.0, 0.0],
            upper: vec![2.5, 1.5],
        };
        let s = solve(&p);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.x[0] - 2.5).abs() < 1e-6 && (s.x[1] - 1.5).abs() < 1e-6);
    }

    #[test]
    fn shifted_lower_bounds() {
        // min x with x in [-5, 10] and x >= -3 as a row.
        let p = LpProblem {
            objective: vec![1.0],
            rows: vec![row(&[(0, 1.0)], ConstraintOp::Geq, -3.0)],
            lower: vec![-5.0],
            upper: vec![10.0],
        };
        let s = solve(&p);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.x[0] + 3.0).abs() < 1e-6, "x = {}", s.x[0]);
    }

    #[test]
    fn negative_rhs_normalisation() {
        // min y s.t. -x - y <= -4  (i.e. x + y >= 4), x <= 1.
        let p = LpProblem {
            objective: vec![0.0, 1.0],
            rows: vec![row(&[(0, -1.0), (1, -1.0)], ConstraintOp::Leq, -4.0)],
            lower: vec![0.0, 0.0],
            upper: vec![1.0, f64::INFINITY],
        };
        let s = solve(&p);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!(
            (s.objective - 3.0).abs() < 1e-6,
            "objective {}",
            s.objective
        );
    }

    #[test]
    fn redundant_equalities_do_not_break_phase1() {
        // x + y = 2 twice, minimise x.
        let p = LpProblem {
            objective: vec![1.0, 0.0],
            rows: vec![
                row(&[(0, 1.0), (1, 1.0)], ConstraintOp::Eq, 2.0),
                row(&[(0, 1.0), (1, 1.0)], ConstraintOp::Eq, 2.0),
            ],
            lower: vec![0.0, 0.0],
            upper: vec![f64::INFINITY, f64::INFINITY],
        };
        let s = solve(&p);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!(s.objective.abs() < 1e-6);
    }

    #[test]
    fn beales_cycling_example_terminates() {
        // Beale's classic example cycles under naive Dantzig pricing; the
        // degenerate-streak Bland fallback must terminate it at the true
        // optimum.
        let p = LpProblem {
            objective: vec![-0.75, 150.0, -0.02, 6.0],
            rows: vec![
                row(
                    &[(0, 0.25), (1, -60.0), (2, -0.04), (3, 9.0)],
                    ConstraintOp::Leq,
                    0.0,
                ),
                row(
                    &[(0, 0.5), (1, -90.0), (2, -0.02), (3, 3.0)],
                    ConstraintOp::Leq,
                    0.0,
                ),
                row(&[(2, 1.0)], ConstraintOp::Leq, 1.0),
            ],
            lower: vec![0.0; 4],
            upper: vec![f64::INFINITY; 4],
        };
        let s = solve(&p);
        assert_eq!(
            s.status,
            LpStatus::Optimal,
            "Beale's example must terminate"
        );
        assert!(
            (s.objective - (-0.05)).abs() < 1e-6,
            "objective {}",
            s.objective
        );
    }

    #[test]
    fn degenerate_vertex_with_ratio_ties() {
        // Three constraints meet at (1, 1) along with the optimum; every
        // ratio test at the final vertex ties at zero. The solver must
        // not cycle and must report the right point.
        let p = LpProblem {
            objective: vec![-1.0, -1.0],
            rows: vec![
                row(&[(0, 1.0)], ConstraintOp::Leq, 1.0),
                row(&[(1, 1.0)], ConstraintOp::Leq, 1.0),
                row(&[(0, 1.0), (1, 1.0)], ConstraintOp::Leq, 2.0),
                row(&[(0, 2.0), (1, 1.0)], ConstraintOp::Leq, 3.0),
                row(&[(0, 1.0), (1, 2.0)], ConstraintOp::Leq, 3.0),
            ],
            lower: vec![0.0, 0.0],
            upper: vec![f64::INFINITY, f64::INFINITY],
        };
        let s = solve(&p);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!(
            (s.objective - (-2.0)).abs() < 1e-6,
            "objective {}",
            s.objective
        );
        assert!((s.x[0] - 1.0).abs() < 1e-6 && (s.x[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn degenerate_bound_flip_tie_prefers_the_flip() {
        // min −x with x ∈ [0, 1] against the row 1e-6·x ≤ 1e-6·(1 − 1e-10):
        // the blocking ratio (1 − 1e-10) ties with the bound span (1.0)
        // inside EPS, and the blocker's pivot element is a tiny 1e-6. An
        // exact `span <= theta` comparison takes the unstable tiny-alpha
        // pivot and lands at x = 1 − 1e-10; the EPS-toleranced tie must
        // flip x cleanly onto its upper bound instead (the admitted row
        // overshoot, 1e-16, is far inside FEAS_TOL).
        let p = LpProblem {
            objective: vec![-1.0],
            rows: vec![row(&[(0, 1e-6)], ConstraintOp::Leq, 1e-6 * (1.0 - 1e-10))],
            lower: vec![0.0],
            upper: vec![1.0],
        };
        let s = solve(&p);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!(
            (s.x[0] - 1.0).abs() < 1e-12,
            "tie must resolve to a clean bound flip, got x = {:.17}",
            s.x[0]
        );
        assert_eq!(s.iterations, 1, "one flip, no pivots");
    }

    #[test]
    fn expired_deadline_returns_time_limit_not_partial_answer() {
        // The deadline is checked inside the pivot loop: with an already
        // expired deadline the solver must give up with TimeLimit and NaN
        // objective rather than report whatever point it was at.
        let p = LpProblem {
            objective: vec![-3.0, -5.0],
            rows: vec![
                row(&[(0, 1.0)], ConstraintOp::Leq, 4.0),
                row(&[(1, 2.0)], ConstraintOp::Leq, 12.0),
                row(&[(0, 3.0), (1, 2.0)], ConstraintOp::Leq, 18.0),
            ],
            lower: vec![0.0, 0.0],
            upper: vec![f64::INFINITY, f64::INFINITY],
        };
        let past = Instant::now() - std::time::Duration::from_millis(1);
        let s = solve_with_deadline(&p, Some(past));
        assert_eq!(s.status, LpStatus::TimeLimit);
        assert!(s.objective.is_nan(), "no partial objective on TimeLimit");
        assert!(s.x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn fixed_variable_via_equal_bounds() {
        let p = LpProblem {
            objective: vec![1.0, 1.0],
            rows: vec![row(&[(0, 1.0), (1, 1.0)], ConstraintOp::Geq, 5.0)],
            lower: vec![2.0, 0.0],
            upper: vec![2.0, f64::INFINITY],
        };
        let s = solve(&p);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.x[0] - 2.0).abs() < 1e-9);
        assert!((s.x[1] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn empty_domain_is_infeasible() {
        let p = LpProblem {
            objective: vec![1.0],
            rows: vec![],
            lower: vec![2.0],
            upper: vec![1.0],
        };
        assert_eq!(solve(&p).status, LpStatus::Infeasible);
    }

    #[test]
    fn prepared_lp_reused_across_bound_changes() {
        // The branch-and-bound access pattern: one SparseLp, many bound
        // vectors, warm-started from the parent basis.
        let p = LpProblem {
            objective: vec![-1.0, -1.0],
            rows: vec![row(&[(0, 1.0), (1, 1.0)], ConstraintOp::Leq, 3.0)],
            lower: vec![0.0, 0.0],
            upper: vec![2.0, 2.0],
        };
        let prepared = SparseLp::from_problem(&p);
        let mut engine = prepared.engine();
        let (root, basis) = engine.solve(&p.lower, &p.upper, None, None);
        assert_eq!(root.status, LpStatus::Optimal);
        assert!((root.objective + 3.0).abs() < 1e-6);
        let basis = basis.expect("optimal solve returns a basis");
        // Child node: x <= 1, warm-started.
        let (child, _) = engine.solve(&[0.0, 0.0], &[1.0, 2.0], None, Some(&basis));
        assert_eq!(child.status, LpStatus::Optimal);
        assert!((child.objective + 3.0).abs() < 1e-6);
        // Child node: x and y fixed to 2 makes the row infeasible.
        let (infeasible, none) = engine.solve(&[2.0, 2.0], &[2.0, 2.0], None, Some(&basis));
        assert_eq!(infeasible.status, LpStatus::Infeasible);
        assert!(none.is_none(), "failed solves return no basis");
        // A fresh engine handed the root basis installs it and confirms
        // optimality without a pivot.
        let (installed, _) = prepared
            .engine()
            .solve(&p.lower, &p.upper, None, Some(&basis));
        assert_eq!(installed.start, WarmStart::Installed);
        assert_eq!(installed.iterations, 0, "the installed basis is optimal");
        assert!((installed.objective + 3.0).abs() < 1e-6);
    }

    #[test]
    fn warm_resolve_after_bound_tightening_takes_the_dual_path() {
        // max x + y over x + y <= 3, x, y in [0, 2]: the optimal basis has
        // the row's logical nonbasic and one structural basic. Tightening
        // a bound leaves the basis dual feasible but primal infeasible —
        // exactly the state the dual simplex exists for.
        let p = LpProblem {
            objective: vec![-1.0, -1.0],
            rows: vec![row(&[(0, 1.0), (1, 1.0)], ConstraintOp::Leq, 3.0)],
            lower: vec![0.0, 0.0],
            upper: vec![2.0, 2.0],
        };
        let prepared = SparseLp::from_problem(&p);
        let mut engine = prepared.engine();
        let (root, basis) = engine.solve(&p.lower, &p.upper, None, None);
        assert_eq!(root.status, LpStatus::Optimal);
        assert_eq!(root.start, WarmStart::Cold);
        assert_eq!(engine.engine_stats(), EngineStats::default());
        let basis = basis.unwrap();
        // Child: y <= 0.5 forces the basic point off the old vertex.
        let (child, _) = engine.solve(&[0.0, 0.0], &[2.0, 0.5], None, Some(&basis));
        assert_eq!(child.status, LpStatus::Optimal);
        assert!((child.objective + 2.5).abs() < 1e-6, "{}", child.objective);
        assert_eq!(child.start, WarmStart::Reused);
        let stats = engine.engine_stats();
        assert_eq!(stats.warm_resolves, 1);
        assert_eq!(stats.cold_restarts, 0);
        assert!(
            stats.dual_pivots > 0,
            "the warm re-solve must go through the dual simplex"
        );
    }

    #[test]
    fn rejected_warm_basis_is_counted_not_silent() {
        let p = LpProblem {
            objective: vec![-1.0, -1.0],
            rows: vec![row(&[(0, 1.0), (1, 1.0)], ConstraintOp::Leq, 3.0)],
            lower: vec![0.0, 0.0],
            upper: vec![2.0, 2.0],
        };
        let prepared = SparseLp::from_problem(&p);
        let mut engine = prepared.engine();
        // A structurally bogus snapshot (basic variable out of range, as
        // a snapshot from a different LP would be) must be rejected,
        // counted, and reported — and the solve must still answer
        // correctly from the cold slack basis.
        let bogus = Basis {
            basis: vec![7],
            at_upper: vec![false; 3],
        };
        let (sol, _) = engine.solve(&p.lower, &p.upper, None, Some(&bogus));
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective + 3.0).abs() < 1e-6);
        assert_eq!(sol.start, WarmStart::Rejected);
        let stats = engine.engine_stats();
        assert_eq!(stats.cold_restarts, 1);
        assert_eq!(stats.warm_resolves, 0);
    }

    #[test]
    fn dual_infeasible_child_agrees_with_cold_solve() {
        // Fixing both variables above what the row allows: the dual walk
        // must prove infeasibility (no eligible entering column), and the
        // verdict must match a cold phase-1 proof.
        let p = LpProblem {
            objective: vec![1.0, 1.0],
            rows: vec![row(&[(0, 1.0), (1, 1.0)], ConstraintOp::Leq, 3.0)],
            lower: vec![0.0, 0.0],
            upper: vec![2.0, 2.0],
        };
        let prepared = SparseLp::from_problem(&p);
        let mut engine = prepared.engine();
        let (root, basis) = engine.solve(&p.lower, &p.upper, None, None);
        assert_eq!(root.status, LpStatus::Optimal);
        let basis = basis.unwrap();
        let (warm, none) = engine.solve(&[2.0, 2.0], &[2.0, 2.0], None, Some(&basis));
        assert_eq!(warm.status, LpStatus::Infeasible);
        assert!(none.is_none());
        let cold = prepared.solve(&[2.0, 2.0], &[2.0, 2.0], None);
        assert_eq!(cold.status, LpStatus::Infeasible);
    }

    #[test]
    fn warm_start_agrees_with_cold_start() {
        // Same LP solved cold and warm (from a sibling's basis) must land
        // on the same objective.
        let p = LpProblem {
            objective: vec![1.0, -2.0, 3.0, -1.0],
            rows: vec![
                row(&[(0, 1.0), (1, 1.0), (2, 1.0)], ConstraintOp::Leq, 6.0),
                row(&[(1, 1.0), (3, 2.0)], ConstraintOp::Geq, 2.0),
                row(&[(0, 1.0), (2, -1.0), (3, 1.0)], ConstraintOp::Eq, 1.0),
            ],
            lower: vec![0.0; 4],
            upper: vec![4.0, 4.0, 4.0, 4.0],
        };
        let prepared = SparseLp::from_problem(&p);
        let mut engine = prepared.engine();
        let (cold, basis) = engine.solve(&p.lower, &p.upper, None, None);
        assert_eq!(cold.status, LpStatus::Optimal);
        let basis = basis.unwrap();
        // Tighten a bound, resolve warm, then relax back and check
        // agreement with the cold solve.
        let (_, tight_basis) = engine.solve(&[0.0, 0.0, 0.0, 1.0], &p.upper, None, Some(&basis));
        let (warm, _) = engine.solve(
            &p.lower,
            &p.upper,
            None,
            tight_basis.as_ref().or(Some(&basis)),
        );
        assert_eq!(warm.status, LpStatus::Optimal);
        assert!(
            (warm.objective - cold.objective).abs() < 1e-6,
            "warm {} vs cold {}",
            warm.objective,
            cold.objective
        );
    }

    #[test]
    fn long_pivot_chains_survive_refactorization() {
        // A staircase LP needing enough pivots that the LU factors are
        // Forrest–Tomlin-updated past the freshness cadence and rebuilt
        // mid-solve: min Σ x_i subject to x_0 >= 1, x_i − x_{i−1} >= 1.
        let n = 160;
        let mut rows = vec![row(&[(0, 1.0)], ConstraintOp::Geq, 1.0)];
        for i in 1..n {
            rows.push(row(&[(i, 1.0), (i - 1, -1.0)], ConstraintOp::Geq, 1.0));
        }
        let p = LpProblem {
            objective: vec![1.0; n],
            rows,
            lower: vec![0.0; n],
            upper: vec![f64::INFINITY; n],
        };
        let s = solve(&p);
        assert_eq!(s.status, LpStatus::Optimal);
        let expect: f64 = (1..=n).map(|i| i as f64).sum();
        assert!(
            (s.objective - expect).abs() < 1e-5,
            "objective {} vs {expect}",
            s.objective
        );
        for i in 0..n {
            assert!((s.x[i] - (i + 1) as f64).abs() < 1e-5);
        }
    }

    #[test]
    fn agrees_with_dense_oracle_on_a_mixed_model() {
        // A structured mixed Leq/Geq/Eq model with bounded and unbounded
        // variables; the dense tableau oracle must land on the same
        // objective.
        let n = 12;
        let mut rows = Vec::new();
        for i in 0..n {
            let j = (i + 1) % n;
            rows.push(row(
                &[(i, 1.0), (j, if i % 2 == 0 { 2.0 } else { -1.0 })],
                match i % 3 {
                    0 => ConstraintOp::Leq,
                    1 => ConstraintOp::Geq,
                    _ => ConstraintOp::Eq,
                },
                (i % 5) as f64 - 1.0,
            ));
        }
        let objective: Vec<f64> = (0..n).map(|i| ((i * 7) % 5) as f64 - 2.0).collect();
        let lower: Vec<f64> = (0..n)
            .map(|i| if i % 4 == 0 { -3.0 } else { 0.0 })
            .collect();
        let upper: Vec<f64> = (0..n).map(|i| 2.0 + (i % 3) as f64).collect();
        let p = LpProblem {
            objective,
            rows,
            lower,
            upper,
        };
        let sparse = solve(&p);
        let dense = crate::dense::solve(&p);
        assert_eq!(sparse.status, dense.status);
        if sparse.status == LpStatus::Optimal {
            assert!(
                (sparse.objective - dense.objective).abs() < 1e-6,
                "sparse {} vs dense {}",
                sparse.objective,
                dense.objective
            );
        }
    }
}
