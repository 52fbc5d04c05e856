//! Exact-arithmetic re-verification of solver certificates.
//!
//! Floating-point simplex verdicts are *claims*; this module turns them
//! into *checked claims*. [`MilpSolver`](crate::MilpSolver) (with
//! [`MilpOptions::certificate`](crate::MilpOptions) enabled) and
//! [`SimplexEngine`](crate::simplex::SimplexEngine) (via
//! `set_certify`) emit proof artifacts alongside their answers:
//!
//! * **LP optimal** — the final simplex multipliers. The checker computes
//!   the Lagrangian bound `L(y) = y·b + Σⱼ min over [lⱼ,uⱼ] of dⱼxⱼ`
//!   (with `dⱼ = cⱼ − y·Aⱼ`) in exact rational arithmetic; `L(y)` is a
//!   valid lower bound on the LP optimum for *any* `y`, so
//!   `L(y) ≥ c·x − ε` together with exact primal feasibility of `x`
//!   certifies optimality without trusting the basis.
//! * **LP infeasible** — a Farkas ray `y` (the phase-1 multipliers). The
//!   checker verifies `y·b > max over the bound box of Σⱼ (y·Aⱼ)xⱼ`
//!   exactly: no point in the box can satisfy all rows at once.
//! * **MILP verdicts** — the branching tree log: every leaf carries an
//!   exact certificate (a Farkas ray, a dual bound dominating the final
//!   incumbent, an integral LP optimum, or an empty variable domain),
//!   every internal node records its integer split, and the checker
//!   replays the tree from the root to confirm the leaves partition the
//!   search box. The incumbent is re-checked against the model exactly.
//!
//! The tree runs on the caller's model with no bound propagation, so every
//! leaf box is root bounds plus branch decisions, every leaf's multipliers
//! index that model's rows, and a passing certificate is a complete proof
//! about the model it is checked against.
//! All arithmetic runs on [`BigRat`] — every finite `f64` converts
//! losslessly — so a passing certificate is a machine-checked proof up to
//! the explicitly declared tolerances (`1e-6`, scaled by row norms).

use crate::bigrat::BigRat;
use crate::model::{ConstraintOp, Model, Sense, VarKind};
use crate::simplex::LpCertificate;
use crate::solution::{MilpOutcome, SolveStatus};
use std::fmt;

/// Base feasibility/gap tolerance; row checks scale it by `1 + Σ|aᵢⱼ|`.
const TOL: f64 = 1e-6;

// ---------------------------------------------------------------------------
// Certificate data
// ---------------------------------------------------------------------------

/// The proof artifact attached to one branch-and-bound leaf.
#[derive(Debug, Clone, PartialEq)]
pub enum LeafCert {
    /// The node's variable box is empty: `lower[var] > upper[var]`.
    EmptyBox {
        /// The variable with an empty domain.
        var: usize,
    },
    /// The node's LP relaxation is infeasible; `farkas` are row
    /// multipliers whose aggregated row no point in the box satisfies.
    Infeasible {
        /// Farkas row multipliers (one per model constraint).
        farkas: Vec<f64>,
    },
    /// The node was pruned: the dual bound from `duals` dominates the
    /// final incumbent.
    Bound {
        /// Simplex multipliers of the node's optimal LP basis.
        duals: Vec<f64>,
        /// The solver's floating-point node bound. The checker recomputes
        /// the bound exactly from `duals` and requires the two to agree
        /// (strong duality at the leaf's basis), so neither field can be
        /// corrupted independently.
        bound: f64,
    },
    /// The node's LP optimum was integral (an incumbent candidate).
    Integral {
        /// The integral LP optimum (integer variables rounded).
        x: Vec<f64>,
        /// Simplex multipliers of the node's optimal basis; they bound
        /// the whole subtree at `x`'s objective.
        duals: Vec<f64>,
        /// Internal minimisation-form objective of `x`.
        objective: f64,
    },
}

/// One node of the recorded branching tree.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeCert {
    /// `(parent index, is_up_child)`; `None` exactly for the root. A
    /// parent always precedes its children in the tree vector.
    pub parent: Option<(usize, bool)>,
    /// `(variable, floor)` when the node branched: the down child gets
    /// `upper[var] = floor`, the up child `lower[var] = floor + 1`.
    pub branch: Option<(usize, f64)>,
    /// The leaf proof when the node was not expanded further.
    pub leaf: Option<LeafCert>,
}

/// Proof log of one branch-and-bound run, attached to
/// [`MilpOutcome::certificate`] when [`crate::MilpOptions::certificate`]
/// is enabled.
#[derive(Debug, Clone, PartialEq)]
pub struct MilpCertificate {
    /// The branching tree; index 0 is the root.
    pub tree: Vec<NodeCert>,
    /// The final incumbent.
    pub incumbent: Option<Vec<f64>>,
    /// `true` when the search exhausted the tree (no node, time or
    /// iteration limit fired); only complete trees prove
    /// optimality/infeasibility.
    pub complete: bool,
}

/// What a successful [`certify_outcome`] run verified.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CertifySummary {
    /// Branching tree nodes audited.
    pub nodes: usize,
    /// Leaf certificates re-proved in exact arithmetic.
    pub leaves: usize,
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why a certificate was rejected, naming the violated row, bound or leaf.
#[derive(Debug, Clone, PartialEq)]
pub enum CertifyError {
    /// The outcome carries no certificate to check.
    MissingCertificate,
    /// The certificate's shape does not match its claim (wrong vector
    /// lengths, missing incumbent, …).
    Malformed {
        /// What is inconsistent.
        detail: String,
    },
    /// A certificate number is NaN or infinite.
    BadValue {
        /// Which quantity.
        what: String,
    },
    /// A claimed-feasible point violates a constraint row.
    RowViolation {
        /// Tree node of the offending point (`None`: the incumbent).
        leaf: Option<usize>,
        /// Violated row index.
        row: usize,
        /// Exact activity vs right-hand side.
        detail: String,
    },
    /// A claimed-feasible point violates a variable bound.
    BoundViolation {
        /// Tree node (`None`: the incumbent).
        leaf: Option<usize>,
        /// Violated variable index.
        var: usize,
        /// Exact value vs bound.
        detail: String,
    },
    /// An integer variable holds a fractional value.
    NotIntegral {
        /// Tree node (`None`: the incumbent).
        leaf: Option<usize>,
        /// The variable.
        var: usize,
        /// Its fractional value.
        value: f64,
    },
    /// A dual/Farkas multiplier has the wrong sign for its row operator.
    DualSign {
        /// Tree node (`None`: a standalone LP certificate).
        leaf: Option<usize>,
        /// The row whose multiplier is mis-signed.
        row: usize,
    },
    /// A dual/Farkas aggregation needs a bound the variable does not
    /// have (the term is infinite).
    UnboundedTerm {
        /// Tree node (`None`: a standalone LP certificate).
        leaf: Option<usize>,
        /// The variable with the missing bound.
        var: usize,
    },
    /// A leaf's exact dual bound fails to dominate the incumbent.
    WeakBound {
        /// The offending tree node.
        leaf: usize,
        /// Exact bound vs required threshold.
        detail: String,
    },
    /// A Farkas ray fails to prove infeasibility (`y·b` does not exceed
    /// the box's maximum activity).
    FarkasGap {
        /// Tree node (`None`: a standalone LP certificate).
        leaf: Option<usize>,
        /// Exact `y·b` vs maximum activity.
        detail: String,
    },
    /// A claimed objective value differs from its exact recomputation.
    ObjectiveMismatch {
        /// Tree node (`None`: the incumbent).
        leaf: Option<usize>,
        /// Exact value vs claim.
        detail: String,
    },
    /// The branching tree is structurally invalid (missing child,
    /// fractional split, branch on a continuous variable, …).
    TreeMalformed {
        /// The offending node.
        node: usize,
        /// What is wrong.
        detail: String,
    },
    /// The certificate's incumbent differs from the reported solution.
    IncumbentMismatch {
        /// First disagreeing variable.
        var: usize,
        /// Certificate vs reported value.
        detail: String,
    },
    /// Optimality/infeasibility is claimed but the tree is incomplete
    /// (a node, time or iteration limit fired).
    Incomplete,
}

impl fmt::Display for CertifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn at(leaf: &Option<usize>) -> String {
            leaf.map_or_else(String::new, |l| format!(" at tree node {l}"))
        }
        match self {
            CertifyError::MissingCertificate => write!(f, "outcome carries no certificate"),
            CertifyError::Malformed { detail } => write!(f, "malformed certificate: {detail}"),
            CertifyError::BadValue { what } => write!(f, "non-finite certificate value: {what}"),
            CertifyError::RowViolation { leaf, row, detail } => {
                write!(f, "row {row} violated{}: {detail}", at(leaf))
            }
            CertifyError::BoundViolation { leaf, var, detail } => {
                write!(f, "bound of variable {var} violated{}: {detail}", at(leaf))
            }
            CertifyError::NotIntegral { leaf, var, value } => {
                write!(
                    f,
                    "integer variable {var} holds fractional value {value}{}",
                    at(leaf)
                )
            }
            CertifyError::DualSign { leaf, row } => {
                write!(
                    f,
                    "dual multiplier of row {row} has the wrong sign{}",
                    at(leaf)
                )
            }
            CertifyError::UnboundedTerm { leaf, var } => {
                write!(
                    f,
                    "dual aggregation over variable {var} is unbounded{}",
                    at(leaf)
                )
            }
            CertifyError::WeakBound { leaf, detail } => {
                write!(f, "dual bound at tree node {leaf} is too weak: {detail}")
            }
            CertifyError::FarkasGap { leaf, detail } => {
                write!(f, "Farkas ray proves nothing{}: {detail}", at(leaf))
            }
            CertifyError::ObjectiveMismatch { leaf, detail } => {
                write!(f, "objective mismatch{}: {detail}", at(leaf))
            }
            CertifyError::TreeMalformed { node, detail } => {
                write!(f, "branching tree invalid at node {node}: {detail}")
            }
            CertifyError::IncumbentMismatch { var, detail } => {
                write!(f, "incumbent disagrees at variable {var}: {detail}")
            }
            CertifyError::Incomplete => {
                write!(f, "terminal verdict claimed on an incomplete tree")
            }
        }
    }
}

impl std::error::Error for CertifyError {}

// ---------------------------------------------------------------------------
// Rational view of a model
// ---------------------------------------------------------------------------

/// One exact constraint row: sparse coefficients, operator, right-hand side.
type RatRow = (Vec<(usize, BigRat)>, ConstraintOp, BigRat);

/// A model lowered to exact rationals: rows, internal minimisation-form
/// objective, and integrality flags.
struct RatModel {
    rows: Vec<RatRow>,
    /// Per-row `1 + Σ|aᵢⱼ|`, the row-norm scale for feasibility checks.
    row_scale: Vec<BigRat>,
    /// Internal minimisation-form structural costs (`sense`-signed).
    cost: Vec<BigRat>,
    n: usize,
    is_int: Vec<bool>,
    integral_objective: bool,
}

fn rat(v: f64, what: impl Fn() -> String) -> Result<BigRat, CertifyError> {
    BigRat::from_f64(v).ok_or_else(|| CertifyError::BadValue { what: what() })
}

impl RatModel {
    fn build(model: &Model) -> Result<Self, CertifyError> {
        let n = model.var_count();
        let sign = match model.sense() {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        };
        let mut cost = vec![BigRat::zero(); n];
        for (v, c) in model.objective().terms() {
            cost[v.index()] = rat(sign * c, || format!("objective coefficient of {v}"))?;
        }
        let mut rows = Vec::with_capacity(model.constraint_count());
        let mut row_scale = Vec::with_capacity(model.constraint_count());
        for (i, c) in model.constraints().iter().enumerate() {
            let mut terms = Vec::new();
            let mut scale = BigRat::one();
            for (v, a) in c.expr.terms() {
                let a = rat(a, || format!("row {i} coefficient of {v}"))?;
                scale = &scale + &a.abs();
                terms.push((v.index(), a));
            }
            rows.push((terms, c.op, rat(c.rhs, || format!("row {i} rhs"))?));
            row_scale.push(scale);
        }
        let is_int = (0..n)
            .map(|j| {
                matches!(
                    model.var_kind(crate::expr::VarId(j)),
                    VarKind::Integer | VarKind::Binary
                )
            })
            .collect();
        Ok(RatModel {
            rows,
            row_scale,
            cost,
            n,
            is_int,
            integral_objective: model.objective_is_integral(),
        })
    }

    /// Aggregated structural coefficients `y·Aⱼ` for row multipliers `y`,
    /// plus the rationalised multipliers themselves.
    fn aggregate(
        &self,
        mult: &[f64],
        leaf: Option<usize>,
    ) -> Result<(Vec<BigRat>, Vec<BigRat>), CertifyError> {
        if mult.len() != self.rows.len() {
            return Err(CertifyError::Malformed {
                detail: format!(
                    "multiplier vector has {} entries for {} rows",
                    mult.len(),
                    self.rows.len()
                ),
            });
        }
        let ys = mult
            .iter()
            .enumerate()
            .map(|(i, &y)| rat(y, || format!("multiplier of row {i} (leaf {leaf:?})")))
            .collect::<Result<Vec<_>, _>>()?;
        let mut agg = vec![BigRat::zero(); self.n];
        for ((terms, _, _), y) in self.rows.iter().zip(&ys) {
            if y.is_zero() {
                continue;
            }
            for (j, a) in terms {
                agg[*j] = &agg[*j] + &(y * a);
            }
        }
        Ok((ys, agg))
    }

    /// Checks the row-operator sign conditions that make slack terms of a
    /// dual aggregation vanish: `y ≤ 0` on `≤` rows, `y ≥ 0` on `≥` rows.
    fn check_signs(&self, ys: &[BigRat], leaf: Option<usize>) -> Result<(), CertifyError> {
        for (i, ((_, op, _), y)) in self.rows.iter().zip(ys).enumerate() {
            let bad = match op {
                ConstraintOp::Leq => y.is_positive(),
                ConstraintOp::Geq => y.is_negative(),
                ConstraintOp::Eq => false,
            };
            if bad {
                return Err(CertifyError::DualSign { leaf, row: i });
            }
        }
        Ok(())
    }

    /// The exact Lagrangian bound `L(y)` of the internal minimisation LP
    /// under box `[lower, upper]` — a valid lower bound for any sign-valid
    /// `y`.
    fn dual_bound(
        &self,
        lower: &[f64],
        upper: &[f64],
        duals: &[f64],
        leaf: Option<usize>,
    ) -> Result<BigRat, CertifyError> {
        let (ys, agg) = self.aggregate(duals, leaf)?;
        self.check_signs(&ys, leaf)?;
        let mut acc = BigRat::zero();
        for ((_, _, rhs), y) in self.rows.iter().zip(&ys) {
            acc = &acc + &(y * rhs);
        }
        for j in 0..self.n {
            let d = &self.cost[j] - &agg[j];
            if d.is_positive() {
                if !lower[j].is_finite() {
                    return Err(CertifyError::UnboundedTerm { leaf, var: j });
                }
                acc = &acc + &(&d * &rat(lower[j], || format!("lower bound of {j}"))?);
            } else if d.is_negative() {
                if !upper[j].is_finite() {
                    return Err(CertifyError::UnboundedTerm { leaf, var: j });
                }
                acc = &acc + &(&d * &rat(upper[j], || format!("upper bound of {j}"))?);
            }
        }
        Ok(acc)
    }

    /// Verifies that `farkas` proves the box `[lower, upper]` admits no
    /// point satisfying all rows: `y·b > max Σⱼ (y·Aⱼ)xⱼ` exactly.
    fn farkas_check(
        &self,
        lower: &[f64],
        upper: &[f64],
        farkas: &[f64],
        leaf: Option<usize>,
    ) -> Result<(), CertifyError> {
        let (ys, agg) = self.aggregate(farkas, leaf)?;
        self.check_signs(&ys, leaf)?;
        let mut lhs = BigRat::zero();
        for ((_, _, rhs), y) in self.rows.iter().zip(&ys) {
            lhs = &lhs + &(y * rhs);
        }
        let mut max_act = BigRat::zero();
        for (j, a) in agg.iter().enumerate() {
            if a.is_positive() {
                if !upper[j].is_finite() {
                    return Err(CertifyError::UnboundedTerm { leaf, var: j });
                }
                max_act = &max_act + &(a * &rat(upper[j], || format!("upper bound of {j}"))?);
            } else if a.is_negative() {
                if !lower[j].is_finite() {
                    return Err(CertifyError::UnboundedTerm { leaf, var: j });
                }
                max_act = &max_act + &(a * &rat(lower[j], || format!("lower bound of {j}"))?);
            }
        }
        if lhs > max_act {
            Ok(())
        } else {
            Err(CertifyError::FarkasGap {
                leaf,
                detail: format!(
                    "y·b = {} does not exceed the box's maximum activity {}",
                    lhs.to_f64(),
                    max_act.to_f64()
                ),
            })
        }
    }

    /// Exact primal feasibility of `x` under box `[lower, upper]`:
    /// bounds within `TOL`, rows within `TOL·(1 + Σ|aᵢⱼ|)`, and (when
    /// `ints` is true) exact integrality of integer variables.
    fn primal_check(
        &self,
        lower: &[f64],
        upper: &[f64],
        x: &[f64],
        ints: bool,
        leaf: Option<usize>,
    ) -> Result<(), CertifyError> {
        if x.len() != self.n {
            return Err(CertifyError::Malformed {
                detail: format!("point has {} entries for {} variables", x.len(), self.n),
            });
        }
        let tol = rat(TOL, || "tolerance".to_string())?;
        let xs = x
            .iter()
            .enumerate()
            .map(|(j, &v)| rat(v, || format!("value of variable {j}")))
            .collect::<Result<Vec<_>, _>>()?;
        for (j, xv) in xs.iter().enumerate() {
            if lower[j].is_finite() {
                let l = rat(lower[j], || format!("lower bound of {j}"))?;
                if *xv < &l - &tol {
                    return Err(CertifyError::BoundViolation {
                        leaf,
                        var: j,
                        detail: format!("{} < lower bound {}", xv.to_f64(), lower[j]),
                    });
                }
            }
            if upper[j].is_finite() {
                let u = rat(upper[j], || format!("upper bound of {j}"))?;
                if *xv > &u + &tol {
                    return Err(CertifyError::BoundViolation {
                        leaf,
                        var: j,
                        detail: format!("{} > upper bound {}", xv.to_f64(), upper[j]),
                    });
                }
            }
            if ints && self.is_int[j] && !xv.is_integer() {
                return Err(CertifyError::NotIntegral {
                    leaf,
                    var: j,
                    value: x[j],
                });
            }
        }
        for (i, (terms, op, rhs)) in self.rows.iter().enumerate() {
            let mut act = BigRat::zero();
            for (j, a) in terms {
                act = &act + &(a * &xs[*j]);
            }
            let rtol = &tol * &self.row_scale[i];
            let ok = match op {
                ConstraintOp::Leq => act <= rhs + &rtol,
                ConstraintOp::Geq => act >= rhs - &rtol,
                ConstraintOp::Eq => (&act - rhs).abs() <= rtol,
            };
            if !ok {
                return Err(CertifyError::RowViolation {
                    leaf,
                    row: i,
                    detail: format!("activity {} vs rhs {} ({op:?})", act.to_f64(), rhs.to_f64()),
                });
            }
        }
        Ok(())
    }

    /// Exact internal minimisation-form objective of `x` (no constant).
    fn internal_objective(&self, x: &[f64]) -> Result<BigRat, CertifyError> {
        let mut acc = BigRat::zero();
        for (j, c) in self.cost.iter().enumerate() {
            if !c.is_zero() {
                acc = &acc + &(c * &rat(x[j], || format!("value of variable {j}"))?);
            }
        }
        Ok(acc)
    }
}

// ---------------------------------------------------------------------------
// LP-level certification
// ---------------------------------------------------------------------------

/// Re-verifies a single-LP certificate against `model` under structural
/// bounds `[lower, upper]` (the bounds passed to the simplex solve, e.g.
/// from [`Model::to_sparse_lp`]).
///
/// The `objective` in an [`LpCertificate::Optimal`] is in internal
/// minimisation form (sense-signed, no constant), matching
/// [`crate::simplex::LpSolution::objective`].
///
/// # Errors
///
/// Returns the first [`CertifyError`] encountered; `Ok(())` means the
/// certificate is an exact proof (up to the documented tolerances).
pub fn certify_lp(
    model: &Model,
    lower: &[f64],
    upper: &[f64],
    cert: &LpCertificate,
) -> Result<(), CertifyError> {
    let rm = RatModel::build(model)?;
    if lower.len() != rm.n || upper.len() != rm.n {
        return Err(CertifyError::Malformed {
            detail: "bound vectors do not match the variable count".to_string(),
        });
    }
    match cert {
        LpCertificate::Optimal {
            duals,
            x,
            objective,
        } => {
            rm.primal_check(lower, upper, x, false, None)?;
            let obj = rm.internal_objective(x)?;
            let claimed = rat(*objective, || "claimed objective".to_string())?;
            let otol = {
                let mut scale = BigRat::one();
                for c in &rm.cost {
                    scale = &scale + &c.abs();
                }
                &rat(TOL, || "tolerance".to_string())? * &scale
            };
            if (&obj - &claimed).abs() > otol {
                return Err(CertifyError::ObjectiveMismatch {
                    leaf: None,
                    detail: format!("exact c·x = {} vs claimed {}", obj.to_f64(), objective),
                });
            }
            let bound = rm.dual_bound(lower, upper, duals, None)?;
            if bound < &obj - &otol {
                return Err(CertifyError::WeakBound {
                    leaf: 0,
                    detail: format!(
                        "L(y) = {} below primal value {}",
                        bound.to_f64(),
                        obj.to_f64()
                    ),
                });
            }
            Ok(())
        }
        LpCertificate::Infeasible { farkas } => rm.farkas_check(lower, upper, farkas, None),
    }
}

// ---------------------------------------------------------------------------
// MILP certification
// ---------------------------------------------------------------------------

/// Re-verifies a branch-and-bound outcome's certificate against `model`,
/// the model that was solved, in exact rational arithmetic.
///
/// What is proved depends on [`MilpOutcome::status`]:
///
/// * [`SolveStatus::Optimal`] — the incumbent is feasible in the model
///   with the claimed objective, and the complete branching tree shows no
///   better solution exists.
/// * [`SolveStatus::Infeasible`] — every leaf of the complete tree is an
///   exact infeasibility proof.
/// * [`SolveStatus::Feasible`] — the incumbent is feasible with the
///   claimed objective (no optimality claim to check).
///
/// # Errors
///
/// Returns the first [`CertifyError`] encountered, naming the violated
/// row, bound or leaf.
pub fn certify_outcome(
    model: &Model,
    outcome: &MilpOutcome,
) -> Result<CertifySummary, CertifyError> {
    let cert = outcome
        .certificate
        .as_ref()
        .ok_or(CertifyError::MissingCertificate)?;
    if !matches!(
        outcome.status,
        SolveStatus::Optimal | SolveStatus::Feasible | SolveStatus::Infeasible
    ) {
        return Err(CertifyError::Malformed {
            detail: format!("status {:?} has no certifiable claim", outcome.status),
        });
    }
    let mut summary = CertifySummary {
        nodes: cert.tree.len(),
        ..CertifySummary::default()
    };
    let rm = RatModel::build(model)?;
    let (base_lower, base_upper) = model_bounds(model);

    // Incumbent: the certificate's point must be the reported solution,
    // feasible with the reported objective — exactly.
    let mut incumbent_internal: Option<BigRat> = None;
    match (&outcome.best, &cert.incumbent) {
        (Some(best), Some(x)) => {
            rm.primal_check(&base_lower, &base_upper, x, true, None)?;
            incumbent_internal = Some(rm.internal_objective(x)?);
            if best.values().len() != x.len() {
                return Err(CertifyError::Malformed {
                    detail: "reported solution length mismatch".to_string(),
                });
            }
            if let Some(v) = (0..x.len()).find(|&v| x[v] != best.values()[v]) {
                return Err(CertifyError::IncumbentMismatch {
                    var: v,
                    detail: format!("certificate {} vs reported {}", x[v], best.values()[v]),
                });
            }
            // Exact objective, constant included, vs the reported value.
            let mut obj = rat(model.objective().constant(), || {
                "objective constant".to_string()
            })?;
            let mut scale = BigRat::one();
            for (v, c) in model.objective().terms() {
                let c = rat(c, || format!("objective coefficient of {v}"))?;
                scale = &scale + &c.abs();
                obj = &obj + &(&c * &rat(x[v.index()], || format!("value of {v}"))?);
            }
            let otol = &rat(TOL, || "tolerance".to_string())? * &scale;
            let claimed = rat(best.objective, || "reported objective".to_string())?;
            if (&obj - &claimed).abs() > otol {
                return Err(CertifyError::ObjectiveMismatch {
                    leaf: None,
                    detail: format!(
                        "exact objective {} vs reported {}",
                        obj.to_f64(),
                        best.objective
                    ),
                });
            }
        }
        (None, None) => {}
        _ => {
            return Err(CertifyError::Malformed {
                detail: "incumbent present in exactly one of outcome and certificate".to_string(),
            });
        }
    }
    match outcome.status {
        SolveStatus::Optimal | SolveStatus::Feasible if incumbent_internal.is_none() => {
            return Err(CertifyError::Malformed {
                detail: "feasible verdict without an incumbent".to_string(),
            });
        }
        SolveStatus::Infeasible if incumbent_internal.is_some() => {
            return Err(CertifyError::Malformed {
                detail: "infeasible verdict with an incumbent".to_string(),
            });
        }
        _ => {}
    }

    // Tree audit: only terminal verdicts make a claim about the whole
    // search space.
    if matches!(
        outcome.status,
        SolveStatus::Optimal | SolveStatus::Infeasible
    ) {
        if !cert.complete {
            return Err(CertifyError::Incomplete);
        }
        // An infeasibility proof has no incumbent, so its leaves must all
        // be exact infeasibility (or empty-box) proofs.
        summary.leaves = walk_tree(
            &rm,
            &base_lower,
            &base_upper,
            &cert.tree,
            incumbent_internal.as_ref(),
        )?;
    }
    Ok(summary)
}

fn model_bounds(model: &Model) -> (Vec<f64>, Vec<f64>) {
    (0..model.var_count())
        .map(|j| model.var_bounds(crate::expr::VarId(j)))
        .unzip()
}

/// Replays the branching tree from the root, re-proving every leaf under
/// its accumulated bounds. Returns the number of leaves checked.
fn walk_tree(
    rm: &RatModel,
    base_lower: &[f64],
    base_upper: &[f64],
    tree: &[NodeCert],
    threshold: Option<&BigRat>,
) -> Result<usize, CertifyError> {
    if tree.is_empty() {
        return Err(CertifyError::TreeMalformed {
            node: 0,
            detail: "terminal verdict with an empty tree".to_string(),
        });
    }
    let mut children: Vec<Vec<(usize, bool)>> = vec![Vec::new(); tree.len()];
    for (i, node) in tree.iter().enumerate() {
        match node.parent {
            None => {
                if i != 0 {
                    return Err(CertifyError::TreeMalformed {
                        node: i,
                        detail: "non-root node without a parent".to_string(),
                    });
                }
            }
            Some((p, up)) => {
                if i == 0 || p >= i {
                    return Err(CertifyError::TreeMalformed {
                        node: i,
                        detail: "parent does not precede child".to_string(),
                    });
                }
                children[p].push((i, up));
            }
        }
    }
    let one = BigRat::one();
    let gap = rat(TOL, || "tolerance".to_string())?;
    let mut leaves = 0usize;
    let mut visited = 0usize;
    let mut stack: Vec<(usize, Vec<f64>, Vec<f64>)> =
        vec![(0, base_lower.to_vec(), base_upper.to_vec())];
    while let Some((idx, lower, upper)) = stack.pop() {
        visited += 1;
        let node = &tree[idx];
        match (&node.branch, &node.leaf) {
            (Some(_), Some(_)) => {
                return Err(CertifyError::TreeMalformed {
                    node: idx,
                    detail: "node is both a branch and a leaf".to_string(),
                });
            }
            (None, None) => {
                return Err(CertifyError::TreeMalformed {
                    node: idx,
                    detail: "unexpanded node in a complete tree".to_string(),
                });
            }
            (Some((j, floor)), None) => {
                if *j >= rm.n || !rm.is_int[*j] {
                    return Err(CertifyError::TreeMalformed {
                        node: idx,
                        detail: format!("branches on non-integer variable {j}"),
                    });
                }
                if !floor.is_finite() || floor.fract() != 0.0 {
                    return Err(CertifyError::TreeMalformed {
                        node: idx,
                        detail: format!("fractional split point {floor}"),
                    });
                }
                let kids = &children[idx];
                let (mut down, mut up) = (None, None);
                for &(c, is_up) in kids {
                    let slot = if is_up { &mut up } else { &mut down };
                    if slot.replace(c).is_some() {
                        return Err(CertifyError::TreeMalformed {
                            node: idx,
                            detail: "duplicate child direction".to_string(),
                        });
                    }
                }
                let (Some(d), Some(u)) = (down, up) else {
                    return Err(CertifyError::TreeMalformed {
                        node: idx,
                        detail: "branch node missing a child".to_string(),
                    });
                };
                let dl = lower.clone();
                let mut du = upper.clone();
                du[*j] = *floor;
                let mut ul = lower;
                let uu = upper;
                ul[*j] = *floor + 1.0;
                stack.push((d, dl, du));
                stack.push((u, ul, uu));
            }
            (None, Some(leaf)) => {
                if !children[idx].is_empty() {
                    return Err(CertifyError::TreeMalformed {
                        node: idx,
                        detail: "leaf node has children".to_string(),
                    });
                }
                leaves += 1;
                match leaf {
                    LeafCert::EmptyBox { var } => {
                        if *var >= rm.n || lower[*var] <= upper[*var] {
                            return Err(CertifyError::BoundViolation {
                                leaf: Some(idx),
                                var: *var,
                                detail: "claimed-empty domain is not empty".to_string(),
                            });
                        }
                    }
                    LeafCert::Infeasible { farkas } => {
                        rm.farkas_check(&lower, &upper, farkas, Some(idx))?;
                    }
                    LeafCert::Bound { duals, bound } => {
                        let Some(thr) = threshold else {
                            return Err(CertifyError::TreeMalformed {
                                node: idx,
                                detail: "bound-pruned leaf without an incumbent".to_string(),
                            });
                        };
                        let l = rm.dual_bound(&lower, &upper, duals, Some(idx))?;
                        // Strong duality: at the leaf's optimal basis the
                        // multipliers reproduce the LP objective the solver
                        // claims, up to accumulated float noise. A drifting
                        // recorded bound (or corrupted dual) fails here even
                        // when the mutated L(y) still clears the threshold.
                        let claimed = rat(*bound, || format!("leaf {idx} bound"))?;
                        let cons = rat(
                            1e-4 * (1.0 + bound.abs()) + 1e-6 * rm.rows.len() as f64,
                            || format!("leaf {idx} bound tolerance"),
                        )?;
                        if (&l - &claimed).abs() > cons {
                            return Err(CertifyError::ObjectiveMismatch {
                                leaf: Some(idx),
                                detail: format!(
                                    "exact dual bound L(y) = {} vs recorded node bound {}",
                                    l.to_f64(),
                                    bound
                                ),
                            });
                        }
                        let ok = if rm.integral_objective {
                            l > thr - &one
                        } else {
                            l >= thr - &gap
                        };
                        if !ok {
                            return Err(CertifyError::WeakBound {
                                leaf: idx,
                                detail: format!(
                                    "L(y) = {} vs incumbent threshold {}",
                                    l.to_f64(),
                                    thr.to_f64()
                                ),
                            });
                        }
                    }
                    LeafCert::Integral {
                        x,
                        duals,
                        objective,
                    } => {
                        let Some(thr) = threshold else {
                            return Err(CertifyError::TreeMalformed {
                                node: idx,
                                detail: "integral leaf in an infeasibility proof".to_string(),
                            });
                        };
                        rm.primal_check(&lower, &upper, x, true, Some(idx))?;
                        let obj = rm.internal_objective(x)?;
                        let claimed = rat(*objective, || format!("leaf {idx} objective"))?;
                        if (&obj - &claimed).abs() > gap {
                            return Err(CertifyError::ObjectiveMismatch {
                                leaf: Some(idx),
                                detail: format!(
                                    "exact c·x = {} vs claimed {}",
                                    obj.to_f64(),
                                    objective
                                ),
                            });
                        }
                        let l = rm.dual_bound(&lower, &upper, duals, Some(idx))?;
                        // Same strong-duality consistency as for pruned
                        // leaves: the multipliers must reproduce the leaf's
                        // own LP objective, not merely clear the threshold.
                        let cons = rat(
                            1e-4 * (1.0 + objective.abs()) + 1e-6 * rm.rows.len() as f64,
                            || format!("leaf {idx} bound tolerance"),
                        )?;
                        if (&l - &claimed).abs() > cons {
                            return Err(CertifyError::ObjectiveMismatch {
                                leaf: Some(idx),
                                detail: format!(
                                    "exact dual bound L(y) = {} vs integral leaf objective {}",
                                    l.to_f64(),
                                    objective
                                ),
                            });
                        }
                        let ok = if rm.integral_objective {
                            l > thr - &one
                        } else {
                            l >= thr - &gap
                        };
                        if !ok {
                            return Err(CertifyError::WeakBound {
                                leaf: idx,
                                detail: format!(
                                    "integral leaf bound L(y) = {} vs threshold {}",
                                    l.to_f64(),
                                    thr.to_f64()
                                ),
                            });
                        }
                    }
                }
            }
        }
    }
    if visited != tree.len() {
        return Err(CertifyError::TreeMalformed {
            node: 0,
            detail: format!(
                "{} of {} nodes unreachable from the root",
                tree.len() - visited,
                tree.len()
            ),
        });
    }
    Ok(leaves)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::LinExpr;
    use crate::simplex::LpStatus;
    use crate::{MilpOptions, MilpSolver};

    fn certified() -> MilpSolver {
        MilpSolver::with_options(MilpOptions {
            certificate: true,
            ..MilpOptions::default()
        })
    }

    #[test]
    fn lp_optimal_certificate_verifies() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.continuous_var("x", 0.0, 10.0);
        let y = m.continuous_var("y", 0.0, 10.0);
        m.add_geq(x + y, 3.0);
        m.set_objective(2.0 * x + y);
        let (lp, lower, upper) = m.to_sparse_lp();
        let mut engine = lp.engine();
        engine.set_certify(true);
        let (sol, _) = engine.solve(&lower, &upper, None, None);
        assert_eq!(sol.status, LpStatus::Optimal);
        let cert = engine.take_certificate().expect("certificate emitted");
        certify_lp(&m, &lower, &upper, &cert).unwrap();
    }

    #[test]
    fn lp_infeasible_farkas_verifies() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.continuous_var("x", 0.0, 1.0);
        let y = m.continuous_var("y", 0.0, 1.0);
        m.add_geq(x + y, 3.0); // at most 2 in the box
        m.set_objective(LinExpr::from(x));
        let (lp, lower, upper) = m.to_sparse_lp();
        let mut engine = lp.engine();
        engine.set_certify(true);
        let (sol, _) = engine.solve(&lower, &upper, None, None);
        assert_eq!(sol.status, LpStatus::Infeasible);
        let cert = engine.take_certificate().expect("certificate emitted");
        assert!(matches!(
            cert,
            crate::simplex::LpCertificate::Infeasible { .. }
        ));
        certify_lp(&m, &lower, &upper, &cert).unwrap();
    }

    #[test]
    fn milp_optimal_certificate_verifies() {
        // Knapsack with a fractional relaxation: real branching happens.
        let mut m = Model::new(Sense::Maximize);
        let items: Vec<_> = (0..5).map(|i| m.binary_var(format!("x{i}"))).collect();
        let weights = [2.0, 3.0, 4.0, 5.0, 9.0];
        let values = [3.0, 4.0, 5.0, 8.0, 10.0];
        let mut w = LinExpr::new();
        let mut v = LinExpr::new();
        for (i, &x) in items.iter().enumerate() {
            w.add_term(x, weights[i]);
            v.add_term(x, values[i]);
        }
        m.add_leq(w, 10.0);
        m.set_objective(v);
        let out = certified().solve(&m).unwrap();
        assert_eq!(out.status, crate::SolveStatus::Optimal);
        let summary = certify_outcome(&m, &out).unwrap();
        assert!(summary.nodes >= 1);
        assert!(summary.leaves >= 1);
    }

    #[test]
    fn milp_infeasible_certificate_verifies() {
        // Root propagation alone refutes this in product mode; certificate
        // mode proves it with a tree on the model as written.
        let mut m = Model::new(Sense::Minimize);
        let x = m.binary_var("x");
        let y = m.binary_var("y");
        m.add_geq(x + y, 3.0);
        m.set_objective(x + y);
        let out = certified().solve(&m).unwrap();
        assert_eq!(out.status, crate::SolveStatus::Infeasible);
        let summary = certify_outcome(&m, &out).unwrap();
        assert!(summary.leaves >= 1);
    }

    #[test]
    fn presolve_solved_model_is_reproved() {
        // Root propagation fixes x in product mode; the certificate run
        // proves the optimum with a tree instead.
        let mut m = Model::new(Sense::Minimize);
        let x = m.binary_var("x");
        m.add_geq(LinExpr::from(x), 1.0);
        m.set_objective(LinExpr::from(x));
        let out = certified().solve(&m).unwrap();
        assert_eq!(out.status, crate::SolveStatus::Optimal);
        let summary = certify_outcome(&m, &out).unwrap();
        assert!(summary.nodes >= 1);
    }

    #[test]
    fn leaf_multipliers_index_the_callers_rows() {
        // z is fixed and its singleton row redundant; the proof must still
        // speak about both of the caller's rows.
        let mut m = Model::new(Sense::Maximize);
        let z = m.integer_var("z", 1.0, 1.0);
        let x = m.binary_var("x");
        let y = m.binary_var("y");
        m.add_leq(LinExpr::from(z), 1.0);
        m.add_leq(2.0 * x + 2.0 * y + z, 4.0);
        m.set_objective(x + y + 3.0 * z);
        let out = certified().solve(&m).unwrap();
        assert_eq!(out.status, crate::SolveStatus::Optimal);
        let cert = out.certificate.as_ref().unwrap();
        let mut multipliers = 0;
        for node in &cert.tree {
            let mult = match &node.leaf {
                Some(LeafCert::Infeasible { farkas }) => farkas,
                Some(LeafCert::Bound { duals, .. } | LeafCert::Integral { duals, .. }) => duals,
                Some(LeafCert::EmptyBox { .. }) | None => continue,
            };
            assert_eq!(mult.len(), m.constraint_count());
            multipliers += 1;
        }
        assert!(multipliers >= 1);
        let leaves = cert.tree.iter().filter(|n| n.leaf.is_some()).count();
        assert_eq!(certify_outcome(&m, &out).unwrap().leaves, leaves);
    }

    #[test]
    fn corrupting_a_dual_is_rejected() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.integer_var("x", 0.0, 100.0);
        m.add_geq(LinExpr::from(x), 3.0);
        m.set_objective(2.0 * LinExpr::from(x));
        let out = certified().solve(&m).unwrap();
        let mut bad = out.clone();
        let cert = bad.certificate.as_mut().unwrap();
        let mut corrupted = false;
        for node in &mut cert.tree {
            if let Some(LeafCert::Integral { duals, .. } | LeafCert::Bound { duals, .. }) =
                &mut node.leaf
            {
                for d in duals.iter_mut() {
                    *d += 1.5;
                    corrupted = true;
                }
            }
        }
        if corrupted {
            assert!(certify_outcome(&m, &bad).is_err());
        }
        certify_outcome(&m, &out).unwrap();
    }

    #[test]
    fn missing_certificate_is_reported() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.binary_var("x");
        m.set_objective(LinExpr::from(x));
        let out = MilpSolver::new().solve(&m).unwrap();
        assert_eq!(
            certify_outcome(&m, &out),
            Err(CertifyError::MissingCertificate)
        );
    }
}
