//! Root bound propagation and static model diagnostics.
//!
//! Product-mode branch and bound ([`crate::MilpSolver`] without
//! [`crate::MilpOptions::certificate`]) runs the same integer bound
//! propagation at every node, the root included, on the model as written.
//! [`presolve`] runs that root pass on its own and reports its verdict and
//! counters, so `fpva-lint` can screen a model without a solve. Every
//! deduction is a floor/ceil implied bound on an integer variable,
//! interval arithmetic over the variable bounds, so an
//! [`PresolveOutcome::Infeasible`] verdict is a proof that needs no LP.
//! [`numerics_report`] flags numerically hostile coefficients.

use crate::model::{ConstraintOp, Model, VarKind};
use std::collections::BTreeMap;

/// Feasibility slack: a row is declared infeasible only when its best
/// achievable activity misses the rhs by more than this.
const FEAS_TOL: f64 = 1e-7;
/// Integrality tolerance used when rounding implied integer bounds.
const INT_TOL: f64 = 1e-6;

/// Counters of one [`presolve`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PresolveStats {
    /// Variable bounds the pass moved (a lower and an upper bound count
    /// separately).
    pub tightenings: usize,
    /// Variables whose domain the pass collapsed to a single value.
    pub fixed: usize,
}

/// Static numerics diagnostics for a model (used by `fpva-lint`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NumericsReport {
    /// Smallest non-zero |coefficient| in the constraint matrix.
    pub min_abs_coeff: f64,
    /// Largest |coefficient| in the constraint matrix.
    pub max_abs_coeff: f64,
    /// Largest |rhs|.
    pub max_abs_rhs: f64,
    /// Coefficients with magnitude below `1e-7` (likely noise).
    pub tiny_coeffs: usize,
    /// Coefficients with magnitude above `1e7` (conditioning hazard).
    pub huge_coeffs: usize,
    /// Row pairs with identical support whose coefficient vectors are
    /// (nearly) proportional — near-linear dependence.
    pub near_parallel_rows: usize,
}

/// The verdict of root propagation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PresolveOutcome {
    /// No contradiction: branch and bound has to decide the model.
    Open,
    /// The model is proven infeasible by interval arithmetic alone.
    Infeasible {
        /// Names the row whose activity range cannot meet its rhs, or
        /// whose implied bound empties a variable's domain.
        reason: String,
    },
}

/// Result of [`presolve`]: verdict and counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Presolved {
    /// The verdict of the pass.
    pub outcome: PresolveOutcome,
    /// What the pass changed in the model's bounds.
    pub stats: PresolveStats,
}

/// Runs root bound propagation over `model`'s own bounds, as product-mode
/// branch and bound does at its root node.
///
/// The input is unchanged. Call after [`Model::validate`]: on non-finite
/// data the verdict means nothing.
pub fn presolve(model: &Model) -> Presolved {
    let (mut lower, mut upper): (Vec<f64>, Vec<f64>) =
        model.vars().iter().map(|v| (v.lb, v.ub)).unzip();
    let verdict = Propagator::new(model).propagate(&mut lower, &mut upper);
    let mut stats = PresolveStats::default();
    for (v, (&lb, &ub)) in model.vars().iter().zip(lower.iter().zip(&upper)) {
        stats.tightenings += usize::from(lb != v.lb) + usize::from(ub != v.ub);
        stats.fixed += usize::from(lb == ub && v.lb != v.ub);
    }
    let outcome = match verdict {
        Ok(_) => PresolveOutcome::Open,
        Err(r) => {
            let row = &model.constraints()[r];
            PresolveOutcome::Infeasible {
                reason: format!(
                    "constraint #{r} ({:?} {}) cannot hold within the propagated bounds",
                    row.op, row.rhs
                ),
            }
        }
    };
    Presolved { outcome, stats }
}

/// Computes static numerics diagnostics for `model`.
pub fn numerics_report(model: &Model) -> NumericsReport {
    let mut rep = NumericsReport {
        min_abs_coeff: f64::INFINITY,
        ..NumericsReport::default()
    };
    let mut supports: BTreeMap<Vec<usize>, Vec<Vec<f64>>> = BTreeMap::new();
    for c in model.constraints() {
        rep.max_abs_rhs = rep.max_abs_rhs.max(c.rhs.abs());
        let mut vars = Vec::new();
        let mut coeffs = Vec::new();
        for (v, a) in c.expr.terms() {
            let m = a.abs();
            rep.min_abs_coeff = rep.min_abs_coeff.min(m);
            rep.max_abs_coeff = rep.max_abs_coeff.max(m);
            if m < 1e-7 {
                rep.tiny_coeffs += 1;
            }
            if m > 1e7 {
                rep.huge_coeffs += 1;
            }
            vars.push(v.index());
            coeffs.push(a);
        }
        if vars.len() >= 2 {
            supports.entry(vars).or_default().push(coeffs);
        }
    }
    if !rep.min_abs_coeff.is_finite() {
        rep.min_abs_coeff = 0.0;
    }
    for rows in supports.values().filter(|r| r.len() >= 2) {
        for i in 0..rows.len() {
            for j in (i + 1)..rows.len() {
                let k = rows[j][0] / rows[i][0];
                let near = rows[i]
                    .iter()
                    .zip(&rows[j])
                    .all(|(&a, &b)| (b - k * a).abs() <= 1e-3 * (1.0 + (k * a).abs()));
                if near {
                    rep.near_parallel_rows += 1;
                }
            }
        }
    }
    rep
}

/// One propagation row: sparse terms, operator and right-hand side.
type PropRow = (Vec<(usize, f64)>, ConstraintOp, f64);

/// Per-node integer bound propagation over the model's rows.
///
/// Product-mode branch-and-bound applies this to every node's bound
/// vectors, the root's included, before solving the LP relaxation:
/// floor/ceil implied bounds on integer variables are exact deductions, so
/// nodes pruned here are pruned with certainty.
#[derive(Debug, Clone)]
pub(crate) struct Propagator {
    rows: Vec<PropRow>,
    is_int: Vec<bool>,
    passes: usize,
}

impl Propagator {
    pub(crate) fn new(model: &Model) -> Self {
        let rows = model
            .constraints()
            .iter()
            .map(|c| {
                let terms: Vec<(usize, f64)> =
                    c.expr.terms().map(|(v, a)| (v.index(), a)).collect();
                (terms, c.op, c.rhs)
            })
            .collect();
        let is_int = model
            .vars()
            .iter()
            .map(|v| v.kind != VarKind::Continuous)
            .collect();
        Propagator {
            rows,
            is_int,
            passes: 3,
        }
    }

    /// Tightens integer entries of `lower`/`upper` in place. Returns the
    /// number of tightenings, or `Err` with the index of the row that
    /// becomes unsatisfiable or empties a domain (the node can be pruned
    /// without an LP).
    pub(crate) fn propagate(&self, lower: &mut [f64], upper: &mut [f64]) -> Result<usize, usize> {
        let mut tightened = 0usize;
        for _ in 0..self.passes {
            let before = tightened;
            for (r, (terms, op, rhs)) in self.rows.iter().enumerate() {
                let mut min_fin = 0.0;
                let mut max_fin = 0.0;
                let mut min_ninf = 0usize;
                let mut max_pinf = 0usize;
                for &(v, a) in terms {
                    let lo = if a > 0.0 { a * lower[v] } else { a * upper[v] };
                    let hi = if a > 0.0 { a * upper[v] } else { a * lower[v] };
                    if lo == f64::NEG_INFINITY {
                        min_ninf += 1;
                    } else {
                        min_fin += lo;
                    }
                    if hi == f64::INFINITY {
                        max_pinf += 1;
                    } else {
                        max_fin += hi;
                    }
                }
                let minact = if min_ninf > 0 {
                    f64::NEG_INFINITY
                } else {
                    min_fin
                };
                let maxact = if max_pinf > 0 { f64::INFINITY } else { max_fin };
                let infeasible = match op {
                    ConstraintOp::Leq => minact > rhs + FEAS_TOL,
                    ConstraintOp::Geq => maxact < rhs - FEAS_TOL,
                    ConstraintOp::Eq => minact > rhs + FEAS_TOL || maxact < rhs - FEAS_TOL,
                };
                if infeasible {
                    return Err(r);
                }
                for &(v, a) in terms {
                    if !self.is_int[v] {
                        continue;
                    }
                    let lo = if a > 0.0 { a * lower[v] } else { a * upper[v] };
                    let hi = if a > 0.0 { a * upper[v] } else { a * lower[v] };
                    if *op != ConstraintOp::Geq {
                        let others = if lo == f64::NEG_INFINITY {
                            if min_ninf == 1 {
                                min_fin
                            } else {
                                f64::NEG_INFINITY
                            }
                        } else if min_ninf > 0 {
                            f64::NEG_INFINITY
                        } else {
                            min_fin - lo
                        };
                        if others.is_finite() {
                            let b = (rhs - others) / a;
                            if a > 0.0 {
                                let nb = (b + INT_TOL).floor();
                                if nb < upper[v] - 0.5 {
                                    upper[v] = nb;
                                    tightened += 1;
                                    if upper[v] < lower[v] {
                                        return Err(r);
                                    }
                                }
                            } else {
                                let nb = (b - INT_TOL).ceil();
                                if nb > lower[v] + 0.5 {
                                    lower[v] = nb;
                                    tightened += 1;
                                    if upper[v] < lower[v] {
                                        return Err(r);
                                    }
                                }
                            }
                        }
                    }
                    if *op != ConstraintOp::Leq {
                        let others = if hi == f64::INFINITY {
                            if max_pinf == 1 {
                                max_fin
                            } else {
                                f64::INFINITY
                            }
                        } else if max_pinf > 0 {
                            f64::INFINITY
                        } else {
                            max_fin - hi
                        };
                        if others.is_finite() {
                            let b = (rhs - others) / a;
                            if a > 0.0 {
                                let nb = (b - INT_TOL).ceil();
                                if nb > lower[v] + 0.5 {
                                    lower[v] = nb;
                                    tightened += 1;
                                    if upper[v] < lower[v] {
                                        return Err(r);
                                    }
                                }
                            } else {
                                let nb = (b + INT_TOL).floor();
                                if nb < upper[v] - 0.5 {
                                    upper[v] = nb;
                                    tightened += 1;
                                    if upper[v] < lower[v] {
                                        return Err(r);
                                    }
                                }
                            }
                        }
                    }
                }
            }
            if tightened == before {
                break;
            }
        }
        Ok(tightened)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::LinExpr;
    use crate::model::Sense;

    #[test]
    fn singleton_equality_fixes_variable() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.binary_var("x");
        let y = m.binary_var("y");
        m.add_eq(LinExpr::from(x), 1.0);
        m.add_leq(x + y, 2.0); // leaves y free after the fix
        m.set_objective(x + y);
        let p = presolve(&m);
        assert_eq!(p.outcome, PresolveOutcome::Open);
        assert_eq!(
            p.stats,
            PresolveStats {
                tightenings: 1,
                fixed: 1
            }
        );
    }

    #[test]
    fn forcing_row_fixes_every_variable() {
        // x + y >= 2 over binaries: only (1, 1) works.
        let mut m = Model::new(Sense::Minimize);
        let x = m.binary_var("x");
        let y = m.binary_var("y");
        m.add_geq(x + y, 2.0);
        m.set_objective(x + y);
        let p = presolve(&m);
        assert_eq!(p.outcome, PresolveOutcome::Open);
        assert_eq!(p.stats.fixed, 2);
    }

    #[test]
    fn certified_infeasible_without_factorizing() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.binary_var("x");
        let y = m.binary_var("y");
        m.add_leq(x + y, 2.0);
        m.add_geq(x + y, 3.0);
        m.set_objective(x + y);
        match presolve(&m).outcome {
            PresolveOutcome::Infeasible { reason } => {
                assert!(reason.starts_with("constraint #1 "), "{reason}");
            }
            other => panic!("expected Infeasible, got {other:?}"),
        }
    }

    #[test]
    fn fractional_singleton_equality_on_integer_is_infeasible() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.integer_var("x", 0.0, 10.0);
        m.add_eq(2.0 * x, 5.0);
        m.set_objective(LinExpr::from(x));
        let p = presolve(&m);
        assert!(matches!(p.outcome, PresolveOutcome::Infeasible { .. }));
    }

    #[test]
    fn empty_contradictory_row_is_infeasible() {
        let mut m = Model::new(Sense::Minimize);
        let _x = m.binary_var("x");
        m.add_geq(LinExpr::new(), 1.0); // 0 >= 1
        let p = presolve(&m);
        assert!(matches!(p.outcome, PresolveOutcome::Infeasible { .. }));
    }

    #[test]
    fn numerics_report_flags_extremes() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.continuous_var("x", 0.0, 1.0);
        let y = m.continuous_var("y", 0.0, 1.0);
        m.add_leq(1e-9 * x + 1e9 * y, 1.0);
        m.add_leq(x + y, 1.0);
        m.add_leq(x + y + 1e-12 * LinExpr::from(x), 2.0); // ~ parallel to row 1
        m.set_objective(x + y);
        let rep = numerics_report(&m);
        assert_eq!(rep.tiny_coeffs, 1);
        assert_eq!(rep.huge_coeffs, 1);
        assert!(rep.max_abs_coeff >= 1e9);
        assert!(rep.min_abs_coeff <= 1e-9);
        assert_eq!(rep.near_parallel_rows, 1);
        assert_eq!(rep.max_abs_rhs, 2.0);
    }

    #[test]
    fn propagator_prunes_and_tightens() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.integer_var("x", 0.0, 10.0);
        let y = m.integer_var("y", 0.0, 10.0);
        m.add_leq(x + y, 3.0);
        m.add_geq(x + y, 1.0);
        m.set_objective(x + y);
        let prop = Propagator::new(&m);
        let mut lo = vec![0.0, 0.0];
        let mut hi = vec![10.0, 10.0];
        let t = prop.propagate(&mut lo, &mut hi).unwrap();
        assert!(t >= 2);
        assert_eq!(hi, vec![3.0, 3.0]);
        // Branching x >= 4 contradicts x + y <= 3.
        let mut lo = vec![4.0, 0.0];
        let mut hi = vec![10.0, 10.0];
        assert_eq!(prop.propagate(&mut lo, &mut hi), Err(0));
        // The root pass reports the same two tightenings.
        let p = presolve(&m);
        assert_eq!(p.outcome, PresolveOutcome::Open);
        assert_eq!(p.stats.tightenings, 2);
    }
}
