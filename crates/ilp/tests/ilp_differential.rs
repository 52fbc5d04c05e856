//! Differential test harness: the sparse revised simplex
//! ([`fpva_ilp::simplex`]) against the dense two-phase tableau oracle
//! ([`fpva_ilp::dense`]).
//!
//! Random sparse LPs are generated **by status class** — the witness
//! construction guarantees the class, so a disagreement is always a
//! solver bug, never an ambiguous instance:
//!
//! * **feasible** — a witness point `x0` inside the (finite) variable
//!   box; every row's rhs is set from `a·x0` with non-negative slack, so
//!   `x0` is feasible and finiteness of all bounds makes the LP bounded;
//! * **degenerate** — the feasible construction with every slack forced
//!   to zero *and* every row duplicated, so the optimum sits on a
//!   heavily tied vertex (ratio-test ties, redundant rows);
//! * **infeasible** — the feasible construction plus the contradictory
//!   row `x_j ≥ ub_j + 1` (which also crosses the two solvers' different
//!   bound handling: rows in the oracle, native bounds in the revised
//!   simplex);
//! * **unbounded** — the feasible construction plus a cost −1 ray
//!   variable `z ∈ [0, ∞)` that appears (with +1) only in `≥` rows, so
//!   `(x0, z → ∞)` stays feasible while the objective dives.
//!
//! Both solvers must agree on the status, and on the objective within
//! `1e-6` when optimal; the revised simplex's primal point is
//! additionally checked feasible against rows and bounds. The same four
//! classes, with every other variable integer, also check product-mode
//! branch and bound against proof mode and its certificate.

use fpva_ilp::dense;
use fpva_ilp::simplex::{self, LpProblem, LpRow, LpStatus, SparseLp};
use fpva_ilp::{certify_outcome, ConstraintOp, LinExpr, MilpSolver, Model, Sense, SolveStatus};
use proptest::prelude::*;

/// Objective agreement tolerance between the two solvers.
const OBJ_TOL: f64 = 1e-6;

/// Per-variable raw draw: (witness value, lower slack below the witness,
/// upper headroom above it, objective coefficient ×2).
type VarRaw = (i32, i32, i32, i32);
/// Per-row raw draw: sparse support as (unreduced index, coefficient),
/// an operator selector, and a non-negative slack.
type RowRaw = (Vec<(usize, i32)>, u8, i32);
/// One full instance draw: variable count, per-variable data (oversized,
/// truncated to the count), row data, and a spare index used by the
/// infeasible class.
type InstanceRaw = (usize, Vec<VarRaw>, Vec<RowRaw>, usize);

fn arb_instance() -> impl Strategy<Value = InstanceRaw> {
    (
        2usize..9,
        collection::vec((0i32..7, 0i32..4, 0i32..6, -5i32..6), 9..10),
        collection::vec(
            (
                collection::vec((0usize..64, -4i32..5), 1..4),
                0u8..3,
                0i32..5,
            ),
            1..7,
        ),
        0usize..64,
    )
}

/// Builds a guaranteed-feasible, guaranteed-bounded LP around the witness
/// point. With `tight` every row holds with equality at the witness; with
/// `duplicate` every row is emitted twice (redundancy + ratio-test ties).
fn build_feasible(raw: &InstanceRaw, tight: bool, duplicate: bool) -> LpProblem {
    let (n, ref vars, ref rows, _) = *raw;
    let x0: Vec<f64> = vars[..n].iter().map(|v| f64::from(v.0)).collect();
    let lower: Vec<f64> = vars[..n]
        .iter()
        .zip(&x0)
        .map(|(v, x)| x - f64::from(v.1))
        .collect();
    let upper: Vec<f64> = vars[..n]
        .iter()
        .zip(&x0)
        .map(|(v, x)| x + f64::from(v.2))
        .collect();
    let objective: Vec<f64> = vars[..n].iter().map(|v| f64::from(v.3) * 0.5).collect();
    let mut out_rows = Vec::new();
    for (support, op_sel, slack) in rows {
        let coeffs: Vec<(usize, f64)> = support
            .iter()
            .map(|&(j, a)| (j % n, f64::from(a)))
            .collect();
        let ax0: f64 = coeffs.iter().map(|&(j, a)| a * x0[j]).sum();
        let slack = if tight { 0.0 } else { f64::from(*slack) };
        let (op, rhs) = match op_sel % 3 {
            0 => (ConstraintOp::Leq, ax0 + slack),
            1 => (ConstraintOp::Geq, ax0 - slack),
            _ => (ConstraintOp::Eq, ax0),
        };
        let row = LpRow { coeffs, op, rhs };
        if duplicate {
            out_rows.push(row.clone());
        }
        out_rows.push(row);
    }
    LpProblem {
        objective,
        rows: out_rows,
        lower,
        upper,
    }
}

/// The feasible problem plus the contradictory row `x_j ≥ ub_j + 1`.
fn build_infeasible(raw: &InstanceRaw) -> LpProblem {
    let mut p = build_feasible(raw, false, false);
    let j = raw.3 % raw.0;
    p.rows.push(LpRow {
        coeffs: vec![(j, 1.0)],
        op: ConstraintOp::Geq,
        rhs: p.upper[j] + 1.0,
    });
    p
}

/// The feasible problem plus a cost −1 ray variable `z ∈ [0, ∞)` with a
/// +1 entry in every `≥` row (and none elsewhere): `(x0, z → ∞)` stays
/// feasible while the objective is unbounded below.
fn build_unbounded(raw: &InstanceRaw) -> LpProblem {
    let mut p = build_feasible(raw, false, false);
    let z = p.objective.len();
    for row in &mut p.rows {
        if row.op == ConstraintOp::Geq {
            row.coeffs.push((z, 1.0));
        }
    }
    p.objective.push(-1.0);
    p.lower.push(0.0);
    p.upper.push(f64::INFINITY);
    p
}

/// The feasible problem extended for the dual-vs-dense oracle checks: a
/// ray variable `z ∈ [0, 6]` (cost −1) with a +1 entry in every `≥` row,
/// and a probe variable `w ∈ [0, 2]` (cost +1) constrained by `w ≥ 1` in
/// its own row and appearing nowhere else. The base LP stays feasible
/// and bounded, so a cold solve yields an optimal warm basis; a *single
/// bound change* then steers the child's status class: `upper[w] = 0`
/// contradicts `w ≥ 1` (infeasible), `upper[z] = ∞` frees the ray
/// (unbounded), and clamping any original variable onto the witness
/// keeps the child optimal. Returns `(problem, w, z)`.
fn build_dual_base(raw: &InstanceRaw, tight: bool, duplicate: bool) -> (LpProblem, usize, usize) {
    let mut p = build_feasible(raw, tight, duplicate);
    let z = p.objective.len();
    for row in &mut p.rows {
        if row.op == ConstraintOp::Geq {
            row.coeffs.push((z, 1.0));
        }
    }
    p.objective.push(-1.0);
    p.lower.push(0.0);
    p.upper.push(6.0);
    let w = p.objective.len();
    p.rows.push(LpRow {
        coeffs: vec![(w, 1.0)],
        op: ConstraintOp::Geq,
        rhs: 1.0,
    });
    p.objective.push(1.0);
    p.lower.push(0.0);
    p.upper.push(2.0);
    (p, w, z)
}

/// One dual-vs-dense oracle check: warm re-solve the engine under the
/// child bounds (single bound change from the base) against a cold dense
/// solve of the identical child problem.
fn check_dual_child(
    engine: &mut simplex::SimplexEngine<'_>,
    basis: &simplex::Basis,
    p: &LpProblem,
    lower: &[f64],
    upper: &[f64],
    what: &str,
) -> Result<(), TestCaseError> {
    let child = LpProblem {
        objective: p.objective.clone(),
        rows: p.rows.clone(),
        lower: lower.to_vec(),
        upper: upper.to_vec(),
    };
    let oracle = dense::solve(&child);
    let (sol, _) = engine.solve(lower, upper, None, Some(basis));
    prop_assert_eq!(
        sol.status,
        oracle.status,
        "{}: engine {:?} vs oracle {:?}",
        what,
        sol.status,
        oracle.status
    );
    if sol.status == LpStatus::Optimal {
        prop_assert!(
            (sol.objective - oracle.objective).abs() <= OBJ_TOL,
            "{}: engine {} vs oracle {}",
            what,
            sol.objective,
            oracle.objective
        );
        let viol = primal_violation(&child, &sol.x);
        prop_assert!(
            viol <= OBJ_TOL,
            "{what}: warm point violates the child by {viol}"
        );
    }
    Ok(())
}

/// Worst violation of `x` against the rows and bounds of `p`.
fn primal_violation(p: &LpProblem, x: &[f64]) -> f64 {
    let mut worst = 0.0f64;
    for (l, (u, v)) in p.lower.iter().zip(p.upper.iter().zip(x)) {
        worst = worst.max(l - v).max(v - u);
    }
    for row in &p.rows {
        let ax: f64 = row.coeffs.iter().map(|&(j, a)| a * x[j]).sum();
        let gap = match row.op {
            ConstraintOp::Leq => ax - row.rhs,
            ConstraintOp::Geq => row.rhs - ax,
            ConstraintOp::Eq => (ax - row.rhs).abs(),
        };
        worst = worst.max(gap);
    }
    worst
}

/// Mirrors `p` as a minimisation [`Model`]; `integer[j]` (when present)
/// upgrades variable `j` to an integer. All instance constructions above
/// use integral witnesses and bounds, so integrality never breaks the
/// guaranteed status class.
fn model_from_problem(p: &LpProblem, integer: &[bool]) -> Model {
    let mut m = Model::new(Sense::Minimize);
    let ids: Vec<_> = p
        .lower
        .iter()
        .zip(&p.upper)
        .enumerate()
        .map(|(j, (&l, &u))| {
            if integer.get(j).copied().unwrap_or(false) {
                m.integer_var(format!("x{j}"), l, u)
            } else {
                m.continuous_var(format!("x{j}"), l, u)
            }
        })
        .collect();
    let mut obj = LinExpr::new();
    for (j, &c) in p.objective.iter().enumerate() {
        obj.add_term(ids[j], c);
    }
    m.set_objective(obj);
    for row in &p.rows {
        let mut e = LinExpr::new();
        for &(j, a) in &row.coeffs {
            e.add_term(ids[j], a);
        }
        m.add_constraint(e, row.op, row.rhs);
    }
    m
}

/// Every other variable integer, rotated by the instance's spare index, so
/// the mask varies across cases but is deterministic per instance.
fn integer_mask(raw: &InstanceRaw) -> Vec<bool> {
    (0..raw.0).map(|j| (j + raw.3).is_multiple_of(2)).collect()
}

/// Solves the same [`Model`] in product mode (bound propagation at every
/// node, the root included) and in proof mode (`certificate: true`, no
/// propagation). The two must agree on the status, and on the objective
/// within [`OBJ_TOL`] when optimal; the product optimum must satisfy the
/// rows, the bounds and the integer mask; and every proof-mode `Optimal`
/// or `Infeasible` verdict must pass [`certify_outcome`].
fn check_product_proof_agreement(p: &LpProblem, integer: &[bool]) -> Result<(), TestCaseError> {
    let m = model_from_problem(p, integer);
    let product = MilpSolver::new().solve(&m).unwrap();
    let proof = MilpSolver::new().certificate(true).solve(&m).unwrap();
    prop_assert_eq!(
        product.status,
        proof.status,
        "product and proof mode disagree on {:?}",
        p
    );
    if product.status == SolveStatus::Optimal {
        let a = product
            .best
            .as_ref()
            .expect("optimal outcome carries a solution");
        let b = proof
            .best
            .as_ref()
            .expect("optimal outcome carries a solution");
        prop_assert!(
            (a.objective - b.objective).abs() <= OBJ_TOL,
            "objectives diverge: product {} vs proof {} on {:?}",
            a.objective,
            b.objective,
            p
        );
        let viol = primal_violation(p, a.values());
        prop_assert!(
            viol <= OBJ_TOL,
            "product optimum violates the model by {viol}"
        );
        for (j, &is_int) in integer.iter().enumerate() {
            if is_int {
                let v = a.values()[j];
                prop_assert!(
                    (v - v.round()).abs() <= OBJ_TOL,
                    "product optimum x{j}={v} is fractional"
                );
            }
        }
    }
    if matches!(proof.status, SolveStatus::Optimal | SolveStatus::Infeasible) {
        let audit = certify_outcome(&m, &proof);
        prop_assert!(
            audit.is_ok(),
            "certificate rejected: {:?} on {:?}",
            audit,
            p
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn feasible_lps_agree(raw in arb_instance()) {
        let p = build_feasible(&raw, false, false);
        let d = dense::solve(&p);
        let s = simplex::solve(&p);
        prop_assert_eq!(d.status, LpStatus::Optimal, "oracle on a feasible bounded LP: {:?}", d.status);
        prop_assert_eq!(s.status, LpStatus::Optimal, "revised simplex on a feasible bounded LP: {:?}", s.status);
        prop_assert!(
            (d.objective - s.objective).abs() <= OBJ_TOL,
            "objectives diverge: dense {} vs sparse {} on {:?}",
            d.objective, s.objective, p
        );
        let viol = primal_violation(&p, &s.x);
        prop_assert!(viol <= OBJ_TOL, "sparse point violates the LP by {viol}");
    }

    #[test]
    fn degenerate_lps_agree(raw in arb_instance()) {
        // Every row tight at the witness and duplicated: the optimum sits
        // on a redundantly-described vertex, the classic breeding ground
        // for ratio-test ties and cycling.
        let p = build_feasible(&raw, true, true);
        let d = dense::solve(&p);
        let s = simplex::solve(&p);
        prop_assert_eq!(d.status, LpStatus::Optimal, "oracle on a degenerate LP: {:?}", d.status);
        prop_assert_eq!(s.status, LpStatus::Optimal, "revised simplex on a degenerate LP: {:?}", s.status);
        prop_assert!(
            (d.objective - s.objective).abs() <= OBJ_TOL,
            "objectives diverge: dense {} vs sparse {} on {:?}",
            d.objective, s.objective, p
        );
        let viol = primal_violation(&p, &s.x);
        prop_assert!(viol <= OBJ_TOL, "sparse point violates the LP by {viol}");
    }

    #[test]
    fn infeasible_lps_agree(raw in arb_instance()) {
        let p = build_infeasible(&raw);
        let d = dense::solve(&p);
        let s = simplex::solve(&p);
        prop_assert_eq!(d.status, LpStatus::Infeasible, "oracle: {:?}", d.status);
        prop_assert_eq!(s.status, LpStatus::Infeasible, "revised simplex: {:?}", s.status);
    }

    #[test]
    fn unbounded_lps_agree(raw in arb_instance()) {
        let p = build_unbounded(&raw);
        let d = dense::solve(&p);
        let s = simplex::solve(&p);
        prop_assert_eq!(d.status, LpStatus::Unbounded, "oracle: {:?}", d.status);
        prop_assert_eq!(s.status, LpStatus::Unbounded, "revised simplex: {:?}", s.status);
    }

    // ---- dual-vs-dense oracle: a warm re-solve after a single bound
    // change (the branch-and-bound child pattern, which takes the dual
    // simplex path whenever the parent basis stays dual feasible) must
    // agree with a cold dense solve of the same child, across all four
    // status classes ----

    #[test]
    fn dual_resolve_after_one_bound_change_agrees_with_dense(raw in arb_instance()) {
        let (p, w, z) = build_dual_base(&raw, false, false);
        let prepared = SparseLp::from_problem(&p);
        let mut engine = prepared.engine();
        let (root, basis) = engine.solve(&p.lower, &p.upper, None, None);
        prop_assert_eq!(root.status, LpStatus::Optimal, "dual base must be optimal: {:?}", root.status);
        let basis = basis.expect("optimal solve returns a basis");

        // Optimal child: clamp one original variable onto the witness.
        let j = raw.3 % raw.0;
        let mut upper = p.upper.clone();
        upper[j] = f64::from(raw.1[j].0);
        check_dual_child(&mut engine, &basis, &p, &p.lower, &upper, "optimal child")?;

        // Infeasible child: upper[w] = 0 contradicts the row w >= 1.
        let mut upper = p.upper.clone();
        upper[w] = 0.0;
        check_dual_child(&mut engine, &basis, &p, &p.lower, &upper, "infeasible child")?;

        // Unbounded child: freeing the ray variable dives the objective.
        let mut upper = p.upper.clone();
        upper[z] = f64::INFINITY;
        check_dual_child(&mut engine, &basis, &p, &p.lower, &upper, "unbounded child")?;
    }

    #[test]
    fn dual_resolve_on_degenerate_base_agrees_with_dense(raw in arb_instance()) {
        // Tight, duplicated rows: the warm basis sits on a massively tied
        // vertex, stressing the dual ratio test's tie handling.
        let (p, w, _z) = build_dual_base(&raw, true, true);
        let prepared = SparseLp::from_problem(&p);
        let mut engine = prepared.engine();
        let (root, basis) = engine.solve(&p.lower, &p.upper, None, None);
        prop_assert_eq!(root.status, LpStatus::Optimal, "degenerate dual base: {:?}", root.status);
        let basis = basis.expect("optimal solve returns a basis");

        let j = raw.3 % raw.0;
        let mut upper = p.upper.clone();
        upper[j] = f64::from(raw.1[j].0);
        check_dual_child(&mut engine, &basis, &p, &p.lower, &upper, "degenerate optimal child")?;

        let mut upper = p.upper.clone();
        upper[w] = 0.0;
        check_dual_child(&mut engine, &basis, &p, &p.lower, &upper, "degenerate infeasible child")?;
    }

    // ---- propagation differential: product mode (root presolve and
    // per-node propagation) against proof mode (none, certified) on the
    // same model, one test per guaranteed status class ----

    #[test]
    fn presolve_agrees_on_feasible(raw in arb_instance()) {
        check_product_proof_agreement(&build_feasible(&raw, false, false), &integer_mask(&raw))?;
    }

    #[test]
    fn presolve_agrees_on_degenerate(raw in arb_instance()) {
        // Duplicated tight rows: every row is forcing at the witness, so
        // propagation fixes the most variables here.
        check_product_proof_agreement(&build_feasible(&raw, true, true), &integer_mask(&raw))?;
    }

    #[test]
    fn presolve_agrees_on_infeasible(raw in arb_instance()) {
        check_product_proof_agreement(&build_infeasible(&raw), &integer_mask(&raw))?;
    }

    #[test]
    fn presolve_agrees_on_unbounded(raw in arb_instance()) {
        // The ray variable z is appended after the mask, so it stays
        // continuous and the instance stays certifiably unbounded.
        check_product_proof_agreement(&build_unbounded(&raw), &integer_mask(&raw))?;
    }
}

/// Variable count of [`multi_knapsack_lp`].
const CHAIN_VARS: usize = 14;

/// A multi-knapsack LP whose binding capacity rows force real pivots on
/// every re-solve, while `x = lower` stays feasible under the whole
/// [`chain_bounds`] schedule (capacities dwarf the largest scheduled
/// lower bounds) — so every warm-started step is `Optimal`.
fn multi_knapsack_lp() -> LpProblem {
    let n = CHAIN_VARS;
    let mut rows = Vec::new();
    for k in 0..4usize {
        let coeffs: Vec<(usize, f64)> = (0..n)
            .map(|i| (i, 1.0 + ((i * (k + 2) + k) % 4) as f64))
            .collect();
        let capacity = 0.35 * 6.0 * coeffs.iter().map(|&(_, w)| w).sum::<f64>();
        rows.push(LpRow {
            coeffs,
            op: ConstraintOp::Leq,
            rhs: capacity,
        });
    }
    LpProblem {
        objective: (0..n).map(|i| -(1.0 + ((i * 5) % 9) as f64)).collect(),
        rows,
        lower: vec![0.0; n],
        upper: vec![6.0; n],
    }
}

/// The bound schedule of the warm-start chain: a tightening window that
/// cycles over the variables — lower bounds rise on one index, upper
/// bounds drop on another, then both relax.
fn chain_bounds(step: usize) -> (Vec<f64>, Vec<f64>) {
    let n = CHAIN_VARS;
    let mut lower = vec![0.0; n];
    let mut upper = vec![6.0; n];
    let a = step % n;
    let b = (step * 5 + 2) % n;
    lower[a] = (step % 3) as f64;
    upper[b] = 2.0 + ((step % 5) as f64);
    if lower[b] > upper[b] {
        lower[b] = upper[b];
    }
    (lower, upper)
}

/// Deterministic long warm-start chain: one persistent engine re-solves
/// the same LP under a cycling schedule of bound tightenings, each step
/// checked against a fresh dense-oracle solve of the identical problem.
/// The chain pushes hundreds of Forrest–Tomlin updates through the
/// engine's basis with only the occasional freshness refactorization —
/// exactly the branch-and-bound access pattern the LU factors exist for.
#[test]
fn long_warm_start_chain_tracks_dense_oracle() {
    // The multi-knapsack chain: binding capacity rows force real pivots
    // on every re-solve, and the schedule keeps each step feasible, so
    // every step is Optimal.
    let p = multi_knapsack_lp();
    let prepared = SparseLp::from_problem(&p);
    let mut engine = prepared.engine();
    let mut basis = None;
    let mut agreements = 0usize;
    for step in 0..400 {
        let (lower, upper) = chain_bounds(step);
        // Every 25th step drops the warm basis on purpose, so the chain
        // mixes cold primal phase-1 solves into the dual re-solves and
        // both start paths are exercised against the oracle.
        let warm = if step % 25 == 24 {
            None
        } else {
            basis.as_ref()
        };
        let (sol, next_basis) = engine.solve(&lower, &upper, None, warm);
        let oracle = dense::solve(&LpProblem {
            objective: p.objective.clone(),
            rows: p.rows.clone(),
            lower,
            upper,
        });
        assert_eq!(
            sol.status, oracle.status,
            "step {step}: engine {:?} vs oracle {:?}",
            sol.status, oracle.status
        );
        if sol.status == LpStatus::Optimal {
            assert!(
                (sol.objective - oracle.objective).abs() <= OBJ_TOL,
                "step {step}: engine {} vs oracle {}",
                sol.objective,
                oracle.objective
            );
            agreements += 1;
        }
        if let Some(nb) = next_basis {
            basis = Some(nb);
        }
    }
    assert!(agreements >= 350, "only {agreements} optimal steps");
    let stats = engine.factor_stats();
    // The floor sat at 250 before the dual method landed; dual re-solves
    // reach feasibility in fewer pivots, so the chain legitimately
    // produces fewer Forrest–Tomlin updates now.
    assert!(
        stats.ft_updates >= 150,
        "chain exercised only {} Forrest–Tomlin updates",
        stats.ft_updates
    );
    // 8× rather than the old 10×: the deliberate cold steps above each
    // refactorize from the slack basis, which an all-warm chain avoided.
    assert!(
        stats.ft_updates >= 8 * stats.refactorizations.max(1),
        "updates ({}) should dwarf refactorizations ({})",
        stats.ft_updates,
        stats.refactorizations
    );
    let es = engine.engine_stats();
    assert_eq!(
        es.cold_restarts, 0,
        "every warm basis in the chain comes from the engine's own optimal \
         solve, so none may be rejected into a cold restart"
    );
    assert!(
        es.dual_pivots > 0,
        "the chain's bound tightenings must exercise the dual simplex"
    );
    assert!(
        es.warm_resolves >= 350,
        "only {} of the supplied warm bases were used",
        es.warm_resolves
    );
}

/// A basis driven towards numerical singularity: two near-parallel rows
/// make the optimal basis ill-conditioned, so Forrest–Tomlin updates
/// and/or the refactorization stability threshold must engage without
/// corrupting the reported optimum.
#[test]
fn near_singular_basis_recovers() {
    for eps_pow in [6, 8, 10] {
        let eps = 10f64.powi(-eps_pow);
        // min x + y subject to x + y >= 2, x + (1+eps)y >= 2, x − y <= 0,
        // all within [0, 4]: the first two rows are nearly dependent and
        // meet the third at a sliver vertex.
        let p = LpProblem {
            objective: vec![1.0, 1.0],
            rows: vec![
                LpRow {
                    coeffs: vec![(0, 1.0), (1, 1.0)],
                    op: ConstraintOp::Geq,
                    rhs: 2.0,
                },
                LpRow {
                    coeffs: vec![(0, 1.0), (1, 1.0 + eps)],
                    op: ConstraintOp::Geq,
                    rhs: 2.0,
                },
                LpRow {
                    coeffs: vec![(0, 1.0), (1, -1.0)],
                    op: ConstraintOp::Leq,
                    rhs: 0.0,
                },
            ],
            lower: vec![0.0, 0.0],
            upper: vec![4.0, 4.0],
        };
        let s = simplex::solve(&p);
        let d = dense::solve(&p);
        assert_eq!(s.status, LpStatus::Optimal, "eps=1e-{eps_pow}");
        assert_eq!(d.status, LpStatus::Optimal, "oracle, eps=1e-{eps_pow}");
        assert!(
            (s.objective - d.objective).abs() <= 1e-5,
            "eps=1e-{eps_pow}: engine {} vs oracle {}",
            s.objective,
            d.objective
        );
    }

    // The same ill-conditioning under warm starts: re-solving with
    // progressively tighter bounds walks the engine through the
    // near-singular bases repeatedly; every resolve must stay exact.
    let eps = 1e-9;
    let p = LpProblem {
        objective: vec![1.0, 1.0, 0.5],
        rows: vec![
            LpRow {
                coeffs: vec![(0, 1.0), (1, 1.0), (2, 1.0)],
                op: ConstraintOp::Geq,
                rhs: 3.0,
            },
            LpRow {
                coeffs: vec![(0, 1.0), (1, 1.0 + eps), (2, 1.0)],
                op: ConstraintOp::Geq,
                rhs: 3.0,
            },
            LpRow {
                coeffs: vec![(0, 1.0), (1, -1.0)],
                op: ConstraintOp::Leq,
                rhs: 0.0,
            },
        ],
        lower: vec![0.0; 3],
        upper: vec![5.0; 3],
    };
    let prepared = SparseLp::from_problem(&p);
    let mut engine = prepared.engine();
    let mut basis = None;
    for step in 0..40 {
        let hi = 5.0 - 0.1 * f64::from(step % 20);
        let upper = vec![5.0, hi, 5.0];
        let (sol, nb) = engine.solve(&p.lower, &upper, None, basis.as_ref());
        let oracle = dense::solve(&LpProblem {
            objective: p.objective.clone(),
            rows: p.rows.clone(),
            lower: p.lower.clone(),
            upper,
        });
        assert_eq!(sol.status, oracle.status, "step {step}");
        if sol.status == LpStatus::Optimal {
            assert!(
                (sol.objective - oracle.objective).abs() <= 1e-5,
                "step {step}: engine {} vs oracle {}",
                sol.objective,
                oracle.objective
            );
        }
        if let Some(nb) = nb {
            basis = Some(nb);
        }
    }
}
