//! Certificate mutation harness: no corrupted proof may survive the
//! exact-arithmetic audit.
//!
//! Each test class builds a model whose verdict is known by construction,
//! solves it in proof-logging mode, verifies the pristine certificate,
//! then corrupts exactly **one** field — a dual value, a Farkas
//! coefficient, a leaf bound, a branch decision or an incumbent entry —
//! and asserts `fpva_ilp::certify` rejects the mutant.
//! Every mutation is chosen to be *mathematically* invalidating (not just
//! syntactically odd): the perturbations `δ ∈ [0.5, 3]` are orders of
//! magnitude above every audit tolerance, zeroed Farkas coordinates leave
//! the remaining aggregate satisfiable inside the box, and sign flips
//! land on the forbidden side of the row's dual cone. A mutant that
//! certifies anyway is a soundness hole in the checker.
//!
//! Four status classes are exercised: LP optimal, LP infeasible (Farkas),
//! MILP optimal (branching tree + incumbent) and MILP infeasible
//! (tree-wide infeasibility proof).

use fpva_ilp::certify::{LeafCert, MilpCertificate};
use fpva_ilp::simplex::{LpCertificate, LpStatus};
use fpva_ilp::{certify_lp, certify_outcome, MilpOptions, MilpSolver, Model, Sense, SolveStatus};
use proptest::prelude::*;

/// Mutation magnitudes are drawn as integer hundredths in `[0.50, 3.00)`
/// — far above every tolerance in the checker (`1e-6`-scale feasibility,
/// `1e-4`-scale bound consistency).
fn delta_from(raw: u32) -> f64 {
    f64::from(raw) / 100.0
}

fn certified() -> MilpSolver {
    MilpSolver::with_options(MilpOptions {
        certificate: true,
        ..MilpOptions::default()
    })
}

// ---------------------------------------------------------------------------
// Class 1: LP optimal — minimize Σ cᵢxᵢ subject to xᵢ ≥ bᵢ, x ∈ [0, 100].
// The optimum is x = b with duals y = c exactly, so the Lagrangian bound
// has zero slack: every dual or primal perturbation of δ ≥ 0.5 provably
// breaks a check (weak bound, row violation, objective mismatch or dual
// sign).
// ---------------------------------------------------------------------------

fn lp_optimal_instance(c: &[i32], b: &[i32]) -> (Model, Vec<f64>, Vec<f64>, LpCertificate) {
    let mut m = Model::new(Sense::Minimize);
    let mut obj = fpva_ilp::LinExpr::new();
    for (i, (&ci, &bi)) in c.iter().zip(b).enumerate() {
        let x = m.continuous_var(format!("x{i}"), 0.0, 100.0);
        m.add_geq(fpva_ilp::LinExpr::from(x), f64::from(bi));
        obj.add_term(x, f64::from(ci));
    }
    m.set_objective(obj);
    let (lp, lower, upper) = m.to_sparse_lp();
    let mut engine = lp.engine();
    engine.set_certify(true);
    let (sol, _) = engine.solve(&lower, &upper, None, None);
    assert_eq!(sol.status, LpStatus::Optimal);
    let cert = engine.take_certificate().expect("certificate emitted");
    certify_lp(&m, &lower, &upper, &cert).expect("pristine certificate verifies");
    (m, lower, upper, cert)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lp_optimal_mutants_rejected(
        c in collection::vec(1i32..6, 1usize..5),
        b_raw in collection::vec(1i32..11, 1usize..5),
        site in 0usize..1_000_000,
        delta_raw in 50u32..300,
        up in any::<bool>(),
    ) {
        let delta = delta_from(delta_raw);
        let n = c.len().min(b_raw.len());
        let (c, b) = (&c[..n], &b_raw[..n]);
        let (m, lower, upper, cert) = lp_optimal_instance(c, b);
        let LpCertificate::Optimal { mut duals, mut x, mut objective } = cert else {
            panic!("optimal LP must emit an Optimal certificate");
        };
        let signed = if up { delta } else { -delta };
        // Sites: each dual, each primal entry, the claimed objective.
        let k = site % (duals.len() + x.len() + 1);
        if k < duals.len() {
            duals[k] += signed;
        } else if k < duals.len() + x.len() {
            x[k - duals.len()] += signed;
        } else {
            objective += signed;
        }
        let mutant = LpCertificate::Optimal { duals, x, objective };
        prop_assert!(
            certify_lp(&m, &lower, &upper, &mutant).is_err(),
            "mutated LP-optimal certificate (site {k}, {signed:+}) was accepted"
        );
    }
}

// ---------------------------------------------------------------------------
// Class 2: LP infeasible — x ≥ b together with x ≤ b − 1 inside the box
// [0, b + 10]. Zeroing any Farkas coordinate leaves a single row that is
// satisfiable in the box; flipping one lands on the forbidden side of
// the row's dual cone.
// ---------------------------------------------------------------------------

fn lp_infeasible_instance(b: i32) -> (Model, Vec<f64>, Vec<f64>, Vec<f64>) {
    let mut m = Model::new(Sense::Minimize);
    let x = m.continuous_var("x", 0.0, f64::from(b) + 10.0);
    m.add_geq(fpva_ilp::LinExpr::from(x), f64::from(b));
    m.add_leq(fpva_ilp::LinExpr::from(x), f64::from(b) - 1.0);
    m.set_objective(fpva_ilp::LinExpr::from(x));
    let (lp, lower, upper) = m.to_sparse_lp();
    let mut engine = lp.engine();
    engine.set_certify(true);
    let (sol, _) = engine.solve(&lower, &upper, None, None);
    assert_eq!(sol.status, LpStatus::Infeasible);
    let Some(LpCertificate::Infeasible { farkas }) = engine.take_certificate() else {
        panic!("infeasible LP must emit a Farkas certificate");
    };
    certify_lp(
        &m,
        &lower,
        &upper,
        &LpCertificate::Infeasible {
            farkas: farkas.clone(),
        },
    )
    .expect("pristine Farkas ray verifies");
    (m, lower, upper, farkas)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lp_infeasible_mutants_rejected(
        b in 1i32..11,
        site in 0usize..1_000_000,
        flip in any::<bool>(),
    ) {
        let (m, lower, upper, farkas) = lp_infeasible_instance(b);
        let live: Vec<usize> = (0..farkas.len()).filter(|&i| farkas[i] != 0.0).collect();
        prop_assert!(!live.is_empty(), "Farkas ray must touch at least one row");
        let k = live[site % live.len()];
        let mut mutant = farkas;
        mutant[k] = if flip { -mutant[k] } else { 0.0 };
        prop_assert!(
            certify_lp(&m, &lower, &upper, &LpCertificate::Infeasible { farkas: mutant }).is_err(),
            "mutated Farkas ray (row {k}, flip={flip}) was accepted"
        );
    }
}

// ---------------------------------------------------------------------------
// Classes 3 and 4: MILP.
// ---------------------------------------------------------------------------

/// One guaranteed-invalidating corruption of a [`MilpCertificate`].
#[derive(Debug, Clone, Copy, PartialEq)]
enum Site {
    /// Push a leaf dual onto the forbidden side of a `≤` row's cone
    /// (`y > 0`): rejected as a dual-sign violation.
    DualForbidden(usize, usize),
    /// Move a leaf dual *within* the valid cone: the exact Lagrangian
    /// bound drifts off the recorded leaf bound/objective, rejected by
    /// the strong-duality consistency check.
    DualValid(usize, usize),
    /// Perturb the recorded bound of a pruned leaf or the recorded
    /// objective of an integral leaf.
    LeafBound(usize),
    /// Zero one live coordinate of a leaf's Farkas ray.
    FarkasZero(usize, usize),
    /// Flip one live coordinate of a leaf's Farkas ray.
    FarkasFlip(usize, usize),
    /// Make a branch's recorded floor fractional.
    BranchFloor(usize),
    /// Perturb one entry of the incumbent.
    Incumbent(usize),
    /// Claim the proof is incomplete.
    Complete,
    /// Drop the incumbent from an optimality proof.
    DropIncumbent,
    /// Strip a leaf's proof artifact entirely.
    DropLeaf(usize),
}

/// Enumerates every applicable mutation site of `cert`. `leq_rows` marks
/// rows whose valid dual cone is `y ≤ 0` (the only row kind the MILP
/// fixtures below use), so dual mutations know which direction is
/// forbidden.
fn milp_sites(cert: &MilpCertificate, optimal: bool) -> Vec<Site> {
    let mut sites = vec![Site::Complete];
    if optimal {
        sites.push(Site::DropIncumbent);
    }
    if let Some(inc) = &cert.incumbent {
        sites.extend((0..inc.len()).map(Site::Incumbent));
    }
    for (n, node) in cert.tree.iter().enumerate() {
        if node.branch.is_some() {
            sites.push(Site::BranchFloor(n));
        }
        match &node.leaf {
            Some(LeafCert::Bound { duals, .. } | LeafCert::Integral { duals, .. }) => {
                sites.push(Site::DropLeaf(n));
                sites.push(Site::LeafBound(n));
                sites.extend(
                    (0..duals.len())
                        .flat_map(|r| [Site::DualForbidden(n, r), Site::DualValid(n, r)]),
                );
            }
            Some(LeafCert::Infeasible { farkas }) => {
                sites.push(Site::DropLeaf(n));
                for (r, &y) in farkas.iter().enumerate() {
                    if y != 0.0 {
                        sites.push(Site::FarkasZero(n, r));
                        sites.push(Site::FarkasFlip(n, r));
                    }
                }
            }
            _ => {}
        }
    }
    sites
}

/// Applies `site` to `cert`. `delta ∈ [0.5, 3]` scales every numeric
/// perturbation.
fn apply(cert: &mut MilpCertificate, site: Site, delta: f64) {
    match site {
        Site::Complete => cert.complete = false,
        Site::DropIncumbent => cert.incumbent = None,
        Site::Incumbent(i) => {
            cert.incumbent.as_mut().expect("site exists")[i] += delta;
        }
        Site::BranchFloor(n) => {
            let b = cert.tree[n].branch.as_mut().expect("site exists");
            b.1 += 0.5;
        }
        Site::DropLeaf(n) => cert.tree[n].leaf = None,
        Site::LeafBound(n) => match cert.tree[n].leaf.as_mut().expect("site exists") {
            LeafCert::Bound { bound, .. } => *bound += delta,
            LeafCert::Integral { objective, .. } => *objective += delta,
            _ => panic!("site enumerated a bounded leaf"),
        },
        Site::DualForbidden(n, r) | Site::DualValid(n, r) => {
            // The fixtures only use `≤` rows, whose dual cone is y ≤ 0:
            // +δ leaves the cone, −δ stays inside it but detaches the
            // exact bound from the recorded one.
            let signed = if matches!(site, Site::DualForbidden(..)) {
                delta
            } else {
                -delta
            };
            match cert.tree[n].leaf.as_mut().expect("site exists") {
                LeafCert::Bound { duals, .. } | LeafCert::Integral { duals, .. } => {
                    duals[r] += signed;
                }
                _ => panic!("site enumerated a dual-bearing leaf"),
            }
        }
        Site::FarkasZero(n, r) | Site::FarkasFlip(n, r) => {
            let LeafCert::Infeasible { farkas } = cert.tree[n].leaf.as_mut().expect("site exists")
            else {
                panic!("site enumerated a Farkas leaf");
            };
            farkas[r] = if matches!(site, Site::FarkasFlip(..)) {
                -farkas[r]
            } else {
                0.0
            };
        }
    }
}

/// MILP optimal fixture: maximize x + y + 3z with 2x + 2y ≤ 3 over
/// binaries and z ∈ [1, 1] integer. The relaxation is fractional (real
/// branching) and the `≤` row keeps every leaf dual in the `y ≤ 0` cone.
fn milp_optimal_fixture() -> (Model, fpva_ilp::MilpOutcome) {
    let mut m = Model::new(Sense::Maximize);
    let x = m.binary_var("x");
    let y = m.binary_var("y");
    let z = m.integer_var("z", 1.0, 1.0);
    m.add_leq(2.0 * x + 2.0 * y, 3.0);
    m.set_objective(x + y + 3.0 * z);
    let out = certified().solve(&m).expect("solve succeeds");
    assert_eq!(out.status, SolveStatus::Optimal);
    certify_outcome(&m, &out).expect("pristine certificate verifies");
    (m, out)
}

/// MILP infeasible fixture: x + y ≥ 3 over binaries (box maximum is 2).
/// Certificate mode proves it with a tree whose leaves carry Farkas rays.
fn milp_infeasible_fixture() -> (Model, fpva_ilp::MilpOutcome) {
    let mut m = Model::new(Sense::Minimize);
    let x = m.binary_var("x");
    let y = m.binary_var("y");
    m.add_geq(x + y, 3.0);
    m.set_objective(x + y);
    let out = certified().solve(&m).expect("solve succeeds");
    assert_eq!(out.status, SolveStatus::Infeasible);
    certify_outcome(&m, &out).expect("pristine certificate verifies");
    (m, out)
}

#[test]
fn milp_fixtures_cover_all_mutation_kinds() {
    // The harness is only as strong as the sites the fixtures expose:
    // pin down that duals, leaf bounds, branch floors, an incumbent and
    // Farkas rays all actually occur.
    let (_, out) = milp_optimal_fixture();
    let sites = milp_sites(out.certificate.as_ref().unwrap(), true);
    assert!(
        sites.iter().any(|s| matches!(s, Site::DualValid(..))),
        "{sites:?}"
    );
    assert!(
        sites.iter().any(|s| matches!(s, Site::LeafBound(_))),
        "{sites:?}"
    );
    assert!(
        sites.iter().any(|s| matches!(s, Site::BranchFloor(_))),
        "{sites:?}"
    );
    assert!(
        sites.iter().any(|s| matches!(s, Site::Incumbent(_))),
        "{sites:?}"
    );

    let (_, out) = milp_infeasible_fixture();
    let sites = milp_sites(out.certificate.as_ref().unwrap(), false);
    assert!(
        sites.iter().any(|s| matches!(s, Site::FarkasZero(..))),
        "{sites:?}"
    );
    assert!(
        sites.iter().any(|s| matches!(s, Site::FarkasFlip(..))),
        "{sites:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn milp_optimal_mutants_rejected(
        site in 0usize..1_000_000,
        delta_raw in 50u32..300,
    ) {
        let delta = delta_from(delta_raw);
        let (m, mut out) = milp_optimal_fixture();
        let cert = out.certificate.as_mut().expect("certificate recorded");
        let sites = milp_sites(cert, true);
        let chosen = sites[site % sites.len()];
        apply(cert, chosen, delta);
        prop_assert!(
            certify_outcome(&m, &out).is_err(),
            "mutated MILP-optimal certificate ({chosen:?}, δ={delta}) was accepted"
        );
    }

    #[test]
    fn milp_infeasible_mutants_rejected(
        site in 0usize..1_000_000,
        delta_raw in 50u32..300,
    ) {
        let delta = delta_from(delta_raw);
        let (m, mut out) = milp_infeasible_fixture();
        let cert = out.certificate.as_mut().expect("certificate recorded");
        let sites = milp_sites(cert, false);
        let chosen = sites[site % sites.len()];
        apply(cert, chosen, delta);
        prop_assert!(
            certify_outcome(&m, &out).is_err(),
            "mutated MILP-infeasible certificate ({chosen:?}, δ={delta}) was accepted"
        );
    }
}
