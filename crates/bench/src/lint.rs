//! Static analysis of chips and their ILP cover models (`fpva-lint`).
//!
//! The chip pass reports sinks that are unreachable even with every valve
//! open, stranded flow cells, valves that no valid source→sink flow path
//! can exercise (untestable stuck-at-0), valves without a closable cut
//! (untestable stuck-at-1) and control-leak pairs that no valid flow path
//! can expose. The three untestable lists are the verdicts of the default
//! plan generator ([`Atpg::generate`], run once per chip), so the lint and
//! a generated plan never disagree. The model pass flags cover models
//! whose constraint count deviates from the closed-form formula or whose
//! coefficients look numerically hostile, and runs root bound propagation.
//! Apart from [`certify_models`], which solves the cover probes, no LP is
//! factorized and no fault is simulated.

use std::fmt;
use std::time::Duration;

use fpva_atpg::{ilp_model, Atpg};
use fpva_grid::layouts;
use fpva_grid::{CellKind, ChipGraph, Fpva, PortKind, ValveId};
use fpva_ilp::{
    certify_outcome, numerics_report, presolve, MilpOptions, MilpSolver, PresolveOutcome,
    SolveStatus,
};

/// How bad a [`Diagnostic`] is. Ordered: `Info < Warning < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Expected, informational output (e.g. the root propagation summary).
    Info,
    /// Suspicious but not fatal: the chip works, with blind spots.
    Warning,
    /// The chip or model is broken; `fpva-lint` exits nonzero.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Every check name a [`Diagnostic`] can carry, in the order the passes
/// run. `fpva-lint` rejects an `--only` or `--allow` name outside this
/// list, so a typo cannot silently filter or waive nothing.
pub const CHECKS: [&str; 9] = [
    "ports",
    "connectivity",
    "flow-paths",
    "cut-cover",
    "leak-observability",
    "model-shape",
    "numerics",
    "presolve",
    "certify",
];

/// `Ok` when `name` is one of [`CHECKS`]; the error names every check.
///
/// # Errors
///
/// Returns a message listing [`CHECKS`] when `name` is not among them.
pub fn known_check(name: &str) -> Result<(), String> {
    if CHECKS.contains(&name) {
        Ok(())
    } else {
        Err(format!(
            "unknown check {name:?}; known checks: {}",
            CHECKS.join(", ")
        ))
    }
}

/// One finding of a lint pass over a chip or a cover model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// How bad the finding is.
    pub severity: Severity,
    /// The chip or model the finding is about (e.g. `"table1_5x5"`).
    pub subject: String,
    /// Short machine-readable check name, one of [`CHECKS`].
    pub check: &'static str,
    /// Human-readable description, with coordinates where applicable.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} [{}]: {}",
            self.severity, self.subject, self.check, self.message
        )
    }
}

/// The worst severity in `diags`, or `None` when the slice is empty.
pub fn max_severity(diags: &[Diagnostic]) -> Option<Severity> {
    diags.iter().map(|d| d.severity).max()
}

/// Formats up to six valves as `(r,c)-(r,c)` coordinates, eliding the rest.
fn valve_list(fpva: &Fpva, valves: &[ValveId]) -> String {
    capped_list(valves, |&v| fpva.edge_of(v).to_string())
}

/// Formats up to six ordered leak pairs as `actuator→victim` valve
/// coordinates, eliding the rest.
fn pair_list(fpva: &Fpva, pairs: &[(ValveId, ValveId)]) -> String {
    capped_list(pairs, |&(a, b)| {
        format!("{}→{}", fpva.edge_of(a), fpva.edge_of(b))
    })
}

/// Formats up to six `items` with `show`, eliding the rest.
fn capped_list<T>(items: &[T], show: impl Fn(&T) -> String) -> String {
    const CAP: usize = 6;
    let mut parts: Vec<String> = items.iter().take(CAP).map(show).collect();
    if items.len() > CAP {
        parts.push(format!("… {} more", items.len() - CAP));
    }
    parts.join(", ")
}

/// Audits one chip.
///
/// Checks, in order: port presence, all-open sink reachability, stranded
/// flow cells, then one run of the default plan generator, whose
/// `untestable_open` valves (no valid flow path crosses them) are reported
/// as `flow-paths`, whose `untestable_closed` valves (no closable cut
/// exposes them) as `cut-cover`, and whose `untestable_pairs` (no valid
/// flow path crosses the victim while the actuator is closed) as
/// `leak-observability`, for information.
pub fn lint_chip(name: &str, fpva: &Fpva) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut push = |severity, check, message: String| {
        out.push(Diagnostic {
            severity,
            subject: name.to_string(),
            check,
            message,
        });
    };

    let no_sources = fpva.sources().next().is_none();
    let no_sinks = fpva.sinks().next().is_none();
    if no_sources {
        push(
            Severity::Error,
            "ports",
            "chip has no pressure source port".into(),
        );
    }
    if no_sinks {
        push(
            Severity::Error,
            "ports",
            "chip has no pressure meter (sink) port".into(),
        );
    }
    if no_sources || no_sinks {
        return out;
    }

    // All-open reachability: the weakest possible requirement — if a sink
    // cannot see a source with every valve open, no test vector ever will.
    let graph = ChipGraph::new(fpva);
    let none_closed = vec![false; fpva.valve_count()];
    let mut from_src = vec![false; graph.node_count()];
    graph.flood(
        PortKind::Source,
        &none_closed,
        false,
        &mut from_src,
        &mut Vec::new(),
    );
    let reached = |cell| from_src[graph.node(fpva.cell_index(cell))];
    for (id, port) in fpva.sinks() {
        if !reached(port.cell) {
            push(
                Severity::Error,
                "connectivity",
                format!(
                    "sink {id} at {} is unreachable from every source even with all valves open",
                    port.cell
                ),
            );
        }
    }
    let stranded: Vec<_> = fpva
        .cells()
        .filter(|&c| fpva.cell_kind(c) != CellKind::Obstacle && !reached(c))
        .collect();
    if !stranded.is_empty() {
        push(
            Severity::Warning,
            "connectivity",
            format!(
                "{} flow cell(s) unreachable from any source, first {}",
                stranded.len(),
                stranded[0]
            ),
        );
    }

    // The generator's exact router, cut stage and leakage stage decide
    // which valves no flow path or cut can test and which leaks no flow
    // path can expose: report those verdicts, not a second guess.
    match Atpg::new().generate(fpva) {
        Ok(plan) => {
            for (check, valves, verdict) in [
                (
                    "flow-paths",
                    plan.untestable_open(),
                    "lie on no valid source→sink flow path (untestable stuck-at-0)",
                ),
                (
                    "cut-cover",
                    plan.untestable_closed(),
                    "have no closable source/sink cut (untestable stuck-at-1)",
                ),
            ] {
                if !valves.is_empty() {
                    push(
                        Severity::Warning,
                        check,
                        format!(
                            "{} valve(s) {verdict}: {}",
                            valves.len(),
                            valve_list(fpva, valves)
                        ),
                    );
                }
            }
            let pairs = plan.untestable_pairs();
            if !pairs.is_empty() {
                push(
                    Severity::Info,
                    "leak-observability",
                    format!(
                        "{} ordered adjacent valve pair(s) have control leaks no valid flow path \
                         can expose (actuator→victim): {}",
                        pairs.len(),
                        pair_list(fpva, pairs)
                    ),
                );
            }
        }
        Err(e) => push(
            Severity::Error,
            "flow-paths",
            format!("test-plan generation failed: {e}"),
        ),
    }

    out
}

/// Statically audits the `k`-path ILP cover model of one chip.
///
/// Checks the generated constraint count against the closed-form formula,
/// flags numerically hostile coefficients, and runs root bound propagation
/// ([`presolve()`]) — both as a summary and as a certified feasibility
/// screen (an `Infeasible` verdict on a cover model is always a chip bug).
pub fn lint_model(name: &str, fpva: &Fpva, k: usize) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut push = |severity, check, message: String| {
        out.push(Diagnostic {
            severity,
            subject: name.to_string(),
            check,
            message,
        });
    };

    let model = ilp_model::cover_model(fpva, k);
    let expected = ilp_model::expected_constraint_count(fpva, k);
    if model.constraint_count() != expected {
        push(
            Severity::Error,
            "model-shape",
            format!(
                "k={k} cover model has {} constraints, closed-form count predicts {expected}",
                model.constraint_count()
            ),
        );
    }

    let rep = numerics_report(&model);
    if rep.tiny_coeffs > 0 || rep.huge_coeffs > 0 {
        push(
            Severity::Warning,
            "numerics",
            format!(
                "{} coefficient(s) below 1e-7 and {} above 1e7 (range [{:.3e}, {:.3e}])",
                rep.tiny_coeffs, rep.huge_coeffs, rep.min_abs_coeff, rep.max_abs_coeff
            ),
        );
    }

    let pre = presolve(&model);
    match pre.outcome {
        PresolveOutcome::Infeasible { reason } => push(
            Severity::Error,
            "presolve",
            format!("k={k} cover model certified infeasible without factorizing: {reason}"),
        ),
        PresolveOutcome::Open => push(
            Severity::Info,
            "presolve",
            format!(
                "k={k}: root propagation tightened {} bound(s) and fixed {} of {} cols ({} rows)",
                pre.stats.tightenings,
                pre.stats.fixed,
                model.var_count(),
                model.constraint_count()
            ),
        ),
    }

    out
}

/// Branch-and-bound node budget per certified probe of
/// [`certify_models`] — bounds the proof tree the exact-arithmetic audit
/// must replay, since auditing costs roughly nodes × rows big-rational
/// operations.
const CERTIFY_NODE_BUDGET: usize = 2_000;

/// Solves the chip's path-cover probes in proof-logging mode and audits
/// every returned certificate in exact rational arithmetic
/// ([`fpva_ilp::certify_outcome`]).
///
/// Up to three solves run per chip: one at `k = lb − 1`, *below* the
/// structural lower bound [`ilp_model::min_cover_paths`] — the verdict
/// must be `Infeasible` and its branch-and-bound proof must re-verify —
/// and the probe sequence at `k = lb` and `lb + 1`, whose
/// optimal/feasible/infeasible verdicts must carry certificates that
/// re-verify. A rejected
/// certificate is always an error (the solver asserted something it
/// cannot prove); a probe that exhausts `probe_budget` without a verdict
/// is only informational.
///
/// Certified solves additionally run under `CERTIFY_NODE_BUDGET`: a
/// proof tree is re-verified leaf by leaf in exact rational arithmetic,
/// so its audit cost scales with nodes × rows — a tree that outgrows the
/// budget would take longer to audit than to find. Probes that hit the
/// node budget return unproven verdicts (`Feasible`/`Unknown`), whose
/// incumbents are still audited exactly.
pub fn certify_models(name: &str, fpva: &Fpva, probe_budget: Duration) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut push = |severity, check, message: String| {
        out.push(Diagnostic {
            severity,
            subject: name.to_string(),
            check,
            message,
        });
    };

    let lb = ilp_model::min_cover_paths(fpva);
    if lb >= 2 {
        let k = lb - 1;
        let model = ilp_model::cover_model(fpva, k);
        let solver = MilpSolver::with_options(MilpOptions {
            time_limit: Some(probe_budget),
            node_limit: Some(CERTIFY_NODE_BUDGET),
            certificate: true,
            ..MilpOptions::default()
        });
        match solver.solve(&model) {
            Ok(outcome) => match outcome.status {
                SolveStatus::Infeasible => match certify_outcome(&model, &outcome) {
                    Ok(summary) => push(
                        Severity::Info,
                        "certify",
                        format!(
                            "k={k} (below the structural lower bound {lb}) proven \
                             infeasible; proof re-verified exactly ({} leaves)",
                            summary.leaves
                        ),
                    ),
                    Err(e) => push(
                        Severity::Error,
                        "certify",
                        format!("k={k} infeasibility certificate rejected: {e}"),
                    ),
                },
                SolveStatus::Unknown => push(
                    Severity::Info,
                    "certify",
                    format!("k={k} infeasibility not proven within the probe budget"),
                ),
                other => push(
                    Severity::Error,
                    "certify",
                    format!(
                        "k={k} is below the structural lower bound {lb} yet the \
                         solver returned {other:?}"
                    ),
                ),
            },
            Err(e) => push(
                Severity::Error,
                "certify",
                format!("k={k} solve failed: {e}"),
            ),
        }
    }

    // Probe only k = lb and lb + 1: exact covers on the direct (flat)
    // formulation are open-ended — the paper's hierarchical flow exists
    // precisely because large direct models outgrow any solver budget —
    // so the audit pins its cost at two certified solves and reports
    // anything beyond as unprobed.
    let config = ilp_model::PathIlpConfig {
        certify: true,
        time_limit: probe_budget,
        node_limit: CERTIFY_NODE_BUDGET,
        max_paths: lb + 1,
    };
    let (cover, probes) = ilp_model::min_path_cover_ilp_with_stats(fpva, &config);
    let (mut certified, mut leaves) = (0, 0);
    for probe in &probes {
        match &probe.certify {
            Some(Ok(summary)) => {
                certified += 1;
                leaves += summary.leaves;
            }
            Some(Err(e)) => push(
                Severity::Error,
                "certify",
                format!(
                    "k={} probe certificate failed exact re-verification: {e}",
                    probe.k
                ),
            ),
            None => {}
        }
    }
    if certified > 0 {
        push(
            Severity::Info,
            "certify",
            format!(
                "{certified} probe(s) certified exactly: {leaves} branch-and-bound leaves \
                 re-proved"
            ),
        );
    }
    match cover {
        Ok(c) => push(
            Severity::Info,
            "certify",
            format!("minimum certified cover uses {} path(s)", c.paths.len()),
        ),
        // Inconclusive, not wrong: either the budget ran out, or every
        // probed k was proven coverless — larger k are simply unprobed.
        Err(e) => push(
            Severity::Info,
            "certify",
            format!("no certified cover with at most {} path(s): {e}", lb + 1),
        ),
    }
    out
}

/// The chips exercised by the `examples/` binaries that are not already
/// Table I instances, with stable lint subject names.
pub fn example_chips() -> Vec<(&'static str, Fpva)> {
    vec![
        ("custom_biochip", layouts::custom_biochip()),
        ("full_3x3", layouts::full_array(3, 3)),
        ("full_10x10", layouts::full_array(10, 10)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpva_atpg::cutset;

    #[test]
    fn table1_chips_lint_without_errors() {
        for entry in layouts::table1() {
            let diags = lint_chip(entry.name, &entry.fpva);
            assert!(
                max_severity(&diags) < Some(Severity::Error),
                "{}: unexpected lint error: {diags:?}",
                entry.name
            );
        }
    }

    #[test]
    fn custom_biochip_untestable_closed_flagged_with_coordinates() {
        let f = layouts::custom_biochip();
        let diags = lint_chip("custom_biochip", &f);
        let cut = diags
            .iter()
            .find(|d| d.check == "cut-cover")
            .expect("custom_biochip must trigger the cut-cover lint");
        assert_eq!(cut.severity, Severity::Warning);
        // The diagnostic must carry valve coordinates in `(r,c)-(r,c)` form.
        let uncovered = cutset::cut_cover(&f).unwrap().uncovered;
        assert!(!uncovered.is_empty());
        let first = f.edge_of(uncovered[0]).to_string();
        assert!(
            cut.message.contains(&first),
            "message {:?} lacks coordinate {first}",
            cut.message
        );
    }

    #[test]
    fn pocket_valve_flagged_by_flow_paths() {
        use fpva_grid::{FpvaBuilder, PortKind, Side};
        // The obstacle at (1,2) leaves (0,2) a dead end, entered only
        // through (0,1)-(0,2): both of that valve's cells are reachable
        // from the source and the sink with every valve open, yet no
        // simple source→sink path can enter the pocket and leave it.
        let f = FpvaBuilder::new(3, 3)
            .obstacle(1, 2, 1, 2)
            .port(0, 0, Side::West, PortKind::Source)
            .port(2, 2, Side::East, PortKind::Sink)
            .build()
            .unwrap();
        let diags = lint_chip("pocket", &f);
        let flow = diags
            .iter()
            .find(|d| d.check == "flow-paths")
            .expect("the pocket valve must trigger the flow-paths lint");
        assert_eq!(flow.severity, Severity::Warning);
        assert!(
            flow.message.contains("(0,1)-(0,2)"),
            "message {:?} lacks the pocket valve",
            flow.message
        );
    }

    #[test]
    fn leak_pairs_are_the_plans_with_coordinates() {
        use fpva_grid::{FpvaBuilder, PortKind, Side};
        // A source on the west and another beside the sink on the south
        // row: the plan leaves 8 ordered leak pairs untestable, where a
        // zero-observability scan over all vectors finds 4.
        let f = FpvaBuilder::new(3, 4)
            .port(2, 0, Side::West, PortKind::Source)
            .port(2, 2, Side::South, PortKind::Source)
            .port(2, 3, Side::South, PortKind::Sink)
            .build()
            .unwrap();
        let pairs = Atpg::new()
            .generate(&f)
            .unwrap()
            .untestable_pairs()
            .to_vec();
        assert_eq!(pairs.len(), 8, "{pairs:?}");
        let diags = lint_chip("two_sources", &f);
        let leak = diags
            .iter()
            .find(|d| d.check == "leak-observability")
            .expect("the plan's untestable pairs must trigger the leak lint");
        assert_eq!(leak.severity, Severity::Info);
        assert!(leak.message.starts_with("8 "), "{:?}", leak.message);
        let (a, b) = pairs[0];
        let first = format!("{}→{}", f.edge_of(a), f.edge_of(b));
        assert!(
            leak.message.contains(&first),
            "message {:?} lacks the pair {first}",
            leak.message
        );
    }

    #[test]
    fn model_lint_is_clean_on_5x5() {
        let diags = lint_model("table1_5x5", &layouts::table1_5x5(), 2);
        assert!(
            max_severity(&diags) < Some(Severity::Error),
            "unexpected model lint error: {diags:?}"
        );
        assert!(
            diags
                .iter()
                .any(|d| d.check == "presolve" && d.severity == Severity::Info),
            "presolve summary missing: {diags:?}"
        );
    }

    #[test]
    fn chip_without_ports_is_an_error() {
        let f = fpva_grid::FpvaBuilder::new(3, 3).build().unwrap();
        let diags = lint_chip("portless", &f);
        assert_eq!(max_severity(&diags), Some(Severity::Error));
    }

    #[test]
    fn certify_lint_proves_and_audits_two_by_two() {
        // 2×2 needs two paths: the probe sequence proves k=1 infeasible,
        // then k=2 optimal — both verdicts must re-verify exactly.
        let diags = certify_models(
            "full_2x2",
            &layouts::full_array(2, 2),
            Duration::from_secs(60),
        );
        assert!(
            max_severity(&diags) < Some(Severity::Error),
            "certificate audit failed: {diags:?}"
        );
        assert!(
            diags
                .iter()
                .any(|d| d.check == "certify" && d.message.contains("certified exactly")),
            "no certified probe reported: {diags:?}"
        );
        assert!(
            diags
                .iter()
                .any(|d| d.message.contains("cover uses 2 path(s)")),
            "expected a two-path certified cover: {diags:?}"
        );
    }

    #[test]
    fn every_emitted_check_is_listed() {
        // The chips `fpva-lint` audits, through every pass it runs
        // (`certify` on the smallest chip only: it solves MILPs).
        let mut chips: Vec<(&str, Fpva)> = layouts::table1()
            .into_iter()
            .map(|e| (e.name, e.fpva))
            .collect();
        chips.extend(example_chips());
        let mut diags = certify_models(
            "full_2x2",
            &layouts::full_array(2, 2),
            Duration::from_secs(60),
        );
        for (name, fpva) in &chips {
            diags.extend(lint_chip(name, fpva));
            diags.extend(lint_model(name, fpva, ilp_model::min_cover_paths(fpva)));
        }
        for d in &diags {
            assert!(CHECKS.contains(&d.check), "unlisted check in {d}");
        }
    }

    #[test]
    fn severity_orders_and_prints() {
        assert!(Severity::Info < Severity::Warning && Severity::Warning < Severity::Error);
        assert_eq!(Severity::Warning.to_string(), "warning");
        assert_eq!(max_severity(&[]), None);
    }
}
