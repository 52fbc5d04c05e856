//! The timed loop and the untimed correctness checks.
//!
//! The loop is closed: one operation at a time on one thread. It
//! interleaves the families of operations — plan, sim, ilp and the
//! calibration kernel — by their time shares, so every family sees the
//! same stretch of the run and the calibration kernel sees the host speed
//! the others saw. An operation's latency is the median of its repeats;
//! metrics then take medians and percentiles over operations.

use crate::adapter::KernelRecord;
use crate::trace;
use crate::workload::{caught, Chip, IlpItem, Inputs, Workload};
use fpva_atpg::leakage::pair_untestable;
use fpva_atpg::{Atpg, TestPlan};
use fpva_ilp::{
    certify_outcome, CertifySummary, MilpOptions, MilpOutcome, MilpSolver, SolveStatus,
};
use fpva_sim::{audit, campaign, CampaignConfig, Fault};
use std::hint::black_box;
use std::time::Instant;

/// Branch-and-bound node budget per product-mode probe. A node budget and
/// no wall-clock limit make work and verdicts repeat exactly.
pub const FIRST_NODES: usize = 100;
/// Node budget per proof-mode probe.
pub const PROOF_NODES: usize = 50;

/// One operation of the timed loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `Atpg::generate` on plan chip `i`.
    Plan(usize),
    /// The Section IV campaign on sim item `i`.
    Campaign(usize),
    /// The exhaustive two-fault audit on sim item `i`.
    Audit(usize),
    /// Product-mode solve of probe `p`.
    First(usize),
    /// Proof-mode solve of probe `p` plus `certify_outcome`.
    Proof(usize),
    /// One run of the host-speed calibration kernel.
    Calibrate,
}

/// Time share of the calibration kernel in every workload.
const CALIBRATION_SHARE: f64 = 0.05;

/// Calibration runs, nearest in time, whose median scales one operation
/// sample to the reference host speed.
const NEAREST: usize = 9;

/// One family's operations and the loop's bookkeeping for them.
#[derive(Debug, Default)]
pub struct Family {
    share: f64,
    ops: Vec<Op>,
    /// `(midpoint, seconds)` of each operation's successful runs, the
    /// midpoint in seconds since the loop started.
    samples: Vec<Vec<(f64, f64)>>,
    runs: Vec<usize>,
    cursor: usize,
    used: f64,
}

impl Family {
    fn new(share: f64, ops: Vec<Op>) -> Self {
        Family {
            share,
            samples: vec![Vec::new(); ops.len()],
            runs: vec![0; ops.len()],
            ops,
            cursor: 0,
            used: 0.0,
        }
    }

    fn first_pass_done(&self) -> bool {
        self.runs.iter().all(|&r| r > 0)
    }

    /// Complete passes: the fewest runs of any operation.
    pub fn passes(&self) -> usize {
        self.runs.iter().copied().min().unwrap_or(0)
    }
}

pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// One ILP probe: cover size `k` of ILP item `item`, with its first-run
/// outcomes.
#[derive(Debug)]
pub struct Probe {
    pub item: usize,
    pub model: usize,
    pub k: usize,
    pub first: Option<MilpOutcome>,
    pub proof: Option<MilpOutcome>,
    pub cert: Option<CertifySummary>,
}

impl Probe {
    /// The span request id: instance and cover size.
    fn id(&self, inputs: &Inputs) -> String {
        format!("{}#k{}", inputs.ilp[self.item].chip.id, self.k)
    }
}

#[derive(Debug, Default)]
pub struct Loop {
    /// Plan, sim, ilp and calibration families, in that order.
    families: [Family; 4],
    /// First-run plan of each plan chip.
    pub plans: Vec<Option<TestPlan>>,
    /// First-run trials and audited pairs of each sim item.
    pub trials: Vec<usize>,
    pub pairs: Vec<usize>,
    /// First-run kernel counters of each sim item's campaign and audit.
    pub campaign_kernel: Vec<Option<KernelRecord>>,
    pub audit_kernel: Vec<Option<KernelRecord>>,
    pub probes: Vec<Probe>,
    pub attempted: usize,
    pub failures: Vec<(String, String)>,
}

impl Loop {
    pub fn new(workload: Workload, inputs: &Inputs) -> Self {
        let [plan_share, sim_share, ilp_share] = workload.shares();
        let probes: Vec<Probe> = inputs
            .ilp
            .iter()
            .enumerate()
            .flat_map(|(item, it)| {
                it.models
                    .iter()
                    .enumerate()
                    .map(move |(model, (k, _))| Probe {
                        item,
                        model,
                        k: *k,
                        first: None,
                        proof: None,
                        cert: None,
                    })
            })
            .collect();
        let plan_ops = (0..inputs.plan.len()).map(Op::Plan).collect();
        let sim_ops = (0..inputs.sim.len())
            .flat_map(|i| [Op::Campaign(i), Op::Audit(i)])
            .collect();
        let ilp_ops = (0..probes.len())
            .flat_map(|p| [Op::First(p), Op::Proof(p)])
            .collect();
        let n_sim = inputs.sim.len();
        Loop {
            families: [
                Family::new(plan_share, plan_ops),
                Family::new(sim_share, sim_ops),
                Family::new(ilp_share, ilp_ops),
                Family::new(CALIBRATION_SHARE, vec![Op::Calibrate]),
            ],
            plans: inputs.plan.iter().map(|_| None).collect(),
            trials: vec![0; n_sim],
            pairs: vec![0; n_sim],
            campaign_kernel: vec![None; n_sim],
            audit_kernel: vec![None; n_sim],
            probes,
            attempted: 0,
            failures: Vec::new(),
        }
    }

    fn fail(&mut self, id: &str, reason: String) {
        self.failures.push((id.to_string(), reason));
    }

    pub fn family(&self, f: usize) -> &Family {
        &self.families[f]
    }

    /// The run's mean host speed: `REFERENCE_SECS` over the calibration
    /// kernel's median time (for the report only).
    pub fn host_scale(&self) -> f64 {
        let secs = median(&self.calibration().map(|(_, d)| d).collect::<Vec<_>>());
        if secs > 0.0 {
            crate::calibrate::REFERENCE_SECS / secs
        } else {
            1.0
        }
    }

    fn calibration(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.families[3].samples.iter().flatten().copied()
    }

    /// Latency of each operation of family `f` that succeeded at least
    /// once, at the reference host speed: every sample is scaled by the
    /// calibration runs nearest to it in time, and the operation's latency
    /// is the median of its scaled samples. The host's speed drifts within
    /// a run, so a run-wide factor would leave an operation timed during a
    /// slow stretch slow.
    pub fn latencies(&self, f: usize) -> Vec<(Op, f64)> {
        let cal: Vec<(f64, f64)> = self.calibration().collect();
        let fam = &self.families[f];
        fam.ops
            .iter()
            .zip(&fam.samples)
            .filter(|(_, s)| !s.is_empty())
            .map(|(op, s)| {
                let scaled: Vec<f64> = s
                    .iter()
                    .map(|&(at, secs)| secs * local_scale(&cal, at))
                    .collect();
                (*op, median(&scaled))
            })
            .collect()
    }
}

/// `REFERENCE_SECS` over the median of the `NEAREST` calibration runs
/// closest to time `at`; `cal` is in time order.
fn local_scale(cal: &[(f64, f64)], at: f64) -> f64 {
    let (mut lo, mut hi) = {
        let split = cal.partition_point(|&(t, _)| t < at);
        (split, split)
    };
    while hi - lo < NEAREST.min(cal.len()) {
        if lo > 0 && (hi == cal.len() || at - cal[lo - 1].0 <= cal[hi].0 - at) {
            lo -= 1;
        } else {
            hi += 1;
        }
    }
    let secs = median(&cal[lo..hi].iter().map(|&(_, d)| d).collect::<Vec<_>>());
    if secs > 0.0 {
        crate::calibrate::REFERENCE_SECS / secs
    } else {
        1.0
    }
}

pub fn verdict(status: SolveStatus) -> Option<bool> {
    match status {
        SolveStatus::Optimal | SolveStatus::Feasible => Some(true),
        SolveStatus::Infeasible => Some(false),
        SolveStatus::Unbounded | SolveStatus::Unknown => None,
    }
}

fn first_options() -> MilpOptions {
    MilpOptions {
        node_limit: Some(FIRST_NODES),
        time_limit: None,
        stop_at_first: true,
        ..MilpOptions::default()
    }
}

fn proof_options() -> MilpOptions {
    MilpOptions {
        node_limit: Some(PROOF_NODES),
        time_limit: None,
        certificate: true,
        ..MilpOptions::default()
    }
}

/// Product-mode outcomes of every probe of `item`, outside the timed loop
/// (the traced run's node counts for fixed instances a workload does not
/// probe itself).
pub fn first_outcomes(item: &IlpItem) -> Result<Vec<MilpOutcome>, String> {
    item.models
        .iter()
        .map(|(k, model)| {
            let id = format!("{}#k{k}", item.chip.id);
            caught(|| trace::span("ilp.first", &id, || solve(first_options(), model)))
        })
        .collect()
}

fn solve(options: MilpOptions, model: &fpva_ilp::Model) -> Result<MilpOutcome, String> {
    MilpSolver::with_options(options)
        .solve(model)
        .map_err(|e| e.to_string())
}

fn plan_op(lp: &mut Loop, chip: &Chip, i: usize, first: bool) -> bool {
    let r = caught(|| {
        trace::span("atpg.generate", &chip.id, || {
            Atpg::new().generate(&chip.fpva)
        })
        .map_err(|e| e.to_string())
    });
    match r {
        Ok(plan) if first => lp.plans[i] = Some(plan),
        Ok(plan) => {
            black_box(plan);
        }
        Err(e) => {
            lp.fail(&chip.id, e);
            return false;
        }
    }
    true
}

fn campaign_op(lp: &mut Loop, inputs: &Inputs, i: usize, first: bool) -> bool {
    let item = &inputs.sim[i];
    let id = &item.chip.id;
    let config = CampaignConfig {
        trials: item.trials,
        fault_counts: (1..=5).collect(),
        seed: inputs.campaign_seed,
        threads: 1,
        ..CampaignConfig::default()
    };
    let r = caught(|| {
        Ok(trace::span("sim.campaign", id, || {
            campaign::run_in(&item.chip.fpva, &item.suite, &config, &item.ctx)
        }))
    });
    match r {
        Ok((rows, kernel)) => {
            let escaped: usize = rows.iter().map(|r| r.trials - r.detected).sum();
            if escaped > 0 {
                lp.fail(id, format!("{escaped} campaign trials escaped"));
            }
            if first {
                lp.trials[i] = rows.iter().map(|r| r.trials).sum();
                lp.campaign_kernel[i] = Some(kernel);
            }
            escaped == 0
        }
        Err(e) => {
            lp.fail(id, e);
            false
        }
    }
}

fn audit_op(lp: &mut Loop, inputs: &Inputs, i: usize, first: bool) -> bool {
    let item = &inputs.sim[i];
    let id = &item.chip.id;
    let r = caught(|| {
        Ok(trace::span("sim.audit2", id, || {
            audit::two_fault_audit(&item.chip.fpva, &item.suite, 1)
        }))
    });
    match r {
        Ok(report) => {
            let undetected = report.undetected.len();
            if undetected > 0 {
                lp.fail(id, format!("{undetected} two-fault pairs undetected"));
            }
            if first {
                lp.pairs[i] = report.total;
                lp.audit_kernel[i] = Some(crate::adapter::audit_kernel(report));
            }
            undetected == 0
        }
        Err(e) => {
            lp.fail(id, e);
            false
        }
    }
}

/// Product mode: stop at the first cover.
fn first_op(lp: &mut Loop, inputs: &Inputs, p: usize, first: bool) -> bool {
    let id = lp.probes[p].id(inputs);
    let model = &inputs.ilp[lp.probes[p].item].models[lp.probes[p].model].1;
    match caught(|| trace::span("ilp.first", &id, || solve(first_options(), model))) {
        Ok(out) => {
            if first {
                lp.probes[p].first = Some(out);
            }
            true
        }
        Err(e) => {
            lp.fail(&id, format!("product probe: {e}"));
            false
        }
    }
}

/// Proof mode: a complete tree within the node budget, and every decided
/// verdict re-checked exactly by `certify_outcome` and compared with the
/// product-mode verdict.
fn proof_op(lp: &mut Loop, inputs: &Inputs, p: usize, first: bool) -> bool {
    let id = lp.probes[p].id(inputs);
    let model = &inputs.ilp[lp.probes[p].item].models[lp.probes[p].model].1;
    let r = caught(|| {
        let out = trace::span("ilp.proof", &id, || solve(proof_options(), model))?;
        let cert = match verdict(out.status) {
            Some(_) => Some(
                trace::span("ilp.certify", &id, || certify_outcome(model, &out))
                    .map_err(|e| format!("certificate rejected: {e}"))?,
            ),
            None => None,
        };
        Ok((out, cert))
    });
    match r {
        Ok((out, cert)) => {
            let product = lp.probes[p].first.as_ref().and_then(|o| verdict(o.status));
            if let (Some(a), Some(b)) = (product, verdict(out.status)) {
                if a != b {
                    lp.fail(&id, format!("product says feasible={a}, proof says {b}"));
                    return false;
                }
            }
            if first {
                lp.probes[p].proof = Some(out);
                lp.probes[p].cert = cert;
            }
            true
        }
        Err(e) => {
            lp.fail(&id, format!("proof probe: {e}"));
            false
        }
    }
}

/// Runs one operation; only program operations count as attempted.
fn run_op(lp: &mut Loop, inputs: &Inputs, op: Op, first: bool) -> bool {
    if op != Op::Calibrate {
        lp.attempted += 1;
    }
    match op {
        Op::Plan(i) => plan_op(lp, &inputs.plan[i], i, first),
        Op::Campaign(i) => campaign_op(lp, inputs, i, first),
        Op::Audit(i) => audit_op(lp, inputs, i, first),
        Op::First(p) => first_op(lp, inputs, p, first),
        Op::Proof(p) => proof_op(lp, inputs, p, first),
        Op::Calibrate => {
            black_box(crate::calibrate::kernel());
            true
        }
    }
}

/// The timed part of a run: for `seconds`, always running next the family
/// furthest behind its time share, then finishing any family whose first
/// pass is incomplete.
pub fn run_loop(workload: Workload, inputs: &Inputs, seconds: f64) -> Loop {
    let mut lp = Loop::new(workload, inputs);
    let start = Instant::now();
    loop {
        let over = start.elapsed().as_secs_f64() >= seconds;
        let next = (0..4)
            .filter(|&f| {
                let fam = &lp.families[f];
                fam.share > 0.0 && !fam.ops.is_empty() && (!over || !fam.first_pass_done())
            })
            .min_by(|&a, &b| {
                let (fa, fb) = (&lp.families[a], &lp.families[b]);
                (fa.used / fa.share).total_cmp(&(fb.used / fb.share))
            });
        let Some(f) = next else { break };
        let index = lp.families[f].cursor;
        let op = lp.families[f].ops[index];
        let first = lp.families[f].runs[index] == 0;
        let t = Instant::now();
        let ok = run_op(&mut lp, inputs, op, first);
        let dt = t.elapsed().as_secs_f64();
        let fam = &mut lp.families[f];
        if ok {
            let at = t.duration_since(start).as_secs_f64() + dt / 2.0;
            fam.samples[index].push((at, dt));
        }
        fam.runs[index] += 1;
        fam.used += dt;
        fam.cursor = (index + 1) % fam.ops.len();
    }
    lp
}

/// Correctness of one plan: the single-fault and leak audits detect every
/// stuck-at fault and every adjacent control leak the plan does not list
/// as untestable, every listed leak pair is certified untestable, and a
/// Table I layout has the paper's `n_c`.
pub fn check_plan(chip: &Chip, plan: &TestPlan) -> Result<(), String> {
    caught(|| {
        let suite = plan.to_suite(&chip.fpva);
        let report = trace::span("sim.audit1", &chip.id, || {
            let mut stuck = audit::single_fault_coverage(&chip.fpva, &suite);
            stuck
                .undetected
                .extend(audit::leak_coverage(&chip.fpva, &suite).undetected);
            stuck
        });
        for fault in &report.undetected {
            let listed = match *fault {
                Fault::StuckAt0(v) => plan.untestable_open().contains(&v),
                Fault::StuckAt1(v) => plan.untestable_closed().contains(&v),
                Fault::ControlLeak { actuator, victim } => {
                    plan.untestable_pairs().contains(&(actuator, victim))
                }
            };
            if !listed {
                return Err(format!("{fault:?} undetected but not listed untestable"));
            }
        }
        for &(a, b) in plan.untestable_pairs() {
            if !pair_untestable(&chip.fpva, a, b) {
                return Err(format!(
                    "leak pair ({a}, {b}) uncovered without certificate"
                ));
            }
        }
        if let Some(paper) = chip.paper {
            let n_c = plan.cut_sets().len();
            if n_c != paper.n_c {
                return Err(format!("n_c {n_c} != paper {}", paper.n_c));
            }
        }
        Ok(())
    })
}
