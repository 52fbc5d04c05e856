//! Benchmark of the FPVA test-generation pipeline.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload plan|campaign|ilp --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run sets up its inputs from `--seed` several times (the median is
//! `setup_s`), runs the workload's operations closed-loop on one thread
//! for `--seconds`, checks every result, and prints one JSON line last:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. See `README.md` next to this package.

mod adapter;
mod calibrate;
mod gen;
mod run;
mod trace;
mod workload;

use run::{median, Loop, Op};
use std::fmt::Write as _;
use std::time::Instant;
use workload::{Chip, Inputs, Workload};

#[derive(Debug)]
struct Args {
    name: String,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut name = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => name = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = name.ok_or("--workload is required")?;
    let workload = Workload::parse(&name).ok_or(format!("unknown workload {name}"))?;
    Ok(Args {
        name,
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: traced,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: --workload plan|campaign|ilp --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    // Panics inside operations are caught and counted as failed
    // operations; keep their messages to one line each.
    std::panic::set_hook(Box::new(|info| eprintln!("caught {info}")));
    run_benchmark(&args);
}

/// Calibration kernel runs timed before, and again after, each set-up
/// repetition.
const CALIBRATION_RUNS: usize = 5;

/// Linear-interpolated quantile of unsorted samples.
fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The highest percentile, in steps of 5 up to 99, with at least ten of
/// `n` samples beyond it; the median when `n < 20`.
fn tail_quantile(n: usize) -> f64 {
    [0.99, 0.95, 0.9, 0.85, 0.8, 0.75, 0.7, 0.65, 0.6, 0.55]
        .into_iter()
        .find(|q| (1.0 - q) * n as f64 >= 10.0 - 1e-9)
        .unwrap_or(0.5)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
}

impl Report {
    fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }
}

/// The workload's own family: plan, sim or ilp.
fn main_family(workload: Workload) -> usize {
    match workload {
        Workload::Plan => 0,
        Workload::Campaign => 1,
        Workload::Ilp => 2,
    }
}

/// Mean of the per-operation latencies of the workload's own family at
/// the reference host speed, the base of the tracing-overhead ratio.
fn main_mean(workload: Workload, lp: &Loop) -> f64 {
    let lat = lp.latencies(main_family(workload));
    ratio(lat.iter().map(|(_, m)| m).sum(), lat.len() as f64)
}

fn run_benchmark(args: &Args) {
    let w = args.workload;
    trace::set_enabled(args.trace);
    // Each set-up repetition is scaled to the reference host speed by the
    // calibration kernel timed right before and right after it, so a
    // drift in host speed between set-up and the loop does not move
    // `setup_s`.
    let reps = w.setup_repeats();
    let mut setup_secs = Vec::new();
    let mut prints = Vec::new();
    let mut inputs: Option<Inputs> = None;
    for rep in 0..reps {
        trace::set_phase(if rep + 1 == reps {
            "setup"
        } else {
            "setup.warm"
        });
        let mut cal = calibrate::sample(CALIBRATION_RUNS);
        let t = Instant::now();
        let built = workload::setup(w, args.seed);
        let secs = t.elapsed().as_secs_f64();
        cal.extend(calibrate::sample(CALIBRATION_RUNS));
        setup_secs.push(secs * calibrate::REFERENCE_SECS / median(&cal));
        prints.push(built.fingerprint);
        inputs = Some(built);
    }
    let inputs = inputs.expect("at least one set-up repetition");
    let mut attempted = inputs.attempted;
    let mut failures = inputs.failures.clone();
    if prints.iter().any(|&p| p != prints[0]) {
        failures.push((
            "inputs".into(),
            "set-up repetitions drew different inputs".into(),
        ));
    }

    // Timed part. The traced run first runs the same loop with recording
    // off on half the budget, so its overhead is measured in one process.
    let (lp, overhead) = if args.trace {
        trace::set_enabled(false);
        let base = run::run_loop(w, &inputs, args.seconds / 2.0);
        trace::set_enabled(true);
        trace::set_phase("loop");
        let traced = run::run_loop(w, &inputs, args.seconds / 2.0);
        let overhead = ratio(main_mean(w, &traced), main_mean(w, &base)) - 1.0;
        (traced, overhead)
    } else {
        (run::run_loop(w, &inputs, args.seconds), 0.0)
    };
    attempted += lp.attempted;
    failures.extend(lp.failures.iter().cloned());

    // The plan family: its chips and first-run plans. The checks also
    // cover the set-up plans behind the campaigns.
    let plan_chips: Vec<&Chip> = inputs.plan.iter().collect();
    let plans: Vec<Option<&fpva_atpg::TestPlan>> = lp.plans.iter().map(Option::as_ref).collect();
    trace::set_phase("check");
    let checked = plan_chips
        .iter()
        .zip(&plans)
        .filter_map(|(c, p)| Some((*c, (*p)?)))
        .chain(inputs.sim.iter().map(|s| (&s.chip, &s.plan)));
    for (chip, plan) in checked {
        attempted += 1;
        if let Err(e) = run::check_plan(chip, plan) {
            failures.push((chip.id.clone(), e));
        }
    }

    let mut report = Report {
        metrics: Vec::new(),
        notes: Vec::new(),
    };
    let vectors: usize = plans.iter().flatten().map(|p| p.vector_count()).sum();
    let untestable: usize = plans
        .iter()
        .flatten()
        .map(|p| {
            p.untestable_open().len() + p.untestable_closed().len() + p.untestable_pairs().len()
        })
        .sum();
    let probed = lp.probes.iter().filter_map(|p| p.first.as_ref()).count();
    let decided = lp
        .probes
        .iter()
        .filter_map(|p| p.first.as_ref())
        .filter(|o| run::verdict(o.status).is_some())
        .count();
    let exact = format!("vectors={vectors} untestable={untestable} ilp_decided={decided}/{probed}");
    report.notes.push(format!(
        "inputs seed={} fingerprint={:016x}",
        args.seed, inputs.fingerprint
    ));
    report.notes.push(format!(
        "complete passes plan={} sim={} ilp={}",
        lp.family(0).passes(),
        lp.family(1).passes(),
        lp.family(2).passes()
    ));

    if args.trace {
        per_layer(
            &mut report,
            &inputs,
            &lp,
            &plan_chips,
            &plans,
            overhead,
            &mut attempted,
            &mut failures,
        );
    } else {
        // Every end-to-end time is at the reference host speed.
        let scale = lp.host_scale();
        let lat = lp.latencies(0);
        let valves: usize = lat
            .iter()
            .map(|(op, _)| match op {
                Op::Plan(i) => inputs.plan[*i].fpva.valve_count(),
                _ => 0,
            })
            .sum();
        let plan_lat: Vec<f64> = lat.into_iter().map(|(_, m)| m).collect();
        let (mut trials, mut campaign_s, mut pairs, mut audit_s) = (0, 0.0, 0, 0.0);
        for (op, m) in lp.latencies(1) {
            match op {
                Op::Campaign(i) => {
                    trials += lp.trials[i];
                    campaign_s += m;
                }
                Op::Audit(i) => {
                    pairs += lp.pairs[i];
                    audit_s += m;
                }
                _ => {}
            }
        }
        let (mut probe_lat, mut proof_lat) = (Vec::new(), Vec::new());
        for (op, m) in lp.latencies(2) {
            match op {
                Op::First(_) => probe_lat.push(m),
                Op::Proof(_) => proof_lat.push(m),
                _ => {}
            }
        }
        let plan_tail = tail_quantile(plan_lat.len());
        let probe_tail = tail_quantile(probe_lat.len());
        report.notes.push(format!(
            "plan_s.tail = p{:.0} of {} chips; ilp_probe_s.tail = p{:.0} of {} probes",
            plan_tail * 100.0,
            plan_lat.len(),
            probe_tail * 100.0,
            probe_lat.len()
        ));
        report.notes.push(format!(
            "per pass: {trials} campaign trials, {pairs} audited pairs; mean host scale {scale:.4} (times below are at the reference speed, each sample scaled by its nearest calibration runs)"
        ));
        report.add("setup_s", median(&setup_secs), "s");
        report.add("plan_s.p50", quantile(&plan_lat, 0.5), "s");
        report.add("plan_s.tail", quantile(&plan_lat, plan_tail), "s");
        report.add(
            "plan_valves_per_s",
            ratio(valves as f64, plan_lat.iter().sum()),
            "valves/s",
        );
        report.add("vectors", vectors as f64, "count");
        report.add("untestable", untestable as f64, "count");
        report.add("trials_per_s", ratio(trials as f64, campaign_s), "sets/s");
        report.add("audit_pairs_per_s", ratio(pairs as f64, audit_s), "pairs/s");
        report.add("ilp_probe_s.p50", quantile(&probe_lat, 0.5), "s");
        report.add("ilp_probe_s.tail", quantile(&probe_lat, probe_tail), "s");
        report.add("ilp_decided", ratio(decided as f64, probed as f64), "share");
        report.add("ilp_proof_s.p50", quantile(&proof_lat, 0.5), "s");
        report.add("peak_rss_mb", peak_rss_mb(), "MB");
    }

    let failed = failures.len();
    let correct = failed == 0;
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for note in &report.notes {
        println!("# {note}");
    }
    println!(
        "# exact {exact} digest={:016x}",
        gen::fingerprint([exact.as_str()])
    );
    println!(
        "# fail_rate = {failed}/{attempted} = {}",
        ratio(failed as f64, attempted as f64)
    );
    for (id, reason) in &failures {
        let chip_id = id.split('#').next().unwrap_or(id);
        let spec = inputs
            .plan
            .iter()
            .chain(inputs.ilp.iter().map(|i| &i.chip))
            .find(|c| c.id == chip_id)
            .and_then(|c| c.spec.as_deref())
            .unwrap_or("fixed layout");
        println!("# FAILED {id}: {reason} [{spec}]");
    }
    for (name, value, unit) in &report.metrics {
        println!("# {name:<32} {value:>16.6} {unit}");
    }
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in report.metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    println!("{json}");
}

/// The traced run's per-layer metrics, plus the attribution work only the
/// traced run does: the phase-by-phase plans (checked against
/// `generate`), standalone presolves, and the Table I rows and fixed ILP
/// instances a workload does not run itself.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    report: &mut Report,
    inputs: &Inputs,
    lp: &Loop,
    plan_chips: &[&Chip],
    plans: &[Option<&fpva_atpg::TestPlan>],
    overhead: f64,
    attempted: &mut usize,
    failures: &mut Vec<(String, String)>,
) {
    trace::set_phase("attrib");
    let mut phased = Vec::new();
    for (chip, plan) in plan_chips.iter().zip(plans) {
        if let Some(plan) = plan {
            *attempted += 1;
            match workload::phased(chip, plan) {
                Ok(p) => phased.push(((*chip).clone(), p)),
                Err(e) => failures.push((chip.id.clone(), e)),
            }
        }
    }
    for item in &inputs.ilp {
        for (_, model) in &item.models {
            adapter::presolve_once(model, &item.chip.id);
        }
    }

    // Baseline rows: Table I rows from the plans the run already holds
    // (the plan family's, then set-up's behind the campaigns), generating
    // only the rows no input holds; likewise for the fixed ILP instances.
    trace::set_phase("baseline");
    let mut table1: Vec<(Chip, adapter::PhasedPlan)> = Vec::new();
    for chip in workload::table1_chips() {
        let planned = if let Some((_, p)) = phased.iter().find(|(c, _)| c.id == chip.id) {
            Ok(*p)
        } else if let Some(item) = inputs.sim.iter().find(|s| s.chip.id == chip.id) {
            *attempted += 1;
            workload::phased(&item.chip, &item.plan)
        } else {
            *attempted += 1;
            workload::caught(|| {
                trace::span("atpg.generate", &chip.id, || {
                    fpva_atpg::Atpg::new().generate(&chip.fpva)
                })
                .map_err(|e| e.to_string())
            })
            .and_then(|plan| workload::phased(&chip, &plan))
        };
        match planned {
            Ok(p) => table1.push((chip, p)),
            Err(e) => failures.push((chip.id.clone(), e)),
        }
    }
    let missing = workload::missing_ilp_fixed(&inputs.ilp);
    let mut fixed_nodes = Vec::new();
    for (id, _) in gen::ilp_fixed() {
        let mut nodes = adapter::SolveCounters::default();
        for probe in lp
            .probes
            .iter()
            .filter(|p| inputs.ilp[p.item].chip.id == id)
        {
            if let Some(o) = &probe.first {
                nodes.add(o);
            }
        }
        if let Some(item) = missing.iter().find(|i| i.chip.id == id) {
            *attempted += 1;
            match run::first_outcomes(item) {
                Ok(outs) => outs.iter().for_each(|o| nodes.add(o)),
                Err(e) => failures.push((id.to_string(), e)),
            }
        }
        fixed_nodes.push((id, nodes.nodes));
    }

    let spans = trace::spans();
    let tot = |name: &str, phase: &str| trace::total(&spans, name, phase);
    let per_pass = |name: &str| trace::per_pass(&spans, name, "loop");

    report.add("grid.build_s", tot("grid.build", "setup"), "s");
    let time = |f: fn(&adapter::PhasedPlan) -> f64| phased.iter().map(|(_, p)| f(p)).sum::<f64>();
    let (t_p, t_c, t_l) = (time(|p| p.t_p), time(|p| p.t_c), time(|p| p.t_l));
    report.add("atpg.hierarchy_s", t_p, "s");
    report.add("atpg.cutset_s", t_c, "s");
    report.add("atpg.leakage_s", t_l, "s");
    report.add("atpg.leakage_share", ratio(t_l, t_p + t_c + t_l), "share");
    let sum = |f: fn(&adapter::PhasedPlan) -> usize| {
        phased.iter().map(|(_, p)| f(p)).sum::<usize>() as f64
    };
    report.add("atpg.n_p", sum(|p| p.n_p), "count");
    report.add("atpg.n_c", sum(|p| p.n_c), "count");
    report.add("atpg.n_l", sum(|p| p.n_l), "count");
    let ours: usize = table1.iter().map(|(_, p)| p.n_p + p.n_c + p.n_l).sum();
    let paper: usize = table1
        .iter()
        .filter_map(|(c, _)| c.paper)
        .map(|p| p.n_p + p.n_c + p.n_l)
        .sum();
    report.add("atpg.vs_paper", ratio(ours as f64, paper as f64), "share");
    let count = |f: fn(&fpva_atpg::TestPlan) -> usize| {
        plans.iter().flatten().map(|p| f(p)).sum::<usize>() as f64
    };
    report.add(
        "atpg.untestable_open",
        count(|p| p.untestable_open().len()),
        "count",
    );
    report.add(
        "atpg.untestable_closed",
        count(|p| p.untestable_closed().len()),
        "count",
    );
    report.add(
        "atpg.untestable_pairs",
        count(|p| p.untestable_pairs().len()),
        "count",
    );
    table1.sort_by_key(|(c, _)| c.fpva.cell_count());
    for (chip, p) in &table1 {
        let row = chip.id.trim_start_matches("table1_");
        report.add(format!("atpg.table1.{row}.t_p_s"), p.t_p, "s");
        report.add(format!("atpg.table1.{row}.t_c_s"), p.t_c, "s");
        report.add(format!("atpg.table1.{row}.t_l_s"), p.t_l, "s");
        report.add(format!("atpg.table1.{row}.n_p"), p.n_p as f64, "count");
        report.add(format!("atpg.table1.{row}.n_l"), p.n_l as f64, "count");
    }
    report.add("atpg.ilp_model_s", tot("atpg.ilp_model", "setup"), "s");
    report.add("sim.suite_s", tot("sim.suite", "setup"), "s");
    report.add("sim.context_s", tot("sim.context", "setup"), "s");

    let kernel_sum = |records: &[Option<adapter::KernelRecord>]| {
        records
            .iter()
            .flatten()
            .map(adapter::kernel_counters)
            .fold((0, 0, 0), |a, b| (a.0 + b.0, a.1 + b.1, a.2 + b.2))
    };
    let campaign_s = per_pass("sim.campaign");
    let (blocks, word_passes, lanes) = kernel_sum(&lp.campaign_kernel);
    report.add("sim.campaign_s", campaign_s, "s");
    report.add("sim.campaign.blocks", blocks as f64, "count");
    report.add("sim.campaign.word_passes", word_passes as f64, "count");
    report.add(
        "sim.campaign.lane_fill",
        ratio(lanes as f64, 64.0 * blocks as f64),
        "share",
    );
    report.add(
        "sim.campaign.passes_per_block",
        ratio(word_passes as f64, blocks as f64),
        "count",
    );
    report.add(
        "sim.campaign.ns_per_pass",
        ratio(campaign_s * 1e9, word_passes as f64),
        "ns",
    );
    let audit2_s = per_pass("sim.audit2");
    let (a_blocks, a_passes, _) = kernel_sum(&lp.audit_kernel);
    report.add("sim.audit2_s", audit2_s, "s");
    report.add("sim.audit2.word_passes", a_passes as f64, "count");
    report.add(
        "sim.audit2.passes_per_block",
        ratio(a_passes as f64, a_blocks as f64),
        "count",
    );
    report.add(
        "sim.audit2.ns_per_pass",
        ratio(audit2_s * 1e9, a_passes as f64),
        "ns",
    );
    report.add("sim.audit1_s", tot("sim.audit1", "check"), "s");

    report.add("ilp.presolve_s", tot("ilp.presolve", "attrib"), "s");
    let mut first = adapter::SolveCounters::default();
    let mut proof = adapter::SolveCounters::default();
    let mut proof_decided = 0;
    let mut leaves = 0;
    for probe in &lp.probes {
        if let Some(o) = &probe.first {
            first.add(o);
        }
        if let Some(o) = &probe.proof {
            proof.add(o);
            proof_decided += usize::from(run::verdict(o.status).is_some());
        }
        if let Some(c) = &probe.cert {
            leaves += adapter::certified_leaves(c);
        }
    }
    let first_s = per_pass("ilp.first");
    report.add("ilp.first.solve_s", first_s, "s");
    report.add("ilp.first.nodes", first.nodes as f64, "count");
    report.add(
        "ilp.first.lp_iterations",
        first.lp_iterations as f64,
        "count",
    );
    report.add(
        "ilp.first.refactorizations",
        first.refactorizations as f64,
        "count",
    );
    report.add("ilp.first.dual_pivots", first.dual_pivots as f64, "count");
    report.add("ilp.first.limit_nodes", first.limit_nodes as f64, "count");
    report.add(
        "ilp.first.nodes_per_s",
        ratio(first.nodes as f64, first_s),
        "1/s",
    );
    report.add(
        "ilp.first.pivots_per_node",
        ratio(first.lp_iterations as f64, first.nodes as f64),
        "count",
    );
    report.add(
        "ilp.first.warm_ratio",
        ratio(
            first.warm_resolves as f64,
            (first.warm_resolves + first.cold_restarts) as f64,
        ),
        "share",
    );
    for (id, nodes) in &fixed_nodes {
        report.add(format!("ilp.nodes.{id}"), *nodes as f64, "count");
    }
    report.add("ilp.proof.solve_s", per_pass("ilp.proof"), "s");
    report.add("ilp.proof.nodes", proof.nodes as f64, "count");
    report.add(
        "ilp.proof.lp_iterations",
        proof.lp_iterations as f64,
        "count",
    );
    report.add("ilp.proof.decided", proof_decided as f64, "count");
    let certify_s = per_pass("ilp.certify");
    report.add("ilp.certify_s", certify_s, "s");
    report.add("ilp.certify.leaves", leaves as f64, "count");
    report.add(
        "ilp.certify.leaves_per_s",
        ratio(leaves as f64, certify_s),
        "1/s",
    );
    report.add("trace.overhead_share", overhead, "share");

    report.notes.push(format!(
        "exact-trace first_nodes={} proof_nodes={} campaign_word_passes={word_passes} audit2_word_passes={a_passes} fixed_nodes={fixed_nodes:?}",
        first.nodes, proof.nodes
    ));
    write_trace(&spans);
}

/// Writes the spans as JSON lines under `trace/` in this package, and a
/// self-time table to standard error.
fn write_trace(spans: &[trace::Span]) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/trace");
    let path = format!("{dir}/spans-{}.jsonl", std::process::id());
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, trace::to_jsonl(spans)))
    {
        Ok(()) => eprintln!("spans written to {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
    eprintln!(
        "{:<20} {:>8} {:>12} {:>12}",
        "span", "count", "total_s", "self_s"
    );
    for (name, (n, total, own)) in trace::self_times(spans) {
        eprintln!("{name:<20} {n:>8} {total:>12.6} {own:>12.6}");
    }
}
