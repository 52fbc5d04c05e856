//! Workload composition and set-up: which chips each family of operations
//! runs on, and everything built before timing starts.

use crate::adapter;
use crate::gen;
use crate::trace;
use fpva_atpg::ilp_model::{cover_model, min_cover_paths};
use fpva_atpg::{Atpg, TestPlan};
use fpva_grid::{layouts, Fpva};
use fpva_ilp::Model;
use fpva_sim::{ChipContext, TestSuite};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Section IV trials per fault count on the `campaign` workload.
pub const PAPER_TRIALS: usize = 10_000;
/// Trials per fault count of the small campaign reference slice.
pub const REF_TRIALS: usize = 1_000;
/// Cover sizes probed per ILP instance: `k = lb .. lb + ILP_PROBES`.
pub const ILP_PROBES: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Plan,
    Campaign,
    Ilp,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "plan" => Some(Workload::Plan),
            "campaign" => Some(Workload::Campaign),
            "ilp" => Some(Workload::Ilp),
            _ => None,
        }
    }

    /// Set-up repetitions; the reported `setup_s` is their median.
    pub fn setup_repeats(self) -> usize {
        match self {
            Workload::Campaign => 3,
            Workload::Plan | Workload::Ilp => 15,
        }
    }

    /// Share of the timed seconds given to the plan, sim and ilp
    /// families. The workload's own family gets most of it; the others run
    /// a small fixed reference slice, so every workload reports every
    /// metric and a change that should not touch a family shows it did
    /// not.
    pub fn shares(self) -> [f64; 3] {
        match self {
            Workload::Plan => [0.9, 0.05, 0.05],
            Workload::Campaign => [0.05, 0.9, 0.05],
            Workload::Ilp => [0.05, 0.05, 0.9],
        }
    }
}

/// Counts the paper reports for a Table I layout.
#[derive(Debug, Clone, Copy)]
pub struct Paper {
    pub n_p: usize,
    pub n_c: usize,
    pub n_l: usize,
}

#[derive(Debug, Clone)]
pub struct Chip {
    pub id: String,
    pub fpva: Fpva,
    pub paper: Option<Paper>,
    /// The generator's description of a seeded chip, to rebuild it from
    /// a failure report.
    pub spec: Option<String>,
}

#[derive(Debug)]
pub struct SimItem {
    pub chip: Chip,
    /// The plan the suite comes from, built in set-up.
    pub plan: TestPlan,
    pub suite: TestSuite,
    pub ctx: ChipContext,
    pub trials: usize,
}

#[derive(Debug)]
pub struct IlpItem {
    pub chip: Chip,
    pub models: Vec<(usize, Model)>,
}

/// Everything a run builds before timing.
#[derive(Debug)]
pub struct Inputs {
    pub plan: Vec<Chip>,
    pub sim: Vec<SimItem>,
    pub ilp: Vec<IlpItem>,
    pub fingerprint: u64,
    /// Seed of the campaigns' fault-set draws.
    pub campaign_seed: u64,
    /// Set-up steps that failed, as `(id, reason)`.
    pub failures: Vec<(String, String)>,
    pub attempted: usize,
}

fn build(id: &str, f: impl FnOnce() -> Fpva) -> Fpva {
    trace::span("grid.build", id, f)
}

/// The five Table I layouts with the paper's counts.
pub fn table1_chips() -> Vec<Chip> {
    layouts::table1()
        .into_iter()
        .map(|e| {
            let id = format!("table1_{}", e.name);
            // `table1()` builds every layout; rebuilding the one at hand
            // inside the span times one build per chip.
            let fpva = build(&id, || match e.name {
                "5x5" => layouts::table1_5x5(),
                "10x10" => layouts::table1_10x10(),
                "15x15" => layouts::table1_15x15(),
                "20x20" => layouts::table1_20x20(),
                _ => layouts::table1_30x30(),
            });
            Chip {
                id,
                fpva,
                paper: Some(Paper {
                    n_p: e.paper_flow_paths,
                    n_c: e.paper_cut_sets,
                    n_l: e.paper_leakage,
                }),
                spec: None,
            }
        })
        .collect()
}

fn plain(id: &str, f: impl FnOnce() -> Fpva) -> Chip {
    Chip {
        id: id.to_string(),
        fpva: build(id, f),
        paper: None,
        spec: None,
    }
}

fn generated(
    prefix: &str,
    drawn: Vec<(gen::ChipSpec, Fpva)>,
    descriptions: &mut Vec<String>,
) -> Vec<Chip> {
    drawn
        .into_iter()
        .enumerate()
        .map(|(i, (spec, _))| {
            let id = format!("{prefix}{i:02}_{}x{}", spec.rows, spec.cols);
            let fpva = build(&id, || {
                spec.build()
                    .expect("the generator returned an accepted spec")
            });
            descriptions.push(spec.describe());
            Chip {
                id,
                fpva,
                paper: None,
                spec: Some(spec.describe()),
            }
        })
        .collect()
}

/// A fixed corpus and a seeded draw of the same composition, one chip of
/// each in turn, so a slow stretch of the host falls on both alike.
fn alternate(corpus: Vec<Chip>, seeded: Vec<Chip>) -> impl Iterator<Item = Chip> {
    corpus.into_iter().zip(seeded).flat_map(|(c, s)| [c, s])
}

fn ilp_fixed_chips() -> Vec<Chip> {
    gen::ilp_fixed()
        .into_iter()
        .map(|(id, fpva)| plain(id, || fpva))
        .collect()
}

/// The chips of each family — plan, sim with its trials, ilp — and the
/// descriptions of the seeded draws.
type Composed = (Vec<Chip>, Vec<(Chip, usize)>, Vec<Chip>, Vec<String>);

fn compose(workload: Workload, seed: u64) -> Composed {
    let mut descriptions = Vec::new();
    let ref_sim = || vec![(plain("table1_5x5", layouts::table1_5x5), REF_TRIALS)];
    let ref_ilp = || vec![plain("full3x3", || layouts::full_array(3, 3))];
    match workload {
        Workload::Plan => {
            let mut plan = table1_chips();
            plan.extend(alternate(
                generated("cor", gen::plan_corpus(), &mut descriptions),
                generated("gen", gen::plan_chips(seed), &mut descriptions),
            ));
            (plan, ref_sim(), ref_ilp(), descriptions)
        }
        Workload::Campaign => {
            let sim = table1_chips()
                .into_iter()
                .map(|c| (c, PAPER_TRIALS))
                .collect();
            (ilp_fixed_chips(), sim, ref_ilp(), descriptions)
        }
        Workload::Ilp => {
            let mut ilp = ilp_fixed_chips();
            ilp.extend(alternate(
                generated("corsub", gen::ilp_corpus(), &mut descriptions),
                generated("sub", gen::ilp_chips(seed), &mut descriptions),
            ));
            // Seeded subblocks may put a channel on the border, where
            // planning leaves uncertified leak pairs today, so the plan
            // reference slice plans the fixed subblocks only.
            (ilp_fixed_chips(), ref_sim(), ilp, descriptions)
        }
    }
}

pub fn caught<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(p) => Err(panic_message(&*p)),
    }
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    let msg = p
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    format!("panic: {msg}")
}

/// One set-up pass.
pub fn setup(workload: Workload, seed: u64) -> Inputs {
    let (plan, sim_chips, ilp_chips, descriptions) = compose(workload, seed);
    let mut failures = Vec::new();
    let mut attempted = 0;
    let mut sim = Vec::new();
    for (chip, trials) in sim_chips {
        attempted += 1;
        let planned = caught(|| {
            trace::span("atpg.generate", &chip.id, || {
                Atpg::new().generate(&chip.fpva)
            })
            .map_err(|e| e.to_string())
        });
        match planned {
            Ok(plan) => {
                let suite = trace::span("sim.suite", &chip.id, || plan.to_suite(&chip.fpva));
                let ctx = trace::span("sim.context", &chip.id, || ChipContext::build(&chip.fpva));
                sim.push(SimItem {
                    chip,
                    plan,
                    suite,
                    ctx,
                    trials,
                });
            }
            Err(e) => failures.push((chip.id.clone(), e)),
        }
    }
    let ilp = ilp_chips.into_iter().map(ilp_item).collect();
    // Every workload runs campaigns, whose fault sets the program draws
    // from this seed.
    let campaign_seed = seed ^ 0xF97A_2017;
    let fingerprint = gen::fingerprint(
        descriptions
            .iter()
            .map(String::as_str)
            .chain([format!("campaign_seed={campaign_seed:x}").as_str()]),
    );
    Inputs {
        plan,
        sim,
        ilp,
        fingerprint,
        campaign_seed,
        failures,
        attempted,
    }
}

/// The cover models of `chip` at `k = lb .. lb + ILP_PROBES`.
fn ilp_item(chip: Chip) -> IlpItem {
    let lb = min_cover_paths(&chip.fpva);
    let models = (lb..lb + ILP_PROBES)
        .map(|k| {
            let model = trace::span("atpg.ilp_model", &chip.id, || cover_model(&chip.fpva, k));
            (k, model)
        })
        .collect();
    IlpItem { chip, models }
}

/// Fixed ILP instances not in `have`.
pub fn missing_ilp_fixed(have: &[IlpItem]) -> Vec<IlpItem> {
    ilp_fixed_chips()
        .into_iter()
        .filter(|c| !have.iter().any(|h| h.chip.id == c.id))
        .map(ilp_item)
        .collect()
}

/// Re-plans `chip` phase by phase (traced run only).
pub fn phased(chip: &Chip, plan: &TestPlan) -> Result<adapter::PhasedPlan, String> {
    caught(|| adapter::phased_plan(&chip.fpva, &chip.id, plan))
}
