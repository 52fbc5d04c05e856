//! `fpva-lint`: static diagnostics over every benchmark and example chip.
//!
//! Audits the five Table I layouts plus the chips the `examples/` binaries
//! build, both at the chip level (connectivity, the untestable stuck-at-0
//! and stuck-at-1 valves and leak pairs of the chip's generated test plan)
//! and at the cover-model level (constraint-count sanity, coefficient
//! numerics, feasibility under root bound propagation).
//! Prints one diagnostics table and exits nonzero when any finding has
//! `Error` severity, so CI can gate on it.
//!
//! Flags:
//!
//! * `--certify` — additionally solve each chip's cover probes in
//!   proof-logging mode and re-verify every verdict in exact rational
//!   arithmetic (`fpva_ilp::certify_outcome`). Slower: real MILP solves.
//! * `--deny-warnings` — exit nonzero on `Warning` findings, not just
//!   `Error` (for CI gating).
//! * `--allow <check>` — repeatable; findings of that check still print
//!   but never affect the exit code (waive a known, intended warning
//!   such as `custom_biochip`'s `cut-cover` blind spot).
//! * `--only <check>` — repeatable; keep only findings of the named
//!   check(s). Exit code and counts are computed on the filtered set, so
//!   `--only certify` gates on certification findings alone.
//! * `--json` — machine-readable output: one JSON object with the
//!   diagnostics array, per-severity counts and the exit code.
//!
//! A check name that is not in `lint::CHECKS` exits with status 2 and
//! the list of known names, before any pass runs.
//!
//! Diagnostics print in a deterministic order: severity (worst first),
//! then subject, then check, then message text — independent of the
//! order the passes ran in.
//!
//! Run with `cargo run --release -p fpva-bench --bin fpva-lint [-- FLAGS]`.

use std::process::ExitCode;
use std::time::Duration;

use fpva_bench::lint::{self, Diagnostic, Severity};
use fpva_bench::outln;
use fpva_grid::layouts;

/// Wall-clock budget per certified solver probe under `--certify`. At
/// most three probes run per chip, so the whole certification pass is
/// bounded at about a minute per chip.
const PROBE_BUDGET: Duration = Duration::from_secs(10);

struct Options {
    certify: bool,
    deny_warnings: bool,
    json: bool,
    allow: Vec<String>,
    only: Vec<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        certify: false,
        deny_warnings: false,
        json: false,
        allow: Vec::new(),
        only: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--certify" => opts.certify = true,
            "--deny-warnings" => opts.deny_warnings = true,
            "--json" => opts.json = true,
            "--allow" => {
                let check = args
                    .next()
                    .ok_or_else(|| "--allow needs a check name".to_string())?;
                lint::known_check(&check)?;
                opts.allow.push(check);
            }
            "--only" => {
                let check = args
                    .next()
                    .ok_or_else(|| "--only needs a check name".to_string())?;
                lint::known_check(&check)?;
                opts.only.push(check);
            }
            "--help" | "-h" => {
                outln!(
                    "usage: fpva-lint [--certify] [--deny-warnings] [--allow <check>]... \
                     [--only <check>]... [--json]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    Ok(opts)
}

/// Escapes `s` for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn print_json(diags: &[Diagnostic], counts: [usize; 3], chips: usize, exit: u8) {
    outln!("{{");
    outln!("  \"chips\": {chips},");
    outln!("  \"diagnostics\": [");
    for (i, d) in diags.iter().enumerate() {
        let comma = if i + 1 < diags.len() { "," } else { "" };
        outln!(
            "    {{\"severity\": \"{}\", \"subject\": \"{}\", \"check\": \"{}\", \
             \"message\": \"{}\"}}{comma}",
            d.severity,
            json_escape(&d.subject),
            json_escape(d.check),
            json_escape(&d.message)
        );
    }
    outln!("  ],");
    outln!(
        "  \"counts\": {{\"info\": {}, \"warning\": {}, \"error\": {}}},",
        counts[Severity::Info as usize],
        counts[Severity::Warning as usize],
        counts[Severity::Error as usize]
    );
    outln!("  \"exit\": {exit}");
    outln!("}}");
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("fpva-lint: {e}");
            return ExitCode::from(2);
        }
    };

    let mut chips: Vec<(String, fpva_grid::Fpva)> = layouts::table1()
        .into_iter()
        .map(|e| (format!("table1_{}", e.name), e.fpva))
        .collect();
    chips.extend(
        lint::example_chips()
            .into_iter()
            .map(|(n, f)| (n.to_string(), f)),
    );

    let mut diags: Vec<Diagnostic> = Vec::new();
    for (name, fpva) in &chips {
        diags.extend(lint::lint_chip(name, fpva));
        // Audit the model at the probe loop's starting k — any smaller k is
        // provably infeasible (a single path traverses at most cell_count - 1
        // distinct valve edges, so k paths cover at most k * (cell_count - 1)
        // valves).
        let k = fpva_atpg::ilp_model::min_cover_paths(fpva);
        diags.extend(lint::lint_model(name, fpva, k));
        if opts.certify {
            diags.extend(lint::certify_models(name, fpva, PROBE_BUDGET));
        }
    }

    if !opts.only.is_empty() {
        diags.retain(|d| opts.only.iter().any(|o| o == d.check));
    }
    // Deterministic report order: worst severity first, then subject,
    // then check, then message — independent of pass execution order.
    diags.sort_by(|a, b| {
        b.severity
            .cmp(&a.severity)
            .then_with(|| a.subject.cmp(&b.subject))
            .then_with(|| a.check.cmp(b.check))
            .then_with(|| a.message.cmp(&b.message))
    });

    let mut counts = [0usize; 3];
    // Exit severity considers only checks not waived by --allow.
    let mut worst: Option<Severity> = None;
    for d in &diags {
        counts[d.severity as usize] += 1;
        if !opts.allow.iter().any(|a| a == d.check) {
            worst = worst.max(Some(d.severity));
        }
    }
    let deny = if opts.deny_warnings {
        Severity::Warning
    } else {
        Severity::Error
    };
    let exit = u8::from(worst >= Some(deny));

    if opts.json {
        print_json(&diags, counts, chips.len(), exit);
    } else {
        outln!(
            "{:<16} {:<8} {:<18} message",
            "subject",
            "severity",
            "check"
        );
        for d in &diags {
            outln!(
                "{:<16} {:<8} {:<18} {}",
                d.subject,
                d.severity.to_string(),
                d.check,
                d.message
            );
        }
        outln!(
            "\n{} chip(s) audited: {} error(s), {} warning(s), {} info",
            chips.len(),
            counts[Severity::Error as usize],
            counts[Severity::Warning as usize],
            counts[Severity::Info as usize]
        );
        if exit != 0 {
            eprintln!("fpva-lint: findings at or above {deny} severity (see table above)");
        }
    }
    ExitCode::from(exit)
}
