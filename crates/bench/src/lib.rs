//! Shared helpers for the benchmark binaries and Criterion benches that
//! regenerate the tables and figures of the paper.

use fpva_atpg::{Atpg, TestPlan};
use fpva_grid::layouts::Table1Entry;
use fpva_grid::Fpva;
use std::fmt;
use std::io::{self, Write};

pub mod lint;

/// The exit status of a binary whose stdout reader went away: the status
/// a shell reports for a process killed by `SIGPIPE`.
pub const BROKEN_PIPE_STATUS: i32 = 141;

/// `println!` for the benchmark binaries: prints one line to stdout
/// through [`print_line`], so a closed pipe ends the run quietly with
/// [`BROKEN_PIPE_STATUS`] instead of a panic.
#[macro_export]
macro_rules! outln {
    () => {
        $crate::print_line(format_args!(""))
    };
    ($($arg:tt)*) => {
        $crate::print_line(format_args!($($arg)*))
    };
}

/// Writes `args` and a newline to stdout. When the reader has closed the
/// pipe (`ErrorKind::BrokenPipe`, say under `| head`), the process exits at
/// once with [`BROKEN_PIPE_STATUS`] and no message, so a truncated run never
/// reports success for work it did not finish.
///
/// # Panics
///
/// Panics on any other write error, as `println!` does.
pub fn print_line(args: fmt::Arguments<'_>) {
    if let Err(e) = writeln!(io::stdout().lock(), "{args}") {
        if e.kind() == io::ErrorKind::BrokenPipe {
            std::process::exit(BROKEN_PIPE_STATUS);
        }
        panic!("failed printing to stdout: {e}");
    }
}

/// A generated plan next to its Table I reference row.
#[derive(Debug)]
pub struct PlannedEntry {
    /// The benchmark instance with the paper's reported numbers.
    pub entry: Table1Entry,
    /// Our generated plan.
    pub plan: TestPlan,
}

/// Generates plans for every Table I array with the default configuration,
/// serially (see [`plan_table1_with`] for the parallel variant).
///
/// # Panics
///
/// Panics if generation fails on a benchmark layout (they are validated by
/// the test suite, so this indicates a build problem).
pub fn plan_table1() -> Vec<PlannedEntry> {
    plan_table1_with(1)
}

/// Like [`plan_table1`], but generates the per-array plans on up to
/// `threads` workers (`0` = one per CPU). Each plan is a deterministic
/// function of its layout alone, so the result is identical for every
/// thread count — the rows come back in Table I order regardless.
///
/// # Panics
///
/// Panics if generation fails on a benchmark layout.
pub fn plan_table1_with(threads: usize) -> Vec<PlannedEntry> {
    let entries = fpva_grid::layouts::table1();
    fpva_sim::exec::run_chunked(threads, entries.len(), 1, |range| {
        let entry = entries[range.start].clone();
        let plan = Atpg::new()
            .generate(&entry.fpva)
            .unwrap_or_else(|e| panic!("plan generation failed for {}: {e}", entry.name));
        PlannedEntry { entry, plan }
    })
}

/// Renders an array with its flow paths overlaid, one digit/letter per
/// path (`1`–`9`, then `a`–`z`), for the Fig. 8/9 reproductions.
pub fn render_paths(fpva: &Fpva, paths: &[fpva_atpg::FlowPath]) -> String {
    let mut decor = fpva_grid::render::Decor::new();
    for (i, path) in paths.iter().enumerate() {
        let mark = path_mark(i);
        for pair in path.cells().windows(2) {
            if let Some(edge) = fpva.edge_between(pair[0], pair[1]) {
                decor.mark_edge(edge, mark);
            }
        }
        for &cell in path.cells() {
            decor.mark_cell(cell, mark);
        }
    }
    fpva_grid::render::render_with(fpva, &decor)
}

/// Digit/letter label for the `i`-th path.
pub fn path_mark(i: usize) -> char {
    match i {
        0..=8 => char::from(b'1' + i as u8),
        _ => char::from(b'a' + ((i - 9) % 26) as u8),
    }
}

/// Command-line knobs shared by the benchmark binaries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CliArgs {
    /// `--trials N` (or a bare positional number, kept for backwards
    /// compatibility with the original `fault_detection` invocation).
    pub trials: Option<usize>,
    /// `--threads N`; `0` (the default) means one worker per CPU.
    pub threads: usize,
}

impl CliArgs {
    /// Parses an argument list (without the program name). Supports
    /// `--flag N` and `--flag=N`; anything unrecognised or malformed is an
    /// error — a long benchmark run must not silently execute with
    /// parameters the user did not ask for.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on an unknown flag or an
    /// unparsable value.
    pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut out = CliArgs::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let (flag, inline) = match arg.split_once('=') {
                Some((flag, v)) => (flag, Some(v)),
                None => (arg.as_str(), None),
            };
            match flag {
                "--trials" | "--threads" => {
                    let raw = match inline {
                        Some(v) => v.to_string(),
                        None => args
                            .next()
                            .ok_or_else(|| format!("{flag} expects a value"))?,
                    };
                    let n: usize = raw
                        .parse()
                        .map_err(|_| format!("{flag} expects a number, got `{raw}`"))?;
                    match flag {
                        "--trials" => out.trials = Some(n),
                        _ => out.threads = n,
                    }
                }
                other => match other.parse() {
                    // Bare positional number: the original `fault_detection`
                    // trial-count invocation, kept for compatibility.
                    Ok(n) if inline.is_none() => out.trials = Some(n),
                    _ => return Err(format!("unrecognised argument `{arg}`")),
                },
            }
        }
        Ok(out)
    }

    /// Parses the process arguments, exiting with usage on a bad command
    /// line.
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1)).unwrap_or_else(|msg| exit_with_usage(&msg))
    }

    /// [`CliArgs::parse`] for a binary that runs a fixed workload
    /// (`table1`, `ablation`): a trial count, which it would ignore, exits
    /// with usage too. Returns the `--threads` value.
    pub fn parse_threads() -> usize {
        let args = Self::parse();
        if args.trials.is_some() {
            exit_with_usage("this binary takes no trial count");
        }
        args.threads
    }
}

/// Prints `msg` and the usage line to stderr and exits with status 2.
fn exit_with_usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: [--trials N] [--threads N]   (N numeric; --threads 0 = all CPUs)");
    std::process::exit(2);
}

/// Renders an optional rate in `[0, 1]` as a percentage, or `"n/a"` when
/// the underlying universe was empty (zero trials / zero faults swept).
/// Four decimals, so one escape in a quadratic pair universe (say 1 of
/// 22 350) never rounds up to a flat "100%" next to the counts that
/// contradict it.
pub fn percent_or_na(rate: Option<f64>) -> String {
    match rate {
        Some(rate) => format!("{:.4}%", 100.0 * rate),
        None => "n/a".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_marks_cycle() {
        assert_eq!(path_mark(0), '1');
        assert_eq!(path_mark(8), '9');
        assert_eq!(path_mark(9), 'a');
        assert_eq!(path_mark(10), 'b');
    }

    #[test]
    fn cli_args_accept_flags_and_positional_trials() {
        let args =
            |list: &[&str]| CliArgs::parse_from(list.iter().map(std::string::ToString::to_string));
        assert_eq!(
            args(&["--trials", "500", "--threads", "4"]),
            Ok(CliArgs {
                trials: Some(500),
                threads: 4,
            })
        );
        assert_eq!(
            args(&["--trials=500", "--threads=4"]),
            Ok(CliArgs {
                trials: Some(500),
                threads: 4,
            })
        );
        assert_eq!(
            args(&["1000"]),
            Ok(CliArgs {
                trials: Some(1000),
                ..Default::default()
            })
        );
        assert_eq!(args(&[]), Ok(CliArgs::default()));
    }

    #[test]
    fn cli_args_reject_typos_instead_of_guessing() {
        let args =
            |list: &[&str]| CliArgs::parse_from(list.iter().map(std::string::ToString::to_string));
        assert!(args(&["--threads", "bogus"]).is_err());
        assert!(args(&["--threads"]).is_err());
        assert!(args(&["--seed", "5"]).is_err());
        assert!(args(&["--trails=500"]).is_err());
        assert!(args(&["--kernel", "scalar"]).is_err());
    }

    #[test]
    fn percent_formatting_handles_empty_universe() {
        assert_eq!(percent_or_na(Some(0.5)), "50.0000%");
        // One escape in a large pair universe must not print as 100%.
        assert_eq!(percent_or_na(Some(22_349.0 / 22_350.0)), "99.9955%");
        assert_eq!(percent_or_na(None), "n/a");
    }

    #[test]
    fn render_paths_marks_edges() {
        let f = fpva_grid::layouts::full_array(3, 3);
        let plan = Atpg::new().generate(&f).unwrap();
        let art = render_paths(&f, plan.flow_paths());
        assert!(art.contains('1'));
    }
}
