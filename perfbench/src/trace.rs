//! In-memory span recorder for the traced run. Spans are opened by the
//! benchmark's own code around each public call into the program; when
//! recording is off, [`span`] only runs its closure.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Chip or instance id the span serves (the request id).
    pub request: String,
    /// Which part of the run the span belongs to: `setup` (the last set-up
    /// repetition), `setup.warm`, `loop`, `check`, `attrib` or
    /// `baseline`.
    pub phase: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

#[derive(Debug)]
struct Recorder {
    on: bool,
    epoch: Instant,
    phase: &'static str,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        on: false,
        epoch: Instant::now(),
        phase: "setup",
        spans: Vec::new(),
        open: Vec::new(),
    });
}

pub fn set_enabled(on: bool) {
    RECORDER.with(|r| r.borrow_mut().on = on);
}

pub fn set_phase(phase: &'static str) {
    RECORDER.with(|r| r.borrow_mut().phase = phase);
}

/// Runs `f` inside a span named `name` for request `request`.
pub fn span<T>(name: &'static str, request: &str, f: impl FnOnce() -> T) -> T {
    let index = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return None;
        }
        let index = r.spans.len();
        let span = Span {
            name,
            request: request.to_string(),
            phase: r.phase,
            start_ns: 0,
            end_ns: 0,
            parent: r.open.last().copied(),
        };
        r.spans.push(span);
        r.open.push(index);
        let start = r.epoch.elapsed().as_nanos() as u64;
        r.spans[index].start_ns = start;
        Some(index)
    });
    let out = f();
    if let Some(index) = index {
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            let end = r.epoch.elapsed().as_nanos() as u64;
            r.spans[index].end_ns = end;
            // A panic unwinding through `f` leaves inner spans open; close
            // them at the same instant.
            while let Some(open) = r.open.pop() {
                if r.spans[open].end_ns == 0 {
                    r.spans[open].end_ns = end;
                }
                if open == index {
                    break;
                }
            }
        });
    }
    out
}

pub fn spans() -> Vec<Span> {
    RECORDER.with(|r| r.borrow().spans.clone())
}

/// Total duration of the spans named `name` in `phase`.
pub fn total(spans: &[Span], name: &str, phase: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name && s.phase == phase)
        .map(Span::secs)
        .sum()
}

/// One pass's worth of the spans named `name` in `phase`: the sum over
/// requests of each request's median span, the loop's latency estimator.
pub fn per_pass(spans: &[Span], name: &str, phase: &str) -> f64 {
    let mut by_request: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name && s.phase == phase) {
        by_request.entry(&s.request).or_default().push(s.secs());
    }
    by_request.values().map(|d| crate::run::median(d)).sum()
}

/// Per span name: count, inclusive seconds and self seconds (duration
/// minus the time its children cover).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (usize, f64, f64)> {
    let mut child = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.secs();
        }
    }
    let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
    for (s, c) in spans.iter().zip(child) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.secs();
        e.2 += s.secs() - c;
    }
    out
}

/// The spans as JSON lines, one object per span.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"request\":\"{}\",\"phase\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
            s.name, s.request, s.phase, s.start_ns, s.end_ns
        );
    }
    out
}
