//! In-memory tracing for the traced benchmark run.
//!
//! Spans are recorded by the benchmark around its calls into each crate's
//! public functions: name, start, end, parent and request id. They stay in
//! memory and are written out once, with the run's raw report.
//!
//! When tracing is off every entry point returns after one load of a flag.

use serd_repro::obs;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished (or still open, `end_us` NaN) span.
struct Span {
    name: String,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
    req: u64,
}

struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

static ON: AtomicBool = AtomicBool::new(false);

fn tracer() -> &'static Tracer {
    static T: OnceLock<Tracer> = OnceLock::new();
    T.get_or_init(|| Tracer {
        epoch: Instant::now(),
        spans: Mutex::new(Vec::new()),
    })
}

thread_local! {
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// Turns span recording on or off (the benchmark's own spans only; the
/// program's `obs` layer is switched separately).
pub fn set_enabled(on: bool) {
    tracer();
    ON.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ON.load(Ordering::SeqCst)
}

/// Microseconds since the tracer's epoch.
fn micros(t: Instant) -> f64 {
    t.saturating_duration_since(tracer().epoch).as_secs_f64() * 1e6
}

/// Guard of an open span; closes it on drop.
pub struct Guard {
    idx: Option<usize>,
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(idx) = self.idx else { return };
        let end = micros(Instant::now());
        if let Ok(mut spans) = tracer().spans.lock() {
            spans[idx].end_us = end;
        }
        STACK.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// Opens a span named `name` for request `req`, a child of the innermost
/// span open on this thread.
#[must_use = "the span closes when the guard drops"]
pub fn span(name: &str, req: u64) -> Guard {
    if !enabled() {
        return Guard { idx: None };
    }
    let parent = STACK.with(|s| s.borrow().last().copied());
    let idx = push(Span {
        name: name.to_string(),
        start_us: micros(Instant::now()),
        end_us: f64::NAN,
        parent,
        req,
    });
    STACK.with(|s| s.borrow_mut().push(idx));
    Guard { idx: Some(idx) }
}

/// Records a span whose bounds the caller measured itself (an open-loop
/// request is timed from when it was due, before it was sent). Returns its
/// index for use as a parent.
pub fn record(
    name: &str,
    req: u64,
    parent: Option<usize>,
    start: Instant,
    end: Instant,
) -> Option<usize> {
    if !enabled() {
        return None;
    }
    Some(push(Span {
        name: name.to_string(),
        start_us: micros(start),
        end_us: micros(end),
        parent,
        req,
    }))
}

fn push(span: Span) -> usize {
    let mut spans = tracer().spans.lock().expect("tracer lock poisoned");
    spans.push(span);
    spans.len() - 1
}

/// Every recorded span, as a JSON array of
/// `[name, start_us, end_us, parent, request]`.
pub fn to_json() -> String {
    let spans = tracer().spans.lock().expect("tracer lock poisoned");
    let s: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "[\"{}\",{},{},{},{}]",
                obs::json_escape(&s.name),
                obs::json_f64(s.start_us),
                obs::json_f64(s.end_us),
                s.parent
                    .map_or_else(|| "null".to_string(), |p| p.to_string()),
                s.req
            )
        })
        .collect();
    format!("[{}]", s.join(","))
}
