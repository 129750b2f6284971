//! Benchmark-side span recorder.
//!
//! Spans are recorded around the benchmark's own calls into each layer
//! (spans inside the crates are a later change). A span is
//! `{id, parent, request, name, start_ns, end_ns}`; spans of one request
//! share `request`; `parent` is the span that was open on the same thread
//! when this one started (0 = none). Everything stays in memory;
//! [`write_jsonl`] dumps it when the run ends.
//!
//! A layer's **self time** is its span's duration minus the part its child
//! spans cover ([`ByRequest`]). With tracing off, [`span`] is one relaxed
//! load and returns `None`.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
/// Every finished span, and how many of them [`recent`] has handed out.
static SPANS: Mutex<(Vec<Span>, usize)> = Mutex::new((Vec::new(), 0));
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static REQUEST: Cell<u64> = const { Cell::new(0) };
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns recording on or off (off at start).
pub fn set_enabled(on: bool) {
    // Relaxed: callers flip this only between passes, with no span open.
    ENABLED.store(on, Ordering::Relaxed);
}

static NEXT_REQUEST: AtomicU64 = AtomicU64::new(1);

/// Starts a new request on this thread: spans it opens from now on carry the
/// returned, process-unique request number.
pub fn begin_request() -> u64 {
    let request = NEXT_REQUEST.fetch_add(1, Ordering::Relaxed);
    REQUEST.with(|r| r.set(request));
    request
}

/// An open span; it is recorded when dropped.
pub struct Guard {
    id: u64,
    parent: u64,
    request: u64,
    name: &'static str,
    start_ns: u64,
}

/// Opens a span named `name` on this thread, or returns `None` with
/// tracing off.
#[inline]
pub fn span(name: &'static str) -> Option<Guard> {
    if !ENABLED.load(Ordering::Relaxed) {
        return None;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|open| {
        let mut open = open.borrow_mut();
        let parent = open.last().copied().unwrap_or(0);
        open.push(id);
        parent
    });
    Some(Guard {
        id,
        parent,
        request: REQUEST.with(Cell::get),
        name,
        start_ns: now_ns(),
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        let end_ns = now_ns();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if let Some(at) = open.iter().rposition(|&id| id == self.id) {
                open.truncate(at);
            }
        });
        let span = Span {
            id: self.id,
            parent: self.parent,
            request: self.request,
            name: self.name,
            start_ns: self.start_ns,
            end_ns,
        };
        // A poisoned lock only means another thread panicked mid-push; the
        // vector is still a valid list of spans.
        SPANS.lock().unwrap_or_else(|e| e.into_inner()).0.push(span);
    }
}

/// The spans recorded since the previous call (all of them the first time).
/// Nothing is removed: [`all`] still returns every span at the end.
pub fn recent() -> Vec<Span> {
    let mut guard = SPANS.lock().unwrap_or_else(|e| e.into_inner());
    let (spans, read) = &mut *guard;
    let from = std::mem::replace(read, spans.len());
    spans[from..].to_vec()
}

/// Every span recorded so far.
pub fn all() -> Vec<Span> {
    SPANS.lock().unwrap_or_else(|e| e.into_inner()).0.clone()
}

/// Summed duration and self time of the spans of one name in one request.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Summed span durations, seconds.
    pub total_s: f64,
    /// Summed self times (duration minus direct children), seconds.
    pub self_s: f64,
}

/// Per-request view of a set of spans, keyed by `(request, name)`.
pub struct ByRequest(BTreeMap<(u64, &'static str), Totals>);

impl ByRequest {
    pub fn new(spans: &[Span]) -> ByRequest {
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
        }
        let mut out: BTreeMap<(u64, &'static str), Totals> = BTreeMap::new();
        for s in spans {
            let dur = s.end_ns - s.start_ns;
            let own = dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            let t = out.entry((s.request, s.name)).or_default();
            t.total_s += dur as f64 / 1e9;
            t.self_s += own as f64 / 1e9;
        }
        ByRequest(out)
    }

    /// For each of `requests`, the self seconds spent under `name` (0 when
    /// the request never opened such a span).
    pub fn self_s(&self, requests: &[u64], name: &'static str) -> Vec<f64> {
        requests
            .iter()
            .map(|&r| self.0.get(&(r, name)).map_or(0.0, |t| t.self_s))
            .collect()
    }

    /// Like [`ByRequest::self_s`], for whole span durations.
    pub fn total_s(&self, requests: &[u64], name: &'static str) -> Vec<f64> {
        requests
            .iter()
            .map(|&r| self.0.get(&(r, name)).map_or(0.0, |t| t.total_s))
            .collect()
    }
}

/// Writes `spans` to `path`, one JSON object a line.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let span = |id, parent, name, start_ns, end_ns| Span {
            id,
            parent,
            request: 7,
            name,
            start_ns,
            end_ns,
        };
        let spans = [
            span(1, 0, "query", 0, 100),
            span(2, 1, "process", 10, 70),
            span(3, 2, "fetch", 20, 50),
        ];
        let by = ByRequest::new(&spans);
        let ns = |seconds: f64| (seconds * 1e9).round() as u64;
        let self_ns = |name| ns(by.self_s(&[7], name)[0]);
        assert_eq!(
            (self_ns("query"), self_ns("process"), self_ns("fetch")),
            (40, 30, 30),
            "self times partition the root span"
        );
        assert_eq!(ns(by.total_s(&[7], "query")[0]), 100);
        assert_eq!(
            by.self_s(&[8], "query"),
            [0.0],
            "an unknown request spent nothing"
        );
    }
}
