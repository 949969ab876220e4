//! In-memory spans recorded by the benchmark around each public call.
//!
//! The program's own tracing (`tels_trace::enable`) is never switched on:
//! its per-query spans cost far more than the calls measured here. Instead
//! every layer boundary the benchmark crosses opens a [`Guard`]; with the
//! tracer off a guard is inert and costs one branch.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span: `[start_ns, end_ns)` relative to the tracer origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub job: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Span sink shared by every thread of a run.
pub struct Tracer {
    on: bool,
    origin: Instant,
    next_id: AtomicU64,
    open: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            open: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Opens a span; it closes (and is recorded) when the guard drops.
    pub fn enter(&self, name: &'static str, parent: Option<u64>, job: u64) -> Guard<'_> {
        if !self.on {
            return Guard(None);
        }
        Guard(Some(Open {
            tracer: self,
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            job,
            name,
            start: Instant::now(),
        }))
    }

    /// Removes and returns every span closed so far.
    pub fn drain(&self) -> Vec<Span> {
        std::mem::take(&mut *self.open.lock().expect("span sink poisoned"))
    }
}

struct Open<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: Option<u64>,
    job: u64,
    name: &'static str,
    start: Instant,
}

/// An open span (or nothing, with the tracer off).
pub struct Guard<'a>(Option<Open<'a>>);

impl Guard<'_> {
    /// The span id, to pass as the parent of nested spans.
    pub fn id(&self) -> Option<u64> {
        self.0.as_ref().map(|o| o.id)
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(o) = self.0.take() {
            let ns = |t: Instant| t.duration_since(o.tracer.origin).as_nanos() as u64;
            let span = Span {
                id: o.id,
                parent: o.parent,
                job: o.job,
                name: o.name,
                start_ns: ns(o.start),
                end_ns: ns(Instant::now()),
            };
            if let Ok(mut open) = o.tracer.open.lock() {
                open.push(span);
            }
        }
    }
}

/// Total duration in seconds of the spans of each name.
pub fn seconds_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0.0) += (s.end_ns - s.start_ns) as f64 * 1e-9;
    }
    out
}

/// The spans as one JSON document (one object per span).
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{parent},\"job\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}{}\n",
            s.id,
            s.job,
            s.name,
            s.start_ns,
            s.end_ns,
            if i + 1 < spans.len() { "," } else { "" }
        ));
    }
    out.push(']');
    out
}
