//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call it makes into a layer's public API in a
//! span: name (`<layer>.<call>`), start, end, parent span and op index.
//! Spans stay in memory until the run ends, when they are written out as
//! JSON lines. With tracing off a span costs one relaxed atomic load.

use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Span identifier; ids start at 1 so that [`NO_SPAN`] can mark a root.
pub type SpanId = u32;

/// The parent of a root span (and the id handed out while tracing is off).
pub const NO_SPAN: SpanId = 0;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: SpanId,
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    /// Index of the timed op the span belongs to; `None` during set-up.
    pub op: Option<u32>,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span recorder. Shared by reference (and across the fan-out's
/// worker threads), so the log sits behind a mutex.
pub struct Tracer {
    on: AtomicBool,
    t0: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: AtomicBool::new(false),
            t0: Instant::now(),
            next: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Turns recording on or off. The flag publishes no other data.
    pub fn set_enabled(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    /// Runs `f` inside a span. `f` receives the span's id, to pass as the
    /// parent of the calls it makes.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: SpanId,
        op: Option<u32>,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        if !self.on.load(Ordering::Relaxed) {
            return f(NO_SPAN);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.t0.elapsed().as_nanos() as u64;
        let r = f(id);
        let end_ns = self.t0.elapsed().as_nanos() as u64;
        self.spans.lock().expect("span log poisoned").push(Span {
            id,
            name,
            start_ns,
            end_ns,
            parent,
            op,
        });
        r
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover. Children that overlap each other (slices
/// on parallel workers) are merged first, so covered time never exceeds
/// the span's own duration.
pub fn self_ns(spans: &[Span]) -> HashMap<SpanId, u64> {
    let mut children: HashMap<SpanId, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != NO_SPAN {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.id, s.ns() - covered)
        })
        .collect()
}

/// Writes the spans as JSON lines.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_jsonl(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let op = s.op.map_or("null".to_string(), |o| o.to_string());
        writeln!(
            out,
            r#"{{"id":{},"name":"{}","start_ns":{},"end_ns":{},"parent":{},"op":{}}}"#,
            s.id, s.name, s.start_ns, s.end_ns, s.parent, op
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: SpanId, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            name: "x.y",
            start_ns,
            end_ns,
            parent,
            op: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Parent 0..100; children 10..40 and 30..60 overlap (parallel
        // workers) and cover 10..60; a grandchild does not count twice.
        let spans = [
            span(1, NO_SPAN, 0, 100),
            span(2, 1, 10, 40),
            span(3, 1, 30, 60),
            span(4, 2, 15, 20),
        ];
        let s = self_ns(&spans);
        assert_eq!(s[&1], 50);
        assert_eq!(s[&2], 25);
        assert_eq!(s[&3], 30);
        assert_eq!(s[&4], 5);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new();
        assert_eq!(t.span("a.b", NO_SPAN, None, |id| id), NO_SPAN);
        assert!(t.spans().is_empty());
        t.set_enabled(true);
        let id = t.span("a.b", NO_SPAN, Some(3), |id| id);
        let spans = t.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!((spans[0].id, spans[0].op), (id, Some(3)));
    }
}
