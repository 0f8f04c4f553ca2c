//! In-memory span recorder for traced runs.
//!
//! Spans are recorded only in benchmark code, around calls into the
//! program's public functions; each names the layer (crate) it calls into.
//! They stay in memory and are written out as JSONL when the workload ends.
//! A disabled tracer (every untraced run) records nothing.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub trace: u64,
    pub span: u64,
    /// Parent span id; 0 for the root of a trace.
    pub parent: u64,
    pub name: String,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

struct Inner {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// Cloneable handle; `off()` handles are free.
#[derive(Clone)]
pub struct Tracer(Option<Arc<Inner>>);

/// Identifies an open span, so children can name it as their parent.
#[derive(Debug, Clone, Copy)]
pub struct SpanId {
    pub trace: u64,
    pub span: u64,
}

impl SpanId {
    /// Parent of spans that a disabled tracer never records.
    pub const NONE: SpanId = SpanId { trace: 0, span: 0 };
}

/// Records its span when dropped.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    id: SpanId,
    parent: u64,
    name: String,
    layer: &'static str,
    start_ns: u64,
}

impl Tracer {
    pub fn off() -> Self {
        Tracer(None)
    }

    pub fn on() -> Self {
        Tracer(Some(Arc::new(Inner {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        })))
    }

    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    /// Nanoseconds since the tracer was created (0 when off).
    pub fn now_ns(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |i| i.epoch.elapsed().as_nanos() as u64)
    }

    /// Converts an instant to tracer time.
    pub fn at(&self, t: Instant) -> u64 {
        self.0.as_ref().map_or(0, |i| {
            t.saturating_duration_since(i.epoch).as_nanos() as u64
        })
    }

    fn next_id(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |i| i.next_id.fetch_add(1, Ordering::Relaxed))
    }

    /// Opens the root span of a new trace.
    pub fn root(&self, name: &str, layer: &'static str) -> Guard<'_> {
        let id = self.next_id();
        self.open(
            SpanId {
                trace: id,
                span: id,
            },
            0,
            name,
            layer,
        )
    }

    /// Opens a child of `parent`.
    pub fn child(&self, parent: SpanId, name: &str, layer: &'static str) -> Guard<'_> {
        let id = SpanId {
            trace: parent.trace,
            span: self.next_id(),
        };
        self.open(id, parent.span, name, layer)
    }

    fn open(&self, id: SpanId, parent: u64, name: &str, layer: &'static str) -> Guard<'_> {
        Guard {
            tracer: self,
            id,
            parent,
            name: if self.is_on() {
                name.to_string()
            } else {
                String::new()
            },
            layer,
            start_ns: self.now_ns(),
        }
    }

    /// Records a span measured elsewhere (e.g. by a request thread).
    pub fn record(&self, span: Span) {
        if let Some(inner) = &self.0 {
            inner
                .spans
                .lock()
                .expect("span store poisoned by a panicking recorder")
                .push(span);
        }
    }

    /// Allocates ids for a span the caller will [`Tracer::record`] itself.
    pub fn alloc(&self, parent: Option<SpanId>) -> SpanId {
        let span = self.next_id();
        SpanId {
            trace: parent.map_or(span, |p| p.trace),
            span,
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.0.as_ref().map_or_else(Vec::new, |i| {
            i.spans
                .lock()
                .expect("span store poisoned by a panicking recorder")
                .clone()
        })
    }
}

impl Guard<'_> {
    pub fn id(&self) -> SpanId {
        self.id
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if !self.tracer.is_on() {
            return;
        }
        let end_ns = self.tracer.now_ns();
        self.tracer.record(Span {
            trace: self.id.trace,
            span: self.id.span,
            parent: self.parent,
            name: std::mem::take(&mut self.name),
            layer: self.layer,
            start_ns: self.start_ns,
            end_ns,
        });
    }
}

/// One JSONL line per span.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        out.push_str(&format!(
            "{{\"trace\":{},\"span\":{},\"parent\":{},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
            s.trace,
            s.span,
            s.parent,
            scis_telemetry::json_escape(&s.name),
            s.layer,
            s.start_ns,
            s.end_ns
        ));
    }
    out
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<(u64, u64), Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry((s.trace, s.parent))
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let mut kids = children
                .get(&(s.trace, s.span))
                .cloned()
                .unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            dur.saturating_sub(covered)
        })
        .collect()
}

/// Per-layer totals of a set of spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTotals {
    pub self_ns: u64,
    pub spans: u64,
}

/// Sums self time and span counts by layer, and checks that within every
/// trace the self times add up to no more than the root span.
pub fn layer_totals(spans: &[Span]) -> (BTreeMap<&'static str, LayerTotals>, bool) {
    let selfs = self_times(spans);
    let mut layers: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    let mut per_trace: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for (s, &st) in spans.iter().zip(&selfs) {
        let e = layers.entry(s.layer).or_default();
        e.self_ns += st;
        e.spans += 1;
        let t = per_trace.entry(s.trace).or_default();
        t.0 += st;
        if s.parent == 0 {
            t.1 = s.end_ns.saturating_sub(s.start_ns);
        }
    }
    let consistent = per_trace.values().all(|&(sum, root)| sum <= root);
    (layers, consistent)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(span: u64, parent: u64, layer: &'static str, start: u64, end: u64) -> Span {
        Span {
            trace: 1,
            span,
            parent,
            name: format!("s{span}"),
            layer,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100 with children 10..40 and 30..60 (overlapping) and a
        // grandchild 15..25 inside the first child
        let spans = vec![
            span(1, 0, "bench", 0, 100),
            span(2, 1, "scis-core", 10, 40),
            span(3, 1, "scis-data", 30, 60),
            span(4, 2, "scis-ot", 15, 25),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 30, 10]);
        let (layers, consistent) = layer_totals(&spans);
        assert_eq!(layers["bench"].self_ns, 50);
        assert_eq!(layers["scis-ot"].spans, 1);
        // overlapping siblings make the self times exceed the root
        assert!(!consistent);
        let nested = vec![
            span(1, 0, "bench", 0, 100),
            span(2, 1, "scis-core", 10, 40),
            span(3, 1, "scis-data", 40, 60),
            span(4, 2, "scis-ot", 15, 25),
        ];
        let (_, consistent) = layer_totals(&nested);
        assert!(consistent);
        assert_eq!(self_times(&nested).iter().sum::<u64>(), 100);
    }

    #[test]
    fn guards_record_parent_links_and_off_records_nothing() {
        let t = Tracer::on();
        {
            let root = t.root("job", "bench");
            let _c = t.child(root.id(), "try_run", "scis-core");
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let child = spans.iter().find(|s| s.name == "try_run").unwrap();
        let root = spans.iter().find(|s| s.name == "job").unwrap();
        assert_eq!(child.parent, root.span);
        assert_eq!(child.trace, root.trace);
        assert!(root.start_ns <= child.start_ns && child.end_ns <= root.end_ns);
        assert!(to_jsonl(&spans).lines().all(|l| l.contains("\"layer\":")));

        let off = Tracer::off();
        drop(off.root("job", "bench"));
        assert!(off.spans().is_empty());
    }
}
