//! Wall-clock spans recorded by the benchmark around its calls into
//! each layer. Spans live in memory until the run ends; a layer's self
//! time is its span minus the part its children cover.
//!
//! With tracing off every entry point is a branch on `None`, so the
//! untraced run that produces the end-to-end metrics pays nothing.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub type SpanId = usize;

/// One recorded interval. `parent` is the span that caused it; spans of
/// one op share `op`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub op: u64,
}

struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

/// Handle the workloads carry; cheap to clone into worker threads.
#[derive(Clone)]
pub struct Trace(Option<Arc<Recorder>>);

impl Trace {
    pub fn new(enabled: bool) -> Trace {
        Trace(enabled.then(|| {
            Arc::new(Recorder {
                epoch: Instant::now(),
                spans: Mutex::new(Vec::new()),
            })
        }))
    }

    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Run `f` inside a span. `f` receives the span's id so nested calls
    /// can name it as their parent (`None` when tracing is off).
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        f: impl FnOnce(Option<SpanId>) -> T,
    ) -> T {
        let Some(rec) = &self.0 else {
            return f(None);
        };
        let start_ns = rec.epoch.elapsed().as_nanos() as u64;
        let id = {
            let mut spans = rec.spans.lock().expect("no panic while recording a span");
            spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                op,
            });
            spans.len() - 1
        };
        let out = f(Some(id));
        let end_ns = rec.epoch.elapsed().as_nanos() as u64;
        rec.spans.lock().expect("no panic while recording a span")[id].end_ns = end_ns;
        out
    }

    /// Record an interval that was timed by the caller (a wrapper running
    /// on one of the program's own threads).
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        let rec = self.0.as_ref()?;
        let ns = |t: Instant| t.saturating_duration_since(rec.epoch).as_nanos() as u64;
        let mut spans = rec.spans.lock().expect("no panic while recording a span");
        spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end).max(ns(start)),
            parent,
            op,
        });
        Some(spans.len() - 1)
    }

    /// Everything recorded so far (empty when tracing is off).
    pub fn spans(&self) -> Vec<Span> {
        self.0.as_ref().map_or_else(Vec::new, |rec| {
            rec.spans
                .lock()
                .expect("no panic while recording a span")
                .clone()
        })
    }
}

/// Per-name totals derived from a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to the span, so children running
/// concurrently on other threads are not counted twice).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                if b > reach {
                    covered += b - a.max(reach);
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Totals per span name, in name order.
pub fn layer_table(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let selfs = self_times(spans);
    let mut table: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let row = table.entry(s.name).or_default();
        row.count += 1;
        row.total_ns += s.end_ns - s.start_ns;
        row.self_ns += self_ns;
    }
    table
}

/// Share of the `root` spans' wall time that no child span covers, in
/// percent: what the layer table cannot attribute.
pub fn unattributed_pct(spans: &[Span], root: &str) -> f64 {
    layer_table(spans).get(root).map_or(0.0, |t| {
        if t.total_ns == 0 {
            0.0
        } else {
            100.0 * t.self_ns as f64 / t.total_ns as f64
        }
    })
}

/// Write the spans and the derived layer table as one JSON document.
pub fn write_json(path: &Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(64 + spans.len() * 72);
    let _ = write!(out, "{{\"workload\":\"{workload}\",\"layers\":[");
    for (i, (name, t)) in layer_table(spans).iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(
            out,
            "{sep}\n{{\"name\":\"{name}\",\"count\":{},\"total_ms\":{},\"self_ms\":{}}}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    out.push_str("],\"spans\":[");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{sep}\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
            s.name, s.start_ns, s.end_ns, s.op
        );
    }
    out.push_str("]}\n");
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, a: u64, b: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns: a,
            end_ns: b,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span("op", 0, 100, None),
            // two children overlapping on [30, 40): union covers [10, 60)
            span("recon", 10, 40, Some(0)),
            span("sink", 30, 60, Some(0)),
            // nested inside the first, must not be counted against the op
            span("fft", 15, 20, Some(1)),
            // sticks out past the parent: clipped to [90, 100)
            span("late", 90, 130, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![40, 25, 30, 5, 40]);
        let table = layer_table(&spans);
        assert_eq!(table["op"].self_ns, 40);
        assert_eq!(table["recon"].total_ns, 30);
        assert!((unattributed_pct(&spans, "op") - 40.0).abs() < 1e-12);
        assert_eq!(unattributed_pct(&spans, "missing"), 0.0);
    }

    #[test]
    fn sequential_children_that_tile_the_parent_leave_nothing() {
        let spans = vec![
            span("op", 0, 90, None),
            span("load", 0, 30, Some(0)),
            span("run", 30, 80, Some(0)),
            span("ingest", 80, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 0);
        assert_eq!(unattributed_pct(&spans, "op"), 0.0);
    }

    #[test]
    fn disabled_trace_records_nothing_and_still_runs_the_body() {
        let t = Trace::new(false);
        let v = t.span("x", None, 1, |id| {
            assert!(id.is_none());
            7
        });
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn enabled_trace_links_children_to_parents() {
        let t = Trace::new(true);
        t.span("op", None, 3, |op| {
            t.span("child", op, 3, |_| ());
            let now = Instant::now();
            t.record("timed", op, 3, now, now);
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert!(spans.iter().all(|s| s.op == 3));
    }
}
