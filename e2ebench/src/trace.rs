//! In-memory spans for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer — nothing inside the program is instrumented. Every span has a
//! name, a start, an end, a parent and the run id; spans are kept in
//! memory and written once, at the end, as JSON lines through
//! [`snn_faults::codec::Json`]. The untraced run passes `None` wherever a
//! tracer is taken, so both modes execute the same calls.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use snn_faults::codec::{u64_json, Json};

/// One recorded span. Times are seconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the run.
    pub id: u64,
    /// The span that caused this one (`None` for the root).
    pub parent: Option<u64>,
    /// Dotted name; the part before the first `.` is the layer.
    pub name: &'static str,
    /// Start, seconds since the tracer's epoch.
    pub start_s: f64,
    /// End, seconds since the tracer's epoch.
    pub end_s: f64,
    /// Extra fields (technique, rate, trial counts).
    pub attrs: Vec<(&'static str, Json)>,
}

impl Span {
    /// Wall duration in seconds.
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }

    /// A string attribute, if present.
    pub fn attr_str(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| *k == key)
            .and_then(|(_, v)| v.as_str())
    }

    /// An integer attribute, if present.
    pub fn attr_usize(&self, key: &str) -> Option<usize> {
        self.attrs
            .iter()
            .find(|(k, _)| *k == key)
            .and_then(|(_, v)| v.as_usize())
    }

    /// The layer: the name up to its first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Collects spans from any number of threads.
#[derive(Debug)]
pub struct Tracer {
    run_id: u64,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer whose spans all carry `run_id`.
    pub fn new(run_id: u64) -> Self {
        Self {
            run_id,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Seconds since the tracer was created, on the spans' clock.
    pub fn now_s(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Runs `f` inside a new span under `parent`; `f` receives the new
    /// span's id so nested calls can name it as their parent.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        attrs: Vec<(&'static str, Json)>,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_s = self.epoch.elapsed().as_secs_f64();
        let out = f(id);
        let end_s = self.epoch.elapsed().as_secs_f64();
        self.spans.lock().expect("span store poisoned").push(Span {
            id,
            parent,
            name,
            start_s,
            end_s,
            attrs,
        });
        out
    }

    /// Every span recorded so far, ordered by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span store poisoned").clone();
        spans.sort_by(|a, b| a.start_s.total_cmp(&b.start_s).then(a.id.cmp(&b.id)));
        spans
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for span in self.spans() {
            let mut fields = vec![
                ("run", u64_json(self.run_id)),
                ("id", Json::Num(span.id as f64)),
                (
                    "parent",
                    span.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("name", Json::Str(span.name.to_owned())),
                ("start_s", Json::Num(span.start_s)),
                ("end_s", Json::Num(span.end_s)),
            ];
            fields.extend(span.attrs.iter().cloned());
            out.push_str(&Json::obj(fields).render());
            out.push('\n');
        }
        out
    }
}

/// Runs `f` inside a span when tracing, or just runs it. `f` receives the
/// parent id its own nested calls should use.
pub fn traced<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: Option<u64>,
    attrs: impl FnOnce() -> Vec<(&'static str, Json)>,
    f: impl FnOnce(Option<u64>) -> T,
) -> T {
    match tracer {
        Some(t) => t.span(name, parent, attrs(), |id| f(Some(id))),
        None => f(None),
    }
}

/// Self time per layer: each span's duration minus the part of its
/// interval that its children cover (children may overlap when they run
/// on parallel threads, so their union is subtracted, not their sum).
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children
                .entry(parent)
                .or_default()
                .push((span.start_s, span.end_s));
        }
    }
    let mut by_layer = BTreeMap::new();
    for span in spans {
        let covered = children.get_mut(&span.id).map_or(0.0, |intervals| {
            union_length(intervals, span.start_s, span.end_s)
        });
        *by_layer.entry(span.layer()).or_insert(0.0) += (span.duration_s() - covered).max(0.0);
    }
    by_layer
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_length(intervals: &mut [(f64, f64)], lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if e <= s {
            continue;
        }
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start_s: f64, end_s: f64) -> Span {
        Span {
            id,
            parent,
            name,
            start_s,
            end_s,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [
            span(1, None, "grid.run", 0.0, 10.0),
            span(2, Some(1), "cell.eval", 1.0, 5.0),
            span(3, Some(1), "cell.eval", 2.0, 6.0),
            span(4, Some(1), "cell.eval", 8.0, 9.0),
        ];
        let by_layer = self_time_by_layer(&spans);
        assert!((by_layer["grid"] - 4.0).abs() < 1e-12);
        assert!((by_layer["cell"] - 9.0).abs() < 1e-12);
    }

    #[test]
    fn spans_render_as_json_lines_with_run_and_parent() {
        let tracer = Tracer::new(7);
        tracer.span("root", None, Vec::new(), |root| {
            tracer.span(
                "setup.data",
                Some(root),
                vec![("k", Json::from("v"))],
                |_| (),
            );
        });
        let text = tracer.to_json_lines();
        let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].str_field("name").unwrap(), "root");
        assert_eq!(lines[0].get("parent"), Some(&Json::Null));
        assert_eq!(lines[1].str_field("run").unwrap(), "7");
        assert_eq!(lines[1].usize_field("parent").unwrap(), 1);
        assert_eq!(lines[1].str_field("k").unwrap(), "v");
    }
}
