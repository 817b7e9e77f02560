//! In-memory spans recorded by the benchmark around its own calls into
//! each layer (the system is not instrumented; that is the ROADMAP tracer
//! item). One traced request is two small trees under one `request_id`:
//!
//! ```text
//! request                      the harness's bracket around the real call
//! └─ service.query             the real end-to-end call
//! replay                       later, so that replays do not disturb the
//! ├─ core.query                real calls: the same request one layer down
//! ├─ rptrie.top_k (x16)        ... and one further down, per partition
//! └─ distance.within           ... down to the kernels, sampled candidates
//! ```
//!
//! Spans nest by interval on the one tracing thread, so a span's self time
//! is its duration minus what its children cover, and the self times of a
//! tree sum to its root by construction. The layer of a span is the part
//! of its name before the first `.`.

use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub request_id: u64,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Outcome-struct counts read at this boundary.
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records `f` as a span named `name`, child of the span open on this
    /// tracer when it starts. `f` gets the tracer back to open children
    /// and attach counts.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request_id: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            request_id,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            counts: Vec::new(),
        });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        r
    }

    /// Attaches a count to the innermost open span.
    pub fn count(&mut self, name: &'static str, value: u64) {
        let idx = *self.open.last().expect("count outside any span");
        self.spans[idx].counts.push((name, value));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// its direct children cover (overlapping children are not double
/// counted).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            children[p].push((s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi)));
        }
    }
    spans
        .iter()
        .zip(&mut children)
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
            s.duration_ns() - covered
        })
        .collect()
}

/// What a traced pass boils down to.
#[derive(Debug, Clone)]
pub struct TraceSummary {
    pub requests: usize,
    pub spans: usize,
    /// Sum of root-span durations.
    pub root_ns: u64,
    /// Self time summed per layer (`service`, `rptrie`, ...; `request` is
    /// the harness's own bracket).
    pub self_ns_by_layer: BTreeMap<&'static str, u64>,
    /// Counts summed per `span name / count name`.
    pub counts: BTreeMap<String, u64>,
}

impl TraceSummary {
    pub fn self_sum_ns(&self) -> u64 {
        self.self_ns_by_layer.values().sum()
    }

    /// Mean self time per request of `layer`, in microseconds.
    pub fn self_us_per_request(&self, layer: &str) -> f64 {
        let ns = self.self_ns_by_layer.get(layer).copied().unwrap_or(0);
        ns as f64 / 1e3 / self.requests.max(1) as f64
    }
}

pub fn summarize(spans: &[Span]) -> TraceSummary {
    let selfs = self_times_ns(spans);
    let mut by_layer: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    let (mut requests, mut root_ns) = (0usize, 0u64);
    for (s, self_ns) in spans.iter().zip(selfs) {
        *by_layer.entry(s.layer()).or_default() += self_ns;
        if s.parent.is_none() {
            // A request has up to two roots: its real call's bracket and,
            // later, the bracket around its replays.
            requests += usize::from(s.name == "request");
            root_ns += s.duration_ns();
        }
        for &(name, v) in &s.counts {
            *counts.entry(format!("{}/{}", s.name, name)).or_default() += v;
        }
    }
    TraceSummary {
        requests,
        spans: spans.len(),
        root_ns,
        self_ns_by_layer: by_layer,
        counts,
    }
}

/// The span file written when a traced run ends.
pub fn to_json(workload: &str, spans: &[Span]) -> Value {
    let selfs = self_times_ns(spans);
    let rows: Vec<Value> = spans
        .iter()
        .zip(selfs)
        .enumerate()
        .map(|(id, (s, self_ns))| {
            let mut counts = serde_json::Map::new();
            for &(name, v) in &s.counts {
                counts.insert(name.to_string(), json!(v));
            }
            json!({
                "id": id,
                "name": s.name,
                "request_id": s.request_id,
                "parent": s.parent,
                "start_ns": s.start_ns,
                "end_ns": s.end_ns,
                "self_ns": self_ns,
                "counts": Value::Object(counts),
            })
        })
        .collect();
    json!({ "workload": workload, "spans": rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            request_id: 1,
            parent,
            start_ns,
            end_ns,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span("request", None, 0, 100),
            span("service.query", Some(0), 10, 40),
            span("rptrie.top_k", Some(0), 50, 90),
            span("distance.within", Some(2), 60, 70),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 30, 30, 10]);
        let s = summarize(&spans);
        assert_eq!(s.requests, 1);
        assert_eq!(s.root_ns, 100);
        assert_eq!(s.self_sum_ns(), 100, "self times sum to the root");
        assert_eq!(s.self_ns_by_layer["rptrie"], 30);
        assert_eq!(s.self_us_per_request("service"), 0.03);
        assert_eq!(s.self_us_per_request("shard"), 0.0);
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        let spans = vec![
            span("request", None, 0, 100),
            span("a.x", Some(0), 10, 60),
            span("a.y", Some(0), 40, 80),
            span("a.z", Some(0), 45, 50),
        ];
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn tracer_nests_by_call_and_keeps_counts() {
        let mut t = Tracer::new();
        let got = t.span("request", 9, |t| {
            t.span("service.query", 9, |t| {
                t.count("exact", 41);
                7
            })
        });
        assert_eq!(got, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].layer(), "service");
        assert_eq!(spans[1].counts, vec![("exact", 41)]);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(summarize(spans).counts["service.query/exact"], 41);
        let doc = to_json("w", spans);
        assert_eq!(doc["spans"].as_array().unwrap().len(), 2);
    }
}
