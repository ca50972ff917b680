//! In-memory spans recorded from the benchmark's side of every layer call.
//!
//! Nothing inside the libraries is instrumented (that is a later issue):
//! a span brackets a call into a layer's public function. Spans live in a
//! `Vec` until the run ends and are then written out as one JSON file.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// Span names that only group other spans: their self time is time the
/// trace could not attribute to any layer.
pub const CONTAINERS: [&str; 2] = ["request", "batch"];

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Index of the span that caused this one, if any.
    pub parent: Option<usize>,
    /// Spans of one request share this identifier.
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    /// Counts taken at the same boundaries as the spans.
    pub counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str, request: u64) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            request,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) {
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Time a closure as one span.
    pub fn span<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, request);
        let value = f();
        self.end(id);
        value
    }

    /// Record a span whose endpoints were clocked elsewhere (another thread).
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span { name, parent, request, start_ns, end_ns });
        self.spans.len() - 1
    }

    pub fn count(&mut self, name: &'static str, by: u64) {
        *self.counts.entry(name).or_insert(0) += by;
    }

    pub fn to_json(&self, workload: &str) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj([
                    ("id", Json::Num(id as f64)),
                    ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                    ("name", Json::str(s.name)),
                    ("request", Json::Num(s.request as f64)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                ])
            })
            .collect();
        Json::obj([
            ("workload", Json::str(workload)),
            ("self_ns", map_json(&self_times(&self.spans))),
            ("counts", map_json(&self.counts)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

fn map_json(map: &BTreeMap<&'static str, u64>) -> Json {
    Json::obj(map.iter().map(|(k, v)| (*k, Json::Num(*v as f64))))
}

/// Self time per span name: each span's duration minus the part of it its
/// direct children cover. Children are clipped to the parent's interval and
/// overlapping children are merged first, so concurrent children (a submit
/// and a wait that overlap) are never subtracted twice.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let start = span.start_ns.clamp(p.start_ns, p.end_ns);
            let end = span.end_ns.clamp(p.start_ns, p.end_ns);
            if end > start {
                children[parent].push((start, end));
            }
        }
    }
    let mut totals = BTreeMap::new();
    for (span, kids) in spans.iter().zip(children.iter_mut()) {
        kids.sort_unstable();
        let mut covered = 0;
        let mut reach = 0;
        for &(start, end) in kids.iter() {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        *totals.entry(span.name).or_insert(0) += span.duration_ns() - covered;
    }
    totals
}

/// Total self time of the layer spans (everything that is not a container).
pub fn attributed_ns(self_ns: &BTreeMap<&'static str, u64>) -> u64 {
    self_ns.iter().filter(|(name, _)| !CONTAINERS.contains(name)).map(|(_, ns)| ns).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span { name, parent, request: 0, start_ns, end_ns }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span("request", None, 0, 100),
            span("cache.hit", Some(0), 5, 15),
            span("fabric.run", Some(0), 20, 90),
        ];
        let totals = self_times(&spans);
        assert_eq!(totals["request"], 20);
        assert_eq!(totals["cache.hit"], 10);
        assert_eq!(totals["fabric.run"], 70);
        assert_eq!(attributed_ns(&totals), 80);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_not_subtracted_twice() {
        let spans = [
            span("request", None, 10, 110),
            // Two children overlapping on [40, 60].
            span("serve.submit", Some(0), 20, 60),
            span("serve.wait", Some(0), 40, 100),
            // A child clocked on another thread that overhangs the parent.
            span("serve.wait", Some(0), 100, 150),
            // A grandchild only reduces its own parent.
            span("inner", Some(1), 30, 50),
        ];
        let totals = self_times(&spans);
        // Children cover [20, 110] of [10, 110].
        assert_eq!(totals["request"], 10);
        assert_eq!(totals["serve.submit"], 20);
        assert_eq!(totals["serve.wait"], 60 + 50);
        assert_eq!(totals["inner"], 20);
    }

    #[test]
    fn tracer_nests_spans_and_counts() {
        let mut tracer = Tracer::new();
        let outer = tracer.begin("request", 7);
        tracer.span("fabric.run", 7, || std::hint::black_box(1 + 1));
        tracer.count("fabric.runs", 1);
        tracer.count("fabric.runs", 2);
        tracer.end(outer);
        assert_eq!(tracer.spans[1].parent, Some(outer));
        assert_eq!(tracer.spans[1].request, 7);
        assert!(tracer.spans[0].end_ns >= tracer.spans[1].end_ns);
        assert_eq!(tracer.counts["fabric.runs"], 3);
        let json = tracer.to_json("w");
        assert_eq!(json.get("spans").unwrap().as_arr().unwrap().len(), 2);
    }
}
