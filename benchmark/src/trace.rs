//! Outside-in tracing: spans recorded by the benchmark around its calls into
//! each crate's public functions. Spans live in memory and are written out
//! (Chrome trace events) when the run ends; nothing inside the engine is
//! instrumented — splitting `Executor::execute` is a later, in-program
//! tracing change.

use crate::stats::json_number;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call: `[start_ns, end_ns)` since the tracer was created, the
/// span that caused it, and the query it belongs to (spans of one query
/// execution share the id).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub query: Option<u32>,
    /// Counts read at the same boundary (blocks, bytes, …).
    pub counts: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span, returned by [`Tracer::begin`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

/// Per-name totals of the layer table.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    pub calls: usize,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Single-threaded span recorder. The generator thread is the only caller,
/// so the open spans form a stack and the innermost one is the parent.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, query: Option<u32>) -> SpanId {
        let now = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            query,
            counts: Vec::new(),
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Close `id` (and anything left open inside it) and return its duration
    /// in nanoseconds.
    pub fn end(&mut self, id: SpanId) -> u64 {
        let now = self.now_ns();
        while let Some(open) = self.open.pop() {
            self.spans[open].end_ns = now;
            if open == id.0 {
                break;
            }
        }
        self.spans[id.0].duration_ns()
    }

    /// Record one call as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        query: Option<u32>,
        call: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, query);
        let out = call();
        self.end(id);
        out
    }

    pub fn count(&mut self, id: SpanId, key: &'static str, value: f64) {
        self.spans[id.0].counts.push((key, value));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A position in the recording; pass it to [`Self::durations`] and
    /// [`Self::counts`] to read only what was recorded after it.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    fn named<'a>(&'a self, name: &'a str, mark: usize) -> impl Iterator<Item = &'a Span> {
        self.spans[mark..].iter().filter(move |span| span.name == name)
    }

    /// Durations in nanoseconds of the spans called `name` recorded since `mark`.
    pub fn durations(&self, name: &str, mark: usize) -> Vec<f64> {
        self.named(name, mark).map(|span| span.duration_ns() as f64).collect()
    }

    /// Values of the count `key` on the spans called `name` since `mark`.
    pub fn counts(&self, name: &str, key: &str, mark: usize) -> Vec<f64> {
        self.named(name, mark)
            .flat_map(|span| span.counts.iter().filter(|(k, _)| *k == key).map(|(_, v)| *v))
            .collect()
    }

    /// Per span name: calls, total time, and self time.
    pub fn layer_table(&self) -> BTreeMap<&'static str, LayerTotals> {
        let self_ns = self_times(&self.spans);
        let mut table: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self_ns) {
            let row = table.entry(span.name).or_default();
            row.calls += 1;
            row.total_ns += span.duration_ns();
            row.self_ns += self_ns;
        }
        table
    }

    /// The spans as Chrome trace events (`chrome://tracing`, Perfetto).
    pub fn chrome_json(&self, workload: &str) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, span) in self.spans.iter().enumerate() {
            let mut args = format!("\"span\":{i}");
            if let Some(parent) = span.parent {
                args.push_str(&format!(",\"parent\":{parent}"));
            }
            if let Some(query) = span.query {
                args.push_str(&format!(",\"query\":{query}"));
            }
            for (key, value) in &span.counts {
                args.push_str(&format!(",\"{key}\":{}", json_number(*value)));
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{workload}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{},\"dur\":{},\"args\":{{{args}}}}}{}\n",
                span.name,
                json_number(span.start_ns as f64 / 1e3),
                json_number(span.duration_ns() as f64 / 1e3),
                if i + 1 < self.spans.len() { "," } else { "" },
            ));
        }
        out.push_str("]}\n");
        out
    }
}

/// Make one call, as a span when there is a tracer to record it in (the
/// end-to-end run has none and times nothing here).
pub fn time<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    query: Option<u32>,
    call: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(tracer) => tracer.time(name, query, call),
        None => call(),
    }
}

/// Self time of every span: its duration minus the part of its interval its
/// direct children cover (overlapping children are not counted twice).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let (start, end) = (span.start_ns.max(p.start_ns), span.end_ns.min(p.end_ns));
            if start < end {
                children[parent].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut intervals)| {
            intervals.sort_unstable();
            let mut covered = 0;
            let mut frontier = span.start_ns;
            for (start, end) in intervals {
                let start = start.max(frontier);
                if end > start {
                    covered += end - start;
                    frontier = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, query: None, counts: Vec::new() }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = vec![
            span("session", 0, 100, None),
            span("plan", 10, 30, Some(0)),
            span("execute", 30, 90, Some(0)),
            span("inner", 40, 50, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 50, 10]);
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        let spans = vec![
            span("parent", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 40, 80, Some(0)),
            span("c", 50, 55, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn tracer_nests_and_tabulates() {
        let mut tracer = Tracer::new();
        let outer = tracer.begin("outer", Some(7));
        assert_eq!(tracer.time("inner", Some(7), || 41 + 1), 42);
        tracer.count(outer, "blocks", 3.0);
        tracer.end(outer);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let table = tracer.layer_table();
        assert_eq!(table["outer"].calls, 1);
        assert_eq!(table["outer"].self_ns, spans[0].duration_ns() - spans[1].duration_ns());
        assert_eq!(tracer.durations("inner", 0), vec![spans[1].duration_ns() as f64]);
        assert_eq!(tracer.counts("outer", "blocks", 0), vec![3.0]);
        assert!(tracer.durations("inner", tracer.mark()).is_empty());
        let json = tracer.chrome_json("w");
        assert!(json.contains("\"name\":\"inner\"") && json.contains("\"blocks\":3"));
    }
}
