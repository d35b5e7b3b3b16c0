//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! Nothing inside `crates/` is instrumented: a span is either the wall
//! time of a call made from this package, or a phase of a round laid out
//! from the public `RoundSummary` timings. Spans stay in memory and are
//! written as one JSON file when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval. `parent` indexes into the tracer's span list.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The protocol round the span belongs to, for round phases.
    pub round: Option<u64>,
}

/// Span recorder. A disabled tracer runs the closure and records
/// nothing, so measured (untraced) jobs go through the same call sites.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; `None` when disabled. Close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &str, parent: Option<usize>) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        Some(self.push(name, start_ns, start_ns, parent, None))
    }

    pub fn end(&mut self, span: Option<usize>) {
        if let Some(id) = span {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &str, parent: Option<usize>, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, parent);
        let result = f();
        self.end(id);
        result
    }

    /// Records an interval whose bounds were measured elsewhere (round
    /// phases reconstructed from a `RoundSummary`).
    pub fn record(
        &mut self,
        name: &str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        round: Option<u64>,
    ) -> Option<usize> {
        self.enabled
            .then(|| self.push(name, start_ns, end_ns, parent, round))
    }

    fn push(
        &mut self,
        name: &str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        round: Option<u64>,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            round,
        });
        self.spans.len() - 1
    }

    /// The spans as a JSON array of `{name, start, end, parent, round}`
    /// objects (times in ns since the tracer's epoch).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = write!(
                out,
                "  {{\"name\": \"{}\", \"start\": {}, \"end\": {}, \"parent\": {}, \"round\": {}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.round),
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children. Children may overlap each other (a
/// streaming round votes inside its wire window) and may stick out of
/// the parent (reconstructed phases); only the union of their overlap
/// with the parent is subtracted.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (start, end) = (
                s.start_ns.max(spans[p].start_ns),
                s.end_ns.min(spans[p].end_ns),
            );
            if start < end {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns: start,
            end_ns: end,
            parent,
            round: None,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = vec![
            span("round", 0, 100, None),
            span("compute", 0, 30, Some(0)),
            span("wire", 30, 70, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 30, 40]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // vote runs inside the wire window, as in a streaming round.
        let spans = vec![
            span("round", 0, 100, None),
            span("wire", 10, 80, Some(0)),
            span("vote", 40, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 80);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![
            span("round", 50, 100, None),
            span("early", 0, 60, Some(0)),
            span("late", 90, 500, Some(0)),
            span("outside", 200, 300, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 50 - 10 - 10);
    }

    #[test]
    fn grandchildren_only_reduce_their_own_parent() {
        let spans = vec![
            span("job", 0, 100, None),
            span("serve", 10, 90, Some(0)),
            span("round", 20, 60, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 40, 40]);
    }

    #[test]
    fn disabled_tracer_records_nothing_but_still_runs_the_call() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", None, || 7), 7);
        assert!(t.begin("y", None).is_none());
        assert!(t.record("z", 0, 1, None, Some(1)).is_none());
        assert!(t.spans().is_empty());
    }

    #[test]
    fn enabled_tracer_nests_and_serializes() {
        let mut t = Tracer::new(true);
        let job = t.begin("job", None);
        t.span("serve", job, || ());
        t.record("round", 5, 9, job, Some(3));
        t.end(job);
        assert_eq!(t.spans().len(), 3);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        let json = t.to_json();
        assert!(json.contains(
            "\"name\": \"round\", \"start\": 5, \"end\": 9, \"parent\": 0, \"round\": 3"
        ));
        assert!(json.contains("\"parent\": null, \"round\": null"));
    }
}
