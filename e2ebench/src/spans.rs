//! In-memory spans recorded by the benchmark around its calls into each
//! layer.  Nothing is recorded inside the program under test.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::time::Instant;

/// A recorded span: one call into one layer on behalf of one job.
#[derive(Clone, Debug)]
pub struct Span {
    /// The layer call, named `<layer>.<call>` after the repository's
    /// modules (`spec.parse`, `runner.execute`, `fleet.wait`, …).
    pub name: &'static str,
    /// The job the call served.
    pub job: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer's epoch.
    pub start: u64,
    /// Nanoseconds since the tracer's epoch; `start` while still open.
    pub end: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end - self.start
    }
}

/// A handle to an open span.
#[derive(Clone, Copy, Debug)]
pub struct SpanId(Option<usize>);

/// Records spans, or does nothing at all when disabled, so the same
/// replay code runs traced and untraced.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recording tracer.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled: true,
            spans: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent`.
    pub fn open(&mut self, name: &'static str, job: u64, parent: Option<SpanId>) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            job,
            parent: parent.and_then(|p| p.0),
            start,
            end: start,
        });
        SpanId(Some(self.spans.len() - 1))
    }

    /// Closes a span.
    pub fn close(&mut self, id: SpanId) {
        if let Some(index) = id.0 {
            self.spans[index].end = self.now();
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        job: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, job, parent);
        let value = f();
        self.close(id);
        value
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Span durations in nanoseconds by job and name (the last span wins
    /// when a job has several of one name).
    pub fn durations(&self) -> HashMap<(u64, &'static str), u64> {
        self.spans
            .iter()
            .map(|s| ((s.job, s.name), s.nanos()))
            .collect()
    }

    /// Self time per span name: each span's duration minus the part of
    /// it its children cover, summed by name, with the span count.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (index, span) in self.spans.iter().enumerate() {
            if let Some(parent) = span.parent {
                children[parent].push(index);
            }
        }
        let mut totals: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (index, span) in self.spans.iter().enumerate() {
            let mut covered: Vec<(u64, u64)> = children[index]
                .iter()
                .map(|&c| {
                    let child = &self.spans[c];
                    (child.start.max(span.start), child.end.min(span.end))
                })
                .filter(|(start, end)| start < end)
                .collect();
            covered.sort_unstable();
            let mut union = 0;
            let mut reach = span.start;
            for (start, end) in covered {
                let start = start.max(reach);
                if end > start {
                    union += end - start;
                    reach = end;
                }
            }
            let entry = totals.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += span.nanos() - union;
        }
        totals
    }

    /// The spans as tab-separated lines: index, parent, job, name, start
    /// and end nanoseconds.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("index\tparent\tjob\tname\tstart_ns\tend_ns\n");
        for (index, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{index}\t{parent}\t{}\t{}\t{}\t{}",
                s.job, s.name, s.start, s.end
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracer with hand-placed spans.
    fn tracer(spans: Vec<Span>) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled: true,
            spans,
        }
    }

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            job: 1,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t = tracer(vec![
            span("job", None, 0, 100),
            span("a", Some(0), 10, 40),
            // Overlaps `a`: only 40..50 is new coverage.
            span("b", Some(0), 30, 50),
            span("a", Some(0), 60, 70),
            span("inner", Some(3), 62, 65),
        ]);
        let selves = t.self_times();
        assert_eq!(selves["job"], (1, 100 - 40 - 10));
        assert_eq!(selves["a"], (2, 30 + 7));
        assert_eq!(selves["b"], (1, 20));
        assert_eq!(selves["inner"], (1, 3));
        let durations = t.durations();
        assert_eq!(durations[&(1, "a")], 10);
        assert!(!durations.contains_key(&(2, "a")));
    }

    #[test]
    fn disabled_tracer_records_nothing_but_runs_the_body() {
        let mut t = Tracer::disabled();
        let root = t.open("job", 1, None);
        assert_eq!(t.span("x", 1, Some(root), || 41 + 1), 42);
        t.close(root);
        assert!(t.spans().is_empty());
        let mut on = Tracer::new();
        let root = on.open("job", 1, None);
        on.span("x", 1, Some(root), || ());
        on.close(root);
        assert_eq!(on.spans().len(), 2);
        assert_eq!(on.spans()[1].parent, Some(0));
        assert!(on.to_tsv().lines().count() == 3);
    }
}
