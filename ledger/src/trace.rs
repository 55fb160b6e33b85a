//! In-memory spans recorded by the benchmark around its calls into each
//! layer. A span has a name, start, end, parent and the pass it belongs
//! to, plus the counts observed at that boundary (values attempted, values
//! a tier accepted). Spans are kept in memory and written out once, at the
//! end of the run.

use crate::host::json_str;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub pass: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub attempted: u64,
    pub accepted: u64,
}

/// Sums over every span of one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub self_ns: u64,
    pub attempted: u64,
    pub accepted: u64,
}

impl Totals {
    /// Self time per attempted value.
    pub fn ns_per_value(&self) -> f64 {
        self.self_ns as f64 / self.attempted.max(1) as f64
    }

    /// Accepted over attempted.
    pub fn accept(&self) -> f64 {
        self.accepted as f64 / self.attempted.max(1) as f64
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: u32,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
        }
    }

    /// Starts a new pass: later spans share its id.
    pub fn next_pass(&mut self) {
        self.pass += 1;
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            pass: self.pass,
            parent: self.open.last().copied(),
            start_ns: 0,
            end_ns: 0,
            attempted: 0,
            accepted: 0,
        });
        self.open.push(id);
        self.spans[id].start_ns = self.now();
        id
    }

    /// Closes span `id` (the innermost open one) with its counts.
    pub fn end(&mut self, id: usize, attempted: u64, accepted: u64) {
        let end = self.now();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.attempted = attempted;
        span.accepted = accepted;
    }

    /// Runs `f` inside a span; `f` returns (attempted, accepted).
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> (u64, u64, R)) -> R {
        let id = self.begin(name);
        let (attempted, accepted, out) = f();
        self.end(id, attempted, accepted);
        out
    }

    /// Per-name totals of self time (duration minus the time covered by
    /// child spans) and counts.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut totals = BTreeMap::<&'static str, Totals>::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let t = totals.entry(s.name).or_default();
            t.self_ns += (s.end_ns - s.start_ns).saturating_sub(covered);
            t.attempted += s.attempted;
            t.accepted += s.accepted;
        }
        totals
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            write!(
                out,
                "{{\"id\":{i},\"name\":{},\"pass\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"attempted\":{},\"accepted\":{}}}",
                json_str(s.name),
                s.pass,
                s.start_ns,
                s.end_ns,
                s.attempted,
                s.accepted
            )
            .expect("writing to a String");
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.next_pass();
        let root = t.begin("root");
        let child = t.begin("child");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(child, 10, 4);
        t.end(root, 0, 0);
        let totals = t.totals();
        let (r, c) = (totals["root"], totals["child"]);
        assert!(c.self_ns >= 2_000_000);
        assert!(r.self_ns < c.self_ns, "root self time is net of its child");
        assert_eq!((c.attempted, c.accepted), (10, 4));
        assert!((c.accept() - 0.4).abs() < 1e-12);
        assert!(t.to_json().contains("\"parent\":0"));
    }
}
