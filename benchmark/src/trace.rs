//! In-memory spans for the traced mode: name, start, end, parent and op
//! id, recorded by the benchmark around its calls into each layer and
//! written out once the run ends. With tracing off nothing is recorded
//! and the timed ops call the user-facing entry points directly.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One finished (or open) span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `pointsto.solve`; op roots are `op`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was made.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was made.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The op the span belongs to.
    pub op: u64,
}

/// A span recorder. Spans nest strictly: `open` pushes, `close` pops.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
    counters: BTreeMap<&'static str, f64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder.
    #[must_use]
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            counters: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Start a new op: opens its root span (`op`).
    pub fn begin_op(&mut self) {
        assert!(self.stack.is_empty(), "ops do not nest");
        self.op += 1;
        self.open("op");
    }

    /// Close the current op's root span.
    pub fn end_op(&mut self) {
        self.close();
        assert!(self.stack.is_empty(), "op closed with open layer spans");
    }

    /// Open a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn close(&mut self) {
        let i = self.stack.pop().expect("close without open");
        self.spans[i].end_ns = self.now_ns();
    }

    /// Run `f` under a leaf span.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.open(name);
        let out = f();
        self.close();
        out
    }

    /// Add to a layer counter (counts recorded at the layer boundary,
    /// so ratios are measured where the work happens).
    pub fn count(&mut self, name: &'static str, v: f64) {
        *self.counters.entry(name).or_insert(0.0) += v;
    }

    /// A layer counter's total (0 if never counted).
    #[must_use]
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// The recorded spans.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name in milliseconds: each span's duration
    /// minus the time its children cover, summed over the run.
    #[must_use]
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(*c);
            *out.entry(s.name).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// Share of op wall time that no layer span covers (the self time
    /// of the `op` roots over their total duration).
    #[must_use]
    pub fn uncovered_share(&self) -> f64 {
        let total: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        let uncovered = self.self_ms().get("op").copied().unwrap_or(0.0) * 1e6;
        if total == 0 {
            0.0
        } else {
            uncovered / total as f64
        }
    }

    /// The spans as JSON lines.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.op
            );
        }
        out
    }
}
