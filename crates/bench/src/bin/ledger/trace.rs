//! In-memory spans around the calls into each layer, plus the samples
//! the per-layer metrics are medians of. Spans are kept in memory and
//! written out once, when the workload ends.
//!
//! Tracing is switched per operation: while `on` is false [`Trace::span`]
//! only calls its closure, so the untraced operations that the
//! end-to-end metrics come from read no clock here.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::alloc;

/// Parent index of a span that has no parent.
pub const NO_PARENT: u32 = u32::MAX;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    /// The operation the span belongs to; spans of one op share it.
    /// Spans outside any operation (set-up, extra measurements after
    /// the measuring loop) carry op 0.
    pub op: u32,
}

pub struct Trace {
    pub on: bool,
    origin: Instant,
    pub spans: Vec<Span>,
    /// Metric name -> one sample per call (or per op).
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Innermost open span.
    current: u32,
    /// The operation under way, or 0 between operations.
    op: u32,
    ops_started: u32,
}

impl Trace {
    pub fn new(on: bool) -> Trace {
        Trace {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            samples: BTreeMap::new(),
            current: NO_PARENT,
            op: 0,
            ops_started: 0,
        }
    }

    /// The instant span times are measured from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Start the next operation: spans opened until [`Trace::end_op`]
    /// carry its id.
    pub fn next_op(&mut self) {
        self.ops_started += 1;
        self.op = self.ops_started;
    }

    pub fn end_op(&mut self) {
        self.op = 0;
    }

    /// Run `f` inside a span named `name`, a child of the innermost open
    /// span. Returns `f`'s result, the span's duration in nanoseconds
    /// and its index (0 and [`NO_PARENT`] while tracing is off).
    pub fn span<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Trace) -> T,
    ) -> (T, u64, u32) {
        if !self.on {
            return (f(self), 0, NO_PARENT);
        }
        let index = self.spans.len() as u32;
        let parent = self.current;
        let span = Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
            op: self.op,
        };
        alloc::paused(|| self.spans.push(span));
        self.current = index;
        let value = f(self);
        self.current = parent;
        let end = self.now_ns();
        let span = &mut self.spans[index as usize];
        span.end_ns = end;
        (value, end - span.start_ns, index)
    }

    /// Record a span measured elsewhere (the engine's own per-operator
    /// self times), laid out from `start_ns` under `parent`.
    pub fn synthetic(&mut self, name: &'static str, parent: u32, start_ns: u64, nanos: u64) {
        let span = Span {
            name,
            start_ns,
            end_ns: start_ns + nanos,
            parent,
            op: self.op,
        };
        alloc::paused(|| self.spans.push(span));
    }

    pub fn sample(&mut self, metric: &'static str, value: f64) {
        alloc::paused(|| self.samples.entry(metric).or_default().push(value));
    }

    /// The ledger's own sampling inside an operation: in a
    /// `ledger.sample` span, so the accounting identity sees its time,
    /// and with the allocation counter paused, so `engine.allocs_per_op`
    /// does not see its allocations.
    pub fn sampling(&mut self, f: impl FnOnce(&mut Trace)) {
        self.span("ledger.sample", |tr| alloc::paused(|| f(tr)));
    }

    /// Nanoseconds of span `index` that none of its child spans cover.
    /// Children of one parent never overlap here: each is opened after
    /// the previous one closed.
    pub fn uncovered_ns(&self, index: u32) -> u64 {
        let span = &self.spans[index as usize];
        let covered: u64 = self.spans[index as usize + 1..]
            .iter()
            .filter(|s| s.parent == index)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        (span.end_ns - span.start_ns).saturating_sub(covered)
    }

    /// The span file: every span, and each metric's sample count.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = format!("{{\"workload\":\"{workload}\",\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                if s.parent == NO_PARENT {
                    "null".to_string()
                } else {
                    s.parent.to_string()
                },
                s.op
            );
        }
        out.push_str("\n],\"samples\":{");
        for (i, (name, values)) in self.samples.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n\"{name}\":{}", values.len());
        }
        out.push_str("\n}}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_switch_off() {
        let mut tr = Trace::new(true);
        tr.next_op();
        let ((), _, outer) = tr.span("op", |tr| {
            tr.span("a", |_| ());
            tr.span("b", |tr| {
                tr.span("c", |_| ());
            });
        });
        assert_eq!(outer, 0);
        let names: Vec<_> = tr.spans.iter().map(|s| (s.name, s.parent, s.op)).collect();
        assert_eq!(
            names,
            [("op", NO_PARENT, 1), ("a", 0, 1), ("b", 0, 1), ("c", 2, 1)]
        );
        let op = &tr.spans[0];
        let children = (tr.spans[1].end_ns - tr.spans[1].start_ns)
            + (tr.spans[2].end_ns - tr.spans[2].start_ns);
        assert_eq!(tr.uncovered_ns(0), op.end_ns - op.start_ns - children);
        tr.end_op();
        tr.span("after", |_| ());
        assert_eq!(tr.spans.pop().map(|s| s.op), Some(0));
        tr.on = false;
        let (v, ns, index) = tr.span("off", |_| 7);
        assert_eq!((v, ns, index), (7, 0, NO_PARENT));
        assert_eq!(tr.spans.len(), 4);
        assert!(crate::json::parse(&tr.to_json("w")).is_ok());
    }
}
