//! Structured trace events.
//!
//! A query moving through the engine emits a small stream of events —
//! parse, rewrites fired (with *where* they fired), compile, execute —
//! through a [`Tracer`] into a pluggable [`TraceSink`]. The stock sink
//! is [`TraceRing`], a bounded ring buffer that drops the oldest events
//! under pressure, so tracing is safe to leave enabled in a server.
//!
//! Everything here is std-only; events render to JSON by hand.

use crate::profile::Clock;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The engine phase an event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TracePhase {
    /// Source text parsed into the AST.
    Parse,
    /// AST compiled into IR.
    Compile,
    /// A rewrite fired (detail says which, and where).
    RewriteFired,
    /// A prepared query was executed.
    Execute,
}

impl TracePhase {
    /// The wire name of the phase.
    pub fn as_str(&self) -> &'static str {
        match self {
            TracePhase::Parse => "parse",
            TracePhase::Compile => "compile",
            TracePhase::RewriteFired => "rewrite-fired",
            TracePhase::Execute => "execute",
        }
    }
}

/// One trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Clock reading when the event was emitted (nanoseconds).
    pub ts_nanos: u64,
    /// The query this event belongs to.
    pub query_id: u64,
    /// Which phase emitted it.
    pub phase: TracePhase,
    /// Human-readable detail.
    pub detail: String,
}

impl TraceEvent {
    /// Render the event as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"ts_ns\":{},\"query_id\":{},\"phase\":\"{}\",\"detail\":\"{}\"}}",
            self.ts_nanos,
            self.query_id,
            self.phase.as_str(),
            json_escape(&self.detail)
        )
    }
}

/// Escape `s` for the inside of a JSON string literal: the one escaper
/// behind every JSON document the engine, the service and the CLI
/// write by hand.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Where trace events go. Implementations must tolerate concurrent
/// emitters (the service traces from many worker threads).
pub trait TraceSink: std::fmt::Debug + Send + Sync {
    /// Consume one event.
    fn emit(&self, event: TraceEvent);
}

/// A bounded ring buffer of the most recent events. When full, the
/// oldest event is dropped and counted, never blocking the emitter.
#[derive(Debug)]
pub struct TraceRing {
    capacity: usize,
    events: Mutex<VecDeque<TraceEvent>>,
    dropped: AtomicU64,
}

impl TraceRing {
    /// A ring holding at most `capacity` events.
    pub fn new(capacity: usize) -> TraceRing {
        TraceRing {
            capacity: capacity.max(1),
            events: Mutex::new(VecDeque::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.lock().expect("trace ring poisoned").len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events dropped because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Drain all buffered events, oldest first.
    pub fn drain(&self) -> Vec<TraceEvent> {
        self.events
            .lock()
            .expect("trace ring poisoned")
            .drain(..)
            .collect()
    }

    /// Render all buffered events (without draining) as a JSON array,
    /// one event per line.
    pub fn to_json(&self) -> String {
        let events = self.events.lock().expect("trace ring poisoned");
        let mut out = String::from("[\n");
        for (i, e) in events.iter().enumerate() {
            out.push_str("  ");
            out.push_str(&e.to_json());
            if i + 1 < events.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push(']');
        out
    }
}

impl TraceSink for TraceRing {
    fn emit(&self, event: TraceEvent) {
        let mut events = self.events.lock().expect("trace ring poisoned");
        if events.len() >= self.capacity {
            events.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        events.push_back(event);
    }
}

/// A handle that stamps events with a query id and clock reading and
/// forwards them to the sink. Cheap to clone (two `Arc`s).
#[derive(Debug, Clone)]
pub struct Tracer {
    query_id: u64,
    clock: Arc<dyn Clock>,
    sink: Arc<dyn TraceSink>,
}

impl Tracer {
    /// A tracer for one query.
    pub fn new(query_id: u64, clock: Arc<dyn Clock>, sink: Arc<dyn TraceSink>) -> Tracer {
        Tracer {
            query_id,
            clock,
            sink,
        }
    }

    /// The query id events are stamped with.
    pub fn query_id(&self) -> u64 {
        self.query_id
    }

    /// Emit one event, stamped with the tracer's query id and the
    /// clock's current reading.
    pub fn emit(&self, phase: TracePhase, detail: impl Into<String>) {
        self.sink.emit(TraceEvent {
            ts_nanos: self.clock.now_nanos(),
            query_id: self.query_id,
            phase,
            detail: detail.into(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::TickClock;

    fn tracer(ring: &Arc<TraceRing>) -> Tracer {
        Tracer::new(7, Arc::new(TickClock::new(10)), Arc::clone(ring) as _)
    }

    #[test]
    fn events_are_stamped_and_ordered() {
        let ring = Arc::new(TraceRing::new(16));
        let t = tracer(&ring);
        t.emit(TracePhase::Parse, "parsed");
        t.emit(TracePhase::Compile, "compiled");
        let events = ring.drain();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].phase, TracePhase::Parse);
        assert_eq!(events[0].query_id, 7);
        assert_eq!(events[0].ts_nanos, 10);
        assert_eq!(events[1].ts_nanos, 20);
        assert!(ring.is_empty());
    }

    #[test]
    fn ring_drops_oldest_when_full() {
        let ring = Arc::new(TraceRing::new(2));
        let t = tracer(&ring);
        t.emit(TracePhase::Parse, "a");
        t.emit(TracePhase::Compile, "b");
        t.emit(TracePhase::Execute, "c");
        assert_eq!(ring.dropped(), 1);
        let events = ring.drain();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].detail, "b");
        assert_eq!(events[1].detail, "c");
    }

    #[test]
    fn json_escapes_details() {
        let e = TraceEvent {
            ts_nanos: 1,
            query_id: 2,
            phase: TracePhase::RewriteFired,
            detail: "say \"hi\"\nagain\\".into(),
        };
        assert_eq!(
            e.to_json(),
            "{\"ts_ns\":1,\"query_id\":2,\"phase\":\"rewrite-fired\",\
             \"detail\":\"say \\\"hi\\\"\\nagain\\\\\"}"
        );
        assert_eq!(json_escape("\u{1}\t\r"), "\\u0001\\t\\r");
    }

    #[test]
    fn ring_renders_json_array() {
        let ring = Arc::new(TraceRing::new(4));
        let t = tracer(&ring);
        t.emit(TracePhase::Parse, "a");
        t.emit(TracePhase::Execute, "b");
        let json = ring.to_json();
        assert!(json.starts_with("[\n"));
        assert!(json.ends_with(']'));
        assert_eq!(json.matches("\"phase\"").count(), 2);
        assert_eq!(json.matches(",\n").count(), 1);
    }
}
