//! The query flight recorder: a bounded in-memory ring of recent
//! query records plus per-plan-fingerprint aggregates.
//!
//! Every completed request — success or error — deposits one
//! [`FlightRecord`] carrying its request id, plan fingerprint, latency,
//! stats snapshot, per-FLWOR profile and worst cardinality misestimate.
//! The record is the one diagnostics shape of a query run: built by
//! [`FlightRecord::new`] and rendered by [`FlightRecord::full_json`]
//! for `GET /debug/query/<id>` and for `xqa run --diag-json` alike.
//! The ring keeps the last `capacity` records (oldest evicted first);
//! records for the *same plan shape* additionally fold into a
//! [`PlanAggregate`] keyed by the plan fingerprint, so `/debug/plans`
//! can answer "which plan shapes dominate service time, and how wrong
//! were their cardinality estimates" long after the individual records
//! have been evicted. At most `capacity` aggregates are held too: a new
//! fingerprint at the bound evicts the one with the least cumulative
//! latency, which `/debug/plans` ranks last.
//!
//! Recording takes two short `Mutex` sections (ring push, aggregate
//! fold) over pre-rendered strings — no serialization happens under a
//! lock — so the recorder is safe to leave always-on. A capacity of
//! `0` disables it entirely: [`FlightRecorder::record`] returns without
//! touching either lock, which is what the recorder-overhead
//! differential test compares against.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::metrics::LatencyHistogram;
use xqa_engine::trace::json_escape;
use xqa_engine::{EvalStatsSnapshot, PreparedQuery, QueryProfile};

/// Everything the recorder retains about one completed request.
#[derive(Debug, Clone)]
pub struct FlightRecord {
    /// The request id the response carried (client-supplied or
    /// generated).
    pub request_id: String,
    /// Stable hash of the rewritten plan, `None` when the query never
    /// compiled (and so has no plan shape to aggregate under).
    pub fingerprint: Option<u64>,
    /// The query text, truncated for retention.
    pub query: String,
    /// Whether the request produced a result.
    pub ok: bool,
    /// Error `kind: message` when the request failed.
    pub error: Option<String>,
    /// Whether the plan came from the cache (`false` = compiled now).
    pub cached_plan: bool,
    /// Whether the response started to go out chunked: its head was
    /// sent, so a failure after that truncated the body instead of
    /// answering `400`. False for a buffered `Content-Length` response.
    pub streamed: bool,
    /// End-to-end latency in microseconds.
    pub latency_us: u64,
    /// Tuples the evaluation produced (the `tuples_produced` counter),
    /// failed runs included; 0 when the plan never ran.
    pub tuples: u64,
    /// Largest per-operator q-error in the profile of a successful run,
    /// when estimates were available. A failed run's actuals stop short,
    /// so it reports none.
    pub worst_q_error: Option<f64>,
    /// Pre-rendered JSON of the [`EvalStats`] snapshot of a run that
    /// executed, failed runs included; `None` when the plan never ran.
    ///
    /// [`EvalStats`]: xqa_engine::EvalStats
    pub stats_json: Option<String>,
    /// Pre-rendered JSON of the full [`QueryProfile`] — one entry per
    /// FLWOR, with per-operator est/actual counters — of a run that
    /// executed, failed runs included; `None` when the plan never ran.
    ///
    /// [`QueryProfile`]: xqa_engine::QueryProfile
    pub profile_json: Option<String>,
    /// The compile trace, [`PreparedQuery::trace_json`] stamped with
    /// the request's counter when this request compiled the plan; `[]`
    /// for a cache hit or a failed compile.
    ///
    /// [`PreparedQuery::trace_json`]: xqa_engine::PreparedQuery::trace_json
    pub trace_json: String,
    /// The rewrite kinds that fired when this plan compiled (cache hits
    /// carry the kinds recorded on the plan, not an empty list).
    pub rewrites: Vec<String>,
}

/// Render rewrite kinds as a JSON array of strings.
fn rewrites_json(rewrites: &[String]) -> String {
    let mut out = String::from("[");
    for (i, kind) in rewrites.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(&json_escape(kind));
        out.push('"');
    }
    out.push(']');
    out
}

/// Cap on retained query text per record.
const MAX_QUERY_CHARS: usize = 200;

/// Truncate `query` to the recorder's retention cap.
fn truncate_query(query: &str) -> String {
    if query.chars().count() <= MAX_QUERY_CHARS {
        return query.to_string();
    }
    query.chars().take(MAX_QUERY_CHARS).collect::<String>() + "..."
}

/// What one executed run leaves for its record: its evaluator counters
/// and its operator profile.
type RunFacts<'a> = (&'a EvalStatsSnapshot, &'a QueryProfile);

impl FlightRecord {
    /// The record of one query run, for the server and the CLI alike.
    /// `plan` is the compiled plan and whether it came from the plan
    /// cache (`None` when the query never compiled); a plan compiled
    /// for this run contributes its compile trace, stamped `trace_id`.
    /// `run` is the finished run's facts, or its error and — when the
    /// plan ran before failing — the facts of what it did.
    pub fn new(
        request_id: String,
        query: &str,
        plan: Option<(&PreparedQuery, bool)>,
        trace_id: u64,
        latency: Duration,
        streamed: bool,
        run: Result<RunFacts<'_>, (String, Option<RunFacts<'_>>)>,
    ) -> FlightRecord {
        // Rewrite kinds in firing order, each once: a property of the
        // plan shape, so cache hits carry them too.
        let mut rewrites: Vec<String> = Vec::new();
        for note in plan.map_or(&[][..], |(p, _)| p.applied_rewrites()) {
            let kind = note.kind.as_str();
            if !rewrites.iter().any(|k| k == kind) {
                rewrites.push(kind.to_string());
            }
        }
        let trace_json = match plan {
            Some((p, false)) => p.trace_json(trace_id),
            _ => "[]".to_string(),
        };
        let (error, facts, worst_q_error) = match run {
            Ok(facts @ (_, profile)) => (
                None,
                Some(facts),
                profile.worst_misestimate().map(|m| m.q_error),
            ),
            Err((error, facts)) => (Some(error), facts, None),
        };
        FlightRecord {
            request_id,
            fingerprint: plan.map(|(p, _)| p.fingerprint()),
            query: truncate_query(query),
            ok: error.is_none(),
            error,
            cached_plan: plan.is_some_and(|(_, cached)| cached),
            streamed,
            latency_us: latency.as_micros() as u64,
            tuples: facts.map_or(0, |(stats, _)| stats.tuples_produced),
            worst_q_error,
            stats_json: facts.map(|(stats, _)| stats.to_json()),
            profile_json: facts.map(|(_, profile)| profile.to_json()),
            trace_json,
            rewrites,
        }
    }

    /// The compact one-line JSON used by `/debug/queries`.
    fn summary_json(&self) -> String {
        let mut out = format!("{{\"request_id\":\"{}\"", json_escape(&self.request_id));
        match self.fingerprint {
            Some(fp) => out.push_str(&format!(",\"fingerprint\":\"{fp:016x}\"")),
            None => out.push_str(",\"fingerprint\":null"),
        }
        out.push_str(&format!(
            ",\"ok\":{},\"cached_plan\":{},\"streamed\":{},\"latency_us\":{},\"tuples\":{}",
            self.ok, self.cached_plan, self.streamed, self.latency_us, self.tuples
        ));
        match self.worst_q_error {
            Some(q) => out.push_str(&format!(",\"worst_q_error\":{q:.2}")),
            None => out.push_str(",\"worst_q_error\":null"),
        }
        out.push_str(&format!(",\"query\":\"{}\"}}", json_escape(&self.query)));
        out
    }

    /// The full JSON served by `/debug/query/<id>` and written by
    /// `xqa run --diag-json`: the summary fields plus the error, the
    /// stats snapshot, the profile, the compile trace and the rewrite
    /// kinds.
    pub fn full_json(&self) -> String {
        let mut out = self.summary_json();
        out.pop(); // reopen the summary object
        match &self.error {
            Some(e) => out.push_str(&format!(",\"error\":\"{}\"", json_escape(e))),
            None => out.push_str(",\"error\":null"),
        }
        out.push_str(",\"stats\":");
        out.push_str(self.stats_json.as_deref().unwrap_or("null"));
        out.push_str(",\"profile\":");
        out.push_str(self.profile_json.as_deref().unwrap_or("null"));
        out.push_str(",\"compile_trace\":");
        out.push_str(&self.trace_json);
        out.push_str(",\"rewrites\":");
        out.push_str(&rewrites_json(&self.rewrites));
        out.push('}');
        out
    }
}

/// Running totals for one plan fingerprint.
#[derive(Debug)]
struct PlanAggregate {
    /// Representative query text (first request seen for this shape).
    query: String,
    /// Requests that ran this plan shape.
    count: u64,
    /// How many of them failed at run time.
    errors: u64,
    /// Cumulative latency, microseconds.
    total_us: u64,
    /// Cumulative tuples produced.
    tuples: u64,
    /// Latency distribution (for p50/p99).
    latency: LatencyHistogram,
    /// q-error accumulation over requests that had estimates.
    q_sum: f64,
    q_count: u64,
    q_max: f64,
    /// Rewrite kinds that fired for this plan shape (a property of the
    /// fingerprint, captured from the first record folded in).
    rewrites: Vec<String>,
}

impl PlanAggregate {
    fn new(query: String) -> PlanAggregate {
        PlanAggregate {
            query,
            count: 0,
            errors: 0,
            total_us: 0,
            tuples: 0,
            latency: LatencyHistogram::default(),
            q_sum: 0.0,
            q_count: 0,
            q_max: 0.0,
            rewrites: Vec::new(),
        }
    }

    fn fold(&mut self, record: &FlightRecord) {
        self.count += 1;
        if self.rewrites.is_empty() && !record.rewrites.is_empty() {
            self.rewrites = record.rewrites.clone();
        }
        if !record.ok {
            self.errors += 1;
        }
        self.total_us += record.latency_us;
        self.tuples += record.tuples;
        self.latency
            .record(std::time::Duration::from_micros(record.latency_us));
        if let Some(q) = record.worst_q_error {
            self.q_sum += q;
            self.q_count += 1;
            self.q_max = self.q_max.max(q);
        }
    }

    fn to_json(&self, fingerprint: u64) -> String {
        let mut out = format!(
            "{{\"fingerprint\":\"{fingerprint:016x}\",\"count\":{},\"errors\":{},\
             \"total_us\":{},\"p50_us\":{},\"p99_us\":{},\"tuples\":{}",
            self.count,
            self.errors,
            self.total_us,
            self.latency.quantile_us(0.5),
            self.latency.quantile_us(0.99),
            self.tuples
        );
        if self.q_count > 0 {
            out.push_str(&format!(
                ",\"mean_q_error\":{:.2},\"max_q_error\":{:.2}",
                self.q_sum / self.q_count as f64,
                self.q_max
            ));
        } else {
            out.push_str(",\"mean_q_error\":null,\"max_q_error\":null");
        }
        out.push_str(",\"rewrites\":");
        out.push_str(&rewrites_json(&self.rewrites));
        out.push_str(&format!(",\"query\":\"{}\"}}", json_escape(&self.query)));
        out
    }
}

/// The bounded recorder shared by all server workers.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    ring: Mutex<VecDeque<Arc<FlightRecord>>>,
    plans: Mutex<HashMap<u64, PlanAggregate>>,
    evicted: AtomicU64,
    /// Largest q-error ever recorded, stored as `f64` bits so the
    /// `/metrics` gauge reads without a lock.
    max_q_bits: AtomicU64,
}

impl FlightRecorder {
    /// A recorder retaining the last `capacity` records; `0` disables
    /// recording entirely.
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            capacity,
            ring: Mutex::new(VecDeque::new()),
            plans: Mutex::new(HashMap::new()),
            evicted: AtomicU64::new(0),
            max_q_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Whether records are being retained.
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Maximum retained records.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Deposit one record (no-op when disabled).
    pub fn record(&self, record: FlightRecord) {
        if !self.enabled() {
            return;
        }
        if let Some(q) = record.worst_q_error {
            // Relaxed max over f64 bits: non-negative floats compare
            // the same as their bit patterns.
            self.max_q_bits.fetch_max(q.to_bits(), Ordering::Relaxed);
        }
        if let Some(fp) = record.fingerprint {
            let mut plans = self.plans.lock().expect("flight plans poisoned");
            if plans.len() >= self.capacity && !plans.contains_key(&fp) {
                // Make room by dropping the aggregate `/debug/plans`
                // ranks last: least cumulative latency, then highest
                // fingerprint.
                let lightest = plans
                    .iter()
                    .min_by(|a, b| a.1.total_us.cmp(&b.1.total_us).then(b.0.cmp(a.0)))
                    .map(|(fp, _)| *fp);
                if let Some(lightest) = lightest {
                    plans.remove(&lightest);
                }
            }
            plans
                .entry(fp)
                .or_insert_with(|| PlanAggregate::new(record.query.clone()))
                .fold(&record);
        }
        let record = Arc::new(record);
        let mut ring = self.ring.lock().expect("flight ring poisoned");
        if ring.len() >= self.capacity {
            ring.pop_front();
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(record);
    }

    /// Records currently retained.
    pub fn len(&self) -> usize {
        self.ring.lock().expect("flight ring poisoned").len()
    }

    /// Whether the ring holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records dropped to stay within capacity.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// Distinct plan fingerprints whose aggregates are held (at most
    /// the capacity).
    pub fn fingerprint_count(&self) -> usize {
        self.plans.lock().expect("flight plans poisoned").len()
    }

    /// Largest q-error ever recorded (0.0 before any estimate-bearing
    /// request).
    pub fn max_q_error(&self) -> f64 {
        f64::from_bits(self.max_q_bits.load(Ordering::Relaxed))
    }

    /// `GET /debug/queries`: record summaries, newest first.
    pub fn recent_json(&self) -> String {
        let ring = self.ring.lock().expect("flight ring poisoned");
        let mut out = format!(
            "{{\"capacity\":{},\"evicted\":{},\"records\":[",
            self.capacity,
            self.evicted()
        );
        for (i, record) in ring.iter().rev().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&record.summary_json());
        }
        out.push_str("]}");
        out
    }

    /// `GET /debug/query/<id>`: the full record for `request_id`
    /// (newest match when a client reused an id), if still retained.
    pub fn query_json(&self, request_id: &str) -> Option<String> {
        let record = {
            let ring = self.ring.lock().expect("flight ring poisoned");
            ring.iter()
                .rev()
                .find(|r| r.request_id == request_id)
                .map(Arc::clone)
        };
        record.map(|r| r.full_json())
    }

    /// `GET /debug/plans`: per-fingerprint aggregates, heaviest (by
    /// cumulative latency) first, at most `top_k` of them.
    pub fn plans_json(&self, top_k: usize) -> String {
        let plans = self.plans.lock().expect("flight plans poisoned");
        let mut entries: Vec<(&u64, &PlanAggregate)> = plans.iter().collect();
        entries.sort_by(|a, b| b.1.total_us.cmp(&a.1.total_us).then(a.0.cmp(b.0)));
        let mut out = format!("{{\"fingerprints\":{},\"plans\":[", entries.len());
        for (i, (fp, agg)) in entries.iter().take(top_k).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&agg.to_json(**fp));
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: &str, fingerprint: u64, latency_us: u64, q: Option<f64>) -> FlightRecord {
        FlightRecord {
            request_id: id.to_string(),
            fingerprint: Some(fingerprint),
            query: format!("query {fingerprint}"),
            ok: true,
            error: None,
            cached_plan: false,
            streamed: false,
            latency_us,
            tuples: 3,
            worst_q_error: q,
            stats_json: Some("{}".to_string()),
            profile_json: Some("{}".to_string()),
            trace_json: "[]".to_string(),
            rewrites: vec!["index-scan".to_string()],
        }
    }

    #[test]
    fn capacity_zero_disables_recording() {
        let recorder = FlightRecorder::new(0);
        assert!(!recorder.enabled());
        recorder.record(record("1", 7, 10, Some(2.0)));
        assert_eq!(recorder.len(), 0);
        assert_eq!(recorder.fingerprint_count(), 0);
        assert_eq!(recorder.max_q_error(), 0.0);
        assert_eq!(
            recorder.recent_json(),
            "{\"capacity\":0,\"evicted\":0,\"records\":[]}"
        );
    }

    #[test]
    fn ring_evicts_oldest_first() {
        let recorder = FlightRecorder::new(3);
        for i in 1..=5u64 {
            recorder.record(record(&i.to_string(), i, 10, None));
        }
        assert_eq!(recorder.len(), 3);
        assert_eq!(recorder.evicted(), 2);
        // Newest first in the listing; "1" and "2" are gone.
        let json = recorder.recent_json();
        let ids: Vec<&str> = [
            "\"request_id\":\"5\"",
            "\"request_id\":\"4\"",
            "\"request_id\":\"3\"",
        ]
        .into_iter()
        .filter(|needle| json.contains(*needle))
        .collect();
        assert_eq!(ids.len(), 3, "{json}");
        assert!(!json.contains("\"request_id\":\"1\""), "{json}");
        assert!(recorder.query_json("1").is_none());
        assert!(recorder.query_json("5").is_some());
        let pos5 = json.find("\"request_id\":\"5\"").unwrap();
        let pos3 = json.find("\"request_id\":\"3\"").unwrap();
        assert!(pos5 < pos3, "newest first: {json}");
    }

    #[test]
    fn eviction_keeps_per_thread_fifo_order_under_concurrency() {
        let recorder = Arc::new(FlightRecorder::new(16));
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 50;
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let recorder = Arc::clone(&recorder);
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        recorder.record(record(&format!("t{t}-{i}"), t, 5, None));
                    }
                });
            }
        });
        assert_eq!(recorder.len(), 16);
        assert_eq!(
            recorder.evicted(),
            THREADS * PER_THREAD - 16,
            "every insert beyond capacity evicted exactly one record"
        );
        // Within the retained window each thread's records must still
        // appear in the order that thread inserted them (the ring is
        // FIFO; concurrency may interleave threads but never reorder
        // one thread's own records).
        let ring = recorder.ring.lock().unwrap();
        let mut last_seq: HashMap<u64, u64> = HashMap::new();
        for r in ring.iter() {
            let (t, i) = r.request_id[1..].split_once('-').unwrap();
            let (t, i): (u64, u64) = (t.parse().unwrap(), i.parse().unwrap());
            if let Some(prev) = last_seq.insert(t, i) {
                assert!(prev < i, "thread {t} reordered: {prev} before {i}");
            }
        }
    }

    #[test]
    fn plan_aggregates_fold_latency_tuples_and_q_error() {
        let recorder = FlightRecorder::new(8);
        recorder.record(record("1", 42, 100, Some(1.5)));
        recorder.record(record("2", 42, 300, Some(2.5)));
        recorder.record(record("3", 99, 50, None));
        assert_eq!(recorder.fingerprint_count(), 2);
        assert_eq!(recorder.max_q_error(), 2.5);
        let json = recorder.plans_json(10);
        assert!(
            json.starts_with("{\"fingerprints\":2,\"plans\":["),
            "{json}"
        );
        // Heaviest plan (42: 400us total) sorts first.
        let pos42 = json.find(&format!("{:016x}", 42u64)).unwrap();
        let pos99 = json.find(&format!("{:016x}", 99u64)).unwrap();
        assert!(pos42 < pos99, "{json}");
        assert!(json.contains("\"count\":2"), "{json}");
        assert!(json.contains("\"total_us\":400"), "{json}");
        assert!(json.contains("\"tuples\":6"), "{json}");
        assert!(json.contains("\"mean_q_error\":2.00"), "{json}");
        assert!(json.contains("\"max_q_error\":2.50"), "{json}");
        assert!(json.contains("\"mean_q_error\":null"), "{json}");
        // top_k truncates the list but not the fingerprint count.
        let top1 = recorder.plans_json(1);
        assert!(top1.starts_with("{\"fingerprints\":2,"), "{top1}");
        assert_eq!(top1.matches("\"count\":").count(), 1, "{top1}");
    }

    #[test]
    fn plan_aggregates_are_bounded_by_the_capacity() {
        let recorder = FlightRecorder::new(4);
        for fp in 1..=10u64 {
            recorder.record(record(&fp.to_string(), fp, fp * 100, None));
        }
        assert_eq!(recorder.fingerprint_count(), 4);
        let json = recorder.plans_json(10);
        for fp in 1..=10u64 {
            let held = json.contains(&format!("{fp:016x}"));
            assert_eq!(held, fp > 6, "fingerprint {fp}: {json}");
        }
        // A fingerprint already held folds in without evicting anyone.
        recorder.record(record("again", 7, 1, None));
        assert_eq!(recorder.fingerprint_count(), 4);
        assert!(recorder.plans_json(10).contains("\"count\":2"));
    }

    #[test]
    fn uncompiled_requests_land_in_the_ring_but_not_the_aggregates() {
        let recorder = FlightRecorder::new(4);
        recorder.record(FlightRecord::new(
            "bad".to_string(),
            "for $x in",
            None,
            1,
            Duration::from_micros(7),
            false,
            Err(("compile: unexpected end".to_string(), None)),
        ));
        assert_eq!(recorder.len(), 1);
        assert_eq!(recorder.fingerprint_count(), 0);
        let full = recorder.query_json("bad").unwrap();
        assert!(full.contains("\"fingerprint\":null"), "{full}");
        assert!(full.contains("\"ok\":false"), "{full}");
        assert!(
            full.contains("\"error\":\"compile: unexpected end\""),
            "{full}"
        );
        assert!(full.contains("\"stats\":null"), "{full}");
        assert!(full.contains("\"profile\":null"), "{full}");
        assert!(full.contains("\"compile_trace\":[]"), "{full}");
    }

    #[test]
    fn rewrite_kinds_ride_the_record_and_the_aggregate() {
        let recorder = FlightRecorder::new(4);
        let mut first = record("r1", 7, 10, None);
        first.rewrites = vec!["index-scan".to_string(), "join-unnest".to_string()];
        recorder.record(first);
        recorder.record(record("r2", 7, 20, None));
        let full = recorder.query_json("r1").unwrap();
        assert!(
            full.contains("\"rewrites\":[\"index-scan\",\"join-unnest\"]"),
            "{full}"
        );
        // The aggregate keeps the first non-empty list for the shape.
        let plans = recorder.plans_json(10);
        assert!(
            plans.contains("\"rewrites\":[\"index-scan\",\"join-unnest\"]"),
            "{plans}"
        );
    }

    #[test]
    fn query_text_is_truncated_for_retention() {
        let long = "x".repeat(500);
        let kept = truncate_query(&long);
        assert_eq!(kept.chars().count(), MAX_QUERY_CHARS + 3);
        assert!(kept.ends_with("..."));
        assert_eq!(truncate_query("short"), "short");
    }

    #[test]
    fn reused_request_ids_resolve_to_the_newest_record() {
        let recorder = FlightRecorder::new(4);
        recorder.record(record("dup", 1, 10, None));
        let mut second = record("dup", 2, 20, None);
        second.tuples = 99;
        recorder.record(second);
        let full = recorder.query_json("dup").unwrap();
        assert!(full.contains("\"tuples\":99"), "{full}");
    }
}
