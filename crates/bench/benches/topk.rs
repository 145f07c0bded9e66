//! Top-k rank benches: `return at $rank` under a positional bound, the
//! §4 headline use case. Measures the bounded-heap order-by (top-k
//! pushdown) against the same pipeline with the rewrite disabled (full
//! sort), over growing input sizes and growing group counts (k = 10).

use xqa::{serialize_sequence, Engine, EngineOptions};
use xqa_bench::harness::Harness;
use xqa_bench::Dataset;
use xqa_service::{FlightRecord, FlightRecorder};

const K: usize = 10;

/// Measure the flight recorder's per-query tax: depositing one
/// realistic record (pre-rendered stats + profile JSON, ring at
/// steady-state capacity) into an enabled recorder, minus the same
/// call against a disabled (capacity-0) one. Returns nanoseconds per
/// record.
fn recorder_tax_ns(profile_json: &str, query: &str) -> f64 {
    const RECORDS: u64 = 20_000;
    let make = |i: u64| FlightRecord {
        request_id: i.to_string(),
        fingerprint: Some(0x8486_d01b_7883_8283 ^ (i % 7)),
        query: query.to_string(),
        ok: true,
        error: None,
        cached_plan: i > 0,
        latency_us: 150 + i % 50,
        tuples: 1_000,
        worst_q_error: Some(1.0 + (i % 10) as f64 / 10.0),
        stats_json: Some("{\"tuples_produced\":1000}".to_string()),
        profile_json: Some(profile_json.to_string()),
        trace_json: "[]".to_string(),
        rewrites: vec!["topk-pushdown".to_string()],
        streamed: false,
    };
    let timed = |recorder: &FlightRecorder| {
        let start = std::time::Instant::now();
        for i in 0..RECORDS {
            recorder.record(make(i));
        }
        start.elapsed().as_nanos() as f64 / RECORDS as f64
    };
    let on = FlightRecorder::new(256);
    let off = FlightRecorder::new(0);
    // Warm both paths (fills the ring so eviction cost is included).
    timed(&on);
    timed(&off);
    (timed(&on) - timed(&off)).max(0.0)
}

/// Rank individual lineitems by price: n input tuples, k survivors.
fn rank_items_query(k: usize) -> String {
    format!(
        "(for $li in //order/lineitem \
          order by number($li/extendedprice) descending \
          return at $r <top rank=\"{{$r}}\">{{data($li/partkey)}}</top>)\
         [position() le {k}]"
    )
}

/// Rank groups by size: group-by feeds the bounded order-by.
fn rank_groups_query(key: &str, k: usize) -> String {
    format!(
        "(for $li in //order/lineitem \
          group by $li/{key} into $g \
          nest $li into $items \
          order by count($items) descending \
          return at $r <top rank=\"{{$r}}\">{{data($g)}}</top>)\
         [position() le {k}]"
    )
}

fn engines() -> (Engine, Engine) {
    let with_pushdown = Engine::new();
    let full_sort = Engine::with_options(EngineOptions {
        hints: "topk=off".parse().unwrap(),
        ..Default::default()
    });
    (with_pushdown, full_sort)
}

/// Compile under both plans, check byte-identical output, bench both.
fn bench_pair(group: &mut Harness, label: &str, query: &str, dataset: &Dataset) {
    let (with_pushdown, full_sort) = engines();
    let fast = with_pushdown.compile(query).expect("compiles");
    assert!(
        fast.applied_rewrites()
            .iter()
            .any(|r| r.contains("top-k pushdown")),
        "top-k pushdown must fire for {label}"
    );
    let slow = full_sort.compile(query).expect("compiles");
    let ctx = dataset.context();
    let a = serialize_sequence(&fast.run(&ctx).expect("runs"));
    let b = serialize_sequence(&slow.run(&ctx).expect("runs"));
    assert_eq!(a, b, "paths disagree for {label}");

    // One profiled run attaches per-operator tuple/time numbers to the
    // streaming record in BENCH_*.json (the timed loop stays unprofiled).
    let mut profiled = dataset.context();
    profiled.enable_profiling();
    fast.run(&profiled).expect("profiled run");
    let profile = profiled.take_profile().map(|p| p.to_json());

    let profile_json = profile.clone().unwrap_or_else(|| "{}".to_string());
    let mean = group.bench_with_profile(&format!("{label}/streaming_heap"), profile, || {
        fast.run(&ctx).expect("runs");
    });
    group.bench(&format!("{label}/full_sort"), || {
        slow.run(&ctx).expect("runs");
    });

    // The flight-recorder tax, stated next to the query it would ride
    // on: nanoseconds to deposit one record, and what fraction of this
    // query's mean that is. The service promises the recorder is cheap
    // enough to leave always-on; 2% of the smallest measured query is
    // the ceiling we hold it to.
    let tax_ns = recorder_tax_ns(&profile_json, query);
    let overhead_pct = 100.0 * tax_ns / mean.as_nanos() as f64;
    assert!(
        overhead_pct <= 2.0,
        "flight recorder tax {tax_ns:.0}ns is {overhead_pct:.2}% of {label} \
         (mean {mean:?}), above the 2% always-on budget"
    );
    group.annotate(
        "recorder_overhead",
        format!("{{\"record_ns\":{tax_ns:.0},\"pct_of_query\":{overhead_pct:.4}}}"),
    );
    group.record_derived(&format!("{label}/recorder_tax"));
}

fn main() {
    // Growing input size, fixed k: the heap's O(n log k) vs the full
    // sort's O(n log n) — and, dominating in practice, delta tuples vs
    // full-frame clones.
    let mut group = Harness::group("topk/rank_items");
    for lineitems in [2_000usize, 10_000, 20_000] {
        let dataset = Dataset::generate(lineitems);
        bench_pair(
            &mut group,
            &format!("n{lineitems}"),
            &rank_items_query(K),
            &dataset,
        );
    }

    // Growing group counts, fixed input: the breaker chain
    // GroupConsume -> OrderBy(limit) under the same bound.
    let mut group = Harness::group("topk/rank_groups");
    let dataset = Dataset::generate(10_000);
    for (key, groups) in [("shipinstruct", 4usize), ("shipmode", 7), ("quantity", 50)] {
        bench_pair(
            &mut group,
            &format!("{key}_g{groups}"),
            &rank_groups_query(key, K),
            &dataset,
        );
    }

    // CI uploads the machine-readable run as BENCH_pipeline.json.
    if let Ok(path) = std::env::var("BENCH_JSON") {
        xqa_bench::harness::write_json(&path).expect("write bench json");
        println!("\nbench records written to {path}");
    }
}
