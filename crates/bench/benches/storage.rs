//! Storage-layer benches: indexed access paths against the tree walk
//! they replace, over the orders corpus at 10k–100k elements.
//!
//! Two workloads, both byte-identical across paths by construction
//! (asserted in-bench before timing):
//!
//! - **descendant scan** — `count(//lineitem)`: the element-postings
//!   lookup vs walking every node of the document;
//! - **value predicate** — `//lineitem[quantity = 7]` (numeric probe)
//!   and `//lineitem[shipmode = "AIR"]` (string probe): the typed-value
//!   index vs scan-and-compare, with the residual predicate re-checked
//!   on candidates either way.
//!
//! Each size/workload pair emits `<label>/index`, `<label>/walk` and a
//! derived `<label>/speedup` record carrying `speedup_vs_walk`; CI
//! enforces the ≥2x floor on the descendant-scan rows.

use std::sync::Arc;

use xqa::storage::CatalogStatistics;
use xqa::{serialize_sequence, DynamicContext, Engine, EngineOptions};
use xqa_bench::harness::Harness;
use xqa_bench::Dataset;

/// Orders sized to land the total element count in the 10k–100k range
/// (each lineitem contributes ~15 elements including order overhead).
const LINEITEMS: [usize; 3] = [700, 2_000, 7_000];

fn engines(stats: &Arc<CatalogStatistics>) -> (Engine, Engine) {
    let index = Engine::with_options(EngineOptions {
        hints: "access=index".parse().unwrap(),
        ..Default::default()
    })
    .with_statistics(Arc::clone(stats));
    let walk = Engine::with_options(EngineOptions {
        hints: "access=walk".parse().unwrap(),
        ..Default::default()
    })
    .with_statistics(Arc::clone(stats));
    (index, walk)
}

/// An indexed context plus the statistics its stores derive.
fn indexed_context(dataset: &Dataset) -> (DynamicContext, Arc<CatalogStatistics>) {
    let mut ctx = dataset.context();
    ctx.index_documents();
    let stats = Arc::new(CatalogStatistics::from_stores(
        ctx.stores().map(Arc::as_ref),
    ));
    (ctx, stats)
}

/// Compile under both access paths, check the index plan actually takes
/// the index and that outputs are byte-identical, then time both and
/// record the speedup.
fn bench_pair(
    group: &mut Harness,
    label: &str,
    query: &str,
    ctx: &DynamicContext,
    stats: &Arc<CatalogStatistics>,
) {
    let (index_engine, walk_engine) = engines(stats);
    let indexed = index_engine.compile(query).expect("compiles");
    assert!(
        indexed.explain().contains("[index scan"),
        "index plan must annotate an index scan for {label}:\n{}",
        indexed.explain()
    );
    let walked = walk_engine.compile(query).expect("compiles");
    assert!(
        !walked.explain().contains("[index scan"),
        "walk plan must not annotate index scans for {label}"
    );

    let hits_before = ctx.stats.snapshot().scan_index_hits;
    let a = serialize_sequence(&indexed.run(ctx).expect("runs"));
    assert!(
        ctx.stats.snapshot().scan_index_hits > hits_before,
        "index path must record hits for {label}"
    );
    let b = serialize_sequence(&walked.run(ctx).expect("runs"));
    assert_eq!(a, b, "access paths disagree for {label}");

    let index_mean = group.bench(&format!("{label}/index"), || {
        indexed.run(ctx).expect("runs");
    });
    let walk_mean = group.bench(&format!("{label}/walk"), || {
        walked.run(ctx).expect("runs");
    });
    let speedup = walk_mean.as_secs_f64() / index_mean.as_secs_f64().max(1e-12);
    println!(
        "{:<40} speedup {speedup:>10.2}x",
        format!("{}/{label}", "storage")
    );
    group.annotate("speedup_vs_walk", format!("{speedup:.3}"));
    group.record_derived(&format!("{label}/speedup"));
}

fn main() {
    let datasets: Vec<Dataset> = LINEITEMS.iter().map(|n| Dataset::generate(*n)).collect();

    // Postings lookup vs full-document walk.
    let mut group = Harness::group("storage/descendant_scan");
    for dataset in &datasets {
        let (ctx, stats) = indexed_context(dataset);
        bench_pair(
            &mut group,
            &format!("n{}", dataset.lineitems),
            "count(//lineitem)",
            &ctx,
            &stats,
        );
    }

    // Typed-value probes vs scan-and-compare. The numeric probe matches
    // ~1/50 lineitems (quantity is uniform over 1..=50), the string
    // probe ~1/7 (shipmode over 7 carriers).
    let mut group = Harness::group("storage/value_predicate");
    for dataset in &datasets {
        let (ctx, stats) = indexed_context(dataset);
        let label = format!("n{}", dataset.lineitems);
        bench_pair(
            &mut group,
            &format!("{label}/quantity_eq"),
            "count(//lineitem[quantity = 7])",
            &ctx,
            &stats,
        );
        bench_pair(
            &mut group,
            &format!("{label}/shipmode_eq"),
            "count(//lineitem[shipmode = \"AIR\"])",
            &ctx,
            &stats,
        );
    }

    // CI uploads the machine-readable run as BENCH_storage.json.
    if let Ok(path) = std::env::var("BENCH_JSON") {
        xqa_bench::harness::write_json(&path).expect("write bench json");
        println!("\nbench records written to {path}");
    }
}
