//! Join-unnesting benches: the hash-join pipeline against the
//! nested-loop plan it replaces, over the orders corpus at 1k–30k
//! lineitems.
//!
//! Two workloads, both byte-identical across join modes by construction
//! (asserted in-bench before timing):
//!
//! - **self join** — the paper's Section 6 baseline: one inner FLWOR
//!   per distinct `shipmode` (7 probes), each re-scanning every
//!   lineitem under the nested plan;
//! - **two collection** — a 50-row `rates` document probed against the
//!   lineitem collection on `quantity`, where the nested plan re-scans
//!   the big side once per rate.
//!
//! Each size/workload pair emits `<label>/hash`, `<label>/nested` and a
//! derived `<label>/speedup` record carrying `speedup_vs_nested`; CI
//! enforces the ≥5x floor on the largest two-collection row.

use xqa::{parse_document, serialize_sequence, DynamicContext, Engine, EngineOptions};
use xqa_bench::harness::Harness;
use xqa_bench::Dataset;

const LINEITEMS: [usize; 3] = [1_000, 10_000, 30_000];

const SELF_JOIN: &str = "for $m in distinct-values(//lineitem/shipmode) \
     let $items := for $li in //lineitem where $li/shipmode = $m return $li \
     order by string($m) \
     return <g>{string($m)}:{count($items)}</g>";

const TWO_COLLECTION: &str = "for $r in doc(\"rates\")//rate \
     let $ls := for $li in //lineitem where $li/quantity = $r/q return $li \
     order by number($r/q) \
     return <g>{string($r/q)}:{count($ls)}</g>";

fn engines() -> (Engine, Engine) {
    let hash = Engine::with_options(EngineOptions {
        hints: "join=hash".parse().unwrap(),
        ..Default::default()
    });
    let nested = Engine::with_options(EngineOptions {
        hints: "join=nested".parse().unwrap(),
        ..Default::default()
    });
    (hash, nested)
}

/// Compile under both join modes, check the hash plan actually probes a
/// hash table and that outputs are byte-identical, then time both and
/// record the speedup.
fn bench_pair(group: &mut Harness, label: &str, query: &str, ctx: &DynamicContext) {
    let (hash_engine, nested_engine) = engines();
    let hashed = hash_engine.compile(query).expect("compiles");
    assert!(
        hashed.explain().contains("[hash join"),
        "hash plan must annotate a hash join for {label}:\n{}",
        hashed.explain()
    );
    let nested = nested_engine.compile(query).expect("compiles");
    assert!(
        !nested.explain().contains("[hash join"),
        "nested plan must not annotate hash joins for {label}"
    );

    let probes_before = ctx.stats.snapshot().join_hash_probes;
    let a = serialize_sequence(&hashed.run(ctx).expect("runs"));
    assert!(
        ctx.stats.snapshot().join_hash_probes > probes_before,
        "hash path must record probes for {label}"
    );
    let b = serialize_sequence(&nested.run(ctx).expect("runs"));
    assert_eq!(a, b, "join modes disagree for {label}");

    let hash_mean = group.bench(&format!("{label}/hash"), || {
        hashed.run(ctx).expect("runs");
    });
    let nested_mean = group.bench(&format!("{label}/nested"), || {
        nested.run(ctx).expect("runs");
    });
    let speedup = nested_mean.as_secs_f64() / hash_mean.as_secs_f64().max(1e-12);
    println!(
        "{:<40} speedup {speedup:>10.2}x",
        format!("{}/{label}", "join")
    );
    group.annotate("speedup_vs_nested", format!("{speedup:.3}"));
    group.record_derived(&format!("{label}/speedup"));
}

/// A 50-row lookup document keyed by the `quantity` domain (1..=50).
fn rates_doc() -> std::sync::Arc<xqa::xdm::Document> {
    let mut xml = String::from("<rates>");
    for q in 1..=50 {
        xml.push_str(&format!("<rate><q>{q}</q></rate>"));
    }
    xml.push_str("</rates>");
    parse_document(&xml).expect("rates doc parses")
}

fn main() {
    let datasets: Vec<Dataset> = LINEITEMS.iter().map(|n| Dataset::generate(*n)).collect();

    // The paper's baseline self-join: distinct keys against the source.
    let mut group = Harness::group("join/self_join");
    for dataset in &datasets {
        let ctx = dataset.context();
        bench_pair(
            &mut group,
            &format!("n{}", dataset.lineitems),
            SELF_JOIN,
            &ctx,
        );
    }

    // Two collections joined on a 50-value numeric key: the nested plan
    // re-walks every lineitem per rate.
    let mut group = Harness::group("join/two_collection");
    let rates = rates_doc();
    for dataset in &datasets {
        let mut ctx = dataset.context();
        ctx.register_document("rates".to_string(), &rates);
        bench_pair(
            &mut group,
            &format!("n{}", dataset.lineitems),
            TWO_COLLECTION,
            &ctx,
        );
    }

    // CI uploads the machine-readable run as BENCH_join.json.
    if let Ok(path) = std::env::var("BENCH_JSON") {
        xqa_bench::harness::write_json(&path).expect("write bench json");
        println!("\nbench records written to {path}");
    }
}
