//! Copy-regression smoke test: the whole point of the copy-on-write
//! `Sequence` is that grouping/nesting queries stop deep-copying item
//! vectors, so `seq_items_copied` on a fixed grouping query over the
//! bundled purchase-order corpus must stay under a recorded ceiling.
//!
//! The ceiling lives in `tests/golden/seq_copy_ceiling.txt`. When an
//! intentional change moves the number, re-baseline with
//! `UPDATE_GOLDEN=1 cargo test --test seq_copy_regression` — the
//! recorded value is the fresh measurement plus 20% headroom.
//!
//! The second assertion, more items shared than copied, means sharing
//! removes over half of what the old `Vec<Item>` representation copied
//! (copied + shared). That implies the 30 % copy-reduction floor the
//! retired `seq` bench enforced.

use xqa::{Engine, EngineOptions};

/// A representative paper-shaped aggregation: group, nest, re-bind the
/// nested sequence, order, rank.
const QUERY: &str = "for $li in //order/lineitem \
     group by $li/shipmode into $m \
     nest $li into $items \
     let $n := count($items) \
     order by $n descending, string($m) \
     return at $r <g rank=\"{$r}\">{string($m)}:{$n}</g>";

const ORDERS: usize = 400;

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/seq_copy_ceiling.txt")
}

/// One deterministic threads=1 run; returns the copy-counter deltas.
fn measure() -> (u64, u64) {
    let doc = xqa_workload::generate_orders(&xqa_workload::OrdersConfig {
        orders: ORDERS,
        ..Default::default()
    });
    let mut ctx = xqa::DynamicContext::new();
    ctx.set_context_document(&doc);
    // `nest-agg=off`: the nest is only counted, and a counted nest keeps
    // no sequence to share; this measures the kept one.
    let engine = Engine::with_options(EngineOptions {
        threads: 1,
        hints: "nest-agg=off".parse().expect("valid hints"),
    });
    let plan = engine.compile(QUERY).expect("compiles");
    let before = ctx.stats.snapshot();
    plan.run(&ctx).expect("runs");
    let after = ctx.stats.snapshot();
    (
        after.seq_items_copied - before.seq_items_copied,
        after.seq_clones_shared - before.seq_clones_shared,
    )
}

#[test]
fn seq_items_copied_stays_under_recorded_ceiling() {
    let (copied, shared) = measure();
    let path = golden_path();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        let ceiling = copied + copied / 5 + 64;
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, format!("{ceiling}\n")).expect("write golden");
        return;
    }
    let recorded = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read ceiling {}: {e}\nrun with UPDATE_GOLDEN=1 to (re)create it",
            path.display()
        )
    });
    let ceiling: u64 = recorded.trim().parse().expect("ceiling is a number");
    assert!(
        copied <= ceiling,
        "seq_items_copied regressed: {copied} > recorded ceiling {ceiling} \
         (run with UPDATE_GOLDEN=1 to re-baseline an intentional change)"
    );
    // And the sharing must actually be doing the work: on this shape
    // the overwhelming majority of would-be copies are shared clones.
    assert!(
        shared > copied,
        "sharing collapsed: copied={copied} shared={shared}"
    );
}
