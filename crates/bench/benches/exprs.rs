//! Expression-evaluation benches: compiled bytecode programs against
//! the IR tree-walker they replace, over filter- and arithmetic-heavy
//! FLWORs at 10k–100k items.
//!
//! Two workloads, both byte-identical across evaluators by construction
//! (asserted in-bench before timing):
//!
//! - **comparison-heavy filter** — a `where` clause chaining value
//!   comparisons and modular arithmetic over every tuple: the
//!   type-specialized compare fast paths vs per-tuple tree dispatch;
//! - **arithmetic lets** — stacked `let` bindings of integer arithmetic
//!   feeding a final filter: register reuse vs per-node sequence
//!   allocation.
//!
//! Each size/workload pair emits `<label>/bytecode`, `<label>/tree` and
//! a derived `<label>/speedup` record carrying `speedup_vs_tree`; CI
//! enforces the ≥1.3x floor on the comparison-heavy rows.

use xqa::{serialize_sequence, DynamicContext, Engine, EngineOptions};
use xqa_bench::harness::Harness;

/// Item counts for the `1 to N` sweeps.
const SIZES: [usize; 3] = [10_000, 50_000, 100_000];

/// Serial engines: one expression-evaluation mode apiece, threads
/// pinned to 1 so the measurement isolates per-tuple evaluation cost
/// from morsel scheduling.
fn engines() -> (Engine, Engine) {
    let bytecode = Engine::with_options(EngineOptions {
        hints: "expr=bytecode".parse().unwrap(),
        threads: 1,
    });
    let tree = Engine::with_options(EngineOptions {
        hints: "expr=tree".parse().unwrap(),
        threads: 1,
    });
    (bytecode, tree)
}

/// Compile under both evaluators, check the bytecode plan actually
/// lowered its clauses and that outputs are byte-identical, then time
/// both and record the speedup.
fn bench_pair(group: &mut Harness, label: &str, query: &str) {
    let (bytecode_engine, tree_engine) = engines();
    let compiled = bytecode_engine.compile(query).expect("compiles");
    assert!(
        compiled.explain().contains("[compiled]"),
        "bytecode plan must annotate compiled clauses for {label}:\n{}",
        compiled.explain()
    );
    let walked = tree_engine.compile(query).expect("compiles");
    assert!(
        !walked.explain().contains("[compiled]"),
        "tree plan must not annotate compiled clauses for {label}"
    );

    let ctx = DynamicContext::new();
    let evals_before = ctx.stats.snapshot().expr_compiled;
    let a = serialize_sequence(&compiled.run(&ctx).expect("runs"));
    assert!(
        ctx.stats.snapshot().expr_compiled > evals_before,
        "bytecode run must execute compiled programs for {label}"
    );
    let b = serialize_sequence(&walked.run(&ctx).expect("runs"));
    assert_eq!(a, b, "evaluators disagree for {label}");

    let bytecode_mean = group.bench(&format!("{label}/bytecode"), || {
        compiled.run(&ctx).expect("runs");
    });
    let tree_mean = group.bench(&format!("{label}/tree"), || {
        walked.run(&ctx).expect("runs");
    });
    let speedup = tree_mean.as_secs_f64() / bytecode_mean.as_secs_f64().max(1e-12);
    println!(
        "{:<40} speedup {speedup:>10.2}x",
        format!("{}/{label}", "exprs")
    );
    group.annotate("speedup_vs_tree", format!("{speedup:.3}"));
    group.record_derived(&format!("{label}/speedup"));
}

fn main() {
    // Chained comparisons and modular arithmetic over every tuple; the
    // clause mix keeps roughly a third of the input alive so the filter
    // itself (not output construction) dominates.
    let mut group = Harness::group("exprs/filter_compare");
    for n in SIZES {
        bench_pair(
            &mut group,
            &format!("n{n}"),
            &format!(
                "for $x in 1 to {n} \
                 where ($x ge 100) and ($x mod 7 = 3 or $x mod 11 = 4) \
                 return $x"
            ),
        );
    }

    // Stacked integer-arithmetic lets feeding a final filter: every
    // tuple runs three programs (two lets and a where).
    let mut group = Harness::group("exprs/arith_let");
    for n in SIZES {
        bench_pair(
            &mut group,
            &format!("n{n}"),
            &format!(
                "for $x in 1 to {n} \
                 let $y := $x * 3 + ($x mod 5) \
                 let $z := $y - $x * 2 \
                 where $z mod 9 = 1 \
                 return $z"
            ),
        );
    }

    // CI uploads the machine-readable run as BENCH_expr.json.
    if let Ok(path) = std::env::var("BENCH_JSON") {
        xqa_bench::harness::write_json(&path).expect("write bench json");
        println!("\nbench records written to {path}");
    }
}
