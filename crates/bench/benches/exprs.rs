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
//! Each row prints both timings and the tree/bytecode ratio of their
//! minimums. The process fails when that ratio is below [`FLOOR`] on
//! the largest comparison-heavy row. This floor has no exact
//! equivalent: both evaluators make the same allocations and
//! comparisons, so only time tells them apart.

use xqa::{serialize_sequence, DynamicContext, Engine, EngineOptions};
use xqa_bench::time;

/// Item counts for the `1 to N` sweeps, ascending: the last row is
/// the one [`FLOOR`] applies to.
const SIZES: [usize; 3] = [10_000, 50_000, 100_000];

/// Timed runs per evaluator and row.
const RUNS: u32 = 20;

/// Least tree/bytecode ratio on the largest comparison-heavy row.
const FLOOR: f64 = 1.3;

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
/// both. Returns the tree/bytecode ratio of the minimums.
fn bench_pair(label: &str, query: &str) -> f64 {
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

    let bytecode = time(RUNS, || {
        compiled.run(&ctx).expect("runs");
    });
    let tree = time(RUNS, || {
        walked.run(&ctx).expect("runs");
    });
    let speedup = tree.min.as_secs_f64() / bytecode.min.as_secs_f64().max(1e-12);
    println!("{:<40} {bytecode}", format!("{label}/bytecode"));
    println!("{:<40} {tree}", format!("{label}/tree"));
    println!(
        "{:<40} speedup {speedup:>10.2}x",
        format!("{label}/speedup")
    );
    speedup
}

fn main() {
    // Chained comparisons and modular arithmetic over every tuple; the
    // clause mix keeps roughly a third of the input alive so the filter
    // itself (not output construction) dominates.
    println!("\n== exprs/filter_compare ==");
    let mut largest = 0.0;
    for n in SIZES {
        largest = bench_pair(
            &format!("exprs/filter_compare/n{n}"),
            &format!(
                "for $x in 1 to {n} \
                 where ($x ge 100) and ($x mod 7 = 3 or $x mod 11 = 4) \
                 return $x"
            ),
        );
    }

    // Stacked integer-arithmetic lets feeding a final filter: every
    // tuple runs three programs (two lets and a where).
    println!("\n== exprs/arith_let ==");
    for n in SIZES {
        bench_pair(
            &format!("exprs/arith_let/n{n}"),
            &format!(
                "for $x in 1 to {n} \
                 let $y := $x * 3 + ($x mod 5) \
                 let $z := $y - $x * 2 \
                 where $z mod 9 = 1 \
                 return $z"
            ),
        );
    }

    if largest < FLOOR {
        eprintln!(
            "exprs: bytecode is {largest:.2}x the tree-walker on the largest \
             filter_compare row, below the {FLOOR}x floor"
        );
        std::process::exit(1);
    }
    println!(
        "\nbytecode speedup on the largest filter_compare row: {largest:.2}x (floor {FLOOR}x)"
    );
}
