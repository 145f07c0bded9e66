//! Bench behind the Section-6 chart: the Qgb side across input sizes
//! (scaling behaviour), plus the Q side at the smallest size for the
//! ratio's numerator.

use xqa::Engine;
use xqa_bench::{q_query, qgb_query, time, Dataset, EXPERIMENTS};

const RUNS: u32 = 10;

fn main() {
    let engine = Engine::new();
    println!("\n== chart/qgb_scaling ==");
    for lineitems in [2_000usize, 4_000, 8_000] {
        let dataset = Dataset::generate(lineitems);
        let ctx = dataset.context();
        let compiled = engine.compile(&qgb_query(&["shipmode"])).expect("compiles");
        let timing = time(RUNS, || {
            compiled.run(&ctx).expect("runs");
        });
        println!("{:<40} {timing}", format!("chart/qgb_scaling/{lineitems}"));
    }

    println!("\n== chart/q_numerator ==");
    let dataset = Dataset::generate(2_000);
    let ctx = dataset.context();
    for e in EXPERIMENTS {
        let compiled = engine.compile(&q_query(e.keys)).expect("compiles");
        let timing = time(RUNS, || {
            compiled.run(&ctx).expect("runs");
        });
        println!(
            "{:<40} {timing}",
            format!("chart/q_numerator/{}-{}groups", e.id, e.groups)
        );
    }
}
