//! Bench for Table 1: each query pair (with / without explicit
//! group by), one bench per experiment.
//!
//! Sizes are kept modest so `cargo bench` completes quickly; the
//! `repro` binary runs the full-size sweep (8K–32K lineitems).

use xqa::Engine;
use xqa_bench::{q_query, qgb_query, time, Dataset, EXPERIMENTS};

const RUNS: u32 = 10;

fn main() {
    let engine = Engine::new();
    let dataset = Dataset::generate(4_000);
    let ctx = dataset.context();

    println!("\n== table1 ==");
    for e in EXPERIMENTS {
        let qgb = engine.compile(&qgb_query(e.keys)).expect("Qgb compiles");
        let timing = time(RUNS, || {
            qgb.run(&ctx).expect("Qgb runs");
        });
        println!("{:<40} {timing}", format!("table1/Qgb/{}", e.id));
    }
    // The Q side is O(groups x scan), so bench only the cheap half of
    // the sweep here (the expensive points are the repro binary's job).
    for e in EXPERIMENTS.iter().take(3) {
        let q = engine.compile(&q_query(e.keys)).expect("Q compiles");
        let timing = time(RUNS, || {
            q.run(&ctx).expect("Q runs");
        });
        println!("{:<40} {timing}", format!("table1/Q/{}", e.id));
    }
}
