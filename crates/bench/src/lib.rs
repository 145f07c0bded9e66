//! Benchmark harness for the paper's evaluation (Section 6).
//!
//! [`EXPERIMENTS`] lists the six query pairs of the paper's chart —
//! grouping lineitems by `shipinstruct` (4 groups), `shipmode` (7),
//! `tax` (9), `(shipinstruct, shipmode)` (28), `(shipinstruct, tax)`
//! (36) and `quantity` (50). [`qgb_query`]/[`q_query`] instantiate the
//! exact Table 1 templates. The `repro` binary regenerates the paper's
//! table, chart and the design-choice ablations from DESIGN.md, timing
//! each query through [`time`].

pub mod svg;

use std::sync::Arc;
use std::time::{Duration, Instant};
use xqa::{DynamicContext, Engine, EngineOptions, EngineResult};
use xqa_workload::{generate_orders, OrdersConfig};

/// One experiment of the paper's chart: a set of grouping elements and
/// the group count it produces on the TPC-H-flavoured domains.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// The paper's query id (Q1..Q6 in Section 6 numbering).
    pub id: &'static str,
    /// The lineitem child element(s) being grouped on.
    pub keys: &'static [&'static str],
    /// The number of groups this experiment produces (the X axis).
    pub groups: usize,
}

/// The six experiments of the Section-6 chart, ordered by group count.
pub const EXPERIMENTS: [Experiment; 6] = [
    Experiment {
        id: "Q1",
        keys: &["shipinstruct"],
        groups: 4,
    },
    Experiment {
        id: "Q2",
        keys: &["shipmode"],
        groups: 7,
    },
    Experiment {
        id: "Q3",
        keys: &["tax"],
        groups: 9,
    },
    Experiment {
        id: "Q4",
        keys: &["shipinstruct", "shipmode"],
        groups: 28,
    },
    Experiment {
        id: "Q5",
        keys: &["shipinstruct", "tax"],
        groups: 36,
    },
    Experiment {
        id: "Q6",
        keys: &["quantity"],
        groups: 50,
    },
];

/// The hints of the paper's Section-6 baseline, which performs "no
/// rewrites": no index and no hash join, so `Q` runs as written, one
/// inner scan per distinct key. Unpinned, the planner unnests `Q`'s
/// self-join into a hash join.
pub const PAPER_BASELINE_HINTS: &str = "join=nested,access=walk";

/// An engine compiling under [`PAPER_BASELINE_HINTS`] plus `extra`
/// hints (`""` for none).
pub fn baseline_engine(extra: &str) -> Engine {
    Engine::with_options(EngineOptions {
        hints: format!("{PAPER_BASELINE_HINTS},{extra}")
            .parse()
            .expect("valid hints"),
        ..Default::default()
    })
}

/// Table 1, right template — *with* explicit group by (`Qgb`).
pub fn qgb_query(keys: &[&str]) -> String {
    match keys {
        [a] => format!(
            "for $litem in //order/lineitem \
             group by $litem/{a} into $a \
             nest $litem into $items \
             return <r> {{$a, count($items)}} </r>"
        ),
        [a, b] => format!(
            "for $litem in //order/lineitem \
             group by $litem/{a} into $a, $litem/{b} into $b \
             nest $litem into $items \
             return <r> {{$a, $b, count($items)}} </r>"
        ),
        _ => panic!("templates cover one or two grouping elements"),
    }
}

/// Table 1, left template — *without* explicit group by (`Q`).
pub fn q_query(keys: &[&str]) -> String {
    match keys {
        [a] => format!(
            "for $a in distinct-values(//order/lineitem/{a}) \
             let $items := for $i in //order/lineitem where $i/{a} = $a return $i \
             return <r>{{$a, count($items)}}</r>"
        ),
        [a, b] => format!(
            "for $a in distinct-values(//order/lineitem/{a}), \
                 $b in distinct-values(//order/lineitem/{b}) \
             let $items := for $i in //order/lineitem \
                           where $i/{a} = $a and $i/{b} = $b return $i \
             where exists($items) \
             return <r>{{$a, $b, count($items)}}</r>"
        ),
        _ => panic!("templates cover one or two grouping elements"),
    }
}

/// A prepared dataset: the order collection sized to about
/// `lineitems` total lineitems.
pub struct Dataset {
    /// The document.
    pub doc: Arc<xqa::xdm::Document>,
    /// Approximate lineitem count requested.
    pub lineitems: usize,
}

impl Dataset {
    /// Generate the collection.
    pub fn generate(lineitems: usize) -> Dataset {
        Dataset {
            doc: generate_orders(&OrdersConfig::with_total_lineitems(lineitems)),
            lineitems,
        }
    }

    /// A context with this dataset as the input document.
    pub fn context(&self) -> DynamicContext {
        let mut ctx = DynamicContext::new();
        ctx.set_context_document(&self.doc);
        ctx
    }
}

/// Run `f` once untimed (warm-up), then `runs` times timed, and return
/// the mean (the paper averages over runs). The one timing loop of
/// this crate: `repro` measures through it.
pub fn time(runs: u32, mut f: impl FnMut()) -> Duration {
    assert!(runs > 0, "timing needs at least one run");
    f();
    let start = Instant::now();
    for _ in 0..runs {
        f();
    }
    start.elapsed() / runs
}

/// One row of the chart reproduction.
#[derive(Debug, Clone, Copy)]
pub struct ChartPoint {
    /// The experiment.
    pub experiment: Experiment,
    /// Dataset size (lineitems).
    pub lineitems: usize,
    /// Mean time of the query *without* group by.
    pub t_q: Duration,
    /// Mean time of the query *with* group by.
    pub t_qgb: Duration,
    /// Observed group count.
    pub observed_groups: usize,
}

impl ChartPoint {
    /// The paper's Y axis: `t(Q) / t(Qgb)`.
    pub fn ratio(&self) -> f64 {
        self.t_q.as_secs_f64() / self.t_qgb.as_secs_f64()
    }
}

/// Measure one chart point: the mean of `runs` timed runs per side.
pub fn measure_point(
    experiment: Experiment,
    dataset: &Dataset,
    runs: u32,
) -> EngineResult<ChartPoint> {
    let ctx = dataset.context();
    let engine = baseline_engine("");
    let qgb = engine.compile(&qgb_query(experiment.keys))?;
    let q = engine.compile(&q_query(experiment.keys))?;
    let (mut qgb_groups, mut q_groups) = (0, 0);
    let t_qgb = time(runs, || qgb_groups = qgb.run(&ctx).expect("Qgb runs").len());
    let t_q = time(runs, || q_groups = q.run(&ctx).expect("Q runs").len());
    assert_eq!(
        q_groups, qgb_groups,
        "{}: Q and Qgb disagree on the number of groups",
        experiment.id
    );
    Ok(ChartPoint {
        experiment,
        lineitems: dataset.lineitems,
        t_q,
        t_qgb,
        observed_groups: qgb_groups,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn templates_compile() {
        let engine = Engine::new();
        for e in EXPERIMENTS {
            engine.compile(&qgb_query(e.keys)).expect("Qgb compiles");
            engine.compile(&q_query(e.keys)).expect("Q compiles");
        }
    }

    #[test]
    fn group_counts_match_the_paper_domains() {
        let dataset = Dataset::generate(2_000);
        let ctx = dataset.context();
        let engine = Engine::new();
        for e in EXPERIMENTS {
            let groups = engine
                .compile(&qgb_query(e.keys))
                .unwrap()
                .run(&ctx)
                .unwrap()
                .len();
            assert_eq!(
                groups, e.groups,
                "{} should produce {} groups",
                e.id, e.groups
            );
        }
    }

    #[test]
    fn the_baseline_q_runs_as_written() {
        for e in EXPERIMENTS {
            let plan = baseline_engine("").compile(&q_query(e.keys)).unwrap();
            let explain = plan.explain();
            assert!(!explain.contains("[hash join"), "{}: {explain}", e.id);
            assert!(!explain.contains("index scan"), "{}: {explain}", e.id);
        }
    }

    #[test]
    fn q_and_qgb_agree_on_groups() {
        let dataset = Dataset::generate(1_000);
        let point = measure_point(EXPERIMENTS[0], &dataset, 1).unwrap();
        assert_eq!(point.observed_groups, 4);
        assert!(point.t_q > Duration::ZERO && point.t_qgb > Duration::ZERO);
    }
}
