//! `repro` — regenerate the paper's evaluation artifacts.
//!
//! ```text
//! repro table1                 verify the Table 1 query pairs
//! repro chart [--sizes A,B,C] [--runs N] [--svg FILE]
//!                              the Section-6 chart: t(Q)/t(Qgb) per
//!                              group count, one series per input size;
//!                              --svg also draws the figure
//! repro ablation               the DESIGN.md ablation measurements
//! repro topk [--sizes A,B,C]   streaming top-k heap vs a full sort
//!                              (pushdown disabled) on rank queries
//! repro all                    everything (default)
//! ```
//!
//! A zero or malformed `--sizes` or `--runs` is a usage error (exit 2).

use std::num::{NonZeroU32, NonZeroUsize};
use std::time::Duration;
use xqa::{DynamicContext, Engine, EngineOptions, PreparedQuery};
use xqa_bench::{baseline_engine, measure_point, q_query, qgb_query, time, Dataset, EXPERIMENTS};

/// Timed runs per ablation and top-k measurement, after one warm-up.
const RUNS: u32 = 3;

/// The command line, checked.
#[derive(Debug, PartialEq)]
struct Args {
    command: String,
    sizes: Vec<usize>,
    runs: u32,
    svg: Option<String>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("repro: {e}");
        std::process::exit(2);
    });
    let (sizes, svg) = (&args.sizes, args.svg.as_deref());
    match args.command.as_str() {
        "table1" => table1(),
        "chart" => chart(sizes, args.runs, svg),
        "ablation" => ablation(),
        "topk" => topk(sizes),
        "all" => {
            table1();
            chart(sizes, args.runs, svg);
            ablation();
            topk(sizes);
        }
        other => {
            eprintln!("unknown command {other:?}; expected table1|chart|ablation|topk|all");
            std::process::exit(2);
        }
    }
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let sizes = match flag(args, "--sizes")? {
        Some(list) => list
            .split(',')
            .map(|p| positive::<NonZeroUsize>("--sizes", p).map(NonZeroUsize::get))
            .collect::<Result<_, _>>()?,
        None => vec![8_000, 16_000, 32_000],
    };
    let runs = match flag(args, "--runs")? {
        Some(v) => positive::<NonZeroU32>("--runs", v)?.get(),
        None => 3,
    };
    Ok(Args {
        command: args.first().cloned().unwrap_or_else(|| "all".to_string()),
        sizes,
        runs,
        svg: flag(args, "--svg")?.map(str::to_string),
    })
}

/// The value after `name`, if the flag is present.
fn flag<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .map(|v| Some(v.as_str()))
            .ok_or_else(|| format!("{name} needs a value")),
    }
}

fn positive<T: std::str::FromStr>(name: &str, value: &str) -> Result<T, String> {
    value
        .trim()
        .parse()
        .map_err(|_| format!("{name}: expected a positive integer, got {value:?}"))
}

/// Table 1: print both templates and verify they compute identical
/// groups on a small collection.
fn table1() {
    println!("== Table 1: query templates with and without explicit group by ==\n");
    let one = &EXPERIMENTS[0];
    let two = &EXPERIMENTS[3];
    println!("-- group by one element ({}) --", one.keys[0]);
    println!("Qgb: {}", qgb_query(one.keys));
    println!("Q:   {}\n", q_query(one.keys));
    println!(
        "-- group by two elements ({}, {}) --",
        two.keys[0], two.keys[1]
    );
    println!("Qgb: {}", qgb_query(two.keys));
    println!("Q:   {}\n", q_query(two.keys));

    let dataset = Dataset::generate(2_000);
    let ctx = dataset.context();
    let engine = baseline_engine("");
    for e in EXPERIMENTS {
        let qgb = engine.compile(&qgb_query(e.keys)).expect("Qgb compiles");
        let q = engine.compile(&q_query(e.keys)).expect("Q compiles");
        let qgb_sorted = sorted_result(&qgb, &ctx);
        let q_sorted = sorted_result(&q, &ctx);
        let equal = qgb_sorted == q_sorted;
        println!(
            "{}: keys={:?} groups={} results-identical={}",
            e.id,
            e.keys,
            qgb_sorted.len(),
            equal
        );
        assert!(equal, "{}: Q and Qgb disagree", e.id);
    }
    println!();
}

/// Normalized result rows for the equivalence check. The templates are
/// equivalent per the paper's reading, not byte-identical: `Qgb` binds
/// `$a` to the grouping *element* while `Q` binds the atomized value,
/// so we compare whitespace-normalized string values of each row.
fn sorted_result(query: &PreparedQuery, ctx: &DynamicContext) -> Vec<String> {
    let result = query.run(ctx).expect("query runs");
    let mut rows: Vec<String> = result
        .iter()
        .map(|item| {
            let text = item.string_value();
            text.split_whitespace().collect::<Vec<_>>().concat()
        })
        .collect();
    rows.sort();
    rows
}

/// The Section-6 chart: Y = t(Q)/t(Qgb), X = number of groups, one
/// series per collection size.
fn chart(sizes: &[usize], runs: u32, svg_path: Option<&str>) {
    println!("== Section 6 chart: t(Q) / t(Qgb) vs number of groups ==");
    println!("   (paper: ratio grows with group count; series per input size)\n");
    println!(
        "{:<6} {:<26} {:>7} {:>10} {:>12} {:>12} {:>8}",
        "query", "grouping key(s)", "groups", "lineitems", "t(Q)", "t(Qgb)", "ratio"
    );
    let mut series: Vec<(usize, Vec<(usize, f64)>)> = Vec::new();
    for &size in sizes {
        let dataset = Dataset::generate(size);
        let mut points = Vec::new();
        for e in EXPERIMENTS {
            let point = measure_point(e, &dataset, runs).expect("experiment runs");
            println!(
                "{:<6} {:<26} {:>7} {:>10} {:>12.2?} {:>12.2?} {:>8.1}",
                e.id,
                format!("{:?}", e.keys),
                point.observed_groups,
                size,
                point.t_q,
                point.t_qgb,
                point.ratio()
            );
            points.push((point.observed_groups, point.ratio()));
        }
        series.push((size, points));
        println!();
    }
    // The chart, as the paper draws it.
    println!("chart series (x = groups, y = t(Q)/t(Qgb)):");
    for (size, points) in &series {
        let line: Vec<String> = points
            .iter()
            .map(|(g, r)| format!("({g}, {r:.1})"))
            .collect();
        println!("  {size} lineitems: {}", line.join(" "));
    }
    println!();
    if let Some(path) = svg_path {
        let svg_series: Vec<xqa_bench::svg::Series> = series
            .iter()
            .map(|(size, points)| xqa_bench::svg::Series {
                label: format!("{size} lineitems"),
                points: points.iter().map(|&(g, r)| (g as f64, r)).collect(),
            })
            .collect();
        let config = xqa_bench::svg::ChartConfig {
            title: "t(Q) / t(Qgb) vs number of groups (paper Section 6)".to_string(),
            x_label: "number of groups".to_string(),
            y_label: "execution time ratio t(Q)/t(Qgb)".to_string(),
            ..Default::default()
        };
        let svg = xqa_bench::svg::render_line_chart(&config, &svg_series);
        match std::fs::write(path, svg) {
            Ok(()) => println!("chart written to {path}\n"),
            Err(e) => eprintln!("cannot write {path}: {e}"),
        }
    }
}

/// DESIGN.md ablations: detection rewrite, custom-equality grouping,
/// nest ordering strategy, moving windows.
fn ablation() {
    println!("== Ablations ==\n");
    let dataset = Dataset::generate(8_000);
    let ctx = dataset.context();

    // 1. Implicit group-by detection on the Q form.
    let q_src = q_query(&["shipmode"]);
    let plain = baseline_engine("");
    let detecting = baseline_engine("implicit-groupby=on");
    let t_q = mean(&plain.compile(&q_src).unwrap(), &ctx);
    let rewritten = detecting.compile(&q_src).unwrap();
    assert!(rewritten
        .applied_rewrites()
        .iter()
        .any(|r| r.contains("implicit group-by")));
    let t_rw = mean(&rewritten, &ctx);
    let t_qgb = mean(&plain.compile(&qgb_query(&["shipmode"])).unwrap(), &ctx);
    println!("1. implicit-group-by detection (shipmode, 8K lineitems):");
    println!("   Q naive           {t_q:>10.2?}");
    println!("   Q + rewrite       {t_rw:>10.2?}   (detection recovers the explicit plan)");
    println!("   Qgb explicit      {t_qgb:>10.2?}\n");

    // 2. Hash-indexed deep-equal grouping vs. the linear `using` path.
    let hash_path = "for $litem in //order/lineitem \
                     group by $litem/shipmode into $a \
                     nest $litem into $items return count($items)";
    let using_path = "declare function local:eq($a as item()*, $b as item()*) as xs:boolean \
                      { deep-equal($a, $b) }; \
                      for $litem in //order/lineitem \
                      group by $litem/shipmode into $a using local:eq \
                      nest $litem into $items return count($items)";
    let t_hash = mean(&plain.compile(hash_path).unwrap(), &ctx);
    let t_using = mean(&plain.compile(using_path).unwrap(), &ctx);
    println!("2. grouping equality implementation (7 groups, 8K lineitems):");
    println!("   hash-indexed deep-equal   {t_hash:>10.2?}");
    println!(
        "   linear `using` comparator {t_using:>10.2?}   ({}x; why `using` costs more)\n",
        ratio(t_using, t_hash)
    );

    // 3. nest order-by (per-group sort) vs. globally pre-sorted input.
    let nest_sort = "for $li in //order/lineitem \
                     group by $li/shipmode into $m \
                     nest $li/shipdate order by string($li/shipdate) into $ds \
                     return count($ds)";
    let pre_sort =
        "for $li in (for $x in //order/lineitem order by string($x/shipdate) return $x) \
                    group by $li/shipmode into $m \
                    nest $li/shipdate into $ds \
                    return count($ds)";
    let t_nest = mean(&plain.compile(nest_sort).unwrap(), &ctx);
    let t_pre = mean(&plain.compile(pre_sort).unwrap(), &ctx);
    println!("3. windowed nests (order within groups, 8K lineitems):");
    println!("   nest ... order by (sort per group) {t_nest:>10.2?}");
    println!("   global pre-sort + plain nest       {t_pre:>10.2?}\n");

    // 4. The paper's Q8 moving window (width 10 over 500 items): nested
    // iteration (the paper's only option), an XQuery 3.0 sliding
    // window, and the O(n) `xqa:moving-sum` extension.
    let none = DynamicContext::new();
    let nested = "let $v := (1 to 500) \
                  return for $x at $i in $v \
                         return sum(for $y at $j in $v \
                                    where $j > $i - 10 and $j <= $i return $y)";
    let window = "for sliding window $w in (1 to 500) \
                  start at $s when true() \
                  end at $e when $e - $s = 9 \
                  return sum($w)";
    let t_nested = mean(&plain.compile(nested).unwrap(), &none);
    let t_window = mean(&plain.compile(window).unwrap(), &none);
    let t_moving = mean(
        &plain.compile("xqa:moving-sum(1 to 500, 10)").unwrap(),
        &none,
    );
    println!("4. moving window (Q8, 500 items, width 10):");
    println!("   nested iteration      {t_nested:>10.2?}");
    println!("   sliding window clause {t_window:>10.2?}");
    println!("   xqa:moving-sum        {t_moving:>10.2?}\n");
}

/// Top-k rank queries (`return at $rank` under `[position() le 10]`):
/// the bounded heap vs the same pipeline with the rewrite disabled.
fn topk(sizes: &[usize]) {
    const K: usize = 10;
    println!("== Top-k rank: streaming heap vs full sort (k = {K}) ==\n");
    let query = format!(
        "(for $li in //order/lineitem \
          order by number($li/extendedprice) descending \
          return at $r <top rank=\"{{$r}}\">{{data($li/partkey)}}</top>)\
         [position() le {K}]"
    );
    println!("query: {query}\n");
    let streaming = Engine::new();
    let full_sort = Engine::with_options(EngineOptions {
        hints: "topk=off".parse().unwrap(),
        ..Default::default()
    });
    println!(
        "{:<10} {:>14} {:>16} {:>9}",
        "lineitems", "heap", "full_sort", "speedup"
    );
    for &size in sizes {
        let dataset = Dataset::generate(size);
        let ctx = dataset.context();
        let fast = streaming.compile(&query).expect("compiles");
        assert!(
            fast.applied_rewrites()
                .iter()
                .any(|r| r.contains("top-k pushdown")),
            "top-k pushdown must fire"
        );
        let slow = full_sort.compile(&query).expect("compiles");
        let a = xqa::serialize_sequence(&fast.run(&ctx).expect("runs"));
        let b = xqa::serialize_sequence(&slow.run(&ctx).expect("runs"));
        assert_eq!(a, b, "paths disagree at {size} lineitems");
        let t_fast = mean(&fast, &ctx);
        let t_slow = mean(&slow, &ctx);
        println!(
            "{size:<10} {t_fast:>14.2?} {t_slow:>16.2?} {:>8}x",
            ratio(t_slow, t_fast)
        );
    }
    println!();

    // One profiled run at the largest size shows where the time goes:
    // the per-operator rows that back the speedup claim above.
    if let Some(&size) = sizes.last() {
        let dataset = Dataset::generate(size);
        let mut ctx = dataset.context();
        ctx.enable_profiling();
        let fast = streaming.compile(&query).expect("compiles");
        fast.run(&ctx).expect("profiled run");
        if let Some(profile) = ctx.take_profile() {
            println!("per-operator profile ({size} lineitems, streaming):");
            println!("{}", fast.explain_analyze(&profile, &ctx.stats.snapshot()));
        }
    }
}

/// Mean of [`RUNS`] timed runs of `plan` after a warm-up.
fn mean(plan: &PreparedQuery, ctx: &DynamicContext) -> Duration {
    time(RUNS, || {
        plan.run(ctx).expect("query runs");
    })
}

fn ratio(a: Duration, b: Duration) -> String {
    format!("{:.1}", a.as_secs_f64() / b.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let args: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        parse_args(&args)
    }

    #[test]
    fn flags_parse_with_defaults() {
        assert_eq!(
            parse("chart --sizes 1000,2000 --runs 5 --svg c.svg"),
            Ok(Args {
                command: "chart".to_string(),
                sizes: vec![1_000, 2_000],
                runs: 5,
                svg: Some("c.svg".to_string()),
            })
        );
        assert_eq!(
            parse(""),
            Ok(Args {
                command: "all".to_string(),
                sizes: vec![8_000, 16_000, 32_000],
                runs: 3,
                svg: None,
            })
        );
    }

    #[test]
    fn zero_or_malformed_counts_are_usage_errors() {
        for line in [
            "chart --runs 0",
            "chart --runs x",
            "chart --runs -1",
            "chart --runs",
            "chart --sizes abc",
            "chart --sizes 1000,0",
            "chart --sizes 1000,,2000",
            "topk --sizes",
        ] {
            assert!(parse(line).is_err(), "{line:?} parsed");
        }
    }
}
