//! The performance ledger: the repository's benchmark. See `README.md`
//! in this directory for the workloads, the metrics and how they are
//! expected to move.

mod alloc;
mod json;
mod oracle;
mod queries;
mod report;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::process::{Command, ExitCode};

use report::Outcome;
use spec::{Workload, RUN_SECONDS, SEGMENTS, WORKLOADS};
use trace::Trace;
use workloads::{cold::Cold, export::Export, run_in_process, serve, sweep::Sweep, Pass, Scale};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str =
    "usage: ledger [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>] \
[--quick] [--out <file>]\n       ledger --compare <a.json> <b.json>\n\
An untraced run of a workload is five processes, one after the other, and reports the medians \
over them. Without --workload every workload runs, untraced then traced.";

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set by an untraced run on the processes it is made of.
    segment: bool,
    quick: bool,
    out: Option<String>,
    compare: Option<(String, String)>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        segment: false,
        quick: false,
        out: None,
        compare: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(spec::workload(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--segment" => args.segment = true,
            "--quick" => args.quick = true,
            "--out" => args.out = Some(value()?),
            "--compare" => args.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// The size of a run: the workload's pinned size, or the `--quick` one.
fn scale(args: &Args, workload: &Workload) -> Scale {
    if args.quick {
        return quick_scale(workload);
    }
    Scale {
        lineitems: workload.lineitems,
        seconds: args.seconds,
        threads: workload.threads,
    }
}

/// The small fixed size of `--quick` runs and of the probes.
fn quick_scale(workload: &Workload) -> Scale {
    Scale {
        lineitems: spec::QUICK_LINEITEMS,
        seconds: 0.3,
        threads: workload.threads,
    }
}

fn run_workload(
    workload: &Workload,
    seed: u64,
    scale: &Scale,
    traced: bool,
    tr: &mut Trace,
) -> Pass {
    match workload.name {
        "sweep_groupby" => run_in_process::<Sweep<false>>(seed, scale, traced, tr),
        "sweep_baseline" => run_in_process::<Sweep<true>>(seed, scale, traced, tr),
        "cold_run" => run_in_process::<Cold>(seed, scale, traced, tr),
        "serve_mixed" => serve::run(seed, scale, traced, tr),
        "export_stream" => run_in_process::<Export>(seed, scale, traced, tr),
        other => unreachable!("workload {other} has no implementation"),
    }
}

/// One run of one workload in this process. Untraced it yields the
/// end-to-end metrics. Traced it yields the per-layer metrics from the
/// workload's own trace, which is also what the span file holds. The
/// other four workloads then run once each at `--quick` size, traced, as
/// probes for the layers this workload bypasses: the result line has to
/// carry every per-layer metric as measured. Their operations are not
/// counted, and `Outcome::probed` names the metrics they filled.
fn run_one(workload: &'static Workload, seed: u64, scale: &Scale, traced: bool) -> (Outcome, Pass) {
    let mut own = Trace::new(false);
    let pass = run_workload(workload, seed, scale, traced, &mut own);
    if !traced {
        return (report::end_to_end(&pass), pass);
    }
    let probes: Vec<Trace> = WORKLOADS
        .iter()
        .filter(|w| w.name != workload.name)
        .map(|other| {
            let mut probe = Trace::new(false);
            run_workload(other, seed, &quick_scale(other), true, &mut probe);
            probe
        })
        .collect();
    let outcome = report::per_layer(&pass, &mut own, &probes);
    write_span_file(workload.name, &own);
    (outcome, pass)
}

/// `<build dir>/ledger/trace-<workload>.json`, next to the profile
/// directory the binary runs from, so it stays inside the checkout.
fn write_span_file(workload: &str, trace: &Trace) {
    let written = std::env::current_exe().and_then(|exe| {
        let build_dir = exe
            .parent()
            .and_then(|profile| profile.parent())
            .ok_or_else(|| std::io::Error::other("the binary has no build directory"))?;
        let dir = build_dir.join("ledger");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("trace-{workload}.json"));
        std::fs::write(&path, trace.to_json(workload))?;
        Ok(path)
    });
    match written {
        Ok(path) => eprintln!("ledger: spans written to {}", path.display()),
        Err(e) => eprintln!("ledger: could not write the span file: {e}"),
    }
}

/// Every option the run pins, echoed so a result can be read on its own.
/// `processes` is how many the run's seconds are divided among.
fn pinned_options(
    seed: u64,
    scale: &Scale,
    workload: &Workload,
    traced: bool,
    processes: usize,
) -> String {
    format!(
        "{{\"workload\":\"{}\",\"seed\":{seed},\"seconds\":{},\"processes\":{processes},\
\"trace\":{},\"lineitems\":{},\
\"query_threads\":{},\"clients\":{},\"server_workers\":{},\
\"plan_cache_capacity\":{},\"flight_recorder_capacity\":{},\"engine_options\":\"default\"}}",
        workload.name,
        scale.seconds,
        u8::from(traced),
        scale.lineitems,
        workload.threads,
        spec::CLIENTS,
        spec::SERVER_WORKERS,
        xqa_service::ServiceConfig::default().plan_cache_capacity,
        xqa_service::ServiceConfig::default().flight_recorder_capacity,
    )
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The stdout line on which a traced run names the metrics its probes
/// filled, as a JSON array after this prefix.
const PROBED_PREFIX: &str = "ledger: probed ";

/// One run of one workload in a child process, with `seed` for
/// `seconds`; echoes what the child printed and returns its parsed
/// result line and the metric names on its `PROBED_PREFIX` line.
fn child_run(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    flags: &[&str],
) -> Result<(json::Value, Vec<String>), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut child = Command::new(&exe);
    child.args(["--workload", workload.name]);
    child.args(["--seed", &seed.to_string()]);
    child.args(["--seconds", &seconds.to_string()]);
    child.args(flags);
    let output = child
        .output()
        .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    if !output.status.success() {
        return Err(format!(
            "{} {flags:?} exited with {}",
            workload.name, output.status
        ));
    }
    let result = json::parse(stdout.lines().last().unwrap_or(""))
        .map_err(|e| format!("{} {flags:?} printed no result line: {e}", workload.name))?;
    let probed = stdout
        .lines()
        .find_map(|l| l.strip_prefix(PROBED_PREFIX))
        .and_then(|list| json::parse(list).ok())
        .map(|list| {
            let names = list.items().iter().filter_map(json::Value::as_str);
            names.map(str::to_string).collect()
        })
        .unwrap_or_default();
    Ok((result, probed))
}

/// An untraced run: `SEGMENTS` processes one after the other, each with
/// its own set-up, a share of the run's seconds and a seed of its own
/// derived from the run's. One document in about forty makes a process's
/// peak memory a fifth larger than its neighbours do (README.md,
/// "Repeatability"); over five documents the median does not see it.
fn run_segments(args: &Args, workload: &Workload) -> Result<Outcome, String> {
    let seconds = args.seconds / SEGMENTS as f64;
    let segments = (0..SEGMENTS as u64)
        .map(|k| {
            let seed = args.seed.wrapping_mul(SEGMENTS as u64).wrapping_add(k);
            child_run(workload, seed, seconds, &["--trace", "0", "--segment"]).map(|r| r.0)
        })
        .collect::<Result<Vec<_>, _>>()?;
    report::median_of_segments(&segments)
}

/// One section of the `--out` file: metric -> {value, unit} as on the
/// result line `run`, without the metrics in `skip`.
fn section(run: &json::Value, skip: &[String]) -> String {
    let metrics = run.get("metrics").map_or(&[][..], json::Value::members);
    let entries: Vec<String> = metrics
        .iter()
        .filter(|(name, _)| !skip.contains(name))
        .map(|(name, metric)| {
            let field = |key| metric.get(key);
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json::quote(name),
                field("value").and_then(json::Value::as_f64).unwrap_or(0.0),
                json::quote(field("unit").and_then(json::Value::as_str).unwrap_or(""))
            )
        })
        .collect();
    format!("{{{}}}", entries.join(","))
}

/// Run every workload, untraced then traced, each run in processes of
/// its own so that `peak_rss_mb` is the workload's and nothing carries
/// over. The `--out` file records the end-to-end metrics of the untraced
/// run and the per-layer metrics the workload's own trace sampled (not
/// those its probes filled).
fn run_all(args: &Args) -> Result<bool, String> {
    let mut workloads = Vec::new();
    let mut all_correct = true;
    for workload in &WORKLOADS {
        let run = |trace| {
            let mut flags = vec!["--trace", trace];
            flags.extend(args.quick.then_some("--quick"));
            child_run(workload, args.seed, args.seconds, &flags)
        };
        let (untraced, _) = run("0")?;
        let (traced, probed) = run("1")?;
        let count = |key: &str| -> f64 {
            [&untraced, &traced]
                .iter()
                .map(|p| p.get(key).and_then(json::Value::as_f64).unwrap_or(0.0))
                .sum()
        };
        all_correct &= [&untraced, &traced]
            .iter()
            .all(|p| p.get("correct") == Some(&json::Value::Bool(true)));
        workloads.push(format!(
            "\"{}\":{{\"attempted\":{},\"failed\":{},\"end_to_end\":{},\"per_layer\":{}}}",
            workload.name,
            count("attempted"),
            count("failed"),
            section(&untraced, &[]),
            section(&traced, &probed),
        ));
    }
    if let Some(path) = &args.out {
        let any = scale(args, &WORKLOADS[0]);
        let stamp = format!(
            "\"seed\":{},\"nproc\":{},\"profile\":\"{}\",\"rustc\":{},\"git_commit\":{},\
\"seconds\":{},\"processes_per_untraced_run\":{},\"quick\":{},\"clients\":{}",
            args.seed,
            std::thread::available_parallelism().map_or(0, |n| n.get()),
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            json::quote(&command_line("rustc", &["-V"])),
            json::quote(&command_line("git", &["rev-parse", "HEAD"])),
            any.seconds,
            if args.quick { 1 } else { SEGMENTS },
            args.quick,
            spec::CLIENTS,
        );
        let sizes: Vec<String> = WORKLOADS
            .iter()
            .map(|w| {
                let lineitems = scale(args, w).lineitems;
                format!(
                    "\"{}\":{{\"lineitems\":{lineitems},\"query_threads\":{}}}",
                    w.name, w.threads
                )
            })
            .collect();
        let file = format!(
            "{{{stamp},\"options\":{{{}}},\n\"workloads\":{{\n{}\n}}}}\n",
            sizes.join(","),
            workloads.join(",\n")
        );
        std::fs::write(path, file).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("ledger: wrote {path}");
    }
    Ok(all_correct)
}

fn compare(a: &str, b: &str) -> Result<bool, String> {
    let read = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (text, within) = report::compare(&read(a)?, &read(b)?)?;
    print!("{text}");
    Ok(within)
}

/// `--workload <name>`: a traced run, a segment or a `--quick` run in
/// this process, an untraced run as `SEGMENTS` processes.
fn run_workload_and_print(args: &Args, workload: &'static Workload) -> Result<(), String> {
    let in_process = args.trace || args.segment || args.quick;
    let scale = scale(args, workload);
    println!("ledger: {}: {}", workload.name, workload.why);
    let processes = if in_process { 1 } else { SEGMENTS };
    println!(
        "ledger: options {}",
        pinned_options(args.seed, &scale, workload, args.trace, processes)
    );
    let (outcome, samples) = if in_process {
        let (outcome, pass) = run_one(workload, args.seed, &scale, args.trace);
        // The latency percentiles are over the operations that ran untraced.
        (outcome, pass.ops.iter().filter(|o| !o.traced).count())
    } else {
        // Each process takes its own percentiles; the run reports their medians.
        let outcome = run_segments(args, workload)?;
        let samples = outcome.attempted as usize / SEGMENTS;
        (outcome, samples)
    };
    print!("{}", outcome.table(workload.name, samples));
    if args.trace {
        let names: Vec<String> = outcome.probed.iter().map(|n| json::quote(n)).collect();
        println!("{PROBED_PREFIX}[{}]", names.join(","));
    }
    println!("{}", outcome.result_line());
    Ok(())
}

fn main() -> ExitCode {
    // No option comes from the environment: the engine reads XQA_*
    // overrides, so they are cleared before any thread starts.
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("XQA_") {
            std::env::remove_var(name);
        }
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ledger: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = if let Some((a, b)) = &args.compare {
        compare(a, b)
    } else if let Some(workload) = args.workload {
        // A run that completes exits 0 and reports failures in its
        // result line, where the driver counts them.
        run_workload_and_print(&args, workload).map(|()| true)
    } else {
        run_all(&args)
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use json::Value;
    use std::collections::BTreeSet;

    fn benchmark_json() -> Value {
        json::parse(include_str!("../../../../../BENCHMARK.json")).expect("BENCHMARK.json is JSON")
    }

    fn text<'a>(entry: &'a Value, key: &str) -> &'a str {
        entry
            .get(key)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("{key} missing in {entry:?}"))
    }

    #[test]
    fn names_match_the_name_rule() {
        for name in ["a", "engine.rewrite.join-unnest_fired", "p95_ms", "9lives"] {
            assert!(spec::valid_name(name), "{name}");
        }
        let too_long = "x".repeat(65);
        for name in [
            "",
            "has space",
            "_leading",
            ".leading",
            "slash/inside",
            "µs",
            too_long.as_str(),
        ] {
            assert!(!spec::valid_name(name), "{name:?}");
        }
        let names = WORKLOADS.iter().map(|w| w.name).chain(
            spec::END_TO_END
                .iter()
                .chain(&spec::PER_LAYER)
                .map(|m| m.name),
        );
        let mut seen = BTreeSet::new();
        for name in names {
            assert!(spec::valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
    }

    #[test]
    fn benchmark_json_names_what_the_ledger_emits() {
        let file = benchmark_json();
        let keys: Vec<&str> = file.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            file.get("run_seconds").and_then(Value::as_f64),
            Some(RUN_SECONDS)
        );
        let paths: Vec<&str> = file
            .get("paths")
            .unwrap()
            .items()
            .iter()
            .filter_map(Value::as_str)
            .collect();
        assert_eq!(paths, ["crates/bench/src/bin/ledger"]);

        let workloads = file.get("workloads").unwrap().items();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (entry, workload) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(entry.members().len(), 2);
            assert_eq!(text(entry, "name"), workload.name);
            assert_eq!(text(entry, "why"), workload.why);
            assert!(
                workload.why.len() <= 200 && !workload.why.contains('\n'),
                "{}",
                workload.name
            );
        }
        for (key, metrics, keys) in [
            ("end_to_end", &spec::END_TO_END[..], 4),
            ("per_layer", &spec::PER_LAYER[..], 3),
        ] {
            let entries = file.get(key).unwrap().items();
            assert_eq!(entries.len(), metrics.len(), "{key}");
            for (entry, metric) in entries.iter().zip(metrics) {
                assert_eq!(entry.members().len(), keys, "{}", metric.name);
                assert_eq!(text(entry, "name"), metric.name);
                assert_eq!(text(entry, "unit"), metric.unit);
                assert_eq!(text(entry, "better"), metric.better);
                assert!(matches!(metric.better, "lower" | "higher"));
                if key == "end_to_end" {
                    assert_eq!(
                        entry.get("bound").and_then(Value::as_f64),
                        Some(metric.bound)
                    );
                    assert!(metric.bound > 0.0 && metric.bound <= 0.25);
                }
            }
        }
        assert!(spec::END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
    }

    #[test]
    fn readme_documents_every_name() {
        let readme = include_str!("README.md");
        let names = WORKLOADS.iter().map(|w| w.name).chain(
            spec::END_TO_END
                .iter()
                .chain(&spec::PER_LAYER)
                .map(|m| m.name),
        );
        for name in names {
            assert!(
                readme.contains(&format!("`{name}`")),
                "README.md does not mention `{name}`"
            );
        }
    }

    #[test]
    fn seeded_mix_has_the_stated_class_shares() {
        let partkeys: Vec<u32> = (1..=5_000).collect();
        const DRAWS: usize = 20_000;
        for seed in [1, 2, 99] {
            let mut mix = serve::Mix::new(seed, 0, &partkeys);
            let mut counts = [0usize; 4];
            let mut adhoc_texts = BTreeSet::new();
            for _ in 0..DRAWS {
                let (class, query) = mix.next();
                counts[class as usize] += 1;
                if class == serve::ADHOC {
                    assert!(adhoc_texts.insert(query.text()), "an adhoc text repeated");
                }
            }
            let stated = [
                (serve::POINT, 0.70),
                (serve::ADHOC, 0.10),
                (serve::AGG, 0.10),
                (serve::EXPORT, 0.10),
            ];
            for (class, share) in stated {
                assert_eq!(
                    counts[class as usize] as f64 / DRAWS as f64,
                    share,
                    "seed {seed}, class {class}"
                );
            }
        }
    }

    /// All five workloads at `--quick` size, untraced then traced: every
    /// result verified, the result lines carry exactly the metrics
    /// `BENCHMARK.json` names, and between them the five workloads' own
    /// traces sample every per-layer metric.
    #[test]
    fn quick_smoke_run_of_every_workload() {
        let _guard = alloc::SWITCH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let start = std::time::Instant::now();
        let file = benchmark_json();
        let named = |key: &str| -> Vec<String> {
            file.get(key)
                .unwrap()
                .items()
                .iter()
                .map(|e| text(e, "name").to_string())
                .collect()
        };
        let emitted = |outcome: &Outcome| -> Vec<String> {
            let line = json::parse(&outcome.result_line()).expect("the result line is JSON");
            let keys: Vec<&str> = line.members().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
            line.get("metrics")
                .unwrap()
                .members()
                .iter()
                .map(|(k, _)| k.clone())
                .collect()
        };
        let mut traces = Vec::new();
        for workload in &WORKLOADS {
            let scale = quick_scale(workload);
            let (outcome, pass) = run_one(workload, 5, &scale, false);
            assert_eq!(outcome.failed, 0, "{}", workload.name);
            assert!(outcome.attempted >= 1 && !pass.ops.is_empty());
            assert_eq!(emitted(&outcome), named("end_to_end"), "{}", workload.name);
            assert!(
                outcome.metrics.iter().all(|(_, v)| *v > 0.0),
                "{}: a zero metric",
                workload.name
            );
            let mut trace = Trace::new(false);
            let pass = run_workload(workload, 5, &scale, true, &mut trace);
            assert_eq!(pass.failed(), 0, "{} traced", workload.name);
            traces.push((pass, trace));
        }
        // The first workload's traced outcome, the other four as probes.
        let (pass, mut own) = traces.remove(0);
        let probes: Vec<Trace> = traces.into_iter().map(|(_, trace)| trace).collect();
        let outcome = report::per_layer(&pass, &mut own, &probes);
        assert_eq!(outcome.failed, 0);
        assert_eq!(emitted(&outcome), named("per_layer"));
        assert!(!outcome.probed.is_empty() && outcome.probed.len() < spec::PER_LAYER.len());
        for (metric, value) in &outcome.metrics {
            let sampled = |t: &Trace| t.samples.get(metric.name).is_some_and(|s| !s.is_empty());
            assert!(
                sampled(&own) || probes.iter().any(sampled),
                "no workload samples {}",
                metric.name
            );
            assert_eq!(outcome.probed.contains(&metric.name), !sampled(&own));
            // Counts can be 0; differences of two measurements can be negative.
            let unsigned = !matches!(metric.unit, "count" | "%")
                && !metric.name.ends_with("overhead_us")
                && !metric.name.ends_with("gap_us");
            assert!(*value > 0.0 || !unsigned, "{} is {value}", metric.name);
        }
        assert!(
            start.elapsed().as_secs() < 10,
            "the smoke run took {:?}",
            start.elapsed()
        );
    }
}
