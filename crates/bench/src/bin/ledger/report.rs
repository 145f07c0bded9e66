//! From a run's raw results to named metrics, the result line the
//! driver reads, the `--out` file and `--compare`.

use std::fmt::Write as _;

use crate::json::{self, Value};
use crate::spec::{self, Metric, END_TO_END, PER_LAYER};
use crate::stats::{highest_supported_percentile, median, percentile};
use crate::trace::Trace;
use crate::workloads::{ms, Op, Pass};

/// One run's outcome: the counts and metrics of the result line.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// (metric, value), in the order of the spec tables.
    pub metrics: Vec<(&'static Metric, f64)>,
    /// The per-layer metrics the workload's own trace holds no sample
    /// of; their values come from the probe.
    pub probed: Vec<&'static str>,
}

fn latencies_ms(ops: &[Op], keep: impl Fn(&Op) -> bool) -> Vec<f64> {
    ops.iter()
        .filter(|o| keep(o))
        .map(|o| ms(o.latency_ns))
        .collect()
}

/// `VmHWM` of this process in MB (0 where `/proc` has none).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(pass: &Pass) -> Outcome {
    let verified = pass.ops.iter().filter(|o| o.ok).count();
    let all = latencies_ms(&pass.ops, |_| true);
    let value = |name: &str| match name {
        "setup_s" => pass.setup_s,
        "throughput_qps" => verified as f64 / pass.wall_s,
        "latency_p50_ms" => median(&all),
        "first_byte_p50_ms" => median(
            &pass
                .ops
                .iter()
                .filter_map(|o| o.first_byte_ns.map(ms))
                .collect::<Vec<_>>(),
        ),
        "peak_rss_mb" => peak_rss_mb(),
        other => unreachable!("end-to-end metric {other} has no formula"),
    };
    Outcome {
        attempted: pass.attempted(),
        failed: pass.failed(),
        metrics: END_TO_END.iter().map(|m| (m, value(m.name))).collect(),
        probed: Vec::new(),
    }
}

/// The outcome of an untraced run made of several processes, from their
/// result lines: each end-to-end metric is the median over the
/// processes, and the counts add up.
pub fn median_of_segments(segments: &[Value]) -> Result<Outcome, String> {
    let count = |key: &str| -> Result<u64, String> {
        segments
            .iter()
            .map(|s| s.get(key).and_then(Value::as_f64).map(|n| n as u64))
            .sum::<Option<u64>>()
            .ok_or_else(|| format!("a segment's result line has no {key}"))
    };
    let metrics = END_TO_END
        .iter()
        .map(|m| {
            let values = segments
                .iter()
                .map(|s| s.get("metrics")?.get(m.name)?.get("value")?.as_f64())
                .collect::<Option<Vec<f64>>>()
                .ok_or_else(|| format!("a segment's result line has no {}", m.name))?;
            Ok((m, median(&values)))
        })
        .collect::<Result<_, String>>()?;
    Ok(Outcome {
        attempted: count("attempted")?,
        failed: count("failed")?,
        metrics,
        probed: Vec::new(),
    })
}

/// `ledger.trace_overhead_pct`: per group, the median traced and
/// untraced latency; the sums over the groups are compared, so a slow
/// template weighs as it does in a round.
fn trace_overhead_pct(ops: &[Op]) -> Option<f64> {
    let groups: std::collections::BTreeSet<u16> = ops.iter().map(|o| o.group).collect();
    let (mut traced, mut untraced) = (0.0, 0.0);
    for group in groups {
        let with = latencies_ms(ops, |o| o.group == group && o.traced);
        let without = latencies_ms(ops, |o| o.group == group && !o.traced);
        if with.is_empty() || without.is_empty() {
            return None;
        }
        traced += median(&with);
        untraced += median(&without);
    }
    Some(100.0 * (traced / untraced - 1.0))
}

/// The per-layer metrics of a traced run. Each is the median of the
/// samples the workload's own trace holds for it. A result line must
/// carry every per-layer metric as measured, so a metric of a layer the
/// workload bypasses takes the median of the first probe (another
/// workload's trace at `--quick` size) that sampled it, and is listed in
/// `probed`. Checks the accounting identity.
pub fn per_layer(pass: &Pass, own: &mut Trace, probes: &[Trace]) -> Outcome {
    // The tail of the operations that ran untraced, as an untraced run
    // would see it.
    let untraced = latencies_ms(&pass.ops, |o| !o.traced);
    own.sample("latency_p95_ms", percentile(&untraced, 95.0));
    if let Some(overhead) = trace_overhead_pct(&pass.ops) {
        own.sample("ledger.trace_overhead_pct", overhead);
    }
    let unaccounted = own
        .samples
        .get("ledger.unaccounted_pct")
        .map_or(0.0, |s| median(s));
    let identity_broken = unaccounted > 3.0;
    if identity_broken {
        eprintln!("ledger: {unaccounted:.2} % of an operation's wall time is in no layer span (limit 3 %)");
    }
    let sampled = |t: &Trace, name: &str| {
        t.samples
            .get(name)
            .filter(|s| !s.is_empty())
            .map(|s| median(s))
    };
    let mut probed = Vec::new();
    let metrics = PER_LAYER
        .iter()
        .map(|m| {
            let value = sampled(own, m.name).unwrap_or_else(|| {
                probed.push(m.name);
                probes
                    .iter()
                    .find_map(|t| sampled(t, m.name))
                    .unwrap_or(0.0)
            });
            (m, value)
        })
        .collect();
    Outcome {
        // The identity check counts as one more check made.
        attempted: pass.attempted() + 1,
        failed: pass.failed() + u64::from(identity_broken),
        metrics,
        probed,
    }
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

impl Outcome {
    /// The one JSON object the driver reads off the last line.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(m, v)| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json::quote(m.name),
                    finite(*v),
                    json::quote(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }

    /// Every metric by name with its unit, for a reader. `samples` is
    /// the number of operations the latency percentiles are over.
    pub fn table(&self, workload: &str, samples: usize) -> String {
        let mut out = String::new();
        for (m, v) in &self.metrics {
            let _ = writeln!(
                out,
                "{workload:<15} {:<15} {:<34} {:>16.4} {:<6}{}",
                m.layer,
                m.name,
                finite(*v),
                m.unit,
                if self.probed.contains(&m.name) {
                    " (probe: another workload at --quick size)"
                } else {
                    ""
                }
            );
        }
        let beyond_p95 = samples as f64 * 0.05;
        let _ = writeln!(
            out,
            "{workload:<15} samples {samples} ({beyond_p95:.0} beyond p95; highest percentile with ten beyond it: {})",
            highest_supported_percentile(samples).map_or("none".to_string(), |p| format!("p{p}")),
        );
        let _ = writeln!(
            out,
            "{workload:<15} error_rate {} ({} failed of {} attempted)",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        out
    }
}

/// `--compare a.json b.json`: per workload and end-to-end metric, both
/// values, how much worse `b` is as a share of `a`, the bound, and the
/// verdict. Returns the text and whether every pairing is within bounds.
pub fn compare(a: &Value, b: &Value) -> Result<(String, bool), String> {
    let mut out = format!(
        "{:<15} {:<18} {:>14} {:>14} {:>9} {:>6}  verdict\n",
        "workload", "metric", "a", "b", "worse by", "bound"
    );
    let mut all_within = true;
    for workload in &spec::WORKLOADS {
        for metric in &END_TO_END {
            let read = |file: &Value, label: &str| {
                file.get("workloads")
                    .and_then(|w| w.get(workload.name))
                    .and_then(|w| w.get("end_to_end"))
                    .and_then(|m| m.get(metric.name))
                    .and_then(|m| m.get("value"))
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("{label} has no {} for {}", metric.name, workload.name))
            };
            let (va, vb) = (read(a, "the first file")?, read(b, "the second file")?);
            let worse = match metric.better {
                "lower" => (vb - va) / va,
                _ => (va - vb) / va,
            };
            let within = worse <= metric.bound;
            all_within &= within;
            let _ = writeln!(
                out,
                "{:<15} {:<18} {va:>14.4} {vb:>14.4} {:>8.2}% {:>5.0}%  {}",
                workload.name,
                metric.name,
                100.0 * worse,
                100.0 * metric.bound,
                if within { "within" } else { "exceeds" }
            );
        }
    }
    for (label, file) in [("a", a), ("b", b)] {
        for workload in &spec::WORKLOADS {
            let failed = file
                .get("workloads")
                .and_then(|w| w.get(workload.name))
                .and_then(|w| w.get("failed"))
                .and_then(Value::as_f64)
                .unwrap_or(f64::NAN);
            if failed != 0.0 {
                all_within = false;
                let _ = writeln!(
                    out,
                    "{label}: {} has {failed} failed operations",
                    workload.name
                );
            }
        }
    }
    Ok((out, all_within))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_run_of_several_processes_reports_their_medians() {
        let line = |qps: f64, failed: u64| {
            let metrics: Vec<String> = END_TO_END
                .iter()
                .map(|m| format!("\"{}\":{{\"value\":{qps},\"unit\":\"{}\"}}", m.name, m.unit))
                .collect();
            let text = format!(
                "{{\"correct\":true,\"attempted\":10,\"failed\":{failed},\"metrics\":{{{}}}}}",
                metrics.join(",")
            );
            json::parse(&text).expect("the line is JSON")
        };
        let segments = [line(30.0, 0), line(10.0, 1), line(50.0, 0)];
        let outcome = median_of_segments(&segments).expect("every segment has every metric");
        assert_eq!((outcome.attempted, outcome.failed), (30, 1));
        assert_eq!(outcome.metrics.len(), END_TO_END.len());
        assert!(outcome.metrics.iter().all(|(_, v)| *v == 30.0));
        let broken = [json::parse("{\"attempted\":1,\"failed\":0}").unwrap()];
        assert!(median_of_segments(&broken).is_err());
    }
}
