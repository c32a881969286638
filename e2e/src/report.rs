//! Turning repetitions into the numbers the benchmark reports: medians
//! over repetitions with their spread, the per-layer table of the traced
//! pass with its CPU budget, and the repeatability verdicts.

use std::collections::BTreeMap;

use serde_json::{json, Value};

use crate::names::{self, MetricDef, END_TO_END, PER_LAYER};
use crate::runner::Rep;
use crate::stats;

/// Every repetition of one workload in one set.
#[derive(Debug, Default, Clone)]
pub struct WorkloadRuns {
    /// Repetitions that produced a result.
    pub reps: Vec<Rep>,
    /// Repetitions that did not, with what the child said.
    pub errors: Vec<String>,
}

fn end_to_end_value(rep: &Rep, metric: &str) -> f64 {
    match metric {
        "setup_s" => rep.setup_s,
        "throughput_rps" => rep.throughput_rps,
        "latency_p50_us" => rep.latency_p50_us,
        "latency_p95_us" => rep.latency_p95_us,
        "cpu_ms_per_req" => rep.cpu_ms_per_req,
        "peak_rss_mb" => rep.peak_rss_mb,
        _ => 0.0,
    }
}

impl WorkloadRuns {
    /// The metric's value in every repetition.
    pub fn values(&self, metric: &str) -> Vec<f64> {
        self.reps
            .iter()
            .map(|r| end_to_end_value(r, metric))
            .collect()
    }

    /// The reported value: the median over repetitions.
    pub fn median(&self, metric: &str) -> f64 {
        stats::median(&self.values(metric)).unwrap_or(0.0)
    }

    /// Requests attempted in all windows.
    pub fn attempted(&self) -> u64 {
        self.reps.iter().map(|r| r.attempted).sum()
    }

    /// Requests that failed in all windows, plus one per lost repetition.
    pub fn failed(&self) -> u64 {
        self.reps.iter().map(|r| r.failed).sum::<u64>() + self.errors.len() as u64
    }

    /// Nothing failed and every repetition's verification ran.
    pub fn correct(&self) -> bool {
        !self.reps.is_empty()
            && self.errors.is_empty()
            && self.reps.iter().all(|r| r.failed == 0 && r.checks > 0)
    }

    /// Whether the 95th percentile has ten samples beyond it everywhere.
    pub fn p95_supported(&self) -> bool {
        self.reps
            .iter()
            .all(|r| stats::beyond(r.samples as usize, 0.95) >= 10)
    }
}

/// `{"value": v, "unit": u}` per metric, the shape the driver reads.
pub fn metrics_object(defs: &[MetricDef], value: impl Fn(&str) -> f64) -> Value {
    let map: BTreeMap<String, Value> = defs
        .iter()
        .map(|d| {
            (
                d.name.to_string(),
                json!({ "value": value(d.name), "unit": d.unit }),
            )
        })
        .collect();
    json!(map)
}

/// The last line of standard output in single-workload mode.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Value) -> String {
    let doc = json!({
        "correct": correct,
        "attempted": attempted.max(1),
        "failed": failed,
        "metrics": metrics,
    });
    serde_json::to_string(&doc).unwrap_or_default()
}

/// Prints one workload's end-to-end table.
pub fn print_end_to_end(name: &str, runs: &WorkloadRuns) {
    println!(
        "\n{name}: {} repetitions, {} requests attempted, {} failed, {}",
        runs.reps.len(),
        runs.attempted(),
        runs.failed(),
        if runs.correct() {
            "all outputs verified"
        } else {
            "NOT CORRECT"
        }
    );
    for e in &runs.errors {
        println!("  lost repetition: {e}");
    }
    println!(
        "  {:<18} {:>14} {:<5} {:>14} {:>14}  samples/rep",
        "metric", "median", "unit", "min", "max"
    );
    let samples: Vec<String> = runs.reps.iter().map(|r| r.samples.to_string()).collect();
    for d in &END_TO_END {
        let values = runs.values(d.name);
        let (lo, hi) = stats::min_max(&values).unwrap_or((0.0, 0.0));
        println!(
            "  {:<18} {:>14.4} {:<5} {:>14.4} {:>14.4}  {}",
            d.name,
            runs.median(d.name),
            d.unit,
            lo,
            hi,
            if d.name.starts_with("latency") {
                samples.join(",")
            } else {
                String::new()
            }
        );
    }
    if !runs.p95_supported() {
        println!("  note: fewer than 10 samples beyond p95 in some repetition");
    }
}

/// The end-to-end part of a workload's archive entry.
pub fn end_to_end_json(runs: &WorkloadRuns) -> Value {
    let metrics: BTreeMap<String, Value> = END_TO_END
        .iter()
        .map(|d| {
            let values = runs.values(d.name);
            let (lo, hi) = stats::min_max(&values).unwrap_or((0.0, 0.0));
            (
                d.name.to_string(),
                json!({
                    "median": runs.median(d.name),
                    "min": lo,
                    "max": hi,
                    "unit": d.unit,
                    "values": values,
                }),
            )
        })
        .collect();
    json!({
        "metrics": metrics,
        "samples_per_rep": runs.reps.iter().map(|r| r.samples).collect::<Vec<_>>(),
        "attempted": runs.attempted(),
        "failed": runs.failed(),
        "checks": runs.reps.iter().map(|r| r.checks).sum::<u64>(),
        "correct": runs.correct(),
    })
}

/// What the traced pass gathered for one workload.
#[derive(Debug, Default, Clone)]
pub struct TracedPass {
    /// The tracing-off repetition the traced one is compared with.
    pub untraced: Rep,
    /// The repetition with spans and the exact-counter pass.
    pub traced: Rep,
    /// `cache_zipf` only: the same stream with the cache disabled.
    pub cache_off: Option<Rep>,
    /// Rungs L1–L4 (`ladder::run`); empty without a data plane.
    pub ladder: BTreeMap<String, f64>,
    /// Isolated timings (`micro::run`).
    pub micro: BTreeMap<String, f64>,
}

/// One row of the CPU budget: a layer and its self cost per request.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetRow {
    /// Crate the cost is attributed to.
    pub layer: &'static str,
    /// CPU milliseconds per request, all threads.
    pub cpu_ms: f64,
}

/// Self cost per layer from adjacent rungs. Differences are clamped at
/// zero (a layer cannot cost less than nothing); what the clamping adds
/// shows as the residual against L0.
pub fn budget(pass: &TracedPass) -> Vec<BudgetRow> {
    if pass.ladder.is_empty() {
        return Vec::new();
    }
    let rung = |key: &str| pass.ladder.get(key).copied().unwrap_or(0.0);
    let l0 = pass.untraced.cpu_ms_per_req;
    let (l1, l3, l4) = (rung("l1.cpu_ms"), rung("l3.cpu_ms"), rung("l4.cpu_ms"));
    let per_frame_us = pass
        .micro
        .get(crate::micro::CPU_US_PER_FRAME)
        .copied()
        .unwrap_or(0.0);
    let rpc = (rung("wire.codec_us") + rung("wire.frames") * per_frame_us) / 1e3;
    let row = |layer, cpu_ms: f64| BudgetRow {
        layer,
        cpu_ms: cpu_ms.max(0.0),
    };
    vec![
        row("bf-ocl+bf-remote", l0 - l1),
        row("bf-rpc", rpc.min(l1)),
        row("bf-devmgr", l1 - l3 - rpc),
        row("bf-fpga", l3 - l4),
        row("bf-workloads", l4),
    ]
}

/// Every per-layer metric for one workload, by name.
pub fn layer_values(pass: &TracedPass) -> BTreeMap<String, f64> {
    let mut out: BTreeMap<String, f64> = PER_LAYER
        .iter()
        .map(|d| (d.name.to_string(), 0.0))
        .collect();
    let mut put = |name: &str, value: f64| {
        if let Some(slot) = out.get_mut(name) {
            *slot = value;
        }
    };
    // Isolated timings and exact counters carry their metric names.
    for (name, value) in pass.micro.iter().chain(&pass.traced.counters) {
        put(name, *value);
    }
    for (span, metric) in [
        ("ocl.write_async", "ocl.write_async_us"),
        ("ocl.launch", "ocl.launch_us"),
        ("ocl.read_async", "ocl.read_async_us"),
        ("ocl.finish_wait", "ocl.finish_wait_us"),
        ("ocl.write_sync.grpc", "ocl.write_sync_us.grpc"),
        ("ocl.write_sync.shm", "ocl.write_sync_us.shm"),
        ("ocl.read_vec.grpc", "ocl.read_vec_us.grpc"),
        ("ocl.read_vec.shm", "ocl.read_vec_us.shm"),
        ("request.self", "bench.generator_us_per_req"),
    ] {
        put(metric, pass.traced.spans.get(span).copied().unwrap_or(0.0));
    }
    let rung = |key: &str| pass.ladder.get(key).copied().unwrap_or(0.0);
    let u = &pass.untraced;
    if !pass.ladder.is_empty() {
        put("ocl.native_request_us", rung("l2.wall_us"));
        if rung("l2.wall_us") > 0.0 {
            put(
                "ocl.overhead_vs_native_ratio",
                u.latency_p50_us / rung("l2.wall_us"),
            );
        }
        put("devmgr.direct_request_us", rung("l1.wall_us"));
        put("fpga.board_request_us", rung("l3.wall_us"));
        put("rpc.wire_bytes_per_req", rung("wire.bytes"));
        let rows = budget(pass);
        let cost = |layer: &str| {
            rows.iter()
                .find(|r| r.layer == layer)
                .map_or(0.0, |r| r.cpu_ms)
        };
        put("remote.self_cpu_ms_per_req", cost("bf-ocl+bf-remote"));
        put("devmgr.self_cpu_ms_per_req", cost("bf-devmgr"));
        put("fpga.self_cpu_ms_per_req", cost("bf-fpga"));
        let total: f64 = rows.iter().map(|r| r.cpu_ms).sum();
        if u.cpu_ms_per_req > 0.0 {
            put(
                "bench.budget_residual_pct",
                100.0 * (total - u.cpu_ms_per_req) / u.cpu_ms_per_req,
            );
        }
    }
    put("devmgr.tenant_fairness", u.tenant_fairness);
    put("bench.sched_lag_p95_us", u.sched_lag_p95_us);
    put("client.latency_p99_us", u.latency_p99_us);
    put(
        "client.failed_ratio",
        (u.failed + pass.traced.failed) as f64
            / (u.attempted + pass.traced.attempted).max(1) as f64,
    );
    if u.throughput_rps > 0.0 {
        put(
            "bench.trace_overhead_pct",
            100.0 * (u.throughput_rps - pass.traced.throughput_rps) / u.throughput_rps,
        );
    }
    if let Some(off) = &pass.cache_off {
        put("cache.off_throughput_rps", off.throughput_rps);
    }
    out
}

/// Prints the per-layer table and the CPU budget of one workload.
pub fn print_layers(name: &str, pass: &TracedPass, values: &BTreeMap<String, f64>) {
    println!("\n{name}: per-layer metrics (traced pass; 0 = not on this workload's path)");
    for d in &PER_LAYER {
        println!("  {:<40} {:>16.4} {}", d.name, values[d.name], d.unit);
    }
    let rows = budget(pass);
    if rows.is_empty() {
        return;
    }
    let l0 = pass.untraced.cpu_ms_per_req;
    println!("  CPU budget, ms per request (L0 = {l0:.4}):");
    for row in &rows {
        println!(
            "    {:<18} {:>10.4}  {:>5.1} %",
            row.layer,
            row.cpu_ms,
            100.0 * row.cpu_ms / l0.max(f64::MIN_POSITIVE)
        );
    }
    println!(
        "    {:<18} {:>10.4}  residual {:+.1} %",
        "sum",
        rows.iter().map(|r| r.cpu_ms).sum::<f64>(),
        values["bench.budget_residual_pct"]
    );
}

/// The traced part of a workload's archive entry.
pub fn layers_json(pass: &TracedPass, values: &BTreeMap<String, f64>) -> Value {
    let budget: BTreeMap<String, f64> = budget(pass)
        .into_iter()
        .map(|r| (r.layer.to_string(), r.cpu_ms))
        .collect();
    json!({
        "layers": values,
        "budget_cpu_ms_per_req": budget,
        "l0_cpu_ms_per_req": pass.untraced.cpu_ms_per_req,
        "ladder": pass.ladder,
    })
}

/// The fixed pass's per-request counters, if every repetition counted the
/// same; otherwise which counter differs. They are sequential and seeded,
/// so for one seed they are the same in every process.
pub fn exact_counters<'a>(
    reps: impl IntoIterator<Item = &'a Rep>,
) -> Result<BTreeMap<String, f64>, String> {
    let mut reps = reps.into_iter();
    let first = reps.next().map(|r| r.counters.clone()).unwrap_or_default();
    for rep in reps {
        if rep.counters != first {
            let name = first
                .iter()
                .find(|(name, value)| rep.counters.get(*name) != Some(value))
                .map_or("a missing counter", |(name, _)| name.as_str());
            return Err(format!(
                "{name}: {:?} and {:?}",
                first.get(name),
                rep.counters.get(name)
            ));
        }
    }
    Ok(first)
}

/// ISSUE 11 bounds `setup_s` by "+25 % and ≥ 10 ms": set-up here takes
/// 1–10 ms and is a chain of blocking round trips, so a quarter of it is
/// within what two processes differ by. `BENCHMARK.json` cannot state the
/// floor; `--check-repeat` applies it.
const SETUP_FLOOR_S: f64 = 0.010;

/// How two sets of the same build compare on one (metric, workload) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct PairVerdict {
    /// Workload name.
    pub workload: String,
    /// End-to-end metric name.
    pub metric: &'static str,
    /// Median of the first set.
    pub first: f64,
    /// Median of the second set.
    pub second: f64,
    /// By how much the second is worse than the first, as a share of the
    /// first (negative: better).
    pub worse_by: f64,
    /// The wider of the two sets' quartile distances over their medians.
    pub spread: f64,
    /// The metric's bound.
    pub bound: f64,
    /// `differs` (a shift beyond the bound and beyond the spread),
    /// `unresolved` (spread wider than the bound: the pair can show neither
    /// a change nor its absence) or `agree`.
    pub verdict: &'static str,
}

/// Compares one pair. "Worse" follows the metric's direction.
pub fn compare(
    workload: &str,
    d: &MetricDef,
    first: &WorkloadRuns,
    second: &WorkloadRuns,
) -> PairVerdict {
    let (a, b) = (first.median(d.name), second.median(d.name));
    let worse_by = match d.better {
        "higher" => (a - b) / a,
        _ => (b - a) / a,
    };
    let spread = [first, second]
        .iter()
        .filter_map(|runs| stats::iqr_share(&runs.values(d.name)))
        .fold(0.0, f64::max);
    let bound = names::bound(d.name).unwrap_or(0.0);
    // A shift counts when it is beyond the bound and beyond what the
    // repetitions of one set differ by among themselves (choosing-metrics
    // §8); a shift inside that spread is noise the medians happened to
    // split, and the pair is unresolved, not different.
    let below_floor = d.name == "setup_s" && (b - a).abs() < SETUP_FLOOR_S;
    let shift = worse_by.abs();
    let verdict = if shift > bound && shift > spread && !below_floor {
        "differs"
    } else if spread > bound {
        "unresolved"
    } else {
        "agree"
    };
    PairVerdict {
        workload: workload.to_string(),
        metric: d.name,
        first: a,
        second: b,
        worse_by,
        spread,
        bound,
        verdict,
    }
}

impl PairVerdict {
    /// The archive row.
    pub fn to_json(&self) -> Value {
        json!({
            "workload": self.workload,
            "metric": self.metric,
            "first_median": self.first,
            "second_median": self.second,
            "worse_by": self.worse_by,
            "spread": self.spread,
            "bound": self.bound,
            "verdict": self.verdict,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(throughputs: &[f64]) -> WorkloadRuns {
        WorkloadRuns {
            reps: throughputs
                .iter()
                .map(|&t| Rep {
                    throughput_rps: t,
                    attempted: 10,
                    checks: 1,
                    samples: 400,
                    ..Rep::default()
                })
                .collect(),
            errors: Vec::new(),
        }
    }

    #[test]
    fn reported_value_is_the_median_of_repetitions() {
        let r = runs(&[100.0, 90.0, 500.0, 101.0, 99.0]);
        assert_eq!(r.median("throughput_rps"), 100.0);
        assert_eq!(r.attempted(), 50);
        assert!(r.correct() && r.p95_supported());
    }

    #[test]
    fn a_failure_or_a_silent_verifier_is_not_correct() {
        let mut r = runs(&[100.0]);
        r.reps[0].failed = 1;
        assert!(!r.correct());
        let mut r = runs(&[100.0]);
        r.reps[0].checks = 0;
        assert!(!r.correct());
        let mut r = runs(&[100.0]);
        r.errors.push("child died".into());
        assert!(!r.correct());
        assert_eq!(r.failed(), 1);
        assert!(!WorkloadRuns::default().correct());
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let d = END_TO_END
            .iter()
            .find(|d| d.name == "throughput_rps")
            .expect("metric");
        let bound = names::bound(d.name).expect("bound");
        let steady = runs(&[100.0, 100.5, 99.5, 100.2, 99.8]);
        let same = compare("w", d, &steady, &steady);
        assert_eq!((same.verdict, same.worse_by), ("agree", 0.0));
        let slower = runs(&[50.0, 50.2, 49.8, 50.1, 49.9]);
        let v = compare("w", d, &steady, &slower);
        assert_eq!(v.verdict, "differs");
        assert!(v.worse_by > bound, "lower throughput is worse: {v:?}");
        assert!(compare("w", d, &slower, &steady).worse_by < 0.0);
        let noisy = runs(&[100.0, 160.0, 60.0, 100.1, 99.9]);
        assert_eq!(compare("w", d, &steady, &noisy).verdict, "unresolved");
        // A shift beyond the bound but inside the spread is not resolved
        // either; one beyond both is a difference however noisy the set.
        let split = runs(&[65.0, 66.0, 67.0, 100.0, 101.0]);
        assert_eq!(compare("w", d, &steady, &split).verdict, "unresolved");
        let far = runs(&[20.0, 30.0, 10.0, 20.1, 19.9]);
        assert_eq!(compare("w", d, &steady, &far).verdict, "differs");
    }

    #[test]
    fn a_set_up_difference_under_the_floor_does_not_differ() {
        let d = END_TO_END
            .iter()
            .find(|d| d.name == "setup_s")
            .expect("metric");
        let with_setup = |s: f64| {
            let mut r = runs(&[100.0, 100.0, 100.0]);
            for rep in &mut r.reps {
                rep.setup_s = s;
            }
            r
        };
        let v = compare("w", d, &with_setup(0.002), &with_setup(0.008));
        assert_eq!(v.verdict, "agree");
        assert!(v.worse_by > 2.9, "the archive still shows the shift: {v:?}");
        let v = compare("w", d, &with_setup(0.020), &with_setup(0.040));
        assert_eq!(v.verdict, "differs");
    }

    #[test]
    fn exact_counters_are_the_same_in_every_repetition_or_named() {
        let mut r = runs(&[1.0, 2.0, 3.0]);
        for rep in &mut r.reps {
            rep.counters.insert("devmgr.ops_per_req".into(), 33.0);
            rep.counters.insert("metrics.copy_ops_per_req".into(), 64.0);
        }
        assert_eq!(exact_counters(&r.reps).map(|c| c.len()), Ok(2));
        r.reps[2]
            .counters
            .insert("metrics.copy_ops_per_req".into(), 65.0);
        let e = exact_counters(&r.reps).expect_err("differs");
        assert!(e.starts_with("metrics.copy_ops_per_req"), "{e}");
        r.reps[2].counters.remove("metrics.copy_ops_per_req");
        assert!(exact_counters(&r.reps).is_err());
        assert_eq!(exact_counters(&[]), Ok(BTreeMap::new()));
    }

    #[test]
    fn budget_rows_telescope_to_l0() {
        let mut pass = TracedPass::default();
        pass.untraced.cpu_ms_per_req = 1.0;
        for (k, v) in [
            ("l1.cpu_ms", 0.7),
            ("l3.cpu_ms", 0.3),
            ("l4.cpu_ms", 0.25),
            ("wire.codec_us", 50.0),
            ("wire.frames", 10.0),
        ] {
            pass.ladder.insert(k.to_string(), v);
        }
        pass.micro
            .insert("transport.cpu_us_per_frame".to_string(), 5.0);
        let rows = budget(&pass);
        let by = |layer: &str| rows.iter().find(|r| r.layer == layer).expect("row").cpu_ms;
        assert!((by("bf-ocl+bf-remote") - 0.3).abs() < 1e-12);
        assert!((by("bf-rpc") - 0.1).abs() < 1e-12);
        assert!((by("bf-devmgr") - 0.3).abs() < 1e-12);
        assert!((by("bf-fpga") - 0.05).abs() < 1e-12);
        let total: f64 = rows.iter().map(|r| r.cpu_ms).sum();
        assert!((total - 1.0).abs() < 1e-12);
        let values = layer_values(&pass);
        assert!(values["bench.budget_residual_pct"].abs() < 1e-9);
        assert_eq!(values.len(), PER_LAYER.len());
        // A rung that measures above the one over it is clamped, and the
        // clamping shows as a positive residual.
        pass.ladder.insert("l1.cpu_ms".to_string(), 1.2);
        assert!(layer_values(&pass)["bench.budget_residual_pct"] > 0.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let metrics = metrics_object(&END_TO_END, |_| 1.5);
        let line = result_line(true, 0, 0, metrics);
        let doc = serde_json::from_str(&line).expect("parses");
        let keys: Vec<&String> = doc.as_object().expect("object").keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(doc["attempted"].as_u64(), Some(1));
        assert_eq!(doc["metrics"]["setup_s"]["unit"], "s");
        assert_eq!(
            doc["metrics"].as_object().expect("metrics").len(),
            END_TO_END.len()
        );
    }
}
