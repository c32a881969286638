#![forbid(unsafe_code)]

//! `e2e` — the repo benchmark: a wall-clock harness over the real
//! direct-mode stack (`bf-ocl` → `RemoteBackend` → codec → bounded
//! transport → poller → `bf-devmgr` session → FIFO task queue → `bf-fpga`
//! board with functional kernels → completion → Fig. 2 event state
//! machine) and over the `PlacementService` path.
//!
//! ```text
//! e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload, result line last
//! e2e [--seed n] [--reps r] [--secs s] [--trace]                 every workload, tables + archive
//! e2e --check-repeat                                             two sets, verdict per pair
//! e2e --smoke                                                    1 repetition × 0.5 s, bounds off
//! ```
//!
//! See `README.md` beside `Cargo.toml` for what each workload and metric
//! is for, and `BENCHMARK.json` at the repository root for the contract.

mod clock;
mod gen;
mod ladder;
mod micro;
mod names;
mod placement;
mod report;
mod rig;
mod runner;
mod script;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use serde_json::{json, Value};

use names::{END_TO_END, PER_LAYER};
use report::{TracedPass, WorkloadRuns};
use runner::{Rep, RepConfig};

/// Repetitions per reported value. ISSUE 11 starts at five and answers an
/// unresolved pair with up to seven; on the 2-vCPU reference box five left
/// pairs unresolved, so it is seven, and `--reps` can only lower it.
const REPS: u32 = 7;
/// Measured window per repetition, seconds, when not given.
const DEFAULT_WINDOW_S: f64 = 2.0;
/// Warm-up is a quarter of the window, at most this.
const MAX_WARMUP: Duration = Duration::from_millis(500);
/// Budget of each isolated timing in the traced pass.
const MICRO_BUDGET: Duration = Duration::from_millis(60);

struct Args {
    map: BTreeMap<String, String>,
}

impl Args {
    /// `--key value` pairs; a `--flag` followed by another `--…` (or by
    /// nothing) is stored as `"1"`.
    fn parse(raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut map = BTreeMap::new();
        let mut raw = raw.peekable();
        while let Some(arg) = raw.next() {
            let key = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {arg:?}"))?;
            let value = match raw.peek() {
                Some(next) if !next.starts_with("--") => raw.next().unwrap_or_default(),
                _ => "1".to_string(),
            };
            map.insert(key.to_string(), value);
        }
        Ok(Args { map })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.map.get(key).map(String::as_str)
    }

    fn flag(&self, key: &str) -> bool {
        self.get(key).is_some_and(|v| v != "0")
    }

    fn number<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.get(key)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{key}: cannot read {v:?} as a number"))
            })
            .transpose()
    }
}

fn main() -> ExitCode {
    let outcome = Args::parse(std::env::args().skip(1)).and_then(|args| match args.get("child") {
        Some(mode) => child(mode, &args).map(|()| true),
        None => parent(&args),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::from(2)
        }
    }
}

// ---- child processes ---------------------------------------------------------

/// A child does one thing in a fresh process and prints one JSON line.
fn child(mode: &str, args: &Args) -> Result<(), String> {
    let workload = args.get("workload").unwrap_or_default();
    let seed = args.number("seed")?.unwrap_or(1);
    let millis = |key| -> Result<Duration, String> {
        Ok(Duration::from_millis(args.number(key)?.unwrap_or(0)))
    };
    let line = match mode {
        "rep" => {
            let cfg = RepConfig {
                workload: workload.to_string(),
                seed,
                warmup: millis("warmup-ms")?,
                window: millis("window-ms")?,
                traced: args.flag("traced"),
                trace_out: args.get("trace-out").map(PathBuf::from),
            };
            runner::run(&cfg)?.to_json()
        }
        "ladder" => json!(ladder::run(workload, seed, millis("window-ms")?)?),
        "micro" => json!(micro::run(seed, millis("window-ms")?)?),
        other => return Err(format!("unknown child mode {other:?}")),
    };
    println!(
        "{}",
        serde_json::to_string(&line).map_err(|e| e.to_string())?
    );
    Ok(())
}

/// Runs this executable again as a child and parses its last line.
fn spawn(mode: &str, pairs: &[(&str, String)]) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command.args(["--child", mode]);
    for (key, value) in pairs {
        command.arg(format!("--{key}")).arg(value);
    }
    let output = command
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a child: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!("child {mode} failed ({})", output.status));
    }
    let line = text.lines().last().unwrap_or_default();
    serde_json::from_str(line).map_err(|e| format!("child {mode} printed {line:?}: {e}"))
}

fn float_map(v: &Value) -> BTreeMap<String, f64> {
    v.as_object()
        .map(|m| {
            m.iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect()
        })
        .unwrap_or_default()
}

// ---- the parent --------------------------------------------------------------

/// How a set of repetitions is run.
#[derive(Clone)]
struct Plan {
    seed: u64,
    reps: u32,
    window: Duration,
    out_dir: PathBuf,
}

impl Plan {
    fn warmup(&self) -> Duration {
        (self.window / 4).min(MAX_WARMUP)
    }

    fn rep(&self, workload: &str, extra: &[(&str, String)]) -> Result<Rep, String> {
        let mut pairs = vec![
            ("workload", workload.to_string()),
            ("seed", self.seed.to_string()),
            ("warmup-ms", self.warmup().as_millis().to_string()),
            ("window-ms", self.window.as_millis().to_string()),
        ];
        pairs.extend_from_slice(extra);
        let line = spawn("rep", &pairs)?;
        Rep::from_json(&line).ok_or_else(|| format!("incomplete repetition line: {line:?}"))
    }

    /// `count` sets of `reps` repetitions of every workload, interleaved
    /// round-robin over sets and workloads, so that a slow interval of the
    /// host hits all of them and not one set or one workload.
    fn sets(&self, workloads: &[&str], count: usize) -> Vec<BTreeMap<String, WorkloadRuns>> {
        let mut sets = vec![BTreeMap::<String, WorkloadRuns>::new(); count];
        for _ in 0..self.reps {
            for set in &mut sets {
                for name in workloads {
                    let entry = set.entry(name.to_string()).or_default();
                    match self.rep(name, &[]) {
                        Ok(rep) => entry.reps.push(rep),
                        Err(e) => entry.errors.push(e),
                    }
                }
            }
        }
        sets
    }

    fn set(&self, workloads: &[&str]) -> BTreeMap<String, WorkloadRuns> {
        self.sets(workloads, 1).pop().unwrap_or_default()
    }

    fn micro(&self) -> Result<BTreeMap<String, f64>, String> {
        let pairs = [
            ("seed", self.seed.to_string()),
            ("window-ms", MICRO_BUDGET.as_millis().to_string()),
        ];
        spawn("micro", &pairs).map(|v| float_map(&v))
    }

    /// The traced pass for one workload. End-to-end numbers never come
    /// from here; the tracing-off repetition exists to price the tracing.
    fn traced_pass(
        &self,
        workload: &str,
        micro: &BTreeMap<String, f64>,
    ) -> Result<TracedPass, String> {
        std::fs::create_dir_all(&self.out_dir).map_err(|e| e.to_string())?;
        let trace_out = self.out_dir.join(format!("trace_{workload}.json"));
        let untraced = self.rep(workload, &[])?;
        let traced = self.rep(
            workload,
            &[
                ("traced", "1".to_string()),
                ("trace-out", trace_out.display().to_string()),
            ],
        )?;
        let cache_off = match workload {
            "cache_zipf" => Some(self.rep(workloads::CACHE_ZIPF_OFF, &[])?),
            _ => None,
        };
        let ladder = spawn(
            "ladder",
            &[
                ("workload", workload.to_string()),
                ("seed", self.seed.to_string()),
                ("window-ms", (self.window / 2).as_millis().to_string()),
            ],
        )?;
        Ok(TracedPass {
            untraced,
            traced,
            cache_off,
            ladder: float_map(&ladder),
            micro: micro.clone(),
        })
    }
}

/// `<target>/experiments/e2e`, from where this executable sits
/// (`<target>/release/e2e`), so nothing is written outside the checkout.
fn default_out_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.to_path_buf()))
        .unwrap_or_else(|| PathBuf::from("target"))
        .join("experiments")
        .join("e2e")
}

fn write_json(dir: &Path, file: &str, doc: &Value) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let path = dir.join(file);
    let text = serde_json::to_string_pretty(doc).map_err(|e| e.to_string())?;
    std::fs::write(&path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// `Ok(true)`: everything ran and verified (and, for `--check-repeat`, no
/// pair differs).
fn parent(args: &Args) -> Result<bool, String> {
    let smoke = args.flag("smoke");
    let reps: u32 = match args.number("reps")? {
        Some(r) if (1..=REPS).contains(&r) => r,
        Some(r) => return Err(format!("--reps {r}: between 1 and {REPS}")),
        None if smoke => 1,
        None => REPS,
    };
    // `--seconds` is what one workload measures in total (the driver's
    // unit); `--secs` is one repetition's window.
    let window_s = match (args.number::<f64>("secs")?, args.number::<f64>("seconds")?) {
        (Some(secs), _) => secs,
        (None, Some(total)) => total / f64::from(reps),
        (None, None) if smoke => 0.5,
        (None, None) => DEFAULT_WINDOW_S,
    };
    if !(0.05..=60.0).contains(&window_s) {
        return Err(format!("a window of {window_s} s is outside 0.05–60 s"));
    }
    let plan = Plan {
        seed: args.number("seed")?.unwrap_or(1),
        reps,
        window: Duration::from_secs_f64(window_s),
        out_dir: args
            .get("out-dir")
            .map_or_else(default_out_dir, PathBuf::from),
    };
    match args.get("workload") {
        Some(name) if workloads::kind(name).is_none() => Err(format!(
            "unknown workload {name:?}; one of {:?}",
            workloads::NAMES
        )),
        Some(name) if args.flag("trace") => one_workload_traced(&plan, name),
        Some(name) => Ok(one_workload(&plan, name)),
        None if args.flag("check-repeat") => check_repeat(&plan),
        None => full_run(&plan, args.flag("trace")),
    }
}

fn one_workload(plan: &Plan, name: &str) -> bool {
    let runs = plan.set(&[name]).remove(name).unwrap_or_default();
    report::print_end_to_end(name, &runs);
    let metrics = report::metrics_object(&END_TO_END, |m| runs.median(m));
    println!(
        "{}",
        report::result_line(runs.correct(), runs.attempted(), runs.failed(), metrics)
    );
    runs.correct()
}

fn one_workload_traced(plan: &Plan, name: &str) -> Result<bool, String> {
    let pass = plan.traced_pass(name, &plan.micro()?)?;
    let values = report::layer_values(&pass);
    report::print_layers(name, &pass, &values);
    let reps = [&pass.untraced, &pass.traced];
    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let failed: u64 = reps.iter().map(|r| r.failed).sum();
    let correct = failed == 0 && reps.iter().all(|r| r.checks > 0);
    let metrics = report::metrics_object(&PER_LAYER, |m| values[m]);
    println!(
        "{}",
        report::result_line(correct, attempted, failed, metrics)
    );
    Ok(correct)
}

fn full_run(plan: &Plan, traced: bool) -> Result<bool, String> {
    println!(
        "e2e: seed {}, {} repetitions × {:.2} s (+{:.2} s warm-up), nproc {}",
        plan.seed,
        plan.reps,
        plan.window.as_secs_f64(),
        plan.warmup().as_secs_f64(),
        nproc()
    );
    let set = plan.set(&workloads::NAMES);
    let mut correct = true;
    let mut archive = BTreeMap::new();
    let micro = if traced {
        plan.micro()?
    } else {
        BTreeMap::new()
    };
    for name in workloads::NAMES {
        let runs = &set[name];
        report::print_end_to_end(name, runs);
        correct &= runs.correct();
        let mut entry = report::end_to_end_json(runs);
        if traced {
            let pass = plan.traced_pass(name, &micro)?;
            let values = report::layer_values(&pass);
            report::print_layers(name, &pass, &values);
            correct &= pass.traced.failed == 0 && pass.traced.checks > 0;
            if let (Value::Object(entry), Value::Object(layers)) =
                (&mut entry, report::layers_json(&pass, &values))
            {
                entry.extend(layers);
            }
        }
        archive.insert(name.to_string(), entry);
    }
    let doc = json!({
        "benchmark": "e2e",
        "seed": plan.seed,
        "nproc": nproc() as u64,
        "repetitions": plan.reps,
        "window_s": plan.window.as_secs_f64(),
        "warmup_s": plan.warmup().as_secs_f64(),
        "workloads": archive,
    });
    write_json(&plan.out_dir, "BENCH_e2e.json", &doc)?;
    println!(
        "\n{}",
        if correct {
            "every workload verified"
        } else {
            "VERIFICATION FAILED"
        }
    );
    Ok(correct)
}

/// Two full sets of the same build. A pair that differs by more than its
/// bound fails the run, and so does an exact counter that is not the same
/// in every repetition of both sets.
fn check_repeat(plan: &Plan) -> Result<bool, String> {
    let sets = plan.sets(&workloads::NAMES, 2);
    let mut verdicts = Vec::new();
    let mut counters = BTreeMap::new();
    let mut ok = true;
    println!(
        "{:<16} {:<16} {:>12} {:>12} {:>9} {:>8} {:>6}  verdict",
        "workload", "metric", "first", "second", "worse by", "spread", "bound"
    );
    for name in workloads::NAMES {
        ok &= sets.iter().all(|set| set[name].correct());
        for d in &END_TO_END {
            let v = report::compare(name, d, &sets[0][name], &sets[1][name]);
            println!(
                "{:<16} {:<16} {:>12.4} {:>12.4} {:>8.1}% {:>7.1}% {:>5.0}%  {}",
                v.workload,
                v.metric,
                v.first,
                v.second,
                100.0 * v.worse_by,
                100.0 * v.spread,
                100.0 * v.bound,
                v.verdict
            );
            ok &= v.verdict != "differs";
            verdicts.push(v);
        }
        let reps = sets.iter().flat_map(|set| &set[name].reps);
        match report::exact_counters(reps) {
            Ok(same) => counters.insert(name.to_string(), json!(same)),
            Err(e) => {
                println!("{name:<16} exact counters differ: {e}");
                ok = false;
                counters.insert(name.to_string(), json!({ "differ": e }))
            }
        };
    }
    let count = |verdict| verdicts.iter().filter(|v| v.verdict == verdict).count() as u64;
    let sets_json: Vec<Value> = sets
        .iter()
        .map(|set| {
            let by_name: BTreeMap<String, Value> = set
                .iter()
                .map(|(name, runs)| (name.clone(), report::end_to_end_json(runs)))
                .collect();
            json!(by_name)
        })
        .collect();
    let doc = json!({
        "benchmark": "e2e",
        "seed": plan.seed,
        "nproc": nproc() as u64,
        "repetitions": plan.reps,
        "window_s": plan.window.as_secs_f64(),
        "agree": count("agree"),
        "unresolved": count("unresolved"),
        "differs": count("differs"),
        "pairs": verdicts.iter().map(report::PairVerdict::to_json).collect::<Vec<_>>(),
        "exact_counters": counters,
        "sets": sets_json,
    });
    write_json(&plan.out_dir, "repeatability.json", &doc)?;
    println!(
        "\n{} agree, {} unresolved (spread wider than the bound), {} differ; exact counters {}",
        count("agree"),
        count("unresolved"),
        count("differs"),
        if counters.values().all(|c| c.get("differ").is_none()) {
            "identical in every repetition"
        } else {
            "DIFFER"
        }
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Args {
        Args::parse(line.split_whitespace().map(String::from)).expect("parses")
    }

    #[test]
    fn driver_command_line() {
        let a = args("--workload small_ops --seed 7 --seconds 10 --trace 0");
        assert_eq!(a.get("workload"), Some("small_ops"));
        assert_eq!(a.number::<u64>("seed"), Ok(Some(7)));
        assert!(!a.flag("trace"));
        assert!(args("--workload x --trace 1").flag("trace"));
        assert!(args("--trace --smoke").flag("trace"));
        assert!(args("--trace --smoke").flag("smoke"));
        assert!(args("--seed x").number::<u64>("seed").is_err());
        assert!(Args::parse(["oops".to_string()].into_iter()).is_err());
    }

    #[test]
    fn warm_up_is_a_quarter_window_capped() {
        let plan = |secs: f64| Plan {
            seed: 1,
            reps: 1,
            window: Duration::from_secs_f64(secs),
            out_dir: PathBuf::new(),
        };
        assert_eq!(plan(1.0).warmup(), Duration::from_millis(250));
        assert_eq!(plan(4.0).warmup(), MAX_WARMUP);
    }
}
