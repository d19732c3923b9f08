//! `perfbench`: the fastbuf benchmark described by `BENCHMARK.json`.
//!
//! ```text
//! perfbench --workload <paper_b64|served_solve|served_eco|design_flow|all>
//!           [--seed N] [--seconds S] [--trace 0|1] [--tiny]
//! ```
//!
//! Each run builds its inputs from `--seed`, sets up several times (the
//! median is `setup_s`), measures closed-loop ops for `--seconds`, checks
//! every output, and prints one JSON object as its last line:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the run is split
//! into an untraced and a traced half and the metrics are the per-layer
//! ones (see `trace.rs` and `WORKLOADS.md`). `--workload all` runs every
//! workload in its own child process and prints each metric by name.
//! `--tiny` shrinks every input for the self-check.

mod flow;
mod layers;
mod measure;
mod paper;
mod served;
mod trace;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use layers::Metrics;

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = ["paper_b64", "served_solve", "served_eco", "design_flow"];

/// End-to-end metrics (`--trace 0`) and their units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Parameters every workload receives.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Workload seed; every input derives from it.
    pub seed: u64,
    /// Shrink inputs to self-check size.
    pub tiny: bool,
}

impl Params {
    /// A seed for one input stream of this run, decorrelated from the
    /// workload seed and from the other streams (SplitMix64).
    pub fn stream(&self, salt: u64) -> u64 {
        let mut z = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(salt.wrapping_mul(0xD1B5_4A32_D192_ED69));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// What an untraced run measured.
#[derive(Debug, Default)]
pub struct Run {
    /// Seconds taken by each set-up.
    pub setup_s: Vec<f64>,
    /// Wall time of the timed window.
    pub wall: Duration,
    /// Process on-CPU time during the timed window.
    pub cpu: Duration,
    /// Ops attempted in the timed window.
    pub ops: u64,
    /// Ops whose output failed a check (or that errored).
    pub failed: u64,
    /// Per-op latency.
    pub latency_ms: Vec<measure::Sample>,
    /// On `served_eco`, the latency of each request kind apart:
    /// `("read", solves)` and `("write", ecos)`.
    pub by_kind: Vec<(&'static str, Vec<measure::Sample>)>,
    /// Once-per-run output checks: `(what, passed)`.
    pub checks: Vec<(&'static str, bool)>,
    /// `VmHWM` in MiB at the end of the timed window, before the
    /// once-per-run checks allocate.
    pub peak_rss_mb: f64,
}

impl Run {
    /// Runs `setup` [`SETUP_REPEATS`] times, recording each duration, and
    /// returns the last result (earlier ones are dropped as soon as the
    /// next exists).
    pub fn repeat_setup<T>(&mut self, mut setup: impl FnMut() -> T) -> T {
        let mut last = None;
        for _ in 0..SETUP_REPEATS {
            drop(last.take());
            let t = Instant::now();
            last = Some(setup());
            self.setup_s.push(t.elapsed().as_secs_f64());
        }
        last.expect("SETUP_REPEATS > 0")
    }

    /// Closes the timed window opened at `start` with `cpu`.
    pub fn end_window(&mut self, start: Instant, cpu: measure::CpuTimer) {
        self.wall = start.elapsed();
        self.cpu = cpu.elapsed();
        self.peak_rss_mb = measure::peak_rss_mb().unwrap_or(0.0);
    }

    fn end_to_end(&self) -> Metrics {
        let ops = self.ops.max(1) as f64;
        let mut m = Metrics::new();
        m.insert("setup_s", measure::median(&self.setup_s));
        m.insert("ops_per_s", self.ops as f64 / self.wall.as_secs_f64());
        let latency = |q| measure::windowed_quantile(&self.latency_ms, self.wall, q);
        m.insert("latency_ms_p50", latency(0.5));
        m.insert("latency_ms_p90", latency(0.9));
        m.insert("cpu_ms_per_op", measure::ms(self.cpu) / ops);
        m.insert("peak_rss_mb", self.peak_rss_mb);
        m
    }

    /// Workload-specific figures printed before the result line: they
    /// exist on some workloads only, so they are not `BENCHMARK.json`
    /// metrics (see `WORKLOADS.md`).
    fn extras(&self) -> Vec<(String, f64, &'static str)> {
        let mut out = vec![(
            "failed_op_share".to_owned(),
            self.failed as f64 / self.ops.max(1) as f64,
            "share",
        )];
        if self.latency_ms.len() >= 1000 {
            out.push((
                "latency_ms_p99".to_owned(),
                measure::windowed_quantile(&self.latency_ms, self.wall, 0.99),
                "ms",
            ));
        }
        for (kind, samples) in &self.by_kind {
            for (name, q) in [("p50", 0.5), ("p99", 0.99)] {
                out.push((
                    format!("{kind}_latency_ms_{name}"),
                    measure::windowed_quantile(samples, self.wall, q),
                    "ms",
                ));
            }
        }
        out
    }
}

/// What a traced run measured: per-layer metrics plus op accounting.
#[derive(Debug)]
pub struct Traced {
    /// Per-layer metrics this workload's inputs reach.
    pub metrics: Metrics,
    /// Spans of the traced half.
    pub rec: trace::Recorder,
    /// Ops attempted (both halves).
    pub attempted: u64,
    /// Ops that failed a check.
    pub failed: u64,
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1] [--tiny]",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

struct Args {
    workload: String,
    params: Params,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut params = Params {
        seed: 1,
        tiny: false,
    };
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .unwrap_or_else(|| usage(&format!("{what} needs a value")))
        };
        match arg.as_str() {
            "--workload" => workload = Some(value("--workload")),
            "--seed" => {
                params.seed = value("--seed")
                    .parse()
                    .unwrap_or_else(|_| usage("--seed must be an unsigned integer"))
            }
            "--seconds" => {
                seconds = value("--seconds")
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| usage("--seconds must be a positive number"))
            }
            "--trace" => {
                trace = match value("--trace").as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace must be 0 or 1"),
                }
            }
            "--tiny" => params.tiny = true,
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload `{workload}`"));
    }
    Args {
        workload,
        params,
        seconds,
        trace,
    }
}

fn run_untraced(name: &str, p: Params, budget: Duration) -> Run {
    match name {
        "paper_b64" => paper::run(p, budget),
        "served_solve" => served::untraced(p, budget, false),
        "served_eco" => served::untraced(p, budget, true),
        "design_flow" => flow::run(p, budget),
        _ => unreachable!("workload names are validated"),
    }
}

/// The traced run of one workload: an untraced half for the overhead
/// baseline, then a traced half.
fn run_traced(name: &str, p: Params, budget: Duration) -> Traced {
    match name {
        "paper_b64" => paper::traced(p, budget),
        "served_solve" => served::traced(p, budget, false),
        "served_eco" => served::traced(p, budget, true),
        "design_flow" => flow::traced(p, budget),
        _ => unreachable!("workload names are validated"),
    }
}

/// Prints the result line.
fn print_result(attempted: u64, failed: u64, correct: bool, metrics: &[(&str, f64, &str)]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn single(args: &Args) {
    let budget = Duration::from_secs_f64(args.seconds);
    if !args.trace {
        let run = run_untraced(&args.workload, args.params, budget);
        for (what, passed) in &run.checks {
            println!("# check {what}: {}", if *passed { "ok" } else { "FAILED" });
        }
        for (name, value, unit) in run.extras() {
            println!("# {name} = {value} {unit}");
        }
        let e2e = run.end_to_end();
        let metrics: Vec<(&str, f64, &str)> = END_TO_END
            .iter()
            .map(|&(name, unit)| (name, e2e[name], unit))
            .collect();
        let failed = run.failed + run.checks.iter().filter(|(_, ok)| !ok).count() as u64;
        let correct = failed == 0 && metrics.iter().all(|m| m.1.is_finite());
        print_result(run.ops, failed, correct, &metrics);
        return;
    }

    // Traced: this workload's own layers, then a short census of the other
    // workloads for any per-layer metric its inputs do not reach, so every
    // traced run reports the whole per-layer set.
    let Traced {
        mut metrics,
        rec,
        mut attempted,
        mut failed,
    } = run_traced(&args.workload, args.params, budget);
    let spans = PathBuf::from("perfbench/traces")
        .join(format!("{}-seed{}.jsonl", args.workload, args.params.seed));
    if let Err(e) = rec.write(&spans, 20_000) {
        eprintln!("warning: cannot write {}: {e}", spans.display());
    }
    for other in WORKLOADS.iter().filter(|w| **w != args.workload) {
        if layers::PER_LAYER
            .iter()
            .all(|(name, _)| metrics.contains_key(name))
        {
            break;
        }
        let census = run_traced(other, args.params, layers::CENSUS_BUDGET);
        attempted += census.attempted;
        failed += census.failed;
        for (name, value) in census.metrics {
            if !metrics.contains_key(name) {
                println!("# {name} measured by the {other} census");
                metrics.insert(name, value);
            }
        }
    }
    let missing: Vec<&str> = layers::PER_LAYER
        .iter()
        .map(|(name, _)| *name)
        .filter(|name| !metrics.contains_key(name))
        .collect();
    if !missing.is_empty() {
        eprintln!("error: per-layer metrics not measured: {missing:?}");
    }
    let out: Vec<(&str, f64, &str)> = layers::PER_LAYER
        .iter()
        .filter_map(|&(name, unit)| metrics.get(name).map(|v| (name, *v, unit)))
        .collect();
    let correct = failed == 0 && missing.is_empty() && out.iter().all(|m| m.1.is_finite());
    print_result(attempted.max(1), failed, correct, &out);
}

/// `--workload all`: every workload in a child process of its own, so
/// each one's set-up and peak memory are its own.
fn all(args: &Args) -> bool {
    let exe = std::env::current_exe().expect("own executable path");
    let mut ok = true;
    for workload in WORKLOADS {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", workload])
            .args(["--seed", &args.params.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.params.tiny {
            cmd.arg("--tiny");
        }
        let out = cmd.output().expect("run workload child");
        let stdout = String::from_utf8_lossy(&out.stdout);
        println!("## {workload}");
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or("");
        for line in lines {
            println!("{line}");
        }
        match fastbuf_api::wire::Json::parse(last) {
            Ok(result) => {
                let correct = result.get("correct").and_then(|c| c.as_bool()) == Some(true);
                ok &= correct && out.status.success();
                println!(
                    "correct = {correct}, attempted = {}, failed = {}",
                    result
                        .get("attempted")
                        .and_then(|v| v.as_u64())
                        .unwrap_or(0),
                    result.get("failed").and_then(|v| v.as_u64()).unwrap_or(0)
                );
                if let Some(fastbuf_api::wire::Json::Obj(metrics)) = result.get("metrics") {
                    for (name, m) in metrics {
                        println!(
                            "{name} = {} {}",
                            m.get("value").and_then(|v| v.as_f64()).unwrap_or(f64::NAN),
                            m.get("unit").and_then(|u| u.as_str()).unwrap_or("")
                        );
                    }
                }
            }
            Err(_) => {
                ok = false;
                println!(
                    "no result line; stderr:\n{}",
                    String::from_utf8_lossy(&out.stderr)
                );
            }
        }
    }
    ok
}

fn main() {
    let args = parse_args();
    // A single run reports its correctness in the result line and exits 0;
    // `all` summarises and fails when any workload did.
    if args.workload == "all" {
        std::process::exit(if all(&args) { 0 } else { 1 });
    }
    single(&args);
}
