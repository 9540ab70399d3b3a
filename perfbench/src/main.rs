//! The repository's benchmark: batch knowledge-base construction, O(KB)
//! ingest with follower catch-up, and reads beside writes. See README.md
//! for why each workload is here and which layers it exercises.
//!
//! Usage (normally through `perfbench/run.py`, which builds this first):
//!
//! ```text
//! deepdive-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, and the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics (`--trace 1`). The exit code is non-zero when any
//! correctness check fails.

mod batch;
mod client;
mod ingest;
mod mixed;
mod serve;
mod stats;
mod trace;

use serde_json::{json, Map, Value as Json};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// What every workload gets from the command line.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch space for WALs and checkpoints, removed when the run ends.
    pub work: PathBuf,
    pub host_cpus: usize,
}

impl Ctx {
    pub fn dir(&self, name: &str) -> PathBuf {
        self.work.join(name)
    }
}

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The end-to-end metrics of `BENCHMARK.json`, in its order. Every
/// workload reports each of them, and the untraced result line carries
/// exactly these.
pub const END_TO_END: [&str; 5] = [
    "setup_s",
    "peak_rss_mb",
    "docs_per_s",
    "op_p50_ms",
    "op_p90_ms",
];

/// The per-layer metrics of `BENCHMARK.json`: the pipeline that builds a
/// knowledge base, which every workload runs (the serve workloads for
/// their base KB). The traced result line carries exactly these.
pub const PER_LAYER: [&str; 7] = [
    "core.build_ms",
    "grounding.extract_ms",
    "grounding.ground_ms",
    "sampler.learn_ms",
    "sampler.infer_ms",
    "factorgraph.variables",
    "factorgraph.factors",
];

/// What a workload hands back: both metric sets (the flag picks which one
/// the result line carries), operation counts, correctness checks, and
/// extra reported values (sample counts, lateness, host facts, mismatches).
/// Metrics beyond the `END_TO_END` and `PER_LAYER` names are printed and
/// carried by the `report:` line, not by the result line.
#[derive(Default)]
pub struct Outcome {
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<(&'static str, Result<(), String>)>,
    pub info: Map,
    pub spans: Option<trace::Trace>,
}

impl Outcome {
    pub fn check(&mut self, name: &'static str, result: Result<(), String>) {
        self.checks.push((name, result));
    }

    pub fn note(&mut self, key: &str, value: Json) {
        self.info.insert(key.to_string(), value);
    }
}

const WORKLOADS: [&str; 3] = ["batch_spouse_2k", "ingest_kb300", "mixed_kb6"];

fn usage() -> ! {
    eprintln!(
        "usage: deepdive-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--calibrate-worker") {
        calibrate_worker(&args);
        return;
    }
    if args.first().map(String::as_str) == Some("--record-batch") {
        batch::record(args.get(1).and_then(|n| n.parse().ok()).unwrap_or(32));
        return;
    }
    let flag = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let workload = flag("--workload").unwrap_or_else(|| usage());
    let seed: u64 = flag("--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage());
    let seconds: f64 = flag("--seconds")
        .and_then(|s| s.parse().ok())
        .filter(|s: &f64| *s > 0.0)
        .unwrap_or_else(|| usage());
    let trace = match flag("--trace").as_deref() {
        Some("0") | None => false,
        Some("1") => true,
        Some(_) => usage(),
    };
    if !WORKLOADS.contains(&workload.as_str()) {
        usage();
    }

    let root = std::env::current_dir().expect("a working directory");
    let work = root
        .join(".perfbench")
        .join(format!("{workload}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).expect("create the benchmark's scratch directory");
    let ctx = Ctx {
        seed,
        seconds,
        trace,
        work: work.clone(),
        host_cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };

    let started = Instant::now();
    let cpu_before = host_cpu_ticks();
    let outcome = match workload.as_str() {
        "batch_spouse_2k" => batch::run(&ctx),
        "ingest_kb300" => ingest::run(&ctx),
        _ => mixed::run(&ctx),
    };
    let _ = std::fs::remove_dir_all(&work);
    let mut outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench {workload}: {e}");
            std::process::exit(1);
        }
    };

    outcome
        .end_to_end
        .push(metric("peak_rss_mb", peak_rss_mb(), "MiB"));
    if let Some(spans) = outcome.spans.take() {
        let dir = root.join(".perfbench").join("traces");
        let path = dir.join(format!("{workload}-seed{seed}.json"));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, spans.to_json().to_string()));
        if let Err(e) = written {
            eprintln!(
                "perfbench: could not write spans to {}: {e}",
                path.display()
            );
        }
        outcome.note("trace_file", json!(path.display().to_string()));
    }
    let steal = match (cpu_before, host_cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => json!((s1 - s0) as f64 / (t1 - t0) as f64),
        _ => Json::Null,
    };
    outcome.note("host", host_info(ctx.host_cpus));
    outcome.note("host_steal_frac", steal);
    outcome.note("run_wall_s", json!(started.elapsed().as_secs_f64()));
    report(&workload, &ctx, outcome);
}

fn report(workload: &str, ctx: &Ctx, o: Outcome) {
    let failed_frac = o.failed as f64 / o.attempted.max(1) as f64;
    println!(
        "perfbench {workload} seed={} seconds={} trace={}",
        ctx.seed, ctx.seconds, ctx.trace as u8
    );
    let print = |ms: &[Metric], manifest: &[&str]| {
        for m in ms {
            let note = if manifest.contains(&m.name) {
                ""
            } else {
                " (not in BENCHMARK.json)"
            };
            println!("    {:<34} {:>14.4} {}{note}", m.name, m.value, m.unit);
        }
    };
    println!("  end-to-end:");
    print(&o.end_to_end, &END_TO_END);
    println!(
        "    {:<34} {:>14.4} ratio ({} of {} operations)",
        "failed_frac", failed_frac, o.failed, o.attempted
    );
    if ctx.trace {
        println!("  per-layer:");
        print(&o.per_layer, &PER_LAYER);
    }
    let mut correct = true;
    println!("  checks:");
    for (name, result) in &o.checks {
        match result {
            Ok(()) => println!("    ok      {name}"),
            Err(e) => {
                correct = false;
                println!("    FAILED  {name}: {e}");
            }
        }
    }
    let as_map = |ms: &[&Metric]| -> Map {
        ms.iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    json!({"value": m.value, "unit": m.unit}),
                )
            })
            .collect()
    };
    let mut info = o.info;
    info.insert("failed_frac".into(), json!(failed_frac));
    let e2e: Vec<&Metric> = o.end_to_end.iter().collect();
    info.insert("end_to_end".into(), Json::Object(as_map(&e2e)));
    if ctx.trace {
        let layers: Vec<&Metric> = o.per_layer.iter().collect();
        info.insert("per_layer".into(), Json::Object(as_map(&layers)));
    }
    info.insert(
        "checks".into(),
        Json::Object(
            o.checks
                .iter()
                .map(|(n, r)| {
                    let v = match r {
                        Ok(()) => json!("ok"),
                        Err(e) => json!(e),
                    };
                    (n.to_string(), v)
                })
                .collect(),
        ),
    );
    println!("report: {}", Json::Object(info));
    let (metrics, manifest) = if ctx.trace {
        (&o.per_layer, &PER_LAYER[..])
    } else {
        (&o.end_to_end, &END_TO_END[..])
    };
    let mut carried = Vec::with_capacity(manifest.len());
    for name in manifest {
        match metrics.iter().find(|m| m.name == *name) {
            Some(m) => carried.push(m),
            None => {
                eprintln!("perfbench {workload}: no value for metric {name}");
                std::process::exit(1);
            }
        }
    }
    println!(
        "{}",
        json!({
            "correct": correct,
            "attempted": o.attempted,
            "failed": o.failed,
            "metrics": Json::Object(as_map(&carried)),
        })
    );
    if !correct {
        std::process::exit(1);
    }
}

/// Peak resident set (VmHWM) of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(steal, total)` jiffies of the host's aggregate `cpu` line in
/// `/proc/stat`. The share of steal over a run says how much CPU the
/// hypervisor withheld, which on a shared host is what moves timings from
/// one run to the next.
fn host_cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Host facts recorded with every result so numbers from different
/// machines are not compared blindly.
fn host_info(host_cpus: usize) -> Json {
    json!({
        "host_cpus": host_cpus,
        "git_rev": std::env::var("PERFBENCH_GIT_REV").unwrap_or_else(|_| "unknown".into()),
        "os": std::env::consts::OS,
        "arch": std::env::consts::ARCH,
        "calibration_ratio": calibration_ratio(),
    })
}

const CALIBRATION_MS: u64 = 250;

/// Aggregate CPU throughput of two concurrent CPU-bound processes over one
/// alone: about 2.0 on two idle cores, lower on a shared or throttled host.
fn calibration_ratio() -> f64 {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(_) => return 0.0,
    };
    let spawn = || {
        Command::new(&exe)
            .args(["--calibrate-worker", &CALIBRATION_MS.to_string()])
            .stdout(Stdio::piped())
            .spawn()
    };
    let rate = |child: std::io::Result<std::process::Child>| -> f64 {
        child
            .and_then(|c| c.wait_with_output())
            .ok()
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .and_then(|s| s.trim().parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    let alone = rate(spawn());
    let (a, b) = (spawn(), spawn());
    let together = rate(a) + rate(b);
    if alone > 0.0 {
        together / alone
    } else {
        0.0
    }
}

/// Child side of [`calibration_ratio`]: spin a fixed integer loop for the
/// given milliseconds and print the iterations per second.
fn calibrate_worker(args: &[String]) {
    let ms: u64 = args
        .get(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(CALIBRATION_MS);
    let deadline = Instant::now() + Duration::from_millis(ms);
    let start = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut iters: u64 = 0;
    while Instant::now() < deadline {
        for _ in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        iters += 10_000;
    }
    std::hint::black_box(x);
    println!("{}", iters as f64 / start.elapsed().as_secs_f64());
}
