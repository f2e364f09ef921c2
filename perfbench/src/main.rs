//! perfbench — host-time benchmark of the simt-omp simulator.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scale full|tiny]
//! ```
//!
//! Runs one workload against the workspace's public APIs, checks every
//! output, and prints one JSON record as its last line of standard output:
//! the metric values (end-to-end with `--trace 0`, per-layer with
//! `--trace 1`), the attempted and failed operation counts, the named
//! checks, the pinned simulated statistics (simulated and unvalidated: the
//! repository holds no hardware reference) and the host environment.
//! `run.py` builds this binary and turns the record into the benchmark's
//! result line. See `README.md` for the workloads and metrics.

mod fig9;
mod metrics;
mod plans;
mod serve;
mod tracer;
mod util;

use metrics::{Outcome, END_TO_END, PER_LAYER};
use util::Json;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["fig9-sweep", "serve-mixed", "plan-compile"];

/// Problem sizes: the benchmark's own, or a tiny set for the smoke test.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// One run's parameters.
pub struct RunCfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--scale full|tiny]",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> (String, RunCfg) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut cfg = RunCfg { seed: 0, seconds: 10.0, trace: false, scale: Scale::Full };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => cfg.seed = val.parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                cfg.seconds = val.parse().unwrap_or_else(|_| usage("bad --seconds"));
                if !(cfg.seconds.is_finite() && cfg.seconds > 0.0) {
                    usage("--seconds must be positive");
                }
            }
            "--trace" => {
                cfg.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--scale" => {
                cfg.scale = match val.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => usage("--scale takes full or tiny"),
                }
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload}"));
    }
    (workload, cfg)
}

fn main() {
    let (workload, cfg) = parse_args();
    let ticks0 = util::cpu_ticks();
    let mut o: Outcome = match workload.as_str() {
        "fig9-sweep" => fig9::run(&cfg),
        "serve-mixed" => serve::run(&cfg),
        "plan-compile" => plans::run(&cfg),
        _ => unreachable!("workload names are validated"),
    };
    if !cfg.trace {
        o.values.set("peak_rss_mb", util::peak_rss_mb());
    }
    let catalogue = if cfg.trace { PER_LAYER } else { END_TO_END };
    let metrics = o
        .values
        .in_order(catalogue)
        .into_iter()
        .map(|(name, value, unit)| {
            (
                name.to_string(),
                Json::obj(vec![("value", Json::Num(value)), ("unit", Json::Str(unit.into()))]),
            )
        })
        .collect();
    let correct = o.failed == 0 && o.attempted > 0 && o.checks.iter().all(|(_, ok)| *ok);
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let steal_pct = match (ticks0, util::cpu_ticks()) {
        (Some((t0, s0)), Some((t1, s1))) if t1 > t0 => 100.0 * (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    };
    let record = Json::obj(vec![
        ("workload", Json::Str(workload)),
        ("seed", Json::Int(cfg.seed)),
        ("trace", Json::Int(cfg.trace as u64)),
        ("seconds", Json::Num(cfg.seconds)),
        ("scale", Json::Str(if cfg.scale == Scale::Full { "full" } else { "tiny" }.into())),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(o.attempted)),
        ("failed", Json::Int(o.failed)),
        ("metrics", Json::Obj(metrics)),
        (
            "checks",
            Json::Obj(o.checks.into_iter().map(|(name, ok)| (name, Json::Bool(ok))).collect()),
        ),
        (
            "simulated_unvalidated",
            Json::Obj(
                o.simulated.into_iter().map(|(k, v)| (k.to_string(), Json::Int(v))).collect(),
            ),
        ),
        (
            "env",
            Json::obj(vec![
                ("host_cores", Json::Int(host_cores as u64)),
                ("threads", Json::Int(o.threads as u64)),
                ("reps", Json::Int(o.reps as u64)),
                ("throughput_rel_iqr", Json::Num(o.spread)),
                ("host_steal_pct", Json::Num(steal_pct)),
            ]),
        ),
    ]);
    let mut line = String::new();
    record.render(&mut line);
    println!("{line}");
}
