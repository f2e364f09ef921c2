//! The benchmark's metric catalogue and the per-run result a workload
//! hands back.
//!
//! Every workload prints every metric of the mode it ran in (end-to-end
//! untraced, per-layer traced), so the catalogue is one fixed list. A
//! per-layer metric of a layer a workload never calls reads 0 there.

use std::collections::HashMap;

/// End-to-end metrics, printed by an untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("op_us.p50", "us"),
    ("op_us.p99", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by a traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    // omp_codegen
    ("codegen.build_us", "us"),
    ("codegen.lint_us", "us"),
    ("codegen.lower_verify_us", "us"),
    ("codegen.plan_hash_us", "us"),
    // gpu_sim
    ("gpu_sim.launches", "count"),
    ("gpu_sim.sim_issue_per_s", "1/s"),
    ("gpu_sim.fanout_us", "us"),
    ("gpu_sim.block_span_ms", "ms"),
    ("gpu_sim.block_cpu_ms", "ms"),
    ("gpu_sim.merge_ms", "ms"),
    ("gpu_sim.block_ns_per_issue", "ns"),
    ("gpu_sim.block_cpu_inflation", "ratio"),
    // omp_kernels host I/O
    ("kernels.upload_ms", "ms"),
    ("kernels.readback_us", "us"),
    // omp_serve
    ("serve.submit_us", "us"),
    ("serve.rejected", "count"),
    ("serve.drain_ms", "ms"),
    ("serve.fold_ms", "ms"),
    ("serve.plan_hit_ratio", "ratio"),
    ("serve.jobs_per_launch", "ratio"),
    ("serve.steals_per_launch", "ratio"),
    // Share of the traced operations' wall time spent in each layer call;
    // the rest is timer overhead and work between the calls.
    ("share.codegen.build_pct", "%"),
    ("share.codegen.lint_pct", "%"),
    ("share.codegen.lower_verify_pct", "%"),
    ("share.codegen.plan_hash_pct", "%"),
    ("share.gpu_sim.fanout_pct", "%"),
    ("share.gpu_sim.blocks_pct", "%"),
    ("share.gpu_sim.merge_pct", "%"),
    ("share.kernels.io_pct", "%"),
    ("share.serve.submit_pct", "%"),
    ("share.serve.drain_pct", "%"),
    ("share.serve.fold_pct", "%"),
    ("share.unaccounted_pct", "%"),
    // The cost of the tracing itself, and the model's own output.
    ("trace.overhead_pct", "%"),
    ("sim.cycles", "sim_cycles"),
];

/// Host nanoseconds traced operations spent inside each layer call. The
/// buckets are disjoint; the rest of the operations' wall time is timer
/// overhead and work between the calls (`share.unaccounted_pct`).
#[derive(Default)]
pub struct Shares {
    pub build: u64,
    pub lint: u64,
    pub lower_verify: u64,
    pub plan_hash: u64,
    pub fanout: u64,
    pub blocks: u64,
    pub merge: u64,
    pub io: u64,
    pub submit: u64,
    pub drain: u64,
    pub fold: u64,
}

impl Shares {
    /// Record the share metrics against the operations' wall time `op_ns`.
    pub fn emit(&self, op_ns: u64, out: &mut Values) {
        let pct = |ns: u64| if op_ns == 0 { 0.0 } else { 100.0 * ns as f64 / op_ns as f64 };
        let buckets = [
            ("share.codegen.build_pct", self.build),
            ("share.codegen.lint_pct", self.lint),
            ("share.codegen.lower_verify_pct", self.lower_verify),
            ("share.codegen.plan_hash_pct", self.plan_hash),
            ("share.gpu_sim.fanout_pct", self.fanout),
            ("share.gpu_sim.blocks_pct", self.blocks),
            ("share.gpu_sim.merge_pct", self.merge),
            ("share.kernels.io_pct", self.io),
            ("share.serve.submit_pct", self.submit),
            ("share.serve.drain_pct", self.drain),
            ("share.serve.fold_pct", self.fold),
        ];
        let mut accounted = 0.0;
        for (name, ns) in buckets {
            accounted += pct(ns);
            out.set(name, pct(ns));
        }
        out.set("share.unaccounted_pct", 100.0 - accounted);
    }
}

/// Named metric values a workload measured.
#[derive(Default)]
pub struct Values(HashMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.0.insert(name, v);
    }

    /// The catalogue's metrics in catalogue order; unset ones read 0.
    /// Panics on a value whose name the catalogue lacks (a typo would
    /// otherwise silently report 0).
    pub fn in_order(
        &self,
        catalogue: &[(&'static str, &'static str)],
    ) -> Vec<(&'static str, f64, &'static str)> {
        for name in self.0.keys() {
            assert!(
                catalogue.iter().any(|(n, _)| n == name),
                "metric {name} is not in the catalogue"
            );
        }
        catalogue.iter().map(|&(n, u)| (n, self.0.get(n).copied().unwrap_or(0.0), u)).collect()
    }
}

/// What one run of a workload produced.
pub struct Outcome {
    /// Operations attempted (launches, jobs, plans) plus output checks.
    pub attempted: u64,
    /// Operations whose output was wrong or that were refused.
    pub failed: u64,
    /// Named correctness checks and whether each held.
    pub checks: Vec<(String, bool)>,
    /// Metric values of the mode the run was in.
    pub values: Values,
    /// Measured repetitions (passes or rounds) behind the medians.
    pub reps: usize,
    /// Inter-quartile range over median of the per-repetition throughput.
    pub spread: f64,
    /// Host threads the measured operations keep busy: block threads,
    /// service workers or plan workers.
    pub threads: usize,
    /// Simulated statistics the run pinned (simulated, unvalidated): a
    /// digest and totals that must repeat for a seed.
    pub simulated: Vec<(&'static str, u64)>,
}

impl Outcome {
    pub fn new() -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            checks: Vec::new(),
            values: Values::default(),
            reps: 0,
            spread: 0.0,
            threads: 1,
            simulated: Vec::new(),
        }
    }

    /// Count one checked operation; a failed check also fails the run.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Record a named run-level check (counted as one attempted op).
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        let name = name.into();
        if !ok {
            eprintln!("perfbench: check failed: {name}");
        }
        self.op(ok);
        self.checks.push((name, ok));
    }
}
