//! Outside-in tracing of one kernel launch.
//!
//! [`traced_run`] performs what `CompiledKernel::run` does on the
//! production path — the simtlint gate, the cached flat-bytecode lookup,
//! then `Device::launch` with `run_flat_block` as the block entry — but
//! through the public calls one at a time, with the block entry wrapped so
//! each block's start and end are stamped. That splits a launch into
//! fan-out (launch call to first block start), block span, and merge (last
//! block end to return) without touching the program. Callers assert that
//! the traced launch's `LaunchStats` equal the untraced ones.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use gpu_sim::{Device, LaunchStats, Slot};
use omp_codegen::{run_flat_block, CompiledKernel};

use crate::metrics::Shares;
use crate::util::{ns_since, timed};

/// Host-time split of one traced launch, in nanoseconds.
#[derive(Clone, Copy, Default)]
pub struct LaunchSplit {
    pub lint: u64,
    pub flat_lookup: u64,
    pub fanout: u64,
    pub span: u64,
    pub merge: u64,
    /// Sum of every block's own duration (CPU time if no block thread was
    /// descheduled).
    pub block_cpu: u64,
}

impl LaunchSplit {
    /// Add this launch to a traced window's layer buckets.
    pub fn add_to(&self, s: &mut Shares) {
        s.lint += self.lint;
        s.lower_verify += self.flat_lookup;
        s.fanout += self.fanout;
        s.blocks += self.span;
        s.merge += self.merge;
    }
}

/// The lint-gated launch of `CompiledKernel::run`, timed layer by layer.
/// Returns `Err` where `run` would panic (lint error or launch error).
pub fn traced_run(
    dev: &mut Device,
    k: &CompiledKernel,
    args: &[Slot],
) -> Result<(LaunchStats, LaunchSplit), String> {
    let (report, lint) = timed(|| k.lint(&dev.arch, args.len()));
    if report.has_errors() {
        return Err(report.render("kernel"));
    }
    let (prog, flat_lookup) = timed(|| k.flat_program(&dev.arch, args.len()));
    let lcfg = k.config.launch_config(&dev.arch);
    let n = lcfg.num_blocks as usize;
    let starts: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let ends: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let base = Instant::now();
    let stats = dev
        .launch(&lcfg, |tc| {
            let b = tc.block_id as usize;
            starts[b].store(ns_since(base), Ordering::Relaxed);
            run_flat_block(tc, &k.config, &prog, &k.registry, args);
            ends[b].store(ns_since(base), Ordering::Relaxed);
        })
        .map_err(|e| e.to_string())?;
    let ret = ns_since(base);
    // Relaxed suffices: the block threads are joined inside `launch`,
    // which orders their stores before these loads.
    let first = starts.iter().map(|s| s.load(Ordering::Relaxed)).min().unwrap_or(0);
    let last = ends.iter().map(|e| e.load(Ordering::Relaxed)).max().unwrap_or(0);
    let block_cpu = starts
        .iter()
        .zip(&ends)
        .map(|(s, e)| e.load(Ordering::Relaxed) - s.load(Ordering::Relaxed))
        .sum();
    let split = LaunchSplit {
        lint,
        flat_lookup,
        fanout: first,
        span: last - first,
        merge: ret - last,
        block_cpu,
    };
    Ok((stats, split))
}
