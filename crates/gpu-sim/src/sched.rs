//! Block→SM scheduling and the kernel makespan model.
//!
//! Blocks execute functionally one at a time (determinism), producing
//! per-block resource profiles. The *time* a launch takes is then computed
//! analytically:
//!
//! 1. **Occupancy**: resident blocks per SM is limited by the architecture's
//!    block/thread/shared-memory capacities. The extra team-main warp of
//!    generic mode (paper Fig 2) and the enlarged variable-sharing space
//!    (§5.3.1) both reduce occupancy through this calculation.
//! 2. **Waves**: blocks are assigned to SMs round-robin; each SM processes
//!    its blocks in waves of its residency limit. A wave takes
//!    `max(latency, issue-throughput, memory-throughput)` — resident blocks
//!    hide each other's latency until a throughput roof binds.
//! 3. **Device roof**: total DRAM traffic is bounded by device bandwidth.

use std::sync::atomic::{AtomicU32, Ordering};

use crate::arch::DeviceArch;
use crate::cost::CostModel;
use crate::mem::hier::{self, MemModel};
use crate::stats::BlockProfile;

/// Environment variable selecting how many host threads execute blocks.
/// `1` forces the serial path; unset or `0` means available parallelism.
pub const SIM_THREADS_ENV: &str = "SIMT_SIM_THREADS";

/// Resolve the block-execution thread count: an explicit per-device
/// override wins, then [`SIM_THREADS_ENV`], then the host's available
/// parallelism (both read once, see [`crate::env::SimEnv`]). Always ≥ 1.
pub fn resolve_threads(override_threads: Option<usize>) -> usize {
    match override_threads {
        Some(n) => n.max(1),
        None => crate::env::SimEnv::get().sim_threads,
    }
}

/// Execute `f(block_id)` for every block id in `0..num_blocks` on up to
/// `threads` host threads (the caller plus helpers spawned for this
/// launch, joined before return) and hand back the results **sorted by
/// block id** — callers merge them in block-index order, which is what
/// keeps parallel launches bit-identical to serial ones.
///
/// Blocks are claimed from a shared atomic counter, so imbalanced blocks
/// don't idle workers. With `threads <= 1` (or a single block) everything
/// runs inline on the caller's thread: exactly today's serial path, no pool
/// at all. A panic in any block is re-raised on the caller.
pub fn run_blocks<R, F>(num_blocks: u32, threads: usize, f: F) -> Vec<(u32, R)>
where
    R: Send,
    F: Fn(u32) -> R + Sync,
{
    if threads <= 1 || num_blocks <= 1 {
        return (0..num_blocks).map(|b| (b, f(b))).collect();
    }
    let workers = threads.min(num_blocks as usize);
    let next = AtomicU32::new(0);
    let claim = || {
        let mut local = Vec::new();
        loop {
            let b = next.fetch_add(1, Ordering::Relaxed);
            if b >= num_blocks {
                break;
            }
            local.push((b, f(b)));
        }
        local
    };
    let mut out: Vec<(u32, R)> = Vec::with_capacity(num_blocks as usize);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..workers).map(|_| scope.spawn(claim)).collect();
        out.extend(claim());
        for h in handles {
            match h.join() {
                Ok(local) => out.extend(local),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    out.sort_by_key(|&(b, _)| b);
    out
}

/// How many blocks of the given shape can be resident on one SM.
/// Returns 0 when a single block exceeds a per-SM capacity (launch error).
pub fn blocks_per_sm(arch: &DeviceArch, threads_per_block: u32, smem_bytes: u32) -> u32 {
    if threads_per_block == 0 {
        return 0;
    }
    let by_threads = arch.max_threads_per_sm / threads_per_block;
    let by_smem = (arch.smem_per_sm).checked_div(smem_bytes).unwrap_or(arch.max_blocks_per_sm);
    by_threads.min(by_smem).min(arch.max_blocks_per_sm)
}

/// Makespan result: the device cycles plus the hierarchical model's
/// MLP-stall attribution (always 0 under the flat model).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Makespan {
    /// Device cycles, excluding launch overhead.
    pub cycles: u64,
    /// Cycles the DRAM roof grew beyond peak-bandwidth time because the
    /// launch's memory-level parallelism could not cover the latency.
    pub mlp_stalls: u64,
}

/// Compute the flat-model device makespan (in cycles, excluding launch
/// overhead) for a set of executed blocks. Kept as the legacy entry point;
/// [`makespan_model`] selects between this and the hierarchical model.
pub fn makespan(
    arch: &DeviceArch,
    cost: &CostModel,
    profiles: &[BlockProfile],
    resident_per_sm: u32,
) -> u64 {
    makespan_model(arch, cost, MemModel::Flat, profiles, resident_per_sm).cycles
}

/// Compute the device makespan under the selected memory model.
///
/// Both models consume the same per-block counters (the charge path is
/// identical — DESIGN §15); they differ in how counters combine:
///
/// * **Flat**: per-wave `max(latency, issue/width, sectors × cycle)` with
///   device-wide aggregate L2/DRAM roofs. Every transaction-replay cycle
///   stays inside `issue` and `cycles`, so baselines with heavy temporal
///   reuse pay L1-hit replays on the issue pipe — the documented
///   su3_bench overshoot.
/// * **Hier**: full-line L1-hit replays (`l1_hits × line_cycles`) retire
///   through a per-SM LSU pipe at L1 bandwidth; the issue and latency
///   terms are net of them. Partial fills and misses keep their replay
///   cycles on the issue path (MSHR allocation serializes them in either
///   model), so kernels without temporal reuse see the flat per-SM wave
///   unchanged. The L2 roof is per bank slice and the DRAM roof is capped
///   by the launch's memory-level parallelism.
pub fn makespan_model(
    arch: &DeviceArch,
    cost: &CostModel,
    model: MemModel,
    profiles: &[BlockProfile],
    resident_per_sm: u32,
) -> Makespan {
    assert!(resident_per_sm >= 1, "occupancy must allow at least one block");
    if profiles.is_empty() {
        return Makespan::default();
    }
    let geom = &arch.cache;
    let nsms = arch.num_sms as usize;
    // Round-robin assignment of blocks to SMs.
    let mut sm_time = vec![0u64; nsms];
    let mut per_sm: Vec<Vec<&BlockProfile>> = vec![Vec::new(); nsms];
    for (i, p) in profiles.iter().enumerate() {
        per_sm[i % nsms].push(p);
    }
    for (sm, blocks) in per_sm.iter().enumerate() {
        let mut t = 0u64;
        for wave in blocks.chunks(resident_per_sm as usize) {
            let w = match model {
                MemModel::Flat => {
                    let latency = wave.iter().map(|b| b.cycles).max().unwrap_or(0);
                    let issue: u64 = wave.iter().map(|b| b.issue).sum();
                    let sectors: u64 = wave.iter().map(|b| b.sectors).sum();
                    // Round up: a trailing partial issue group still costs
                    // a cycle.
                    let issue_time = issue.div_ceil(cost.sm_issue_width.max(1));
                    let mem_time = sectors * cost.sm_sector_cycles;
                    let mut w = latency.max(issue_time).max(mem_time);
                    // Compute and memory pipelines overlap imperfectly.
                    if let Some(extra) = issue_time.min(mem_time).checked_div(cost.overlap_denom) {
                        w += extra;
                    }
                    w
                }
                MemModel::Hier => {
                    // Latency and issue net of the L1-hit replay cycles
                    // that retire in the LSU pipe below, overlapped with
                    // issue. Misses (and one sector beat per partial-line
                    // hit) stay on the issue path exactly as in the flat
                    // wave.
                    let latency = wave.iter().map(|b| b.resid_cycles).max().unwrap_or(0);
                    let issue: u64 = wave.iter().map(|b| b.issue.saturating_sub(b.tx_cycles)).sum();
                    let full_hits: u64 = wave.iter().map(|b| b.l1_full_hits).sum();
                    let sectors: u64 = wave.iter().map(|b| b.sectors).sum();
                    let issue_time = issue.div_ceil(cost.sm_issue_width.max(1));
                    // The LSU's line port replays full-line hits at L1
                    // bandwidth; its sector port drains L1-missing sectors
                    // exactly as in the flat wave. Partial-line hit replays
                    // cost their retained sector beat on the issue path and
                    // their fill bandwidth at the DRAM burst roof — they
                    // occupy no extra LSU throughput.
                    let mem_time = full_hits
                        .div_ceil(geom.lsu_hit_lines_per_cycle.max(1))
                        .max(sectors * cost.sm_sector_cycles);
                    let mut w = latency.max(issue_time).max(mem_time);
                    if let Some(extra) = issue_time.min(mem_time).checked_div(cost.overlap_denom) {
                        w += extra;
                    }
                    w
                }
            };
            t += w;
        }
        sm_time[sm] = t;
    }
    let device_time = sm_time.into_iter().max().unwrap_or(0);
    // Device-wide roofs: all L1-miss traffic crosses the L2; only
    // first-touch (compulsory) traffic crosses DRAM.
    let total_sectors: u64 = profiles.iter().map(|b| b.sectors).sum();
    let total_dram: u64 = profiles.iter().map(|b| b.dram_sectors).sum();
    match model {
        MemModel::Flat => {
            // Round up: a final partial beat of sectors occupies a full
            // cycle.
            let l2_time = total_sectors.div_ceil(cost.l2_sectors_per_cycle.max(1));
            let dram_time = total_dram.div_ceil(cost.dram_sectors_per_cycle.max(1));
            Makespan { cycles: device_time.max(l2_time).max(dram_time), mlp_stalls: 0 }
        }
        MemModel::Hier => {
            // Slowest L2 bank slice (block-index-order fold keeps the
            // totals deterministic).
            let nbanks = geom.l2_banks.max(1) as usize;
            let mut banks = vec![0u64; nbanks];
            for p in profiles {
                for (acc, &b) in banks.iter_mut().zip(&p.l2_bank_sectors) {
                    *acc += b;
                }
            }
            let l2_time = hier::l2_bank_time(&banks, geom);
            // Outstanding DRAM sectors the launch can sustain: resident
            // warps across the SMs it actually occupies.
            let warps_per_block =
                profiles.iter().map(|p| arch.warps_for(p.threads)).max().unwrap_or(1).max(1);
            let sms_used = (profiles.len() as u64).min(nsms as u64).max(1);
            let outstanding =
                sms_used * resident_per_sm as u64 * warps_per_block as u64 * geom.mlp_per_warp;
            let total_atoms: u64 = profiles.iter().map(|b| b.dram_atoms).sum();
            let (dram_time, mlp_stalls) = hier::dram_time(
                total_dram,
                total_atoms,
                outstanding,
                cost.dram_sectors_per_cycle,
                geom,
            );
            Makespan { cycles: device_time.max(l2_time).max(dram_time), mlp_stalls }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(cycles: u64, issue: u64, sectors: u64) -> BlockProfile {
        // Fabricated profiles treat all traffic as compulsory.
        BlockProfile { cycles, issue, sectors, dram_sectors: sectors, ..Default::default() }
    }

    #[test]
    fn occupancy_limited_by_threads() {
        let a = DeviceArch::a100(); // 2048 threads/SM
        assert_eq!(blocks_per_sm(&a, 1024, 0), 2);
        assert_eq!(blocks_per_sm(&a, 256, 0), 8);
        assert_eq!(blocks_per_sm(&a, 128, 0), 16);
        // Tiny blocks hit the block-count limit.
        assert_eq!(blocks_per_sm(&a, 32, 0), 32);
    }

    #[test]
    fn occupancy_limited_by_smem() {
        let a = DeviceArch::a100(); // 164 KiB smem/SM
        assert_eq!(blocks_per_sm(&a, 128, 64 * 1024), 2);
        assert_eq!(blocks_per_sm(&a, 128, 200 * 1024), 0);
    }

    #[test]
    fn extra_warp_reduces_occupancy() {
        // A generic-mode block (threads + one extra warp) fits fewer copies
        // per SM than its SPMD twin at the boundary.
        let a = DeviceArch::a100();
        let spmd = blocks_per_sm(&a, 1024, 0);
        let generic = blocks_per_sm(&a, 1024 + 32, 0);
        assert!(generic < spmd);
    }

    #[test]
    fn single_block_latency_bound() {
        let a = DeviceArch::tiny();
        let c = CostModel::default();
        let p = vec![block(1000, 10, 0)];
        assert_eq!(makespan(&a, &c, &p, 4), 1000);
    }

    #[test]
    fn many_blocks_fill_sms() {
        let a = DeviceArch::tiny(); // 4 SMs
        let c = CostModel::default();
        // 8 identical latency-bound blocks, residency 1: two waves per SM.
        let p: Vec<_> = (0..8).map(|_| block(500, 10, 0)).collect();
        assert_eq!(makespan(&a, &c, &p, 1), 1000);
        // With residency 2 the waves overlap (latency hidden).
        assert_eq!(makespan(&a, &c, &p, 2), 500);
    }

    #[test]
    fn issue_throughput_roof_binds() {
        let a = DeviceArch::tiny();
        let c = CostModel::default(); // issue width 2
                                      // 4 blocks spread over 4 SMs (one each) with huge issue totals:
                                      // each SM's wave time is issue-bound, not latency-bound.
        let p = vec![block(10, 10_000, 0); 4];
        let t = makespan(&a, &c, &p, 4);
        assert_eq!(t, 10_000 / c.sm_issue_width);
        // 8 blocks, residency 4: two blocks per SM in one wave sum issue.
        let p8 = vec![block(10, 10_000, 0); 8];
        let t8 = makespan(&a, &c, &p8, 4);
        assert_eq!(t8, 2 * 10_000 / c.sm_issue_width);
    }

    #[test]
    fn ragged_issue_rounds_up() {
        let a = DeviceArch::tiny();
        let c = CostModel::default(); // issue width 2
                                      // The odd trailing instruction still occupies an issue cycle:
                                      // 10_001 instructions on a 2-wide SM take 5_001 cycles, not 5_000.
        let p = vec![block(1, 10_001, 0)];
        assert_eq!(makespan(&a, &c, &p, 1), 5_001);
    }

    #[test]
    fn ragged_l2_rounds_up() {
        let a = DeviceArch::tiny(); // 4 SMs
                                    // Isolate the device-wide L2 roof from the per-SM memory pipes.
        let c = CostModel { sm_sector_cycles: 0, ..Default::default() };
        let p: Vec<_> = (0..4)
            .map(|_| BlockProfile { cycles: 1, sectors: 101, ..Default::default() })
            .collect();
        // 404 sectors through an 80-sector/cycle L2 need 6 cycles, not 5.
        assert_eq!(makespan(&a, &c, &p, 1), 404u64.div_ceil(c.l2_sectors_per_cycle));
        assert_eq!(makespan(&a, &c, &p, 1), 6);
    }

    #[test]
    fn ragged_dram_rounds_up() {
        let a = DeviceArch::a100(); // 108 SMs
        let c = CostModel::default(); // 32 DRAM sectors/cycle
        let p: Vec<_> = (0..108).map(|_| block(10, 0, 1_000_001)).collect();
        // 108_000_108 compulsory sectors: the final partial beat costs a
        // full cycle (…04, not …03 as truncation used to report).
        assert_eq!(makespan(&a, &c, &p, 1), 108_000_108u64.div_ceil(32));
        assert_eq!(makespan(&a, &c, &p, 1), 3_375_004);
    }

    #[test]
    fn dram_roof_binds() {
        let a = DeviceArch::a100();
        let c = CostModel::default();
        let p: Vec<_> = (0..108).map(|_| block(10, 10, 1_000_000)).collect();
        let t = makespan(&a, &c, &p, 1);
        // Per-SM: 1M sectors × 2 cycles = 2M. DRAM: 108M sectors / 32 ≈ 3.37M.
        assert!(t > 3_000_000, "DRAM roof should dominate, got {t}");
    }

    #[test]
    fn empty_launch_is_zero() {
        let a = DeviceArch::tiny();
        let c = CostModel::default();
        assert_eq!(makespan(&a, &c, &[], 1), 0);
    }

    #[test]
    fn run_blocks_covers_every_block_in_order() {
        for threads in [1, 2, 4, 8] {
            let out = run_blocks(37, threads, |b| b * 10);
            assert_eq!(out.len(), 37, "threads={threads}");
            for (i, &(b, v)) in out.iter().enumerate() {
                assert_eq!(b, i as u32);
                assert_eq!(v, b * 10);
            }
        }
    }

    #[test]
    fn run_blocks_serial_path_stays_on_caller_thread() {
        let caller = std::thread::current().id();
        let out = run_blocks(4, 1, |b| {
            assert_eq!(std::thread::current().id(), caller);
            b
        });
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn run_blocks_empty_grid() {
        let out = run_blocks(0, 8, |b| b);
        assert!(out.is_empty());
    }

    #[test]
    fn run_blocks_propagates_panics() {
        let r = std::panic::catch_unwind(|| {
            run_blocks(8, 4, |b| {
                if b == 5 {
                    panic!("block 5 exploded");
                }
                b
            })
        });
        assert!(r.is_err());
    }

    #[test]
    fn resolve_threads_override_wins() {
        assert_eq!(resolve_threads(Some(3)), 3);
        assert_eq!(resolve_threads(Some(0)), 1);
        assert!(resolve_threads(None) >= 1);
    }
}
