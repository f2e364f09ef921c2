//! `serve-mixed`: the multi-tenant launch service under a queued backlog.
//!
//! Each round starts a paused `LaunchService` (2 devices, 2 workers, one
//! block thread per unit, warm-plan cache, batches of up to 8), lets four
//! tenants submit their whole seeded 70/30 micro/ideal backlog, then
//! resumes and shuts down. Starting paused keeps the submitting thread
//! from competing with the workers. A round's time runs from the first
//! submit to the returned `ServiceReport`, so it includes the fold. A
//! job's result reaches its tenant in that report, so a job's latency runs
//! from its own submit call to the report.

use std::time::Instant;

use omp_kernels::plangen::SimRng;
use omp_serve::{JobKind, JobSpec, LaunchService, ServiceConfig, ServiceReport};

use crate::metrics::{Outcome, Shares};
use crate::util::{median_ns, ns_since, timed, Reps, Samples};
use crate::{RunCfg, Scale};

const TENANTS: usize = 4;

/// The seeded backlog: per tenant, its jobs in submission order.
fn backlog(seed: u64, jobs_per_tenant: usize) -> Vec<Vec<JobSpec>> {
    let mut rng = SimRng::seed_from_u64(seed);
    (0..TENANTS)
        .map(|_| {
            let mut arrival = 0u64;
            let mut micro_rows = 1;
            (0..jobs_per_tenant)
                .map(|i| {
                    // Same-shape micro runs of 96, so coalescing is bounded
                    // by `batch_max` and by interleaved ideal jobs.
                    if i % 96 == 0 {
                        micro_rows = rng.range_usize(1, 3);
                    }
                    arrival += rng.range_u64(1, 49);
                    let kind = if rng.range_u32(0, 10) < 7 {
                        JobKind::Micro { rows: micro_rows, inner: 4 }
                    } else {
                        JobKind::Ideal {
                            teams: 1,
                            threads: 32,
                            simdlen: 8,
                            outer: rng.range_usize(1, 4),
                            seed: rng.next_u64(),
                        }
                    };
                    JobSpec { kind, arrival_vt: arrival, affinity: None }
                })
                .collect()
        })
        .collect()
}

/// Service workers of the timed rounds.
const WORKERS: usize = 2;

fn config(workers: usize, verify: bool, cap: usize) -> ServiceConfig {
    ServiceConfig {
        devices: 2,
        workers,
        tenant_queue_cap: cap,
        warm_cache: true,
        batch_max: 8,
        start_paused: true,
        sim_threads: Some(1),
        verify,
        ..ServiceConfig::default()
    }
}

/// `ServiceReport::digest` without the host-reference errors, which only a
/// verifying service records.
fn digest_without_errors(mut r: ServiceReport) -> u64 {
    for j in &mut r.jobs {
        j.max_abs_err = None;
    }
    r.digest()
}

/// What one round measured.
struct Round {
    setup_ns: u64,
    submit_ns: u64,
    round_ns: u64,
    drain_ns: u64,
    fold_ns: u64,
    /// Plan-cache hits and misses, launches, rejections, steals.
    hits: u64,
    misses: u64,
    launches: u64,
    rejected: u64,
    steals: u64,
}

/// One timed round; its report must fold to the digest `want`. Each
/// submit call's time goes to `submits`, each job's latency (submit call
/// to report) to `latencies`.
fn round(
    seed: u64,
    jobs_per_tenant: usize,
    traced: bool,
    want: u64,
    submits: &mut Vec<u64>,
    latencies: &mut Vec<u64>,
    o: &mut Outcome,
) -> Round {
    let ((specs, svc, clients), setup_ns) = timed(|| {
        let specs = backlog(seed, jobs_per_tenant);
        let svc = LaunchService::start(config(WORKERS, false, jobs_per_tenant));
        let clients: Vec<_> = (0..TENANTS).map(|t| svc.client(&format!("tenant-{t}"))).collect();
        (specs, svc, clients)
    });
    submits.reserve(TENANTS * jobs_per_tenant);
    // Each job's submit time, as an offset from the round's start.
    let mut submitted_at = Vec::with_capacity(TENANTS * jobs_per_tenant);
    let mut submit_ns = 0;
    let t0 = Instant::now();
    for i in 0..jobs_per_tenant {
        for (c, jobs) in clients.iter().zip(&specs) {
            let s = Instant::now();
            let ok = c.submit(&jobs[i]).is_ok();
            let ns = ns_since(s);
            submitted_at.push(s.duration_since(t0).as_nanos() as u64);
            submits.push(ns);
            submit_ns += ns;
            if !ok {
                o.op(false);
            }
        }
    }
    let (drain_ns, fold_ns, report);
    if traced {
        let ((), d) = timed(|| {
            svc.resume();
            svc.quiesce();
        });
        let (r, f) = timed(|| svc.shutdown());
        (drain_ns, fold_ns, report) = (d, f, r);
    } else {
        svc.resume();
        (drain_ns, fold_ns, report) = (0, 0, svc.shutdown());
    }
    let round_ns = ns_since(t0);
    latencies.extend(submitted_at.iter().map(|&at| round_ns - at));
    let ok = report.jobs.len() == TENANTS * jobs_per_tenant
        && report.rejected == 0
        && report.digest() == want;
    if !ok {
        eprintln!("perfbench: serve round folded to a different report");
    }
    // One checked op per job.
    let jobs = report.jobs.len().max(TENANTS * jobs_per_tenant) as u64;
    o.attempted += jobs;
    if !ok {
        o.failed += jobs;
    }
    Round {
        setup_ns,
        submit_ns,
        round_ns,
        drain_ns,
        fold_ns,
        hits: report.plan_hits,
        misses: report.plan_misses,
        launches: report.launches,
        rejected: report.rejected,
        steals: report.steals,
    }
}

/// Run `serve-mixed`.
pub fn run(cfg: &RunCfg) -> Outcome {
    let mut o = Outcome::new();
    let jobs_per_tenant = match cfg.scale {
        Scale::Full => 25_000,
        Scale::Tiny => 500,
    };
    let total = (TENANTS * jobs_per_tenant) as u64;

    // Reference: the same backlog on one worker, verified against the
    // host references; every timed round must fold to its digest.
    let specs = backlog(cfg.seed, jobs_per_tenant);
    let svc = LaunchService::start(config(1, true, jobs_per_tenant));
    let clients: Vec<_> = (0..TENANTS).map(|t| svc.client(&format!("tenant-{t}"))).collect();
    let mut admitted = 0u64;
    for i in 0..jobs_per_tenant {
        for (c, jobs) in clients.iter().zip(&specs) {
            admitted += c.submit(&jobs[i]).is_ok() as u64;
        }
    }
    svc.resume();
    let reference = svc.shutdown();
    o.check("reference: every job admitted", admitted == total && reference.rejected == 0);
    o.check(
        "reference: every job matches its host reference",
        reference.jobs.len() as u64 == total
            && reference.jobs.iter().all(|j| j.max_abs_err.is_some_and(|e| e <= 1e-12)),
    );
    let makespan = reference.timeline.makespan;
    let want = digest_without_errors(reference);

    let secs = if cfg.trace { cfg.seconds / 2.0 } else { cfg.seconds };
    // A repetition is one round: its jobs per second of round time, and
    // its job latencies.
    let window = |traced: bool, o: &mut Outcome| {
        let (mut rounds, mut reps) = (Vec::new(), Reps::default());
        let (mut submit_ns, mut submits, mut latencies) =
            (Vec::new(), Samples::default(), Vec::new());
        let t0 = Instant::now();
        while rounds.len() < 3 || t0.elapsed().as_secs_f64() < secs {
            let r =
                round(cfg.seed, jobs_per_tenant, traced, want, &mut submit_ns, &mut latencies, o);
            submit_ns.drain(..).for_each(|ns| submits.push(ns));
            reps.push(total, r.round_ns, &mut latencies);
            rounds.push(r);
        }
        (rounds, reps, submits)
    };
    let (plain, plain_reps, _) = window(false, &mut o);
    if !cfg.trace {
        let v = &mut o.values;
        v.set("ops_per_s", plain_reps.rate());
        v.set("op_us.p50", plain_reps.p50_us());
        v.set("op_us.p99", plain_reps.p99_us());
        let setup: Vec<u64> = plain.iter().map(|r| r.setup_ns).collect();
        v.set("setup_s", median_ns(&setup, 1e9));
    } else {
        let (traced, traced_reps, submits) = window(true, &mut o);
        let v = &mut o.values;
        v.set("serve.submit_us", submits.median(1e3));
        let col = |f: fn(&Round) -> u64| traced.iter().map(f).collect::<Vec<u64>>();
        v.set("serve.drain_ms", median_ns(&col(|r| r.drain_ns), 1e6));
        v.set("serve.fold_ms", median_ns(&col(|r| r.fold_ns), 1e6));
        let sum = |f: fn(&Round) -> u64| traced.iter().map(f).sum::<u64>();
        let (hits, misses) = (sum(|r| r.hits), sum(|r| r.misses));
        let launches = sum(|r| r.launches).max(1) as f64;
        v.set("serve.rejected", sum(|r| r.rejected) as f64);
        v.set("serve.plan_hit_ratio", hits as f64 / (hits + misses).max(1) as f64);
        v.set("serve.jobs_per_launch", (total * traced.len() as u64) as f64 / launches);
        v.set("serve.steals_per_launch", sum(|r| r.steals) as f64 / launches);
        let shares = Shares {
            submit: sum(|r| r.submit_ns),
            drain: sum(|r| r.drain_ns),
            fold: sum(|r| r.fold_ns),
            ..Shares::default()
        };
        shares.emit(sum(|r| r.round_ns), v);
        v.set("trace.overhead_pct", 100.0 * (plain_reps.rate() / traced_reps.rate() - 1.0));
        v.set("sim.cycles", makespan as f64);
    }
    o.simulated.push(("report_digest", want));
    o.simulated.push(("makespan_cycles", makespan));
    o.threads = WORKERS;
    o.reps = plain.len();
    o.spread = plain_reps.spread();
    o
}
