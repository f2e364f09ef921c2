//! `plan-compile`: cold plans made launch-ready, with no launch.
//!
//! Every operation builds a fresh kernel from a seeded recipe and takes it
//! through what a cold serve plan, `simtlint` and the differential tests
//! pay: build → lint → `flat_program` (lower and verify) → `plan_hash`.
//! Recipes cover the in-tree kernels at seeded geometries on a100 and
//! mi100, plus `plangen` random and portable plans.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use gpu_sim::{ArchId, DeviceArch};
use omp_codegen::{CompiledKernel, Severity};
use omp_kernels::batched::DispatchMode;
use omp_kernels::harness::Fig10Variant;
use omp_kernels::muram::MuramKernel;
use omp_kernels::plangen::{self, SimRng};
use omp_kernels::stencil2d::Stencil2dVariant;
use omp_kernels::{batched, ideal, laplace3d, muram, spmv, stencil2d, su3};

use crate::metrics::{Outcome, Shares};
use crate::util::{median_ns, ns_since, timed, Reps, Samples};
use crate::{RunCfg, Scale};

/// One seeded plan: which kernel, at which geometry, for which backend.
#[derive(Clone, Copy)]
enum Recipe {
    Spmv2 {
        teams: u32,
        threads: u32,
    },
    Spmv3 {
        teams: u32,
        threads: u32,
        gs: u32,
        reduce: bool,
    },
    Su3 {
        teams: u32,
        threads: u32,
        gs: u32,
    },
    Ideal {
        teams: u32,
        threads: u32,
        gs: u32,
    },
    Laplace {
        teams: u32,
        threads: u32,
        variant: Fig10Variant,
    },
    Stencil {
        teams: u32,
        threads: u32,
        gs: u32,
        sharing: u32,
        variant: Stencil2dVariant,
    },
    Muram {
        which: MuramKernel,
        teams: u32,
        threads: u32,
        variant: Fig10Variant,
    },
    Batched {
        teams: u32,
        threads: u32,
        gs: u32,
        k: usize,
        mode: DispatchMode,
    },
    /// `plangen::random_kernel`; picks its own backend.
    Random {
        seed: u64,
    },
    /// `plangen::random_portable_kernel`.
    Portable {
        seed: u64,
    },
}

/// A recipe plus the backend it is made launch-ready for.
#[derive(Clone, Copy)]
struct Plan {
    recipe: Recipe,
    arch: ArchId,
}

/// Plan kinds repeat every [`KINDS`] slots of the stream (`batched` takes
/// two) and `batched` sizes step through 1..=64 in a fixed order, so every
/// stream of a whole number of [`STRATUM`]s holds the same mix of kinds and
/// sizes whatever the seed: the seed picks where the stream starts in that
/// order, and the geometries, backends and random plans.
const KINDS: usize = 11;

/// Slots after which both the kind and the `batched` size order repeat.
const STRATUM: usize = KINDS * 32;

fn draw(rng: &mut SimRng, slot: usize) -> Plan {
    let arch = if rng.flip() { ArchId::A100 } else { ArchId::Mi100 };
    // Whole 64-lane wavefronts, so every geometry is legal on both
    // backends; group sizes divide 32.
    let teams = rng.range_u32(1, 217);
    let threads = *rng.pick(&[64u32, 128, 256]);
    let gs = *rng.pick(&[1u32, 2, 4, 8, 16, 32]);
    let variant = *rng.pick(&Fig10Variant::ALL);
    let recipe = match slot % KINDS {
        0 => Recipe::Spmv2 { teams, threads },
        1 => Recipe::Spmv3 { teams, threads, gs, reduce: rng.flip() },
        2 => Recipe::Su3 { teams, threads, gs },
        3 => Recipe::Ideal { teams, threads, gs },
        4 => Recipe::Laplace { teams, threads, variant },
        5 => Recipe::Stencil {
            teams,
            threads,
            gs,
            sharing: *rng.pick(&[0u32, 256, 2048]),
            variant: *rng.pick(&[Stencil2dVariant::HaloShared, Stencil2dVariant::SpmdRef]),
        },
        6 => Recipe::Muram {
            which: *rng.pick(&[MuramKernel::Transpose, MuramKernel::Interpol]),
            teams,
            threads,
            variant,
        },
        7 | 8 => Recipe::Batched {
            teams,
            threads,
            gs,
            // 27 is coprime to 64: the 64 batched slots of a stratum take
            // every size once.
            k: 1 + (slot / KINDS * 2 + slot % KINDS - 7) * 27 % 64,
            mode: *rng.pick(&[DispatchMode::Cascade, DispatchMode::Extern]),
        },
        9 => Recipe::Random { seed: rng.next_u64() },
        _ => Recipe::Portable { seed: rng.next_u64() },
    };
    Plan { recipe, arch }
}

impl Plan {
    /// Build the kernel; returns it with its backend and argument count.
    fn build(&self) -> (CompiledKernel, DeviceArch, usize) {
        let arch = self.arch.arch();
        match self.recipe {
            Recipe::Spmv2 { teams, threads } => (spmv::build_two_level_on(teams, threads), arch, 6),
            Recipe::Spmv3 { teams, threads, gs, reduce: false } => {
                (spmv::build_three_level(teams, threads, gs), arch, 6)
            }
            Recipe::Spmv3 { teams, threads, gs, reduce: true } => {
                (spmv::build_three_level_reduce(teams, threads, gs), arch, 6)
            }
            Recipe::Su3 { teams, threads, gs } => (su3::build(teams, threads, gs), arch, 4),
            Recipe::Ideal { teams, threads, gs } => (ideal::build(teams, threads, gs), arch, 4),
            Recipe::Laplace { teams, threads, variant } => {
                (laplace3d::build(teams, threads, variant), arch, 3)
            }
            Recipe::Stencil { teams, threads, gs, sharing, variant } => {
                (stencil2d::build(teams, threads, gs, sharing, variant), arch, 5)
            }
            Recipe::Muram { which, teams, threads, variant } => {
                (muram::build(which, teams, threads, variant), arch, 3)
            }
            Recipe::Batched { teams, threads, gs, k, mode } => {
                (batched::build(teams, threads, gs, k, mode), arch, 4)
            }
            Recipe::Random { seed } => {
                let (k, arch) = plangen::random_kernel(&mut SimRng::seed_from_u64(seed));
                (k, arch, 3)
            }
            Recipe::Portable { seed } => {
                (plangen::random_portable_kernel(&mut SimRng::seed_from_u64(seed)), arch, 3)
            }
        }
    }
}

/// What making one plan launch-ready produced (must repeat exactly).
#[derive(Clone, Copy, PartialEq, Eq)]
struct Made {
    plan_hash: u64,
    errors: usize,
    warnings: usize,
}

/// Per-step host time of one plan, in nanoseconds.
#[derive(Clone, Copy, Default)]
struct Steps {
    build: u64,
    lint: u64,
    lower_verify: u64,
    plan_hash: u64,
}

/// Make one plan launch-ready: build, lint, lower and verify, hash.
fn make_ready(p: &Plan) -> Made {
    let (k, arch, nargs) = p.build();
    let report = k.lint(&arch, nargs);
    std::hint::black_box(k.flat_program(&arch, nargs));
    Made {
        plan_hash: k.plan_hash(),
        errors: report.count(Severity::Error),
        warnings: report.count(Severity::Warning),
    }
}

/// [`make_ready`] with each step timed.
fn make_ready_traced(p: &Plan) -> (Made, Steps) {
    let ((k, arch, nargs), build) = timed(|| p.build());
    let (report, lint) = timed(|| k.lint(&arch, nargs));
    let (prog, lower_verify) = timed(|| k.flat_program(&arch, nargs));
    std::hint::black_box(prog);
    let (plan_hash, hash) = timed(|| k.plan_hash());
    let made = Made {
        plan_hash,
        errors: report.count(Severity::Error),
        warnings: report.count(Severity::Warning),
    };
    (made, Steps { build, lint, lower_verify, plan_hash: hash })
}

/// Make every plan ready once on `workers` threads; returns each plan's
/// index, result, wall time and (when `traced`) step times.
fn pass(plans: &[Plan], workers: usize, traced: bool) -> Vec<(usize, Made, u64, Steps)> {
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(p) = plans.get(i) else { break };
                        let s = Instant::now();
                        let (made, st) = if traced {
                            make_ready_traced(p)
                        } else {
                            (make_ready(p), Steps::default())
                        };
                        out.push((i, made, ns_since(s), st));
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("plan worker panicked")).collect()
    })
}

/// What one window of plans measured.
#[derive(Default)]
struct Window {
    /// One repetition per pass over the stream.
    reps: Reps,
    op_sum: u64,
    // Traced windows only: per-step samples and totals.
    build: Samples,
    lint: Samples,
    lower_verify: Samples,
    plan_hash: Samples,
    steps_sum: Steps,
}

/// Run `plan-compile`.
pub fn run(cfg: &RunCfg) -> Outcome {
    let mut o = Outcome::new();
    let n = match cfg.scale {
        Scale::Full => 10 * STRATUM,
        Scale::Tiny => STRATUM,
    };

    // Set-up: draw the stream, then make all of it ready once so code
    // paths and allocator pools are warm before timing.
    let mut setup_ns = Vec::new();
    let mut plans = Vec::new();
    for _ in 0..9 {
        let (p, ns) = timed(|| {
            let mut rng = SimRng::seed_from_u64(cfg.seed);
            let start = rng.range_usize(0, STRATUM);
            let plans: Vec<Plan> = (start..start + n).map(|slot| draw(&mut rng, slot)).collect();
            for p in &plans {
                std::hint::black_box(make_ready(p));
            }
            plans
        });
        setup_ns.push(ns);
        plans = p;
    }

    let mut pinned: Vec<Option<Made>> = vec![None; n];
    let workers = std::thread::available_parallelism().map_or(1, |t| t.get());
    let secs = if cfg.trace { cfg.seconds / 2.0 } else { cfg.seconds };
    // A repetition is one pass over the stream by `workers` threads that
    // claim plans in order, as the service's workers build cold plans
    // side by side. Keeping every host core busy also averages out the
    // cores' differing speed on a shared host.
    let mut window = |traced: bool, o: &mut Outcome| {
        let mut w = Window::default();
        let mut pass_op_ns = Vec::with_capacity(n);
        let t0 = Instant::now();
        while w.reps.len() < 3 || t0.elapsed().as_secs_f64() < secs {
            let (results, pass_ns) = timed(|| pass(&plans, workers, traced));
            for (i, made, ns, st) in results {
                pass_op_ns.push(ns);
                w.op_sum += ns;
                if traced {
                    w.build.push(st.build);
                    w.lint.push(st.lint);
                    w.lower_verify.push(st.lower_verify);
                    w.plan_hash.push(st.plan_hash);
                    w.steps_sum.build += st.build;
                    w.steps_sum.lint += st.lint;
                    w.steps_sum.lower_verify += st.lower_verify;
                    w.steps_sum.plan_hash += st.plan_hash;
                }
                let ok = match pinned[i] {
                    Some(m) => m == made,
                    None => {
                        pinned[i] = Some(made);
                        true
                    }
                };
                o.op(ok);
            }
            w.reps.push(n as u64, pass_ns, &mut pass_op_ns);
        }
        w
    };
    let plain = window(false, &mut o);
    if !cfg.trace {
        let v = &mut o.values;
        v.set("ops_per_s", plain.reps.rate());
        v.set("op_us.p50", plain.reps.p50_us());
        v.set("op_us.p99", plain.reps.p99_us());
        v.set("setup_s", median_ns(&setup_ns, 1e9));
    } else {
        let t = window(true, &mut o);
        let v = &mut o.values;
        v.set("codegen.build_us", t.build.median(1e3));
        v.set("codegen.lint_us", t.lint.median(1e3));
        v.set("codegen.lower_verify_us", t.lower_verify.median(1e3));
        v.set("codegen.plan_hash_us", t.plan_hash.median(1e3));
        let s = &t.steps_sum;
        let shares = Shares {
            build: s.build,
            lint: s.lint,
            lower_verify: s.lower_verify,
            plan_hash: s.plan_hash,
            ..Shares::default()
        };
        shares.emit(t.op_sum, v);
        v.set("trace.overhead_pct", 100.0 * (plain.reps.rate() / t.reps.rate() - 1.0));
    }
    // Pinned outputs: plan hashes and lint counts of the stream.
    let mut digest: u64 = 0xcbf29ce484222325;
    let (mut errors, mut warnings) = (0u64, 0u64);
    for m in pinned.iter().flatten() {
        for x in [m.plan_hash, m.errors as u64, m.warnings as u64] {
            digest = (digest ^ x).wrapping_mul(0x100000001b3);
        }
        errors += m.errors as u64;
        warnings += m.warnings as u64;
    }
    o.simulated.push(("plan_digest", digest));
    o.simulated.push(("lint_errors", errors));
    o.simulated.push(("lint_warnings", warnings));
    o.threads = workers;
    o.reps = plain.reps.len();
    o.spread = plain.reps.spread();
    o
}
