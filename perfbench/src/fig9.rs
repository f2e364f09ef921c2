//! `fig9-sweep`: the Fig 9 three-level kernels at every SIMD group size.
//!
//! Kernels run through the `omp_kernels` `run` helpers (reset, the
//! lint-gated `CompiledKernel::run`, readback) at the default block
//! threads. The untraced window reports end-to-end metrics; the traced
//! window repeats the same launches through [`crate::tracer::traced_run`]
//! and reports where the host time went.

use std::time::Instant;

use gpu_sim::{Device, LaunchStats};
use omp_codegen::CompiledKernel;
use omp_kernels::matrix::{CsrMatrix, RowProfile};
use omp_kernels::plangen::SimRng;
use omp_kernels::{ideal, spmv, su3};

use crate::metrics::{Outcome, Shares};
use crate::tracer::{traced_run, LaunchSplit};
use crate::util::{bits_equal, close, median_ns, ns_since, timed, Reps, Samples};
use crate::{RunCfg, Scale};

/// Device-resident operands of one kernel family.
enum Operands {
    Spmv(spmv::SpmvDev),
    Su3(su3::Su3Dev),
    Ideal(ideal::IdealDev),
}

impl Operands {
    /// The kernel crate's own `run` helper: the untraced operation.
    fn run(&self, dev: &mut Device, k: &CompiledKernel) -> (Vec<f64>, LaunchStats) {
        match self {
            Operands::Spmv(o) => spmv::run(dev, k, o),
            Operands::Su3(o) => su3::run(dev, k, o),
            Operands::Ideal(o) => ideal::run(dev, k, o),
        }
    }

    /// The same operation with every layer call timed. Also returns the
    /// host I/O time: the output reset spmv's helper does plus the
    /// readback, and the readback alone.
    fn traced(
        &self,
        dev: &mut Device,
        k: &CompiledKernel,
    ) -> Result<(Vec<f64>, LaunchStats, LaunchSplit, u64, u64), String> {
        let ((), reset) = timed(|| {
            if let Operands::Spmv(o) = self {
                o.reset_y(dev);
            }
        });
        let (stats, split) = match self {
            Operands::Spmv(o) => traced_run(dev, k, &o.args())?,
            Operands::Su3(o) => traced_run(dev, k, &o.args())?,
            Operands::Ideal(o) => traced_run(dev, k, &o.args())?,
        };
        let (out, readback) = timed(|| match self {
            Operands::Spmv(o) => o.read_y(dev),
            Operands::Su3(o) => o.read_c(dev),
            Operands::Ideal(o) => o.read_out(dev),
        });
        Ok((out, stats, split, reset + readback, readback))
    }
}

/// One device holding one kernel family's operands.
struct Target {
    dev: Device,
    ops: Operands,
}

/// The host reference a target's output must match.
struct Reference {
    want: Vec<f64>,
    /// Relative tolerance; 0 demands exact results.
    tol: f64,
}

/// Host inputs, kept so every pass uploads onto fresh devices, as the
/// Fig 9 harness does.
struct Inputs {
    mat: CsrMatrix,
    x: Vec<f64>,
    su3: su3::Su3Workload,
    ideal: ideal::IdealWorkload,
}

impl Inputs {
    fn upload(&self, upload_ns: &mut Vec<u64>) -> Vec<Target> {
        let mut target = |f: &dyn Fn(&mut Device) -> Operands| {
            let mut dev = Device::a100();
            let (ops, ns) = timed(|| f(&mut dev));
            upload_ns.push(ns);
            Target { dev, ops }
        };
        vec![
            target(&|d| Operands::Spmv(spmv::SpmvDev::upload(d, &self.mat, &self.x))),
            target(&|d| Operands::Su3(su3::Su3Dev::upload(d, &self.su3))),
            target(&|d| Operands::Ideal(ideal::IdealDev::upload(d, &self.ideal))),
        ]
    }
}

/// One launch configuration: a compiled kernel on a target.
struct Case {
    name: String,
    target: usize,
    kernel: CompiledKernel,
    /// Stats and output of the first launch; every later launch, at any
    /// thread count and traced or not, must reproduce them bit for bit.
    pinned: Option<(LaunchStats, Vec<f64>)>,
}

struct Bench {
    inputs: Inputs,
    /// Devices of the current pass, one per kernel family.
    targets: Vec<Target>,
    refs: Vec<Reference>,
    cases: Vec<Case>,
    /// Case order within one pass (seeded).
    order: Vec<usize>,
}

/// Host time of the layer calls set-up makes, and of the host reference
/// computation it also does (a check, so not counted as set-up).
#[derive(Default)]
struct SetupTimes {
    build_ns: Vec<u64>,
    upload_ns: Vec<u64>,
    reference_ns: u64,
}

/// Fig 9's SIMD group sizes.
const GROUP_SIZES: [u32; 5] = [2, 4, 8, 16, 32];

/// `(teams, threads, simd group size)` → kernel.
type Build = fn(u32, u32, u32) -> CompiledKernel;

/// Each kernel family's builder and the target holding its operands.
const FAMILIES: [(&str, usize, Build); 3] =
    [("spmv", 0, spmv::build_three_level), ("su3", 1, su3::build), ("ideal", 2, ideal::build)];

fn setup(seed: u64, scale: Scale, st: &mut SetupTimes) -> Bench {
    // The `--quick` problem sizes of the Fig 9 harness on the 108-team
    // A100 grid.
    let (rows, sites, outer) = match scale {
        Scale::Full => (32_768, 27_648, 27_648),
        Scale::Tiny => (2_048, 1_728, 1_728),
    };
    let (teams, threads) = (108, 128);
    let mut rng = SimRng::seed_from_u64(seed);
    let mat =
        CsrMatrix::generate(rows, rows, RowProfile::Banded { min: 4, max: 44 }, rng.next_u64());
    let x: Vec<f64> = (0..mat.ncols).map(|_| rng.range_u64(0, 31) as f64 * 0.0625).collect();
    let inputs = Inputs {
        su3: su3::Su3Workload::generate(sites, rng.next_u64()),
        ideal: ideal::IdealWorkload::generate(outer, rng.next_u64()),
        mat,
        x,
    };
    let targets = inputs.upload(&mut st.upload_ns);
    let (refs, ns) = timed(|| {
        vec![
            Reference { want: inputs.mat.spmv_ref(&inputs.x), tol: 1e-9 },
            Reference { want: inputs.su3.reference(), tol: 1e-12 },
            Reference { want: inputs.ideal.reference(), tol: 0.0 },
        ]
    });
    st.reference_ns += ns;
    let mut cases = Vec::new();
    for gs in GROUP_SIZES {
        for (name, target, build) in FAMILIES {
            let (kernel, ns) = timed(|| build(teams, threads, gs));
            st.build_ns.push(ns);
            cases.push(Case { name: format!("{name}/gs{gs}"), target, kernel, pinned: None });
        }
    }
    let order = shuffled(cases.len(), &mut rng);
    Bench { inputs, targets, refs, cases, order }
}

fn shuffled(n: usize, rng: &mut SimRng) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.range_usize(0, i + 1));
    }
    v
}

// --- measurement ------------------------------------------------------------

/// What one window of launches measured.
#[derive(Default)]
struct Window {
    /// One repetition per pass.
    reps: Reps,
    issue: u64,
    op_ns_sum: u64,
    upload_ns: Vec<u64>,
    // Traced windows only.
    lint: Samples,
    fanout: Samples,
    span: Samples,
    block_cpu: Samples,
    merge: Samples,
    readback: Samples,
    block_cpu_sum: u64,
    shares: Shares,
}

impl Window {
    fn add_split(&mut self, s: &LaunchSplit, io: u64, readback: u64) {
        s.add_to(&mut self.shares);
        self.shares.io += io;
        self.readback.push(readback);
        self.lint.push(s.lint);
        self.fanout.push(s.fanout);
        self.span.push(s.span);
        self.block_cpu.push(s.block_cpu);
        self.merge.push(s.merge);
        self.block_cpu_sum += s.block_cpu;
    }
}

impl Bench {
    /// Check one launch's output and stats against the reference and the
    /// case's pinned first launch.
    fn verify(&mut self, ci: usize, out: Vec<f64>, stats: LaunchStats, o: &mut Outcome) -> bool {
        let case = &mut self.cases[ci];
        let r = &self.refs[case.target];
        let mut ok = close(&out, &r.want, r.tol);
        match &case.pinned {
            Some((s, pinned_out)) => ok &= *s == stats && bits_equal(pinned_out, &out),
            None => case.pinned = Some((stats, out)),
        }
        if !ok {
            eprintln!("perfbench: {} produced a wrong or unstable result", case.name);
        }
        o.op(ok);
        ok
    }

    /// Run whole passes until `secs` have passed (at least one).
    fn window(&mut self, secs: f64, traced: bool, o: &mut Outcome) -> Window {
        let mut w = Window::default();
        let t0 = Instant::now();
        let mut pass_op_ns = Vec::new();
        while w.reps.is_empty() || t0.elapsed().as_secs_f64() < secs {
            self.targets.clear();
            self.targets = self.inputs.upload(&mut w.upload_ns);
            for idx in 0..self.order.len() {
                let ci = self.order[idx];
                let case = &self.cases[ci];
                let t = &mut self.targets[case.target];
                let (out, stats, ns) = if traced {
                    let op0 = Instant::now();
                    match t.ops.traced(&mut t.dev, &case.kernel) {
                        Ok((out, stats, split, io, readback)) => {
                            let ns = ns_since(op0);
                            w.add_split(&split, io, readback);
                            (out, stats, ns)
                        }
                        Err(e) => {
                            eprintln!("perfbench: {}: {e}", case.name);
                            o.op(false);
                            continue;
                        }
                    }
                } else {
                    let ((out, stats), ns) = timed(|| t.ops.run(&mut t.dev, &case.kernel));
                    (out, stats, ns)
                };
                w.issue += stats.total_issue;
                w.op_ns_sum += ns;
                pass_op_ns.push(ns);
                self.verify(ci, out, stats, o);
            }
            let pass_ns = pass_op_ns.iter().sum();
            w.reps.push(pass_op_ns.len() as u64, pass_ns, &mut pass_op_ns);
        }
        w
    }

    /// Relaunch each of `cases` traced at the default block threads and
    /// at one thread: every launch must reproduce the case's pinned stats
    /// and output. Returns the summed block CPU at the default thread
    /// count and at one thread.
    fn thread_probe(&mut self, cases: &[usize], o: &mut Outcome) -> (u64, u64) {
        let mut cpu = [0u64; 2];
        for &ci in cases {
            let mut ok = true;
            for (slot, threads) in [(0, None), (1, Some(1))] {
                let case = &self.cases[ci];
                let t = &mut self.targets[case.target];
                t.dev.set_sim_threads(threads);
                let res = t.ops.traced(&mut t.dev, &case.kernel);
                t.dev.set_sim_threads(None);
                match res {
                    Ok((out, stats, split, _, _)) => {
                        cpu[slot] += split.block_cpu;
                        ok &= self.verify(ci, out, stats, o);
                    }
                    Err(e) => {
                        eprintln!("perfbench: {}: {e}", self.cases[ci].name);
                        o.op(false);
                        ok = false;
                    }
                }
            }
            let name =
                format!("{}: equal results at 1 and default block threads", self.cases[ci].name);
            o.checks.push((name, ok));
        }
        (cpu[0], cpu[1])
    }
}

/// Run `fig9-sweep`.
pub fn run(cfg: &RunCfg) -> Outcome {
    let mut o = Outcome::new();
    let mut st = SetupTimes::default();
    let mut setup_ns = Vec::new();
    let mut bench = None;
    for _ in 0..5 {
        drop(bench.take());
        let before = st.reference_ns;
        let (b, ns) = timed(|| setup(cfg.seed, cfg.scale, &mut st));
        setup_ns.push(ns - (st.reference_ns - before));
        bench = Some(b);
    }
    let mut b = bench.expect("at least one setup repetition");
    if b.targets.iter().any(|t| t.dev.sanitizer_enabled() || t.dev.trace_enabled()) {
        // Instrumented devices run the tree-walk engine, not the
        // production path this benchmark measures.
        o.check("devices run the production engine", false);
        return o;
    }

    // Cross-thread probe set: one seeded case per kernel family in a
    // traced run (they also give block CPU inflation), one otherwise.
    let mut rng = SimRng::seed_from_u64(cfg.seed ^ 0x7e57);
    let probe: Vec<usize> = if cfg.trace {
        (0..b.targets.len())
            .map(|f| {
                let of_family: Vec<usize> =
                    (0..b.cases.len()).filter(|&c| b.cases[c].target == f).collect();
                *rng.pick(&of_family)
            })
            .collect()
    } else {
        vec![rng.range_usize(0, b.cases.len())]
    };

    let secs = if cfg.trace { cfg.seconds / 2.0 } else { cfg.seconds };
    let plain = b.window(secs, false, &mut o);
    if !cfg.trace {
        let v = &mut o.values;
        v.set("ops_per_s", plain.reps.rate());
        v.set("op_us.p50", plain.reps.p50_us());
        v.set("op_us.p99", plain.reps.p99_us());
        v.set("setup_s", median_ns(&setup_ns, 1e9));
        b.thread_probe(&probe, &mut o);
    } else {
        let traced = b.window(secs, true, &mut o);
        let (default_cpu, one_cpu) = b.thread_probe(&probe, &mut o);
        let v = &mut o.values;
        if one_cpu > 0 {
            v.set("gpu_sim.block_cpu_inflation", default_cpu as f64 / one_cpu as f64);
        }
        v.set("codegen.build_us", median_ns(&st.build_ns, 1e3));
        v.set("codegen.lint_us", traced.lint.median(1e3));
        v.set("gpu_sim.launches", traced.fanout.seen() as f64);
        v.set("gpu_sim.sim_issue_per_s", plain.issue as f64 / (plain.op_ns_sum as f64 / 1e9));
        v.set("gpu_sim.fanout_us", traced.fanout.median(1e3));
        v.set("gpu_sim.block_span_ms", traced.span.median(1e6));
        v.set("gpu_sim.block_cpu_ms", traced.block_cpu.median(1e6));
        v.set("gpu_sim.merge_ms", traced.merge.median(1e6));
        v.set(
            "gpu_sim.block_ns_per_issue",
            traced.block_cpu_sum as f64 / traced.issue.max(1) as f64,
        );
        let mut uploads = st.upload_ns.clone();
        uploads.extend(&traced.upload_ns);
        v.set("kernels.upload_ms", median_ns(&uploads, 1e6));
        v.set("kernels.readback_us", traced.readback.median(1e3));
        traced.shares.emit(traced.op_ns_sum, v);
        v.set("trace.overhead_pct", 100.0 * (plain.reps.rate() / traced.reps.rate() - 1.0));
    }
    let pinned = || b.cases.iter().filter_map(|c| c.pinned.as_ref().map(|(s, _)| s));
    let cycles: u64 = pinned().map(|s| s.cycles).sum();
    let issue: u64 = pinned().map(|s| s.total_issue).sum();
    if cfg.trace {
        o.values.set("sim.cycles", cycles as f64);
    }
    o.simulated.push(("cycles_per_pass", cycles));
    o.simulated.push(("total_issue_per_pass", issue));
    o.threads = gpu_sim::sched::resolve_threads(None);
    o.reps = plain.reps.len();
    o.spread = plain.reps.spread();
    o
}
