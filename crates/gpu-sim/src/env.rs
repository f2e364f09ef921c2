//! The simulator's environment knobs, resolved once per process.
//!
//! Six `SIMT_*` variables steer the simulator and the launch entry points
//! above it. [`SimEnv::get`] reads all of them on first use and keeps the
//! parsed values for the life of the process, so no launch, device or
//! kernel call touches the environment. Per-device overrides
//! ([`crate::Device::set_sim_threads`], [`crate::Device::set_mem_model`])
//! still win over these values.
//!
//! | variable | field | meaning |
//! |---|---|---|
//! | `SIMT_SIM_THREADS` | [`SimEnv::sim_threads`] | block-execution threads; unset or `0` = available parallelism |
//! | `SIMT_SIM_MEM` | [`SimEnv::mem_model`] | `flat` = legacy single-tier model; otherwise hierarchical |
//! | `SIMT_SIM_ARCH` | [`SimEnv::arch`] | backend of `Device::from_env` (default `a100`) |
//! | `SIMT_SANITIZE` | [`SimEnv::sanitize`] | any non-empty value but `0` sanitizes every new device |
//! | `SIMT_SIM_ORACLE` | [`SimEnv::oracle`] | `1` runs every compiled launch on both engines |
//! | `SIMT_LINT` | [`SimEnv::lint`] | `0` skips the simtlint gate of `CompiledKernel::run` |

use std::sync::OnceLock;

use crate::arch::{ArchId, ArchRegistry};
use crate::mem::hier::{MemModel, MEM_MODEL_ENV};
use crate::sched::SIM_THREADS_ENV;

/// The parsed `SIMT_*` knobs (see the module docs for each one).
#[derive(Debug)]
pub struct SimEnv {
    /// Block-execution threads when a device sets no override (≥ 1).
    pub sim_threads: usize,
    /// Memory model when a device sets no override.
    pub mem_model: MemModel,
    /// The backend `SIMT_SIM_ARCH` names, or the unknown name it held.
    /// The error surfaces where an architecture is asked for
    /// ([`ArchRegistry::from_env`]), not at first read of another knob.
    pub arch: Result<ArchId, String>,
    /// Attach the sanitizer to every new device.
    pub sanitize: bool,
    /// Run compiled launches in differential (both-engine) mode.
    pub oracle: bool,
    /// Gate `CompiledKernel::run` on simtlint errors.
    pub lint: bool,
}

impl SimEnv {
    /// The process's knobs, read from the environment on first call.
    pub fn get() -> &'static SimEnv {
        static ENV: OnceLock<SimEnv> = OnceLock::new();
        ENV.get_or_init(SimEnv::read)
    }

    fn read() -> SimEnv {
        let var = |name: &str| std::env::var(name).ok();
        let sim_threads = var(SIM_THREADS_ENV)
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1));
        let mem_model = match var(MEM_MODEL_ENV) {
            Some(v) if v.trim().eq_ignore_ascii_case("flat") => MemModel::Flat,
            _ => MemModel::Hier,
        };
        let arch = match var("SIMT_SIM_ARCH") {
            Some(v) if !v.is_empty() => ArchRegistry::lookup(&v).ok_or(v),
            _ => Ok(ArchId::A100),
        };
        SimEnv {
            sim_threads,
            mem_model,
            arch,
            sanitize: var("SIMT_SANITIZE").is_some_and(|v| !v.is_empty() && v != "0"),
            oracle: var("SIMT_SIM_ORACLE").is_some_and(|v| v == "1"),
            lint: var("SIMT_LINT").is_none_or(|v| v != "0"),
        }
    }
}
