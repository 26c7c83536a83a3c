//! The pinned run environment.
//!
//! Three things about the environment make timings unsteady or answers
//! different between runs, and all are pinned here:
//!
//! * **Busy threads.** The machine the benchmark targets has two cores.
//!   Every service and fleet node gets one worker (the default is four),
//!   and the client is one closed-loop thread, so at most two threads
//!   are busy at once.
//! * **Cross-CPU hand-offs.** [`pin_to_one_cpu`] binds the process to one
//!   CPU. A closed-loop client waits while a worker evaluates, so one CPU
//!   serves them both; on a shared two-vCPU machine, waking the other
//!   vCPU for every hand-off made miss-path latency swing by 40% between
//!   runs of the same code.
//! * **Ambient switches.** `FEAM_CHAOS_RATE`/`FEAM_CHAOS_SEED` arm fault
//!   injection in every session that uses the ambient plan (the corpus
//!   builder's home-run check is one), and `FEAM_CACHE` flips
//!   [`ServiceConfig::default`]'s caching. [`clear_ambient`] removes them
//!   before anything reads them, and [`service_config`] sets
//!   `fault_plan` and `caching` explicitly on top.

use feam_core::phases::PhaseConfig;
use feam_obs::Recorder;
use feam_sim::faults::FaultPlan;
use feam_svc::{FleetConfig, ServiceConfig};
use std::sync::Arc;

/// Seed of the simulated five-site testbed and the §VI.A corpus. The
/// testbed is the fixed stage; `--seed` varies what the workloads do on
/// it (request streams, builds, write schedule, check samples).
pub const TESTBED_SEED: u64 = 42;

/// Seed of FEAM's own probe compilations (the service default).
pub const PHASE_SEED: u64 = 0xFEA4;

/// Environment variables the pipeline reads as ambient configuration.
pub const AMBIENT_VARS: [&str; 3] = ["FEAM_CACHE", "FEAM_CHAOS_RATE", "FEAM_CHAOS_SEED"];

/// Fleet size of the `fleet-churn` workload: more nodes than cores.
pub const FLEET_NODES: usize = 3;

/// Replica-set size of the fleet.
pub const FLEET_REPLICATION: usize = 2;

/// Remove the ambient switches from this process's environment and
/// return `NAME=value` for each one that was set. Call first thing in
/// `main`, before any thread exists or any session reads them.
pub fn clear_ambient() -> Vec<String> {
    let mut overridden = Vec::new();
    for var in AMBIENT_VARS {
        if let Ok(v) = std::env::var(var) {
            overridden.push(format!("{var}={v}"));
            std::env::remove_var(var);
        }
    }
    overridden
}

/// Bind this process to the last CPU it may run on, with `taskset`, and
/// return that CPU. Call before any thread is spawned: later threads
/// inherit the binding. Without `taskset` the run goes on unbound and
/// says so in its `# config` line.
pub fn pin_to_one_cpu() -> Option<u32> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let allowed = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let cpu: u32 = allowed.trim().rsplit([',', '-']).next()?.parse().ok()?;
    let pid = std::process::id().to_string();
    let bound = std::process::Command::new("taskset")
        .args(["-a", "-p", "-c", &cpu.to_string(), &pid])
        .stdout(std::process::Stdio::null())
        .status()
        .is_ok_and(|s| s.success());
    bound.then_some(cpu)
}

/// The service configuration every workload uses: one worker, faults
/// off, caching on (or off, for the reference twins).
pub fn service_config(caching: bool) -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        queue_capacity: 64,
        edc_ttl: 0,
        result_cache: caching,
        caching,
        sites_seed: TESTBED_SEED,
        phase_seed: PHASE_SEED,
        recorder: Recorder::disabled(),
        fault_plan: Some(Arc::new(FaultPlan::none())),
    }
}

/// The fleet configuration of `fleet-churn`. Hedging is off: a hedge
/// fires on wall-clock delay, so a scheduler stall on a shared machine
/// would make routing (and every counter downstream of it) differ
/// between runs of one seed. `recorder` is the one source of the
/// replication counters; give it a null sink.
pub fn fleet_config(recorder: Recorder) -> FleetConfig {
    FleetConfig {
        replication: FLEET_REPLICATION,
        hedge_after: None,
        recorder,
        ..FleetConfig::default()
    }
}

/// A phase configuration equivalent to the one a [`service_config`]
/// service runs its workers with, over `caches` (none: cache-off).
pub fn phase_config(caches: Option<Arc<feam_core::cache::PhaseCaches>>) -> PhaseConfig {
    PhaseConfig {
        seed: PHASE_SEED,
        faults: Arc::new(FaultPlan::none()),
        caches,
        ..PhaseConfig::default()
    }
}

/// The configuration printed beside every result.
pub fn describe(overridden: &[String], nproc: usize, cpu: Option<u32>) -> serde_json::Value {
    let cfg = service_config(true);
    serde_json::json!({
        "nproc": nproc,
        "pinned_cpu": cpu,
        "client_threads": 1,
        "workers_per_service": cfg.workers,
        "queue_capacity": cfg.queue_capacity,
        "caching": cfg.caching,
        "result_cache": cfg.result_cache,
        "fault_plan": "none",
        "testbed_seed": TESTBED_SEED,
        "phase_seed": PHASE_SEED,
        "fleet_nodes": FLEET_NODES,
        "fleet_replication": FLEET_REPLICATION,
        "fleet_hedging": false,
        "ambient_overridden": overridden.to_vec(),
    })
}
