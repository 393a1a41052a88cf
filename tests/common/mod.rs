//! Chaos-run helpers shared by the root test targets.
//!
//! [`serial_with_plan`] is the reference implementation the differential
//! suites compare against: one engine on the calling thread under one
//! [`FleetInjector`] over the whole plan. It shares none of
//! [`fleet::Run`]'s shard planning or [`chaos::shard_injectors`]'
//! owner routing, so a case at `k = 1` still checks that machinery
//! against something other than itself.

#![allow(dead_code, clippy::unwrap_used, clippy::expect_used)] // Not every target uses every helper.

use std::path::Path;

use chaos::{shard_injectors, FaultPlan, FleetInjector};
use fleet::sim::{FleetConfig, FleetReport, FleetSim};
use fleet::snapshot::{self, ChaosProgress};
use fleet::Run;
use simcore::time::SimTime;

/// The serial reference run of `cfg` under `plan`, without `Run`.
pub fn serial_with_plan(cfg: FleetConfig, plan: &FaultPlan) -> FleetReport {
    let horizon = SimTime::ZERO + cfg.horizon;
    let mut engine = FleetSim::build(cfg);
    engine.run_until_hooked(horizon, &mut FleetInjector::new(plan.clone()));
    FleetSim::into_report(engine, horizon)
}

/// A fresh run of `cfg` under `plan` on exactly `k` shards.
pub fn run_with_plan(cfg: FleetConfig, plan: &FaultPlan, k: usize) -> FleetReport {
    Run::new(cfg)
        .shards(k)
        .unwrap()
        .hooks(shard_injectors(plan, ChaosProgress::default()))
        .execute()
}

/// Runs `cfg` under `plan` to `at` and writes an atomic checkpoint,
/// world state plus the injector's replay progress, to `path`. Returns
/// the injector still positioned at `at`.
pub fn checkpoint_with_plan(
    cfg: FleetConfig,
    plan: &FaultPlan,
    at: SimTime,
    path: &Path,
) -> FleetInjector {
    let mut engine = FleetSim::build(cfg);
    let mut injector = FleetInjector::new(plan.clone());
    engine.run_until_hooked(at, &mut injector);
    snapshot::write_checkpoint(path, &mut engine, injector.progress())
        .expect("checkpoint writes atomically");
    injector
}

/// Resumes the checkpoint at `path` under the full serial `plan` on
/// exactly `k` shards.
pub fn resume_with_plan(path: &Path, cfg: FleetConfig, plan: &FaultPlan, k: usize) -> FleetReport {
    let resumed = snapshot::resume_from(path, cfg).unwrap();
    let progress = resumed.chaos;
    Run::resume(resumed).shards(k).unwrap().hooks(shard_injectors(plan, progress)).execute()
}
