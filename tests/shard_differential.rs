//! Differential harness for sharded execution: the tentpole's
//! correctness gate.
//!
//! A `fleet::Run` on `k` shards promises a run digest **bit-identical** to
//! the serial run for every seed and every shard count — with and without
//! fault injection. This suite grinds that promise against 8 seeds ×
//! k ∈ {1, 2, 3, 8} × {plain, full-intensity chaos} on the paper fleet,
//! plus k = 16 — one arm per shard — on the 16-arm `scaled` fleet,
//! mirroring the
//! queue-vs-heap differential test that guarded the timing-wheel swap:
//! the serial path is the reference implementation, the sharded path is
//! the optimisation under test, and the digest (ordered diary, spans,
//! per-arm ledgers, metric snapshot) is the equivalence oracle.

#![allow(clippy::unwrap_used, clippy::expect_used)] // Test-only target.

mod common;

use chaos::FaultPlanBuilder;
use common::{run_with_plan, serial_with_plan};
use fleet::sim::{FleetConfig, FleetReport, FleetSim, SamplingMode};
use fleet::Run;

const SEEDS: [u64; 8] = [1, 2, 3, 7, 42, 97, 1001, 0xdead_beef];
const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 8];

/// `cfg` run on exactly `k` shards — literal, so the 20-device paper
/// fleet, far below the auto path's serial fallback, still drives the
/// real multi-shard machinery.
fn sharded(cfg: FleetConfig, k: usize) -> FleetReport {
    Run::new(cfg).shards(k).unwrap().execute()
}

#[test]
fn sharded_digest_matches_serial_across_seeds_and_k() {
    for seed in SEEDS {
        let serial = FleetSim::run(FleetConfig::paper_experiment(seed));
        for k in SHARD_COUNTS {
            let sharded = sharded(FleetConfig::paper_experiment(seed), k);
            assert_eq!(
                serial.digest(),
                sharded.digest(),
                "seed {seed}, k={k}: sharded digest drifted from serial"
            );
            // The digest already folds these, but name the usual suspects
            // so a failure pinpoints itself.
            assert_eq!(serial.events_processed, sharded.events_processed, "seed {seed}, k={k}");
            assert_eq!(serial.diary.len(), sharded.diary.len(), "seed {seed}, k={k}");
            assert_eq!(serial.spans.len(), sharded.spans.len(), "seed {seed}, k={k}");
        }
    }
}

#[test]
fn sharded_digest_matches_serial_under_full_intensity_chaos() {
    for seed in SEEDS {
        let cfg = FleetConfig::paper_experiment(seed);
        let plan = FaultPlanBuilder::full(seed ^ 0xc4a0).build(&cfg, 1.0).unwrap();
        let serial = serial_with_plan(cfg, &plan);
        for k in SHARD_COUNTS {
            let sharded = run_with_plan(FleetConfig::paper_experiment(seed), &plan, k);
            assert_eq!(
                serial.digest(),
                sharded.digest(),
                "seed {seed}, k={k}, chaos=full@1.0: sharded digest drifted from serial"
            );
        }
    }
}

#[test]
fn sharded_profile_dispatch_counts_match_serial() {
    // events_processed equality is necessary but could mask compensating
    // errors; the per-kind dispatch breakdown must match too.
    let serial = FleetSim::run(FleetConfig::paper_experiment(11));
    let sharded = sharded(FleetConfig::paper_experiment(11), 2);
    for &(kind, n) in serial.profile.dispatches() {
        assert_eq!(
            sharded.profile.count(kind),
            n,
            "dispatch count for '{kind}' drifted under sharding"
        );
    }
    assert_eq!(
        serial.profile.total_dispatched(),
        sharded.profile.total_dispatched()
    );
}

#[test]
fn oversharded_run_still_matches_serial() {
    // k far beyond the arm count: surplus shards sit empty and the
    // degenerate split must not perturb anything.
    let serial = FleetSim::run(FleetConfig::paper_experiment(3));
    let sharded = sharded(FleetConfig::paper_experiment(3), 64);
    assert_eq!(serial.digest(), sharded.digest());
}

#[test]
fn one_arm_per_shard_matches_serial_on_the_scaled_fleet() {
    // k = 16 on the 16-arm fleet: every shard owns exactly one arm, so
    // every arm is routed, run and closed on a worker of its own.
    let k = FleetConfig::SCALED_ARMS;
    for seed in [5, 61, 0xfeed] {
        for sampling in [SamplingMode::Legacy, SamplingMode::Aggregate] {
            let cfg = || FleetConfig::scaled(seed, 16 * 20).with_sampling(sampling);
            let serial = FleetSim::run(cfg());
            let sharded = sharded(cfg(), k);
            assert_eq!(serial.digest(), sharded.digest(), "seed {seed}, {sampling:?}, k={k}");
            assert_eq!(serial.events_processed, sharded.events_processed, "seed {seed}");

            let plan = FaultPlanBuilder::full(seed ^ 0x16).build(&cfg(), 1.0).unwrap();
            let serial = serial_with_plan(cfg(), &plan);
            let sharded = run_with_plan(cfg(), &plan, k);
            assert_eq!(
                serial.digest(),
                sharded.digest(),
                "seed {seed}, {sampling:?}, k={k}, chaos=full@1.0: sharded digest drifted"
            );
        }
    }
}
