//! Differential harness for aggregate weekly sampling: the statistics
//! correctness gate.
//!
//! The aggregate path (`SamplingMode::Aggregate`, DESIGN.md §13) replaces
//! the per-device weekly loop with population-level draws: one binomial
//! total per path cohort, rank-ordered share division, and bulk wallet
//! burns over the federated column. Its contract is *exact* equality with
//! the per-device reference implementation (`SamplingMode::Reference`,
//! behind the fleet crate's default `reference-mode` feature), which
//! recomputes everything naively — fresh participant scans, row
//! materialization, scalar wallet round-trips, per-device histogram
//! observes. The two share only the cohort RNG splits and the binomial
//! sampler, so digest equality proves the aggregate bookkeeping (the
//! incremental alive census, the stuck-device correction, the batched
//! burns and observes) — not merely that both call the same code.
//!
//! The grind mirrors `tests/shard_differential.rs`: 8 seeds ×
//! {plain, full-intensity chaos} × shard counts {1, 4}, comparing run
//! digests plus the specific ledgers the aggregate path batches: weekly
//! uptime, delivery counts, and wallet-exhaustion tallies (with their
//! diary weeks).
//!
//! Equality with Reference says nothing about the per-device `Legacy`
//! path the paper goldens pin, since the two draw different streams; the
//! statistical bridge at the end checks that Legacy and Aggregate agree
//! in distribution on the paper experiment over 256 seeds.

#![allow(clippy::unwrap_used, clippy::expect_used)] // Test-only target.

mod common;

use chaos::FaultPlanBuilder;
use common::{run_with_plan, serial_with_plan};
use fleet::sim::{ArmReport, FleetConfig, FleetReport, FleetSim, SamplingMode};
use fleet::Run;
use simcore::stats::Moments;

const SEEDS: [u64; 8] = [1, 2, 3, 7, 42, 97, 1001, 0xdead_beef];
const SHARD_COUNTS: [usize; 2] = [1, 4];

fn cfg(seed: u64, sampling: SamplingMode) -> FleetConfig {
    FleetConfig::paper_experiment(seed).with_sampling(sampling)
}

/// The wall of equality the differential demands: the full digest, plus
/// the individually named ledgers the issue calls out so a failure names
/// the drifted quantity instead of just "digest mismatch".
fn assert_equivalent(agg: &FleetReport, reference: &FleetReport, ctx: &str) {
    assert_eq!(agg.arms.len(), reference.arms.len(), "{ctx}: arm count");
    for (a, r) in agg.arms.iter().zip(reference.arms.iter()) {
        assert_eq!(a.weeks_up, r.weeks_up, "{ctx}: '{}' weekly uptime ledger", a.name);
        assert_eq!(a.weeks_total, r.weeks_total, "{ctx}: '{}' weeks evaluated", a.name);
        assert_eq!(
            a.readings_delivered, r.readings_delivered,
            "{ctx}: '{}' delivery count",
            a.name
        );
        assert_eq!(
            a.readings_expected, r.readings_expected,
            "{ctx}: '{}' expected readings",
            a.name
        );
        assert_eq!(
            a.wallets_exhausted, r.wallets_exhausted,
            "{ctx}: '{}' wallet exhaustions",
            a.name
        );
    }
    // Wallet-exhaustion *weeks*: the diary timestamps, not just tallies.
    let exhaustion_weeks = |report: &FleetReport| -> Vec<(u64, String)> {
        report
            .diary
            .entries()
            .iter()
            .filter(|e| e.message.contains("wallet exhausted"))
            .map(|e| (e.at.as_secs(), e.message.clone()))
            .collect()
    };
    assert_eq!(
        exhaustion_weeks(agg),
        exhaustion_weeks(reference),
        "{ctx}: wallet-exhaustion diary weeks"
    );
    assert_eq!(
        agg.events_processed, reference.events_processed,
        "{ctx}: events processed"
    );
    assert_eq!(agg.digest(), reference.digest(), "{ctx}: run digest");
}

#[test]
fn aggregate_matches_reference_plain_across_seeds_and_k() {
    for seed in SEEDS {
        let reference = FleetSim::run(cfg(seed, SamplingMode::Reference));
        for k in SHARD_COUNTS {
            // A literal k: the paper fleet sits below the auto path's
            // serial fallback, and this suite wants the real multi-shard
            // aggregate path.
            let agg = Run::new(cfg(seed, SamplingMode::Aggregate)).shards(k).unwrap().execute();
            assert_equivalent(&agg, &reference, &format!("seed {seed}, plain, k={k}"));
        }
    }
}

#[test]
fn aggregate_matches_reference_under_full_chaos_across_seeds_and_k() {
    for seed in SEEDS {
        // The fault plan is built once against the aggregate config and
        // replayed verbatim into both modes: same faults, same instants.
        let plan = FaultPlanBuilder::full(seed ^ 0xa66e)
            .build(&cfg(seed, SamplingMode::Aggregate), 1.0)
            .unwrap();
        let reference = serial_with_plan(cfg(seed, SamplingMode::Reference), &plan);
        for k in SHARD_COUNTS {
            let agg = run_with_plan(cfg(seed, SamplingMode::Aggregate), &plan, k);
            assert_equivalent(&agg, &reference, &format!("seed {seed}, chaos=full@1.0, k={k}"));
        }
    }
}

#[test]
fn sharded_aggregate_matches_serial_aggregate() {
    // The shard differential, re-run over the aggregate path: splitting
    // an aggregate run across workers must not move a single draw.
    for seed in [1_u64, 42] {
        let serial = FleetSim::run(cfg(seed, SamplingMode::Aggregate));
        for k in [2_usize, 4, 8] {
            let sharded =
                Run::new(cfg(seed, SamplingMode::Aggregate)).shards(k).unwrap().execute();
            assert_eq!(
                sharded.digest(),
                serial.digest(),
                "seed {seed}, k={k}: sharded aggregate digest drifted from serial"
            );
        }
    }
}

#[test]
fn aggregate_differs_from_legacy_sampling() {
    // Sanity that the differential is not vacuous at the mode level:
    // aggregate draws come from a different RNG discipline than the
    // legacy per-device loop, so the two must disagree somewhere across
    // these seeds. (Aggregate ≡ Reference is the contract; Aggregate ≡
    // Legacy would mean the new path never actually ran.)
    let disagrees = SEEDS.iter().any(|&seed| {
        let legacy = FleetSim::run(cfg(seed, SamplingMode::Legacy));
        let agg = FleetSim::run(cfg(seed, SamplingMode::Aggregate));
        legacy.digest() != agg.digest()
    });
    assert!(disagrees, "aggregate sampling never diverged from legacy — mode switch inert?");
}

/// Seeds behind the statistical bridge: the per-seed uptime is skewed
/// (rare outage seeds), so fewer seeds understate its spread.
const BRIDGE_SEEDS: usize = 256;

#[test]
fn aggregate_agrees_with_legacy_in_distribution() {
    // Aggregate ≡ Reference proves the aggregate bookkeeping; this bridges
    // the other way, to the per-device Legacy path the paper goldens pin.
    // The two draw from different streams, so they can only agree in
    // distribution: over the same 256 seeds, per-arm means of the paper's
    // metrics must match within sampling error.
    let runs = |sampling: SamplingMode| {
        bench::parallel::run_reports(&|seed| cfg(seed, sampling), 0, BRIDGE_SEEDS, 2).unwrap()
    };
    let legacy = runs(SamplingMode::Legacy);
    let aggregate = runs(SamplingMode::Aggregate);
    // (metric, absolute allowance on top of 4 combined standard errors).
    // Yield's allowance: Legacy draws each device's weekly deliveries as a
    // rounded normal clamped to [0, reports], which sits a few 1e-4 below
    // the exact binomial mean when p is near 1 (arm 1: 0.99609 vs 0.99633,
    // standard errors 3e-5); 5e-4 admits that known bias and nothing
    // larger.
    type Metric = fn(&ArmReport) -> f64;
    let metrics: [(&str, Metric, f64); 2] =
        [("uptime", ArmReport::uptime, 0.0), ("yield", ArmReport::data_yield, 5e-4)];
    for arm in 0..legacy[0].arms.len() {
        for (name, f, allowance) in metrics {
            let stats = |reports: &[FleetReport]| {
                let mut m = Moments::new();
                reports.iter().for_each(|r| m.add(f(&r.arms[arm])));
                (m.mean(), m.std_err())
            };
            let ((lm, ls), (am, as_)) = (stats(&legacy), stats(&aggregate));
            let tol = 4.0 * ls.hypot(as_) + allowance;
            assert!(
                (lm - am).abs() <= tol,
                "arm {arm} {name}: legacy {lm:.5}±{ls:.5} vs aggregate {am:.5}±{as_:.5} \
                 (tol {tol:.5})"
            );
        }
    }
}
