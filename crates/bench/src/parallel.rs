//! Parallel Monte-Carlo execution of fleet experiments.
//!
//! Replicates are embarrassingly parallel and fully deterministic per
//! seed, so results are independent of scheduling: workers claim seeds
//! dynamically through [`simcore::fanout::fan_out`], which hands results
//! back in seed order. Output is **bit-identical** to the serial
//! [`century::experiment::run_replicated`] for the same seeds — the
//! golden-digest suite pins this with [`FleetReport::digest`] equality.
//!
//! A panic inside one replicate is caught at the replicate boundary and
//! surfaced as [`ParallelError::ReplicatePanicked`] **with the failing
//! seed** — a 64-seed batch that dies on seed 41 tells you so, instead
//! of handing back a bare payload that leaves you bisecting. When
//! several replicates panic, the smallest seed wins deterministically,
//! independent of thread scheduling.

use century::experiment::ExperimentOutcome;
use century::metrics::{ArmRow, ArmSummary};
use fleet::sim::{FleetConfig, FleetReport, FleetSim};
use simcore::event::EventQueue;
use simcore::fanout::fan_out;

/// Failures of the parallel runners: bad preconditions, or a replicate
/// that panicked mid-run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParallelError {
    /// `replicates` was zero: there would be no reports to aggregate.
    ZeroReplicates,
    /// `threads` was zero: no worker could claim a seed.
    ZeroThreads,
    /// One replicate's config construction or simulation run panicked.
    /// When several do, the smallest seed is reported, deterministically.
    ReplicatePanicked {
        /// The seed whose replicate died (`base_seed + index`).
        seed: u64,
        /// The panic payload, stringified (`<non-string panic payload>`
        /// when the payload was neither `String` nor `&str`).
        message: String,
    },
}

impl core::fmt::Display for ParallelError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ParallelError::ZeroReplicates => f.write_str("need at least one replicate"),
            ParallelError::ZeroThreads => f.write_str("need at least one thread"),
            ParallelError::ReplicatePanicked { seed, message } => {
                write!(f, "replicate seed {seed} panicked: {message}")
            }
        }
    }
}

impl std::error::Error for ParallelError {}

/// Runs `replicates` seeds (`base_seed..base_seed+replicates`) across
/// `threads` workers, returning reports in seed order.
///
/// # Errors
///
/// [`ParallelError`] if `replicates` or `threads` is zero, or
/// [`ParallelError::ReplicatePanicked`] (naming the smallest failing
/// seed) if any replicate panics.
pub fn run_reports(
    make_config: &(dyn Fn(u64) -> FleetConfig + Sync),
    base_seed: u64,
    replicates: usize,
    threads: usize,
) -> Result<Vec<FleetReport>, ParallelError> {
    run_seeds(make_config, base_seed, replicates, threads, |report| report)
}

/// The replicate runner behind the report and summary runners: fans the
/// seeds out over `threads` workers, recycles one event queue per worker
/// across all the seeds it claims (see [`FleetSim::run_with_queue`]), and
/// maps each finished report through `extract` so callers choose how much
/// of it outlives the run. Results come back in seed order.
fn run_seeds<T: Send>(
    make_config: &(dyn Fn(u64) -> FleetConfig + Sync),
    base_seed: u64,
    replicates: usize,
    threads: usize,
    extract: impl Fn(FleetReport) -> T + Sync,
) -> Result<Vec<T>, ParallelError> {
    if replicates == 0 {
        return Err(ParallelError::ZeroReplicates);
    }
    if threads == 0 {
        return Err(ParallelError::ZeroThreads);
    }
    let seeds = (0..replicates as u64).map(|i| base_seed + i).collect();
    fan_out(seeds, threads, EventQueue::new, |queue, _, seed| {
        let report;
        (report, *queue) = FleetSim::run_with_queue(make_config(seed), std::mem::take(queue));
        extract(report)
    })
    .map_err(|p| ParallelError::ReplicatePanicked {
        seed: base_seed + p.index as u64,
        message: p.message(),
    })
}

/// Parallel equivalent of [`century::experiment::run_replicated`]:
/// identical summaries, wall-clock divided by the worker count.
///
/// # Errors
///
/// [`ParallelError`] if `replicates` or `threads` is zero.
pub fn run_replicated_parallel(
    make_config: &(dyn Fn(u64) -> FleetConfig + Sync),
    base_seed: u64,
    replicates: usize,
    threads: usize,
) -> Result<ExperimentOutcome, ParallelError> {
    let reports = run_reports(make_config, base_seed, replicates, threads)?;
    let mut arms: Vec<ArmSummary> = reports[0]
        .arms
        .iter()
        .map(|a| ArmSummary::new(a.name))
        .collect();
    for report in &reports {
        for (summary, arm) in arms.iter_mut().zip(&report.arms) {
            summary.add(arm);
        }
    }
    // `replicates` is checked nonzero on entry, so a report always exists;
    // re-surface the same error rather than panic if that ever changes.
    let Some(exemplar) = reports.into_iter().next() else {
        return Err(ParallelError::ZeroReplicates);
    };
    Ok(ExperimentOutcome { arms, exemplar, replicates })
}

/// Summary-only fast path: like [`run_replicated_parallel`] but each
/// worker reduces a replicate to its [`ArmRow`] scalars as soon as the
/// run finishes, so full `FleetReport`s (diary, spans, metric snapshots)
/// never pile up behind the join barrier — memory stays O(threads)
/// instead of O(replicates). Rows are folded in seed order, making the
/// resulting [`ArmSummary`]s bit-identical to the serial
/// [`century::experiment::run_replicated`] for the same seeds.
///
/// # Errors
///
/// [`ParallelError`] if `replicates` or `threads` is zero.
pub fn run_replicated_parallel_summaries(
    make_config: &(dyn Fn(u64) -> FleetConfig + Sync),
    base_seed: u64,
    replicates: usize,
    threads: usize,
) -> Result<Vec<ArmSummary>, ParallelError> {
    let rows = run_seeds(make_config, base_seed, replicates, threads, |report| {
        report.arms.iter().map(ArmRow::of).collect::<Vec<ArmRow>>()
    })?;
    let mut arms: Vec<ArmSummary> = rows[0].iter().map(|r| ArmSummary::new(r.name)).collect();
    for rows in &rows {
        for (summary, row) in arms.iter_mut().zip(rows) {
            summary.add_row(row);
        }
    }
    Ok(arms)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_matches_serial_exactly() {
        let serial = century::experiment::run_replicated(FleetConfig::paper_experiment, 900, 4);
        let parallel =
            run_replicated_parallel(&FleetConfig::paper_experiment, 900, 4, 4).unwrap();
        assert_eq!(serial.replicates, parallel.replicates);
        for (s, p) in serial.arms.iter().zip(&parallel.arms) {
            assert_eq!(s.name, p.name);
            assert_eq!(s.uptime.values(), p.uptime.values());
            assert_eq!(s.spend_dollars.values(), p.spend_dollars.values());
        }
        assert_eq!(
            serial.exemplar.arms[0].readings_delivered,
            parallel.exemplar.arms[0].readings_delivered
        );
    }

    #[test]
    fn parallel_digests_match_serial() {
        // The acceptance bar for the observability layer: same seed ⇒ the
        // same run digest whether the replicate ran serial or threaded.
        let serial: Vec<u64> = (0..4)
            .map(|i| FleetSim::run(FleetConfig::paper_experiment(900 + i)).digest())
            .collect();
        let parallel: Vec<u64> = run_reports(&FleetConfig::paper_experiment, 900, 4, 4)
            .unwrap()
            .iter()
            .map(FleetReport::digest)
            .collect();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn reports_in_seed_order_regardless_of_threads() {
        let one = run_reports(&FleetConfig::paper_experiment, 50, 6, 1).unwrap();
        let many = run_reports(&FleetConfig::paper_experiment, 50, 6, 6).unwrap();
        for (a, b) in one.iter().zip(&many) {
            assert_eq!(a.arms[0].readings_delivered, b.arms[0].readings_delivered);
            assert_eq!(a.diary.len(), b.diary.len());
        }
    }

    #[test]
    fn summaries_fast_path_matches_serial_bit_for_bit() {
        let serial = century::experiment::run_replicated(FleetConfig::paper_experiment, 700, 5);
        let fast = run_replicated_parallel_summaries(&FleetConfig::paper_experiment, 700, 5, 3)
            .expect("nonzero replicates and threads");
        assert_eq!(serial.arms.len(), fast.len());
        for (s, f) in serial.arms.iter().zip(&fast) {
            assert_eq!(s.name, f.name);
            assert_eq!(s.replicates(), f.replicates());
            // Samples must match in value AND order (seed order), not
            // just as a multiset.
            assert_eq!(s.uptime.values(), f.uptime.values());
            assert_eq!(s.data_yield.values(), f.data_yield.values());
            assert_eq!(s.device_failures.values(), f.device_failures.values());
            assert_eq!(s.gateway_repairs.values(), f.gateway_repairs.values());
            assert_eq!(s.spend_dollars.values(), f.spend_dollars.values());
            assert_eq!(s.labor_hours.values(), f.labor_hours.values());
        }
    }

    #[test]
    fn summaries_fast_path_checks_preconditions() {
        assert_eq!(
            run_replicated_parallel_summaries(&FleetConfig::paper_experiment, 1, 0, 4)
                .unwrap_err(),
            ParallelError::ZeroReplicates
        );
        assert_eq!(
            run_replicated_parallel_summaries(&FleetConfig::paper_experiment, 1, 4, 0)
                .unwrap_err(),
            ParallelError::ZeroThreads
        );
    }

    #[test]
    fn more_threads_than_replicates_is_fine() {
        let out = run_reports(&FleetConfig::paper_experiment, 1, 2, 16).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn zero_preconditions_are_typed_errors() {
        assert_eq!(
            run_reports(&FleetConfig::paper_experiment, 1, 0, 4).unwrap_err(),
            ParallelError::ZeroReplicates
        );
        assert_eq!(
            run_reports(&FleetConfig::paper_experiment, 1, 4, 0).unwrap_err(),
            ParallelError::ZeroThreads
        );
        match run_replicated_parallel(&FleetConfig::paper_experiment, 1, 0, 4) {
            Err(e @ ParallelError::ZeroReplicates) => {
                assert_eq!(e.to_string(), "need at least one replicate");
            }
            other => panic!("expected ZeroReplicates, got {other:?}"),
        }
    }

    #[test]
    fn replicate_panic_reports_the_failing_seed() {
        // Regression: the panic message itself does NOT name the seed —
        // the runner must thread it through the typed error.
        let boom = |seed: u64| -> FleetConfig {
            assert!(seed != 103, "config rejected");
            FleetConfig::paper_experiment(seed)
        };
        let err = run_reports(&boom, 100, 6, 2).unwrap_err();
        match &err {
            ParallelError::ReplicatePanicked { seed, message } => {
                assert_eq!(*seed, 103, "the failing replicate's seed");
                assert!(message.contains("config rejected"), "payload survives: {message:?}");
            }
            other => panic!("expected ReplicatePanicked, got {other:?}"),
        }
        let shown = err.to_string();
        assert!(shown.contains("seed 103"), "Display names the seed: {shown}");
        assert!(shown.contains("config rejected"), "Display keeps the payload: {shown}");
    }

    #[test]
    fn multiple_panics_report_the_smallest_seed_deterministically() {
        let boom = |seed: u64| -> FleetConfig {
            assert!(seed != 2 && seed != 4, "boom");
            FleetConfig::paper_experiment(seed)
        };
        // Max parallelism so both failing seeds are usually claimed by
        // different workers; the collector must still pick seed 2.
        for _ in 0..4 {
            match run_reports(&boom, 0, 6, 6).unwrap_err() {
                ParallelError::ReplicatePanicked { seed, .. } => assert_eq!(seed, 2),
                other => panic!("expected ReplicatePanicked, got {other:?}"),
            }
        }
    }

    #[test]
    fn summaries_fast_path_reports_panics_too() {
        let boom = |seed: u64| -> FleetConfig {
            assert!(seed != 1, "boom");
            FleetConfig::paper_experiment(seed)
        };
        match run_replicated_parallel_summaries(&boom, 0, 3, 2).unwrap_err() {
            ParallelError::ReplicatePanicked { seed, .. } => assert_eq!(seed, 1),
            other => panic!("expected ReplicatePanicked, got {other:?}"),
        }
    }
}
