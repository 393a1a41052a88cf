//! `paper_mc`: the paper's two-arm 50-year experiment as a Monte Carlo
//! over a seed range, fanned out over two threads by
//! `bench::parallel::run_reports`. Each seed runs under the production
//! config and again under aggregate sampling.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use bench::parallel::run_reports;
use fleet::sim::{FleetConfig, FleetReport, FleetSim, SamplingMode};

use crate::check::Checker;
use crate::common::{self, mix, secs, timed, E2e, SETUP_REPS};
use crate::report::Metric;
use crate::trace::Tracer;
use crate::Ctx;

/// Seeds per Monte Carlo batch; each runs under both sampling modes.
const SEEDS: usize = 64;

/// Seeds behind the uptime check, the first [`SEEDS`] of them shared with
/// the batch: the per-seed uptime is skewed (rare outage seeds), so a
/// 64-seed standard error understates the spread often enough to fail a
/// correct run; ROADMAP's reference values come from 256 seeds too.
const UPTIME_SEEDS: usize = 256;

/// Replicate threads.
const THREADS: usize = 2;

/// Mean weekly uptime over 256 seeds, as ROADMAP records it:
/// `(arm, aggregate sampling, value)`.
const UPTIME_256: [(usize, bool, f64); 4] = [
    (0, false, 0.9958),
    (0, true, 0.9954),
    (1, false, 0.9996),
    (1, true, 0.9996),
];

/// The seed range of one workload seed.
struct Batch {
    base: u64,
}

impl Batch {
    fn new(seed: u64) -> Batch {
        Batch {
            base: mix(seed, 1) % 1_000_000_000,
        }
    }

    /// Replicate `i`: seed `base + i / 2`, production config for even `i`
    /// and aggregate sampling for odd `i`.
    fn config(&self, i: u64) -> FleetConfig {
        let cfg = FleetConfig::paper_experiment(self.base + i / 2);
        if i % 2 == 1 {
            cfg.with_sampling(SamplingMode::Aggregate)
        } else {
            cfg
        }
    }

    /// Replicates of one timed batch.
    fn runs(&self) -> usize {
        2 * SEEDS
    }

    /// The first `seeds` seeds under both modes through `run_reports`.
    fn run(&self, seeds: usize, threads: usize) -> Result<Vec<FleetReport>, String> {
        run_reports(&|i| self.config(i), 0, 2 * seeds, threads).map_err(|e| e.to_string())
    }

    /// Serial `FleetSim::run` digests of every replicate of a batch.
    fn references(&self) -> Vec<u64> {
        (0..self.runs() as u64)
            .map(|i| FleetSim::run(self.config(i)).digest())
            .collect()
    }

    /// Compares one batch's digests with the references, one operation
    /// per replicate.
    fn check(&self, digests: &[u64], refs: &[u64], checks: &mut Checker) {
        checks.expect(digests.len() == refs.len(), || {
            "batch lost replicates".to_string()
        });
        for (i, (&got, &want)) in digests.iter().zip(refs).enumerate() {
            checks.digest(&format!("replicate {i}"), got, want);
        }
    }

    /// Each arm's mean uptime under each mode over [`UPTIME_SEEDS`] seeds
    /// must lie within four standard errors (from those seeds) of the
    /// 256-seed reference. One operation per arm and mode.
    fn check_uptime(&self, checks: &mut Checker) -> Result<(), String> {
        let reports = self.run(UPTIME_SEEDS, THREADS)?;
        for (arm, aggregate, want) in UPTIME_256 {
            let xs: Vec<f64> = reports
                .iter()
                .skip(usize::from(aggregate))
                .step_by(2)
                .map(|r| r.arms[arm].uptime())
                .collect();
            let mode = if aggregate { "aggregate" } else { "production" };
            checks.attempt(1);
            checks.within_se(&format!("arm {arm} {mode} uptime"), &xs, want, 4.0);
        }
        Ok(())
    }
}

/// The untraced run.
pub fn run(ctx: &Ctx, checks: &mut Checker) -> Result<(E2e, Vec<String>), String> {
    let batch = Batch::new(ctx.seed);
    let mut e2e = E2e::default();
    for _ in 0..SETUP_REPS {
        let (reports, s) = timed(|| batch.run(SEEDS, THREADS));
        reports?;
        e2e.setup.push(s);
    }
    let mut batches: Vec<Vec<u64>> = Vec::new();
    let window = Instant::now();
    while secs(window) < ctx.seconds {
        let ((reports, digests), s) = timed(|| {
            let reports = batch.run(SEEDS, THREADS);
            let digests: Vec<u64> = reports
                .as_ref()
                .map(|r| r.iter().map(FleetReport::digest).collect())
                .unwrap_or_default();
            (reports, digests)
        });
        reports?;
        e2e.iters.push(s);
        e2e.runs += batch.runs() as u64;
        batches.push(digests);
    }
    e2e.window = secs(window);
    e2e.peak_rss_mb = common::peak_rss_mb();

    let refs = batch.references();
    for digests in &batches {
        checks.attempt(batch.runs() as u64);
        batch.check(digests, &refs, checks);
    }
    batch.check_uptime(checks)?;
    let notes = vec![format!(
        "seeds {}..{} x {{production, aggregate}}, {} runs per batch on {THREADS} threads; uptime checked over {UPTIME_SEEDS} seeds",
        batch.base,
        batch.base + SEEDS as u64,
        batch.runs()
    )];
    Ok((e2e, notes))
}

/// The traced run: the same seeds driven through build, `run_until` and
/// `into_report` on two threads, plus `run_reports` at one and two
/// threads for the scaling ratio.
pub fn traced(
    ctx: &Ctx,
    tracer: &Tracer,
    checks: &mut Checker,
) -> Result<(Vec<Metric>, Vec<String>), String> {
    let batch = Batch::new(ctx.seed);
    let refs = batch.references();
    let half = ctx.seconds / 2.0;

    // Untraced baseline for the tracing overhead.
    let mut untraced = Vec::new();
    let t = Instant::now();
    while secs(t) < half {
        let (reports, s) = timed(|| batch.run(SEEDS, THREADS));
        reports?;
        untraced.push(s);
    }

    let reports = Mutex::new(Vec::new());
    let mut traced = Vec::new();
    let t = Instant::now();
    let mut iter = 0;
    while secs(t) < half || traced.is_empty() {
        let (digests, s) = timed(|| decomposed(&batch, tracer, iter, &reports));
        checks.attempt(batch.runs() as u64);
        batch.check(&digests, &refs, checks);
        traced.push(s);
        iter += 1;
    }

    let parallel = tracer.time("bench.parallel.run_reports", None, iter, || {
        batch.run(SEEDS, THREADS)
    });
    let serial = tracer.time("bench.parallel.run_reports_serial", None, iter + 1, || {
        batch.run(SEEDS, 1)
    });
    for r in [parallel, serial] {
        let digests: Vec<u64> = r?.iter().map(FleetReport::digest).collect();
        checks.attempt(batch.runs() as u64);
        batch.check(&digests, &refs, checks);
    }

    let spans = tracer.spans();
    let dur = |name: &str| {
        spans
            .iter()
            .find(|s| s.name == name)
            .map_or(f64::NAN, |s| (s.end - s.start) as f64)
    };
    let scaling = dur("bench.parallel.run_reports_serial") / dur("bench.parallel.run_reports");
    let reports = reports
        .into_inner()
        .map_err(|_| "a traced worker panicked".to_string())?;
    let builds: Vec<f64> = spans
        .iter()
        .filter(|s| s.name.starts_with("fleet.build."))
        .map(|s| (s.end - s.start) as f64 / 1e6)
        .collect();
    let mut metrics = vec![
        Metric::new(
            "bench.parallel.scaling",
            scaling,
            2,
            "run_reports serial time / 2-thread time, same seeds",
        ),
        Metric::new(
            "fleet.build.ms",
            builds.iter().sum::<f64>() / builds.len() as f64,
            builds.len(),
            "mean per build over both modes",
        ),
        crate::overhead(&untraced, &traced),
    ];
    metrics.extend(common::engine_counts(&reports.iter().collect::<Vec<_>>()));
    Ok((metrics, Vec::new()))
}

/// One batch as build → `run_until` → `into_report` → digest per
/// replicate, on [`THREADS`] threads under one root span. Keeps the last
/// batch's reports for the engine counts and returns the digests.
fn decomposed(
    batch: &Batch,
    tracer: &Tracer,
    iter: u64,
    keep: &Mutex<Vec<FleetReport>>,
) -> Vec<u64> {
    let root = tracer.open("iteration", None, iter);
    let parent = Some(root.id());
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, FleetReport)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= batch.runs() {
                            return mine;
                        }
                        let cfg = batch.config(i as u64);
                        let horizon = common::horizon(&cfg);
                        let build = if i % 2 == 1 {
                            "fleet.build.aggregate"
                        } else {
                            "fleet.build.legacy"
                        };
                        let mut engine = tracer.time(build, parent, iter, || FleetSim::build(cfg));
                        tracer.time("simcore.engine.run", parent, iter, || {
                            engine.run_until(horizon)
                        });
                        let report = tracer.time("fleet.finalize", parent, iter, || {
                            FleetSim::into_report(engine, horizon)
                        });
                        mine.push((i, report));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("a traced replicate panicked"))
            .collect()
    });
    done.sort_by_key(|&(i, _)| i);
    let digests = done
        .iter()
        .map(|(_, r)| tracer.time("telemetry.digest", parent, iter, || r.digest()))
        .collect();
    tracer.close(root);
    *keep.lock().expect("a traced worker panicked") = done.into_iter().map(|(_, r)| r).collect();
    digests
}
