//! `city_1m`: one 1M-device fleet of 16 owned arms under aggregate
//! sampling over five years. An iteration is `FleetSim::run_sharded(cfg,
//! 2)`, then `digest()`, then `export_jsonl()`.

use std::time::Instant;

use fleet::sim::{FleetConfig, FleetReport, FleetSim, SamplingMode};
use serve::scenario::{ChaosSpec, Scenario};
use serve::RunSpec;

use crate::check::Checker;
use crate::common::{self, mix, secs, timed, E2e, Scratch, SETUP_REPS};
use crate::recovery::Recovery;
use crate::report::{timing, Metric};
use crate::stats::{amdahl_serial_fraction, median};
use crate::trace::Tracer;
use crate::Ctx;

/// Devices in the fleet.
pub const DEVICES: usize = 1_000_000;

/// Horizon in years.
pub const YEARS: u64 = 5;

/// Shard threads.
const SHARDS: usize = 2;

/// Checkpoint/recover repetitions of the traced run, untraced and traced
/// each.
const RECOVERIES: usize = 3;

/// The 1M-device config of a workload seed: the daemon's `scaled`
/// scenario (16 equal owned arms) under aggregate sampling.
pub fn config(seed: u64) -> FleetConfig {
    RunSpec {
        scenario: Scenario::Scaled { devices: DEVICES },
        seed: mix(seed, 2) % 1_000_000,
        years: YEARS,
        sampling: SamplingMode::Aggregate,
        shards: SHARDS,
        chaos: ChaosSpec::Off,
    }
    .fleet_config()
}

/// What one iteration leaves for the checks.
struct Out {
    digest: u64,
    events: u64,
    jsonl_bytes: usize,
}

fn iteration(cfg: &FleetConfig) -> Result<Out, String> {
    let report = FleetSim::run_sharded(cfg.clone(), SHARDS).map_err(|e| e.to_string())?;
    let digest = report.digest();
    let jsonl = report.export_jsonl();
    Ok(Out {
        digest,
        events: report.events_processed,
        jsonl_bytes: std::hint::black_box(jsonl).len(),
    })
}

fn check(out: &Out, reference: &FleetReport, checks: &mut Checker) {
    checks.digest("sharded run", out.digest, reference.digest());
    checks.expect(out.events == reference.events_processed, || {
        format!(
            "sharded run processed {} events, serial {}",
            out.events, reference.events_processed
        )
    });
}

/// The untraced run.
pub fn run(ctx: &Ctx, checks: &mut Checker) -> Result<(E2e, Vec<String>), String> {
    let cfg = config(ctx.seed);
    let mut e2e = E2e::default();
    for _ in 0..SETUP_REPS {
        let (out, s) = timed(|| iteration(&cfg));
        out?;
        e2e.setup.push(s);
    }
    let mut outs = Vec::new();
    let window = Instant::now();
    while secs(window) < ctx.seconds {
        let (out, s) = timed(|| iteration(&cfg));
        outs.push(out?);
        e2e.iters.push(s);
        e2e.runs += 1;
    }
    e2e.window = secs(window);
    e2e.peak_rss_mb = common::peak_rss_mb();

    let reference = FleetSim::run(cfg.clone());
    for out in &outs {
        checks.attempt(1);
        check(out, &reference, checks);
    }
    let digest = reference.digest();
    let notes = vec![format!(
        "seed {} ({} devices, {YEARS} y, {SHARDS} shards), digest {digest:016x}, {} JSONL bytes",
        cfg.seed,
        DEVICES,
        outs.first().map_or(0, |o| o.jsonl_bytes)
    )];
    Ok((e2e, notes))
}

/// The traced run: `build_parallel_with(cfg, 2)` then
/// `fleet::shard::run_resumed(engine, 2)`, digest and export under one
/// root span; the serial `build` / `run_until` / `into_report` path is the
/// base of the shard speedup.
pub fn traced(
    ctx: &Ctx,
    tracer: &Tracer,
    checks: &mut Checker,
) -> Result<(Vec<Metric>, Vec<String>), String> {
    let cfg = config(ctx.seed);
    let half = ctx.seconds / 2.0;
    let mut untraced = Vec::new();
    let t = Instant::now();
    while secs(t) < half {
        let (out, s) = timed(|| iteration(&cfg));
        out?;
        untraced.push(s);
    }

    let mut traced = Vec::new();
    let mut sharded_s = Vec::new();
    let mut serial_s = Vec::new();
    let mut handler = Vec::new();
    let mut last = None;
    let t = Instant::now();
    let mut iter = 0;
    while secs(t) < half || traced.is_empty() {
        let t0 = Instant::now();
        let root = tracer.open("iteration", None, iter);
        let p = Some(root.id());
        let (report, sharded) = timed(|| {
            let engine = tracer.time("fleet.build", p, iter, || {
                FleetSim::build_parallel_with(cfg.clone(), SHARDS)
            });
            tracer.time("fleet.shard.run", p, iter, || {
                fleet::shard::run_resumed(engine, SHARDS)
            })
        });
        let report = report.map_err(|e| e.to_string())?;
        let digest = tracer.time("telemetry.digest", p, iter, || report.digest());
        let jsonl = tracer.time("telemetry.jsonl", p, iter, || report.export_jsonl());
        tracer.close(root);
        traced.push(secs(t0));
        tracer.count("telemetry.jsonl_bytes", jsonl.len() as f64);
        drop(jsonl);
        sharded_s.push(sharded);

        // The serial decomposition of the same run.
        let root = tracer.open("serial", None, iter);
        let p = Some(root.id());
        let horizon = common::horizon(&cfg);
        let mut run_until = 0.0;
        let (serial, s) = timed(|| {
            let mut engine = tracer.time("serial.fleet.build", p, iter, || {
                FleetSim::build(cfg.clone())
            });
            run_until =
                timed(|| tracer.time("simcore.engine.run", p, iter, || engine.run_until(horizon)))
                    .1;
            tracer.time("fleet.finalize", p, iter, || {
                FleetSim::into_report(engine, horizon)
            })
        });
        handler.push((serial.profile.handler_nanos() as f64 / 1e9, run_until));
        tracer.close(root);
        serial_s.push(s);
        checks.attempt(1);
        check(
            &Out {
                digest,
                events: report.events_processed,
                jsonl_bytes: 0,
            },
            &serial,
            checks,
        );
        last = Some((report, serial.digest()));
        iter += 1;
    }

    let speedup = median(&serial_s) / median(&sharded_s);
    let mut metrics = vec![
        Metric::new(
            "fleet.shard.speedup",
            speedup,
            sharded_s.len(),
            "serial build+run_until+into_report / build_parallel_with+run_resumed",
        ),
        Metric::new(
            "fleet.shard.serial_fraction",
            amdahl_serial_fraction(speedup, SHARDS as f64),
            sharded_s.len(),
            "Amdahl at k=2 from fleet.shard.speedup",
        ),
        crate::overhead(&untraced, &traced),
    ];
    let (report, reference) = last.ok_or("no traced iteration")?;
    metrics.extend(common::engine_counts(&[&report]));
    drop(report);

    // Crash recovery of this run: checkpoint stall and file-to-digest
    // recovery, untraced for `checkpoint_s`/`recover_s`, then traced.
    let scratch = Scratch::new(&ctx.out, "city_1m")?;
    let mut rec = Recovery::start(cfg, scratch.path());
    let (mut checkpoint, mut recover) = (Vec::new(), Vec::new());
    for _ in 0..RECOVERIES {
        let (c, r) = rec.once();
        checkpoint.push(c);
        recover.push(r);
    }
    for i in 0..RECOVERIES as u64 {
        rec.once_traced(tracer, i);
    }
    rec.check(reference, checks);
    metrics.push(timing("checkpoint_s", &checkpoint, 1.0, "s"));
    metrics.push(timing("recover_s", &recover, 1.0, "s"));
    let notes = handler
        .iter()
        .map(|(h, r)| {
            format!("EngineProfile::handler_nanos estimates {h:.3} s inside a {r:.3} s serial run_until (not a layer time)")
        })
        .collect();
    Ok((metrics, notes))
}
