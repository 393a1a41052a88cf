//! Crash recovery of a live run, measured in `city_1m`'s traced run: the
//! fleet is built and run to mid-horizon, then each repetition writes a
//! sealed checkpoint from that engine, restores it from the file, runs it
//! to the horizon and digests it.

use std::path::{Path, PathBuf};

use fleet::sim::{FleetConfig, FleetSim};
use fleet::snapshot::{self, ChaosProgress};
use simcore::time::WEEK;
use simcore::{Engine, SimDuration, SimTime};

use crate::check::Checker;
use crate::common::timed;
use crate::trace::Tracer;

/// The week boundary halfway to the horizon, where checkpoints are taken.
fn mid_horizon(cfg: &FleetConfig) -> SimTime {
    SimTime::ZERO + SimDuration::from_weeks(cfg.horizon.as_secs() / WEEK / 2)
}

/// A live run held at a mid-horizon instant, checkpointed and recovered
/// repeatedly. Digests are kept and checked after the timed regions.
pub struct Recovery {
    cfg: FleetConfig,
    engine: Engine<FleetSim>,
    path: PathBuf,
    digests: Vec<Result<u64, String>>,
}

impl Recovery {
    /// Builds `cfg` and runs it to mid-horizon.
    pub fn start(cfg: FleetConfig, dir: &Path) -> Recovery {
        let mut engine = FleetSim::build(cfg.clone());
        engine.run_until(mid_horizon(&cfg));
        Recovery {
            cfg,
            engine,
            path: dir.join("checkpoint.snap"),
            digests: Vec::new(),
        }
    }

    /// Writes a sealed checkpoint from the live engine, then restores it
    /// from the file, runs it to the horizon and digests it. Returns the
    /// seconds of both halves.
    pub fn once(&mut self) -> (f64, f64) {
        let (written, checkpoint) = timed(|| {
            snapshot::write_checkpoint(&self.path, &mut self.engine, ChaosProgress::default())
        });
        let (digest, recover) = timed(|| {
            snapshot::resume_from(&self.path, self.cfg.clone()).map(|r| r.run_to_horizon().digest())
        });
        self.digests.push(
            written
                .and(digest)
                .map_err(|e| format!("checkpoint/recover failed: {e}")),
        );
        (checkpoint, recover)
    }

    /// [`once`](Self::once) broken into spans around each public call,
    /// under a root span `recovery`.
    pub fn once_traced(&mut self, tracer: &Tracer, iter: u64) {
        let root = tracer.open("recovery", None, iter);
        let p = Some(root.id());
        let bytes = tracer.time("fleet.snapshot.encode", p, iter, || {
            snapshot::checkpoint_bytes(&mut self.engine, ChaosProgress::default())
        });
        let written = tracer.time("simcore.snapshot.write", p, iter, || {
            simcore::snapshot::write_atomic(&self.path, &bytes)
        });
        let len = bytes.len();
        drop(bytes);
        let read = tracer.time("simcore.snapshot.read", p, iter, || {
            std::fs::read(&self.path)
        });
        let digest = written.map_err(|e| e.to_string()).and_then(|()| {
            let bytes = read.map_err(|e| e.to_string())?;
            let resumed = tracer.time("fleet.snapshot.decode", p, iter, || {
                snapshot::resume_from_bytes(&bytes, self.cfg.clone())
            });
            drop(bytes);
            let report = tracer.time("fleet.resume.run", p, iter, || {
                resumed.map(fleet::snapshot::ResumedFleet::run_to_horizon)
            });
            let report = report.map_err(|e| e.to_string())?;
            Ok(tracer.time("telemetry.digest", p, iter, || report.digest()))
        });
        tracer.close(root);
        tracer.count("fleet.snapshot.bytes", len as f64);
        self.digests
            .push(digest.map_err(|e| format!("checkpoint/recover failed: {e}")));
    }

    /// One operation per recovery: its digest must equal `reference`, the
    /// uninterrupted run's.
    pub fn check(&self, reference: u64, checks: &mut Checker) {
        for d in &self.digests {
            checks.attempt(1);
            match d {
                Ok(d) => checks.digest("recovered run", *d, reference),
                Err(e) => checks.fail(e.clone()),
            }
        }
    }
}
