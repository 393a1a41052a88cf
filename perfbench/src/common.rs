//! Pieces the workloads share: seed derivation, timing helpers, scratch
//! directories, the end-to-end record and engine-profile folding.

use std::path::{Path, PathBuf};
use std::time::Instant;

use fleet::sim::{FleetConfig, FleetReport};
use simcore::SimTime;

use crate::report::{timing, timing_p95, Metric};
use crate::stats::median;

/// How many times set-up work is repeated; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Derives an independent value from the workload seed (splitmix64).
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Runs `f` and returns its result with the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, secs(t))
}

/// The horizon instant of a config.
pub fn horizon(cfg: &FleetConfig) -> SimTime {
    SimTime::ZERO + cfg.horizon
}

/// Peak resident set of this process (VmHWM) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A scratch directory for cache entries and checkpoint files, removed on
/// drop.
pub struct Scratch(PathBuf);

impl Scratch {
    /// Creates `out/tmp-<tag>-<pid>` under the benchmark directory.
    pub fn new(out: &Path, tag: &str) -> Result<Scratch, String> {
        let dir = out.join(format!("tmp-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What an untraced run measured, before it becomes metrics.
#[derive(Default)]
pub struct E2e {
    /// Seconds of each set-up repetition.
    pub setup: Vec<f64>,
    /// Seconds of each timed iteration (the unit a caller waits for).
    pub iters: Vec<f64>,
    /// Digested runs completed in the timed window.
    pub runs: u64,
    /// Wall seconds of the timed window.
    pub window: f64,
    /// VmHWM right after the timed window, before output checks.
    pub peak_rss_mb: f64,
}

impl E2e {
    /// The end-to-end metrics.
    pub fn metrics(&self) -> Vec<Metric> {
        let n = self.iters.len();
        vec![
            Metric::new(
                "setup_s",
                median(&self.setup),
                self.setup.len(),
                "median set-up",
            ),
            Metric::new(
                "peak_rss_mb",
                self.peak_rss_mb,
                1,
                "VmHWM after the timed window",
            ),
            Metric::new(
                "runs_per_s",
                self.runs as f64 / self.window,
                n,
                "runs / window",
            ),
            timing("result_s", &self.iters, 1.0, "s"),
            Metric::new(
                "req_per_s",
                n as f64 / self.window,
                n,
                "iterations / window",
            ),
            timing("req_p50_ms", &self.iters, 1e3, "ms"),
            timing_p95("req_p95_ms", &self.iters, 1e3, "ms"),
        ]
    }
}

/// Engine-profile counts of finished reports, summarized per run.
pub fn engine_counts(reports: &[&FleetReport]) -> Vec<Metric> {
    let per_run = |f: &dyn Fn(&FleetReport) -> f64| -> f64 {
        median(&reports.iter().map(|r| f(r)).collect::<Vec<_>>())
    };
    let n = reports.len();
    let mut out = vec![
        Metric::new(
            "simcore.engine.events",
            per_run(&|r| r.events_processed as f64),
            n,
            "median per run",
        ),
        Metric::new(
            "simcore.engine.queue_high_water",
            per_run(&|r| r.profile.queue_high_water as f64),
            n,
            "median per run",
        ),
    ];
    for &(name, _) in crate::report::PER_LAYER {
        if let Some(kind) = name.strip_prefix("simcore.engine.dispatch.") {
            let v = per_run(&|r| r.profile.count(kind) as f64);
            out.push(Metric::new(name, v, n, "median dispatches per run"));
        }
    }
    out
}
