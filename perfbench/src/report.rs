//! The metric catalogue and the result printer.
//!
//! The names and units here are the ones `BENCHMARK.json` declares; a
//! test keeps the two in step.

use std::fmt::Write as _;

use crate::stats::{self, median, percentile};

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("runs_per_s", "1/s"),
    ("result_s", "s"),
    ("req_per_s", "1/s"),
    ("req_p50_ms", "ms"),
    ("req_p95_ms", "ms"),
];

/// Per-layer metrics, printed by every traced run. A layer the workload
/// does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("bench.parallel.scaling", "x"),
    ("fleet.build.legacy_ms", "ms"),
    ("fleet.build.aggregate_ms", "ms"),
    ("fleet.build.ms", "ms"),
    ("simcore.engine.run_ms", "ms"),
    ("simcore.engine.events", "count"),
    ("simcore.engine.dispatch.weekly-check", "count"),
    ("simcore.engine.dispatch.yearly-tick", "count"),
    ("simcore.engine.dispatch.device-fail", "count"),
    ("simcore.engine.dispatch.device-replace", "count"),
    ("simcore.engine.dispatch.gateway-fail", "count"),
    ("simcore.engine.dispatch.gateway-repair", "count"),
    ("simcore.engine.dispatch.provider-exit", "count"),
    ("simcore.engine.dispatch.backhaul-migrated", "count"),
    ("simcore.engine.queue_high_water", "count"),
    ("fleet.shard.run_ms", "ms"),
    ("fleet.shard.speedup", "x"),
    ("fleet.shard.serial_fraction", "ratio"),
    ("fleet.finalize.ms", "ms"),
    ("telemetry.digest_ms", "ms"),
    ("telemetry.jsonl_ms", "ms"),
    ("telemetry.jsonl_bytes", "bytes"),
    ("checkpoint_s", "s"),
    ("recover_s", "s"),
    ("fleet.snapshot.encode_ms", "ms"),
    ("simcore.snapshot.write_ms", "ms"),
    ("fleet.snapshot.bytes", "bytes"),
    ("simcore.snapshot.read_ms", "ms"),
    ("fleet.snapshot.decode_ms", "ms"),
    ("fleet.resume.run_ms", "ms"),
    ("serve.hit.first_frame_ms", "ms"),
    ("serve.hit.total_ms", "ms"),
    ("serve.miss.first_frame_ms", "ms"),
    ("serve.miss.total_ms", "ms"),
    ("serve.frames_per_req", "count"),
    ("serve.body_bytes_per_req", "bytes"),
    ("serve.cache.hits", "count"),
    ("serve.cache.misses", "count"),
    ("serve.coalesced", "count"),
    ("serve.executed", "count"),
    ("serve.cache.damaged", "count"),
    ("serve.rejected.overload", "count"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.lookup_ms", "ms"),
    ("serve.cache.store_ms", "ms"),
    ("serve.execute_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_ms", "ms"),
];

/// One measured value with the number of samples behind it.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Catalogue name.
    pub name: &'static str,
    /// The value, in the catalogue unit.
    pub value: f64,
    /// Samples the value summarizes.
    pub samples: usize,
    /// How the value was formed, for the human-readable table.
    pub note: String,
}

impl Metric {
    /// A metric with a note.
    pub fn new(name: &'static str, value: f64, samples: usize, note: impl Into<String>) -> Metric {
        Metric {
            name,
            value,
            samples,
            note: note.into(),
        }
    }
}

/// A median timing (seconds in, `scale` applied) with its reportable tail
/// in the note.
pub fn timing(name: &'static str, secs: &[f64], scale: f64, unit: &str) -> Metric {
    let scaled: Vec<f64> = secs.iter().map(|s| s * scale).collect();
    Metric::new(
        name,
        median(&scaled),
        scaled.len(),
        format!("median; {}", tail_note(&scaled, unit)),
    )
}

/// `p95` (nearest rank) of a timing, noting the highest supported tail.
pub fn timing_p95(name: &'static str, secs: &[f64], scale: f64, unit: &str) -> Metric {
    let scaled: Vec<f64> = secs.iter().map(|s| s * scale).collect();
    Metric::new(
        name,
        percentile(&scaled, 95.0),
        scaled.len(),
        format!("nearest-rank p95; {}", tail_note(&scaled, unit)),
    )
}

fn tail_note(xs: &[f64], unit: &str) -> String {
    match stats::tail(xs) {
        Some(t) => format!("highest supported tail p{} = {:.4} {unit}", t.pct, t.value),
        None => "no percentile has 10 samples beyond it".to_string(),
    }
}

/// Everything one invocation prints.
pub struct Outcome {
    /// Measured metrics (a subset of the catalogue for per-layer runs).
    pub metrics: Vec<Metric>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed an output check.
    pub failed: u64,
    /// Extra lines for the human-readable report.
    pub notes: Vec<String>,
}

/// Renders the human-readable table and the final JSON line for the
/// catalogue `names`; per-layer catalogues fill unmeasured names with 0.
///
/// # Errors
///
/// Names an end-to-end metric that was not measured, or a value that is
/// not finite.
pub fn render(
    out: &Outcome,
    catalogue: &[(&str, &str)],
    fill_zero: bool,
) -> Result<String, String> {
    let mut text = String::new();
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        out.failed == 0 && out.attempted > 0,
        out.attempted,
        out.failed
    );
    for (i, &(name, unit)) in catalogue.iter().enumerate() {
        let (value, samples, note) = match out.metrics.iter().find(|m| m.name == name) {
            Some(m) => (m.value, m.samples, m.note.as_str()),
            None if fill_zero => (0.0, 0, "not exercised by this workload"),
            None => return Err(format!("metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        let _ = writeln!(
            text,
            "{name:<40} {value:>16.6} {unit:<6} n={samples:<6} {note}"
        );
        if i > 0 {
            json.push(',');
        }
        let _ = write!(
            json,
            "\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}"
        );
    }
    json.push_str("}}");
    for n in &out.notes {
        let _ = writeln!(text, "# {n}");
    }
    text.push_str(&json);
    Ok(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and this catalogue name the same metrics in the
    /// same order with the same units.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        for (section, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let start = text
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section closes")];
            let declared: Vec<(&str, &str)> = body
                .split("\"name\":")
                .skip(1)
                .map(|entry| {
                    let name = entry.split('"').nth(1).expect("quoted name");
                    let unit = entry
                        .split("\"unit\":")
                        .nth(1)
                        .expect("unit")
                        .split('"')
                        .nth(1);
                    (name, unit.expect("quoted unit"))
                })
                .collect();
            assert_eq!(declared, catalogue.to_vec(), "{section}");
        }
    }

    #[test]
    fn render_fills_per_layer_zeros_and_refuses_missing_end_to_end() {
        let out = Outcome {
            metrics: vec![Metric::new("setup_s", 0.25, 3, "")],
            attempted: 3,
            failed: 0,
            notes: vec![],
        };
        assert!(render(&out, END_TO_END, false).is_err());
        let text = render(&out, &[("setup_s", "s"), ("other", "ms")], true).unwrap();
        let last = text.lines().last().unwrap();
        assert_eq!(
            last,
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":0.25,\"unit\":\"s\"},\"other\":{\"value\":0.0,\"unit\":\"ms\"}}}"
        );
    }

    #[test]
    fn timing_reports_median_and_count() {
        let secs: Vec<f64> = (1..=30).map(|i| f64::from(i) / 1000.0).collect();
        let m = timing("req_p50_ms", &secs, 1000.0, "ms");
        assert!((m.value - 15.0).abs() < 1e-9);
        assert_eq!(m.samples, 30);
        let p = timing_p95("req_p95_ms", &secs, 1000.0, "ms");
        assert!((p.value - 29.0).abs() < 1e-9);
    }
}
