//! The century benchmark: three workloads, each checked for correct
//! output, timed end to end with tracing off, or traced layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_mc|city_1m|serve_mixed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. See `README.md`.

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod check;
mod city;
mod client;
mod common;
mod paper_mc;
mod recovery;
mod report;
mod serve_mixed;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;

use check::Checker;
use common::E2e;
use report::{Metric, Outcome, END_TO_END, PER_LAYER};
use stats::median;
use trace::Tracer;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["paper_mc", "city_1m", "serve_mixed"];

/// What every workload receives.
pub struct Ctx {
    /// The workload seed; every generated input derives from it.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Directory for span files, summaries and scratch files.
    pub out: PathBuf,
}

struct Args {
    workload: String,
    ctx: Ctx,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected one of {WORKLOADS:?})"
        ));
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    Ok(Args {
        workload,
        ctx: Ctx { seed, seconds, out },
        trace,
    })
}

/// Tracing overhead: the traced median iteration over the untraced one.
pub fn overhead(untraced: &[f64], traced: &[f64]) -> Metric {
    let (u, t) = (median(untraced), median(traced));
    Metric::new(
        "trace.overhead_pct",
        (t / u - 1.0) * 100.0,
        traced.len(),
        format!(
            "traced median {:.3} ms vs untraced {:.3} ms ({} untraced)",
            t * 1e3,
            u * 1e3,
            untraced.len()
        ),
    )
}

fn untraced(args: &Args) -> Result<Outcome, String> {
    let mut checks = Checker::default();
    let ctx = &args.ctx;
    let (e2e, notes): (E2e, Vec<String>) = match args.workload.as_str() {
        "paper_mc" => paper_mc::run(ctx, &mut checks)?,
        "city_1m" => city::run(ctx, &mut checks)?,
        _ => serve_mixed::run(ctx, &mut checks)?,
    };
    Ok(finish(e2e.metrics(), checks, notes))
}

fn traced(args: &Args) -> Result<Outcome, String> {
    let mut checks = Checker::default();
    let ctx = &args.ctx;
    let tracer = Tracer::new();
    let (mut metrics, mut notes) = match args.workload.as_str() {
        "paper_mc" => paper_mc::traced(ctx, &tracer, &mut checks)?,
        "city_1m" => city::traced(ctx, &tracer, &mut checks)?,
        _ => serve_mixed::traced(ctx, &tracer, &mut checks)?,
    };
    let spans = tracer.spans();
    let layers = trace::layer_self_times(&spans);
    for &(name, unit) in PER_LAYER {
        if metrics.iter().any(|m| m.name == name) {
            continue;
        }
        let span = if name == "trace.unattributed_ms" {
            Some("iteration")
        } else if unit == "ms" {
            name.strip_suffix("_ms")
                .or_else(|| name.strip_suffix(".ms"))
        } else {
            None
        };
        if let Some((calls, _, per_call)) = span.and_then(|s| layers.get(s)) {
            let ms: Vec<f64> = per_call.iter().map(|&ns| ns as f64 / 1e6).collect();
            metrics.push(Metric::new(
                name,
                median(&ms),
                *calls,
                "median self time per call",
            ));
            continue;
        }
        let counts = tracer.counts(name);
        if !counts.is_empty() {
            metrics.push(Metric::new(
                name,
                median(&counts),
                counts.len(),
                "median per observation",
            ));
        }
    }

    std::fs::create_dir_all(&ctx.out).map_err(|e| format!("create {}: {e}", ctx.out.display()))?;
    let stem = ctx.out.join(format!("{}-seed{}", args.workload, ctx.seed));
    let spans_path = stem.with_extension("spans.jsonl");
    std::fs::write(&spans_path, trace::to_jsonl(&spans)).map_err(|e| e.to_string())?;
    let summary = summarize(&layers, &metrics);
    let summary_path = stem.with_extension("summary.txt");
    std::fs::write(&summary_path, &summary).map_err(|e| e.to_string())?;
    notes.extend(summary.lines().map(str::to_string));
    notes.push(format!(
        "spans: {} ({} spans)",
        spans_path.display(),
        spans.len()
    ));
    notes.push(format!("summary: {}", summary_path.display()));
    Ok(finish(metrics, checks, notes))
}

/// The per-layer summary: self time and calls per span name, each
/// layer's share of all recorded self time, and the overhead line.
fn summarize(
    layers: &std::collections::BTreeMap<&'static str, (usize, u64, Vec<u64>)>,
    metrics: &[Metric],
) -> String {
    let total: u64 = layers.values().map(|l| l.1).sum();
    let mut out = format!(
        "{:<36} {:>7} {:>12} {:>12} {:>7}\n",
        "span", "calls", "self ms", "median ms", "share"
    );
    for (name, (calls, ns, per_call)) in layers {
        let per: Vec<f64> = per_call.iter().map(|&n| n as f64 / 1e6).collect();
        let _ = writeln!(
            out,
            "{name:<36} {calls:>7} {:>12.3} {:>12.4} {:>6.2}%",
            *ns as f64 / 1e6,
            median(&per),
            100.0 * *ns as f64 / total.max(1) as f64
        );
    }
    let _ = writeln!(
        out,
        "share base: {:.3} ms of self time over all spans",
        total as f64 / 1e6
    );
    for m in metrics
        .iter()
        .filter(|m| m.name.starts_with("trace.") || m.note.contains('/'))
    {
        let _ = writeln!(out, "{} = {:.4} ({})", m.name, m.value, m.note);
    }
    out
}

fn finish(metrics: Vec<Metric>, checks: Checker, mut notes: Vec<String>) -> Outcome {
    notes.extend(
        checks
            .failures
            .iter()
            .take(10)
            .map(|f| format!("FAILED: {f}")),
    );
    Outcome {
        metrics,
        attempted: checks.attempted(),
        failed: checks.failed(),
        notes,
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let rendered = if args.trace {
        traced(&args).and_then(|o| report::render(&o, PER_LAYER, true))
    } else {
        untraced(&args).and_then(|o| report::render(&o, END_TO_END, false))
    };
    match rendered {
        Ok(text) => println!("{text}"),
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    }
}
