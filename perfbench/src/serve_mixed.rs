//! `serve_mixed`: the daemon on loopback with a fresh cache directory,
//! driven by two closed-loop clients with one persistent connection each.
//! Every request is a streamed `op:"run"` of the paper scenario; three in
//! four come from a hot seed set warmed during set-up (certain hits), the
//! rest use fresh seeds unique to each client (certain misses).

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use fleet::sim::{FleetSim, SamplingMode};
use serve::cache::{Lookup, ResultCache};
use serve::client::{Client, Response};
use serve::scenario::{ChaosSpec, RunArtifact, Scenario};
use serve::{RunSpec, Server, ServerConfig};

use crate::check::Checker;
use crate::client::{request, Reply, Timing};
use crate::common::{self, mix, secs, timed, E2e, Scratch, SETUP_REPS};
use crate::report::Metric;
use crate::stats::median;
use crate::trace::Tracer;
use crate::Ctx;

/// Seeds in the hot set.
const HOT: u64 = 16;

/// Closed-loop clients, one connection each.
const CLIENTS: u64 = 2;

/// Hot requests per [`MIX_OF`] requests.
const HOT_OF_MIX: u64 = 3;
const MIX_OF: u64 = 4;

/// Requests one client may send in a phase; fresh seeds are numbered
/// within this stride so clients and phases never share one.
const STRIDE: u64 = 1_000_000;

/// Seeds and request order of one workload seed.
struct Plan {
    seed: u64,
    hot_base: u64,
    fresh_base: u64,
}

impl Plan {
    fn new(seed: u64) -> Plan {
        Plan {
            seed,
            hot_base: mix(seed, 3) % 1_000_000_000,
            fresh_base: 2_000_000_000 + mix(seed, 4) % 1_000_000_000,
        }
    }

    fn hot(&self, j: u64) -> u64 {
        self.hot_base + j
    }

    /// Request `k` of `client` in `phase`: its seed and whether it is hot.
    fn pick(&self, phase: u64, client: u64, k: u64) -> (u64, bool) {
        let r = mix(self.seed, ((phase * CLIENTS + client) << 32) | k);
        if r % MIX_OF < HOT_OF_MIX {
            (self.hot((r >> 8) % HOT), true)
        } else {
            (
                self.fresh_base + (phase * CLIENTS + client) * STRIDE + k,
                false,
            )
        }
    }
}

/// The run request a seed stands for, as the daemon parses it.
fn spec(seed: u64) -> RunSpec {
    RunSpec {
        scenario: Scenario::Paper,
        seed,
        years: 50,
        sampling: SamplingMode::Legacy,
        shards: 1,
        chaos: ChaosSpec::Off,
    }
}

/// One answered (or failed) request.
struct Record {
    id: u64,
    seed: u64,
    hot: bool,
    answer: Result<(Reply, Timing), String>,
}

/// Starts a daemon on a fresh cache directory and warms the hot set.
fn start(plan: &Plan, cache: &Path) -> Result<Server, String> {
    let server =
        Server::start(ServerConfig::local(cache.to_path_buf())).map_err(|e| e.to_string())?;
    let mut client = Client::connect(&server.addr().to_string()).map_err(|e| e.to_string())?;
    for j in 0..HOT {
        let (reply, _) = request(&mut client, plan.hot(j))?;
        if reply.served != "miss" {
            return Err(format!(
                "warming hot seed {} was served {}",
                plan.hot(j),
                reply.served
            ));
        }
    }
    Ok(server)
}

/// Drives the daemon from [`CLIENTS`] closed-loop clients for `seconds`.
fn drive(plan: &Plan, server: &Server, phase: u64, seconds: f64) -> Vec<Record> {
    let addr = server.addr().to_string();
    let deadline = Instant::now();
    std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let addr = &addr;
                s.spawn(move || {
                    let mut out = Vec::new();
                    let mut client = match Client::connect(addr) {
                        Ok(client) => client,
                        Err(e) => {
                            let (seed, hot) = plan.pick(phase, c, 0);
                            out.push(Record {
                                id: 0,
                                seed,
                                hot,
                                answer: Err(e.to_string()),
                            });
                            return out;
                        }
                    };
                    let mut k = 0;
                    while secs(deadline) < seconds {
                        let (seed, hot) = plan.pick(phase, c, k);
                        let answer = request(&mut client, seed);
                        let failed = answer.is_err();
                        out.push(Record {
                            id: (phase * CLIENTS + c) * STRIDE + k,
                            seed,
                            hot,
                            answer,
                        });
                        if failed {
                            break;
                        }
                        k += 1;
                    }
                    out
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("a client thread panicked"))
            .collect()
    })
}

/// Reference artifacts for every seed the records name.
fn references(records: &[Record]) -> Result<BTreeMap<u64, RunArtifact>, String> {
    let mut refs = BTreeMap::new();
    for r in records {
        if let std::collections::btree_map::Entry::Vacant(slot) = refs.entry(r.seed) {
            slot.insert(spec(r.seed).execute().map_err(|e| e.to_string())?);
        }
    }
    Ok(refs)
}

/// One operation per request: digest, streamed body and served class.
fn check(records: &[Record], refs: &BTreeMap<u64, RunArtifact>, checks: &mut Checker) {
    for r in records {
        checks.attempt(1);
        let (reply, _) = match &r.answer {
            Ok(answer) => answer,
            Err(e) => {
                checks.fail(format!("request {} (seed {}): {e}", r.id, r.seed));
                continue;
            }
        };
        let want = &refs[&r.seed];
        let class = if r.hot { "hit" } else { "miss" };
        let why = if reply.digest != want.digest {
            Some(format!(
                "digest {:016x} != execute {:016x}",
                reply.digest, want.digest
            ))
        } else if reply.lines.len() as u64 != reply.body_lines {
            Some(format!(
                "{} lines streamed, body_lines {}",
                reply.lines.len(),
                reply.body_lines
            ))
        } else if reply.body() != want.body {
            Some("streamed lines do not rejoin to export_jsonl".to_string())
        } else if reply.served != class {
            Some(format!("served {} where {class} was certain", reply.served))
        } else {
            None
        };
        if let Some(why) = why {
            checks.fail(format!("request {} (seed {}): {why}", r.id, r.seed));
        }
    }
}

fn latencies(records: &[Record]) -> Vec<f64> {
    records
        .iter()
        .filter_map(|r| r.answer.as_ref().ok())
        .map(|(_, t)| t.end.duration_since(t.start).as_secs_f64())
        .collect()
}

/// The untraced run.
pub fn run(ctx: &Ctx, checks: &mut Checker) -> Result<(E2e, Vec<String>), String> {
    let plan = Plan::new(ctx.seed);
    let scratch = Scratch::new(&ctx.out, "serve_mixed")?;
    let mut e2e = E2e::default();
    let mut server = None;
    for rep in 0..SETUP_REPS {
        drop(server.take());
        let (started, s) = timed(|| start(&plan, &scratch.path().join(format!("cache-{rep}"))));
        server = Some(started?);
        e2e.setup.push(s);
    }
    let server = server.ok_or("no daemon started")?;
    let window = Instant::now();
    let records = drive(&plan, &server, 0, ctx.seconds);
    e2e.window = secs(window);
    e2e.peak_rss_mb = common::peak_rss_mb();
    drop(server);
    e2e.iters = latencies(&records);
    e2e.runs = e2e.iters.len() as u64;

    let refs = references(&records)?;
    check(&records, &refs, checks);
    let hits = records.iter().filter(|r| r.hot).count();
    let notes = vec![format!(
        "{} requests from {CLIENTS} closed-loop clients: {hits} hot (hot set {}..{}), {} fresh",
        records.len(),
        plan.hot_base,
        plan.hot_base + HOT,
        records.len() - hits
    )];
    Ok((e2e, notes))
}

/// The traced run: client-side spans per request, the daemon's `stats`
/// counters, and direct timed calls into the cache and `RunSpec::execute`.
pub fn traced(
    ctx: &Ctx,
    tracer: &Tracer,
    checks: &mut Checker,
) -> Result<(Vec<Metric>, Vec<String>), String> {
    let plan = Plan::new(ctx.seed);
    let scratch = Scratch::new(&ctx.out, "serve_mixed")?;
    let server = start(&plan, &scratch.path().join("cache"))?;
    let half = ctx.seconds / 2.0;
    let untraced = drive(&plan, &server, 0, half);
    let traced = drive(&plan, &server, 1, half);

    let mut frames = Vec::new();
    let mut body_bytes = Vec::new();
    let mut class: BTreeMap<(bool, &str), Vec<f64>> = BTreeMap::new();
    for r in &traced {
        let Ok((reply, t)) = &r.answer else { continue };
        let root = tracer.record("iteration", None, r.id, t.start, t.end);
        tracer.record("serve.client.send", Some(root), r.id, t.start, t.sent);
        tracer.record(
            "serve.client.first_frame",
            Some(root),
            r.id,
            t.sent,
            t.first,
        );
        tracer.record("serve.client.terminal", Some(root), r.id, t.first, t.end);
        frames.push(reply.frames as f64);
        body_bytes.push(reply.body().len() as f64);
        let ms = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64() * 1e3;
        class
            .entry((r.hot, "first"))
            .or_default()
            .push(ms(t.start, t.first));
        class
            .entry((r.hot, "total"))
            .or_default()
            .push(ms(t.start, t.end));
    }

    // The daemon's own counters.
    let mut client = Client::connect(&server.addr().to_string()).map_err(|e| e.to_string())?;
    let (_, stats) = client
        .call("{\"op\":\"stats\"}")
        .map_err(|e| e.to_string())?;
    let Response::Result(stats) = stats else {
        return Err("stats op failed".to_string());
    };
    drop(client);
    drop(server);
    let run_requests = (HOT as usize + untraced.len() + traced.len()) as f64;
    let overhead = crate::overhead(&latencies(&untraced), &latencies(&traced));

    let all: Vec<Record> = untraced.into_iter().chain(traced).collect();
    let refs = references(&all)?;
    check(&all, &refs, checks);

    let mut metrics = Vec::new();
    for (name, hot, which) in [
        ("serve.hit.first_frame_ms", true, "first"),
        ("serve.hit.total_ms", true, "total"),
        ("serve.miss.first_frame_ms", false, "first"),
        ("serve.miss.total_ms", false, "total"),
    ] {
        let xs = class.get(&(hot, which)).cloned().unwrap_or_default();
        metrics.push(Metric::new(
            name,
            median(&xs),
            xs.len(),
            "median per request, client side",
        ));
    }
    metrics.push(Metric::new(
        "serve.frames_per_req",
        median(&frames),
        frames.len(),
        "median",
    ));
    metrics.push(Metric::new(
        "serve.body_bytes_per_req",
        median(&body_bytes),
        body_bytes.len(),
        "median",
    ));
    for name in [
        "serve.cache.hits",
        "serve.cache.misses",
        "serve.coalesced",
        "serve.executed",
        "serve.cache.damaged",
        "serve.rejected.overload",
    ] {
        let v = stats.u64_field(name).ok_or(format!("stats lacks {name}"))?;
        metrics.push(Metric::new(
            name,
            v as f64,
            1,
            "daemon stats op, set-up included",
        ));
    }
    let hits = stats.u64_field("serve.cache.hits").unwrap_or(0) as f64;
    metrics.push(Metric::new(
        "serve.cache.hit_ratio",
        hits / run_requests,
        run_requests as usize,
        "hits / run requests sent, set-up warm included",
    ));
    metrics.push(overhead);

    metrics.extend(direct_calls(
        &plan,
        tracer,
        &scratch.path().join("direct"),
        checks,
    )?);
    Ok((metrics, Vec::new()))
}

/// Direct calls timed one by one: `RunSpec::execute`, `ResultCache::store`
/// and `ResultCache::lookup`, then the same runs decomposed through the
/// engine for its counts.
fn direct_calls(
    plan: &Plan,
    tracer: &Tracer,
    dir: &Path,
    checks: &mut Checker,
) -> Result<Vec<Metric>, String> {
    const CALLS: u64 = 8;
    let cache = ResultCache::open(dir).map_err(|e| e.to_string())?;
    let mut reports = Vec::new();
    for k in 0..CALLS {
        let seed = plan.fresh_base + 2 * CLIENTS * STRIDE + k;
        let s = spec(seed);
        let key = s.request_key();
        let iter = u64::MAX - 1 - k;
        let root = tracer.open("direct", None, iter);
        let p = Some(root.id());
        let artifact = tracer
            .time("serve.execute", p, iter, || s.execute())
            .map_err(|e| e.to_string())?;
        let stored = tracer.time("serve.cache.store", p, iter, || cache.store(key, &artifact));
        let found = tracer.time("serve.cache.lookup", p, iter, || cache.lookup(key));
        let cfg = s.fleet_config();
        let horizon = common::horizon(&cfg);
        let mut engine = tracer.time("fleet.build", p, iter, || FleetSim::build(cfg));
        tracer.time("simcore.engine.run", p, iter, || engine.run_until(horizon));
        let report = tracer.time("fleet.finalize", p, iter, || {
            FleetSim::into_report(engine, horizon)
        });
        let digest = tracer.time("telemetry.digest", p, iter, || report.digest());
        let jsonl = tracer.time("telemetry.jsonl", p, iter, || report.export_jsonl());
        tracer.close(root);
        tracer.count("telemetry.jsonl_bytes", jsonl.len() as f64);
        checks.attempt(1);
        let ok = stored.is_ok()
            && matches!(found, Lookup::Hit(ref hit) if hit.digest == artifact.digest && hit.body == artifact.body)
            && digest == artifact.digest
            && jsonl == artifact.body;
        checks.expect(ok, || format!("direct calls for seed {seed} disagree"));
        reports.push(report);
    }
    Ok(common::engine_counts(&reports.iter().collect::<Vec<_>>()))
}
