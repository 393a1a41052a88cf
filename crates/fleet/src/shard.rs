//! Deterministic intra-run sharding: one `FleetSim` run split across
//! worker threads, bit-identical to the serial run.
//!
//! The conservative-synchronization insight (classic PDES, cf. the survey
//! papers in PAPERS.md) is that the fleet's arms are *causally
//! independent* between weekly evaluations: a device failure in one arm
//! never schedules an event in another arm, and the only fleet-wide
//! coupling — the weekly uptime evaluation and the yearly upkeep tick —
//! is a broadcast, not an interaction. That makes the arm the natural
//! shard granule (device-level splits are impossible without perturbing
//! the common-random-numbers discipline: `weekly_eval` consumes exactly
//! one normal draw per alive device, in device order, from the *arm's*
//! stream).
//!
//! The protocol, in full (DESIGN.md §11):
//!
//! 1. **Plan** ([`ShardPlan`]): a stable, seed-independent partition of
//!    global arm ids into `k` groups, balanced by per-arm device count
//!    (LPT greedy). Pure function of `(weights, k)` — no RNG, no clock.
//! 2. **Route** (`route`): no serial engine is built. A fresh run
//!    assembles the world and its primed event list in canonical order
//!    (the tick chains, then each arm's planned events in arm order); a
//!    resumed run drains its restored queue, which yields the pending
//!    events in (time, FIFO) pop order. One router moves each arm — with
//!    its private rng, diary and span log — into its owner shard's world
//!    and deals the list out by owner, keeping list order. Tick-chain
//!    events are replicated into every shard.
//! 3. **Run**: each shard worker ([`simcore::fanout::fan_out`]) builds
//!    its own `Engine`, schedules its events in list order — FIFO ties
//!    keep insertion order, so the shard pops exactly the subsequence of
//!    the serial pop order that it owns — and advances to the shared
//!    horizon. The weekly tick is the epoch barrier of the literature,
//!    but because no cross-shard messages exist the shards never have to
//!    wait for each other — each replays the broadcast locally. The
//!    worker then closes its arms (`ArmState::close`: right-censoring
//!    and the per-arm metric flush), the same step a serial finalize runs.
//! 4. **Merge** (`merge`): the closed arms are regathered and the *same*
//!    collection path as a serial run (`FleetSim::report`) performs the
//!    canonical k-way diary merge in ascending global arm id, the span
//!    merge and the ledger collection; profiles fold with the replayed
//!    tick chains deduplicated so `events_processed` matches serial
//!    exactly.
//!
//! Bit-identity is structural, not coincidental: every number that feeds
//! the run digest is produced per-arm by per-arm state (rng, ledger,
//! diary, spans, deferred metric settlements), and both execution modes
//! funnel through one finalize path whose output is a pure function of
//! those per-arm streams. The differential harness
//! (`tests/shard_differential.rs`) and the golden pins keep it that way.
//!
//! [`Run`] is the one runner of the protocol, and of every other fleet
//! run: fresh or resumed, plain or under per-shard fault hooks, on one
//! shard or many.

use core::fmt;

use std::sync::Arc;

use simcore::engine::{Engine, EngineProfile, FaultHook, NoFaults};
use simcore::event::EventQueue;
use simcore::fanout::fan_out;
use simcore::time::SimTime;

use crate::sim::{ArmState, Ev, FleetConfig, FleetReport, FleetSim};
use crate::snapshot::{ChaosProgress, ResumedFleet};

/// Ways a sharded run request can be invalid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardError {
    /// Zero shards were requested; at least one is required.
    ZeroShards,
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::ZeroShards => write!(f, "cannot run a fleet across zero shards"),
        }
    }
}

impl std::error::Error for ShardError {}

/// A stable, seed-independent partition of global arm ids into shards.
///
/// Built by longest-processing-time greedy: arms are taken in descending
/// weight order (ties broken by ascending arm id) and each is assigned to
/// the currently least-loaded shard (ties broken by lowest shard index).
/// The plan is a pure function of the weight list and the shard count —
/// it never consults the seed, the clock, or an RNG — so every replicate
/// of an experiment shards identically.
///
/// Invariants (property-tested in `tests/properties.rs`):
///
/// * every arm appears in exactly one group;
/// * group membership is ascending by arm id within each group;
/// * empty groups only ever appear as a suffix (so filtering them off
///   preserves the shard indices of the non-empty ones);
/// * with more shards than arms, each arm gets its own shard.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardPlan {
    /// `groups[si]` = ascending global arm ids owned by shard `si`.
    groups: Vec<Vec<usize>>,
    /// `owner[ai]` = shard index owning global arm `ai`.
    owner: Vec<usize>,
}

impl ShardPlan {
    /// Balances `weights.len()` arms (weight = device count; zero-weight
    /// arms are costed as 1 so they still occupy a slot) across `shards`.
    ///
    /// # Errors
    ///
    /// Returns [`ShardError::ZeroShards`] when `shards == 0`.
    pub fn balance(weights: &[u64], shards: usize) -> Result<ShardPlan, ShardError> {
        if shards == 0 {
            return Err(ShardError::ZeroShards);
        }
        Ok(Self::lpt(weights, shards))
    }

    /// The LPT partition behind [`balance`](Self::balance), for a shard
    /// count already known to be nonzero.
    fn lpt(weights: &[u64], shards: usize) -> ShardPlan {
        let mut order: Vec<usize> = (0..weights.len()).collect();
        order.sort_by(|&a, &b| weights[b].max(1).cmp(&weights[a].max(1)).then(a.cmp(&b)));
        let mut loads = vec![0u64; shards];
        let mut groups: Vec<Vec<usize>> = (0..shards).map(|_| Vec::new()).collect();
        for &ai in &order {
            let mut best = 0;
            for (si, &load) in loads.iter().enumerate().skip(1) {
                if load < loads[best] {
                    best = si;
                }
            }
            loads[best] += weights[ai].max(1);
            groups[best].push(ai);
        }
        for group in &mut groups {
            group.sort_unstable();
        }
        let mut owner = vec![0usize; weights.len()];
        for (si, group) in groups.iter().enumerate() {
            for &ai in group {
                owner[ai] = si;
            }
        }
        ShardPlan { groups, owner }
    }

    /// The plan for a fleet configuration: arms weighted by device count.
    ///
    /// # Errors
    ///
    /// Returns [`ShardError::ZeroShards`] when `shards == 0`.
    pub fn for_fleet(cfg: &FleetConfig, shards: usize) -> Result<ShardPlan, ShardError> {
        Self::balance(&arm_weights(cfg), shards)
    }

    /// The shard owning global arm `ai`, or `None` for an out-of-range id
    /// (chaos plans can target arms a configuration doesn't have;
    /// `chaos::shard_injectors` routes those to shard 0, whose injector
    /// skips them exactly like the serial injector does).
    pub fn owner_of(&self, ai: usize) -> Option<usize> {
        self.owner.get(ai).copied()
    }

    /// The groups, `groups()[si]` being the ascending global arm ids of
    /// shard `si`. Trailing groups may be empty; non-empty groups form a
    /// prefix.
    pub fn groups(&self) -> &[Vec<usize>] {
        &self.groups
    }

    /// Number of shard slots (including empty trailing ones).
    pub fn shards(&self) -> usize {
        self.groups.len()
    }
}

/// Fleets smaller than this many devices run serially even when shards
/// are requested from the auto entry points ([`FleetSim::run_sharded`],
/// [`run_resumed`]): below it the per-thread spawn/merge overhead exceeds
/// the parallel win (the throughput bench measured a 0.979× *slowdown*
/// at 10k devices and a 1.34× speedup at 100k —
/// `BENCH_sim_throughput.json`). A [`Run`] never applies it: its shard
/// count means exactly that many shards, which is how the differential
/// and golden suites drive the real multi-shard machinery on small
/// fleets.
pub const SERIAL_FALLBACK_DEVICES: u64 = 50_000;

/// The shard count an auto entry point runs a request for `requested`
/// shards at: one below [`SERIAL_FALLBACK_DEVICES`] devices, the request
/// otherwise (zero stays zero, so the request is still refused).
pub(crate) fn auto_shards(cfg: &FleetConfig, requested: usize) -> usize {
    let devices: u64 = arm_weights(cfg).iter().sum();
    if requested > 0 && devices < SERIAL_FALLBACK_DEVICES {
        1
    } else {
        requested
    }
}

/// Continues an engine to its horizon across `shards` worker threads —
/// or serially, for fleets under [`SERIAL_FALLBACK_DEVICES`]. The engine
/// may be freshly built or restored from a snapshot (see
/// [`crate::snapshot`]); the finished report — digest included — is
/// bit-identical to the uninterrupted serial run for every checkpoint
/// instant and shard count.
///
/// # Errors
///
/// Returns [`ShardError::ZeroShards`] when `shards == 0`.
pub fn run_resumed(engine: Engine<FleetSim>, shards: usize) -> Result<FleetReport, ShardError> {
    let shards = auto_shards(&engine.world().cfg, shards);
    let resumed = ResumedFleet { engine, chaos: ChaosProgress::default() };
    Ok(Run::resume(resumed).shards(shards)?.execute())
}

/// Where a [`Run`] starts.
enum Start {
    /// Build the world from a configuration.
    Fresh(FleetConfig),
    /// Continue an engine already positioned mid-run (boxed: an engine
    /// is several times the size of a config).
    Resumed(Box<Engine<FleetSim>>),
}

/// The per-shard hook factory of a [`Run`] given none: no faults.
type NoHooks = fn(usize, &ShardPlan) -> NoFaults;

fn no_hooks(_si: usize, _plan: &ShardPlan) -> NoFaults {
    NoFaults
}

/// One fleet run: the single runner behind every fresh, resumed, plain
/// and chaos run in the workspace.
///
/// A run starts from a [`FleetConfig`] ([`Run::new`]) or a restored
/// snapshot ([`Run::resume`]), runs on a literal shard count
/// ([`Run::shards`], default one) and optionally under a per-shard
/// [`FaultHook`] factory ([`Run::hooks`]); [`Run::execute`] drives it to
/// the configured horizon. Whatever the combination, the report digests
/// bit-identically to the uninterrupted serial run.
///
/// ```
/// use fleet::{FleetConfig, FleetSim, Run};
///
/// let serial = FleetSim::run(FleetConfig::paper_experiment(7));
/// let sharded = Run::new(FleetConfig::paper_experiment(7)).shards(2)?.execute();
/// assert_eq!(serial.digest(), sharded.digest());
/// # Ok::<(), fleet::ShardError>(())
/// ```
#[must_use = "a Run does nothing until executed"]
pub struct Run<F = NoHooks> {
    start: Start,
    shards: usize,
    make_hook: F,
}

impl Run {
    /// A fresh run of `cfg` on one shard, without faults.
    pub fn new(cfg: FleetConfig) -> Run {
        Run { start: Start::Fresh(cfg), shards: 1, make_hook: no_hooks }
    }

    /// A run continuing a restored snapshot to its horizon. The stored
    /// chaos progress is not consulted here: a resumed chaos run passes
    /// `resumed.chaos` to its hook factory (`chaos::shard_injectors`).
    pub fn resume(resumed: ResumedFleet) -> Run {
        Run { start: Start::Resumed(Box::new(resumed.engine)), shards: 1, make_hook: no_hooks }
    }
}

impl<F> Run<F> {
    /// Runs across exactly `shards` shards: one runs on the calling
    /// thread, more split the fleet by a [`ShardPlan`] and run each shard
    /// on its own scoped thread. Shards beyond the arm count sit idle.
    ///
    /// # Errors
    ///
    /// Returns [`ShardError::ZeroShards`] when `shards == 0`.
    pub fn shards(self, shards: usize) -> Result<Self, ShardError> {
        if shards == 0 {
            return Err(ShardError::ZeroShards);
        }
        Ok(Run { shards, ..self })
    }

    /// Runs under per-shard fault hooks: `make_hook(si, plan)` builds
    /// shard `si`'s hook (a one-shard run builds shard 0's, whose plan
    /// owns every arm). Hooks fire before tied world events within their
    /// shard, which is the same per-arm interleaving the serial engine
    /// produces.
    pub fn hooks<G, H>(self, make_hook: G) -> Run<G>
    where
        H: FaultHook<FleetSim> + Send,
        G: Fn(usize, &ShardPlan) -> H + Sync,
    {
        Run { start: self.start, shards: self.shards, make_hook }
    }
}

impl<F, H> Run<F>
where
    H: FaultHook<FleetSim> + Send,
    F: Fn(usize, &ShardPlan) -> H + Sync,
{
    /// Drives the run to its horizon and finalizes it.
    ///
    /// With one non-empty shard group the engine is built (or taken as
    /// restored) and run on the calling thread; no thread is spawned.
    /// Otherwise the world is assembled with per-arm planning fanned out
    /// over at least `shards` threads (or taken from the restored engine,
    /// its queue drained), routed by the plan's groups, each shard primed,
    /// run and closed on a scoped worker, and the closed arms merged
    /// through the canonical collection path. A resumed engine's profile
    /// is the base the shard profiles fold onto (a fresh run's base is
    /// empty), so `events_processed` matches the uninterrupted serial run
    /// either way.
    ///
    /// # Panics
    ///
    /// Re-raises (via [`std::panic::resume_unwind`]) the lowest-index
    /// shard's panic, after every shard worker has been joined.
    pub fn execute(self) -> FleetReport {
        let Run { start, shards, make_hook } = self;
        let cfg = match &start {
            Start::Fresh(cfg) => cfg,
            Start::Resumed(engine) => &engine.world().cfg,
        };
        let horizon = SimTime::ZERO + cfg.horizon;
        let plan = ShardPlan::lpt(&arm_weights(cfg), shards);
        let used = plan.groups().iter().filter(|g| !g.is_empty()).count();
        if used <= 1 {
            // One shard of work (or an arm-less config): routing would be
            // the identity, so run here under shard 0's hook.
            let mut engine = match start {
                Start::Fresh(cfg) => FleetSim::build(cfg),
                Start::Resumed(engine) => *engine,
            };
            let mut hook = make_hook(0, &plan);
            engine.run_until_hooked(horizon, &mut hook);
            return FleetSim::into_report(engine, horizon);
        }
        let (mut shell, primed, base) = match start {
            Start::Fresh(cfg) => {
                let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
                let (world, primed) = FleetSim::assemble(cfg, shards.max(cores));
                (world, primed, EngineProfile::default())
            }
            Start::Resumed(engine) => {
                let base = engine.profile().clone();
                let (world, mut queue) = engine.into_parts();
                (world, core::iter::from_fn(|| queue.pop()).collect(), base)
            }
        };
        let parts = route(&mut shell, primed, &plan, used);
        let closed = fan_out(
            parts,
            used,
            || (),
            |_, si, (world, primed)| {
                let mut engine = FleetSim::prime(world, primed, EventQueue::new());
                let mut hook = make_hook(si, &plan);
                engine.run_until_hooked(horizon, &mut hook);
                let profile = engine.profile().clone();
                let mut arms = engine.into_world().arms;
                for arm in &mut arms {
                    arm.close(horizon);
                }
                (arms, profile)
            },
        )
        .unwrap_or_else(|p| std::panic::resume_unwind(p.payload));
        merge(shell, base, closed)
    }
}

/// One shard's share of a run before it starts: a world holding the
/// shard's arms, and the shard's primed events in list order.
type ShardPart = (FleetSim, Vec<(SimTime, Ev)>);

/// Routes a world and its primed events into the first `used` shards of
/// `plan` (the non-empty groups, a prefix).
///
/// Each arm moves whole out of `world` — leaving it an arm-less shell
/// that [`merge`] regathers into — into its owner shard's world, keeping
/// ascending-id order within the shard. Each event goes to the shard
/// owning its arm, and tick-chain events ([`Ev::arm`] = `None`) to every
/// shard, each shard's list keeping `primed` order. Shard worlds share
/// the shell's metric [`Registry`](telemetry::Registry) through the
/// `Arc`: counter increments are atomic adds, which commute, and every
/// histogram is flushed once by its arm's close step, so the merged
/// snapshot is independent of thread timing.
fn route(
    world: &mut FleetSim,
    primed: Vec<(SimTime, Ev)>,
    plan: &ShardPlan,
    used: usize,
) -> Vec<ShardPart> {
    let mut arms: Vec<Vec<ArmState>> = (0..used).map(|_| Vec::new()).collect();
    for arm in core::mem::take(&mut world.arms) {
        arms[plan.owner[arm.id]].push(arm);
    }
    let mut events: Vec<Vec<(SimTime, Ev)>> = (0..used).map(|_| Vec::new()).collect();
    for (at, ev) in primed {
        match ev.arm() {
            Some(ai) => events[plan.owner[ai]].push((at, ev)),
            None => {
                for shard in &mut events {
                    shard.push((at, ev));
                }
            }
        }
    }
    arms.into_iter()
        .zip(events)
        .map(|(arms, events)| {
            let shard = FleetSim {
                cfg: world.cfg.clone(),
                arms,
                cloud: world.cloud.clone(),
                metrics: Arc::clone(&world.metrics),
                chaos_applied: world.chaos_applied.clone(),
                chaos_skipped: world.chaos_skipped.clone(),
            };
            (shard, events)
        })
        .collect()
}

/// Event kinds every shard replays locally instead of owning: the
/// fleet-wide tick chains. [`merge`] must not sum their dispatch counts
/// across shards — shard 0's copy is the canonical one — so the merged
/// profile (and `events_processed`) matches the serial run exactly.
const DUPLICATED_KINDS: &[&str] = &["weekly-check", "yearly-tick"];

/// Regathers the closed arms of finished shards (in shard-index order)
/// into the `shell` they were routed from, folds their profiles onto
/// `base` — the dispatch counts a resumed run accrued before its
/// checkpoint (shard engines start with fresh profiles), or an empty
/// profile for a fresh run — and collects the report through the same
/// [`FleetSim::report`] a serial finalize ends in.
///
/// Profiles fold via [`EngineProfile::absorb_shard`]: per-arm event
/// kinds sum (each is owned by one shard) and the replayed tick chains
/// ([`DUPLICATED_KINDS`]) keep shard 0's canonical count, so
/// `events_processed` is recomputed exactly from the merged counts.
fn merge(
    mut shell: FleetSim,
    base: EngineProfile,
    closed: Vec<(Vec<ArmState>, EngineProfile)>,
) -> FleetReport {
    let mut profile = base;
    for (si, (arms, shard)) in closed.into_iter().enumerate() {
        // Shard 0 absorbs with nothing deduplicated: its tick chains are
        // the canonical copies.
        let duplicated = if si == 0 { &[] } else { DUPLICATED_KINDS };
        profile.absorb_shard(&shard, duplicated);
        shell.arms.extend(arms);
    }
    shell.report(profile.total_dispatched(), profile)
}

/// Per-arm shard weights: the device count.
fn arm_weights(cfg: &FleetConfig) -> Vec<u64> {
    cfg.arms.iter().map(|a| a.devices as u64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_shards_is_an_error() {
        assert_eq!(ShardPlan::balance(&[1, 2, 3], 0), Err(ShardError::ZeroShards));
        let Err(err) = Run::new(FleetConfig::paper_experiment(1)).shards(0) else {
            panic!("zero shards must be refused");
        };
        assert_eq!(err, ShardError::ZeroShards);
        let err = FleetSim::run_sharded(FleetConfig::paper_experiment(1), 0).unwrap_err();
        assert_eq!(err, ShardError::ZeroShards);
        assert!(err.to_string().contains("zero shards"));
    }

    #[test]
    fn every_arm_lands_in_exactly_one_group() {
        let plan = ShardPlan::balance(&[10, 10, 3, 0, 7], 3).unwrap();
        let mut seen = vec![0u32; 5];
        for group in plan.groups() {
            for &ai in group {
                seen[ai] += 1;
            }
        }
        assert!(seen.iter().all(|&n| n == 1), "memberships {seen:?}");
        for (ai, &n) in seen.iter().enumerate() {
            assert_eq!(n, 1);
            assert_eq!(plan.owner_of(ai), plan.groups().iter().position(|g| g.contains(&ai)));
        }
        assert_eq!(plan.owner_of(5), None);
    }

    #[test]
    fn lpt_balances_heavy_and_light_arms() {
        // One heavy arm, three light: LPT isolates the heavy one.
        let plan = ShardPlan::balance(&[100, 5, 5, 5], 2).unwrap();
        assert_eq!(plan.groups()[0], vec![0]);
        assert_eq!(plan.groups()[1], vec![1, 2, 3]);
    }

    #[test]
    fn more_shards_than_arms_degrades_to_singletons() {
        let plan = ShardPlan::balance(&[4, 4], 8).unwrap();
        assert_eq!(plan.shards(), 8);
        let nonempty: Vec<_> = plan.groups().iter().filter(|g| !g.is_empty()).collect();
        assert_eq!(nonempty.len(), 2, "one arm per shard");
        // Empty groups are a strict suffix.
        let first_empty = plan.groups().iter().position(Vec::is_empty).unwrap();
        assert!(plan.groups()[first_empty..].iter().all(Vec::is_empty));
    }

    #[test]
    fn plan_is_seed_independent() {
        let a = ShardPlan::for_fleet(&FleetConfig::paper_experiment(1), 2).unwrap();
        let b = ShardPlan::for_fleet(&FleetConfig::paper_experiment(999), 2).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn sharded_matches_serial_smoke() {
        let serial = FleetSim::run(FleetConfig::paper_experiment(5));
        // A literal two-shard Run: the 20-device paper fleet is below the
        // fallback threshold, and this smoke test wants the real split.
        let sharded = Run::new(FleetConfig::paper_experiment(5)).shards(2).unwrap().execute();
        assert_eq!(serial.digest(), sharded.digest());
    }

    #[test]
    fn small_fleet_serial_fallback_digests_identically() {
        // The paper fleet (20 devices) sits far below
        // SERIAL_FALLBACK_DEVICES: the auto path must collapse to serial
        // and still digest exactly like serial and like a literal split.
        let cfg = FleetConfig::paper_experiment(9);
        assert_eq!(auto_shards(&cfg, 4), 1);
        let serial = FleetSim::run(cfg.clone());
        let auto = FleetSim::run_sharded(cfg.clone(), 4).unwrap();
        let split = Run::new(cfg).shards(4).unwrap().execute();
        assert_eq!(serial.digest(), auto.digest());
        assert_eq!(serial.digest(), split.digest());
        assert_eq!(serial.events_processed, auto.events_processed);
    }

    #[test]
    fn auto_shards_keeps_large_fleets_split() {
        let big = FleetConfig::scaled(1, SERIAL_FALLBACK_DEVICES as usize);
        assert_eq!(auto_shards(&big, 4), 4);
        assert_eq!(auto_shards(&big, 0), 0, "zero is still refused downstream");
        let small = FleetConfig::scaled(1, SERIAL_FALLBACK_DEVICES as usize - 16);
        assert_eq!(auto_shards(&small, 4), 1);
    }

    /// Every pending event of `engine` in (time, FIFO) pop order.
    fn drain(engine: Engine<FleetSim>) -> Vec<String> {
        let (_, mut queue) = engine.into_parts();
        core::iter::from_fn(|| queue.pop()).map(|(at, ev)| format!("{at:?} {ev:?}")).collect()
    }

    #[test]
    fn fresh_shard_queues_pop_in_drain_and_route_order() {
        use simcore::time::SimDuration;

        for cfg in [FleetConfig::paper_experiment(8), FleetConfig::scaled(8, 16 * 40)] {
            // Sampled lifetimes rarely tie to the second, so extra events
            // land exactly on the tick instants, arms in descending order:
            // FIFO tie-breaks decide their whole pop order.
            let week = SimTime::ZERO + SimDuration::from_weeks(1);
            let year = SimTime::ZERO + SimDuration::from_years(1);
            let ties: Vec<(SimTime, Ev)> = (0..cfg.arms.len())
                .rev()
                .flat_map(|ai| [(year, Ev::ProviderExit(ai)), (week, Ev::DeviceFail(ai, 0))])
                .collect();
            let primed = || {
                let (world, mut primed) = FleetSim::assemble(cfg.clone(), 2);
                primed.extend(ties.iter().copied());
                (world, primed)
            };
            for k in [2, 3, 5, 16] {
                let plan = ShardPlan::for_fleet(&cfg, k).unwrap();
                let used = plan.groups().iter().filter(|g| !g.is_empty()).count();
                // Reference: one engine primed with the whole list, drained
                // in pop order and dealt out by owner.
                let mut expect: Vec<Vec<String>> = vec![Vec::new(); used];
                let (world, list) = primed();
                let (_, mut serial) = FleetSim::prime(world, list, EventQueue::new()).into_parts();
                while let Some((at, ev)) = serial.pop() {
                    let line = format!("{at:?} {ev:?}");
                    match ev.arm() {
                        Some(ai) => expect[plan.owner_of(ai).unwrap()].push(line),
                        None => expect.iter_mut().for_each(|shard| shard.push(line.clone())),
                    }
                }
                // Under test: the routed parts, primed as a worker primes
                // them.
                let (mut world, list) = primed();
                let parts = route(&mut world, list, &plan, used);
                assert!(world.arms.is_empty(), "every arm moved into a shard");
                assert_eq!(parts.len(), used);
                for (si, (shard, list)) in parts.into_iter().enumerate() {
                    assert!(shard.arms.iter().all(|a| plan.owner_of(a.id) == Some(si)));
                    let got = drain(FleetSim::prime(shard, list, EventQueue::new()));
                    assert_eq!(got, expect[si], "k={k}, shard {si}");
                }
            }
        }
    }

    #[test]
    fn resumed_sharded_run_matches_uninterrupted() {
        use simcore::time::SimDuration;

        let cfg = || FleetConfig::paper_experiment(33);
        let baseline = FleetSim::run(cfg());
        let mut engine = FleetSim::build(cfg());
        engine.run_until(SimTime::ZERO + SimDuration::from_weeks(80));
        let bytes = crate::snapshot::checkpoint_bytes(
            &mut engine,
            crate::snapshot::ChaosProgress::default(),
        );
        drop(engine);
        let resumed = crate::snapshot::resume_from_bytes(&bytes, cfg()).unwrap();
        let report = Run::resume(resumed).shards(2).unwrap().execute();
        assert_eq!(report.digest(), baseline.digest());
        assert_eq!(report.events_processed, baseline.events_processed);
    }
}
