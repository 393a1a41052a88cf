//! Golden pin on the snapshot *format*, not just run behaviour.
//!
//! `tests/golden/snapshot_format.txt` records the framing constants
//! (magic, version, frame overhead) and, for one fixed configuration —
//! paper experiment, seed 42, checkpoint at week 26 — the byte length
//! and FNV-1a digest of the sealed snapshot image. The fleet codec is
//! hand-rolled and versioned; this pin turns any accidental layout
//! change (a reordered field, a widened integer, a new block without a
//! version bump) into a loud test failure instead of a silently
//! unreadable checkpoint.
//!
//! Four more pins cover the aggregate fast path at city scale, where
//! the per-device sequence counters are written lazily: a 20k-device
//! scaled fleet checkpointed at week 130 and then again at week 131 from
//! the same live engine, and a 20-year run under the full fault plan at
//! intensity 1.0 checkpointed at weeks 200 and 777. A counter left stale
//! by the lazy path changes these bytes.
//!
//! An *intentional* format change must bump
//! [`fleet::snapshot::FLEET_SNAPSHOT_VERSION`]; re-bless with
//! `scripts/bless.sh` (or `GOLDEN_BLESS=1 cargo test --test
//! golden_snapshot`) and review the diff.

#![allow(clippy::unwrap_used, clippy::expect_used)] // Test-only target.

use chaos::{FaultPlanBuilder, FleetInjector};
use fleet::sim::{FleetConfig, FleetSim, SamplingMode};
use fleet::snapshot::{self, ChaosProgress, FLEET_SNAPSHOT_VERSION};
use simcore::snapshot::{fnv1a, FRAME_BYTES, MAGIC};
use simcore::time::{SimDuration, SimTime};

const GOLDEN_PATH: &str = "tests/golden/snapshot_format.txt";

fn pinned_image_for(sampling: SamplingMode) -> Vec<u8> {
    let mut engine =
        FleetSim::build(FleetConfig::paper_experiment(42).with_sampling(sampling));
    engine.run_until(SimTime::ZERO + SimDuration::from_weeks(26));
    snapshot::checkpoint_bytes(&mut engine, ChaosProgress::default())
}

fn pinned_image() -> Vec<u8> {
    pinned_image_for(SamplingMode::Legacy)
}

fn week(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_weeks(n)
}

/// The 20k-device scaled fleet under aggregate sampling over `years`.
fn scaled_cfg(years: u64) -> FleetConfig {
    let mut cfg = FleetConfig::scaled(31, 20_000).with_sampling(SamplingMode::Aggregate);
    cfg.horizon = SimDuration::from_years(years);
    cfg
}

/// Checkpoints of one live 5-year engine, at week 130 and again at 131.
fn scaled_images() -> [Vec<u8>; 2] {
    let mut engine = FleetSim::build(scaled_cfg(5));
    engine.run_until(week(130));
    let first = snapshot::checkpoint_bytes(&mut engine, ChaosProgress::default());
    engine.run_until(week(131));
    let second = snapshot::checkpoint_bytes(&mut engine, ChaosProgress::default());
    [first, second]
}

/// Checkpoints of one live 20-year engine under the full fault plan.
fn chaos_images(weeks: [u64; 2]) -> [Vec<u8>; 2] {
    let cfg = scaled_cfg(20);
    let plan = FaultPlanBuilder::full(5).build(&cfg, 1.0).expect("valid intensity");
    let mut injector = FleetInjector::new(plan);
    let mut engine = FleetSim::build(cfg);
    weeks.map(|w| {
        engine.run_until_hooked(week(w), &mut injector);
        snapshot::checkpoint_bytes(&mut engine, injector.progress())
    })
}

fn pin_line(name: &str, image: &[u8]) -> String {
    format!("image/{name} len={} fnv1a={:016x}\n", image.len(), fnv1a(image))
}

fn render() -> String {
    let image = pinned_image();
    let aggregate = pinned_image_for(SamplingMode::Aggregate);
    let [w130, w131] = scaled_images();
    let [c200, c777] = chaos_images([200, 777]);
    let magic_hex: String = MAGIC.iter().map(|b| format!("{b:02x}")).collect();
    format!(
        "# Golden snapshot format pin. A diff here means the on-disk layout\n\
         # changed: bump FLEET_SNAPSHOT_VERSION for intentional changes, then\n\
         # re-bless with scripts/bless.sh and review.\n\
         magic {magic_hex}\n\
         version {FLEET_SNAPSHOT_VERSION}\n\
         frame_bytes {FRAME_BYTES}\n\
         image/paper_experiment/seed=42/week=26 len={} fnv1a={:016x}\n\
         image/paper_experiment/seed=42/week=26/sampling=aggregate len={} fnv1a={:016x}\n\
         {}{}{}{}",
        image.len(),
        fnv1a(&image),
        aggregate.len(),
        fnv1a(&aggregate),
        pin_line("scaled/seed=31/devices=20000/years=5/sampling=aggregate/week=130", &w130),
        pin_line("scaled/seed=31/devices=20000/years=5/sampling=aggregate/week=131", &w131),
        pin_line("scaled/seed=31/devices=20000/years=20/sampling=aggregate/chaos=full(5)@1.0/week=200", &c200),
        pin_line("scaled/seed=31/devices=20000/years=20/sampling=aggregate/chaos=full(5)@1.0/week=777", &c777),
    )
}

#[test]
fn snapshot_format_matches_golden() {
    let rendered = render();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN_PATH);
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        std::fs::write(&path, &rendered).expect("write golden snapshot pin");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{GOLDEN_PATH} unreadable ({e}); run scripts/bless.sh"));
    assert_eq!(
        golden, rendered,
        "snapshot format drifted from {GOLDEN_PATH}. Intentional layout \
         changes must bump FLEET_SNAPSHOT_VERSION; re-bless with \
         scripts/bless.sh and review the diff."
    );
}

#[test]
fn snapshot_bytes_are_deterministic() {
    // Two checkpoints of the same run prefix must be byte-identical —
    // the property that makes the golden pin meaningful at all.
    assert_eq!(pinned_image(), pinned_image());
}
