//! Times the first checkpoint of a live 1M-device engine: the 16-arm
//! scaled fleet under aggregate sampling over five years, run to week 130
//! of 260 (or the given week), then `checkpoint_bytes` twice from the
//! same engine. The first call also materializes every arm's deferred
//! sequence-counter shares (DESIGN.md §13); the second finds nothing
//! pending, so the gap between the two is the materialization cost.
//!
//! ```text
//! cargo run --release --example checkpoint_stall [seed] [reps] [week]
//! ```

use std::time::Instant; // simlint: allow(D002, this example *measures* checkpoint wall-clock time)

use fleet::sim::{FleetConfig, FleetSim, SamplingMode};
use fleet::snapshot::{checkpoint_bytes, ChaosProgress};
use simcore::snapshot::fnv1a;
use simcore::time::{SimDuration, SimTime};

fn main() {
    let mut args = std::env::args().skip(1).map(|a| a.parse::<u64>());
    let seed = args.next().and_then(Result::ok).unwrap_or(101);
    let reps = args.next().and_then(Result::ok).unwrap_or(3);
    let week = args.next().and_then(Result::ok).unwrap_or(130);
    let mut cfg = FleetConfig::scaled(seed, 1_000_000).with_sampling(SamplingMode::Aggregate);
    cfg.horizon = SimDuration::from_years(5);
    let at = SimTime::ZERO + SimDuration::from_weeks(week);
    for rep in 0..reps {
        let mut engine = FleetSim::build_parallel_with(cfg.clone(), 2);
        engine.run_until(at);
        let t0 = Instant::now(); // simlint: allow(D002, wall-clock is the measurement itself)
        let first = checkpoint_bytes(&mut engine, ChaosProgress::default());
        let first_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t1 = Instant::now(); // simlint: allow(D002, wall-clock is the measurement itself)
        let second = checkpoint_bytes(&mut engine, ChaosProgress::default());
        let second_ms = t1.elapsed().as_secs_f64() * 1e3;
        assert_eq!(first, second, "a second checkpoint of the same engine is byte-identical");
        println!(
            "rep {rep}: seed {seed}, week {week}, {} bytes, fnv1a {:016x}: first checkpoint {first_ms:.1} ms, second {second_ms:.1} ms",
            first.len(),
            fnv1a(&first),
        );
    }
}
