//! Struct-of-arrays device population store.
//!
//! [`DeviceStore`] holds one arm's whole device population as parallel
//! columns (death time, failed flag, sequence counter, chaos timers,
//! cohort id) instead of a `Vec<DeviceState>`-of-structs. The weekly hot
//! loop at million-device scale touches one or two columns per device;
//! the row layout made every pass stride over whole structs.
//!
//! The store also owns the *cohort* decomposition that aggregate sampling
//! (DESIGN.md §13) is built on: devices with the same canonical (sorted)
//! home-gateway set share one path probability each week, so a single
//! binomial draw per (arm × cohort × week) replaces one draw per device.
//! Cohort ids are assigned in first-appearance (device-id) order at build
//! time and never change — replacements keep the device's homes, so a
//! device's cohort is a pure function of the deployment lottery.
//!
//! Mutation goes through accessors ([`mark_failed`](DeviceStore::mark_failed),
//! [`set_row`](DeviceStore::set_row), the chaos setters) so the
//! incremental per-cohort alive counts and the stuck-device index stay
//! consistent with the columns; simlint rule D004 enforces the discipline
//! in digest-feeding crates.
//!
//! The sequence-counter column is written lazily. The aggregate fast path
//! appends each week's per-cohort shares to a share ledger in O(cohorts)
//! instead of walking every device, and everything that reads or writes
//! `seq` directly materializes the ledger first (DESIGN.md §13).

use simcore::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

use crate::device::{DeviceSpec, DeviceState};

/// One experiment arm's device population, laid out column-wise.
#[derive(Clone, Debug)]
pub struct DeviceStore {
    /// The shared archetype (every device in an arm uses the arm's spec).
    spec: DeviceSpec,
    installed_at: Vec<SimTime>,
    fails_at: Vec<SimTime>,
    failed: Vec<bool>,
    seq: Vec<u64>,
    stuck_until: Vec<SimTime>,
    byzantine_until: Vec<SimTime>,
    /// Each device's cohort id (index into the `cohort_*` columns).
    cohort: Vec<u32>,
    /// Canonical (sorted, deduplicated by construction) home set per
    /// cohort, in first-appearance order.
    cohort_homes: Vec<Vec<usize>>,
    /// Present (not-failed) devices per cohort, maintained incrementally
    /// by [`mark_failed`](Self::mark_failed) / [`set_row`](Self::set_row).
    cohort_alive: Vec<u64>,
    /// Devices that have ever been chaos-stuck (deduplicated, bounded by
    /// the fault plan's injection count). The weekly aggregate pass
    /// corrects participant counts by scanning this short list instead of
    /// the whole population.
    stuck_ids: Vec<usize>,
    /// Upper bound on every device's `byzantine_until` (max-merged by the
    /// setters, never lowered). `any_byzantine_at` tests against it so the
    /// weekly aggregate pass can skip the per-device byzantine column
    /// entirely in runs with no (or no longer active) injections.
    byzantine_max_until: SimTime,
    /// Weekly shares not yet added to `seq`.
    ledger: ShareLedger,
}

impl DeviceStore {
    /// Builds a store for devices all installed at `SimTime::ZERO` with
    /// the given sampled death times. `homes(di, out)` appends device
    /// `di`'s home-gateway indices to the empty `out`; it is called once
    /// per device in ascending id order, so a deployment lottery can draw
    /// inside it. Only the cohort id is kept per device.
    pub fn build(
        spec: DeviceSpec,
        fails_at: Vec<SimTime>,
        mut homes: impl FnMut(usize, &mut Vec<usize>),
    ) -> Self {
        let n = fails_at.len();
        let mut ids: BTreeMap<Vec<usize>, u32> = BTreeMap::new();
        let mut cohort = Vec::with_capacity(n);
        let mut cohort_homes: Vec<Vec<usize>> = Vec::new();
        // One scratch buffer for canonicalization; the map key is only
        // allocated when a new cohort first appears, not once per device.
        let mut scratch: Vec<usize> = Vec::new();
        for di in 0..n {
            scratch.clear();
            homes(di, &mut scratch);
            scratch.sort_unstable();
            let id = match ids.get(scratch.as_slice()) {
                Some(&id) => id,
                None => {
                    let next = cohort_homes.len() as u32;
                    ids.insert(scratch.clone(), next);
                    cohort_homes.push(scratch.clone());
                    next
                }
            };
            cohort.push(id);
        }
        let mut cohort_alive = vec![0u64; cohort_homes.len()];
        for &c in &cohort {
            cohort_alive[c as usize] += 1;
        }
        DeviceStore {
            spec,
            installed_at: vec![SimTime::ZERO; n],
            fails_at,
            failed: vec![false; n],
            seq: vec![0; n],
            stuck_until: vec![SimTime::ZERO; n],
            byzantine_until: vec![SimTime::ZERO; n],
            cohort,
            cohort_homes,
            cohort_alive,
            stuck_ids: Vec::new(),
            byzantine_max_until: SimTime::ZERO,
            ledger: ShareLedger::default(),
        }
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.fails_at.len()
    }

    /// Whether the store holds no devices.
    pub fn is_empty(&self) -> bool {
        self.fails_at.is_empty()
    }

    /// The arm's device archetype.
    pub fn spec(&self) -> DeviceSpec {
        self.spec
    }

    /// Whether device `di`'s hardware is functional at `t` (the
    /// time-based check [`DeviceState::alive_at`] performs).
    #[inline]
    pub fn alive_at(&self, di: usize, t: SimTime) -> bool {
        !self.failed[di] && t < self.fails_at[di]
    }

    /// Whether device `di` is present — its failure *event* has not yet
    /// been processed. This is the flag the aggregate path keys
    /// participation on: it is exactly what the incremental
    /// [`cohort_alive`](Self::cohort_alive) counts track, event by event.
    #[inline]
    pub fn present(&self, di: usize) -> bool {
        !self.failed[di]
    }

    /// Whether device `di`'s firmware is chaos-wedged at `t`.
    #[inline]
    pub fn stuck_at(&self, di: usize, t: SimTime) -> bool {
        t < self.stuck_until[di]
    }

    /// Whether device `di` emits garbage readings at `t`.
    #[inline]
    pub fn byzantine_at(&self, di: usize, t: SimTime) -> bool {
        t < self.byzantine_until[di]
    }

    /// Whether *any* device could be byzantine at `t` (watermark check —
    /// may over-approximate, never under-approximates). `false` lets the
    /// weekly pass skip the per-device `byzantine_until` reads.
    #[inline]
    pub fn any_byzantine_at(&self, t: SimTime) -> bool {
        t < self.byzantine_max_until
    }

    /// Device `di`'s age at `t` (zero before installation).
    pub fn age_at(&self, di: usize, t: SimTime) -> SimDuration {
        let installed = self.installed_at[di];
        if t <= installed {
            SimDuration::ZERO
        } else {
            t.since(installed)
        }
    }

    /// When device `di`'s hardware fails.
    pub fn fails_at(&self, di: usize) -> SimTime {
        self.fails_at[di]
    }

    /// Device `di`'s lifetime report sequence number. Takes `&mut`
    /// because it materializes the pending share ledger first.
    pub fn seq(&mut self, di: usize) -> u64 {
        self.materialize();
        self.seq[di]
    }

    /// Advances device `di`'s sequence number by `n` delivered reports
    /// (materializing the pending share ledger first).
    #[inline]
    pub fn seq_add(&mut self, di: usize, n: u64) {
        self.materialize();
        self.seq[di] += n;
    }

    /// The gateway indices device `di` can reach: its cohort's canonical
    /// (sorted) home set.
    pub fn homes(&self, di: usize) -> &[usize] {
        &self.cohort_homes[self.cohort[di] as usize]
    }

    /// Number of path cohorts (distinct canonical home sets).
    pub fn cohort_count(&self) -> usize {
        self.cohort_homes.len()
    }

    /// Device `di`'s cohort id.
    #[inline]
    pub fn cohort_of(&self, di: usize) -> usize {
        self.cohort[di] as usize
    }

    /// The canonical home-gateway set of cohort `c`.
    pub fn cohort_homes(&self, c: usize) -> &[usize] {
        &self.cohort_homes[c]
    }

    /// Present devices in cohort `c` (incrementally maintained).
    pub fn cohort_alive(&self, c: usize) -> u64 {
        self.cohort_alive[c]
    }

    /// Devices that have ever been chaos-stuck, deduplicated.
    pub fn stuck_ids(&self) -> &[usize] {
        &self.stuck_ids
    }

    /// Marks device `di` failed (its `DeviceFail` event fired) and
    /// decrements its cohort's alive count. Idempotent.
    pub fn mark_failed(&mut self, di: usize) {
        if !self.failed[di] {
            self.ledger.log(di, false, true, false);
            self.failed[di] = true;
            self.cohort_alive[self.cohort[di] as usize] -= 1;
        }
    }

    /// Overwrites device `di`'s mutable columns from a materialized row
    /// (device replacement, snapshot restore), keeping the cohort alive
    /// count consistent with the failed-flag transition. The device's
    /// homes — and therefore its cohort — are deployment-time constants
    /// and are not touched.
    pub fn set_row(&mut self, di: usize, dev: &DeviceState) {
        match (self.failed[di], dev.failed) {
            (true, false) => self.cohort_alive[self.cohort[di] as usize] += 1,
            (false, true) => self.cohort_alive[self.cohort[di] as usize] -= 1,
            _ => {}
        }
        self.ledger.log(di, self.failed[di], dev.failed, true);
        self.installed_at[di] = dev.installed_at;
        self.fails_at[di] = dev.fails_at;
        self.failed[di] = dev.failed;
        self.seq[di] = dev.seq;
        self.stuck_until[di] = dev.stuck_until;
        self.byzantine_until[di] = dev.byzantine_until;
        self.byzantine_max_until = self.byzantine_max_until.max(dev.byzantine_until);
    }

    /// Materializes device `di` as a standalone [`DeviceState`] row
    /// (snapshotting and the per-device reference path). Takes `&mut`
    /// because it materializes the pending share ledger first.
    pub fn row(&mut self, di: usize) -> DeviceState {
        self.materialize();
        DeviceState {
            spec: self.spec,
            installed_at: self.installed_at[di],
            fails_at: self.fails_at[di],
            failed: self.failed[di],
            seq: self.seq[di],
            stuck_until: self.stuck_until[di],
            byzantine_until: self.byzantine_until[di],
        }
    }

    /// Chaos: wedges device `di` until at least `until` (overlapping
    /// injections keep the latest end time) and indexes it for the
    /// aggregate participant correction. Returns `false` (and changes
    /// nothing) if `di` is out of bounds.
    pub fn set_stuck_until(&mut self, di: usize, until: SimTime) -> bool {
        let Some(slot) = self.stuck_until.get_mut(di) else {
            return false;
        };
        *slot = (*slot).max(until);
        if !self.stuck_ids.contains(&di) {
            self.stuck_ids.push(di);
        }
        true
    }

    /// Chaos: marks device `di` byzantine until at least `until`
    /// (max-merge). Returns `false` if `di` is out of bounds.
    pub fn set_byzantine_until(&mut self, di: usize, until: SimTime) -> bool {
        let Some(slot) = self.byzantine_until.get_mut(di) else {
            return false;
        };
        *slot = (*slot).max(until);
        self.byzantine_max_until = self.byzantine_max_until.max(until);
        true
    }

    /// Adds each present device's weekly share to its sequence counter:
    /// `base[c]` per participant of cohort `c`, plus one extra for the
    /// first `rem[c]` participants in ascending device-id order — the same
    /// id-order rank rule the general weekly loop applies. Fast path for
    /// owned arms with no stuck or byzantine devices, where the share *is*
    /// the delivered count; callers are responsible for that precondition.
    ///
    /// The week is appended to the share ledger in O(cohorts) and reaches
    /// `seq` at the next materialization: any `seq`/`row`/`seq_add` call,
    /// or the ledger's own size bound.
    pub fn seq_add_shares(&mut self, base: &[u64], rem: &[u64]) {
        debug_assert_eq!(base.len(), self.cohort_homes.len(), "one share per cohort");
        debug_assert_eq!(rem.len(), self.cohort_homes.len(), "one remainder per cohort");
        if self.ledger.push_week(base, rem, self.seq.len()) {
            self.materialize();
        }
    }

    /// Weeks of shares the ledger holds that the `seq` column does not
    /// yet include.
    pub fn pending_weeks(&self) -> usize {
        self.ledger.weeks
    }

    /// Adds every pending ledger week to the `seq` column, exactly as the
    /// eager per-week loop would have, and empties the ledger. O(1) when
    /// nothing is pending.
    #[inline]
    fn materialize(&mut self) {
        if self.ledger.weeks > 0 {
            self.ledger.flush(&mut self.seq, &self.failed, &self.cohort);
        }
    }

    /// Rebuilds the stuck-device index from the `stuck_until` column
    /// (snapshot resume: the index is derived state and is not stored).
    /// The rebuilt list is ascending by device id; the weekly correction
    /// only counts over it, so ordering differences against the
    /// injection-order list of an uninterrupted run are unobservable.
    pub fn rebuild_stuck_ids(&mut self) {
        self.stuck_ids.clear();
        for (di, &until) in self.stuck_until.iter().enumerate() {
            if until > SimTime::ZERO {
                self.stuck_ids.push(di);
            }
        }
    }
}

/// One failed-flag transition or `seq` overwrite made while ledger weeks
/// are pending.
#[derive(Clone, Copy, Debug)]
struct LogEntry {
    /// Pending weeks pushed before the change: weeks `pos..` see it.
    pos: u32,
    /// Position in the log, so sorting by device keeps each device's
    /// changes in the order they happened.
    ord: u32,
    di: usize,
    failed_before: bool,
    failed_after: bool,
    /// `set_row` overwrote `seq`: shares of earlier weeks are void.
    overwrite: bool,
}

/// Flush-time state of one device with log entries in the window.
#[derive(Clone, Copy, Debug, Default)]
struct LoggedDevice {
    di: usize,
    cohort: usize,
    /// Present devices of its cohort with no log entry and a smaller id.
    stable_before: u64,
    /// Its unapplied log entries: `log[next..end]` after the sort by
    /// device.
    next: usize,
    end: usize,
    present: bool,
    /// Shares since the window start or its last overwrite.
    acc: u64,
}

/// Flush-time per-cohort accumulators.
#[derive(Clone, Copy, Debug, Default)]
struct CohortSweep {
    base_sum: u64,
    /// Present log-free devices seen so far in the device sweep.
    stable: u64,
    /// Logged participants ranked ahead of the cut in the current week.
    logged_ahead: u64,
    /// Cuts at or below the current device's position.
    passed: usize,
}

/// Weekly shares not yet added to a store's `seq` column.
///
/// Each pending week holds one `(base, rem)` pair per cohort. While weeks
/// are pending, failed-flag changes and `seq` overwrites go to a short
/// membership log, so a flush can tell who participated in which week.
///
/// A flush is exact without replaying weeks × devices. In cohort `c`, a
/// present device with no log entry at position `p` among such devices
/// gains one extra in week `w` iff `p < cut[w]`, where `cut[w]` is
/// `rem[w]` minus the logged participants ranked ahead of the cut that
/// week. The cuts are sorted per cohort, so one sweep over the devices
/// gives each its `Σ base + #{w : cut[w] > p}`. Logged devices walk the
/// pending weeks one by one, and an overwrite restarts their sum.
///
/// The ledger flushes itself once `weeks × (cohorts + log entries)`
/// reaches the device count: its memory stays O(devices), a flush costs
/// O(devices), and the amortized cost per week is O(cohorts). Every
/// buffer, scratch included, keeps its capacity across flushes, so
/// neither a push nor a flush allocates once the buffers reach their
/// working size.
#[derive(Clone, Debug, Default)]
struct ShareLedger {
    /// Pending weeks.
    weeks: usize,
    /// `(base, rem)` per cohort, week-major: week `w`, cohort `c` at
    /// `w * cohorts + c`.
    shares: Vec<(u64, u64)>,
    log: Vec<LogEntry>,
    /// Flush scratch: the cuts, cohort-major, sorted per cohort.
    cuts: Vec<u64>,
    cohorts: Vec<CohortSweep>,
    logged: Vec<LoggedDevice>,
}

impl ShareLedger {
    /// Appends one week; returns whether the ledger has reached its size
    /// bound for a store of `devices` devices and must flush.
    fn push_week(&mut self, base: &[u64], rem: &[u64], devices: usize) -> bool {
        self.shares.extend(base.iter().copied().zip(rem.iter().copied()));
        self.weeks += 1;
        self.weeks.saturating_mul(base.len() + self.log.len()) >= devices
    }

    /// Records a membership change or `seq` overwrite of device `di`;
    /// a no-op while nothing is pending.
    fn log(&mut self, di: usize, failed_before: bool, failed_after: bool, overwrite: bool) {
        if self.weeks == 0 {
            return;
        }
        self.log.push(LogEntry {
            pos: self.weeks as u32,
            ord: self.log.len() as u32,
            di,
            failed_before,
            failed_after,
            overwrite,
        });
    }

    /// Adds every pending week's shares to `seq` and empties the ledger.
    /// `failed` and `cohort` are the store's current columns.
    fn flush(&mut self, seq: &mut [u64], failed: &[bool], cohort: &[u32]) {
        let weeks = self.weeks;
        let ncoh = self.shares.len() / weeks;
        if ncoh == 0 {
            // No cohorts means no devices: nothing to add.
            self.clear();
            return;
        }
        self.cohorts.clear();
        self.cohorts.resize(ncoh, CohortSweep::default());
        for week in self.shares.chunks_exact(ncoh) {
            for (sweep, &(base, _)) in self.cohorts.iter_mut().zip(week) {
                sweep.base_sum += base;
            }
        }

        // Logged devices in ascending id order, each with its entries in
        // the order they were made.
        self.log.sort_unstable_by_key(|e| (e.di, e.ord));
        self.logged.clear();
        for (i, e) in self.log.iter().enumerate() {
            match self.logged.last_mut() {
                Some(last) if last.di == e.di => last.end = i + 1,
                _ => self.logged.push(LoggedDevice {
                    di: e.di,
                    cohort: cohort[e.di] as usize,
                    next: i,
                    end: i + 1,
                    present: !e.failed_before,
                    ..LoggedDevice::default()
                }),
            }
        }
        if !self.logged.is_empty() {
            let mut next = 0;
            for di in 0..failed.len() {
                let Some(dev) = self.logged.get_mut(next) else { break };
                let sweep = &mut self.cohorts[cohort[di] as usize];
                if dev.di == di {
                    dev.stable_before = sweep.stable;
                    next += 1;
                } else if !failed[di] {
                    sweep.stable += 1;
                }
            }
        }

        // Week by week: logged participants take their shares in id order,
        // and what remains of `rem` is the cut for the log-free devices.
        self.cuts.clear();
        self.cuts.resize(ncoh * weeks, 0);
        for w in 0..=weeks {
            for sweep in &mut self.cohorts {
                sweep.logged_ahead = 0;
            }
            for dev in &mut self.logged {
                while dev.next < dev.end && self.log[dev.next].pos as usize <= w {
                    let e = &self.log[dev.next];
                    dev.present = !e.failed_after;
                    if e.overwrite {
                        dev.acc = 0;
                    }
                    dev.next += 1;
                }
                if w == weeks || !dev.present {
                    continue;
                }
                let (base, rem) = self.shares[w * ncoh + dev.cohort];
                let sweep = &mut self.cohorts[dev.cohort];
                let extra = dev.stable_before + sweep.logged_ahead < rem;
                sweep.logged_ahead += u64::from(extra);
                dev.acc += base + u64::from(extra);
            }
            if w < weeks {
                for (c, sweep) in self.cohorts.iter().enumerate() {
                    self.cuts[c * weeks + w] = self.shares[w * ncoh + c].1 - sweep.logged_ahead;
                }
            }
        }
        for cuts in self.cuts.chunks_exact_mut(weeks) {
            cuts.sort_unstable();
        }

        // One sweep in id order: a log-free present device at position
        // `p` gains one extra for every cut above `p`.
        for sweep in &mut self.cohorts {
            sweep.stable = 0;
        }
        let mut next = 0;
        for di in 0..failed.len() {
            if let Some(dev) = self.logged.get(next).filter(|d| d.di == di) {
                seq[di] += dev.acc;
                next += 1;
                continue;
            }
            if failed[di] {
                continue;
            }
            let c = cohort[di] as usize;
            let sweep = &mut self.cohorts[c];
            let cuts = &self.cuts[c * weeks..(c + 1) * weeks];
            while sweep.passed < weeks && cuts[sweep.passed] <= sweep.stable {
                sweep.passed += 1;
            }
            seq[di] += sweep.base_sum + (weeks - sweep.passed) as u64;
            sweep.stable += 1;
        }
        self.clear();
    }

    /// Drops every pending week and log entry, keeping the capacity.
    fn clear(&mut self) {
        self.weeks = 0;
        self.shares.clear();
        self.log.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use net::packet::RadioTech;

    fn spec() -> DeviceSpec {
        DeviceSpec::paper_sensor(RadioTech::Ieee802154)
    }

    fn build(fails_at: Vec<SimTime>, homes: &[Vec<usize>]) -> DeviceStore {
        DeviceStore::build(spec(), fails_at, |di, out| out.extend_from_slice(&homes[di]))
    }

    fn store() -> DeviceStore {
        // Homes: {0}, {0,1} (given unsorted), {1}, {1,0} -> cohort of
        // device 3 must equal device 1's, and ids follow first appearance.
        build(
            vec![
                SimTime::from_years(10),
                SimTime::from_years(20),
                SimTime::from_years(30),
                SimTime::from_years(40),
            ],
            &[vec![0], vec![1, 0], vec![1], vec![0, 1]],
        )
    }

    #[test]
    fn cohorts_are_canonical_and_first_appearance_ordered() {
        let s = store();
        assert_eq!(s.cohort_count(), 3);
        assert_eq!(s.cohort_of(0), 0);
        assert_eq!(s.cohort_of(1), 1);
        assert_eq!(s.cohort_of(2), 2);
        assert_eq!(s.cohort_of(3), 1, "unsorted {{0,1}} joins {{1,0}}'s cohort");
        assert_eq!(s.cohort_homes(0), &[0]);
        assert_eq!(s.cohort_homes(1), &[0, 1]);
        assert_eq!(s.cohort_homes(2), &[1]);
        assert_eq!(s.cohort_alive(1), 2);
        assert_eq!(s.homes(3), &[0, 1], "a device's homes are its cohort's canonical set");
    }

    #[test]
    fn mark_failed_is_idempotent_and_tracks_cohort_alive() {
        let mut s = store();
        assert!(s.present(1));
        s.mark_failed(1);
        assert!(!s.present(1));
        assert!(!s.alive_at(1, SimTime::ZERO));
        assert_eq!(s.cohort_alive(1), 1);
        s.mark_failed(1);
        assert_eq!(s.cohort_alive(1), 1, "second mark must not double-decrement");
    }

    #[test]
    fn set_row_round_trips_and_updates_cohort_alive() {
        let mut s = store();
        s.mark_failed(3);
        assert_eq!(s.cohort_alive(1), 1);
        // Replacement: a fresh, live row re-enters the cohort.
        let mut fresh = s.row(3);
        fresh.failed = false;
        fresh.installed_at = SimTime::from_years(5);
        fresh.fails_at = SimTime::from_years(45);
        fresh.seq = 7;
        s.set_row(3, &fresh);
        assert_eq!(s.cohort_alive(1), 2);
        let back = s.row(3);
        assert_eq!(back.installed_at, fresh.installed_at);
        assert_eq!(back.fails_at, fresh.fails_at);
        assert_eq!(back.seq, 7);
        assert!(!back.failed);
        // Overwriting a live row with a failed one decrements once.
        let mut dead = s.row(0);
        dead.failed = true;
        s.set_row(0, &dead);
        assert_eq!(s.cohort_alive(0), 0);
    }

    #[test]
    fn row_matches_column_accessors() {
        let mut s = store();
        s.seq_add(2, 42);
        assert!(s.set_stuck_until(2, SimTime::from_years(1)));
        assert!(s.set_byzantine_until(2, SimTime::from_years(2)));
        let r = s.row(2);
        assert_eq!(r.seq, s.seq(2));
        assert_eq!(r.fails_at, s.fails_at(2));
        assert_eq!(r.stuck_until, SimTime::from_years(1));
        assert_eq!(r.byzantine_until, SimTime::from_years(2));
        assert_eq!(s.age_at(2, SimTime::from_years(3)), SimDuration::from_years(3));
        assert!(s.stuck_at(2, SimTime::from_secs(1)));
        assert!(s.byzantine_at(2, SimTime::from_years(1)));
        assert!(!s.stuck_at(2, SimTime::from_years(1)));
    }

    #[test]
    fn chaos_setters_max_merge_and_bounds_check() {
        let mut s = store();
        assert!(s.set_stuck_until(0, SimTime::from_years(2)));
        assert!(s.set_stuck_until(0, SimTime::from_years(1)), "shorter overlap applies");
        assert_eq!(s.row(0).stuck_until, SimTime::from_years(2), "max-merge keeps the later end");
        assert_eq!(s.stuck_ids(), &[0], "re-injection must not duplicate the index");
        assert!(!s.set_stuck_until(99, SimTime::from_years(1)));
        assert!(!s.set_byzantine_until(99, SimTime::from_years(1)));
    }

    #[test]
    fn rebuild_stuck_ids_recovers_index_from_columns() {
        let mut s = store();
        assert!(s.set_stuck_until(3, SimTime::from_years(1)));
        assert!(s.set_stuck_until(1, SimTime::from_years(2)));
        assert_eq!(s.stuck_ids(), &[3, 1], "injection order before rebuild");
        s.rebuild_stuck_ids();
        assert_eq!(s.stuck_ids(), &[1, 3], "ascending id order after rebuild");
    }

    #[test]
    fn byzantine_watermark_over_approximates_and_never_lowers() {
        let mut s = store();
        assert!(!s.any_byzantine_at(SimTime::ZERO), "fresh store has no byzantine devices");
        assert!(s.set_byzantine_until(2, SimTime::from_years(2)));
        assert!(s.any_byzantine_at(SimTime::from_years(1)));
        assert!(!s.any_byzantine_at(SimTime::from_years(2)), "watermark expires with the injection");
        // Clearing the device's own timer via set_row must not lower the
        // watermark (it is an upper bound, not an exact max).
        let mut cleared = s.row(2);
        cleared.byzantine_until = SimTime::ZERO;
        s.set_row(2, &cleared);
        assert!(s.any_byzantine_at(SimTime::from_years(1)), "watermark is sticky");
    }

    #[test]
    fn seq_add_shares_matches_the_id_order_rank_rule() {
        let mut s = store();
        s.mark_failed(0);
        // Cohorts: 0 -> {0}, 1 -> {1, 3}, 2 -> {2}. Device 0 is dead.
        // base = [5, 2, 0], rem = [0, 1, 0]: device 1 (rank 0 in cohort 1)
        // takes the extra, device 3 (rank 1) does not.
        s.seq_add_shares(&[5, 2, 0], &[0, 1, 0]);
        assert_eq!(s.seq(0), 0, "failed devices receive nothing");
        assert_eq!(s.seq(1), 3);
        assert_eq!(s.seq(2), 0);
        assert_eq!(s.seq(3), 2);
    }

    #[test]
    fn federated_homes_collapse_to_one_cohort() {
        let s = build(vec![SimTime::from_years(10); 5], &vec![Vec::new(); 5]);
        assert_eq!(s.cohort_count(), 1);
        assert_eq!(s.cohort_alive(0), 5);
        assert!(s.cohort_homes(0).is_empty());
        assert_eq!(s.len(), 5);
        assert!(!s.is_empty());
    }

    /// The eager per-week share loop the ledger replaces, kept verbatim
    /// as the oracle.
    struct EagerSeq {
        seq: Vec<u64>,
        failed: Vec<bool>,
        cohort: Vec<usize>,
    }

    impl EagerSeq {
        fn add_shares(&mut self, base: &[u64], rem: &[u64]) {
            let mut rank = vec![0u64; base.len()];
            for di in 0..self.failed.len() {
                if self.failed[di] {
                    continue;
                }
                let c = self.cohort[di];
                self.seq[di] += base[c] + u64::from(rank[c] < rem[c]);
                rank[c] += 1;
            }
        }
    }

    #[test]
    fn share_ledger_matches_the_eager_loop_under_random_interleavings() {
        let root = simcore::rng::Rng::seed_from(0x5eed_1ed6);
        for case in 0..400u64 {
            let mut rng = root.split("case", case);
            let n = 1 + rng.next_below(40) as usize;
            let gateways = 1 + rng.next_below(4) as usize;
            let homes: Vec<Vec<usize>> = (0..n)
                .map(|_| {
                    let first = rng.next_below(gateways as u64) as usize;
                    if rng.chance(0.5) {
                        vec![first, rng.next_below(gateways as u64) as usize]
                    } else {
                        vec![first]
                    }
                })
                .collect();
            let mut s = build(vec![SimTime::from_years(100); n], &homes);
            let ncoh = s.cohort_count();
            let mut eager = EagerSeq {
                seq: vec![0; n],
                failed: vec![false; n],
                cohort: (0..n).map(|di| s.cohort_of(di)).collect(),
            };
            let mut base = vec![0u64; ncoh];
            let mut rem = vec![0u64; ncoh];
            for step in 0..300 {
                let di = rng.next_below(n as u64) as usize;
                match rng.next_below(16) {
                    0..=7 => {
                        for c in 0..ncoh {
                            base[c] = rng.next_below(200);
                            // Remainders past the participant count too:
                            // then everyone present takes the extra.
                            rem[c] = rng.next_below(n as u64 + 2);
                        }
                        s.seq_add_shares(&base, &rem);
                        eager.add_shares(&base, &rem);
                    }
                    8..=10 => {
                        s.mark_failed(di);
                        eager.failed[di] = true;
                    }
                    11..=12 => {
                        let mut dev = DeviceState {
                            spec: spec(),
                            installed_at: SimTime::ZERO,
                            fails_at: SimTime::from_years(100),
                            failed: rng.chance(0.3),
                            seq: rng.next_below(1 << 40),
                            stuck_until: SimTime::ZERO,
                            byzantine_until: SimTime::ZERO,
                        };
                        if rng.chance(0.2) {
                            dev.seq = 0;
                        }
                        s.set_row(di, &dev);
                        eager.seq[di] = dev.seq;
                        eager.failed[di] = dev.failed;
                    }
                    13 => {
                        let k = rng.next_below(1000);
                        s.seq_add(di, k);
                        eager.seq[di] += k;
                    }
                    14 => assert_eq!(s.row(di).seq, eager.seq[di], "case {case} step {step}"),
                    _ => assert_eq!(s.seq(di), eager.seq[di], "case {case} step {step}"),
                }
                for c in 0..ncoh {
                    let alive = (0..n).filter(|&d| eager.cohort[d] == c && !eager.failed[d]).count();
                    assert_eq!(s.cohort_alive(c), alive as u64, "case {case} step {step}");
                }
            }
            for di in 0..n {
                assert_eq!(s.seq(di), eager.seq[di], "case {case}, device {di}");
            }
            // A second materialization changes nothing.
            s.materialize();
            assert!((0..n).all(|di| s.seq(di) == eager.seq[di]), "case {case}");
        }
    }

    #[test]
    fn ledger_defers_until_its_size_bound() {
        // 3 cohorts, 12 devices: the bound is weeks × 3 >= 12, so three
        // weeks stay pending and the fourth flushes.
        let homes: Vec<Vec<usize>> = (0..12).map(|di| vec![di % 3]).collect();
        let mut s = build(vec![SimTime::from_years(10); 12], &homes);
        for week in 1..=3 {
            s.seq_add_shares(&[1, 1, 1], &[0, 0, 0]);
            assert_eq!(s.ledger.weeks, week);
            assert_eq!(s.seq[0], 0, "counter deferred");
        }
        s.seq_add_shares(&[1, 1, 1], &[0, 0, 0]);
        assert_eq!(s.ledger.weeks, 0, "bound reached: flushed");
        assert_eq!(s.seq[0], 4);
        // Log entries count toward the bound too.
        s.seq_add_shares(&[1, 1, 1], &[0, 0, 0]);
        for di in 0..3 {
            s.mark_failed(di);
        }
        s.seq_add_shares(&[1, 1, 1], &[0, 0, 0]);
        assert_eq!(s.ledger.weeks, 0, "2 weeks × (3 cohorts + 3 entries) >= 12");
        assert_eq!(s.seq[0], 5);
        assert_eq!(s.seq[3], 6);
    }

    #[test]
    fn empty_store_ledger_is_a_no_op() {
        let mut s = build(Vec::new(), &[]);
        s.seq_add_shares(&[], &[]);
        s.materialize();
        assert!(s.is_empty());
    }
}
