//! The structured event log — the simulated "experimental diary" of §4.5.
//!
//! The paper commits to a public, living diary of every intervention made to
//! keep the 50-year experiment alive. [`Diary`] is that artifact for
//! simulated runs: an append-only log of tagged entries with severity,
//! filterable and renderable as plain text.

use core::cmp::Reverse;
use core::fmt;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// How consequential a diary entry is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Routine observation (data arrived, cohort deployed).
    Info,
    /// Degradation that needs no immediate action (device offline, redundancy lost).
    Warning,
    /// An intervention or loss (gateway replaced, backhaul sunset, device stranded).
    Incident,
}

impl Severity {
    /// Stable one-byte encoding used by run digests; must never be
    /// renumbered (it would silently re-bless every golden trace).
    pub const fn code(self) -> u8 {
        match self {
            Severity::Info => 0,
            Severity::Warning => 1,
            Severity::Incident => 2,
        }
    }
}

impl Severity {
    /// Decodes a [`code`](Severity::code) byte; `None` for unknown bytes
    /// (snapshot load paths must fail closed, not guess).
    pub const fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(Severity::Info),
            1 => Some(Severity::Warning),
            2 => Some(Severity::Incident),
            _ => None,
        }
    }
}

impl Severity {
    /// The display name (`INFO`, `WARN`, `INCIDENT`).
    pub const fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "INFO",
            Severity::Warning => "WARN",
            Severity::Incident => "INCIDENT",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Which tier of the Figure-1 hierarchy an entry concerns.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Tier {
    /// Edge devices.
    Device,
    /// Gateways.
    Gateway,
    /// Backhaul links and providers.
    Backhaul,
    /// The cloud/data endpoint.
    Cloud,
    /// Cross-cutting (policy changes, staffing, budget).
    System,
}

impl Tier {
    /// Stable one-byte encoding used by run digests; must never be
    /// renumbered (it would silently re-bless every golden trace).
    pub const fn code(self) -> u8 {
        match self {
            Tier::Device => 0,
            Tier::Gateway => 1,
            Tier::Backhaul => 2,
            Tier::Cloud => 3,
            Tier::System => 4,
        }
    }
}

impl Tier {
    /// Decodes a [`code`](Tier::code) byte; `None` for unknown bytes
    /// (snapshot load paths must fail closed, not guess).
    pub const fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(Tier::Device),
            1 => Some(Tier::Gateway),
            2 => Some(Tier::Backhaul),
            3 => Some(Tier::Cloud),
            4 => Some(Tier::System),
            _ => None,
        }
    }
}

impl Tier {
    /// The display name (`device`, `gateway`, …).
    pub const fn as_str(self) -> &'static str {
        match self {
            Tier::Device => "device",
            Tier::Gateway => "gateway",
            Tier::Backhaul => "backhaul",
            Tier::Cloud => "cloud",
            Tier::System => "system",
        }
    }
}

impl fmt::Display for Tier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One diary entry.
#[derive(Clone, Debug)]
pub struct Entry {
    /// When it happened.
    pub at: SimTime,
    /// How consequential it is.
    pub severity: Severity,
    /// Which tier it concerns.
    pub tier: Tier,
    /// Human-readable description.
    pub message: String,
}

/// An append-only, time-ordered log of simulation happenings.
///
/// # Examples
///
/// ```
/// use simcore::trace::{Diary, Severity, Tier};
/// use simcore::time::SimTime;
///
/// let mut d = Diary::new();
/// d.log(SimTime::from_years(3), Severity::Incident, Tier::Gateway,
///       "gateway gw-0 SD card failed; replaced");
/// assert_eq!(d.count(Severity::Incident), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Diary {
    entries: Vec<Entry>,
}

impl Diary {
    /// Creates an empty diary.
    pub fn new() -> Self {
        Diary::default()
    }

    /// Appends an entry.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `at` precedes the last entry — the diary
    /// mirrors simulation time, which only moves forward.
    pub fn log(
        &mut self,
        at: SimTime,
        severity: Severity,
        tier: Tier,
        message: impl Into<String>,
    ) {
        debug_assert!(
            self.entries.last().is_none_or(|e| at >= e.at),
            "diary entries must be time-ordered"
        );
        self.entries.push(Entry { at, severity, tier, message: message.into() });
    }

    /// All entries in time order.
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// Number of entries at exactly the given severity.
    pub fn count(&self, severity: Severity) -> usize {
        self.entries.iter().filter(|e| e.severity == severity).count()
    }

    /// Number of entries for the given tier.
    pub fn count_tier(&self, tier: Tier) -> usize {
        self.entries.iter().filter(|e| e.tier == tier).count()
    }

    /// Iterator over entries at or above a severity.
    pub fn at_least(&self, severity: Severity) -> impl Iterator<Item = &Entry> {
        self.entries.iter().filter(move |e| e.severity >= severity)
    }

    /// Total number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns true if nothing has been logged.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Appends another diary's entries (e.g. merging per-arm diaries),
    /// re-sorting by time with a stable sort so same-time entries keep their
    /// original relative order.
    pub fn merge(&mut self, other: &Diary) {
        self.entries.extend(other.entries.iter().cloned());
        self.entries.sort_by_key(|e| e.at);
    }

    /// Merges many diaries at once (e.g. per-arm diaries), moving their
    /// entries in without cloning: one k-way merge by time into a
    /// presized log. Same-time entries keep earlier-diary-first order and
    /// each diary's internal order, so the result equals folding
    /// [`Diary::merge`] over the same sequence — and merging per-arm
    /// diaries is reproducible regardless of how many arms contributed.
    ///
    /// Every part must already be time-ordered, which [`Diary::log`]
    /// guarantees for a diary that follows a monotone clock; the merge
    /// does not sort (debug builds assert the precondition).
    pub fn concat(parts: impl IntoIterator<Item = Diary>) -> Diary {
        let mut parts: Vec<Vec<Entry>> =
            parts.into_iter().map(|d| d.entries).filter(|e| !e.is_empty()).collect();
        debug_assert!(
            parts.iter().all(|p| p.windows(2).all(|w| w[0].at <= w[1].at)),
            "concatenated diaries must each be time-ordered"
        );
        if parts.len() <= 1 {
            return Diary { entries: parts.pop().unwrap_or_default() };
        }
        let mut entries = Vec::with_capacity(parts.iter().map(Vec::len).sum());
        let mut parts: Vec<_> = parts.into_iter().map(Vec::into_iter).collect();
        // One head per part, keyed (time, part): the earlier part wins a
        // same-time tie, and a part's own entries leave in its order.
        let mut heads: BinaryHeap<Reverse<(SimTime, usize)>> = parts
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.as_slice().first().map(|e| Reverse((e.at, i))))
            .collect();
        while let Some(mut top) = heads.peek_mut() {
            let Reverse((_, i)) = *top;
            let part = &mut parts[i];
            entries.extend(part.next());
            // Rekey the top in place (one sift on release) or retire it.
            match part.as_slice().first() {
                Some(e) => *top = Reverse((e.at, i)),
                None => {
                    PeekMut::pop(top);
                }
            }
        }
        Diary { entries }
    }

    /// Renders the diary as plain text, one line per entry.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for e in &self.entries {
            let _ = writeln!(out, "[{}] {:8} {:8} {}", e.at, e.severity, e.tier, e.message);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_and_count() {
        let mut d = Diary::new();
        d.log(SimTime::ZERO, Severity::Info, Tier::Device, "deployed");
        d.log(SimTime::from_years(1), Severity::Warning, Tier::Device, "offline");
        d.log(SimTime::from_years(2), Severity::Incident, Tier::Backhaul, "sunset");
        assert_eq!(d.len(), 3);
        assert_eq!(d.count(Severity::Info), 1);
        assert_eq!(d.count(Severity::Incident), 1);
        assert_eq!(d.count_tier(Tier::Device), 2);
        assert_eq!(d.at_least(Severity::Warning).count(), 2);
    }

    #[test]
    fn severity_orders() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Incident);
    }

    #[test]
    fn render_contains_fields() {
        let mut d = Diary::new();
        d.log(SimTime::from_years(5), Severity::Incident, Tier::Gateway, "gw replaced");
        let text = d.render();
        assert!(text.contains("INCIDENT"));
        assert!(text.contains("gateway"));
        assert!(text.contains("gw replaced"));
        assert!(text.contains("y005"));
    }

    #[test]
    fn merge_sorts_by_time() {
        let mut a = Diary::new();
        a.log(SimTime::from_years(1), Severity::Info, Tier::Device, "a1");
        a.log(SimTime::from_years(3), Severity::Info, Tier::Device, "a3");
        let mut b = Diary::new();
        b.log(SimTime::from_years(2), Severity::Info, Tier::Cloud, "b2");
        a.merge(&b);
        let years: Vec<u64> = a.entries().iter().map(|e| e.at.year()).collect();
        assert_eq!(years, vec![1, 2, 3]);
    }

    #[test]
    fn concat_is_stable_across_per_arm_diaries() {
        // Three "arms" log at the same instants; after the merge, the
        // same-time entries must keep arm order (a, then b, then c) and
        // each arm's internal order — the property digests rely on.
        let t = SimTime::from_years(1);
        let mut a = Diary::new();
        a.log(t, Severity::Info, Tier::Device, "a-first");
        a.log(t, Severity::Info, Tier::Device, "a-second");
        let mut b = Diary::new();
        b.log(SimTime::ZERO, Severity::Info, Tier::Cloud, "b-early");
        b.log(t, Severity::Info, Tier::Cloud, "b-at-t");
        let mut c = Diary::new();
        c.log(t, Severity::Info, Tier::System, "c-at-t");
        let merged = Diary::concat([a, b, c]);
        let msgs: Vec<&str> = merged.entries().iter().map(|e| e.message.as_str()).collect();
        assert_eq!(msgs, vec!["b-early", "a-first", "a-second", "b-at-t", "c-at-t"]);
    }

    #[test]
    fn concat_equals_folded_merge() {
        let at = |y: u64, m: &str, tier: Tier| {
            let mut d = Diary::new();
            d.log(SimTime::from_years(y), Severity::Info, tier, m);
            d
        };
        let mut a = at(1, "a1", Tier::Device);
        a.log(SimTime::from_years(4), Severity::Warning, Tier::Device, "a4");
        let mut b = at(0, "b0", Tier::Cloud);
        b.log(SimTime::from_years(1), Severity::Info, Tier::Cloud, "b1");
        b.log(SimTime::from_years(4), Severity::Info, Tier::Cloud, "b4");
        let c = at(1, "c1", Tier::System);
        let parts = [a, Diary::new(), b, c];
        let mut folded = Diary::new();
        for part in &parts {
            folded.merge(part);
        }
        let merged = Diary::concat(parts);
        assert_eq!(merged.render(), folded.render());
        let msgs: Vec<&str> = merged.entries().iter().map(|e| e.message.as_str()).collect();
        assert_eq!(msgs, vec!["b0", "a1", "b1", "c1", "a4", "b4"]);
    }

    #[test]
    fn concat_equals_the_concat_and_stable_sort_oracle() {
        fn oracle(parts: &[Diary]) -> Vec<Entry> {
            let mut entries: Vec<Entry> =
                parts.iter().flat_map(|d| d.entries.iter().cloned()).collect();
            entries.sort_by_key(|e| e.at);
            entries
        }
        let key = |e: &Entry| (e.at, e.message.clone());
        let mut rng = crate::rng::Rng::seed_from(0xD1A7);
        for case in 0..400 {
            // 1..=6 parts, some empty; times drawn from a few instants so
            // equal-time entries across parts are the common case.
            let n_parts = 1 + rng.next_below(6) as usize;
            let parts: Vec<Diary> = (0..n_parts)
                .map(|p| {
                    let mut d = Diary::new();
                    let len = if rng.chance(0.2) { 0 } else { rng.next_below(12) };
                    let mut t = 0;
                    for k in 0..len {
                        t += rng.next_below(3);
                        d.log(SimTime::from_secs(t), Severity::Info, Tier::Device, format!("{p}.{k}"));
                    }
                    d
                })
                .collect();
            let expect: Vec<_> = oracle(&parts).iter().map(key).collect();
            let merged = Diary::concat(parts);
            let got: Vec<_> = merged.entries().iter().map(key).collect();
            assert_eq!(got, expect, "case {case}");
        }
        // A single part passes through whole; no parts give an empty diary.
        let mut one = Diary::new();
        one.log(SimTime::from_secs(1), Severity::Info, Tier::Cloud, "x");
        one.log(SimTime::from_secs(1), Severity::Info, Tier::Cloud, "y");
        assert_eq!(Diary::concat([one.clone()]).render(), one.render());
        assert!(Diary::concat([Diary::new(), Diary::new()]).is_empty());
        assert!(Diary::concat(Vec::new()).is_empty());
    }

    #[test]
    fn digest_codes_are_frozen() {
        // These byte values are part of the golden-digest contract.
        assert_eq!(
            [Severity::Info.code(), Severity::Warning.code(), Severity::Incident.code()],
            [0, 1, 2]
        );
        assert_eq!(
            [
                Tier::Device.code(),
                Tier::Gateway.code(),
                Tier::Backhaul.code(),
                Tier::Cloud.code(),
                Tier::System.code()
            ],
            [0, 1, 2, 3, 4]
        );
    }

    #[test]
    fn empty_diary() {
        let d = Diary::new();
        assert!(d.is_empty());
        assert_eq!(d.render(), "");
    }
}
