//! Order statistics and the small formulas the report derives from them.

/// Percentile ladder searched for the reportable tail, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `samples` (`p` in `0..=100`); `NaN` when
/// there are no samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), p) - 1]
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps an exact product (99.9% of 10_000) from rounding
    // up past its integer.
    let r = (p * n as f64 / 100.0 - 1e-9).ceil() as usize;
    r.clamp(1, n)
}

/// Median (nearest-rank p50).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The highest reportable tail of a timing distribution.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile (e.g. `95.0`).
    pub pct: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// How many samples the distribution holds.
    pub samples: usize,
}

/// The highest percentile on the ladder with at least
/// [`TAIL_MIN_BEYOND`] samples strictly beyond its rank, or `None` when
/// even the median lacks that support.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    TAIL_LADDER
        .iter()
        .find(|&&p| n > 0 && n - rank(n, p) >= TAIL_MIN_BEYOND)
        .map(|&pct| Tail {
            pct,
            value: percentile(samples, pct),
            samples: n,
        })
}

/// Amdahl's serial fraction `s` implied by a measured `speedup` on `k`
/// workers: solves `speedup = 1 / (s + (1 - s) / k)` for `s`.
pub fn amdahl_serial_fraction(speedup: f64, k: f64) -> f64 {
    (k / speedup - 1.0) / (k - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 95.0), 95.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 200 samples: p95 has rank 190 and exactly ten beyond it; p99
        // has two beyond, so p95 is the highest reportable tail.
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(
            tail(&xs),
            Some(Tail {
                pct: 95.0,
                value: 190.0,
                samples: 200
            })
        );
        // 199 samples: p95's rank rounds up to 190, leaving nine beyond.
        let xs: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(tail(&xs).map(|t| t.pct), Some(90.0));
        // 1000 samples reach p99; 10_000 reach p99.9.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs).map(|t| (t.pct, t.samples)), Some((99.0, 1000)));
        let xs: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&xs).map(|t| t.pct), Some(99.9));
        // Twenty samples support only the median; nineteen support nothing.
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&xs).map(|t| t.pct), Some(50.0));
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&xs), None);
    }

    #[test]
    fn amdahl_inverts_the_speedup_law() {
        for s in [0.0, 0.25, 0.56, 1.0] {
            let k = 2.0;
            let speedup = 1.0 / (s + (1.0 - s) / k);
            assert!((amdahl_serial_fraction(speedup, k) - s).abs() < 1e-12);
        }
        // The ROADMAP's 1.28x at k=2 means a serial share of about 0.56.
        assert!((amdahl_serial_fraction(1.28, 2.0) - 0.5625).abs() < 1e-12);
    }
}
