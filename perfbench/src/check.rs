//! Output checks. Every operation a workload times is counted here, and
//! every operation whose output fails a check counts as failed.

/// Attempted/failed operation counts plus the reasons for failures.
#[derive(Debug, Default)]
pub struct Checker {
    attempted: u64,
    failed: u64,
    /// Failure messages (the first few are printed).
    pub failures: Vec<String>,
}

impl Checker {
    /// Counts `n` operations as attempted.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Records one failed operation with its reason.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    /// Fails one operation unless `ok`.
    pub fn expect(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(why());
        }
    }

    /// Fails one operation unless `got` equals the reference digest.
    pub fn digest(&mut self, what: &str, got: u64, want: u64) {
        self.expect(got == want, || {
            format!("{what}: digest {got:016x} != reference {want:016x}")
        });
    }

    /// Fails the operation unless `mean` lies within `k` standard errors of
    /// `expected`; the standard error comes from `samples` themselves.
    pub fn within_se(&mut self, what: &str, samples: &[f64], expected: f64, k: f64) {
        let (mean, se) = mean_se(samples);
        self.expect((mean - expected).abs() <= k * se, || {
            format!("{what}: mean {mean:.5} is more than {k} SE ({se:.5}) from {expected}")
        });
    }

    /// Operations attempted.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Operations whose outputs failed a check.
    pub fn failed(&self) -> u64 {
        self.failed
    }
}

/// Sample mean and standard error of the mean.
pub fn mean_se(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, (var / n).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_flipped_digest_counts_one_failed_operation() {
        let mut c = Checker::default();
        c.attempt(2);
        c.digest("run 0", 0x7e16_453e_e6ac_5c6a, 0x7e16_453e_e6ac_5c6a);
        assert_eq!(c.failed(), 0);
        c.digest("run 1", 0x7e16_453e_e6ac_5c6a ^ 1, 0x7e16_453e_e6ac_5c6a);
        assert_eq!((c.attempted(), c.failed()), (2, 1));
        assert!(c.failures[0].contains("run 1"));
    }

    #[test]
    fn standard_error_check() {
        let xs = [0.99, 1.0, 0.98, 1.0];
        let (mean, se) = mean_se(&xs);
        assert!((mean - 0.9925).abs() < 1e-12);
        let mut c = Checker::default();
        c.within_se("near", &xs, mean + 3.0 * se, 4.0);
        assert_eq!(c.failed(), 0);
        c.within_se("far", &xs, mean + 5.0 * se, 4.0);
        assert_eq!(c.failed(), 1);
    }
}
