//! Descriptive statistics of test sets.
//!
//! Used by the experiment harness to report the properties the generators
//! are calibrated against, and to sanity-check synthetic data against the
//! published profiles.

use crate::cube::TestSet;
use crate::trit::Trit;
use std::fmt;

/// Summary statistics of a [`TestSet`].
#[derive(Debug, Clone, PartialEq)]
pub struct TestSetStats {
    /// Number of cubes.
    pub num_patterns: usize,
    /// Scan length.
    pub pattern_len: usize,
    /// Total symbols (`|T_D|`).
    pub total_bits: usize,
    /// Count of specified zeros.
    pub zeros: usize,
    /// Count of specified ones.
    pub ones: usize,
    /// Count of don't-cares.
    pub xs: usize,
    /// Mean length of maximal care-bit runs (0 if no care bits).
    pub mean_care_run: f64,
    /// Mean length of maximal X runs (0 if no X).
    pub mean_x_run: f64,
    /// Smallest per-pattern care fraction.
    pub min_pattern_care: f64,
    /// Largest per-pattern care fraction.
    pub max_pattern_care: f64,
}

impl TestSetStats {
    /// Computes statistics over a test set.
    ///
    /// Runs are measured within each pattern (they do not span pattern
    /// boundaries, matching how a scan chain is loaded).
    ///
    /// # Examples
    ///
    /// ```
    /// use ninec_testdata::cube::TestSet;
    /// use ninec_testdata::stats::TestSetStats;
    ///
    /// let ts = TestSet::from_patterns(6, ["00XX11", "XXXXXX"])?;
    /// let st = TestSetStats::compute(&ts);
    /// assert_eq!(st.zeros, 2);
    /// assert_eq!(st.ones, 2);
    /// assert_eq!(st.xs, 8);
    /// assert!((st.x_density() - 8.0 / 12.0).abs() < 1e-12);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn compute(set: &TestSet) -> Self {
        let mut zeros = 0usize;
        let mut ones = 0usize;
        let mut xs = 0usize;
        let mut care_runs = RunAccumulator::default();
        let mut x_runs = RunAccumulator::default();
        let mut min_care = f64::INFINITY;
        let mut max_care: f64 = 0.0;

        for cube in set.patterns() {
            let mut pattern_care = 0usize;
            let mut current: Option<(bool, usize)> = None; // (is_care, run length)
            for t in cube.iter() {
                match t {
                    Trit::Zero => zeros += 1,
                    Trit::One => ones += 1,
                    Trit::X => xs += 1,
                }
                let is_care = t.is_care();
                if is_care {
                    pattern_care += 1;
                }
                current = match current {
                    Some((kind, len)) if kind == is_care => Some((kind, len + 1)),
                    Some((kind, len)) => {
                        if kind {
                            care_runs.push(len);
                        } else {
                            x_runs.push(len);
                        }
                        Some((is_care, 1))
                    }
                    None => Some((is_care, 1)),
                };
            }
            if let Some((kind, len)) = current {
                if kind {
                    care_runs.push(len);
                } else {
                    x_runs.push(len);
                }
            }
            let frac = pattern_care as f64 / set.pattern_len() as f64;
            min_care = min_care.min(frac);
            max_care = max_care.max(frac);
        }

        if set.num_patterns() == 0 {
            min_care = 0.0;
        }
        // One histogram sample per analyzed set: the X-density the paper's
        // LX trade-off depends on, surfaced through the telemetry registry
        // (`testdata.x_density_pct`). Batched here — never in the per-symbol
        // loop — and skipped while runtime telemetry is off.
        let total = zeros + ones + xs;
        if ninec_obs::runtime_enabled() && total > 0 {
            let pct = xs as f64 / total as f64 * 100.0;
            ninec_obs::histogram("testdata.x_density_pct").record(pct.round() as u64);
            ninec_obs::counter("testdata.sets_analyzed").inc();
        }
        TestSetStats {
            num_patterns: set.num_patterns(),
            pattern_len: set.pattern_len(),
            total_bits: set.total_bits(),
            zeros,
            ones,
            xs,
            mean_care_run: care_runs.mean(),
            mean_x_run: x_runs.mean(),
            min_pattern_care: min_care,
            max_pattern_care: max_care,
        }
    }

    /// Fraction of symbols that are X.
    pub fn x_density(&self) -> f64 {
        if self.total_bits == 0 {
            0.0
        } else {
            self.xs as f64 / self.total_bits as f64
        }
    }

    /// Fraction of *care* bits that are 0 (the generator's `zero_bias`).
    pub fn zero_fraction_of_care(&self) -> f64 {
        let care = self.zeros + self.ones;
        if care == 0 {
            0.0
        } else {
            self.zeros as f64 / care as f64
        }
    }
}

impl fmt::Display for TestSetStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} x {} = {} bits, {:.1}% X ({} zeros / {} ones), care runs ~{:.1}, X runs ~{:.1}",
            self.num_patterns,
            self.pattern_len,
            self.total_bits,
            self.x_density() * 100.0,
            self.zeros,
            self.ones,
            self.mean_care_run,
            self.mean_x_run
        )
    }
}

#[derive(Default)]
struct RunAccumulator {
    total: usize,
    count: usize,
}

impl RunAccumulator {
    fn push(&mut self, len: usize) {
        self.total += len;
        self.count += 1;
    }

    fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_runs() {
        let ts = TestSet::from_patterns(8, ["00XX11XX", "XXXXXXXX"]).unwrap();
        let st = TestSetStats::compute(&ts);
        assert_eq!(st.zeros, 2);
        assert_eq!(st.ones, 2);
        assert_eq!(st.xs, 12);
        // Care runs: "00" and "11" -> mean 2. X runs: 2, 2, 8 -> mean 4.
        assert!((st.mean_care_run - 2.0).abs() < 1e-12);
        assert!((st.mean_x_run - 4.0).abs() < 1e-12);
    }

    #[test]
    fn runs_do_not_span_patterns() {
        let ts = TestSet::from_patterns(2, ["X1", "1X"]).unwrap();
        let st = TestSetStats::compute(&ts);
        // Two separate care runs of length 1, not one of length 2.
        assert!((st.mean_care_run - 1.0).abs() < 1e-12);
    }

    #[test]
    fn per_pattern_care_range() {
        let ts = TestSet::from_patterns(4, ["0101", "XXXX"]).unwrap();
        let st = TestSetStats::compute(&ts);
        assert_eq!(st.min_pattern_care, 0.0);
        assert_eq!(st.max_pattern_care, 1.0);
    }

    #[test]
    fn zero_fraction() {
        let ts = TestSet::from_patterns(4, ["000X", "1XXX"]).unwrap();
        let st = TestSetStats::compute(&ts);
        assert!((st.zero_fraction_of_care() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn synthetic_generator_matches_its_profile() {
        use crate::gen::SyntheticProfile;
        let mut p = SyntheticProfile::new("check", 80, 300, 0.75);
        p.mean_care_run = 5.0;
        let st = TestSetStats::compute(&p.generate(2));
        assert!((st.x_density() - 0.75).abs() < 0.05);
        assert!(st.zero_fraction_of_care() > 0.55);
        assert!(st.mean_care_run > 2.0 && st.mean_care_run < 9.0);
    }
}
