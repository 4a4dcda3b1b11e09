//! Order statistics for timings.

use crate::gen::SplitMix64;

/// A uniform random sample of at most [`Reservoir::CAP`] values from a
/// stream of any length (Vitter's algorithm R), so the memory the
/// benchmark keeps for its timings does not grow with the run and leak
/// into `peak_rss_mib`.
#[derive(Debug)]
pub struct Reservoir<T> {
    kept: Vec<T>,
    seen: usize,
    rng: SplitMix64,
}

impl<T> Reservoir<T> {
    pub const CAP: usize = 1 << 12;

    pub fn new(seed: u64) -> Self {
        Reservoir {
            kept: Vec::new(),
            seen: 0,
            rng: SplitMix64::new(seed, 0x5a17),
        }
    }

    pub fn push(&mut self, value: T) {
        self.seen += 1;
        if self.kept.len() < Self::CAP {
            self.kept.push(value);
        } else {
            let j = self.rng.below(self.seen);
            if j < Self::CAP {
                self.kept[j] = value;
            }
        }
    }

    /// Values pushed so far.
    pub fn seen(&self) -> usize {
        self.seen
    }
}

/// The sample itself.
impl<T> std::ops::Deref for Reservoir<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.kept
    }
}

/// Sorted copy of `values` (NaN-free by construction: every sample is a
/// measured duration or a ratio of two).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) by linear interpolation between order
/// statistics; `NaN` for no samples.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return f64::NAN;
    }
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the default
/// "exclusive" method), so a spread computed here matches one computed
/// from the printed results.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    match v.len() {
        0 => (f64::NAN, f64::NAN, f64::NAN),
        1 => (v[0], v[0], v[0]),
        n => {
            let m = n + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (cut(1), cut(2), cut(3))
        }
    }
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it, with its value: `(percentile, value)`.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let n = values.len() as f64;
    let pct = [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|p| n * (100.0 - p) / 100.0 >= 10.0 - 1e-9)
        .unwrap_or(50.0);
    (pct, quantile(values, pct / 100.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&v).0, 99.0);
        assert_eq!(tail(&v[..100]).0, 90.0);
        assert_eq!(tail(&v[..20]).0, 50.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn reservoir_keeps_a_bounded_uniform_sample() {
        let mut r = Reservoir::new(1);
        for i in 0..(Reservoir::<f64>::CAP * 4) {
            r.push(i as f64);
        }
        assert_eq!(r.seen(), Reservoir::<f64>::CAP * 4);
        assert_eq!(r.len(), Reservoir::<f64>::CAP);
        let mid = median(&r) / (Reservoir::<f64>::CAP * 4) as f64;
        assert!((mid - 0.5).abs() < 0.02, "{mid}");
    }
}
