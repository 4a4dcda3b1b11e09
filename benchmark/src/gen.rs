//! The benchmark's own input generator.
//!
//! Workload inputs come from here rather than from `ninec_testdata::gen`,
//! so a change to the library's generator cannot silently change what a
//! workload measures. The model is the same burst model the repository
//! uses for its synthetic ISCAS/IBM profiles: test cubes alternate
//! geometric don't-care runs with geometric care bursts; a burst takes a
//! base value (0 with probability `zero_bias`) and each bit flips away
//! from it with probability `flip_prob`; earlier cubes are denser than
//! later ones by `density_skew`. Randomness is splitmix64, so one seed
//! gives the same trits on every platform.

use ninec_testdata::trit::{Trit, TritVec};

/// splitmix64 (Steele, Lea, Flood 2014): tiny, fast and fully specified.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for `seed` on the independent stream `stream`, so
    /// inputs, damage and request mixes drawn from one seed never share
    /// random numbers.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut g = SplitMix64(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        g.next_u64();
        g
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// Geometric run length with the given mean, at least 1.
    fn run(&mut self, mean: f64) -> usize {
        let mean = mean.max(1.0);
        if mean <= 1.0 {
            return 1;
        }
        let u = 1.0 - self.unit(); // (0, 1]
        (1.0 + u.ln() / (1.0 - 1.0 / mean).ln()).floor() as usize
    }
}

/// Mean care-burst length of the CKT1 shape, in symbols.
const MEAN_CARE_RUN: f64 = 10.0;
/// Probability that a care burst is a burst of zeros.
const ZERO_BIAS: f64 = 0.72;
/// Probability that a bit inside a burst flips away from its base.
const FLIP_PROB: f64 = 0.12;
/// How much denser the first cubes are than the last.
const DENSITY_SKEW: f64 = 3.0;

/// Shape of a generated test set: the CKT1 burst structure at a given
/// size and don't-care density.
#[derive(Debug, Clone, Copy)]
pub struct Profile {
    pub patterns: usize,
    pub pattern_len: usize,
    pub x_density: f64,
}

impl Profile {
    pub const fn ckt1(patterns: usize, pattern_len: usize, x_density: f64) -> Self {
        Profile {
            patterns,
            pattern_len,
            x_density,
        }
    }

    pub fn total(&self) -> usize {
        self.patterns * self.pattern_len
    }

    /// The test set as one concatenated scan stream.
    pub fn generate(&self, rng: &mut SplitMix64) -> TritVec {
        let n = self.patterns;
        let decay: Vec<f64> = (0..n)
            .map(|i| DENSITY_SKEW.powf(-(i as f64) / n as f64))
            .collect();
        let mean_decay = decay.iter().sum::<f64>() / n as f64;
        let mut out = TritVec::with_capacity(self.total());
        for factor in decay {
            let care = ((1.0 - self.x_density) * factor / mean_decay).clamp(0.001, 0.999);
            let mean_x_run = (MEAN_CARE_RUN * (1.0 - care) / care).max(1.0);
            let end = out.len() + self.pattern_len;
            let mut in_care = rng.chance(care);
            while out.len() < end {
                let room = end - out.len();
                if in_care {
                    let base = rng.chance(ZERO_BIAS);
                    for _ in 0..rng.run(MEAN_CARE_RUN).min(room) {
                        let zero = base != rng.chance(FLIP_PROB);
                        out.push(if zero { Trit::Zero } else { Trit::One });
                    }
                } else {
                    out.push_run(Trit::X, rng.run(mean_x_run).min(room));
                }
                in_care = !in_care;
            }
        }
        out
    }
}

/// FNV-1a 64 over the trits, two bits each: the input digest every run
/// prints, so two runs can show they measured the same inputs.
pub fn digest(trits: &TritVec) -> u64 {
    let view = trits.as_slice();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut at = 0;
    while at < view.len() {
        let n = (view.len() - at).min(64);
        for word in [view.care_word(at, n), view.value_word(at, n)] {
            for byte in word.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        at += n;
    }
    h ^ trits.len() as u64
}

/// Folds one digest into another (order-sensitive).
pub fn mix(h: u64, next: u64) -> u64 {
    (h ^ next)
        .wrapping_mul(0x0000_0100_0000_01b3)
        .rotate_left(17)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_trits_and_density_on_target() {
        let p = Profile::ckt1(40, 2000, 0.90);
        let a = p.generate(&mut SplitMix64::new(7, 1));
        let b = p.generate(&mut SplitMix64::new(7, 1));
        let c = p.generate(&mut SplitMix64::new(8, 1));
        assert_eq!(a.len(), p.total());
        assert_eq!(digest(&a), digest(&b));
        assert_ne!(digest(&a), digest(&c));
        assert!((a.x_density() - 0.90).abs() < 0.03, "{}", a.x_density());
        assert!(a.count_zeros() > a.count_ones());
    }
}
