//! Differential test between the two stats pipelines: the local
//! [`EncodeStats`] tally returned with every [`Encoded`] and the global
//! `ninec.encode.case.C*` counters that [`StreamEncoder::finish`] flushes
//! into the [`ninec_obs`] registry.
//!
//! Both are fed by the same classification loop, but through different
//! plumbing (struct fields vs batched atomic adds), so this is the place
//! a divergence would show up. The test measures registry *deltas* around
//! each encode, which makes it independent of whatever other activity
//! already populated the process-global registry.
//!
//! Everything lives in one `#[test]` because the registry is process
//! global: a second concurrently-running encode in this binary would
//! perturb the deltas.
//!
//! [`EncodeStats`]: ninec::encode::EncodeStats
//! [`Encoded`]: ninec::encode::Encoded
//! [`StreamEncoder::finish`]: ninec::encode::StreamEncoder::finish

use ninec::encode::Encoder;
use ninec_obs::catalogue;
use ninec_testdata::trit::{Trit, TritVec};
use proptest::prelude::*;

/// Reads the nine case counters plus the block counter from the global
/// registry.
fn registry_counts() -> ([u64; 9], u64) {
    let mut cases = [0u64; 9];
    for (i, slot) in cases.iter_mut().enumerate() {
        *slot = ninec_obs::counter(catalogue::ENCODE_CASES[i].name()).get();
    }
    (
        cases,
        ninec_obs::counter(catalogue::ENCODE_BLOCKS.name()).get(),
    )
}

fn to_stream(raw: &[u8]) -> TritVec {
    raw.iter()
        .map(|b| match b % 3 {
            0 => Trit::Zero,
            1 => Trit::One,
            _ => Trit::X,
        })
        .collect()
}

proptest! {
    #[test]
    fn registry_case_counters_match_encode_stats(
        raw in proptest::collection::vec(0u8..3, 1..600),
        k_idx in 0usize..4,
        bias in 0u8..3,
    ) {
        let k = [4usize, 8, 16, 32][k_idx];
        // Bias some inputs towards runs of a single symbol so the
        // non-mismatch cases C1–C4 actually fire.
        let stream = match bias {
            0 => to_stream(&raw),
            1 => to_stream(&vec![raw[0]; raw.len()]),
            _ => {
                let mut v = raw.clone();
                for c in v.chunks_mut(k) {
                    let lead = c[0];
                    for s in c.iter_mut() {
                        *s = lead;
                    }
                }
                to_stream(&v)
            }
        };
        let encoder = Encoder::new(k).unwrap();

        let (cases_before, blocks_before) = registry_counts();
        let encoded = encoder.encode_stream(&stream);
        let (cases_after, blocks_after) = registry_counts();
        let stats = encoded.stats();

        for i in 0..9 {
            prop_assert_eq!(
                cases_after[i] - cases_before[i],
                stats.case_counts[i],
                "case C{} delta diverged from EncodeStats (k={})",
                i + 1,
                k
            );
        }
        prop_assert_eq!(blocks_after - blocks_before, stats.blocks);
        // The per-case counters and the block counter are two
        // independent accumulations of the same loop.
        let total: u64 = stats.case_counts.iter().sum();
        prop_assert_eq!(total, stats.blocks);
    }
}
