//! Cycle-accurate model of the single-scan-chain 9C decoder (paper Fig. 1).
//!
//! The model ticks at the SoC scan clock (`f_scan = p · f_ate`): an ATE
//! bit takes `p` SoC ticks to arrive; one scan shift takes one tick. The
//! sequencing follows the paper's architecture — the FSM parses a codeword
//! bit-serially, then for each half either streams constants into the scan
//! chain or first fills the `K/2`-bit shifter from `Data_in` and then
//! drains it — so a block of case `i` costs exactly
//! `p · size_i + K` SoC ticks, matching the analytic model in
//! [`ninec::analysis::TatModel`].

use crate::ate::AteChannel;
use ninec::code::{CodeTable, HalfSpec};
use ninec_testdata::bits::BitVec;
use std::collections::VecDeque;
use std::fmt;

/// Clock configuration: the SoC scan clock runs `p` times faster than the
/// ATE clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClockRatio {
    /// `f_scan / f_ate`, at least 1.
    pub p: u32,
}

impl ClockRatio {
    /// Creates a ratio.
    ///
    /// # Panics
    ///
    /// Panics if `p == 0`.
    pub fn new(p: u32) -> Self {
        assert!(p > 0, "clock ratio must be positive");
        Self { p }
    }
}

/// What went wrong during decompression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecompressError {
    /// The ATE buffer ran out mid-codeword or mid-payload.
    AteUnderrun {
        /// Scan bits produced so far.
        produced: usize,
    },
    /// The bits received match no codeword.
    BadCodeword {
        /// ATE bit offset of the failure.
        offset: usize,
    },
}

impl fmt::Display for DecompressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecompressError::AteUnderrun { produced } => {
                write!(f, "ATE buffer underrun after {produced} scan bits")
            }
            DecompressError::BadCodeword { offset } => {
                write!(f, "unrecognized codeword at ATE bit {offset}")
            }
        }
    }
}

impl std::error::Error for DecompressError {}

/// Trace of one decompression run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecompressionTrace {
    /// The bits scanned into the chain, in scan order.
    pub scan_out: BitVec,
    /// Total SoC scan-clock ticks consumed.
    pub soc_ticks: u64,
    /// ATE data bits consumed (= ATE cycles spent on transfer).
    pub ate_bits: u64,
    /// Number of codewords (blocks) processed.
    pub blocks: u64,
    /// Per-case codeword counts observed by the FSM.
    pub case_counts: [u64; 9],
}

impl DecompressionTrace {
    /// Equivalent time in ATE clock periods: `soc_ticks / p`.
    pub fn ate_cycles(&self, clocks: ClockRatio) -> f64 {
        self.soc_ticks as f64 / clocks.p as f64
    }
}

/// The single-scan-chain decoder of Figure 1: FSM + `log2(K/2)`-bit
/// counter + `K/2`-bit shifter + 3-way MUX.
///
/// # Examples
///
/// ```
/// use ninec::encode::Encoder;
/// use ninec_decompressor::single::{ClockRatio, SingleScanDecoder};
/// use ninec_testdata::fill::FillStrategy;
///
/// let encoder = Encoder::new(8)?;
/// let source: ninec_testdata::TritVec = "0000000011111111".parse()?;
/// let encoded = encoder.encode_stream(&source);
/// let ate_bits = encoded.to_bitvec(FillStrategy::Zero);
///
/// let decoder = SingleScanDecoder::new(8, encoded.table().clone(), ClockRatio::new(8));
/// let trace = decoder.run(&ate_bits, source.len())?;
/// assert_eq!(trace.scan_out.to_string(), "0000000011111111");
/// // Two blocks: (1 + 2 codeword bits) * p + 2 * K scan ticks.
/// assert_eq!(trace.soc_ticks, 8 * 3 + 16);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct SingleScanDecoder {
    k: usize,
    table: CodeTable,
    clocks: ClockRatio,
}

impl SingleScanDecoder {
    /// Creates a decoder for block size `k`.
    ///
    /// # Panics
    ///
    /// Panics unless `k` is even and at least 4.
    pub fn new(k: usize, table: CodeTable, clocks: ClockRatio) -> Self {
        assert!(
            k >= 4 && k.is_multiple_of(2),
            "block size must be even and >= 4, got {k}"
        );
        Self { k, table, clocks }
    }

    /// Block size `K`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Runs the decoder until `out_len` scan bits have been produced.
    ///
    /// # Errors
    ///
    /// See [`DecompressError`].
    pub fn run(
        &self,
        ate_bits: &BitVec,
        out_len: usize,
    ) -> Result<DecompressionTrace, DecompressError> {
        let _span = ninec_obs::span("decomp_single_run");
        let mut ate = AteChannel::new(ate_bits.clone());
        let mut trace = DecompressionTrace {
            scan_out: BitVec::with_capacity(out_len + self.k),
            soc_ticks: 0,
            ate_bits: 0,
            blocks: 0,
            case_counts: [0; 9],
        };
        let p = self.clocks.p as u64;
        let half = self.k / 2;
        let mut shifter: VecDeque<bool> = VecDeque::with_capacity(half);

        while trace.scan_out.len() < out_len {
            // --- FSM: parse one codeword bit-serially (p ticks per bit).
            let start_offset = ate.bits_served();
            let mut acc: Vec<bool> = Vec::with_capacity(5);
            let case = loop {
                let bit = ate.next_bit().ok_or(DecompressError::AteUnderrun {
                    produced: trace.scan_out.len(),
                })?;
                trace.soc_ticks += p;
                trace.ate_bits += 1;
                acc.push(bit);
                if acc.len() > 16 {
                    return Err(DecompressError::BadCodeword {
                        offset: start_offset,
                    });
                }
                if let Some((case, used)) = self.table.match_at(|i| acc.get(i).copied()) {
                    debug_assert_eq!(used, acc.len());
                    break case;
                }
                // `match_at` returns None both for "need more bits" and
                // "dead prefix"; a dead prefix can never extend to a match,
                // which the length cap above catches.
            };
            trace.case_counts[case.index()] += 1;
            trace.blocks += 1;

            // --- Per half: constants from the MUX or data via the shifter.
            let (left, right) = case.halves();
            for spec in [left, right] {
                match spec {
                    HalfSpec::Zero | HalfSpec::One => {
                        let bit = spec == HalfSpec::One;
                        for _ in 0..half {
                            trace.scan_out.push(bit);
                            trace.soc_ticks += 1; // one scan shift
                        }
                    }
                    HalfSpec::Mismatch => {
                        // Fill the K/2-bit shifter from Data_in at ATE rate…
                        for _ in 0..half {
                            let bit = ate.next_bit().ok_or(DecompressError::AteUnderrun {
                                produced: trace.scan_out.len(),
                            })?;
                            trace.soc_ticks += p;
                            trace.ate_bits += 1;
                            shifter.push_back(bit);
                        }
                        // …then drain it into the scan chain at SoC rate.
                        while let Some(bit) = shifter.pop_front() {
                            trace.scan_out.push(bit);
                            trace.soc_ticks += 1;
                        }
                    }
                }
            }
            // Ack: the FSM releases the ATE for the next codeword (free —
            // overlapped with the last shift, as in the paper's timing).
        }

        // Drop pad bits beyond the requested length.
        if trace.scan_out.len() > out_len {
            trace.scan_out = trace.scan_out.iter().take(out_len).collect();
        }
        // Batched telemetry flush: the per-tick FSM loop above never
        // touches an atomic. No-op while runtime telemetry is off.
        if ninec_obs::runtime_enabled() {
            let reg = ninec_obs::global();
            reg.counter("ninec.decomp.single.runs").inc();
            reg.counter("ninec.decomp.single.blocks").add(trace.blocks);
            reg.counter("ninec.decomp.single.soc_ticks")
                .add(trace.soc_ticks);
            reg.counter("ninec.decomp.single.ate_bits")
                .add(trace.ate_bits);
        }
        Ok(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ninec::analysis::TatModel;
    use ninec::encode::Encoder;
    use ninec_testdata::fill::FillStrategy;
    use ninec_testdata::gen::SyntheticProfile;
    use ninec_testdata::trit::TritVec;

    fn run_roundtrip(k: usize, p: u32, src: &TritVec) -> DecompressionTrace {
        let encoder = Encoder::new(k).unwrap();
        let encoded = encoder.encode_stream(src);
        let ate_bits = encoded.to_bitvec(FillStrategy::Random { seed: 42 });
        let decoder = SingleScanDecoder::new(k, encoded.table().clone(), ClockRatio::new(p));
        let trace = decoder.run(&ate_bits, src.len()).unwrap();
        // Output must cover the source cubes.
        assert_eq!(trace.scan_out.len(), src.len());
        for i in 0..src.len() {
            if let Some(v) = src.get(i).unwrap().value() {
                assert_eq!(trace.scan_out.get(i), Some(v), "care bit {i}");
            }
        }
        // The decoder consumed the whole ATE stream.
        assert_eq!(trace.ate_bits as usize, ate_bits.len());
        trace
    }

    #[test]
    fn decodes_synthetic_sets() {
        for k in [4, 8, 16] {
            let ts = SyntheticProfile::new("dec", 20, 96, 0.75).generate(k as u64);
            run_roundtrip(k, 8, ts.as_stream());
        }
    }

    #[test]
    fn cycle_count_matches_analytic_model() {
        for (k, p) in [(8usize, 8u32), (8, 16), (16, 4), (12, 24)] {
            let ts = SyntheticProfile::new("cyc", 15, 120, 0.7).generate(3);
            let src = ts.as_stream();
            let encoder = Encoder::new(k).unwrap();
            let encoded = encoder.encode_stream(src);
            let trace = run_roundtrip(k, p, src);
            let model = TatModel::new(p as f64);
            let analytic_ate = model.compressed_cycles(encoded.stats(), encoded.table(), k);
            // soc_ticks = p * analytic ATE cycles (the model counts in ATE
            // periods; K scan ticks = K/p ATE periods).
            assert_eq!(
                trace.soc_ticks as f64,
                analytic_ate * p as f64,
                "k={k} p={p}"
            );
            assert_eq!(trace.case_counts, encoded.stats().case_counts);
        }
    }

    #[test]
    fn underrun_detected() {
        let decoder = SingleScanDecoder::new(8, CodeTable::paper(), ClockRatio::new(2));
        // "1100" promises a K-bit payload that never arrives.
        let bits = BitVec::from_str_radix2("1100").unwrap();
        assert!(matches!(
            decoder.run(&bits, 8),
            Err(DecompressError::AteUnderrun { .. })
        ));
    }

    #[test]
    fn truncated_codeword_is_underrun() {
        let decoder = SingleScanDecoder::new(8, CodeTable::paper(), ClockRatio::new(2));
        let bits = BitVec::from_str_radix2("11").unwrap();
        assert!(matches!(
            decoder.run(&bits, 8),
            Err(DecompressError::AteUnderrun { .. })
        ));
    }

    #[test]
    fn matches_software_decoder() {
        use ninec::session::DecodeSession;
        let ts = SyntheticProfile::new("swhw", 25, 104, 0.8).generate(17);
        let src = ts.as_stream();
        let encoder = Encoder::new(8).unwrap();
        let encoded = encoder.encode_stream(src);
        let ate_bits = encoded.to_bitvec(FillStrategy::Zero);
        let sw = DecodeSession::new()
            .k(8)
            .table(encoded.table().clone())
            .source_len(src.len())
            .decode_bits(&ate_bits)
            .unwrap();
        let hw = SingleScanDecoder::new(8, encoded.table().clone(), ClockRatio::new(8))
            .run(&ate_bits, src.len())
            .unwrap();
        assert_eq!(hw.scan_out, sw);
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_k_panics() {
        let _ = SingleScanDecoder::new(7, CodeTable::paper(), ClockRatio::new(1));
    }
}
