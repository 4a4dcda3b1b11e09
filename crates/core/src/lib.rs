//! `ninec` — the nine-coded (9C) test data compression technique.
//!
//! Reproduction of *"Nine-Coded Compression Technique with Application to
//! Reduced Pin-Count Testing and Flexible On-Chip Decompression"*
//! (Tehranipour, Nourani, Chakrabarty — DATE 2004).
//!
//! A precomputed scan test set `T_D` over {`0`, `1`, `X`} is cut into
//! fixed `K`-bit blocks; each block's two halves are classified as
//! all-zeros / all-ones / mismatch and the block is replaced by one of
//! nine prefix-free codewords (plus verbatim payload for mismatch halves).
//! Don't-cares in the payload survive compression and can be filled later —
//! randomly for non-modeled-fault coverage, or transition-minimizing for
//! scan power.
//!
//! - [`code`] — the nine cases and the prefix code table;
//! - [`block`] — half/block classification and greedy case selection;
//! - [`mod@encode`] / [`mod@decode`] — the codec, word-parallel on the
//!   packed care/value planes, with streaming entry points
//!   ([`encode::StreamEncoder`], [`decode::StreamDecoder`]) that hold only
//!   `O(K)` state between chunks;
//! - [`stream`] — the [`stream::BitSink`] / [`stream::BitSource`]
//!   abstractions the streaming codec reads and writes;
//! - [`session`] — the unified [`session::DecodeSession`] builder entry
//!   point for everything decode (the deprecated `decode*` free
//!   functions it replaced were removed in 0.4.0 — see the README's
//!   migration note);
//! - [`engine`] — the sharded multi-core codec engine: a std-only
//!   executor the calling thread joins, the self-describing `9CSF`
//!   segment-frame container, and parallel encode/decode that is
//!   byte-identical to the serial path at any thread count;
//! - [`analysis`] — compression-ratio and test-application-time models;
//! - [`metrics`] — the crate's telemetry names and batched publishing
//!   into the [`ninec_obs`] global registry (skipped while
//!   [`ninec_obs::runtime_enabled`] is off);
//! - [`freqdir`] — frequency-directed codeword reassignment (Table VII);
//! - [`multiscan`] — vertical data arrangement for `m` scan chains
//!   (reduced pin-count testing, Figures 3–4).
//!
//! # Quick start
//!
//! ```
//! use ninec::encode::Encoder;
//! use ninec::session::DecodeSession;
//! use ninec_testdata::gen::SyntheticProfile;
//!
//! // An s5378-shaped synthetic test set, compressed at K = 8.
//! let cubes = SyntheticProfile::new("demo", 50, 214, 0.72).generate(1);
//! let encoder = Encoder::new(8)?;
//! let encoded = encoder.encode_set(&cubes);
//! println!("CR = {:.1}%", encoded.compression_ratio());
//!
//! // Decoding preserves every care bit of the source.
//! let decoded = DecodeSession::new().decode(&encoded)?;
//! let src = cubes.as_stream();
//! assert!(decoded.len() == src.len());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod block;
pub mod code;
pub mod decode;
pub mod encode;
pub mod engine;
pub mod freqdir;
pub mod metrics;
pub mod multiscan;
pub mod session;
pub mod stream;

pub use analysis::{CompressionReport, TatModel};
pub use code::{Case, CodeTable};
pub use decode::{DecodeError, StreamDecoder};
pub use encode::{CaseSelect, EncodeStats, EncodeTotals, Encoded, Encoder, StreamEncoder};
pub use engine::{
    CancelToken, DamageReason, DamagedSegment, DecodeAudit, DecodeLimits, EncodeFrameError, Engine,
    EngineBuilder, FrameError, FramePlan, PlanEntry, Policy, SalvageReport, SegmentAudit,
    SegmentRung, SharedEngine, Trip,
};
pub use session::{DecodeOutcome, DecodeSession, RungKind};
pub use stream::{BitCounter, BitSink, BitSource};
