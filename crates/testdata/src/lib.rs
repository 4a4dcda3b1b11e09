//! Test-data substrate for the `ninec` suite.
//!
//! Scan test sets are streams over the three-valued alphabet {`0`, `1`,
//! `X`}. This crate provides the shared data model every other crate in the
//! workspace builds on:
//!
//! - [`bits`] — packed [`BitVec`] plus bit-granular
//!   reader/writer, the substrate of every compression code;
//! - [`trit`] — the three-valued symbol [`Trit`] and packed
//!   [`TritVec`];
//! - [`mod@slice`] — zero-copy [`TritSlice`] subrange views and the
//!   allocation-free [`slice::Chunks`] cursor streaming consumers iterate;
//! - [`words`] — word-parallel kernels over packed LSB-first bit ranges
//!   (popcount classification, cross-boundary word extraction);
//! - [`cube`] — [`TestSet`], the precomputed test set `T_D`;
//! - [`gen`] — profile-calibrated synthetic test-set generators standing in
//!   for the paper's Mintest/IBM data (see `DESIGN.md` §4);
//! - [`fill`] — don't-care fill strategies (random, constant,
//!   minimum-transition);
//! - [`power`] — weighted-transitions scan power metric;
//! - [`stats`] — descriptive statistics;
//! - [`io`] — cube-file text serialization.
//!
//! # Example
//!
//! ```
//! use ninec_testdata::gen::SyntheticProfile;
//! use ninec_testdata::fill::{fill_test_set, FillStrategy};
//! use ninec_testdata::stats::TestSetStats;
//!
//! // Generate an s5378-shaped test set and fill its don't-cares randomly.
//! let profile = SyntheticProfile::new("demo", 32, 128, 0.75);
//! let cubes = profile.generate(1);
//! let filled = fill_test_set(&cubes, FillStrategy::Random { seed: 7 });
//! assert!(filled.covers(&cubes));
//! println!("{}", TestSetStats::compute(&cubes));
//! ```

#![warn(missing_docs)]

pub mod bits;
pub mod cube;
pub mod fill;
pub mod gen;
pub mod io;
pub mod power;
#[cfg(feature = "serde")]
mod serde_impls;
pub mod slice;
pub mod stats;
pub mod trit;
pub mod words;

pub use bits::BitVec;
pub use cube::TestSet;
pub use slice::TritSlice;
pub use trit::{Trit, TritVec};
