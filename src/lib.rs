//! Facade crate bundling the `ninec` test-data-compression suite.
pub use ninec;
pub use ninec_atpg as atpg;
pub use ninec_baselines as baselines;
pub use ninec_circuit as circuit;
pub use ninec_decompressor as decompressor;
pub use ninec_fsim as fsim;
pub use ninec_synth as synth;
pub use ninec_testdata as testdata;

/// Every Rust block of the README, run as a doctest so the examples
/// there cannot drift from the API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
