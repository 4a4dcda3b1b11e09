//! Experiment harness for the 9C reproduction.
//!
//! Regenerates every table and figure of the paper's evaluation section:
//!
//! - [`datasets`] — the shared deterministic synthetic datasets;
//! - [`tables`] — engines + renderers for Tables I–VIII and Figures 1–4;
//! - [`ablation`] — code-granularity, codeword-assignment and X-fill
//!   ablations;
//! - [`mod@format`] — plain-text table rendering.
//!
//! Run `cargo run -p ninec-bench --release --bin tables -- all` to print
//! everything (`results/README.md` has the commands that regenerate the
//! committed snapshot); `cargo run -p ninec-bench --release --bin
//! bench_core` checks the flight recorder's 5% decode budget. Speed is
//! measured, with its spread, by the `benchmark/` package.

#![warn(missing_docs)]

pub mod ablation;
pub mod datasets;
pub mod decoder_cost;
pub mod format;
pub mod json;
pub mod motivation;
pub mod ndetect;
pub mod tables;
