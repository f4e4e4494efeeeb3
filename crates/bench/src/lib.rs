//! Experiment harness for `powermed`: one module per table and figure of
//! the paper, each able to regenerate the corresponding rows/series.
//!
//! Run everything with `cargo run --release -p powermed-bench -- all`,
//! or individual experiments with `-- fig8`, `-- table1`, etc. (the
//! names are [`experiments::EXPERIMENTS`]).
//! The harness prints the same quantities the paper reports (normalized
//! throughput per mix and policy, power splits, duty cycles, cluster
//! aggregates), so the shape of every claim can be checked directly
//! against the text; `EXPERIMENTS.md` records a paper-vs-measured
//! comparison for each.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chain;
pub mod experiments;
pub mod microbench;
pub mod support;
