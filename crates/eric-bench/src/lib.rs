#![forbid(unsafe_code)]
//! Benchmark harnesses regenerating every table and figure of the
//! paper's evaluation (§IV), plus the ablations DESIGN.md calls out.
//!
//! Each experiment is implemented here as a plain function returning a
//! serializable report; the `benches/` targets are thin `main`s that
//! print the paper-style rows and drop a JSON copy under
//! `target/eric-results/` for EXPERIMENTS.md tooling.

pub mod experiments;
pub mod json;
pub mod output;

pub use experiments::*;
