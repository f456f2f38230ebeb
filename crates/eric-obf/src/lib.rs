#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! Composable ISA-level obfuscation passes with sim-backed
//! differential verification.
//!
//! ERIC's encryption (see `eric-core`) makes a binary unreadable in
//! flight and at rest; this crate makes the *plaintext* hard to
//! analyze too, with classic software-obfuscation transforms applied
//! at the instruction level:
//!
//! * [`passes::Shuffle`] — chaotic-map-seeded reordering within basic
//!   blocks, constrained by full data/control dependence,
//! * [`passes::Substitute`] — opcode/idiom substitution into
//!   semantically identical but differently encoded forms,
//! * [`passes::OpaquePredicates`] — bogus conditional branches with
//!   statically non-obvious but fixed outcomes, guarding junk code.
//!
//! The architecture is three layers:
//!
//! 1. [`ir::ImageIr`] decodes an assembled [`eric_asm::Image`] into a
//!    relayout-safe IR where every branch and PC-relative pair is a
//!    stable instruction reference, so passes can reorder, rewrite,
//!    and insert freely.
//! 2. [`Pass`]es compose into a seeded [`Pipeline`]: one `u64` seed
//!    deterministically reproduces one transformed image.
//! 3. [`verify`] proves each transform *behaviorally* correct by
//!    running original and transformed images through `eric-sim` over
//!    the whole workload suite and comparing architectural results,
//!    while [`metrics::CostPotency`] prices the transform
//!    (size/cycle cost vs. static potency).
//!
//! [`faults`] ships deliberately broken passes so the verifier's
//! detection power is itself under test, and [`profile`] layers a
//! pipeline under ERIC's encryption for end-to-end protected builds.
//!
//! # Example
//!
//! ```rust
//! use eric_asm::{assemble, AsmOptions};
//! use eric_obf::Pipeline;
//! use eric_sim::{run_image, SocConfig};
//!
//! let image = assemble("
//!     main:
//!         li a0, 6
//!         li a1, 7
//!         mul a0, a0, a1
//!         li a7, 93
//!         ecall
//! ", &AsmOptions::default()).unwrap();
//! let (obf, stats) = Pipeline::standard(0xE51C).apply_image(&image).unwrap();
//! assert!(stats.total_sites() > 0);
//! // Different bytes, same behavior.
//! assert_ne!(obf.text, image.text);
//! let got = run_image(&obf, SocConfig::default(), 1_000_000).unwrap();
//! assert_eq!(got.exit_code, 42);
//! ```

pub mod chaos;
pub mod error;
pub mod faults;
pub mod ir;
pub mod metrics;
pub mod pass;
pub mod passes;
pub mod profile;
pub mod verify;

pub use error::ObfError;
pub use ir::{ImageIr, InstId};
pub use metrics::CostPotency;
pub use pass::{Pass, PassStats, Pipeline, PipelineStats};
pub use passes::{OpaquePredicates, Shuffle, Substitute};
pub use profile::ProtectionProfile;
pub use verify::{verify_pipeline, verify_transform, SuiteReport, Verdict, VerifyOptions};
