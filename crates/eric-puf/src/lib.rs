#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! Physical unclonable function (PUF) models for ERIC.
//!
//! ERIC's root of trust is a delay-based **arbiter PUF** (paper §II-B,
//! Table I: "32× 8-bit challenge, 1-bit response"). An arbiter PUF races a
//! signal down two nominally identical paths whose segments are swapped
//! or passed straight through according to challenge bits; manufacturing
//! process variation makes one path slightly faster, and an arbiter latch
//! at the end converts the sign of the accumulated delay difference into
//! a response bit.
//!
//! The FPGA is replaced here by the standard *additive linear delay
//! model* from the PUF literature: every stage contributes a
//! Gaussian-distributed delay difference whose sign is conditionally
//! flipped by the challenge bit, plus Gaussian evaluation noise at the
//! arbiter. This reproduces exactly the properties ERIC relies on —
//! per-device uniqueness (inter-chip Hamming distance ≈ 50 %) and
//! repeatability (small intra-chip Hamming distance) — which the
//! [`metrics`] module quantifies and the test-suite enforces.
//!
//! * [`arbiter`] — a single arbiter PUF instance (one response bit).
//! * [`device`] — a bank of arbiter PUFs forming the PUF Key Generator
//!   (PKG) of one device; produces multi-bit PUF keys.
//! * [`crp`] — challenge–response enrollment: the vendor-side database
//!   that maps device IDs to PUF-based keys (the paper's "handshake").
//! * [`metrics`] — uniformity, uniqueness, reliability, bit-aliasing.
//!
//! # Example
//!
//! ```rust
//! use eric_puf::device::{PufDevice, PufDeviceConfig};
//! use eric_puf::crp::Challenge;
//!
//! // Two physically different devices (different fabrication randomness).
//! let dev_a = PufDevice::from_seed(1, PufDeviceConfig::paper());
//! let dev_b = PufDevice::from_seed(2, PufDeviceConfig::paper());
//!
//! let challenge = Challenge::from_bytes(&[0x5A; 32]);
//! let key_a = dev_a.read_key_hardened(&challenge, 7);
//! let key_b = dev_b.read_key_hardened(&challenge, 7);
//! assert_ne!(key_a.bits(), key_b.bits(), "devices must be unique");
//!
//! // The same device re-reads the same key (majority-vote hardened).
//! assert_eq!(key_a.bits(), dev_a.read_key_hardened(&challenge, 7).bits());
//! ```

pub mod arbiter;
pub mod crp;
pub mod device;
pub mod metrics;

pub use arbiter::{ArbiterPuf, ArbiterPufConfig};
pub use crp::{Challenge, CrpDatabase, EnrollmentRecord, Response};
pub use device::{PufDevice, PufDeviceConfig, PufKey};
