#![deny(missing_docs)]
#![forbid(unsafe_code)]
//! The Hardware Decryption Engine (HDE) of ERIC.
//!
//! The paper's HDE sits between the untrusted outside world and the
//! SoC: "the received programs are kept encrypted until they are loaded
//! into the main memory for execution" (§III-2). It contains five
//! units, all modeled here:
//!
//! * **PUF Key Generator** — the arbiter-PUF bank ([`eric_puf`]).
//! * **Key Management Unit** — PUF key → PUF-based key derivation
//!   ([`eric_crypto::kdf`]), wrapped with epoch state in [`units`].
//! * **Decryption Unit** — streaming, map-aware keystream application
//!   ([`transform::transform_payload`]).
//! * **Signature Generator** — SHA-256 over the decrypted program:
//!   one streaming digest for v1, batched per-segment leaves for v2
//!   ([`mod@eric_crypto::sha256`]).
//! * **Validation Unit** — constant-time signature comparison
//!   ([`Digest::ct_eq`](eric_crypto::sha256::Digest::ct_eq)).
//!
//! [`loader::SecureLoader`] orchestrates the full §III flow (steps 5–6:
//! decrypt → re-hash → validate → release to the trusted zone) and
//! charges cycles from the [`timing`] model so end-to-end execution
//! overhead (Figure 7) can be measured. [`parallel`] provides the
//! scoped lane pool the loader fans segmented packages across, and
//! [`manifest`] defines the segment-manifest signature scheme (v2)
//! that makes the signature check parallelizable in the first place —
//! the paper's monolithic digest (v1) forces one sequential
//! Merkle–Damgård chain over the whole payload.
//! [`SecureLoader::process_stream`] is the bounded-memory front end
//! ([`streaming`]): it consumes an `ERIC2` wire frame from any
//! [`std::io::Read`] source, authenticates the manifest up front, and
//! releases verified plaintext one segment at a time — O(segment)
//! payload working set, never O(image).
//!
//! Every device entry point shares one frame parser and one segment
//! verifier: [`wire`] reads (and the packager writes) the frame start
//! — header, challenge, coverage map, signature block — from a slice
//! or any byte stream, and [`verify::SegmentVerifier`] runs the v2
//! checks in one order, with one Merkle fold per load, for the
//! buffered loader, the streaming loader and `eric-core`'s delta
//! patcher.
//!
//! Crucially, encryption and decryption are the *same* transform (XOR
//! keystream involution), implemented once in [`transform`] and used by
//! both the compiler side (`eric-core`) and the HDE — the two sides
//! cannot drift.

pub mod error;
pub mod loader;
pub mod manifest;
pub mod map;
pub mod parallel;
pub mod policy;
pub mod streaming;
pub mod timing;
pub mod transform;
pub mod units;
pub mod verify;
pub mod wire;

pub use error::HdeError;
pub use loader::{LoadedProgram, SecureInput, SecureLoader};
pub use manifest::{SegmentManifest, SignatureBlock, DEFAULT_SEGMENT_LEN};
pub use map::{CoverageMap, ParcelBitmap};
pub use policy::FieldPolicy;
pub use streaming::StreamReport;
pub use timing::{HdeCycles, HdeTimingConfig};
