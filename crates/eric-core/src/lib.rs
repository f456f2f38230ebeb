#![deny(missing_docs)]
#![forbid(unsafe_code)]
//! The ERIC framework: end-to-end software obfuscation.
//!
//! This crate assembles the substrates into the system the paper
//! evaluates:
//!
//! * [`config`] — the operator-facing encryption configuration (the
//!   paper ships a GUI; ERIC-in-Rust ships a typed builder).
//! * [`package`] — the encrypted program package wire format, with the
//!   exact size accounting of Figure 5 (256-bit signature, 1 map bit
//!   per 16-bit parcel for partial encryption, none for full), and the
//!   [`Frame`] trait the transport layers carry packages and deltas by.
//! * [`source`] — the software source: compile → sign → encrypt →
//!   package (paper steps 2–3).
//! * [`provisioning`] — batch enrollment and package fan-out: compile
//!   once, cache the prepared artifact, build per-device frames on a
//!   resident worker pool with per-device failure isolation.
//! * [`device`] — a target device: arbiter PUF + HDE + RV64GC SoC;
//!   enrollment, secure installation, and execution (steps 1, 5, 6).
//! * [`channel`] — the untrusted transport between them (step 4), with
//!   the threat model's attacker actions (tampering, replay to the
//!   wrong device, payload substitution), for any [`Frame`].
//! * [`delta`] — segment-granular delta OTA updates on top of the v2
//!   manifest: diff prepared images by leaf table, ship only changed
//!   segments (`ERIC2D`), and patch on device at the cost of the
//!   segments shipped.
//! * [`delivery`] — resilient delivery over that transport, for full
//!   and delta frames alike: seeded stochastic fault injection
//!   ([`FaultPlan`]), bounded retry with backoff ([`DeliveryPolicy`]),
//!   and the retryable/fatal error taxonomy ([`FaultClass`]) that keeps
//!   retries honest.
//! * [`analysis`] — static-analysis resistance metrics (entropy,
//!   disassembly validity, opcode histograms) quantifying the
//!   obfuscation claim of §I.
//!
//! # End-to-end example
//!
//! ```rust
//! use eric_core::{Device, EncryptionConfig, SoftwareSource};
//!
//! # fn main() -> Result<(), eric_core::EricError> {
//! let mut device = Device::with_seed(1, "iot-node-1");
//! let cred = device.enroll();
//!
//! let source = SoftwareSource::new("vendor");
//! let package = source.build(
//!     "main:\n li a0, 42\n li a7, 93\n ecall\n",
//!     &cred,
//!     &EncryptionConfig::full(),
//! )?;
//!
//! let report = device.install_and_run(&package)?;
//! assert_eq!(report.exit_code, 42);
//!
//! // A different device cannot run it.
//! let mut imposter = Device::with_seed(2, "imposter");
//! assert!(imposter.install_and_run(&package).is_err());
//! # Ok(())
//! # }
//! ```

pub mod analysis;
pub mod channel;
pub mod config;
pub mod delivery;
pub mod delta;
pub mod device;
pub mod error;
pub mod package;
pub mod provisioning;
pub mod source;

pub use channel::{Attacker, Channel};
pub use config::{EncryptionConfig, EncryptionMode, SignatureScheme};
pub use delivery::{
    DeliveryPolicy, DeliveryReport, DeliveryStatus, ExhaustReason, FaultPlan, LossyChannel,
    ResilientDelivery, TransitEvents,
};
pub use delta::{DeltaPackage, InstalledImage, PreparedDelta};
pub use device::{Device, ExecutionReport};
pub use error::{EricError, FaultClass, TransportFault};
pub use package::{Frame, Package, SizeReport};
pub use provisioning::{
    BatchHandle, BufferPool, CacheLookup, CacheStats, DaemonHealth, PackagingHook,
    PreparedImageCache, ProvisioningDaemon, RecvTimeout, SubmitError, WireFrame, WireOutcome,
};
pub use source::{PackagedFrame, PreparedImage, SoftwareSource};
