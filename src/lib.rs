#![forbid(unsafe_code)]
//! # ERIC — An Efficient and Practical Software Obfuscation Framework
//!
//! This crate is the umbrella of a full reproduction of the DSN 2022 paper
//! *"ERIC: An Efficient and Practical Software Obfuscation Framework"*
//! (Bolat, Çelik, Olgun, Ergin, Ottavi). ERIC keeps program binaries secret
//! end-to-end: the compiler encrypts executables with a key derived from a
//! device-unique physical unclonable function (PUF), and a Hardware
//! Decryption Engine (HDE) in front of the SoC decrypts, re-hashes, and
//! validates the program before it may execute.
//!
//! The umbrella re-exports every subsystem:
//!
//! * [`crypto`] — SHA-256, XOR/stream ciphers, key management, RSA.
//! * [`puf`] — arbiter-PUF model, CRP enrollment, quality metrics.
//! * [`isa`] — RV64GC encoder/decoder/disassembler.
//! * [`asm`] — the RISC-V assembler used as the compiler back-end.
//! * [`sim`] — the RV64GC SoC simulator (Rocket-like 6-stage pipeline).
//! * [`hde`] — the Hardware Decryption Engine and secure loader.
//! * [`rtl`] — structural FPGA resource model (Table II).
//! * [`core`] — the framework: packages, software source, devices,
//!   untrusted transport, and static-analysis resistance metrics.
//! * [`obf`] — composable ISA-level obfuscation passes (shuffle,
//!   substitution, opaque predicates) with sim-backed differential
//!   verification.
//! * [`workloads`] — MiBench-analog benchmark programs.
//!
//! # Quickstart
//!
//! ```rust
//! use eric::core::{Device, EncryptionConfig, SoftwareSource};
//!
//! # fn main() -> Result<(), eric::core::EricError> {
//! // A device with a physically-unique arbiter PUF.
//! let mut device = Device::with_seed(7, "edge-node-7");
//! // The vendor enrolls the device (the paper's "handshake").
//! let cred = device.enroll();
//!
//! // The software source compiles + signs + encrypts for that device only.
//! let source = SoftwareSource::new("vendor");
//! let program = r#"
//!     .text
//!     main:
//!         li a0, 41
//!         addi a0, a0, 1
//!         li a7, 93      # exit syscall
//!         ecall
//! "#;
//! let package = source.build(program, &cred, &EncryptionConfig::full())?;
//!
//! // Only the enrolled device can decrypt, validate, and run it.
//! let outcome = device.install_and_run(&package)?;
//! assert_eq!(outcome.exit_code, 42);
//! # Ok(())
//! # }
//! ```

pub use eric_asm as asm;
pub use eric_core as core;
pub use eric_crypto as crypto;
pub use eric_hde as hde;
pub use eric_isa as isa;
pub use eric_obf as obf;
pub use eric_puf as puf;
pub use eric_rtl as rtl;
pub use eric_sim as sim;
pub use eric_workloads as workloads;
