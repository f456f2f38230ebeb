#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! RV64GC instruction-set support for ERIC.
//!
//! ERIC's prototype targets RV64GC (Table I) and operates on *binaries*:
//! the compiler encrypts instruction words, the GUI lets the operator
//! pick individual instructions or bit-fields inside instructions, and
//! the HDE decrypts instruction parcels as they stream in. All of that
//! needs precise knowledge of the instruction encoding, which this crate
//! provides:
//!
//! * [`reg`] — integer/FP architectural registers with ABI names.
//! * [`op`] — the operation enumeration for RV64IMAFDC + Zicsr.
//! * [`inst`] — decoded instruction form with operands and length.
//! * [`mod@decode`] — 32-bit decoder and the 16-bit (RVC) expander.
//! * [`mod@encode`] — instruction encoder (used by the assembler).
//! * [`rvc`] — compressed-instruction compression pass support.
//! * [`fields`] — bit-field metadata per instruction format, used for
//!   the paper's field-level partial encryption ("only the pointer
//!   values of the instructions that make memory accesses can be
//!   encrypted").
//! * [`csr`] — the handful of CSRs the simulator exposes.
//!
//! # Example
//!
//! ```rust
//! use eric_isa::decode::decode;
//! use eric_isa::op::Op;
//!
//! // addi a0, a0, 1
//! let inst = decode(0x00150513).expect("valid instruction");
//! assert_eq!(inst.op, Op::Addi);
//! assert_eq!(inst.to_string(), "addi a0, a0, 1");
//! ```

pub mod csr;
pub mod decode;
pub mod encode;
pub mod fields;
pub mod inst;
pub mod op;
pub mod reg;
pub mod rvc;

pub use decode::{decode, decode_parcel, DecodeError};
pub use encode::encode;
pub use inst::{Inst, RegSlot};
pub use op::{Format, Op};
pub use reg::Reg;
