#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! The ERIC assembler: RISC-V assembly text → RV64GC machine code.
//!
//! The paper's prototype compiles benchmarks with a Clang/LLVM 11.1
//! port extended with encryption and signing. Reproducing LLVM is out
//! of scope (and irrelevant to the evaluation — Figures 5 and 6 measure
//! the post-codegen sign/encrypt/package pipeline), so ERIC's compiler
//! back-end here is a complete two-pass RISC-V assembler:
//!
//! * full RV64IMAFD + Zicsr instruction set, ~40 pseudo-instructions
//!   (`li` with arbitrary 64-bit constants, `la`, `call`, `ret`,
//!   branches-against-zero, ...),
//! * `.text`/`.data` sections, labels, data directives (`.word`,
//!   `.dword`, `.byte`, `.half`, `.asciz`, `.zero`, `.align`, `.space`),
//! * optional RVC compression (`c.addi`, `c.lw`, ... — see
//!   [`eric_isa::rvc`]) so packages exercise the paper's mixed
//!   16/32-bit parcel accounting,
//! * a symbol table and per-instruction boundary list in the output
//!   [`Image`], which the framework uses to build encryption maps.
//!
//! # Example
//!
//! ```rust
//! use eric_asm::{assemble, AsmOptions};
//!
//! let image = assemble(r#"
//!     .text
//!     main:
//!         li   a0, 0           # sum = 0
//!         li   t0, 10
//!     loop:
//!         add  a0, a0, t0      # sum += t0
//!         addi t0, t0, -1
//!         bnez t0, loop
//!         li   a7, 93          # exit
//!         ecall
//! "#, &AsmOptions::default()).expect("assembles");
//! assert!(image.text.len() > 0);
//! assert_eq!(image.entry, image.text_base);
//! ```

pub mod assemble;
pub mod error;
pub mod image;
pub mod lexer;
pub mod parser;

pub use assemble::{assemble, AsmOptions};
pub use error::AsmError;
pub use image::{Image, ParcelKind};
