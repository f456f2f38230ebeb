#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! The ERIC target-hardware model: an RV64GC SoC simulator.
//!
//! The paper's target hardware is a Rocket Chip (in-order, 6-stage,
//! RV64GC, 16 KiB 4-way L1 caches — Table I) on a Zedboard FPGA. This
//! crate substitutes a functional RV64GC interpreter plus a
//! cycle-accounting model of the same microarchitecture:
//!
//! * [`mem`] — flat physical memory with bounds-checked access.
//! * [`cache`] — set-associative write-back L1 caches (16 KiB, 4-way,
//!   64-byte lines, LRU), one instance each for I and D.
//! * [`cpu`] — architectural state and instruction semantics for
//!   RV64IMAFDC + Zicsr, with a Linux-style `ecall` ABI (`exit`,
//!   `write`).
//! * [`pipeline`] — the Rocket-like timing model: 1 IPC base, load-use
//!   interlock, branch-redirect penalty, multi-cycle mul/div/FP, and
//!   cache-miss stalls.
//! * [`soc`] — ties everything together; [`soc::Soc::run`] executes a
//!   loaded program to completion and reports retired instructions,
//!   cycles, cache statistics, and the exit code. Two execution
//!   engines (selectable via [`soc::EngineKind`] or the
//!   `ERIC_SIM_ENGINE` env var) trade host speed for simplicity: a
//!   step interpreter (the semantic oracle) and basic-block dispatch
//!   (the default). Both produce bit-identical run outcomes.
//! * [`batch`] — a threaded fleet runner that fans independent
//!   simulations out over OS threads.
//!
//! Figure 7's end-to-end overhead is measured against this simulator's
//! cycle counts (see `eric-hde` for the decrypt-side costs).
//!
//! # Example
//!
//! ```rust
//! use eric_asm::{assemble, AsmOptions};
//! use eric_sim::soc::{Soc, SocConfig};
//!
//! let image = assemble("
//!     main:
//!         li a0, 6
//!         li a1, 7
//!         mul a0, a0, a1
//!         li a7, 93
//!         ecall
//! ", &AsmOptions::default()).unwrap();
//! let mut soc = Soc::new(SocConfig::default());
//! soc.load_image(&image).unwrap();
//! let outcome = soc.run(1_000_000).unwrap();
//! assert_eq!(outcome.exit_code, 42);
//! assert!(outcome.cycles >= outcome.instructions);
//! ```

pub mod batch;
mod block;
pub mod cache;
pub mod cpu;
pub mod mem;
pub mod pipeline;
pub mod soc;

pub use batch::{BatchJob, BatchResult, BatchRunner};
pub use cache::{Cache, CacheConfig, CacheStats};
pub use cpu::{Cpu, ExecError, StepOutcome};
pub use mem::{MemError, Memory};
pub use pipeline::TimingConfig;
pub use soc::{run_image, EngineKind, RunOutcome, Soc, SocConfig};
