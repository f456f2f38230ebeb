//! The complete SoC: CPU + caches + pipeline + memory.

use crate::block::{
    BInst, BlockCache, LineMap, UOp, F_AMO, F_BRANCH, F_JUMP, F_MEM, F_WRITE, MAX_BLOCK_LINES,
    NO_LINE,
};
use crate::cache::{Cache, CacheConfig, CacheStats};
use crate::cpu::{div_signed, rem_signed, sext32, Cpu, ExecError, ExecFlow, StepOutcome};
use crate::mem::{MemError, Memory};
use crate::pipeline::{Pipeline, StallBreakdown, TimingConfig};
use eric_asm::Image;
use std::error::Error;
use std::fmt;
use std::sync::OnceLock;

/// Which execution engine [`Soc::run`] dispatches to.
///
/// Both engines produce **bit-identical** [`RunOutcome`]s for any
/// program that runs to `exit` — they differ only in host wall time.
/// The step interpreter is the semantic oracle; the basic-block engine
/// is regression-pinned against it (see the cross-engine tests and
/// the `sim_dispatch` bench).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Fetch + decode every parcel from memory on every step.
    Step,
    /// Basic-block translation with straight-line dispatch (default).
    Block,
}

impl EngineKind {
    /// The engine selected by `ERIC_SIM_ENGINE` (`step` or `block`),
    /// defaulting to [`EngineKind::Block`]. Resolved once per process.
    pub fn from_env() -> Self {
        static CHOICE: OnceLock<EngineKind> = OnceLock::new();
        *CHOICE.get_or_init(|| match std::env::var("ERIC_SIM_ENGINE").as_deref() {
            Ok("step") => EngineKind::Step,
            Ok("block") | Ok("") | Err(_) => EngineKind::Block,
            Ok(other) => {
                eprintln!("warning: unknown ERIC_SIM_ENGINE={other:?}; using \"block\"");
                EngineKind::Block
            }
        })
    }

    /// Stable lower-case name (matches the `ERIC_SIM_ENGINE` values).
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Step => "step",
            EngineKind::Block => "block",
        }
    }
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// SoC configuration (Table I of the paper).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SocConfig {
    /// RAM base address.
    pub ram_base: u64,
    /// RAM size in bytes.
    pub ram_size: usize,
    /// L1 instruction cache geometry.
    pub icache: CacheConfig,
    /// L1 data cache geometry.
    pub dcache: CacheConfig,
    /// Pipeline timing constants.
    pub timing: TimingConfig,
    /// Modeled core clock in MHz (Table I: 25 MHz on the Zedboard).
    pub frequency_mhz: u64,
    /// Execution engine (host-speed tier; no effect on modeled counts).
    pub engine: EngineKind,
}

impl Default for SocConfig {
    /// Matches Table I: Rocket-like in-order core, 16 KiB 4-way L1I/L1D,
    /// RV64GC, 25 MHz, with 4 MiB of RAM at `0x8000_0000`. The engine
    /// comes from `ERIC_SIM_ENGINE` (default: basic-block dispatch).
    fn default() -> Self {
        SocConfig {
            ram_base: 0x8000_0000,
            ram_size: 4 << 20,
            icache: CacheConfig::paper_l1(),
            dcache: CacheConfig::paper_l1(),
            timing: TimingConfig::default(),
            frequency_mhz: 25,
            engine: EngineKind::from_env(),
        }
    }
}

/// Result of running a program to completion.
#[derive(Clone, Debug, PartialEq)]
pub struct RunOutcome {
    /// The value passed to `exit`.
    pub exit_code: i64,
    /// Instructions retired.
    pub instructions: u64,
    /// Modeled cycles consumed.
    pub cycles: u64,
    /// Stall-cycle breakdown.
    pub stalls: StallBreakdown,
    /// I-cache statistics.
    pub icache: CacheStats,
    /// D-cache statistics.
    pub dcache: CacheStats,
    /// Bytes the program wrote to stdout/stderr (owned: the buffer is
    /// moved out of the CPU, not copied).
    pub stdout: Vec<u8>,
}

impl RunOutcome {
    /// Cycles per instruction.
    pub fn cpi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.cycles as f64 / self.instructions as f64
        }
    }

    /// Modeled wall-clock seconds at the configured frequency.
    pub fn seconds_at(&self, frequency_mhz: u64) -> f64 {
        self.cycles as f64 / (frequency_mhz as f64 * 1e6)
    }
}

/// Why a run stopped abnormally.
#[derive(Clone, Debug, PartialEq)]
pub enum RunError {
    /// An execution fault (decode/memory/alignment).
    Exec(ExecError),
    /// The program hit `ebreak`.
    Breakpoint {
        /// PC of the breakpoint.
        pc: u64,
    },
    /// The instruction budget was exhausted before `exit`.
    OutOfFuel {
        /// The budget that was exhausted.
        budget: u64,
    },
    /// A program image did not fit in RAM.
    Load(MemError),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Exec(e) => write!(f, "execution fault: {e}"),
            RunError::Breakpoint { pc } => write!(f, "breakpoint at {pc:#x}"),
            RunError::OutOfFuel { budget } => {
                write!(f, "program did not exit within {budget} instructions")
            }
            RunError::Load(e) => write!(f, "image load failed: {e}"),
        }
    }
}

impl Error for RunError {}

impl From<ExecError> for RunError {
    fn from(e: ExecError) -> Self {
        RunError::Exec(e)
    }
}

/// The simulated SoC.
pub struct Soc {
    config: SocConfig,
    cpu: Cpu,
    mem: Memory,
    icache: Cache,
    dcache: Cache,
    pipeline: Pipeline,
    cycles: u64,
    /// Lazily-built translation state for [`EngineKind::Block`].
    blocks: Option<BlockCache>,
}

impl fmt::Debug for Soc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Soc {{ pc: {:#x}, cycles: {}, instret: {}, engine: {} }}",
            self.cpu.pc, self.cycles, self.cpu.instret, self.config.engine
        )
    }
}

impl Soc {
    /// Build a powered-on SoC with empty memory.
    pub fn new(config: SocConfig) -> Self {
        Soc {
            cpu: Cpu::new(),
            mem: Memory::new(config.ram_base, config.ram_size),
            icache: Cache::new(config.icache),
            dcache: Cache::new(config.dcache),
            pipeline: Pipeline::new(config.timing),
            cycles: 0,
            blocks: None,
            config,
        }
    }

    /// The configuration this SoC was built with.
    pub fn config(&self) -> &SocConfig {
        &self.config
    }

    /// Direct access to memory (the HDE's loader writes through here).
    pub fn memory_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// Direct access to the CPU state.
    pub fn cpu(&self) -> &Cpu {
        &self.cpu
    }

    /// Load an assembled image into zeroed memory, point the PC at its
    /// entry, and initialize the stack pointer to the top of RAM.
    ///
    /// Reuses every allocation (RAM, caches, translation state) so a
    /// `Soc` can be driven through many programs — the batch runner's
    /// workers do exactly that — with each run starting from the same
    /// power-on state a fresh `Soc` would have.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Load`] when a section does not fit in RAM.
    pub fn load_image(&mut self, image: &Image) -> Result<(), RunError> {
        self.mem.clear();
        self.mem
            .write_bytes(image.text_base, &image.text)
            .map_err(RunError::Load)?;
        if !image.data.is_empty() {
            self.mem
                .write_bytes(image.data_base, &image.data)
                .map_err(RunError::Load)?;
        }
        self.reset_cpu(image.entry);
        Ok(())
    }

    /// Load raw text/data bytes (the secure loader path, where the HDE
    /// decrypts into memory without an [`Image`]). Memory is zeroed
    /// first; see [`Soc::load_image`].
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Load`] when a section does not fit in RAM.
    pub fn load_raw(
        &mut self,
        text_base: u64,
        text: &[u8],
        data_base: u64,
        data: &[u8],
        entry: u64,
    ) -> Result<(), RunError> {
        self.mem.clear();
        self.mem
            .write_bytes(text_base, text)
            .map_err(RunError::Load)?;
        if !data.is_empty() {
            self.mem
                .write_bytes(data_base, data)
                .map_err(RunError::Load)?;
        }
        self.reset_cpu(entry);
        Ok(())
    }

    fn reset_cpu(&mut self, entry: u64) {
        self.cpu.reset();
        self.cpu.pc = entry;
        // Stack at the top of RAM, 16-byte aligned per the psABI.
        self.cpu.set_reg(
            2,
            (self.config.ram_base + self.config.ram_size as u64) & !15,
        );
        self.icache.reset();
        self.dcache.reset();
        self.pipeline.reset();
        self.cycles = 0;
        // Translation caches survive (allocation reuse); `Memory::clear`
        // bumped the code version, so the engines drop stale entries on
        // their next version sync.
    }

    /// Run until `exit`, a fault, or the instruction budget runs out,
    /// on the engine selected by [`SocConfig::engine`].
    ///
    /// Successful runs are bit-identical across engines. Abnormal stops
    /// (faults, `ebreak`) report the same error everywhere, but cache
    /// *statistics* accumulated up to an error may differ by the one
    /// faulting fetch — only [`RunOutcome`]s are pinned, and no outcome
    /// is produced on an error.
    ///
    /// # Errors
    ///
    /// [`RunError::Exec`] on faults, [`RunError::Breakpoint`] on
    /// `ebreak`, [`RunError::OutOfFuel`] if the program does not exit
    /// within `max_instructions`.
    pub fn run(&mut self, max_instructions: u64) -> Result<RunOutcome, RunError> {
        match self.config.engine {
            EngineKind::Step => self.run_step(max_instructions),
            EngineKind::Block => {
                let mut blocks = self
                    .blocks
                    .take()
                    .unwrap_or_else(|| BlockCache::new(self.mem.code_version()));
                let result = self.run_block(&mut blocks, max_instructions);
                self.blocks = Some(blocks);
                result
            }
        }
    }

    /// The semantic oracle: fetch + decode every parcel, every step.
    fn run_step(&mut self, max_instructions: u64) -> Result<RunOutcome, RunError> {
        let line_mask = self.config.icache.line as u64 - 1;
        for _ in 0..max_instructions {
            let pc = self.cpu.pc;
            let mut ifetch_misses = u64::from(!self.icache.access(pc, false));
            self.cpu.cycle = self.cycles;
            let outcome = self.cpu.step(&mut self.mem)?;
            match outcome {
                StepOutcome::Exit(code) => {
                    // The exit `ecall` is a 4-byte parcel: touch its
                    // second line if it straddles (stats parity with
                    // the block engine), then charge the final
                    // cycle. As with the first line, no miss penalty is
                    // charged for the exiting instruction.
                    if pc & !line_mask != (pc + 3) & !line_mask {
                        self.icache.access((pc | line_mask) + 1, false);
                    }
                    self.cycles += 1;
                    return Ok(self.outcome(code));
                }
                StepOutcome::Breakpoint => return Err(RunError::Breakpoint { pc }),
                StepOutcome::Retired(inst) => {
                    // A parcel straddling a line boundary fetches the
                    // next line too (charged only after decode reveals
                    // the length — no icache access intervenes, so the
                    // access sequence matches the block engine).
                    let last_line = (pc + inst.len as u64 - 1) & !line_mask;
                    if last_line != pc & !line_mask {
                        ifetch_misses += u64::from(!self.icache.access(last_line, false));
                    }
                    let dcache_hit = if inst.op.is_memory() {
                        let addr = self.cpu.reg(inst.rs1).wrapping_add(if inst.op.is_amo() {
                            0
                        } else {
                            inst.imm as u64
                        });
                        Some(
                            self.dcache
                                .access(addr, inst.op.is_store() || inst.op.is_amo()),
                        )
                    } else {
                        None
                    };
                    let branch_taken = (inst.op.is_branch() && self.cpu.pc != pc + inst.len as u64)
                        || inst.op.is_jump();
                    self.cycles +=
                        self.pipeline
                            .retire(&inst, ifetch_misses, dcache_hit, branch_taken);
                }
            }
        }
        Err(RunError::OutOfFuel {
            budget: max_instructions,
        })
    }

    /// The fast path: translate straight-line runs once, execute them as
    /// tight loops over pre-decoded instructions with precomputed timing.
    fn run_block(
        &mut self,
        blocks: &mut BlockCache,
        max_instructions: u64,
    ) -> Result<RunOutcome, RunError> {
        let icache_line = self.config.icache.line as u64;
        let iline_shift = self.config.icache.line.trailing_zeros();
        let dline_shift = self.config.dcache.line.trailing_zeros();
        let dcache_miss = self.config.timing.dcache_miss;
        let mut executed: u64 = 0;
        // Resident-line token maps: skip the tag lookup for lines known
        // to still be resident (any miss clears the map — only misses
        // evict; see `LineMap`). Local to this run, so a fresh run
        // always starts cold, exactly like the oracle.
        let mut ilines = LineMap::new();
        let mut dlines = LineMap::new();
        'outer: loop {
            blocks.sync(self.mem.code_version());
            let version = blocks.synced_version;
            let remaining = max_instructions - executed;
            if remaining == 0 {
                return Err(RunError::OutOfFuel {
                    budget: max_instructions,
                });
            }
            let pc = self.cpu.pc;
            let block = blocks.ensure(pc, &mut self.mem, icache_line, self.pipeline.config())?;
            // Fuel bound hoisted out of the per-instruction loop: run at
            // most `remaining` instructions of this block.
            let take = (block.insts.len() as u64).min(remaining) as usize;
            // Fast path: when the whole block runs (no fuel truncation)
            // and every I-line it touches is provably resident (its
            // token is still in the map — tokens survive hits, and the
            // deferred accesses below are then themselves all hits), the
            // per-access fetch bookkeeping collapses into one arithmetic
            // batch applied when the block completes
            // (`Cache::reaccess_batch`). No probe needed — probing would
            // itself perturb the stats.
            let mut batch = [(0u32, 0u32); MAX_BLOCK_LINES];
            let mut nlines = 0usize;
            let mut fast = take == block.insts.len() && block.lines.len() <= MAX_BLOCK_LINES;
            if fast {
                for &(addr, off) in &block.lines {
                    if let Some(tok) = ilines.get(addr >> iline_shift) {
                        batch[nlines] = (tok, off);
                        nlines += 1;
                    } else {
                        fast = false;
                        break;
                    }
                }
            }
            if fast && block.pure {
                // Fully-static fast path: a pure block has no
                // instruction that can observe mid-block
                // `cycle`/`instret` or end the run, every fetch is a
                // guaranteed hit, and the whole block executes — so the
                // retire accounting collapses to one
                // `Pipeline::retire_block` call (static parts
                // precomputed at translation), D-cache misses are
                // charged live, and `instret` batches to a single add.
                for (k, b) in block.insts.iter().enumerate() {
                    let _flow = self.exec_binst(b)?;
                    debug_assert!(matches!(_flow, ExecFlow::Retired), "pure block");
                    if b.flags & F_MEM != 0 {
                        // Pure blocks contain no AMOs (AMO address math
                        // differs), and like the oracle we read `rs1`
                        // *post*-execute — so even a load that clobbers
                        // its own base register models identically.
                        let addr = self.cpu.reg(b.inst.rs1).wrapping_add(b.inst.imm as u64);
                        let write = b.flags & F_WRITE != 0;
                        let line = addr >> dline_shift;
                        let hit = if let Some(tok) = dlines.get(line) {
                            self.dcache.reaccess(tok, write);
                            true
                        } else {
                            let (hit, tok) = self.dcache.access_indexed(addr, write);
                            if !hit {
                                dlines.clear();
                            }
                            dlines.insert(line, tok);
                            hit
                        };
                        if !hit {
                            self.cycles += dcache_miss;
                            self.pipeline.stalls.dcache += dcache_miss;
                        }
                        if write && self.mem.code_version() != version {
                            // Self-modifying store: the rest of the
                            // block never runs, so the whole-block
                            // accounting would over-count. Land the
                            // executed prefix exactly — per-inst static
                            // retires (D-cache stalls already charged
                            // live) and the deferred fetches — then
                            // retranslate.
                            self.cpu.instret += (k + 1) as u64;
                            executed += (k + 1) as u64;
                            for p in &block.insts[..=k] {
                                self.cycles +=
                                    self.pipeline.retire_predecoded(&p.timing, 0, None, false);
                            }
                            self.replay_ifetch(&block.insts[..=k], iline_shift, &ilines);
                            continue 'outer;
                        }
                    }
                }
                let n = block.insts.len() as u64;
                self.cpu.instret += n;
                executed += n;
                self.icache
                    .reaccess_batch(block.fetch_accesses, &batch[..nlines]);
                let last = block.insts.last().expect("blocks are never empty");
                let branch_taken = last.flags & F_BRANCH != 0 && self.cpu.pc != last.fallthrough;
                self.cycles += self.pipeline.retire_block(&block.timing, branch_taken);
                continue;
            }
            // I-cache token for `reuse_line` re-touches: always the
            // token of the previous instruction's last fetched line.
            let mut itok = 0u32;
            for (k, b) in block.insts[..take].iter().enumerate() {
                let mut ifetch_misses = 0u64;
                if !fast {
                    if b.reuse_line {
                        self.icache.reaccess(itok, false);
                    }
                    if b.new_line1 != NO_LINE {
                        itok =
                            self.ifetch(b.new_line1, iline_shift, &mut ilines, &mut ifetch_misses);
                    }
                    if b.new_line2 != NO_LINE {
                        itok =
                            self.ifetch(b.new_line2, iline_shift, &mut ilines, &mut ifetch_misses);
                    }
                }
                let flow = self.exec_binst(b)?;
                self.cpu.instret += 1;
                executed += 1;
                match flow {
                    ExecFlow::Retired => {}
                    ExecFlow::Exit(code) => {
                        if fast {
                            // A terminator is always the block's last
                            // instruction, so every deferred fetch has
                            // happened by now.
                            self.icache
                                .reaccess_batch(block.fetch_accesses, &batch[..nlines]);
                        }
                        self.cycles += 1;
                        return Ok(self.outcome(code));
                    }
                    ExecFlow::Breakpoint => {
                        if fast {
                            self.icache
                                .reaccess_batch(block.fetch_accesses, &batch[..nlines]);
                        }
                        return Err(RunError::Breakpoint { pc: b.pc });
                    }
                }
                let dcache_hit = if b.flags & F_MEM != 0 {
                    let addr = self
                        .cpu
                        .reg(b.inst.rs1)
                        .wrapping_add(if b.flags & F_AMO != 0 {
                            0
                        } else {
                            b.inst.imm as u64
                        });
                    let write = b.flags & F_WRITE != 0;
                    let line = addr >> dline_shift;
                    Some(if let Some(tok) = dlines.get(line) {
                        self.dcache.reaccess(tok, write);
                        true
                    } else {
                        let (hit, tok) = self.dcache.access_indexed(addr, write);
                        if !hit {
                            dlines.clear();
                        }
                        dlines.insert(line, tok);
                        hit
                    })
                } else {
                    None
                };
                let branch_taken = (b.flags & F_BRANCH != 0 && self.cpu.pc != b.fallthrough)
                    || b.flags & F_JUMP != 0;
                self.cycles += self.pipeline.retire_predecoded(
                    &b.timing,
                    ifetch_misses,
                    dcache_hit,
                    branch_taken,
                );
                // A store/AMO may have patched translated text — this
                // very block included (HDE in-place decryption,
                // self-modifying code). Stop replaying the stale
                // translation; the outer loop resyncs and retranslates
                // from the next PC.
                if b.flags & F_WRITE != 0 && self.mem.code_version() != version {
                    if fast {
                        // The rest of the block never runs, so the whole
                        // batch would over-count: land only the fetches
                        // of the instructions actually executed. Rare —
                        // only stores into translated text come here.
                        self.replay_ifetch(&block.insts[..=k], iline_shift, &ilines);
                    }
                    continue 'outer;
                }
            }
            if fast {
                self.icache
                    .reaccess_batch(block.fetch_accesses, &batch[..nlines]);
            } else if take < block.insts.len() {
                // The fuel ran out mid-block (the slice was truncated).
                return Err(RunError::OutOfFuel {
                    budget: max_instructions,
                });
            }
        }
    }

    /// Execute one pre-decoded instruction: advance the PC past it
    /// and run its semantics. Hot ops execute inline (each arm is a
    /// verbatim copy of the matching `Cpu::execute` arm — same operand
    /// reads, wrapping, sign extension, and PC updates); everything
    /// else dispatches through the oracle's `execute`. The caller
    /// counts the retire (`instret`) and charges timing.
    #[inline(always)]
    fn exec_binst(&mut self, b: &BInst) -> Result<ExecFlow, RunError> {
        self.cpu.pc = b.fallthrough;
        if b.uop == UOp::Generic {
            // CSR reads and ecalls may observe modeled time.
            self.cpu.cycle = self.cycles;
            return Ok(self.cpu.execute(&b.inst, &mut self.mem, b.pc)?);
        }
        let cpu = &mut self.cpu;
        let i = &b.inst;
        let rs1 = cpu.reg(i.rs1);
        let rs2 = cpu.reg(i.rs2);
        let imm = i.imm;
        match b.uop {
            UOp::Generic => unreachable!("handled above"),
            UOp::Lui => cpu.set_reg(i.rd, imm as u64),
            UOp::Auipc => cpu.set_reg(i.rd, b.pc.wrapping_add(imm as u64)),
            UOp::Addi => cpu.set_reg(i.rd, rs1.wrapping_add(imm as u64)),
            UOp::Andi => cpu.set_reg(i.rd, rs1 & imm as u64),
            UOp::Ori => cpu.set_reg(i.rd, rs1 | imm as u64),
            UOp::Xori => cpu.set_reg(i.rd, rs1 ^ imm as u64),
            UOp::Slti => cpu.set_reg(i.rd, ((rs1 as i64) < imm) as u64),
            UOp::Sltiu => cpu.set_reg(i.rd, (rs1 < imm as u64) as u64),
            UOp::Slli => cpu.set_reg(i.rd, rs1 << (imm & 63)),
            UOp::Srli => cpu.set_reg(i.rd, rs1 >> (imm & 63)),
            UOp::Srai => cpu.set_reg(i.rd, ((rs1 as i64) >> (imm & 63)) as u64),
            UOp::Add => cpu.set_reg(i.rd, rs1.wrapping_add(rs2)),
            UOp::Sub => cpu.set_reg(i.rd, rs1.wrapping_sub(rs2)),
            UOp::And => cpu.set_reg(i.rd, rs1 & rs2),
            UOp::Or => cpu.set_reg(i.rd, rs1 | rs2),
            UOp::Xor => cpu.set_reg(i.rd, rs1 ^ rs2),
            UOp::Sll => cpu.set_reg(i.rd, rs1 << (rs2 & 63)),
            UOp::Srl => cpu.set_reg(i.rd, rs1 >> (rs2 & 63)),
            UOp::Sra => cpu.set_reg(i.rd, ((rs1 as i64) >> (rs2 & 63)) as u64),
            UOp::Slt => cpu.set_reg(i.rd, ((rs1 as i64) < (rs2 as i64)) as u64),
            UOp::Sltu => cpu.set_reg(i.rd, (rs1 < rs2) as u64),
            UOp::Addiw => cpu.set_reg(i.rd, sext32(rs1.wrapping_add(imm as u64))),
            UOp::Slliw => cpu.set_reg(i.rd, sext32(rs1 << (imm & 31))),
            UOp::Srliw => {
                cpu.set_reg(i.rd, sext32(((rs1 as u32) >> (imm & 31)) as u64));
            }
            UOp::Sraiw => {
                cpu.set_reg(i.rd, (((rs1 as i32) >> (imm & 31)) as i64) as u64);
            }
            UOp::Addw => cpu.set_reg(i.rd, sext32(rs1.wrapping_add(rs2))),
            UOp::Subw => cpu.set_reg(i.rd, sext32(rs1.wrapping_sub(rs2))),
            UOp::Sllw => cpu.set_reg(i.rd, sext32(rs1 << (rs2 & 31))),
            UOp::Srlw => cpu.set_reg(i.rd, sext32(((rs1 as u32) >> (rs2 & 31)) as u64)),
            UOp::Sraw => cpu.set_reg(i.rd, (((rs1 as i32) >> (rs2 & 31)) as i64) as u64),
            UOp::Mul => cpu.set_reg(i.rd, rs1.wrapping_mul(rs2)),
            UOp::Mulh => {
                let p = (rs1 as i64 as i128) * (rs2 as i64 as i128);
                cpu.set_reg(i.rd, (p >> 64) as u64);
            }
            UOp::Mulhsu => {
                let p = (rs1 as i64 as i128) * (rs2 as u128 as i128);
                cpu.set_reg(i.rd, (p >> 64) as u64);
            }
            UOp::Mulhu => {
                let p = (rs1 as u128) * (rs2 as u128);
                cpu.set_reg(i.rd, (p >> 64) as u64);
            }
            UOp::Div => cpu.set_reg(i.rd, div_signed(rs1 as i64, rs2 as i64) as u64),
            UOp::Divu => cpu.set_reg(i.rd, rs1.checked_div(rs2).unwrap_or(u64::MAX)),
            UOp::Rem => cpu.set_reg(i.rd, rem_signed(rs1 as i64, rs2 as i64) as u64),
            UOp::Remu => cpu.set_reg(i.rd, if rs2 == 0 { rs1 } else { rs1 % rs2 }),
            UOp::Mulw => cpu.set_reg(i.rd, sext32(rs1.wrapping_mul(rs2))),
            UOp::Divw => cpu.set_reg(
                i.rd,
                div_signed(rs1 as i32 as i64, rs2 as i32 as i64) as i32 as i64 as u64,
            ),
            UOp::Divuw => {
                let (a, b) = (rs1 as u32, rs2 as u32);
                let q = a.checked_div(b).unwrap_or(u32::MAX);
                cpu.set_reg(i.rd, q as i32 as i64 as u64);
            }
            UOp::Remw => cpu.set_reg(
                i.rd,
                rem_signed(rs1 as i32 as i64, rs2 as i32 as i64) as i32 as i64 as u64,
            ),
            UOp::Remuw => {
                let (a, b) = (rs1 as u32, rs2 as u32);
                let r = if b == 0 { a } else { a % b };
                cpu.set_reg(i.rd, r as i32 as i64 as u64);
            }
            UOp::Lb => {
                let addr = rs1.wrapping_add(imm as u64);
                let raw = self
                    .mem
                    .load(addr, 1)
                    .map_err(|err| ExecError::Mem { pc: b.pc, err })?;
                cpu.set_reg(i.rd, (((raw << 56) as i64) >> 56) as u64);
            }
            UOp::Lh => {
                let addr = rs1.wrapping_add(imm as u64);
                let raw = self
                    .mem
                    .load(addr, 2)
                    .map_err(|err| ExecError::Mem { pc: b.pc, err })?;
                cpu.set_reg(i.rd, (((raw << 48) as i64) >> 48) as u64);
            }
            UOp::Lw => {
                let addr = rs1.wrapping_add(imm as u64);
                let raw = self
                    .mem
                    .load(addr, 4)
                    .map_err(|err| ExecError::Mem { pc: b.pc, err })?;
                cpu.set_reg(i.rd, sext32(raw));
            }
            UOp::Ld => {
                let addr = rs1.wrapping_add(imm as u64);
                let raw = self
                    .mem
                    .load(addr, 8)
                    .map_err(|err| ExecError::Mem { pc: b.pc, err })?;
                cpu.set_reg(i.rd, raw);
            }
            UOp::Lbu => {
                let addr = rs1.wrapping_add(imm as u64);
                let raw = self
                    .mem
                    .load(addr, 1)
                    .map_err(|err| ExecError::Mem { pc: b.pc, err })?;
                cpu.set_reg(i.rd, raw);
            }
            UOp::Lhu => {
                let addr = rs1.wrapping_add(imm as u64);
                let raw = self
                    .mem
                    .load(addr, 2)
                    .map_err(|err| ExecError::Mem { pc: b.pc, err })?;
                cpu.set_reg(i.rd, raw);
            }
            UOp::Lwu => {
                let addr = rs1.wrapping_add(imm as u64);
                let raw = self
                    .mem
                    .load(addr, 4)
                    .map_err(|err| ExecError::Mem { pc: b.pc, err })?;
                cpu.set_reg(i.rd, raw);
            }
            UOp::Sb => {
                let addr = rs1.wrapping_add(imm as u64);
                self.mem
                    .store(addr, 1, rs2)
                    .map_err(|err| ExecError::Mem { pc: b.pc, err })?;
            }
            UOp::Sh => {
                let addr = rs1.wrapping_add(imm as u64);
                self.mem
                    .store(addr, 2, rs2)
                    .map_err(|err| ExecError::Mem { pc: b.pc, err })?;
            }
            UOp::Sw => {
                let addr = rs1.wrapping_add(imm as u64);
                self.mem
                    .store(addr, 4, rs2)
                    .map_err(|err| ExecError::Mem { pc: b.pc, err })?;
            }
            UOp::Sd => {
                let addr = rs1.wrapping_add(imm as u64);
                self.mem
                    .store(addr, 8, rs2)
                    .map_err(|err| ExecError::Mem { pc: b.pc, err })?;
            }
            UOp::Beq => {
                if rs1 == rs2 {
                    cpu.pc = b.pc.wrapping_add(imm as u64);
                }
            }
            UOp::Bne => {
                if rs1 != rs2 {
                    cpu.pc = b.pc.wrapping_add(imm as u64);
                }
            }
            UOp::Blt => {
                if (rs1 as i64) < (rs2 as i64) {
                    cpu.pc = b.pc.wrapping_add(imm as u64);
                }
            }
            UOp::Bge => {
                if (rs1 as i64) >= (rs2 as i64) {
                    cpu.pc = b.pc.wrapping_add(imm as u64);
                }
            }
            UOp::Bltu => {
                if rs1 < rs2 {
                    cpu.pc = b.pc.wrapping_add(imm as u64);
                }
            }
            UOp::Bgeu => {
                if rs1 >= rs2 {
                    cpu.pc = b.pc.wrapping_add(imm as u64);
                }
            }
            UOp::Jal => {
                cpu.set_reg(i.rd, b.fallthrough);
                let target = b.pc.wrapping_add(imm as u64);
                if target & 1 != 0 {
                    return Err(ExecError::UnalignedPc(target).into());
                }
                cpu.pc = target;
            }
            UOp::Jalr => {
                let target = rs1.wrapping_add(imm as u64) & !1;
                cpu.set_reg(i.rd, b.fallthrough);
                cpu.pc = target;
            }
        }
        Ok(ExecFlow::Retired)
    }

    /// Perform the individual I-cache fetch accesses for `insts` (the
    /// executed prefix of a fast-path block whose batch was never
    /// applied). Every line is still resident: the fast path proved
    /// residency at block entry and has made no I-cache accesses since.
    fn replay_ifetch(&mut self, insts: &[BInst], shift: u32, ilines: &LineMap) {
        let mut tok = 0u32;
        for b in insts {
            if b.reuse_line {
                self.icache.reaccess(tok, false);
            }
            for line in [b.new_line1, b.new_line2] {
                if line != NO_LINE {
                    tok = ilines
                        .get(line >> shift)
                        .expect("fast path proved residency");
                    self.icache.reaccess(tok, false);
                }
            }
        }
    }

    /// One I-cache line fetch on the block engine: reuse the resident
    /// token when the line is known resident, else a full access.
    /// Returns the line's token.
    #[inline]
    fn ifetch(&mut self, addr: u64, shift: u32, ilines: &mut LineMap, misses: &mut u64) -> u32 {
        let line = addr >> shift;
        if let Some(tok) = ilines.get(line) {
            self.icache.reaccess(tok, false);
            tok
        } else {
            let (hit, tok) = self.icache.access_indexed(addr, false);
            if !hit {
                *misses += 1;
                ilines.clear();
            }
            ilines.insert(line, tok);
            tok
        }
    }

    fn outcome(&mut self, exit_code: i64) -> RunOutcome {
        RunOutcome {
            exit_code,
            instructions: self.cpu.instret,
            cycles: self.cycles,
            stalls: self.pipeline.stalls,
            icache: *self.icache.stats(),
            dcache: *self.dcache.stats(),
            stdout: self.cpu.take_stdout(),
        }
    }
}

/// Load `image` into a fresh [`Soc`] and run it to completion — the
/// one-shot verification driver used by differential harnesses (e.g.
/// `eric-obf`) that compare two images' behavior under one config.
///
/// Equivalent to `Soc::new` + [`Soc::load_image`] + [`Soc::run`];
/// callers that run many images on one configuration should keep a
/// `Soc` (or use [`crate::BatchRunner`]) to reuse its allocations.
///
/// # Errors
///
/// Propagates [`RunError`] from loading or execution.
pub fn run_image(image: &Image, config: SocConfig, fuel: u64) -> Result<RunOutcome, RunError> {
    let mut soc = Soc::new(config);
    soc.load_image(image)?;
    soc.run(fuel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eric_asm::{assemble, AsmOptions};
    use eric_isa::encode::encode;
    use eric_isa::inst::Inst;
    use eric_isa::op::Op;
    use eric_isa::reg::Reg;

    fn config_with(engine: EngineKind) -> SocConfig {
        SocConfig {
            engine,
            ..SocConfig::default()
        }
    }

    const ENGINES: [EngineKind; 2] = [EngineKind::Step, EngineKind::Block];

    fn run_src_on(src: &str, engine: EngineKind) -> RunOutcome {
        let img = assemble(src, &AsmOptions::default()).unwrap_or_else(|e| panic!("{e}"));
        let mut soc = Soc::new(config_with(engine));
        soc.load_image(&img).unwrap();
        soc.run(10_000_000).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Run on the step oracle and assert the block engine agrees exactly.
    fn run_src(src: &str) -> RunOutcome {
        let step = run_src_on(src, EngineKind::Step);
        assert_eq!(run_src_on(src, EngineKind::Block), step, "block diverged");
        step
    }

    #[test]
    fn exit_code_propagates() {
        let out = run_src("li a0, 42\nli a7, 93\necall");
        assert_eq!(out.exit_code, 42);
        assert_eq!(out.instructions, 3);
    }

    #[test]
    fn cycles_exceed_instructions() {
        let out = run_src(
            "main:\n li t0, 100\nloop:\n addi t0, t0, -1\n bnez t0, loop\n li a0, 0\n li a7, 93\necall",
        );
        assert!(out.cycles > out.instructions, "{out:?}");
        assert!(out.cpi() > 1.0 && out.cpi() < 5.0, "CPI {}", out.cpi());
    }

    #[test]
    fn taken_branches_cost_redirects() {
        // A tight taken loop pays the redirect penalty each iteration.
        let loopy = run_src(
            "main:\n li t0, 1000\nloop:\n addi t0, t0, -1\n bnez t0, loop\n li a0, 0\n li a7, 93\necall",
        );
        assert!(loopy.stalls.redirect >= 2 * 999, "{:?}", loopy.stalls);
    }

    #[test]
    fn dcache_captures_locality() {
        // Walk 64 KiB of memory: 4× the 16 KiB D-cache, so the second
        // pass misses again (capacity) — miss ratio stays near 1/16 per
        // 4-byte stride... but with 8-byte strides: 8 accesses per line.
        let src = r#"
            .data
            buf: .zero 65536
            .text
            main:
                la t0, buf
                li t1, 8192      # 8192 dwords = 64 KiB
            loop:
                ld t2, 0(t0)
                addi t0, t0, 8
                addi t1, t1, -1
                bnez t1, loop
                li a0, 0
                li a7, 93
                ecall
        "#;
        let out = run_src(src);
        let ratio = out.dcache.miss_ratio();
        // 1 miss per 8 dword accesses to a 64-byte line.
        assert!(ratio > 0.08 && ratio < 0.20, "miss ratio {ratio}");
    }

    #[test]
    fn icache_hits_in_small_loops() {
        let out = run_src(
            "main:\n li t0, 10000\nloop:\n addi t0, t0, -1\n bnez t0, loop\n li a0, 0\n li a7, 93\necall",
        );
        assert!(out.icache.miss_ratio() < 0.01, "{:?}", out.icache);
    }

    #[test]
    fn out_of_fuel_reported() {
        for engine in ENGINES {
            let img = assemble("loop: j loop", &AsmOptions::default()).unwrap();
            let mut soc = Soc::new(config_with(engine));
            soc.load_image(&img).unwrap();
            assert_eq!(soc.run(1000), Err(RunError::OutOfFuel { budget: 1000 }));
            assert_eq!(soc.cpu().instret, 1000, "{engine}: fuel is exact");
        }
    }

    #[test]
    fn breakpoint_reported() {
        for engine in ENGINES {
            let img = assemble("ebreak", &AsmOptions::default()).unwrap();
            let mut soc = Soc::new(config_with(engine));
            soc.load_image(&img).unwrap();
            assert!(matches!(
                soc.run(10),
                Err(RunError::Breakpoint { pc: 0x8000_0000 })
            ));
        }
    }

    #[test]
    fn compressed_build_executes_identically() {
        let src = r#"
            main:
                li   a0, 0
                li   t0, 50
            loop:
                add  a0, a0, t0
                addi t0, t0, -1
                bnez t0, loop
                li   a7, 93
                ecall
        "#;
        let plain = {
            let img = assemble(src, &AsmOptions::default()).unwrap();
            let mut soc = Soc::new(SocConfig::default());
            soc.load_image(&img).unwrap();
            soc.run(1_000_000).unwrap()
        };
        let compressed = {
            let img = assemble(src, &AsmOptions::compressed()).unwrap();
            let mut soc = Soc::new(SocConfig::default());
            soc.load_image(&img).unwrap();
            soc.run(1_000_000).unwrap()
        };
        assert_eq!(plain.exit_code, compressed.exit_code);
        assert_eq!(plain.exit_code, 1275);
        assert_eq!(plain.instructions, compressed.instructions);
    }

    #[test]
    fn compressed_build_is_engine_invariant() {
        let src = r#"
            main:
                li   a0, 0
                li   t0, 50
            loop:
                add  a0, a0, t0
                addi t0, t0, -1
                bnez t0, loop
                li   a7, 93
                ecall
        "#;
        let img = assemble(src, &AsmOptions::compressed()).unwrap();
        let mut outs = ENGINES.iter().map(|&e| {
            let mut soc = Soc::new(config_with(e));
            soc.load_image(&img).unwrap();
            soc.run(1_000_000).unwrap()
        });
        let first = outs.next().unwrap();
        assert!(outs.all(|o| o == first));
        assert_eq!(first.exit_code, 1275);
    }

    #[test]
    fn rdcycle_sees_modeled_time() {
        let out = run_src(
            "main:\n rdcycle a1\n li t0, 100\nloop:\n addi t0, t0, -1\n bnez t0, loop\n rdcycle a2\n sub a0, a2, a1\n li a7, 93\necall",
        );
        // a0 = elapsed cycles across the loop; must be > 100.
        assert!(out.exit_code > 100, "{}", out.exit_code);
    }

    #[test]
    fn seconds_at_frequency() {
        let out = run_src("li a0, 0\nli a7, 93\necall");
        let secs = out.seconds_at(25);
        assert!(secs > 0.0 && secs < 1e-3);
    }

    /// Regression for the line-straddle fetch bug: a 4-byte parcel at
    /// offset 62 of a 64-byte I-cache line must access (and, cold,
    /// miss) the second line too. The branch at the entry targets the
    /// straddler directly — 2 bytes before the line boundary.
    #[test]
    fn straddling_fetch_accesses_both_lines() {
        let base = 0x8000_0000u64;
        let mut text = Vec::new();
        // @0: beq x0, x0, +62  → jumps to the straddler at offset 62.
        let beq = encode(&Inst::b(Op::Beq, Reg::ZERO, Reg::ZERO, 62)).unwrap();
        text.extend_from_slice(&beq.to_le_bytes());
        text.resize(62, 0); // never-executed filler
                            // @62: addi a7, x0, 93 — straddles the line boundary at 64.
        let addi_a7 = encode(&Inst::i(Op::Addi, Reg::A7, Reg::ZERO, 93)).unwrap();
        text.extend_from_slice(&addi_a7.to_le_bytes());
        // @66: addi a0, x0, 7;  @70: ecall.
        let addi_a0 = encode(&Inst::i(Op::Addi, Reg::A0, Reg::ZERO, 7)).unwrap();
        text.extend_from_slice(&addi_a0.to_le_bytes());
        text.extend_from_slice(&0x0000_0073u32.to_le_bytes());

        let mut outcomes = ENGINES.iter().map(|&engine| {
            let mut soc = Soc::new(config_with(engine));
            soc.load_raw(base, &text, base + 0x1000, &[], base).unwrap();
            soc.run(100).unwrap()
        });
        let out = outcomes.next().unwrap();
        assert_eq!(out.exit_code, 7);
        assert_eq!(out.instructions, 4);
        // beq: line 0 (miss). addi@62: line 0 (hit) + line 1 (miss).
        // addi@66 and ecall@70: line 1 (hits).
        assert_eq!(out.icache.misses, 2, "{:?}", out.icache);
        assert_eq!(out.icache.hits, 3, "{:?}", out.icache);
        // beq: 1 + 20 (miss) + 2 (redirect); addi@62: 1 + 20 (second
        // line missed); addi@66: 1; exit ecall: 1.
        assert_eq!(out.cycles, 46);
        assert!(outcomes.all(|o| o == out), "engines diverged");
    }

    /// Self-modification safety (the HDE decrypts text in place): a
    /// program that stores into its own text and re-executes the
    /// patched parcel must behave identically on every engine — the
    /// block engine must notice the store and drop stale translations,
    /// even when the store patches a *later* instruction of the block
    /// it lives in.
    #[test]
    fn self_modifying_code_is_engine_invariant() {
        // `patch:` starts as `li a0, 13`; every loop iteration first
        // overwrites it with `addi a0, x0, 42` (0x02A00513), so the
        // patched parcel must be seen from the first pass onward.
        let src = r#"
            main:
                la   t0, patch
                li   t1, 0x02A00513
                li   t2, 3
            loop:
                sw   t1, 0(t0)
            patch:
                li   a0, 13
                addi t2, t2, -1
                bnez t2, loop
                li   a7, 93
                ecall
        "#;
        let out = run_src(src);
        assert_eq!(out.exit_code, 42, "patched parcel must execute");
    }

    /// A reused `Soc` (allocation reuse across `load_image`) must be
    /// indistinguishable from a fresh one — including when the second
    /// program reads memory the first one dirtied.
    #[test]
    fn reloaded_soc_matches_fresh_soc() {
        let writer = r#"
            .data
            buf: .zero 8
            .text
            main:
                la   t0, buf
                li   t1, 77
                sd   t1, 0(t0)
                li   a0, 0
                li   a7, 93
                ecall
        "#;
        // Reads its own (zero-initialized) buffer: sees stale 77 if the
        // reload skipped zeroing.
        let reader = r#"
            .data
            buf: .zero 8
            .text
            main:
                la   t0, buf
                ld   a0, 0(t0)
                li   a7, 93
                ecall
        "#;
        for engine in ENGINES {
            let wimg = assemble(writer, &AsmOptions::default()).unwrap();
            let rimg = assemble(reader, &AsmOptions::default()).unwrap();
            let mut fresh = Soc::new(config_with(engine));
            fresh.load_image(&rimg).unwrap();
            let want = fresh.run(10_000).unwrap();

            let mut reused = Soc::new(config_with(engine));
            reused.load_image(&wimg).unwrap();
            reused.run(10_000).unwrap();
            reused.load_image(&rimg).unwrap();
            assert_eq!(reused.run(10_000).unwrap(), want, "{engine}");
        }
    }

    #[test]
    fn outcome_takes_stdout_by_value() {
        let src = r#"
            .data
            msg: .asciz "hi!"
            .text
            main:
                li a0, 1
                la a1, msg
                li a2, 3
                li a7, 64
                ecall
                li a0, 0
                li a7, 93
                ecall
        "#;
        let img = assemble(src, &AsmOptions::default()).unwrap();
        let mut soc = Soc::new(SocConfig::default());
        soc.load_image(&img).unwrap();
        let out = soc.run(10_000).unwrap();
        assert_eq!(out.stdout, b"hi!");
        // The buffer moved out of the CPU rather than being cloned.
        assert!(soc.cpu().stdout().is_empty());
    }
}
