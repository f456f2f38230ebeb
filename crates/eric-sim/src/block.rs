//! The basic-block translator behind the `block` engine.
//!
//! `Cpu::step` re-fetches and re-decodes every parcel from flat memory
//! on every retired instruction. For cycle-accounting purposes that
//! work is pure overhead: the decoded [`Inst`] and its timing metadata
//! are functions of the text bytes alone. This module caches that work
//! per basic block: [`BlockCache`] / [`Block`] hold straight-line runs
//! of pre-decoded instructions ending at the first
//! branch/jump/`ecall`/`ebreak`, each carrying a precomputed
//! [`PreTiming`] and an I-cache *fetch plan* (which cache lines the
//! parcel touches, and whether the first of them is the same line the
//! previous instruction ended on) so the executor charges the I-cache
//! per fetched line without re-deriving line addresses.
//!
//! Translations are invalidated through [`Memory`]'s code-version
//! stamp: translation marks the translated byte range via
//! [`Memory::note_code_range`], any store into a marked page bumps
//! [`Memory::code_version`], and the engine drops its cache when the
//! version moves (see `Soc::run`). That keeps HDE-style in-place
//! decryption and self-modifying programs bit-identical to the step
//! oracle.

use crate::cpu::ExecError;
use crate::mem::Memory;
use crate::pipeline::{BlockTiming, PreTiming, TimingConfig};
use eric_isa::decode::decode_parcel;
use eric_isa::inst::Inst;
use eric_isa::op::Op;

/// Sentinel line/tag address meaning "none".
pub(crate) const NO_LINE: u64 = u64::MAX;

/// Cap on instructions per translated block (bounds translation work
/// wasted when a block is invalidated, and block-cache memory).
const MAX_BLOCK_INSTS: usize = 128;

/// Direct-mapped block-cache capacity (slots). Program text has at
/// most one block head per parcel; conflicts simply re-translate.
const BLOCK_SLOTS: usize = 1 << 12;

/// Cap on distinct I-lines per block the executor's batched fetch
/// accounting handles (128 4-byte parcels span at most 9 64-byte
/// lines). Blocks exceeding it — possible only under tiny test
/// geometries — just fall back to per-access accounting.
pub(crate) const MAX_BLOCK_LINES: usize = 16;

/// Per-instruction dispatch flags (precomputed [`Op`] predicates).
pub(crate) const F_MEM: u8 = 1 << 0;
/// The D-cache access is a write (store or AMO).
pub(crate) const F_WRITE: u8 = 1 << 1;
/// AMO addressing: effective address is `rs1` with no immediate.
pub(crate) const F_AMO: u8 = 1 << 2;
/// Conditional branch (redirect charged when the PC diverges).
pub(crate) const F_BRANCH: u8 = 1 << 3;
/// Unconditional jump (redirect always charged).
pub(crate) const F_JUMP: u8 = 1 << 4;

/// Micro-op tag: ops the block executor implements inline, bypassing
/// the full `Cpu::execute` match. Each inline arm is a verbatim copy of
/// the corresponding `execute` arm's semantics (same operand reads,
/// same wrapping/sign-extension, same PC updates); everything else
/// falls back to [`UOp::Generic`]. The cross-engine equivalence tests
/// pin the two paths bit-identical.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum UOp {
    /// Dispatch through `Cpu::execute`.
    Generic,
    Lui,
    Auipc,
    Addi,
    Andi,
    Ori,
    Xori,
    Slti,
    Sltiu,
    Slli,
    Srli,
    Srai,
    Add,
    Sub,
    And,
    Or,
    Xor,
    Sll,
    Srl,
    Sra,
    Slt,
    Sltu,
    Addiw,
    Slliw,
    Srliw,
    Sraiw,
    Addw,
    Subw,
    Sllw,
    Srlw,
    Sraw,
    Mul,
    Mulh,
    Mulhsu,
    Mulhu,
    Div,
    Divu,
    Rem,
    Remu,
    Mulw,
    Divw,
    Divuw,
    Remw,
    Remuw,
    Lb,
    Lh,
    Lw,
    Ld,
    Lbu,
    Lhu,
    Lwu,
    Sb,
    Sh,
    Sw,
    Sd,
    Beq,
    Bne,
    Blt,
    Bge,
    Bltu,
    Bgeu,
    Jal,
    Jalr,
}

impl UOp {
    fn of(inst: &Inst) -> UOp {
        match inst.op {
            Op::Lui => UOp::Lui,
            Op::Auipc => UOp::Auipc,
            Op::Addi => UOp::Addi,
            Op::Andi => UOp::Andi,
            Op::Ori => UOp::Ori,
            Op::Xori => UOp::Xori,
            Op::Slti => UOp::Slti,
            Op::Sltiu => UOp::Sltiu,
            Op::Slli => UOp::Slli,
            Op::Srli => UOp::Srli,
            Op::Srai => UOp::Srai,
            Op::Add => UOp::Add,
            Op::Sub => UOp::Sub,
            Op::And => UOp::And,
            Op::Or => UOp::Or,
            Op::Xor => UOp::Xor,
            Op::Sll => UOp::Sll,
            Op::Srl => UOp::Srl,
            Op::Sra => UOp::Sra,
            Op::Slt => UOp::Slt,
            Op::Sltu => UOp::Sltu,
            Op::Addiw => UOp::Addiw,
            Op::Slliw => UOp::Slliw,
            Op::Srliw => UOp::Srliw,
            Op::Sraiw => UOp::Sraiw,
            Op::Addw => UOp::Addw,
            Op::Subw => UOp::Subw,
            Op::Sllw => UOp::Sllw,
            Op::Srlw => UOp::Srlw,
            Op::Sraw => UOp::Sraw,
            Op::Mul => UOp::Mul,
            Op::Mulh => UOp::Mulh,
            Op::Mulhsu => UOp::Mulhsu,
            Op::Mulhu => UOp::Mulhu,
            Op::Div => UOp::Div,
            Op::Divu => UOp::Divu,
            Op::Rem => UOp::Rem,
            Op::Remu => UOp::Remu,
            Op::Mulw => UOp::Mulw,
            Op::Divw => UOp::Divw,
            Op::Divuw => UOp::Divuw,
            Op::Remw => UOp::Remw,
            Op::Remuw => UOp::Remuw,
            Op::Lb => UOp::Lb,
            Op::Lh => UOp::Lh,
            Op::Lw => UOp::Lw,
            Op::Ld => UOp::Ld,
            Op::Lbu => UOp::Lbu,
            Op::Lhu => UOp::Lhu,
            Op::Lwu => UOp::Lwu,
            Op::Sb => UOp::Sb,
            Op::Sh => UOp::Sh,
            Op::Sw => UOp::Sw,
            Op::Sd => UOp::Sd,
            Op::Beq => UOp::Beq,
            Op::Bne => UOp::Bne,
            Op::Blt => UOp::Blt,
            Op::Bge => UOp::Bge,
            Op::Bltu => UOp::Bltu,
            Op::Bgeu => UOp::Bgeu,
            Op::Jal => UOp::Jal,
            Op::Jalr => UOp::Jalr,
            _ => UOp::Generic,
        }
    }
}

/// One pre-decoded instruction inside a [`Block`], with everything the
/// executor needs precomputed.
#[derive(Clone, Copy, Debug)]
pub(crate) struct BInst {
    /// The decoded instruction.
    pub inst: Inst,
    /// Inline-dispatch tag (see [`UOp`]).
    pub uop: UOp,
    /// Its fetch address.
    pub pc: u64,
    /// `pc + len`: the next sequential PC (what the oracle compares
    /// against to detect taken branches).
    pub fallthrough: u64,
    /// Precomputed retire-time metadata.
    pub timing: PreTiming,
    /// Fetch plan: `true` when the parcel starts on the same I-cache
    /// line the previous instruction in the block ended on (modeled as
    /// a token re-touch — a guaranteed hit).
    pub reuse_line: bool,
    /// Fetch plan: first new line this parcel touches ([`NO_LINE`] when
    /// it lies entirely on the reused line).
    pub new_line1: u64,
    /// Fetch plan: second new line (set when the parcel straddles a
    /// line boundary; [`NO_LINE`] otherwise).
    pub new_line2: u64,
    /// Dispatch flags (`F_*`).
    pub flags: u8,
}

/// A translated straight-line run of instructions.
#[derive(Clone, Debug)]
pub(crate) struct Block {
    /// Fetch address of the first instruction.
    pub pc: u64,
    /// The instructions, in program order.
    pub insts: Vec<BInst>,
    /// Total I-cache accesses the block's fetch plans perform.
    pub fetch_accesses: u64,
    /// Distinct I-lines the block touches, in first-touch order:
    /// (line-aligned address, 1-based position of the block's *last*
    /// access to that line). Together with `fetch_accesses` this lets
    /// the executor apply a whole block's worth of guaranteed-hit
    /// fetches as one arithmetic batch (`Cache::reaccess_batch`).
    pub lines: Vec<(u64, u32)>,
    /// `true` when every instruction executes inline (no [`UOp::Generic`]):
    /// nothing in the block can observe `Cpu::cycle`/`instret` mid-block
    /// or end the run, so the executor may retire the whole block with
    /// one [`crate::pipeline::Pipeline::retire_block`] call.
    pub pure: bool,
    /// Precomputed static timing for [`Pipeline::retire_block`].
    ///
    /// [`Pipeline::retire_block`]: crate::pipeline::Pipeline::retire_block
    pub timing: BlockTiming,
}

/// Translate the straight-line run starting at `pc` (ending at the
/// first branch/jump/`ecall`/`ebreak`, an undecodable or unfetchable
/// parcel, or [`MAX_BLOCK_INSTS`]) and mark the translated byte range
/// as code in `mem`.
///
/// Errors are returned only when the **first** parcel cannot be
/// fetched or decoded — exactly the step the oracle would fault on.
/// Later problems simply end the block early; if execution actually
/// reaches them, the next translation attempt reports the fault.
fn translate(
    pc0: u64,
    mem: &mut Memory,
    icache_line: u64,
    timing: &TimingConfig,
) -> Result<Block, ExecError> {
    if pc0 & 1 != 0 {
        return Err(ExecError::UnalignedPc(pc0));
    }
    let line_mask = icache_line - 1;
    let mut insts = Vec::new();
    let mut pc = pc0;
    let mut cur_line = NO_LINE;
    let mut lines: Vec<(u64, u32)> = Vec::new();
    let mut fetch_accesses = 0u64;
    let mut bt = BlockTiming::default();
    let mut pure = true;
    loop {
        let window = match mem.read_bytes(pc, 4).or_else(|_| mem.read_bytes(pc, 2)) {
            Ok(w) => w,
            Err(err) if insts.is_empty() => return Err(ExecError::Mem { pc, err }),
            Err(_) => break,
        };
        let inst = match decode_parcel(window) {
            Ok(i) => i,
            Err(err) if insts.is_empty() => return Err(ExecError::Decode { pc, err }),
            Err(_) => break,
        };
        let op = inst.op;
        let len = inst.len as u64;

        let first_line = pc & !line_mask;
        let last_line = (pc + len - 1) & !line_mask;
        let reuse_line = first_line == cur_line;
        cur_line = last_line;

        // Batched-fetch accounting: every parcel accesses its first
        // line (as a reuse re-touch or a new-line access), plus the
        // second line on a straddle — mirroring the executor's
        // per-access order exactly.
        let mut touch = |addr: u64| {
            fetch_accesses += 1;
            match lines.iter_mut().find(|e| e.0 == addr) {
                Some(e) => e.1 = fetch_accesses as u32,
                None => lines.push((addr, fetch_accesses as u32)),
            }
        };
        touch(first_line);
        if last_line != first_line {
            touch(last_line);
        }

        let mut flags = 0u8;
        if op.is_memory() {
            flags |= F_MEM;
            if op.is_store() || op.is_amo() {
                flags |= F_WRITE;
            }
            if op.is_amo() {
                flags |= F_AMO;
            }
        }
        if op.is_branch() {
            flags |= F_BRANCH;
        }
        if op.is_jump() {
            flags |= F_JUMP;
        }

        // Static timing accumulation: base + execution extra for every
        // instruction, and load-use interlocks between *adjacent block
        // instructions* (register numbers are static). The interlock of
        // the first instruction against whatever load preceded the
        // block stays runtime (`BlockTiming::first_int_rs*`).
        let t = PreTiming::of(&inst, timing);
        let uop = UOp::of(&inst);
        if uop == UOp::Generic {
            pure = false;
        }
        if insts.is_empty() {
            bt.first_int_rs1 = t.int_rs1;
            bt.first_int_rs2 = t.int_rs2;
        } else if bt.last_load_rd != 0
            && (bt.last_load_rd == t.int_rs1 || bt.last_load_rd == t.int_rs2)
        {
            bt.cycles += timing.load_use;
            bt.load_use += timing.load_use;
        }
        bt.cycles += 1 + t.exec_extra;
        bt.execute += t.exec_extra;
        bt.last_load_rd = t.load_rd;

        insts.push(BInst {
            inst,
            uop,
            pc,
            fallthrough: pc + len,
            timing: t,
            reuse_line,
            new_line1: if reuse_line { NO_LINE } else { first_line },
            new_line2: if last_line != first_line {
                last_line
            } else {
                NO_LINE
            },
            flags,
        });
        pc += len;
        let terminator = op.is_control_flow() || matches!(op, Op::Ecall | Op::Ebreak);
        if terminator || insts.len() >= MAX_BLOCK_INSTS {
            break;
        }
    }
    mem.note_code_range(pc0, (pc - pc0) as usize);
    if let Some(last) = insts.last() {
        // Unconditional jumps always redirect — static cost. The
        // conditional-branch redirect stays runtime.
        if last.flags & F_JUMP != 0 {
            bt.cycles += timing.redirect;
            bt.redirect += timing.redirect;
        }
    }
    Ok(Block {
        pc: pc0,
        insts,
        fetch_accesses,
        lines,
        pure,
        timing: bt,
    })
}

/// Direct-mapped cache of translated [`Block`]s, keyed by head PC.
#[derive(Debug)]
pub(crate) struct BlockCache {
    slots: Vec<Option<Block>>,
    /// The [`Memory::code_version`] the cached translations reflect.
    pub synced_version: u64,
}

impl BlockCache {
    /// An empty cache in sync with code-version `version`.
    pub fn new(version: u64) -> Self {
        BlockCache {
            slots: vec![None; BLOCK_SLOTS],
            synced_version: version,
        }
    }

    /// Drop every translation if `version` moved past the cache.
    pub fn sync(&mut self, version: u64) {
        if version != self.synced_version {
            self.slots.iter_mut().for_each(|s| *s = None);
            self.synced_version = version;
        }
    }

    #[inline]
    fn slot(pc: u64) -> usize {
        ((pc >> 1) as usize) & (BLOCK_SLOTS - 1)
    }

    /// The block starting at `pc`, translating it on miss.
    ///
    /// # Errors
    ///
    /// Propagates [`translate`] errors (first parcel unfetchable,
    /// undecodable, or `pc` misaligned).
    pub fn ensure<'a>(
        &'a mut self,
        pc: u64,
        mem: &mut Memory,
        icache_line: u64,
        timing: &TimingConfig,
    ) -> Result<&'a Block, ExecError> {
        let idx = Self::slot(pc);
        // (Not an `if let` over the slot: the borrow checker would pin
        // the early return's borrow for the whole function.)
        if self.slots[idx].as_ref().is_none_or(|b| b.pc != pc) {
            self.slots[idx] = Some(translate(pc, mem, icache_line, timing)?);
        }
        Ok(self.slots[idx].as_ref().expect("just filled"))
    }
}

/// Entries in a [`LineMap`].
const LINE_MAP_SLOTS: usize = 64;

/// Direct-mapped map from cache-line address to the resident-way token
/// [`crate::cache::Cache::access_indexed`] returned for it.
///
/// This is the block engine's way of skipping repeated tag lookups: a
/// line's token stays valid while the line is resident, and residency
/// can only end at an eviction — which only happens on a miss. The
/// caller therefore [`LineMap::clear`]s the whole map whenever the
/// underlying cache reports a miss, and any token still present names
/// a line that is guaranteed to hit (see
/// [`crate::cache::Cache::reaccess`]).
#[derive(Debug)]
pub(crate) struct LineMap {
    /// Line-granular address keys (`addr >> line_shift`); [`NO_LINE`]
    /// marks an empty slot.
    lines: [u64; LINE_MAP_SLOTS],
    tokens: [u32; LINE_MAP_SLOTS],
}

impl LineMap {
    pub fn new() -> Self {
        LineMap {
            lines: [NO_LINE; LINE_MAP_SLOTS],
            tokens: [0; LINE_MAP_SLOTS],
        }
    }

    /// The token for line-address `line`, if still tracked.
    #[inline]
    pub fn get(&self, line: u64) -> Option<u32> {
        let slot = (line as usize) & (LINE_MAP_SLOTS - 1);
        (self.lines[slot] == line).then(|| self.tokens[slot])
    }

    /// Track `token` for line-address `line`.
    #[inline]
    pub fn insert(&mut self, line: u64, token: u32) {
        let slot = (line as usize) & (LINE_MAP_SLOTS - 1);
        self.lines[slot] = line;
        self.tokens[slot] = token;
    }

    /// Forget every token (mandatory after the underlying cache
    /// reports a miss: the eviction may have displaced any line).
    #[inline]
    pub fn clear(&mut self) {
        self.lines = [NO_LINE; LINE_MAP_SLOTS];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eric_asm::{assemble, AsmOptions};

    fn text_mem(src: &str) -> (Memory, u64) {
        let img = assemble(src, &AsmOptions::default()).unwrap();
        let mut mem = Memory::new(0x8000_0000, 1 << 20);
        mem.write_bytes(img.text_base, &img.text).unwrap();
        (mem, img.entry)
    }

    #[test]
    fn blocks_end_at_control_flow() {
        let (mut mem, entry) = text_mem(
            "main:\n addi a0, a0, 1\n addi a1, a1, 2\n beq a0, a1, main\n addi a2, a2, 3\n jal x0, main",
        );
        let t = TimingConfig::default();
        let b = translate(entry, &mut mem, 64, &t).unwrap();
        assert_eq!(b.insts.len(), 3, "addi, addi, beq");
        assert!(b.insts[2].flags & F_BRANCH != 0);
        // Next block: the not-taken successor.
        let b2 = translate(b.insts[2].fallthrough, &mut mem, 64, &t).unwrap();
        assert_eq!(b2.insts.len(), 2, "addi, jal");
        assert!(b2.insts[1].flags & F_JUMP != 0);
    }

    #[test]
    fn fetch_plan_reuses_lines_and_marks_straddles() {
        let (mut mem, entry) = text_mem("main:\n addi a0, a0, 1\n addi a1, a1, 2\n ecall");
        let b = translate(entry, &mut mem, 64, &TimingConfig::default()).unwrap();
        // First inst opens its line; later insts on the same 64-byte
        // line reuse it.
        assert!(!b.insts[0].reuse_line);
        assert_eq!(b.insts[0].new_line1, entry & !63);
        assert_eq!(b.insts[0].new_line2, NO_LINE);
        assert!(b.insts[1].reuse_line);
        assert_eq!(b.insts[1].new_line1, NO_LINE);
    }

    #[test]
    fn translation_marks_code_range() {
        let (mut mem, entry) = text_mem("main:\n addi a0, a0, 1\n ecall");
        let v0 = mem.code_version();
        translate(entry, &mut mem, 64, &TimingConfig::default()).unwrap();
        mem.store(entry, 4, 0x13).unwrap(); // patch translated text
        assert!(mem.code_version() > v0);
    }

    #[test]
    fn first_parcel_fault_is_reported() {
        let mut mem = Memory::new(0x8000_0000, 4096);
        let t = TimingConfig::default();
        assert!(matches!(
            translate(0x8000_0001, &mut mem, 64, &t),
            Err(ExecError::UnalignedPc(_))
        ));
        assert!(matches!(
            translate(0x9000_0000, &mut mem, 64, &t),
            Err(ExecError::Mem { .. })
        ));
        // All-zero bytes are undecodable.
        assert!(matches!(
            translate(0x8000_0000, &mut mem, 64, &t),
            Err(ExecError::Decode { .. })
        ));
    }
}
