//! Architectural state and instruction semantics for RV64GC.

use crate::mem::{MemError, Memory};
use eric_isa::csr;
use eric_isa::decode::{decode_parcel, DecodeError};
use eric_isa::inst::Inst;
use eric_isa::op::Op;
use std::error::Error;
use std::fmt;

/// Linux RISC-V syscall numbers the simulator implements.
pub mod syscall {
    /// `write(fd, buf, len)`.
    pub const WRITE: u64 = 64;
    /// `exit(code)`.
    pub const EXIT: u64 = 93;
    /// Returned in `a0` for unimplemented syscalls.
    pub const ENOSYS: i64 = -38;
}

/// What happened when one instruction was stepped.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum StepOutcome {
    /// The instruction retired normally.
    Retired(Inst),
    /// The program invoked `exit(code)`.
    Exit(i64),
    /// An `ebreak` was executed.
    Breakpoint,
}

/// [`StepOutcome`] without the retired instruction payload — what
/// [`Cpu::execute`] reports to callers that already hold the decoded
/// [`Inst`] (the block engine), so the hot path never copies it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum ExecFlow {
    /// The instruction retired normally.
    Retired,
    /// The program invoked `exit(code)`.
    Exit(i64),
    /// An `ebreak` was executed.
    Breakpoint,
}

/// An execution fault.
#[derive(Clone, Debug, PartialEq)]
pub enum ExecError {
    /// Fetch or execute hit an undecodable pattern.
    Decode {
        /// PC of the faulting fetch.
        pc: u64,
        /// The decoder's complaint.
        err: DecodeError,
    },
    /// A memory access faulted.
    Mem {
        /// PC of the faulting instruction.
        pc: u64,
        /// The access fault.
        err: MemError,
    },
    /// Control flow targeted a misaligned PC.
    UnalignedPc(u64),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Decode { pc, err } => write!(f, "at pc {pc:#x}: {err}"),
            ExecError::Mem { pc, err } => write!(f, "at pc {pc:#x}: {err}"),
            ExecError::UnalignedPc(pc) => write!(f, "misaligned pc {pc:#x}"),
        }
    }
}

impl Error for ExecError {}

/// The hart: integer/FP register files, PC, and the user-level CSRs.
#[derive(Clone)]
pub struct Cpu {
    /// Integer registers (`x[0]` reads as zero; writes are discarded).
    pub x: [u64; 32],
    /// FP registers as raw bit patterns (f32 values are NaN-boxed).
    pub f: [u64; 32],
    /// Program counter.
    pub pc: u64,
    /// `fcsr` (frm + fflags), minimally modeled.
    pub fcsr: u64,
    /// Retired instruction counter (`instret`).
    pub instret: u64,
    /// Cycle counter shadow, maintained by the SoC's timing model so
    /// `rdcycle` returns modeled time.
    pub cycle: u64,
    /// LR/SC reservation address.
    reservation: Option<u64>,
    /// Bytes written to fd 1/2 via the `write` syscall.
    stdout: Vec<u8>,
}

impl fmt::Debug for Cpu {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Cpu {{ pc: {:#x}, instret: {}, cycle: {} }}",
            self.pc, self.instret, self.cycle
        )
    }
}

impl Default for Cpu {
    fn default() -> Self {
        Self::new()
    }
}

impl Cpu {
    /// A hart at reset: zero registers, PC 0.
    pub fn new() -> Self {
        Cpu {
            x: [0; 32],
            f: [0; 32],
            pc: 0,
            fcsr: 0,
            instret: 0,
            cycle: 0,
            reservation: None,
            stdout: Vec::new(),
        }
    }

    /// Read an integer register (x0 is always zero).
    pub fn reg(&self, n: u8) -> u64 {
        if n == 0 {
            0
        } else {
            self.x[n as usize]
        }
    }

    /// Write an integer register (writes to x0 are discarded).
    pub fn set_reg(&mut self, n: u8, v: u64) {
        if n != 0 {
            self.x[n as usize] = v;
        }
    }

    /// Program output accumulated through `write` syscalls.
    pub fn stdout(&self) -> &[u8] {
        &self.stdout
    }

    /// Take ownership of the accumulated program output, leaving the
    /// buffer empty (its allocation is handed to the caller).
    pub fn take_stdout(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.stdout)
    }

    /// Return the hart to power-on state in place, reusing the stdout
    /// allocation (equivalent to `*self = Cpu::new()` without churn).
    pub fn reset(&mut self) {
        self.x = [0; 32];
        self.f = [0; 32];
        self.pc = 0;
        self.fcsr = 0;
        self.instret = 0;
        self.cycle = 0;
        self.reservation = None;
        self.stdout.clear();
    }

    fn f32_bits(&self, n: u8) -> f32 {
        let bits = self.f[n as usize];
        if bits >> 32 == 0xFFFF_FFFF {
            f32::from_bits(bits as u32)
        } else {
            // Not NaN-boxed: the spec mandates treating it as canonical NaN.
            f32::from_bits(0x7FC0_0000)
        }
    }

    fn set_f32(&mut self, n: u8, v: f32) {
        self.f[n as usize] = 0xFFFF_FFFF_0000_0000 | v.to_bits() as u64;
    }

    fn f64_bits(&self, n: u8) -> f64 {
        f64::from_bits(self.f[n as usize])
    }

    fn set_f64(&mut self, n: u8, v: f64) {
        self.f[n as usize] = v.to_bits();
    }

    /// Fetch, decode, and execute one instruction.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] on undecodable instructions, memory
    /// faults, or misaligned control transfers.
    pub fn step(&mut self, mem: &mut Memory) -> Result<StepOutcome, ExecError> {
        let pc = self.pc;
        if pc & 1 != 0 {
            return Err(ExecError::UnalignedPc(pc));
        }
        let window = mem
            .read_bytes(pc, 4)
            .or_else(|_| mem.read_bytes(pc, 2))
            .map_err(|err| ExecError::Mem { pc, err })?;
        let inst = decode_parcel(window).map_err(|err| ExecError::Decode { pc, err })?;
        self.pc = pc + inst.len as u64;
        let flow = self.execute(&inst, mem, pc)?;
        self.instret += 1;
        Ok(match flow {
            ExecFlow::Retired => StepOutcome::Retired(inst),
            ExecFlow::Exit(code) => StepOutcome::Exit(code),
            ExecFlow::Breakpoint => StepOutcome::Breakpoint,
        })
    }

    #[allow(clippy::too_many_lines)]
    pub(crate) fn execute(
        &mut self,
        inst: &Inst,
        mem: &mut Memory,
        pc: u64,
    ) -> Result<ExecFlow, ExecError> {
        use Op::*;
        let rs1 = self.reg(inst.rs1);
        let rs2 = self.reg(inst.rs2);
        let imm = inst.imm;
        let memerr = |err: MemError| ExecError::Mem { pc, err };
        match inst.op {
            Lui => self.set_reg(inst.rd, imm as u64),
            Auipc => self.set_reg(inst.rd, pc.wrapping_add(imm as u64)),
            Jal => {
                self.set_reg(inst.rd, pc + inst.len as u64);
                let target = pc.wrapping_add(imm as u64);
                if target & 1 != 0 {
                    return Err(ExecError::UnalignedPc(target));
                }
                self.pc = target;
            }
            Jalr => {
                let target = rs1.wrapping_add(imm as u64) & !1;
                self.set_reg(inst.rd, pc + inst.len as u64);
                self.pc = target;
            }
            Beq | Bne | Blt | Bge | Bltu | Bgeu => {
                let taken = match inst.op {
                    Beq => rs1 == rs2,
                    Bne => rs1 != rs2,
                    Blt => (rs1 as i64) < (rs2 as i64),
                    Bge => (rs1 as i64) >= (rs2 as i64),
                    Bltu => rs1 < rs2,
                    _ => rs1 >= rs2,
                };
                if taken {
                    self.pc = pc.wrapping_add(imm as u64);
                }
            }
            Lb | Lh | Lw | Ld | Lbu | Lhu | Lwu => {
                let addr = rs1.wrapping_add(imm as u64);
                let (width, signed) = match inst.op {
                    Lb => (1, true),
                    Lh => (2, true),
                    Lw => (4, true),
                    Ld => (8, false),
                    Lbu => (1, false),
                    Lhu => (2, false),
                    _ => (4, false),
                };
                let raw = mem.load(addr, width).map_err(memerr)?;
                let value = if signed {
                    let shift = 64 - width * 8;
                    (((raw << shift) as i64) >> shift) as u64
                } else {
                    raw
                };
                self.set_reg(inst.rd, value);
            }
            Sb | Sh | Sw | Sd => {
                let addr = rs1.wrapping_add(imm as u64);
                let width = match inst.op {
                    Sb => 1,
                    Sh => 2,
                    Sw => 4,
                    _ => 8,
                };
                mem.store(addr, width, rs2).map_err(memerr)?;
            }
            Addi => self.set_reg(inst.rd, rs1.wrapping_add(imm as u64)),
            Slti => self.set_reg(inst.rd, ((rs1 as i64) < imm) as u64),
            Sltiu => self.set_reg(inst.rd, (rs1 < imm as u64) as u64),
            Xori => self.set_reg(inst.rd, rs1 ^ imm as u64),
            Ori => self.set_reg(inst.rd, rs1 | imm as u64),
            Andi => self.set_reg(inst.rd, rs1 & imm as u64),
            Slli => self.set_reg(inst.rd, rs1 << (imm & 63)),
            Srli => self.set_reg(inst.rd, rs1 >> (imm & 63)),
            Srai => self.set_reg(inst.rd, ((rs1 as i64) >> (imm & 63)) as u64),
            Add => self.set_reg(inst.rd, rs1.wrapping_add(rs2)),
            Sub => self.set_reg(inst.rd, rs1.wrapping_sub(rs2)),
            Sll => self.set_reg(inst.rd, rs1 << (rs2 & 63)),
            Slt => self.set_reg(inst.rd, ((rs1 as i64) < (rs2 as i64)) as u64),
            Sltu => self.set_reg(inst.rd, (rs1 < rs2) as u64),
            Xor => self.set_reg(inst.rd, rs1 ^ rs2),
            Srl => self.set_reg(inst.rd, rs1 >> (rs2 & 63)),
            Sra => self.set_reg(inst.rd, ((rs1 as i64) >> (rs2 & 63)) as u64),
            Or => self.set_reg(inst.rd, rs1 | rs2),
            And => self.set_reg(inst.rd, rs1 & rs2),
            Addiw => self.set_reg(inst.rd, sext32(rs1.wrapping_add(imm as u64))),
            Slliw => self.set_reg(inst.rd, sext32(rs1 << (imm & 31))),
            Srliw => self.set_reg(inst.rd, sext32(((rs1 as u32) >> (imm & 31)) as u64)),
            Sraiw => self.set_reg(inst.rd, (((rs1 as i32) >> (imm & 31)) as i64) as u64),
            Addw => self.set_reg(inst.rd, sext32(rs1.wrapping_add(rs2))),
            Subw => self.set_reg(inst.rd, sext32(rs1.wrapping_sub(rs2))),
            Sllw => self.set_reg(inst.rd, sext32(rs1 << (rs2 & 31))),
            Srlw => self.set_reg(inst.rd, sext32(((rs1 as u32) >> (rs2 & 31)) as u64)),
            Sraw => self.set_reg(inst.rd, (((rs1 as i32) >> (rs2 & 31)) as i64) as u64),
            Mul => self.set_reg(inst.rd, rs1.wrapping_mul(rs2)),
            Mulh => {
                let p = (rs1 as i64 as i128) * (rs2 as i64 as i128);
                self.set_reg(inst.rd, (p >> 64) as u64);
            }
            Mulhsu => {
                let p = (rs1 as i64 as i128) * (rs2 as u128 as i128);
                self.set_reg(inst.rd, (p >> 64) as u64);
            }
            Mulhu => {
                let p = (rs1 as u128) * (rs2 as u128);
                self.set_reg(inst.rd, (p >> 64) as u64);
            }
            Div => self.set_reg(inst.rd, div_signed(rs1 as i64, rs2 as i64) as u64),
            Divu => self.set_reg(inst.rd, rs1.checked_div(rs2).unwrap_or(u64::MAX)),
            Rem => self.set_reg(inst.rd, rem_signed(rs1 as i64, rs2 as i64) as u64),
            Remu => self.set_reg(inst.rd, if rs2 == 0 { rs1 } else { rs1 % rs2 }),
            Mulw => self.set_reg(inst.rd, sext32(rs1.wrapping_mul(rs2))),
            Divw => self.set_reg(
                inst.rd,
                div_signed(rs1 as i32 as i64, rs2 as i32 as i64) as i32 as i64 as u64,
            ),
            Divuw => {
                let (a, b) = (rs1 as u32, rs2 as u32);
                let q = a.checked_div(b).unwrap_or(u32::MAX);
                self.set_reg(inst.rd, q as i32 as i64 as u64);
            }
            Remw => self.set_reg(
                inst.rd,
                rem_signed(rs1 as i32 as i64, rs2 as i32 as i64) as i32 as i64 as u64,
            ),
            Remuw => {
                let (a, b) = (rs1 as u32, rs2 as u32);
                let r = if b == 0 { a } else { a % b };
                self.set_reg(inst.rd, r as i32 as i64 as u64);
            }
            Fence | FenceI => {}
            Ecall => return self.ecall(mem, pc),
            Ebreak => return Ok(ExecFlow::Breakpoint),
            Csrrw | Csrrs | Csrrc | Csrrwi | Csrrsi | Csrrci => {
                self.exec_csr(inst)?;
            }
            // ----- A extension -----
            LrW | LrD => {
                let width = if inst.op == LrW { 4 } else { 8 };
                let addr = rs1;
                let raw = mem.load(addr, width).map_err(memerr)?;
                let value = if width == 4 { sext32(raw) } else { raw };
                self.set_reg(inst.rd, value);
                self.reservation = Some(addr);
            }
            ScW | ScD => {
                let width = if inst.op == ScW { 4 } else { 8 };
                let addr = rs1;
                if self.reservation == Some(addr) {
                    mem.store(addr, width, rs2).map_err(memerr)?;
                    self.set_reg(inst.rd, 0);
                } else {
                    self.set_reg(inst.rd, 1);
                }
                self.reservation = None;
            }
            _ if inst.op.is_amo() => {
                let word = matches!(
                    inst.op,
                    AmoswapW
                        | AmoaddW
                        | AmoxorW
                        | AmoandW
                        | AmoorW
                        | AmominW
                        | AmomaxW
                        | AmominuW
                        | AmomaxuW
                );
                let width = if word { 4 } else { 8 };
                let addr = rs1;
                let raw = mem.load(addr, width).map_err(memerr)?;
                let old = if word { sext32(raw) } else { raw };
                let rhs = rs2;
                let new = match inst.op {
                    AmoswapW | AmoswapD => rhs,
                    AmoaddW | AmoaddD => old.wrapping_add(rhs),
                    AmoxorW | AmoxorD => old ^ rhs,
                    AmoandW | AmoandD => old & rhs,
                    AmoorW | AmoorD => old | rhs,
                    AmominW => ((old as i32).min(rhs as i32)) as i64 as u64,
                    AmomaxW => ((old as i32).max(rhs as i32)) as i64 as u64,
                    AmominuW => ((old as u32).min(rhs as u32)) as u64,
                    AmomaxuW => ((old as u32).max(rhs as u32)) as u64,
                    AmominD => ((old as i64).min(rhs as i64)) as u64,
                    AmomaxD => ((old as i64).max(rhs as i64)) as u64,
                    AmominuD => old.min(rhs),
                    _ => old.max(rhs),
                };
                mem.store(addr, width, new).map_err(memerr)?;
                self.set_reg(inst.rd, old);
            }
            // ----- F / D -----
            Flw => {
                let addr = rs1.wrapping_add(imm as u64);
                let raw = mem.load(addr, 4).map_err(memerr)? as u32;
                self.f[inst.rd as usize] = 0xFFFF_FFFF_0000_0000 | raw as u64;
            }
            Fld => {
                let addr = rs1.wrapping_add(imm as u64);
                let raw = mem.load(addr, 8).map_err(memerr)?;
                self.f[inst.rd as usize] = raw;
            }
            Fsw => {
                let addr = rs1.wrapping_add(imm as u64);
                mem.store(addr, 4, self.f[inst.rs2 as usize] & 0xFFFF_FFFF)
                    .map_err(memerr)?;
            }
            Fsd => {
                let addr = rs1.wrapping_add(imm as u64);
                mem.store(addr, 8, self.f[inst.rs2 as usize])
                    .map_err(memerr)?;
            }
            _ => self.exec_fp(inst),
        }
        Ok(ExecFlow::Retired)
    }

    fn ecall(&mut self, mem: &mut Memory, pc: u64) -> Result<ExecFlow, ExecError> {
        let number = self.reg(17); // a7
        match number {
            syscall::EXIT => Ok(ExecFlow::Exit(self.reg(10) as i64)),
            syscall::WRITE => {
                let (fd, addr, len) = (self.reg(10), self.reg(11), self.reg(12));
                if fd == 1 || fd == 2 {
                    let bytes = mem
                        .read_bytes(addr, len as usize)
                        .map_err(|err| ExecError::Mem { pc, err })?;
                    self.stdout.extend_from_slice(bytes);
                    self.set_reg(10, len);
                } else {
                    self.set_reg(10, syscall::ENOSYS as u64);
                }
                Ok(ExecFlow::Retired)
            }
            _ => {
                self.set_reg(10, syscall::ENOSYS as u64);
                Ok(ExecFlow::Retired)
            }
        }
    }

    fn exec_csr(&mut self, inst: &Inst) -> Result<(), ExecError> {
        let csr_num = inst.imm as u16;
        let old = match csr_num {
            csr::CYCLE | csr::TIME => self.cycle,
            csr::INSTRET => self.instret,
            csr::FFLAGS => self.fcsr & 0x1F,
            csr::FRM => (self.fcsr >> 5) & 0x7,
            csr::FCSR => self.fcsr,
            _ => 0,
        };
        let operand = match inst.op {
            Op::Csrrwi | Op::Csrrsi | Op::Csrrci => inst.rs1 as u64,
            _ => self.reg(inst.rs1),
        };
        let new = match inst.op {
            Op::Csrrw | Op::Csrrwi => Some(operand),
            Op::Csrrs | Op::Csrrsi => (operand != 0).then_some(old | operand),
            _ => (operand != 0).then_some(old & !operand),
        };
        if let Some(v) = new {
            match csr_num {
                csr::FFLAGS => self.fcsr = (self.fcsr & !0x1F) | (v & 0x1F),
                csr::FRM => self.fcsr = (self.fcsr & 0x1F) | ((v & 0x7) << 5),
                csr::FCSR => self.fcsr = v & 0xFF,
                _ => {} // counters are read-only shadows
            }
        }
        self.set_reg(inst.rd, old);
        Ok(())
    }

    /// Floating-point compute ops (loads/stores handled by the caller).
    ///
    /// Rounding is the host's round-nearest-even for all modes; `fflags`
    /// accrual is limited to NV on invalid conversions. This fidelity is
    /// plenty for benchmark workloads (documented in DESIGN.md).
    fn exec_fp(&mut self, inst: &Inst) {
        use Op::*;
        let (rd, r1, r2, r3) = (inst.rd, inst.rs1, inst.rs2, inst.rs3);
        match inst.op {
            FaddS => self.set_f32(rd, self.f32_bits(r1) + self.f32_bits(r2)),
            FsubS => self.set_f32(rd, self.f32_bits(r1) - self.f32_bits(r2)),
            FmulS => self.set_f32(rd, self.f32_bits(r1) * self.f32_bits(r2)),
            FdivS => self.set_f32(rd, self.f32_bits(r1) / self.f32_bits(r2)),
            FsqrtS => self.set_f32(rd, self.f32_bits(r1).sqrt()),
            FminS => self.set_f32(rd, self.f32_bits(r1).min(self.f32_bits(r2))),
            FmaxS => self.set_f32(rd, self.f32_bits(r1).max(self.f32_bits(r2))),
            FmaddS => self.set_f32(
                rd,
                self.f32_bits(r1)
                    .mul_add(self.f32_bits(r2), self.f32_bits(r3)),
            ),
            FmsubS => self.set_f32(
                rd,
                self.f32_bits(r1)
                    .mul_add(self.f32_bits(r2), -self.f32_bits(r3)),
            ),
            FnmsubS => self.set_f32(
                rd,
                (-self.f32_bits(r1)).mul_add(self.f32_bits(r2), self.f32_bits(r3)),
            ),
            FnmaddS => self.set_f32(
                rd,
                (-self.f32_bits(r1)).mul_add(self.f32_bits(r2), -self.f32_bits(r3)),
            ),
            FsgnjS | FsgnjnS | FsgnjxS => {
                let a = self.f[r1 as usize] as u32;
                let b = self.f[r2 as usize] as u32;
                let sign = match inst.op {
                    FsgnjS => b & 0x8000_0000,
                    FsgnjnS => !b & 0x8000_0000,
                    _ => (a ^ b) & 0x8000_0000,
                };
                self.f[rd as usize] = 0xFFFF_FFFF_0000_0000 | ((a & 0x7FFF_FFFF) | sign) as u64;
            }
            FeqS => self.set_reg(rd, (self.f32_bits(r1) == self.f32_bits(r2)) as u64),
            FltS => self.set_reg(rd, (self.f32_bits(r1) < self.f32_bits(r2)) as u64),
            FleS => self.set_reg(rd, (self.f32_bits(r1) <= self.f32_bits(r2)) as u64),
            FclassS => self.set_reg(rd, classify(self.f32_bits(r1) as f64)),
            FcvtWS => self.set_reg(rd, cvt_to_int(self.f32_bits(r1) as f64, 32, true)),
            FcvtWuS => self.set_reg(rd, cvt_to_int(self.f32_bits(r1) as f64, 32, false)),
            FcvtLS => self.set_reg(rd, cvt_to_int(self.f32_bits(r1) as f64, 64, true)),
            FcvtLuS => self.set_reg(rd, cvt_to_int(self.f32_bits(r1) as f64, 64, false)),
            FcvtSW => self.set_f32(rd, self.reg(r1) as i32 as f32),
            FcvtSWu => self.set_f32(rd, self.reg(r1) as u32 as f32),
            FcvtSL => self.set_f32(rd, self.reg(r1) as i64 as f32),
            FcvtSLu => self.set_f32(rd, self.reg(r1) as f32),
            FmvXW => self.set_reg(rd, (self.f[r1 as usize] as u32) as i32 as i64 as u64),
            FmvWX => self.f[rd as usize] = 0xFFFF_FFFF_0000_0000 | (self.reg(r1) & 0xFFFF_FFFF),
            // ----- double precision -----
            FaddD => self.set_f64(rd, self.f64_bits(r1) + self.f64_bits(r2)),
            FsubD => self.set_f64(rd, self.f64_bits(r1) - self.f64_bits(r2)),
            FmulD => self.set_f64(rd, self.f64_bits(r1) * self.f64_bits(r2)),
            FdivD => self.set_f64(rd, self.f64_bits(r1) / self.f64_bits(r2)),
            FsqrtD => self.set_f64(rd, self.f64_bits(r1).sqrt()),
            FminD => self.set_f64(rd, self.f64_bits(r1).min(self.f64_bits(r2))),
            FmaxD => self.set_f64(rd, self.f64_bits(r1).max(self.f64_bits(r2))),
            FmaddD => self.set_f64(
                rd,
                self.f64_bits(r1)
                    .mul_add(self.f64_bits(r2), self.f64_bits(r3)),
            ),
            FmsubD => self.set_f64(
                rd,
                self.f64_bits(r1)
                    .mul_add(self.f64_bits(r2), -self.f64_bits(r3)),
            ),
            FnmsubD => self.set_f64(
                rd,
                (-self.f64_bits(r1)).mul_add(self.f64_bits(r2), self.f64_bits(r3)),
            ),
            FnmaddD => self.set_f64(
                rd,
                (-self.f64_bits(r1)).mul_add(self.f64_bits(r2), -self.f64_bits(r3)),
            ),
            FsgnjD | FsgnjnD | FsgnjxD => {
                let a = self.f[r1 as usize];
                let b = self.f[r2 as usize];
                let sign = match inst.op {
                    FsgnjD => b & (1 << 63),
                    FsgnjnD => !b & (1 << 63),
                    _ => (a ^ b) & (1 << 63),
                };
                self.f[rd as usize] = (a & !(1 << 63)) | sign;
            }
            FeqD => self.set_reg(rd, (self.f64_bits(r1) == self.f64_bits(r2)) as u64),
            FltD => self.set_reg(rd, (self.f64_bits(r1) < self.f64_bits(r2)) as u64),
            FleD => self.set_reg(rd, (self.f64_bits(r1) <= self.f64_bits(r2)) as u64),
            FclassD => self.set_reg(rd, classify(self.f64_bits(r1))),
            FcvtWD => self.set_reg(rd, cvt_to_int(self.f64_bits(r1), 32, true)),
            FcvtWuD => self.set_reg(rd, cvt_to_int(self.f64_bits(r1), 32, false)),
            FcvtLD => self.set_reg(rd, cvt_to_int(self.f64_bits(r1), 64, true)),
            FcvtLuD => self.set_reg(rd, cvt_to_int(self.f64_bits(r1), 64, false)),
            FcvtDW => self.set_f64(rd, self.reg(r1) as i32 as f64),
            FcvtDWu => self.set_f64(rd, self.reg(r1) as u32 as f64),
            FcvtDL => self.set_f64(rd, self.reg(r1) as i64 as f64),
            FcvtDLu => self.set_f64(rd, self.reg(r1) as f64),
            FcvtSD => self.set_f32(rd, self.f64_bits(r1) as f32),
            FcvtDS => self.set_f64(rd, self.f32_bits(r1) as f64),
            FmvXD => self.set_reg(rd, self.f[r1 as usize]),
            FmvDX => self.f[rd as usize] = self.reg(r1),
            other => unreachable!("non-FP op {other} reached exec_fp"),
        }
    }
}

pub(crate) fn sext32(v: u64) -> u64 {
    v as u32 as i32 as i64 as u64
}

pub(crate) fn div_signed(a: i64, b: i64) -> i64 {
    if b == 0 {
        -1
    } else if a == i64::MIN && b == -1 {
        i64::MIN
    } else {
        a / b
    }
}

pub(crate) fn rem_signed(a: i64, b: i64) -> i64 {
    if b == 0 {
        a
    } else if a == i64::MIN && b == -1 {
        0
    } else {
        a % b
    }
}

/// FP→int conversion with RISC-V saturation semantics (NaN → max).
fn cvt_to_int(v: f64, bits: u32, signed: bool) -> u64 {
    match (bits, signed) {
        (32, true) => {
            let q = if v.is_nan() { i32::MAX } else { v as i32 };
            q as i64 as u64
        }
        (32, false) => {
            let q = if v.is_nan() { u32::MAX } else { v as u32 };
            q as i32 as i64 as u64 // sign-extended per spec
        }
        (64, true) => {
            let q = if v.is_nan() { i64::MAX } else { v as i64 };
            q as u64
        }
        _ => {
            if v.is_nan() {
                u64::MAX
            } else {
                v as u64
            }
        }
    }
}

/// `fclass` bit per the RISC-V spec.
fn classify(v: f64) -> u64 {
    use std::num::FpCategory::*;
    let negative = v.is_sign_negative();
    let bit = match (v.classify(), negative) {
        (Infinite, true) => 0,
        (Normal, true) => 1,
        (Subnormal, true) => 2,
        (Zero, true) => 3,
        (Zero, false) => 4,
        (Subnormal, false) => 5,
        (Normal, false) => 6,
        (Infinite, false) => 7,
        (Nan, _) => {
            // Signaling vs quiet: check the MSB of the mantissa.
            let quiet = (v.to_bits() >> 51) & 1 == 1;
            if quiet {
                9
            } else {
                8
            }
        }
    };
    1 << bit
}

#[cfg(test)]
mod tests {
    use super::*;
    use eric_asm::{assemble, AsmOptions};

    /// Assemble and run to exit; returns (exit code, cpu).
    fn run(src: &str) -> (i64, Cpu) {
        let img = assemble(src, &AsmOptions::default()).unwrap_or_else(|e| panic!("{e}"));
        let mut mem = Memory::new(0x8000_0000, 4 << 20);
        mem.write_bytes(img.text_base, &img.text).unwrap();
        mem.write_bytes(img.data_base, &img.data).unwrap();
        let mut cpu = Cpu::new();
        cpu.pc = img.entry;
        cpu.set_reg(2, 0x8000_0000 + (4 << 20)); // sp at top of RAM
        for _ in 0..10_000_000u64 {
            match cpu.step(&mut mem).unwrap_or_else(|e| panic!("{e}")) {
                StepOutcome::Exit(code) => return (code, cpu),
                StepOutcome::Breakpoint => panic!("unexpected ebreak"),
                StepOutcome::Retired(_) => {}
            }
        }
        panic!("did not exit");
    }

    fn exit_code(src: &str) -> i64 {
        run(src).0
    }

    #[test]
    fn arithmetic_basics() {
        assert_eq!(exit_code("li a0, 40\naddi a0, a0, 2\nli a7, 93\necall"), 42);
        assert_eq!(
            exit_code("li a0, 6\nli a1, 7\nmul a0, a0, a1\nli a7, 93\necall"),
            42
        );
        assert_eq!(
            exit_code("li a0, 100\nli a1, 7\nrem a0, a0, a1\nli a7, 93\necall"),
            2
        );
        assert_eq!(
            exit_code("li a0, -84\nli a1, -2\ndiv a0, a0, a1\nli a7, 93\necall"),
            42
        );
    }

    #[test]
    fn division_edge_cases() {
        // div by zero -> -1; but exit codes are taken as i64, check via addi.
        assert_eq!(
            exit_code("li a0, 5\nli a1, 0\ndiv a0, a0, a1\naddi a0, a0, 43\nli a7, 93\necall"),
            42
        );
        // rem by zero -> dividend.
        assert_eq!(
            exit_code("li a0, 42\nli a1, 0\nrem a0, a0, a1\nli a7, 93\necall"),
            42
        );
    }

    #[test]
    fn li_64bit_constant() {
        let (code, _) = run(
            "li a0, 0x123456789ABCDEF0\nli a1, 0x123456789ABCDEF0\nxor a0, a0, a1\naddi a0, a0, 42\nli a7, 93\necall",
        );
        assert_eq!(code, 42);
        // Verify the actual value loads correctly.
        let (_, cpu) = run("li a5, 0x123456789ABCDEF0\nli a0, 0\nli a7, 93\necall");
        assert_eq!(cpu.reg(15), 0x1234_5678_9ABC_DEF0);
    }

    #[test]
    fn word_ops_sign_extend() {
        let (_, cpu) = run("li a1, 0x7FFFFFFF\naddiw a1, a1, 1\nli a0, 0\nli a7, 93\necall");
        assert_eq!(cpu.reg(11), 0xFFFF_FFFF_8000_0000);
    }

    #[test]
    fn memory_and_loops() {
        // Store 1..=10 to memory, sum them back.
        let src = r#"
            .data
            buf: .zero 80
            .text
            main:
                la   t0, buf
                li   t1, 1
            fill:
                sd   t1, 0(t0)
                addi t0, t0, 8
                addi t1, t1, 1
                li   t2, 11
                bne  t1, t2, fill
                la   t0, buf
                li   a0, 0
                li   t1, 0
            sum:
                ld   t3, 0(t0)
                add  a0, a0, t3
                addi t0, t0, 8
                addi t1, t1, 1
                li   t2, 10
                bne  t1, t2, sum
                li   a7, 93
                ecall
        "#;
        assert_eq!(exit_code(src), 55);
    }

    #[test]
    fn byte_halfword_access_and_sign() {
        let src = r#"
            .data
            b: .byte 0xFF
            h: .half 0x8000
            .text
            main:
                la a1, b
                lb a0, 0(a1)      # -1
                lbu a2, 0(a1)     # 255
                add a0, a0, a2    # 254
                la a1, h
                lh a3, 0(a1)      # -32768
                lhu a4, 0(a1)     # 32768
                add a0, a0, a3
                add a0, a0, a4    # 254
                li a7, 93
                ecall
        "#;
        assert_eq!(exit_code(src), 254);
    }

    #[test]
    fn function_calls() {
        let src = r#"
            main:
                li   a0, 20
                call double
                addi a0, a0, 2
                li   a7, 93
                ecall
            double:
                add  a0, a0, a0
                ret
        "#;
        assert_eq!(exit_code(src), 42);
    }

    #[test]
    fn write_syscall_collects_stdout() {
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
        let (_, cpu) = run(src);
        assert_eq!(cpu.stdout(), b"hi!");
    }

    #[test]
    fn unknown_syscall_returns_enosys() {
        let src = "li a7, 1234\necall\nsub a0, zero, a0\nli a7, 93\necall";
        assert_eq!(exit_code(src), 38);
    }

    #[test]
    fn amo_and_lrsc() {
        let src = r#"
            .data
            cell: .dword 40
            .text
            main:
                la   t0, cell
                li   t1, 2
                amoadd.d a0, t1, (t0)   # a0 = 40, cell = 42
                ld   a0, 0(t0)
                li   a7, 93
                ecall
        "#;
        assert_eq!(exit_code(src), 42);

        let src = r#"
            .data
            cell: .dword 7
            .text
            main:
                la   t0, cell
            retry:
                lr.d t1, (t0)
                addi t1, t1, 35
                sc.d t2, t1, (t0)
                bnez t2, retry
                ld   a0, 0(t0)
                li   a7, 93
                ecall
        "#;
        assert_eq!(exit_code(src), 42);
    }

    #[test]
    fn fp_double_arithmetic() {
        let src = r#"
            main:
                li   t0, 6
                fcvt.d.l fa0, t0
                li   t0, 7
                fcvt.d.l fa1, t0
                fmul.d fa2, fa0, fa1
                fcvt.l.d a0, fa2
                li   a7, 93
                ecall
        "#;
        assert_eq!(exit_code(src), 42);
    }

    #[test]
    fn fp_single_arithmetic_and_compare() {
        let src = r#"
            main:
                li   t0, 3
                fcvt.s.w fa0, t0
                li   t0, 4
                fcvt.s.w fa1, t0
                fadd.s fa2, fa0, fa1      # 7.0f
                flt.s a0, fa0, fa1        # 1
                fcvt.w.s a1, fa2          # 7
                add  a0, a0, a1           # 8
                li   a7, 93
                ecall
        "#;
        assert_eq!(exit_code(src), 8);
    }

    #[test]
    fn rdcycle_and_rdinstret() {
        let (_, cpu) = run("rdinstret a1\nnop\nnop\nrdinstret a2\nli a0, 0\nli a7, 93\necall");
        assert_eq!(cpu.reg(12) - cpu.reg(11), 3); // nop, nop, rdinstret
    }

    #[test]
    fn x0_is_immutable() {
        let (_, cpu) = run("li a0, 0\naddi zero, zero, 5\nadd a0, zero, zero\nli a7, 93\necall");
        assert_eq!(cpu.reg(0), 0);
        assert_eq!(cpu.reg(10), 0);
    }

    #[test]
    fn decode_fault_reported() {
        let mut mem = Memory::new(0x8000_0000, 4096);
        mem.write_bytes(0x8000_0000, &[0x00, 0x00, 0x00, 0x00])
            .unwrap();
        let mut cpu = Cpu::new();
        cpu.pc = 0x8000_0000;
        assert!(matches!(
            cpu.step(&mut mem),
            Err(ExecError::Decode {
                pc: 0x8000_0000,
                ..
            })
        ));
    }

    #[test]
    fn mem_fault_reported() {
        let src_bytes = {
            let img = assemble("li a0, 1\nld a0, 0(zero)\n", &AsmOptions::default()).unwrap();
            img.text
        };
        let mut mem = Memory::new(0x8000_0000, 4096);
        mem.write_bytes(0x8000_0000, &src_bytes).unwrap();
        let mut cpu = Cpu::new();
        cpu.pc = 0x8000_0000;
        cpu.step(&mut mem).unwrap();
        assert!(matches!(cpu.step(&mut mem), Err(ExecError::Mem { .. })));
    }

    #[test]
    fn fclass_values() {
        assert_eq!(classify(f64::NEG_INFINITY), 1 << 0);
        assert_eq!(classify(-1.5), 1 << 1);
        assert_eq!(classify(-0.0), 1 << 3);
        assert_eq!(classify(0.0), 1 << 4);
        assert_eq!(classify(2.5), 1 << 6);
        assert_eq!(classify(f64::INFINITY), 1 << 7);
        assert_eq!(classify(f64::NAN), 1 << 9);
    }

    #[test]
    fn cvt_saturation() {
        assert_eq!(cvt_to_int(f64::NAN, 32, true), i32::MAX as i64 as u64);
        assert_eq!(cvt_to_int(1e300, 32, true), i32::MAX as i64 as u64);
        assert_eq!(cvt_to_int(-1e300, 32, true), i32::MIN as i64 as u64);
        assert_eq!(cvt_to_int(-5.0, 32, false), 0);
        assert_eq!(cvt_to_int(3.7, 64, true), 3);
    }
}
