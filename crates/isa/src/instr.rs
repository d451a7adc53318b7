//! The structured instruction type.

use crate::Reg;

/// Branch comparison condition (RV64I `BRANCH` major opcode).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum BranchCond {
    Eq,
    Ne,
    Lt,
    Ge,
    Ltu,
    Geu,
}

impl BranchCond {
    /// The `funct3` field value for this condition.
    pub const fn funct3(self) -> u32 {
        match self {
            BranchCond::Eq => 0b000,
            BranchCond::Ne => 0b001,
            BranchCond::Lt => 0b100,
            BranchCond::Ge => 0b101,
            BranchCond::Ltu => 0b110,
            BranchCond::Geu => 0b111,
        }
    }

    /// Evaluates the condition on two 64-bit register values.
    #[inline]
    pub fn eval(self, a: u64, b: u64) -> bool {
        match self {
            BranchCond::Eq => a == b,
            BranchCond::Ne => a != b,
            BranchCond::Lt => (a as i64) < (b as i64),
            BranchCond::Ge => (a as i64) >= (b as i64),
            BranchCond::Ltu => a < b,
            BranchCond::Geu => a >= b,
        }
    }
}

/// Load access width/signedness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum LoadWidth {
    B,
    H,
    W,
    D,
    Bu,
    Hu,
    Wu,
}

impl LoadWidth {
    /// The `funct3` field value.
    pub const fn funct3(self) -> u32 {
        match self {
            LoadWidth::B => 0b000,
            LoadWidth::H => 0b001,
            LoadWidth::W => 0b010,
            LoadWidth::D => 0b011,
            LoadWidth::Bu => 0b100,
            LoadWidth::Hu => 0b101,
            LoadWidth::Wu => 0b110,
        }
    }

    /// Number of bytes accessed.
    pub const fn bytes(self) -> u64 {
        match self {
            LoadWidth::B | LoadWidth::Bu => 1,
            LoadWidth::H | LoadWidth::Hu => 2,
            LoadWidth::W | LoadWidth::Wu => 4,
            LoadWidth::D => 8,
        }
    }

    /// Extends a raw little-endian value of [`bytes`](Self::bytes) width to
    /// a 64-bit register value (sign- or zero-extended as appropriate).
    #[inline]
    pub fn extend(self, raw: u64) -> u64 {
        match self {
            LoadWidth::B => raw as u8 as i8 as i64 as u64,
            LoadWidth::H => raw as u16 as i16 as i64 as u64,
            LoadWidth::W => raw as u32 as i32 as i64 as u64,
            LoadWidth::D => raw,
            LoadWidth::Bu => raw as u8 as u64,
            LoadWidth::Hu => raw as u16 as u64,
            LoadWidth::Wu => raw as u32 as u64,
        }
    }
}

/// Store access width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum StoreWidth {
    B,
    H,
    W,
    D,
}

impl StoreWidth {
    /// The `funct3` field value.
    pub const fn funct3(self) -> u32 {
        match self {
            StoreWidth::B => 0b000,
            StoreWidth::H => 0b001,
            StoreWidth::W => 0b010,
            StoreWidth::D => 0b011,
        }
    }

    /// Number of bytes accessed.
    pub const fn bytes(self) -> u64 {
        match self {
            StoreWidth::B => 1,
            StoreWidth::H => 2,
            StoreWidth::W => 4,
            StoreWidth::D => 8,
        }
    }
}

/// Register-immediate ALU operation (`OP-IMM` / `OP-IMM-32`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum AluImmOp {
    Addi,
    Slti,
    Sltiu,
    Xori,
    Ori,
    Andi,
    Slli,
    Srli,
    Srai,
    Addiw,
    Slliw,
    Srliw,
    Sraiw,
}

impl AluImmOp {
    /// Evaluates the operation.
    #[inline]
    pub fn eval(self, rs1: u64, imm: i64) -> u64 {
        match self {
            AluImmOp::Addi => rs1.wrapping_add(imm as u64),
            AluImmOp::Slti => ((rs1 as i64) < imm) as u64,
            AluImmOp::Sltiu => (rs1 < imm as u64) as u64,
            AluImmOp::Xori => rs1 ^ imm as u64,
            AluImmOp::Ori => rs1 | imm as u64,
            AluImmOp::Andi => rs1 & imm as u64,
            AluImmOp::Slli => rs1 << (imm as u64 & 0x3f),
            AluImmOp::Srli => rs1 >> (imm as u64 & 0x3f),
            AluImmOp::Srai => ((rs1 as i64) >> (imm as u64 & 0x3f)) as u64,
            AluImmOp::Addiw => (rs1 as i32).wrapping_add(imm as i32) as i64 as u64,
            AluImmOp::Slliw => ((rs1 as i32) << (imm as u32 & 0x1f)) as i64 as u64,
            AluImmOp::Srliw => (((rs1 as u32) >> (imm as u32 & 0x1f)) as i32) as i64 as u64,
            AluImmOp::Sraiw => ((rs1 as i32) >> (imm as u32 & 0x1f)) as i64 as u64,
        }
    }
}

/// Register-register ALU operation (`OP` / `OP-32`), including the M
/// extension multiply/divide ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum AluOp {
    Add,
    Sub,
    Sll,
    Slt,
    Sltu,
    Xor,
    Srl,
    Sra,
    Or,
    And,
    Mul,
    Mulh,
    Mulhsu,
    Mulhu,
    Div,
    Divu,
    Rem,
    Remu,
    Addw,
    Subw,
    Sllw,
    Srlw,
    Sraw,
    Mulw,
    Divw,
    Divuw,
    Remw,
    Remuw,
}

impl AluOp {
    /// Whether this is an M-extension (multi-cycle) operation.
    pub const fn is_muldiv(self) -> bool {
        matches!(
            self,
            AluOp::Mul
                | AluOp::Mulh
                | AluOp::Mulhsu
                | AluOp::Mulhu
                | AluOp::Div
                | AluOp::Divu
                | AluOp::Rem
                | AluOp::Remu
                | AluOp::Mulw
                | AluOp::Divw
                | AluOp::Divuw
                | AluOp::Remw
                | AluOp::Remuw
        )
    }

    /// Evaluates the operation on two 64-bit register values.
    // The div/rem arms mirror the RISC-V spec's case tables verbatim;
    // rewriting them via checked_div would obscure that correspondence.
    #[allow(clippy::manual_checked_ops)]
    #[inline]
    pub fn eval(self, a: u64, b: u64) -> u64 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Sll => a << (b & 0x3f),
            AluOp::Slt => ((a as i64) < (b as i64)) as u64,
            AluOp::Sltu => (a < b) as u64,
            AluOp::Xor => a ^ b,
            AluOp::Srl => a >> (b & 0x3f),
            AluOp::Sra => ((a as i64) >> (b & 0x3f)) as u64,
            AluOp::Or => a | b,
            AluOp::And => a & b,
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Mulh => (((a as i64 as i128) * (b as i64 as i128)) >> 64) as u64,
            AluOp::Mulhsu => (((a as i64 as i128) * (b as u128 as i128)) >> 64) as u64,
            AluOp::Mulhu => (((a as u128) * (b as u128)) >> 64) as u64,
            AluOp::Div => {
                if b == 0 {
                    u64::MAX
                } else if a as i64 == i64::MIN && b as i64 == -1 {
                    a
                } else {
                    ((a as i64) / (b as i64)) as u64
                }
            }
            AluOp::Divu => {
                if b == 0 {
                    u64::MAX
                } else {
                    a / b
                }
            }
            AluOp::Rem => {
                if b == 0 {
                    a
                } else if a as i64 == i64::MIN && b as i64 == -1 {
                    0
                } else {
                    ((a as i64) % (b as i64)) as u64
                }
            }
            AluOp::Remu => {
                if b == 0 {
                    a
                } else {
                    a % b
                }
            }
            AluOp::Addw => (a as i32).wrapping_add(b as i32) as i64 as u64,
            AluOp::Subw => (a as i32).wrapping_sub(b as i32) as i64 as u64,
            AluOp::Sllw => ((a as i32) << (b as u32 & 0x1f)) as i64 as u64,
            AluOp::Srlw => (((a as u32) >> (b as u32 & 0x1f)) as i32) as i64 as u64,
            AluOp::Sraw => ((a as i32) >> (b as u32 & 0x1f)) as i64 as u64,
            AluOp::Mulw => (a as i32).wrapping_mul(b as i32) as i64 as u64,
            AluOp::Divw => {
                let (a, b) = (a as i32, b as i32);
                if b == 0 {
                    u64::MAX
                } else if a == i32::MIN && b == -1 {
                    a as i64 as u64
                } else {
                    (a / b) as i64 as u64
                }
            }
            AluOp::Divuw => {
                let (a, b) = (a as u32, b as u32);
                if b == 0 {
                    u64::MAX
                } else {
                    ((a / b) as i32) as i64 as u64
                }
            }
            AluOp::Remw => {
                let (a, b) = (a as i32, b as i32);
                if b == 0 {
                    a as i64 as u64
                } else if a == i32::MIN && b == -1 {
                    0
                } else {
                    (a % b) as i64 as u64
                }
            }
            AluOp::Remuw => {
                let (a, b) = (a as u32, b as u32);
                if b == 0 {
                    (a as i32) as i64 as u64
                } else {
                    ((a % b) as i32) as i64 as u64
                }
            }
        }
    }
}

/// `Zicsr` operation kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum CsrOp {
    Rw,
    Rs,
    Rc,
}

impl CsrOp {
    /// The `funct3` field value (register-source form).
    pub const fn funct3(self) -> u32 {
        match self {
            CsrOp::Rw => 0b001,
            CsrOp::Rs => 0b010,
            CsrOp::Rc => 0b011,
        }
    }

    /// Applies the operation: returns the new CSR value given the old value
    /// and the source operand.
    pub fn apply(self, old: u64, src: u64) -> u64 {
        match self {
            CsrOp::Rw => src,
            CsrOp::Rs => old | src,
            CsrOp::Rc => old & !src,
        }
    }
}

/// A decoded RV64IM + `Zicsr` + HWST128 instruction.
///
/// Every variant encodes losslessly to a 32-bit word via
/// [`encode`](Instr::encode) and back via [`decode`](crate::decode).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instr {
    // ---- RV64I ----
    /// `lui rd, imm` — load upper immediate (`imm` is the final 32-bit
    /// sign-extended value with low 12 bits zero).
    Lui {
        /// Destination register.
        rd: Reg,
        /// Sign-extended upper-immediate value (low 12 bits zero).
        imm: i64,
    },
    /// `auipc rd, imm` — add upper immediate to PC.
    Auipc {
        /// Destination register.
        rd: Reg,
        /// Sign-extended upper-immediate value (low 12 bits zero).
        imm: i64,
    },
    /// `jal rd, offset` — jump and link.
    Jal {
        /// Link register.
        rd: Reg,
        /// PC-relative byte offset (±1 MiB, even).
        offset: i64,
    },
    /// `jalr rd, offset(rs1)` — indirect jump and link.
    Jalr {
        /// Link register.
        rd: Reg,
        /// Base register.
        rs1: Reg,
        /// Byte offset.
        offset: i64,
    },
    /// Conditional branch.
    Branch {
        /// Comparison condition.
        cond: BranchCond,
        /// First operand.
        rs1: Reg,
        /// Second operand.
        rs2: Reg,
        /// PC-relative byte offset (±4 KiB, even).
        offset: i64,
    },
    /// Memory load. `checked` selects the HWST128 bounded form
    /// (`clb`/`clh`/… in custom-2) that performs the spatial check against
    /// `SRF[rs1]` in the execute stage.
    Load {
        /// Access width and sign extension.
        width: LoadWidth,
        /// Destination register.
        rd: Reg,
        /// Base address register.
        rs1: Reg,
        /// Byte offset.
        offset: i64,
        /// HWST128 bounded (spatially checked) form.
        checked: bool,
    },
    /// Memory store. `checked` selects the HWST128 bounded form
    /// (`csb`/`csh`/… in custom-3).
    Store {
        /// Access width.
        width: StoreWidth,
        /// Base address register.
        rs1: Reg,
        /// Source data register.
        rs2: Reg,
        /// Byte offset.
        offset: i64,
        /// HWST128 bounded (spatially checked) form.
        checked: bool,
    },
    /// Register-immediate ALU operation.
    AluImm {
        /// Operation.
        op: AluImmOp,
        /// Destination register.
        rd: Reg,
        /// Source register.
        rs1: Reg,
        /// Immediate (12-bit sign-extended; shift amount for shifts).
        imm: i64,
    },
    /// Register-register ALU operation (incl. M extension).
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination register.
        rd: Reg,
        /// First source.
        rs1: Reg,
        /// Second source.
        rs2: Reg,
    },
    /// `Zicsr` register-form CSR access.
    Csr {
        /// Operation kind.
        op: CsrOp,
        /// Destination register (receives old CSR value).
        rd: Reg,
        /// Source register.
        rs1: Reg,
        /// CSR address (12 bits).
        csr: u16,
    },
    /// `ecall` — environment call (proxy-kernel syscall).
    Ecall,
    /// `ebreak` — breakpoint.
    Ebreak,
    /// `fence` — memory ordering (no-op in this model).
    Fence,

    // ---- HWST128 extension ----
    /// `bndrs rd, rs1, rs2` — compress `base=rs1`, `bound=rs2` and bind the
    /// spatial (lower) half into `SRF[rd]` (paper Fig. 1-a2, §3.3).
    Bndrs {
        /// SRF entry to bind (same index as the pointer's GPR).
        rd: Reg,
        /// Base address.
        rs1: Reg,
        /// Bound address (one past the allocation).
        rs2: Reg,
    },
    /// `bndrt rd, rs1, rs2` — compress `key=rs1`, `lock=rs2` and bind the
    /// temporal (upper) half into `SRF[rd]`.
    Bndrt {
        /// SRF entry to bind.
        rd: Reg,
        /// Key value.
        rs1: Reg,
        /// Lock (address of the lock_location).
        rs2: Reg,
    },
    /// `sbdl rs2, offset(rs1)` — store the lower 64 bits of `SRF[rs2]` to
    /// the shadow address `SMAC(rs1 + offset)`.
    Sbdl {
        /// Pointer-container base address register.
        rs1: Reg,
        /// SRF source entry.
        rs2: Reg,
        /// Byte offset added to the container address.
        offset: i64,
    },
    /// `sbdu rs2, offset(rs1)` — store the upper 64 bits of `SRF[rs2]`.
    Sbdu {
        /// Pointer-container base address register.
        rs1: Reg,
        /// SRF source entry.
        rs2: Reg,
        /// Byte offset added to the container address.
        offset: i64,
    },
    /// `lbdls rd, offset(rs1)` — load the lower shadow word into `SRF[rd]`
    /// *without decompression* (benefits `memcpy`-style transfers, §3.3).
    Lbdls {
        /// SRF destination entry.
        rd: Reg,
        /// Pointer-container base address register.
        rs1: Reg,
        /// Byte offset.
        offset: i64,
    },
    /// `lbdus rd, offset(rs1)` — load the upper shadow word into `SRF[rd]`.
    Lbdus {
        /// SRF destination entry.
        rd: Reg,
        /// Pointer-container base address register.
        rs1: Reg,
        /// Byte offset.
        offset: i64,
    },
    /// `lbas rd, offset(rs1)` — load the *decompressed* base into GPR `rd`
    /// (used by wrapper-instrumented library code, Fig. 1-d7).
    Lbas {
        /// GPR destination.
        rd: Reg,
        /// Pointer-container base address register.
        rs1: Reg,
        /// Byte offset.
        offset: i64,
    },
    /// `lbnd rd, offset(rs1)` — load the decompressed bound into GPR `rd`.
    Lbnd {
        /// GPR destination.
        rd: Reg,
        /// Pointer-container base address register.
        rs1: Reg,
        /// Byte offset.
        offset: i64,
    },
    /// `lkey rd, offset(rs1)` — load the decompressed key into GPR `rd`.
    Lkey {
        /// GPR destination.
        rd: Reg,
        /// Pointer-container base address register.
        rs1: Reg,
        /// Byte offset.
        offset: i64,
    },
    /// `lloc rd, offset(rs1)` — load the decompressed lock into GPR `rd`.
    Lloc {
        /// GPR destination.
        rd: Reg,
        /// Pointer-container base address register.
        rs1: Reg,
        /// Byte offset.
        offset: i64,
    },
    /// `tchk rs1` — temporal check of `SRF[rs1]`: fetch the key stored at
    /// the lock_location (through the keybuffer when it hits) and compare
    /// with the pointer's key; trap on mismatch (paper §3.5).
    Tchk {
        /// Register whose SRF entry is checked.
        rs1: Reg,
    },
    /// `srfmv rd, rs1` — copy `SRF[rs1]` to `SRF[rd]` (explicit metadata
    /// move for spills/reloads).
    SrfMv {
        /// SRF destination entry.
        rd: Reg,
        /// SRF source entry.
        rs1: Reg,
    },
    /// `srfclr rd` — invalidate `SRF[rd]`.
    SrfClr {
        /// SRF entry to invalidate.
        rd: Reg,
    },
}

impl Instr {
    /// Whether the instruction belongs to the HWST128 extension.
    pub const fn is_hwst(self) -> bool {
        matches!(
            self,
            Instr::Bndrs { .. }
                | Instr::Bndrt { .. }
                | Instr::Sbdl { .. }
                | Instr::Sbdu { .. }
                | Instr::Lbdls { .. }
                | Instr::Lbdus { .. }
                | Instr::Lbas { .. }
                | Instr::Lbnd { .. }
                | Instr::Lkey { .. }
                | Instr::Lloc { .. }
                | Instr::Tchk { .. }
                | Instr::SrfMv { .. }
                | Instr::SrfClr { .. }
        ) || matches!(
            self,
            Instr::Load { checked: true, .. } | Instr::Store { checked: true, .. }
        )
    }

    /// The destination GPR written by this instruction, if any.
    ///
    /// HWST128 instructions that write only the SRF (e.g. [`Instr::Bndrs`])
    /// return `None`; the metadata-to-GPR loads (`lbas` family) return
    /// their destination.
    pub fn dest_gpr(self) -> Option<Reg> {
        let rd = match self {
            Instr::Lui { rd, .. }
            | Instr::Auipc { rd, .. }
            | Instr::Jal { rd, .. }
            | Instr::Jalr { rd, .. }
            | Instr::Load { rd, .. }
            | Instr::AluImm { rd, .. }
            | Instr::Alu { rd, .. }
            | Instr::Csr { rd, .. }
            | Instr::Lbas { rd, .. }
            | Instr::Lbnd { rd, .. }
            | Instr::Lkey { rd, .. }
            | Instr::Lloc { rd, .. } => rd,
            _ => return None,
        };
        (!rd.is_zero()).then_some(rd)
    }

    /// The GPRs read by this instruction, in operand order. `x0` is
    /// dropped (it always reads zero, so it never carries a
    /// dependence).
    pub fn src_gprs(self) -> [Option<Reg>; 2] {
        let (rs1, rs2) = match self {
            Instr::Jalr { rs1, .. }
            | Instr::Load { rs1, .. }
            | Instr::AluImm { rs1, .. }
            | Instr::Csr { rs1, .. }
            | Instr::Lbdls { rs1, .. }
            | Instr::Lbdus { rs1, .. }
            | Instr::Lbas { rs1, .. }
            | Instr::Lbnd { rs1, .. }
            | Instr::Lkey { rs1, .. }
            | Instr::Lloc { rs1, .. }
            | Instr::Tchk { rs1 } => (Some(rs1), None),
            Instr::Branch { rs1, rs2, .. }
            | Instr::Store { rs1, rs2, .. }
            | Instr::Alu { rs1, rs2, .. }
            | Instr::Bndrs { rs1, rs2, .. }
            | Instr::Bndrt { rs1, rs2, .. } => (Some(rs1), Some(rs2)),
            // The metadata stores read only the container pointer: the
            // SRF entry travels the metadata path, not the GPR path.
            Instr::Sbdl { rs1, .. } | Instr::Sbdu { rs1, .. } => (Some(rs1), None),
            _ => (None, None),
        };
        let live = |r: Option<Reg>| r.filter(|r| !r.is_zero());
        [live(rs1), live(rs2)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn branch_cond_eval() {
        assert!(BranchCond::Eq.eval(5, 5));
        assert!(!BranchCond::Ne.eval(5, 5));
        assert!(BranchCond::Lt.eval(-1i64 as u64, 0));
        assert!(!BranchCond::Ltu.eval(-1i64 as u64, 0));
        assert!(BranchCond::Geu.eval(-1i64 as u64, 0));
        assert!(BranchCond::Ge.eval(0, -1i64 as u64));
    }

    #[test]
    fn load_width_extend() {
        assert_eq!(LoadWidth::B.extend(0xff), u64::MAX);
        assert_eq!(LoadWidth::Bu.extend(0xff), 0xff);
        assert_eq!(LoadWidth::H.extend(0x8000), 0xffff_ffff_ffff_8000);
        assert_eq!(LoadWidth::Hu.extend(0x8000), 0x8000);
        assert_eq!(LoadWidth::W.extend(0x8000_0000), 0xffff_ffff_8000_0000);
        assert_eq!(LoadWidth::Wu.extend(0x8000_0000), 0x8000_0000);
        assert_eq!(LoadWidth::D.extend(u64::MAX), u64::MAX);
    }

    #[test]
    fn alu_div_by_zero_follows_spec() {
        assert_eq!(AluOp::Div.eval(10, 0), u64::MAX);
        assert_eq!(AluOp::Divu.eval(10, 0), u64::MAX);
        assert_eq!(AluOp::Rem.eval(10, 0), 10);
        assert_eq!(AluOp::Remu.eval(10, 0), 10);
        assert_eq!(AluOp::Divw.eval(10, 0), u64::MAX);
        assert_eq!(AluOp::Remw.eval(10, 0), 10);
    }

    #[test]
    fn alu_div_overflow_follows_spec() {
        let min = i64::MIN as u64;
        assert_eq!(AluOp::Div.eval(min, -1i64 as u64), min);
        assert_eq!(AluOp::Rem.eval(min, -1i64 as u64), 0);
        let minw = i32::MIN as i64 as u64;
        assert_eq!(AluOp::Divw.eval(minw, -1i64 as u64), minw);
        assert_eq!(AluOp::Remw.eval(minw, -1i64 as u64), 0);
    }

    #[test]
    fn alu_mulh_variants() {
        assert_eq!(AluOp::Mulhu.eval(u64::MAX, 2), 1);
        assert_eq!(AluOp::Mulh.eval(-1i64 as u64, 2), u64::MAX); // -1*2 >> 64 = -1
        assert_eq!(AluOp::Mulhsu.eval(-1i64 as u64, 1), u64::MAX);
    }

    #[test]
    fn word_ops_sign_extend() {
        assert_eq!(
            AluOp::Addw.eval(0x7fff_ffff, 1),
            0xffff_ffff_8000_0000,
            "addw must wrap and sign-extend"
        );
        assert_eq!(AluImmOp::Addiw.eval(0xffff_ffff, 1), 0);
    }

    #[test]
    fn csr_op_apply() {
        assert_eq!(CsrOp::Rw.apply(0xff, 0x0f), 0x0f);
        assert_eq!(CsrOp::Rs.apply(0xf0, 0x0f), 0xff);
        assert_eq!(CsrOp::Rc.apply(0xff, 0x0f), 0xf0);
    }

    #[test]
    fn hwst_classification() {
        assert!(Instr::Bndrs {
            rd: Reg::A0,
            rs1: Reg::A1,
            rs2: Reg::A2
        }
        .is_hwst());
        assert!(Instr::Tchk { rs1: Reg::A0 }.is_hwst());
        assert!(Instr::Load {
            width: LoadWidth::D,
            rd: Reg::A0,
            rs1: Reg::A1,
            offset: 0,
            checked: true
        }
        .is_hwst());
        assert!(!Instr::Load {
            width: LoadWidth::D,
            rd: Reg::A0,
            rs1: Reg::A1,
            offset: 0,
            checked: false
        }
        .is_hwst());
        assert!(!Instr::Ecall.is_hwst());
    }

    #[test]
    fn dest_and_src_registers() {
        let i = Instr::Alu {
            op: AluOp::Add,
            rd: Reg::A0,
            rs1: Reg::A1,
            rs2: Reg::A2,
        };
        assert_eq!(i.dest_gpr(), Some(Reg::A0));
        assert_eq!(i.src_gprs(), [Some(Reg::A1), Some(Reg::A2)]);

        // Writes to zero are discarded.
        let i = Instr::AluImm {
            op: AluImmOp::Addi,
            rd: Reg::Zero,
            rs1: Reg::A1,
            imm: 0,
        };
        assert_eq!(i.dest_gpr(), None);

        // bndrs writes only the SRF.
        let i = Instr::Bndrs {
            rd: Reg::A0,
            rs1: Reg::A1,
            rs2: Reg::A2,
        };
        assert_eq!(i.dest_gpr(), None);
        assert_eq!(i.src_gprs(), [Some(Reg::A1), Some(Reg::A2)]);

        // lbas writes a GPR.
        let i = Instr::Lbas {
            rd: Reg::A3,
            rs1: Reg::A1,
            offset: 0,
        };
        assert_eq!(i.dest_gpr(), Some(Reg::A3));

        // zero sources are filtered (never create hazards).
        let i = Instr::Alu {
            op: AluOp::Add,
            rd: Reg::A0,
            rs1: Reg::Zero,
            rs2: Reg::A2,
        };
        assert_eq!(i.src_gprs(), [None, Some(Reg::A2)]);
    }
}
