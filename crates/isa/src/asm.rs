//! A two-pass textual assembler for RV64IM + HWST128.
//!
//! Accepts the subset of GNU-style RISC-V assembly this ISA defines,
//! plus the HWST128 mnemonics, labels and a few pseudo-instructions:
//!
//! ```text
//!     li   a0, 64          # pseudo: materialise immediate
//!     mv   a1, a0          # pseudo: addi a1, a0, 0
//! loop:
//!     addi a0, a0, -1
//!     bnez a0, loop        # pseudo: bne a0, zero, loop
//!     bndrs a2, a3, a4     # HWST128: bind spatial metadata
//!     cld  t0, 8(a2)       # HWST128: bounded load
//!     tchk a2              # HWST128: temporal check
//!     ecall
//! ```
//!
//! Branch/jump targets may be labels or immediate byte offsets.

use crate::instr::{AluImmOp, AluOp, BranchCond, CsrOp, Instr, LoadWidth, StoreWidth};
use crate::{Program, Reg};
use std::collections::HashMap;
use std::fmt;

/// An assembly error with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for AsmError {}

/// Assembles source text into a [`Program`] loaded at `base`.
///
/// # Errors
///
/// Returns the first [`AsmError`] encountered (unknown mnemonic or
/// register, malformed operand, undefined label, out-of-range
/// immediate).
///
/// # Example
///
/// ```
/// use hwst_isa::asm::assemble;
///
/// let prog = assemble(0x1_0000, "
///     li   a0, 7
///     li   a7, 93
///     ecall
/// ").unwrap();
/// assert_eq!(prog.len(), 3);
/// ```
pub fn assemble(base: u64, source: &str) -> Result<Program, AsmError> {
    // Pass 1: collect labels by statement index (li expands to a known
    // length, so measure expansion).
    let mut labels: HashMap<String, u64> = HashMap::new();
    let mut word_index = 0u64;
    let statements: Vec<(usize, String)> = source
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, strip_comment(l).trim().to_string()))
        .filter(|(_, l)| !l.is_empty())
        .collect();
    for (line, stmt) in &statements {
        let mut rest = stmt.as_str();
        while let Some(idx) = rest.find(':') {
            let (label, tail) = rest.split_at(idx);
            let label = label.trim();
            if label.is_empty() || !is_ident(label) {
                return Err(err(*line, format!("bad label {label:?}")));
            }
            if labels
                .insert(label.to_string(), base + word_index * 4)
                .is_some()
            {
                return Err(err(*line, format!("duplicate label {label}")));
            }
            rest = tail[1..].trim_start();
        }
        if !rest.is_empty() {
            word_index += statement_len(*line, rest)? as u64;
        }
    }

    // Pass 2: encode.
    let mut out = Vec::new();
    for (line, stmt) in &statements {
        let mut rest = stmt.as_str();
        while let Some(idx) = rest.find(':') {
            rest = rest[idx + 1..].trim_start();
        }
        if rest.is_empty() {
            continue;
        }
        let pc = base + out.len() as u64 * 4;
        encode_statement(*line, rest, pc, &labels, &mut out)?;
    }
    Ok(Program::from_instrs(base, out))
}

fn err(line: usize, message: impl Into<String>) -> AsmError {
    AsmError {
        line,
        message: message.into(),
    }
}

fn strip_comment(l: &str) -> &str {
    match l.find(['#', ';']) {
        Some(i) => &l[..i],
        None => l,
    }
}

fn is_ident(s: &str) -> bool {
    let ident_char = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == '.';
    let mut chars = s.chars();
    matches!(chars.next(), Some(c) if ident_char(c) && !c.is_ascii_digit()) && chars.all(ident_char)
}

/// Number of machine instructions a statement expands to.
fn statement_len(line: usize, stmt: &str) -> Result<usize, AsmError> {
    let (mn, ops) = split_mnemonic(stmt);
    Ok(match mn {
        "li" => {
            let parts = operands(ops);
            let v = parse_imm(line, parts.get(1).copied().unwrap_or(""))?;
            li_len(v)
        }
        "call" | "tail" => 1,
        _ => 1,
    })
}

/// Number of instructions [`li`] expands `v` into.
fn li_len(v: i64) -> usize {
    let mut out = Vec::new();
    li(&mut out, Reg::Zero, v);
    out.len()
}

fn split_mnemonic(stmt: &str) -> (&str, &str) {
    match stmt.find(char::is_whitespace) {
        Some(i) => (&stmt[..i], stmt[i..].trim()),
        None => (stmt, ""),
    }
}

fn operands(s: &str) -> Vec<&str> {
    if s.trim().is_empty() {
        vec![]
    } else {
        s.split(',').map(str::trim).collect()
    }
}

fn parse_reg(line: usize, s: &str) -> Result<Reg, AsmError> {
    // ABI names first, then xN.
    for r in Reg::ALL {
        if r.name() == s {
            return Ok(r);
        }
    }
    if let Some(n) = s.strip_prefix('x') {
        if let Ok(i) = n.parse::<u8>() {
            if let Some(r) = Reg::from_index(i) {
                return Ok(r);
            }
        }
    }
    if s == "fp" {
        return Ok(Reg::S0);
    }
    Err(err(line, format!("unknown register {s:?}")))
}

fn parse_imm(line: usize, s: &str) -> Result<i64, AsmError> {
    let s = s.trim();
    // Decimal first: i64's own parser handles the full range including
    // i64::MIN, which a strip-minus-then-negate scheme cannot.
    if let Ok(v) = s.parse::<i64>() {
        return Ok(v);
    }
    let (neg, body) = match s.strip_prefix('-') {
        Some(b) => (true, b),
        None => (false, s),
    };
    let v = if let Some(h) = body.strip_prefix("0x") {
        u64::from_str_radix(h, 16).map(|v| v as i64)
    } else if let Some(b) = body.strip_prefix("0b") {
        u64::from_str_radix(b, 2).map(|v| v as i64)
    } else {
        return Err(err(line, format!("bad immediate {s:?}")));
    }
    .map_err(|_| err(line, format!("bad immediate {s:?}")))?;
    Ok(if neg { v.wrapping_neg() } else { v })
}

/// A CSR operand: a known symbolic name or a numeric address.
fn parse_csr(line: usize, s: &str) -> Result<u16, AsmError> {
    const NAMED: [(&str, u16); 6] = [
        ("cycle", crate::csr::CYCLE),
        ("instret", crate::csr::INSTRET),
        ("hwst.smoffset", crate::csr::HWST_SM_OFFSET),
        ("hwst.compcfg", crate::csr::HWST_COMP_CFG),
        ("hwst.lockbase", crate::csr::HWST_LOCK_BASE),
        ("hwst.status", crate::csr::HWST_STATUS),
    ];
    if let Some(&(_, addr)) = NAMED.iter().find(|(n, _)| *n == s.trim()) {
        return Ok(addr);
    }
    Ok(parse_imm(line, s)? as u16)
}

/// `offset(reg)` operand.
fn parse_mem(line: usize, s: &str) -> Result<(i64, Reg), AsmError> {
    let open = s
        .find('(')
        .ok_or_else(|| err(line, format!("expected offset(reg), got {s:?}")))?;
    let close = s
        .rfind(')')
        .ok_or_else(|| err(line, format!("unbalanced parens in {s:?}")))?;
    let off = if s[..open].trim().is_empty() {
        0
    } else {
        parse_imm(line, &s[..open])?
    };
    let reg = parse_reg(line, s[open + 1..close].trim())?;
    Ok((off, reg))
}

fn parse_target(
    line: usize,
    s: &str,
    pc: u64,
    labels: &HashMap<String, u64>,
) -> Result<i64, AsmError> {
    if let Some(&addr) = labels.get(s.trim()) {
        Ok(addr as i64 - pc as i64)
    } else {
        parse_imm(line, s)
    }
}

#[allow(clippy::too_many_lines)]
fn encode_statement(
    line: usize,
    stmt: &str,
    pc: u64,
    labels: &HashMap<String, u64>,
    out: &mut Vec<Instr>,
) -> Result<(), AsmError> {
    let (mn, rest) = split_mnemonic(stmt);
    let ops = operands(rest);
    let want = |n: usize| -> Result<(), AsmError> {
        if ops.len() == n {
            Ok(())
        } else {
            Err(err(
                line,
                format!("{mn} expects {n} operands, got {}", ops.len()),
            ))
        }
    };
    let reg = |i: usize| parse_reg(line, ops[i]);
    let imm = |i: usize| parse_imm(line, ops[i]);

    // R-type ALU table.
    let alu = |op: AluOp| -> Result<Instr, AsmError> {
        want(3)?;
        Ok(Instr::Alu {
            op,
            rd: reg(0)?,
            rs1: reg(1)?,
            rs2: reg(2)?,
        })
    };
    let alui = |op: AluImmOp| -> Result<Instr, AsmError> {
        want(3)?;
        Ok(Instr::AluImm {
            op,
            rd: reg(0)?,
            rs1: reg(1)?,
            imm: imm(2)?,
        })
    };
    let branch = |cond: BranchCond| -> Result<Instr, AsmError> {
        want(3)?;
        Ok(Instr::Branch {
            cond,
            rs1: reg(0)?,
            rs2: reg(1)?,
            offset: parse_target(line, ops[2], pc, labels)?,
        })
    };
    let load = |width: LoadWidth, checked: bool| -> Result<Instr, AsmError> {
        want(2)?;
        let (offset, rs1) = parse_mem(line, ops[1])?;
        Ok(Instr::Load {
            width,
            rd: reg(0)?,
            rs1,
            offset,
            checked,
        })
    };
    let store = |width: StoreWidth, checked: bool| -> Result<Instr, AsmError> {
        want(2)?;
        let (offset, rs1) = parse_mem(line, ops[1])?;
        Ok(Instr::Store {
            width,
            rs1,
            rs2: reg(0)?,
            offset,
            checked,
        })
    };
    let meta_i = |f: fn(Reg, Reg, i64) -> Instr| -> Result<Instr, AsmError> {
        want(2)?;
        let (offset, rs1) = parse_mem(line, ops[1])?;
        Ok(f(reg(0)?, rs1, offset))
    };

    let instr = match mn {
        // Pseudo-instructions.
        "li" => {
            want(2)?;
            let rd = reg(0)?;
            let v = imm(1)?;
            li(out, rd, v);
            return Ok(());
        }
        "mv" => {
            want(2)?;
            Instr::AluImm {
                op: AluImmOp::Addi,
                rd: reg(0)?,
                rs1: reg(1)?,
                imm: 0,
            }
        }
        "nop" => {
            want(0)?;
            Instr::AluImm {
                op: AluImmOp::Addi,
                rd: Reg::Zero,
                rs1: Reg::Zero,
                imm: 0,
            }
        }
        "not" => {
            want(2)?;
            Instr::AluImm {
                op: AluImmOp::Xori,
                rd: reg(0)?,
                rs1: reg(1)?,
                imm: -1,
            }
        }
        "neg" => {
            want(2)?;
            Instr::Alu {
                op: AluOp::Sub,
                rd: reg(0)?,
                rs1: Reg::Zero,
                rs2: reg(1)?,
            }
        }
        "beqz" => {
            want(2)?;
            Instr::Branch {
                cond: BranchCond::Eq,
                rs1: reg(0)?,
                rs2: Reg::Zero,
                offset: parse_target(line, ops[1], pc, labels)?,
            }
        }
        "bnez" => {
            want(2)?;
            Instr::Branch {
                cond: BranchCond::Ne,
                rs1: reg(0)?,
                rs2: Reg::Zero,
                offset: parse_target(line, ops[1], pc, labels)?,
            }
        }
        "j" => {
            want(1)?;
            Instr::Jal {
                rd: Reg::Zero,
                offset: parse_target(line, ops[0], pc, labels)?,
            }
        }
        "call" => {
            want(1)?;
            Instr::Jal {
                rd: Reg::Ra,
                offset: parse_target(line, ops[0], pc, labels)?,
            }
        }
        "ret" => {
            want(0)?;
            Instr::Jalr {
                rd: Reg::Zero,
                rs1: Reg::Ra,
                offset: 0,
            }
        }

        // Base ISA.
        "lui" => {
            want(2)?;
            Instr::Lui {
                rd: reg(0)?,
                imm: imm(1)? << 12,
            }
        }
        "auipc" => {
            want(2)?;
            Instr::Auipc {
                rd: reg(0)?,
                imm: imm(1)? << 12,
            }
        }
        "jal" => match ops.len() {
            1 => Instr::Jal {
                rd: Reg::Ra,
                offset: parse_target(line, ops[0], pc, labels)?,
            },
            2 => Instr::Jal {
                rd: reg(0)?,
                offset: parse_target(line, ops[1], pc, labels)?,
            },
            _ => return Err(err(line, "jal expects 1 or 2 operands")),
        },
        "jalr" => {
            want(2)?;
            let (offset, rs1) = parse_mem(line, ops[1])?;
            Instr::Jalr {
                rd: reg(0)?,
                rs1,
                offset,
            }
        }
        "beq" => branch(BranchCond::Eq)?,
        "bne" => branch(BranchCond::Ne)?,
        "blt" => branch(BranchCond::Lt)?,
        "bge" => branch(BranchCond::Ge)?,
        "bltu" => branch(BranchCond::Ltu)?,
        "bgeu" => branch(BranchCond::Geu)?,
        "lb" => load(LoadWidth::B, false)?,
        "lh" => load(LoadWidth::H, false)?,
        "lw" => load(LoadWidth::W, false)?,
        "ld" => load(LoadWidth::D, false)?,
        "lbu" => load(LoadWidth::Bu, false)?,
        "lhu" => load(LoadWidth::Hu, false)?,
        "lwu" => load(LoadWidth::Wu, false)?,
        "sb" => store(StoreWidth::B, false)?,
        "sh" => store(StoreWidth::H, false)?,
        "sw" => store(StoreWidth::W, false)?,
        "sd" => store(StoreWidth::D, false)?,
        "addi" => alui(AluImmOp::Addi)?,
        "slti" => alui(AluImmOp::Slti)?,
        "sltiu" => alui(AluImmOp::Sltiu)?,
        "xori" => alui(AluImmOp::Xori)?,
        "ori" => alui(AluImmOp::Ori)?,
        "andi" => alui(AluImmOp::Andi)?,
        "slli" => alui(AluImmOp::Slli)?,
        "srli" => alui(AluImmOp::Srli)?,
        "srai" => alui(AluImmOp::Srai)?,
        "addiw" => alui(AluImmOp::Addiw)?,
        "slliw" => alui(AluImmOp::Slliw)?,
        "srliw" => alui(AluImmOp::Srliw)?,
        "sraiw" => alui(AluImmOp::Sraiw)?,
        "add" => alu(AluOp::Add)?,
        "sub" => alu(AluOp::Sub)?,
        "sll" => alu(AluOp::Sll)?,
        "slt" => alu(AluOp::Slt)?,
        "sltu" => alu(AluOp::Sltu)?,
        "xor" => alu(AluOp::Xor)?,
        "srl" => alu(AluOp::Srl)?,
        "sra" => alu(AluOp::Sra)?,
        "or" => alu(AluOp::Or)?,
        "and" => alu(AluOp::And)?,
        "mul" => alu(AluOp::Mul)?,
        "mulh" => alu(AluOp::Mulh)?,
        "mulhsu" => alu(AluOp::Mulhsu)?,
        "mulhu" => alu(AluOp::Mulhu)?,
        "div" => alu(AluOp::Div)?,
        "divu" => alu(AluOp::Divu)?,
        "rem" => alu(AluOp::Rem)?,
        "remu" => alu(AluOp::Remu)?,
        "addw" => alu(AluOp::Addw)?,
        "subw" => alu(AluOp::Subw)?,
        "sllw" => alu(AluOp::Sllw)?,
        "srlw" => alu(AluOp::Srlw)?,
        "sraw" => alu(AluOp::Sraw)?,
        "mulw" => alu(AluOp::Mulw)?,
        "divw" => alu(AluOp::Divw)?,
        "divuw" => alu(AluOp::Divuw)?,
        "remw" => alu(AluOp::Remw)?,
        "remuw" => alu(AluOp::Remuw)?,
        "csrrw" | "csrrs" | "csrrc" => {
            want(3)?;
            let op = match mn {
                "csrrw" => CsrOp::Rw,
                "csrrs" => CsrOp::Rs,
                _ => CsrOp::Rc,
            };
            let csr = parse_csr(line, ops[1])?;
            Instr::Csr {
                op,
                rd: reg(0)?,
                rs1: reg(2)?,
                csr,
            }
        }
        "ecall" => {
            want(0)?;
            Instr::Ecall
        }
        "ebreak" => {
            want(0)?;
            Instr::Ebreak
        }
        "fence" => Instr::Fence,

        // HWST128 extension.
        "bndrs" => alu_hwst(line, &ops, |rd, rs1, rs2| Instr::Bndrs { rd, rs1, rs2 })?,
        "bndrt" => alu_hwst(line, &ops, |rd, rs1, rs2| Instr::Bndrt { rd, rs1, rs2 })?,
        "sbdl" => {
            want(2)?;
            let (offset, rs1) = parse_mem(line, ops[1])?;
            Instr::Sbdl {
                rs1,
                rs2: reg(0)?,
                offset,
            }
        }
        "sbdu" => {
            want(2)?;
            let (offset, rs1) = parse_mem(line, ops[1])?;
            Instr::Sbdu {
                rs1,
                rs2: reg(0)?,
                offset,
            }
        }
        "lbdls" => meta_i(|rd, rs1, offset| Instr::Lbdls { rd, rs1, offset })?,
        "lbdus" => meta_i(|rd, rs1, offset| Instr::Lbdus { rd, rs1, offset })?,
        "lbas" => meta_i(|rd, rs1, offset| Instr::Lbas { rd, rs1, offset })?,
        "lbnd" => meta_i(|rd, rs1, offset| Instr::Lbnd { rd, rs1, offset })?,
        "lkey" => meta_i(|rd, rs1, offset| Instr::Lkey { rd, rs1, offset })?,
        "lloc" => meta_i(|rd, rs1, offset| Instr::Lloc { rd, rs1, offset })?,
        "tchk" => {
            want(1)?;
            Instr::Tchk { rs1: reg(0)? }
        }
        "srfmv" => {
            want(2)?;
            Instr::SrfMv {
                rd: reg(0)?,
                rs1: reg(1)?,
            }
        }
        "srfclr" => {
            want(1)?;
            Instr::SrfClr { rd: reg(0)? }
        }
        "clb" => load(LoadWidth::B, true)?,
        "clh" => load(LoadWidth::H, true)?,
        "clw" => load(LoadWidth::W, true)?,
        "cld" => load(LoadWidth::D, true)?,
        "clbu" => load(LoadWidth::Bu, true)?,
        "clhu" => load(LoadWidth::Hu, true)?,
        "clwu" => load(LoadWidth::Wu, true)?,
        "csb" => store(StoreWidth::B, true)?,
        "csh" => store(StoreWidth::H, true)?,
        "csw" => store(StoreWidth::W, true)?,
        "csd" => store(StoreWidth::D, true)?,

        other => return Err(err(line, format!("unknown mnemonic {other:?}"))),
    };
    out.push(instr);
    Ok(())
}

fn alu_hwst(line: usize, ops: &[&str], f: fn(Reg, Reg, Reg) -> Instr) -> Result<Instr, AsmError> {
    if ops.len() != 3 {
        return Err(err(line, "expected 3 register operands"));
    }
    Ok(f(
        parse_reg(line, ops[0])?,
        parse_reg(line, ops[1])?,
        parse_reg(line, ops[2])?,
    ))
}

/// Appends the `li rd, v` expansion: materialises any 64-bit immediate
/// in `rd` with `addi`, `lui`+`addiw`, or a recursive `slli`/`addi`
/// chain. The assembler's `li` pseudo-instruction and the compiler's
/// lowering both emit it.
pub fn li(out: &mut Vec<Instr>, rd: Reg, v: i64) {
    if (-2048..=2047).contains(&v) {
        out.push(Instr::AluImm {
            op: AluImmOp::Addi,
            rd,
            rs1: Reg::Zero,
            imm: v,
        });
    } else if v >= i32::MIN as i64 && v <= i32::MAX as i64 {
        let lo = (v << 52) >> 52; // sign-extended low 12
        let hi = v - lo;
        // hi is a multiple of 4096 that fits the U-format.
        out.push(Instr::Lui {
            rd,
            imm: (hi as i32) as i64,
        });
        if lo != 0 {
            out.push(Instr::AluImm {
                op: AluImmOp::Addiw,
                rd,
                rs1: rd,
                imm: lo,
            });
        }
    } else {
        let lo = (v << 52) >> 52;
        let rest = v.wrapping_sub(lo) >> 12;
        li(out, rd, rest);
        out.push(Instr::AluImm {
            op: AluImmOp::Slli,
            rd,
            rs1: rd,
            imm: 12,
        });
        if lo != 0 {
            out.push(Instr::AluImm {
                op: AluImmOp::Addi,
                rd,
                rs1: rd,
                imm: lo,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assembles_and_round_trips_through_disasm() {
        let src = "
            addi a0, zero, 5
            add  a1, a0, a0
            ld   t0, 8(sp)
            sd   t0, 16(sp)
            bndrs a2, a0, a1
            bndrt a2, t0, t1
            sbdl a2, 0(s1)
            lbdus a2, 8(s1)
            cld  t2, 0(a2)
            csw  t2, 4(a2)
            tchk a2
            srfclr a2
            ecall
        ";
        let p = assemble(0, src).unwrap();
        assert_eq!(p.len(), 13);
        // Every instruction re-assembles from its own disassembly.
        for i in p.instrs() {
            let again = assemble(0, &i.to_string()).unwrap();
            assert_eq!(again.instrs()[0], *i, "round trip of {i}");
        }
    }

    #[test]
    fn labels_resolve_forward_and_backward() {
        let src = "
        start:
            addi a0, zero, 3
        loop:
            addi a0, a0, -1
            bnez a0, loop
            j    done
            nop
        done:
            ecall
        ";
        let p = assemble(0x100, src).unwrap();
        // bnez at index 2 targets index 1: offset -4.
        match p.instrs()[2] {
            Instr::Branch { offset, .. } => assert_eq!(offset, -4),
            ref other => panic!("expected branch, got {other}"),
        }
        // j at index 3 targets index 5: offset +8.
        match p.instrs()[3] {
            Instr::Jal { offset, .. } => assert_eq!(offset, 8),
            ref other => panic!("expected jal, got {other}"),
        }
    }

    #[test]
    fn li_expansion_matches_pass1_length() {
        for v in [0i64, 1, -2048, 4096, 0x7fff_f000, 0x1_0000_0000, i64::MIN] {
            let src = format!("li t0, {v}\necall");
            let p = assemble(0, &src).unwrap();
            // The label-free program still checks statement_len coherence:
            // ecall must be the last instruction.
            assert_eq!(*p.instrs().last().unwrap(), Instr::Ecall);
            assert_eq!(p.len(), li_len(v) + 1);
        }
    }

    #[test]
    fn li_label_interaction() {
        // A label *after* a multi-instruction li must account for the
        // expansion.
        let src = "
            li t0, 0x12345678
            j target
            nop
        target:
            ecall
        ";
        let p = assemble(0, src).unwrap();
        let jal_idx = p
            .instrs()
            .iter()
            .position(|i| matches!(i, Instr::Jal { .. }))
            .unwrap();
        match p.instrs()[jal_idx] {
            Instr::Jal { offset, .. } => assert_eq!(offset, 8),
            _ => unreachable!(),
        }
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = assemble(0, "nop\nbogus a0, a1").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("bogus"));

        let e = assemble(0, "addi a0, zero").unwrap_err();
        assert!(e.message.contains("expects 3 operands"));

        let e = assemble(0, "ld a0, 8[sp]").unwrap_err();
        assert!(e.message.contains("offset(reg)"));

        let e = assemble(0, "j nowhere").unwrap_err();
        assert!(e.message.contains("bad immediate"));

        let e = assemble(0, "x: nop\nx: nop").unwrap_err();
        assert!(e.message.contains("duplicate"));
    }

    #[test]
    fn csr_names_are_accepted() {
        let p = assemble(0, "csrrw zero, hwst.smoffset, a0").unwrap();
        match p.instrs()[0] {
            Instr::Csr { csr, .. } => {
                assert_eq!(csr, crate::csr::HWST_SM_OFFSET)
            }
            ref other => panic!("{other}"),
        }
        let p = assemble(0, "csrrs a1, 0xc00, zero").unwrap();
        match p.instrs()[0] {
            Instr::Csr { csr, .. } => assert_eq!(csr, 0xc00),
            ref other => panic!("{other}"),
        }
    }

    #[test]
    fn registers_by_abi_and_index() {
        let p = assemble(0, "add x10, x11, fp").unwrap();
        assert_eq!(
            p.instrs()[0],
            Instr::Alu {
                op: AluOp::Add,
                rd: Reg::A0,
                rs1: Reg::A1,
                rs2: Reg::S0
            }
        );
    }

    #[test]
    fn comments_and_blank_lines() {
        let p = assemble(0, "# header\n\n  nop  # trailing\n; asm style\necall").unwrap();
        assert_eq!(p.len(), 2);
    }
}
