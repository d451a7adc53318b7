//! Decoded basic blocks: pre-resolved operations, superinstruction
//! fusion and the program-stamped block cache.

use hwst_isa::{AluImmOp, AluOp, BranchCond, Instr, LoadWidth, Program, Reg, StoreWidth};
use hwst_pipeline::{RetireInfo, StaticCharges};
use hwst_sim::{Machine, Trap};

/// Blocks are capped so a straight-line megablock cannot make one
/// decode arbitrarily expensive; the tail simply continues in the next
/// block.
pub(crate) const MAX_BLOCK_OPS: usize = 64;

/// Which decompressed field a shadow-field load (`lbas`/`lbnd`/`lkey`/
/// `lloc`) extracts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Field {
    Base,
    Bound,
    Key,
    Lock,
}

/// One pre-resolved single-component operation that executes without
/// [`Machine::step`]. Immediates are already widened to the `u64` the
/// execute stage adds, and PC-relative values (branch/jump targets,
/// `auipc` results, link addresses) are computed at decode time —
/// legal because a block is keyed by its entry PC and every
/// component's PC is fixed within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Simple {
    Lui {
        rd: Reg,
        imm: u64,
    },
    Auipc {
        rd: Reg,
        val: u64,
    },
    Jal {
        rd: Reg,
        link: u64,
        target: u64,
    },
    Jalr {
        rd: Reg,
        rs1: Reg,
        offset: u64,
        link: u64,
    },
    Branch {
        cond: BranchCond,
        rs1: Reg,
        rs2: Reg,
        target: u64,
    },
    Load {
        width: LoadWidth,
        rd: Reg,
        rs1: Reg,
        offset: u64,
        checked: bool,
    },
    Store {
        width: StoreWidth,
        rs1: Reg,
        rs2: Reg,
        offset: u64,
        checked: bool,
    },
    AluImm {
        op: AluImmOp,
        rd: Reg,
        rs1: Reg,
        imm: i64,
    },
    Alu {
        op: AluOp,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    Fence,
    Bndrs {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    Bndrt {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    SrfMv {
        rd: Reg,
        rs1: Reg,
    },
    SrfClr {
        rd: Reg,
    },
    Sbdl {
        rs1: Reg,
        rs2: Reg,
        offset: u64,
    },
    Sbdu {
        rs1: Reg,
        rs2: Reg,
        offset: u64,
    },
    Lbdls {
        rd: Reg,
        rs1: Reg,
        offset: u64,
    },
    Lbdus {
        rd: Reg,
        rs1: Reg,
        offset: u64,
    },
    ShadowField {
        field: Field,
        rd: Reg,
        rs1: Reg,
        offset: u64,
    },
    Tchk {
        rs1: Reg,
    },
}

/// What the run loop dispatches on: a [`Simple`] op, an environment
/// fallback or a fused superinstruction. Nesting the simple ops lets
/// the run loop match each op once: one tag test sends a simple op
/// straight to its arm in `exec_one`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OpKind {
    Simple(Simple),
    /// `ecall`/`csr*`/`ebreak`: environment interactions execute through
    /// [`Machine::step`] itself, so syscall, CSR-reconfiguration and
    /// breakpoint semantics can never drift from the cycle engine.
    Fallback,
    /// `sbdl rs2, off(rs1)` immediately followed by
    /// `sbdu rs2, off(rs1)` (the compiler's metadata-store idiom): one
    /// container address computation and one SRF read serve both
    /// halves.
    FusedSbd {
        rs1: Reg,
        rs2: Reg,
        offset: u64,
    },
    /// `lbdls rd, off(rs1)` + `lbdus rd, off(rs1)` (the metadata-load
    /// idiom): one container address computation serves both halves.
    FusedLbd {
        rd: Reg,
        rs1: Reg,
        offset: u64,
    },
    /// `lbdls mrd, moffset(mrs1)` + a checked load through pointer
    /// `mrd` (the bounds-check idiom: load the spatial metadata, then
    /// the checked access it guards).
    FusedLbdlsLoad {
        mrd: Reg,
        mrs1: Reg,
        moffset: u64,
        width: LoadWidth,
        rd: Reg,
        offset: u64,
    },
}

/// A decoded operation: one or two instruction components plus their
/// retire facts.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Op {
    pub(crate) kind: OpKind,
    /// Component count (2 for fused superinstructions).
    pub(crate) n: u8,
    pub(crate) info: [RetireInfo; 2],
}

impl Op {
    fn single(kind: OpKind, instr: Instr) -> Self {
        let info = RetireInfo::of(&instr);
        Op {
            kind,
            n: 1,
            info: [info, info],
        }
    }

    fn fused(kind: OpKind, first: Instr, second: Instr) -> Self {
        Op {
            kind,
            n: 2,
            info: [RetireInfo::of(&first), RetireInfo::of(&second)],
        }
    }

    /// Whether this op ends its block (control transfer).
    fn ends_block(&self) -> bool {
        matches!(
            self.kind,
            OpKind::Simple(Simple::Jal { .. } | Simple::Jalr { .. } | Simple::Branch { .. })
        )
    }
}

/// A decoded basic block: the ops from the entry PC up to (and
/// including) the first control transfer, the end of the program, or
/// the size cap — plus the decode-time prefix sums the engine's
/// batched retirement consumes.
#[derive(Debug)]
pub(crate) struct Block {
    pub(crate) ops: Vec<Op>,
    /// Total instruction components (fused ops count 2).
    pub(crate) ncomps: u32,
    /// `prefix[k]`: summed static charges of the first `k` components.
    /// [`OpKind::Fallback`] components contribute nothing — they retire
    /// inside [`Machine::step`] itself. Length `ncomps + 1`.
    pub(crate) prefix: Vec<StaticCharges>,
    /// `load_dest[k]`: the load-use interlock arming
    /// (`Pipeline::prev_load_dest`) after `k` components have retired —
    /// what per-op retirement would have left behind. Length
    /// `ncomps + 1`; index 0 is never consulted (a flush at a seam with
    /// zero components executed leaves live state untouched).
    pub(crate) load_dest: Vec<Option<Reg>>,
}

/// Decodes the block starting at `entry` (`None` when `entry` does not
/// fetch — below base, misaligned or past the end).
fn decode_block(program: &Program, entry: u64) -> Option<Block> {
    program.fetch(entry)?;
    let mut ops = Vec::with_capacity(8);
    let mut pc = entry;
    while ops.len() < MAX_BLOCK_OPS {
        let Some(&instr) = program.fetch(pc) else {
            break;
        };
        let next = program.fetch(pc.wrapping_add(4)).copied();
        let op = decode_op(pc, instr, next);
        pc = pc.wrapping_add(4 * op.n as u64);
        let ends = op.ends_block();
        ops.push(op);
        if ends {
            break;
        }
    }

    // Static-charge prefix sums over the components. A load-use pair is
    // static when both halves are ordinary components of this block; it
    // is charged with the *consuming* component, so `prefix[k]` holds
    // exactly what retiring the first k components would have charged.
    // Pairs straddling a seam (block entry, or the component after an
    // environment instruction) stay dynamic — the previous load there
    // is not known at decode time.
    let ncomps: u32 = ops.iter().map(|op| op.n as u32).sum();
    let mut prefix = Vec::with_capacity(ncomps as usize + 1);
    let mut load_dest = Vec::with_capacity(ncomps as usize + 1);
    let mut acc = StaticCharges::default();
    prefix.push(acc);
    load_dest.push(None);
    let mut prev_dest: Option<Reg> = None;
    for op in &ops {
        if matches!(op.kind, OpKind::Fallback) {
            // Retires inside Machine::step: no static contribution, and
            // an environment instruction never arms the interlock.
            prefix.push(acc);
            load_dest.push(None);
            prev_dest = None;
            continue;
        }
        for info in &op.info[..op.n as usize] {
            if let Some(d) = prev_dest {
                if info.reads(d) {
                    acc.load_use += 1;
                }
            }
            acc.add_component(info);
            prefix.push(acc);
            load_dest.push(info.load_dest());
            prev_dest = info.load_dest();
        }
    }
    Some(Block {
        ops,
        ncomps,
        prefix,
        load_dest,
    })
}

/// Decodes one op at `pc`, fusing with `next` when a superinstruction
/// pattern matches. A jump *into* the second half of a fused pair is
/// handled naturally: blocks are keyed by entry PC, so that entry
/// decodes its own (unfused) block.
fn decode_op(pc: u64, instr: Instr, next: Option<Instr>) -> Op {
    match (instr, next) {
        (
            Instr::Sbdl { rs1, rs2, offset },
            Some(
                second @ Instr::Sbdu {
                    rs1: r1,
                    rs2: r2,
                    offset: o,
                },
            ),
        ) if r1 == rs1 && r2 == rs2 && o == offset => {
            return Op::fused(
                OpKind::FusedSbd {
                    rs1,
                    rs2,
                    offset: offset as u64,
                },
                instr,
                second,
            );
        }
        (
            Instr::Lbdls { rd, rs1, offset },
            Some(
                second @ Instr::Lbdus {
                    rd: r,
                    rs1: r1,
                    offset: o,
                },
            ),
        ) if r == rd && r1 == rs1 && o == offset => {
            return Op::fused(
                OpKind::FusedLbd {
                    rd,
                    rs1,
                    offset: offset as u64,
                },
                instr,
                second,
            );
        }
        (
            Instr::Lbdls { rd, rs1, offset },
            Some(
                second @ Instr::Load {
                    width,
                    rd: lrd,
                    rs1: lrs1,
                    offset: loff,
                    checked: true,
                },
            ),
        ) if lrs1 == rd => {
            return Op::fused(
                OpKind::FusedLbdlsLoad {
                    mrd: rd,
                    mrs1: rs1,
                    moffset: offset as u64,
                    width,
                    rd: lrd,
                    offset: loff as u64,
                },
                instr,
                second,
            );
        }
        _ => {}
    }
    let kind = match instr {
        Instr::Lui { rd, imm } => Simple::Lui {
            rd,
            imm: imm as u64,
        },
        Instr::Auipc { rd, imm } => Simple::Auipc {
            rd,
            val: pc.wrapping_add(imm as u64),
        },
        Instr::Jal { rd, offset } => Simple::Jal {
            rd,
            link: pc.wrapping_add(4),
            target: pc.wrapping_add(offset as u64),
        },
        Instr::Jalr { rd, rs1, offset } => Simple::Jalr {
            rd,
            rs1,
            offset: offset as u64,
            link: pc.wrapping_add(4),
        },
        Instr::Branch {
            cond,
            rs1,
            rs2,
            offset,
        } => Simple::Branch {
            cond,
            rs1,
            rs2,
            target: pc.wrapping_add(offset as u64),
        },
        Instr::Load {
            width,
            rd,
            rs1,
            offset,
            checked,
        } => Simple::Load {
            width,
            rd,
            rs1,
            offset: offset as u64,
            checked,
        },
        Instr::Store {
            width,
            rs1,
            rs2,
            offset,
            checked,
        } => Simple::Store {
            width,
            rs1,
            rs2,
            offset: offset as u64,
            checked,
        },
        Instr::AluImm { op, rd, rs1, imm } => Simple::AluImm { op, rd, rs1, imm },
        Instr::Alu { op, rd, rs1, rs2 } => Simple::Alu { op, rd, rs1, rs2 },
        Instr::Csr { .. } | Instr::Ecall | Instr::Ebreak => {
            return Op::single(OpKind::Fallback, instr)
        }
        Instr::Fence => Simple::Fence,
        Instr::Bndrs { rd, rs1, rs2 } => Simple::Bndrs { rd, rs1, rs2 },
        Instr::Bndrt { rd, rs1, rs2 } => Simple::Bndrt { rd, rs1, rs2 },
        Instr::SrfMv { rd, rs1 } => Simple::SrfMv { rd, rs1 },
        Instr::SrfClr { rd } => Simple::SrfClr { rd },
        Instr::Sbdl { rs1, rs2, offset } => Simple::Sbdl {
            rs1,
            rs2,
            offset: offset as u64,
        },
        Instr::Sbdu { rs1, rs2, offset } => Simple::Sbdu {
            rs1,
            rs2,
            offset: offset as u64,
        },
        Instr::Lbdls { rd, rs1, offset } => Simple::Lbdls {
            rd,
            rs1,
            offset: offset as u64,
        },
        Instr::Lbdus { rd, rs1, offset } => Simple::Lbdus {
            rd,
            rs1,
            offset: offset as u64,
        },
        Instr::Lbas { rd, rs1, offset } => Simple::ShadowField {
            field: Field::Base,
            rd,
            rs1,
            offset: offset as u64,
        },
        Instr::Lbnd { rd, rs1, offset } => Simple::ShadowField {
            field: Field::Bound,
            rd,
            rs1,
            offset: offset as u64,
        },
        Instr::Lkey { rd, rs1, offset } => Simple::ShadowField {
            field: Field::Key,
            rd,
            rs1,
            offset: offset as u64,
        },
        Instr::Lloc { rd, rs1, offset } => Simple::ShadowField {
            field: Field::Lock,
            rd,
            rs1,
            offset: offset as u64,
        },
        Instr::Tchk { rs1 } => Simple::Tchk { rs1 },
    };
    Op::single(OpKind::Simple(kind), instr)
}

/// A cache of decoded blocks keyed by entry PC.
///
/// Storage is a slot vector direct-indexed by `(pc - base) / 4`: block
/// transitions are the hottest operation in the fast tier (every loop
/// iteration crosses one), so the lookup is a bounds check and an array
/// load — no hashing, no refcount traffic.
///
/// The cache is stamped with the [`Machine::program_id`] it decoded
/// its blocks from and flushes itself whenever the machine it runs
/// against carries a different id. Ids are unique per program load in
/// the process, so a cache stays warm across runs of one machine and
/// its clones, and any other machine — every [`Machine::new`] — costs
/// a flush, never stale execution.
#[derive(Debug, Default)]
pub struct BlockCache {
    slots: Vec<Option<Box<Block>>>,
    base: u64,
    program_id: Option<u64>,
    decodes: u64,
    hits: u64,
}

impl BlockCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Decoded blocks currently resident.
    pub fn len(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Whether the cache holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.slots.iter().all(|s| s.is_none())
    }

    /// Blocks decoded so far (cache misses).
    pub fn decodes(&self) -> u64 {
        self.decodes
    }

    /// Block lookups served from cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Flushes the cache if `m`'s program id differs from the one the
    /// resident blocks were decoded under. Called at the start of every
    /// fast run.
    pub(crate) fn revalidate(&mut self, m: &Machine) {
        if self.program_id != Some(m.program_id()) {
            self.slots.clear();
            self.slots.resize_with(m.program().len(), || None);
            self.base = m.program().base();
            self.program_id = Some(m.program_id());
        }
    }

    /// The block entered at `pc`, decoding it on a miss.
    ///
    /// # Errors
    ///
    /// [`Trap::BadFetch`] when `pc` does not fetch — the same trap (and
    /// the same timing point: only raised with fuel available) as the
    /// cycle engine's fetch. Below-base and misaligned PCs fail the
    /// index computation, out-of-range PCs fail the bounds check.
    pub(crate) fn block_for<'c>(&'c mut self, m: &Machine, pc: u64) -> Result<&'c Block, Trap> {
        let off = pc.wrapping_sub(self.base);
        let slot = (off >> 2) as usize;
        if off & 3 != 0 || slot >= self.slots.len() {
            return Err(Trap::BadFetch { pc });
        }
        if self.slots[slot].is_some() {
            self.hits += 1;
        } else {
            let block = decode_block(m.program(), pc).ok_or(Trap::BadFetch { pc })?;
            self.decodes += 1;
            self.slots[slot] = Some(Box::new(block));
        }
        match self.slots[slot].as_deref() {
            Some(b) => Ok(b),
            None => Err(Trap::BadFetch { pc }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwst_sim::SafetyConfig;

    fn sbdl(offset: i64) -> Instr {
        Instr::Sbdl {
            rs1: Reg::T0,
            rs2: Reg::T2,
            offset,
        }
    }

    fn sbdu(offset: i64) -> Instr {
        Instr::Sbdu {
            rs1: Reg::T0,
            rs2: Reg::T2,
            offset,
        }
    }

    #[test]
    fn sbd_pair_fuses_only_on_identical_operands() {
        let p = Program::from_instrs(0x1_0000, vec![sbdl(8), sbdu(8)]);
        let b = decode_block(&p, 0x1_0000).unwrap();
        assert_eq!(b.ops.len(), 1);
        assert_eq!(b.ops[0].n, 2);
        assert!(matches!(b.ops[0].kind, OpKind::FusedSbd { offset: 8, .. }));

        // Mismatched offsets must not fuse.
        let p = Program::from_instrs(0x1_0000, vec![sbdl(8), sbdu(16)]);
        let b = decode_block(&p, 0x1_0000).unwrap();
        assert_eq!(b.ops.len(), 2);
        assert!(matches!(b.ops[0].kind, OpKind::Simple(Simple::Sbdl { .. })));
    }

    #[test]
    fn lbd_pair_and_checked_load_fuse() {
        let lbdls = Instr::Lbdls {
            rd: Reg::T0,
            rs1: Reg::T1,
            offset: 0,
        };
        let lbdus = Instr::Lbdus {
            rd: Reg::T0,
            rs1: Reg::T1,
            offset: 0,
        };
        let p = Program::from_instrs(0x1_0000, vec![lbdls, lbdus]);
        let b = decode_block(&p, 0x1_0000).unwrap();
        assert_eq!(b.ops.len(), 1);
        assert!(matches!(b.ops[0].kind, OpKind::FusedLbd { .. }));

        let checked_load = Instr::Load {
            width: LoadWidth::D,
            rd: Reg::T2,
            rs1: Reg::T0,
            offset: 8,
            checked: true,
        };
        let p = Program::from_instrs(0x1_0000, vec![lbdls, checked_load]);
        let b = decode_block(&p, 0x1_0000).unwrap();
        assert_eq!(b.ops.len(), 1);
        assert!(matches!(
            b.ops[0].kind,
            OpKind::FusedLbdlsLoad {
                mrd: Reg::T0,
                rd: Reg::T2,
                offset: 8,
                ..
            }
        ));

        // A checked load through a different pointer must not fuse.
        let other_load = Instr::Load {
            width: LoadWidth::D,
            rd: Reg::T2,
            rs1: Reg::T3,
            offset: 8,
            checked: true,
        };
        let p = Program::from_instrs(0x1_0000, vec![lbdls, other_load]);
        let b = decode_block(&p, 0x1_0000).unwrap();
        assert_eq!(b.ops.len(), 2);

        // An unchecked load must not fuse either.
        let unchecked = Instr::Load {
            width: LoadWidth::D,
            rd: Reg::T2,
            rs1: Reg::T0,
            offset: 8,
            checked: false,
        };
        let p = Program::from_instrs(0x1_0000, vec![lbdls, unchecked]);
        let b = decode_block(&p, 0x1_0000).unwrap();
        assert_eq!(b.ops.len(), 2);
    }

    #[test]
    fn blocks_end_at_control_transfers() {
        let nop = Instr::AluImm {
            op: AluImmOp::Addi,
            rd: Reg::Zero,
            rs1: Reg::Zero,
            imm: 0,
        };
        let p = Program::from_instrs(
            0x1_0000,
            vec![
                nop,
                Instr::Jal {
                    rd: Reg::Zero,
                    offset: -4,
                },
                nop,
            ],
        );
        let b = decode_block(&p, 0x1_0000).unwrap();
        assert_eq!(b.ops.len(), 2, "block includes the jump and stops");
        // The jump target starts its own block.
        let b = decode_block(&p, 0x1_0008).unwrap();
        assert_eq!(b.ops.len(), 1);
    }

    #[test]
    fn jump_into_a_fused_pair_decodes_unfused() {
        let p = Program::from_instrs(0x1_0000, vec![sbdl(0), sbdu(0)]);
        let whole = decode_block(&p, 0x1_0000).unwrap();
        assert_eq!(whole.ops.len(), 1);
        let half = decode_block(&p, 0x1_0004).unwrap();
        assert_eq!(half.ops.len(), 1);
        assert!(matches!(
            half.ops[0].kind,
            OpKind::Simple(Simple::Sbdu { .. })
        ));
    }

    #[test]
    fn decode_fails_off_program() {
        let p = Program::from_instrs(0x1_0000, vec![Instr::Fence]);
        assert!(decode_block(&p, 0x1_0002).is_none(), "misaligned");
        assert!(decode_block(&p, 0x0_8000).is_none(), "below base");
        assert!(decode_block(&p, 0x1_0004).is_none(), "past the end");
    }

    #[test]
    fn revalidate_flushes_on_a_new_program_id_only() {
        let prog = Program::from_instrs(0x1_0000, vec![Instr::Fence, Instr::Ebreak]);
        let m = Machine::new(prog.clone(), SafetyConfig::default());
        let mut cache = BlockCache::new();
        cache.revalidate(&m);
        cache.block_for(&m, 0x1_0000).unwrap();
        assert_eq!(cache.len(), 1);

        // Same stamp: nothing flushed, lookups hit.
        cache.revalidate(&m);
        assert_eq!(cache.len(), 1);
        cache.block_for(&m, 0x1_0000).unwrap();
        assert_eq!(cache.hits(), 1);

        // A second machine draws a new program id, even for the same
        // program; the stale blocks must go.
        cache.revalidate(&Machine::new(prog, SafetyConfig::default()));
        assert_eq!(cache.len(), 0, "a new machine invalidates the cache");
        assert_eq!(cache.decodes(), 1);
    }
}
