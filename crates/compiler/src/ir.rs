//! The pointer-aware intermediate representation.
//!
//! The IR is deliberately close to what the SoftBoundCETS LLVM pass sees:
//! straight-line instructions in basic blocks over virtual registers,
//! with *pointer provenance explicit in the instruction set* — pointer
//! creation (`Malloc`, `StackAlloc`, `AddrOfGlobal`), pointer arithmetic
//! (`Gep`/`GepImm`), pointer transfer through memory (`LoadPtr`/
//! `StorePtr`) and dereference (`Load`/`Store`) are all distinct ops, so
//! the instrumentation passes know exactly where metadata must be
//! created, propagated and checked.

use std::fmt;

/// A virtual register (IR variable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

/// A basic-block id within a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

/// A global data object id within a module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GlobalId(pub u32);

/// A scalar local slot (sp-relative, never instrumented — the moral
/// equivalent of a C local accessed directly through the frame pointer,
/// which SoftBoundCETS does not treat as a pointer dereference).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LocalId(pub u32);

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// Memory access width for `Load`/`Store`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Width {
    U8,
    U16,
    U32,
    U64,
}

impl Width {
    /// Bytes accessed.
    pub const fn bytes(self) -> u64 {
        match self {
            Width::U8 => 1,
            Width::U16 => 2,
            Width::U32 => 4,
            Width::U64 => 8,
        }
    }
}

/// Two-operand ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Sll,
    Srl,
    Sra,
    /// Signed less-than (produces 0/1).
    Slt,
    /// Unsigned less-than (produces 0/1).
    Sltu,
    /// Equality (produces 0/1).
    Eq,
    /// Inequality (produces 0/1).
    Ne,
}

/// One IR instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Inst {
    /// `dst = imm`.
    Const {
        /// Destination.
        dst: VarId,
        /// The 64-bit immediate.
        value: i64,
    },
    /// `dst = lhs <op> rhs`.
    Bin {
        /// Operation.
        op: BinOp,
        /// Destination.
        dst: VarId,
        /// Left operand.
        lhs: VarId,
        /// Right operand.
        rhs: VarId,
    },
    /// `dst = lhs <op> imm` (strength-reduced form).
    BinImm {
        /// Operation.
        op: BinOp,
        /// Destination.
        dst: VarId,
        /// Left operand.
        lhs: VarId,
        /// Immediate right operand.
        imm: i64,
    },
    /// Scalar load: `dst = *(addr + offset)`.
    Load {
        /// Destination.
        dst: VarId,
        /// Pointer operand.
        addr: VarId,
        /// Constant byte offset.
        offset: i64,
        /// Access width (zero-extended).
        width: Width,
    },
    /// Scalar store: `*(addr + offset) = src`.
    Store {
        /// Value stored.
        src: VarId,
        /// Pointer operand.
        addr: VarId,
        /// Constant byte offset.
        offset: i64,
        /// Access width.
        width: Width,
    },
    /// Pointer load: `dst = *(addr + offset)` where the loaded value is a
    /// pointer — metadata must come with it (Fig. 1-d).
    LoadPtr {
        /// Destination (a pointer).
        dst: VarId,
        /// Pointer operand addressing the container.
        addr: VarId,
        /// Constant byte offset.
        offset: i64,
    },
    /// Pointer store: `*(addr + offset) = src` where `src` is a pointer —
    /// metadata must be stored alongside (Fig. 1-c).
    StorePtr {
        /// The pointer being stored.
        src: VarId,
        /// Pointer operand addressing the container.
        addr: VarId,
        /// Constant byte offset.
        offset: i64,
    },
    /// `dst = &globals[g]` — pointer to a global with statically known
    /// bounds.
    AddrOfGlobal {
        /// Destination (a pointer).
        dst: VarId,
        /// The global.
        global: GlobalId,
    },
    /// `dst = alloca(size)` — a fixed-size slot in the function frame.
    /// The pointer carries the slot's bounds and (for temporal schemes)
    /// the frame's key/lock.
    StackAlloc {
        /// Destination (a pointer).
        dst: VarId,
        /// Slot size in bytes (rounded to 8).
        size: u64,
    },
    /// `dst = malloc(size)` — heap allocation through the runtime
    /// wrapper.
    Malloc {
        /// Destination (a pointer; 0 on failure).
        dst: VarId,
        /// Requested size in bytes.
        size: VarId,
    },
    /// `free(ptr)` through the runtime wrapper.
    Free {
        /// The pointer being freed.
        ptr: VarId,
    },
    /// Pointer arithmetic preserving provenance: `dst = base + offset`.
    Gep {
        /// Destination (a pointer with `base`'s provenance).
        dst: VarId,
        /// Base pointer.
        base: VarId,
        /// Byte offset operand.
        offset: VarId,
    },
    /// Pointer arithmetic with a constant offset.
    GepImm {
        /// Destination (a pointer).
        dst: VarId,
        /// Base pointer.
        base: VarId,
        /// Constant byte offset.
        imm: i64,
    },
    /// Direct call. Arguments are passed by value; pointer arguments
    /// carry their metadata per the active scheme's convention.
    Call {
        /// Receives the return value, if any.
        dst: Option<VarId>,
        /// Callee name.
        func: String,
        /// Argument values (at most 8).
        args: Vec<VarId>,
    },
    /// Write one byte to the captured output.
    PutChar {
        /// The byte value.
        src: VarId,
    },
    /// Write a decimal integer + newline to the captured output.
    PrintU64 {
        /// The value.
        src: VarId,
    },

    // ---- instrumentation pseudo-ops (inserted by `instrument`, not by
    //      front-ends; they lower to HWST128 instructions) ----
    /// Bind compressed spatial metadata: `SRF[ptr].lower = C(base,bound)`.
    BindSpatial {
        /// Pointer whose shadow entry is written.
        ptr: VarId,
        /// Base address value.
        base: VarId,
        /// Bound address value.
        bound: VarId,
    },
    /// Bind compressed temporal metadata: `SRF[ptr].upper = C(key,lock)`.
    BindTemporal {
        /// Pointer whose shadow entry is written.
        ptr: VarId,
        /// Key value.
        key: VarId,
        /// Lock address value.
        lock: VarId,
    },
    /// Store `SRF[ptr]` to the shadow of `container + offset`
    /// (`sbdl` + `sbdu`).
    MetaStore {
        /// The pointer whose metadata is stored.
        ptr: VarId,
        /// Container address.
        container: VarId,
        /// Constant byte offset.
        offset: i64,
    },
    /// Load the shadow of `container + offset` into `SRF[ptr]`
    /// (`lbdls` + `lbdus`).
    MetaLoad {
        /// The pointer receiving metadata.
        ptr: VarId,
        /// Container address.
        container: VarId,
        /// Constant byte offset.
        offset: i64,
    },
    /// Hardware temporal check of `SRF[ptr]` (`tchk`).
    Tchk {
        /// The checked pointer.
        ptr: VarId,
    },
    /// Software spatial-abort path: raises the spatial violation trap.
    AbortSpatial {
        /// Faulting address value.
        addr: VarId,
        /// Base value.
        base: VarId,
        /// Bound value.
        bound: VarId,
    },
    /// Software temporal-abort path: raises the temporal violation trap.
    AbortTemporal {
        /// Pointer key value.
        key: VarId,
        /// Lock address value.
        lock: VarId,
        /// Key found in memory.
        stored: VarId,
    },
    /// `malloc` that also surfaces the temporal grant: `dst = malloc(size)`
    /// with the fresh key in `key` and the lock address in `lock`
    /// (the instrumented allocator wrapper, §3.4).
    MallocMeta {
        /// Destination pointer.
        dst: VarId,
        /// Requested size.
        size: VarId,
        /// Receives the fresh key.
        key: VarId,
        /// Receives the lock address.
        lock: VarId,
    },
    /// `free(ptr)` with the lock to erase (`lock` may hold 0 = none).
    FreeMeta {
        /// The freed pointer.
        ptr: VarId,
        /// Lock address whose key is erased.
        lock: VarId,
    },
    /// Function-prologue lock acquisition for stack temporal safety
    /// (use-after-return): `key`/`lock` receive the frame's grant.
    FrameLock {
        /// Receives the frame key.
        key: VarId,
        /// Receives the frame lock address.
        lock: VarId,
    },
    /// Function-epilogue release of the frame lock.
    FrameUnlock {
        /// The frame lock address.
        lock: VarId,
    },
    /// Read a scalar local slot: `dst = locals[index]`. Never checked or
    /// instrumented (frame-direct access).
    LocalGet {
        /// Destination.
        dst: VarId,
        /// The local slot.
        index: LocalId,
    },
    /// Write a scalar local slot: `locals[index] = src`.
    LocalSet {
        /// Value stored.
        src: VarId,
        /// The local slot.
        index: LocalId,
    },
    /// Load one *decompressed* metadata field of the shadow of
    /// `container + offset` into a GPR (`lbas`/`lbnd`/`lkey`/`lloc`).
    MetaLoadField {
        /// Destination.
        dst: VarId,
        /// Container address.
        container: VarId,
        /// Constant byte offset.
        offset: i64,
        /// Which field.
        field: MetaField,
    },
}

/// Which metadata field a [`Inst::MetaLoadField`] extracts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum MetaField {
    Base,
    Bound,
    Key,
    Lock,
}

/// Block terminator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Terminator {
    /// Return, optionally with a value.
    Ret {
        /// The returned value.
        value: Option<VarId>,
    },
    /// Conditional branch: `cond != 0` → `then_`, else `else_`.
    Br {
        /// Condition variable.
        cond: VarId,
        /// Taken target.
        then_: BlockId,
        /// Fall-through target.
        else_: BlockId,
    },
    /// Unconditional jump.
    Jmp(
        /// Target block.
        BlockId,
    ),
}

/// A basic block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// Instructions in order.
    pub insts: Vec<Inst>,
    /// The terminator.
    pub term: Terminator,
}

/// A function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Function {
    /// Symbol name (`main` is the entry point).
    pub name: String,
    /// Parameter variables, in ABI order (at most 8).
    pub params: Vec<VarId>,
    /// Which parameters are pointers (same length as `params`).
    pub param_is_ptr: Vec<bool>,
    /// Number of virtual registers used.
    pub num_vars: u32,
    /// Number of scalar local slots used.
    pub num_locals: u32,
    /// Basic blocks; block 0 is the entry.
    pub blocks: Vec<Block>,
}

/// A global data object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Global {
    /// Symbol name.
    pub name: String,
    /// Size in bytes (rounded to 8 at layout time).
    pub size: u64,
    /// Initial 64-bit words as `(byte_offset, value)`.
    pub init: Vec<(u64, u64)>,
}

/// A whole program.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Module {
    /// Functions (must include `main`).
    pub funcs: Vec<Function>,
    /// Globals.
    pub globals: Vec<Global>,
}

impl Module {
    /// Looks a function up by name.
    pub fn func(&self, name: &str) -> Option<&Function> {
        self.funcs.iter().find(|f| f.name == name)
    }

    /// Total IR instruction count (diagnostics).
    pub fn inst_count(&self) -> usize {
        self.funcs
            .iter()
            .map(|f| f.blocks.iter().map(|b| b.insts.len() + 1).sum::<usize>())
            .sum()
    }
}

impl Inst {
    /// The variable this instruction defines, if any.
    pub fn def(&self) -> Option<VarId> {
        match *self {
            Inst::Const { dst, .. }
            | Inst::Bin { dst, .. }
            | Inst::BinImm { dst, .. }
            | Inst::Load { dst, .. }
            | Inst::LoadPtr { dst, .. }
            | Inst::AddrOfGlobal { dst, .. }
            | Inst::StackAlloc { dst, .. }
            | Inst::Malloc { dst, .. }
            | Inst::Gep { dst, .. }
            | Inst::GepImm { dst, .. }
            | Inst::MallocMeta { dst, .. }
            | Inst::LocalGet { dst, .. }
            | Inst::MetaLoadField { dst, .. } => Some(dst),
            Inst::Call { dst, .. } => dst,
            _ => None,
        }
    }

    /// The variables this instruction reads, in operand order. Nothing
    /// is allocated: up to three fixed operands, then a call's argument
    /// slice.
    pub fn uses(&self) -> impl Iterator<Item = VarId> + '_ {
        let one = |a| [Some(a), None, None];
        let two = |a, b| [Some(a), Some(b), None];
        let three = |a, b, c| [Some(a), Some(b), Some(c)];
        let (fixed, args): ([Option<VarId>; 3], &[VarId]) = match *self {
            Inst::Call { ref args, .. } => ([None; 3], args),
            Inst::Const { .. }
            | Inst::AddrOfGlobal { .. }
            | Inst::StackAlloc { .. }
            | Inst::FrameLock { .. }
            | Inst::LocalGet { .. } => ([None; 3], &[]),
            Inst::Bin { lhs, rhs, .. } => (two(lhs, rhs), &[]),
            Inst::BinImm { lhs, .. } => (one(lhs), &[]),
            Inst::Load { addr, .. } | Inst::LoadPtr { addr, .. } => (one(addr), &[]),
            Inst::Store { src, addr, .. } | Inst::StorePtr { src, addr, .. } => {
                (two(src, addr), &[])
            }
            Inst::Malloc { size, .. } | Inst::MallocMeta { size, .. } => (one(size), &[]),
            Inst::Free { ptr } | Inst::Tchk { ptr } => (one(ptr), &[]),
            Inst::Gep { base, offset, .. } => (two(base, offset), &[]),
            Inst::GepImm { base, .. } => (one(base), &[]),
            Inst::PutChar { src } | Inst::PrintU64 { src } | Inst::LocalSet { src, .. } => {
                (one(src), &[])
            }
            Inst::BindSpatial { ptr, base, bound } => (three(ptr, base, bound), &[]),
            Inst::BindTemporal { ptr, key, lock } => (three(ptr, key, lock), &[]),
            Inst::MetaStore { ptr, container, .. } | Inst::MetaLoad { ptr, container, .. } => {
                (two(ptr, container), &[])
            }
            Inst::AbortSpatial { addr, base, bound } => (three(addr, base, bound), &[]),
            Inst::AbortTemporal { key, lock, stored } => (three(key, lock, stored), &[]),
            Inst::FreeMeta { ptr, lock } => (two(ptr, lock), &[]),
            Inst::FrameUnlock { lock } => (one(lock), &[]),
            Inst::MetaLoadField { container, .. } => (one(container), &[]),
        };
        fixed.into_iter().flatten().chain(args.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn def_use_bookkeeping() {
        let i = Inst::Bin {
            op: BinOp::Add,
            dst: VarId(2),
            lhs: VarId(0),
            rhs: VarId(1),
        };
        assert_eq!(i.def(), Some(VarId(2)));
        assert_eq!(i.uses().collect::<Vec<_>>(), vec![VarId(0), VarId(1)]);

        let s = Inst::Store {
            src: VarId(3),
            addr: VarId(4),
            offset: 8,
            width: Width::U64,
        };
        assert_eq!(s.def(), None);
        assert_eq!(s.uses().collect::<Vec<_>>(), vec![VarId(3), VarId(4)]);

        let c = Inst::Call {
            dst: None,
            func: "f".into(),
            args: vec![VarId(1)],
        };
        assert_eq!(c.def(), None);
        assert_eq!(c.uses().collect::<Vec<_>>(), vec![VarId(1)]);
    }

    #[test]
    fn width_bytes() {
        assert_eq!(Width::U8.bytes(), 1);
        assert_eq!(Width::U64.bytes(), 8);
    }

    #[test]
    fn module_lookup() {
        let m = Module {
            funcs: vec![Function {
                name: "main".into(),
                params: vec![],
                param_is_ptr: vec![],
                num_vars: 0,
                num_locals: 0,
                blocks: vec![Block {
                    insts: vec![],
                    term: Terminator::Ret { value: None },
                }],
            }],
            globals: vec![],
        };
        assert!(m.func("main").is_some());
        assert!(m.func("missing").is_none());
        assert_eq!(m.inst_count(), 1);
    }
}
