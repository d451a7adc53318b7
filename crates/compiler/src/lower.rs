//! Lowering to RV64IM + HWST128 machine code.
//!
//! The default back-end ([`OptLevel::O0`]) is a deliberate `-O0` code
//! generator: every IR variable has a home slot in the frame and every
//! instruction loads its operands and stores its result. This matches
//! the paper's experimental setup ("All performance benchmarks are
//! compiled and linked without compiler optimization", §4) — and it is
//! precisely the regime in which pointer metadata flows through shadow
//! memory constantly, which the HWST128 hardware accelerates.
//!
//! The optimizing tier ([`OptLevel::O1`]) keeps the same frame layout
//! and plan geometry but caches hot frame cells in the callee-free
//! `s0..s11` pool chosen by [`crate::regalloc`], under a strict
//! write-through discipline: every definition still stores to the home
//! slot (so call boundaries and the validator's frame model stay
//! intact), while reloads, redundant `lbdls` metadata refetches and
//! repeated `sbdl`/`sbdu` shuttle loads are elided when the emitter's
//! cache — mirrored block-by-block on `binval`'s abstract domain — can
//! prove them redundant. Every `-O1` image re-passes
//! [`crate::binval::translation_validate`] unchanged.
//!
//! Calling convention: arguments in `a0..a7`, result in `a0`, `ra` saved
//! in the frame; pointer-argument metadata travels through the
//! `__meta_args` transfer area (see [`crate::instrument`]).

use crate::dataflow::Cfg;
use crate::instrument::Scheme;
use crate::ir::{BinOp, Function, Inst, MetaField, Module, Terminator, VarId, Width};
use crate::regalloc::{self, Allocation};
use crate::CompileError;
use hwst_isa::{AluImmOp, AluOp, BranchCond, Instr, LoadWidth, Program, Reg, StoreWidth};
use hwst_mem::MemoryLayout;
use hwst_sim::syscall;
use std::collections::{HashMap, HashSet};

/// Back-end optimization tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OptLevel {
    /// Frame-slot stack machine (the paper's `-O0` regime).
    #[default]
    O0,
    /// Linear-scan register caching + frame-traffic elimination +
    /// metadata-op scheduling, validated per image by `binval`.
    O1,
}

impl OptLevel {
    /// Stable display label (`"O0"` / `"O1"`).
    pub fn label(self) -> &'static str {
        match self {
            OptLevel::O0 => "O0",
            OptLevel::O1 => "O1",
        }
    }

    /// Parses a CLI-style spelling (`O0`, `o1`, `0`, `1`).
    pub fn by_name(s: &str) -> Option<OptLevel> {
        match s {
            "O0" | "o0" | "0" => Some(OptLevel::O0),
            "O1" | "o1" | "1" => Some(OptLevel::O1),
            _ => None,
        }
    }
}

/// Side-tables produced by lowering: enough structure to map IR-level
/// safety decisions onto the emitted machine code. This is what the
/// binary-level translation validator ([`crate::binval`]) consumes —
/// the validator re-derives everything *semantic* from the instruction
/// stream itself and uses the plan only for function extents, frame
/// geometry and the IR-check ↔ instruction correspondence.
#[derive(Debug, Clone)]
pub struct LowerPlan {
    /// The scheme the module was lowered for.
    pub scheme: Scheme,
    /// Per-function tables, in emission order.
    pub funcs: Vec<FnPlan>,
}

impl LowerPlan {
    /// The function whose emitted range contains `pc`, if any (the
    /// startup shim precedes every function and resolves to `None`).
    pub fn func_at_pc(&self, pc: u64) -> Option<&FnPlan> {
        self.funcs
            .iter()
            .find(|f| (f.start_pc..f.end_pc).contains(&pc))
    }
}

/// Per-function lowering side-table.
#[derive(Debug, Clone)]
pub struct FnPlan {
    /// Function name.
    pub name: String,
    /// Program-wide index of the first emitted instruction (prologue).
    pub start: usize,
    /// Emitted instruction count.
    pub len: usize,
    /// Absolute PC of the first instruction (inclusive) — the symbol
    /// range telemetry resolves profiled PCs against.
    pub start_pc: u64,
    /// Absolute PC one past the last instruction (exclusive).
    pub end_pc: u64,
    /// Frame size in bytes (16-aligned; slot offsets are relative to
    /// the post-prologue stack pointer).
    pub frame_size: i64,
    /// Frame offset of the first alloca area. Offsets below this are
    /// home slots and spill locals, which are compiler-internal and
    /// never address-taken; offsets at or above it belong to
    /// `StackAlloc` areas whose addresses may escape.
    pub alloca_base: i64,
    /// Frame offsets of the home slots of pointer-classified variables
    /// (ascending). These are exactly the slots whose shadow words
    /// carry metadata.
    pub ptr_slots: Vec<i64>,
    /// Number of IR `MetaStore` instructions lowered — the
    /// through-pointer metadata copies the binary must contain (each
    /// emits one dynamic-container `sbdl`/`sbdu` pair).
    pub meta_stores: usize,
    /// IR checked-dereference sites mapped to emitted instructions.
    pub checks: Vec<CheckSite>,
    /// `-O1` register assignment: `(home slot, cache register)` pairs in
    /// ascending slot order. Empty at `-O0`. The validator checks this
    /// table structurally (slot range/alignment, pool membership) and
    /// re-proves every use of a cached register semantically.
    pub reg_assign: Vec<(i64, Reg)>,
}

/// One IR-level checked dereference and the machine instruction that
/// implements it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckSite {
    /// IR block index.
    pub block: u32,
    /// IR instruction index within the block.
    pub inst: u32,
    /// Program-wide index of the emitted checked load/store.
    pub at: usize,
    /// Home-slot offset of the pointer variable the check consumes.
    pub slot: i64,
    /// Whether the site is a store (write) access.
    pub is_store: bool,
}

/// Lowers an (already instrumented) module to machine code at `opt`
/// and returns the [`LowerPlan`] side-tables alongside the program.
/// [`crate::compile_with_options`] instruments and then lowers here.
///
/// # Errors
///
/// [`CompileError::MissingMain`], [`CompileError::UnknownCallee`] or
/// [`CompileError::TooManyArgs`] for IR the back-end cannot lower.
pub fn lower_with_plan_opt(
    module: &Module,
    scheme: Scheme,
    opt: OptLevel,
) -> Result<(Program, LowerPlan), CompileError> {
    if module.func("main").is_none() {
        return Err(CompileError::MissingMain);
    }
    let layout = MemoryLayout::default();
    let mut asm = Asm::new(layout.text_base);

    // Global placement.
    let mut global_addrs = Vec::with_capacity(module.globals.len());
    let mut next = layout.data_base;
    for g in &module.globals {
        global_addrs.push(next);
        next += g.size.div_ceil(8) * 8;
    }

    // Startup shim: initialise globals, call main, exit with its result.
    for (g, &addr) in module.globals.iter().zip(&global_addrs) {
        for &(off, val) in &g.init {
            asm.li(Reg::T0, (addr + off) as i64);
            asm.li(Reg::T1, val as i64);
            asm.push(Instr::Store {
                width: StoreWidth::D,
                rs1: Reg::T0,
                rs2: Reg::T1,
                offset: 0,
                checked: false,
            });
        }
    }
    asm.call_fixup("main");
    asm.li(Reg::A7, syscall::EXIT as i64);
    asm.push(Instr::Ecall);

    // Functions.
    let mut funcs = Vec::new();
    for f in &module.funcs {
        let start = asm.instrs.len();
        asm.begin_func(&f.name);
        let mut fp = FnLower::new(&mut asm, f, module, scheme, &global_addrs, opt).run()?;
        fp.len = asm.instrs.len() - start;
        fp.start_pc = layout.text_base + start as u64 * 4;
        fp.end_pc = layout.text_base + asm.instrs.len() as u64 * 4;
        funcs.push(fp);
    }

    asm.resolve()?;
    Ok((
        Program::from_instrs(layout.text_base, asm.instrs),
        LowerPlan { scheme, funcs },
    ))
}

/// A pending control-flow patch.
enum Fixup {
    /// `jal` to a function by name.
    Call(String),
    /// `jal zero` to a (function-local) block; resolved per function.
    Block { func_start: usize, block: u32 },
}

struct Asm {
    base: u64,
    instrs: Vec<Instr>,
    fixups: Vec<(usize, Fixup)>,
    func_starts: HashMap<String, usize>,
    /// Block-index → instruction-index tables per function start.
    block_tables: HashMap<usize, Vec<usize>>,
}

impl Asm {
    fn new(base: u64) -> Self {
        Asm {
            base,
            instrs: Vec::new(),
            fixups: Vec::new(),
            func_starts: HashMap::new(),
            block_tables: HashMap::new(),
        }
    }

    fn push(&mut self, i: Instr) {
        self.instrs.push(i);
    }

    fn begin_func(&mut self, name: &str) {
        self.func_starts.insert(name.to_string(), self.instrs.len());
    }

    fn call_fixup(&mut self, name: &str) {
        self.fixups
            .push((self.instrs.len(), Fixup::Call(name.to_string())));
        self.push(Instr::Jal {
            rd: Reg::Ra,
            offset: 0,
        });
    }

    fn jump_block_fixup(&mut self, func_start: usize, block: u32) {
        self.fixups
            .push((self.instrs.len(), Fixup::Block { func_start, block }));
        self.push(Instr::Jal {
            rd: Reg::Zero,
            offset: 0,
        });
    }

    /// Materialises a 64-bit immediate into `rd`.
    fn li(&mut self, rd: Reg, v: i64) {
        hwst_isa::asm::li(&mut self.instrs, rd, v);
    }

    fn resolve(&mut self) -> Result<(), CompileError> {
        for (at, fix) in std::mem::take(&mut self.fixups) {
            let target_idx = match &fix {
                Fixup::Call(name) => {
                    *self
                        .func_starts
                        .get(name)
                        .ok_or(CompileError::UnknownCallee {
                            caller: "<asm>".into(),
                            callee: name.clone(),
                        })?
                }
                Fixup::Block { func_start, block } => {
                    self.block_tables[func_start][*block as usize]
                }
            };
            let offset = (target_idx as i64 - at as i64) * 4;
            match &mut self.instrs[at] {
                Instr::Jal { offset: o, .. } => *o = offset,
                other => unreachable!("fixup on non-jal {other:?}"),
            }
        }
        let _ = self.base;
        Ok(())
    }
}

/// One `-O1` cache fact: register `r` currently holds the value of a
/// frame cell, optionally with its shadow metadata resident in `SRF[r]`.
/// Mirrors (a conservative subset of) `binval`'s abstract register
/// state, so every elision the emitter makes is one the validator can
/// re-prove.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CacheEntry {
    /// Home slot whose current value the register holds.
    slot: i64,
    /// `SRF[r]` lower half was loaded from this slot's shadow and is
    /// still current.
    srf_l: bool,
    /// Same for the upper (temporal) half.
    srf_u: bool,
}

/// The emitter-side abstract state carried across blocks at `-O1`:
/// per-register cache facts plus the `t2` metadata-shuttle fact (the
/// slot whose full shadow pair currently sits in `SRF[t2]`).
type CacheState = ([Option<CacheEntry>; 32], Option<i64>);

/// Pointwise must-meet of two cache states: a fact survives only if both
/// sides agree on it. Strictly more conservative than `binval`'s
/// abstract join (which also keeps matching-provenance/source facts with
/// weakened payloads), so everything the emitter assumes at a join the
/// validator can re-prove.
fn meet_cache(a: &CacheState, b: &CacheState) -> CacheState {
    let mut regs = [None; 32];
    for (i, r) in regs.iter_mut().enumerate() {
        *r = match (a.0[i], b.0[i]) {
            (Some(x), Some(y)) if x.slot == y.slot => Some(CacheEntry {
                slot: x.slot,
                srf_l: x.srf_l && y.srf_l,
                srf_u: x.srf_u && y.srf_u,
            }),
            _ => None,
        };
    }
    let t2 = if a.1 == b.1 { a.1 } else { None };
    (regs, t2)
}

struct FnLower<'a> {
    asm: &'a mut Asm,
    f: &'a Function,
    module: &'a Module,
    scheme: Scheme,
    globals: &'a [u64],
    /// Frame offset of each var's home slot.
    slots: Vec<i64>,
    /// Frame offsets of each `StackAlloc` (in instruction order).
    alloca_offs: HashMap<(usize, usize), i64>,
    frame_size: i64,
    func_start: usize,
    locals_base: i64,
    pointer_vars: HashSet<VarId>,
    checks: Vec<CheckSite>,
    meta_stores: usize,
    opt: OptLevel,
    /// `-O1` register assignment (empty at `-O0`).
    alloc: Allocation,
    /// Variables whose defining write-through can be elided: zero uses
    /// and non-pointer (pointer slots anchor shadow metadata).
    elidable: HashSet<VarId>,
    /// IR CFG predecessors (reachable edges only), for the block-entry
    /// cache meet. Empty at `-O0`.
    preds: Vec<Vec<usize>>,
    /// Current cache facts while emitting a block.
    cache: [Option<CacheEntry>; 32],
    /// Slot whose full shadow pair is resident in `SRF[t2]`.
    t2_meta: Option<i64>,
    /// Recorded cache state at each block's exit (emission order).
    block_exit: Vec<Option<CacheState>>,
    /// Every frame cell the emitted code ever reloads ([`Self::load_slot`]).
    /// Filled by the `-O1` probe pass.
    slots_read: HashSet<i64>,
    /// Register-resident non-pointer cells the probe proved are never
    /// reloaded: their write-through stores are dead and elided in the
    /// real pass.
    no_store: HashSet<i64>,
}

const RA_SLOT: i64 = 0;

/// Argument registers in ABI order (`a0..a7`).
const ARG_REGS: [Reg; 8] = [
    Reg::A0,
    Reg::A1,
    Reg::A2,
    Reg::A3,
    Reg::A4,
    Reg::A5,
    Reg::A6,
    Reg::A7,
];

impl<'a> FnLower<'a> {
    fn new(
        asm: &'a mut Asm,
        f: &'a Function,
        module: &'a Module,
        scheme: Scheme,
        globals: &'a [u64],
        opt: OptLevel,
    ) -> Self {
        // Frame: [ra][var slots][local slots][alloca areas], 16-aligned.
        let mut off = 8i64;
        let slots: Vec<i64> = (0..f.num_vars).map(|i| off + (i as i64) * 8).collect();
        off += f.num_vars as i64 * 8;
        let locals_base = off;
        off += f.num_locals as i64 * 8;
        let mut alloca_offs = HashMap::new();
        for (bi, b) in f.blocks.iter().enumerate() {
            for (ii, inst) in b.insts.iter().enumerate() {
                if let Inst::StackAlloc { size, .. } = inst {
                    alloca_offs.insert((bi, ii), off);
                    off += (size.div_ceil(8) * 8) as i64;
                }
            }
        }
        let frame_size = (off + 15) & !15;
        let func_start = asm.instrs.len();
        let pointer_vars = pointerish(f);
        let (alloc, elidable, preds) = if opt == OptLevel::O1 {
            let alloc = regalloc::allocate(f);
            let elidable = alloc
                .dead_vars
                .iter()
                .map(|&v| VarId(v))
                .filter(|v| !pointer_vars.contains(v))
                .collect();
            let preds = Cfg::new(f).preds;
            (alloc, elidable, preds)
        } else {
            (Allocation::default(), HashSet::new(), Vec::new())
        };
        let n_blocks = f.blocks.len();
        FnLower {
            asm,
            f,
            module,
            scheme,
            globals,
            slots,
            alloca_offs,
            frame_size,
            func_start,
            locals_base,
            pointer_vars,
            checks: Vec::new(),
            meta_stores: 0,
            opt,
            alloc,
            elidable,
            preds,
            cache: [None; 32],
            t2_meta: None,
            block_exit: vec![None; n_blocks],
            slots_read: HashSet::new(),
            no_store: HashSet::new(),
        }
    }

    fn o1(&self) -> bool {
        self.opt == OptLevel::O1
    }

    /// The cache register assigned to frame cell `slot`, if any.
    fn assigned(&self, slot: i64) -> Option<Reg> {
        self.alloc.assign.get(&slot).copied()
    }

    /// Drops every cache fact about register `r` (it is about to be
    /// overwritten with something the cache does not model).
    fn clobber(&mut self, r: Reg) {
        self.cache[r.index() as usize] = None;
    }

    /// A store outside the write-through discipline hit `slot`: any
    /// cached copy is stale.
    fn slot_written(&mut self, slot: i64) {
        if let Some(r) = self.assigned(slot) {
            if matches!(self.cache[r.index() as usize], Some(e) if e.slot == slot) {
                self.cache[r.index() as usize] = None;
            }
        }
    }

    /// `slot`'s shadow words were rewritten (`sbdl`/`sbdu`): SRF copies
    /// loaded from that shadow are stale. Mirrors `binval`'s `Sbdl`
    /// invalidation (the `t2` shuttle, as the store's own source
    /// operand, is exempt there and stays valid here).
    fn meta_written(&mut self, slot: i64) {
        for e in self.cache.iter_mut().flatten() {
            if e.slot == slot {
                e.srf_l = false;
                e.srf_u = false;
            }
        }
    }

    /// A call boundary: every register (and `SRF` entry) is
    /// caller-clobbered in this ABI, so all cache facts die.
    fn call_flush(&mut self) {
        self.cache = [None; 32];
        self.t2_meta = None;
    }

    /// Computes the block-entry cache state as the meet over CFG
    /// predecessors' recorded exits. Back edges (and the entry block)
    /// contribute bottom, which empties the meet — exactly the
    /// assumption-free state `binval`'s fixpoint join also converges to
    /// at loop headers.
    fn meet_entry(&mut self, bi: usize) {
        if !self.o1() {
            return;
        }
        let empty: CacheState = ([None; 32], None);
        let preds = &self.preds[bi];
        let state = if bi == 0 || preds.is_empty() || preds.iter().any(|&p| p >= bi) {
            empty
        } else {
            let mut acc: Option<CacheState> = None;
            for &p in preds {
                let px = self.block_exit[p].unwrap_or(empty);
                acc = Some(match acc {
                    None => px,
                    Some(cur) => meet_cache(&cur, &px),
                });
            }
            acc.unwrap_or(empty)
        };
        self.cache = state.0;
        self.t2_meta = state.1;
    }

    /// Loads slot `off` into `rd` (sp-relative, `t6` fallback for
    /// out-of-range offsets) — the raw `-O0` reload sequence.
    fn load_slot(&mut self, rd: Reg, off: i64) {
        if self.o1() {
            self.slots_read.insert(off);
        }
        if rd == Reg::T2 {
            // A plain load into t2 clears SRF[t2] architecturally.
            self.t2_meta = None;
        }
        if (-2048..=2047).contains(&off) {
            self.asm.push(Instr::Load {
                width: LoadWidth::D,
                rd,
                rs1: Reg::Sp,
                offset: off,
                checked: false,
            });
        } else {
            self.frame_addr(Reg::T6, off);
            self.asm.push(Instr::Load {
                width: LoadWidth::D,
                rd,
                rs1: Reg::T6,
                offset: 0,
                checked: false,
            });
        }
    }

    /// Stores `rs` to slot `off` (sp-relative, `t6` fallback).
    fn store_slot(&mut self, rs: Reg, off: i64) {
        if (-2048..=2047).contains(&off) {
            self.asm.push(Instr::Store {
                width: StoreWidth::D,
                rs1: Reg::Sp,
                rs2: rs,
                offset: off,
                checked: false,
            });
        } else {
            self.frame_addr(Reg::T6, off);
            self.asm.push(Instr::Store {
                width: StoreWidth::D,
                rs1: Reg::T6,
                rs2: rs,
                offset: 0,
                checked: false,
            });
        }
    }

    /// Produces a register holding var `v`'s current value. At `-O0`
    /// (or for unassigned vars) this reloads into `fallback`; at `-O1`
    /// it returns the cache register, reloading only on a cache miss.
    fn use_var(&mut self, fallback: Reg, v: VarId) -> Reg {
        let s = self.slot(v);
        if self.o1() {
            if let Some(r) = self.assigned(s) {
                let hit = matches!(self.cache[r.index() as usize], Some(e) if e.slot == s);
                if !hit {
                    // A plain load also clears `SRF[r]` architecturally,
                    // which the fresh entry's false flags mirror.
                    self.load_slot(r, s);
                    self.cache[r.index() as usize] = Some(CacheEntry {
                        slot: s,
                        srf_l: false,
                        srf_u: false,
                    });
                }
                return r;
            }
        }
        self.load_var(fallback, v);
        fallback
    }

    /// Forces var `v`'s value into the specific register `target`
    /// (calling convention / syscall argument slots).
    fn get_var_into(&mut self, target: Reg, v: VarId) {
        if self.o1() {
            let s = self.slot(v);
            if let Some(r) = self.assigned(s) {
                if matches!(self.cache[r.index() as usize], Some(e) if e.slot == s) {
                    self.asm.push(Instr::AluImm {
                        op: AluImmOp::Addi,
                        rd: target,
                        rs1: r,
                        imm: 0,
                    });
                    return;
                }
            }
        }
        self.load_var(target, v);
    }

    /// The register a definition of `v` should be computed into.
    fn def_reg(&mut self, fallback: Reg, v: VarId) -> Reg {
        if self.o1() {
            if let Some(r) = self.assigned(self.slot(v)) {
                self.clobber(r);
                return r;
            }
        }
        if fallback == Reg::T2 {
            // The caller is about to write t2 as a plain GPR, which
            // clears SRF[t2] architecturally.
            self.t2_meta = None;
        }
        fallback
    }

    /// Completes a definition of `v` whose value sits in `r`: the
    /// write-through store (elided for provably dead non-pointer
    /// definitions) plus cache bookkeeping.
    fn seal_def(&mut self, r: Reg, v: VarId) {
        let s = self.slot(v);
        if self.o1() && self.elidable.contains(&v) {
            // Nothing ever reads v (and its slot carries no metadata):
            // skip the store entirely. The register holds a value the
            // cache must not vouch for.
            self.clobber(r);
            return;
        }
        if !self.no_store.contains(&s) {
            self.store_slot(r, s);
        }
        if self.o1() {
            self.slot_written(s);
            if self.assigned(s) == Some(r) {
                self.cache[r.index() as usize] = Some(CacheEntry {
                    slot: s,
                    srf_l: false,
                    srf_u: false,
                });
            }
        }
    }

    /// Produces a register holding pointer var `p`'s value with its
    /// spatial (and optionally temporal) metadata resident in the SRF —
    /// the `-O1` generalisation of [`FnLower::load_ptr_with_meta`],
    /// batching `lbdls`/`lbdus` reloads away when the cache still holds
    /// them.
    fn use_ptr_meta(&mut self, p: VarId, upper_too: bool) -> Reg {
        if !self.o1() {
            self.load_ptr_with_meta(Reg::T0, p, upper_too);
            return Reg::T0;
        }
        let r = self.use_var(Reg::T0, p);
        if self.scheme.uses_hardware() && self.pointer_vars.contains(&p) {
            let s = self.slot(p);
            let (need_l, need_u) = match self.cache[r.index() as usize] {
                Some(e) if e.slot == s => (!e.srf_l, upper_too && !e.srf_u),
                _ => (true, upper_too),
            };
            if need_l || need_u {
                self.frame_addr(Reg::T6, s);
                if need_l {
                    self.asm.push(Instr::Lbdls {
                        rd: r,
                        rs1: Reg::T6,
                        offset: 0,
                    });
                }
                if need_u {
                    self.asm.push(Instr::Lbdus {
                        rd: r,
                        rs1: Reg::T6,
                        offset: 0,
                    });
                }
                if let Some(e) = &mut self.cache[r.index() as usize] {
                    if e.slot == s {
                        e.srf_l |= need_l;
                        e.srf_u |= need_u;
                    }
                }
            }
        }
        r
    }

    fn slot(&self, v: VarId) -> i64 {
        self.slots[v.0 as usize]
    }

    /// `rd = sp + off` (handles offsets beyond the addi range via t6).
    fn frame_addr(&mut self, rd: Reg, off: i64) {
        if (-2048..=2047).contains(&off) {
            self.asm.push(Instr::AluImm {
                op: AluImmOp::Addi,
                rd,
                rs1: Reg::Sp,
                imm: off,
            });
        } else {
            self.asm.li(Reg::T6, off);
            self.asm.push(Instr::Alu {
                op: AluOp::Add,
                rd,
                rs1: Reg::Sp,
                rs2: Reg::T6,
            });
        }
    }

    /// Loads var `v` into `rd`.
    fn load_var(&mut self, rd: Reg, v: VarId) {
        let off = self.slot(v);
        self.load_slot(rd, off);
    }

    /// Stores `rs` into var `v`'s home slot.
    fn store_var(&mut self, rs: Reg, v: VarId) {
        let off = self.slot(v);
        self.store_slot(rs, off);
    }

    /// Loads pointer var `p` into `rd` and, for hardware schemes, its
    /// spatial metadata into `SRF[rd]` from the home slot's shadow.
    fn load_ptr_with_meta(&mut self, rd: Reg, p: VarId, upper_too: bool) {
        self.load_var(rd, p);
        if self.scheme.uses_hardware() && self.pointer_vars.contains(&p) {
            self.frame_addr(Reg::T6, self.slot(p));
            self.asm.push(Instr::Lbdls {
                rd,
                rs1: Reg::T6,
                offset: 0,
            });
            if upper_too {
                self.asm.push(Instr::Lbdus {
                    rd,
                    rs1: Reg::T6,
                    offset: 0,
                });
            }
        }
    }

    /// Records the checked load/store about to be emitted at the
    /// current instruction index.
    fn note_check(&mut self, bi: usize, ii: usize, addr: VarId, is_store: bool) {
        self.checks.push(CheckSite {
            block: bi as u32,
            inst: ii as u32,
            at: self.asm.instrs.len(),
            slot: self.slot(addr),
            is_store,
        });
    }

    /// Emits the prologue, parameter parking and every block; returns
    /// the block offset table. Called twice at `-O1`: once as a probe
    /// (discarded) to discover which frame cells are ever reloaded, then
    /// for real with the dead write-through stores elided.
    fn emit_body(&mut self) -> Result<Vec<usize>, CompileError> {
        // Prologue.
        let fs = self.frame_size;
        if fs <= 2047 {
            self.asm.push(Instr::AluImm {
                op: AluImmOp::Addi,
                rd: Reg::Sp,
                rs1: Reg::Sp,
                imm: -fs,
            });
        } else {
            self.asm.li(Reg::T6, fs);
            self.asm.push(Instr::Alu {
                op: AluOp::Sub,
                rd: Reg::Sp,
                rs1: Reg::Sp,
                rs2: Reg::T6,
            });
        }
        self.asm.push(Instr::Store {
            width: StoreWidth::D,
            rs1: Reg::Sp,
            rs2: Reg::Ra,
            offset: RA_SLOT,
            checked: false,
        });
        // Park parameters in their home slots.
        let params = self.f.params.clone();
        if params.len() > ARG_REGS.len() {
            return Err(CompileError::TooManyArgs {
                caller: self.f.name.clone(),
                callee: self.f.name.clone(),
                count: params.len(),
            });
        }
        for (&p, &a) in params.iter().zip(ARG_REGS.iter()) {
            self.store_var(a, p);
        }

        // Blocks.
        let mut table = vec![0usize; self.f.blocks.len()];
        for (bi, block) in self.f.blocks.iter().enumerate() {
            table[bi] = self.asm.instrs.len();
            self.meet_entry(bi);
            for (ii, inst) in block.insts.iter().enumerate() {
                self.lower_inst(bi, ii, inst)?;
            }
            self.lower_term(&block.term);
            if self.o1() {
                self.block_exit[bi] = Some((self.cache, self.t2_meta));
            }
        }
        Ok(table)
    }

    fn run(mut self) -> Result<FnPlan, CompileError> {
        if self.o1() {
            // Probe pass. Elision only ever *removes* stores, never
            // changes cache bookkeeping or control flow, so the probe's
            // observed reload set is exactly the real pass's.
            let insts0 = self.asm.instrs.len();
            let fixups0 = self.asm.fixups.len();
            self.emit_body()?;
            self.asm.instrs.truncate(insts0);
            self.asm.fixups.truncate(fixups0);
            self.checks.clear();
            self.meta_stores = 0;
            self.cache = [None; 32];
            self.t2_meta = None;
            self.block_exit = vec![None; self.f.blocks.len()];
            let reads = std::mem::take(&mut self.slots_read);
            let ptr_slots: HashSet<i64> = self.pointer_vars.iter().map(|&v| self.slot(v)).collect();
            self.no_store = self
                .alloc
                .assign
                .keys()
                .copied()
                .filter(|s| !reads.contains(s) && !ptr_slots.contains(s))
                .collect();
        }
        let table = self.emit_body()?;
        self.asm.block_tables.insert(self.func_start, table);

        let mut ptr_slots: Vec<i64> = self.pointer_vars.iter().map(|&v| self.slot(v)).collect();
        ptr_slots.sort_unstable();
        let reg_assign: Vec<(i64, Reg)> = self.alloc.assign.iter().map(|(&s, &r)| (s, r)).collect();
        Ok(FnPlan {
            name: self.f.name.clone(),
            start: self.func_start,
            len: 0,      // patched by the caller once emission is complete
            start_pc: 0, // patched by the caller (needs the final layout)
            end_pc: 0,   // patched by the caller
            frame_size: self.frame_size,
            alloca_base: self.locals_base + self.f.num_locals as i64 * 8,
            ptr_slots,
            meta_stores: self.meta_stores,
            checks: std::mem::take(&mut self.checks),
            reg_assign,
        })
    }

    fn epilogue(&mut self) {
        self.asm.push(Instr::Load {
            width: LoadWidth::D,
            rd: Reg::Ra,
            rs1: Reg::Sp,
            offset: RA_SLOT,
            checked: false,
        });
        let fs = self.frame_size;
        if fs <= 2047 {
            self.asm.push(Instr::AluImm {
                op: AluImmOp::Addi,
                rd: Reg::Sp,
                rs1: Reg::Sp,
                imm: fs,
            });
        } else {
            self.asm.li(Reg::T6, fs);
            self.asm.push(Instr::Alu {
                op: AluOp::Add,
                rd: Reg::Sp,
                rs1: Reg::Sp,
                rs2: Reg::T6,
            });
        }
        self.asm.push(Instr::Jalr {
            rd: Reg::Zero,
            rs1: Reg::Ra,
            offset: 0,
        });
    }

    fn lower_term(&mut self, t: &Terminator) {
        match t {
            Terminator::Ret { value } => {
                if let Some(v) = value {
                    self.get_var_into(Reg::A0, *v);
                }
                self.epilogue();
            }
            Terminator::Jmp(b) => {
                self.asm.jump_block_fixup(self.func_start, b.0);
            }
            Terminator::Br { cond, then_, else_ } => {
                let c = self.use_var(Reg::T0, *cond);
                // beq c, zero, +8  (skip the taken-jal)
                self.asm.push(Instr::Branch {
                    cond: BranchCond::Eq,
                    rs1: c,
                    rs2: Reg::Zero,
                    offset: 8,
                });
                self.asm.jump_block_fixup(self.func_start, then_.0);
                self.asm.jump_block_fixup(self.func_start, else_.0);
            }
        }
    }

    fn ecall(&mut self, num: u64) {
        self.asm.li(Reg::A7, num as i64);
        self.asm.push(Instr::Ecall);
    }

    fn lower_inst(&mut self, bi: usize, ii: usize, inst: &Inst) -> Result<(), CompileError> {
        let hw = self.scheme.uses_hardware();
        match inst.clone() {
            Inst::Const { dst, value } => {
                let rd = self.def_reg(Reg::T0, dst);
                self.asm.li(rd, value);
                self.seal_def(rd, dst);
            }
            Inst::Bin { op, dst, lhs, rhs } => {
                let a = self.use_var(Reg::T0, lhs);
                let b = self.use_var(Reg::T1, rhs);
                let rd = self.def_reg(Reg::T2, dst);
                self.bin_op(op, rd, a, b);
                self.seal_def(rd, dst);
            }
            Inst::BinImm { op, dst, lhs, imm } => {
                let a = self.use_var(Reg::T0, lhs);
                let rd = self.def_reg(Reg::T2, dst);
                self.bin_imm_op(op, rd, a, imm);
                self.seal_def(rd, dst);
            }
            Inst::Load {
                dst,
                addr,
                offset,
                width,
            } => {
                let checked = hw && self.pointer_vars.contains(&addr);
                let ra = self.use_ptr_meta(addr, false);
                let (rs1, off) = self.fold_offset_r(ra, offset);
                if checked {
                    self.note_check(bi, ii, addr, false);
                }
                let rd = self.def_reg(Reg::T2, dst);
                self.asm.push(Instr::Load {
                    width: machine_load_width(width),
                    rd,
                    rs1,
                    offset: off,
                    checked,
                });
                self.seal_def(rd, dst);
            }
            Inst::Store {
                src,
                addr,
                offset,
                width,
            } => {
                let checked = hw && self.pointer_vars.contains(&addr);
                let ra = self.use_ptr_meta(addr, false);
                let (rs1, off) = self.fold_offset_r(ra, offset);
                let rs2 = self.use_var(Reg::T2, src);
                if checked {
                    self.note_check(bi, ii, addr, true);
                }
                self.asm.push(Instr::Store {
                    width: machine_store_width(width),
                    rs1,
                    rs2,
                    offset: off,
                    checked,
                });
            }
            Inst::LoadPtr { dst, addr, offset } => {
                let checked = hw && self.pointer_vars.contains(&addr);
                let ra = self.use_ptr_meta(addr, false);
                let (rs1, off) = self.fold_offset_r(ra, offset);
                if checked {
                    self.note_check(bi, ii, addr, false);
                }
                let rd = self.def_reg(Reg::T2, dst);
                self.asm.push(Instr::Load {
                    width: LoadWidth::D,
                    rd,
                    rs1,
                    offset: off,
                    checked,
                });
                self.seal_def(rd, dst);
            }
            Inst::StorePtr { src, addr, offset } => {
                let checked = hw && self.pointer_vars.contains(&addr);
                let ra = self.use_ptr_meta(addr, false);
                let (rs1, off) = self.fold_offset_r(ra, offset);
                let rs2 = self.use_var(Reg::T2, src);
                if checked {
                    self.note_check(bi, ii, addr, true);
                }
                self.asm.push(Instr::Store {
                    width: StoreWidth::D,
                    rs1,
                    rs2,
                    offset: off,
                    checked,
                });
            }
            Inst::AddrOfGlobal { dst, global } => {
                let addr = self.globals[global.0 as usize];
                let rd = self.def_reg(Reg::T0, dst);
                self.asm.li(rd, addr as i64);
                self.seal_def(rd, dst);
                if hw {
                    // Globals have static bounds: bind them (and a zero
                    // temporal half) into the home-slot shadow directly.
                    let size = self.module.globals[global.0 as usize].size.div_ceil(8) * 8;
                    self.asm.li(Reg::T1, (addr + size) as i64);
                    self.asm.push(Instr::Bndrs {
                        rd: Reg::T2,
                        rs1: rd,
                        rs2: Reg::T1,
                    });
                    self.asm.push(Instr::Bndrt {
                        rd: Reg::T2,
                        rs1: Reg::Zero,
                        rs2: Reg::Zero,
                    });
                    self.t2_meta = None; // SRF[t2] now holds fresh bounds
                    self.frame_addr(Reg::T3, self.slot(dst));
                    self.asm.push(Instr::Sbdl {
                        rs1: Reg::T3,
                        rs2: Reg::T2,
                        offset: 0,
                    });
                    self.asm.push(Instr::Sbdu {
                        rs1: Reg::T3,
                        rs2: Reg::T2,
                        offset: 0,
                    });
                    self.meta_written(self.slot(dst));
                }
            }
            Inst::StackAlloc { dst, .. } => {
                let off = self.alloca_offs[&(bi, ii)];
                let rd = self.def_reg(Reg::T0, dst);
                self.frame_addr(rd, off);
                self.seal_def(rd, dst);
            }
            Inst::Malloc { dst, size } => {
                self.get_var_into(Reg::A0, size);
                self.ecall(syscall::MALLOC);
                self.store_var(Reg::A0, dst);
                self.slot_written(self.slot(dst));
            }
            Inst::MallocMeta {
                dst,
                size,
                key,
                lock,
            } => {
                self.get_var_into(Reg::A0, size);
                self.ecall(syscall::MALLOC);
                self.store_var(Reg::A0, dst);
                self.slot_written(self.slot(dst));
                self.store_var(Reg::A1, key);
                self.slot_written(self.slot(key));
                self.store_var(Reg::A2, lock);
                self.slot_written(self.slot(lock));
            }
            Inst::Free { ptr } => {
                self.get_var_into(Reg::A0, ptr);
                self.asm.li(Reg::A1, 0);
                self.ecall(syscall::FREE);
            }
            Inst::FreeMeta { ptr, lock } => {
                self.get_var_into(Reg::A0, ptr);
                self.get_var_into(Reg::A1, lock);
                self.ecall(syscall::FREE);
            }
            Inst::FrameLock { key, lock } => {
                self.ecall(syscall::LOCK_ACQUIRE);
                self.store_var(Reg::A0, key);
                self.slot_written(self.slot(key));
                self.store_var(Reg::A1, lock);
                self.slot_written(self.slot(lock));
            }
            Inst::FrameUnlock { lock } => {
                self.get_var_into(Reg::A0, lock);
                self.ecall(syscall::LOCK_RELEASE);
            }
            Inst::Gep { dst, base, offset } => {
                let a = self.use_var(Reg::T0, base);
                let b = self.use_var(Reg::T1, offset);
                let rd = self.def_reg(Reg::T2, dst);
                self.asm.push(Instr::Alu {
                    op: AluOp::Add,
                    rd,
                    rs1: a,
                    rs2: b,
                });
                self.seal_def(rd, dst);
                self.copy_home_meta(base, dst);
            }
            Inst::GepImm { dst, base, imm } => {
                let a = self.use_var(Reg::T0, base);
                let rd = self.def_reg(Reg::T2, dst);
                self.bin_imm_op(BinOp::Add, rd, a, imm);
                self.seal_def(rd, dst);
                self.copy_home_meta(base, dst);
            }
            Inst::Call { dst, func, args } => {
                if args.len() > 8 {
                    return Err(CompileError::TooManyArgs {
                        caller: self.f.name.clone(),
                        callee: func.clone(),
                        count: args.len(),
                    });
                }
                if self.module.func(&func).is_none() {
                    return Err(CompileError::UnknownCallee {
                        caller: self.f.name.clone(),
                        callee: func,
                    });
                }
                for (&a, &r) in args.iter().zip(ARG_REGS.iter()) {
                    self.get_var_into(r, a);
                }
                self.asm.call_fixup(&func);
                self.call_flush();
                if let Some(d) = dst {
                    self.store_var(Reg::A0, d);
                }
            }
            Inst::PutChar { src } => {
                self.get_var_into(Reg::A0, src);
                self.ecall(syscall::PUTCHAR);
            }
            Inst::PrintU64 { src } => {
                self.get_var_into(Reg::A0, src);
                self.ecall(syscall::PRINT_U64);
            }
            Inst::BindSpatial { ptr, base, bound } => {
                let a = self.use_var(Reg::T0, base);
                let b = self.use_var(Reg::T1, bound);
                self.asm.push(Instr::Bndrs {
                    rd: Reg::T2,
                    rs1: a,
                    rs2: b,
                });
                self.t2_meta = None; // SRF[t2] now holds fresh bounds
                self.frame_addr(Reg::T3, self.slot(ptr));
                self.asm.push(Instr::Sbdl {
                    rs1: Reg::T3,
                    rs2: Reg::T2,
                    offset: 0,
                });
                self.meta_written(self.slot(ptr));
            }
            Inst::BindTemporal { ptr, key, lock } => {
                let a = self.use_var(Reg::T0, key);
                let b = self.use_var(Reg::T1, lock);
                self.asm.push(Instr::Bndrt {
                    rd: Reg::T2,
                    rs1: a,
                    rs2: b,
                });
                self.t2_meta = None; // SRF[t2] now holds a fresh temporal half
                self.frame_addr(Reg::T3, self.slot(ptr));
                self.asm.push(Instr::Sbdu {
                    rs1: Reg::T3,
                    rs2: Reg::T2,
                    offset: 0,
                });
                self.meta_written(self.slot(ptr));
            }
            Inst::MetaStore {
                ptr,
                container,
                offset,
            } => {
                self.meta_stores += 1;
                // ptr's home shadow → SRF[t2] → container's shadow. At
                // -O1 the shuttle load is scheduled away when SRF[t2]
                // already holds this slot's pair.
                let ps = self.slot(ptr);
                if !(self.o1() && self.t2_meta == Some(ps)) {
                    self.frame_addr(Reg::T1, ps);
                    self.asm.push(Instr::Lbdls {
                        rd: Reg::T2,
                        rs1: Reg::T1,
                        offset: 0,
                    });
                    self.asm.push(Instr::Lbdus {
                        rd: Reg::T2,
                        rs1: Reg::T1,
                        offset: 0,
                    });
                    if self.o1() {
                        self.t2_meta = Some(ps);
                    }
                }
                let rc = self.use_var(Reg::T0, container);
                let (rs1, off) = self.fold_offset_r(rc, offset);
                self.asm.push(Instr::Sbdl {
                    rs1,
                    rs2: Reg::T2,
                    offset: off,
                });
                self.asm.push(Instr::Sbdu {
                    rs1,
                    rs2: Reg::T2,
                    offset: off,
                });
            }
            Inst::MetaLoad {
                ptr,
                container,
                offset,
            } => {
                let rc = self.use_var(Reg::T0, container);
                let (rs1, off) = self.fold_offset_r(rc, offset);
                self.asm.push(Instr::Lbdls {
                    rd: Reg::T2,
                    rs1,
                    offset: off,
                });
                self.asm.push(Instr::Lbdus {
                    rd: Reg::T2,
                    rs1,
                    offset: off,
                });
                self.t2_meta = None; // dynamically-sourced halves
                self.frame_addr(Reg::T1, self.slot(ptr));
                self.asm.push(Instr::Sbdl {
                    rs1: Reg::T1,
                    rs2: Reg::T2,
                    offset: 0,
                });
                self.asm.push(Instr::Sbdu {
                    rs1: Reg::T1,
                    rs2: Reg::T2,
                    offset: 0,
                });
                self.meta_written(self.slot(ptr));
            }
            Inst::LocalGet { dst, index } => {
                let off = self.locals_base + index.0 as i64 * 8;
                let cached = self
                    .assigned(off)
                    .filter(|r| matches!(self.cache[r.index() as usize], Some(e) if e.slot == off));
                let rd = self.def_reg(Reg::T0, dst);
                match cached {
                    Some(rl) if rl != rd => {
                        self.asm.push(Instr::AluImm {
                            op: AluImmOp::Addi,
                            rd,
                            rs1: rl,
                            imm: 0,
                        });
                    }
                    Some(_) => {} // value already in place
                    None => self.load_slot(rd, off),
                }
                self.seal_def(rd, dst);
            }
            Inst::LocalSet { src, index } => {
                let off = self.locals_base + index.0 as i64 * 8;
                let rs = self.use_var(Reg::T0, src);
                match self.assigned(off) {
                    Some(rl) if self.o1() => {
                        if rl != rs {
                            self.clobber(rl);
                            self.asm.push(Instr::AluImm {
                                op: AluImmOp::Addi,
                                rd: rl,
                                rs1: rs,
                                imm: 0,
                            });
                        }
                        if !self.no_store.contains(&off) {
                            self.store_slot(rl, off);
                        }
                        self.cache[rl.index() as usize] = Some(CacheEntry {
                            slot: off,
                            srf_l: false,
                            srf_u: false,
                        });
                    }
                    _ => {
                        self.store_slot(rs, off);
                        self.slot_written(off);
                    }
                }
            }
            Inst::MetaLoadField {
                dst,
                container,
                offset,
                field,
            } => {
                let rc = self.use_var(Reg::T0, container);
                let (rs1, off) = self.fold_offset_r(rc, offset);
                let rd = self.def_reg(Reg::T1, dst);
                let i = match field {
                    MetaField::Base => Instr::Lbas {
                        rd,
                        rs1,
                        offset: off,
                    },
                    MetaField::Bound => Instr::Lbnd {
                        rd,
                        rs1,
                        offset: off,
                    },
                    MetaField::Key => Instr::Lkey {
                        rd,
                        rs1,
                        offset: off,
                    },
                    MetaField::Lock => Instr::Lloc {
                        rd,
                        rs1,
                        offset: off,
                    },
                };
                self.asm.push(i);
                self.seal_def(rd, dst);
            }
            Inst::Tchk { ptr } => {
                let r = self.use_ptr_meta(ptr, true);
                self.asm.push(Instr::Tchk { rs1: r });
            }
            Inst::AbortSpatial { addr, base, bound } => {
                self.get_var_into(Reg::A0, addr);
                self.get_var_into(Reg::A1, base);
                self.get_var_into(Reg::A2, bound);
                self.ecall(syscall::ABORT_SPATIAL);
            }
            Inst::AbortTemporal { key, lock, stored } => {
                self.get_var_into(Reg::A0, key);
                self.get_var_into(Reg::A1, lock);
                self.get_var_into(Reg::A2, stored);
                self.ecall(syscall::ABORT_TEMPORAL);
            }
        }
        Ok(())
    }

    /// Copies the home-slot shadow metadata of `src` to `dst` (pointer
    /// arithmetic propagation in the `-O0` stack-machine model: what the
    /// bypass network does register-to-register in hardware happens
    /// through the frame slots' shadows here).
    fn copy_home_meta(&mut self, src: VarId, dst: VarId) {
        if !(self.scheme.uses_hardware() && self.pointer_vars.contains(&src)) {
            return;
        }
        let ssrc = self.slot(src);
        let sdst = self.slot(dst);
        // At -O1 the shuttle reload is scheduled away when SRF[t2]
        // already holds this slot's pair (batched lbdls across a
        // straight-line pointer-arithmetic region).
        if !(self.o1() && self.t2_meta == Some(ssrc)) {
            self.frame_addr(Reg::T3, ssrc);
            self.asm.push(Instr::Lbdls {
                rd: Reg::T2,
                rs1: Reg::T3,
                offset: 0,
            });
            self.asm.push(Instr::Lbdus {
                rd: Reg::T2,
                rs1: Reg::T3,
                offset: 0,
            });
            if self.o1() {
                self.t2_meta = Some(ssrc);
            }
        }
        self.frame_addr(Reg::T3, sdst);
        self.asm.push(Instr::Sbdl {
            rs1: Reg::T3,
            rs2: Reg::T2,
            offset: 0,
        });
        self.asm.push(Instr::Sbdu {
            rs1: Reg::T3,
            rs2: Reg::T2,
            offset: 0,
        });
        self.meta_written(sdst);
    }

    /// Folds an out-of-range constant offset into the address register,
    /// returning the `(rs1, offset)` pair to use for the access. At
    /// `-O0` the fold mutates `addr` in place (it is always a scratch
    /// register there); at `-O1` an allocated pool register must not be
    /// clobbered, so the folded address is built in `t0` instead.
    fn fold_offset_r(&mut self, addr: Reg, offset: i64) -> (Reg, i64) {
        if (-2048..=2047).contains(&offset) {
            (addr, offset)
        } else if self.o1() && regalloc::POOL.contains(&addr) {
            self.asm.push(Instr::AluImm {
                op: AluImmOp::Addi,
                rd: Reg::T0,
                rs1: addr,
                imm: 0,
            });
            self.asm.li(Reg::T5, offset);
            self.asm.push(Instr::Alu {
                op: AluOp::Add,
                rd: Reg::T0,
                rs1: Reg::T0,
                rs2: Reg::T5,
            });
            (Reg::T0, 0)
        } else {
            self.asm.li(Reg::T5, offset);
            self.asm.push(Instr::Alu {
                op: AluOp::Add,
                rd: addr,
                rs1: addr,
                rs2: Reg::T5,
            });
            (addr, 0)
        }
    }

    fn bin_op(&mut self, op: BinOp, rd: Reg, a: Reg, b: Reg) {
        let alu = |o| Instr::Alu {
            op: o,
            rd,
            rs1: a,
            rs2: b,
        };
        match op {
            BinOp::Add => self.asm.push(alu(AluOp::Add)),
            BinOp::Sub => self.asm.push(alu(AluOp::Sub)),
            BinOp::Mul => self.asm.push(alu(AluOp::Mul)),
            BinOp::Div => self.asm.push(alu(AluOp::Div)),
            BinOp::Rem => self.asm.push(alu(AluOp::Rem)),
            BinOp::And => self.asm.push(alu(AluOp::And)),
            BinOp::Or => self.asm.push(alu(AluOp::Or)),
            BinOp::Xor => self.asm.push(alu(AluOp::Xor)),
            BinOp::Sll => self.asm.push(alu(AluOp::Sll)),
            BinOp::Srl => self.asm.push(alu(AluOp::Srl)),
            BinOp::Sra => self.asm.push(alu(AluOp::Sra)),
            BinOp::Slt => self.asm.push(alu(AluOp::Slt)),
            BinOp::Sltu => self.asm.push(alu(AluOp::Sltu)),
            BinOp::Eq => {
                self.asm.push(Instr::Alu {
                    op: AluOp::Sub,
                    rd,
                    rs1: a,
                    rs2: b,
                });
                self.asm.push(Instr::AluImm {
                    op: AluImmOp::Sltiu,
                    rd,
                    rs1: rd,
                    imm: 1,
                });
            }
            BinOp::Ne => {
                self.asm.push(Instr::Alu {
                    op: AluOp::Sub,
                    rd,
                    rs1: a,
                    rs2: b,
                });
                self.asm.push(Instr::Alu {
                    op: AluOp::Sltu,
                    rd,
                    rs1: Reg::Zero,
                    rs2: rd,
                });
            }
        }
    }

    fn bin_imm_op(&mut self, op: BinOp, rd: Reg, a: Reg, imm: i64) {
        let imm_ok = (-2048..=2047).contains(&imm);
        match op {
            BinOp::Add if imm_ok => self.asm.push(Instr::AluImm {
                op: AluImmOp::Addi,
                rd,
                rs1: a,
                imm,
            }),
            BinOp::And if imm_ok => self.asm.push(Instr::AluImm {
                op: AluImmOp::Andi,
                rd,
                rs1: a,
                imm,
            }),
            BinOp::Or if imm_ok => self.asm.push(Instr::AluImm {
                op: AluImmOp::Ori,
                rd,
                rs1: a,
                imm,
            }),
            BinOp::Xor if imm_ok => self.asm.push(Instr::AluImm {
                op: AluImmOp::Xori,
                rd,
                rs1: a,
                imm,
            }),
            BinOp::Sll if (0..64).contains(&imm) => self.asm.push(Instr::AluImm {
                op: AluImmOp::Slli,
                rd,
                rs1: a,
                imm,
            }),
            BinOp::Srl if (0..64).contains(&imm) => self.asm.push(Instr::AluImm {
                op: AluImmOp::Srli,
                rd,
                rs1: a,
                imm,
            }),
            BinOp::Sra if (0..64).contains(&imm) => self.asm.push(Instr::AluImm {
                op: AluImmOp::Srai,
                rd,
                rs1: a,
                imm,
            }),
            BinOp::Slt if imm_ok => self.asm.push(Instr::AluImm {
                op: AluImmOp::Slti,
                rd,
                rs1: a,
                imm,
            }),
            BinOp::Sltu if imm_ok => self.asm.push(Instr::AluImm {
                op: AluImmOp::Sltiu,
                rd,
                rs1: a,
                imm,
            }),
            _ => {
                // General case: materialise and use the register form.
                self.asm.li(Reg::T4, imm);
                self.bin_op(op, rd, a, Reg::T4);
            }
        }
    }
}

fn machine_load_width(w: Width) -> LoadWidth {
    match w {
        Width::U8 => LoadWidth::Bu,
        Width::U16 => LoadWidth::Hu,
        Width::U32 => LoadWidth::Wu,
        Width::U64 => LoadWidth::D,
    }
}

fn machine_store_width(w: Width) -> StoreWidth {
    match w {
        Width::U8 => StoreWidth::B,
        Width::U16 => StoreWidth::H,
        Width::U32 => StoreWidth::W,
        Width::U64 => StoreWidth::D,
    }
}

/// Conservative pointer-ish set: vars defined by pointer-producing ops or
/// used where only pointers make sense. (The instrumented module cannot
/// be re-validated — instrumentation emits raw address arithmetic — so
/// this local inference replaces the front-end analysis.)
fn pointerish(f: &Function) -> HashSet<VarId> {
    let mut ptrs: HashSet<VarId> = f
        .params
        .iter()
        .zip(&f.param_is_ptr)
        .filter(|(_, &is)| is)
        .map(|(&v, _)| v)
        .collect();
    loop {
        let mut changed = false;
        for b in &f.blocks {
            for i in &b.insts {
                let def_is_ptr = match i {
                    Inst::AddrOfGlobal { .. }
                    | Inst::StackAlloc { .. }
                    | Inst::Malloc { .. }
                    | Inst::MallocMeta { .. }
                    | Inst::LoadPtr { .. } => true,
                    Inst::Gep { base, .. } | Inst::GepImm { base, .. } => ptrs.contains(base),
                    _ => false,
                };
                if def_is_ptr {
                    if let Some(d) = i.def() {
                        changed |= ptrs.insert(d);
                    }
                }
                // Uses that imply pointer-ness.
                let implied: Option<VarId> = match i {
                    Inst::BindSpatial { ptr, .. }
                    | Inst::BindTemporal { ptr, .. }
                    | Inst::MetaStore { ptr, .. }
                    | Inst::MetaLoad { ptr, .. }
                    | Inst::Tchk { ptr }
                    | Inst::FreeMeta { ptr, .. }
                    | Inst::Free { ptr } => Some(*ptr),
                    _ => None,
                };
                if let Some(p) = implied {
                    changed |= ptrs.insert(p);
                }
            }
        }
        if !changed {
            return ptrs;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModuleBuilder;

    fn lower(m: &Module) -> Result<(Program, LowerPlan), CompileError> {
        lower_with_plan_opt(m, Scheme::None, OptLevel::O0)
    }

    #[test]
    fn li_materialises_arbitrary_values() {
        // Round-trip a set of tricky constants through the assembler by
        // checking the emitted sequences decode.
        for v in [
            0i64,
            1,
            -1,
            2047,
            -2048,
            2048,
            0x7fff_ffff,
            -0x8000_0000,
            0x1_0000_0000,
            0x1234_5678_9abc_def0u64 as i64,
            i64::MIN,
            i64::MAX,
        ] {
            let mut asm = Asm::new(0);
            asm.li(Reg::T0, v);
            // Interpret the sequence.
            let mut r: i64 = 0;
            for i in &asm.instrs {
                match *i {
                    Instr::AluImm { op, imm, .. } => r = op.eval(r as u64, imm) as i64,
                    Instr::Lui { imm, .. } => r = imm,
                    ref other => panic!("unexpected li instr {other}"),
                }
            }
            assert_eq!(r, v, "li({v:#x}) produced {r:#x}");
        }
    }

    #[test]
    fn lower_rejects_missing_main() {
        let m = Module::default();
        assert!(matches!(lower(&m), Err(CompileError::MissingMain)));
    }

    #[test]
    fn simple_module_lowers_and_disassembles() {
        let mut mb = ModuleBuilder::new();
        let mut f = mb.func("main");
        let a = f.konst(40);
        let b = f.konst(2);
        let c = f.bin(BinOp::Add, a, b);
        f.ret(Some(c));
        f.finish();
        let m = mb.finish();
        let (p, _) = lower(&m).unwrap();
        assert!(p.len() > 5);
        // Every emitted instruction encodes and decodes.
        for i in p.instrs() {
            assert_eq!(hwst_isa::decode(i.encode()).unwrap(), *i);
        }
    }

    #[test]
    fn fn_plan_symbol_ranges_tile_the_text_after_the_shim() {
        let mut mb = ModuleBuilder::new();
        let mut h = mb.func("helper");
        let k = h.konst(7);
        h.ret(Some(k));
        h.finish();
        let mut f = mb.func("main");
        let r = f.call("helper", &[]);
        f.ret(Some(r));
        f.finish();
        let m = mb.finish();
        let (p, plan) = lower(&m).unwrap();
        assert_eq!(plan.funcs.len(), 2);
        let end = p.base() + p.len() as u64 * 4;
        for w in plan.funcs.windows(2) {
            assert_eq!(w[0].end_pc, w[1].start_pc, "functions are contiguous");
        }
        for fp in &plan.funcs {
            assert_eq!(fp.start_pc, p.base() + fp.start as u64 * 4);
            assert_eq!(fp.end_pc, fp.start_pc + fp.len as u64 * 4);
            assert_eq!(plan.func_at_pc(fp.start_pc).unwrap().name, fp.name);
            assert_eq!(plan.func_at_pc(fp.end_pc - 4).unwrap().name, fp.name);
        }
        assert_eq!(plan.funcs.last().unwrap().end_pc, end);
        // The startup shim precedes every function and has no symbol.
        assert!(plan.func_at_pc(p.base()).is_none());
    }
}
