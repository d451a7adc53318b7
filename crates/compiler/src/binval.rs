//! Binary-level translation validation for the HWST128 lowering.
//!
//! The static passes in [`crate::lint`], [`crate::rce`] and
//! [`crate::verify`] all reason about the *IR*. Nothing there says
//! anything about the artifact that actually runs: if the `-O0`
//! back-end in `lower.rs` drops a metadata load, skews a shadow-map
//! offset, or pairs the wrong shadow register with a checked access,
//! every safety claim the repo makes is silently void. This module
//! closes that gap with an abstract interpreter over the *machine
//! code*: it decodes nothing the compiler tells it about semantics —
//! it re-derives the instrumentation structure from the instruction
//! stream itself (via [`hwst_isa::cfg`] CFG recovery) and uses the
//! [`LowerPlan`] side-tables only for function extents, frame geometry
//! and the IR-check ↔ instruction correspondence.
//!
//! # Abstract domain
//!
//! Per machine register the interpreter tracks a product of
//!
//! * a **numeric value** (`Num`): an exact constant, an offset from
//!   the function's entry stack pointer, or ⊤, and
//! * a **provenance** (`Prov`): "this value is the current content
//!   of frame slot *s*", the machine-level image of the IR's
//!   home-slot discipline.
//!
//! Alongside the GPR file it mirrors the shadow register file: for
//! each SRF entry half it tracks *where the metadata came from*
//! (`MetaSrc`) and, when statically known, the decompressed bounds
//! (`Bounds`). Finally it tracks which frame-slot shadow words have
//! been written on **every** path (a must-analysis; joins intersect).
//!
//! # What is proven (per function)
//!
//! * **(a) check/metadata correspondence** — every checked load/store
//!   consumes an SRF entry populated by an `lbdls` from the *same*
//!   home slot the address register was loaded from (the hardware
//!   silently skips the check when the entry is empty or zero — see
//!   `hwst_sim::exec::spatial_check` — so a dropped metadata load
//!   *disables* checking without any observable trap);
//! * **(b) shadow-map addressing** — every `sbdl`/`sbdu` targets a
//!   valid container (an in-frame, 8-aligned slot, or a
//!   pointer-provenanced heap/global container), stores a populated
//!   SRF half, and same-container pairs store coherently-sourced
//!   halves; the LMSM address itself (Eq. 1: `(addr << 2) + offset`)
//!   is applied uniformly by the hardware, so validity reduces to
//!   container validity plus the global layout checks;
//! * **(c) compression-config consistency** — `bndrs`/`bndrt` operands
//!   that are statically constant must be representable under the
//!   active compression config, and the config must cover the layout
//!   (base field spans the user address space, lock field spans the
//!   lock region);
//! * **(d) no silent pointer escape** — a pointer-provenanced value
//!   parked into a pointer home slot requires a shadow store to that
//!   slot somewhere in the function, and a pointer stored through a
//!   pointer (a heap escape) requires a through-pointer shadow store.
//!
//! Checks (a)–(c) are flow-sensitive over the recovered machine CFG;
//! (d) is a flow-insensitive per-function check.
//!
//! When the image was produced with the static bounds-proof pass
//! ([`crate::bounds`]), a fifth obligation applies (checked by
//! [`translation_validate`] whenever `opts.bounds` is set):
//!
//! * **(e) elimination witnesses** — every check the instrumenter
//!   skipped must carry an arithmetically valid proof witness that
//!   resolves to a real check site, and — under
//!   [`Scheme::Hwst128Tchk`] — every checked access whose home slot is
//!   not temporally covered by a reachable `tchk` (directly or through
//!   the parked-pointer copy chain) must be one of the witnessed
//!   sites. An image that dropped a `tchk` without a valid witness
//!   fails validation with a `TCHK_ELIDED` finding; forged witnesses
//!   fail with `WITNESS_INVALID` / `WITNESS_DANGLING`. The
//!   [`witness_campaign`] self-test forges witnesses five different
//!   ways and requires a 100% kill rate.
//!
//! # What is *not* proven
//!
//! This is translation validation, not verification: the validator
//! proves that the lowering *preserved the instrumentation structure*,
//! not that the metadata values are functionally correct, and not that
//! the program is memory-safe (that is the hardware's job at run
//! time). Calls havoc all registers and the whole SRF; slot shadows
//! and slot contents below the alloca region survive calls because
//! home slots are compiler-internal and never address-taken.
//!
//! As a byproduct the interpreter *discharges* checks statically: a
//! checked access whose address and bounds are both known (globals,
//! allocas) is proven in- or out-of-bounds, and a repeated check of an
//! unmodified slot pointer is proven redundant. These counts feed the
//! A9 ablation (checks discharged at binary level beyond IR-level
//! RCE); statically-proven violations are reported as
//! [`FindingClass::StaticBug`] with a CWE class and do **not** fail
//! validation.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use hwst_isa::cfg;
use hwst_isa::{AluImmOp, AluOp, Instr, LoadWidth, Program, Reg, StoreWidth};
use hwst_mem::MemoryLayout;
use hwst_metadata::{CompressionConfig, ShadowCodec};

use crate::bounds::Witness;
use crate::instrument::{self, Scheme, SkippedCheck};
use crate::ir::Module;
use crate::lower::{lower_with_plan_opt, CheckSite, FnPlan, LowerPlan, OptLevel};
use crate::{front_half, rce, verify, CompileError, CompileOptions};

// ---------------------------------------------------------------------------
// Findings
// ---------------------------------------------------------------------------

/// How a finding bears on validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindingClass {
    /// The lowering violated the instrumentation contract. Any such
    /// finding fails validation ([`BinvalReport::ok`]).
    Lowering,
    /// The *program* provably violates memory safety (the lowering is
    /// fine — the check is present and will fire). Reported with a CWE
    /// class; does not fail validation.
    StaticBug,
}

/// One validator diagnostic, anchored to an emitted instruction.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Lowering defect vs. statically-proven program bug.
    pub class: FindingClass,
    /// Stable machine-readable code (e.g. `CHECK_SRF_EMPTY`).
    pub code: &'static str,
    /// Containing function (or `<image>` for global findings).
    pub func: String,
    /// Program-wide instruction index.
    pub at: usize,
    /// Absolute PC of the instruction.
    pub pc: u64,
    /// CWE class for [`FindingClass::StaticBug`] findings.
    pub cwe: Option<u16>,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self.class {
            FindingClass::Lowering => "lowering",
            FindingClass::StaticBug => "static-bug",
        };
        write!(
            f,
            "{kind}: [{code}] {func}+{at} (pc {pc:#x}): {msg}",
            code = self.code,
            func = self.func,
            at = self.at,
            pc = self.pc,
            msg = self.message
        )?;
        if let Some(c) = self.cwe {
            write!(f, " [CWE-{c}]")?;
        }
        Ok(())
    }
}

/// Per-function validation statistics (the A9 ablation inputs).
#[derive(Debug, Clone, Default)]
pub struct FnReport {
    /// Function name.
    pub name: String,
    /// Checked loads/stores encountered (reachable code).
    pub checked_ops: usize,
    /// `tchk` instructions encountered.
    pub tchk_ops: usize,
    /// `lbdls`/`lbdus` metadata loads encountered.
    pub meta_loads: usize,
    /// `sbdl`/`sbdu` shadow stores encountered.
    pub shadow_stores: usize,
    /// Checked ops proven in-bounds from statically-known address and
    /// bounds.
    pub discharged_in_bounds: usize,
    /// Checked ops proven redundant with an earlier identical check of
    /// an unmodified slot pointer.
    pub discharged_redundant: usize,
    /// Checked sites whose temporal check was elided under a bounds
    /// witness (counted only when validating with an [`ElimPlan`]).
    pub tchk_witnessed: usize,
}

impl FnReport {
    /// Total checks statically discharged at binary level.
    pub fn discharged(&self) -> usize {
        self.discharged_in_bounds + self.discharged_redundant
    }
}

/// The result of validating one lowered image.
#[derive(Debug, Clone)]
pub struct BinvalReport {
    /// The scheme the image was lowered for.
    pub scheme: Scheme,
    /// All findings, in discovery order.
    pub findings: Vec<Finding>,
    /// Per-function statistics, in emission order.
    pub funcs: Vec<FnReport>,
}

impl BinvalReport {
    /// `true` when no [`FindingClass::Lowering`] finding was reported.
    pub fn ok(&self) -> bool {
        self.lowering_findings() == 0
    }

    /// Number of lowering (validation-failing) findings.
    pub fn lowering_findings(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.class == FindingClass::Lowering)
            .count()
    }

    /// Number of statically-proven program bugs.
    pub fn static_bugs(&self) -> usize {
        self.findings.len() - self.lowering_findings()
    }

    /// Total checked operations across all functions.
    pub fn checked_ops(&self) -> usize {
        self.funcs.iter().map(|f| f.checked_ops).sum()
    }

    /// Total checks statically discharged across all functions.
    pub fn discharged(&self) -> usize {
        self.funcs.iter().map(|f| f.discharged()).sum()
    }
}

// ---------------------------------------------------------------------------
// Abstract domain
// ---------------------------------------------------------------------------

/// Abstract numeric value: ⊤, an exact constant, or an offset from the
/// function's *entry* stack pointer (so the post-prologue `sp` is
/// `Sp(-frame_size)` and the address of frame slot `s` is
/// `Sp(s - frame_size)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Num {
    Top,
    Const(u64),
    Sp(i64),
}

/// Abstract provenance: is this value the current content of a frame
/// slot? `exact` means the value equals the slot content (a plain
/// reload yields the same value); inexact provenance survives pointer
/// arithmetic and is enough for the correspondence check but not for
/// redundancy discharge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Prov {
    None,
    Slot { off: i64, exact: bool },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct AbsVal {
    prov: Prov,
    num: Num,
}

const TOP: AbsVal = AbsVal {
    prov: Prov::None,
    num: Num::Top,
};

/// Where an SRF half's metadata came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum MetaSrc {
    /// Loaded from the shadow word of frame slot `s`.
    Slot(i64),
    /// Loaded from a heap or global container's shadow word.
    Dyn,
    /// Produced in-register by `bndrs`/`bndrt`.
    Fresh,
}

/// Statically-known spatial bounds (half-open `[base, bound)`),
/// either absolute or entry-`sp`-relative.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Bounds {
    Const(u64, u64),
    Sp(i64, i64),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SrfHalf {
    src: MetaSrc,
    bounds: Option<Bounds>,
}

/// A map kept as one vector of entries sorted by key. The abstract
/// state's maps hold a few frame slots each, and the fixpoint clones
/// and joins states at every block edge: a vector clones in one
/// allocation, and [`VecMap::meet`] intersects two maps in one merge
/// pass, in place. A set is a map to `()`.
#[derive(Debug, Clone, PartialEq)]
struct VecMap<K, V>(Vec<(K, V)>);

type VecSet<K> = VecMap<K, ()>;

impl<K: Ord + Copy, V: Copy + PartialEq> VecMap<K, V> {
    const fn new() -> Self {
        VecMap(Vec::new())
    }

    fn find(&self, k: &K) -> Result<usize, usize> {
        self.0.binary_search_by(|(e, _)| e.cmp(k))
    }

    fn get(&self, k: &K) -> Option<&V> {
        self.find(k).ok().map(|i| &self.0[i].1)
    }

    fn get_mut(&mut self, k: &K) -> Option<&mut V> {
        self.find(k).ok().map(|i| &mut self.0[i].1)
    }

    fn contains_key(&self, k: &K) -> bool {
        self.find(k).is_ok()
    }

    fn insert(&mut self, k: K, v: V) {
        match self.find(&k) {
            Ok(i) => self.0[i].1 = v,
            Err(i) => self.0.insert(i, (k, v)),
        }
    }

    fn remove(&mut self, k: &K) {
        if let Ok(i) = self.find(k) {
            self.0.remove(i);
        }
    }

    fn retain(&mut self, mut keep: impl FnMut(&K, &V) -> bool) {
        self.0.retain(|(k, v)| keep(k, v));
    }

    /// Intersects `self` with `other` in place: a key present in both
    /// keeps `join(mine, theirs)` and is dropped when that is `None`;
    /// every other key is dropped. Returns whether `self` changed.
    fn meet(&mut self, other: &Self, join: impl Fn(V, V) -> Option<V>) -> bool {
        let len = self.0.len();
        let mut changed = false;
        let mut theirs = other.0.iter().peekable();
        self.0.retain_mut(|(k, v)| {
            while theirs.next_if(|(o, _)| o < k).is_some() {}
            let Some(&(_, ov)) = theirs.next_if(|(o, _)| o == k) else {
                return false;
            };
            let Some(j) = join(*v, ov) else {
                return false;
            };
            changed |= j != *v;
            *v = j;
            true
        });
        changed || self.0.len() != len
    }
}

/// The per-program-point abstract state. All compound members are
/// must-information: joins intersect.
#[derive(Debug, Clone, PartialEq)]
struct AbsState {
    regs: [AbsVal; 32],
    srf_l: [Option<SrfHalf>; 32],
    srf_u: [Option<SrfHalf>; 32],
    /// Known contents of frame slots (keyed by frame offset).
    vals: VecMap<i64, Num>,
    /// Frame-slot shadow words (lower half) written on every path,
    /// with their content's bounds when statically known.
    shadow_l: VecMap<i64, Option<Bounds>>,
    /// Frame-slot shadow words (upper half) written on every path.
    shadow_u: VecSet<i64>,
    /// Checks already performed: (pointer slot, access offset, bytes).
    done: VecSet<(i64, i64, u64)>,
}

impl AbsState {
    fn entry() -> Self {
        let mut regs = [TOP; 32];
        regs[Reg::Zero.index() as usize].num = Num::Const(0);
        regs[Reg::Sp.index() as usize].num = Num::Sp(0);
        AbsState {
            regs,
            srf_l: [None; 32],
            srf_u: [None; 32],
            vals: VecMap::new(),
            shadow_l: VecMap::new(),
            shadow_u: VecSet::new(),
            done: VecSet::new(),
        }
    }

    /// Overwrites `self` with `other`, reusing the slot maps' buffers.
    fn assign(&mut self, other: &AbsState) {
        self.regs = other.regs;
        self.srf_l = other.srf_l;
        self.srf_u = other.srf_u;
        self.vals.0.clone_from(&other.vals.0);
        self.shadow_l.0.clone_from(&other.shadow_l.0);
        self.shadow_u.0.clone_from(&other.shadow_u.0);
        self.done.0.clone_from(&other.done.0);
    }
}

fn join_num(a: Num, b: Num) -> Num {
    if a == b {
        a
    } else {
        Num::Top
    }
}

fn join_prov(a: Prov, b: Prov) -> Prov {
    match (a, b) {
        (Prov::Slot { off: oa, exact: ea }, Prov::Slot { off: ob, exact: eb }) if oa == ob => {
            Prov::Slot {
                off: oa,
                exact: ea && eb,
            }
        }
        _ => Prov::None,
    }
}

fn join_half(a: Option<SrfHalf>, b: Option<SrfHalf>) -> Option<SrfHalf> {
    match (a, b) {
        (Some(x), Some(y)) if x.src == y.src => Some(SrfHalf {
            src: x.src,
            bounds: if x.bounds == y.bounds { x.bounds } else { None },
        }),
        _ => None,
    }
}

/// Stores `v` in `slot` and reports whether that changed it.
fn update<T: PartialEq>(slot: &mut T, v: T) -> bool {
    let changed = *slot != v;
    *slot = v;
    changed
}

/// Joins `st` into `prev` in place and reports whether `prev` changed.
fn join_into(prev: &mut AbsState, st: &AbsState) -> bool {
    let mut changed = false;
    for i in 0..32 {
        let (a, b) = (prev.regs[i], st.regs[i]);
        let reg = AbsVal {
            prov: join_prov(a.prov, b.prov),
            num: join_num(a.num, b.num),
        };
        let lower = join_half(prev.srf_l[i], st.srf_l[i]);
        let upper = join_half(prev.srf_u[i], st.srf_u[i]);
        changed |= update(&mut prev.regs[i], reg);
        changed |= update(&mut prev.srf_l[i], lower);
        changed |= update(&mut prev.srf_u[i], upper);
    }
    changed |= prev.vals.meet(&st.vals, |a, b| (a == b).then_some(a));
    changed |= prev
        .shadow_l
        .meet(&st.shadow_l, |a, b| Some(if a == b { a } else { None }));
    changed |= prev.shadow_u.meet(&st.shadow_u, |(), ()| Some(()));
    changed |= prev.done.meet(&st.done, |(), ()| Some(()));
    changed
}

// ---------------------------------------------------------------------------
// The per-function interpreter
// ---------------------------------------------------------------------------

/// Block visits the fixpoint may make per recovered block, with four
/// blocks' worth of slack, before it gives up and fails closed. The
/// kernels converge in about two visits per block.
const FUEL_PER_BLOCK: usize = 64;

/// Where a shadow access lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Container {
    /// A frame slot, by frame offset.
    Slot(i64),
    /// A statically-known absolute address (a global / `__meta` area).
    Global(u64),
    /// Through a pointer whose home slot is known.
    Dyn(i64),
    /// No idea where this lands.
    Unknown,
}

/// Key for `sbdl`/`sbdu` pair-coherence tracking within a block:
/// syntactic base register + offset + resolved container.
type PairKey = (u8, i64, Container);

struct FnInterp<'a> {
    instrs: &'a [Instr],
    base: u64,
    plan: &'a FnPlan,
    scheme: Scheme,
    codec: ShadowCodec,
    fs: i64,
    ptr_slots: BTreeSet<i64>,
    check_at: HashMap<usize, &'a CheckSite>,
    /// Emit findings/stats (final pass) vs. fixpoint-only.
    emit: bool,
    findings: Vec<Finding>,
    stats: FnReport,
    // Flow-insensitive escape accounting (check d), emit pass only.
    ptr_store_slots: BTreeSet<(usize, i64)>,
    sbdl_slots: BTreeSet<i64>,
    /// Reachable `sbdl` instructions targeting a dynamic (heap/global)
    /// container — the machine image of the IR's `MetaStore` copies.
    sbdl_dyn: usize,
    // Temporal-coverage accounting (check e), emit pass only.
    /// Reachable `tchk` instructions and the home slot whose pointer
    /// each one consumed.
    tchk_sites: Vec<(usize, i64)>,
    /// Coverage is untrackable in this function: a reachable `tchk`
    /// consumed a pointer of unknown provenance, or the fixpoint ran out
    /// of fuel. The coverage obligation is skipped; either cause is
    /// already a lowering finding of its own.
    coverage_unknown: bool,
    /// Parked-pointer copy edges, destination slot → source slots: a
    /// store into pointer slot `d` of a value derived from pointer
    /// slot `s` records `d → s`, so a `tchk` of `s` temporally covers
    /// accesses through `d` (same pointer value, same key).
    copy_edges: BTreeMap<i64, BTreeSet<i64>>,
    /// Emit-pass slot-source tracking feeding [`FnInterp::copy_edges`]:
    /// for each GPR, the set of frame slots its current value could
    /// derive from. Deliberately separate from [`Prov`], which must
    /// stay a *single* object for the spatial checks — a derived
    /// pointer (`ld` base, `add` a loaded index, `sd`) mixes two
    /// slot-sourced registers, and coverage wants the union, not
    /// `Prov::None`. Reset at block entry (lowered code never carries
    /// live values across blocks in registers).
    reg_srcs: Vec<BTreeSet<i64>>,
    /// Interned virtual source ids for heap cells `(container slot,
    /// offset)`, so two loads of the same cell share a source and a
    /// pointer stored through one name and reloaded through another
    /// stays on the coverage graph. Ids are negative — they can never
    /// collide with a frame slot.
    heap_srcs: BTreeMap<(i64, i64), i64>,
}

fn num_add(n: Num, d: i64) -> Num {
    match n {
        Num::Top => Num::Top,
        Num::Const(c) => Num::Const(c.wrapping_add(d as u64)),
        Num::Sp(o) => Num::Sp(o.wrapping_add(d)),
    }
}

fn eval_alu_imm(op: AluImmOp, n: Num, imm: i64) -> Num {
    match (op, n) {
        (AluImmOp::Addi, _) => num_add(n, imm),
        (_, Num::Const(c)) => Num::Const(op.eval(c, imm)),
        _ => Num::Top,
    }
}

fn eval_alu(op: AluOp, a: Num, b: Num) -> Num {
    match (op, a, b) {
        (_, Num::Const(x), Num::Const(y)) => Num::Const(op.eval(x, y)),
        (AluOp::Add, Num::Sp(d), Num::Const(c)) | (AluOp::Add, Num::Const(c), Num::Sp(d)) => {
            Num::Sp(d.wrapping_add(c as i64))
        }
        (AluOp::Sub, Num::Sp(d), Num::Const(c)) => Num::Sp(d.wrapping_sub(c as i64)),
        (AluOp::Sub, Num::Sp(x), Num::Sp(y)) => Num::Const(x.wrapping_sub(y) as u64),
        _ => Num::Top,
    }
}

/// Which GPR does `i` define, if any? (SRF-only writers like `lbdls`
/// do not count.)
fn gpr_def(i: &Instr) -> Option<Reg> {
    match *i {
        Instr::Lui { rd, .. }
        | Instr::Auipc { rd, .. }
        | Instr::Alu { rd, .. }
        | Instr::AluImm { rd, .. }
        | Instr::Load { rd, .. }
        | Instr::Csr { rd, .. }
        | Instr::Lbas { rd, .. }
        | Instr::Lbnd { rd, .. }
        | Instr::Lkey { rd, .. }
        | Instr::Lloc { rd, .. } => Some(rd),
        _ => None,
    }
}

impl<'a> FnInterp<'a> {
    fn new(
        instrs: &'a [Instr],
        base: u64,
        plan: &'a FnPlan,
        scheme: Scheme,
        codec: ShadowCodec,
    ) -> Self {
        FnInterp {
            instrs,
            base,
            plan,
            scheme,
            codec,
            fs: plan.frame_size,
            ptr_slots: plan.ptr_slots.iter().copied().collect(),
            check_at: plan.checks.iter().map(|c| (c.at, c)).collect(),
            emit: false,
            findings: Vec::new(),
            stats: FnReport {
                name: plan.name.clone(),
                ..FnReport::default()
            },
            ptr_store_slots: BTreeSet::new(),
            sbdl_slots: BTreeSet::new(),
            sbdl_dyn: 0,
            tchk_sites: Vec::new(),
            coverage_unknown: false,
            copy_edges: BTreeMap::new(),
            reg_srcs: vec![BTreeSet::new(); 32],
            heap_srcs: BTreeMap::new(),
        }
    }

    /// The virtual source id of heap cell `(container, offset)`.
    fn heap_src(&mut self, container: i64, offset: i64) -> i64 {
        let n = self.heap_srcs.len() as i64;
        *self
            .heap_srcs
            .entry((container, offset))
            .or_insert(-(n + 1))
    }

    /// The slot-source set of `r` (empty for `x0` and unknown values).
    fn srcs(&self, r: Reg) -> BTreeSet<i64> {
        self.reg_srcs[r.index() as usize].clone()
    }

    fn set_srcs(&mut self, rd: Reg, s: BTreeSet<i64>) {
        if !rd.is_zero() {
            self.reg_srcs[rd.index() as usize] = s;
        }
    }

    /// Emit-pass-only update of [`FnInterp::reg_srcs`] /
    /// [`FnInterp::copy_edges`] from the *pre*-instruction state:
    /// frame-slot loads seed a register's source set, ALU ops
    /// propagate and union it, any other definition (including a
    /// call's clobber) clears it, and a store into a frame slot
    /// records the destination→sources edges.
    fn track_srcs(&mut self, st: &AbsState, i: &Instr) {
        match *i {
            Instr::Load {
                rd, rs1, offset, ..
            } => {
                let a = st.regs[rs1.index() as usize];
                let mut s = BTreeSet::new();
                match num_add(a.num, offset) {
                    Num::Sp(d) => {
                        s.insert(d.wrapping_add(self.fs));
                    }
                    _ => {
                        // A load through a slot-homed pointer reads a
                        // nameable heap cell.
                        if let Prov::Slot { off, exact: true } = a.prov {
                            s.insert(self.heap_src(off, offset));
                        }
                    }
                }
                self.set_srcs(rd, s);
            }
            Instr::AluImm { rd, rs1, .. } => {
                let s = self.srcs(rs1);
                self.set_srcs(rd, s);
            }
            Instr::Alu { rd, rs1, rs2, .. } => {
                let mut s = self.srcs(rs1);
                s.extend(self.srcs(rs2));
                self.set_srcs(rd, s);
            }
            Instr::Store {
                rs1, rs2, offset, ..
            } => {
                let a = st.regs[rs1.index() as usize];
                let dest = match num_add(a.num, offset) {
                    Num::Sp(d) => Some(d.wrapping_add(self.fs)),
                    _ => match a.prov {
                        Prov::Slot { off, exact: true } => Some(self.heap_src(off, offset)),
                        _ => None,
                    },
                };
                let srcs = self.srcs(rs2);
                if let Some(d) = dest {
                    if !srcs.is_empty() {
                        self.copy_edges.entry(d).or_default().extend(srcs);
                    }
                }
            }
            Instr::Jal { rd, .. } => {
                if !rd.is_zero() {
                    for s in &mut self.reg_srcs {
                        s.clear();
                    }
                }
            }
            _ => {
                if let Some(rd) = gpr_def(i) {
                    self.set_srcs(rd, BTreeSet::new());
                }
            }
        }
    }

    fn pc(&self, at: usize) -> u64 {
        self.base + at as u64 * 4
    }

    fn finding(&mut self, class: FindingClass, code: &'static str, at: usize, message: String) {
        self.finding_cwe(class, code, at, None, message);
    }

    fn finding_cwe(
        &mut self,
        class: FindingClass,
        code: &'static str,
        at: usize,
        cwe: Option<u16>,
        message: String,
    ) {
        if self.emit {
            self.findings.push(Finding {
                class,
                code,
                func: self.plan.name.clone(),
                at,
                pc: self.pc(at),
                cwe,
                message,
            });
        }
    }

    /// Is `s` a plausible frame-slot container for shadow traffic?
    /// Slot 0 is the return-address slot and never carries metadata.
    fn valid_slot(&self, s: i64) -> bool {
        s >= 8 && s < self.fs && s % 8 == 0
    }

    fn set_reg(&self, st: &mut AbsState, rd: Reg, v: AbsVal) {
        if !rd.is_zero() {
            st.regs[rd.index() as usize] = v;
        }
    }

    fn srf_clear(&self, st: &mut AbsState, rd: Reg) {
        let r = rd.index() as usize;
        st.srf_l[r] = None;
        st.srf_u[r] = None;
    }

    /// Mirrors `Srf::propagate`: copy the first source whose entry is
    /// (known) valid; otherwise invalidate.
    fn srf_propagate(&self, st: &mut AbsState, rd: Reg, rs1: Reg, rs2: Option<Reg>) {
        if rd.is_zero() {
            return;
        }
        let valid = |st: &AbsState, r: Reg| {
            let i = r.index() as usize;
            st.srf_l[i].is_some() || st.srf_u[i].is_some()
        };
        let src = if valid(st, rs1) {
            Some(rs1)
        } else {
            rs2.filter(|&r| valid(st, r))
        };
        let d = rd.index() as usize;
        match src {
            Some(r) => {
                let s = r.index() as usize;
                st.srf_l[d] = st.srf_l[s];
                st.srf_u[d] = st.srf_u[s];
            }
            None => {
                st.srf_l[d] = None;
                st.srf_u[d] = None;
            }
        }
    }

    /// Value changed at frame offset `s`: provenance into that slot is
    /// stale, prior checks of the pointer it held no longer discharge
    /// later ones, and any statically-known shadow *content* for it is
    /// no longer trustworthy (the shadow word itself stays written).
    fn kill_slot(&self, st: &mut AbsState, s: i64) {
        for r in st.regs.iter_mut() {
            if matches!(r.prov, Prov::Slot { off, .. } if off == s) {
                r.prov = Prov::None;
            }
        }
        st.done.retain(|&(sl, _, _), _| sl != s);
        if let Some(b) = st.shadow_l.get_mut(&s) {
            *b = None;
        }
    }

    fn call_havoc(&self, st: &mut AbsState) {
        let sp = Reg::Sp.index() as usize;
        let zero = Reg::Zero.index() as usize;
        for (i, r) in st.regs.iter_mut().enumerate() {
            if i != sp && i != zero {
                *r = TOP;
            }
        }
        st.srf_l = [None; 32];
        st.srf_u = [None; 32];
        // The callee can reach our alloca areas through escaped
        // pointers, but never our home slots or spill locals (they are
        // compiler-internal and not address-taken). Shadow words of
        // home slots survive for the same reason.
        let ab = self.plan.alloca_base;
        st.vals.retain(|&k, _| k < ab);
    }

    fn container_of(&self, st: &AbsState, rs1: Reg, offset: i64) -> Container {
        let v = st.regs[rs1.index() as usize];
        match num_add(v.num, offset) {
            Num::Sp(d) => Container::Slot(d.wrapping_add(self.fs)),
            Num::Const(c) => Container::Global(c),
            Num::Top => match v.prov {
                Prov::Slot { off, .. } => Container::Dyn(off),
                Prov::None => Container::Unknown,
            },
        }
    }

    /// Check (a) at a checked load/store, plus the A9 discharge
    /// accounting and static bounds evaluation.
    #[allow(clippy::too_many_arguments)]
    fn check_access(
        &mut self,
        st: &mut AbsState,
        at: usize,
        rs1: Reg,
        offset: i64,
        bytes: u64,
        is_store: bool,
    ) {
        if self.emit {
            self.stats.checked_ops += 1;
        }
        let rv = st.regs[rs1.index() as usize];
        let slot = match rv.prov {
            Prov::Slot { off, .. } if self.ptr_slots.contains(&off) => off,
            _ => {
                self.finding(
                    FindingClass::Lowering,
                    "CHECK_ADDR_UNKNOWN",
                    at,
                    format!(
                        "checked {} consumes an address of unknown pointer provenance",
                        if is_store { "store" } else { "load" }
                    ),
                );
                return;
            }
        };
        let half = st.srf_l[rs1.index() as usize];
        let half = match half {
            None => {
                self.finding(
                    FindingClass::Lowering,
                    "CHECK_SRF_EMPTY",
                    at,
                    format!(
                        "checked {} consumes SRF[{rs1}] which is not populated on every \
                         path — the hardware silently skips the bounds check",
                        if is_store { "store" } else { "load" }
                    ),
                );
                return;
            }
            Some(h) => h,
        };
        match half.src {
            MetaSrc::Slot(ms) if ms == slot => {}
            MetaSrc::Fresh => {} // bounds bound in-register: still checked
            other => {
                self.finding(
                    FindingClass::Lowering,
                    "CHECK_SRF_MISMATCH",
                    at,
                    format!(
                        "checked access address comes from slot {slot} but SRF[{rs1}] \
                         was populated from {other:?} — the check guards the wrong metadata"
                    ),
                );
                return;
            }
        }
        // Lowering plan cross-check: the IR side-table must know this
        // site and agree on the slot.
        match self.check_at.get(&at) {
            None => self.finding(
                FindingClass::Lowering,
                "PLAN_MISSING",
                at,
                "checked instruction not recorded as an IR check site".to_string(),
            ),
            Some(site) if site.slot != slot => self.finding(
                FindingClass::Lowering,
                "PLAN_MISMATCH",
                at,
                format!(
                    "lowering plan maps this check to slot {}, machine state says {slot}",
                    site.slot
                ),
            ),
            Some(_) => {}
        }
        // Static discharge / static bug detection.
        let addr = num_add(rv.num, offset);
        let verdict = match (half.bounds, addr) {
            (Some(Bounds::Const(lo, hi)), Num::Const(a)) => {
                Some((a < lo, a.wrapping_add(bytes) > hi, a == 0, false))
            }
            (Some(Bounds::Sp(lo, hi)), Num::Sp(a)) => {
                Some((a < lo, a.wrapping_add(bytes as i64) > hi, false, true))
            }
            _ => None,
        };
        let mut discharged = false;
        if let Some((under, over, null, stack)) = verdict {
            if under || over {
                let cwe = if null {
                    476
                } else {
                    match (is_store, under) {
                        (true, true) => 124,
                        (true, false) => {
                            if stack {
                                121
                            } else {
                                122
                            }
                        }
                        (false, true) => 127,
                        (false, false) => 126,
                    }
                };
                self.finding_cwe(
                    FindingClass::StaticBug,
                    "STATIC_OOB",
                    at,
                    Some(cwe),
                    format!(
                        "access provably out of bounds: {bytes}-byte {} at statically-known \
                         address outside the bound metadata",
                        if is_store { "store" } else { "load" }
                    ),
                );
            } else {
                discharged = true;
                if self.emit {
                    self.stats.discharged_in_bounds += 1;
                }
            }
        }
        if let Prov::Slot { exact: true, .. } = rv.prov {
            let key = (slot, offset, bytes);
            if st.done.contains_key(&key) {
                if !discharged && self.emit {
                    self.stats.discharged_redundant += 1;
                }
            } else {
                st.done.insert(key, ());
            }
        }
    }

    fn transfer(
        &mut self,
        st: &mut AbsState,
        at: usize,
        pairs: &mut HashMap<PairKey, Option<MetaSrc>>,
    ) {
        let i = self.instrs[at];
        if self.emit {
            self.track_srcs(st, &i);
        }
        if !self.scheme.uses_hardware() {
            let hw = matches!(
                i,
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
                    | Instr::Load { checked: true, .. }
                    | Instr::Store { checked: true, .. }
            );
            if hw {
                self.finding(
                    FindingClass::Lowering,
                    "SCHEME_VIOLATION",
                    at,
                    format!("HWST128 instruction emitted under scheme {:?}", self.scheme),
                );
            }
        }
        match i {
            Instr::Lui { rd, imm } => {
                self.set_reg(
                    st,
                    rd,
                    AbsVal {
                        prov: Prov::None,
                        num: Num::Const(imm as u64),
                    },
                );
                self.srf_clear(st, rd);
            }
            Instr::Auipc { rd, imm } => {
                self.set_reg(
                    st,
                    rd,
                    AbsVal {
                        prov: Prov::None,
                        num: Num::Const(self.pc(at).wrapping_add(imm as u64)),
                    },
                );
                self.srf_clear(st, rd);
            }
            Instr::AluImm { op, rd, rs1, imm } => {
                let src = st.regs[rs1.index() as usize];
                let num = eval_alu_imm(op, src.num, imm);
                let prov = match src.prov {
                    Prov::Slot { off, exact } => Prov::Slot {
                        off,
                        exact: exact && op == AluImmOp::Addi && imm == 0,
                    },
                    Prov::None => Prov::None,
                };
                self.set_reg(st, rd, AbsVal { prov, num });
                self.srf_propagate(st, rd, rs1, None);
            }
            Instr::Alu { op, rd, rs1, rs2 } => {
                let a = st.regs[rs1.index() as usize];
                let b = st.regs[rs2.index() as usize];
                let num = eval_alu(op, a.num, b.num);
                // Pointer arithmetic keeps (inexact) provenance when
                // exactly one operand is pointer-provenanced.
                let prov = match (a.prov, b.prov) {
                    (Prov::Slot { off, .. }, Prov::None) | (Prov::None, Prov::Slot { off, .. }) => {
                        Prov::Slot { off, exact: false }
                    }
                    _ => Prov::None,
                };
                self.set_reg(st, rd, AbsVal { prov, num });
                self.srf_propagate(st, rd, rs1, Some(rs2));
            }
            Instr::Load {
                width,
                rd,
                rs1,
                offset,
                checked,
            } => {
                if checked {
                    self.check_access(st, at, rs1, offset, width.bytes(), false);
                }
                let addr = num_add(st.regs[rs1.index() as usize].num, offset);
                let v = if let Num::Sp(d) = addr {
                    let s = d.wrapping_add(self.fs);
                    let num = if width == LoadWidth::D {
                        st.vals.get(&s).copied().unwrap_or(Num::Top)
                    } else {
                        Num::Top
                    };
                    AbsVal {
                        prov: Prov::Slot {
                            off: s,
                            exact: true,
                        },
                        num,
                    }
                } else {
                    TOP
                };
                self.set_reg(st, rd, v);
                self.srf_clear(st, rd);
            }
            Instr::Store {
                width,
                rs1,
                rs2,
                offset,
                checked,
            } => {
                if checked {
                    self.check_access(st, at, rs1, offset, width.bytes(), true);
                }
                let addr = num_add(st.regs[rs1.index() as usize].num, offset);
                let val = st.regs[rs2.index() as usize];
                match addr {
                    Num::Sp(d) => {
                        let s = d.wrapping_add(self.fs);
                        self.kill_slot(st, s);
                        if width == StoreWidth::D && val.num != Num::Top {
                            st.vals.insert(s, val.num);
                        } else {
                            st.vals.remove(&s);
                        }
                        // Store-forwarding: after a full-width store of
                        // a register into a pointer home slot, the
                        // register provably holds that slot's current
                        // value — exactly the fact the `-O1` cache
                        // relies on when a later checked access consumes
                        // the register without an intervening reload.
                        if width == StoreWidth::D && !rs2.is_zero() && self.ptr_slots.contains(&s) {
                            st.regs[rs2.index() as usize].prov = Prov::Slot {
                                off: s,
                                exact: true,
                            };
                        }
                        if self.emit {
                            if let Prov::Slot { off: p, .. } = val.prov {
                                if self.ptr_slots.contains(&p) && self.ptr_slots.contains(&s) {
                                    self.ptr_store_slots.insert((at, s));
                                }
                            }
                        }
                    }
                    Num::Const(_) | Num::Top => {
                        if addr == Num::Top {
                            // An unknown-target store may alias our
                            // alloca areas (never home slots/locals).
                            let ab = self.plan.alloca_base;
                            st.vals.retain(|&k, _| k < ab);
                        }
                    }
                }
            }
            Instr::Jal { rd, .. } => {
                if !rd.is_zero() {
                    self.call_havoc(st);
                }
            }
            Instr::Jalr { .. } | Instr::Branch { .. } | Instr::Fence | Instr::Ebreak => {}
            Instr::Csr { rd, .. } => {
                self.set_reg(st, rd, TOP);
                self.srf_clear(st, rd);
            }
            Instr::Ecall => {
                // Syscalls return in a0/a1 and clobber nothing else we
                // track; be conservative about the whole a-file.
                for r in [
                    Reg::A0,
                    Reg::A1,
                    Reg::A2,
                    Reg::A3,
                    Reg::A4,
                    Reg::A5,
                    Reg::A6,
                    Reg::A7,
                ] {
                    self.set_reg(st, r, TOP);
                    self.srf_clear(st, r);
                }
            }
            Instr::Bndrs { rd, rs1, rs2 } => {
                let a = st.regs[rs1.index() as usize].num;
                let b = st.regs[rs2.index() as usize].num;
                let bounds = match (a, b) {
                    (Num::Const(lo), Num::Const(hi)) => {
                        if let Err(e) = self.codec.compress_spatial(lo, hi) {
                            self.finding(
                                FindingClass::Lowering,
                                "COMPRESS_UNREPRESENTABLE",
                                at,
                                format!(
                                    "bndrs operands ({lo:#x}, {hi:#x}) not representable \
                                     under the active compression config: {e}"
                                ),
                            );
                        }
                        Some(Bounds::Const(lo, hi))
                    }
                    (Num::Sp(lo), Num::Sp(hi)) => Some(Bounds::Sp(lo, hi)),
                    _ => None,
                };
                if !rd.is_zero() {
                    st.srf_l[rd.index() as usize] = Some(SrfHalf {
                        src: MetaSrc::Fresh,
                        bounds,
                    });
                }
            }
            Instr::Bndrt { rd, rs1, rs2 } => {
                let k = st.regs[rs1.index() as usize].num;
                let l = st.regs[rs2.index() as usize].num;
                if let (Num::Const(key), Num::Const(lock)) = (k, l) {
                    if let Err(e) = self.codec.compress_temporal(key, lock) {
                        self.finding(
                            FindingClass::Lowering,
                            "COMPRESS_UNREPRESENTABLE",
                            at,
                            format!(
                                "bndrt operands ({key:#x}, {lock:#x}) not representable \
                                 under the active compression config: {e}"
                            ),
                        );
                    }
                }
                if !rd.is_zero() {
                    st.srf_u[rd.index() as usize] = Some(SrfHalf {
                        src: MetaSrc::Fresh,
                        bounds: None,
                    });
                }
            }
            Instr::Lbdls { rd, rs1, offset } => {
                if self.emit {
                    self.stats.meta_loads += 1;
                }
                let c = self.container_of(st, rs1, offset);
                let half = match c {
                    Container::Slot(s) => {
                        if !self.valid_slot(s) {
                            self.finding(
                                FindingClass::Lowering,
                                "BAD_CONTAINER",
                                at,
                                format!(
                                    "lbdls reads the shadow of frame offset {s}, which is \
                                     not a metadata-bearing slot"
                                ),
                            );
                            SrfHalf {
                                src: MetaSrc::Dyn,
                                bounds: None,
                            }
                        } else if let Some(&b) = st.shadow_l.get(&s) {
                            SrfHalf {
                                src: MetaSrc::Slot(s),
                                bounds: b,
                            }
                        } else {
                            self.finding(
                                FindingClass::Lowering,
                                "SHADOW_UNWRITTEN",
                                at,
                                format!(
                                    "lbdls reads slot {s}'s shadow word, but no sbdl wrote \
                                     it on every path to here — the loaded metadata is \
                                     unbound (reads as zero ⇒ checks silently pass)"
                                ),
                            );
                            SrfHalf {
                                src: MetaSrc::Slot(s),
                                bounds: None,
                            }
                        }
                    }
                    Container::Global(_) | Container::Dyn(_) => SrfHalf {
                        src: MetaSrc::Dyn,
                        bounds: None,
                    },
                    Container::Unknown => {
                        self.finding(
                            FindingClass::Lowering,
                            "BAD_CONTAINER",
                            at,
                            "lbdls container address has unknown provenance".to_string(),
                        );
                        SrfHalf {
                            src: MetaSrc::Dyn,
                            bounds: None,
                        }
                    }
                };
                if !rd.is_zero() {
                    st.srf_l[rd.index() as usize] = Some(half);
                }
            }
            Instr::Lbdus { rd, rs1, offset } => {
                if self.emit {
                    self.stats.meta_loads += 1;
                }
                // An unwritten upper shadow word reads as zero, which
                // decompresses to lock 0 = "no temporal metadata" and
                // is benign — so no must-written check here.
                let src = match self.container_of(st, rs1, offset) {
                    Container::Slot(s) if self.valid_slot(s) => MetaSrc::Slot(s),
                    Container::Unknown => {
                        self.finding(
                            FindingClass::Lowering,
                            "BAD_CONTAINER",
                            at,
                            "lbdus container address has unknown provenance".to_string(),
                        );
                        MetaSrc::Dyn
                    }
                    _ => MetaSrc::Dyn,
                };
                if !rd.is_zero() {
                    st.srf_u[rd.index() as usize] = Some(SrfHalf { src, bounds: None });
                }
            }
            Instr::Sbdl { rs1, rs2, offset } => {
                if self.emit {
                    self.stats.shadow_stores += 1;
                }
                let src = st.srf_l[rs2.index() as usize];
                if src.is_none() {
                    self.finding(
                        FindingClass::Lowering,
                        "SBD_UNPOPULATED",
                        at,
                        format!(
                            "sbdl stores SRF[{rs2}].lower which is not populated on every \
                             path — it would write zero bounds (checks silently pass)"
                        ),
                    );
                }
                let c = self.container_of(st, rs1, offset);
                match c {
                    Container::Slot(s) => {
                        if !self.valid_slot(s) {
                            self.finding(
                                FindingClass::Lowering,
                                "BAD_CONTAINER",
                                at,
                                format!(
                                    "sbdl writes the shadow of frame offset {s}, which is \
                                     not a metadata-bearing slot"
                                ),
                            );
                        } else {
                            st.shadow_l.insert(s, src.and_then(|h| h.bounds));
                            st.done.retain(|&(sl, _, _), _| sl != s);
                            for (r, h) in st.srf_l.iter_mut().enumerate() {
                                if r != rs2.index() as usize
                                    && matches!(h, Some(x) if x.src == MetaSrc::Slot(s))
                                {
                                    *h = None;
                                }
                            }
                            if self.emit {
                                self.sbdl_slots.insert(s);
                            }
                        }
                    }
                    Container::Global(_) | Container::Dyn(_) => {
                        if self.emit {
                            self.sbdl_dyn += 1;
                        }
                    }
                    Container::Unknown => {
                        self.finding(
                            FindingClass::Lowering,
                            "BAD_CONTAINER",
                            at,
                            "sbdl container address has unknown provenance".to_string(),
                        );
                    }
                }
                pairs.insert((rs1.index(), offset, c), src.map(|h| h.src));
            }
            Instr::Sbdu { rs1, rs2, offset } => {
                if self.emit {
                    self.stats.shadow_stores += 1;
                }
                let src = st.srf_u[rs2.index() as usize];
                if src.is_none() {
                    self.finding(
                        FindingClass::Lowering,
                        "SBD_UNPOPULATED",
                        at,
                        format!(
                            "sbdu stores SRF[{rs2}].upper which is not populated on every \
                             path — it would write a zero temporal half"
                        ),
                    );
                }
                let c = self.container_of(st, rs1, offset);
                match c {
                    Container::Slot(s) => {
                        if !self.valid_slot(s) {
                            self.finding(
                                FindingClass::Lowering,
                                "BAD_CONTAINER",
                                at,
                                format!(
                                    "sbdu writes the shadow of frame offset {s}, which is \
                                     not a metadata-bearing slot"
                                ),
                            );
                        } else {
                            st.shadow_u.insert(s, ());
                            for (r, h) in st.srf_u.iter_mut().enumerate() {
                                if r != rs2.index() as usize
                                    && matches!(h, Some(x) if x.src == MetaSrc::Slot(s))
                                {
                                    *h = None;
                                }
                            }
                        }
                    }
                    Container::Global(_) | Container::Dyn(_) => {}
                    Container::Unknown => {
                        self.finding(
                            FindingClass::Lowering,
                            "BAD_CONTAINER",
                            at,
                            "sbdu container address has unknown provenance".to_string(),
                        );
                    }
                }
                // Pair coherence: an sbdu against the same container as
                // a preceding sbdl in this block must store a half
                // sourced from the same place — catching "lower from
                // slot A, upper from slot B" register mix-ups.
                if let Some(&Some(lsrc)) = pairs.get(&(rs1.index(), offset, c)) {
                    if let Some(h) = src {
                        if h.src != lsrc {
                            self.finding(
                                FindingClass::Lowering,
                                "SBD_PAIR_INCOHERENT",
                                at,
                                format!(
                                    "sbdl/sbdu pair stores halves from different sources \
                                     ({lsrc:?} vs {:?}) to the same container",
                                    h.src
                                ),
                            );
                        }
                    }
                }
            }
            Instr::Lbas { rd, .. }
            | Instr::Lbnd { rd, .. }
            | Instr::Lkey { rd, .. }
            | Instr::Lloc { rd, .. } => {
                self.set_reg(st, rd, TOP);
                self.srf_clear(st, rd);
            }
            Instr::Tchk { rs1 } => {
                if self.emit {
                    self.stats.tchk_ops += 1;
                }
                let rv = st.regs[rs1.index() as usize];
                let slot = match rv.prov {
                    Prov::Slot { off, .. } if self.ptr_slots.contains(&off) => off,
                    _ => {
                        if self.emit {
                            self.coverage_unknown = true;
                        }
                        self.finding(
                            FindingClass::Lowering,
                            "TCHK_ADDR_UNKNOWN",
                            at,
                            "tchk consumes a pointer of unknown provenance".to_string(),
                        );
                        return;
                    }
                };
                if self.emit {
                    self.tchk_sites.push((at, slot));
                }
                match st.srf_u[rs1.index() as usize] {
                    None => self.finding(
                        FindingClass::Lowering,
                        "TCHK_SRF_EMPTY",
                        at,
                        format!(
                            "tchk consumes SRF[{rs1}].upper which is not populated on \
                             every path — the temporal check is silently skipped"
                        ),
                    ),
                    Some(h) => match h.src {
                        MetaSrc::Slot(ms) if ms == slot => {}
                        MetaSrc::Fresh => {}
                        other => self.finding(
                            FindingClass::Lowering,
                            "TCHK_SRF_MISMATCH",
                            at,
                            format!(
                                "tchk pointer comes from slot {slot} but SRF[{rs1}].upper \
                                 was populated from {other:?}"
                            ),
                        ),
                    },
                }
            }
            Instr::SrfMv { rd, rs1 } => {
                if !rd.is_zero() {
                    let s = rs1.index() as usize;
                    let d = rd.index() as usize;
                    st.srf_l[d] = st.srf_l[s];
                    st.srf_u[d] = st.srf_u[s];
                }
            }
            Instr::SrfClr { rd } => self.srf_clear(st, rd),
        }
    }

    /// Runs the dataflow fixpoint over `g` with findings suppressed
    /// (`self.emit` must be false) and returns the per-block in-states
    /// (`None` = unreachable), each in its own allocation. Returns
    /// `None` when `fuel_per_block · (blocks + 4)` block visits did not
    /// reach the fixpoint: the in-states reached so far still hold
    /// facts a later join would drop, so none of them is trusted.
    ///
    /// The worklist takes the lowest-numbered pending block first.
    /// Blocks are numbered in address order and the lowerer lays a loop
    /// body before its exit, so a body settles before its exit is
    /// walked.
    fn fixpoint(
        &mut self,
        g: &cfg::MachineCfg,
        fuel_per_block: usize,
    ) -> Option<Vec<Option<Box<AbsState>>>> {
        let n = g.blocks.len();
        let mut inputs: Vec<Option<Box<AbsState>>> = vec![None; n];
        if n == 0 {
            return Some(inputs);
        }
        inputs[0] = Some(Box::new(AbsState::entry()));
        // `queued[b]`: b is pending. No pending block lies below `next`.
        let mut queued = vec![false; n];
        queued[0] = true;
        let mut next = 0;
        let mut st = AbsState::entry();
        let mut pairs = HashMap::new();
        let mut fuel = fuel_per_block.saturating_mul(n.saturating_add(4));
        while let Some(b) = (next..n).find(|&b| queued[b]) {
            if fuel == 0 {
                return None;
            }
            fuel -= 1;
            queued[b] = false;
            next = b + 1;
            let Some(input) = &inputs[b] else {
                continue;
            };
            st.assign(input);
            pairs.clear();
            for at in g.blocks[b].start..g.blocks[b].end {
                self.transfer(&mut st, at, &mut pairs);
            }
            for &s in &g.blocks[b].succs {
                let changed = match &mut inputs[s] {
                    Some(prev) => join_into(prev, &st),
                    unreached @ None => {
                        *unreached = Some(Box::new(st.clone()));
                        true
                    }
                };
                if changed {
                    queued[s] = true;
                    next = next.min(s);
                }
            }
        }
        Some(inputs)
    }

    fn run(&mut self, fuel_per_block: usize) -> (Vec<Finding>, FnReport) {
        let range = self.plan.start..self.plan.start + self.plan.len;
        let g = cfg::recover(self.instrs, range);
        if g.blocks.is_empty() {
            return (std::mem::take(&mut self.findings), self.stats.clone());
        }
        let Some(inputs) = self.fixpoint(&g, fuel_per_block) else {
            self.emit = true;
            self.finding(
                FindingClass::Lowering,
                "FIXPOINT_FUEL",
                self.plan.start,
                format!(
                    "the dataflow fixpoint over {} blocks did not converge within its \
                     block-visit budget, so no in-state is trusted",
                    g.blocks.len()
                ),
            );
            self.emit = false;
            self.coverage_unknown = true;
            return (std::mem::take(&mut self.findings), self.stats.clone());
        };
        // Findings pass: each reachable block exactly once, from its
        // fixed in-state.
        self.emit = true;
        let mut st = AbsState::entry();
        let mut pairs = HashMap::new();
        for (b, input) in inputs.iter().enumerate() {
            let Some(start_state) = input else { continue };
            st.assign(start_state);
            pairs.clear();
            // `-O1` carries live pointer values across block boundaries
            // in cache registers, so the per-block source tracking is
            // seeded from the fixed in-state's provenance facts rather
            // than starting empty. The fixpoint's `Slot` provenance is a
            // must-fact (joins demote on disagreement), so the seed only
            // adds edges that hold on every path into the block.
            for (r, s) in self.reg_srcs.iter_mut().enumerate() {
                s.clear();
                if let Prov::Slot { off, .. } = start_state.regs[r].prov {
                    s.insert(off);
                }
            }
            for at in g.blocks[b].start..g.blocks[b].end {
                self.transfer(&mut st, at, &mut pairs);
            }
        }
        self.emit = false;
        // Check (d): flow-insensitive escape coverage. Only meaningful
        // for schemes that carry hardware metadata — software-only
        // instrumentation has no shadow stores by design.
        if !self.scheme.uses_hardware() {
            return (std::mem::take(&mut self.findings), self.stats.clone());
        }
        let missing: Vec<(usize, i64)> = self
            .ptr_store_slots
            .iter()
            .filter(|(_, s)| !self.sbdl_slots.contains(s))
            .copied()
            .collect();
        self.emit = true;
        for (at, s) in missing {
            self.finding(
                FindingClass::Lowering,
                "PTR_ESCAPE",
                at,
                format!(
                    "a tracked pointer is parked into pointer slot {s}, but no sbdl \
                     anywhere in the function writes that slot's shadow"
                ),
            );
        }
        // The IR promised `meta_stores` through-pointer metadata
        // copies; each lowers to exactly one dynamic-container `sbdl`.
        // A binary with none of them lost every escape's metadata.
        // (Laundered escapes — plain stores of pointer-valued data —
        // are the *program's* choice and are intentionally exempt.)
        if self.plan.meta_stores > 0 && self.sbdl_dyn == 0 {
            self.finding(
                FindingClass::Lowering,
                "PTR_ESCAPE",
                self.plan.start,
                format!(
                    "the IR performs {} through-pointer metadata cop{}, but the lowered \
                     code contains no reachable sbdl targeting a heap or global container",
                    self.plan.meta_stores,
                    if self.plan.meta_stores == 1 {
                        "y"
                    } else {
                        "ies"
                    }
                ),
            );
        }
        self.emit = false;
        (std::mem::take(&mut self.findings), self.stats.clone())
    }

    /// Enumerates candidate sites for the `-O1` register-allocation
    /// mutation operators (see [`RegMutation`]). Every listed site is
    /// chosen so that the corresponding mutant is *guaranteed*
    /// non-equivalent under the abstract semantics — a sound validator
    /// must kill 100% of them:
    ///
    /// * `clobber`: the reaching definition of a pool register that a
    ///   later checked access in the same block consumes, with no
    ///   intervening redefinition or store of that register (a store
    ///   would re-establish provenance by forwarding);
    /// * `drop_spill`: a write-through spill store whose forwarding
    ///   fact (`reg == slot content`) a later checked access in the
    ///   same block depends on — the pre-store provenance differs from
    ///   the stored slot, and the block is not on a CFG cycle so the
    ///   mutant's in-state provably equals the original's;
    /// * `swap_pair`: any reachable scheduled upper-half shadow store.
    ///
    /// A function whose fixpoint runs out of fuel lists no sites.
    fn reg_sites(&mut self, sites: &mut RegSites, fuel_per_block: usize) {
        let range = self.plan.start..self.plan.start + self.plan.len;
        let g = cfg::recover(self.instrs, range);
        if g.blocks.is_empty() {
            return;
        }
        let Some(inputs) = self.fixpoint(&g, fuel_per_block) else {
            return;
        };
        let n = g.blocks.len();
        // `on_cycle[b]`: is b reachable from itself?
        let mut on_cycle = vec![false; n];
        for (b, flag) in on_cycle.iter_mut().enumerate() {
            let mut seen = vec![false; n];
            let mut stack: Vec<usize> = g.blocks[b].succs.clone();
            while let Some(x) = stack.pop() {
                if x == b {
                    *flag = true;
                    break;
                }
                if !seen[x] {
                    seen[x] = true;
                    stack.extend(g.blocks[x].succs.iter().copied());
                }
            }
        }
        let mut st = AbsState::entry();
        let mut pairs = HashMap::new();
        for (b, input) in inputs.iter().enumerate() {
            let Some(start_state) = input else { continue };
            st.assign(start_state);
            pairs.clear();
            let end = g.blocks[b].end;
            for at in g.blocks[b].start..end {
                let ins = self.instrs[at];
                if let Some(rd) = gpr_def(&ins) {
                    if crate::regalloc::POOL.contains(&rd) && self.feeds_checked_access(at, end, rd)
                    {
                        sites.clobber.push(at);
                    }
                }
                if !on_cycle[b] {
                    if let Instr::Store {
                        width: StoreWidth::D,
                        rs1,
                        rs2,
                        offset,
                        checked: false,
                    } = ins
                    {
                        if let Num::Sp(d) = num_add(st.regs[rs1.index() as usize].num, offset) {
                            let s = d.wrapping_add(self.fs);
                            let pre = st.regs[rs2.index() as usize].prov;
                            if crate::regalloc::POOL.contains(&rs2)
                                && self.ptr_slots.contains(&s)
                                && !matches!(pre, Prov::Slot { off, .. } if off == s)
                                && self.spill_feeds_check(at, end, rs2, s)
                            {
                                sites.drop_spill.push(at);
                            }
                        }
                    }
                }
                if matches!(ins, Instr::Sbdu { .. }) {
                    sites.swap_pair.push(at);
                }
                self.transfer(&mut st, at, &mut pairs);
            }
        }
    }

    /// Does the pool register defined at `at` feed a checked access
    /// before `end`, with nothing in between that could re-establish
    /// its provenance after a clobber (redefinition, store of the
    /// register, or a call boundary)?
    fn feeds_checked_access(&self, at: usize, end: usize, rd: Reg) -> bool {
        for later in &self.instrs[at + 1..end] {
            match *later {
                Instr::Load {
                    rs1, checked: true, ..
                } if rs1 == rd => return true,
                Instr::Store {
                    rs1, rs2, checked, ..
                } if rs1 == rd || rs2 == rd => return checked && rs1 == rd,
                Instr::Jal { .. } | Instr::Jalr { .. } | Instr::Ecall | Instr::Ebreak => {
                    return false
                }
                _ => {
                    if gpr_def(later) == Some(rd) {
                        return false;
                    }
                }
            }
        }
        false
    }

    /// Does a checked access through `rd` with plan slot `s` follow the
    /// spill store at `at` before `end`, with no intervening
    /// redefinition, store of `rd`, or call?
    fn spill_feeds_check(&self, at: usize, end: usize, rd: Reg, s: i64) -> bool {
        for (j, later) in self.instrs[at + 1..end].iter().enumerate() {
            let here = at + 1 + j;
            match *later {
                Instr::Load {
                    rs1, checked: true, ..
                } if rs1 == rd => {
                    return matches!(self.check_at.get(&here), Some(site) if site.slot == s)
                }
                Instr::Store {
                    rs1, rs2, checked, ..
                } if rs1 == rd || rs2 == rd => {
                    return checked
                        && rs1 == rd
                        && matches!(self.check_at.get(&here), Some(site) if site.slot == s)
                }
                Instr::Jal { .. } | Instr::Jalr { .. } => return false,
                _ => {
                    if gpr_def(later) == Some(rd) {
                        return false;
                    }
                }
            }
        }
        false
    }
}

// ---------------------------------------------------------------------------
// Check-elimination plans (the bounds-witness obligation)
// ---------------------------------------------------------------------------

/// The witness side-table of a bounds-optimised image: the checks the
/// instrumenter skipped ([`SkippedCheck`]), resolved from RCE-stable
/// deref ordinals to the `(block, inst)` coordinates the [`LowerPlan`]
/// records, each paired with its claimed access interval. Skips that
/// fail resolution or carry an arithmetically invalid witness land in a
/// `bad` list and each becomes a `WITNESS_INVALID` finding — an image
/// can never *gain* acceptance by corrupting its witness table.
#[derive(Debug, Clone, Default)]
pub struct ElimPlan {
    /// Function → (block, inst) → claimed `(lo, hi, size)`.
    sites: BTreeMap<String, ElimSites>,
    /// Unresolvable or invalid skips: (func, block, deref, reason).
    bad: Vec<(String, usize, usize, &'static str)>,
}

/// One function's witnessed sites: `(block, inst)` → `(lo, hi, size)`.
type ElimSites = BTreeMap<(u32, u32), (i64, i64, u64)>;

impl ElimPlan {
    /// Resolves `skips` against the **post-RCE** instrumented module.
    /// Ordinals are stable across RCE because RCE removes checks, never
    /// dereferences; resolution mirrors
    /// [`crate::verify::verify_with`] and rejects for the same reasons.
    pub fn new(module: &Module, skips: &[SkippedCheck], witnesses: &[Witness]) -> Self {
        let mut plan = ElimPlan::default();
        for s in skips {
            match resolve_skip(module, s, witnesses) {
                Ok((coord, w)) => {
                    plan.sites
                        .entry(s.func.clone())
                        .or_default()
                        .insert(coord, (w.lo, w.hi, w.size));
                }
                Err(reason) => plan.bad.push((s.func.clone(), s.block, s.deref, reason)),
            }
        }
        plan
    }

    /// Number of successfully resolved witnessed sites.
    pub fn site_count(&self) -> usize {
        self.sites.values().map(|m| m.len()).sum()
    }

    /// Number of skips that failed resolution (each one is reported as
    /// a `WITNESS_INVALID` finding).
    pub fn invalid(&self) -> usize {
        self.bad.len()
    }
}

/// A resolved skip: `(block, inst)` coordinates plus the witness that
/// justified it — or the stable rejection reason.
type ResolvedSkip<'w> = Result<((u32, u32), &'w Witness), &'static str>;

/// Resolves one skip's deref ordinal to an instruction index and
/// re-checks its witness arithmetic.
fn resolve_skip<'w>(
    module: &Module,
    s: &SkippedCheck,
    witnesses: &'w [Witness],
) -> ResolvedSkip<'w> {
    let w = witnesses
        .get(s.witness)
        .ok_or("witness index out of range")?;
    if !w.arithmetic_ok() {
        return Err("claimed interval does not fit the object");
    }
    let f = module
        .funcs
        .iter()
        .find(|f| f.name == s.func)
        .ok_or("unknown function")?;
    let b = f
        .blocks
        .get(s.block)
        .ok_or("exempted block does not exist")?;
    let idx = b
        .insts
        .iter()
        .enumerate()
        .filter(|(_, i)| instrument::is_deref(i))
        .map(|(i, _)| i)
        .nth(s.deref)
        .ok_or("exempted site is not a dereference")?;
    Ok(((s.block as u32, idx as u32), w))
}

/// Transitive source closure of `start` over the parked-pointer copy
/// chain (destination → sources). Contains `start` itself.
fn src_closure(start: i64, edges: &BTreeMap<i64, BTreeSet<i64>>) -> BTreeSet<i64> {
    let mut seen = BTreeSet::new();
    let mut stack = vec![start];
    while let Some(s) = stack.pop() {
        if seen.insert(s) {
            if let Some(srcs) = edges.get(&s) {
                stack.extend(srcs.iter().copied());
            }
        }
    }
    seen
}

/// Is `slot` temporally covered by one of the `tchks`? Covered means
/// the two slots can hold the same pointer value: their source
/// closures intersect. A tchk slot is in its own closure, so "the
/// access slot was copied from the checked slot" and "both were
/// reloaded from the same heap cell" are both special cases.
fn slot_covered(slot: i64, tchks: &BTreeSet<i64>, edges: &BTreeMap<i64, BTreeSet<i64>>) -> bool {
    let sc = src_closure(slot, edges);
    tchks
        .iter()
        .any(|&t| !sc.is_disjoint(&src_closure(t, edges)))
}

// ---------------------------------------------------------------------------
// Image-level validation
// ---------------------------------------------------------------------------

/// Validates a lowered image against its [`LowerPlan`] under the given
/// compression config and memory layout.
pub fn validate(
    program: &Program,
    plan: &LowerPlan,
    compression: CompressionConfig,
    layout: MemoryLayout,
) -> BinvalReport {
    validate_with_elim(program, plan, compression, layout, None)
}

/// [`validate`] plus, given an [`ElimPlan`], the check-elimination
/// obligations (check **e**): every skip in `elim` must carry a valid
/// witness resolving to a dereference — under a hardware scheme, to a
/// recorded check site — and, under
/// [`Scheme::Hwst128Tchk`] — every checked access whose home slot has
/// no reachable `tchk` on its copy chain must be one of the witnessed
/// sites.
fn validate_with_elim(
    program: &Program,
    plan: &LowerPlan,
    compression: CompressionConfig,
    layout: MemoryLayout,
    elim: Option<&ElimPlan>,
) -> BinvalReport {
    let mut findings = Vec::new();
    let mut funcs = Vec::new();
    if let Some(e) = elim {
        for (func, block, deref, reason) in &e.bad {
            findings.push(Finding {
                class: FindingClass::Lowering,
                code: "WITNESS_INVALID",
                func: func.clone(),
                at: 0,
                pc: program.base(),
                cwe: None,
                message: format!(
                    "skipped check at b{block} (deref {deref}) has no valid bounds \
                     witness: {reason}"
                ),
            });
        }
        // Only hardware lowerings record check sites: a software
        // scheme's check is IR code the skip removed before lowering,
        // and its witnessed site was already resolved to a dereference
        // when `elim` was built (DESIGN.md §4h).
        let sites = e.sites.iter().filter(|_| plan.scheme.uses_hardware());
        for (fname, sites) in sites {
            let fp = plan.funcs.iter().find(|f| &f.name == fname);
            for &(b, i) in sites.keys() {
                let matched =
                    fp.is_some_and(|fp| fp.checks.iter().any(|c| c.block == b && c.inst == i));
                if !matched {
                    findings.push(Finding {
                        class: FindingClass::Lowering,
                        code: "WITNESS_DANGLING",
                        func: fname.clone(),
                        at: 0,
                        pc: program.base(),
                        cwe: None,
                        message: format!(
                            "elimination witness targets b{b}/{i}, which is not a \
                             recorded check site"
                        ),
                    });
                }
            }
        }
    }
    // Check (c), global part: the 24-bit CSR config must cover the
    // layout the image is linked against.
    if plan.scheme.uses_hardware() {
        if let Err(e) = layout.validate() {
            findings.push(global_finding(
                program,
                "CONFIG_LAYOUT",
                format!("memory layout is inconsistent: {e}"),
            ));
        }
        if layout.user_end() > compression.max_base() {
            findings.push(global_finding(
                program,
                "CONFIG_BASE_RANGE",
                format!(
                    "user address space ends at {:#x} but the compressed base field \
                     only reaches {:#x}",
                    layout.user_end(),
                    compression.max_base()
                ),
            ));
        }
        if layout.lock_slots > compression.lock_entries() {
            findings.push(global_finding(
                program,
                "CONFIG_LOCK_RANGE",
                format!(
                    "{} lock slots exceed the {}-entry compressed lock field",
                    layout.lock_slots,
                    compression.lock_entries()
                ),
            ));
        }
    }
    let codec = ShadowCodec::new(compression, layout.lock_region_base);
    for fp in &plan.funcs {
        // `-O1` structural obligation: the register-assignment table
        // must name real home/local slots and allocatable pool
        // registers before anything is believed about cached values.
        // (The semantic half of the obligation needs no table at all —
        // every use of a cache register is re-proven through the
        // provenance domain, which only learns `reg == slot content`
        // from the write-through stores actually present in the code.)
        let mut prev_slot: Option<i64> = None;
        for &(slot, reg) in &fp.reg_assign {
            let mut problems: Vec<String> = Vec::new();
            if slot < 8 || slot >= fp.alloca_base || slot % 8 != 0 {
                problems.push(format!(
                    "slot {slot} is not an 8-aligned home/local slot below the alloca base"
                ));
            }
            if !crate::regalloc::POOL.contains(&reg) {
                problems.push(format!("{reg} is not an allocatable callee-saved register"));
            }
            if prev_slot.is_some_and(|p| p >= slot) {
                problems.push("assigned slots are not strictly ascending".to_string());
            }
            prev_slot = Some(slot);
            for p in problems {
                findings.push(Finding {
                    class: FindingClass::Lowering,
                    code: "REG_ASSIGN_INVALID",
                    func: fp.name.clone(),
                    at: fp.start,
                    pc: program.base() + fp.start as u64 * 4,
                    cwe: None,
                    message: format!("register assignment ({slot} -> {reg}): {p}"),
                });
            }
        }
        // Plan sanity: the function must lie inside the image (CFG
        // recovery clamps to the image, so a missing tail would never be
        // interpreted), and every recorded IR check site must map onto
        // a checked machine access (catches instruction deletion).
        let end = fp.start.checked_add(fp.len);
        if end.is_none_or(|end| end > program.len()) {
            findings.push(Finding {
                class: FindingClass::Lowering,
                code: "PLAN_RANGE",
                func: fp.name.clone(),
                at: fp.start,
                pc: program.base() + fp.start as u64 * 4,
                cwe: None,
                message: format!(
                    "the plan places {} instructions at {}, past the end of the \
                     {}-instruction image",
                    fp.len,
                    fp.start,
                    program.len()
                ),
            });
        }
        for site in &fp.checks {
            let ok = match program.instrs().get(site.at) {
                Some(Instr::Load { checked, .. }) => *checked && !site.is_store,
                Some(Instr::Store { checked, .. }) => *checked && site.is_store,
                _ => false,
            };
            if !ok {
                findings.push(Finding {
                    class: FindingClass::Lowering,
                    code: "PLAN_DANGLING",
                    func: fp.name.clone(),
                    at: site.at,
                    pc: program.base() + site.at as u64 * 4,
                    cwe: None,
                    message: format!(
                        "IR check site (block {}, inst {}) does not map to a checked \
                         machine access",
                        site.block, site.inst
                    ),
                });
            }
        }
        let mut interp = FnInterp::new(program.instrs(), program.base(), fp, plan.scheme, codec);
        let (mut fnd, mut stats) = interp.run(FUEL_PER_BLOCK);
        findings.append(&mut fnd);
        // Check (e): temporal coverage. Only `Hwst128Tchk` carries
        // machine `tchk`s to account for, and the obligation is active
        // only when an elimination plan was supplied; a tchk of unknown
        // provenance or an unconverged fixpoint makes coverage
        // untrackable, so the function bails (it already failed
        // validation on its own).
        if plan.scheme == Scheme::Hwst128Tchk && !interp.coverage_unknown {
            if let Some(e) = elim {
                let tchk_slots: BTreeSet<i64> = interp.tchk_sites.iter().map(|&(_, s)| s).collect();
                let witnessed = e.sites.get(&fp.name);
                for site in &fp.checks {
                    if slot_covered(site.slot, &tchk_slots, &interp.copy_edges) {
                        continue;
                    }
                    if witnessed.is_some_and(|m| m.contains_key(&(site.block, site.inst))) {
                        stats.tchk_witnessed += 1;
                    } else {
                        findings.push(Finding {
                            class: FindingClass::Lowering,
                            code: "TCHK_ELIDED",
                            func: fp.name.clone(),
                            at: site.at,
                            pc: program.base() + site.at as u64 * 4,
                            cwe: None,
                            message: format!(
                                "checked access on slot {} has no reachable tchk on its \
                                 copy chain and no bounds witness — the temporal check \
                                 was lost",
                                site.slot
                            ),
                        });
                    }
                }
            }
        }
        funcs.push(stats);
    }
    BinvalReport {
        scheme: plan.scheme,
        findings,
        funcs,
    }
}

fn global_finding(program: &Program, code: &'static str, message: String) -> Finding {
    Finding {
        class: FindingClass::Lowering,
        code,
        func: "<image>".to_string(),
        at: 0,
        pc: program.base(),
        cwe: None,
        message,
    }
}

// ---------------------------------------------------------------------------
// Translation validation
// ---------------------------------------------------------------------------

/// The paired IR-level and binary-level verdicts for one workload.
#[derive(Debug)]
pub struct TvOutcome {
    /// Did the IR-level completeness verifier accept the instrumented
    /// module?
    pub ir_ok: bool,
    /// IR-level error, when `!ir_ok`.
    pub ir_error: Option<String>,
    /// IR-level RCE counters (all zero when RCE was not requested) —
    /// the A9 baseline that binary-level discharge is compared against.
    pub rce: rce::RceStats,
    /// The binary-level validation report.
    pub report: BinvalReport,
}

impl TvOutcome {
    /// Translation validation fails when the two levels disagree: the
    /// IR verifier accepted what the binary validator rejects, or vice
    /// versa. Either direction means a pass is wrong.
    pub fn diverged(&self) -> bool {
        self.ir_ok != self.report.ok()
    }

    /// Both levels accepted.
    pub fn ok(&self) -> bool {
        self.ir_ok && self.report.ok()
    }
}

/// Compiles `module` with `opts` through the same passes as
/// [`crate::compile_with_options`] and pairs the IR-level and
/// binary-level verdicts on what they produce. The IR verdict is
/// [`verify::verify_with`] over the final instrumented module and its
/// bounds skips (always run; `opts.verify` is not consulted). The
/// binary verdict is [`validate`] of the image lowered at `opts.opt`,
/// under the spec compression config and default layout, including
/// the register-assignment obligations at `-O1` and, when
/// `opts.bounds`, the [`ElimPlan`] of the skipped checks.
///
/// # Errors
///
/// Returns a [`CompileError`] for analysis/lowering failures (not for
/// verification findings, which are part of the outcome).
pub fn translation_validate(
    module: &Module,
    opts: CompileOptions,
) -> Result<TvOutcome, CompileError> {
    let front = front_half(module, opts)?;
    let ir = verify::verify_with(&front.module, opts.scheme, &front.skips, &front.witnesses);
    let (program, plan) = lower_with_plan_opt(&front.module, opts.scheme, opts.opt)?;
    let elim = opts
        .bounds
        .then(|| ElimPlan::new(&front.module, &front.skips, &front.witnesses));
    let report = validate_with_elim(
        &program,
        &plan,
        CompressionConfig::SPEC_DEFAULT,
        MemoryLayout::default(),
        elim.as_ref(),
    );
    Ok(TvOutcome {
        ir_ok: ir.is_ok(),
        ir_error: ir.err().map(|e| e.to_string()),
        rce: front.rce,
        report,
    })
}

/// [`translation_validate`] of a plain build for `scheme` at `opt`.
///
/// # Errors
///
/// Same as [`translation_validate`].
pub fn translation_validate_opt(
    module: &Module,
    scheme: Scheme,
    opt: OptLevel,
) -> Result<TvOutcome, CompileError> {
    translation_validate(module, CompileOptions::new(scheme).with_opt(opt))
}

// ---------------------------------------------------------------------------
// Mutation-based self-test
// ---------------------------------------------------------------------------

/// A seeded corruption of a lowered image. Every mutation targets a
/// *candidate site*: an `lbdls` that feeds a checked access in
/// straight-line code (see [`mutation_sites`]), which guarantees the
/// mutant is non-equivalent — the corrupted metadata path is consumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Replace the metadata load with a `nop` — the checked access
    /// consumes an invalid SRF entry and the hardware silently skips
    /// the check.
    DropMetaLoad,
    /// Skew the shadow-map offset by one slot — the check consumes a
    /// neighbouring slot's metadata.
    SkewShadowOffset,
    /// Redirect the metadata load into a different shadow register —
    /// the checked access consumes a stale entry.
    SwapShadowReg,
}

impl Mutation {
    /// All mutation operators.
    pub const ALL: [Mutation; 3] = [
        Mutation::DropMetaLoad,
        Mutation::SkewShadowOffset,
        Mutation::SwapShadowReg,
    ];

    /// Stable name for reports.
    pub const fn name(self) -> &'static str {
        match self {
            Mutation::DropMetaLoad => "drop-meta-load",
            Mutation::SkewShadowOffset => "skew-shadow-offset",
            Mutation::SwapShadowReg => "swap-shadow-reg",
        }
    }
}

/// One mutant's fate.
#[derive(Debug, Clone)]
pub struct MutantOutcome {
    /// Mutation operator name.
    pub mutation: &'static str,
    /// The seed that selected the site.
    pub seed: u64,
    /// Instruction index that was corrupted.
    pub site: usize,
    /// Absolute PC of the corrupted instruction.
    pub pc: u64,
    /// Name of the function containing the site (`"<shim>"` for the
    /// startup shim), resolved from the plan's symbol ranges.
    pub func: String,
    /// Did the validator reject the mutant?
    pub killed: bool,
    /// Findings the validator reported.
    pub findings: usize,
}

/// The result of a deterministic mutation campaign.
#[derive(Debug, Clone, Default)]
pub struct MutationReport {
    /// Number of candidate sites in the image.
    pub candidates: usize,
    /// One entry per (seed × operator) mutant.
    pub outcomes: Vec<MutantOutcome>,
}

impl MutationReport {
    /// Mutants the validator rejected.
    pub fn killed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.killed).count()
    }

    /// Total mutants generated.
    pub fn total(&self) -> usize {
        self.outcomes.len()
    }

    /// 100% kill rate (vacuously true with no candidates).
    pub fn all_killed(&self) -> bool {
        self.outcomes.iter().all(|o| o.killed)
    }
}

/// `splitmix64` — the same deterministic seed-stretching the fault-
/// injection campaigns use; no global RNG state.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Enumerates candidate mutation sites: `lbdls` instructions whose SRF
/// destination feeds a checked load/store in straight-line code with no
/// intervening redefinition. Restricting candidates this way makes
/// every mutant observably non-equivalent, so a sound validator must
/// kill 100% of them.
pub fn mutation_sites(program: &Program) -> Vec<usize> {
    let instrs = program.instrs();
    let mut out = Vec::new();
    'sites: for (i, ins) in instrs.iter().enumerate() {
        let Instr::Lbdls { rd, .. } = *ins else {
            continue;
        };
        // T2 is the metadata shuttle for shadow-to-shadow copies; its
        // loads feed sbdl/sbdu, not checks, and are judged by the
        // pair-coherence rule instead.
        if rd == Reg::T2 || rd.is_zero() {
            continue;
        }
        for later in &instrs[i + 1..] {
            match *later {
                Instr::Load {
                    rs1, checked: true, ..
                } if rs1 == rd => {
                    out.push(i);
                    continue 'sites;
                }
                Instr::Store {
                    rs1, checked: true, ..
                } if rs1 == rd => {
                    out.push(i);
                    continue 'sites;
                }
                // Control flow, calls or a tchk consumer: give up on
                // this site (tchk consumes the *upper* half, so a
                // lower-half mutation could be equivalent).
                Instr::Jal { .. }
                | Instr::Jalr { .. }
                | Instr::Branch { .. }
                | Instr::Ecall
                | Instr::Ebreak
                | Instr::Tchk { .. } => continue 'sites,
                // Re-population or SRF clobber of the same entry masks
                // the mutation.
                Instr::Lbdls { rd: r2, .. } | Instr::SrfMv { rd: r2, .. } if r2 == rd => {
                    continue 'sites
                }
                Instr::SrfClr { rd: r2 } if r2 == rd => continue 'sites,
                _ => {
                    if gpr_def(later) == Some(rd) {
                        continue 'sites;
                    }
                }
            }
        }
    }
    out
}

/// Applies `m` at `site` (an index from [`mutation_sites`]) and returns
/// the corrupted program. A site that is not an `lbdls` is returned
/// unchanged — the campaign never panics on a stale site list.
pub fn mutate(program: &Program, site: usize, m: Mutation) -> Program {
    let mut instrs = program.instrs().to_vec();
    if let Some(Instr::Lbdls { rd, rs1, offset }) = instrs.get(site).copied() {
        instrs[site] = match m {
            Mutation::DropMetaLoad => Instr::AluImm {
                op: AluImmOp::Addi,
                rd: Reg::Zero,
                rs1: Reg::Zero,
                imm: 0,
            },
            Mutation::SkewShadowOffset => Instr::Lbdls {
                rd,
                rs1,
                offset: offset + 8,
            },
            Mutation::SwapShadowReg => Instr::Lbdls {
                rd: Reg::T2,
                rs1,
                offset,
            },
        };
    }
    Program::from_instrs(program.base(), instrs)
}

/// Runs the deterministic mutation campaign for `module` × `scheme`:
/// for every seed and every operator, one site is chosen by
/// `splitmix64`, mutated, and re-validated against the unchanged plan.
///
/// # Errors
///
/// Returns a [`CompileError`] for analysis/lowering failures.
pub fn mutation_campaign(
    module: &Module,
    scheme: Scheme,
    seeds: &[u64],
) -> Result<MutationReport, CompileError> {
    let (program, plan) = campaign_image(module, scheme, OptLevel::O0)?;
    let sites = mutation_sites(&program);
    let lists = [sites.as_slice(); Mutation::ALL.len()];
    let outcomes = campaign(
        &program,
        &plan,
        seeds,
        0xa076_1d64_78bd_642f,
        &lists,
        |mi, site| {
            let m = Mutation::ALL[mi];
            (m.name(), mutate(&program, site, m))
        },
    );
    Ok(MutationReport {
        candidates: sites.len(),
        outcomes,
    })
}

/// The plain image a code-mutation campaign corrupts: `module` compiled
/// for `scheme` at `opt` with every optional pass off.
fn campaign_image(
    module: &Module,
    scheme: Scheme,
    opt: OptLevel,
) -> Result<(Program, LowerPlan), CompileError> {
    let front = front_half(module, CompileOptions::new(scheme))?;
    lower_with_plan_opt(&front.module, scheme, opt)
}

/// The seed × operator loop the code-mutation campaigns share: for
/// every seed and every operator `mi` whose site list `lists[mi]` is
/// non-empty, `splitmix64(seed ^ mi * salt)` picks a site, `mutant`
/// corrupts it (returning the operator name and the mutant), and the
/// mutant is re-validated against the unchanged `plan`.
fn campaign(
    program: &Program,
    plan: &LowerPlan,
    seeds: &[u64],
    salt: u64,
    lists: &[&[usize]],
    mutant: impl Fn(usize, usize) -> (&'static str, Program),
) -> Vec<MutantOutcome> {
    let mut outcomes = Vec::new();
    for &seed in seeds {
        for (mi, list) in lists.iter().enumerate() {
            if list.is_empty() {
                continue;
            }
            let pick = splitmix64(seed ^ (mi as u64).wrapping_mul(salt));
            let site = list[(pick % list.len() as u64) as usize];
            let (mutation, mutant) = mutant(mi, site);
            let r = validate(
                &mutant,
                plan,
                CompressionConfig::SPEC_DEFAULT,
                MemoryLayout::default(),
            );
            let pc = program.base() + site as u64 * 4;
            outcomes.push(MutantOutcome {
                mutation,
                seed,
                site,
                pc,
                func: func_name(plan, pc),
                killed: !r.ok(),
                findings: r.findings.len(),
            });
        }
    }
    outcomes
}

/// The function containing `pc`, or `"<shim>"` for the startup shim.
fn func_name(plan: &LowerPlan, pc: u64) -> String {
    plan.func_at_pc(pc)
        .map_or_else(|| "<shim>".to_string(), |f| f.name.clone())
}

// ---------------------------------------------------------------------------
// Register-allocation mutation self-test (the `-O1` kill bar)
// ---------------------------------------------------------------------------

/// A seeded corruption of the `-O1` back-end's register-allocation
/// invariants. Where [`Mutation`] corrupts the metadata *plumbing*,
/// these corrupt the facts the optimizer is trusted with: that cached
/// registers hold what their home slots hold, that write-through spill
/// stores actually happen, and that scheduled shadow-store pairs keep
/// their producers. Sites are enumerated semantically (over the
/// validator's own abstract states) so every mutant is guaranteed
/// non-equivalent — the campaign requires a 100% kill rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegMutation {
    /// Replace the reaching definition of a live cache register with
    /// `addi r, x0, 1` — a later checked access consumes an address of
    /// unknown provenance (`CHECK_ADDR_UNKNOWN`).
    ClobberLiveReg,
    /// Delete a write-through spill store a later checked access
    /// depends on — the register's slot-provenance is never
    /// established, so the access fails the provenance or plan
    /// cross-check.
    DropSpill,
    /// Retarget a scheduled upper-half shadow store at `SRF[x0]`,
    /// which is never populated — the pair stores a zero temporal half
    /// (`SBD_UNPOPULATED`), modelling the scheduler pairing the store
    /// with the wrong producer.
    SwapScheduledPair,
}

impl RegMutation {
    /// All register-allocation mutation operators.
    pub const ALL: [RegMutation; 3] = [
        RegMutation::ClobberLiveReg,
        RegMutation::DropSpill,
        RegMutation::SwapScheduledPair,
    ];

    /// Stable name for reports.
    pub const fn name(self) -> &'static str {
        match self {
            RegMutation::ClobberLiveReg => "clobber-live-reg",
            RegMutation::DropSpill => "drop-spill",
            RegMutation::SwapScheduledPair => "swap-scheduled-pair",
        }
    }
}

/// Candidate sites for the register-allocation mutation operators, one
/// list per operator (instruction indices into the program).
#[derive(Debug, Clone, Default)]
pub struct RegSites {
    /// [`RegMutation::ClobberLiveReg`] sites: reaching definitions of
    /// pool registers that feed checked accesses.
    pub clobber: Vec<usize>,
    /// [`RegMutation::DropSpill`] sites: write-through spill stores
    /// that later checked accesses depend on.
    pub drop_spill: Vec<usize>,
    /// [`RegMutation::SwapScheduledPair`] sites: reachable scheduled
    /// upper-half shadow stores.
    pub swap_pair: Vec<usize>,
}

impl RegSites {
    /// Total candidate count across all operators.
    pub fn total(&self) -> usize {
        self.clobber.len() + self.drop_spill.len() + self.swap_pair.len()
    }

    /// The site list for `m`.
    pub fn for_op(&self, m: RegMutation) -> &[usize] {
        match m {
            RegMutation::ClobberLiveReg => &self.clobber,
            RegMutation::DropSpill => &self.drop_spill,
            RegMutation::SwapScheduledPair => &self.swap_pair,
        }
    }
}

/// Enumerates register-allocation mutation sites for a lowered image
/// by sweeping the validator's abstract states (see
/// [`RegMutation`]). At `-O0` the clobber and drop-spill lists are
/// empty by construction — no pool register ever feeds a checked
/// access there.
pub fn reg_mutation_sites(program: &Program, plan: &LowerPlan) -> RegSites {
    let codec = ShadowCodec::new(
        CompressionConfig::SPEC_DEFAULT,
        MemoryLayout::default().lock_region_base,
    );
    let mut sites = RegSites::default();
    for fp in &plan.funcs {
        let mut interp = FnInterp::new(program.instrs(), program.base(), fp, plan.scheme, codec);
        interp.reg_sites(&mut sites, FUEL_PER_BLOCK);
    }
    sites
}

/// Applies `m` at `site` (an index from [`reg_mutation_sites`]) and
/// returns the corrupted program. A site whose instruction does not
/// match the operator's shape is returned unchanged — the campaign
/// never panics on a stale site list.
pub fn reg_mutate(program: &Program, site: usize, m: RegMutation) -> Program {
    let mut instrs = program.instrs().to_vec();
    match m {
        RegMutation::ClobberLiveReg => {
            if let Some(rd) = instrs.get(site).and_then(gpr_def) {
                instrs[site] = Instr::AluImm {
                    op: AluImmOp::Addi,
                    rd,
                    rs1: Reg::Zero,
                    imm: 1,
                };
            }
        }
        RegMutation::DropSpill => {
            if matches!(instrs.get(site), Some(Instr::Store { .. })) {
                instrs[site] = Instr::AluImm {
                    op: AluImmOp::Addi,
                    rd: Reg::Zero,
                    rs1: Reg::Zero,
                    imm: 0,
                };
            }
        }
        RegMutation::SwapScheduledPair => {
            if let Some(Instr::Sbdu { rs1, offset, .. }) = instrs.get(site).copied() {
                instrs[site] = Instr::Sbdu {
                    rs1,
                    rs2: Reg::Zero,
                    offset,
                };
            }
        }
    }
    Program::from_instrs(program.base(), instrs)
}

/// Runs the deterministic register-allocation mutation campaign for
/// `module` × `scheme` at `opt`: for every seed and every operator
/// with a non-empty site list, one site is chosen by `splitmix64`,
/// mutated, and re-validated against the unchanged plan.
///
/// # Errors
///
/// Returns a [`CompileError`] for analysis/lowering failures.
pub fn reg_mutation_campaign(
    module: &Module,
    scheme: Scheme,
    opt: OptLevel,
    seeds: &[u64],
) -> Result<MutationReport, CompileError> {
    let (program, plan) = campaign_image(module, scheme, opt)?;
    let sites = reg_mutation_sites(&program, &plan);
    let lists = RegMutation::ALL.map(|m| sites.for_op(m));
    let outcomes = campaign(
        &program,
        &plan,
        seeds,
        0x2545_f491_4f6c_dd1d,
        &lists,
        |mi, site| {
            let m = RegMutation::ALL[mi];
            (m.name(), reg_mutate(&program, site, m))
        },
    );
    Ok(MutationReport {
        candidates: sites.total(),
        outcomes,
    })
}

// ---------------------------------------------------------------------------
// Witness-forging self-test
// ---------------------------------------------------------------------------

/// A seeded forgery of a bounds-optimised image's witness side-channel.
/// Unlike [`Mutation`] (which corrupts the *code*), these corrupt the
/// elimination evidence — a sound validator must reject every one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WitnessMutation {
    /// Enlarge the claimed interval past the object (`hi = size + 8`) —
    /// caught by the arithmetic re-check (`WITNESS_INVALID`).
    EnlargeInterval,
    /// Claim a negative base offset (`lo = -8`) — caught by the
    /// arithmetic re-check (`WITNESS_INVALID`).
    NegativeBase,
    /// Point a resolved witness at a non-existent site — caught by the
    /// plan cross-check (`WITNESS_DANGLING`).
    DanglingSite,
    /// Drop the skip record for an uncovered site: the image still
    /// lacks the check, but nothing justifies it — caught by the
    /// coverage obligation (`TCHK_ELIDED`).
    RetargetSite,
    /// Nop a `tchk` that is the sole temporal cover of an unwitnessed
    /// checked access — caught by the coverage obligation
    /// (`TCHK_ELIDED`).
    DropProtectedTchk,
}

impl WitnessMutation {
    /// All witness-forging operators.
    pub const ALL: [WitnessMutation; 5] = [
        WitnessMutation::EnlargeInterval,
        WitnessMutation::NegativeBase,
        WitnessMutation::DanglingSite,
        WitnessMutation::RetargetSite,
        WitnessMutation::DropProtectedTchk,
    ];

    /// Stable name for reports.
    pub const fn name(self) -> &'static str {
        match self {
            WitnessMutation::EnlargeInterval => "enlarge-interval",
            WitnessMutation::NegativeBase => "negative-base",
            WitnessMutation::DanglingSite => "dangling-site",
            WitnessMutation::RetargetSite => "retarget-site",
            WitnessMutation::DropProtectedTchk => "drop-protected-tchk",
        }
    }
}

/// The result of a deterministic witness-forging campaign.
#[derive(Debug, Clone, Default)]
pub struct WitnessCampaignReport {
    /// Did the unforged image validate cleanly with its elimination
    /// plan? A dirty baseline fails [`WitnessCampaignReport::all_killed`]
    /// outright.
    pub baseline_ok: bool,
    /// Witnessed (successfully resolved) skips in the image.
    pub skips: usize,
    /// One entry per applied forgery.
    pub outcomes: Vec<MutantOutcome>,
}

impl WitnessCampaignReport {
    /// Forgeries the validator rejected.
    pub fn killed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.killed).count()
    }

    /// Total forgeries applied.
    pub fn total(&self) -> usize {
        self.outcomes.len()
    }

    /// The gate the A10 ablation enforces: a clean baseline and every
    /// forgery rejected.
    pub fn all_killed(&self) -> bool {
        self.baseline_ok && self.outcomes.iter().all(|o| o.killed)
    }
}

/// Runs the deterministic witness-forging campaign for `module` under
/// [`Scheme::Hwst128Tchk`]: the module is compiled with the bounds pass
/// and RCE, its elimination plan is built, and for every seed × operator
/// one forgery is applied and re-validated. Operators whose candidate
/// set is empty (e.g. no uncovered witnessed site to retarget) are
/// skipped for that seed rather than reported as survivors.
///
/// # Errors
///
/// Returns a [`CompileError`] for analysis/lowering failures.
pub fn witness_campaign(
    module: &Module,
    seeds: &[u64],
) -> Result<WitnessCampaignReport, CompileError> {
    let scheme = Scheme::Hwst128Tchk;
    let front = front_half(module, CompileOptions::new(scheme).with_rce().with_bounds())?;
    let (program, plan) = lower_with_plan_opt(&front.module, scheme, OptLevel::O0)?;
    let (instrumented, skips, witnesses) = (front.module, front.skips, front.witnesses);
    let elim = ElimPlan::new(&instrumented, &skips, &witnesses);
    let compression = CompressionConfig::SPEC_DEFAULT;
    let layout = MemoryLayout::default();
    let revalidate = |prog: &Program, e: &ElimPlan| {
        validate_with_elim(prog, &plan, compression, MemoryLayout::default(), Some(e))
    };
    let mut report = WitnessCampaignReport {
        baseline_ok: revalidate(&program, &elim).ok(),
        skips: elim.site_count(),
        outcomes: Vec::new(),
    };
    // Candidate discovery from the interpreter's coverage facts:
    // `uncovered` = indices into `skips` whose site genuinely depends on
    // its witness; `protected` = machine indices of tchks that are the
    // sole cover of some unwitnessed check site.
    let codec = ShadowCodec::new(compression, layout.lock_region_base);
    let mut uncovered: Vec<usize> = Vec::new();
    let mut protected: Vec<usize> = Vec::new();
    for fp in &plan.funcs {
        let mut interp = FnInterp::new(program.instrs(), program.base(), fp, scheme, codec);
        let _ = interp.run(FUEL_PER_BLOCK);
        if interp.coverage_unknown {
            continue;
        }
        let slots: Vec<i64> = interp.tchk_sites.iter().map(|&(_, s)| s).collect();
        let set: BTreeSet<i64> = slots.iter().copied().collect();
        let fsites = elim.sites.get(&fp.name);
        for (k, s) in skips.iter().enumerate() {
            if s.func != fp.name {
                continue;
            }
            let Ok((coord, _)) = resolve_skip(&instrumented, s, &witnesses) else {
                continue;
            };
            let covered = fp
                .checks
                .iter()
                .find(|c| (c.block, c.inst) == coord)
                .is_none_or(|c| slot_covered(c.slot, &set, &interp.copy_edges));
            if !covered {
                uncovered.push(k);
            }
        }
        for &(at, slot) in &interp.tchk_sites {
            if slots.iter().filter(|&&s| s == slot).count() != 1 {
                continue;
            }
            let mut without = set.clone();
            without.remove(&slot);
            let exposes = fp.checks.iter().any(|c| {
                !fsites.is_some_and(|m| m.contains_key(&(c.block, c.inst)))
                    && slot_covered(c.slot, &set, &interp.copy_edges)
                    && !slot_covered(c.slot, &without, &interp.copy_edges)
            });
            if exposes {
                protected.push(at);
            }
        }
    }
    let dangling: Vec<(String, (u32, u32))> = elim
        .sites
        .iter()
        .flat_map(|(f, m)| m.keys().map(move |&k| (f.clone(), k)))
        .collect();
    for &seed in seeds {
        for (mi, &m) in WitnessMutation::ALL.iter().enumerate() {
            let pick = splitmix64(seed ^ (mi as u64).wrapping_mul(0xa076_1d64_78bd_642f));
            let choose = |n: usize| (pick % n as u64) as usize;
            let (site, func, r) = match m {
                WitnessMutation::EnlargeInterval | WitnessMutation::NegativeBase => {
                    if skips.is_empty() {
                        continue;
                    }
                    let k = choose(skips.len());
                    let mut forged = witnesses.clone();
                    let w = &mut forged[skips[k].witness];
                    if m == WitnessMutation::EnlargeInterval {
                        w.hi = (w.size as i64).saturating_add(8);
                    } else {
                        w.lo = -8;
                    }
                    let e = ElimPlan::new(&instrumented, &skips, &forged);
                    (k, skips[k].func.clone(), revalidate(&program, &e))
                }
                WitnessMutation::DanglingSite => {
                    if dangling.is_empty() {
                        continue;
                    }
                    let (fname, (b, i)) = dangling[choose(dangling.len())].clone();
                    let mut e = elim.clone();
                    if let Some(sites) = e.sites.get_mut(&fname) {
                        if let Some(v) = sites.remove(&(b, i)) {
                            sites.insert((b + 1000, i), v);
                        }
                    }
                    (b as usize, fname, revalidate(&program, &e))
                }
                WitnessMutation::RetargetSite => {
                    if uncovered.is_empty() {
                        continue;
                    }
                    let k = uncovered[choose(uncovered.len())];
                    let mut pruned = skips.clone();
                    let func = pruned.remove(k).func;
                    let e = ElimPlan::new(&instrumented, &pruned, &witnesses);
                    (k, func, revalidate(&program, &e))
                }
                WitnessMutation::DropProtectedTchk => {
                    if protected.is_empty() {
                        continue;
                    }
                    let at = protected[choose(protected.len())];
                    let mut instrs = program.instrs().to_vec();
                    instrs[at] = Instr::AluImm {
                        op: AluImmOp::Addi,
                        rd: Reg::Zero,
                        rs1: Reg::Zero,
                        imm: 0,
                    };
                    let mutant = Program::from_instrs(program.base(), instrs);
                    let func = func_name(&plan, program.base() + at as u64 * 4);
                    (at, func, revalidate(&mutant, &elim))
                }
            };
            report.outcomes.push(MutantOutcome {
                mutation: m.name(),
                seed,
                site,
                pc: program.base() + site as u64 * 4,
                func,
                killed: !r.ok(),
                findings: r.findings.len(),
            });
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{BinOp, Width};
    use crate::{FrontHalf, ModuleBuilder};

    /// Heap, stack, global and cross-function pointer traffic — enough
    /// to exercise every lowering arm the validator models.
    fn sample_module() -> Module {
        let mut mb = ModuleBuilder::new();
        let g = mb.global("table", 32);
        let mut f = mb.func("sink");
        let q = f.param(true);
        let v = f.konst(1);
        f.store(v, q, 0, Width::U8);
        f.ret(None);
        f.finish();
        let mut f = mb.func("main");
        let p = f.malloc_bytes(64);
        let v = f.konst(5);
        f.store(v, p, 0, Width::U64);
        let _ = f.load(p, 8, Width::U32);
        let s = f.stack_alloc(16);
        let ga = f.addr_of_global(g);
        f.store(v, s, 8, Width::U64);
        f.store(v, ga, 0, Width::U64);
        f.call_void("sink", &[s]);
        let cell = f.malloc_bytes(8);
        f.store_ptr(s, cell, 0);
        let r = f.load_ptr(cell, 0);
        let _ = f.load(r, 0, Width::U8);
        f.free(p);
        f.free(cell);
        f.ret(None);
        f.finish();
        mb.finish()
    }

    fn lower(scheme: Scheme) -> (Program, LowerPlan) {
        campaign_image(&sample_module(), scheme, OptLevel::O0).unwrap()
    }

    #[test]
    fn clean_lowering_validates_under_every_scheme() {
        for scheme in Scheme::ALL {
            let m = sample_module();
            let r = translation_validate(&m, CompileOptions::new(scheme))
                .unwrap()
                .report;
            assert!(
                r.ok(),
                "{scheme:?}: {:?}",
                r.findings.iter().map(|f| f.to_string()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn translation_validation_agrees_on_clean_input() {
        for scheme in Scheme::ALL {
            let m = sample_module();
            for rce in [false, true] {
                let opts = CompileOptions {
                    rce,
                    ..CompileOptions::new(scheme)
                };
                let tv = translation_validate(&m, opts).unwrap();
                assert!(!tv.diverged(), "{scheme:?} rce={rce}: {:?}", tv.ir_error);
                assert!(tv.ok());
            }
        }
    }

    #[test]
    fn hardware_schemes_have_mutation_candidates() {
        for scheme in [Scheme::Hwst128, Scheme::Hwst128Tchk, Scheme::Shore] {
            let (program, _) = lower(scheme);
            assert!(
                !mutation_sites(&program).is_empty(),
                "{scheme:?}: no candidate sites"
            );
        }
        let (program, _) = lower(Scheme::Sbcets);
        assert!(mutation_sites(&program).is_empty());
    }

    #[test]
    fn every_mutation_operator_is_killed() {
        let (program, plan) = lower(Scheme::Hwst128Tchk);
        for &site in &mutation_sites(&program) {
            for m in Mutation::ALL {
                let mutant = mutate(&program, site, m);
                let r = validate(
                    &mutant,
                    &plan,
                    CompressionConfig::SPEC_DEFAULT,
                    MemoryLayout::default(),
                );
                assert!(!r.ok(), "{} at site {site} survived validation", m.name());
            }
        }
    }

    #[test]
    fn dropped_meta_load_is_an_srf_emptiness_finding() {
        let (program, plan) = lower(Scheme::Hwst128);
        let sites = mutation_sites(&program);
        let mutant = mutate(&program, sites[0], Mutation::DropMetaLoad);
        let r = validate(
            &mutant,
            &plan,
            CompressionConfig::SPEC_DEFAULT,
            MemoryLayout::default(),
        );
        assert!(
            r.findings.iter().any(|f| f.code == "CHECK_SRF_EMPTY"),
            "{:?}",
            r.findings.iter().map(|f| f.code).collect::<Vec<_>>()
        );
    }

    #[test]
    fn unchecking_a_planned_access_is_flagged() {
        let (program, plan) = lower(Scheme::Hwst128);
        let at = plan.funcs.iter().flat_map(|f| &f.checks).next().unwrap().at;
        let mut instrs = program.instrs().to_vec();
        match &mut instrs[at] {
            Instr::Load { checked, .. } | Instr::Store { checked, .. } => *checked = false,
            other => panic!("plan site is not an access: {other:?}"),
        }
        let stripped = Program::from_instrs(program.base(), instrs);
        let r = validate(
            &stripped,
            &plan,
            CompressionConfig::SPEC_DEFAULT,
            MemoryLayout::default(),
        );
        assert!(r.findings.iter().any(|f| f.code == "PLAN_DANGLING"));
    }

    #[test]
    fn undersized_lock_field_is_a_config_finding() {
        // EMBEDDED has a 16-bit lock field; the default layout carries
        // 2^20 lock slots.
        let (program, plan) = lower(Scheme::Hwst128Tchk);
        let r = validate(
            &program,
            &plan,
            CompressionConfig::EMBEDDED,
            MemoryLayout::default(),
        );
        assert!(r.findings.iter().any(|f| f.code == "CONFIG_LOCK_RANGE"));
    }

    #[test]
    fn hardware_instructions_under_software_scheme_are_flagged() {
        let (program, mut plan) = lower(Scheme::Hwst128);
        plan.scheme = Scheme::Sbcets;
        let r = validate(
            &program,
            &plan,
            CompressionConfig::SPEC_DEFAULT,
            MemoryLayout::default(),
        );
        assert!(r.findings.iter().any(|f| f.code == "SCHEME_VIOLATION"));
    }

    #[test]
    fn campaign_is_deterministic() {
        let m = sample_module();
        let a = mutation_campaign(&m, Scheme::Hwst128, &[7, 11]).unwrap();
        let b = mutation_campaign(&m, Scheme::Hwst128, &[7, 11]).unwrap();
        assert_eq!(a.total(), b.total());
        for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
            assert_eq!((x.site, x.killed, x.seed), (y.site, y.killed, y.seed));
        }
        assert!(a.all_killed());
    }

    /// Proven const-offset accesses (alloca + const malloc) alongside a
    /// pointer reloaded from memory whose provenance the bounds pass
    /// cannot prove — its deref keeps the image's only `tchk`.
    fn bounds_module() -> Module {
        let mut mb = ModuleBuilder::new();
        let mut f = mb.func("main");
        let a = f.stack_alloc(16);
        let v = f.konst(7);
        f.store(v, a, 8, Width::U64);
        let p = f.malloc_bytes(64);
        f.store(v, p, 0, Width::U64);
        let _ = f.load(p, 8, Width::U32);
        let cell = f.malloc_bytes(8);
        f.store_ptr(p, cell, 0);
        let q = f.load_ptr(cell, 0);
        let r = f.load(q, 0, Width::U64);
        f.ret(Some(r));
        f.finish();
        mb.finish()
    }

    /// The HWST128_tchk build with RCE and bounds proofs: the front half
    /// [`translation_validate`] runs for it, and the image it lowers.
    fn bounds_pipeline(m: &Module) -> (FrontHalf, Program, LowerPlan) {
        let opts = CompileOptions::new(Scheme::Hwst128Tchk)
            .with_rce()
            .with_bounds();
        let front = front_half(m, opts).unwrap();
        let (program, plan) = lower_with_plan_opt(&front.module, opts.scheme, opts.opt).unwrap();
        (front, program, plan)
    }

    fn elim_plan(front: &FrontHalf) -> ElimPlan {
        ElimPlan::new(&front.module, &front.skips, &front.witnesses)
    }

    #[test]
    fn bounds_optimised_image_validates_with_its_elim_plan() {
        let m = bounds_module();
        let (front, program, plan) = bounds_pipeline(&m);
        let elim = elim_plan(&front);
        assert!(elim.site_count() >= 3, "expected several witnessed skips");
        assert_eq!(elim.invalid(), 0);
        let tv = translation_validate(
            &m,
            CompileOptions::new(Scheme::Hwst128Tchk)
                .with_rce()
                .with_bounds(),
        )
        .unwrap();
        assert!(
            tv.ok(),
            "clean bounds image rejected: {:?}",
            tv.report.findings
        );
        assert!(
            tv.report
                .funcs
                .iter()
                .map(|f| f.tchk_witnessed)
                .sum::<usize>()
                >= 3,
            "witnessed sites should be accounted"
        );
        // Without the elim plan the obligation is inactive and the image
        // still validates (spatial checks are all present).
        let r = validate(
            &program,
            &plan,
            CompressionConfig::SPEC_DEFAULT,
            MemoryLayout::default(),
        );
        assert!(r.ok());
    }

    #[test]
    fn unwitnessed_tchk_elision_fails_validation() {
        let (front, program, plan) = bounds_pipeline(&bounds_module());
        let tchk_at = program
            .instrs()
            .iter()
            .position(|i| matches!(i, Instr::Tchk { .. }))
            .expect("image should keep a tchk for the unproven deref");
        let mut instrs = program.instrs().to_vec();
        instrs[tchk_at] = Instr::AluImm {
            op: AluImmOp::Addi,
            rd: Reg::Zero,
            rs1: Reg::Zero,
            imm: 0,
        };
        let mutant = Program::from_instrs(program.base(), instrs);
        let r = validate_with_elim(
            &mutant,
            &plan,
            CompressionConfig::SPEC_DEFAULT,
            MemoryLayout::default(),
            Some(&elim_plan(&front)),
        );
        assert!(!r.ok());
        assert!(r.findings.iter().any(|f| f.code == "TCHK_ELIDED"));
    }

    #[test]
    fn forged_witness_arithmetic_is_rejected() {
        let (mut front, program, plan) = bounds_pipeline(&bounds_module());
        let w = front.skips[0].witness;
        front.witnesses[w].hi = front.witnesses[w].size as i64 + 8;
        let elim = elim_plan(&front);
        assert!(elim.invalid() >= 1);
        let r = validate_with_elim(
            &program,
            &plan,
            CompressionConfig::SPEC_DEFAULT,
            MemoryLayout::default(),
            Some(&elim),
        );
        assert!(r.findings.iter().any(|f| f.code == "WITNESS_INVALID"));
        assert!(!r.ok());
    }

    /// SBCETS skips the proven stack store and its lowering records no
    /// check sites, so the skip is accepted without one; a skip whose
    /// ordinal names no dereference is still `WITNESS_INVALID`.
    #[test]
    fn software_scheme_skips_resolve_to_a_dereference() {
        let opts = CompileOptions::new(Scheme::Sbcets).with_rce().with_bounds();
        let mut front = front_half(&bounds_module(), opts).unwrap();
        let (program, plan) = lower_with_plan_opt(&front.module, opts.scheme, opts.opt).unwrap();
        let check = |front: &FrontHalf| {
            let layout = MemoryLayout::default();
            let elim = Some(elim_plan(front));
            validate_with_elim(
                &program,
                &plan,
                CompressionConfig::SPEC_DEFAULT,
                layout,
                elim.as_ref(),
            )
        };
        assert!(!front.skips.is_empty(), "the stack store is proven");
        assert!(check(&front).ok(), "{:?}", check(&front).findings);
        front.skips[0].deref += 100;
        let r = check(&front);
        assert!(r.findings.iter().any(|f| f.code == "WITNESS_INVALID"));
        assert!(!r.ok());
    }

    #[test]
    fn witness_campaign_kills_every_forgery() {
        let r = witness_campaign(&bounds_module(), &[3, 5, 9]).unwrap();
        assert!(r.baseline_ok);
        assert!(r.skips >= 3);
        for m in WitnessMutation::ALL {
            assert!(
                r.outcomes.iter().any(|o| o.mutation == m.name()),
                "operator {} never ran",
                m.name()
            );
        }
        assert_eq!(r.killed(), r.total());
        assert!(r.all_killed());
    }

    #[test]
    fn witness_campaign_is_deterministic() {
        let m = bounds_module();
        let a = witness_campaign(&m, &[7, 11]).unwrap();
        let b = witness_campaign(&m, &[7, 11]).unwrap();
        assert_eq!(a.total(), b.total());
        for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
            assert_eq!(
                (x.mutation, x.site, x.killed, x.seed),
                (y.mutation, y.site, y.killed, y.seed)
            );
        }
    }

    /// A counted loop over a stack buffer and a heap buffer with a call
    /// in its body: the loop header joins the entry state with states
    /// that differ in registers, slot contents, SRF entries and checks.
    fn loop_module() -> Module {
        let mut mb = ModuleBuilder::new();
        let mut f = mb.func("sink");
        let q = f.param(true);
        let v = f.konst(1);
        f.store(v, q, 0, Width::U8);
        f.ret(None);
        f.finish();
        let mut f = mb.func("main");
        let buf = f.stack_alloc(64);
        let heap = f.malloc_bytes(64);
        let i = f.local();
        let zero = f.konst(0);
        f.local_set(i, zero);
        let (head, body, done) = (f.new_block(), f.new_block(), f.new_block());
        f.jmp(head);
        f.switch_to(head);
        let iv = f.local_get(i);
        let end = f.konst(8);
        let more = f.bin(BinOp::Slt, iv, end);
        f.br(more, body, done);
        f.switch_to(body);
        let iv = f.local_get(i);
        let off = f.bin_imm(BinOp::Sll, iv, 3);
        let slot = f.gep(buf, off);
        f.store(iv, slot, 0, Width::U64);
        let cell = f.gep(heap, off);
        let x = f.load(slot, 0, Width::U64);
        f.store(x, cell, 0, Width::U64);
        f.call_void("sink", &[heap]);
        let next = f.bin_imm(BinOp::Add, iv, 1);
        f.local_set(i, next);
        f.jmp(head);
        f.switch_to(done);
        f.free(heap);
        f.ret(None);
        f.finish();
        mb.finish()
    }

    fn interp<'a>(program: &'a Program, plan: &'a LowerPlan, fp: &'a FnPlan) -> FnInterp<'a> {
        let codec = ShadowCodec::new(
            CompressionConfig::SPEC_DEFAULT,
            MemoryLayout::default().lock_region_base,
        );
        FnInterp::new(program.instrs(), program.base(), fp, plan.scheme, codec)
    }

    /// Every reachable block in-state of every function's fixpoint.
    fn in_states(program: &Program, plan: &LowerPlan) -> Vec<AbsState> {
        let mut out = Vec::new();
        for fp in &plan.funcs {
            let g = cfg::recover(program.instrs(), fp.start..fp.start + fp.len);
            let inputs = interp(program, plan, fp)
                .fixpoint(&g, FUEL_PER_BLOCK)
                .expect("converges");
            out.extend(inputs.into_iter().flatten().map(|b| *b));
        }
        out
    }

    /// Does `r` hold only facts that `a` holds too? Written against the
    /// domain's meaning, independently of [`join_into`].
    fn facts_within(r: &AbsState, a: &AbsState) -> bool {
        let val = |x: AbsVal, y: AbsVal| {
            (x.num == Num::Top || x.num == y.num)
                && match x.prov {
                    Prov::None => true,
                    Prov::Slot { off, exact } => {
                        matches!(y.prov, Prov::Slot { off: o, exact: e } if o == off && (e || !exact))
                    }
                }
        };
        let half = |x: Option<SrfHalf>, y: Option<SrfHalf>| match (x, y) {
            (None, _) => true,
            (Some(h), Some(g)) => h.src == g.src && (h.bounds.is_none() || h.bounds == g.bounds),
            (Some(_), None) => false,
        };
        (0..32).all(|i| {
            val(r.regs[i], a.regs[i])
                && half(r.srf_l[i], a.srf_l[i])
                && half(r.srf_u[i], a.srf_u[i])
        }) && r.vals.0.iter().all(|(k, v)| a.vals.get(k) == Some(v))
            && r.shadow_l
                .0
                .iter()
                .all(|(k, v)| a.shadow_l.get(k).is_some_and(|w| v.is_none() || v == w))
            && r.shadow_u
                .0
                .iter()
                .all(|(k, ())| a.shadow_u.contains_key(k))
            && r.done.0.iter().all(|(k, ())| a.done.contains_key(k))
    }

    #[test]
    fn vec_map_and_set_agree_with_btree_collections() {
        let join = |a: u8, b: u8| (!a.is_multiple_of(5)).then_some(a.max(b));
        for seed in 0..64u64 {
            let (mut map, mut other) = (VecMap::<i64, u8>::new(), VecMap::new());
            let (mut rmap, mut rother) = (BTreeMap::new(), BTreeMap::new());
            let mut set = VecSet::<(i64, i64, u64)>::new();
            let mut rset = BTreeSet::new();
            let mut x = seed;
            for _ in 0..512 {
                x = splitmix64(x);
                let k = (x >> 8) as i64 % 24 - 12;
                let v = (x >> 40) as u8;
                let sk = (k, k & 3, (x >> 16) % 3);
                match x % 6 {
                    0 => {
                        assert_eq!(map.get(&k), rmap.get(&k));
                        assert_eq!(set.contains_key(&sk), rset.contains(&sk));
                        if let (Some(a), Some(b)) = (map.get_mut(&k), rmap.get_mut(&k)) {
                            *a ^= v;
                            *b ^= v;
                        }
                    }
                    1 => {
                        map.insert(k, v);
                        rmap.insert(k, v);
                        set.insert(sk, ());
                        rset.insert(sk);
                    }
                    2 => {
                        map.remove(&k);
                        rmap.remove(&k);
                        set.remove(&sk);
                        rset.remove(&sk);
                    }
                    3 => {
                        map.retain(|&key, &val| key != k && val != v);
                        rmap.retain(|&key, &mut val| key != k && val != v);
                        set.retain(|&(a, _, c), _| a < k || c == 1);
                        rset.retain(|&(a, _, c)| a < k || c == 1);
                    }
                    4 => {
                        other.insert(k, v);
                        rother.insert(k, v);
                    }
                    _ => {
                        let want: BTreeMap<i64, u8> = rmap
                            .iter()
                            .filter_map(|(k, &a)| {
                                rother.get(k).and_then(|&b| join(a, b)).map(|j| (*k, j))
                            })
                            .collect();
                        assert_eq!(map.meet(&other, join), want != rmap, "seed {seed}");
                        rmap = want;
                    }
                }
                let entries: Vec<(i64, u8)> = rmap.iter().map(|(&k, &v)| (k, v)).collect();
                assert_eq!(map.0, entries, "seed {seed}");
                let keys: Vec<_> = rset.iter().map(|&k| (k, ())).collect();
                assert_eq!(set.0, keys, "seed {seed}");
            }
        }
    }

    #[test]
    fn join_into_is_an_idempotent_commutative_meet() {
        let (mut pairs, mut changed_pairs) = (0usize, 0usize);
        for m in [sample_module(), bounds_module(), loop_module()] {
            for scheme in Scheme::EVERY {
                for opt in [OptLevel::O0, OptLevel::O1] {
                    let (program, plan) = campaign_image(&m, scheme, opt).unwrap();
                    let states = in_states(&program, &plan);
                    for a in &states {
                        let mut aa = a.clone();
                        assert!(!join_into(&mut aa, a));
                        assert_eq!(aa, *a);
                        for b in &states {
                            let mut ab = a.clone();
                            let changed = join_into(&mut ab, b);
                            assert_eq!(changed, ab != *a, "{scheme:?} {opt:?}");
                            assert!(facts_within(&ab, a) && facts_within(&ab, b));
                            let mut ba = b.clone();
                            join_into(&mut ba, a);
                            assert_eq!(ab, ba, "{scheme:?} {opt:?}: not commutative");
                            pairs += 1;
                            changed_pairs += usize::from(changed);
                        }
                    }
                }
            }
        }
        eprintln!("{changed_pairs} of {pairs} joins changed the state");
        assert!(changed_pairs > 0 && changed_pairs < pairs);
    }

    /// Every function of the three test modules under every scheme and
    /// tier, with its image, plan and recovered CFG.
    fn each_function(mut f: impl FnMut(&Program, &LowerPlan, &FnPlan, &cfg::MachineCfg)) {
        for m in [sample_module(), bounds_module(), loop_module()] {
            for scheme in Scheme::EVERY {
                for opt in [OptLevel::O0, OptLevel::O1] {
                    let (program, plan) = campaign_image(&m, scheme, opt).unwrap();
                    for fp in &plan.funcs {
                        let g = cfg::recover(program.instrs(), fp.start..fp.start + fp.len);
                        f(&program, &plan, fp, &g);
                    }
                }
            }
        }
    }

    /// What any worklist order must establish: re-running a reachable
    /// block from its final in-state and joining the result into each
    /// successor changes nothing, and every such successor has an
    /// in-state.
    #[test]
    fn fixpoint_in_states_are_stable() {
        each_function(|program, plan, fp, g| {
            let mut it = interp(program, plan, fp);
            let inputs = it.fixpoint(g, FUEL_PER_BLOCK).expect("converges");
            for (b, input) in inputs.iter().enumerate() {
                let Some(input) = input else { continue };
                let mut st = AbsState::clone(input);
                let mut pairs = HashMap::new();
                for at in g.blocks[b].start..g.blocks[b].end {
                    it.transfer(&mut st, at, &mut pairs);
                }
                for &s in &g.blocks[b].succs {
                    let where_ = format!("{:?} {}: block {b} → {s}", plan.scheme, fp.name);
                    let mut prev = AbsState::clone(inputs[s].as_ref().expect(&where_));
                    assert!(!join_into(&mut prev, &st), "{where_}: in-state not stable");
                }
            }
        });
    }

    /// Lowest-first converges within two visits per block (plus the
    /// budget's slack) on every test function; a LIFO worklist needs
    /// three on `bounds_module`.
    #[test]
    fn fixpoint_converges_within_two_visits_per_block() {
        each_function(|program, plan, fp, g| {
            let converged = interp(program, plan, fp).fixpoint(g, 2).is_some();
            assert!(converged, "{:?} {}", plan.scheme, fp.name);
        });
    }

    #[test]
    fn fixpoint_out_of_fuel_fails_closed() {
        let (program, plan) = lower(Scheme::Hwst128Tchk);
        let mut fed = RegSites::default();
        for fp in &plan.funcs {
            let (findings, _) = interp(&program, &plan, fp).run(0);
            let codes: Vec<_> = findings.iter().map(|f| f.code).collect();
            assert_eq!(codes, ["FIXPOINT_FUEL"], "{}", fp.name);
            let (findings, _) = interp(&program, &plan, fp).run(FUEL_PER_BLOCK);
            assert!(findings.iter().all(|f| f.class != FindingClass::Lowering));
            let mut starved = RegSites::default();
            interp(&program, &plan, fp).reg_sites(&mut starved, 0);
            assert_eq!(starved.total(), 0, "{}", fp.name);
            interp(&program, &plan, fp).reg_sites(&mut fed, FUEL_PER_BLOCK);
        }
        assert!(fed.total() > 0, "the fuelled fixpoint lists sites");
    }

    #[test]
    fn finding_display_is_stable() {
        let f = Finding {
            class: FindingClass::Lowering,
            code: "CHECK_SRF_EMPTY",
            func: "main".into(),
            at: 3,
            pc: 0x1000c,
            cwe: None,
            message: "x".into(),
        };
        assert_eq!(
            f.to_string(),
            "lowering: [CHECK_SRF_EMPTY] main+3 (pc 0x1000c): x"
        );
    }
}
