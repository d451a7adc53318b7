//! Static bounds-proof pass: value-range analysis that deletes whole
//! checks.
//!
//! [`rce`](crate::rce) only removes a check dominated by an *identical*
//! earlier check; this pass goes further and removes checks whose
//! access it can **prove in-bounds of its provenance object** — alloca
//! sizes, `malloc` with a constant size, globals — including accesses
//! indexed by loop-bounded induction variables. The analysis is a
//! forward interval dataflow over the existing [`dataflow`](crate::dataflow)
//! framework:
//!
//! * the flow fact maps **local slots** (the loop-counter home of the
//!   builder idiom) to intervals, plus a may-killed set of heap objects
//!   (freed / possibly freed by a call),
//! * joins are interval hulls with [`ForwardAnalysis::widen`] snapping
//!   strictly-growing bounds to ±∞ so loops terminate,
//! * branch conditions (`i < n` with constant `n`) refine the interval
//!   along each CFG edge via [`ForwardAnalysis::transfer_edge`] — this
//!   is what recovers the loop trip count *after* widening destroyed
//!   the upper bound at the header,
//! * SSA value chains (`gep`, shifts, adds over the counter) are
//!   evaluated on demand against the per-site replayed fact.
//!
//! Every proven site yields a machine-readable **proof witness**
//! ([`Witness`]): the site, the provenance object and the derived byte
//! interval, with the invariant `0 <= lo <= hi <= size`. The witness is
//! (a) re-checked arithmetically by [`verify::verify_with`](crate::verify::verify_with)
//! when the instrumenter skipped the site, and (b) discharged at the
//! machine level by the [`binval`](crate::binval) witness obligations, so an
//! image that dropped a check without a valid witness fails translation
//! validation.
//!
//! ## Soundness argument (summary; see DESIGN.md §4h)
//!
//! A witness is only emitted when all of the following hold:
//!
//! 1. **Provenance**: the address chains to a creation site with a
//!    statically known size through value-preserving pointer arithmetic
//!    only, and the creation site dominates the access.
//! 2. **Spatial**: the access interval, evaluated over the fixpoint
//!    fact (an over-approximation of every run-time state reaching the
//!    site), lies inside `[0, size)` of that object.
//! 3. **Temporal**: the object is not may-killed at the site. Heap
//!    objects die at `free` and at any call whose callee could free an
//!    escaped pointer; allocas live until function return (the frame
//!    lock is released only in the epilogue) unless their address
//!    escapes and a call or an unknown `free` intervenes; globals are
//!    never killed (their lock word is 0, the always-live encoding).
//!
//! Under the hardware schemes, spatial safety additionally rides the
//! bounded machine accesses, which this pass never touches — only the
//! temporal check (`tchk` or the inline software pattern) is skipped.
//! Under SBCETS both helper calls are skipped, but only for non-heap
//! provenance: a heap pointer may be NULL (failed `malloc`), and the
//! skipped software spatial check is exactly what catches that.

use crate::dataflow::{solve_forward, Cfg, DefMap, Dominators, ForwardAnalysis};
use crate::ir::{BinOp, Function, Inst, Module, Terminator, VarId};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Recursion budget for on-demand SSA chain evaluation.
const EVAL_DEPTH: u32 = 48;

// ---------------------------------------------------------------------------
// Intervals
// ---------------------------------------------------------------------------

/// A (possibly half-)bounded signed interval; `None` means ±∞ on that
/// side. Both bounds are inclusive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Lower bound (`None` = −∞).
    pub lo: Option<i64>,
    /// Upper bound (`None` = +∞).
    pub hi: Option<i64>,
}

impl Interval {
    /// The unbounded interval (no information).
    pub const TOP: Interval = Interval { lo: None, hi: None };

    /// The single-point interval `[k, k]`.
    pub const fn point(k: i64) -> Interval {
        Interval {
            lo: Some(k),
            hi: Some(k),
        }
    }

    /// `[lo, hi]` with both bounds finite.
    pub const fn range(lo: i64, hi: i64) -> Interval {
        Interval {
            lo: Some(lo),
            hi: Some(hi),
        }
    }

    fn add_bound(a: Option<i64>, b: Option<i64>) -> Option<i64> {
        a?.checked_add(b?)
    }

    /// Interval addition (overflow widens to ∞).
    pub fn plus(self, o: Interval) -> Interval {
        Interval {
            lo: Self::add_bound(self.lo, o.lo),
            hi: Self::add_bound(self.hi, o.hi),
        }
    }

    /// Adds a constant to both bounds.
    pub fn add_const(self, k: i64) -> Interval {
        self.plus(Interval::point(k))
    }

    /// Interval negation.
    pub fn negated(self) -> Interval {
        Interval {
            lo: self.hi.and_then(|v| v.checked_neg()),
            hi: self.lo.and_then(|v| v.checked_neg()),
        }
    }

    /// Interval subtraction.
    pub fn minus(self, o: Interval) -> Interval {
        self.plus(o.negated())
    }

    /// Multiplication by a constant (overflow widens to ∞).
    pub fn mul_const(self, k: i64) -> Interval {
        if k == 0 {
            return Interval::point(0);
        }
        let lo = self.lo.and_then(|v| v.checked_mul(k));
        let hi = self.hi.and_then(|v| v.checked_mul(k));
        if k > 0 {
            Interval { lo, hi }
        } else {
            Interval { lo: hi, hi: lo }
        }
    }

    /// Left shift by a constant amount (`x << s` = `x * 2^s`).
    pub fn shl_const(self, s: i64) -> Interval {
        if !(0..63).contains(&s) {
            return Interval::TOP;
        }
        self.mul_const(1i64 << s)
    }

    /// Hull (join): smallest interval containing both.
    pub fn join(self, o: Interval) -> Interval {
        let lo = match (self.lo, o.lo) {
            (Some(a), Some(b)) => Some(a.min(b)),
            _ => None,
        };
        let hi = match (self.hi, o.hi) {
            (Some(a), Some(b)) => Some(a.max(b)),
            _ => None,
        };
        Interval { lo, hi }
    }

    /// Intersection (meet); may produce an empty interval (`lo > hi`)
    /// on infeasible paths, which is harmless: facts on such paths are
    /// vacuous.
    pub fn intersect(self, o: Interval) -> Interval {
        let lo = match (self.lo, o.lo) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        let hi = match (self.hi, o.hi) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        Interval { lo, hi }
    }

    /// Classic widening against the previous iterate `old`: any bound
    /// that grew strictly beyond `old`'s is snapped to ∞, any bound
    /// that did not grow keeps `old`'s value. The result is an upper
    /// bound of both arguments and each bound can change at most once
    /// more (finite → ∞), so repeated application stabilizes.
    pub fn widen_from(self, old: Interval) -> Interval {
        let lo = match (old.lo, self.lo) {
            (Some(o), Some(n)) if n < o => None,
            (Some(o), Some(_)) => Some(o),
            _ => None,
        };
        let hi = match (old.hi, self.hi) {
            (Some(o), Some(n)) if n > o => None,
            (Some(o), Some(_)) => Some(o),
            _ => None,
        };
        Interval { lo, hi }
    }

    /// Whether this interval contains `o` (is at least as wide).
    pub fn contains(self, o: Interval) -> bool {
        let lo_ok = match (self.lo, o.lo) {
            (None, _) => true,
            (Some(_), None) => false,
            (Some(a), Some(b)) => a <= b,
        };
        let hi_ok = match (self.hi, o.hi) {
            (None, _) => true,
            (Some(_), None) => false,
            (Some(a), Some(b)) => a >= b,
        };
        lo_ok && hi_ok
    }
}

// ---------------------------------------------------------------------------
// Witnesses
// ---------------------------------------------------------------------------

/// The provenance-object class of a witness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjKind {
    /// `StackAlloc` — frame-resident, lives until function return.
    Alloca,
    /// `Malloc` with a statically constant size.
    HeapConst,
    /// A module global (lock word 0: never temporally killed).
    Global,
}

/// A machine-readable elimination proof: "the access at (`func`,
/// `block`, `inst`) touches bytes `[lo, hi)` of an object of `size`
/// bytes, and the object is live there". Emitted once per proven
/// dereference site, consumed by the instrumenter (which skips the
/// check), by [`verify::verify_with`](crate::verify::verify_with) (which
/// re-checks the arithmetic before accepting the skip) and by the
/// `binval` witness obligations (which discharge it against the lowered
/// image).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Witness {
    /// Function containing the access.
    pub func: String,
    /// Source block index (pre-instrumentation coordinates).
    pub block: usize,
    /// Source instruction index within the block.
    pub inst: usize,
    /// Provenance-object class.
    pub kind: ObjKind,
    /// Object size in bytes.
    pub size: u64,
    /// First byte touched, relative to the object base (inclusive).
    pub lo: i64,
    /// One past the last byte touched (exclusive); `lo <= hi <= size`.
    pub hi: i64,
}

impl Witness {
    /// Whether the provenance object is heap-allocated (may be NULL on
    /// allocation failure — relevant for software spatial checks).
    pub fn heap(&self) -> bool {
        self.kind == ObjKind::HeapConst
    }

    /// The arithmetic validity re-check: the claimed byte range must
    /// lie inside the object. This is what `verify` and `binval`
    /// re-derive instead of trusting the analysis.
    pub fn arithmetic_ok(&self) -> bool {
        0 <= self.lo
            && self.lo <= self.hi
            && (self.hi as u64) <= self.size
            && self.size <= i64::MAX as u64
    }
}

/// Counters for the A10 table and `Compiled`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BoundsStats {
    /// Functions analyzed.
    pub funcs: usize,
    /// Functions skipped (not single-assignment).
    pub skipped_funcs: usize,
    /// Dereference sites seen.
    pub derefs: usize,
    /// Sites proven in-bounds and live (one witness each).
    pub proven: usize,
}

/// The module-level result of [`analyze`].
#[derive(Debug, Clone, Default)]
pub struct BoundsOutcome {
    /// One witness per proven site.
    pub witnesses: Vec<Witness>,
    /// Per-function map from (block, inst) to witness index.
    pub proven: HashMap<String, BTreeMap<(usize, usize), usize>>,
    /// Counters.
    pub stats: BoundsStats,
}

impl BoundsOutcome {
    /// The proven-site map for `func`, if any site was proven there.
    pub fn proven_for(&self, func: &str) -> Option<&BTreeMap<(usize, usize), usize>> {
        self.proven.get(func)
    }
}

// ---------------------------------------------------------------------------
// Provenance objects
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct ObjInfo {
    kind: ObjKind,
    size: u64,
    /// Creation site (for the dominance requirement).
    block: usize,
    inst: usize,
    /// Whether a pointer into the object leaves the function's SSA
    /// graph (call argument, stored to memory or a local). Escaped
    /// objects are killable by calls and unknown frees.
    escapes: bool,
}

struct ObjTable {
    /// Creation-site destination variable → object id.
    by_var: HashMap<VarId, usize>,
    objs: Vec<ObjInfo>,
    /// Any pointer-derived variable → the object it points into
    /// (over-approximated; used for escape and free attribution).
    derived: HashMap<VarId, usize>,
}

fn build_objs(module: &Module, f: &Function, defs: &DefMap<'_>) -> ObjTable {
    let mut by_var = HashMap::new();
    let mut objs = Vec::new();
    for (bi, b) in f.blocks.iter().enumerate() {
        for (ii, inst) in b.insts.iter().enumerate() {
            let rec = match inst {
                Inst::StackAlloc { dst, size } => Some((*dst, ObjKind::Alloca, *size)),
                Inst::Malloc { dst, size } => defs
                    .const_val(*size)
                    .filter(|&k| k >= 0)
                    .map(|k| (*dst, ObjKind::HeapConst, k as u64)),
                Inst::AddrOfGlobal { dst, global } => module
                    .globals
                    .get(global.0 as usize)
                    .map(|g| (*dst, ObjKind::Global, g.size)),
                _ => None,
            };
            if let Some((dst, kind, size)) = rec {
                by_var.insert(dst, objs.len());
                objs.push(ObjInfo {
                    kind,
                    size,
                    block: bi,
                    inst: ii,
                    escapes: false,
                });
            }
        }
    }

    // Derived-pointer closure (over-approximating: any arithmetic that
    // could carry the pointer propagates membership).
    let mut derived: HashMap<VarId, usize> = by_var.clone();
    let mut changed = true;
    while changed {
        changed = false;
        for b in &f.blocks {
            for inst in &b.insts {
                let (dst, base) = match inst {
                    Inst::Gep { dst, base, .. }
                    | Inst::GepImm { dst, base, .. }
                    | Inst::BinImm { dst, lhs: base, .. } => (*dst, *base),
                    Inst::Bin { dst, lhs, rhs, .. } => {
                        if let Some(&o) = derived.get(lhs).or_else(|| derived.get(rhs)) {
                            if derived.insert(*dst, o).is_none() {
                                changed = true;
                            }
                        }
                        continue;
                    }
                    _ => continue,
                };
                if let Some(&o) = derived.get(&base) {
                    if derived.insert(dst, o).is_none() {
                        changed = true;
                    }
                }
            }
        }
    }

    // Escape marking.
    for b in &f.blocks {
        for inst in &b.insts {
            let escaping: Vec<VarId> = match inst {
                Inst::Call { args, .. } => args.clone(),
                Inst::StorePtr { src, .. }
                | Inst::Store { src, .. }
                | Inst::LocalSet { src, .. } => vec![*src],
                _ => vec![],
            };
            for v in escaping {
                if let Some(&o) = derived.get(&v) {
                    objs[o].escapes = true;
                }
            }
        }
    }

    ObjTable {
        by_var,
        objs,
        derived,
    }
}

// ---------------------------------------------------------------------------
// The dataflow analysis
// ---------------------------------------------------------------------------

/// Flow fact: intervals for local slots (missing key = ⊤) plus the
/// may-killed object set.
#[derive(Debug, Clone, PartialEq, Default)]
struct Fact {
    locals: BTreeMap<u32, Interval>,
    killed: BTreeSet<usize>,
}

struct Ranges<'a> {
    defs: &'a DefMap<'a>,
    objs: &'a ObjTable,
    /// `LocalGet` destinations whose local is not re-`LocalSet` later
    /// in the same block — the value the block's terminator still sees.
    stable_gets: HashMap<VarId, (usize, u32)>,
    /// Hull over all solver iterates of each `LocalGet` result — a
    /// sound over-approximation of the value at the def point, used to
    /// evaluate cross-block SSA uses.
    var_range: RefCell<HashMap<VarId, Interval>>,
}

impl<'a> Ranges<'a> {
    fn new(f: &'a Function, defs: &'a DefMap<'a>, objs: &'a ObjTable) -> Self {
        let mut stable_gets = HashMap::new();
        for (bi, b) in f.blocks.iter().enumerate() {
            for (ii, inst) in b.insts.iter().enumerate() {
                if let Inst::LocalGet { dst, index } = inst {
                    let reset_later = b.insts[ii + 1..]
                        .iter()
                        .any(|i| matches!(i, Inst::LocalSet { index: l, .. } if l == index));
                    if !reset_later {
                        stable_gets.insert(*dst, (bi, index.0));
                    }
                }
            }
        }
        Ranges {
            defs,
            objs,
            stable_gets,
            var_range: RefCell::new(HashMap::new()),
        }
    }

    /// Evaluates the value range of `v` by walking its SSA definition
    /// chain. `replay` (per-site precise values for this block's
    /// `LocalGet`s) takes priority over the accumulated `var_range`.
    fn eval(&self, v: VarId, replay: Option<&HashMap<VarId, Interval>>, depth: u32) -> Interval {
        if depth >= EVAL_DEPTH {
            return Interval::TOP;
        }
        let c = self.defs.canon(v);
        match self.defs.def(c) {
            Some(Inst::Const { value, .. }) => Interval::point(*value),
            Some(Inst::LocalGet { dst, .. }) => replay
                .and_then(|m| m.get(dst).copied())
                .or_else(|| self.var_range.borrow().get(dst).copied())
                .unwrap_or(Interval::TOP),
            Some(Inst::Bin { op, lhs, rhs, .. }) => {
                let l = || self.eval(*lhs, replay, depth + 1);
                let r = || self.eval(*rhs, replay, depth + 1);
                match op {
                    BinOp::Add => l().plus(r()),
                    BinOp::Sub => l().minus(r()),
                    BinOp::Mul => {
                        if let Some(k) = self.defs.const_val(*rhs) {
                            l().mul_const(k)
                        } else if let Some(k) = self.defs.const_val(*lhs) {
                            r().mul_const(k)
                        } else {
                            Interval::TOP
                        }
                    }
                    BinOp::Sll => {
                        if let Some(k) = self.defs.const_val(*rhs) {
                            l().shl_const(k)
                        } else {
                            Interval::TOP
                        }
                    }
                    BinOp::And => match self.defs.const_val(*rhs) {
                        Some(k) if k >= 0 => Interval::range(0, k),
                        _ => Interval::TOP,
                    },
                    BinOp::Slt | BinOp::Sltu | BinOp::Eq | BinOp::Ne => Interval::range(0, 1),
                    _ => Interval::TOP,
                }
            }
            Some(Inst::BinImm { op, lhs, imm, .. }) => {
                let l = || self.eval(*lhs, replay, depth + 1);
                match op {
                    BinOp::Add => l().add_const(*imm),
                    BinOp::Sub => l().plus(Interval::point(*imm).negated()),
                    BinOp::Mul => l().mul_const(*imm),
                    BinOp::Sll => l().shl_const(*imm),
                    BinOp::And if *imm >= 0 => Interval::range(0, *imm),
                    BinOp::Srl if (1..64).contains(imm) => Interval {
                        lo: Some(0),
                        hi: None,
                    },
                    BinOp::Slt | BinOp::Sltu | BinOp::Eq | BinOp::Ne => Interval::range(0, 1),
                    _ => Interval::TOP,
                }
            }
            _ => Interval::TOP,
        }
    }

    /// Walks the pointer chain of `v` to a provenance object, returning
    /// the object id and the byte-offset interval relative to its base.
    fn obj_of(
        &self,
        v: VarId,
        replay: Option<&HashMap<VarId, Interval>>,
        depth: u32,
    ) -> Option<(usize, Interval)> {
        if depth >= EVAL_DEPTH {
            return None;
        }
        let c = self.defs.canon(v);
        if let Some(&o) = self.objs.by_var.get(&c) {
            return Some((o, Interval::point(0)));
        }
        match self.defs.def(c) {
            Some(Inst::Gep { base, offset, .. }) => {
                let (o, iv) = self.obj_of(*base, replay, depth + 1)?;
                Some((o, iv.plus(self.eval(*offset, replay, 0))))
            }
            Some(Inst::GepImm { base, imm, .. }) => {
                let (o, iv) = self.obj_of(*base, replay, depth + 1)?;
                Some((o, iv.add_const(*imm)))
            }
            Some(Inst::BinImm {
                op: BinOp::Add,
                lhs,
                imm,
                ..
            }) => {
                let (o, iv) = self.obj_of(*lhs, replay, depth + 1)?;
                Some((o, iv.add_const(*imm)))
            }
            _ => None,
        }
    }

    /// One instruction's effect on the fact. In solver mode (`replay`
    /// is `None`) `LocalGet` results accumulate into `var_range`; in
    /// replay mode they are recorded precisely for the current path.
    fn step(&self, inst: &Inst, fact: &mut Fact, replay: Option<&mut HashMap<VarId, Interval>>) {
        match inst {
            Inst::LocalGet { dst, index } => {
                let iv = fact.locals.get(&index.0).copied().unwrap_or(Interval::TOP);
                match replay {
                    Some(map) => {
                        map.insert(*dst, iv);
                    }
                    None => {
                        let mut vr = self.var_range.borrow_mut();
                        vr.entry(*dst)
                            .and_modify(|cur| *cur = cur.join(iv))
                            .or_insert(iv);
                    }
                }
            }
            Inst::LocalSet { src, index } => {
                let iv = self.eval(*src, replay.as_deref(), 0);
                fact.locals.insert(index.0, iv);
            }
            Inst::Malloc { dst, .. } | Inst::StackAlloc { dst, .. } => {
                // Re-executing the creation site yields a fresh, live
                // object instance.
                if let Some(&o) = self.objs.by_var.get(dst) {
                    fact.killed.remove(&o);
                }
            }
            Inst::Free { ptr } => {
                if let Some(&o) = self.objs.derived.get(&self.defs.canon(*ptr)) {
                    fact.killed.insert(o);
                } else {
                    // Unknown pointer: could free anything whose
                    // address it may alias — conservatively everything
                    // but globals (a global's lock word is 0 and never
                    // fails a temporal check).
                    for (o, info) in self.objs.objs.iter().enumerate() {
                        if info.kind != ObjKind::Global {
                            fact.killed.insert(o);
                        }
                    }
                }
            }
            Inst::Call { .. } => {
                // The callee may free any pointer that escaped.
                for (o, info) in self.objs.objs.iter().enumerate() {
                    if info.escapes && info.kind != ObjKind::Global {
                        fact.killed.insert(o);
                    }
                }
            }
            _ => {}
        }
    }

    /// Branch-condition constraints for one edge: `(local, interval)`
    /// pairs that hold when the edge is taken. Only conditions over a
    /// *stable* `LocalGet` of the branching block translate to local
    /// constraints (the local provably still holds the tested value at
    /// the block's end).
    fn edge_constraints(&self, from: usize, taken: bool, cond: VarId) -> Vec<(u32, Interval)> {
        let mut out = Vec::new();
        let mut push = |v: VarId, iv: Interval| {
            if let Some(&(b, local)) = self.stable_gets.get(&self.defs.canon(v)) {
                if b == from {
                    out.push((local, iv));
                }
            }
        };
        let below = |k: i64| Interval {
            lo: None,
            hi: k.checked_sub(1),
        };
        let at_least = |k: i64| Interval {
            lo: Some(k),
            hi: None,
        };
        match self.defs.def(self.defs.canon(cond)) {
            Some(Inst::Bin { op, lhs, rhs, .. }) => {
                let kl = self.defs.const_val(*lhs);
                let kr = self.defs.const_val(*rhs);
                match (op, kl, kr) {
                    (BinOp::Slt, _, Some(k)) => {
                        push(*lhs, if taken { below(k) } else { at_least(k) })
                    }
                    (BinOp::Slt, Some(k), _) => {
                        if taken {
                            if let Some(k1) = k.checked_add(1) {
                                push(*rhs, at_least(k1));
                            }
                        } else {
                            push(
                                *rhs,
                                Interval {
                                    lo: None,
                                    hi: Some(k),
                                },
                            );
                        }
                    }
                    (BinOp::Sltu, _, Some(k)) if k > 0 && taken => {
                        // x <u k with k > 0 pins x into [0, k-1] even in
                        // signed terms.
                        push(*lhs, Interval::range(0, k - 1));
                    }
                    (BinOp::Eq, _, Some(k)) if taken => push(*lhs, Interval::point(k)),
                    (BinOp::Eq, Some(k), _) if taken => push(*rhs, Interval::point(k)),
                    (BinOp::Ne, _, Some(k)) if !taken => push(*lhs, Interval::point(k)),
                    (BinOp::Ne, Some(k), _) if !taken => push(*rhs, Interval::point(k)),
                    _ => {}
                }
            }
            Some(Inst::BinImm { op, lhs, imm, .. }) => match op {
                BinOp::Slt => push(*lhs, if taken { below(*imm) } else { at_least(*imm) }),
                BinOp::Sltu if *imm > 0 && taken => push(*lhs, Interval::range(0, imm - 1)),
                BinOp::Eq if taken => push(*lhs, Interval::point(*imm)),
                BinOp::Ne if !taken => push(*lhs, Interval::point(*imm)),
                _ => {}
            },
            _ => {}
        }
        out
    }
}

impl ForwardAnalysis for Ranges<'_> {
    type Fact = Fact;

    fn entry_fact(&self) -> Fact {
        Fact::default()
    }

    fn meet(&self, into: &mut Fact, other: &Fact) {
        // Locals: keep keys known on both paths, hulled.
        into.locals.retain(|k, _| other.locals.contains_key(k));
        for (k, iv) in into.locals.iter_mut() {
            *iv = iv.join(other.locals[k]);
        }
        // Killed: may-union.
        into.killed.extend(other.killed.iter().copied());
    }

    fn transfer(&self, inst: &Inst, fact: &mut Fact) {
        self.step(inst, fact, None);
    }

    fn transfer_edge(&self, from: usize, to: usize, term: &Terminator, fact: &mut Fact) {
        let Terminator::Br { cond, then_, else_ } = term else {
            return;
        };
        if then_ == else_ {
            return;
        }
        let taken = to == then_.0 as usize;
        for (local, iv) in self.edge_constraints(from, taken, *cond) {
            let cur = fact.locals.get(&local).copied().unwrap_or(Interval::TOP);
            fact.locals.insert(local, cur.intersect(iv));
        }
    }

    fn widen(&self, old: &Fact, new: &mut Fact) {
        new.locals.retain(|k, _| old.locals.contains_key(k));
        for (k, iv) in new.locals.iter_mut() {
            *iv = iv.widen_from(old.locals[k]);
        }
        new.killed.extend(old.killed.iter().copied());
    }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// `(addr, constant offset, access bytes)` of a dereference.
fn deref_of(inst: &Inst) -> Option<(VarId, i64, u64)> {
    match inst {
        Inst::Load {
            addr,
            offset,
            width,
            ..
        }
        | Inst::Store {
            addr,
            offset,
            width,
            ..
        } => Some((*addr, *offset, width.bytes())),
        Inst::LoadPtr { addr, offset, .. } | Inst::StorePtr { addr, offset, .. } => {
            Some((*addr, *offset, 8))
        }
        _ => None,
    }
}

/// Runs the value-range analysis over every function of `module` and
/// returns the proof witnesses for every dereference it can prove
/// in-bounds and live. The module is the *pre-instrumentation* IR (the
/// same input [`instrument`](crate::instrument) consumes).
pub fn analyze(module: &Module) -> BoundsOutcome {
    let mut out = BoundsOutcome::default();
    for f in &module.funcs {
        analyze_func(module, f, &mut out);
    }
    out
}

fn analyze_func(module: &Module, f: &Function, out: &mut BoundsOutcome) {
    out.stats.funcs += 1;
    let Some(defs) = DefMap::build(f) else {
        out.stats.skipped_funcs += 1;
        return;
    };
    let cfg = Cfg::new(f);
    let doms = Dominators::compute(&cfg);
    let objs = build_objs(module, f, &defs);
    let ranges = Ranges::new(f, &defs, &objs);
    let facts = solve_forward(f, &cfg, &ranges);

    let mut proven: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    for (b, entry) in facts.iter().enumerate() {
        let Some(entry) = entry else { continue };
        let mut cur = entry.clone();
        let mut replay: HashMap<VarId, Interval> = HashMap::new();
        for (ii, inst) in f.blocks[b].insts.iter().enumerate() {
            if let Some((addr, off, n)) = deref_of(inst) {
                out.stats.derefs += 1;
                if let Some(w) = try_prove(f, &ranges, &doms, &cur, &replay, b, ii, addr, off, n) {
                    proven.insert((b, ii), out.witnesses.len());
                    out.witnesses.push(w);
                    out.stats.proven += 1;
                }
            }
            ranges.step(inst, &mut cur, Some(&mut replay));
        }
    }
    if !proven.is_empty() {
        out.proven.insert(f.name.clone(), proven);
    }
}

#[allow(clippy::too_many_arguments)]
fn try_prove(
    f: &Function,
    ranges: &Ranges<'_>,
    doms: &Dominators,
    fact: &Fact,
    replay: &HashMap<VarId, Interval>,
    block: usize,
    inst: usize,
    addr: VarId,
    off: i64,
    n: u64,
) -> Option<Witness> {
    let (o, iv) = ranges.obj_of(addr, Some(replay), 0)?;
    let info = &ranges.objs.objs[o];
    // The creation site must execute before the access on every path.
    if info.block == block {
        if info.inst >= inst {
            return None;
        }
    } else if !doms.dominates(info.block, block) {
        return None;
    }
    // Temporal: the object must be provably live here.
    if fact.killed.contains(&o) {
        return None;
    }
    // Spatial: [lo, hi) ⊆ [0, size).
    let lo = iv.lo?.checked_add(off)?;
    let hi = iv.hi?.checked_add(off)?.checked_add(n as i64)?;
    let w = Witness {
        func: f.name.clone(),
        block,
        inst,
        kind: info.kind,
        size: info.size,
        lo,
        hi,
    };
    if !w.arithmetic_ok() {
        return None;
    }
    Some(w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Width;
    use crate::ModuleBuilder;

    /// `main` fills an array of `slots` u64 slots in a `0..n` loop at
    /// `arr[i]`, then returns.
    fn loop_fill(slots: u64, n: i64, heap: bool) -> Module {
        let mut mb = ModuleBuilder::new();
        let mut f = mb.func("main");
        let arr = if heap {
            f.malloc_bytes(slots * 8)
        } else {
            f.stack_alloc(slots * 8)
        };
        let i = f.local();
        let z = f.konst(0);
        f.local_set(i, z);
        let head = f.new_block();
        let body = f.new_block();
        let done = f.new_block();
        f.jmp(head);
        f.switch_to(head);
        let iv = f.local_get(i);
        let e = f.konst(n);
        let c = f.bin(BinOp::Slt, iv, e);
        f.br(c, body, done);
        f.switch_to(body);
        let iv2 = f.local_get(i);
        let off = f.bin_imm(BinOp::Sll, iv2, 3);
        let slot = f.gep(arr, off);
        let v = f.konst(7);
        f.store(v, slot, 0, Width::U64);
        let iv3 = f.local_get(i);
        let nx = f.bin_imm(BinOp::Add, iv3, 1);
        f.local_set(i, nx);
        f.jmp(head);
        f.switch_to(done);
        if heap {
            f.free(arr);
        }
        f.ret(Some(z));
        f.finish();
        mb.finish()
    }

    #[test]
    fn interval_algebra() {
        let a = Interval::range(0, 4);
        assert_eq!(a.add_const(3), Interval::range(3, 7));
        assert_eq!(a.mul_const(-2), Interval::range(-8, 0));
        assert_eq!(a.shl_const(3), Interval::range(0, 32));
        assert_eq!(a.join(Interval::range(-1, 2)), Interval::range(-1, 4));
        assert_eq!(a.intersect(Interval::range(2, 9)), Interval::range(2, 4));
        assert_eq!(
            Interval::TOP.intersect(Interval::range(0, 5)),
            Interval::range(0, 5)
        );
        // Overflow widens, never wraps.
        assert_eq!(Interval::point(i64::MAX).add_const(1).hi, None);
    }

    #[test]
    fn widening_terminates_and_is_an_upper_bound() {
        let old = Interval::range(0, 3);
        let grown = Interval::range(0, 4);
        let w = grown.widen_from(old);
        assert_eq!(
            w,
            Interval {
                lo: Some(0),
                hi: None
            }
        );
        assert!(w.contains(old) && w.contains(grown));
        // Fixed point: widening against itself changes nothing.
        assert_eq!(w.widen_from(w), w);
        // A shrink keeps the old bound (monotone ascending chain).
        assert_eq!(Interval::range(1, 2).widen_from(old), old);
        // Any chain stabilizes after at most two widenings per bound.
        let mut cur = Interval::point(0);
        for k in 1..100 {
            let next = cur.join(Interval::point(k)).widen_from(cur);
            if next == cur {
                break;
            }
            cur = next;
            assert!(k <= 2, "widening failed to stabilize");
        }
    }

    #[test]
    fn loop_bounded_store_is_proven_in_bounds() {
        for heap in [false, true] {
            let m = loop_fill(8, 8, heap);
            let out = analyze(&m);
            assert_eq!(out.stats.proven, 1, "heap={heap}: {:?}", out.stats);
            let w = &out.witnesses[0];
            assert_eq!((w.lo, w.hi, w.size), (0, 64, 64));
            assert_eq!(w.heap(), heap);
            assert!(w.arithmetic_ok());
        }
    }

    #[test]
    fn overrunning_loop_is_not_proven() {
        // 8 slots, 9 iterations: hi = 72 > 64.
        let out = analyze(&loop_fill(8, 9, false));
        assert_eq!(out.stats.proven, 0);
    }

    #[test]
    fn constant_offsets_are_proven() {
        let mut mb = ModuleBuilder::new();
        let mut f = mb.func("main");
        let p = mb_alloc(&mut f, 32);
        let v = f.konst(1);
        f.store(v, p, 24, Width::U64); // in bounds
        let q = f.gep_imm(p, 32);
        f.store(v, q, 0, Width::U64); // off the end
        f.ret(None);
        f.finish();
        let out = analyze(&mb.finish());
        assert_eq!(out.stats.derefs, 2);
        assert_eq!(out.stats.proven, 1);
        assert_eq!(out.witnesses[0].hi, 32);
    }

    fn mb_alloc(f: &mut crate::FuncBuilder<'_>, size: u64) -> VarId {
        f.stack_alloc(size)
    }

    #[test]
    fn free_kills_heap_proofs() {
        let mut mb = ModuleBuilder::new();
        let mut f = mb.func("main");
        let p = f.malloc_bytes(16);
        f.free(p);
        let r = f.load(p, 0, Width::U64); // use-after-free: must stay checked
        f.ret(Some(r));
        f.finish();
        let out = analyze(&mb.finish());
        assert_eq!(out.stats.proven, 0);
    }

    #[test]
    fn calls_kill_escaped_objects_only() {
        let mut mb = ModuleBuilder::new();
        let mut h = mb.func("helper");
        let _p = h.param(true);
        h.ret(None);
        h.finish();
        let mut f = mb.func("main");
        let esc = f.malloc_bytes(16);
        let private = f.malloc_bytes(16);
        f.call_void("helper", &[esc]);
        let a = f.load(esc, 0, Width::U64); // escaped: callee may free
        let b = f.load(private, 0, Width::U64); // private: provably live
        let s = f.bin(BinOp::Add, a, b);
        f.ret(Some(s));
        f.finish();
        let out = analyze(&mb.finish());
        assert_eq!(out.stats.proven, 1);
        assert_eq!(out.witnesses[0].kind, ObjKind::HeapConst);
    }

    #[test]
    fn globals_are_proven_and_never_killed() {
        let mut mb = ModuleBuilder::new();
        let g = mb.global("tab", 40);
        let mut h = mb.func("helper");
        h.ret(None);
        h.finish();
        let mut f = mb.func("main");
        let p = f.addr_of_global(g);
        f.call_void("helper", &[]);
        let r = f.load(p, 32, Width::U64);
        f.ret(Some(r));
        f.finish();
        let out = analyze(&mb.finish());
        assert_eq!(out.stats.proven, 1);
        assert_eq!(out.witnesses[0].kind, ObjKind::Global);
    }

    #[test]
    fn unknown_provenance_is_never_proven() {
        let mut mb = ModuleBuilder::new();
        let mut f = mb.func("main");
        let p = f.param(true);
        let r = f.load(p, 0, Width::U64);
        f.ret(Some(r));
        f.finish();
        let out = analyze(&mb.finish());
        assert_eq!(out.stats.proven, 0);
    }

    #[test]
    fn non_dominating_creation_is_rejected() {
        let mut mb = ModuleBuilder::new();
        let mut f = mb.func("main");
        let c = f.param(false);
        let then_b = f.new_block();
        let join = f.new_block();
        f.br(c, then_b, join);
        f.switch_to(then_b);
        let _p = f.stack_alloc(16);
        f.jmp(join);
        f.switch_to(join);
        // No deref of p here (p would not be single-assignment-visible
        // across the merge in well-formed IR, but the analysis must not
        // prove anything rooted at a non-dominating creation anyway).
        f.ret(None);
        f.finish();
        let out = analyze(&mb.finish());
        assert_eq!(out.stats.proven, 0);
    }
}
