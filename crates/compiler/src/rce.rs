//! Redundant-check elimination (RCE) over instrumented IR.
//!
//! An *available-checks* forward must-dataflow: a check fact is
//! available at a program point iff **every** path from the function
//! entry performs an identical check after the last event that could
//! invalidate it. A check instruction whose fact is already available
//! when control reaches it can never fire — the earlier identical check
//! either passed (so this one passes too) or aborted (so this one never
//! runs) — and is deleted.
//!
//! Three check shapes are recognised, covering every [`crate::Scheme`]:
//!
//! * [`Inst::Tchk`] — the hardware temporal check, keyed by the checked
//!   pointer's SRF root (derived pointers inherit metadata verbatim),
//! * `__sbcets_spatial_check` / `__sbcets_temporal_check` helper calls
//!   (the SBCETS software scheme), keyed by their resolved argument
//!   values,
//! * the HWST128 inline software temporal pattern emitted by
//!   `instrument::sw_temporal_check` (lock-nonzero branch, load, key
//!   compare, abort), eliminated by short-circuiting the pattern
//!   header's branch to the continuation block.
//!
//! # Soundness
//!
//! Facts are killed by every event that could change a check's outcome:
//! redefinition of any mentioned variable, frees (`Free`/`FreeMeta`) and
//! frame unlocks for temporal facts, calls to unknown functions (which
//! may free or unlock) for temporal facts, and SRF rebinds
//! (`MetaLoad`/`BindSpatial`/`BindTemporal`) for `Tchk` facts rooted at
//! the rebound pointer. Spatial facts survive calls and frees because a
//! region's base/bound never change over its lifetime and the values
//! the fact mentions are immutable virtual registers.
//!
//! One analysis pass justifies all deletions simultaneously: for any
//! deleted check `d`, every entry path reaches a generating check after
//! its last kill, and the *first* such post-kill check on each path is
//! never deleted (its own fact cannot be available at its entry on that
//! path), so a kept check always covers `d`. The pass plans every
//! deletion against that one solution before it applies any: the
//! solution borrows the function, so it cannot be re-solved or edited
//! mid-pass.
//!
//! The only assumption beyond the IR semantics is that user stores can
//! never write a lock word: lock words live in the runtime's lock
//! region, which no user allocation overlaps, and every user store is
//! itself bounds-checked under the schemes that carry temporal facts
//! (see DESIGN.md).
//!
//! Functions that are not single-assignment are skipped wholesale (see
//! [`DefMap::build`]); the pass is then the identity on them.

use crate::dataflow::{inst_defs, solve_forward, Cfg, DefMap, ForwardAnalysis};
use crate::instrument::{META_LOAD_FN, META_STORE_FN, SPATIAL_CHECK_FN, TEMPORAL_CHECK_FN};
use crate::ir::{BinOp, BlockId, Function, Inst, Module, Terminator, VarId, Width};
use std::collections::HashMap;

/// One available check, in canonical form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CheckFact {
    /// A hardware `tchk` validated the SRF entry rooted at this pointer.
    Tchk(VarId),
    /// A `__sbcets_spatial_check(root + delta, base, bound, size)`
    /// passed.
    SbSpatial {
        /// Spatial anchor of the checked address.
        root: VarId,
        /// Constant byte offset from the anchor.
        delta: i64,
        /// Base companion (copy-resolved).
        base: VarId,
        /// Bound companion (copy-resolved).
        bound: VarId,
        /// Access size in bytes.
        size: i64,
    },
    /// A temporal check (helper call or inline HWST128 pattern)
    /// validated `*lock == key`.
    SbTemporal {
        /// Key companion (copy-resolved).
        key: VarId,
        /// Lock companion (copy-resolved).
        lock: VarId,
    },
}

impl CheckFact {
    fn mentions(&self, v: VarId) -> bool {
        match *self {
            CheckFact::Tchk(r) => r == v,
            CheckFact::SbSpatial {
                root, base, bound, ..
            } => root == v || base == v || bound == v,
            CheckFact::SbTemporal { key, lock } => key == v || lock == v,
        }
    }

    fn is_temporal(&self) -> bool {
        matches!(self, CheckFact::Tchk(_) | CheckFact::SbTemporal { .. })
    }
}

/// The must-available set at one program point: a sorted vector without
/// duplicates. The sets are small (a handful of facts) and are cloned
/// along every CFG edge, so one contiguous allocation beats a tree.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FactSet(Vec<CheckFact>);

impl FactSet {
    /// The empty set.
    pub fn new() -> FactSet {
        FactSet(Vec::new())
    }

    /// Whether `f` is in the set.
    pub fn contains(&self, f: &CheckFact) -> bool {
        self.0.binary_search(f).is_ok()
    }

    /// Adds `f` unless it is already present.
    pub fn insert(&mut self, f: CheckFact) {
        if let Err(at) = self.0.binary_search(&f) {
            self.0.insert(at, f);
        }
    }

    /// Keeps only the facts `keep` accepts.
    pub fn retain(&mut self, keep: impl FnMut(&CheckFact) -> bool) {
        self.0.retain(keep);
    }

    /// The facts in ascending order.
    pub fn iter(&self) -> std::slice::Iter<'_, CheckFact> {
        self.0.iter()
    }
}

/// A recognised HWST128 inline temporal-check pattern (see
/// `instrument::sw_temporal_check`) headed at one block.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SwTemporalPattern {
    pub(crate) key: VarId,
    pub(crate) lock: VarId,
    /// The continuation block both pattern exits fall through to.
    pub(crate) cont: usize,
    /// The pattern's load-and-compare block (exempt from deref
    /// verification: it reads the lock word itself).
    pub(crate) check_block: usize,
}

/// Matches the exact instruction shape `sw_temporal_check` emits, with
/// block `header` as the block ending in the `lock != 0` branch.
pub(crate) fn match_sw_temporal(f: &Function, header: usize) -> Option<SwTemporalPattern> {
    let hb = &f.blocks[header];
    let n = hb.insts.len();
    if n < 2 {
        return None;
    }
    let zero = match hb.insts[n - 2] {
        Inst::Const { dst, value: 0 } => dst,
        _ => return None,
    };
    let (has_lock, lock) = match hb.insts[n - 1] {
        Inst::Bin {
            op: BinOp::Ne,
            dst,
            lhs,
            rhs,
        } if rhs == zero => (dst, lhs),
        _ => return None,
    };
    let Terminator::Br {
        cond,
        then_: check,
        else_: cont,
    } = hb.term
    else {
        return None;
    };
    if cond != has_lock || check == cont {
        return None;
    }
    let (check, cont) = (check.0 as usize, cont.0 as usize);
    let cb = f.blocks.get(check)?;
    if cb.insts.len() != 2 {
        return None;
    }
    let stored = match cb.insts[0] {
        Inst::Load {
            dst,
            addr,
            offset: 0,
            width: Width::U64,
        } if addr == lock => dst,
        _ => return None,
    };
    let (bad, key) = match cb.insts[1] {
        Inst::Bin {
            op: BinOp::Ne,
            dst,
            lhs,
            rhs,
        } if lhs == stored => (dst, rhs),
        _ => return None,
    };
    let Terminator::Br {
        cond,
        then_: abort,
        else_: cont2,
    } = cb.term
    else {
        return None;
    };
    if cond != bad || cont2.0 as usize != cont {
        return None;
    }
    let ab = f.blocks.get(abort.0 as usize)?;
    if ab.insts.len() != 1 || !matches!(ab.term, Terminator::Ret { value: None }) {
        return None;
    }
    match ab.insts[0] {
        Inst::AbortTemporal {
            key: k,
            lock: l,
            stored: s,
        } if k == key && l == lock && s == stored => {}
        _ => return None,
    }
    Some(SwTemporalPattern {
        key,
        lock,
        cont,
        check_block: check,
    })
}

/// Recognises every inline temporal pattern of `f`, keyed by header
/// block index.
pub(crate) fn find_patterns(f: &Function) -> HashMap<usize, SwTemporalPattern> {
    (0..f.blocks.len())
        .filter_map(|b| match_sw_temporal(f, b).map(|p| (b, p)))
        .collect()
}

/// The available-checks transfer function (shared with the
/// completeness verifier, which replays it per instruction).
/// The availability fact one of the three explicit check forms
/// (`tchk`, spatial helper call, temporal helper call) establishes, if
/// `inst` is one. [`transfer_check`] inserts it and [`redundant`]
/// queries it — a single constructor keeps the two from drifting apart
/// (the witness-coverage obligations in `binval` assume a removed check
/// was redundant against *exactly* the fact an earlier check inserted).
pub(crate) fn check_fact_of(defs: &DefMap<'_>, inst: &Inst) -> Option<CheckFact> {
    match inst {
        Inst::Tchk { ptr } => Some(CheckFact::Tchk(defs.temporal_root(*ptr))),
        Inst::Call { func, args, .. } if func == SPATIAL_CHECK_FN && args.len() == 4 => {
            let (root, delta) = defs.spatial_anchor(args[0]);
            let size = defs.const_val(args[3])?;
            Some(CheckFact::SbSpatial {
                root,
                delta,
                base: defs.canon(args[1]),
                bound: defs.canon(args[2]),
                size,
            })
        }
        Inst::Call { func, args, .. } if func == TEMPORAL_CHECK_FN && args.len() == 2 => {
            Some(CheckFact::SbTemporal {
                key: defs.canon(args[0]),
                lock: defs.canon(args[1]),
            })
        }
        _ => None,
    }
}

pub(crate) fn transfer_check(defs: &DefMap<'_>, inst: &Inst, fact: &mut FactSet) {
    // Redefinition of any mentioned variable invalidates the fact.
    for d in inst_defs(inst) {
        fact.retain(|f| !f.mentions(d));
    }
    if let Some(f) = check_fact_of(defs, inst) {
        fact.insert(f);
        return;
    }
    match inst {
        Inst::Call { func, .. } => {
            if func == SPATIAL_CHECK_FN
                || func == TEMPORAL_CHECK_FN
                || func == META_LOAD_FN
                || func == META_STORE_FN
            {
                // The check and metadata helpers read/write shadow or
                // lock words only and never free memory, so every fact
                // survives (a spatial call whose size is not constant
                // produces no fact, but still kills nothing).
            } else {
                // An unknown callee may free memory or (on return of a
                // callee with stack allocations) release a frame lock:
                // all temporal facts die. Spatial facts survive — a
                // region's base/bound are immutable.
                fact.retain(|f| !f.is_temporal());
            }
        }
        Inst::Free { .. } | Inst::FreeMeta { .. } | Inst::FrameUnlock { .. } => {
            fact.retain(|f| !f.is_temporal());
        }
        // Rebinding a pointer's SRF entry invalidates hardware check
        // facts rooted at it: the next tchk sees different metadata.
        Inst::MetaLoad { ptr, .. }
        | Inst::BindSpatial { ptr, .. }
        | Inst::BindTemporal { ptr, .. } => {
            let root = defs.temporal_root(*ptr);
            fact.retain(|f| !matches!(f, CheckFact::Tchk(r) if *r == root));
        }
        _ => {}
    }
}

struct AvailableChecks<'a> {
    defs: &'a DefMap<'a>,
    patterns: &'a HashMap<usize, SwTemporalPattern>,
}

impl ForwardAnalysis for AvailableChecks<'_> {
    type Fact = FactSet;

    fn entry_fact(&self) -> FactSet {
        FactSet::new()
    }

    fn meet(&self, into: &mut FactSet, other: &FactSet) {
        into.retain(|f| other.contains(f));
    }

    fn transfer(&self, inst: &Inst, fact: &mut FactSet) {
        transfer_check(self.defs, inst, fact);
    }

    fn transfer_term(&self, block: usize, _term: &Terminator, fact: &mut FactSet) {
        // An inline temporal pattern checks on the taken edge and skips
        // on the lock==0 edge; on both, `*lock == key` can no longer
        // fail, so the fact holds on every out-edge of the header.
        if let Some(p) = self.patterns.get(&block) {
            fact.insert(CheckFact::SbTemporal {
                key: self.defs.canon(p.key),
                lock: self.defs.canon(p.lock),
            });
        }
    }
}

/// The per-function available-checks solution: the def index (which
/// borrows the function), the recognized inline temporal patterns by
/// header block, and one entry-fact per block (`None` on unreachable
/// blocks).
pub(crate) type ChecksSolution<'f> = (
    DefMap<'f>,
    HashMap<usize, SwTemporalPattern>,
    Vec<Option<FactSet>>,
);

/// Computes the available-checks solution for one function, or `None`
/// if the function is not single-assignment.
pub(crate) fn available_checks(f: &Function) -> Option<ChecksSolution<'_>> {
    let defs = DefMap::build(f)?;
    let patterns = find_patterns(f);
    let cfg = Cfg::new(f);
    let analysis = AvailableChecks {
        defs: &defs,
        patterns: &patterns,
    };
    let facts = solve_forward(f, &cfg, &analysis);
    Some((defs, patterns, facts))
}

/// Counters from one [`eliminate`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RceStats {
    /// `Tchk` instructions deleted.
    pub tchk_removed: usize,
    /// `__sbcets_spatial_check` calls deleted.
    pub spatial_removed: usize,
    /// `__sbcets_temporal_check` calls deleted.
    pub temporal_removed: usize,
    /// HWST128 inline temporal patterns short-circuited.
    pub patterns_removed: usize,
    /// Functions skipped (not single-assignment).
    pub skipped_funcs: usize,
}

impl RceStats {
    /// Total static checks removed.
    pub fn total(&self) -> usize {
        self.tchk_removed + self.spatial_removed + self.temporal_removed + self.patterns_removed
    }
}

/// Counts the static check sites in an instrumented module: `Tchk`s,
/// spatial/temporal helper calls, and inline temporal patterns.
pub fn static_check_count(m: &Module) -> usize {
    let mut n = 0;
    for f in &m.funcs {
        n += find_patterns(f).len();
        for b in &f.blocks {
            for i in &b.insts {
                match i {
                    Inst::Tchk { .. } => n += 1,
                    Inst::Call { func, .. }
                        if func == SPATIAL_CHECK_FN || func == TEMPORAL_CHECK_FN =>
                    {
                        n += 1
                    }
                    _ => {}
                }
            }
        }
    }
    n
}

/// Runs redundant-check elimination over an instrumented module.
pub fn eliminate(module: &mut Module) -> RceStats {
    let mut stats = RceStats::default();
    for f in &mut module.funcs {
        eliminate_in(f, &mut stats);
    }
    stats
}

fn redundant(defs: &DefMap<'_>, inst: &Inst, fact: &FactSet) -> bool {
    // A check defines nothing, so it can simply be dropped; a call
    // with a destination is not removable even if its fact is covered.
    let removable = matches!(inst, Inst::Tchk { .. } | Inst::Call { dst: None, .. });
    removable && check_fact_of(defs, inst).is_some_and(|f| fact.contains(&f))
}

/// What one elimination pass changes in a function, decided against one
/// fixed available-checks solution before any instruction moves.
#[derive(Default)]
struct Plan {
    /// Redundant checks to delete, as `(block, instruction)` in program
    /// order.
    deletions: Vec<(usize, usize)>,
    /// Redundant inline patterns: `(header block, continuation block)`.
    short_circuits: Vec<(usize, usize)>,
}

/// Plans every deletion and pattern short-circuit of `f`, or `None` if
/// `f` is not single-assignment.
fn plan(f: &Function, stats: &mut RceStats) -> Option<Plan> {
    let (defs, patterns, facts) = available_checks(f)?;
    let mut plan = Plan::default();
    for (b, (block, entry_fact)) in f.blocks.iter().zip(facts).enumerate() {
        let Some(mut fact) = entry_fact else {
            continue; // unreachable: no fact, don't touch
        };
        for (idx, inst) in block.insts.iter().enumerate() {
            if redundant(&defs, inst, &fact) {
                match inst {
                    Inst::Tchk { .. } => stats.tchk_removed += 1,
                    Inst::Call { func, .. } if func == SPATIAL_CHECK_FN => {
                        stats.spatial_removed += 1
                    }
                    _ => stats.temporal_removed += 1,
                }
                plan.deletions.push((b, idx));
                continue; // checks define nothing; just drop
            }
            transfer_check(&defs, inst, &mut fact);
        }

        // Short-circuit a redundant inline temporal pattern: the header
        // branch becomes a jump to the continuation. The pattern's own
        // blocks become unreachable and are emptied by the sweep; the
        // header's `Const 0` / `Ne` defs die with it if unused.
        if let Some(p) = patterns.get(&b) {
            let have = CheckFact::SbTemporal {
                key: defs.canon(p.key),
                lock: defs.canon(p.lock),
            };
            if fact.contains(&have) {
                plan.short_circuits.push((b, p.cont));
                stats.patterns_removed += 1;
            }
        }
    }
    Some(plan)
}

fn eliminate_in(f: &mut Function, stats: &mut RceStats) {
    let Some(plan) = plan(f, stats) else {
        stats.skipped_funcs += 1;
        return;
    };
    if plan.deletions.is_empty() && plan.short_circuits.is_empty() {
        return;
    }
    let mut deletions = plan.deletions.into_iter().peekable();
    for (b, block) in f.blocks.iter_mut().enumerate() {
        let mut idx = 0;
        block.insts.retain(|_| {
            let dropped = deletions.next_if_eq(&(b, idx)).is_some();
            idx += 1;
            !dropped
        });
    }
    for (b, cont) in plan.short_circuits {
        f.blocks[b].term = Terminator::Jmp(BlockId(cont as u32));
    }
    sweep(f);
}

/// Post-elimination cleanup: empty newly unreachable blocks (dead
/// pattern bodies would otherwise still be lowered) and drop pure defs
/// whose only consumers were deleted checks.
fn sweep(f: &mut Function) {
    let cfg = Cfg::new(f);
    for (b, block) in f.blocks.iter_mut().enumerate() {
        let already_empty =
            block.insts.is_empty() && matches!(block.term, Terminator::Ret { value: None });
        if !cfg.is_reachable(b) && !already_empty {
            block.insts.clear();
            block.term = Terminator::Ret { value: None };
        }
    }
    while eliminate_dead(f) {}
}

/// Drops pure definitions whose result nothing reads (memory operations
/// stay: under instrumentation they carry check semantics); returns
/// whether anything changed.
pub(crate) fn eliminate_dead(f: &mut Function) -> bool {
    // Uses across the whole function (incl. terminators), one flag per
    // variable below `num_vars`.
    let mut used = vec![false; f.num_vars as usize];
    let mut mark = |v: VarId| {
        if let Some(u) = used.get_mut(v.0 as usize) {
            *u = true;
        }
    };
    for b in &f.blocks {
        for i in &b.insts {
            i.uses().for_each(&mut mark);
        }
        match b.term {
            Terminator::Ret { value: Some(v) } => mark(v),
            Terminator::Br { cond, .. } => mark(cond),
            _ => {}
        }
    }
    // A def past `num_vars` has no flag and is kept.
    let removable = |i: &Inst| -> bool {
        match i {
            Inst::Const { dst, .. }
            | Inst::Bin { dst, .. }
            | Inst::BinImm { dst, .. }
            | Inst::AddrOfGlobal { dst, .. }
            | Inst::Gep { dst, .. }
            | Inst::GepImm { dst, .. }
            | Inst::LocalGet { dst, .. } => used.get(dst.0 as usize) == Some(&false),
            _ => false,
        }
    };
    let mut changed = false;
    for b in &mut f.blocks {
        let before = b.insts.len();
        b.insts.retain(|i| !removable(i));
        changed |= b.insts.len() != before;
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use crate::instrument::{instrument, Scheme};
    use crate::ir::Width;
    use crate::ModuleBuilder;

    fn count<F: Fn(&Inst) -> bool>(m: &Module, pred: F) -> usize {
        m.funcs
            .iter()
            .flat_map(|f| &f.blocks)
            .flat_map(|b| &b.insts)
            .filter(|i| pred(i))
            .count()
    }

    fn instrumented(m: &Module, scheme: Scheme) -> Module {
        let info = analyze(m).unwrap();
        instrument(m, &info, scheme)
    }

    /// Straight-line repeated derefs of one pointer: all but the first
    /// check of each kind must go.
    fn repeated_deref_module() -> Module {
        let mut mb = ModuleBuilder::new();
        let mut f = mb.func("main");
        let p = f.malloc_bytes(64);
        let v = f.konst(5);
        f.store(v, p, 0, Width::U64);
        f.store(v, p, 0, Width::U64);
        let r = f.load(p, 0, Width::U64);
        f.ret(Some(r));
        f.finish();
        mb.finish()
    }

    #[test]
    fn straight_line_tchks_collapse_to_one() {
        let mut m = instrumented(&repeated_deref_module(), Scheme::Hwst128Tchk);
        assert_eq!(count(&m, |i| matches!(i, Inst::Tchk { .. })), 3);
        let stats = eliminate(&mut m);
        assert_eq!(stats.tchk_removed, 2);
        assert_eq!(count(&m, |i| matches!(i, Inst::Tchk { .. })), 1);
    }

    #[test]
    fn identical_size_sbcets_temporal_checks_collapse() {
        let mut m = instrumented(&repeated_deref_module(), Scheme::Sbcets);
        let stats = eliminate(&mut m);
        // Three derefs at the same (root, delta, size): two of each
        // check kind are redundant.
        assert_eq!(stats.spatial_removed, 2);
        assert_eq!(stats.temporal_removed, 2);
    }

    #[test]
    fn differing_offsets_are_not_merged() {
        let mut mb = ModuleBuilder::new();
        let mut f = mb.func("main");
        let p = f.malloc_bytes(64);
        let v = f.konst(5);
        f.store(v, p, 0, Width::U64);
        f.store(v, p, 8, Width::U64);
        f.ret(None);
        f.finish();
        let mut m = instrumented(&mb.finish(), Scheme::Sbcets);
        let stats = eliminate(&mut m);
        // Spatial facts differ (delta 0 vs 8); temporal fact is shared.
        assert_eq!(stats.spatial_removed, 0);
        assert_eq!(stats.temporal_removed, 1);
    }

    #[test]
    fn free_kills_temporal_facts() {
        let mut mb = ModuleBuilder::new();
        let mut f = mb.func("main");
        let p = f.malloc_bytes(64);
        let q = f.malloc_bytes(64);
        let v = f.konst(5);
        f.store(v, p, 0, Width::U64);
        f.free(q);
        f.store(v, p, 0, Width::U64); // must stay checked
        f.ret(None);
        f.finish();
        let mut m = instrumented(&mb.finish(), Scheme::Hwst128Tchk);
        let before = count(&m, |i| matches!(i, Inst::Tchk { .. }));
        let stats = eliminate(&mut m);
        // Only the free-path tchk of q (dominated by nothing) and the
        // two stores' tchks exist; the free kills the first store's
        // fact, so nothing may be removed.
        assert_eq!(stats.tchk_removed, 0);
        assert_eq!(count(&m, |i| matches!(i, Inst::Tchk { .. })), before);
    }

    #[test]
    fn loop_bodies_keep_their_check() {
        // for (i = 0; i < n; i++) *p — the loop-entry meet with the
        // entry path must keep the in-loop check the first iteration
        // needs... but once inside, the backedge fact and the preheader
        // fact agree, so a single hoisted-equivalent check survives.
        let mut mb = ModuleBuilder::new();
        let mut f = mb.func("main");
        let p = f.malloc_bytes(64);
        let head = f.new_block();
        let body = f.new_block();
        let exit = f.new_block();
        let i0 = f.konst(0);
        let slot = f.local();
        f.local_set(slot, i0);
        f.jmp(head);
        f.switch_to(head);
        let i = f.local_get(slot);
        let n = f.konst(4);
        let c = f.bin(crate::ir::BinOp::Slt, i, n);
        f.br(c, body, exit);
        f.switch_to(body);
        let v = f.konst(9);
        f.store(v, p, 0, Width::U64);
        let one = f.konst(1);
        let i2 = f.bin(crate::ir::BinOp::Add, i, one);
        f.local_set(slot, i2);
        f.jmp(head);
        f.switch_to(exit);
        f.ret(None);
        f.finish();
        let m = mb.finish();

        let mut t = instrumented(&m, Scheme::Hwst128Tchk);
        let stats = eliminate(&mut t);
        // No check before the loop: the body's tchk meets the empty
        // entry fact at the header and must survive.
        assert_eq!(stats.tchk_removed, 0);
        assert_eq!(count(&t, |i| matches!(i, Inst::Tchk { .. })), 1);
    }

    #[test]
    fn hwst128_inline_pattern_is_short_circuited() {
        let mut m = instrumented(&repeated_deref_module(), Scheme::Hwst128);
        let loads_before = count(&m, |i| matches!(i, Inst::Load { .. }));
        let stats = eliminate(&mut m);
        // Three derefs → three inline patterns; the second and third
        // are dominated by the first with no kill in between.
        assert_eq!(stats.patterns_removed, 2);
        // Their lock-word loads died with them.
        assert!(count(&m, |i| matches!(i, Inst::Load { .. })) < loads_before);
    }

    #[test]
    fn branches_merge_only_common_checks() {
        // if (c) { *p } else { } ; *p — the join sees the check on one
        // arm only, so the post-join check must survive; a diamond with
        // the check on BOTH arms lets the post-join check go.
        let mut mb = ModuleBuilder::new();
        let mut f = mb.func("main");
        let p = f.malloc_bytes(64);
        let c = f.konst(1);
        let then_b = f.new_block();
        let else_b = f.new_block();
        let join = f.new_block();
        let v = f.konst(7);
        f.br(c, then_b, else_b);
        f.switch_to(then_b);
        f.store(v, p, 0, Width::U64);
        f.jmp(join);
        f.switch_to(else_b);
        f.jmp(join);
        f.switch_to(join);
        f.store(v, p, 0, Width::U64);
        f.ret(None);
        f.finish();
        let mut one_arm = instrumented(&mb.finish(), Scheme::Hwst128Tchk);
        assert_eq!(eliminate(&mut one_arm).tchk_removed, 0);

        let mut mb = ModuleBuilder::new();
        let mut f = mb.func("main");
        let p = f.malloc_bytes(64);
        let c = f.konst(1);
        let then_b = f.new_block();
        let else_b = f.new_block();
        let join = f.new_block();
        let v = f.konst(7);
        f.br(c, then_b, else_b);
        f.switch_to(then_b);
        f.store(v, p, 0, Width::U64);
        f.jmp(join);
        f.switch_to(else_b);
        f.store(v, p, 8, Width::U64);
        f.jmp(join);
        f.switch_to(join);
        f.store(v, p, 0, Width::U64);
        f.ret(None);
        f.finish();
        let mut both_arms = instrumented(&mb.finish(), Scheme::Hwst128Tchk);
        // Temporal root is shared: the join's tchk is covered by both
        // arms' tchks.
        assert_eq!(eliminate(&mut both_arms).tchk_removed, 1);
    }

    #[test]
    fn derived_pointers_share_the_temporal_root() {
        let mut mb = ModuleBuilder::new();
        let mut f = mb.func("main");
        let p = f.malloc_bytes(64);
        let v = f.konst(5);
        f.store(v, p, 0, Width::U64);
        let q = f.gep_imm(p, 8);
        f.store(v, q, 0, Width::U64);
        f.ret(None);
        f.finish();
        let mut m = instrumented(&mb.finish(), Scheme::Hwst128Tchk);
        // tchk q is covered by tchk p: same SRF root, same key/lock.
        assert_eq!(eliminate(&mut m).tchk_removed, 1);
    }

    #[test]
    fn none_and_shore_are_untouched() {
        for scheme in [Scheme::None, Scheme::Shore] {
            let mut m = instrumented(&repeated_deref_module(), scheme);
            let before = m.clone();
            let stats = eliminate(&mut m);
            assert_eq!(stats.total(), 0);
            assert_eq!(m, before, "{scheme:?} must be an identity");
        }
    }

    #[test]
    fn static_check_count_tracks_removals() {
        let mut m = instrumented(&repeated_deref_module(), Scheme::Hwst128Tchk);
        let before = static_check_count(&m);
        let stats = eliminate(&mut m);
        assert_eq!(static_check_count(&m), before - stats.total());
    }

    #[test]
    fn removes_dead_pure_code_but_keeps_memory_ops() {
        let mut mb = ModuleBuilder::new();
        let mut f = mb.func("main");
        let p = f.malloc_bytes(16);
        let _dead = f.bin_imm(BinOp::Add, p, 1); // unused arithmetic
        let _unused_load = f.load(p, 0, Width::U64); // kept: memory op
        let v = f.konst(3);
        f.store(v, p, 0, Width::U64);
        f.ret(None);
        f.finish();
        let mut m = mb.finish();
        while eliminate_dead(&mut m.funcs[0]) {}
        assert_eq!(count(&m, |i| matches!(i, Inst::BinImm { .. })), 0);
        assert_eq!(count(&m, |i| matches!(i, Inst::Load { .. })), 1);
        assert_eq!(count(&m, |i| matches!(i, Inst::Store { .. })), 1);
    }
}
