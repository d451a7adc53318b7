//! A light optimizer (extension experiment).
//!
//! The paper compiles everything **without** optimization (§4); this
//! module exists to quantify what that choice means. Three classic
//! passes run to fixpoint over the (single-assignment-by-construction)
//! IR *before* instrumentation, modelling source-level optimization:
//!
//! 1. **constant folding/propagation** — `Bin`/`BinImm` over known
//!    constants collapse to `Const`, and constant branch conditions fold
//!    the branch,
//! 2. **copy propagation** — `x = y + 0` aliases `x` to `y`,
//! 3. **dead-code elimination** — unused pure definitions disappear
//!    (memory reads are conservatively kept: under instrumentation they
//!    carry check semantics).
//!
//! A fourth, bounds-assisted pass runs once after the fixpoint: loads
//! from provably-dead allocas (never written through, never escaping)
//! whose result is unused *and* whose access the value-range analysis
//! ([`crate::bounds`]) proved in-bounds and live are deleted outright —
//! such a load can neither produce an observable value nor trap under
//! any instrumented build, so removing it is behavior-preserving even
//! with checks forced on. The basic `eliminate_dead` used by
//! [`crate::rce`]'s sweep deliberately does **not** do this: RCE's skip
//! coordinates are deref ordinals, which must stay stable across the
//! sweep.
//!
//! The `ablation_optimizer` binary compares Fig.-4-style overheads with
//! and without the passes; see EXPERIMENTS.md.

use crate::ir::{BinOp, Function, Inst, Module, Terminator, VarId};
use std::collections::{HashMap, HashSet};

/// Optimizes every function of a module (the module is consumed and
/// returned to encourage pipeline-style use).
///
/// Only variables with exactly one definition are propagated, so the
/// passes are safe for hand-built IR too.
pub fn optimize(mut module: Module) -> Module {
    for f in &mut module.funcs {
        loop {
            let changed = fold_constants(f) | propagate_copies(f);
            let changed = changed | eliminate_dead(f);
            if !changed {
                break;
            }
        }
    }
    // Bounds-assisted DCE over the whole module, then one more sweep
    // per function: deleting a load can strand its address computation
    // (geps, and — uniquely here, where the object is proven dead — the
    // alloca itself).
    let dead = crate::bounds::dead_alloca_loads(&module);
    if !dead.is_empty() {
        for &(fi, bi, ii) in dead.iter().rev() {
            module.funcs[fi].blocks[bi].insts.remove(ii);
        }
        for f in &mut module.funcs {
            while eliminate_dead(f) | eliminate_unused_allocas(f) {}
        }
    }
    module
}

/// Removes `StackAlloc`s whose result is entirely unused. Only the
/// bounds-assisted phase calls this: before instrumentation an unused
/// alloca's sole effect is frame size, but the basic [`eliminate_dead`]
/// also runs inside [`crate::rce`]'s post-instrumentation sweep, where
/// allocas feed metadata bindings and must be left alone.
fn eliminate_unused_allocas(f: &mut Function) -> bool {
    let mut used: HashSet<VarId> = HashSet::new();
    for b in &f.blocks {
        for i in &b.insts {
            used.extend(i.uses());
        }
        match &b.term {
            Terminator::Ret { value: Some(v) } => {
                used.insert(*v);
            }
            Terminator::Br { cond, .. } => {
                used.insert(*cond);
            }
            _ => {}
        }
    }
    let mut changed = false;
    for b in &mut f.blocks {
        let before = b.insts.len();
        b.insts
            .retain(|i| !matches!(i, Inst::StackAlloc { dst, .. } if !used.contains(dst)));
        changed |= b.insts.len() != before;
    }
    changed
}

/// Variables defined exactly once.
fn single_defs(f: &Function) -> HashSet<VarId> {
    let mut counts: HashMap<VarId, u32> = HashMap::new();
    for p in &f.params {
        *counts.entry(*p).or_insert(0) += 1;
    }
    for b in &f.blocks {
        for i in &b.insts {
            if let Some(d) = i.def() {
                *counts.entry(d).or_insert(0) += 1;
            }
        }
    }
    counts
        .into_iter()
        .filter(|&(_, c)| c == 1)
        .map(|(v, _)| v)
        .collect()
}

fn eval_bin(op: BinOp, a: i64, b: i64) -> Option<i64> {
    Some(match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => {
            if b == 0 {
                return None; // keep RISC-V div-by-zero semantics at runtime
            }
            a.wrapping_div(b)
        }
        BinOp::Rem => {
            if b == 0 {
                return None;
            }
            a.wrapping_rem(b)
        }
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Sll => ((a as u64) << (b as u64 & 0x3f)) as i64,
        BinOp::Srl => ((a as u64) >> (b as u64 & 0x3f)) as i64,
        BinOp::Sra => a >> (b as u64 & 0x3f),
        BinOp::Slt => (a < b) as i64,
        BinOp::Sltu => ((a as u64) < (b as u64)) as i64,
        BinOp::Eq => (a == b) as i64,
        BinOp::Ne => (a != b) as i64,
    })
}

fn fold_constants(f: &mut Function) -> bool {
    let single = single_defs(f);
    // Collect known constants (single-def Const instructions).
    let mut consts: HashMap<VarId, i64> = HashMap::new();
    for b in &f.blocks {
        for i in &b.insts {
            if let Inst::Const { dst, value } = i {
                if single.contains(dst) {
                    consts.insert(*dst, *value);
                }
            }
        }
    }
    let mut changed = false;
    for b in &mut f.blocks {
        for i in &mut b.insts {
            let folded = match i {
                Inst::Bin { op, dst, lhs, rhs } => {
                    match (consts.get(lhs), consts.get(rhs)) {
                        (Some(&a), Some(&bv)) => eval_bin(*op, a, bv).map(|v| (*dst, v)),
                        (None, Some(&bv)) => {
                            // Strength-reduce to the immediate form when
                            // the immediate fits.
                            if (-2048..=2047).contains(&bv) {
                                *i = Inst::BinImm {
                                    op: *op,
                                    dst: *dst,
                                    lhs: *lhs,
                                    imm: bv,
                                };
                                changed = true;
                            }
                            None
                        }
                        _ => None,
                    }
                }
                Inst::BinImm { op, dst, lhs, imm } => consts
                    .get(lhs)
                    .and_then(|&a| eval_bin(*op, a, *imm))
                    .map(|v| (*dst, v)),
                _ => None,
            };
            if let Some((dst, v)) = folded {
                *i = Inst::Const { dst, value: v };
                if single.contains(&dst) {
                    consts.insert(dst, v);
                }
                changed = true;
            }
        }
        // Constant branch conditions fold to jumps.
        if let Terminator::Br { cond, then_, else_ } = b.term.clone() {
            if let Some(&c) = consts.get(&cond) {
                b.term = Terminator::Jmp(if c != 0 { then_ } else { else_ });
                changed = true;
            }
        }
    }
    changed
}

fn propagate_copies(f: &mut Function) -> bool {
    let single = single_defs(f);
    // x = y + 0  (both single-def) aliases x -> y.
    let mut alias: HashMap<VarId, VarId> = HashMap::new();
    for b in &f.blocks {
        for i in &b.insts {
            if let Inst::BinImm {
                op: BinOp::Add,
                dst,
                lhs,
                imm: 0,
            } = i
            {
                if single.contains(dst) && single.contains(lhs) {
                    alias.insert(*dst, *lhs);
                }
            }
        }
    }
    if alias.is_empty() {
        return false;
    }
    // Resolve alias chains.
    let resolve = |mut v: VarId| {
        let mut hops = 0;
        while let Some(&n) = alias.get(&v) {
            v = n;
            hops += 1;
            if hops > 64 {
                break; // defensive: cyclic hand-built IR
            }
        }
        v
    };
    let mut changed = false;
    for b in &mut f.blocks {
        for i in &mut b.insts {
            changed |= rewrite_uses(i, &resolve);
        }
        match &mut b.term {
            Terminator::Ret { value: Some(v) } => {
                let r = resolve(*v);
                if r != *v {
                    *v = r;
                    changed = true;
                }
            }
            Terminator::Br { cond, .. } => {
                let r = resolve(*cond);
                if r != *cond {
                    *cond = r;
                    changed = true;
                }
            }
            _ => {}
        }
    }
    changed
}

/// Rewrites every variable *use* in `i` through `resolve`; returns
/// whether anything changed. Definitions are left alone.
fn rewrite_uses(i: &mut Inst, resolve: &impl Fn(VarId) -> VarId) -> bool {
    macro_rules! rw {
        ($($v:expr),*) => {{
            let mut any = false;
            $(
                let r = resolve(*$v);
                if r != *$v { *$v = r; any = true; }
            )*
            any
        }};
    }
    match i {
        Inst::Bin { lhs, rhs, .. } => rw!(lhs, rhs),
        Inst::BinImm { lhs, .. } => rw!(lhs),
        Inst::Load { addr, .. } => rw!(addr),
        Inst::Store { src, addr, .. } => rw!(src, addr),
        Inst::LoadPtr { addr, .. } => rw!(addr),
        Inst::StorePtr { src, addr, .. } => rw!(src, addr),
        Inst::Malloc { size, .. } => rw!(size),
        Inst::Free { ptr } => rw!(ptr),
        Inst::Gep { base, offset, .. } => rw!(base, offset),
        Inst::GepImm { base, .. } => rw!(base),
        Inst::Call { args, .. } => {
            let mut any = false;
            for a in args {
                let r = resolve(*a);
                if r != *a {
                    *a = r;
                    any = true;
                }
            }
            any
        }
        Inst::PutChar { src } | Inst::PrintU64 { src } => rw!(src),
        Inst::LocalSet { src, .. } => rw!(src),
        _ => false,
    }
}

pub(crate) fn eliminate_dead(f: &mut Function) -> bool {
    // Uses across the whole function (incl. terminators).
    let mut used: HashSet<VarId> = HashSet::new();
    for b in &f.blocks {
        for i in &b.insts {
            used.extend(i.uses());
        }
        match &b.term {
            Terminator::Ret { value: Some(v) } => {
                used.insert(*v);
            }
            Terminator::Br { cond, .. } => {
                used.insert(*cond);
            }
            _ => {}
        }
    }
    let removable = |i: &Inst| -> bool {
        match i {
            Inst::Const { dst, .. }
            | Inst::Bin { dst, .. }
            | Inst::BinImm { dst, .. }
            | Inst::AddrOfGlobal { dst, .. }
            | Inst::Gep { dst, .. }
            | Inst::GepImm { dst, .. }
            | Inst::LocalGet { dst, .. } => !used.contains(dst),
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
    use crate::ir::Width;
    use crate::ModuleBuilder;

    fn count(m: &Module, pred: impl Fn(&Inst) -> bool) -> usize {
        m.funcs
            .iter()
            .flat_map(|f| &f.blocks)
            .flat_map(|b| &b.insts)
            .filter(|i| pred(i))
            .count()
    }

    #[test]
    fn folds_constant_arithmetic() {
        let mut mb = ModuleBuilder::new();
        let mut f = mb.func("main");
        let a = f.konst(40);
        let b = f.konst(2);
        let c = f.bin(BinOp::Add, a, b);
        let d = f.bin_imm(BinOp::Mul, c, 10);
        f.ret(Some(d));
        f.finish();
        let m = optimize(mb.finish());
        // All arithmetic folded; only the final Const feeding ret remains.
        assert_eq!(
            count(&m, |i| matches!(i, Inst::Bin { .. } | Inst::BinImm { .. })),
            0
        );
        let last = m.funcs[0].blocks[0].insts.last().unwrap();
        assert!(matches!(last, Inst::Const { value: 420, .. }));
    }

    #[test]
    fn does_not_fold_division_by_zero() {
        let mut mb = ModuleBuilder::new();
        let mut f = mb.func("main");
        let a = f.konst(7);
        let z = f.konst(0);
        let d = f.bin(BinOp::Div, a, z);
        f.ret(Some(d));
        f.finish();
        let m = optimize(mb.finish());
        assert_eq!(
            count(&m, |i| matches!(i, Inst::Bin { op: BinOp::Div, .. })),
            1,
            "div-by-zero must stay a runtime operation"
        );
    }

    #[test]
    fn folds_constant_branches() {
        let mut mb = ModuleBuilder::new();
        let mut f = mb.func("main");
        let t = f.new_block();
        let e = f.new_block();
        let one = f.konst(1);
        f.br(one, t, e);
        f.switch_to(t);
        let a = f.konst(10);
        f.ret(Some(a));
        f.switch_to(e);
        let b = f.konst(20);
        f.ret(Some(b));
        f.finish();
        let m = optimize(mb.finish());
        assert!(matches!(m.funcs[0].blocks[0].term, Terminator::Jmp(b) if b.0 == 1));
    }

    #[test]
    fn removes_dead_pure_code_but_keeps_memory_ops() {
        let mut mb = ModuleBuilder::new();
        let mut f = mb.func("main");
        let p = f.malloc_bytes(16);
        let _dead = f.bin_imm(BinOp::Add, p, 1); // unused arithmetic
        let _unused_load = f.load(p, 0, Width::U64); // kept: object is written
        let v = f.konst(3);
        f.store(v, p, 0, Width::U64);
        f.ret(None);
        f.finish();
        let m = optimize(mb.finish());
        assert_eq!(count(&m, |i| matches!(i, Inst::BinImm { .. })), 0);
        assert_eq!(count(&m, |i| matches!(i, Inst::Load { .. })), 1);
        assert_eq!(count(&m, |i| matches!(i, Inst::Store { .. })), 1);
    }

    #[test]
    fn drops_loads_from_provably_dead_allocas() {
        let mut mb = ModuleBuilder::new();
        let mut f = mb.func("main");
        // Never written, never escaping: the unused in-bounds load — and
        // with it the whole alloca — disappears.
        let a = f.stack_alloc(16);
        let _unused = f.load(a, 8, Width::U64);
        // An identical load whose object is written must stay.
        let b = f.stack_alloc(16);
        let v = f.konst(3);
        f.store(v, b, 0, Width::U64);
        let _also_unused = f.load(b, 8, Width::U64);
        f.ret(None);
        f.finish();
        let m = optimize(mb.finish());
        assert_eq!(count(&m, |i| matches!(i, Inst::Load { .. })), 1);
        assert_eq!(count(&m, |i| matches!(i, Inst::StackAlloc { .. })), 1);
        assert_eq!(count(&m, |i| matches!(i, Inst::Store { .. })), 1);
    }

    #[test]
    fn out_of_bounds_dead_loads_are_kept_for_their_trap() {
        let mut mb = ModuleBuilder::new();
        let mut f = mb.func("main");
        let a = f.stack_alloc(16);
        let _oob = f.load(a, 16, Width::U64); // one past the end: must trap
        f.ret(None);
        f.finish();
        let m = optimize(mb.finish());
        assert_eq!(count(&m, |i| matches!(i, Inst::Load { .. })), 1);
    }

    #[test]
    fn optimized_programs_behave_identically() {
        use crate::{compile, Scheme};
        use hwst_sim::Machine;
        // A small program mixing memory, arithmetic and control flow.
        let build = || {
            let mut mb = ModuleBuilder::new();
            let mut f = mb.func("main");
            let p = f.malloc_bytes(64);
            let mut acc = f.konst(0);
            for i in 0..8i64 {
                let v = f.konst(i * 3);
                f.store(v, p, i * 8, Width::U64);
                let r = f.load(p, i * 8, Width::U64);
                acc = f.bin(BinOp::Add, acc, r);
            }
            f.free(p);
            f.ret(Some(acc));
            f.finish();
            mb.finish()
        };
        for scheme in [Scheme::None, Scheme::Hwst128Tchk] {
            let cfg = crate::instrument::config_for(scheme);
            let plain = Machine::new(compile(&build(), scheme).unwrap(), cfg)
                .run(1_000_000)
                .unwrap();
            let opt = Machine::new(compile(&optimize(build()), scheme).unwrap(), cfg)
                .run(1_000_000)
                .unwrap();
            assert_eq!(plain.code, opt.code);
            assert!(
                opt.stats.total_cycles() <= plain.stats.total_cycles(),
                "optimization must not slow the program down"
            );
        }
    }
}
