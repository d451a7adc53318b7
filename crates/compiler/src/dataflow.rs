//! Control-flow graph utilities and a generic forward dataflow solver.
//!
//! This is the analysis substrate for the static-safety passes: the
//! redundant-check eliminator ([`crate::rce`]), the `hwst-lint`
//! diagnostics pass ([`crate::lint`]) and the metadata-completeness
//! verifier ([`crate::verify`]). It provides:
//!
//! * [`Cfg`] — successor/predecessor maps and a reverse postorder over
//!   the reachable blocks of a [`Function`],
//! * [`Dominators`] — immediate-dominator tree (Cooper–Harvey–Kennedy),
//! * [`solve_forward`] — an iterative forward fixpoint over any
//!   [`ForwardAnalysis`] lattice, with *must* (intersection) semantics
//!   expressed by the analysis itself.
//!
//! Unreachable blocks are deliberately excluded from the RPO and carry
//! no facts: every consumer must treat "no fact" as "don't touch".

use crate::ir::{BinOp, Function, Inst, Terminator, VarId};

/// Successors of a terminator, in evaluation order.
pub fn successors(term: &Terminator) -> Vec<usize> {
    match *term {
        Terminator::Ret { .. } => vec![],
        Terminator::Jmp(t) => vec![t.0 as usize],
        Terminator::Br { then_, else_, .. } => {
            if then_ == else_ {
                vec![then_.0 as usize]
            } else {
                vec![then_.0 as usize, else_.0 as usize]
            }
        }
    }
}

/// The control-flow graph of one function.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Successor block indices, per block.
    pub succs: Vec<Vec<usize>>,
    /// Predecessor block indices, per block (only reachable edges).
    pub preds: Vec<Vec<usize>>,
    /// Reachable blocks in reverse postorder (entry first).
    pub rpo: Vec<usize>,
    /// `rpo_pos[b]` = position of block `b` in [`Cfg::rpo`], or `None`
    /// if `b` is unreachable from the entry.
    pub rpo_pos: Vec<Option<usize>>,
}

impl Cfg {
    /// Builds the CFG of `f` (block 0 is the entry).
    pub fn new(f: &Function) -> Cfg {
        let n = f.blocks.len();
        let succs: Vec<Vec<usize>> = f.blocks.iter().map(|b| successors(&b.term)).collect();

        // Depth-first postorder from the entry; unreachable blocks are
        // left out entirely.
        let mut post = Vec::with_capacity(n);
        let mut seen = vec![false; n];
        if n > 0 {
            // Iterative DFS with an explicit "how many successors tried"
            // counter so deep CFGs cannot overflow the stack.
            let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
            seen[0] = true;
            while let Some(top) = stack.last_mut() {
                let (b, next) = *top;
                if next < succs[b].len() {
                    top.1 += 1;
                    let s = succs[b][next];
                    if !seen[s] {
                        seen[s] = true;
                        stack.push((s, 0));
                    }
                } else {
                    post.push(b);
                    stack.pop();
                }
            }
        }
        let rpo: Vec<usize> = post.into_iter().rev().collect();
        let mut rpo_pos = vec![None; n];
        for (i, &b) in rpo.iter().enumerate() {
            rpo_pos[b] = Some(i);
        }

        let mut preds = vec![Vec::new(); n];
        for &b in &rpo {
            for &s in &succs[b] {
                preds[s].push(b);
            }
        }
        Cfg {
            succs,
            preds,
            rpo,
            rpo_pos,
        }
    }

    /// Whether `b` is reachable from the entry.
    pub fn is_reachable(&self, b: usize) -> bool {
        self.rpo_pos.get(b).copied().flatten().is_some()
    }
}

/// Immediate-dominator tree over the reachable blocks of a [`Cfg`].
#[derive(Debug, Clone)]
pub struct Dominators {
    /// `idom[b]` = immediate dominator of block `b`; the entry is its
    /// own idom, unreachable blocks have `None`.
    idom: Vec<Option<usize>>,
}

impl Dominators {
    /// Cooper–Harvey–Kennedy iterative dominator computation.
    pub fn compute(cfg: &Cfg) -> Dominators {
        let n = cfg.succs.len();
        let mut idom: Vec<Option<usize>> = vec![None; n];
        if cfg.rpo.is_empty() {
            return Dominators { idom };
        }
        let entry = cfg.rpo[0];
        idom[entry] = Some(entry);

        let intersect = |idom: &[Option<usize>], mut a: usize, mut b: usize| {
            // Walk both fingers up the tree, ordering by RPO position.
            // Both fingers are reachable, already-processed blocks, so
            // the lookups cannot fail; if that invariant were ever
            // broken, degrade to one finger rather than panic.
            while a != b {
                let (Some(pa), Some(pb)) = (cfg.rpo_pos[a], cfg.rpo_pos[b]) else {
                    return a.min(b);
                };
                if pa > pb {
                    let Some(up) = idom[a] else { return b };
                    a = up;
                } else {
                    let Some(up) = idom[b] else { return a };
                    b = up;
                }
            }
            a
        };

        let mut changed = true;
        while changed {
            changed = false;
            for &b in cfg.rpo.iter().skip(1) {
                let mut new_idom: Option<usize> = None;
                for &p in &cfg.preds[b] {
                    if idom[p].is_none() {
                        continue; // not yet processed this round
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, cur, p),
                    });
                }
                if new_idom.is_some() && idom[b] != new_idom {
                    idom[b] = new_idom;
                    changed = true;
                }
            }
        }
        Dominators { idom }
    }

    /// The immediate dominator of `b` (`None` for the entry and for
    /// unreachable blocks).
    pub fn idom(&self, b: usize) -> Option<usize> {
        match self.idom.get(b).copied().flatten() {
            Some(d) if d != b => Some(d),
            _ => None,
        }
    }

    /// Whether `a` dominates `b` (reflexive: every block dominates
    /// itself). Unreachable blocks dominate nothing and are dominated
    /// by nothing.
    pub fn dominates(&self, a: usize, b: usize) -> bool {
        if self.idom.get(b).copied().flatten().is_none() {
            return false;
        }
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.idom[cur] {
                Some(d) if d != cur => cur = d,
                _ => return false,
            }
        }
    }
}

/// A forward dataflow problem over per-instruction transfer functions.
///
/// The meet operator defines the analysis kind: intersection for *must*
/// problems (available checks), union for *may* problems (freed
/// pointers). Facts attach to block entries; [`solve_forward`] folds
/// [`ForwardAnalysis::transfer`] over each block's instructions to
/// produce block outputs and iterates to a fixpoint in reverse
/// postorder.
pub trait ForwardAnalysis {
    /// The lattice element.
    type Fact: Clone + PartialEq;

    /// The fact holding at function entry.
    fn entry_fact(&self) -> Self::Fact;

    /// Meet (join-point combine) of `other` into `into`.
    fn meet(&self, into: &mut Self::Fact, other: &Self::Fact);

    /// Applies one instruction's effect to `fact`.
    fn transfer(&self, inst: &Inst, fact: &mut Self::Fact);

    /// Applies a block terminator's effect to `fact` (after every
    /// instruction of block `block`). The default is a no-op; the
    /// redundant-check eliminator uses this to generate facts for the
    /// HWST128 inline temporal-check pattern, whose "check happened"
    /// point is the pattern header's branch.
    fn transfer_term(&self, block: usize, term: &Terminator, fact: &mut Self::Fact) {
        let _ = (block, term, fact);
    }

    /// Refines the fact flowing along the CFG edge `from → to` (applied
    /// after [`ForwardAnalysis::transfer_term`], to a per-edge copy of
    /// the block output, before the meet at `to`). The default is a
    /// no-op; the value-range analysis ([`crate::bounds`]) uses this to
    /// sharpen intervals from branch conditions (`i < n` on the taken
    /// edge), which is what recovers loop trip counts after widening.
    fn transfer_edge(&self, from: usize, to: usize, term: &Terminator, fact: &mut Self::Fact) {
        let _ = (from, to, term, fact);
    }

    /// Widening: combines the previous block-entry iterate `old` into
    /// the freshly computed `new`. Implementations must guarantee the
    /// result is an upper bound of both arguments and that repeated
    /// application stabilizes (e.g. snap strictly-growing interval
    /// bounds to ±∞); otherwise infinite-height lattices (intervals
    /// over `i64`) would climb forever around loops. The default keeps
    /// `new` unchanged, which is correct for the finite-height fact
    /// lattices the check analyses use.
    fn widen(&self, old: &Self::Fact, new: &mut Self::Fact) {
        let _ = old;
        let _ = new;
    }
}

/// Block-entry facts computed by [`solve_forward`]; `None` means the
/// block is unreachable (no fact — consumers must not act on it).
pub type BlockFacts<F> = Vec<Option<F>>;

/// Runs `analysis` to fixpoint over `f` and returns the fact holding at
/// each block *entry*.
pub fn solve_forward<A: ForwardAnalysis>(
    f: &Function,
    cfg: &Cfg,
    analysis: &A,
) -> BlockFacts<A::Fact> {
    let n = f.blocks.len();
    let mut input: BlockFacts<A::Fact> = vec![None; n];
    let mut output: BlockFacts<A::Fact> = vec![None; n];
    if cfg.rpo.is_empty() {
        return input;
    }
    let entry = cfg.rpo[0];

    // Widening points: loop heads, i.e. targets of a retreating edge
    // in reverse postorder. Widening only there preserves precision on
    // straight-line and branch-join blocks (in particular the interval
    // refinements [`ForwardAnalysis::transfer_edge`] installs on a loop
    // body's entry edge), while still cutting every cycle so the
    // iteration terminates on infinite-height lattices.
    let mut widen_at = vec![false; n];
    for &b in &cfg.rpo {
        for &p in &cfg.preds[b] {
            if cfg.rpo_pos[p] >= cfg.rpo_pos[b] {
                widen_at[b] = true;
            }
        }
    }

    let mut changed = true;
    while changed {
        changed = false;
        for &b in &cfg.rpo {
            // in[b] = entry fact (for the entry block) met with the
            // outputs of all predecessors that already have one.
            let mut in_fact = if b == entry {
                Some(analysis.entry_fact())
            } else {
                None
            };
            for &p in &cfg.preds[b] {
                if let Some(out_p) = &output[p] {
                    let mut edge_fact = out_p.clone();
                    analysis.transfer_edge(p, b, &f.blocks[p].term, &mut edge_fact);
                    match &mut in_fact {
                        None => in_fact = Some(edge_fact),
                        Some(acc) => analysis.meet(acc, &edge_fact),
                    }
                }
            }
            let Some(mut in_fact) = in_fact else {
                continue; // no information yet (e.g. loop not entered)
            };
            if widen_at[b] {
                if let Some(old) = &input[b] {
                    analysis.widen(old, &mut in_fact);
                }
            }

            let mut out_fact = in_fact.clone();
            for inst in &f.blocks[b].insts {
                analysis.transfer(inst, &mut out_fact);
            }
            analysis.transfer_term(b, &f.blocks[b].term, &mut out_fact);

            if input[b].as_ref() != Some(&in_fact) {
                input[b] = Some(in_fact);
                changed = true;
            }
            if output[b].as_ref() != Some(&out_fact) {
                output[b] = Some(out_fact);
                changed = true;
            }
        }
    }
    input
}

/// Every variable an instruction writes, without allocating.
/// [`Inst::def`] reports the primary destination only; `MallocMeta` and
/// `FrameLock` additionally write their key/lock receivers.
pub fn inst_defs(i: &Inst) -> impl Iterator<Item = VarId> {
    let fixed = match *i {
        Inst::MallocMeta { dst, key, lock, .. } => [Some(dst), Some(key), Some(lock)],
        Inst::FrameLock { key, lock } => [Some(key), Some(lock), None],
        _ => [i.def(), None, None],
    };
    fixed.into_iter().flatten()
}

/// A single-assignment def map with constant/offset resolution — the
/// value-tracking substrate shared by the check eliminator, the linter,
/// the bounds-proof pass and the completeness verifier.
///
/// The map is dense and borrowed: one slot per variable below
/// [`Function::num_vars`], holding a reference to its defining
/// instruction, so building it copies and hashes nothing.
/// [`DefMap::build`] returns `None` when any variable is written more
/// than once (hand-built IR may reuse registers) or when a parameter or
/// def lies at or past `num_vars`; every consumer treats that as "cannot
/// reason about this function" and leaves it alone. Builder- and
/// instrumentation-produced IR always uses fresh variables below
/// `num_vars`, so the bail-out never triggers on the compiler's own
/// output.
#[derive(Debug)]
pub struct DefMap<'f> {
    def: Vec<Option<&'f Inst>>,
}

impl<'f> DefMap<'f> {
    /// Builds the map, or `None` if `f` is not single-assignment or
    /// names a variable at or past its `num_vars`.
    pub fn build(f: &'f Function) -> Option<DefMap<'f>> {
        let mut def: Vec<Option<&'f Inst>> = vec![None; f.num_vars as usize];
        for i in f.blocks.iter().flat_map(|b| &b.insts) {
            for d in inst_defs(i) {
                if def.get_mut(d.0 as usize)?.replace(i).is_some() {
                    return None;
                }
            }
        }
        // Parameters are written on entry but have no defining
        // instruction: each must be in range, listed once and never
        // redefined.
        for (k, p) in f.params.iter().enumerate() {
            if def.get(p.0 as usize)?.is_some() || f.params[..k].contains(p) {
                return None;
            }
        }
        Some(DefMap { def })
    }

    /// The defining instruction of `v`, if any (parameters and ids past
    /// the function's `num_vars` have none).
    pub fn def(&self, v: VarId) -> Option<&'f Inst> {
        self.def.get(v.0 as usize).copied().flatten()
    }

    /// Follows value-preserving copies (`x = y + 0`).
    pub fn canon(&self, mut v: VarId) -> VarId {
        while let Some(Inst::BinImm {
            op: BinOp::Add,
            lhs,
            imm: 0,
            ..
        }) = self.def(v)
        {
            v = *lhs;
        }
        v
    }

    /// The SRF root of a pointer: strips derived-pointer arithmetic
    /// (`Gep`/`GepImm`) and copies. Derived pointers inherit their
    /// base's metadata verbatim, so a temporal check of the root covers
    /// every pointer with the same root.
    pub fn temporal_root(&self, mut v: VarId) -> VarId {
        loop {
            match self.def(v) {
                Some(Inst::Gep { base, .. }) | Some(Inst::GepImm { base, .. }) => v = *base,
                Some(Inst::BinImm {
                    op: BinOp::Add,
                    lhs,
                    imm: 0,
                    ..
                }) => v = *lhs,
                _ => return v,
            }
        }
    }

    /// Resolves a value to `(root, constant byte delta)` by stripping
    /// constant pointer arithmetic: `GepImm`, constant-operand `Gep`,
    /// and constant `BinImm` adds.
    pub fn spatial_anchor(&self, mut v: VarId) -> (VarId, i64) {
        let mut delta = 0i64;
        loop {
            match self.def(v) {
                Some(Inst::GepImm { base, imm, .. }) => {
                    delta = delta.wrapping_add(*imm);
                    v = *base;
                }
                Some(Inst::BinImm {
                    op: BinOp::Add,
                    lhs,
                    imm,
                    ..
                }) => {
                    delta = delta.wrapping_add(*imm);
                    v = *lhs;
                }
                Some(Inst::Gep { base, offset, .. }) => match self.const_val(*offset) {
                    Some(k) => {
                        delta = delta.wrapping_add(k);
                        v = *base;
                    }
                    None => return (v, delta),
                },
                _ => return (v, delta),
            }
        }
    }

    /// The constant value of `v`, if its (copy-resolved) def is `Const`.
    pub fn const_val(&self, v: VarId) -> Option<i64> {
        match self.def(self.canon(v)) {
            Some(Inst::Const { value, .. }) => Some(*value),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Block, BlockId, Width};

    fn func(blocks: Vec<Block>) -> Function {
        Function {
            name: "f".into(),
            params: vec![],
            param_is_ptr: vec![],
            num_vars: 32,
            num_locals: 0,
            blocks,
        }
    }

    fn block(term: Terminator) -> Block {
        Block {
            insts: vec![],
            term,
        }
    }

    fn konst(dst: u32) -> Inst {
        Inst::Const {
            dst: VarId(dst),
            value: 1,
        }
    }

    /// 0 → {1, 2} → 3 (the classic diamond).
    fn diamond() -> Function {
        func(vec![
            Block {
                insts: vec![konst(0)],
                term: Terminator::Br {
                    cond: VarId(0),
                    then_: BlockId(1),
                    else_: BlockId(2),
                },
            },
            block(Terminator::Jmp(BlockId(3))),
            block(Terminator::Jmp(BlockId(3))),
            block(Terminator::Ret { value: None }),
        ])
    }

    #[test]
    fn diamond_dominators() {
        let f = diamond();
        let cfg = Cfg::new(&f);
        let dom = Dominators::compute(&cfg);
        assert_eq!(dom.idom(0), None); // entry
        assert_eq!(dom.idom(1), Some(0));
        assert_eq!(dom.idom(2), Some(0));
        // The join is dominated by the fork, not by either arm.
        assert_eq!(dom.idom(3), Some(0));
        assert!(dom.dominates(0, 3));
        assert!(!dom.dominates(1, 3));
        assert!(!dom.dominates(2, 3));
        assert!(dom.dominates(3, 3)); // reflexive
    }

    #[test]
    fn loop_dominators_and_preds() {
        // 0 → 1 ⇄ 2, 1 → 3: a natural loop with backedge 2 → 1.
        let f = func(vec![
            Block {
                insts: vec![konst(0)],
                term: Terminator::Jmp(BlockId(1)),
            },
            block(Terminator::Br {
                cond: VarId(0),
                then_: BlockId(2),
                else_: BlockId(3),
            }),
            block(Terminator::Jmp(BlockId(1))),
            block(Terminator::Ret { value: None }),
        ]);
        let cfg = Cfg::new(&f);
        let dom = Dominators::compute(&cfg);
        assert_eq!(dom.idom(1), Some(0));
        assert_eq!(dom.idom(2), Some(1));
        assert_eq!(dom.idom(3), Some(1));
        assert!(dom.dominates(1, 2));
        assert!(!dom.dominates(2, 3));
        let mut preds1 = cfg.preds[1].clone();
        preds1.sort_unstable();
        assert_eq!(preds1, vec![0, 2]); // entry edge + backedge
    }

    #[test]
    fn unreachable_blocks_carry_no_facts() {
        // Block 1 is unreachable; block 2 is the real successor.
        let f = func(vec![
            block(Terminator::Jmp(BlockId(2))),
            block(Terminator::Jmp(BlockId(2))),
            block(Terminator::Ret { value: None }),
        ]);
        let cfg = Cfg::new(&f);
        assert!(cfg.is_reachable(0));
        assert!(!cfg.is_reachable(1));
        assert!(cfg.is_reachable(2));
        let dom = Dominators::compute(&cfg);
        assert_eq!(dom.idom(1), None);
        assert!(!dom.dominates(0, 1));
        assert!(!dom.dominates(1, 2));
        // Unreachable predecessors must not pollute the join: block 2
        // sees only block 0.
        assert_eq!(cfg.preds[2], vec![0]);

        struct CountInsts;
        impl ForwardAnalysis for CountInsts {
            type Fact = usize;
            fn entry_fact(&self) -> usize {
                0
            }
            fn meet(&self, into: &mut usize, other: &usize) {
                *into = (*into).min(*other);
            }
            fn transfer(&self, _inst: &Inst, fact: &mut usize) {
                *fact += 1;
            }
        }
        let facts = solve_forward(&f, &cfg, &CountInsts);
        assert!(facts[0].is_some());
        assert!(facts[1].is_none(), "unreachable block must have no fact");
        assert!(facts[2].is_some());
    }

    #[test]
    fn solver_meets_at_joins() {
        // Diamond where one arm "kills" (adds 100): must-meet keeps min.
        struct MinPath;
        impl ForwardAnalysis for MinPath {
            type Fact = u64;
            fn entry_fact(&self) -> u64 {
                0
            }
            fn meet(&self, into: &mut u64, other: &u64) {
                *into = (*into).min(*other);
            }
            fn transfer(&self, inst: &Inst, fact: &mut u64) {
                if let Inst::Const { value, .. } = inst {
                    *fact += *value as u64;
                }
            }
        }
        let mut f = diamond();
        f.blocks[1].insts.push(Inst::Const {
            dst: VarId(1),
            value: 100,
        });
        let cfg = Cfg::new(&f);
        let facts = solve_forward(&f, &cfg, &MinPath);
        // Entry contributes 1 on both arms; arm 1 adds 100 — the join
        // must keep the pessimistic (min) value.
        assert_eq!(facts[3], Some(1));
    }

    #[test]
    fn defmap_resolution() {
        let f = func(vec![Block {
            insts: vec![
                Inst::Const {
                    dst: VarId(0),
                    value: 64,
                },
                Inst::Malloc {
                    dst: VarId(1),
                    size: VarId(0),
                },
                Inst::GepImm {
                    dst: VarId(2),
                    base: VarId(1),
                    imm: 8,
                },
                Inst::BinImm {
                    op: BinOp::Add,
                    dst: VarId(3),
                    lhs: VarId(2),
                    imm: 0,
                },
                Inst::Gep {
                    dst: VarId(4),
                    base: VarId(3),
                    offset: VarId(0),
                },
                Inst::Load {
                    dst: VarId(5),
                    addr: VarId(4),
                    offset: 0,
                    width: Width::U64,
                },
            ],
            term: Terminator::Ret { value: None },
        }]);
        let defs = DefMap::build(&f).expect("single assignment");
        assert_eq!(defs.canon(VarId(3)), VarId(2));
        assert_eq!(defs.temporal_root(VarId(4)), VarId(1));
        assert_eq!(defs.spatial_anchor(VarId(4)), (VarId(1), 72));
        assert_eq!(defs.const_val(VarId(0)), Some(64));
        assert_eq!(defs.const_val(VarId(4)), None);

        // Neither a parameter nor an id past the end has a def.
        assert!(defs.def(VarId(1)).is_some());
        assert_eq!(defs.def(VarId(31)), None);
        assert_eq!(defs.def(VarId(32)), None);
        assert_eq!(defs.def(VarId(u32::MAX)), None);
        let mut with_param = f.clone();
        with_param.params = vec![VarId(6)];
        with_param.param_is_ptr = vec![false];
        let param_defs = DefMap::build(&with_param).expect("single assignment");
        assert_eq!(param_defs.def(VarId(6)), None);

        // Every way a dense map could miss a second write, or index
        // past its end, must fail the build.
        let bail = |edit: &dyn Fn(&mut Function)| {
            let mut g = f.clone();
            edit(&mut g);
            assert!(DefMap::build(&g).is_none(), "{g:?}");
        };
        // A second write to v2.
        bail(&|g| {
            g.blocks[0].insts.push(Inst::Const {
                dst: VarId(2),
                value: 9,
            })
        });
        // A parameter listed twice.
        bail(&|g| {
            g.params = vec![VarId(6), VarId(6)];
            g.param_is_ptr = vec![false, false];
        });
        // A parameter redefined by an instruction.
        bail(&|g| {
            g.params = vec![VarId(0)];
            g.param_is_ptr = vec![false];
        });
        // A `MallocMeta` whose key is its own destination.
        bail(&|g| {
            g.blocks[0].insts.push(Inst::MallocMeta {
                dst: VarId(6),
                size: VarId(0),
                key: VarId(6),
                lock: VarId(7),
            })
        });
        // A `FrameLock` receiver defined again later.
        bail(&|g| {
            g.blocks[0].insts.insert(
                0,
                Inst::FrameLock {
                    key: VarId(6),
                    lock: VarId(7),
                },
            );
            g.blocks[0].insts.push(Inst::Const {
                dst: VarId(7),
                value: 0,
            });
        });
        // A def at `num_vars`, and a parameter past it.
        bail(&|g| {
            g.blocks[0].insts.push(Inst::Const {
                dst: VarId(g.num_vars),
                value: 0,
            })
        });
        bail(&|g| {
            g.params = vec![VarId(g.num_vars)];
            g.param_is_ptr = vec![false];
        });
    }
}
