//! `hwst-lint`: static memory-safety diagnostics over
//! pre-instrumentation IR.
//!
//! Where the instrumentation schemes detect violations *dynamically*,
//! this pass reports the ones that are provable *statically*, as
//! structured diagnostics carrying the matching CWE identifier:
//!
//! | check | CWE |
//! |---|---|
//! | const-offset overflow write (stack) | 121 |
//! | const-offset overflow write (heap/global) | 122 |
//! | const-offset underwrite | 124 |
//! | const-offset over-read | 126 |
//! | const-offset under-read | 127 |
//! | double free (dominated by a free of the same region) | 415 |
//! | use after free (deref dominated by a free) | 416 |
//! | deref of a guaranteed-NULL allocation | 476 |
//! | free of an interior pointer | 761 |
//! | returning a pointer to the function's own stack | 562 |
//!
//! Every check is *must*-style and value-precise: offsets resolve
//! through constant pointer arithmetic only ([`DefMap`]), region sizes
//! come from `StackAlloc`/`AddrOfGlobal`/constant-size `Malloc`, and
//! the temporal checks use an intersection dataflow ("freed on every
//! path"). Anything laundered through memory, non-constant arithmetic
//! or a call boundary resolves to an unknown root and stays silent —
//! the linter never reports a diagnostic for code that could be
//! correct, so benign programs produce none (tested against the Juliet
//! suite's benign twins in `hwst-juliet`).

use crate::dataflow::{solve_forward, Cfg, DefMap, ForwardAnalysis};
use crate::ir::{Function, Inst, Module, Terminator, VarId};
use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// How certain the linter is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Guaranteed misbehaviour if the code executes.
    Error,
    /// Suspect construction that is almost always a bug.
    Warning,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Error => write!(f, "error"),
            Severity::Warning => write!(f, "warning"),
        }
    }
}

/// One structured finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Function containing the finding.
    pub func: String,
    /// Block index.
    pub block: usize,
    /// Instruction index within the block (`insts.len()` marks the
    /// terminator).
    pub inst: usize,
    /// Certainty.
    pub severity: Severity,
    /// The matching CWE identifier (e.g. `416` for use-after-free).
    pub cwe: u32,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: CWE-{} in {} at b{}/{}: {}",
            self.severity, self.cwe, self.func, self.block, self.inst, self.message
        )
    }
}

/// What the linter knows about a pointer root.
#[derive(Debug, Clone, Copy)]
enum Region {
    Stack(u64),
    Heap(u64),
    Global(u64),
    /// Allocation so large the wrapper is guaranteed to return NULL.
    Null,
}

/// Allocations above this size cannot succeed in the simulated address
/// space; the wrapper returns NULL bound to the empty region.
const NULL_ALLOC_THRESHOLD: i64 = 1 << 32;

/// Lints a whole module.
pub fn lint(module: &Module) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for f in &module.funcs {
        lint_func(f, module, &mut out);
    }
    out
}

/// The "freed on every path" set of region roots.
struct FreedRoots<'a> {
    defs: &'a DefMap<'a>,
}

impl ForwardAnalysis for FreedRoots<'_> {
    type Fact = BTreeSet<VarId>;

    fn entry_fact(&self) -> Self::Fact {
        BTreeSet::new()
    }

    fn meet(&self, into: &mut Self::Fact, other: &Self::Fact) {
        into.retain(|v| other.contains(v));
    }

    fn transfer(&self, inst: &Inst, fact: &mut Self::Fact) {
        match inst {
            Inst::Free { ptr } | Inst::FreeMeta { ptr, .. } => {
                fact.insert(self.defs.temporal_root(*ptr));
            }
            _ => {}
        }
    }
}

fn lint_func(f: &Function, module: &Module, out: &mut Vec<Diagnostic>) {
    let Some(defs) = DefMap::build(f) else {
        return; // register-reusing IR: out of scope
    };

    // Region table: every root with a statically known extent.
    let mut regions: HashMap<VarId, Region> = HashMap::new();
    for b in &f.blocks {
        for i in &b.insts {
            match *i {
                Inst::StackAlloc { dst, size } => {
                    regions.insert(dst, Region::Stack(size));
                }
                Inst::AddrOfGlobal { dst, global } => {
                    if let Some(g) = module.globals.get(global.0 as usize) {
                        regions.insert(dst, Region::Global(g.size));
                    }
                }
                Inst::Malloc { dst, size } | Inst::MallocMeta { dst, size, .. } => {
                    if let Some(n) = defs.const_val(size) {
                        let r = if n >= NULL_ALLOC_THRESHOLD {
                            Region::Null
                        } else {
                            Region::Heap(n.max(0) as u64)
                        };
                        regions.insert(dst, r);
                    }
                }
                _ => {}
            }
        }
    }

    let cfg = Cfg::new(f);
    let freed = solve_forward(f, &cfg, &FreedRoots { defs: &defs });

    let mut push = |block: usize, inst: usize, severity: Severity, cwe: u32, message: String| {
        out.push(Diagnostic {
            func: f.name.clone(),
            block,
            inst,
            severity,
            cwe,
            message,
        });
    };

    for (b, block) in f.blocks.iter().enumerate() {
        let Some(mut freed_here) = freed[b].clone() else {
            continue; // unreachable
        };
        for (idx, inst) in block.insts.iter().enumerate() {
            // Dereference checks.
            let access = match *inst {
                Inst::Load {
                    addr,
                    offset,
                    width,
                    ..
                } => Some((addr, offset, width.bytes() as i64, false)),
                Inst::Store {
                    addr,
                    offset,
                    width,
                    ..
                } => Some((addr, offset, width.bytes() as i64, true)),
                Inst::LoadPtr { addr, offset, .. } => Some((addr, offset, 8, false)),
                Inst::StorePtr { addr, offset, .. } => Some((addr, offset, 8, true)),
                _ => None,
            };
            if let Some((addr, offset, size, is_write)) = access {
                let (root, delta) = defs.spatial_anchor(addr);
                let lo = delta.wrapping_add(offset);
                let hi = lo.wrapping_add(size);
                match regions.get(&root) {
                    Some(Region::Null) => push(
                        b,
                        idx,
                        Severity::Error,
                        476,
                        format!(
                            "dereference of {root}: the allocation is too large to \
                             succeed, so the pointer is guaranteed NULL"
                        ),
                    ),
                    Some(&Region::Stack(n)) | Some(&Region::Heap(n)) | Some(&Region::Global(n)) => {
                        let region = regions[&root];
                        if lo < 0 {
                            let (cwe, what) = if is_write {
                                (124, "underwrite")
                            } else {
                                (127, "under-read")
                            };
                            push(
                                b,
                                idx,
                                Severity::Error,
                                cwe,
                                format!(
                                    "{size}-byte {what} at byte {lo} of the \
                                     {n}-byte region rooted at {root}"
                                ),
                            );
                        } else if hi > n as i64 {
                            let (cwe, what) = match (is_write, region) {
                                (true, Region::Stack(_)) => (121, "overflow write"),
                                (true, _) => (122, "overflow write"),
                                (false, _) => (126, "over-read"),
                            };
                            push(
                                b,
                                idx,
                                Severity::Error,
                                cwe,
                                format!(
                                    "{size}-byte {what} at bytes {lo}..{hi} of the \
                                     {n}-byte region rooted at {root}"
                                ),
                            );
                        }
                    }
                    None => {}
                }
                if freed_here.contains(&defs.temporal_root(addr)) {
                    push(
                        b,
                        idx,
                        Severity::Error,
                        416,
                        format!(
                            "dereference of {addr}: its region is freed on every \
                             path reaching this point"
                        ),
                    );
                }
            }
            // Free-site checks.
            if let Inst::Free { ptr } = *inst {
                let root = defs.temporal_root(ptr);
                if freed_here.contains(&root) {
                    push(
                        b,
                        idx,
                        Severity::Error,
                        415,
                        format!("double free of {root}: already freed on every path"),
                    );
                }
                let (_, delta) = defs.spatial_anchor(ptr);
                if delta != 0 {
                    push(
                        b,
                        idx,
                        Severity::Error,
                        761,
                        format!("free of interior pointer {ptr} ({delta} bytes into its region)"),
                    );
                }
            }
            // Keep the running freed-set in sync for later insts.
            FreedRoots { defs: &defs }.transfer(inst, &mut freed_here);
        }
        // Terminator check: returning a pointer into the own frame.
        if let Terminator::Ret { value: Some(v) } = block.term {
            let root = defs.temporal_root(v);
            if matches!(defs.def(root), Some(Inst::StackAlloc { .. })) {
                push(
                    b,
                    block.insts.len(),
                    Severity::Warning,
                    562,
                    format!("returning {v}, a pointer into this function's own stack frame"),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Width;
    use crate::ModuleBuilder;

    fn cwes(module: &Module) -> Vec<u32> {
        lint(module).iter().map(|d| d.cwe).collect()
    }

    #[test]
    fn const_offset_overflows_by_region() {
        // Stack overflow write.
        let mut mb = ModuleBuilder::new();
        let mut f = mb.func("main");
        let p = f.stack_alloc(16);
        let v = f.konst(1);
        f.store(v, p, 16, Width::U8);
        f.ret(None);
        f.finish();
        assert_eq!(cwes(&mb.finish()), vec![121]);

        // Heap overflow write through a gep chain, and over-read.
        let mut mb = ModuleBuilder::new();
        let mut f = mb.func("main");
        let p = f.malloc_bytes(32);
        let q = f.gep_imm(p, 24);
        let v = f.konst(1);
        f.store(v, q, 1, Width::U64); // bytes 25..33 of 32
        let _ = f.load(q, 8, Width::U8); // byte 32
        f.ret(None);
        f.finish();
        assert_eq!(cwes(&mb.finish()), vec![122, 126]);

        // Underwrite / under-read.
        let mut mb = ModuleBuilder::new();
        let mut f = mb.func("main");
        let p = f.malloc_bytes(32);
        let v = f.konst(1);
        f.store(v, p, -4, Width::U32);
        let _ = f.load(p, -1, Width::U8);
        f.ret(None);
        f.finish();
        assert_eq!(cwes(&mb.finish()), vec![124, 127]);

        // Global overflow, via the known global size.
        let mut mb = ModuleBuilder::new();
        let g = mb.global("table", 8);
        let mut f = mb.func("main");
        let p = f.addr_of_global(g);
        let v = f.konst(1);
        f.store(v, p, 8, Width::U8);
        f.ret(None);
        f.finish();
        assert_eq!(cwes(&mb.finish()), vec![122]);
    }

    #[test]
    fn in_bounds_accesses_are_silent() {
        let mut mb = ModuleBuilder::new();
        let g = mb.global("table", 8);
        let mut f = mb.func("main");
        let p = f.malloc_bytes(32);
        let s = f.stack_alloc(16);
        let ga = f.addr_of_global(g);
        let v = f.konst(1);
        f.store(v, p, 24, Width::U64); // bytes 24..32: last slot
        f.store(v, s, 15, Width::U8);
        f.store(v, ga, 0, Width::U64);
        let q = f.gep_imm(p, 31);
        let _ = f.load(q, 0, Width::U8);
        f.free(p);
        f.ret(None);
        f.finish();
        assert!(cwes(&mb.finish()).is_empty());
    }

    #[test]
    fn temporal_lints_fire_only_when_dominated() {
        // Use-after-free + double free, straight line.
        let mut mb = ModuleBuilder::new();
        let mut f = mb.func("main");
        let p = f.malloc_bytes(16);
        f.free(p);
        let _ = f.load(p, 0, Width::U64);
        f.free(p);
        f.ret(None);
        f.finish();
        assert_eq!(cwes(&mb.finish()), vec![416, 415]);

        // Freed on one arm only: the post-join deref must stay silent.
        let mut mb = ModuleBuilder::new();
        let mut f = mb.func("main");
        let p = f.malloc_bytes(16);
        let c = f.konst(0);
        let then_b = f.new_block();
        let join = f.new_block();
        f.br(c, then_b, join);
        f.switch_to(then_b);
        f.free(p);
        f.jmp(join);
        f.switch_to(join);
        let _ = f.load(p, 0, Width::U64);
        f.ret(None);
        f.finish();
        assert!(cwes(&mb.finish()).is_empty());
    }

    #[test]
    fn interior_free_and_null_deref() {
        let mut mb = ModuleBuilder::new();
        let mut f = mb.func("main");
        let p = f.malloc_bytes(16);
        let q = f.gep_imm(p, 8);
        f.free(q);
        f.ret(None);
        f.finish();
        assert_eq!(cwes(&mb.finish()), vec![761]);

        let mut mb = ModuleBuilder::new();
        let mut f = mb.func("main");
        let huge = f.konst(1 << 40);
        let p = f.malloc(huge);
        let v = f.konst(1);
        f.store(v, p, 0, Width::U64);
        f.ret(None);
        f.finish();
        assert_eq!(cwes(&mb.finish()), vec![476]);
    }

    #[test]
    fn stack_pointer_return_is_a_warning() {
        let mut mb = ModuleBuilder::new();
        let mut f = mb.func("escape");
        let s = f.stack_alloc(16);
        f.ret(Some(s));
        f.finish();
        let mut f = mb.func("main");
        let _ = f.call("escape", &[]);
        f.ret(None);
        f.finish();
        let diags = lint(&mb.finish());
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].cwe, 562);
        assert_eq!(diags[0].severity, Severity::Warning);
        assert_eq!(diags[0].func, "escape");
    }

    #[test]
    fn laundered_flows_stay_silent() {
        // Value round-trip through memory strips the root: no OOB or
        // temporal diagnostic may fire, mirroring the dynamic schemes.
        let mut mb = ModuleBuilder::new();
        let mut f = mb.func("main");
        let p = f.malloc_bytes(16);
        let cell = f.malloc_bytes(8);
        f.store(p, cell, 0, Width::U64);
        let raw = f.load(cell, 0, Width::U64);
        f.store(raw, cell, 0, Width::U64);
        let q = f.load_ptr(cell, 0);
        f.free(p);
        let _ = f.load(q, 64, Width::U64); // OOB + UAF, but laundered
        f.ret(None);
        f.finish();
        assert!(cwes(&mb.finish()).is_empty());
    }
}
