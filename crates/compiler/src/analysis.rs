//! Pointer analysis: provenance inference and IR validation.
//!
//! This is the reproduction of the "pointer analysis from the compiler"
//! the paper leans on (§3, §3.4): before instrumentation we compute, for
//! every function, which virtual registers hold pointers (and therefore
//! need metadata), whether the function returns a pointer, and where the
//! dereference sites are. The analysis also *validates* the IR — every
//! address operand must be provably a pointer — so instrumentation can
//! never miss a site.

use crate::dataflow::inst_defs;
use crate::ir::{Function, Inst, Module, Terminator, VarId};
use crate::CompileError;
use std::collections::{HashMap, HashSet};

/// Per-function analysis results.
#[derive(Debug, Clone, Default)]
pub struct FuncInfo {
    /// Variables holding pointers (provenance-carrying values).
    pub pointers: HashSet<VarId>,
    /// Whether the function returns a pointer.
    pub returns_ptr: bool,
    /// Number of dereference sites (`Load`/`Store`/`LoadPtr`/`StorePtr`).
    pub deref_sites: usize,
    /// Whether the function owns stack allocations (needs a frame lock
    /// for use-after-return protection).
    pub has_stack_alloc: bool,
}

/// Whole-module analysis results.
#[derive(Debug, Clone, Default)]
pub struct PointerInfo {
    funcs: HashMap<String, FuncInfo>,
}

impl PointerInfo {
    /// The analysis of one function, or `None` if `name` was not part
    /// of the analyzed module.
    pub fn func(&self, name: &str) -> Option<&FuncInfo> {
        self.funcs.get(name)
    }

    /// Iterates over `(name, info)` pairs in unspecified order.
    pub fn funcs(&self) -> impl Iterator<Item = (&str, &FuncInfo)> {
        self.funcs.iter().map(|(n, i)| (n.as_str(), i))
    }

    /// Whether `var` is a pointer in `func`.
    pub fn is_pointer(&self, func: &str, var: VarId) -> bool {
        self.funcs
            .get(func)
            .map(|f| f.pointers.contains(&var))
            .unwrap_or(false)
    }
}

/// Runs the analysis and validates the module.
///
/// # Errors
///
/// * [`CompileError::MissingMain`] — no `main`,
/// * [`CompileError::UnknownCallee`] — call to an undefined function,
/// * [`CompileError::TooManyArgs`] — more than 8 arguments,
/// * [`CompileError::BadBlockTarget`] — dangling control flow,
/// * [`CompileError::VarOutOfRange`] — a variable at or past its
///   function's `num_vars`,
/// * [`CompileError::ParamFlagsMismatch`] — `param_is_ptr` and `params`
///   of different lengths,
/// * [`CompileError::LocalOutOfRange`] — a local slot at or past its
///   function's `num_locals`,
/// * [`CompileError::EmptyFunction`] — a function with no blocks,
/// * [`CompileError::NotAPointer`] — an address operand without pointer
///   provenance.
pub fn analyze(module: &Module) -> Result<PointerInfo, CompileError> {
    if module.func("main").is_none() {
        return Err(CompileError::MissingMain);
    }

    // Interprocedural fixpoint for returns_ptr: a call result is a
    // pointer iff the callee returns one.
    let mut returns_ptr: HashMap<&str, bool> = module
        .funcs
        .iter()
        .map(|f| (f.name.as_str(), false))
        .collect();
    loop {
        let mut changed = false;
        for f in &module.funcs {
            let ptrs = local_pointers(f, &returns_ptr);
            let rp = f
                .blocks
                .iter()
                .any(|b| matches!(b.term, Terminator::Ret { value: Some(v) } if ptrs.contains(&v)));
            if rp && !returns_ptr[f.name.as_str()] {
                returns_ptr.insert(&f.name, true);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let mut info = PointerInfo::default();
    for f in &module.funcs {
        let pointers = local_pointers(f, &returns_ptr);
        validate(f, module, &pointers)?;
        let deref_sites = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| {
                matches!(
                    i,
                    Inst::Load { .. }
                        | Inst::Store { .. }
                        | Inst::LoadPtr { .. }
                        | Inst::StorePtr { .. }
                )
            })
            .count();
        let has_stack_alloc = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .any(|i| matches!(i, Inst::StackAlloc { .. }));
        info.funcs.insert(
            f.name.clone(),
            FuncInfo {
                returns_ptr: returns_ptr[f.name.as_str()],
                pointers,
                deref_sites,
                has_stack_alloc,
            },
        );
    }
    Ok(info)
}

/// Intraprocedural pointer set given interprocedural return facts.
fn local_pointers(f: &Function, returns_ptr: &HashMap<&str, bool>) -> HashSet<VarId> {
    let mut ptrs: HashSet<VarId> = f
        .params
        .iter()
        .zip(&f.param_is_ptr)
        .filter(|(_, &is)| is)
        .map(|(&v, _)| v)
        .collect();
    // One pass suffices: defs dominate uses in the builder discipline,
    // but run to fixpoint anyway for hand-built IR.
    loop {
        let mut changed = false;
        for b in &f.blocks {
            for i in &b.insts {
                let is_ptr_def = match i {
                    Inst::AddrOfGlobal { .. }
                    | Inst::StackAlloc { .. }
                    | Inst::Malloc { .. }
                    | Inst::LoadPtr { .. } => true,
                    Inst::Gep { base, .. } | Inst::GepImm { base, .. } => ptrs.contains(base),
                    Inst::Call { func, .. } => {
                        returns_ptr.get(func.as_str()).copied().unwrap_or(false)
                    }
                    _ => false,
                };
                if is_ptr_def {
                    if let Some(d) = i.def() {
                        changed |= ptrs.insert(d);
                    }
                }
            }
        }
        if !changed {
            return ptrs;
        }
    }
}

fn validate(f: &Function, module: &Module, ptrs: &HashSet<VarId>) -> Result<(), CompileError> {
    // Every variable must have a frame slot: lowering and the dense
    // per-variable tables of the analyses index by `VarId`.
    let require_in_range = |v: VarId| {
        if v.0 < f.num_vars {
            Ok(())
        } else {
            Err(CompileError::VarOutOfRange {
                func: f.name.clone(),
                var: v,
            })
        }
    };
    f.params.iter().try_for_each(|&p| require_in_range(p))?;
    if f.param_is_ptr.len() != f.params.len() {
        return Err(CompileError::ParamFlagsMismatch {
            func: f.name.clone(),
            params: f.params.len(),
            flags: f.param_is_ptr.len(),
        });
    }
    if f.blocks.is_empty() {
        return Err(CompileError::EmptyFunction {
            func: f.name.clone(),
        });
    }
    let require_ptr = |v: VarId, at: &'static str| {
        if ptrs.contains(&v) {
            Ok(())
        } else {
            Err(CompileError::NotAPointer {
                func: f.name.clone(),
                var: v,
                at,
            })
        }
    };
    for b in &f.blocks {
        for i in &b.insts {
            inst_defs(i)
                .chain(i.uses())
                .try_for_each(require_in_range)?;
            match i {
                Inst::Load { addr, .. } => require_ptr(*addr, "load")?,
                Inst::Store { addr, .. } => require_ptr(*addr, "store")?,
                Inst::LoadPtr { addr, .. } => require_ptr(*addr, "loadptr")?,
                Inst::StorePtr { src, addr, .. } => {
                    require_ptr(*src, "storeptr src")?;
                    require_ptr(*addr, "storeptr addr")?;
                }
                Inst::Gep { base, .. } | Inst::GepImm { base, .. } => require_ptr(*base, "gep")?,
                Inst::Free { ptr } => require_ptr(*ptr, "free")?,
                Inst::LocalGet { index, .. } | Inst::LocalSet { index, .. }
                    if index.0 >= f.num_locals =>
                {
                    return Err(CompileError::LocalOutOfRange {
                        func: f.name.clone(),
                        local: *index,
                    });
                }
                Inst::Call { func, args, .. } => {
                    if module.func(func).is_none() {
                        return Err(CompileError::UnknownCallee {
                            caller: f.name.clone(),
                            callee: func.clone(),
                        });
                    }
                    if args.len() > 8 {
                        return Err(CompileError::TooManyArgs {
                            caller: f.name.clone(),
                            callee: func.clone(),
                            count: args.len(),
                        });
                    }
                }
                _ => {}
            }
        }
        let check_target = |t: crate::ir::BlockId| {
            if (t.0 as usize) < f.blocks.len() {
                Ok(())
            } else {
                Err(CompileError::BadBlockTarget {
                    func: f.name.clone(),
                    target: t.0,
                })
            }
        };
        match b.term {
            Terminator::Br { cond, then_, else_ } => {
                require_in_range(cond)?;
                check_target(then_)?;
                check_target(else_)?;
            }
            Terminator::Jmp(t) => check_target(t)?,
            Terminator::Ret { value } => value.into_iter().try_for_each(require_in_range)?,
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::*;

    fn f(name: &str, insts: Vec<Inst>, term: Terminator) -> Function {
        let num_vars = 64;
        Function {
            name: name.into(),
            params: vec![],
            param_is_ptr: vec![],
            num_vars,
            num_locals: 0,
            blocks: vec![Block { insts, term }],
        }
    }

    #[test]
    fn missing_main_is_rejected() {
        let m = Module::default();
        assert!(matches!(analyze(&m), Err(CompileError::MissingMain)));
    }

    #[test]
    fn malloc_result_is_a_pointer_and_gep_preserves_it() {
        let m = Module {
            funcs: vec![f(
                "main",
                vec![
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
                    Inst::Load {
                        dst: VarId(3),
                        addr: VarId(2),
                        offset: 0,
                        width: Width::U64,
                    },
                ],
                Terminator::Ret { value: None },
            )],
            globals: vec![],
        };
        let info = analyze(&m).unwrap();
        assert!(info.is_pointer("main", VarId(1)));
        assert!(info.is_pointer("main", VarId(2)));
        assert!(!info.is_pointer("main", VarId(0)));
        assert!(!info.is_pointer("main", VarId(3)));
        assert_eq!(info.func("main").unwrap().deref_sites, 1);
    }

    #[test]
    fn deref_through_non_pointer_is_rejected() {
        let m = Module {
            funcs: vec![f(
                "main",
                vec![
                    Inst::Const {
                        dst: VarId(0),
                        value: 0x1234,
                    },
                    Inst::Load {
                        dst: VarId(1),
                        addr: VarId(0),
                        offset: 0,
                        width: Width::U64,
                    },
                ],
                Terminator::Ret { value: None },
            )],
            globals: vec![],
        };
        assert!(matches!(analyze(&m), Err(CompileError::NotAPointer { .. })));
    }

    #[test]
    fn interprocedural_pointer_returns() {
        // helper() returns a malloc'd pointer; main derefs the call result.
        let helper = Function {
            name: "helper".into(),
            params: vec![],
            param_is_ptr: vec![],
            num_vars: 8,
            num_locals: 0,
            blocks: vec![Block {
                insts: vec![
                    Inst::Const {
                        dst: VarId(0),
                        value: 8,
                    },
                    Inst::Malloc {
                        dst: VarId(1),
                        size: VarId(0),
                    },
                ],
                term: Terminator::Ret {
                    value: Some(VarId(1)),
                },
            }],
        };
        let main = f(
            "main",
            vec![
                Inst::Call {
                    dst: Some(VarId(0)),
                    func: "helper".into(),
                    args: vec![],
                },
                Inst::Load {
                    dst: VarId(1),
                    addr: VarId(0),
                    offset: 0,
                    width: Width::U64,
                },
            ],
            Terminator::Ret { value: None },
        );
        let m = Module {
            funcs: vec![helper, main],
            globals: vec![],
        };
        let info = analyze(&m).unwrap();
        assert!(info.func("helper").unwrap().returns_ptr);
        assert!(info.is_pointer("main", VarId(0)));
    }

    #[test]
    fn unknown_callee_and_bad_target() {
        let m = Module {
            funcs: vec![f(
                "main",
                vec![Inst::Call {
                    dst: None,
                    func: "ghost".into(),
                    args: vec![],
                }],
                Terminator::Ret { value: None },
            )],
            globals: vec![],
        };
        assert!(matches!(
            analyze(&m),
            Err(CompileError::UnknownCallee { .. })
        ));

        let m = Module {
            funcs: vec![f("main", vec![], Terminator::Jmp(BlockId(9)))],
            globals: vec![],
        };
        assert!(matches!(
            analyze(&m),
            Err(CompileError::BadBlockTarget { .. })
        ));
    }

    #[test]
    fn variables_past_num_vars_are_refused() {
        // Each `main` has the two variables v0 and v1 and names v2 once:
        // as a def, a use, a branch condition, a returned value and a
        // parameter.
        let konst = |dst| Inst::Const {
            dst: VarId(dst),
            value: 7,
        };
        let ret = |value: Option<u32>| Terminator::Ret {
            value: value.map(VarId),
        };
        let add = Inst::Bin {
            op: BinOp::Add,
            dst: VarId(1),
            lhs: VarId(0),
            rhs: VarId(2),
        };
        let br = Terminator::Br {
            cond: VarId(2),
            then_: BlockId(0),
            else_: BlockId(0),
        };
        let mut param = f("main", vec![], ret(None));
        param.params = vec![VarId(2)];
        param.param_is_ptr = vec![false];
        let module = |main: Function| Module {
            funcs: vec![Function {
                num_vars: 2,
                ..main
            }],
            globals: vec![],
        };
        for main in [
            f("main", vec![konst(2)], ret(None)),
            f("main", vec![konst(0), add], ret(None)),
            f("main", vec![], br),
            f("main", vec![konst(0)], ret(Some(2))),
            param,
        ] {
            let m = module(main);
            assert!(
                matches!(
                    analyze(&m),
                    Err(CompileError::VarOutOfRange { var: VarId(2), .. })
                ),
                "{m:?}"
            );
        }
        // The last in-range id is fine.
        assert!(analyze(&module(f("main", vec![konst(1)], ret(Some(1))))).is_ok());
    }

    #[test]
    fn malformed_frames_are_refused() {
        let only = |main: Function| Module {
            funcs: vec![main],
            globals: vec![],
        };
        // A flag without a parameter.
        let mut main = f("main", vec![], Terminator::Ret { value: None });
        main.param_is_ptr = vec![true];
        assert!(matches!(
            analyze(&only(main)),
            Err(CompileError::ParamFlagsMismatch {
                params: 0,
                flags: 1,
                ..
            })
        ));
        // A write to slot 1 of a one-slot frame; slot 0 is fine.
        let set = |slot| Inst::LocalSet {
            src: VarId(0),
            index: LocalId(slot),
        };
        let mut main = f(
            "main",
            vec![set(0), set(1)],
            Terminator::Ret { value: None },
        );
        main.num_locals = 1;
        assert!(matches!(
            analyze(&only(main.clone())),
            Err(CompileError::LocalOutOfRange {
                local: LocalId(1),
                ..
            })
        ));
        main.blocks[0].insts.pop();
        assert!(analyze(&only(main.clone())).is_ok());
        main.blocks.clear();
        assert!(matches!(
            analyze(&only(main)),
            Err(CompileError::EmptyFunction { .. })
        ));
    }

    #[test]
    fn stack_alloc_flags_frame_lock() {
        let m = Module {
            funcs: vec![f(
                "main",
                vec![Inst::StackAlloc {
                    dst: VarId(0),
                    size: 32,
                }],
                Terminator::Ret { value: None },
            )],
            globals: vec![],
        };
        assert!(analyze(&m).unwrap().func("main").unwrap().has_stack_alloc);
    }
}
