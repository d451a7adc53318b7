//! Hostile IR modules at the compiler's own boundary: whatever module
//! the IR builder can express, and the modules below that are built by
//! hand from the public IR types, `compile_with_options` either refuses
//! with a typed, printable [`CompileError`] or compiles to an image that
//! runs to an exit or a typed trap under `run_fast` — under every
//! scheme, at both back-end tiers, with and without the static-analysis
//! passes. A panic anywhere fails the test.

use hwst128::compiler::ir::{Block, Function, Inst, LocalId, Module, Terminator, VarId};
use hwst128::compiler::{
    compile_with_options, CompileError, CompileOptions, ModuleBuilder, OptLevel, Scheme,
};
use hwst128::config_for;
use hwst128::exec::{run_fast, BlockCache};
use hwst128::sim::{ExitStatus, Machine, Trap};

/// Far more than any module here needs: running out is a failure.
const FUEL: u64 = 1_000_000;

/// The outcome of compiling and running one module under one
/// configuration, labelled with that configuration.
type Outcome = (String, Result<Result<ExitStatus, Trap>, CompileError>);

/// Compiles `module` under all 9 schemes × {O0, O1} × {no passes,
/// bounds + RCE + verify} and runs every image that compiles on the
/// fast engine.
fn outcomes(module: &Module) -> Vec<Outcome> {
    let mut out = Vec::new();
    for scheme in Scheme::EVERY {
        for opt in [OptLevel::O0, OptLevel::O1] {
            for passes in [false, true] {
                let mut opts = CompileOptions::new(scheme).with_opt(opt);
                if passes {
                    opts = opts.with_bounds().with_rce().with_verify();
                }
                let label = format!(
                    "{} -{}{}",
                    scheme.label(),
                    opt.label(),
                    if passes { " +bounds+rce+verify" } else { "" }
                );
                let outcome = compile_with_options(module, opts).map(|c| {
                    let mut m = Machine::new(c.program, config_for(scheme));
                    run_fast(&mut m, FUEL, &mut BlockCache::new())
                });
                out.push((label, outcome));
            }
        }
    }
    out
}

/// Every configuration must refuse `module` with an error `is` accepts,
/// and the error must print.
fn assert_refused(module: &Module, is: impl Fn(&CompileError) -> bool) {
    for (label, outcome) in outcomes(module) {
        match outcome {
            Err(e) => {
                assert!(is(&e), "{label}: refused with the wrong error: {e:?}");
                assert!(!e.to_string().is_empty(), "{label}: {e:?} prints nothing");
            }
            Ok(run) => panic!("{label}: compiled and ran to {run:?}"),
        }
    }
}

#[test]
fn mainless_module_is_refused() {
    let mut mb = ModuleBuilder::new();
    let mut f = mb.func("helper");
    let _ = f.konst(1);
    f.ret(None);
    f.finish();
    assert_refused(&mb.finish(), |e| matches!(e, CompileError::MissingMain));
}

#[test]
fn call_to_an_undefined_function_is_refused() {
    let mut mb = ModuleBuilder::new();
    let mut f = mb.func("main");
    let x = f.konst(1);
    let r = f.call("nowhere", &[x]);
    f.ret(Some(r));
    f.finish();
    assert_refused(
        &mb.finish(),
        |e| matches!(e, CompileError::UnknownCallee { callee, .. } if callee == "nowhere"),
    );
}

#[test]
fn call_with_more_than_eight_arguments_is_refused() {
    let mut mb = ModuleBuilder::new();
    let mut wide = mb.func("wide");
    let params: Vec<_> = (0..9).map(|_| wide.param(false)).collect();
    wide.ret(Some(params[0]));
    wide.finish();
    let mut f = mb.func("main");
    let args: Vec<_> = (0..9).map(|k| f.konst(k)).collect();
    let r = f.call("wide", &args);
    f.ret(Some(r));
    f.finish();
    assert_refused(&mb.finish(), |e| {
        matches!(e, CompileError::TooManyArgs { count: 9, .. })
    });
}

#[test]
fn variable_past_num_vars_is_refused() {
    // Hand-built: the builder numbers variables itself and cannot
    // express a `main` whose one frame slot is v0 but which writes and
    // returns v5.
    let main = Function {
        name: "main".into(),
        params: vec![],
        param_is_ptr: vec![],
        num_vars: 1,
        num_locals: 0,
        blocks: vec![Block {
            insts: vec![Inst::Const {
                dst: VarId(5),
                value: 7,
            }],
            term: Terminator::Ret {
                value: Some(VarId(5)),
            },
        }],
    };
    let m = Module {
        funcs: vec![main],
        globals: vec![],
    };
    assert_refused(
        &m,
        |e| matches!(e, CompileError::VarOutOfRange { func, var: VarId(5) } if func == "main"),
    );
}

#[test]
fn param_flags_shorter_than_params_are_refused() {
    // Hand-built: the builder records one flag per `param` call. Here
    // `g` takes v0 but flags no parameter as pointer or scalar.
    let g = Function {
        name: "g".into(),
        params: vec![VarId(0)],
        param_is_ptr: vec![],
        num_vars: 1,
        num_locals: 0,
        blocks: vec![Block {
            insts: vec![],
            term: Terminator::Ret {
                value: Some(VarId(0)),
            },
        }],
    };
    let main = Function {
        name: "main".into(),
        params: vec![],
        param_is_ptr: vec![],
        num_vars: 2,
        num_locals: 0,
        blocks: vec![Block {
            insts: vec![
                Inst::Const {
                    dst: VarId(0),
                    value: 7,
                },
                Inst::Call {
                    dst: Some(VarId(1)),
                    func: "g".into(),
                    args: vec![VarId(0)],
                },
            ],
            term: Terminator::Ret {
                value: Some(VarId(1)),
            },
        }],
    };
    let m = Module {
        funcs: vec![g, main],
        globals: vec![],
    };
    assert_refused(
        &m,
        |e| matches!(e, CompileError::ParamFlagsMismatch { func, params: 1, flags: 0 } if func == "g"),
    );
}

#[test]
fn local_past_num_locals_is_refused() {
    // Hand-built: the builder numbers local slots itself. This `main`
    // has no local slots but reads slot 3.
    let main = Function {
        name: "main".into(),
        params: vec![],
        param_is_ptr: vec![],
        num_vars: 1,
        num_locals: 0,
        blocks: vec![Block {
            insts: vec![Inst::LocalGet {
                dst: VarId(0),
                index: LocalId(3),
            }],
            term: Terminator::Ret {
                value: Some(VarId(0)),
            },
        }],
    };
    let m = Module {
        funcs: vec![main],
        globals: vec![],
    };
    assert_refused(
        &m,
        |e| matches!(e, CompileError::LocalOutOfRange { func, local: LocalId(3) } if func == "main"),
    );
}

#[test]
fn blockless_function_is_refused() {
    // Hand-built: the builder always opens an entry block. A `main`
    // without one lowers to no code, so entering it runs whatever
    // code the image places next.
    let main = Function {
        name: "main".into(),
        params: vec![],
        param_is_ptr: vec![],
        num_vars: 0,
        num_locals: 0,
        blocks: vec![],
    };
    let m = Module {
        funcs: vec![main],
        globals: vec![],
    };
    assert_refused(
        &m,
        |e| matches!(e, CompileError::EmptyFunction { func } if func == "main"),
    );
}

#[test]
fn konst_heavy_main_compiles_and_exits() {
    // Thousands of dead constants: a frame far past the 12-bit
    // store offsets and a register allocator with nothing to keep.
    let mut mb = ModuleBuilder::new();
    let mut f = mb.func("main");
    for k in 0..4096 {
        let _ = f.konst(k * 0x0101_0101);
    }
    let code = f.konst(42);
    f.ret(Some(code));
    f.finish();
    for (label, outcome) in outcomes(&mb.finish()) {
        match outcome {
            Ok(Ok(exit)) => assert_eq!(exit.code, 42, "{label}"),
            other => panic!("{label}: expected exit 42, got {other:?}"),
        }
    }
}
