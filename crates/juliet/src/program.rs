//! Expanding cases into runnable IR programs.

use crate::{Case, Cwe};
use hwst_compiler::instrument::config_for;
use hwst_compiler::ir::{BinOp, Module, Width};
use hwst_compiler::{compile_with_options, CompileOptions, FuncBuilder, ModuleBuilder};
use hwst_exec::{run_fast, BlockCache};
use hwst_sim::Machine;

/// Builds the IR program for a case: allocate, exercise the buffer
/// legitimately, then perform the CWE's characteristic violation (in the
/// case's control-flow shape) and exit 0 if nothing trapped.
pub fn build_program(case: &Case) -> Module {
    use crate::Flow;
    let mut mb = ModuleBuilder::new();

    if case.cwe == Cwe::Cwe690 {
        // Helper whose unchecked return value is dereferenced by main.
        let mut f = mb.func("source");
        // An impossible allocation: the wrapper returns NULL bound to the
        // empty region.
        let huge = f.konst(1 << 40);
        let p = f.malloc(huge);
        f.ret(Some(p));
        f.finish();
    }

    // The violating action, shared between the flow shapes.
    #[derive(Clone, Copy)]
    enum Action {
        Read { off: i64, wide: bool },
        Write { off: i64, wide: bool },
        Free { interior: bool },
    }
    let size = case.buffer_size as i64;
    let magnitude = case.magnitude as i64;
    let action = match case.cwe {
        Cwe::Cwe121 | Cwe::Cwe122 => Action::Write {
            off: size + magnitude - 1,
            wide: false,
        },
        Cwe::Cwe124 => Action::Write {
            off: -magnitude,
            wide: false,
        },
        Cwe::Cwe126 => Action::Read {
            off: size + magnitude - 1,
            wide: false,
        },
        Cwe::Cwe127 => Action::Read {
            off: -magnitude,
            wide: false,
        },
        Cwe::Cwe415 => Action::Free { interior: false },
        Cwe::Cwe416 => Action::Read { off: 0, wide: true },
        Cwe::Cwe476 | Cwe::Cwe690 => Action::Write { off: 0, wide: true },
        Cwe::Cwe761 => Action::Free { interior: true },
    };

    // Cross-function variants route the final access through a sink
    // (pointer-argument metadata must survive the call for detection).
    if case.flow == Flow::CrossFunction {
        match action {
            Action::Read { wide, .. } => {
                let mut f = mb.func("sink_read");
                let p = f.param(true);
                let off = f.param(false);
                let slot = f.gep(p, off);
                let w = if wide { Width::U64 } else { Width::U8 };
                let _ = f.load(slot, 0, w);
                f.ret(None);
                f.finish();
            }
            Action::Write { wide, .. } => {
                let mut f = mb.func("sink_write");
                let p = f.param(true);
                let off = f.param(false);
                let slot = f.gep(p, off);
                let v = f.konst(0x41);
                let w = if wide { Width::U64 } else { Width::U8 };
                f.store(v, slot, 0, w);
                f.ret(None);
                f.finish();
            }
            Action::Free { .. } => {
                let mut f = mb.func("sink_free");
                let p = f.param(true);
                f.free(p);
                f.ret(None);
                f.finish();
            }
        }
    }

    let mut f = mb.func("main");

    // The victim pointer, by region/provenance.
    let victim = match case.cwe {
        Cwe::Cwe121 => f.stack_alloc(size as u64),
        Cwe::Cwe476 => {
            let huge = f.konst(1 << 40);
            f.malloc(huge) // NULL
        }
        Cwe::Cwe690 => f.call("source", &[]),
        _ => f.malloc_bytes(size as u64),
    };

    // Legitimate use first (Juliet cases run a good path too).
    if !matches!(case.cwe, Cwe::Cwe476 | Cwe::Cwe690) {
        let v = f.konst(0x5a);
        f.store(v, victim, 0, Width::U8);
        let _ = f.load(victim, 0, Width::U8);
    }

    // The violating pointer: direct, or laundered through a scalar
    // round-trip that strips provenance (the un-instrumented-flow
    // variants of Juliet).
    let bad_ptr = if case.laundered {
        launder(&mut f, victim)
    } else {
        victim
    };

    // Temporal setup shared by the shapes: the first (legal) free.
    if matches!(case.cwe, Cwe::Cwe415 | Cwe::Cwe416) {
        f.free(victim);
    }

    // Emit the violation in the case's control-flow shape.
    let emit = |f: &mut FuncBuilder<'_>| match action {
        Action::Read { off, wide } => {
            let o = f.konst(off);
            let slot = f.gep(bad_ptr, o);
            let w = if wide { Width::U64 } else { Width::U8 };
            let _ = f.load(slot, 0, w);
        }
        Action::Write { off, wide } => {
            let o = f.konst(off);
            let slot = f.gep(bad_ptr, o);
            let v = f.konst(0x41);
            let w = if wide { Width::U64 } else { Width::U8 };
            f.store(v, slot, 0, w);
        }
        Action::Free { interior } => {
            let target = if interior {
                f.gep_imm(bad_ptr, 8)
            } else {
                bad_ptr
            };
            f.free(target);
        }
    };
    match case.flow {
        Flow::Straight => emit(&mut f),
        Flow::Branched => {
            // Data-dependent always-true guard around the violation.
            let one = f.konst(1);
            let hit = f.new_block();
            let done = f.new_block();
            f.br(one, hit, done);
            f.switch_to(hit);
            emit(&mut f);
            f.jmp(done);
            f.switch_to(done);
        }
        Flow::CrossFunction => match action {
            Action::Read { off, .. } => {
                let o = f.konst(off);
                f.call_void("sink_read", &[bad_ptr, o]);
            }
            Action::Write { off, .. } => {
                let o = f.konst(off);
                f.call_void("sink_write", &[bad_ptr, o]);
            }
            Action::Free { interior } => {
                let target = if interior {
                    f.gep_imm(bad_ptr, 8)
                } else {
                    bad_ptr
                };
                f.call_void("sink_free", &[target]);
            }
        },
    }

    let z = f.konst(0);
    f.ret(Some(z));
    f.finish();
    mb.finish()
}

/// Builds the *benign twin* of a category: the same control/data shape
/// as [`build_program`] but with every access in bounds and every free
/// legal — Juliet's "good" functions. No scheme may trap on these
/// (false-positive check).
pub fn build_benign_program(cwe: Cwe) -> Module {
    let mut mb = ModuleBuilder::new();
    if cwe == Cwe::Cwe690 {
        let mut f = mb.func("source");
        let sz = f.konst(64);
        let p = f.malloc(sz);
        f.ret(Some(p));
        f.finish();
    }
    let mut f = mb.func("main");
    let size = 64i64;
    let victim = match cwe {
        Cwe::Cwe121 => f.stack_alloc(size as u64),
        Cwe::Cwe690 => f.call("source", &[]),
        _ => f.malloc_bytes(size as u64),
    };
    let v = f.konst(0x5a);
    f.store(v, victim, 0, Width::U8);
    match cwe {
        Cwe::Cwe121 | Cwe::Cwe122 => {
            let v = f.konst(0x41);
            f.store(v, victim, size - 1, Width::U8);
        }
        Cwe::Cwe124 => {
            let v = f.konst(0x42);
            f.store(v, victim, 0, Width::U8);
        }
        Cwe::Cwe126 => {
            let _ = f.load(victim, size - 1, Width::U8);
        }
        Cwe::Cwe127 => {
            let _ = f.load(victim, 0, Width::U8);
        }
        Cwe::Cwe415 | Cwe::Cwe761 => {
            if cwe != Cwe::Cwe121 {
                f.free(victim);
            }
        }
        Cwe::Cwe416 => {
            let _ = f.load(victim, 0, Width::U64);
            f.free(victim);
        }
        Cwe::Cwe476 | Cwe::Cwe690 => {
            // The allocation succeeded; dereference is legal.
            let v = f.konst(0x43);
            f.store(v, victim, 0, Width::U64);
        }
    }
    let z = f.konst(0);
    f.ret(Some(z));
    f.finish();
    mb.finish()
}

/// Strips provenance: the pointer value round-trips through a scalar
/// store/load, so the reloaded pointer carries no metadata.
fn launder(f: &mut FuncBuilder<'_>, p: hwst_compiler::ir::VarId) -> hwst_compiler::ir::VarId {
    let cell = f.malloc_bytes(8);
    // Scalar store: value only, no metadata.
    f.store(p, cell, 0, Width::U64);
    // Defeat any value tracking with a masked round-trip.
    let raw = f.load(cell, 0, Width::U64);
    let raw2 = f.bin_imm(BinOp::Xor, raw, 0);
    f.store(raw2, cell, 0, Width::U64);
    // Pointer load: the container's shadow was never written, so the
    // metadata comes back all-zero = unbound.
    f.load_ptr(cell, 0)
}

/// Compiles a case with `opts` and runs it on the fast engine under the
/// safety configuration paired with `opts.scheme`; returns `true` iff a
/// spatial/temporal violation trap fired (the paper's detection
/// criterion). A case that fails to compile counts as "not detected" —
/// with `opts.verify` armed, that includes a pass deleting a check the
/// scheme's contract still needs.
pub fn execute_detects(case: &Case, opts: CompileOptions) -> bool {
    let Ok(compiled) = compile_with_options(&build_program(case), opts) else {
        return false;
    };
    let mut m = Machine::new(compiled.program, config_for(opts.scheme));
    match run_fast(&mut m, 5_000_000, &mut BlockCache::new()) {
        Err(t) => t.is_violation(),
        Ok(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::make_case;
    use hwst_compiler::Scheme;

    fn detects(case: &Case, scheme: Scheme) -> bool {
        execute_detects(case, CompileOptions::new(scheme))
    }

    fn reachable(cwe: Cwe) -> Case {
        // Index past the sub-granule slice but inside the reachable zone.
        make_case(cwe, cwe.sub_granule_count())
    }

    fn laundered(cwe: Cwe) -> Case {
        make_case(cwe, cwe.case_count() - 1)
    }

    #[test]
    fn baseline_never_detects() {
        for cwe in Cwe::ALL {
            let c = reachable(cwe);
            assert!(!detects(&c, Scheme::None), "{cwe}: baseline must not trap");
        }
    }

    #[test]
    fn reachable_cases_detected_by_both_pointer_schemes() {
        for cwe in Cwe::ALL {
            let c = reachable(cwe);
            assert!(
                detects(&c, Scheme::Sbcets),
                "{cwe}: SBCETS must detect the reachable case"
            );
            assert!(
                detects(&c, Scheme::Hwst128Tchk),
                "{cwe}: HWST128 must detect the reachable case"
            );
        }
    }

    #[test]
    fn laundered_cases_evade_pointer_schemes() {
        for cwe in Cwe::ALL {
            let c = laundered(cwe);
            assert!(c.laundered);
            assert!(
                !detects(&c, Scheme::Sbcets),
                "{cwe}: laundered case must evade SBCETS"
            );
            assert!(
                !detects(&c, Scheme::Hwst128Tchk),
                "{cwe}: laundered case must evade HWST128"
            );
        }
    }

    #[test]
    fn sub_granule_heap_overflow_splits_the_schemes() {
        // The paper's CWE122 delta: exact software bounds catch what the
        // 8-byte-granule compressed bounds cannot.
        let c = make_case(Cwe::Cwe122, 0);
        assert!(c.sub_granule);
        assert!(
            detects(&c, Scheme::Sbcets),
            "SBCETS keeps exact bounds and must detect"
        );
        assert!(
            !detects(&c, Scheme::Hwst128Tchk),
            "HWST128's compressed bounds round up past the overflow"
        );
    }
}
