//! Metadata-completeness verifier for instrumented IR.
//!
//! Replays the same available-checks dataflow the redundant-check
//! eliminator uses ([`crate::rce`]) and demands that at every
//! dereference the checks the active [`Scheme`] promises are available:
//!
//! * [`Scheme::Hwst128Tchk`] — a [`Inst::Tchk`] fact for the access's
//!   SRF root (exact),
//! * [`Scheme::Sbcets`] — a `__sbcets_spatial_check` fact matching the
//!   access's `(root, offset, size)` exactly, plus a temporal-check
//!   fact,
//! * [`Scheme::Hwst128`] — an inline temporal-pattern fact (spatial
//!   safety is carried by the hardware's bounded accesses, so there is
//!   nothing spatial to verify in the IR),
//! * [`Scheme::None`] / [`Scheme::Shore`] — no promised IR checks;
//!   trivially complete.
//!
//! Because this runs *after* RCE, it is an end-to-end soundness gate:
//! if elimination ever deleted a check that some path still needs, the
//! fact is absent at the dereference and verification fails with
//! [`CompileError::UncoveredDeref`].
//!
//! ## Precision notes
//!
//! The temporal facts for the software schemes name the `(key, lock)`
//! value pair, not the pointer; the verifier accepts any available
//! temporal fact for those schemes (associating companions with
//! pointers is the instrumenter's private bookkeeping). The
//! `Hwst128Tchk` contract — the hardware scheme the paper centres on —
//! is verified exactly per-pointer. Infrastructure accesses are exempt:
//! metadata-shuttle globals (`__meta_args`, `__meta_tmp`,
//! `__hwst_scratch`), the runtime helper bodies (`__sbcets_*`), the
//! lock-word load inside a recognised inline temporal pattern, and
//! unreachable blocks (no fact, no runtime behaviour). Functions that
//! are not single-assignment are skipped, matching the eliminator's
//! bail-out.

use crate::bounds::Witness;
use crate::dataflow::DefMap;
use crate::instrument::{Scheme, SkippedCheck, META_ARGS_GLOBAL, META_TMP_GLOBAL, SCRATCH_GLOBAL};
use crate::ir::{Function, Inst, Module, VarId};
use crate::rce::{available_checks, transfer_check, CheckFact, FactSet};
use crate::CompileError;
use std::collections::{HashMap, HashSet};

/// Checks every dereference of `module` against `scheme`'s contract.
///
/// # Errors
///
/// [`CompileError::UncoveredDeref`] naming the first uncovered access.
pub fn verify(module: &Module, scheme: Scheme) -> Result<(), CompileError> {
    verify_with(module, scheme, &[], &[])
}

/// [`verify`] for a module whose instrumenter skipped checks under
/// bounds-proof witnesses: each skip is first re-validated (the witness
/// must exist, its interval must arithmetically fit the object, heap
/// witnesses are only admissible under the hardware schemes, and the
/// exempted site must actually be a dereference), then the named sites
/// are exempted from the coverage demand. The verifier deliberately
/// re-derives the arithmetic instead of trusting the bounds pass — a
/// forged or stale witness fails here even if instrumentation already
/// happened.
///
/// # Errors
///
/// [`CompileError::InvalidWitness`] for a skip that fails
/// re-validation, [`CompileError::UncoveredDeref`] for an uncovered
/// non-exempt access.
pub fn verify_with(
    module: &Module,
    scheme: Scheme,
    skips: &[SkippedCheck],
    witnesses: &[Witness],
) -> Result<(), CompileError> {
    if matches!(scheme, Scheme::None | Scheme::Shore) {
        return Ok(());
    }
    let mut exempt_sites: HashMap<&str, HashSet<(usize, usize)>> = HashMap::new();
    for s in skips {
        let fail = |reason: &'static str| {
            Err(CompileError::InvalidWitness {
                func: s.func.clone(),
                block: s.block,
                inst: s.deref,
                reason,
            })
        };
        let Some(w) = witnesses.get(s.witness) else {
            return fail("witness index out of range");
        };
        if !w.arithmetic_ok() {
            return fail("claimed interval does not fit the object");
        }
        if w.heap() && !scheme.uses_hardware() {
            return fail("heap witness under a software-spatial scheme");
        }
        let Some(f) = module.funcs.iter().find(|f| f.name == s.func) else {
            return fail("unknown function");
        };
        // Resolve the deref ordinal to the current instruction index
        // (checks may have been eliminated since the skip was recorded,
        // but dereferences are never removed).
        let Some(block) = f.blocks.get(s.block) else {
            return fail("exempted block does not exist");
        };
        let Some(idx) = block
            .insts
            .iter()
            .enumerate()
            .filter(|(_, i)| crate::instrument::is_deref(i))
            .map(|(idx, _)| idx)
            .nth(s.deref)
        else {
            return fail("exempted site is not a dereference");
        };
        exempt_sites
            .entry(&f.name)
            .or_default()
            .insert((s.block, idx));
    }
    let exempt_globals: HashSet<u32> = module
        .globals
        .iter()
        .enumerate()
        .filter(|(_, g)| {
            g.name == META_ARGS_GLOBAL || g.name == META_TMP_GLOBAL || g.name == SCRATCH_GLOBAL
        })
        .map(|(i, _)| i as u32)
        .collect();
    for f in &module.funcs {
        if f.name.starts_with("__sbcets_") {
            continue; // runtime helper bodies implement the checks
        }
        verify_func(
            f,
            scheme,
            &exempt_globals,
            exempt_sites.get(f.name.as_str()),
        )?;
    }
    Ok(())
}

fn verify_func(
    f: &Function,
    scheme: Scheme,
    exempt_globals: &HashSet<u32>,
    exempt_sites: Option<&HashSet<(usize, usize)>>,
) -> Result<(), CompileError> {
    let Some((defs, patterns, facts)) = available_checks(f) else {
        return Ok(()); // not single-assignment: out of scope (see docs)
    };
    let pattern_check_blocks: HashSet<usize> = patterns.values().map(|p| p.check_block).collect();

    let exempt_root = |v: VarId| -> bool {
        matches!(
            defs.def(defs.temporal_root(v)),
            Some(Inst::AddrOfGlobal { global, .. }) if exempt_globals.contains(&global.0)
        )
    };

    for (b, (block, entry_fact)) in f.blocks.iter().zip(facts).enumerate() {
        let Some(mut fact) = entry_fact else {
            continue; // unreachable: never executes
        };
        let in_pattern_check = pattern_check_blocks.contains(&b);
        for (idx, inst) in block.insts.iter().enumerate() {
            let access = match *inst {
                Inst::Load {
                    addr,
                    offset,
                    width,
                    ..
                } => Some((addr, offset, width.bytes() as i64)),
                Inst::Store {
                    addr,
                    offset,
                    width,
                    ..
                } => Some((addr, offset, width.bytes() as i64)),
                Inst::LoadPtr { addr, offset, .. } | Inst::StorePtr { addr, offset, .. } => {
                    Some((addr, offset, 8))
                }
                _ => None,
            };
            if let Some((addr, offset, size)) = access {
                let exempt = exempt_root(addr)
                    || (in_pattern_check && idx == 0)
                    || exempt_sites.is_some_and(|s| s.contains(&(b, idx)));
                if !exempt && !covered(scheme, &defs, &fact, addr, offset, size) {
                    return Err(CompileError::UncoveredDeref {
                        func: f.name.clone(),
                        block: b,
                        inst: idx,
                        scheme: scheme.label(),
                    });
                }
            }
            transfer_check(&defs, inst, &mut fact);
        }
    }
    Ok(())
}

fn covered(
    scheme: Scheme,
    defs: &DefMap<'_>,
    fact: &FactSet,
    addr: VarId,
    offset: i64,
    size: i64,
) -> bool {
    match scheme {
        // The zoo's tag-checking designs (RV-CURE, HeapSafe) reuse the
        // `tchk` contract: every dereference must carry a tchk fact.
        // HeapSafe's stack checks pass vacuously at runtime (stack
        // pointers carry the all-zero metadata word), but the
        // instruction is still emitted, so the demand is identical.
        Scheme::Hwst128Tchk | Scheme::RvCure | Scheme::HeapSafe => {
            fact.contains(&CheckFact::Tchk(defs.temporal_root(addr)))
        }
        // The inline-software zoo designs promise the same recognised
        // inline temporal pattern as HWST128; L4 Pointer's inline
        // spatial guards are never touched by RCE (no fact models
        // them), so the temporal fact is the verifiable IR contract.
        Scheme::Hwst128 | Scheme::L4Pointer | Scheme::CryptSan => fact
            .iter()
            .any(|f| matches!(f, CheckFact::SbTemporal { .. })),
        Scheme::Sbcets => {
            let (root, delta) = defs.spatial_anchor(addr);
            let want = delta.wrapping_add(offset);
            let spatial = fact.iter().any(|f| {
                matches!(
                    f,
                    CheckFact::SbSpatial {
                        root: r,
                        delta: d,
                        size: s,
                        ..
                    } if *r == root && *d == want && *s == size
                )
            });
            let temporal = fact
                .iter()
                .any(|f| matches!(f, CheckFact::SbTemporal { .. }));
            spatial && temporal
        }
        Scheme::None | Scheme::Shore => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use crate::instrument::instrument;
    use crate::ir::{Terminator, Width};
    use crate::ModuleBuilder;

    fn sample_modules() -> Vec<Module> {
        let mut out = Vec::new();

        // Straight-line heap traffic with a free.
        let mut mb = ModuleBuilder::new();
        let mut f = mb.func("main");
        let p = f.malloc_bytes(64);
        let v = f.konst(5);
        f.store(v, p, 0, Width::U64);
        let _ = f.load(p, 8, Width::U32);
        f.free(p);
        f.ret(None);
        f.finish();
        out.push(mb.finish());

        // Stack + global + cross-function pointer traffic.
        let mut mb = ModuleBuilder::new();
        let g = mb.global("table", 32);
        let mut f = mb.func("sink");
        let q = f.param(true);
        let v = f.konst(1);
        f.store(v, q, 0, Width::U8);
        f.ret(None);
        f.finish();
        let mut f = mb.func("main");
        let s = f.stack_alloc(16);
        let ga = f.addr_of_global(g);
        let v = f.konst(3);
        f.store(v, s, 8, Width::U64);
        f.store(v, ga, 0, Width::U64);
        f.call_void("sink", &[s]);
        let cell = f.malloc_bytes(8);
        f.store_ptr(s, cell, 0);
        let r = f.load_ptr(cell, 0);
        let _ = f.load(r, 0, Width::U8);
        f.ret(None);
        f.finish();
        out.push(mb.finish());

        out
    }

    #[test]
    fn instrumented_modules_verify_under_every_scheme() {
        for m in sample_modules() {
            let info = analyze(&m).unwrap();
            for scheme in Scheme::ALL {
                let out = instrument(&m, &info, scheme);
                verify(&out, scheme).unwrap_or_else(|e| panic!("{scheme:?}: {e}"));
            }
        }
    }

    #[test]
    fn rce_output_still_verifies() {
        for m in sample_modules() {
            let info = analyze(&m).unwrap();
            for scheme in Scheme::ALL {
                let mut out = instrument(&m, &info, scheme);
                crate::rce::eliminate(&mut out);
                verify(&out, scheme).unwrap_or_else(|e| panic!("{scheme:?} post-RCE: {e}"));
            }
        }
    }

    #[test]
    fn deleting_a_needed_check_is_caught() {
        let mut mb = ModuleBuilder::new();
        let mut f = mb.func("main");
        let p = f.malloc_bytes(64);
        let v = f.konst(5);
        f.store(v, p, 0, Width::U64);
        f.ret(None);
        f.finish();
        let m = mb.finish();
        let info = analyze(&m).unwrap();
        let mut out = instrument(&m, &info, Scheme::Hwst128Tchk);
        // Hand-break the module: drop every tchk.
        for func in &mut out.funcs {
            for b in &mut func.blocks {
                b.insts.retain(|i| !matches!(i, Inst::Tchk { .. }));
            }
        }
        let err = verify(&out, Scheme::Hwst128Tchk).unwrap_err();
        assert!(matches!(err, CompileError::UncoveredDeref { .. }), "{err}");
    }

    fn bounds_loop_module() -> Module {
        use crate::ir::BinOp;
        let mut mb = ModuleBuilder::new();
        let mut f = mb.func("main");
        let arr = f.stack_alloc(64);
        let i = f.local();
        let z = f.konst(0);
        f.local_set(i, z);
        let head = f.new_block();
        let body = f.new_block();
        let done = f.new_block();
        f.jmp(head);
        f.switch_to(head);
        let iv = f.local_get(i);
        let c = f.bin_imm(BinOp::Slt, iv, 8);
        f.br(c, body, done);
        f.switch_to(body);
        let iv2 = f.local_get(i);
        let off = f.bin_imm(BinOp::Sll, iv2, 3);
        let slot = f.gep(arr, off);
        let v = f.konst(1);
        f.store(v, slot, 0, Width::U64);
        let iv3 = f.local_get(i);
        let nx = f.bin_imm(BinOp::Add, iv3, 1);
        f.local_set(i, nx);
        f.jmp(head);
        f.switch_to(done);
        f.ret(None);
        f.finish();
        mb.finish()
    }

    #[test]
    fn bounds_skips_verify_under_every_scheme() {
        let m = bounds_loop_module();
        let info = analyze(&m).unwrap();
        let outcome = crate::bounds::analyze(&m);
        assert!(outcome.stats.proven >= 1, "{:?}", outcome.stats);
        for scheme in Scheme::ALL {
            let (out, skips) =
                crate::instrument::instrument_with_bounds(&m, &info, scheme, Some(&outcome));
            if !matches!(scheme, Scheme::None | Scheme::Shore) {
                assert!(!skips.is_empty(), "{scheme:?} skipped nothing");
            }
            verify_with(&out, scheme, &skips, &outcome.witnesses)
                .unwrap_or_else(|e| panic!("{scheme:?}: {e}"));
        }
    }

    #[test]
    fn skips_without_witnesses_fail_verification() {
        // The same instrumented module must NOT verify if the witness
        // list is withheld: a skip is only as good as its proof.
        let m = bounds_loop_module();
        let info = analyze(&m).unwrap();
        let outcome = crate::bounds::analyze(&m);
        let (out, skips) = crate::instrument::instrument_with_bounds(
            &m,
            &info,
            Scheme::Hwst128Tchk,
            Some(&outcome),
        );
        let err = verify_with(&out, Scheme::Hwst128Tchk, &skips, &[]).unwrap_err();
        assert!(matches!(err, CompileError::InvalidWitness { .. }), "{err}");
        // ... and without even the skip records, it is an uncovered deref.
        let err = verify(&out, Scheme::Hwst128Tchk).unwrap_err();
        assert!(matches!(err, CompileError::UncoveredDeref { .. }), "{err}");
    }

    #[test]
    fn forged_witnesses_are_rejected() {
        let m = bounds_loop_module();
        let info = analyze(&m).unwrap();
        let outcome = crate::bounds::analyze(&m);
        let (out, skips) = crate::instrument::instrument_with_bounds(
            &m,
            &info,
            Scheme::Hwst128Tchk,
            Some(&outcome),
        );

        // Interval past the end of the object.
        let mut forged = outcome.witnesses.clone();
        for w in &mut forged {
            w.hi = w.size as i64 + 8;
        }
        let err = verify_with(&out, Scheme::Hwst128Tchk, &skips, &forged).unwrap_err();
        assert!(matches!(err, CompileError::InvalidWitness { .. }), "{err}");

        // Negative base offset.
        let mut forged = outcome.witnesses.clone();
        for w in &mut forged {
            w.lo = -8;
        }
        assert!(verify_with(&out, Scheme::Hwst128Tchk, &skips, &forged).is_err());

        // Skip pointing past every dereference in its block.
        let mut bad_skips = skips.clone();
        for s in &mut bad_skips {
            s.deref += 100;
        }
        let r = verify_with(&out, Scheme::Hwst128Tchk, &bad_skips, &outcome.witnesses);
        assert!(r.is_err());
    }

    #[test]
    fn rce_shifts_do_not_break_skip_resolution() {
        // One block holding (a) a kept check, (b) a check RCE deletes
        // (same temporal root ⇒ indices shift), then (c) a bounds-
        // skipped store. The ordinal-based skip must still resolve to
        // the right dereference after elimination.
        let mut mb = ModuleBuilder::new();
        let mut f = mb.func("main");
        let cell = f.malloc_bytes(8);
        let p = f.malloc_bytes(64);
        f.store_ptr(p, cell, 0);
        let q = f.load_ptr(cell, 0); // unknown-provenance pointer
        let _a = f.load(q, 0, Width::U64); // checked
        let _b = f.load(q, 8, Width::U64); // RCE removes this tchk
        let arr = f.stack_alloc(16);
        let v = f.konst(9);
        f.store(v, arr, 8, Width::U64); // bounds-proven: skipped
        f.ret(None);
        f.finish();
        let m = mb.finish();
        for scheme in Scheme::ALL {
            let opts = crate::CompileOptions::new(scheme)
                .with_rce()
                .with_bounds()
                .with_verify();
            let c =
                crate::compile_with_options(&m, opts).unwrap_or_else(|e| panic!("{scheme:?}: {e}"));
            if scheme == Scheme::Hwst128Tchk {
                assert!(c.rce.tchk_removed >= 1, "{:?}", c.rce);
                assert!(!c.skips.is_empty());
            }
        }
    }

    #[test]
    fn unreachable_derefs_are_ignored() {
        // A dead block dereferencing without checks must not fail the
        // verifier: it cannot execute.
        let mut mb = ModuleBuilder::new();
        let mut f = mb.func("main");
        let p = f.malloc_bytes(8);
        let v = f.konst(1);
        f.store(v, p, 0, Width::U64);
        f.ret(None);
        f.finish();
        let m = mb.finish();
        let info = analyze(&m).unwrap();
        let mut out = instrument(&m, &info, Scheme::Hwst128Tchk);
        // Append an unreachable block with a raw deref.
        let main = out.funcs.iter_mut().find(|f| f.name == "main").unwrap();
        let addr = main.params.first().copied().unwrap_or(VarId(0));
        main.blocks.push(crate::ir::Block {
            insts: vec![Inst::Load {
                dst: VarId(999),
                addr,
                offset: 0,
                width: Width::U64,
            }],
            term: Terminator::Ret { value: None },
        });
        main.num_vars = main.num_vars.max(1000);
        verify(&out, Scheme::Hwst128Tchk).unwrap();
    }
}
