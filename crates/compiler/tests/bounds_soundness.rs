//! Soundness-by-construction property test for the static bounds-proof
//! pass: on randomly generated well-formed pointer programs, compiling
//! with `bounds` (plus RCE and the witness-checking verifier) must be
//! observationally identical to the checks-forced-on build under every
//! scheme that can carry a skip. The plain build *is* the dynamic
//! re-check: every check the pass deleted still executes there, so a
//! divergence or a trap would expose an unsound witness. The verifier
//! additionally re-validates each witness arithmetically at compile
//! time (`CompileError::InvalidWitness` fails the test through
//! `expect`).

use hwst_compiler::instrument::config_for;
use hwst_compiler::ir::{BinOp, VarId, Width};
use hwst_compiler::{
    bounds, compile_with_options, CompileOptions, FuncBuilder, ModuleBuilder, Scheme,
};
use hwst_sim::Machine;
use proptest::prelude::*;

/// One generated action. Indices are taken modulo live state at build
/// time, so any sequence is well-formed by construction. Compared to
/// the differential generator this one also emits stack allocas,
/// constant-offset accesses (bounds-provable) and counted loops over a
/// whole buffer (provable only with widening + edge refinement).
#[derive(Debug, Clone)]
enum Act {
    /// Allocate a heap buffer of 8..=256 bytes.
    Alloc(u8),
    /// Allocate a stack buffer of 8..=128 bytes.
    Stack(u8),
    /// Store at a constant in-bounds slot of a live buffer.
    Store { buf: u8, frac: u8, val: i8 },
    /// Load a constant in-bounds slot and mix into the accumulator.
    Load { buf: u8, frac: u8 },
    /// Derived pointer: gep by a constant, then store through it.
    GepStore { buf: u8, frac: u8, val: i8 },
    /// `for (i = 0; i < slots; i++) buf[i] = val + i` — the loop shape
    /// the interval widening was built for.
    LoopFill { buf: u8, val: i8 },
    /// Sum every slot of a buffer into the accumulator with a loop.
    LoopSum { buf: u8 },
    /// Round-trip a pointer through memory, then read through it
    /// (unprovable: the reload has heap provenance only at runtime).
    PtrRoundTrip { buf: u8, frac: u8 },
    /// Free the oldest live heap buffer (if more than one remains).
    FreeOldest,
    /// Pure arithmetic on the accumulator.
    Arith { op: u8, imm: i16 },
}

fn act_strategy() -> impl Strategy<Value = Act> {
    prop_oneof![
        (any::<u8>()).prop_map(Act::Alloc),
        (any::<u8>()).prop_map(Act::Stack),
        (any::<u8>(), any::<u8>(), any::<i8>()).prop_map(|(buf, frac, val)| Act::Store {
            buf,
            frac,
            val
        }),
        (any::<u8>(), any::<u8>()).prop_map(|(buf, frac)| Act::Load { buf, frac }),
        (any::<u8>(), any::<u8>(), any::<i8>()).prop_map(|(buf, frac, val)| Act::GepStore {
            buf,
            frac,
            val
        }),
        (any::<u8>(), any::<i8>()).prop_map(|(buf, val)| Act::LoopFill { buf, val }),
        (any::<u8>()).prop_map(|buf| Act::LoopSum { buf }),
        (any::<u8>(), any::<u8>()).prop_map(|(buf, frac)| Act::PtrRoundTrip { buf, frac }),
        Just(Act::FreeOldest),
        (any::<u8>(), any::<i16>()).prop_map(|(op, imm)| Act::Arith { op, imm }),
    ]
}

/// In-bounds 8-byte-slot offset for a buffer of `size` bytes.
fn slot_offset(size: u64, frac: u8) -> i64 {
    let slots = size / 8;
    ((frac as u64 % slots) * 8) as i64
}

/// `for (i = 0; i < n; i++) body(i)` in header/body/exit shape.
fn count_loop(f: &mut FuncBuilder<'_>, n: i64, body: impl FnOnce(&mut FuncBuilder<'_>, VarId)) {
    let i = f.local();
    let z = f.konst(0);
    f.local_set(i, z);
    let head = f.new_block();
    let body_b = f.new_block();
    let done = f.new_block();
    f.jmp(head);
    f.switch_to(head);
    let iv = f.local_get(i);
    let e = f.konst(n);
    let c = f.bin(BinOp::Slt, iv, e);
    f.br(c, body_b, done);
    f.switch_to(body_b);
    let iv2 = f.local_get(i);
    body(f, iv2);
    let iv3 = f.local_get(i);
    let nx = f.bin_imm(BinOp::Add, iv3, 1);
    f.local_set(i, nx);
    f.jmp(head);
    f.switch_to(done);
}

/// Buffers live in `main`: heap ones can be freed, stack ones cannot.
#[derive(Clone, Copy)]
struct Buf {
    var: VarId,
    size: u64,
    heap: bool,
}

fn build(acts: &[Act]) -> hwst_compiler::ir::Module {
    let mut mb = ModuleBuilder::new();
    let mut f = mb.func("main");
    let acc = f.local();
    let z = f.konst(0);
    f.local_set(acc, z);
    let cell = f.malloc_bytes(8);
    let first = f.malloc_bytes(64);
    let mut bufs = vec![Buf {
        var: first,
        size: 64,
        heap: true,
    }];

    let mix = |f: &mut FuncBuilder<'_>, acc, v| {
        let a = f.local_get(acc);
        let m = f.bin(BinOp::Add, a, v);
        let m = f.bin_imm(BinOp::And, m, 0xffff);
        f.local_set(acc, m);
    };

    for act in acts {
        match *act {
            Act::Alloc(s) => {
                if bufs.len() < 10 {
                    let size = 8 + (s as u64 % 32) * 8;
                    let b = f.malloc_bytes(size);
                    bufs.push(Buf {
                        var: b,
                        size,
                        heap: true,
                    });
                }
            }
            Act::Stack(s) => {
                if bufs.len() < 10 {
                    let size = 8 + (s as u64 % 16) * 8;
                    let b = f.stack_alloc(size);
                    bufs.push(Buf {
                        var: b,
                        size,
                        heap: false,
                    });
                }
            }
            Act::Store { buf, frac, val } => {
                let b = bufs[buf as usize % bufs.len()];
                let v = f.konst(val as i64);
                f.store(v, b.var, slot_offset(b.size, frac), Width::U64);
            }
            Act::Load { buf, frac } => {
                let b = bufs[buf as usize % bufs.len()];
                let v = f.load(b.var, slot_offset(b.size, frac), Width::U64);
                mix(&mut f, acc, v);
            }
            Act::GepStore { buf, frac, val } => {
                let b = bufs[buf as usize % bufs.len()];
                let o = f.konst(slot_offset(b.size, frac));
                let p = f.gep(b.var, o);
                let v = f.konst(val as i64);
                f.store(v, p, 0, Width::U64);
            }
            Act::LoopFill { buf, val } => {
                let b = bufs[buf as usize % bufs.len()];
                let slots = (b.size / 8) as i64;
                count_loop(&mut f, slots, |f, iv| {
                    let off = f.bin_imm(BinOp::Sll, iv, 3);
                    let slot = f.gep(b.var, off);
                    let v = f.bin_imm(BinOp::Add, iv, val as i64);
                    f.store(v, slot, 0, Width::U64);
                });
            }
            Act::LoopSum { buf } => {
                let b = bufs[buf as usize % bufs.len()];
                let slots = (b.size / 8) as i64;
                count_loop(&mut f, slots, |f, iv| {
                    let off = f.bin_imm(BinOp::Sll, iv, 3);
                    let slot = f.gep(b.var, off);
                    let v = f.load(slot, 0, Width::U64);
                    let a = f.local_get(acc);
                    let s = f.bin(BinOp::Add, a, v);
                    let s = f.bin_imm(BinOp::And, s, 0xffff);
                    f.local_set(acc, s);
                });
            }
            Act::PtrRoundTrip { buf, frac } => {
                let b = bufs[buf as usize % bufs.len()];
                f.store_ptr(b.var, cell, 0);
                let q = f.load_ptr(cell, 0);
                let v = f.load(q, slot_offset(b.size, frac), Width::U64);
                mix(&mut f, acc, v);
            }
            Act::FreeOldest => {
                if let Some(pos) = bufs.iter().position(|b| b.heap) {
                    if bufs.iter().filter(|b| b.heap).count() > 1 {
                        let b = bufs.remove(pos);
                        f.free(b.var);
                    }
                }
            }
            Act::Arith { op, imm } => {
                let a = f.local_get(acc);
                let v = match op % 4 {
                    0 => f.bin_imm(BinOp::Add, a, imm as i64),
                    1 => f.bin_imm(BinOp::Xor, a, imm as i64),
                    2 => f.bin_imm(BinOp::Mul, a, (imm as i64) | 1),
                    _ => f.bin_imm(BinOp::Srl, a, (imm as i64 & 7) + 1),
                };
                let v = f.bin_imm(BinOp::And, v, 0xffff);
                f.local_set(acc, v);
            }
        }
    }
    for b in bufs.iter().filter(|b| b.heap) {
        f.free(b.var);
    }
    f.free(cell);
    let r = f.local_get(acc);
    f.print_u64(r);
    let code = f.bin_imm(BinOp::And, r, 0xff);
    f.ret(Some(code));
    f.finish();
    mb.finish()
}

fn exec(module: &hwst_compiler::ir::Module, opts: CompileOptions, tag: &str) -> (u64, Vec<u8>) {
    let compiled = compile_with_options(module, opts)
        .unwrap_or_else(|e| panic!("{tag} ({}) failed to compile: {e}", opts.scheme));
    let exit = Machine::new(compiled.program, config_for(opts.scheme))
        .run(40_000_000)
        .unwrap_or_else(|t| panic!("{tag} ({}) trapped: {t}", opts.scheme));
    (exit.code, exit.output)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Checks-on, RCE-only and RCE+bounds builds agree on every scheme
    /// that can carry a witness skip. The bounds build runs with the
    /// verifier on, so each witness is also re-validated statically.
    #[test]
    fn bounds_elimination_is_observationally_sound(
        acts in prop::collection::vec(act_strategy(), 1..48)
    ) {
        let module = build(&acts);
        for scheme in [Scheme::Sbcets, Scheme::Hwst128, Scheme::Hwst128Tchk] {
            let plain = exec(&module, CompileOptions::new(scheme), "plain");
            let rce = exec(&module, CompileOptions::new(scheme).with_rce(), "rce");
            let full = exec(
                &module,
                CompileOptions::new(scheme).with_rce().with_bounds().with_verify(),
                "rce+bounds",
            );
            prop_assert_eq!(&plain, &rce, "rce diverged under {}\nacts: {:?}", scheme, acts);
            prop_assert_eq!(&plain, &full, "bounds diverged under {}\nacts: {:?}", scheme, acts);
        }
    }

    /// The four zoo schemes (RV-CURE, L4 Pointer, CryptSan, HeapSafe)
    /// never panic the compiler, verifier or machine on generator
    /// programs, and each preserves the benign observable behaviour.
    /// `exec` panics on any compile error or trap, so the proptest
    /// harness doubles as the no-panic gate.
    #[test]
    fn zoo_schemes_are_panic_free_and_transparent(
        acts in prop::collection::vec(act_strategy(), 1..48)
    ) {
        let module = build(&acts);
        let base = exec(&module, CompileOptions::new(Scheme::None), "baseline");
        for scheme in Scheme::ZOO {
            let plain = exec(&module, CompileOptions::new(scheme), "zoo");
            let verified = exec(
                &module,
                CompileOptions::new(scheme).with_rce().with_verify(),
                "zoo rce+verify",
            );
            prop_assert_eq!(&base, &plain, "{} diverged\nacts: {:?}", scheme, acts);
            prop_assert_eq!(&base, &verified, "{} rce diverged\nacts: {:?}", scheme, acts);
        }
    }

    /// Every witness the analysis emits survives its own arithmetic
    /// re-check: the claimed byte interval must fit the object. This is
    /// the same predicate `verify` and `binval` enforce; here it is
    /// applied to the raw analysis output before any pass consumes it.
    #[test]
    fn every_witness_is_arithmetically_valid(
        acts in prop::collection::vec(act_strategy(), 1..48)
    ) {
        let module = build(&acts);
        let outcome = bounds::analyze(&module);
        for w in &outcome.witnesses {
            prop_assert!(
                w.arithmetic_ok(),
                "witness {} b{}/i{} claims [{}, {}) of a {}-byte object",
                w.func, w.block, w.inst, w.lo, w.hi, w.size
            );
        }
    }
}

/// The generator must actually exercise the pass: on a module made of
/// loop fills and sums the analysis proves sites, and the proofs
/// translate into strictly fewer static checks than RCE alone.
#[test]
fn generator_produces_provable_sites() {
    let acts = vec![
        Act::Stack(12),
        Act::LoopFill { buf: 1, val: 3 },
        Act::LoopSum { buf: 1 },
        Act::Store {
            buf: 0,
            frac: 2,
            val: 9,
        },
        Act::Load { buf: 0, frac: 2 },
    ];
    let module = build(&acts);
    let outcome = bounds::analyze(&module);
    assert!(
        outcome.stats.proven >= 4,
        "expected the loop and constant sites proven, got {:?}",
        outcome.stats
    );
    let rce_only =
        compile_with_options(&module, CompileOptions::new(Scheme::Hwst128Tchk).with_rce())
            .expect("rce build");
    let full = compile_with_options(
        &module,
        CompileOptions::new(Scheme::Hwst128Tchk)
            .with_rce()
            .with_bounds()
            .with_verify(),
    )
    .expect("bounds build");
    assert!(
        full.check_count < rce_only.check_count,
        "bounds must beat RCE alone: {} vs {}",
        full.check_count,
        rce_only.check_count
    );
    assert_eq!(full.skips.len(), outcome.stats.proven);
}
