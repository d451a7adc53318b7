//! Differential property test: randomly generated *well-formed* pointer
//! programs must (a) never trap under any scheme — no false positives —
//! and (b) produce identical outputs and exit codes across all four
//! schemes — instrumentation must be semantically transparent.

use hwst_compiler::instrument::config_for;
use hwst_compiler::ir::{BinOp, Width};
use hwst_compiler::{compile, FuncBuilder, ModuleBuilder, Scheme};
use hwst_sim::Machine;
use proptest::prelude::*;

/// One generated program action. All indices are taken modulo the live
/// state at build time, so any sequence is well-formed by construction.
#[derive(Debug, Clone)]
enum Act {
    /// Allocate a buffer of 8..=256 bytes.
    Alloc(u8),
    /// Store `val` at a fraction of a live buffer's size.
    Store { buf: u8, frac: u8, val: i8 },
    /// Load from a fraction of a live buffer and mix into the
    /// accumulator.
    Load { buf: u8, frac: u8 },
    /// Derived pointer: gep into a buffer, then store through it.
    GepStore { buf: u8, frac: u8, val: i8 },
    /// Round-trip a pointer through memory, then use it.
    PtrRoundTrip { buf: u8, frac: u8 },
    /// Pass a pointer to the helper, which writes through it.
    CallPoke { buf: u8, frac: u8 },
    /// Free the oldest live buffer (if more than one remains).
    FreeOldest,
    /// Pure arithmetic on the accumulator.
    Arith { op: u8, imm: i16 },
}

fn act_strategy() -> impl Strategy<Value = Act> {
    prop_oneof![
        (any::<u8>()).prop_map(Act::Alloc),
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
        (any::<u8>(), any::<u8>()).prop_map(|(buf, frac)| Act::PtrRoundTrip { buf, frac }),
        (any::<u8>(), any::<u8>()).prop_map(|(buf, frac)| Act::CallPoke { buf, frac }),
        Just(Act::FreeOldest),
        (any::<u8>(), any::<i16>()).prop_map(|(op, imm)| Act::Arith { op, imm }),
    ]
}

/// In-bounds 8-byte-slot offset for a buffer of `size` bytes.
fn slot_offset(size: u64, frac: u8) -> i64 {
    let slots = size / 8;
    ((frac as u64 % slots) * 8) as i64
}

fn build(acts: &[Act]) -> hwst_compiler::ir::Module {
    let mut mb = ModuleBuilder::new();

    // poke(ptr, off): *(ptr+off) ^= 0x5a
    let mut f = mb.func("poke");
    let p = f.param(true);
    let off = f.param(false);
    let slot = f.gep(p, off);
    let v = f.load(slot, 0, Width::U64);
    let x = f.bin_imm(BinOp::Xor, v, 0x5a);
    f.store(x, slot, 0, Width::U64);
    f.ret(None);
    f.finish();

    let mut f = mb.func("main");
    let acc = f.local();
    let z = f.konst(0);
    f.local_set(acc, z);
    // The pointer round-trip cell.
    let cell = f.malloc_bytes(8);

    // Live buffers: (VarId, size). Start with one so indices resolve.
    let first = f.malloc_bytes(64);
    let mut bufs: Vec<(hwst_compiler::ir::VarId, u64)> = vec![(first, 64)];

    let mix = |f: &mut FuncBuilder<'_>, acc, v| {
        let a = f.local_get(acc);
        let m = f.bin(BinOp::Add, a, v);
        let m = f.bin_imm(BinOp::And, m, 0xffff);
        f.local_set(acc, m);
    };

    for act in acts {
        match *act {
            Act::Alloc(s) => {
                if bufs.len() < 12 {
                    let size = 8 + (s as u64 % 32) * 8;
                    let b = f.malloc_bytes(size);
                    bufs.push((b, size));
                }
            }
            Act::Store { buf, frac, val } => {
                let (b, size) = bufs[buf as usize % bufs.len()];
                let v = f.konst(val as i64);
                f.store(v, b, slot_offset(size, frac), Width::U64);
            }
            Act::Load { buf, frac } => {
                let (b, size) = bufs[buf as usize % bufs.len()];
                let v = f.load(b, slot_offset(size, frac), Width::U64);
                mix(&mut f, acc, v);
            }
            Act::GepStore { buf, frac, val } => {
                let (b, size) = bufs[buf as usize % bufs.len()];
                let o = f.konst(slot_offset(size, frac));
                let p = f.gep(b, o);
                let v = f.konst(val as i64);
                f.store(v, p, 0, Width::U64);
            }
            Act::PtrRoundTrip { buf, frac } => {
                let (b, size) = bufs[buf as usize % bufs.len()];
                f.store_ptr(b, cell, 0);
                let q = f.load_ptr(cell, 0);
                let v = f.load(q, slot_offset(size, frac), Width::U64);
                mix(&mut f, acc, v);
            }
            Act::CallPoke { buf, frac } => {
                let (b, size) = bufs[buf as usize % bufs.len()];
                let o = f.konst(slot_offset(size, frac));
                f.call_void("poke", &[b, o]);
            }
            Act::FreeOldest => {
                if bufs.len() > 1 {
                    let (b, _) = bufs.remove(0);
                    f.free(b);
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
    for (b, _) in bufs {
        f.free(b);
    }
    f.free(cell);
    let r = f.local_get(acc);
    f.print_u64(r);
    let code = f.bin_imm(BinOp::And, r, 0xff);
    f.ret(Some(code));
    f.finish();
    mb.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn schemes_are_semantically_transparent(
        acts in prop::collection::vec(act_strategy(), 1..60)
    ) {
        let module = build(&acts);
        let mut results = Vec::new();
        for scheme in Scheme::EVERY {
            let prog = compile(&module, scheme).expect("compiles");
            let exit = Machine::new(prog, config_for(scheme))
                .run(20_000_000)
                .unwrap_or_else(|t| {
                    panic!("false positive under {scheme}: {t}\nacts: {acts:?}")
                });
            results.push((scheme.label(), exit.code, exit.output));
        }
        for w in results.windows(2) {
            prop_assert_eq!(
                (&w[0].1, &w[0].2),
                (&w[1].1, &w[1].2),
                "{} and {} disagree",
                w[0].0,
                w[1].0
            );
        }
    }
}
