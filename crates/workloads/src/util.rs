//! IR-construction helpers shared by the workload kernels.

use hwst_compiler::ir::{BinOp, VarId, Width};
use hwst_compiler::FuncBuilder;

/// Emits `for i in start..end { body(f, i) }` using an uninstrumented
/// local slot for the counter (loop counters are plain C locals, which
/// SoftBoundCETS does not instrument).
pub fn for_range(
    f: &mut FuncBuilder<'_>,
    start: i64,
    end: i64,
    body: impl FnOnce(&mut FuncBuilder<'_>, VarId),
) {
    let i = f.local();
    let s = f.konst(start);
    f.local_set(i, s);
    let head = f.new_block();
    let body_b = f.new_block();
    let done = f.new_block();
    f.jmp(head);

    f.switch_to(head);
    let iv = f.local_get(i);
    let e = f.konst(end);
    let c = f.bin(BinOp::Slt, iv, e);
    f.br(c, body_b, done);

    f.switch_to(body_b);
    let iv2 = f.local_get(i);
    body(f, iv2);
    let iv3 = f.local_get(i);
    let next = f.bin_imm(BinOp::Add, iv3, 1);
    f.local_set(i, next);
    f.jmp(head);

    f.switch_to(done);
}

/// Emits `while cond(f) != 0 { body(f) }`.
pub fn while_loop(
    f: &mut FuncBuilder<'_>,
    cond: impl FnOnce(&mut FuncBuilder<'_>) -> VarId,
    body: impl FnOnce(&mut FuncBuilder<'_>),
) {
    let head = f.new_block();
    let body_b = f.new_block();
    let done = f.new_block();
    f.jmp(head);
    f.switch_to(head);
    let c = cond(f);
    f.br(c, body_b, done);
    f.switch_to(body_b);
    body(f);
    f.jmp(head);
    f.switch_to(done);
}

/// Emits `if cond != 0 { then(f) }`, continuing afterwards.
pub fn if_then(f: &mut FuncBuilder<'_>, cond: VarId, then: impl FnOnce(&mut FuncBuilder<'_>)) {
    let then_b = f.new_block();
    let done = f.new_block();
    f.br(cond, then_b, done);
    f.switch_to(then_b);
    then(f);
    f.jmp(done);
    f.switch_to(done);
}

/// Emits `if cond != 0 { then(f) } else { els(f) }`.
pub fn if_else(
    f: &mut FuncBuilder<'_>,
    cond: VarId,
    then: impl FnOnce(&mut FuncBuilder<'_>),
    els: impl FnOnce(&mut FuncBuilder<'_>),
) {
    let then_b = f.new_block();
    let else_b = f.new_block();
    let done = f.new_block();
    f.br(cond, then_b, else_b);
    f.switch_to(then_b);
    then(f);
    f.jmp(done);
    f.switch_to(else_b);
    els(f);
    f.jmp(done);
    f.switch_to(done);
}

/// Steps a deterministic LCG held in `state`: returns the next
/// pseudo-random value in `[0, 2^31)`.
pub fn lcg_next(f: &mut FuncBuilder<'_>, state: VarId) -> VarId {
    let a = f.konst(1103515245);
    let t = f.bin(BinOp::Mul, state, a);
    let t = f.bin_imm(BinOp::Add, t, 12345);
    f.bin_imm(BinOp::And, t, 0x7fff_ffff)
}

/// Fills `n` 64-bit slots of heap array `arr` with LCG values seeded by
/// `seed`, returning nothing. Dereferences are real pointer stores.
pub fn fill_array(f: &mut FuncBuilder<'_>, arr: VarId, n: i64, seed: i64) {
    let x = f.local();
    let s = f.konst(seed);
    f.local_set(x, s);
    for_range(f, 0, n, |f, i| {
        let cur = f.local_get(x);
        let nxt = lcg_next(f, cur);
        f.local_set(x, nxt);
        let off = f.bin_imm(BinOp::Sll, i, 3);
        let slot = f.gep(arr, off);
        f.store(nxt, slot, 0, Width::U64);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwst_compiler::instrument::config_for;
    use hwst_compiler::{compile, ModuleBuilder, Scheme};
    use hwst_sim::Machine;

    fn run_main(build: impl FnOnce(&mut FuncBuilder<'_>)) -> u64 {
        let mut mb = ModuleBuilder::new();
        let mut f = mb.func("main");
        build(&mut f);
        f.finish();
        let m = mb.finish();
        let p = compile(&m, Scheme::None).unwrap();
        Machine::new(p, config_for(Scheme::None))
            .run(10_000_000)
            .unwrap()
            .code
    }

    #[test]
    fn for_range_iterates_exactly() {
        let code = run_main(|f| {
            let acc = f.local();
            let z = f.konst(0);
            f.local_set(acc, z);
            for_range(f, 0, 10, |f, i| {
                let a = f.local_get(acc);
                let s = f.bin(BinOp::Add, a, i);
                f.local_set(acc, s);
            });
            let r = f.local_get(acc);
            f.ret(Some(r));
        });
        assert_eq!(code, 45);
    }

    #[test]
    fn nested_for_ranges() {
        let code = run_main(|f| {
            let acc = f.local();
            let z = f.konst(0);
            f.local_set(acc, z);
            for_range(f, 0, 5, |f, _i| {
                for_range(f, 0, 4, |f, _j| {
                    let a = f.local_get(acc);
                    let s = f.bin_imm(BinOp::Add, a, 1);
                    f.local_set(acc, s);
                });
            });
            let r = f.local_get(acc);
            f.ret(Some(r));
        });
        assert_eq!(code, 20);
    }

    #[test]
    fn if_else_branches() {
        let code = run_main(|f| {
            let acc = f.local();
            let z = f.konst(0);
            f.local_set(acc, z);
            for_range(f, 0, 6, |f, i| {
                let odd = f.bin_imm(BinOp::And, i, 1);
                if_else(
                    f,
                    odd,
                    |f| {
                        let a = f.local_get(acc);
                        let s = f.bin_imm(BinOp::Add, a, 10);
                        f.local_set(acc, s);
                    },
                    |f| {
                        let a = f.local_get(acc);
                        let s = f.bin_imm(BinOp::Add, a, 1);
                        f.local_set(acc, s);
                    },
                );
            });
            let r = f.local_get(acc);
            f.ret(Some(r));
        });
        assert_eq!(code, 33); // 3 odd * 10 + 3 even * 1
    }

    #[test]
    fn while_loop_terminates() {
        let code = run_main(|f| {
            let n = f.local();
            let init = f.konst(100);
            f.local_set(n, init);
            while_loop(
                f,
                |f| {
                    let v = f.local_get(n);
                    f.bin_imm(BinOp::Sltu, v, 200)
                },
                |f| {
                    let v = f.local_get(n);
                    let nv = f.bin_imm(BinOp::Add, v, 7);
                    f.local_set(n, nv);
                },
            );
            let r = f.local_get(n);
            f.ret(Some(r));
        });
        assert!((200..207).contains(&code));
    }

    #[test]
    fn fill_array_is_deterministic_and_checked_safe() {
        // The same fill must run identically under the strictest scheme.
        let mut results = Vec::new();
        for scheme in [Scheme::None, Scheme::Hwst128Tchk] {
            let mut mb = ModuleBuilder::new();
            let mut f = mb.func("main");
            let arr = f.malloc_bytes(32 * 8);
            fill_array(&mut f, arr, 32, 42);
            let v = f.load(arr, 31 * 8, Width::U64);
            f.free(arr);
            f.ret(Some(v));
            f.finish();
            let m = mb.finish();
            let p = compile(&m, scheme).unwrap();
            let exit = Machine::new(p, config_for(scheme)).run(10_000_000);
            results.push(exit.unwrap().code);
        }
        assert_eq!(results[0], results[1]);
        assert_ne!(results[0], 0);
    }
}
