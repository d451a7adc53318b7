//! Quickstart: build a tiny pointer program, compile it with full
//! HWST128 protection, run it on the simulated core, and watch the
//! hardware catch an out-of-bounds write.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use hwst128::prelude::*;

fn main() {
    // 1. Write a program against the pointer-aware IR (what the LLVM
    //    front-end produces in the paper's toolchain).
    let mut mb = ModuleBuilder::new();
    let mut f = mb.func("main");

    // p = malloc(64); fill p[0..8]; sum it back.
    let p = f.malloc_bytes(64);
    for i in 0..8i64 {
        let v = f.konst(i * i);
        f.store(v, p, i * 8, Width::U64);
    }
    let acc = f.local();
    let zero = f.konst(0);
    f.local_set(acc, zero);
    for i in 0..8i64 {
        let v = f.load(p, i * 8, Width::U64);
        let a = f.local_get(acc);
        let s = f.bin(BinOp::Add, a, v);
        f.local_set(acc, s);
    }
    let sum = f.local_get(acc);
    f.print_u64(sum);
    f.free(p);
    f.ret(Some(sum));
    f.finish();
    let module = mb.finish();

    // 2. Compile for each scheme and compare cycle costs (Fig. 4's
    //    methodology in miniature).
    println!("{:<14} {:>10} {:>10}", "scheme", "cycles", "overhead");
    let mut baseline = 0u64;
    for scheme in Scheme::ALL {
        let exit = hwst128::run_scheme(&module, CompileOptions::new(scheme), 10_000_000)
            .expect("program is well-behaved");
        let cycles = exit.stats.total_cycles();
        if scheme == Scheme::None {
            baseline = cycles;
        }
        println!(
            "{:<14} {:>10} {:>9.1}%",
            scheme.label(),
            cycles,
            (cycles as f64 / baseline as f64 - 1.0) * 100.0
        );
        assert_eq!(exit.output_string(), "140\n", "all schemes agree");
    }

    // 3. Now the same program with a bug: write one element too far.
    let mut mb = ModuleBuilder::new();
    let mut f = mb.func("main");
    let p = f.malloc_bytes(64);
    let v = f.konst(0x41);
    f.store(v, p, 64, Width::U64); // out of bounds!
    f.free(p);
    f.ret(None);
    f.finish();
    let buggy = mb.finish();

    println!();
    match hwst128::run_scheme(&buggy, CompileOptions::new(Scheme::Hwst128Tchk), 10_000_000) {
        Err(e) => println!("HWST128 caught the bug: {e}"),
        Ok(_) => unreachable!("the bounded store must trap"),
    }
    match hwst128::run_scheme(&buggy, CompileOptions::new(Scheme::None), 10_000_000) {
        Ok(_) => println!("...which the unprotected core silently corrupts"),
        Err(e) => unreachable!("baseline must not trap: {e}"),
    }
}
