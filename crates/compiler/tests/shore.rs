//! The SHORE scheme (spatial-only predecessor): catches every spatial
//! violation, is blind to temporal ones, and costs less than complete
//! protection.

use hwst_compiler::instrument::config_for;
use hwst_compiler::{compile, ir::Width, ModuleBuilder, Scheme};
use hwst_sim::{Machine, Trap};

fn run_shore(module: &hwst_compiler::ir::Module) -> Result<hwst_sim::ExitStatus, Trap> {
    let prog = compile(module, Scheme::Shore).expect("compiles");
    Machine::new(prog, config_for(Scheme::Shore)).run(50_000_000)
}

#[test]
fn shore_detects_spatial_violations() {
    let mut mb = ModuleBuilder::new();
    let mut f = mb.func("main");
    let p = f.malloc_bytes(64);
    let v = f.konst(1);
    f.store(v, p, 64, Width::U64);
    f.ret(None);
    f.finish();
    assert!(matches!(
        run_shore(&mb.finish()),
        Err(Trap::SpatialViolation { .. })
    ));
}

#[test]
fn shore_misses_use_after_free() {
    let mut mb = ModuleBuilder::new();
    let mut f = mb.func("main");
    let p = f.malloc_bytes(64);
    f.free(p);
    let r = f.load(p, 0, Width::U64); // dangling: SHORE cannot see this
    f.ret(Some(r));
    f.finish();
    assert!(run_shore(&mb.finish()).is_ok());
}

#[test]
fn shore_misses_double_free() {
    let mut mb = ModuleBuilder::new();
    let mut f = mb.func("main");
    let p = f.malloc_bytes(32);
    f.free(p);
    f.free(p);
    f.ret(None);
    f.finish();
    assert!(run_shore(&mb.finish()).is_ok());
}

#[test]
fn shore_costs_less_than_complete_protection() {
    // Build a pointer-heavy loop and compare cycles.
    let build = || {
        let mut mb = ModuleBuilder::new();
        let mut f = mb.func("main");
        let p = f.malloc_bytes(256);
        for i in 0..32i64 {
            let v = f.konst(i);
            f.store(v, p, (i % 32) * 8, Width::U64);
            let _ = f.load(p, (i % 32) * 8, Width::U64);
        }
        f.free(p);
        f.ret(None);
        f.finish();
        mb.finish()
    };
    let shore = Machine::new(
        compile(&build(), Scheme::Shore).unwrap(),
        config_for(Scheme::Shore),
    )
    .run(1_000_000)
    .unwrap()
    .stats
    .total_cycles();
    let full = Machine::new(
        compile(&build(), Scheme::Hwst128Tchk).unwrap(),
        config_for(Scheme::Hwst128Tchk),
    )
    .run(1_000_000)
    .unwrap()
    .stats
    .total_cycles();
    let base = Machine::new(
        compile(&build(), Scheme::None).unwrap(),
        config_for(Scheme::None),
    )
    .run(1_000_000)
    .unwrap()
    .stats
    .total_cycles();
    assert!(base < shore, "spatial checks are not free");
    assert!(shore < full, "temporal safety costs more than spatial-only");
}

#[test]
fn shore_agrees_with_baseline_on_correct_programs() {
    let mut mb = ModuleBuilder::new();
    let mut f = mb.func("main");
    let p = f.malloc_bytes(64);
    let mut acc = f.konst(0);
    for i in 0..8i64 {
        let v = f.konst(i * 7);
        f.store(v, p, i * 8, Width::U64);
        let r = f.load(p, i * 8, Width::U64);
        acc = f.bin(hwst_compiler::ir::BinOp::Add, acc, r);
    }
    f.free(p);
    f.ret(Some(acc));
    f.finish();
    let m = mb.finish();
    let shore = run_shore(&m).unwrap();
    let base = Machine::new(compile(&m, Scheme::None).unwrap(), config_for(Scheme::None))
        .run(1_000_000)
        .unwrap();
    assert_eq!(shore.code, base.code);
}
