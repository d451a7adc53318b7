//! End-to-end: IR → instrument → lower → simulate, across all schemes.

use hwst_compiler::instrument::config_for;
use hwst_compiler::{
    compile, compile_with_options, ir::BinOp, ir::Width, CompileOptions, ModuleBuilder, Scheme,
};
use hwst_sim::{Machine, Trap};

fn run_scheme(
    module: &hwst_compiler::ir::Module,
    scheme: Scheme,
) -> Result<hwst_sim::ExitStatus, Trap> {
    let prog = compile(module, scheme).expect("compiles");
    Machine::new(prog, config_for(scheme)).run(50_000_000)
}

/// Sums an array through a heap pointer: a well-behaved program every
/// scheme must agree on.
fn array_sum_module(n: i64) -> hwst_compiler::ir::Module {
    let mut mb = ModuleBuilder::new();
    let mut f = mb.func("main");
    let head = f.new_block();
    let body = f.new_block();
    let sum_head = f.new_block();
    let sum_body = f.new_block();
    let done = f.new_block();

    let size = f.konst(n * 8);
    let arr = f.malloc(size);
    let idx_slot = f.stack_alloc(8);
    let sum_slot = f.stack_alloc(8);
    let zero = f.konst(0);
    f.store(zero, idx_slot, 0, Width::U64);
    f.store(zero, sum_slot, 0, Width::U64);
    f.jmp(head);

    // head: while (i != n)
    f.switch_to(head);
    let i = f.load(idx_slot, 0, Width::U64);
    let c = f.bin_imm(BinOp::Sltu, i, n);
    f.br(c, body, sum_head);

    // body: arr[i] = i * 3; i += 1
    f.switch_to(body);
    let i2 = f.load(idx_slot, 0, Width::U64);
    let off = f.bin_imm(BinOp::Sll, i2, 3);
    let slot = f.gep(arr, off);
    let v = f.bin_imm(BinOp::Mul, i2, 3);
    f.store(v, slot, 0, Width::U64);
    let i3 = f.bin_imm(BinOp::Add, i2, 1);
    f.store(i3, idx_slot, 0, Width::U64);
    f.jmp(head);

    // sum_head: reset i, loop again summing
    f.switch_to(sum_head);
    let z = f.konst(0);
    f.store(z, idx_slot, 0, Width::U64);
    f.jmp(sum_body);

    f.switch_to(sum_body);
    let i4 = f.load(idx_slot, 0, Width::U64);
    let c2 = f.bin_imm(BinOp::Sltu, i4, n);
    let cont = f.new_block();
    f.br(c2, cont, done);
    f.switch_to(cont);
    let off2 = f.bin_imm(BinOp::Sll, i4, 3);
    let slot2 = f.gep(arr, off2);
    let v2 = f.load(slot2, 0, Width::U64);
    let s = f.load(sum_slot, 0, Width::U64);
    let s2 = f.bin(BinOp::Add, s, v2);
    f.store(s2, sum_slot, 0, Width::U64);
    let i5 = f.bin_imm(BinOp::Add, i4, 1);
    f.store(i5, idx_slot, 0, Width::U64);
    f.jmp(sum_body);

    // done: free and return sum
    f.switch_to(done);
    f.free(arr);
    let result = f.load(sum_slot, 0, Width::U64);
    f.ret(Some(result));
    f.finish();
    mb.finish()
}

#[test]
fn all_schemes_agree_on_a_correct_program() {
    let m = array_sum_module(20);
    let expected = (0..20).map(|i| i * 3).sum::<u64>();
    for scheme in Scheme::ALL {
        let exit = run_scheme(&m, scheme).unwrap_or_else(|t| panic!("{scheme} trapped: {t}"));
        assert_eq!(exit.code, expected, "{scheme} computed a wrong sum");
    }
}

#[test]
fn cycle_ordering_matches_fig4() {
    let m = array_sum_module(64);
    let mut cycles = std::collections::HashMap::new();
    for scheme in Scheme::ALL {
        let exit = run_scheme(&m, scheme).unwrap();
        cycles.insert(scheme.label(), exit.stats.total_cycles());
    }
    let base = cycles["baseline"];
    let tchk = cycles["HWST128_tchk"];
    let hwst = cycles["HWST128"];
    let sb = cycles["SBCETS"];
    assert!(base < tchk, "tchk must cost something: {base} vs {tchk}");
    assert!(
        tchk < hwst,
        "software key check must cost more: {tchk} vs {hwst}"
    );
    assert!(
        hwst < sb,
        "full software checks must cost the most: {hwst} vs {sb}"
    );
}

/// A heap overflow: every *protecting* scheme must trap, the baseline
/// must not.
fn overflow_module() -> hwst_compiler::ir::Module {
    let mut mb = ModuleBuilder::new();
    let mut f = mb.func("main");
    let p = f.malloc_bytes(64);
    let v = f.konst(0x41);
    f.store(v, p, 64, Width::U64); // one past the end
    f.free(p);
    f.ret(None);
    f.finish();
    mb.finish()
}

#[test]
fn overflow_detected_by_protecting_schemes() {
    let m = overflow_module();
    assert!(run_scheme(&m, Scheme::None).is_ok());
    for scheme in [Scheme::Sbcets, Scheme::Hwst128, Scheme::Hwst128Tchk] {
        match run_scheme(&m, scheme) {
            Err(Trap::SpatialViolation { .. }) => {}
            other => panic!("{scheme}: expected spatial violation, got {other:?}"),
        }
    }
}

/// Use-after-free through a dangling pointer.
fn uaf_module() -> hwst_compiler::ir::Module {
    let mut mb = ModuleBuilder::new();
    let mut f = mb.func("main");
    let p = f.malloc_bytes(64);
    let v = f.konst(7);
    f.store(v, p, 0, Width::U64);
    f.free(p);
    let r = f.load(p, 0, Width::U64); // dangling
    f.ret(Some(r));
    f.finish();
    mb.finish()
}

#[test]
fn use_after_free_detected_by_protecting_schemes() {
    let m = uaf_module();
    assert!(run_scheme(&m, Scheme::None).is_ok());
    for scheme in [Scheme::Sbcets, Scheme::Hwst128, Scheme::Hwst128Tchk] {
        match run_scheme(&m, scheme) {
            Err(Trap::TemporalViolation { .. }) => {}
            other => panic!("{scheme}: expected temporal violation, got {other:?}"),
        }
    }
}

/// Double free: the CETS pre-free check must catch the second free.
#[test]
fn double_free_detected() {
    let mut mb = ModuleBuilder::new();
    let mut f = mb.func("main");
    let p = f.malloc_bytes(32);
    f.free(p);
    f.free(p);
    f.ret(None);
    f.finish();
    let m = mb.finish();
    for scheme in [Scheme::Sbcets, Scheme::Hwst128, Scheme::Hwst128Tchk] {
        match run_scheme(&m, scheme) {
            Err(Trap::TemporalViolation { .. }) => {}
            other => panic!("{scheme}: expected temporal violation, got {other:?}"),
        }
    }
}

/// Use-after-return: a callee leaks a frame pointer; dereferencing it
/// after return must trap temporally.
#[test]
fn use_after_return_detected() {
    let mut mb = ModuleBuilder::new();
    // leak() stores &local into a global and returns.
    let cell = mb.global("cell", 8);
    let mut f = mb.func("leak");
    let local = f.stack_alloc(16);
    let v = f.konst(9);
    f.store(v, local, 0, Width::U64);
    let g = f.addr_of_global(cell);
    f.store_ptr(local, g, 0);
    f.ret(None);
    f.finish();
    let mut f = mb.func("main");
    f.call_void("leak", &[]);
    let g = f.addr_of_global(cell);
    let dangling = f.load_ptr(g, 0);
    let r = f.load(dangling, 0, Width::U64);
    f.ret(Some(r));
    f.finish();
    let m = mb.finish();
    assert!(run_scheme(&m, Scheme::None).is_ok());
    for scheme in [Scheme::Sbcets, Scheme::Hwst128, Scheme::Hwst128Tchk] {
        match run_scheme(&m, scheme) {
            Err(Trap::TemporalViolation { .. }) => {}
            other => panic!("{scheme}: expected temporal violation, got {other:?}"),
        }
    }
}

/// Pointer args keep their metadata across calls.
#[test]
fn callee_checks_caller_pointer() {
    let mut mb = ModuleBuilder::new();
    let mut f = mb.func("write_at");
    let p = f.param(true);
    let off = f.param(false);
    let slot = f.gep(p, off);
    let v = f.konst(1);
    f.store(v, slot, 0, Width::U64);
    f.ret(None);
    f.finish();
    let mut f = mb.func("main");
    let p = f.malloc_bytes(64);
    let ok_off = f.konst(56);
    f.call_void("write_at", &[p, ok_off]);
    let bad_off = f.konst(64);
    f.call_void("write_at", &[p, bad_off]);
    f.ret(None);
    f.finish();
    let m = mb.finish();
    assert!(run_scheme(&m, Scheme::None).is_ok());
    for scheme in [Scheme::Sbcets, Scheme::Hwst128, Scheme::Hwst128Tchk] {
        match run_scheme(&m, scheme) {
            Err(Trap::SpatialViolation { .. }) => {}
            other => panic!("{scheme}: expected spatial violation, got {other:?}"),
        }
    }
}

/// Through-memory propagation: metadata survives a pointer's round trip
/// through a global container.
#[test]
fn pointer_round_trip_through_memory_keeps_bounds() {
    let mut mb = ModuleBuilder::new();
    let cell = mb.global("cell", 8);
    let mut f = mb.func("main");
    let p = f.malloc_bytes(32);
    let g = f.addr_of_global(cell);
    f.store_ptr(p, g, 0);
    let q = f.load_ptr(g, 0);
    let v = f.konst(5);
    f.store(v, q, 32, Width::U64); // out of bounds through the reloaded ptr
    f.ret(None);
    f.finish();
    let m = mb.finish();
    for scheme in [Scheme::Sbcets, Scheme::Hwst128, Scheme::Hwst128Tchk] {
        match run_scheme(&m, scheme) {
            Err(Trap::SpatialViolation { .. }) => {}
            other => panic!("{scheme}: expected spatial violation, got {other:?}"),
        }
    }
}

#[test]
fn output_is_identical_across_schemes() {
    let mut mb = ModuleBuilder::new();
    let mut f = mb.func("main");
    let p = f.malloc_bytes(8);
    let v = f.konst(0x68); // 'h'
    f.store(v, p, 0, Width::U64);
    let r = f.load(p, 0, Width::U64);
    f.putchar(r);
    let n = f.konst(1234);
    f.print_u64(n);
    f.free(p);
    f.ret(None);
    f.finish();
    let m = mb.finish();
    let mut outputs = Vec::new();
    for scheme in Scheme::ALL {
        outputs.push(run_scheme(&m, scheme).unwrap().output_string());
    }
    assert_eq!(outputs[0], "h1234\n");
    assert!(outputs.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn compiled_plan_reports_per_function_sizes() {
    let mut mb = ModuleBuilder::new();
    let mut f = mb.func("helper");
    let v = f.konst(1);
    f.ret(Some(v));
    f.finish();
    let mut f = mb.func("main");
    let r = f.call("helper", &[]);
    f.ret(Some(r));
    f.finish();
    let m = mb.finish();
    let c = compile_with_options(&m, CompileOptions::new(Scheme::None)).unwrap();
    assert_eq!(c.plan.funcs.len(), 2);
    let by_name: std::collections::HashMap<_, _> = c
        .plan
        .funcs
        .iter()
        .map(|f| (f.name.as_str(), f.len))
        .collect();
    assert!(by_name["helper"] > 0 && by_name["main"] > 0);
    // Shim + functions account for the whole program.
    assert!(by_name["helper"] + by_name["main"] < c.program.len());
}

#[test]
fn instrumented_code_size_ordering() {
    // tchk's single-instruction temporal check must make the complete-
    // protection binary smaller than the software-key-check variant.
    let m = uaf_module();
    let size = |s: Scheme| compile(&m, s).unwrap().len();
    assert!(size(Scheme::None) < size(Scheme::Shore));
    assert!(size(Scheme::Shore) < size(Scheme::Hwst128Tchk));
    assert!(size(Scheme::Hwst128Tchk) < size(Scheme::Hwst128));
}

/// HeapSafe leaves stack pointers unbound, but their home slots still
/// get the all-zero shadow word; left unwritten, a slot keeps whatever
/// bounds an earlier callee's frame stored at that address, and reading
/// the stack buffer traps. `g`'s frame grows one variable pair at a
/// time, so some of these sizes line its buffer pointer's home slot up
/// with one of `h`'s twelve heap-pointer slots.
#[test]
fn heapsafe_stack_pointer_never_inherits_a_dead_frames_bounds() {
    for pad in 40..72 {
        let mut mb = ModuleBuilder::new();
        let mut f = mb.func("h");
        for _ in 0..12 {
            let p = f.malloc_bytes(16);
            let v = f.konst(7);
            f.store(v, p, 0, Width::U64);
        }
        f.ret(None);
        f.finish();
        let mut f = mb.func("g");
        let s = f.stack_alloc(64);
        for _ in 0..pad {
            let k = f.konst(1);
            let _ = f.bin_imm(BinOp::Add, k, 1);
        }
        let o = f.konst(40);
        let q = f.gep(s, o);
        let v = f.konst(5);
        f.store(v, q, 0, Width::U64);
        let x = f.load(q, 0, Width::U64);
        f.ret(Some(x));
        f.finish();
        let mut f = mb.func("main");
        f.call_void("h", &[]);
        let r = f.call("g", &[]);
        f.ret(Some(r));
        f.finish();
        let exit = run_scheme(&mb.finish(), Scheme::HeapSafe)
            .unwrap_or_else(|t| panic!("g with {pad} padding pairs: {t}"));
        assert_eq!(exit.code, 5);
    }
}
