//! Workspace-level integration: the whole stack (workloads → compiler →
//! simulator → pipeline statistics) composed through the public facade.

use hwst128::compiler::Scheme;
use hwst128::prelude::*;
use hwst128::{config_for, run_scheme};

#[test]
fn representative_workloads_agree_and_order_correctly() {
    for name in ["sha", "treeadd", "hmmer"] {
        let wl = Workload::by_name(name).expect("known workload");
        let module = wl.module(Scale::Test);
        let mut cycles = Vec::new();
        let mut codes = Vec::new();
        for scheme in Scheme::ALL {
            let exit = run_scheme(&module, CompileOptions::new(scheme), wl.fuel(Scale::Test))
                .unwrap_or_else(|e| panic!("{name}/{scheme}: {e}"));
            cycles.push(exit.stats.total_cycles());
            codes.push(exit.code);
        }
        assert!(codes.windows(2).all(|w| w[0] == w[1]), "{name} diverges");
        assert!(
            cycles[0] < cycles[3] && cycles[3] < cycles[2] && cycles[2] < cycles[1],
            "{name}: ordering baseline < tchk < hwst < sbcets violated: {cycles:?}"
        );
    }
}

#[test]
fn keybuffer_hit_rate_is_high_on_loops() {
    // Temporal checks in loops hit the keybuffer nearly always — that is
    // the entire mechanism behind the paper's tchk gains.
    let wl = Workload::by_name("bzip2").unwrap();
    let prog = hwst128::compiler::compile(&wl.module(Scale::Test), Scheme::Hwst128Tchk).unwrap();
    let mut m = Machine::new(prog, SafetyConfig::default());
    let exit = m.run(wl.fuel(Scale::Test)).unwrap();
    let s = exit.stats;
    let rate = s.keybuffer_hits as f64 / (s.keybuffer_hits + s.keybuffer_misses) as f64;
    assert!(rate > 0.9, "keybuffer hit rate only {rate:.3}");
}

#[test]
fn compression_config_flows_through_the_csrs() {
    // A machine configured with the embedded layout must reject objects
    // the SPEC layout accepts — the CSR really governs the hardware.
    let mut mb = ModuleBuilder::new();
    let mut f = mb.func("main");
    // 128 MiB object: fits 29-bit range (SPEC), exceeds 23-bit (embedded).
    let p = f.malloc_bytes(100 << 20);
    let v = f.konst(1);
    f.store(v, p, 0, Width::U64);
    f.ret(None);
    f.finish();
    let module = mb.finish();
    let prog = hwst128::compiler::compile(&module, Scheme::Hwst128Tchk).unwrap();

    // A layout with a heap big enough for the 100 MiB object.
    let big_heap = hwst128::mem::MemoryLayout {
        heap_size: 0x0800_0000,
        stack_top: 0x0a00_0000,
        lock_region_base: 0x0b00_0000,
        ..Default::default()
    };
    let spec_cfg = SafetyConfig {
        layout: big_heap,
        ..SafetyConfig::default()
    };
    // SPEC layout: runs (the store is in bounds).
    assert!(Machine::new(prog.clone(), spec_cfg).run(1_000_000).is_ok());

    // Embedded layout: the bndrs cannot represent a 100 MiB object.
    let emb_cfg = SafetyConfig {
        compression: CompressionConfig::EMBEDDED,
        layout: big_heap,
        ..SafetyConfig::default()
    };
    match Machine::new(prog, emb_cfg).run(1_000_000) {
        Err(Trap::Environment { what, .. }) => {
            assert!(what.contains("not representable"));
        }
        other => panic!("expected a compression fault, got {other:?}"),
    }
}

#[test]
fn disarming_checks_via_csr_suppresses_traps() {
    use hwst128::isa::csr;
    // A program that turns the spatial check off via the status CSR and
    // then violates bounds: the hardware must stay silent.
    let mut mb = ModuleBuilder::new();
    let mut f = mb.func("main");
    let p = f.malloc_bytes(16);
    let v = f.konst(1);
    f.store(v, p, 64, Width::U64); // would trap if armed
    f.ret(None);
    f.finish();
    let module = mb.finish();
    let mut instrs = hwst128::compiler::compile(&module, Scheme::Hwst128Tchk)
        .unwrap()
        .instrs()
        .to_vec();
    // Prepend: csrrw zero, hwst.status, zero (disarm everything).
    instrs.insert(
        0,
        Instr::Csr {
            op: hwst128::isa::CsrOp::Rw,
            rd: Reg::Zero,
            rs1: Reg::Zero,
            csr: csr::HWST_STATUS,
        },
    );
    let layout = hwst128::mem::MemoryLayout::default();
    let prog = Program::from_instrs(layout.text_base, instrs);
    let mut m = Machine::new(prog, SafetyConfig::default());
    assert!(m.run(1_000_000).is_ok(), "disarmed core must not trap");
}

#[test]
fn config_for_covers_every_scheme() {
    for scheme in Scheme::ALL {
        let cfg = config_for(scheme);
        assert_eq!(cfg.spatial, scheme.uses_hardware());
        assert_eq!(
            cfg.keybuffer,
            scheme == Scheme::Hwst128Tchk,
            "only full HWST128 uses the keybuffer"
        );
    }
}

#[test]
fn deterministic_replay() {
    // Same program + config => bit-identical statistics (the whole stack
    // is deterministic; figure regeneration depends on it).
    let wl = Workload::by_name("FFT").unwrap();
    let module = wl.module(Scale::Test);
    let a = run_scheme(
        &module,
        CompileOptions::new(Scheme::Hwst128Tchk),
        wl.fuel(Scale::Test),
    )
    .unwrap();
    let b = run_scheme(
        &module,
        CompileOptions::new(Scheme::Hwst128Tchk),
        wl.fuel(Scale::Test),
    )
    .unwrap();
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.output, b.output);
}
