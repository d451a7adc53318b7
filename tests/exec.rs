//! The fast-vs-reference differential-correctness gate: for every
//! workload × scheme, the decoded-block fast engine must be
//! **bit-identical** to the reference interpreter (`Machine::run`) —
//! the same exit status (code, output, full `CycleStats`) and the same
//! final `Observation` (PC, all 32 registers and SRF entries, every
//! nonzero memory word, named counters, D-cache and keybuffer
//! hit/miss behaviour).
//!
//! The cross-suite smoke subset runs in tier-1; the full 23-workload ×
//! 5-scheme sweep rides the `--ignored` CI heavy gate.

use hwst128::compiler::{compile, Scheme};
use hwst128::config_for;
use hwst128::exec::{run_fast, BlockCache};
use hwst128::sim::Machine;
use hwst128::workloads::{Scale, Workload};

/// Every instrumentation scheme the compiler accepts, including the
/// SHORE baseline — "all schemes" in the acceptance sense.
const SCHEMES: [Scheme; 5] = [
    Scheme::None,
    Scheme::Sbcets,
    Scheme::Hwst128,
    Scheme::Hwst128Tchk,
    Scheme::Shore,
];

/// The tier-1 cross-suite subset (one representative per suite family).
const SMOKE: [&str; 6] = ["string", "math", "FFT", "treeadd", "health", "bzip2"];

/// Runs `wl` under `scheme` on both engines and asserts bit-identity of
/// the run result and the complete observable final state.
fn assert_engines_identical(wl: &Workload, scheme: Scheme) {
    let ctx = format!("{}/{}", wl.name, scheme.label());
    let module = wl.module(Scale::Test);
    let prog = match compile(&module, scheme) {
        Ok(p) => p,
        Err(e) => panic!("{ctx}: compile failed: {e}"),
    };
    let fuel = wl.fuel(Scale::Test);
    let cfg = config_for(scheme);

    let mut cycle = Machine::new(prog.clone(), cfg);
    let cycle_result = cycle.run(fuel);

    let mut fast = Machine::new(prog, cfg);
    let fast_result = run_fast(&mut fast, fuel, &mut BlockCache::new());

    // Same outcome: exit (code, output, full CycleStats) or trap.
    assert_eq!(cycle_result, fast_result, "{ctx}: run results diverged");
    // Same final observable state.
    if let Some(d) = cycle.observe().first_difference(&fast.observe()) {
        panic!("{ctx}: {d}");
    }
}

/// Tier-1: the cross-suite subset × every scheme is bit-identical.
#[test]
fn fast_engine_bit_identical_on_smoke_subset() {
    for name in SMOKE {
        let wl = Workload::by_name(name).unwrap();
        for scheme in SCHEMES {
            assert_engines_identical(&wl, scheme);
        }
    }
}

/// Full acceptance: all 23 workloads × all 5 schemes. Heavier (the
/// reference runs every pair too), so it rides the CI heavy gate.
#[test]
#[ignore = "full sweep; run via the CI heavy gates"]
fn fast_engine_bit_identical_on_full_suite() {
    for wl in hwst128::workloads::all() {
        for scheme in SCHEMES {
            assert_engines_identical(&wl, scheme);
        }
    }
}

/// The committed `BENCH_exec.json` artifact (the full-scale X1 run) must
/// parse, be schema-stable, and report the 10× target honestly:
/// `host.meets_target` must equal the recorded geomean actually
/// clearing `host.target_speedup`. Host timings vary, so no speedup
/// floor is asserted — only structure and self-consistency.
#[test]
fn emitted_bench_exec_artifact_is_valid() {
    use hwst_harness::Json;
    let text = std::fs::read_to_string("BENCH_exec.json").expect("committed artifact");
    let doc = Json::parse(&text).expect("BENCH_exec.json parses");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("hwst-bench/exec")
    );
    let rows = |payload: &str| {
        doc.get(payload)
            .and_then(|p| p.get("rows"))
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("{payload}.rows"))
    };
    let (sim_rows, host_rows) = (rows("sim"), rows("host"));
    assert!(!sim_rows.is_empty(), "at least the smoke subset");
    assert_eq!(sim_rows.len(), host_rows.len(), "one timing per row");
    for (sim_row, host_row) in sim_rows.iter().zip(host_rows) {
        let name = sim_row
            .get("name")
            .and_then(Json::as_str)
            .expect("row name");
        assert_eq!(host_row.get("name").and_then(Json::as_str), Some(name));
        for (row, key) in [
            (sim_row, "instret"),
            (host_row, "cycle_ips"),
            (host_row, "fast_ips"),
            (host_row, "speedup"),
        ] {
            let v = row
                .get(key)
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("{name}: {key} missing"));
            assert!(v > 0.0, "{name}: {key} must be positive, got {v}");
        }
    }
    let host = doc.get("host").expect("host payload");
    let geomean = host
        .get("geomean_speedup")
        .and_then(Json::as_f64)
        .expect("geomean_speedup");
    let target = host
        .get("target_speedup")
        .and_then(Json::as_f64)
        .expect("target_speedup");
    assert_eq!(
        host.get("meets_target"),
        Some(&Json::Bool(geomean >= target)),
        "meets_target must report the geomean honestly"
    );
}
