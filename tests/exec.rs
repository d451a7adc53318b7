//! The fast-vs-reference gate over the tier-1 kernels at `-O0`, and
//! the committed X1 artifact (`BENCH_exec.json`). Every `-O0` cell of
//! each kernel goes through the one check in `common`: the fast engine
//! must be bit-identical to the reference interpreter (the same run
//! result, full `CycleStats` included, and the same final
//! `Observation`), the image must validate, and the verdict must be
//! the baseline's. The `-O1` cells run in `optdiff.rs`; all 23 kernels
//! run through every cell in `differential.rs`'s heavy gate.

mod common;

use common::{check_kernels, tier1_kernels};
use hwst128::compiler::OptLevel;
use hwst128::workloads::all;

/// Tier-1: every `-O0` cell of the tier-1 kernels.
#[test]
fn fast_engine_bit_identical_on_smoke_subset() {
    check_kernels(tier1_kernels(), |o| o.opt == OptLevel::O0);
}

/// The committed `BENCH_exec.json` artifact (the full-scale X1 run) must
/// parse, be schema-stable, and be self-consistent: `host.geomean_speedup`
/// must equal the geometric mean of `host.rows[].speedup`, recomputed
/// the way the driver computes it. Host timings vary, so no speedup
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
    let names: Vec<&str> = sim_rows
        .iter()
        .filter_map(|r| r.get("name").and_then(Json::as_str))
        .collect();
    let expect: Vec<&str> = all().iter().map(|wl| wl.name).collect();
    assert_eq!(names, expect, "one row per workload, in Fig. 4 order");
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
    let logsum: f64 = host_rows
        .iter()
        .filter_map(|row| row.get("speedup").and_then(Json::as_f64))
        .map(f64::ln)
        .sum();
    assert_eq!(
        geomean,
        (logsum / host_rows.len() as f64).exp(),
        "geomean_speedup must be the geometric mean of the row speedups"
    );
}
