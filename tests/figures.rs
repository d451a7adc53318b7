//! Reproduction gates: every table and figure of the paper must come out
//! with the right *shape* — who wins, by roughly what factor, and where
//! the crossovers fall (absolute cycle counts are substrate-specific;
//! see EXPERIMENTS.md for the recorded values).

use hwst128::compiler::OptLevel;
use hwst128::hwcost::hwst128_report;
use hwst128::juliet::model_coverage;
use hwst128::workloads::{all, Scale, Workload};
use hwst_bench::{fig4_geomean, fig5_geomean, fig5_rows, try_fig4_row};

/// Fig. 4 (E1): the three-scheme overhead ordering on every kernel
/// (so each instrumented run costs more cycles than the baseline), and
/// rough magnitudes.
#[test]
fn fig4_shape_holds() {
    let rows: Vec<_> = all()
        .iter()
        .map(|wl| try_fig4_row(wl, Scale::Test, OptLevel::O0).unwrap())
        .collect();
    for r in &rows {
        assert!(
            r.overhead_pct[0] > r.overhead_pct[1]
                && r.overhead_pct[1] > r.overhead_pct[2]
                && r.overhead_pct[2] > 0.0,
            "{}: SBCETS > HWST128 > HWST128_tchk violated: {:?}",
            r.name,
            r.overhead_pct
        );
    }
    let g = fig4_geomean(&rows);
    // Paper geomeans: 441% / 153% / 95%. The substrate shifts absolutes;
    // the gates check the factors that carry the paper's claims.
    assert!(g[0] > 150.0, "SBCETS geomean too low: {:.1}%", g[0]);
    assert!(
        g[0] / g[1] > 2.0,
        "hardware metadata must cut software overhead by >2x: {g:?}"
    );
    assert!(
        g[1] / g[2] > 1.5,
        "tchk+keybuffer must cut the remaining overhead sharply: {g:?}"
    );
    // Temporal-heavy workloads are the HWST128 standouts (paper: bzip2
    // 7.98x, hmmer 7.78x vs suite mean 3.74x).
    let speedup = |name: &str| {
        let r = rows.iter().find(|r| r.name == name).unwrap();
        (100.0 + r.overhead_pct[0]) / (100.0 + r.overhead_pct[2])
    };
    let mean: f64 = (rows
        .iter()
        .map(|r| ((100.0 + r.overhead_pct[0]) / (100.0 + r.overhead_pct[2])).ln())
        .sum::<f64>()
        / rows.len() as f64)
        .exp();
    assert!(
        speedup("bzip2") > mean && speedup("hmmer") > mean,
        "bzip2/hmmer must beat the mean speedup: {:.2}/{:.2} vs {:.2}",
        speedup("bzip2"),
        speedup("hmmer"),
        mean
    );
}

/// Fig. 5 (E2): comparator ordering and geomean bands.
#[test]
fn fig5_shape_holds() {
    let rows = fig5_rows(Scale::Test);
    assert_eq!(rows.len(), 7, "all seven SPEC workloads");
    for r in &rows {
        assert!(
            r.speedup[0] < r.speedup[1]
                && r.speedup[1] < r.speedup[2]
                && r.speedup[2] < r.speedup[3],
            "{}: BOGO < WDLn < WDLw < HWST128 violated: {:?}",
            r.name,
            r.speedup
        );
        assert!(r.speedup[0] > 1.0, "{}: BOGO must beat software", r.name);
    }
    let g = fig5_geomean(&rows);
    // Paper: 1.31 / 1.58 / 1.64 / 3.74.
    assert!((g[0] - 1.31).abs() < 0.15, "BOGO geomean {:.2}", g[0]);
    assert!((g[1] - 1.58).abs() < 0.15, "WDL narrow geomean {:.2}", g[1]);
    assert!((g[2] - 1.64).abs() < 0.20, "WDL wide geomean {:.2}", g[2]);
    assert!(g[3] > 2.5, "HWST128 geomean {:.2} must be well clear", g[3]);
    // bzip2 is the HWST128 standout in Fig. 5 too.
    let bzip = rows.iter().find(|r| r.name == "bzip2").unwrap();
    assert!(
        bzip.speedup[3] >= g[3],
        "bzip2 ({:.2}x) must be at or above the geomean ({:.2}x)",
        bzip.speedup[3],
        g[3]
    );
}

/// Fig. 6 (E3): coverage totals, ASAN's CWE690 blindness, and the CWE122
/// delta — on the full modelled suite (the measured variant is validated
/// sample-wise in `hwst-juliet` and in full by `hwst-bench fig6`).
#[test]
fn fig6_shape_holds() {
    let r = model_coverage();
    assert_eq!(r.total("GCC"), 937);
    assert_eq!(r.total("SBCETS"), 5395);
    assert_eq!(r.total("HWST128"), 5323);
    assert!((r.coverage("ASAN") - 0.5808).abs() < 0.002);
    // Ordering: SBCETS > HWST128 > ASAN > GCC (paper Fig. 6).
    assert!(r.total("SBCETS") > r.total("HWST128"));
    assert!(r.total("HWST128") > r.total("ASAN"));
    assert!(r.total("ASAN") > r.total("GCC"));
    // ASAN: zero CWE690.
    assert_eq!(r.count("ASAN", hwst128::juliet::Cwe::Cwe690), 0);
}

/// §5.3 (E4): the hardware-cost table is exact at the published
/// configuration.
#[test]
fn hwcost_matches_paper() {
    let r = hwst128_report(1);
    assert_eq!(r.delta().luts, 1536);
    assert_eq!(r.delta().ffs, 112);
    assert!((r.lut_overhead_pct() - 4.11).abs() < 0.02);
    assert!((r.ff_overhead_pct() - 0.66).abs() < 0.02);
    assert!((r.critical_path_base_ns - 5.26).abs() < 1e-9);
    assert!((r.critical_path_ns - 6.45).abs() < 0.01);
}

/// Overhead ratios are scale-stable: the Bench-scale run must land close
/// to the Test-scale run (the EXPERIMENTS.md claim). Both sides run on
/// the decoded-block fast engine (bit-identical to the reference
/// interpreter by the `hwst-exec` differential contract), which makes
/// the Bench-scale sweep affordable in the CI heavy-gates job — it
/// rides the workspace `--ignored` sweep there.
#[test]
#[ignore = "Bench-scale simulation; runs in the CI heavy gates via --ignored"]
fn fig4_overheads_are_scale_stable() {
    for name in ["sha", "treeadd", "bzip2"] {
        let wl = Workload::by_name(name).unwrap();
        let small = try_fig4_row(&wl, Scale::Test, OptLevel::O0).unwrap();
        let big = try_fig4_row(&wl, Scale::Bench, OptLevel::O0).unwrap();
        for k in 0..3 {
            let a = 1.0 + small.overhead_pct[k] / 100.0;
            let b = 1.0 + big.overhead_pct[k] / 100.0;
            let ratio = a / b;
            assert!(
                (0.8..1.25).contains(&ratio),
                "{name} col {k}: {:.1}% (Test) vs {:.1}% (Bench)",
                small.overhead_pct[k],
                big.overhead_pct[k]
            );
        }
    }
}
