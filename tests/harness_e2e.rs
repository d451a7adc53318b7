//! End-to-end gates for the `hwst-harness` experiment subsystem
//! (ISSUE 3 acceptance): the parallel fig4 sweep must be
//! indistinguishable from the serial one, failures must stay
//! structured, and the committed `BENCH_fig4.json` must parse and carry
//! the exact serial geomean.

use hwst128::compiler::OptLevel;
use hwst128::workloads::{all, Scale, Workload};
use hwst_bench::runs::workload_jobs;
use hwst_bench::summary::fig4_sim;
use hwst_bench::{fig4_geomean, try_fig4_row, Fig4Row};
use hwst_harness::{collect_ok, run, Job, JobOutcome, Json};

fn assert_rows_identical(serial: &[Fig4Row], parallel: &[Fig4Row]) {
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(parallel) {
        assert_eq!(s.name, p.name, "row order must match the serial sweep");
        assert_eq!(s.suite, p.suite);
        assert_eq!(s.baseline_cycles, p.baseline_cycles);
        // Bit-exact: the same f64 computations on the same cycle
        // counts, regardless of worker count.
        assert_eq!(s.overhead_pct, p.overhead_pct, "{}", s.name);
    }
}

/// A representative cross-suite subset through a 4-worker pool:
/// identical rows, ordering, and geomean vs serial. (The harness's own
/// tests cover 1 vs {2, 4, 16} workers on synthetic jobs; the full
/// 23-workload sweep runs below.)
#[test]
fn fig4_subset_parallel_identical_to_serial() {
    let names = ["string", "math", "treeadd", "health", "bzip2", "lbm"];
    let serial: Vec<Fig4Row> = names
        .iter()
        .map(|n| try_fig4_row(&Workload::by_name(n).unwrap(), Scale::Test, OptLevel::O0).unwrap())
        .collect();
    let jobs: Vec<Job<Fig4Row>> = names
        .iter()
        .map(|n| {
            let wl = Workload::by_name(n).unwrap();
            Job::new(format!("fig4/{n}"), move || {
                try_fig4_row(&wl, Scale::Test, OptLevel::O0)
            })
        })
        .collect();
    let results = run(jobs, 4);
    let (rows, failed) = collect_ok(results);
    assert!(failed.is_empty(), "{failed:?}");
    assert_rows_identical(&serial, &rows);
    assert_eq!(fig4_geomean(&serial), fig4_geomean(&rows));
}

/// The full 23-workload Fig. 4 sweep (ISSUE 3 acceptance): `--jobs 4`
/// produces results identical to the serial run. Formerly an
/// `--ignored` heavy gate; the decoded-block fast engine (which
/// `run_scheme` uses under `try_fig4_row`) makes the full sweep cheap
/// enough to run in tier-1.
#[test]
fn fig4_full_sweep_parallel_identical_to_serial() {
    let serial = hwst_bench::fig4_rows(Scale::Test);
    let jobs = workload_jobs("fig4", all(), |wl| {
        try_fig4_row(wl, Scale::Test, OptLevel::O0)
    });
    let (rows, failed) = collect_ok(run(jobs, 4));
    assert!(failed.is_empty(), "{failed:?}");
    assert_rows_identical(&serial, &rows);
    assert_eq!(fig4_geomean(&serial), fig4_geomean(&rows));
}

/// A sweep containing a panicking and a failing job still yields every
/// good row, with the bad jobs as structured failures in stable
/// positions — no process abort.
#[test]
fn sweep_survives_panicking_and_failing_jobs() {
    let good = Workload::by_name("math").unwrap();
    let jobs: Vec<Job<Fig4Row>> = vec![
        Job::new("fig4/math", move || {
            try_fig4_row(&good, Scale::Test, OptLevel::O0)
        }),
        Job::new("fig4/poisoned", || panic!("injected panic")),
        Job::new("fig4/broken", || Err("injected failure".to_string())),
        Job::new("fig4/math-again", move || {
            try_fig4_row(&good, Scale::Test, OptLevel::O0)
        }),
    ];
    let results = run(jobs, 4);
    assert_eq!(results.len(), 4);
    assert!(matches!(results[0].outcome, JobOutcome::Ok(_)));
    assert_eq!(
        results[1].outcome,
        JobOutcome::Panicked("injected panic".into())
    );
    assert_eq!(
        results[2].outcome,
        JobOutcome::Failed("injected failure".into())
    );
    let (rows, failed) = collect_ok(results);
    assert_eq!(rows.len(), 2);
    assert_eq!(failed.len(), 2);
    assert_eq!(rows[0].overhead_pct, rows[1].overhead_pct);
}

/// The `sim` payload parses and carries the exact geomean of the rows
/// it was built from.
#[test]
fn fig4_json_summary_round_trips() {
    let names = ["math", "bzip2"];
    let jobs: Vec<Job<Fig4Row>> = names
        .iter()
        .map(|n| {
            let wl = Workload::by_name(n).unwrap();
            Job::new(format!("fig4/{n}"), move || {
                try_fig4_row(&wl, Scale::Test, OptLevel::O0)
            })
        })
        .collect();
    let results = run(jobs, 2);
    let (rows, _) = collect_ok(results);
    let g = fig4_geomean(&rows);
    let parsed = Json::parse(&fig4_sim(&rows, &[], &g).to_string()).expect("payload parses");
    for (key, want) in [("sbcets", g[0]), ("hwst128", g[1]), ("hwst128_tchk", g[2])] {
        let got = parsed
            .get("geomean")
            .and_then(|o| o.get(key))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("geomean.{key} missing"));
        assert_eq!(got, want, "geomean.{key} must round-trip exactly");
    }
}

/// The committed `BENCH_fig4.json` (`hwst-bench fig4`) must parse and
/// agree with a freshly computed serial geomean.
#[test]
fn emitted_bench_fig4_artifact_matches_serial_geomean() {
    let text = std::fs::read_to_string("BENCH_fig4.json").expect("committed artifact");
    let doc = Json::parse(&text).expect("BENCH_fig4.json parses");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("hwst-bench/fig4")
    );
    assert_eq!(doc.get("scale").and_then(Json::as_str), Some("Test"));
    let sim = doc.get("sim").expect("sim payload");
    let rows = sim.get("rows").and_then(Json::as_arr).expect("rows");
    assert_eq!(rows.len(), 23, "full Fig. 4 table");
    let serial = hwst_bench::fig4_rows(Scale::Test);
    let g = fig4_geomean(&serial);
    let got = sim
        .get("geomean")
        .and_then(|o| o.get("sbcets"))
        .and_then(Json::as_f64)
        .expect("geomean.sbcets");
    assert_eq!(got, g[0], "artifact geomean must equal the serial geomean");
}
