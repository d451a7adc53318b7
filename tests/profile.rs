//! End-to-end gates for the `hwst-telemetry` observability subsystem
//! (ISSUE 5 acceptance): the profiled run must not perturb execution,
//! attribution must cover ≥95% of cycles under named functions, the
//! parallel P1 sweep must be byte-identical to the serial one on any
//! worker count, and the trace exports must round-trip.

use hwst128::workloads::{all, Scale, Workload};
use hwst_bench::profile::{
    check_profile_parity, profile_mean_fractions, profile_row, try_profile_row, try_profile_trace,
    ProfileRow,
};
use hwst_bench::runs::workload_jobs;
use hwst_bench::summary::profile_sim;
use hwst_harness::{collect_ok, run, Json};

fn assert_rows_identical(serial: &[ProfileRow], parallel: &[ProfileRow]) {
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(parallel) {
        assert_eq!(s, p, "row {} must match the serial sweep exactly", s.name);
    }
}

/// A four-workload P1 sweep (one per suite flavour: string-heavy,
/// arithmetic, pointer-chasing, temporal-heavy) through 1-, 2- and
/// 8-worker pools: identical rows and an identical JSON `rows` subtree,
/// regardless of worker count.
#[test]
fn profile_sweep_identical_on_any_worker_count() {
    let workloads: Vec<Workload> = ["string", "math", "treeadd", "bzip2"]
        .iter()
        .map(|n| Workload::by_name(n).unwrap())
        .collect();
    let serial: Vec<ProfileRow> = workloads
        .iter()
        .map(|wl| profile_row(wl, Scale::Test))
        .collect();
    let mut rows_subtrees = Vec::new();
    for workers in [1usize, 2, 8] {
        let jobs = workload_jobs("profile", workloads.clone(), |wl| {
            try_profile_row(wl, Scale::Test)
        });
        let (rows, failed) = collect_ok(run(jobs, workers));
        assert!(failed.is_empty(), "{failed:?}");
        let doc = profile_sim(&rows, &profile_mean_fractions(&rows));
        let parsed = Json::parse(&doc.to_string()).expect("payload parses");
        rows_subtrees.push(parsed.get("rows").expect("rows subtree").to_string());
        assert_rows_identical(&serial, &rows);
    }
    assert_eq!(rows_subtrees[0], rows_subtrees[1]);
    assert_eq!(rows_subtrees[1], rows_subtrees[2]);
}

/// Attaching the profiler is pure observation: a profiled run produces
/// the exact `ExitStatus` of a plain run, and its profile accounts for
/// every cycle — on a representative cross-suite subset.
#[test]
fn profiling_has_no_observer_effect() {
    for name in ["string", "math", "FFT", "treeadd", "health", "bzip2"] {
        let wl = Workload::by_name(name).unwrap();
        check_profile_parity(&wl, Scale::Test).unwrap_or_else(|e| panic!("{e}"));
    }
}

/// ≥95% of every workload's cycles attribute to named functions (the
/// startup shim is the only unattributed code), on the cross-suite
/// subset; the full 23-workload sweep runs below.
#[test]
fn attribution_covers_named_functions() {
    for name in ["string", "math", "FFT", "treeadd", "health", "bzip2"] {
        let wl = Workload::by_name(name).unwrap();
        let r = profile_row(&wl, Scale::Test);
        assert!(
            r.attributed_fraction >= 0.95,
            "{name}: only {:.2}% attributed",
            r.attributed_fraction * 100.0
        );
        assert!(r.total.check > 0, "{name}: instrumentation must show up");
    }
}

/// Full-sweep acceptance: all 23 workloads profile cleanly. ≥95% of
/// each one's cycles attribute to named functions (the startup shim is
/// the only unattributed code), instrumentation shows up as check
/// cycles and overhead, and the hot-function table is non-empty and
/// never exceeds the run's total. The profiled runs use the reference
/// interpreter and the baseline runs the fast engine, which keeps the
/// full sweep cheap enough for tier-1.
#[test]
fn attribution_covers_named_functions_full_sweep() {
    for wl in hwst128::workloads::all() {
        let r = profile_row(&wl, Scale::Test);
        let name = wl.name;
        assert!(
            r.attributed_fraction >= 0.95,
            "{name}: only {:.2}% attributed",
            r.attributed_fraction * 100.0
        );
        assert!(r.total.check > 0, "{name}: instrumentation must show up");
        assert!(r.overhead_pct() > 0.0, "{name}: {}%", r.overhead_pct());
        assert!(!r.hot.is_empty(), "{name}: empty hot-function table");
        let hot: u64 = r.hot.iter().map(|h| h.cycles.total()).sum();
        assert!(
            hot <= r.total.total(),
            "{name}: hot functions exceed the total"
        );
    }
}

/// The Chrome trace export parses as JSON, carries one thread per
/// track, and the collapsed-stack text is non-empty and matches the
/// `frame;cat count` shape.
#[test]
fn trace_exports_round_trip() {
    let wl = Workload::by_name("treeadd").unwrap();
    let t = try_profile_trace(&wl, Scale::Test).unwrap();
    let parsed = Json::parse(&t.chrome.to_string()).expect("chrome trace parses");
    let events = parsed
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents");
    let metadata = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
        .count();
    assert_eq!(metadata, 5, "one thread_name per track");
    assert!(
        events.len() > metadata,
        "treeadd must emit allocator/stall spans"
    );
    assert!(!t.collapsed.is_empty(), "empty collapsed-stack text");
    for line in t.collapsed.lines() {
        let (stack, count) = line.rsplit_once(' ').expect("`frames count` shape");
        assert!(stack.contains(';'), "{line}");
        count.parse::<u64>().unwrap_or_else(|_| panic!("{line}"));
    }
}

/// The committed `BENCH_profile.json` (`hwst-bench profile`) must parse,
/// be schema-stable and meet the attribution floor on every row.
#[test]
fn emitted_bench_profile_artifact_is_valid() {
    let text = std::fs::read_to_string("BENCH_profile.json").expect("committed artifact");
    let doc = Json::parse(&text).expect("BENCH_profile.json parses");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("hwst-bench/profile")
    );
    assert_eq!(doc.get("scale").and_then(Json::as_str), Some("Test"));
    let rows = doc
        .get("sim")
        .and_then(|sim| sim.get("rows"))
        .and_then(Json::as_arr)
        .expect("sim.rows");
    let names: Vec<&str> = rows
        .iter()
        .filter_map(|r| r.get("name").and_then(Json::as_str))
        .collect();
    let expect: Vec<&str> = all().iter().map(|wl| wl.name).collect();
    assert_eq!(names, expect, "one row per workload, in Fig. 4 order");
    for row in rows {
        let name = row.get("name").and_then(Json::as_str).expect("row name");
        let attr = row
            .get("attributed_pct")
            .and_then(Json::as_f64)
            .expect("attributed_pct");
        assert!(attr >= 95.0, "{name}: only {attr:.2}% attributed");
        let total = row
            .get("total_cycles")
            .and_then(Json::as_f64)
            .expect("total_cycles");
        let parts: f64 = ["base", "check", "shadow", "keybuffer", "runtime"]
            .iter()
            .map(|k| {
                row.get("cycles")
                    .and_then(|c| c.get(k))
                    .and_then(Json::as_f64)
                    .unwrap_or_else(|| panic!("{name}: cycles.{k} missing"))
            })
            .sum();
        assert_eq!(parts, total, "{name}: categories must sum to the total");
    }
    // Cross-check one row against a fresh serial computation.
    let row = rows
        .iter()
        .find(|r| r.get("name").and_then(Json::as_str) == Some("math"))
        .expect("math row");
    let fresh = profile_row(&Workload::by_name("math").unwrap(), Scale::Test);
    assert_eq!(
        row.get("total_cycles").and_then(Json::as_f64),
        Some(fresh.total.total() as f64),
        "artifact must carry the exact serial cycle count"
    );
}

/// The mean-fraction summary line is a true mean of per-row fractions
/// and sums to 1 across categories.
#[test]
fn mean_fractions_partition_unity() {
    let rows: Vec<ProfileRow> = ["math", "treeadd"]
        .iter()
        .map(|n| profile_row(&Workload::by_name(n).unwrap(), Scale::Test))
        .collect();
    let f = profile_mean_fractions(&rows);
    let sum: f64 = f.iter().sum();
    assert!((sum - 1.0).abs() < 1e-9, "{f:?}");
    assert!(f[0] > 0.5, "base work dominates: {f:?}");
}
