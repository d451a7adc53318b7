//! The benchmark's own smoke test: a tiny run of each workload prints
//! every metric `BENCHMARK.json` names, with its unit, and fails
//! nothing; a different seed changes no simulated or static count.

use std::process::Command;

use hwst_harness::Json;

const WORKLOADS: [&str; 3] = ["sweep", "juliet", "validate"];

/// Runs the smoke sizing and returns the final JSON line.
fn run(workload: &str, seed: u64, trace: bool) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "0.2",
            "--trace",
            if trace { "1" } else { "0" },
            "--smoke",
        ])
        .output()
        .expect("perfbench starts");
    assert!(out.status.success(), "{workload}: exit {}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().expect("some output");
    Json::parse(last).unwrap_or_else(|e| panic!("{workload}: last line is not JSON ({e}): {last}"))
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Json::as_arr)
        .expect("section is a list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect("string field");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

fn metric(doc: &Json, name: &str) -> f64 {
    doc.get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

#[test]
fn every_workload_reports_every_declared_metric_and_fails_nothing() {
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let want = declared(section);
        for w in WORKLOADS {
            let doc = run(w, 1, trace);
            assert_eq!(doc.get("correct"), Some(&Json::Bool(true)), "{w}");
            assert_eq!(doc.get("failed").and_then(Json::as_i64), Some(0), "{w}");
            assert!(doc.get("attempted").and_then(Json::as_i64) > Some(0), "{w}");
            let Some(Json::Obj(metrics)) = doc.get("metrics") else {
                panic!("{w}: no metrics object");
            };
            let got: Vec<(String, String)> = metrics
                .iter()
                .map(|(n, m)| {
                    let unit = m.get("unit").and_then(Json::as_str).expect("unit");
                    (n.clone(), unit.to_string())
                })
                .collect();
            assert_eq!(
                got, want,
                "{w} (trace {trace}): metrics differ from {section}"
            );
        }
    }
}

#[test]
fn another_seed_changes_no_count() {
    let counts: Vec<String> = declared("per_layer")
        .into_iter()
        .map(|(n, _)| n)
        .filter(|n| {
            n.starts_with("pipeline.")
                || n.starts_with("compiler.static")
                || n.starts_with("exec.decoded")
                || n.starts_with("exec.block")
                || n.starts_with("binval.mutants")
                || n.starts_with("binval.killed")
                || n == "compiler.checks_elided"
                || n == "sim.loads"
        })
        .collect();
    assert!(counts.len() >= 10);
    for w in WORKLOADS {
        let (a, b) = (run(w, 1, true), run(w, 2, true));
        for n in &counts {
            assert_eq!(metric(&a, n), metric(&b, n), "{w}: {n} moved with the seed");
        }
    }
}
