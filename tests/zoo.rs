//! Z1/Z2 gates (comparative detector zoo): every zoo scheme must be
//! observationally benign on the full workload suite, and the
//! committed `BENCH_zoo.json` artifact (the full sweep) must be
//! schema-valid, self-consistent and carry a monotone coverage ×
//! overhead frontier.

use hwst128::compiler::{CompileOptions, Scheme};
use hwst128::workloads::{all, Scale};
use hwst_harness::Json;
use hwst_zoo::Design;

/// Each zoo scheme preserves the exit code *and* the program output of
/// every workload — instrumentation must be invisible to benign runs.
#[test]
fn zoo_schemes_preserve_exit_status_on_all_workloads() {
    for wl in all() {
        let module = wl.module(Scale::Test);
        let fuel = wl.fuel(Scale::Test);
        let base = hwst128::run_scheme(&module, CompileOptions::new(Scheme::None), fuel)
            .unwrap_or_else(|e| panic!("{} (baseline): {e}", wl.name));
        for scheme in Scheme::ZOO {
            let got = hwst128::run_scheme(&module, CompileOptions::new(scheme), fuel)
                .unwrap_or_else(|e| panic!("{} ({scheme}): {e}", wl.name));
            assert_eq!(
                got.code, base.code,
                "{}: {scheme} changed the exit code",
                wl.name
            );
            assert_eq!(
                got.output, base.output,
                "{}: {scheme} changed the program output",
                wl.name
            );
        }
    }
}

fn field<'a>(obj: &'a Json, key: &str) -> &'a Json {
    obj.get(key)
        .unwrap_or_else(|| panic!("missing field `{key}` in {obj}"))
}

fn num(obj: &Json, key: &str) -> f64 {
    field(obj, key)
        .as_f64()
        .unwrap_or_else(|| panic!("field `{key}` is not numeric"))
}

/// Validates the committed `BENCH_zoo.json`: schema, per-design columns
/// (overhead, model, coverage, fault injection), band containment, one
/// row per workload, gate verdict, and frontier
/// consistency/monotonicity.
#[test]
fn bench_zoo_artifact_is_valid_and_frontier_is_monotone() {
    let text = std::fs::read_to_string("BENCH_zoo.json").expect("committed artifact");
    let envelope = Json::parse(&text).expect("BENCH_zoo.json parses");
    assert_eq!(
        envelope.get("schema").and_then(Json::as_str),
        Some("hwst-bench/zoo")
    );
    assert_eq!(envelope.get("version").and_then(Json::as_i64), Some(2));
    assert_eq!(envelope.get("scale").and_then(Json::as_str), Some("Test"));
    let doc = field(&envelope, "sim");
    assert_eq!(doc.get("gate").and_then(Json::as_str), Some("pass"));
    assert_eq!(
        field(doc, "violations").as_arr().map(<[Json]>::len),
        Some(0)
    );
    assert_eq!(field(doc, "failed").as_arr().map(<[Json]>::len), Some(0));

    let designs = field(doc, "designs").as_arr().expect("designs array");
    assert_eq!(designs.len(), Design::ALL.len(), "all eight designs");
    for (d, design) in designs.iter().zip(Design::ALL) {
        assert_eq!(d.get("name").and_then(Json::as_str), Some(design.label()));
        let oh = num(d, "overhead_geomean_pct");
        if let Some((lo, hi)) = design.band() {
            assert!(oh > 0.0, "{design}: instrumented overhead must be positive");
            assert!(
                (lo..=hi).contains(&oh),
                "{design}: overhead {oh:.1}% outside band [{lo}, {hi}]"
            );
        } else {
            assert_eq!(oh, 0.0, "baseline overhead is identically zero");
        }
        if design.zoo_cost().is_some() {
            let model = num(d, "model_overhead_geomean_pct");
            let ratio = (1.0 + model / 100.0) / (1.0 + oh / 100.0);
            assert!(
                (0.8..=1.25).contains(&ratio),
                "{design}: model {model:.1}% vs measured {oh:.1}%"
            );
        }
        let cov = field(d, "coverage");
        assert_eq!(cov.get("total_cases").and_then(Json::as_i64), Some(8366));
        assert_eq!(
            cov.get("sample_agree"),
            Some(&Json::Bool(true)),
            "{design}: executed sample must agree with the model"
        );
        let inject = field(d, "inject");
        let applied: f64 = ["detected", "masked", "silent", "machine_fault"]
            .iter()
            .map(|k| num(inject, k))
            .sum();
        assert!(
            applied > 0.0 || num(inject, "not_applied") > 0.0,
            "{design}: empty fault campaign"
        );
    }

    let rows = field(doc, "rows").as_arr().expect("rows array");
    let names: Vec<&str> = rows
        .iter()
        .filter_map(|r| r.get("name").and_then(Json::as_str))
        .collect();
    let expect: Vec<&str> = all().iter().map(|wl| wl.name).collect();
    assert_eq!(names, expect, "one row per workload, in Fig. 4 order");
    for r in rows {
        let oh = field(r, "overhead_pct");
        for design in Design::INSTRUMENTED {
            assert!(
                num(oh, design.label()).is_finite(),
                "row {:?} lacks {design}",
                r.get("name")
            );
        }
        let mp = field(r, "model_pct");
        for design in Design::ZOO {
            assert!(num(mp, design.label()).is_finite());
        }
    }

    // Frontier consistency: recompute Pareto domination from the rows
    // and require the flags and the frontier listing to match, with
    // coverage strictly increasing along increasing overhead.
    let points: Vec<(f64, f64, bool, &str)> = designs
        .iter()
        .map(|d| {
            (
                num(d, "overhead_geomean_pct"),
                num(field(d, "coverage"), "coverage_pct"),
                d.get("on_frontier") == Some(&Json::Bool(true)),
                d.get("name").and_then(Json::as_str).unwrap_or_default(),
            )
        })
        .collect();
    let mut frontier: Vec<(f64, f64, &str)> = Vec::new();
    for (i, &(oh, cov, flagged, name)) in points.iter().enumerate() {
        let dominated = points.iter().enumerate().any(|(j, &(qoh, qcov, _, _))| {
            j != i && qoh <= oh && qcov >= cov && (qoh < oh || qcov > cov)
        });
        assert_eq!(!dominated, flagged, "{name}: on_frontier flag is wrong");
        if flagged {
            frontier.push((oh, cov, name));
        }
    }
    frontier.sort_by(|a, b| a.0.total_cmp(&b.0));
    for pair in frontier.windows(2) {
        assert!(
            pair[0].1 < pair[1].1,
            "frontier not monotone: {} ({:.2}%) then {} ({:.2}%)",
            pair[0].2,
            pair[0].1,
            pair[1].2,
            pair[1].1
        );
    }
    let listed: Vec<&str> = field(doc, "frontier")
        .as_arr()
        .expect("frontier array")
        .iter()
        .filter_map(Json::as_str)
        .collect();
    let expect: Vec<&str> = frontier.iter().map(|&(_, _, n)| n).collect();
    assert_eq!(listed, expect, "frontier listing must match the flags");
}
