//! Schema-stable JSON summaries (`BENCH_*.json`) — the machine-readable
//! output that lets the perf trajectory be tracked across PRs.
//!
//! Schemas are documented in EXPERIMENTS.md ("Machine-readable
//! summaries"); bump [`SCHEMA_VERSION`] on any breaking change. All
//! object keys are emitted in a fixed order so summaries diff cleanly.

use crate::{
    fig4_geomean, fig4_o1_geomean, fig4_o1_geomean_speedup, fig5_geomean, Fig4O1Row, Fig4Row,
    Fig5Row, ResilienceConfig, ResilienceRow,
};
use hwst128::juliet::{CoverageReport, Cwe, Detector};
use hwst128::sim::inject::OutcomeCounts;
use hwst128::workloads::{Scale, Suite};
use hwst_harness::{FailedJob, JobResult, Json};
use hwst_zoo::{
    design_points, frontier_flags, measured_geomeans, model_geomeans, Design, DesignPoint,
    ZooConfig, ZooReport,
};
use std::path::Path;
use std::time::Duration;

/// Version stamp carried by every summary.
pub const SCHEMA_VERSION: i64 = 1;

fn header(schema: &str, scale: Scale, workers: usize) -> Json {
    Json::obj()
        .set("schema", schema)
        .set("version", SCHEMA_VERSION)
        .set("scale", format!("{scale:?}"))
        .set("workers", workers)
}

/// Sum of per-job wall times: what the sweep would have cost serially.
/// Paired with the observed wall clock it demonstrates the measured
/// speedup (`serial_wall / wall`).
fn serial_wall<T>(results: &[JobResult<T>]) -> Duration {
    results.iter().map(|r| r.wall).sum()
}

fn timing(doc: Json, wall: Duration, serial: Duration) -> Json {
    doc.set("wall_ms", wall.as_secs_f64() * 1e3)
        .set("serial_wall_ms", serial.as_secs_f64() * 1e3)
}

fn failures(failed: &[FailedJob]) -> Json {
    Json::Arr(
        failed
            .iter()
            .map(|f| {
                Json::obj()
                    .set("label", f.label.as_str())
                    .set("error", f.error.as_str())
            })
            .collect(),
    )
}

fn overhead_triple(o: &[f64; 3]) -> Json {
    Json::obj()
        .set("sbcets", o[0])
        .set("hwst128", o[1])
        .set("hwst128_tchk", o[2])
}

/// The `BENCH_fig4.json` document.
pub fn fig4_summary(
    scale: Scale,
    workers: usize,
    results: &[JobResult<Fig4Row>],
    wall: Duration,
    failed: &[FailedJob],
) -> Json {
    let rows: Vec<&Fig4Row> = results.iter().filter_map(|r| r.outcome.ok()).collect();
    let owned: Vec<Fig4Row> = rows.iter().map(|r| (*r).clone()).collect();
    let mut suites = Json::obj();
    for suite in [Suite::MiBench, Suite::Olden, Suite::Spec] {
        let sub: Vec<Fig4Row> = owned.iter().filter(|r| r.suite == suite).cloned().collect();
        if !sub.is_empty() {
            suites = suites.set(&suite.to_string(), overhead_triple(&fig4_geomean(&sub)));
        }
    }
    timing(
        header("hwst-bench/fig4", scale, workers),
        wall,
        serial_wall(results),
    )
    .set(
        "rows",
        Json::Arr(
            rows.iter()
                .map(|r| {
                    Json::obj()
                        .set("name", r.name.as_str())
                        .set("suite", r.suite.to_string())
                        .set("baseline_cycles", r.baseline_cycles)
                        .set("overhead_pct", overhead_triple(&r.overhead_pct))
                })
                .collect(),
        ),
    )
    .set("failed", failures(failed))
    .set("geomean", overhead_triple(&fig4_geomean(&owned)))
    .set("suite_geomean", suites)
}

/// The `BENCH_fig4_o1.json` document. `meets_target` reports the
/// geomean baseline speedup against `target_speedup` (1.3×) honestly.
pub fn fig4_o1_summary(
    scale: Scale,
    workers: usize,
    results: &[JobResult<Fig4O1Row>],
    wall: Duration,
    failed: &[FailedJob],
) -> Json {
    let rows: Vec<Fig4O1Row> = results
        .iter()
        .filter_map(|r| r.outcome.ok())
        .cloned()
        .collect();
    let target = 1.3;
    let geomean = fig4_o1_geomean_speedup(&rows);
    timing(
        header("hwst-bench/fig4_o1", scale, workers),
        wall,
        serial_wall(results),
    )
    .set(
        "rows",
        Json::Arr(
            rows.iter()
                .map(|r| {
                    Json::obj()
                        .set("name", r.name.as_str())
                        .set("suite", r.suite.to_string())
                        .set("o0_baseline_cycles", r.o0_baseline_cycles)
                        .set("o1_baseline_cycles", r.o1_baseline_cycles)
                        .set("baseline_speedup", r.baseline_speedup())
                        .set("o0_overhead_pct", overhead_triple(&r.o0_overhead_pct))
                        .set("o1_overhead_pct", overhead_triple(&r.o1_overhead_pct))
                })
                .collect(),
        ),
    )
    .set("failed", failures(failed))
    .set("geomean_baseline_speedup", geomean)
    .set("target_speedup", target)
    .set("meets_target", geomean >= target)
    .set(
        "o0_geomean",
        overhead_triple(&fig4_geomean(
            &rows
                .iter()
                .map(|r| Fig4Row {
                    name: r.name.clone(),
                    suite: r.suite,
                    baseline_cycles: r.o0_baseline_cycles,
                    overhead_pct: r.o0_overhead_pct,
                })
                .collect::<Vec<_>>(),
        )),
    )
    .set("o1_geomean", overhead_triple(&fig4_o1_geomean(&rows)))
}

/// The `BENCH_fig5.json` document.
pub fn fig5_summary(
    scale: Scale,
    workers: usize,
    results: &[JobResult<Fig5Row>],
    wall: Duration,
    failed: &[FailedJob],
) -> Json {
    let speedups = |s: &[f64; 4]| {
        Json::obj()
            .set("bogo", s[0])
            .set("wdl_narrow", s[1])
            .set("wdl_wide", s[2])
            .set("hwst128", s[3])
    };
    let rows: Vec<Fig5Row> = results
        .iter()
        .filter_map(|r| r.outcome.ok())
        .cloned()
        .collect();
    timing(
        header("hwst-bench/fig5", scale, workers),
        wall,
        serial_wall(results),
    )
    .set(
        "rows",
        Json::Arr(
            rows.iter()
                .map(|r| {
                    Json::obj()
                        .set("name", r.name.as_str())
                        .set("speedup", speedups(&r.speedup))
                })
                .collect(),
        ),
    )
    .set("failed", failures(failed))
    .set("geomean", speedups(&fig5_geomean(&rows)))
}

/// The `BENCH_fig6.json` document.
pub fn fig6_summary(
    stride: usize,
    workers: usize,
    report: &CoverageReport,
    wall: Duration,
    failed: &[FailedJob],
) -> Json {
    let detectors = Json::Arr(
        Detector::ALL
            .iter()
            .map(|d| {
                let mut per_cwe = Json::obj();
                for cwe in Cwe::ALL {
                    per_cwe = per_cwe.set(&cwe.to_string(), report.count(d.label(), cwe));
                }
                Json::obj()
                    .set("name", d.label())
                    .set("detected", report.total(d.label()))
                    .set("coverage_pct", report.coverage(d.label()) * 100.0)
                    .set("per_cwe", per_cwe)
            })
            .collect(),
    );
    Json::obj()
        .set("schema", "hwst-bench/fig6")
        .set("version", SCHEMA_VERSION)
        .set("stride", stride)
        .set("workers", workers)
        .set("wall_ms", wall.as_secs_f64() * 1e3)
        .set("total_cases", u64::from(report.total_cases))
        .set("detectors", detectors)
        .set("failed", failures(failed))
}

fn counts(c: &OutcomeCounts) -> Json {
    Json::obj()
        .set("detected", c.detected)
        .set("masked", c.masked)
        .set("silent", c.silent)
        .set("machine_fault", c.machine_fault)
        .set("not_applied", c.not_applied)
        .set("avf", c.silent_fraction())
}

/// The `BENCH_resilience.json` document.
pub fn resilience_summary(
    rc: &ResilienceConfig,
    scale: Scale,
    workers: usize,
    rows: &[ResilienceRow],
    wall: Duration,
    failed: &[FailedJob],
    guarantee_holds: bool,
) -> Json {
    header("hwst-bench/resilience", scale, workers)
        .set("wall_ms", wall.as_secs_f64() * 1e3)
        .set(
            "config",
            Json::obj()
                .set("seeds_per_target", rc.seeds_per_target)
                .set("juliet_per_cwe", u64::from(rc.juliet_per_cwe))
                .set("master_seed", format!("{:#x}", rc.master_seed))
                .set(
                    "workloads",
                    Json::Arr(rc.workloads.iter().map(|w| Json::from(*w)).collect()),
                ),
        )
        .set(
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj()
                            .set("class", r.class.name())
                            .set("workloads", counts(&r.workloads))
                            .set("juliet", counts(&r.juliet))
                    })
                    .collect(),
            ),
        )
        .set("failed", failures(failed))
        .set(
            "guarantee",
            if guarantee_holds { "pass" } else { "violated" },
        )
}

/// The `BENCH_binval.json` document (A9 + the translation-validation
/// gate).
pub fn binval_summary(
    scale: Scale,
    workers: usize,
    seeds_per_scheme: u64,
    opt: hwst128::compiler::OptLevel,
    results: &[JobResult<crate::runs::BinvalRow>],
    wall: Duration,
    failed: &[FailedJob],
) -> Json {
    let rows: Vec<&crate::runs::BinvalRow> =
        results.iter().filter_map(|r| r.outcome.ok()).collect();
    let sum =
        |f: fn(&crate::runs::BinvalRow) -> usize| -> u64 { rows.iter().map(|r| f(r) as u64).sum() };
    timing(
        header("hwst-bench/binval", scale, workers),
        wall,
        serial_wall(results),
    )
    .set(
        "master_seed",
        format!("{:#x}", crate::runs::BINVAL_MASTER_SEED),
    )
    .set("seeds_per_scheme", seeds_per_scheme)
    .set("opt", opt.label())
    .set(
        "rows",
        Json::Arr(
            rows.iter()
                .map(|r| {
                    Json::obj()
                        .set("name", r.name.as_str())
                        .set("scheme", r.scheme.as_str())
                        .set("ir_ok", r.ir_ok)
                        .set("bin_ok", r.bin_ok)
                        .set("static_bugs", r.static_bugs as u64)
                        .set("checked_ops", r.checked_ops as u64)
                        .set("rce_removed", r.rce_removed as u64)
                        .set("discharged_in_bounds", r.discharged_in_bounds as u64)
                        .set("discharged_redundant", r.discharged_redundant as u64)
                        .set("mutation_candidates", r.mutation_candidates as u64)
                        .set("mutants", r.mutants as u64)
                        .set("mutants_killed", r.mutants_killed as u64)
                })
                .collect(),
        ),
    )
    .set("failed", failures(failed))
    .set(
        "a9",
        Json::obj()
            .set("checked_ops", sum(|r| r.checked_ops))
            .set("rce_removed", sum(|r| r.rce_removed))
            .set("binval_discharged", sum(crate::runs::BinvalRow::discharged))
            .set("binval_in_bounds", sum(|r| r.discharged_in_bounds))
            .set("binval_redundant", sum(|r| r.discharged_redundant)),
    )
    .set(
        "mutation",
        Json::obj()
            .set("total", sum(|r| r.mutants))
            .set("killed", sum(|r| r.mutants_killed))
            .set(
                "all_killed",
                rows.iter().all(|r| r.mutants == r.mutants_killed),
            ),
    )
}

fn breakdown(b: &crate::profile::ProfileRow) -> Json {
    cycles_obj(&b.total)
}

fn cycles_obj(b: &hwst128::telemetry::Breakdown) -> Json {
    let mut obj = Json::obj();
    for (cat, cycles) in b.iter() {
        obj = obj.set(cat, cycles);
    }
    obj
}

/// The `BENCH_profile.json` document (experiment P1).
pub fn profile_summary(
    scale: Scale,
    workers: usize,
    results: &[JobResult<crate::profile::ProfileRow>],
    wall: Duration,
    failed: &[FailedJob],
) -> Json {
    let rows: Vec<&crate::profile::ProfileRow> =
        results.iter().filter_map(|r| r.outcome.ok()).collect();
    let owned: Vec<crate::profile::ProfileRow> = rows.iter().map(|r| (*r).clone()).collect();
    let fractions = crate::profile::profile_mean_fractions(&owned);
    let mut mean = Json::obj();
    for (cat, f) in hwst128::telemetry::Breakdown::CATEGORIES
        .iter()
        .zip(fractions)
    {
        mean = mean.set(cat, f);
    }
    timing(
        header("hwst-bench/profile", scale, workers),
        wall,
        serial_wall(results),
    )
    .set(
        "rows",
        Json::Arr(
            rows.iter()
                .map(|r| {
                    Json::obj()
                        .set("name", r.name.as_str())
                        .set("total_cycles", r.total.total())
                        .set("baseline_cycles", r.baseline_cycles)
                        .set("overhead_pct", r.overhead_pct())
                        .set("attributed_pct", r.attributed_fraction * 100.0)
                        .set("cycles", breakdown(r))
                        .set(
                            "hot",
                            Json::Arr(
                                r.hot
                                    .iter()
                                    .map(|h| {
                                        Json::obj()
                                            .set("name", h.name.as_str())
                                            .set("total_cycles", h.cycles.total())
                                            .set("cycles", cycles_obj(&h.cycles))
                                    })
                                    .collect(),
                            ),
                        )
                })
                .collect(),
        ),
    )
    .set("failed", failures(failed))
    .set("mean_fraction", mean)
}

/// The `BENCH_exec.json` document (experiment X1 — fast-engine
/// speedup). Host times vary between machines and runs; `instret` and
/// the divergence-free row set are the deterministic parts.
pub fn exec_summary(
    scale: Scale,
    workers: usize,
    opt: hwst128::compiler::OptLevel,
    results: &[JobResult<crate::exec::ExecRow>],
    wall: Duration,
    failed: &[FailedJob],
) -> Json {
    let rows: Vec<&crate::exec::ExecRow> = results.iter().filter_map(|r| r.outcome.ok()).collect();
    let owned: Vec<crate::exec::ExecRow> = rows.iter().map(|r| (*r).clone()).collect();
    let geomean = crate::exec::exec_geomean(&owned);
    timing(
        header("hwst-bench/exec", scale, workers),
        wall,
        serial_wall(results),
    )
    .set("opt", opt.label())
    .set(
        "rows",
        Json::Arr(
            rows.iter()
                .map(|r| {
                    Json::obj()
                        .set("name", r.name.as_str())
                        .set("suite", r.suite.to_string())
                        .set("instret", r.instret)
                        .set("decoded_blocks", r.decoded_blocks)
                        .set("cycle_ns", r.cycle_ns)
                        .set("fast_ns", r.fast_ns)
                        .set("cycle_ips", r.cycle_ips())
                        .set("fast_ips", r.fast_ips())
                        .set("speedup", r.speedup())
                })
                .collect(),
        ),
    )
    .set("failed", failures(failed))
    .set("geomean_speedup", geomean)
    .set("target_speedup", 10.0)
    .set("meets_target", geomean >= 10.0)
}

/// The `BENCH_boundscheck.json` document (experiment A10).
///
/// `improved` is the number of workloads that executed strictly fewer
/// dynamic `tchk`s with the bounds pass than with RCE alone; `juliet`
/// is the sampled detection gate as `(detected_with_rce,
/// lost_with_bounds)` — the second component must be zero.
pub fn boundscheck_summary(
    scale: Scale,
    workers: usize,
    results: &[JobResult<crate::runs::BoundsRow>],
    wall: Duration,
    failed: &[FailedJob],
    improved: usize,
    juliet: (usize, usize),
) -> Json {
    let rows: Vec<&crate::runs::BoundsRow> =
        results.iter().filter_map(|r| r.outcome.ok()).collect();
    let run_obj = |baseline: u64, r: &crate::runs::BoundsRun| {
        Json::obj()
            .set("static_checks", r.static_checks as u64)
            .set("proven", r.proven as u64)
            .set("cycles", r.cycles)
            .set(
                "overhead_pct",
                100.0 * (r.cycles as f64 - baseline as f64) / baseline.max(1) as f64,
            )
            .set("dynamic_tchks", r.dynamic_tchks)
    };
    let sum =
        |f: fn(&crate::runs::BoundsRow) -> usize| -> u64 { rows.iter().map(|r| f(r) as u64).sum() };
    timing(
        header("hwst-bench/boundscheck", scale, workers),
        wall,
        serial_wall(results),
    )
    .set(
        "rows",
        Json::Arr(
            rows.iter()
                .map(|r| {
                    let mut schemes = Json::obj();
                    for (label, runs) in &r.runs {
                        schemes = schemes.set(
                            label,
                            Json::obj()
                                .set("plain", run_obj(r.baseline_cycles, &runs[0]))
                                .set("rce", run_obj(r.baseline_cycles, &runs[1]))
                                .set("rce_bounds", run_obj(r.baseline_cycles, &runs[2])),
                        );
                    }
                    Json::obj()
                        .set("name", r.name.as_str())
                        .set("suite", r.suite.to_string())
                        .set("baseline_cycles", r.baseline_cycles)
                        .set("schemes", schemes)
                        .set("proven", r.tchk()[2].proven as u64)
                        .set(
                            "improved",
                            r.tchk()[2].dynamic_tchks < r.tchk()[1].dynamic_tchks,
                        )
                })
                .collect(),
        ),
    )
    .set("failed", failures(failed))
    .set(
        "a10",
        Json::obj()
            .set("improved_workloads", improved as u64)
            .set("total_workloads", rows.len() as u64)
            .set("proven_sites", sum(|r| r.tchk()[2].proven)),
    )
    .set(
        "witness_campaign",
        Json::obj()
            .set("skips", sum(|r| r.campaign_skips))
            .set("mutants", sum(|r| r.campaign_mutants))
            .set("killed", sum(|r| r.campaign_killed))
            .set(
                "all_killed",
                rows.iter().all(|r| r.campaign_mutants == r.campaign_killed),
            ),
    )
    .set(
        "juliet_gate",
        Json::obj()
            .set("detected_with_rce", juliet.0 as u64)
            .set("lost_with_bounds", juliet.1 as u64)
            .set("zero_cost", juliet.1 == 0),
    )
}

/// The `BENCH_zoo.json` document (experiments Z1/Z2). Deliberately
/// carries no worker count or wall-clock fields: the artifact is
/// byte-identical for any `--jobs N`.
pub fn zoo_summary(
    cfg: &ZooConfig,
    scale: Scale,
    report: &ZooReport,
    failed: &[FailedJob],
    violations: &[String],
) -> Json {
    let measured = measured_geomeans(&report.rows);
    let model = model_geomeans(&report.rows);
    let points = design_points(&report.rows, &report.coverage);
    let flags = frontier_flags(&points);
    let mut frontier: Vec<&DesignPoint> = points
        .iter()
        .zip(&flags)
        .filter(|(_, &f)| f)
        .map(|(p, _)| p)
        .collect();
    frontier.sort_by(|a, b| a.overhead_pct.total_cmp(&b.overhead_pct));
    let designs = Json::Arr(
        Design::ALL
            .iter()
            .enumerate()
            .map(|(di, &design)| {
                let oh = Design::INSTRUMENTED
                    .iter()
                    .position(|&d| d == design)
                    .map(|i| measured[i])
                    .unwrap_or(0.0);
                let model_oh = Design::ZOO
                    .iter()
                    .position(|&d| d == design)
                    .map(|i| Json::from(model[i]))
                    .unwrap_or(Json::Null);
                let band = design
                    .band()
                    .map(|(lo, hi)| Json::Arr(vec![Json::from(lo), Json::from(hi)]))
                    .unwrap_or(Json::Null);
                let cov = report.coverage.iter().find(|c| c.design == design);
                let coverage = match cov {
                    Some(c) => Json::obj()
                        .set("model_detected", c.model_detected)
                        .set("total_cases", c.total_cases)
                        .set("coverage_pct", c.coverage_pct())
                        .set("sample_cases", c.sample_cases)
                        .set("sample_detected", c.sample_detected)
                        .set("sample_model", c.sample_model)
                        .set("sample_agree", c.sample_agree),
                    None => Json::Null,
                };
                let inject = report
                    .inject
                    .get(di)
                    .map(|c| {
                        Json::obj()
                            .set("detected", c.detected)
                            .set("masked", c.masked)
                            .set("silent", c.silent)
                            .set("machine_fault", c.machine_fault)
                            .set("not_applied", c.not_applied)
                    })
                    .unwrap_or(Json::Null);
                Json::obj()
                    .set("name", design.label())
                    .set("overhead_geomean_pct", oh)
                    .set("model_overhead_geomean_pct", model_oh)
                    .set("band_pct", band)
                    .set("coverage", coverage)
                    .set("inject", inject)
                    .set("on_frontier", flags[di])
            })
            .collect(),
    );
    let rows = Json::Arr(
        report
            .rows
            .iter()
            .map(|r| {
                let mut oh = Json::obj();
                for (i, d) in Design::INSTRUMENTED.iter().enumerate() {
                    oh = oh.set(d.label(), r.measured_pct[i]);
                }
                let mut mp = Json::obj();
                for (i, d) in Design::ZOO.iter().enumerate() {
                    mp = mp.set(d.label(), r.model_pct[i]);
                }
                Json::obj()
                    .set("name", r.name.as_str())
                    .set("suite", r.suite.to_string())
                    .set("baseline_cycles", r.baseline_cycles)
                    .set("overhead_pct", oh)
                    .set("model_pct", mp)
            })
            .collect(),
    );
    Json::obj()
        .set("schema", "hwst-bench/zoo")
        .set("version", SCHEMA_VERSION)
        .set("scale", format!("{scale:?}"))
        .set(
            "config",
            Json::obj()
                .set("workload_count", report.rows.len())
                .set("juliet_per_cwe", u64::from(cfg.juliet_per_cwe))
                .set(
                    "inject_workloads",
                    Json::Arr(
                        cfg.inject_workloads
                            .iter()
                            .map(|w| Json::from(*w))
                            .collect(),
                    ),
                )
                .set("seeds_per_target", cfg.seeds_per_target)
                .set("master_seed", format!("{:#x}", cfg.master_seed)),
        )
        .set("designs", designs)
        .set("rows", rows)
        .set(
            "frontier",
            Json::Arr(
                frontier
                    .iter()
                    .map(|p| Json::from(p.design.label()))
                    .collect(),
            ),
        )
        .set("failed", failures(failed))
        .set(
            "violations",
            Json::Arr(violations.iter().map(|v| Json::from(v.as_str())).collect()),
        )
        .set(
            "gate",
            if violations.is_empty() && failed.is_empty() {
                "pass"
            } else {
                "violated"
            },
        )
}

/// Writes a summary document to `path` (with a trailing newline).
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_json(path: &Path, doc: &Json) -> std::io::Result<()> {
    std::fs::write(path, format!("{doc}\n"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwst128::workloads::Suite;
    use hwst_harness::{JobId, JobOutcome};

    fn fake_result(name: &str, suite: Suite, id: usize) -> JobResult<Fig4Row> {
        JobResult {
            id: JobId(id),
            label: format!("fig4/{name}"),
            outcome: JobOutcome::Ok(Fig4Row {
                name: name.into(),
                suite,
                baseline_cycles: 1000,
                overhead_pct: [400.0, 150.0, 90.0],
            }),
            wall: Duration::from_millis(5),
        }
    }

    #[test]
    fn fig4_summary_round_trips_and_matches_geomean() {
        let results = vec![
            fake_result("a", Suite::MiBench, 0),
            fake_result("b", Suite::Spec, 1),
        ];
        let doc = fig4_summary(Scale::Test, 2, &results, Duration::from_millis(6), &[]);
        let parsed = Json::parse(&doc.to_string()).expect("parses");
        assert_eq!(
            parsed.get("schema").and_then(Json::as_str),
            Some("hwst-bench/fig4")
        );
        let rows: Vec<Fig4Row> = results
            .iter()
            .filter_map(|r| r.outcome.ok())
            .cloned()
            .collect();
        let g = fig4_geomean(&rows);
        let got = parsed
            .get("geomean")
            .and_then(|o| o.get("sbcets"))
            .and_then(Json::as_f64)
            .expect("geomean.sbcets");
        assert_eq!(got, g[0], "JSON must carry the exact geomean");
        assert_eq!(
            parsed.get("rows").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
    }
}
