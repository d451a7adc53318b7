//! The `sim` payloads of the sweep experiments' artifacts
//! (`BENCH_*.json`): every deterministic row, aggregate and gate
//! verdict, built from rows and aggregates the experiment already
//! computed for its table.
//!
//! The driver (`hwst-bench`'s `main.rs`) wraps each payload in the one
//! artifact envelope, documented in EXPERIMENTS.md ("Machine-readable
//! summaries"), and adds the `failed` job list. All object keys are
//! emitted in a fixed order so artifacts diff cleanly.

use crate::exec::ExecRow;
use crate::profile::ProfileRow;
use crate::runs::{BinvalRow, BoundsRow, BoundsRun, BINVAL_MASTER_SEED};
use crate::{Fig4Row, Fig5Row, ResilienceConfig, ResilienceRow};
use hwst128::compiler::OptLevel;
use hwst128::juliet::{CoverageReport, Cwe, Detector};
use hwst128::sim::inject::OutcomeCounts;
use hwst128::telemetry::Breakdown;
use hwst128::workloads::Suite;
use hwst_harness::Json;
use hwst_zoo::{Design, DesignPoint, ZooConfig, ZooReport};

/// An `{"sbcets", "hwst128", "hwst128_tchk"}` object, in Fig. 4 column
/// order.
pub fn overhead_triple(o: &[f64; 3]) -> Json {
    Json::obj()
        .set("sbcets", o[0])
        .set("hwst128", o[1])
        .set("hwst128_tchk", o[2])
}

/// The Fig. 4 payload: the rows, the per-suite geomeans of the suites
/// present and the overall geomean.
pub fn fig4_sim(rows: &[Fig4Row], suites: &[(Suite, [f64; 3])], geomean: &[f64; 3]) -> Json {
    let mut suite_geomean = Json::obj();
    for (suite, g) in suites {
        suite_geomean = suite_geomean.set(&suite.to_string(), overhead_triple(g));
    }
    Json::obj()
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
        .set("geomean", overhead_triple(geomean))
        .set("suite_geomean", suite_geomean)
}

/// The O1 payload, from the `-O0` and `-O1` rows of the same
/// workloads and their geomeans. `meets_target` reports the geomean
/// baseline speedup against `target_speedup` (1.3×) honestly.
pub fn fig4_o1_sim(
    o0: &[Fig4Row],
    o1: &[Fig4Row],
    g0: &[f64; 3],
    g1: &[f64; 3],
    speedup: f64,
) -> Json {
    let target = 1.3;
    Json::obj()
        .set(
            "rows",
            Json::Arr(
                o0.iter()
                    .zip(o1)
                    .map(|(r0, r1)| {
                        Json::obj()
                            .set("name", r0.name.as_str())
                            .set("suite", r0.suite.to_string())
                            .set("o0_baseline_cycles", r0.baseline_cycles)
                            .set("o1_baseline_cycles", r1.baseline_cycles)
                            .set("baseline_speedup", r0.baseline_speedup(r1))
                            .set("o0_overhead_pct", overhead_triple(&r0.overhead_pct))
                            .set("o1_overhead_pct", overhead_triple(&r1.overhead_pct))
                    })
                    .collect(),
            ),
        )
        .set("geomean_baseline_speedup", speedup)
        .set("target_speedup", target)
        .set("meets_target", speedup >= target)
        .set("o0_geomean", overhead_triple(g0))
        .set("o1_geomean", overhead_triple(g1))
}

/// The Fig. 5 payload.
pub fn fig5_sim(rows: &[Fig5Row], geomean: &[f64; 4]) -> Json {
    let speedups = |s: &[f64; 4]| {
        Json::obj()
            .set("bogo", s[0])
            .set("wdl_narrow", s[1])
            .set("wdl_wide", s[2])
            .set("hwst128", s[3])
    };
    Json::obj()
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
        .set("geomean", speedups(geomean))
}

/// The Fig. 6 payload: per-detector totals and per-CWE counts.
pub fn fig6_sim(report: &CoverageReport) -> Json {
    let detectors = Detector::ALL.iter().map(|d| {
        let mut per_cwe = Json::obj();
        for cwe in Cwe::ALL {
            per_cwe = per_cwe.set(&cwe.to_string(), report.count(d.label(), cwe));
        }
        Json::obj()
            .set("name", d.label())
            .set("detected", report.total(d.label()))
            .set("coverage_pct", report.coverage(d.label()) * 100.0)
            .set("per_cwe", per_cwe)
    });
    Json::obj()
        .set("total_cases", u64::from(report.total_cases))
        .set("detectors", Json::Arr(detectors.collect()))
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

/// The R1 payload.
pub fn resilience_sim(rc: &ResilienceConfig, rows: &[ResilienceRow], guarantee: bool) -> Json {
    Json::obj()
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
        .set("guarantee", if guarantee { "pass" } else { "violated" })
}

/// The A9 / translation-validation payload, with the ablation and
/// mutation-campaign column totals.
pub fn binval_sim(seeds_per_scheme: u64, opt: OptLevel, rows: &[BinvalRow]) -> Json {
    let sum = |f: fn(&BinvalRow) -> usize| -> u64 { rows.iter().map(|r| f(r) as u64).sum() };
    Json::obj()
        .set("master_seed", format!("{BINVAL_MASTER_SEED:#x}"))
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
                            .set("static_bugs", r.static_bugs)
                            .set("checked_ops", r.checked_ops)
                            .set("rce_removed", r.rce_removed)
                            .set("discharged_in_bounds", r.discharged_in_bounds)
                            .set("discharged_redundant", r.discharged_redundant)
                            .set("mutation_candidates", r.mutation_candidates)
                            .set("mutants", r.mutants)
                            .set("mutants_killed", r.mutants_killed)
                    })
                    .collect(),
            ),
        )
        .set(
            "a9",
            Json::obj()
                .set("checked_ops", sum(|r| r.checked_ops))
                .set("rce_removed", sum(|r| r.rce_removed))
                .set("binval_discharged", sum(BinvalRow::discharged))
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

fn cycles_obj(b: &Breakdown) -> Json {
    let mut obj = Json::obj();
    for (cat, cycles) in b.iter() {
        obj = obj.set(cat, cycles);
    }
    obj
}

/// The P1 payload: the rows and the per-category mean fractions (in
/// [`Breakdown::CATEGORIES`] order).
pub fn profile_sim(rows: &[ProfileRow], mean: &[f64; 5]) -> Json {
    let mut mean_fraction = Json::obj();
    for (cat, &f) in Breakdown::CATEGORIES.iter().zip(mean) {
        mean_fraction = mean_fraction.set(cat, f);
    }
    Json::obj()
        .set(
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        let hot = r.hot.iter().map(|h| {
                            Json::obj()
                                .set("name", h.name.as_str())
                                .set("total_cycles", h.cycles.total())
                                .set("cycles", cycles_obj(&h.cycles))
                        });
                        Json::obj()
                            .set("name", r.name.as_str())
                            .set("total_cycles", r.total.total())
                            .set("baseline_cycles", r.baseline_cycles)
                            .set("overhead_pct", r.overhead_pct())
                            .set("attributed_pct", r.attributed_fraction * 100.0)
                            .set("cycles", cycles_obj(&r.total))
                            .set("hot", Json::Arr(hot.collect()))
                    })
                    .collect(),
            ),
        )
        .set("mean_fraction", mean_fraction)
}

/// The X1 payloads: `sim` carries what the two engines agree on
/// (`instret`, decoded blocks), `host` the per-row timings and their
/// geomean speedup.
pub fn exec_payloads(opt: OptLevel, rows: &[ExecRow], geomean: f64) -> (Json, Json) {
    let sim_rows = rows.iter().map(|r| {
        Json::obj()
            .set("name", r.name.as_str())
            .set("suite", r.suite.to_string())
            .set("instret", r.instret)
            .set("decoded_blocks", r.decoded_blocks)
    });
    let host_rows = rows.iter().map(|r| {
        Json::obj()
            .set("name", r.name.as_str())
            .set("cycle_ns", r.cycle_ns)
            .set("fast_ns", r.fast_ns)
            .set("cycle_ips", r.cycle_ips())
            .set("fast_ips", r.fast_ips())
            .set("speedup", r.speedup())
    });
    let sim = Json::obj()
        .set("opt", opt.label())
        .set("rows", Json::Arr(sim_rows.collect()));
    let host = Json::obj()
        .set("rows", Json::Arr(host_rows.collect()))
        .set("geomean_speedup", geomean);
    (sim, host)
}

/// The A10 payload.
///
/// `improved` is the number of workloads that executed strictly fewer
/// dynamic `tchk`s with the bounds pass than with RCE alone; `juliet`
/// is the sampled detection gate as `(detected_with_rce,
/// lost_with_bounds)` — the second component must be zero.
pub fn boundscheck_sim(rows: &[BoundsRow], improved: usize, juliet: (usize, usize)) -> Json {
    let run_obj = |baseline: u64, r: &BoundsRun| {
        Json::obj()
            .set("static_checks", r.static_checks)
            .set("proven", r.proven)
            .set("cycles", r.cycles)
            .set(
                "overhead_pct",
                100.0 * (r.cycles as f64 - baseline as f64) / baseline.max(1) as f64,
            )
            .set("dynamic_tchks", r.dynamic_tchks)
    };
    let sum = |f: fn(&BoundsRow) -> usize| -> u64 { rows.iter().map(|r| f(r) as u64).sum() };
    Json::obj()
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
                            .set("proven", r.tchk()[2].proven)
                            .set(
                                "improved",
                                r.tchk()[2].dynamic_tchks < r.tchk()[1].dynamic_tchks,
                            )
                    })
                    .collect(),
            ),
        )
        .set(
            "a10",
            Json::obj()
                .set("improved_workloads", improved)
                .set("total_workloads", rows.len())
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
                .set("detected_with_rce", juliet.0)
                .set("lost_with_bounds", juliet.1)
                .set("zero_cost", juliet.1 == 0),
        )
}

/// The Z1/Z2 payload, from the frontier points and flags and the model
/// geomeans the zoo table printed ([`Design::ALL`] / [`Design::ZOO`]
/// order). The `frontier` listing is sorted by overhead.
pub fn zoo_sim(
    cfg: &ZooConfig,
    report: &ZooReport,
    points: &[DesignPoint],
    on_frontier: &[bool],
    model: &[f64; 4],
    violations: &[String],
    gate: bool,
) -> Json {
    let mut frontier: Vec<&DesignPoint> = points
        .iter()
        .zip(on_frontier)
        .filter(|(_, &f)| f)
        .map(|(p, _)| p)
        .collect();
    frontier.sort_by(|a, b| a.overhead_pct.total_cmp(&b.overhead_pct));
    let designs = Design::ALL.iter().enumerate().map(|(di, &design)| {
        let model_oh = Design::ZOO
            .iter()
            .position(|&d| d == design)
            .map_or(Json::Null, |i| Json::from(model[i]));
        let band = design.band().map_or(Json::Null, |(lo, hi)| {
            Json::Arr(vec![Json::from(lo), Json::from(hi)])
        });
        let coverage =
            report
                .coverage
                .iter()
                .find(|c| c.design == design)
                .map_or(Json::Null, |c| {
                    Json::obj()
                        .set("model_detected", c.model_detected)
                        .set("total_cases", c.total_cases)
                        .set("coverage_pct", c.coverage_pct())
                        .set("sample_cases", c.sample_cases)
                        .set("sample_detected", c.sample_detected)
                        .set("sample_model", c.sample_model)
                        .set("sample_agree", c.sample_agree)
                });
        let inject = report.inject.get(di).map_or(Json::Null, |c| {
            Json::obj()
                .set("detected", c.detected)
                .set("masked", c.masked)
                .set("silent", c.silent)
                .set("machine_fault", c.machine_fault)
                .set("not_applied", c.not_applied)
        });
        Json::obj()
            .set("name", design.label())
            .set("overhead_geomean_pct", points[di].overhead_pct)
            .set("model_overhead_geomean_pct", model_oh)
            .set("band_pct", band)
            .set("coverage", coverage)
            .set("inject", inject)
            .set("on_frontier", on_frontier[di])
    });
    let rows = report.rows.iter().map(|r| {
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
    });
    Json::obj()
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
        .set("designs", Json::Arr(designs.collect()))
        .set("rows", Json::Arr(rows.collect()))
        .set(
            "frontier",
            Json::Arr(
                frontier
                    .iter()
                    .map(|p| Json::from(p.design.label()))
                    .collect(),
            ),
        )
        .set(
            "violations",
            Json::Arr(violations.iter().map(|v| Json::from(v.as_str())).collect()),
        )
        .set("gate", if gate { "pass" } else { "violated" })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fig4_geomean;

    #[test]
    fn fig4_summary_round_trips_and_matches_geomean() {
        let row = |name: &str, suite| Fig4Row {
            name: name.into(),
            suite,
            baseline_cycles: 1000,
            overhead_pct: [400.0, 150.0, 90.0],
        };
        let rows = vec![row("a", Suite::MiBench), row("b", Suite::Spec)];
        let g = fig4_geomean(&rows);
        let parsed = Json::parse(&fig4_sim(&rows, &[], &g).to_string()).expect("parses");
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
