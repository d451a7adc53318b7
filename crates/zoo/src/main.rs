//! Z1/Z2: the comparative detector zoo — coverage × overhead frontier
//! over the published four designs plus RV-CURE, L4 Pointer, CryptSan
//! and HeapSafe, with a fault-injection campaign per design.
//!
//! `--smoke` runs the reduced CI configuration; the default sweeps all
//! 23 workloads. `--scheme A,B,...` narrows the *printed* frontier
//! table (the sweep and the JSON always carry every design so the
//! artifact stays complete). Harness flags (`--jobs N`, `--json PATH`,
//! `--progress`) as in `hwst_bench::cli`. Exits 1 when a calibration
//! or agreement gate is violated, 2 on hard errors.

use hwst_bench::cli::BenchArgs;
use hwst_bench::summary::write_json;
use hwst_zoo::{
    design_points, frontier_flags, measured_geomeans, model_geomeans, zoo_coverage_results,
    zoo_inject_results, zoo_row_results, zoo_summary, zoo_violations, Design, ZooConfig, ZooReport,
};
use std::time::Instant;

fn main() {
    let args = BenchArgs::parse();
    let smoke = args.flag("--smoke");
    let scale = args.scale();
    let pool = args.pool();
    let cfg = if smoke {
        ZooConfig::smoke()
    } else {
        ZooConfig::default()
    };
    let shown: Vec<Design> = {
        let schemes = args.schemes(&Design::ALL.map(Design::scheme));
        Design::ALL
            .into_iter()
            .filter(|d| schemes.contains(&d.scheme()))
            .collect()
    };
    println!(
        "Z1/Z2 — comparative detector zoo{}, {} worker(s)",
        if smoke { " [smoke]" } else { "" },
        pool.workers
    );
    let start = Instant::now();
    let mut sink = args.sink();
    let (rows, mut failed) = zoo_row_results(&cfg, scale, &pool, sink.as_mut());
    let (coverage, cov_failed) = zoo_coverage_results(&cfg, &pool, sink.as_mut());
    failed.extend(cov_failed);
    let (inject, inj_failed) = zoo_inject_results(&cfg, scale, &pool, sink.as_mut())
        .unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2)
        });
    failed.extend(inj_failed);
    let wall = start.elapsed();
    let report = ZooReport {
        rows,
        coverage,
        inject,
    };

    let measured = measured_geomeans(&report.rows);
    let model = model_geomeans(&report.rows);
    let points = design_points(&report.rows, &report.coverage);
    let flags = frontier_flags(&points);
    println!(
        "\n{:<13} {:>9} {:>9} {:>8} {:>7} {:>6} {:>6} {:>6}  frontier",
        "design", "overhead%", "model%", "cover%", "det", "mask", "silent", "mfault"
    );
    for (di, &design) in Design::ALL.iter().enumerate() {
        if !shown.contains(&design) {
            continue;
        }
        let oh = Design::INSTRUMENTED
            .iter()
            .position(|&d| d == design)
            .map(|i| measured[i])
            .unwrap_or(0.0);
        let model_s = Design::ZOO
            .iter()
            .position(|&d| d == design)
            .map(|i| format!("{:.1}", model[i]))
            .unwrap_or_else(|| "-".to_string());
        let inj = &report.inject[di];
        println!(
            "{:<13} {:>9.1} {:>9} {:>8.2} {:>7} {:>6} {:>6} {:>6}  {}",
            design.label(),
            oh,
            model_s,
            points[di].coverage_pct,
            inj.detected,
            inj.masked,
            inj.silent,
            inj.machine_fault,
            if flags[di] { "*" } else { "" }
        );
    }
    for f in &failed {
        println!("{} FAILED {}", f.label, f.error);
    }
    println!(
        "wall {:.1} ms on {} worker(s)",
        wall.as_secs_f64() * 1e3,
        pool.workers
    );

    // The calibration bands are stated for the full-suite geomean;
    // smoke subsets keep the structural gates only.
    let violations: Vec<String> = zoo_violations(&report)
        .into_iter()
        .filter(|v| !(smoke && v.contains("calibration band")))
        .collect();
    if let Some(path) = args.json_path() {
        let doc = zoo_summary(&cfg, scale, &report, &failed, &violations);
        write_json(path, &doc).unwrap_or_else(|e| {
            eprintln!("error: could not write {}: {e}", path.display());
            std::process::exit(2)
        });
        println!("wrote {}", path.display());
    }
    if violations.is_empty() {
        println!("gate: calibration bands, orderings, model tracking, sample agreement — PASS");
    } else {
        for v in &violations {
            println!("gate VIOLATED: {v}");
        }
        std::process::exit(1);
    }
    if !failed.is_empty() {
        std::process::exit(1);
    }
}
