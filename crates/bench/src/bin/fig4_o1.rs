//! The O1 overhead experiment: re-runs the Fig. 4 matrix at both
//! back-end tiers and answers the ISSUE 9 headline question — does
//! HWST128's relative overhead grow or shrink when the baseline it is
//! measured against is optimized (`-O1` linear-scan regalloc +
//! frame-slot elimination + metadata-op scheduling)?
//!
//! Accepts the harness family of flags (`--jobs`, `--json`,
//! `--timeout-secs`, `--bench-scale`) plus `--smoke` for
//! the 4-workload CI subset. The JSON summary (`BENCH_fig4_o1.json`)
//! reports per-workload `-O0`/`-O1` cycle counts, the geomean baseline
//! speedup against the 1.3× target, and both tiers' Eq. 7 overhead
//! geomeans.

use hwst_bench::cli::BenchArgs;
use hwst_bench::runs::{fig4_o1_results, profile_names, serial_wall};
use hwst_bench::summary::{fig4_o1_summary, write_json};
use hwst_bench::{fig4_o1_geomean, fig4_o1_geomean_speedup, pct, Fig4O1Row};
use hwst_harness::collect_ok;
use std::time::Instant;

fn main() {
    let args = BenchArgs::parse();
    let scale = args.scale();
    let pool = args.pool();
    let smoke = args.flag("--smoke");
    let names = profile_names(smoke);
    println!(
        "O1 experiment — Fig. 4 at both back-end tiers{}, scale {scale:?}, {} workload(s), \
         {} worker(s)",
        if smoke { " [smoke]" } else { "" },
        names.len(),
        pool.workers
    );
    println!(
        "{:<12} {:<8} {:>12} {:>12} {:>8} {:>9} {:>9} {:>9}",
        "workload", "suite", "O0 cycles", "O1 cycles", "speedup", "O1 SBC", "O1 H128", "O1 _tchk"
    );
    let start = Instant::now();
    let results = fig4_o1_results(&names, scale, &pool, args.sink().as_mut());
    let wall = start.elapsed();
    let serial = serial_wall(&results);
    let (rows, failed) = collect_ok(results.clone());
    for r in &rows {
        println!(
            "{:<12} {:<8} {:>12} {:>12} {:>7.2}x {} {} {}",
            r.name,
            r.suite.to_string(),
            r.o0_baseline_cycles,
            r.o1_baseline_cycles,
            r.baseline_speedup(),
            pct(r.o1_overhead_pct[0]),
            pct(r.o1_overhead_pct[1]),
            pct(r.o1_overhead_pct[2]),
        );
    }
    for f in &failed {
        println!("{:<12} FAILED   {}", f.label, f.error);
    }
    let g1 = fig4_o1_geomean(&rows);
    let speedup = fig4_o1_geomean_speedup(&rows);
    println!(
        "{:<12} {:<8} {:>12} {:>12} {:>7.2}x {} {} {}",
        "Geo. mean",
        "",
        "",
        "",
        speedup,
        pct(g1[0]),
        pct(g1[1]),
        pct(g1[2])
    );
    let o0_rows: Vec<hwst_bench::Fig4Row> = rows
        .iter()
        .map(|r: &Fig4O1Row| hwst_bench::Fig4Row {
            name: r.name.clone(),
            suite: r.suite,
            baseline_cycles: r.o0_baseline_cycles,
            overhead_pct: r.o0_overhead_pct,
        })
        .collect();
    let g0 = hwst_bench::fig4_geomean(&o0_rows);
    println!(
        "-O0 geomean: SBCETS {}  HWST128 {}  HWST128_tchk {}",
        pct(g0[0]),
        pct(g0[1]),
        pct(g0[2])
    );
    println!(
        "baseline speedup target 1.30x: {}",
        if speedup >= 1.3 { "met" } else { "NOT met" }
    );
    println!(
        "wall {:.1} ms on {} worker(s); serial-equivalent {:.1} ms ({:.2}x)",
        wall.as_secs_f64() * 1e3,
        pool.workers,
        serial.as_secs_f64() * 1e3,
        serial.as_secs_f64() / wall.as_secs_f64().max(1e-9)
    );
    if let Some(path) = args.json_path() {
        let doc = fig4_o1_summary(scale, pool.workers, &results, wall, &failed);
        write_json(path, &doc).unwrap_or_else(|e| {
            eprintln!("error: could not write {}: {e}", path.display());
            std::process::exit(2)
        });
        println!("wrote {}", path.display());
    }
    if !failed.is_empty() {
        std::process::exit(1);
    }
}
