//! Regenerates Fig. 4: performance overhead of MiBench, Olden and
//! SPEC2006 under SBCETS, HWST128 and HWST128_tchk (Eq. 7).
//!
//! Runs the workload × scheme matrix on the `hwst-harness` pool:
//! `--jobs N` (env `HWST_JOBS`) sizes the pool, `--json PATH` writes
//! the machine-readable summary, `--timeout-secs N` arms the per-job
//! watchdog, `--progress` streams per-job lines to stderr. A workload
//! that fails prints as a FAILED row and flips the exit code; it no
//! longer aborts the rest of the table.

use hwst_bench::cli::BenchArgs;
use hwst_bench::runs::{fig4_results, serial_wall};
use hwst_bench::summary::{fig4_summary, write_json};
use hwst_bench::{fig4_geomean, pct, Fig4Row};
use hwst_harness::collect_ok;
use std::time::Instant;

fn main() {
    let args = BenchArgs::parse();
    let scale = args.scale();
    let pool = args.pool();
    println!(
        "Fig. 4 — performance overhead (Eq. 7), scale {scale:?}, {} worker(s)",
        pool.workers
    );
    println!(
        "{:<12} {:<8} {:>12} {:>9} {:>9} {:>9}",
        "workload", "suite", "base cycles", "SBCETS", "HWST128", "_tchk"
    );
    let start = Instant::now();
    let results = fig4_results(scale, &pool, args.sink().as_mut());
    let wall = start.elapsed();
    let serial = serial_wall(&results);
    let (rows, failed) = collect_ok(results.clone());
    for r in &rows {
        println!(
            "{:<12} {:<8} {:>12} {} {} {}",
            r.name,
            r.suite.to_string(),
            r.baseline_cycles,
            pct(r.overhead_pct[0]),
            pct(r.overhead_pct[1]),
            pct(r.overhead_pct[2]),
        );
    }
    for f in &failed {
        println!("{:<12} FAILED   {}", f.label, f.error);
    }
    for suite in [
        hwst128::workloads::Suite::MiBench,
        hwst128::workloads::Suite::Olden,
        hwst128::workloads::Suite::Spec,
    ] {
        let sub: Vec<Fig4Row> = rows.iter().filter(|r| r.suite == suite).cloned().collect();
        if sub.is_empty() {
            continue;
        }
        let g = fig4_geomean(&sub);
        println!(
            "{:<12} {:<8} {:>12} {} {} {}",
            "(geomean)",
            suite.to_string(),
            "",
            pct(g[0]),
            pct(g[1]),
            pct(g[2])
        );
    }
    let g = fig4_geomean(&rows);
    println!(
        "{:<12} {:<8} {:>12} {} {} {}",
        "Geo. mean",
        "",
        "",
        pct(g[0]),
        pct(g[1]),
        pct(g[2])
    );
    println!("paper      : SBCETS 441.4%  HWST128 152.9%  HWST128_tchk 94.9%");
    println!(
        "wall {:.1} ms on {} worker(s); serial-equivalent {:.1} ms ({:.2}x)",
        wall.as_secs_f64() * 1e3,
        pool.workers,
        serial.as_secs_f64() * 1e3,
        serial.as_secs_f64() / wall.as_secs_f64().max(1e-9)
    );
    if let Some(path) = args.json_path() {
        let doc = fig4_summary(scale, pool.workers, &results, wall, &failed);
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
