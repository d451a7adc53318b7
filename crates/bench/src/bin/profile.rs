//! `hwst-profile` — experiment P1: per-function overhead attribution.
//!
//! Runs every workload (or the `--smoke` subset) under `HWST128_tchk`
//! with per-PC cycle attribution, folds the profile through the
//! compiler's symbol ranges, and prints the overhead-attribution table:
//! whole-run cycles split into base / check / shadow / keybuffer /
//! runtime, the attributed fraction, and the hottest function.
//!
//! Flags: the harness family (`--jobs`, `--json PATH`, `--progress`,
//! `--timeout-secs`, `--bench-scale`) plus:
//!
//! * `--smoke` — the 4-workload CI subset instead of all 23,
//! * `--trace WL` — write `TRACE_WL.json` (Chrome trace-event JSON,
//!   Perfetto-loadable) for workload `WL`,
//! * `--collapse WL` — write `FLAME_WL.txt` (collapsed stacks) for
//!   workload `WL`.
//!
//! Determinism: the table on stdout is byte-identical for any `--jobs`
//! value; timing/worker information goes to stderr only.
//!
//! Exit codes (stable, documented in README): `0` — every workload
//! profiled; `1` — any failed workload; `2` — usage or I/O error.

use hwst128::telemetry::Breakdown;
use hwst128::workloads::Workload;
use hwst_bench::cli::BenchArgs;
use hwst_bench::profile::{profile_mean_fractions, try_profile_trace};
use hwst_bench::runs::{profile_names, profile_results, serial_wall};
use hwst_bench::summary::{profile_summary, write_json};
use hwst_harness::collect_ok;
use std::time::Instant;

fn export_traces(args: &BenchArgs) {
    for (flag, prefix, ext) in [("--trace", "TRACE", "json"), ("--collapse", "FLAME", "txt")] {
        let Some(name) = args.value(flag) else {
            continue;
        };
        let Some(wl) = Workload::by_name(name) else {
            eprintln!("error: `{flag} {name}`: unknown workload");
            std::process::exit(2)
        };
        let t = try_profile_trace(&wl, args.scale()).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2)
        });
        let path = format!("{prefix}_{name}.{ext}");
        let body = if flag == "--trace" {
            format!("{}\n", t.chrome)
        } else {
            t.collapsed.clone()
        };
        std::fs::write(&path, body).unwrap_or_else(|e| {
            eprintln!("error: could not write {path}: {e}");
            std::process::exit(2)
        });
        if t.dropped > 0 {
            eprintln!("note: {path}: ring recorder dropped {} span(s)", t.dropped);
        }
        println!("wrote {path}");
    }
}

fn main() {
    let args = BenchArgs::parse();
    let smoke = args.flag("--smoke");
    let scale = args.scale();
    let pool = args.pool();
    let names = profile_names(smoke);
    println!(
        "P1 — per-function overhead attribution{} ({} workloads)",
        if smoke { " [smoke]" } else { "" },
        names.len()
    );
    let start = Instant::now();
    let results = profile_results(&names, scale, &pool, args.sink().as_mut());
    let wall = start.elapsed();
    let (rows, failed) = collect_ok(results.clone());
    println!(
        "{:<10} {:>12} {:>9} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6}  hottest",
        "workload", "cycles", "overhead", "base%", "check%", "shad%", "keyb%", "runt%", "attr%",
    );
    for r in &rows {
        let total = r.total.total().max(1) as f64;
        let pct = |c: u64| 100.0 * c as f64 / total;
        println!(
            "{:<10} {:>12} {:>8.1}% {:>5.1}% {:>5.1}% {:>5.1}% {:>5.1}% {:>5.1}% {:>5.1}%  {}",
            r.name,
            r.total.total(),
            r.overhead_pct(),
            pct(r.total.base),
            pct(r.total.check),
            pct(r.total.shadow),
            pct(r.total.keybuffer),
            pct(r.total.runtime),
            r.attributed_fraction * 100.0,
            r.hot.first().map_or("-", |h| h.name.as_str())
        );
    }
    for f in &failed {
        println!("{} FAILED {}", f.label, f.error);
    }
    let mean = profile_mean_fractions(&rows);
    let mean_str: Vec<String> = Breakdown::CATEGORIES
        .iter()
        .zip(mean)
        .map(|(cat, f)| format!("{cat} {:.1}%", f * 100.0))
        .collect();
    println!("mean fraction: {}", mean_str.join(", "));
    export_traces(&args);
    eprintln!(
        "wall {:.1} ms (serial {:.1} ms) on {} worker(s)",
        wall.as_secs_f64() * 1e3,
        serial_wall(&results).as_secs_f64() * 1e3,
        pool.workers
    );
    if let Some(path) = args.json_path() {
        let doc = profile_summary(scale, pool.workers, &results, wall, &failed);
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
