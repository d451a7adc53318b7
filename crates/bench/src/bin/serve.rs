//! Regenerates S1: service robustness of `hwst-serve` under a mixed
//! hostile/benign multi-tenant workload — typed rejection of every
//! hostile submission, panic isolation with retry-after-backoff,
//! content-addressed cache hits, quota trips opening a circuit breaker.
//!
//! `--smoke` runs the reduced CI mix; the default is the full S1 mix
//! from EXPERIMENTS.md. `--jobs N` sets the worker count (the decision
//! log is byte-identical for any N), `--json PATH` writes the
//! `BENCH_serve.json` summary, `--progress` streams per-job lines.
//! Exits nonzero when the S1 acceptance bar is missed.

use hwst_bench::cli::BenchArgs;
use hwst_bench::summary::{serve_gate, serve_summary, write_json};
use hwst_serve::{mixed_submissions, MixCategory, MixConfig, Serve, ServeConfig, TenantQuota};
use std::time::Instant;

fn main() {
    let args = BenchArgs::parse();
    let smoke = args.flag("--smoke");
    let jobs = args.jobs();
    let mix = if smoke {
        MixConfig::smoke()
    } else {
        MixConfig::full()
    };
    // Caps sized to the mix: the bomber's bombs and follow-up must all
    // be admitted (so the circuit-breaker path is exercised) while the
    // flood still overruns the in-flight quota and gets shed.
    let quota = TenantQuota {
        max_in_flight: mix.bombs + 2,
        trips_to_open: 3,
        cooldown_ticks: 8,
        ..TenantQuota::default()
    };
    let cfg = ServeConfig {
        workers: jobs,
        queue_capacity: 64,
        batch: 8,
        quota,
        ..ServeConfig::default()
    };
    println!(
        "S1 — service robustness{}, {} worker(s)",
        if smoke { " [smoke]" } else { "" },
        jobs
    );
    println!(
        "mix: {} benign, {} duplicates, {} hostile (+{} bombs +1 follow-up), {} chaos, {} flood — {} submissions",
        mix.benign, mix.duplicates, mix.hostile, mix.bombs, mix.chaos, mix.flood, mix.total()
    );
    let submissions = mixed_submissions(&mix, &cfg.quota);
    let categories: Vec<MixCategory> = submissions.iter().map(|m| m.category).collect();
    let start = Instant::now();
    let mut serve = Serve::new(cfg);
    for m in submissions {
        // Typed sheds are part of the experiment, not errors.
        let _ = serve.submit(m.submission);
    }
    serve.drain(args.sink().as_mut());
    let report = serve.into_report();
    let wall = start.elapsed();

    println!(
        "{:<10} {:>6} {:>9} {:>7}",
        "category", "total", "rejected", "served"
    );
    for cat in [
        MixCategory::Benign,
        MixCategory::Duplicate,
        MixCategory::Hostile,
        MixCategory::Chaos,
        MixCategory::Flood,
    ] {
        let rows: Vec<_> = report
            .reports
            .iter()
            .zip(&categories)
            .filter(|(_, c)| **c == cat)
            .collect();
        let rejected = rows
            .iter()
            .filter(|(r, _)| r.verdict.is_rejection())
            .count();
        println!(
            "{:<10} {:>6} {:>9} {:>7}",
            cat.name(),
            rows.len(),
            rejected,
            rows.len() - rejected
        );
    }
    let s = report.stats;
    println!(
        "completed {} | violations {} | faulted {} | rejected {} (shed at submit {}, suspended {})",
        s.completed, s.violations, s.faulted, s.rejected, s.shed_at_submit, s.shed_suspended
    );
    println!(
        "retries {} (successes {}) | panics isolated {} | cache {}/{} hit/miss ({} decode skips) | quota trips {} | circuits {} | {} ticks",
        s.retries,
        s.retry_successes,
        s.panics_isolated,
        s.cache_hits,
        s.cache_misses,
        s.decode_skips,
        s.quota_trips,
        s.circuit_opens,
        s.ticks
    );
    println!(
        "wall {:.1} ms on {} worker(s)",
        wall.as_secs_f64() * 1e3,
        jobs
    );
    let violations = serve_gate(&categories, &report);
    if let Some(path) = args.json_path() {
        let doc = serve_summary(jobs, &mix, &categories, &report, wall);
        write_json(path, &doc).unwrap_or_else(|e| {
            eprintln!("error: could not write {}: {e}", path.display());
            std::process::exit(2)
        });
        println!("wrote {}", path.display());
    }
    if violations.is_empty() {
        println!("S1 robustness bar: PASS");
    } else {
        for v in &violations {
            eprintln!("S1 VIOLATION: {v}");
        }
        std::process::exit(1);
    }
}
