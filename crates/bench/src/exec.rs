//! Experiment X1: host-side throughput of the decoded-block fast
//! engine against the reference cycle interpreter.
//!
//! Each workload is compiled once for `HWST128_tchk`, executed under
//! both engines, and timed on the host clock. The fast run starts from
//! a **cold** block cache, so its time includes decode and fusion — the
//! honest end-to-end cost a sweep pays. Before any number is reported
//! the two [`hwst128::sim::ExitStatus`] values are compared; a
//! divergence is a hard row failure, so the speedup table doubles as a
//! differential gate.
//!
//! Host wall-clock numbers vary run to run; the *simulated* quantities
//! (`instret`, exit status) are deterministic and are what the
//! correctness gates key on.

use hwst128::compiler::{compile_with_options, CompileOptions, OptLevel, Scheme};
use hwst128::config_for;
use hwst128::exec::{run_fast, BlockCache};
use hwst128::sim::Machine;
use hwst128::workloads::{Scale, Suite, Workload};
use std::time::Instant;

/// One X1 row: both engines' host times over one workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecRow {
    /// Workload name.
    pub name: String,
    /// Its suite.
    pub suite: Suite,
    /// Instructions retired (identical in both engines, asserted).
    pub instret: u64,
    /// Host nanoseconds of the cycle-engine run.
    pub cycle_ns: u64,
    /// Host nanoseconds of the fast-engine run (cold cache: includes
    /// block decode and fusion).
    pub fast_ns: u64,
    /// Basic blocks decoded by the fast run.
    pub decoded_blocks: u64,
}

impl ExecRow {
    /// Fast-engine speedup over the cycle engine.
    pub fn speedup(&self) -> f64 {
        self.cycle_ns as f64 / self.fast_ns.max(1) as f64
    }

    /// Cycle-engine throughput in simulated instructions per host
    /// second.
    pub fn cycle_ips(&self) -> f64 {
        self.instret as f64 * 1e9 / self.cycle_ns.max(1) as f64
    }

    /// Fast-engine throughput in simulated instructions per host
    /// second.
    pub fn fast_ips(&self) -> f64 {
        self.instret as f64 * 1e9 / self.fast_ns.max(1) as f64
    }
}

/// Measures one X1 row with the image built at back-end tier `opt`
/// (`-O1` measures the fast engine over the optimized image).
///
/// # Errors
///
/// Returns the compile error, the trap from either engine, or a
/// description of a result divergence (which would be a fast-engine
/// bug — the differential gates exist to keep this unreachable).
pub fn try_exec_row(wl: &Workload, scale: Scale, opt: OptLevel) -> Result<ExecRow, String> {
    let module = wl.module(scale);
    let opts = CompileOptions::new(Scheme::Hwst128Tchk).with_opt(opt);
    let prog = compile_with_options(&module, opts)
        .map_err(|e| format!("{} (Hwst128Tchk, -{}): {e}", wl.name, opt.label()))?
        .program;
    let fuel = wl.fuel(scale);
    let cfg = config_for(Scheme::Hwst128Tchk);

    let mut cycle_m = Machine::new(prog.clone(), cfg);
    let t = Instant::now();
    let cycle = cycle_m
        .run(fuel)
        .map_err(|e| format!("{} (cycle): {e}", wl.name))?;
    let cycle_ns = t.elapsed().as_nanos() as u64;

    let mut cache = BlockCache::new();
    let mut fast_m = Machine::new(prog, cfg);
    let t = Instant::now();
    let fast =
        run_fast(&mut fast_m, fuel, &mut cache).map_err(|e| format!("{} (fast): {e}", wl.name))?;
    let fast_ns = t.elapsed().as_nanos() as u64;

    if cycle != fast {
        return Err(format!(
            "{}: engines diverged — cycle exit {} / {} cycles vs fast exit {} / {} cycles",
            wl.name,
            cycle.code,
            cycle.stats.total_cycles(),
            fast.code,
            fast.stats.total_cycles(),
        ));
    }
    Ok(ExecRow {
        name: wl.name.to_string(),
        suite: wl.suite,
        instret: cycle.stats.instret,
        cycle_ns,
        fast_ns,
        decoded_blocks: cache.decodes(),
    })
}

/// Geometric-mean speedup over the rows (0.0 for an empty slice).
pub fn exec_geomean(rows: &[ExecRow]) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    let logsum: f64 = rows.iter().map(|r| r.speedup().ln()).sum();
    (logsum / rows.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exec_row_is_a_differential_check() {
        let wl = Workload::by_name("math").unwrap();
        let r = try_exec_row(&wl, Scale::Test, OptLevel::O0).unwrap();
        assert!(r.instret > 0);
        assert!(r.decoded_blocks > 0);
        assert!(r.cycle_ns > 0 && r.fast_ns > 0);
    }

    #[test]
    fn geomean_of_identical_speedups_is_identity() {
        let row = |ns: u64| ExecRow {
            name: "x".into(),
            suite: Suite::MiBench,
            instret: 100,
            cycle_ns: 4 * ns,
            fast_ns: ns,
            decoded_blocks: 1,
        };
        let g = exec_geomean(&[row(100), row(1000)]);
        assert!((g - 4.0).abs() < 1e-9, "{g}");
    }
}
