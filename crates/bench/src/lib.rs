//! # hwst-bench
//!
//! The experiment harness: everything needed to regenerate the paper's
//! tables and figures (see DESIGN.md §4 for the experiment index).
//!
//! One binary runs them all: `hwst-bench <experiment> [flags]` prints
//! the experiment's table, writes its `--json` artifact and exits `0`
//! when every gate passed, `1` when a gate or job failed and `2` on a
//! usage, I/O or hard error; `hwst-bench diff A.json B.json` compares
//! two artifacts. `hwst-bench help` lists the flags each experiment
//! takes. The experiments:
//!
//! * `fig4`, `fig5`, `fig6`, `hwcost` — the paper's Figs. 4–6 and the
//!   §5.3 hardware-cost table,
//! * `ablation_keybuffer` (A1), `ablation_compression` (A2),
//!   `ablation_shadow` (A3), `ablation_dcache` (A4),
//!   `ablation_shore` (A6), `ablation_footprint` (A7), `binval` (A9) and
//!   `ablation_boundscheck` (A8 and A10) — the ablations,
//! * `codesize` — static text size per scheme,
//! * `lint` — the IR-level static safety linter over the workloads,
//! * `resilience` (R1), `profile` (P1), `exec` (X1), `fig4_o1` (O1)
//!   and `zoo` (Z1/Z2) — the extension experiments.
//!
//! This library holds what they share: the row computations, the jobs
//! of the pool-driven sweeps ([`runs`]) and the builders of the
//! artifacts' `sim` payloads ([`summary`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exec;
pub mod profile;
pub mod runs;
pub mod summary;

use hwst128::compiler::{compile, CompileOptions, OptLevel, Scheme};
use hwst128::exec::{run_fast, BlockCache};
use hwst128::run_scheme;
use hwst128::sim::{Machine, SafetyConfig};
use hwst128::workloads::{all, Scale, Suite, Workload};

/// One Fig. 4 row: per-scheme overhead percentages for a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Row {
    /// Workload name.
    pub name: String,
    /// Suite label.
    pub suite: Suite,
    /// Baseline cycles.
    pub baseline_cycles: u64,
    /// Overhead % for SBCETS, HWST128, HWST128_tchk (Eq. 7).
    pub overhead_pct: [f64; 3],
}

impl Fig4Row {
    /// This row's baseline cycles over `o1`'s, for the same workload
    /// at `-O1`: how much faster the optimizing back-end makes the
    /// program the overheads are measured against.
    pub fn baseline_speedup(&self, o1: &Fig4Row) -> f64 {
        self.baseline_cycles as f64 / (o1.baseline_cycles as f64).max(1.0)
    }
}

/// Runs one workload under every scheme at back-end tier `opt` and
/// computes Eq. 7 overheads.
///
/// # Errors
///
/// Returns `"<workload> (<scheme>@<tier>): <trap/compile error>"` for
/// the first scheme that fails to compile or run clean.
pub fn try_fig4_row(wl: &Workload, scale: Scale, opt: OptLevel) -> Result<Fig4Row, String> {
    let module = wl.module(scale);
    let fuel = wl.fuel(scale);
    let mut cycles = [0.0f64; 4];
    for (slot, &s) in cycles.iter_mut().zip(Scheme::ALL.iter()) {
        *slot = run_scheme(&module, CompileOptions::new(s).with_opt(opt), fuel)
            .map_err(|e| format!("{} ({s}@{}): {e}", wl.name, opt.label()))?
            .stats
            .total_cycles() as f64;
    }
    Ok(Fig4Row {
        name: wl.name.to_string(),
        suite: wl.suite,
        baseline_cycles: cycles[0] as u64,
        overhead_pct: [
            (cycles[1] / cycles[0] - 1.0) * 100.0,
            (cycles[2] / cycles[0] - 1.0) * 100.0,
            (cycles[3] / cycles[0] - 1.0) * 100.0,
        ],
    })
}

/// All `-O0` Fig. 4 rows in the paper's order, computed serially: the
/// reference the pool-driven sweep is compared against. Panics on the
/// first broken workload.
pub fn fig4_rows(scale: Scale) -> Vec<Fig4Row> {
    all()
        .iter()
        .map(|wl| try_fig4_row(wl, scale, OptLevel::O0).unwrap_or_else(|e| panic!("{e}")))
        .collect()
}

/// Geometric mean of each overhead column (the paper's rightmost bars:
/// SBCETS ≈ 441%, HWST128 ≈ 153%, HWST128_tchk ≈ 95%).
pub fn fig4_geomean(rows: &[Fig4Row]) -> [f64; 3] {
    let mut out = [0.0; 3];
    for (i, o) in out.iter_mut().enumerate() {
        let logsum: f64 = rows
            .iter()
            .map(|r| (1.0 + r.overhead_pct[i] / 100.0).ln())
            .sum();
        *o = ((logsum / rows.len().max(1) as f64).exp() - 1.0) * 100.0;
    }
    out
}

/// Geometric mean of the per-workload baseline speedups of the `-O0`
/// rows over the `-O1` rows (the O1 experiment's acceptance number:
/// ≥ 1.3×).
pub fn geomean_baseline_speedup(o0: &[Fig4Row], o1: &[Fig4Row]) -> f64 {
    if o0.is_empty() {
        return 0.0;
    }
    let logsum: f64 = o0
        .iter()
        .zip(o1)
        .map(|(a, b)| a.baseline_speedup(b).ln())
        .sum();
    (logsum / o0.len() as f64).exp()
}

/// One Fig. 5 row: Eq. 8 speedups for a SPEC workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Row {
    /// Workload name.
    pub name: String,
    /// BOGO, WDL narrow, WDL wide, HWST128.
    pub speedup: [f64; 4],
}

/// Computes the Fig. 5 speedups for one workload.
///
/// # Errors
///
/// Returns the failing scheme's compile/trap message from the profile
/// runs, prefixed with the workload name.
pub fn try_fig5_row(wl: &Workload, scale: Scale) -> Result<Fig5Row, String> {
    use hwst128::baselines::{hwst_speedup, try_profile_workload, Comparator};
    let p = try_profile_workload(&wl.module(scale), wl.fuel(scale))
        .map_err(|e| format!("{}: {e}", wl.name))?;
    Ok(Fig5Row {
        name: wl.name.to_string(),
        speedup: [
            Comparator::Bogo.speedup(&p),
            Comparator::WdlNarrow.speedup(&p),
            Comparator::WdlWide.speedup(&p),
            hwst_speedup(&p),
        ],
    })
}

/// All Fig. 5 rows (SPEC suite), computed serially. Panics on the
/// first broken workload.
pub fn fig5_rows(scale: Scale) -> Vec<Fig5Row> {
    hwst128::workloads::spec_suite()
        .iter()
        .map(|wl| try_fig5_row(wl, scale).unwrap_or_else(|e| panic!("{e}")))
        .collect()
}

/// Geometric mean per speedup column (paper: 1.31 / 1.58 / 1.64 / 3.74).
pub fn fig5_geomean(rows: &[Fig5Row]) -> [f64; 4] {
    let mut out = [0.0; 4];
    for (i, o) in out.iter_mut().enumerate() {
        let logsum: f64 = rows.iter().map(|r| r.speedup[i].ln()).sum();
        *o = (logsum / rows.len() as f64).exp();
    }
    out
}

/// `HWST128_tchk` cycle count of one workload at a given keybuffer
/// size (A1 ablation).
///
/// # Errors
///
/// Returns the compile error or trap, prefixed with the workload name
/// and keybuffer size.
pub fn try_cycles_with_keybuffer(
    wl: &Workload,
    scale: Scale,
    entries: usize,
) -> Result<u64, String> {
    let module = wl.module(scale);
    let prog = compile(&module, Scheme::Hwst128Tchk)
        .map_err(|e| format!("{} (kb={entries}): {e}", wl.name))?;
    let mut cfg = SafetyConfig::default();
    cfg.pipeline.keybuffer_entries = entries;
    cfg.keybuffer = entries > 0;
    let exit = run_fast(
        &mut Machine::new(prog, cfg),
        wl.fuel(scale),
        &mut BlockCache::new(),
    )
    .map_err(|e| format!("{} (kb={entries}): {e}", wl.name))?;
    Ok(exit.stats.total_cycles())
}

use hwst128::sim::inject::{FaultClass, OutcomeCounts};

/// Campaign parameters for [`runs::resilience_jobs`] (experiment R1).
#[derive(Debug, Clone, Copy)]
pub struct ResilienceConfig {
    /// Faulted runs per (fault class, target) cell.
    pub seeds_per_target: u64,
    /// Reachable Juliet cases sampled per CWE.
    pub juliet_per_cwe: u32,
    /// Base of the deterministic seed sequence.
    pub master_seed: u64,
    /// Workload names drawn from the Fig. 4 set (temporal-heavy A1
    /// subset by default — lock/keybuffer faults need `tchk` traffic to
    /// be observable).
    pub workloads: &'static [&'static str],
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            seeds_per_target: 8,
            juliet_per_cwe: 2,
            master_seed: 0xC0FF_EE00,
            workloads: &["bzip2", "hmmer", "health", "math"],
        }
    }
}

impl ResilienceConfig {
    /// The deterministic seed sequence used for every campaign cell.
    pub fn seeds(&self) -> Vec<u64> {
        (0..self.seeds_per_target)
            .map(|i| self.master_seed.wrapping_add(i))
            .collect()
    }
}

/// One R1 row: per-fault-class outcome counters, split by target group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResilienceRow {
    /// The injected fault class.
    pub class: FaultClass,
    /// Aggregated over the Fig. 4 workload subset.
    pub workloads: OutcomeCounts,
    /// Aggregated over the sampled Juliet cases.
    pub juliet: OutcomeCounts,
}

/// The R1 graceful-degradation guarantee: on the clean (bug-free)
/// temporal-heavy workloads, lock-word and shadow-word corruption must
/// never be *silent* — every injected fault is either detected by the
/// checks or provably benign. Returns the offending rows, empty on pass.
pub fn resilience_guarantee_violations(rows: &[ResilienceRow]) -> Vec<ResilienceRow> {
    rows.iter()
        .filter(|r| {
            matches!(
                r.class,
                FaultClass::LockWordOverwrite | FaultClass::ShadowWordFlip
            ) && r.workloads.silent > 0
        })
        .copied()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwst128::config_for;

    #[test]
    fn fig4_row_computes_eq7() {
        let wl = Workload::by_name("math").unwrap();
        let r = try_fig4_row(&wl, Scale::Test, OptLevel::O0).unwrap();
        assert!(r.overhead_pct[0] > r.overhead_pct[1]);
        assert!(r.overhead_pct[1] > r.overhead_pct[2]);
        assert!(r.overhead_pct[2] > 0.0);
    }

    #[test]
    fn geomean_of_equal_rows_is_identity() {
        let rows = vec![
            Fig4Row {
                name: "a".into(),
                suite: Suite::MiBench,
                baseline_cycles: 1,
                overhead_pct: [100.0, 50.0, 25.0],
            },
            Fig4Row {
                name: "b".into(),
                suite: Suite::MiBench,
                baseline_cycles: 1,
                overhead_pct: [100.0, 50.0, 25.0],
            },
        ];
        let g = fig4_geomean(&rows);
        assert!((g[0] - 100.0).abs() < 1e-9);
        assert!((g[1] - 50.0).abs() < 1e-9);
        assert!((g[2] - 25.0).abs() < 1e-9);
    }

    #[test]
    fn keybuffer_ablation_is_monotone_on_temporal_workload() {
        let wl = Workload::by_name("bzip2").unwrap();
        let cycles = |entries| try_cycles_with_keybuffer(&wl, Scale::Test, entries).unwrap();
        let (none, one, eight) = (cycles(0), cycles(1), cycles(8));
        assert!(
            none > one,
            "a single entry must already help: {none} vs {one}"
        );
        assert!(one >= eight, "more entries never hurt: {one} vs {eight}");
    }

    #[test]
    fn config_for_matches_paper_setups() {
        assert!(!config_for(Scheme::Sbcets).temporal);
        assert!(config_for(Scheme::Hwst128Tchk).temporal);
    }
}
