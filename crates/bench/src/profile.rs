//! Experiment P1: per-function overhead attribution.
//!
//! Each workload is compiled for `HWST128_tchk` with the lowering plan
//! kept alongside, run under [`hwst128::sim::Machine::run_profiled`]
//! (the reference interpreter),
//! and the per-PC profile is folded through the plan's function ranges
//! (`LowerPlan::func_at_pc`) into a hot-function table. The row
//! carries the whole-run cycle split
//! (base / check / shadow / keybuffer / runtime), the uninstrumented
//! baseline for overhead context, and the hottest functions.
//!
//! Everything here is deterministic: same workload + scale ⇒ the same
//! row, bit for bit, on any worker count.

use hwst128::compiler::{compile, compile_with_options, CompileOptions, Scheme};
use hwst128::sim::Machine;
use hwst128::telemetry::{
    attribute, chrome_trace, collapsed_stacks, Breakdown, FnRow, FnTable, Profiler,
};
use hwst128::workloads::{Scale, Workload};
use hwst128::{config_for, run_scheme};
use hwst_harness::Json;

/// Hot functions carried per row (the table is truncated, the JSON
/// summary carries the same truncation — symbols beyond this are summed
/// into the row totals regardless).
pub const HOT_FNS: usize = 5;

/// Ring-recorder capacity used for trace export.
pub const TRACE_RING: usize = 1 << 16;

/// One P1 row: a workload's cycle-attribution summary.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileRow {
    /// Workload name.
    pub name: String,
    /// Whole-run cycles per category under `HWST128_tchk`.
    pub total: Breakdown,
    /// Uninstrumented (`Scheme::None`) cycles for overhead context.
    pub baseline_cycles: u64,
    /// Fraction of cycles attributed to named functions (startup-shim
    /// cycles are the only unattributed ones).
    pub attributed_fraction: f64,
    /// The [`HOT_FNS`] hottest functions, hottest first.
    pub hot: Vec<FnRow>,
}

impl ProfileRow {
    /// Eq. 7 overhead of the instrumented run over the baseline.
    pub fn overhead_pct(&self) -> f64 {
        (self.total.total() as f64 / self.baseline_cycles as f64 - 1.0) * 100.0
    }
}

fn profiled_table(
    wl: &Workload,
    scale: Scale,
    profiler: &mut Profiler,
) -> Result<(FnTable, u64), String> {
    let module = wl.module(scale);
    let c = compile_with_options(&module, CompileOptions::new(Scheme::Hwst128Tchk))
        .map_err(|e| format!("{} (Hwst128Tchk): {e}", wl.name))?;
    let exit = Machine::new(c.program, config_for(Scheme::Hwst128Tchk))
        .run_profiled(wl.fuel(scale), profiler)
        .map_err(|e| format!("{} (Hwst128Tchk): {e}", wl.name))?;
    let table = attribute(&profiler.profile, |pc| {
        c.plan.func_at_pc(pc).map(|f| f.name.as_str())
    });
    debug_assert_eq!(table.total().total(), exit.stats.total_cycles());
    Ok((table, exit.stats.total_cycles()))
}

/// Computes one P1 row (fail-fast wrapper around [`try_profile_row`]).
pub fn profile_row(wl: &Workload, scale: Scale) -> ProfileRow {
    try_profile_row(wl, scale).unwrap_or_else(|e| panic!("{e}"))
}

/// [`profile_row`] with structured errors.
///
/// # Errors
///
/// Returns `"<workload> (<scheme>): <compile error/trap>"` when either
/// the profiled `HWST128_tchk` run or the baseline run fails.
pub fn try_profile_row(wl: &Workload, scale: Scale) -> Result<ProfileRow, String> {
    let mut profiler = Profiler::new();
    let (table, _) = profiled_table(wl, scale, &mut profiler)?;
    let baseline_cycles = run_scheme(
        &wl.module(scale),
        CompileOptions::new(Scheme::None),
        wl.fuel(scale),
    )
    .map_err(|e| format!("{} (None): {e}", wl.name))?
    .stats
    .total_cycles();
    Ok(ProfileRow {
        name: wl.name.to_string(),
        total: table.total(),
        baseline_cycles,
        attributed_fraction: table.attributed_fraction(),
        hot: table.rows.into_iter().take(HOT_FNS).collect(),
    })
}

/// The exportable artefacts of one profiled run: a Chrome trace-event
/// document (Perfetto-loadable) and collapsed-stack text for flamegraph
/// tooling.
#[derive(Debug, Clone)]
pub struct ProfileTrace {
    /// The `{"traceEvents": ...}` document.
    pub chrome: Json,
    /// `frame;frame count` lines.
    pub collapsed: String,
    /// Spans dropped by the ring recorder (0 unless the run out-ran
    /// [`TRACE_RING`]).
    pub dropped: u64,
}

/// Re-runs `wl` with a span recorder attached and exports both trace
/// forms.
///
/// # Errors
///
/// Same as [`try_profile_row`]'s profiled run.
pub fn try_profile_trace(wl: &Workload, scale: Scale) -> Result<ProfileTrace, String> {
    let mut profiler = Profiler::with_recorder(TRACE_RING);
    let (table, _) = profiled_table(wl, scale, &mut profiler)?;
    let recorder = profiler.recorder.as_ref();
    let events: Vec<_> = recorder.map(|r| r.to_vec()).unwrap_or_default();
    Ok(ProfileTrace {
        chrome: chrome_trace(&events),
        collapsed: collapsed_stacks(&table),
        dropped: recorder.map_or(0, |r| r.dropped()),
    })
}

/// Mean fraction of total cycles per category, over the given rows (in
/// [`Breakdown::CATEGORIES`] order) — the table's summary line.
pub fn profile_mean_fractions(rows: &[ProfileRow]) -> [f64; 5] {
    let mut out = [0.0f64; 5];
    if rows.is_empty() {
        return out;
    }
    for r in rows {
        let total = r.total.total().max(1) as f64;
        for (slot, (_, cycles)) in out.iter_mut().zip(r.total.iter()) {
            *slot += cycles as f64 / total;
        }
    }
    for slot in &mut out {
        *slot /= rows.len() as f64;
    }
    out
}

/// The P1 determinism check used by tests: a profiled run must not
/// perturb the machine — its cycle total equals the plain run's.
///
/// # Errors
///
/// Compile/trap messages from either run, or a description of the
/// mismatch.
pub fn check_profile_parity(wl: &Workload, scale: Scale) -> Result<(), String> {
    let module = wl.module(scale);
    let prog = compile(&module, Scheme::Hwst128Tchk)
        .map_err(|e| format!("{} (Hwst128Tchk): {e}", wl.name))?;
    let plain = Machine::new(prog.clone(), config_for(Scheme::Hwst128Tchk))
        .run(wl.fuel(scale))
        .map_err(|e| format!("{}: {e}", wl.name))?;
    let mut profiler = Profiler::new();
    let profiled = Machine::new(prog, config_for(Scheme::Hwst128Tchk))
        .run_profiled(wl.fuel(scale), &mut profiler)
        .map_err(|e| format!("{}: {e}", wl.name))?;
    if plain != profiled {
        return Err(format!(
            "{}: profiled run diverged from plain run ({} vs {} cycles)",
            wl.name,
            profiled.stats.total_cycles(),
            plain.stats.total_cycles()
        ));
    }
    if profiler.profile.total().total() != plain.stats.total_cycles() {
        return Err(format!(
            "{}: profile covers {} of {} cycles",
            wl.name,
            profiler.profile.total().total(),
            plain.stats.total_cycles()
        ));
    }
    Ok(())
}
