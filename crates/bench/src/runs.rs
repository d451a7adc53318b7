//! Harness-driven sweeps: every figure/ablation matrix expressed as
//! [`hwst_harness::Job`] vectors and executed on the worker pool.
//!
//! Determinism contract: each function enumerates its jobs in the same
//! nested order the historical serial loops used, and the harness
//! returns results in job-ID order — so a `--jobs 16` run produces the
//! same rows, in the same order, with the same aggregates as
//! `--jobs 1` (see `tests/harness_e2e.rs` and `crates/harness`'s own
//! determinism test).

use crate::exec::{try_exec_row, ExecRow};
use crate::profile::{try_profile_row, ProfileRow};
use crate::{
    try_cycles_with_keybuffer, try_fig4_o1_row, try_fig4_row, try_fig5_row, Fig4O1Row, Fig4Row,
    Fig5Row, ResilienceConfig, ResilienceRow,
};
use hwst128::compiler::binval;
use hwst128::compiler::{compile, CompileOptions, OptLevel, Scheme};
use hwst128::isa::Program;
use hwst128::juliet::{measure_case, CoverageReport};
use hwst128::sim::inject::{campaign, FaultClass, OutcomeCounts};
use hwst128::sim::Machine;
use hwst128::workloads::{all, spec_suite, Scale, Workload};
use hwst_harness::{collect_ok, run, FailedJob, Job, JobResult, PoolConfig, Sink};

/// A job computing one row for workload `name`; an unknown name
/// becomes a failing job (a structured failure, not a panic).
fn workload_job<T: Send + 'static>(
    label: String,
    name: &str,
    row: impl FnOnce(&Workload) -> Result<T, String> + Send + 'static,
) -> Job<T> {
    let wl = Workload::by_name(name).ok_or_else(|| format!("unknown workload `{name}`"));
    Job::new(label, move || row(&wl?))
}

/// Runs the Fig. 4 sweep on the pool, one job per workload; results in
/// the paper's row order.
pub fn fig4_results(
    scale: Scale,
    cfg: &PoolConfig,
    sink: &mut dyn Sink,
) -> Vec<JobResult<Fig4Row>> {
    let jobs = all()
        .into_iter()
        .map(|wl| {
            Job::new(format!("fig4/{}", wl.name), move || {
                try_fig4_row(&wl, scale)
            })
        })
        .collect();
    run(jobs, cfg, sink)
}

/// Runs the O1 experiment on the pool, one job per workload; results
/// in `names` order.
pub fn fig4_o1_results(
    names: &[&str],
    scale: Scale,
    cfg: &PoolConfig,
    sink: &mut dyn Sink,
) -> Vec<JobResult<Fig4O1Row>> {
    let jobs = names
        .iter()
        .map(|name| {
            workload_job(format!("fig4_o1/{name}"), name, move |wl| {
                try_fig4_o1_row(wl, scale)
            })
        })
        .collect();
    run(jobs, cfg, sink)
}

/// Runs the Fig. 5 sweep on the pool, one job per SPEC workload;
/// results in the paper's row order.
pub fn fig5_results(
    scale: Scale,
    cfg: &PoolConfig,
    sink: &mut dyn Sink,
) -> Vec<JobResult<Fig5Row>> {
    let jobs = spec_suite()
        .into_iter()
        .map(|wl| {
            Job::new(format!("fig5/{}", wl.name), move || {
                try_fig5_row(&wl, scale)
            })
        })
        .collect();
    run(jobs, cfg, sink)
}

/// Cases per Fig. 6 job: small enough to spread the 8366-case suite
/// over any worker count, large enough to amortise job overhead.
pub const FIG6_CHUNK: usize = 64;

/// Runs the measured Fig. 6 Juliet sweep (`1/stride` of the suite) on
/// the pool. Per-case verdicts are folded into the report in job-ID
/// (i.e. suite) order; a failed chunk surfaces as [`FailedJob`]s and
/// its cases are excluded from `total_cases`.
pub fn fig6_results(
    stride: usize,
    cfg: &PoolConfig,
    sink: &mut dyn Sink,
) -> (CoverageReport, Vec<FailedJob>) {
    let cases: Vec<_> = hwst128::juliet::suite()
        .into_iter()
        .step_by(stride.max(1))
        .collect();
    let jobs: Vec<Job<Vec<hwst128::juliet::CaseDetections>>> = cases
        .chunks(FIG6_CHUNK)
        .enumerate()
        .map(|(i, chunk)| {
            let chunk = chunk.to_vec();
            Job::new(format!("fig6/chunk{i:03}"), move || {
                Ok(chunk.iter().map(measure_case).collect())
            })
        })
        .collect();
    let (batches, failed) = collect_ok(run(jobs, cfg, sink));
    let mut report = CoverageReport::default();
    for batch in batches {
        for d in &batch {
            report.absorb(d);
        }
    }
    (report, failed)
}

/// One A1 keybuffer-ablation row: cycles per swept size, in `sizes`
/// order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeybufferRow {
    /// Workload name.
    pub name: String,
    /// `HWST128_tchk` cycles at each swept keybuffer size.
    pub cycles: Vec<u64>,
}

/// Runs the A1 keybuffer grid (one job per `(workload, size)` cell) on
/// the pool. Rows are only assembled when every cell of the workload
/// succeeded; failed cells are reported individually.
pub fn keybuffer_results(
    names: &[&str],
    sizes: &[usize],
    scale: Scale,
    cfg: &PoolConfig,
    sink: &mut dyn Sink,
) -> (Vec<KeybufferRow>, Vec<FailedJob>) {
    // One job per cell, unknown workloads included, keeps the grid
    // aligned for the chunked row assembly below.
    let mut jobs = Vec::new();
    for name in names {
        for &entries in sizes {
            jobs.push(workload_job(
                format!("a1/{name}/{entries}"),
                name,
                move |wl| try_cycles_with_keybuffer(wl, scale, entries),
            ));
        }
    }
    let results = run(jobs, cfg, sink);
    let per_row = sizes.len().max(1);
    let mut rows = Vec::new();
    let mut failed = Vec::new();
    for (name, chunk) in names.iter().zip(results.chunks(per_row)) {
        let mut cycles = Vec::with_capacity(per_row);
        for r in chunk {
            match r.outcome.clone().into_result() {
                Ok(c) => cycles.push(c),
                Err(error) => failed.push(FailedJob {
                    id: r.id,
                    label: r.label.clone(),
                    error,
                }),
            }
        }
        if cycles.len() == per_row {
            rows.push(KeybufferRow {
                name: name.to_string(),
                cycles,
            });
        }
    }
    (rows, failed)
}

/// Runs the R1 fault-injection campaign on the pool: one job per
/// `(fault class, target)` cell, merged into per-class rows in job-ID
/// order (identical to the historical serial nesting).
///
/// # Errors
///
/// Returns `Err` when a target fails to *compile* — nothing has run at
/// that point. Per-cell campaign failures come back as [`FailedJob`]s
/// next to the (partial) rows.
#[allow(clippy::type_complexity)]
pub fn resilience_results(
    rc: &ResilienceConfig,
    scale: Scale,
    cfg: &PoolConfig,
    sink: &mut dyn Sink,
) -> Result<(Vec<ResilienceRow>, Vec<FailedJob>), String> {
    let safety = hwst128::config_for(Scheme::Hwst128Tchk);
    // Targets are compiled once, serially, and shared (cloned) into
    // every campaign cell; group 0 = Fig. 4 workloads, 1 = Juliet.
    let mut targets: Vec<(usize, String, Program, u64)> = Vec::new();
    for name in rc.workloads {
        let wl = Workload::by_name(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
        let prog =
            compile(&wl.module(scale), Scheme::Hwst128Tchk).map_err(|e| format!("{name}: {e}"))?;
        targets.push((0, wl.name.to_string(), prog, wl.fuel(scale)));
    }
    for case in hwst128::juliet::sample_reachable(rc.juliet_per_cwe) {
        let module = hwst128::juliet::build_program(&case);
        let prog = compile(&module, Scheme::Hwst128Tchk)
            .map_err(|e| format!("juliet CWE{}: {e}", case.cwe.code()))?;
        targets.push((
            1,
            format!("CWE{}#{}", case.cwe.code(), case.index),
            prog,
            5_000_000,
        ));
    }
    let seeds = rc.seeds();
    let mut jobs = Vec::new();
    for (ci, &class) in FaultClass::ALL.iter().enumerate() {
        for (group, name, prog, fuel) in &targets {
            let (group, fuel) = (*group, *fuel);
            let prog = prog.clone();
            let seeds = seeds.clone();
            jobs.push(Job::new(format!("r1/{}/{name}", class.name()), move || {
                Ok((
                    ci,
                    group,
                    campaign(|| Machine::new(prog.clone(), safety), fuel, class, &seeds),
                ))
            }));
        }
    }
    let (cells, failed) = collect_ok(run(jobs, cfg, sink));
    let mut rows: Vec<ResilienceRow> = FaultClass::ALL
        .iter()
        .map(|&class| ResilienceRow {
            class,
            workloads: OutcomeCounts::default(),
            juliet: OutcomeCounts::default(),
        })
        .collect();
    for (ci, group, counts) in cells {
        if group == 0 {
            rows[ci].workloads.merge(counts);
        } else {
            rows[ci].juliet.merge(counts);
        }
    }
    Ok((rows, failed))
}

/// The schemes the binary validator gates, in report order.
pub const BINVAL_SCHEMES: [Scheme; 4] = [
    Scheme::Sbcets,
    Scheme::Hwst128,
    Scheme::Hwst128Tchk,
    Scheme::Shore,
];

/// Master seed of the deterministic mutation campaign (EXPERIMENTS.md
/// A9); per-mutant seeds are stretched from it with splitmix64 inside
/// `binval::mutation_campaign`.
pub const BINVAL_MASTER_SEED: u64 = 0xB17A_1000;

/// One cell of the binval gate: a workload validated under one scheme,
/// with the A9 discharge counters and the mutation-campaign verdict.
#[derive(Debug, Clone)]
pub struct BinvalRow {
    /// Workload name.
    pub name: String,
    /// Scheme label (`{:?}` of [`Scheme`]).
    pub scheme: String,
    /// IR-level completeness verdict.
    pub ir_ok: bool,
    /// Binary-level validation verdict.
    pub bin_ok: bool,
    /// Statically-proven program bugs (informational; zero on the
    /// benign workload suite).
    pub static_bugs: usize,
    /// Checked machine accesses analysed.
    pub checked_ops: usize,
    /// IR-level checks removed by RCE (the A9 baseline).
    pub rce_removed: usize,
    /// Checks proven in-bounds at binary level.
    pub discharged_in_bounds: usize,
    /// Checks proven redundant at binary level.
    pub discharged_redundant: usize,
    /// Candidate mutation sites in the lowered image.
    pub mutation_candidates: usize,
    /// Mutants generated by the seeded campaign.
    pub mutants: usize,
    /// Mutants the validator rejected.
    pub mutants_killed: usize,
}

impl BinvalRow {
    /// Checks discharged at binary level beyond IR-level RCE.
    pub fn discharged(&self) -> usize {
        self.discharged_in_bounds + self.discharged_redundant
    }
}

/// Validates one workload under one scheme at back-end tier `opt` and
/// runs the seeded mutation campaign against it. At `-O0` the classic
/// metadata-plumbing mutation campaign runs (with IR-level RCE for the
/// A9 baseline); at `-O1` the register-allocation campaign runs
/// instead — its operators target the invariants only the optimizer
/// can break, and its sites are enumerated semantically so the 100%
/// kill bar is meaningful on optimized images.
///
/// # Errors
///
/// Translation-validation divergence, lowering findings and surviving
/// mutants are all *hard errors*, as are compile failures.
pub fn try_binval_row(
    wl: &Workload,
    scale: Scale,
    scheme: Scheme,
    seeds: &[u64],
    opt: OptLevel,
) -> Result<BinvalRow, String> {
    let module = wl.module(scale);
    let opts = match opt {
        OptLevel::O0 => CompileOptions::new(scheme).with_rce(),
        OptLevel::O1 => CompileOptions::new(scheme).with_opt(OptLevel::O1),
    };
    let tv = binval::translation_validate(&module, opts)
        .map_err(|e| format!("{} ({scheme:?}): {e}", wl.name))?;
    if tv.diverged() {
        return Err(format!(
            "{} ({scheme:?}): translation validation diverged — IR verdict {}, binary \
             verdict {} ({})",
            wl.name,
            tv.ir_ok,
            tv.report.ok(),
            tv.ir_error.clone().unwrap_or_else(|| tv
                .report
                .findings
                .first()
                .map(|f| f.to_string())
                .unwrap_or_default()),
        ));
    }
    if !tv.report.ok() {
        let first = tv
            .report
            .findings
            .iter()
            .find(|f| f.class == binval::FindingClass::Lowering)
            .map(|f| f.to_string())
            .unwrap_or_default();
        return Err(format!(
            "{} ({scheme:?}): {} lowering finding(s), first: {first}",
            wl.name,
            tv.report.lowering_findings()
        ));
    }
    let mc = match opt {
        OptLevel::O0 => binval::mutation_campaign(&module, scheme, seeds),
        OptLevel::O1 => binval::reg_mutation_campaign(&module, scheme, OptLevel::O1, seeds),
    }
    .map_err(|e| format!("{} ({scheme:?}): {e}", wl.name))?;
    if !mc.all_killed() {
        let survivor = mc
            .outcomes
            .iter()
            .find(|o| !o.killed)
            .map(|o| {
                format!(
                    "{} seed={:#x} in {} (pc {:#x})",
                    o.mutation, o.seed, o.func, o.pc
                )
            })
            .unwrap_or_default();
        return Err(format!(
            "{} ({scheme:?}): {}/{} mutants survived, e.g. {survivor}",
            wl.name,
            mc.total() - mc.killed(),
            mc.total()
        ));
    }
    let rce = &tv.rce;
    Ok(BinvalRow {
        name: wl.name.to_string(),
        scheme: format!("{scheme:?}"),
        ir_ok: tv.ir_ok,
        bin_ok: tv.report.ok(),
        static_bugs: tv.report.static_bugs(),
        checked_ops: tv.report.checked_ops(),
        rce_removed: rce.tchk_removed
            + rce.spatial_removed
            + rce.temporal_removed
            + rce.patterns_removed,
        discharged_in_bounds: tv.report.funcs.iter().map(|f| f.discharged_in_bounds).sum(),
        discharged_redundant: tv.report.funcs.iter().map(|f| f.discharged_redundant).sum(),
        mutation_candidates: mc.candidates,
        mutants: mc.total(),
        mutants_killed: mc.killed(),
    })
}

/// Runs the binval gate on the pool at back-end tier `opt`: one job per
/// (workload × scheme) cell, workloads outermost, each with
/// `seeds_per_scheme` mutation seeds; results in job order.
pub fn binval_results(
    scale: Scale,
    seeds_per_scheme: u64,
    opt: OptLevel,
    cfg: &PoolConfig,
    sink: &mut dyn Sink,
) -> Vec<JobResult<BinvalRow>> {
    let seeds: Vec<u64> = (0..seeds_per_scheme)
        .map(|i| BINVAL_MASTER_SEED + i)
        .collect();
    let mut jobs = Vec::new();
    for wl in all() {
        for scheme in BINVAL_SCHEMES {
            let seeds = seeds.clone();
            jobs.push(Job::new(
                format!("binval/{}/{scheme:?}", wl.name),
                move || try_binval_row(&wl, scale, scheme, &seeds, opt),
            ));
        }
    }
    run(jobs, cfg, sink)
}

/// The P1 smoke subset: one workload per suite flavour (string-heavy,
/// arithmetic, pointer-chasing, temporal-heavy) — the CI configuration.
pub const PROFILE_SMOKE_WORKLOADS: [&str; 4] = ["string", "math", "treeadd", "bzip2"];

/// Workload names of the P1 sweep: the smoke subset, or every Fig. 4
/// workload in the paper's row order.
pub fn profile_names(smoke: bool) -> Vec<&'static str> {
    if smoke {
        PROFILE_SMOKE_WORKLOADS.to_vec()
    } else {
        all().iter().map(|wl| wl.name).collect()
    }
}

/// Runs the P1 sweep on the pool, one job per workload; results in
/// `names` order.
pub fn profile_results(
    names: &[&str],
    scale: Scale,
    cfg: &PoolConfig,
    sink: &mut dyn Sink,
) -> Vec<JobResult<ProfileRow>> {
    let jobs = names
        .iter()
        .map(|name| {
            workload_job(format!("profile/{name}"), name, move |wl| {
                try_profile_row(wl, scale)
            })
        })
        .collect();
    run(jobs, cfg, sink)
}

/// Runs the X1 sweep on the pool with the images built at back-end tier
/// `opt`, one job per workload (both engines timed, the results
/// differentially compared); results in `names` order.
pub fn exec_results(
    names: &[&str],
    scale: Scale,
    opt: OptLevel,
    cfg: &PoolConfig,
    sink: &mut dyn Sink,
) -> Vec<JobResult<ExecRow>> {
    let jobs = names
        .iter()
        .map(|name| {
            workload_job(format!("exec/{name}"), name, move |wl| {
                try_exec_row(wl, scale, opt)
            })
        })
        .collect();
    run(jobs, cfg, sink)
}

/// One build configuration of the A10 bounds ablation: a workload
/// compiled with a given scheme/pass combination and executed once.
#[derive(Debug, Clone, Copy)]
pub struct BoundsRun {
    /// Static check sites surviving in the instrumented IR.
    pub static_checks: usize,
    /// Sites the bounds pass proved in-bounds (zero when it was off).
    pub proven: usize,
    /// Total cycles.
    pub cycles: u64,
    /// Dynamic `tchk` executions (keybuffer hits + misses; zero for
    /// schemes without the hardware temporal path).
    pub dynamic_tchks: u64,
}

/// One workload of the A10 bounds ablation: baseline cycles plus the
/// `[plain, rce, rce+bounds]` triple per instrumented scheme, and the
/// witness-forging campaign verdict.
#[derive(Debug, Clone)]
pub struct BoundsRow {
    /// Workload name.
    pub name: String,
    /// Its suite.
    pub suite: hwst128::workloads::Suite,
    /// Uninstrumented (`Scheme::None`) cycles — the Eq. 7 denominator.
    pub baseline_cycles: u64,
    /// `(scheme label, [plain, rce, rce+bounds])` per scheme.
    pub runs: Vec<(String, [BoundsRun; 3])>,
    /// Witnessed skips in the campaign image.
    pub campaign_skips: usize,
    /// Witness forgeries applied.
    pub campaign_mutants: usize,
    /// Forgeries the binary validator rejected.
    pub campaign_killed: usize,
}

impl BoundsRow {
    /// The `HWST128_tchk` triple (the headline row of the A10 table).
    pub fn tchk(&self) -> &[BoundsRun; 3] {
        self.runs
            .iter()
            .find(|(label, _)| label == Scheme::Hwst128Tchk.label())
            .map(|(_, runs)| runs)
            .unwrap_or_else(|| panic!("{}: no HWST128_tchk runs", self.name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwst_harness::NullSink;

    /// The parallel fig4 path produces rows identical to the direct
    /// serial computation, regardless of worker count.
    #[test]
    fn fig4_parallel_matches_serial_rows() {
        let wl = Workload::by_name("math").unwrap();
        let serial = try_fig4_row(&wl, Scale::Test).unwrap();
        let jobs = vec![Job::new("fig4/math", move || {
            try_fig4_row(&wl, Scale::Test)
        })];
        let results = run(jobs, &PoolConfig::parallel(4), &mut NullSink);
        let row = results[0].outcome.ok().expect("row computed");
        assert_eq!(row.name, serial.name);
        assert_eq!(row.baseline_cycles, serial.baseline_cycles);
        assert_eq!(row.overhead_pct, serial.overhead_pct);
    }

    /// The A1 grid assembles rows in name × size order and matches the
    /// direct per-cell computation.
    #[test]
    fn keybuffer_grid_matches_direct_cells() {
        let sizes = [0usize, 1];
        let (rows, failed) = keybuffer_results(
            &["bzip2"],
            &sizes,
            Scale::Test,
            &PoolConfig::parallel(2),
            &mut NullSink,
        );
        assert!(failed.is_empty(), "{failed:?}");
        let wl = Workload::by_name("bzip2").unwrap();
        assert_eq!(
            rows[0].cycles[0],
            try_cycles_with_keybuffer(&wl, Scale::Test, 0).unwrap()
        );
        assert_eq!(
            rows[0].cycles[1],
            try_cycles_with_keybuffer(&wl, Scale::Test, 1).unwrap()
        );
    }

    /// An unknown workload in the A1 grid is a structured failure, not
    /// a panic.
    #[test]
    fn keybuffer_grid_reports_unknown_workload() {
        let (rows, failed) = keybuffer_results(
            &["no-such-workload"],
            &[0],
            Scale::Test,
            &PoolConfig::serial(),
            &mut NullSink,
        );
        assert!(rows.is_empty());
        assert_eq!(failed.len(), 1);
        assert!(failed[0].error.contains("unknown workload"));
    }
}
