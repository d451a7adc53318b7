//! The jobs of the pool-driven sweeps: every figure/ablation matrix
//! expressed as a [`hwst_harness::Job`] vector, which `hwst-bench` runs
//! on its worker pool.
//!
//! Determinism contract: each function enumerates its jobs in the same
//! nested order the historical serial loops used, and the harness
//! returns results in job-ID order — so a `--jobs 16` run produces the
//! same rows, in the same order, with the same aggregates as
//! `--jobs 1` (see `tests/harness_e2e.rs` and `crates/harness`'s own
//! determinism test).

use crate::{try_cycles_with_keybuffer, ResilienceConfig, ResilienceRow};
use hwst128::compiler::binval;
use hwst128::compiler::{compile, CompileOptions, OptLevel, Scheme};
use hwst128::exec::inject::campaign;
use hwst128::isa::Program;
use hwst128::juliet::{measure_case, CaseDetections};
use hwst128::sim::inject::{FaultClass, OutcomeCounts};
use hwst128::sim::Machine;
use hwst128::workloads::{all, Scale, Workload};
use hwst_harness::Job;

/// One job per workload, labelled `<prefix>/<name>`, computing
/// `row(&workload)`; the pool returns the rows in `workloads` order.
pub fn workload_jobs<T: Send + 'static>(
    prefix: &str,
    workloads: Vec<Workload>,
    row: impl Fn(&Workload) -> Result<T, String> + Clone + Send + 'static,
) -> Vec<Job<T>> {
    workloads
        .into_iter()
        .map(|wl| {
            let row = row.clone();
            Job::new(format!("{prefix}/{}", wl.name), move || row(&wl))
        })
        .collect()
}

/// Cases per Fig. 6 job: small enough to spread the 8366-case suite
/// over any worker count, large enough to amortise job overhead.
pub const FIG6_CHUNK: usize = 64;

/// The measured Fig. 6 Juliet sweep over `1/stride` of the suite, in
/// chunks of [`FIG6_CHUNK`] cases; folding the per-case verdicts in job
/// order gives the report in suite order.
pub fn fig6_jobs(stride: usize) -> Vec<Job<Vec<CaseDetections>>> {
    let cases: Vec<_> = hwst128::juliet::suite()
        .into_iter()
        .step_by(stride.max(1))
        .collect();
    cases
        .chunks(FIG6_CHUNK)
        .enumerate()
        .map(|(i, chunk)| {
            let chunk = chunk.to_vec();
            Job::new(format!("fig6/chunk{i:03}"), move || {
                Ok(chunk.iter().map(measure_case).collect())
            })
        })
        .collect()
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

/// The A1 keybuffer sweep: one job per workload in `names`, labelled
/// `a1/<name>`, running it at every keybuffer size in `sizes`.
///
/// # Errors
///
/// Returns `Err` for an unknown workload name — nothing has run at that
/// point.
pub fn keybuffer_jobs(
    names: &[&str],
    sizes: &[usize],
    scale: Scale,
) -> Result<Vec<Job<KeybufferRow>>, String> {
    let workloads = names
        .iter()
        .map(|name| Workload::by_name(name).ok_or_else(|| format!("unknown workload `{name}`")))
        .collect::<Result<_, _>>()?;
    let sizes = sizes.to_vec();
    Ok(workload_jobs("a1", workloads, move |wl| {
        let cycles = sizes
            .iter()
            .map(|&entries| try_cycles_with_keybuffer(wl, scale, entries))
            .collect::<Result<_, _>>()?;
        Ok(KeybufferRow {
            name: wl.name.to_string(),
            cycles,
        })
    }))
}

/// One R1 campaign cell's counts: `(fault class index, target group,
/// counts)`, group 0 being the Fig. 4 workloads and 1 the Juliet cases.
pub type ResilienceCell = (usize, usize, OutcomeCounts);

/// The R1 fault-injection campaign: one job per `(fault class, target)`
/// cell, in the historical serial nesting; [`resilience_rows`] merges
/// them into per-class rows. One job per target would share the
/// reference run across classes, but bzip2's campaign is most of R1's
/// work, and as one job it would run on one worker.
///
/// # Errors
///
/// Returns `Err` when a target fails to *compile* — nothing has run at
/// that point.
pub fn resilience_jobs(
    rc: &ResilienceConfig,
    scale: Scale,
) -> Result<Vec<Job<ResilienceCell>>, String> {
    let safety = hwst128::config_for(Scheme::Hwst128Tchk);
    // Targets are compiled once, serially, and shared (cloned) into
    // every campaign cell.
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
                let m = Machine::new(prog, safety);
                Ok((ci, group, campaign(&m, fuel, &[class], &seeds)[0]))
            }));
        }
    }
    Ok(jobs)
}

/// Merges R1 campaign cells into one row per fault class, in
/// [`FaultClass::ALL`] order.
pub fn resilience_rows(cells: Vec<ResilienceCell>) -> Vec<ResilienceRow> {
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
    rows
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

/// The binval gate at back-end tier `opt`: one job per (workload ×
/// scheme) cell, workloads outermost, each with `seeds_per_scheme`
/// mutation seeds.
pub fn binval_jobs(scale: Scale, seeds_per_scheme: u64, opt: OptLevel) -> Vec<Job<BinvalRow>> {
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
    jobs
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
    use crate::try_fig4_row;
    use hwst_harness::{collect_ok, run};

    /// Per-workload jobs carry `<prefix>/<name>` labels and come back
    /// in input order with the rows of the direct serial computation,
    /// regardless of worker count.
    #[test]
    fn workload_jobs_match_serial_rows() {
        let names = ["string", "math", "treeadd", "bzip2"];
        let workloads: Vec<Workload> = names
            .iter()
            .map(|n| Workload::by_name(n).unwrap())
            .collect();
        let row = |wl: &Workload| try_fig4_row(wl, Scale::Test, OptLevel::O0);
        let labels: Vec<String> = workload_jobs("fig4", workloads.clone(), row)
            .iter()
            .map(|j| j.label().to_string())
            .collect();
        assert_eq!(labels, names.map(|n| format!("fig4/{n}")));
        let serial: Vec<_> = workloads.iter().map(|wl| row(wl).unwrap()).collect();
        let (rows, failed) = collect_ok(run(workload_jobs("fig4", workloads, row), 4));
        assert!(failed.is_empty(), "{failed:?}");
        assert_eq!(rows, serial);
    }

    /// The A1 sweep's rows match the direct per-cell computation.
    #[test]
    fn keybuffer_grid_matches_direct_cells() {
        let jobs = keybuffer_jobs(&["bzip2"], &[0, 1], Scale::Test).unwrap();
        let (rows, failed) = collect_ok(run(jobs, 2));
        assert!(failed.is_empty(), "{failed:?}");
        let wl = Workload::by_name("bzip2").unwrap();
        assert_eq!(rows[0].name, "bzip2");
        assert_eq!(
            rows[0].cycles[0],
            try_cycles_with_keybuffer(&wl, Scale::Test, 0).unwrap()
        );
        assert_eq!(
            rows[0].cycles[1],
            try_cycles_with_keybuffer(&wl, Scale::Test, 1).unwrap()
        );
    }

    /// An unknown workload in the A1 sweep is a structured error, not
    /// a panic.
    #[test]
    fn keybuffer_grid_reports_unknown_workload() {
        let err = keybuffer_jobs(&["no-such-workload"], &[0], Scale::Test)
            .err()
            .expect("an unknown workload is an error");
        assert!(err.contains("unknown workload"), "{err}");
    }
}
