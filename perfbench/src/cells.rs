//! The three workloads: their generated inputs, their cells, and how
//! one cell runs — untraced through the user-facing entry points, or
//! traced through the same passes called one by one.

use hwst128::compiler::binval::{self, Mutation, RegMutation};
use hwst128::compiler::ir::Module;
use hwst128::compiler::{
    analysis, bounds, compile_with_options, instrument, lower_with_plan_opt, rce, verify,
    CompileError, CompileOptions, LowerPlan, OptLevel, Scheme,
};
use hwst128::config_for;
use hwst128::exec::{run_fast, BlockCache, Engine};
use hwst128::isa::Program;
use hwst128::juliet::{self, Case};
use hwst128::mem::MemoryLayout;
use hwst128::metadata::CompressionConfig;
use hwst128::pipeline::CycleStats;
use hwst128::sim::{Machine, Trap};
use hwst128::workloads::{self, Scale, Workload};

use crate::trace::{Layer, Tracer};

/// Fuel for one Juliet case, as the Fig. 6 harness runs it.
pub const JULIET_FUEL: u64 = 5_000_000;

/// The Fig. 4 schemes, baseline first.
const FIG4_SCHEMES: [Scheme; 4] = Scheme::ALL;
/// The two measured Fig. 6 detectors.
const JULIET_SCHEMES: [Scheme; 2] = [Scheme::Sbcets, Scheme::Hwst128Tchk];
/// Every scheme the compiler emits.
const ALL_SCHEMES: [Scheme; 9] = [
    Scheme::None,
    Scheme::Sbcets,
    Scheme::Hwst128,
    Scheme::Hwst128Tchk,
    Scheme::Shore,
    Scheme::RvCure,
    Scheme::L4Pointer,
    Scheme::CryptSan,
    Scheme::HeapSafe,
];
/// The schemes whose images carry mutation candidates.
const MUTANT_SCHEMES: [Scheme; 3] = [Scheme::Hwst128, Scheme::Hwst128Tchk, Scheme::Shore];
const TIERS: [OptLevel; 2] = [OptLevel::O0, OptLevel::O1];
/// Kernel scale of every workload. At `Scale::Test` a `sweep` pass takes
/// about a second, so a run times each cell many times over.
const SCALE: Scale = Scale::Test;
/// The kernels of the smoke sizing (the repository's smoke subset).
const SMOKE_KERNELS: [&str; 4] = ["string", "math", "treeadd", "bzip2"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Sweep,
    Juliet,
    Validate,
}

impl Kind {
    pub fn parse(s: &str) -> Option<Kind> {
        match s {
            "sweep" => Some(Kind::Sweep),
            "juliet" => Some(Kind::Juliet),
            "validate" => Some(Kind::Validate),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Sweep => "sweep",
            Kind::Juliet => "juliet",
            Kind::Validate => "validate",
        }
    }
}

/// How large a workload is. `full` is the benchmark; `smoke` is the
/// tiny run the package's own test uses.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    pub smoke: bool,
}

impl Sizing {
    fn kernels(self) -> Vec<Workload> {
        let all = workloads::all();
        if self.smoke {
            all.into_iter()
                .filter(|w| SMOKE_KERNELS.contains(&w.name))
                .collect()
        } else {
            all
        }
    }

    /// Every `stride`-th Juliet case is run.
    fn juliet_stride(self) -> usize {
        if self.smoke {
            97
        } else {
            1
        }
    }

    /// Mutant seeds per campaign.
    fn mutant_seeds(self) -> u64 {
        if self.smoke {
            2
        } else {
            3
        }
    }

    pub fn describe(self, kind: Kind) -> String {
        let k = self.kernels().len();
        match kind {
            Kind::Sweep => format!(
                "{k} kernels x 4 Fig. 4 schemes x {{O0,O1}} at {SCALE:?} scale, cold BlockCache per cell"
            ),
            Kind::Juliet => format!(
                "every {} of 8366 Juliet cases x {{SBCETS,HWST128_tchk}} at O0, {JULIET_FUEL} fuel",
                self.juliet_stride()
            ),
            Kind::Validate => format!(
                "{k} kernels x 9 schemes x {{O0,O1}} translation validation + classic (O0) and \
                 register (O1) mutation campaigns x {{HWST128,HWST128_tchk,SHORE}}, {} seeds each",
                self.mutant_seeds()
            ),
        }
    }
}

/// One unit of work.
#[derive(Debug, Clone, Copy)]
pub enum Cell {
    /// Compile kernel `k`, load it and run it on the fast engine.
    Sweep {
        k: usize,
        scheme: Scheme,
        opt: OptLevel,
    },
    /// Build Juliet case `case`, compile it at O0, load and run it.
    Juliet { case: usize, scheme: Scheme },
    /// Translation-validate kernel `k`.
    Tv {
        k: usize,
        scheme: Scheme,
        opt: OptLevel,
    },
    /// The classic (`reg == false`, O0) or register (`reg`, O1)
    /// mutation campaign on kernel `k`.
    Mutants { k: usize, scheme: Scheme, reg: bool },
}

impl Cell {
    /// The compile options a run cell uses.
    pub fn options(self) -> CompileOptions {
        match self {
            Cell::Sweep { scheme, opt, .. } | Cell::Tv { scheme, opt, .. } => {
                CompileOptions::new(scheme).with_opt(opt)
            }
            // The full static pipeline: bounds proofs, redundant-check
            // elimination and the completeness verifier.
            Cell::Juliet { scheme, .. } => CompileOptions::new(scheme)
                .with_bounds()
                .with_rce()
                .with_verify(),
            Cell::Mutants { scheme, reg, .. } => {
                CompileOptions::new(scheme).with_opt(if reg { OptLevel::O1 } else { OptLevel::O0 })
            }
        }
    }

    pub fn scheme(self) -> Scheme {
        self.options().scheme
    }
}

/// The generated inputs of one workload: what set-up builds.
pub struct Inputs {
    pub kind: Kind,
    pub kernels: Vec<Workload>,
    pub modules: Vec<Module>,
    pub cases: Vec<Case>,
    pub cells: Vec<Cell>,
    pub mutant_seeds: Vec<u64>,
    /// Host seconds spent building kernel modules / the Juliet suite.
    pub build_s: (f64, f64),
}

/// `splitmix64`, the seed stretcher the repository's campaigns use.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded Fisher–Yates shuffle.
pub fn shuffle<T>(v: &mut [T], seed: u64) {
    let mut s = seed;
    for i in (1..v.len()).rev() {
        s = splitmix64(s);
        v.swap(i, (s % (i as u64 + 1)) as usize);
    }
}

impl Inputs {
    /// Builds every input of `kind` from `seed`: the kernel modules or
    /// the Juliet suite, the cell list, its seeded order and the
    /// mutant seeds.
    pub fn build(kind: Kind, sizing: Sizing, seed: u64) -> Inputs {
        let t = std::time::Instant::now();
        let kernels = if kind == Kind::Juliet {
            Vec::new()
        } else {
            sizing.kernels()
        };
        let modules: Vec<Module> = kernels.iter().map(|w| w.module(SCALE)).collect();
        let modules_s = t.elapsed().as_secs_f64();
        let t = std::time::Instant::now();
        let cases = if kind == Kind::Juliet {
            juliet::suite()
                .into_iter()
                .step_by(sizing.juliet_stride())
                .collect()
        } else {
            Vec::new()
        };
        let suite_s = t.elapsed().as_secs_f64();
        let mut cells = Vec::new();
        match kind {
            Kind::Sweep => {
                for k in 0..modules.len() {
                    for opt in TIERS {
                        for scheme in FIG4_SCHEMES {
                            cells.push(Cell::Sweep { k, scheme, opt });
                        }
                    }
                }
            }
            Kind::Juliet => {
                for case in 0..cases.len() {
                    for scheme in JULIET_SCHEMES {
                        cells.push(Cell::Juliet { case, scheme });
                    }
                }
            }
            Kind::Validate => {
                for k in 0..modules.len() {
                    for opt in TIERS {
                        for scheme in ALL_SCHEMES {
                            cells.push(Cell::Tv { k, scheme, opt });
                        }
                    }
                    for scheme in MUTANT_SCHEMES {
                        for reg in [false, true] {
                            cells.push(Cell::Mutants { k, scheme, reg });
                        }
                    }
                }
            }
        }
        shuffle(&mut cells, seed);
        let mutant_seeds = (0..sizing.mutant_seeds())
            .map(|i| splitmix64(seed ^ 0xB17A_0000 ^ i))
            .collect();
        Inputs {
            kind,
            kernels,
            modules,
            cases,
            cells,
            mutant_seeds,
            build_s: (modules_s, suite_s),
        }
    }

    fn fuel(&self, cell: Cell) -> u64 {
        match cell {
            Cell::Sweep { k, .. } => self.kernels[k].fuel(SCALE),
            _ => JULIET_FUEL,
        }
    }
}

/// How a run ended: exit code and output, or the trap.
pub type Exit = Result<(u64, Vec<u8>), Trap>;

/// What one cell produced. Two runs of the same cell must produce equal
/// outcomes, whichever path (untraced or traced) ran it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// Compile error, or a campaign that could not start.
    pub error: Option<String>,
    /// Exit code and output, or the trap (run cells only).
    pub exit: Option<Exit>,
    /// Simulated statistics of the run (including a trapped run).
    pub stats: CycleStats,
    pub decodes: u64,
    pub hits: u64,
    pub static_insts: u64,
    pub static_checks: u64,
    pub checks_elided: u64,
    /// Images validated (1 per translation validation, 1 per mutant).
    pub validations: u64,
    /// Translation validation: both levels accept and agree.
    pub tv_ok: bool,
    pub findings: u64,
    pub mutants: u64,
    pub killed: u64,
    /// Instruction index of every mutant, in campaign order.
    pub sites: Vec<usize>,
}

impl Outcome {
    fn failed(e: impl ToString) -> Outcome {
        Outcome {
            error: Some(e.to_string()),
            ..Outcome::default()
        }
    }

    /// Whether a Juliet run counts as a detection.
    pub fn detected(&self) -> bool {
        matches!(self.exit, Some(Err(t)) if t.is_violation())
    }
}

fn finish_run(
    mut out: Outcome,
    m: &Machine,
    r: Result<hwst128::sim::ExitStatus, Trap>,
    cache: &BlockCache,
) -> Outcome {
    out.exit = Some(r.map(|e| (e.code, e.output)));
    out.stats = m.stats();
    out.decodes = cache.decodes();
    out.hits = cache.hits();
    out
}

/// Runs `cell` through the user-facing entry points.
pub fn run_untraced(inp: &Inputs, cell: Cell) -> Outcome {
    match cell {
        Cell::Sweep { .. } | Cell::Juliet { .. } => {
            with_module(inp, cell, |m| run_compiled(inp, cell, m))
        }
        Cell::Tv { k, scheme, opt } => {
            match binval::translation_validate_opt(&inp.modules[k], scheme, opt) {
                Ok(tv) => Outcome {
                    validations: 1,
                    tv_ok: tv.ok(),
                    findings: tv.report.findings.len() as u64,
                    ..Outcome::default()
                },
                Err(e) => Outcome::failed(e),
            }
        }
        Cell::Mutants { k, scheme, reg } => {
            let module = &inp.modules[k];
            let rep = if reg {
                binval::reg_mutation_campaign(module, scheme, OptLevel::O1, &inp.mutant_seeds)
            } else {
                binval::mutation_campaign(module, scheme, &inp.mutant_seeds)
            };
            match rep {
                Ok(rep) => Outcome {
                    validations: rep.total() as u64,
                    findings: rep.outcomes.iter().map(|o| o.findings as u64).sum(),
                    mutants: rep.total() as u64,
                    killed: rep.killed() as u64,
                    sites: rep.outcomes.iter().map(|o| o.site).collect(),
                    ..Outcome::default()
                },
                Err(e) => Outcome::failed(e),
            }
        }
    }
}

fn run_compiled(inp: &Inputs, cell: Cell, module: &Module) -> Outcome {
    let compiled = match compile_with_options(module, cell.options()) {
        Ok(c) => c,
        Err(e) => return Outcome::failed(e),
    };
    let out = Outcome {
        static_insts: compiled.program.len() as u64,
        static_checks: compiled.check_count as u64,
        checks_elided: (compiled.rce.total() + compiled.skips.len()) as u64,
        ..Outcome::default()
    };
    let mut m = Machine::new(compiled.program, config_for(cell.scheme()));
    let mut cache = BlockCache::new();
    let r = Engine::Fast.run(&mut m, inp.fuel(cell), &mut cache);
    finish_run(out, &m, r, &cache)
}

/// What [`compile_by_passes`] returns besides the image.
pub struct PassCounts {
    pub static_checks: u64,
    pub checks_elided: u64,
}

/// `compile_with_options`, one pass at a time and in its order, with a
/// span around each pass.
pub fn compile_by_passes(
    tr: &mut Tracer,
    module: &Module,
    opts: CompileOptions,
) -> Result<(Program, LowerPlan, PassCounts), CompileError> {
    let info = tr.span(Layer::Analysis, |_| analysis::analyze(module))?;
    let outcome = if opts.bounds {
        Some(tr.span(Layer::Bounds, |_| bounds::analyze(module)))
    } else {
        None
    };
    let (mut instrumented, skips) = tr.span(Layer::Instrument, |_| {
        instrument::instrument_with_bounds(module, &info, opts.scheme, outcome.as_ref())
    });
    let (elided, static_checks) = tr.span(Layer::Rce, |_| {
        let elided = if opts.rce {
            rce::eliminate(&mut instrumented).total()
        } else {
            0
        };
        (elided, rce::static_check_count(&instrumented))
    });
    let witnesses = outcome.map(|o| o.witnesses).unwrap_or_default();
    if opts.verify {
        tr.span(Layer::Verify, |_| {
            verify::verify_with(&instrumented, opts.scheme, &skips, &witnesses)
        })?;
    }
    let (program, plan) = tr.span(Layer::Lower, |_| {
        lower_with_plan_opt(&instrumented, opts.scheme, opts.opt)
    })?;
    Ok((
        program,
        plan,
        PassCounts {
            static_checks: static_checks as u64,
            checks_elided: (elided + skips.len()) as u64,
        },
    ))
}

fn validate(program: &Program, plan: &LowerPlan) -> binval::BinvalReport {
    binval::validate(
        program,
        plan,
        CompressionConfig::SPEC_DEFAULT,
        MemoryLayout::default(),
    )
}

/// Runs `cell` pass by pass with a span around every layer call; the
/// outcome must equal [`run_untraced`]'s. Also returns the number of
/// image instructions binval walked.
pub fn run_traced(tr: &mut Tracer, inp: &Inputs, cell: Cell) -> (Outcome, u64) {
    tr.span(Layer::Cell, |tr| match cell {
        Cell::Sweep { k, .. } => (run_by_passes(tr, inp, cell, &inp.modules[k]), 0),
        Cell::Juliet { case, .. } => {
            let module = tr.span(Layer::JulietProgram, |_| {
                juliet::build_program(&inp.cases[case])
            });
            (run_by_passes(tr, inp, cell, &module), 0)
        }
        Cell::Tv { k, scheme, opt } => tv_by_passes(tr, &inp.modules[k], scheme, opt),
        Cell::Mutants { k, reg, .. } => {
            campaign_by_passes(tr, &inp.modules[k], cell, reg, &inp.mutant_seeds)
        }
    })
}

fn run_by_passes(tr: &mut Tracer, inp: &Inputs, cell: Cell, module: &Module) -> Outcome {
    let (program, _plan, counts) = match compile_by_passes(tr, module, cell.options()) {
        Ok(c) => c,
        Err(e) => return Outcome::failed(e),
    };
    let out = Outcome {
        static_insts: program.len() as u64,
        static_checks: counts.static_checks,
        checks_elided: counts.checks_elided,
        ..Outcome::default()
    };
    let mut m = tr.span(Layer::SimLoad, |_| {
        Machine::new(program, config_for(cell.scheme()))
    });
    let mut cache = BlockCache::new();
    let fuel = inp.fuel(cell);
    let r = tr.span(Layer::ExecRun, |_| run_fast(&mut m, fuel, &mut cache));
    finish_run(out, &m, r, &cache)
}

/// `translation_validate_opt`, pass by pass.
fn tv_by_passes(tr: &mut Tracer, module: &Module, scheme: Scheme, opt: OptLevel) -> (Outcome, u64) {
    let info = match tr.span(Layer::Analysis, |_| analysis::analyze(module)) {
        Ok(i) => i,
        Err(e) => return (Outcome::failed(e), 0),
    };
    let instrumented = tr.span(Layer::Instrument, |_| {
        instrument::instrument(module, &info, scheme)
    });
    let ir = tr.span(Layer::Verify, |_| verify::verify(&instrumented, scheme));
    let (program, plan) = match tr.span(Layer::Lower, |_| {
        lower_with_plan_opt(&instrumented, scheme, opt)
    }) {
        Ok(p) => p,
        Err(e) => return (Outcome::failed(e), 0),
    };
    let report = tr.span(Layer::BinvalValidate, |_| validate(&program, &plan));
    let out = Outcome {
        validations: 1,
        tv_ok: ir.is_ok() && report.ok(),
        findings: report.findings.len() as u64,
        ..Outcome::default()
    };
    (out, program.len() as u64)
}

/// `mutation_campaign` / `reg_mutation_campaign`, pass by pass: the
/// same site enumeration, the same `splitmix64` site picks, one span per
/// mutation and per re-validation.
fn campaign_by_passes(
    tr: &mut Tracer,
    module: &Module,
    cell: Cell,
    reg: bool,
    seeds: &[u64],
) -> (Outcome, u64) {
    let opts = cell.options();
    let info = match tr.span(Layer::Analysis, |_| analysis::analyze(module)) {
        Ok(i) => i,
        Err(e) => return (Outcome::failed(e), 0),
    };
    let instrumented = tr.span(Layer::Instrument, |_| {
        instrument::instrument(module, &info, opts.scheme)
    });
    let (program, plan) = match tr.span(Layer::Lower, |_| {
        lower_with_plan_opt(&instrumented, opts.scheme, opts.opt)
    }) {
        Ok(p) => p,
        Err(e) => return (Outcome::failed(e), 0),
    };
    // One (operator index, site list) per operator the campaign tries.
    let lists: Vec<(usize, Vec<usize>)> = tr.span(Layer::BinvalSites, |_| {
        if reg {
            let s = binval::reg_mutation_sites(&program, &plan);
            RegMutation::ALL
                .iter()
                .enumerate()
                .map(|(i, &m)| (i, s.for_op(m).to_vec()))
                .collect()
        } else {
            let s = binval::mutation_sites(&program);
            if s.is_empty() {
                Vec::new()
            } else {
                (0..Mutation::ALL.len()).map(|i| (i, s.clone())).collect()
            }
        }
    });
    let salt: u64 = if reg {
        0x2545_f491_4f6c_dd1d
    } else {
        0xa076_1d64_78bd_642f
    };
    let mut out = Outcome::default();
    for &seed in seeds {
        for (mi, list) in &lists {
            if list.is_empty() {
                continue;
            }
            let pick = splitmix64(seed ^ (*mi as u64).wrapping_mul(salt));
            let site = list[(pick % list.len() as u64) as usize];
            let mutant = tr.span(Layer::BinvalMutate, |_| {
                if reg {
                    binval::reg_mutate(&program, site, RegMutation::ALL[*mi])
                } else {
                    binval::mutate(&program, site, Mutation::ALL[*mi])
                }
            });
            let r = tr.span(Layer::BinvalValidate, |_| validate(&mutant, &plan));
            out.validations += 1;
            out.mutants += 1;
            out.killed += u64::from(!r.ok());
            out.findings += r.findings.len() as u64;
            out.sites.push(site);
        }
    }
    let insts = out.validations * program.len() as u64;
    (out, insts)
}

/// Calls `f` on the IR module `cell` compiles.
pub fn with_module<T>(inp: &Inputs, cell: Cell, f: impl FnOnce(&Module) -> T) -> T {
    match cell {
        Cell::Sweep { k, .. } | Cell::Tv { k, .. } | Cell::Mutants { k, .. } => f(&inp.modules[k]),
        Cell::Juliet { case, .. } => f(&juliet::build_program(&inp.cases[case])),
    }
}

/// Recompiles a run cell and runs it on the cycle engine
/// (`Machine::run`), the reference the fast engine must match: returns
/// the exit (or trap) and the simulated statistics.
pub fn replay_on_cycle_engine(
    inp: &Inputs,
    cell: Cell,
) -> Result<(Exit, CycleStats), CompileError> {
    let program = with_module(inp, cell, |m| compile_with_options(m, cell.options()))?.program;
    let mut m = Machine::new(program, config_for(cell.scheme()));
    let r = m.run(inp.fuel(cell));
    Ok((r.map(|e| (e.code, e.output)), m.stats()))
}
