//! The one every-cell check of the root tests. A *cell* is one (tier,
//! scheme, pass set) of {O0, O1} × `Scheme::EVERY` × {plain,
//! rce+verify, rce+bounds+verify}: 54 in all ([`cells`]).
//! [`check_program`] runs a program through cells, and every source of
//! programs goes through it: the generated programs, the Juliet cases
//! and their benign twins in `differential.rs`, and the kernels
//! ([`check_kernels`]), whose tier-1 cells run in `exec.rs` (`-O0`)
//! and `optdiff.rs` (`-O1`) and whose full sweep runs in
//! `differential.rs`. Each test crate uses a different part of this
//! module.
//!
//! Each cell compiles the program and runs it through [`verdict`],
//! which runs the reference interpreter (`Machine::run`) and the fast
//! engine (`run_fast`) on two clones of one load and requires equal
//! results and equal final `Observation`s. The image must pass
//! `binval::translation_validate`, and the verdict must equal its
//! scheme's `-O0` plain verdict. A plain build *is* the dynamic
//! re-check of a bounds build: every check the pass deleted still
//! executes there.

#![allow(dead_code)]

use hwst128::compiler::binval::translation_validate;
use hwst128::compiler::ir::Module;
use hwst128::compiler::{bounds, compile_with_options, CompileOptions, OptLevel, Scheme};
use hwst128::config_for;
use hwst128::exec::{run_fast, BlockCache};
use hwst128::sim::{Machine, Trap};
use hwst128::workloads::{Scale, Workload};

/// Instruction budget of a generated program or a Juliet case (they
/// retire far fewer).
pub const FUEL: u64 = 5_000_000;

/// What a run did, with the tier-dependent parts (cycle counts, the
/// faulting PC) stripped: every cell of one scheme must agree on it.
#[derive(Debug, PartialEq, Eq)]
pub enum Verdict {
    Exit { code: u64, output: Vec<u8> },
    Trap(&'static str),
}

/// The cell `opts` names, e.g. `HWST128_tchk@O1+rce+bounds+verify`.
pub fn cell(opts: CompileOptions) -> String {
    let mut s = format!("{}@{}", opts.scheme.label(), opts.opt.label());
    for (on, pass) in [
        (opts.rce, "rce"),
        (opts.bounds, "bounds"),
        (opts.verify, "verify"),
    ] {
        if on {
            s = s + "+" + pass;
        }
    }
    s
}

/// Every cell: {O0, O1} × `Scheme::EVERY` × {plain, rce+verify,
/// rce+bounds+verify}.
pub fn cells() -> impl Iterator<Item = CompileOptions> {
    [OptLevel::O0, OptLevel::O1].into_iter().flat_map(|opt| {
        Scheme::EVERY.into_iter().flat_map(move |scheme| {
            let plain = CompileOptions::new(scheme).with_opt(opt);
            let rce = plain.with_rce().with_verify();
            [plain, rce, rce.with_bounds()]
        })
    })
}

/// Compiles `module` with `opts`, runs both engines on two clones of
/// one load for `fuel` instructions, and returns the run's [`Verdict`]
/// once the engines agree on the result and the final observation.
/// Errors name the cell and the first difference.
pub fn verdict(module: &Module, opts: CompileOptions, fuel: u64) -> Result<Verdict, String> {
    let compiled =
        compile_with_options(module, opts).map_err(|e| format!("{}: {e}", cell(opts)))?;
    let mut reference = Machine::new(compiled.program, config_for(opts.scheme));
    let mut fast = reference.clone();
    let want = reference.run(fuel);
    let got = run_fast(&mut fast, fuel, &mut BlockCache::new());
    if let Some(d) = reference.observe().first_difference(&fast.observe()) {
        return Err(format!("{}: engines diverged: {d}", cell(opts)));
    }
    if want != got {
        return Err(format!(
            "{}: engines diverged: {want:?} vs {got:?}",
            cell(opts)
        ));
    }
    Ok(match want {
        Ok(exit) => Verdict::Exit {
            code: exit.code,
            output: exit.output,
        },
        Err(t) => Verdict::Trap(match t {
            Trap::SpatialViolation { .. } => "spatial",
            Trap::TemporalViolation { .. } => "temporal",
            _ => "other",
        }),
    })
}

/// What [`check_program`] found besides agreement.
pub struct Checked {
    /// Each scheme's `-O0` plain verdict (the baseline's first for a
    /// benign program).
    pub refs: Vec<(Scheme, Verdict)>,
    /// Sites the bounds pass proved in the module.
    pub proven: usize,
}

/// Runs `module` for up to `fuel` instructions through `cells`. In each
/// cell both engines must agree ([`verdict`]), the image must pass
/// translation validation, and the verdict must equal its scheme's
/// `-O0` plain verdict. For a `benign` program that verdict must be
/// the baseline's exit under every scheme; a Juliet case traps, so its
/// verdicts differ across schemes by design and only the tiers and
/// pass sets of one scheme must agree. Every bounds witness must be
/// arithmetically valid. Errors name the cell and what differed.
pub fn check_program(
    module: &Module,
    fuel: u64,
    benign: bool,
    cells: impl IntoIterator<Item = CompileOptions>,
) -> Result<Checked, String> {
    let mut refs = Vec::new();
    if benign {
        let base = verdict(module, CompileOptions::new(Scheme::None), fuel)?;
        if !matches!(base, Verdict::Exit { .. }) {
            return Err(format!("the baseline trapped: {base:?}"));
        }
        refs.push((Scheme::None, base));
    }
    for opts in cells {
        let plain = CompileOptions::new(opts.scheme);
        let at = match refs.iter().position(|(s, _)| *s == opts.scheme) {
            Some(at) => at,
            None => {
                let want = verdict(module, plain, fuel)?;
                if benign && want != refs[0].1 {
                    return Err(format!(
                        "{}: {want:?}, baseline@O0 gave {:?}",
                        cell(plain),
                        refs[0].1
                    ));
                }
                refs.push((opts.scheme, want));
                refs.len() - 1
            }
        };
        if opts != plain {
            let got = verdict(module, opts, fuel)?;
            if got != refs[at].1 {
                return Err(format!(
                    "{}: {got:?}, {} gave {:?}",
                    cell(opts),
                    cell(plain),
                    refs[at].1
                ));
            }
        }
        let tv = translation_validate(module, opts)
            .map_err(|e| format!("{}: translation validation: {e}", cell(opts)))?;
        if !tv.ok() {
            let findings: Vec<String> = tv.report.findings.iter().map(|f| f.to_string()).collect();
            return Err(format!(
                "{}: translation validation failed (IR verifier: {:?})\n{}",
                cell(opts),
                tv.ir_error,
                findings.join("\n")
            ));
        }
    }
    let outcome = bounds::analyze(module);
    if let Some(w) = outcome.witnesses.iter().find(|w| !w.arithmetic_ok()) {
        return Err(format!(
            "witness {} b{}/i{} claims [{}, {}) of a {}-byte object",
            w.func, w.block, w.inst, w.lo, w.hi, w.size
        ));
    }
    Ok(Checked {
        refs,
        proven: outcome.stats.proven,
    })
}

/// The tier-1 kernels: the two cheapest MiBench and Olden kernels by
/// instruction count. The reference interpreter sets a kernel's debug
/// cost, so the others run in the heavy gate only.
pub fn tier1_kernels() -> impl Iterator<Item = Workload> {
    ["sha", "string", "treeadd", "health"]
        .into_iter()
        .map(|n| Workload::by_name(n).expect("known kernel"))
}

/// Runs every kernel of `kernels`, at Test scale, as a benign program
/// through the cells that `keep` selects.
pub fn check_kernels(
    kernels: impl IntoIterator<Item = Workload>,
    keep: impl Fn(&CompileOptions) -> bool,
) {
    for wl in kernels {
        let (module, fuel) = (wl.module(Scale::Test), wl.fuel(Scale::Test));
        check_program(&module, fuel, true, cells().filter(&keep))
            .unwrap_or_else(|e| panic!("{}: {e}", wl.name));
    }
}
