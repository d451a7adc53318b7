//! The one verdict every root differential test goes through. Each
//! comparison of engines, tiers or schemes over a compiled program
//! calls [`verdict`], which compiles once, runs the reference
//! interpreter (`Machine::run`) and the fast engine (`run_fast`) on two
//! clones of one load, and requires equal results and equal final
//! `Observation`s before it reports what the run did.
//!
//! Three test crates include this module: `differential.rs` (generated
//! programs), `exec.rs` (the kernels at `-O0`) and `optdiff.rs` (the
//! kernels at `-O1` and Juliet at both tiers). Each uses a different
//! part of it.

#![allow(dead_code)]

use hwst128::compiler::ir::Module;
use hwst128::compiler::{compile_with_options, CompileOptions, OptLevel, Scheme};
use hwst128::config_for;
use hwst128::exec::{run_fast, BlockCache};
use hwst128::juliet::{build_program, sample_reachable};
use hwst128::sim::{Machine, Trap};
use hwst128::workloads::{Scale, Workload};

/// Instruction budget of a generated program or a Juliet case (they
/// retire far fewer).
pub const FUEL: u64 = 5_000_000;

/// The kernel schemes of the tier-1 smoke: the Fig. 4 four plus SHORE.
pub const SCHEMES: [Scheme; 5] = [
    Scheme::None,
    Scheme::Sbcets,
    Scheme::Hwst128,
    Scheme::Hwst128Tchk,
    Scheme::Shore,
];

/// The tier-1 kernel subset (one representative per suite family).
pub const SMOKE: [&str; 6] = ["string", "math", "FFT", "treeadd", "health", "bzip2"];

/// What a run did, with the tier-dependent parts (cycle counts, the
/// faulting PC) stripped: every cell of one program must agree on it.
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

/// The tier-1 kernel subset.
pub fn smoke_kernels() -> Vec<Workload> {
    SMOKE
        .iter()
        .map(|&n| Workload::by_name(n).expect("smoke kernel"))
        .collect()
}

/// Under each of `schemes` at `opt`, every kernel gives its
/// baseline-at-O0 verdict.
pub fn kernels_match_baseline(kernels: &[Workload], schemes: &[Scheme], opt: OptLevel) {
    let baseline = CompileOptions::new(Scheme::None);
    for wl in kernels {
        let (module, fuel) = (wl.module(Scale::Test), wl.fuel(Scale::Test));
        let run =
            |opts| verdict(&module, opts, fuel).unwrap_or_else(|e| panic!("{}: {e}", wl.name));
        let want = run(baseline);
        for &scheme in schemes {
            let opts = CompileOptions::new(scheme).with_opt(opt);
            if opts == baseline {
                continue;
            }
            let got = run(opts);
            assert_eq!(
                got,
                want,
                "{}: {} differs from baseline@O0",
                wl.name,
                cell(opts)
            );
        }
    }
}

/// Under each of `schemes`, each case of a `per_cwe` Juliet sample
/// gives the same verdict at `-O0` and `-O1` (the cases trap, so their
/// verdicts differ across schemes by design).
pub fn juliet_matches_across_tiers(schemes: &[Scheme], per_cwe: u32) {
    for case in sample_reachable(per_cwe) {
        let module = build_program(&case);
        let name = format!("juliet {:?}#{}", case.cwe, case.index);
        for &scheme in schemes {
            let [o0, o1] = [OptLevel::O0, OptLevel::O1].map(|opt| {
                verdict(&module, CompileOptions::new(scheme).with_opt(opt), FUEL)
                    .unwrap_or_else(|e| panic!("{name}: {e}"))
            });
            assert_eq!(
                o0,
                o1,
                "{name}/{}: -O0 and -O1 verdicts diverged",
                scheme.label()
            );
        }
    }
}
