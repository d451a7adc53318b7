//! The `-O0`-vs-`-O1` differential-correctness gate (ISSUE 9
//! acceptance): the optimizing back-end may change *how many* cycles a
//! program takes, but never *what it computes* or *what it detects*.
//! For every workload × scheme the two tiers must produce the same
//! verdict — the same exit code and program output, or the same trap
//! kind — and every Juliet case must keep its detection verdict.
//!
//! Cycle statistics are intentionally excluded from the comparison:
//! shrinking the dynamic instruction count is the whole point of `-O1`.
//!
//! The cross-suite smoke subset runs in tier-1; the full 23-workload ×
//! 5-scheme sweep and the deeper Juliet sample ride the CI heavy gate.

use hwst128::compiler::{CompileOptions, OptLevel, Scheme};
use hwst128::config_for;
use hwst128::exec::{run_fast, BlockCache};
use hwst128::juliet::{execute_detects, sample_reachable};
use hwst128::sim::{Machine, Trap};
use hwst128::workloads::{Scale, Workload};

/// Every instrumentation scheme the compiler accepts.
const SCHEMES: [Scheme; 5] = [
    Scheme::None,
    Scheme::Sbcets,
    Scheme::Hwst128,
    Scheme::Hwst128Tchk,
    Scheme::Shore,
];

/// The tier-1 cross-suite subset (one representative per suite family).
const SMOKE: [&str; 6] = ["string", "math", "FFT", "treeadd", "health", "bzip2"];

/// What the gate compares: the observable verdict of a run, with the
/// tier-dependent parts (cycle stats, faulting PC) stripped.
#[derive(Debug, PartialEq, Eq)]
enum Verdict {
    Exit { code: u64, output: Vec<u8> },
    Trap { kind: &'static str },
}

fn trap_kind(t: &Trap) -> &'static str {
    match t {
        Trap::SpatialViolation { .. } => "spatial",
        Trap::TemporalViolation { .. } => "temporal",
        _ => "other",
    }
}

/// Compiles `wl` under `scheme` at `opt` and runs it to a [`Verdict`].
fn run_tier(wl: &Workload, scheme: Scheme, opt: OptLevel) -> Verdict {
    let ctx = format!("{}/{}/{}", wl.name, scheme.label(), opt.label());
    let module = wl.module(Scale::Test);
    let opts = CompileOptions::new(scheme).with_opt(opt);
    let compiled = match hwst128::compiler::compile_with_options(&module, opts) {
        Ok(c) => c,
        Err(e) => panic!("{ctx}: compile failed: {e}"),
    };
    let mut m = Machine::new(compiled.program, config_for(scheme));
    match run_fast(&mut m, wl.fuel(Scale::Test), &mut BlockCache::new()) {
        Ok(exit) => Verdict::Exit {
            code: exit.code,
            output: exit.output,
        },
        Err(t) => Verdict::Trap {
            kind: trap_kind(&t),
        },
    }
}

/// Asserts the two tiers agree for one workload × scheme pair.
fn assert_tiers_agree(wl: &Workload, scheme: Scheme) {
    let o0 = run_tier(wl, scheme, OptLevel::O0);
    let o1 = run_tier(wl, scheme, OptLevel::O1);
    assert_eq!(
        o0,
        o1,
        "{}/{}: -O0 and -O1 verdicts diverged",
        wl.name,
        scheme.label()
    );
}

/// Asserts a Juliet case detects identically at both tiers for every
/// scheme.
fn assert_juliet_agrees(case: &hwst128::juliet::Case) {
    for scheme in SCHEMES {
        let o0 = execute_detects(case, CompileOptions::new(scheme));
        let o1 = execute_detects(case, CompileOptions::new(scheme).with_opt(OptLevel::O1));
        assert_eq!(
            o0,
            o1,
            "juliet {:?}/{}: detection verdict changed at -O1",
            case.cwe,
            scheme.label()
        );
    }
}

/// Tier-1: the cross-suite smoke subset × every scheme agrees across
/// tiers, and a one-per-CWE Juliet sample keeps its verdicts.
#[test]
fn o1_matches_o0_on_smoke_subset() {
    for name in SMOKE {
        let wl = Workload::by_name(name).unwrap();
        for scheme in SCHEMES {
            assert_tiers_agree(&wl, scheme);
        }
    }
    for case in sample_reachable(1) {
        assert_juliet_agrees(&case);
    }
}

/// Full acceptance: all 23 workloads × all 5 schemes plus a deeper
/// Juliet sample. Rides the CI heavy gate.
#[test]
#[ignore = "full sweep; run via the CI heavy gates"]
fn o1_matches_o0_on_full_suite() {
    for wl in hwst128::workloads::all() {
        for scheme in SCHEMES {
            assert_tiers_agree(&wl, scheme);
        }
    }
    for case in sample_reachable(5) {
        assert_juliet_agrees(&case);
    }
}
