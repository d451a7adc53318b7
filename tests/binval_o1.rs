//! Tier-1 gate for `-O1` translation validation: every optimized image
//! must clear the same binary-level obligations as `-O0` plus the
//! register-allocation obligations, and the register-allocation
//! mutation suite must be killed completely.

use hwst_compiler::binval;
use hwst_compiler::{CompileOptions, OptLevel, Scheme};
use hwst_workloads::{all, Scale, Workload};

const SCHEMES: [Scheme; 4] = [
    Scheme::Sbcets,
    Scheme::Hwst128,
    Scheme::Hwst128Tchk,
    Scheme::Shore,
];

const SMOKE: [&str; 4] = ["string", "math", "treeadd", "bzip2"];

#[test]
fn o1_images_validate_cleanly_under_every_scheme() {
    for wl in all() {
        let module = wl.module(Scale::Test);
        for scheme in SCHEMES {
            let plain = CompileOptions::new(scheme).with_opt(OptLevel::O1);
            for opts in [plain, plain.with_rce().with_bounds()] {
                let bounds = opts.bounds;
                let tv = binval::translation_validate(&module, opts)
                    .unwrap_or_else(|e| panic!("{} ({scheme:?}): {e}", wl.name));
                assert!(
                    !tv.diverged(),
                    "{} ({scheme:?}, -O1, rce+bounds={bounds}): IR verdict {} vs binary \
                     verdict {}; ir_error={:?}, first finding: {:?}",
                    wl.name,
                    tv.ir_ok,
                    tv.report.ok(),
                    tv.ir_error,
                    tv.report.findings.first().map(|f| f.to_string()),
                );
                assert!(
                    tv.ok(),
                    "{} ({scheme:?}, -O1, rce+bounds={bounds}) failed both levels",
                    wl.name
                );
            }
        }
    }
}

#[test]
fn o1_reg_mutation_smoke_suite_is_killed_completely() {
    let seeds: Vec<u64> = (0..8).map(|i| 0xB17A_1000 + i).collect();
    let mut total = 0usize;
    for name in SMOKE {
        let wl = Workload::by_name(name).expect("known workload");
        let module = wl.module(Scale::Test);
        for scheme in [Scheme::Hwst128, Scheme::Hwst128Tchk, Scheme::Shore] {
            let rep = binval::reg_mutation_campaign(&module, scheme, OptLevel::O1, &seeds)
                .unwrap_or_else(|e| panic!("{name} ({scheme:?}): {e}"));
            for o in &rep.outcomes {
                assert!(
                    o.killed,
                    "{name} ({scheme:?}): surviving reg mutant {} seed={:#x} site={} \
                     in {} ({} findings)",
                    o.mutation, o.seed, o.site, o.func, o.findings
                );
            }
            total += rep.total();
        }
    }
    assert!(total > 0, "reg mutation campaign generated no mutants");
}

#[test]
fn o0_images_have_no_regalloc_mutation_candidates() {
    // At `-O0` no pool register ever feeds a checked access, so the
    // clobber and drop-spill operators must be vacuous (scheduled-pair
    // sites legitimately exist at both tiers).
    let wl = Workload::by_name("bzip2").expect("known workload");
    let module = wl.module(Scale::Test);
    let rep = binval::reg_mutation_campaign(&module, Scheme::Hwst128, OptLevel::O0, &[1, 2, 3])
        .expect("campaign");
    assert!(
        rep.outcomes
            .iter()
            .all(|o| o.mutation != "clobber-live-reg" && o.mutation != "drop-spill"),
        "regalloc operators found sites in an -O0 image"
    );
    assert!(rep.all_killed(), "surviving mutant in -O0 campaign");
}

/// The 8-seed register-allocation mutation campaign at `-O1` over every
/// kernel at Test scale and the three hardware schemes (the tier-1 smoke
/// above runs four kernels). Heavy; run with `--ignored` in the heavy
/// gates.
#[test]
#[ignore = "heavy: full -O1 mutation campaign across the suite"]
fn o1_reg_mutation_full_suite_is_killed_completely() {
    let seeds: Vec<u64> = (0..8).map(|i| 0xB17A_1000 + i).collect();
    let mut total = 0usize;
    for wl in all() {
        let module = wl.module(Scale::Test);
        for scheme in [Scheme::Hwst128, Scheme::Hwst128Tchk, Scheme::Shore] {
            let rep = binval::reg_mutation_campaign(&module, scheme, OptLevel::O1, &seeds)
                .unwrap_or_else(|e| panic!("{} ({scheme:?}): {e}", wl.name));
            for o in &rep.outcomes {
                assert!(
                    o.killed,
                    "{} ({scheme:?}): surviving reg mutant {} seed={:#x} site={} in {}",
                    wl.name, o.mutation, o.seed, o.site, o.func
                );
            }
            total += rep.total();
        }
    }
    assert!(total > 0, "reg mutation campaign generated no mutants");
}
