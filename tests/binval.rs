//! Tier-1 gate for the binary-level translation validator: every
//! correctly-lowered workload must validate cleanly under the four
//! kernel schemes, IR-level and binary-level verdicts must agree, the
//! deterministic mutation suite must be killed completely, and the
//! validator must discharge checks beyond RCE. The ignored sweep at the
//! end widens both to every cell and every candidate mutant; the
//! every-cell check in `common` also validates each image it runs.

use hwst_compiler::binval::{self, Mutation, RegMutation};
use hwst_compiler::{compile_with_options, CompileOptions, OptLevel, Scheme};
use hwst_isa::Program;
use hwst_mem::MemoryLayout;
use hwst_metadata::CompressionConfig;
use hwst_workloads::{all, Scale, Workload};

const SCHEMES: [Scheme; 4] = [
    Scheme::Sbcets,
    Scheme::Hwst128,
    Scheme::Hwst128Tchk,
    Scheme::Shore,
];

#[test]
fn all_workloads_validate_cleanly_under_every_scheme() {
    for wl in all() {
        let module = wl.module(Scale::Test);
        for scheme in SCHEMES {
            let report = binval::translation_validate(&module, CompileOptions::new(scheme))
                .unwrap_or_else(|e| panic!("{} ({scheme:?}): {e}", wl.name))
                .report;
            let lowering: Vec<_> = report
                .findings
                .iter()
                .filter(|f| f.class == binval::FindingClass::Lowering)
                .collect();
            assert!(
                lowering.is_empty(),
                "{} ({scheme:?}): {} lowering findings, first: {}",
                wl.name,
                lowering.len(),
                lowering[0]
            );
        }
    }
}

#[test]
fn translation_validation_never_diverges() {
    for wl in all() {
        let module = wl.module(Scale::Test);
        for scheme in SCHEMES {
            let plain = CompileOptions::new(scheme);
            for opts in [plain, plain.with_rce(), plain.with_rce().with_bounds()] {
                let (rce, bounds) = (opts.rce, opts.bounds);
                let tv = binval::translation_validate(&module, opts)
                    .unwrap_or_else(|e| panic!("{} ({scheme:?}): {e}", wl.name));
                assert!(
                    !tv.diverged(),
                    "{} ({scheme:?}, rce={rce}, bounds={bounds}): IR verdict {} vs binary \
                     verdict {}; ir_error={:?}, first finding: {:?}",
                    wl.name,
                    tv.ir_ok,
                    tv.report.ok(),
                    tv.ir_error,
                    tv.report.findings.first().map(|f| f.to_string()),
                );
                assert!(
                    tv.ok(),
                    "{} ({scheme:?}, rce={rce}, bounds={bounds}) failed both levels",
                    wl.name
                );
            }
        }
    }
}

#[test]
fn mutation_suite_is_killed_completely() {
    let seeds: Vec<u64> = (0..8).map(|i| 0xB17A_1000 + i).collect();
    let mut total = 0usize;
    for wl in all() {
        let module = wl.module(Scale::Test);
        for scheme in [Scheme::Hwst128, Scheme::Hwst128Tchk, Scheme::Shore] {
            let rep = binval::mutation_campaign(&module, scheme, &seeds)
                .unwrap_or_else(|e| panic!("{} ({scheme:?}): {e}", wl.name));
            for o in &rep.outcomes {
                assert!(
                    o.killed,
                    "{} ({scheme:?}): surviving mutant {} seed={:#x} site={}",
                    wl.name, o.mutation, o.seed, o.site
                );
            }
            total += rep.total();
        }
    }
    assert!(total > 0, "mutation campaign generated no mutants");
}

#[test]
fn sbcets_images_have_no_mutation_candidates() {
    // Pure-software instrumentation emits no metadata loads, so the
    // campaign must be vacuous rather than erroring.
    let wl = Workload::by_name("bzip2").expect("known workload");
    let rep = binval::mutation_campaign(&wl.module(Scale::Test), Scheme::Sbcets, &[1, 2, 3])
        .expect("campaign");
    assert_eq!(rep.candidates, 0);
    assert_eq!(rep.total(), 0);
    assert!(rep.all_killed());
}

#[test]
fn binval_discharges_checks_beyond_rce() {
    // A9: across the suite, the binary-level interpreter must discharge
    // a nonzero number of checks even after IR-level RCE ran.
    let mut discharged = 0usize;
    for wl in all() {
        let module = wl.module(Scale::Test);
        let tv =
            binval::translation_validate(&module, CompileOptions::new(Scheme::Hwst128).with_rce())
                .unwrap_or_else(|e| panic!("{}: {e}", wl.name));
        discharged += tv.report.discharged();
    }
    assert!(
        discharged > 0,
        "binary-level analysis discharged no checks beyond IR-level RCE"
    );
}

#[test]
fn image_shorter_than_its_plan_is_a_plan_range_finding() {
    // CFG recovery clamps each function to the image, so without the
    // range check a cut-off tail is simply never interpreted.
    let wl = Workload::by_name("mst").expect("known workload");
    let c = compile_with_options(
        &wl.module(Scale::Test),
        CompileOptions::new(Scheme::Hwst128),
    )
    .expect("compiles");
    let mut instrs = c.program.instrs().to_vec();
    instrs.pop();
    let cut = Program::from_instrs(c.program.base(), instrs);
    let r = binval::validate(
        &cut,
        &c.plan,
        CompressionConfig::SPEC_DEFAULT,
        MemoryLayout::default(),
    );
    let last = c.plan.funcs.last().expect("a function");
    assert!(
        r.findings
            .iter()
            .any(|f| f.code == "PLAN_RANGE" && f.func == last.name),
        "{:?}",
        r.findings.iter().map(|f| f.to_string()).collect::<Vec<_>>()
    );
    assert!(!r.ok());
}

/// Every kernel × every scheme × both tiers × every pass set must pass
/// translation validation, and every candidate site of every classic and
/// register-allocation mutation operator must be killed. The seeded
/// campaigns above try a few sites per operator; this tries them all.
#[test]
#[ignore = "heavy: exhaustive translation-validation and mutant sweep"]
fn every_cell_validates_and_every_candidate_mutant_is_killed() {
    let (mut tvs, mut mutants) = (0usize, 0usize);
    for wl in all() {
        let module = wl.module(Scale::Test);
        for scheme in Scheme::EVERY {
            for opt in [OptLevel::O0, OptLevel::O1] {
                let plain = CompileOptions::new(scheme).with_opt(opt);
                let pass_sets = [
                    plain,
                    plain.with_rce(),
                    plain.with_rce().with_bounds(),
                    plain.with_bounds(),
                ];
                for opts in pass_sets {
                    let tv = binval::translation_validate(&module, opts)
                        .unwrap_or_else(|e| panic!("{} ({scheme:?}, {opt:?}): {e}", wl.name));
                    assert!(
                        tv.ok(),
                        "{} ({scheme:?}, {opt:?}, rce={}, bounds={}): ir_error={:?}, first \
                         finding: {:?}",
                        wl.name,
                        opts.rce,
                        opts.bounds,
                        tv.ir_error,
                        tv.report.findings.first().map(|f| f.to_string()),
                    );
                    tvs += 1;
                }
                let c = compile_with_options(&module, plain)
                    .unwrap_or_else(|e| panic!("{} ({scheme:?}, {opt:?}): {e}", wl.name));
                let mut killed = |op: &str, site: usize, mutant: Program| {
                    let r = binval::validate(
                        &mutant,
                        &c.plan,
                        CompressionConfig::SPEC_DEFAULT,
                        MemoryLayout::default(),
                    );
                    let pc = c.program.base() + site as u64 * 4;
                    let func = c.plan.func_at_pc(pc).map_or("<shim>", |f| f.name.as_str());
                    assert!(
                        !r.ok(),
                        "{} ({scheme:?}, {opt:?}): {op} mutant survives at site {site} \
                         (pc {pc:#x}) in {func}: {:?} became {:?}",
                        wl.name,
                        c.program.instrs()[site],
                        mutant.instrs()[site],
                    );
                    mutants += 1;
                };
                let classic = binval::mutation_sites(&c.program);
                for m in Mutation::ALL {
                    for &site in &classic {
                        killed(m.name(), site, binval::mutate(&c.program, site, m));
                    }
                }
                let reg = binval::reg_mutation_sites(&c.program, &c.plan);
                for m in RegMutation::ALL {
                    for &site in reg.for_op(m) {
                        killed(m.name(), site, binval::reg_mutate(&c.program, site, m));
                    }
                }
            }
        }
    }
    eprintln!("{tvs} translation validations passed, {mutants} mutants killed");
    assert!(mutants > 0, "the sweep generated no mutants");
}
