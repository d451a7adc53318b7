//! Tier-1 gate for the binary-level translation validator: every
//! correctly-lowered workload must validate cleanly under every scheme,
//! IR-level and binary-level verdicts must agree, and the deterministic
//! mutation suite must be killed completely.

use hwst_compiler::binval;
use hwst_compiler::{CompileOptions, Scheme};
use hwst_workloads::{all, Scale};

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
    let wl = hwst_workloads::Workload::by_name("bzip2").expect("known workload");
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
