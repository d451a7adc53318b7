//! Every workload compiles, runs to completion under every scheme, and
//! produces the same result regardless of the safety machinery.

use hwst_compiler::instrument::config_for;
use hwst_compiler::{compile, Scheme};
use hwst_sim::Machine;
use hwst_workloads::{all, Scale, Workload};

fn run(wl: &Workload, scheme: Scheme) -> (u64, u64) {
    let module = wl.module(Scale::Test);
    let prog = compile(&module, scheme).unwrap_or_else(|e| panic!("{} ({scheme}): {e}", wl.name));
    let mut m = Machine::new(prog, config_for(scheme));
    let exit = m
        .run(wl.fuel(Scale::Test))
        .unwrap_or_else(|t| panic!("{} ({scheme}) trapped: {t}", wl.name));
    (exit.code, exit.stats.total_cycles())
}

#[test]
fn workloads_agree_across_schemes() {
    for wl in all() {
        let (base_code, base_cycles) = run(&wl, Scheme::None);
        for scheme in [Scheme::Sbcets, Scheme::Hwst128, Scheme::Hwst128Tchk] {
            let (code, cycles) = run(&wl, scheme);
            assert_eq!(code, base_code, "{} diverges under {scheme}", wl.name);
            assert!(
                cycles > base_cycles,
                "{}: {scheme} must cost more than baseline",
                wl.name
            );
        }
    }
}

#[test]
fn scheme_cost_ordering_holds_per_suite_geomean() {
    // Fig. 4's ordering must hold on the geometric mean of each suite.
    let mut logsum = [0f64; 4]; // None, Sbcets, Hwst128, Hwst128Tchk
    let mut count = 0usize;
    for wl in all() {
        let cycles: Vec<u64> = [
            Scheme::None,
            Scheme::Sbcets,
            Scheme::Hwst128,
            Scheme::Hwst128Tchk,
        ]
        .iter()
        .map(|&s| run(&wl, s).1)
        .collect();
        for (i, c) in cycles.iter().enumerate() {
            logsum[i] += (*c as f64).ln();
        }
        count += 1;
    }
    let geo: Vec<f64> = logsum.iter().map(|l| (l / count as f64).exp()).collect();
    let (base, sb, hwst, tchk) = (geo[0], geo[1], geo[2], geo[3]);
    assert!(
        base < tchk && tchk < hwst && hwst < sb,
        "geomean ordering violated: base={base:.0} tchk={tchk:.0} hwst={hwst:.0} sbcets={sb:.0}"
    );
}

#[test]
fn temporal_heavy_workloads_benefit_most_from_tchk() {
    // bzip2/hmmer are the paper's keybuffer showcases: the relative gain
    // of HWST128_tchk over HWST128 must exceed the median workload's.
    let gain = |name: &str| {
        let wl = Workload::by_name(name).unwrap();
        let hwst = run(&wl, Scheme::Hwst128).1 as f64;
        let tchk = run(&wl, Scheme::Hwst128Tchk).1 as f64;
        hwst / tchk
    };
    let bzip = gain("bzip2");
    let hmmer = gain("hmmer");
    let math = gain("math"); // ALU-dominated: little to gain
    assert!(
        bzip > math,
        "bzip2 gain {bzip:.2} must exceed math {math:.2}"
    );
    assert!(
        hmmer > math,
        "hmmer gain {hmmer:.2} must exceed math {math:.2}"
    );
}
