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

/// One sweep of every workload under the Fig. 4 schemes: each
/// instrumented run exits with the baseline's code and costs more
/// cycles than it, and Fig. 4's ordering holds on the geometric mean.
#[test]
fn workloads_agree_and_order_across_schemes() {
    let workloads = all();
    let mut logsum = [0f64; 4]; // Scheme::ALL order: None, Sbcets, Hwst128, Hwst128Tchk
    for wl in &workloads {
        let runs = Scheme::ALL.map(|s| run(wl, s));
        let (base_code, base_cycles) = runs[0];
        for (scheme, &(code, cycles)) in Scheme::ALL.iter().zip(&runs).skip(1) {
            assert_eq!(code, base_code, "{} diverges under {scheme}", wl.name);
            assert!(
                cycles > base_cycles,
                "{}: {scheme} must cost more than baseline",
                wl.name
            );
        }
        for (l, &(_, cycles)) in logsum.iter_mut().zip(&runs) {
            *l += (cycles as f64).ln();
        }
    }
    let [base, sb, hwst, tchk] = logsum.map(|l| (l / workloads.len() as f64).exp());
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
