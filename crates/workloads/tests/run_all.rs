//! The keybuffer's showcase workloads gain the most from `tchk`. That
//! every workload gives the baseline's result under every scheme is
//! checked in every cell of the root `tests/differential.rs`, and the
//! per-workload cycle ordering in `tests/figures.rs`.

use hwst_compiler::instrument::config_for;
use hwst_compiler::{compile, Scheme};
use hwst_sim::Machine;
use hwst_workloads::{Scale, Workload};

fn cycles(wl: &Workload, scheme: Scheme) -> u64 {
    let module = wl.module(Scale::Test);
    let prog = compile(&module, scheme).unwrap_or_else(|e| panic!("{} ({scheme}): {e}", wl.name));
    let mut m = Machine::new(prog, config_for(scheme));
    let exit = m
        .run(wl.fuel(Scale::Test))
        .unwrap_or_else(|t| panic!("{} ({scheme}) trapped: {t}", wl.name));
    exit.stats.total_cycles()
}

#[test]
fn temporal_heavy_workloads_benefit_most_from_tchk() {
    // bzip2/hmmer are the paper's keybuffer showcases: the relative gain
    // of HWST128_tchk over HWST128 must exceed the median workload's.
    let gain = |name: &str| {
        let wl = Workload::by_name(name).unwrap();
        cycles(&wl, Scheme::Hwst128) as f64 / cycles(&wl, Scheme::Hwst128Tchk) as f64
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
