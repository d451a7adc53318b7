//! Resilience gate (R1): on clean temporal-heavy workloads under
//! HWST128_tchk, lock-word and shadow-word corruption must be caught by
//! the checks — never silent — and the whole campaign machinery must be
//! deterministic. Kept small: tier-1 runs in debug.

use hwst128::compiler::{compile, Scheme};
use hwst128::config_for;
use hwst128::exec::inject::campaign;
use hwst128::sim::inject::{FaultClass, OutcomeCounts};
use hwst128::sim::Machine;
use hwst128::workloads::{Scale, Workload};

fn campaign_on(name: &str, classes: &[FaultClass], seeds: &[u64]) -> Vec<OutcomeCounts> {
    let wl = Workload::by_name(name).expect("known workload");
    let prog = compile(&wl.module(Scale::Test), Scheme::Hwst128Tchk).expect("compiles");
    let m = Machine::new(prog, config_for(Scheme::Hwst128Tchk));
    campaign(&m, wl.fuel(Scale::Test), classes, seeds)
}

#[test]
fn lock_and_shadow_corruption_is_never_silent_on_clean_workloads() {
    let seeds = [1u64, 2, 3];
    let classes = [FaultClass::LockWordOverwrite, FaultClass::ShadowWordFlip];
    let mut detected = [0; 2];
    for name in ["bzip2", "hmmer"] {
        let counts = campaign_on(name, &classes, &seeds);
        for ((class, c), det) in classes.iter().zip(counts).zip(&mut detected) {
            assert_eq!(
                c.silent, 0,
                "{class} on {name}: metadata corruption silently changed results"
            );
            assert_eq!(c.total(), seeds.len() as u64);
            *det += c.detected;
        }
    }
    for (class, det) in classes.iter().zip(detected) {
        assert!(
            det > 0,
            "{class}: temporal-heavy workloads must detect at least one \
             injected corruption (all {} runs were masked)",
            2 * seeds.len()
        );
    }
}

#[test]
fn keybuffer_poison_is_semantically_invisible() {
    // The keybuffer is timing-only: planting stale entries can never
    // change what the checks decide.
    let c = campaign_on("bzip2", &[FaultClass::KeybufferPoison], &[1, 2, 3])[0];
    assert_eq!(c.detected, 0);
    assert_eq!(c.silent, 0);
    assert_eq!(c.machine_fault, 0);
    assert_eq!(c.masked, 3);
}

#[test]
fn campaigns_are_deterministic() {
    let seeds = [7u64, 8];
    let a = campaign_on("math", &FaultClass::ALL, &seeds);
    let b = campaign_on("math", &FaultClass::ALL, &seeds);
    assert_eq!(a.len(), FaultClass::ALL.len());
    for ((class, a), b) in FaultClass::ALL.iter().zip(a).zip(b) {
        assert_eq!(a, b, "{class}: campaign must be reproducible");
    }
}
