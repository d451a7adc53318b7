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

fn campaign_on(name: &str, class: FaultClass, seeds: &[u64]) -> OutcomeCounts {
    let wl = Workload::by_name(name).expect("known workload");
    let prog = compile(&wl.module(Scale::Test), Scheme::Hwst128Tchk).expect("compiles");
    let m = Machine::new(prog, config_for(Scheme::Hwst128Tchk));
    campaign(&m, wl.fuel(Scale::Test), class, seeds)
}

#[test]
fn lock_and_shadow_corruption_is_never_silent_on_clean_workloads() {
    let seeds = [1u64, 2, 3];
    for class in [FaultClass::LockWordOverwrite, FaultClass::ShadowWordFlip] {
        let mut detected = 0;
        for name in ["bzip2", "hmmer"] {
            let c = campaign_on(name, class, &seeds);
            assert_eq!(
                c.silent, 0,
                "{class} on {name}: metadata corruption silently changed results"
            );
            assert_eq!(c.total(), seeds.len() as u64);
            detected += c.detected;
        }
        assert!(
            detected > 0,
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
    let c = campaign_on("bzip2", FaultClass::KeybufferPoison, &[1, 2, 3]);
    assert_eq!(c.detected, 0);
    assert_eq!(c.silent, 0);
    assert_eq!(c.machine_fault, 0);
    assert_eq!(c.masked, 3);
}

#[test]
fn campaigns_are_deterministic() {
    let seeds = [7u64, 8];
    for class in FaultClass::ALL {
        let a = campaign_on("math", class, &seeds);
        let b = campaign_on("math", class, &seeds);
        assert_eq!(a, b, "{class}: campaign must be reproducible");
    }
}
