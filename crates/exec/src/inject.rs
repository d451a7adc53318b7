//! The fault-campaign driver of experiments R1 and Z2 (DESIGN.md §4d):
//! [`run_fast`] to an [`InjectionPlan`]'s trigger, [`apply`] the fault
//! of the [`hwst_sim::inject`] fault model, [`run_fast`] for the rest.
//! The split leaves exactly the state of the oracle split
//! ([`Machine::run`], `apply`, [`Machine::run`]) at any instruction.

use crate::{run_fast, BlockCache};
use hwst_sim::inject::{apply, classify, FaultClass, FaultRecord, InjectionPlan, OutcomeCounts};
use hwst_sim::{ExitStatus, Machine, Trap};

/// Runs `m` to the plan's trigger point, applies the fault, and runs the
/// remaining fuel. Returns the run result plus what was actually
/// mutated. Never panics: every outcome is a classified [`Trap`] or
/// [`ExitStatus`].
pub fn run_with_plan(
    m: &mut Machine,
    plan: &InjectionPlan,
    fuel: u64,
    cache: &mut BlockCache,
) -> (Result<ExitStatus, Trap>, FaultRecord) {
    let trigger = plan.trigger.min(fuel);
    let (result, why) = match run_fast(m, trigger, cache) {
        Err(Trap::OutOfFuel { .. }) => {
            let record = apply(m, plan);
            return (run_fast(m, fuel - trigger, cache), record);
        }
        Ok(exit) => (Ok(exit), "program exited before the trigger point"),
        Err(t) => (Err(t), "trapped before the trigger point"),
    };
    (result, FaultRecord::NotApplied { why })
}

/// Runs every fault class of `classes` against one loaded machine: one
/// fault-free reference run (whose instruction count bounds the trigger
/// points), then one faulted run per class and seed, each on a clone of
/// `m`. Clones keep the program id, so one block cache serves the whole
/// campaign. Returns one [`OutcomeCounts`] per class, in order.
pub fn campaign(
    m: &Machine,
    fuel: u64,
    classes: &[FaultClass],
    seeds: &[u64],
) -> Vec<OutcomeCounts> {
    let mut cache = BlockCache::new();
    let mut reference_machine = m.clone();
    let reference = run_fast(&mut reference_machine, fuel, &mut cache);
    let horizon = reference_machine.stats().instret.max(1);
    classes
        .iter()
        .map(|&class| {
            let mut counts = OutcomeCounts::default();
            for &seed in seeds {
                let plan = InjectionPlan::from_seed(class, seed, horizon);
                let (faulted, record) = run_with_plan(&mut m.clone(), &plan, fuel, &mut cache);
                counts.record(classify(&reference, &faulted), record.applied());
            }
            counts
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwst_isa::{AluImmOp, Instr, Program, Reg};
    use hwst_sim::inject::Outcome;
    use hwst_sim::{syscall, SafetyConfig};

    fn addi(rd: Reg, rs1: Reg, imm: i64) -> Instr {
        Instr::AluImm {
            op: AluImmOp::Addi,
            rd,
            rs1,
            imm,
        }
    }

    /// malloc + bndrs/bndrt + a tchk loop, then exit 0.
    fn temporal_prog() -> Program {
        let mut body = vec![
            addi(Reg::A0, Reg::Zero, 64),
            addi(Reg::A7, Reg::Zero, syscall::MALLOC as i64),
            Instr::Ecall,
            addi(Reg::T0, Reg::A0, 64),
            Instr::Bndrs {
                rd: Reg::A0,
                rs1: Reg::A0,
                rs2: Reg::T0,
            },
            Instr::Bndrt {
                rd: Reg::A0,
                rs1: Reg::A1,
                rs2: Reg::A2,
            },
        ];
        for _ in 0..8 {
            body.push(Instr::Tchk { rs1: Reg::A0 });
        }
        body.extend([
            addi(Reg::A7, Reg::Zero, syscall::EXIT as i64),
            addi(Reg::A0, Reg::Zero, 0),
            Instr::Ecall,
        ]);
        Program::from_instrs(0x1_0000, body)
    }

    fn mk() -> Machine {
        Machine::new(temporal_prog(), SafetyConfig::default())
    }

    fn run(plan: &InjectionPlan) -> (Result<ExitStatus, Trap>, FaultRecord) {
        run_with_plan(&mut mk(), plan, 10_000, &mut BlockCache::new())
    }

    #[test]
    fn plans_are_deterministic() {
        for class in FaultClass::ALL {
            let plan = InjectionPlan::from_seed(class, 42, 10);
            assert_eq!(plan, InjectionPlan::from_seed(class, 42, 10));
            let (r1, f1) = run(&plan);
            let (r2, f2) = run(&plan);
            assert_eq!(f1, f2, "{class}: fault record must be reproducible");
            assert_eq!(r1, r2, "{class}: run result must be reproducible");
        }
    }

    #[test]
    fn lock_overwrite_after_binding_is_detected() {
        // Apply right after the bndrt (instruction 6): every later tchk
        // checks the overwritten word and must trap.
        let plan = InjectionPlan {
            class: FaultClass::LockWordOverwrite,
            seed: 1,
            trigger: 6,
        };
        let (res, record) = run(&plan);
        assert!(record.applied(), "a live lock exists at the trigger");
        assert!(
            matches!(res, Err(Trap::TemporalViolation { .. })),
            "overwritten lock word must be detected, got {res:?}"
        );
    }

    #[test]
    fn keybuffer_poison_is_always_masked() {
        let reference = run_fast(&mut mk(), 10_000, &mut BlockCache::new());
        for seed in 0..16 {
            let plan = InjectionPlan::from_seed(FaultClass::KeybufferPoison, seed, 17);
            let (res, _) = run(&plan);
            assert_eq!(
                classify(&reference, &res),
                Outcome::Masked,
                "keybuffer is timing-only: poison may never change semantics"
            );
        }
    }

    #[test]
    fn campaign_counts_balance() {
        let seeds: Vec<u64> = (0..8).collect();
        let counts = campaign(&mk(), 10_000, &FaultClass::ALL, &seeds);
        assert_eq!(counts.len(), FaultClass::ALL.len());
        for (class, counts) in FaultClass::ALL.iter().zip(counts) {
            assert_eq!(counts.total(), 8, "{class}");
            assert!(counts.not_applied <= counts.total());
        }
    }
}
