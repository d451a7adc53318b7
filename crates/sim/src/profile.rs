//! Profiled execution: per-step cycle attribution into the telemetry
//! subsystem.
//!
//! [`Machine::run_profiled`] is [`Machine::run`] with one observer bolted
//! on: after every step the pipeline's [`CycleStats`] delta is split into
//! the five overhead categories of [`Breakdown`] and folded into a
//! [`Profiler`] at the retiring PC. The observer never writes machine
//! state, so a profiled run takes exactly the same path — same exit,
//! output and cycle counts — as a plain one.
//!
//! ## Attribution model
//!
//! The split is computed from stat deltas, so the categories sum to the
//! step's total-cycle delta by construction:
//!
//! * `shadow` — the step's `shadow_stalls` delta (metadata D-cache
//!   misses),
//! * `keybuffer` — the step's `tchk_stalls` delta (key loads on
//!   keybuffer misses),
//! * `runtime` — the step's `runtime_stalls` delta (allocator-wrapper
//!   service cycles),
//! * the remainder goes to `check` when the instruction is a pure
//!   metadata instruction, `base` otherwise. Checked loads/stores count
//!   as HWST instructions (`Instr::is_hwst`) but cost the same issue
//!   cycles as their unchecked forms — the SCU checks in parallel with
//!   EX — so their cycles are program work, not check overhead.

use crate::{syscall, ExitStatus, Machine, Trap};
use hwst_isa::{Instr, Reg};
use hwst_pipeline::CycleStats;
use hwst_telemetry::{Breakdown, Profiler, Track};

/// Splits one step's cycle delta into overhead categories (see the
/// module docs for the model).
fn classify(instr: &Instr, before: &CycleStats, after: &CycleStats) -> Breakdown {
    let shadow = after.shadow_stalls - before.shadow_stalls;
    let keybuffer = after.tchk_stalls - before.tchk_stalls;
    let runtime = after.runtime_stalls - before.runtime_stalls;
    let rest = (after.total_cycles() - before.total_cycles()) - shadow - keybuffer - runtime;
    let metadata_only =
        instr.is_hwst() && !matches!(instr, Instr::Load { .. } | Instr::Store { .. });
    if metadata_only {
        Breakdown {
            base: 0,
            check: rest,
            shadow,
            keybuffer,
            runtime,
        }
    } else {
        Breakdown {
            base: rest,
            check: 0,
            shadow,
            keybuffer,
            runtime,
        }
    }
}

impl Machine {
    /// Executes one instruction like [`step`](Self::step), folding its
    /// cycle-delta breakdown into `prof` at the retiring PC. When the
    /// profiler has a recorder attached, allocator-wrapper `ecall`s also
    /// emit a span on [`Track::Allocator`].
    ///
    /// The step is recorded even when it traps (the pipeline may have
    /// retired the instruction before the violation was raised), keeping
    /// the profile's cycle total equal to the machine's.
    fn step_profiled(&mut self, prof: &mut Profiler) -> Result<(), Trap> {
        let fetched = self.next_instr();
        let before = self.stats();
        // Which service an allocator-wrapper ecall is about to request
        // is only visible in a7 *before* the step clobbers a0.
        let span_name: Option<&'static str> = match fetched {
            Some((_, Instr::Ecall)) => match self.reg(Reg::A7) {
                syscall::MALLOC => Some("malloc"),
                syscall::FREE => Some("free"),
                syscall::LOCK_ACQUIRE => Some("lock_acquire"),
                syscall::LOCK_RELEASE => Some("lock_release"),
                _ => None,
            },
            _ => None,
        };
        let result = self.step();
        if let Some((pc, instr)) = fetched {
            let after = self.stats();
            prof.record_step(pc, classify(&instr, &before, &after), before.total_cycles());
            if let Some(name) = span_name {
                prof.record_span(
                    name,
                    Track::Allocator,
                    before.total_cycles(),
                    after.total_cycles(),
                );
            }
        }
        result
    }

    /// Runs until exit, trap or `fuel` instructions — identical to
    /// [`run`](Self::run) except every step is attributed into `prof`.
    ///
    /// # Errors
    ///
    /// Exactly those of [`run`](Self::run).
    pub fn run_profiled(&mut self, fuel: u64, prof: &mut Profiler) -> Result<ExitStatus, Trap> {
        self.run_steps(fuel, |m| m.step_profiled(prof))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SafetyConfig;
    use hwst_isa::{AluImmOp, Program};

    fn addi(rd: Reg, imm: i64) -> Instr {
        Instr::AluImm {
            op: AluImmOp::Addi,
            rd,
            rs1: Reg::Zero,
            imm,
        }
    }

    /// malloc(64); free(it is ignored); exit(0).
    fn alloc_prog() -> Program {
        Program::from_instrs(
            0x1_0000,
            vec![
                addi(Reg::A0, 64),
                addi(Reg::A7, syscall::MALLOC as i64),
                Instr::Ecall,
                addi(Reg::A7, syscall::EXIT as i64),
                addi(Reg::A0, 0),
                Instr::Ecall,
            ],
        )
    }

    #[test]
    fn profiled_run_matches_plain_run() {
        let mut plain = Machine::new(alloc_prog(), SafetyConfig::default());
        let want = plain.run(1_000).expect("plain run exits");
        let mut profiled = Machine::new(alloc_prog(), SafetyConfig::default());
        let mut prof = Profiler::new();
        let got = profiled
            .run_profiled(1_000, &mut prof)
            .expect("profiled run exits");
        assert_eq!(want, got, "profiling must not perturb execution");
    }

    #[test]
    fn profile_accounts_for_every_cycle() {
        let mut m = Machine::new(alloc_prog(), SafetyConfig::default());
        let mut prof = Profiler::new();
        let exit = m.run_profiled(1_000, &mut prof).expect("exits");
        let total = prof.profile.total();
        assert_eq!(total.total(), exit.stats.total_cycles());
        // The malloc wrapper's service cycles land in the runtime bucket.
        assert!(total.runtime > 0, "{total:?}");
        assert_eq!(total.check, 0, "no metadata instructions in this program");
    }

    #[test]
    fn allocator_ecalls_emit_spans() {
        let mut m = Machine::new(alloc_prog(), SafetyConfig::default());
        let mut prof = Profiler::with_recorder(64);
        m.run_profiled(1_000, &mut prof).expect("exits");
        let r = prof.recorder.as_ref().expect("recorder attached");
        let allocs: Vec<_> = r.events().filter(|e| e.track == Track::Allocator).collect();
        assert_eq!(allocs.len(), 1, "one malloc span; exit is not a wrapper");
        assert_eq!(allocs[0].name, "malloc");
        assert!(allocs[0].duration() > 0);
    }
}
