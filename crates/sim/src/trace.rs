//! Structured execution tracing.

use crate::{Machine, Trap};
use hwst_isa::{Instr, Reg};
use std::fmt;

/// One traced execution step: the instruction, plus every architectural
/// GPR it changed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// PC of the executed instruction.
    pub pc: u64,
    /// The instruction.
    pub instr: Instr,
    /// GPRs written (register, new value) — more than one for syscalls.
    pub reg_writes: Vec<(Reg, u64)>,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#010x}: {:<28}", self.pc, self.instr.to_string())?;
        for (i, (r, v)) in self.reg_writes.iter().enumerate() {
            if i == 0 {
                write!(f, " ; ")?;
            } else {
                write!(f, ", ")?;
            }
            write!(f, "{r}={v:#x}")?;
        }
        Ok(())
    }
}

impl Machine {
    /// Executes one instruction and reports what it did. Returns `None`
    /// when the machine has already exited.
    ///
    /// Tracing costs a register-file snapshot per step; use
    /// [`step`](Machine::step) for full-speed runs.
    ///
    /// # Errors
    ///
    /// Propagates the [`Trap`] from [`step`](Machine::step).
    pub fn step_traced(&mut self) -> Result<Option<TraceEvent>, Trap> {
        let Some((pc, instr)) = self.next_instr() else {
            return Ok(None);
        };
        let before = self.regs;
        self.step()?;
        let reg_writes = (1u8..32)
            .filter_map(|i| {
                let r = Reg::from_index(i)?;
                (self.regs[i as usize] != before[i as usize]).then(|| (r, self.regs[i as usize]))
            })
            .collect();
        Ok(Some(TraceEvent {
            pc,
            instr,
            reg_writes,
        }))
    }

    /// Runs up to `max_steps`, collecting the trace; stops early on exit
    /// or trap (the trap, if any, is returned alongside the prefix).
    pub fn trace(&mut self, max_steps: usize) -> (Vec<TraceEvent>, Option<Trap>) {
        let mut events = Vec::new();
        let run = self.run_steps(max_steps as u64, |m| {
            // `None` before an exit: the PC left the program, `step` traps.
            let Some(e) = m.step_traced()? else {
                return m.step();
            };
            events.push(e);
            Ok(())
        });
        let trap = run.err().filter(|t| !matches!(t, Trap::OutOfFuel { .. }));
        (events, trap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{syscall, SafetyConfig};
    use hwst_isa::{AluImmOp, Program};

    fn prog() -> Program {
        Program::from_instrs(
            0x1_0000,
            vec![
                Instr::AluImm {
                    op: AluImmOp::Addi,
                    rd: Reg::A0,
                    rs1: Reg::Zero,
                    imm: 5,
                },
                Instr::AluImm {
                    op: AluImmOp::Addi,
                    rd: Reg::A7,
                    rs1: Reg::Zero,
                    imm: syscall::EXIT as i64,
                },
                Instr::Ecall,
            ],
        )
    }

    #[test]
    fn trace_records_register_writes() {
        let mut m = Machine::new(prog(), SafetyConfig::default());
        let (events, trap) = m.trace(100);
        assert!(trap.is_none());
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].reg_writes, vec![(Reg::A0, 5)]);
        assert_eq!(events[1].reg_writes, vec![(Reg::A7, syscall::EXIT)]);
        assert_eq!(m.exit_code(), Some(5));
        let line = events[0].to_string();
        assert!(line.contains("addi a0, zero, 5") && line.contains("a0=0x5"));
    }

    #[test]
    fn trace_stops_at_exit_and_is_stable_after() {
        let mut m = Machine::new(prog(), SafetyConfig::default());
        let (events, _) = m.trace(1000);
        assert_eq!(events.len(), 3);
        let (more, _) = m.trace(1000);
        assert!(more.is_empty(), "no events after exit");
    }

    #[test]
    fn trace_surfaces_traps_with_prefix() {
        let p = Program::from_instrs(0x1_0000, vec![Instr::Ebreak]);
        let mut m = Machine::new(p, SafetyConfig::default());
        let (events, trap) = m.trace(10);
        assert!(events.is_empty());
        assert!(matches!(trap, Some(Trap::Breakpoint { .. })));
    }

    #[test]
    fn trace_reports_a_fetch_past_the_program() {
        // No exit: the second step fetches past the end, as `run` would.
        let p = Program::from_instrs(0x1_0000, vec![Instr::Fence]);
        let mut m = Machine::new(p, SafetyConfig::default());
        let (events, trap) = m.trace(10);
        assert_eq!(events.len(), 1);
        assert_eq!(trap, Some(Trap::BadFetch { pc: 0x1_0004 }));
    }

    #[test]
    fn syscall_multi_writes_are_all_captured() {
        // malloc writes a0, a1 and a2.
        let p = Program::from_instrs(
            0x1_0000,
            vec![
                Instr::AluImm {
                    op: AluImmOp::Addi,
                    rd: Reg::A0,
                    rs1: Reg::Zero,
                    imm: 32,
                },
                Instr::AluImm {
                    op: AluImmOp::Addi,
                    rd: Reg::A7,
                    rs1: Reg::Zero,
                    imm: syscall::MALLOC as i64,
                },
                Instr::Ecall,
            ],
        );
        let mut m = Machine::new(p, SafetyConfig::default());
        let (events, _) = m.trace(10);
        let regs: Vec<Reg> = events[2].reg_writes.iter().map(|&(r, _)| r).collect();
        assert!(regs.contains(&Reg::A0));
        assert!(regs.contains(&Reg::A1));
        assert!(regs.contains(&Reg::A2));
    }
}
