//! # hwst-sim
//!
//! The HWST128 instruction-set simulator: a SPIKE-like functional RV64IM
//! interpreter augmented with the HWST128 security hardware model, as the
//! paper's evaluation does for the Juliet suite ("The SPIKE simulator is
//! augmented with the HWST128 security operation hardware and metadata
//! compression", §4) — plus the pipeline timing model so the same run
//! yields the cycle counts of the FPGA experiments.
//!
//! * [`Machine`] — architectural state (GPRs, PC, CSRs, SRF, memory),
//!   the heap/lock allocator models and the proxy-kernel syscall layer.
//! * [`Trap`] — spatial/temporal violation traps and machine faults.
//! * [`ExitStatus`] — exit code, captured output and cycle statistics.
//! * [`SafetyConfig`] — which checks are armed (spatial/temporal/
//!   keybuffer) and the compression/pipeline parameters.
//! * [`inject`] — the deterministic metadata-path fault model and the
//!   AVF-style outcome classification (experiments R1 and Z2).
//! * [`Machine::step`] — the reference semantics: one `match` over the
//!   instruction, each access charging its dynamic share to the
//!   pipeline where it happens, then one `retire` of the static share
//!   (`hwst_pipeline::RetireInfo::of`). [`Machine::run`] drives it as
//!   the oracle the `hwst-exec` fast engine is checked against.
//! * [`Observation`] ([`Machine::observe`]) — the observable state,
//!   defined once for every differential check between engines.
//! * [`Machine::run_profiled`] — per-PC cycle attribution into an
//!   `hwst_telemetry::Profiler` (experiment P1); observation only, a
//!   profiled run is bit-identical to a plain one.
//!
//! ## Example
//!
//! ```
//! use hwst_isa::{Instr, Program, Reg, AluImmOp};
//! use hwst_sim::{Machine, SafetyConfig};
//!
//! // addi a0, zero, 7 ; addi a7, zero, 93 (exit) ; ecall
//! let prog = Program::from_instrs(0x1_0000, vec![
//!     Instr::AluImm { op: AluImmOp::Addi, rd: Reg::A0, rs1: Reg::Zero, imm: 7 },
//!     Instr::AluImm { op: AluImmOp::Addi, rd: Reg::A7, rs1: Reg::Zero, imm: 93 },
//!     Instr::Ecall,
//! ]);
//! let mut m = Machine::new(prog, SafetyConfig::default());
//! let exit = m.run(10_000).expect("no trap");
//! assert_eq!(exit.code, 7);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod exec;
pub mod inject;
mod machine;
mod observe;
mod profile;
pub mod syscall;
mod trace;
mod trap;

pub use machine::{ExitStatus, LoadError, Machine, RuntimeEvents, SafetyConfig};
pub use observe::Observation;
pub use trace::TraceEvent;
pub use trap::Trap;
