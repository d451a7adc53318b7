//! # hwst-exec
//!
//! The decoded-block fast execution tier over [`hwst_sim`]: each basic
//! block is decoded **once** into a cache of pre-resolved operations
//! (immediates sign-extended, branch/jump targets computed, retire
//! shapes pre-classified), hot HWST128 pairs are fused into
//! superinstructions (`sbdl`+`sbdu`, `lbdls`+`lbdus`,
//! `lbdls`+checked-load), and subsequent executions dispatch straight
//! over the cached block — no per-step fetch or decode match.
//!
//! ## The bit-identity contract
//!
//! The fast tier is an *engine*, not a different model: for any program,
//! fuel and [`SafetyConfig`](hwst_sim::SafetyConfig),
//! [`run_fast`] returns exactly what [`Machine::run`] returns — the same
//! [`ExitStatus`] (code, output **and**
//! [`CycleStats`](hwst_pipeline::CycleStats)) or the same
//! [`Trap`] — and leaves the machine with the same
//! [`Observation`](hwst_sim::Observation) (registers, PC, memory, SRF,
//! pipeline counters). This holds because the tier *shares* the cycle
//! model rather than approximating it:
//!
//! * every component's static share comes from the same
//!   [`hwst_pipeline::RetireInfo::of`] facts [`Machine::step`] retires,
//!   summed per block into `StaticCharges` prefixes, and its dynamic
//!   share goes through the same `Pipeline::charge_*` calls, in the
//!   same order;
//! * spatial checks go through [`Machine::spatial_check`] — the same SCU
//!   predicate the reference uses;
//! * instructions with environment interactions (`ecall`, `csr*`,
//!   `ebreak`) fall back to [`Machine::step`] itself.
//!
//! Fusion never changes semantics: a fused pair still executes and
//! retires as two components, each consuming one fuel unit — the fusion
//! only collapses dispatch and shares address computation that is
//! provably identical between the halves.
//!
//! Profiling has no fast path: per-PC attribution runs on
//! [`Machine::run_profiled`], the reference. Fault campaigns
//! ([`inject`]) stop a fast run at a trigger, fault it and resume.
//!
//! ## Invalidation
//!
//! A [`BlockCache`] is valid for one program load. It stamps itself
//! with the [`Machine::program_id`] it decoded from and flushes when the
//! id no longer matches. Ids are process-unique and drawn only by
//! [`Machine::new`] (a clone keeps its original's), because the
//! instruction image is immutable for a machine's lifetime.
//!
//! ## Example
//!
//! ```
//! use hwst_exec::{run_fast, BlockCache};
//! use hwst_isa::{AluImmOp, Instr, Program, Reg};
//! use hwst_sim::{Machine, SafetyConfig};
//!
//! let prog = Program::from_instrs(0x1_0000, vec![
//!     Instr::AluImm { op: AluImmOp::Addi, rd: Reg::A0, rs1: Reg::Zero, imm: 7 },
//!     Instr::AluImm { op: AluImmOp::Addi, rd: Reg::A7, rs1: Reg::Zero, imm: 93 },
//!     Instr::Ecall,
//! ]);
//! let mut cycle = Machine::new(prog.clone(), SafetyConfig::default());
//! let mut fast = Machine::new(prog, SafetyConfig::default());
//! let mut cache = BlockCache::new();
//! let want = cycle.run(1_000);
//! assert_eq!(run_fast(&mut fast, 1_000, &mut cache), want);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod block;
pub mod inject;
mod run;

pub use block::BlockCache;
pub use run::run_fast;

use hwst_sim::{ExitStatus, Machine, Trap};

/// Which execution engine drives a [`Machine`].
///
/// Both engines produce bit-identical results (state, traps, stats);
/// the choice only changes wall-clock time. `Cycle` is the reference
/// interpreter ([`Machine::run`]); `Fast` is the decoded-block tier and
/// the default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The reference interpreter: fetch/decode/execute per step.
    Cycle,
    /// The decoded-block tier with superinstruction fusion.
    #[default]
    Fast,
}

impl Engine {
    /// Runs `m` for `fuel` instructions under this engine. The `cache`
    /// is only consulted by `Fast`; passing a warm cache skips
    /// re-decoding.
    ///
    /// # Errors
    ///
    /// Exactly those of [`Machine::run`].
    pub fn run(
        self,
        m: &mut Machine,
        fuel: u64,
        cache: &mut BlockCache,
    ) -> Result<ExitStatus, Trap> {
        match self {
            Engine::Cycle => m.run(fuel),
            Engine::Fast => run_fast(m, fuel, cache),
        }
    }
}
