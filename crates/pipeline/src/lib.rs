//! # hwst-pipeline
//!
//! A cycle-approximate model of the HWST128 processor: the 5-stage
//! in-order Rocket pipeline inherited from SHORE, plus the HWST128
//! additions (paper Fig. 3):
//!
//! * [`ShadowRegisterFile`] — the 128-bit-per-entry SRF with in-pipeline
//!   metadata propagation,
//! * [`KeyBuffer`] — the TLB-like lock→key cache that lets `tchk` skip
//!   the key load (§3.5),
//! * [`Cache`] — a set-associative D-cache model,
//! * [`Pipeline`] — per-instruction cycle accounting (hazards, branch
//!   penalties, multi-cycle mul/div, memory latency, metadata
//!   operations) and [`CycleStats`] with a per-category breakdown.
//!
//! Timing is defined once. [`RetireInfo::of`] is the only
//! instruction-to-timing decision; an instruction's static share is
//! charged through [`StaticCharges`] and [`Pipeline::charge_static`]
//! (one instruction at a time by [`Pipeline::retire`], or a decoded
//! block prefix at a time by the `hwst-exec` fast engine), and its
//! dynamic share through the `charge_*` calls the executor makes where
//! each access happens.
//!
//! The absolute cycle numbers are a calibrated model, not RTL; what the
//! reproduction relies on is that the *same* core model executes the
//! baseline, SBCETS-instrumented and HWST128-instrumented programs, so
//! relative overheads (the paper's Figs. 4 and 5) are meaningful.
//!
//! ## Example
//!
//! ```
//! use hwst_pipeline::{Pipeline, PipelineConfig, RetireInfo};
//! use hwst_isa::{Instr, Reg, AluOp};
//!
//! let mut pipe = Pipeline::new(PipelineConfig::default());
//! let add = Instr::Alu { op: AluOp::Add, rd: Reg::A0, rs1: Reg::A1, rs2: Reg::A2 };
//! pipe.retire(&RetireInfo::of(&add));
//! assert_eq!(pipe.stats().total_cycles(), 1, "an ALU op retires in one cycle");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod keybuffer;
mod pipeline;
mod srf;
mod stats;

pub use cache::{Cache, CacheConfig};
pub use keybuffer::KeyBuffer;
pub use pipeline::{
    Pipeline, PipelineConfig, RetireClass, RetireInfo, ShadowLayout, StaticCharges,
};
pub use srf::ShadowRegisterFile;
pub use stats::CycleStats;
