//! # hwst-telemetry
//!
//! The observability subsystem of the HWST128 reproduction: where do
//! the cycles of a protected run actually go?
//!
//! The paper explains its overhead numbers structurally — metadata
//! instructions, shadow-memory stalls, keybuffer misses — but a single
//! aggregate `CycleStats` per run cannot attribute any of that to code.
//! This crate supplies the missing layer, std-only and dependency-free
//! (the JSON writer is borrowed from `hwst-harness`):
//!
//! * [`RingRecorder`] — a bounded ring-buffer span recorder. Recording
//!   is strictly additive: it never touches the timing model, so a run
//!   with the recorder detached reproduces today's `CycleStats`
//!   byte-identically.
//! * [`PcProfile`] / [`Breakdown`] — per-PC cycle attribution. The
//!   simulator folds per-step `CycleStats` deltas into a PC-indexed
//!   profile, split into base/check/shadow/keybuffer/runtime
//!   categories that sum exactly to `total_cycles`.
//! * [`attribute`] — folds the profile into a hot-function table
//!   ([`FnTable`]), naming each PC's function through a resolver such
//!   as `hwst_compiler`'s `LowerPlan::func_at_pc`.
//! * [`chrome_trace`] / [`collapsed_stacks`] — exporters: Chrome
//!   trace-event JSON (loadable in Perfetto / `chrome://tracing`) and
//!   collapsed-stack text for flamegraph tooling.
//!
//! ## Soundness of attribution
//!
//! Attribution is *exact by construction*: every category value is a
//! difference of monotone `CycleStats` fields captured around a single
//! [`step`], and the category split is computed so the five categories
//! sum to the step's total-cycle delta. Nothing is sampled and nothing
//! is estimated; the only unattributed cycles are those spent at PCs
//! outside any function range (the startup shim).
//!
//! [`step`]: https://docs.rs/hwst-sim

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod export;
mod profile;

pub use event::{Event, RingRecorder, Track};
pub use export::{chrome_trace, collapsed_stacks};
pub use profile::{attribute, Breakdown, FnRow, FnTable, PcProfile, Profiler};
