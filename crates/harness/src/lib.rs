//! # hwst-harness
//!
//! Deterministic parallel job execution for the experiment layer
//! (DESIGN.md §4e).
//!
//! Every figure, ablation and campaign in the reproduction is a
//! *matrix*: workloads × schemes, cases × detectors, fault classes ×
//! targets. This crate turns each matrix cell into a [`Job`] and runs
//! the whole table on a worker pool ([`run`]) with two guarantees the
//! naive `for` loop lacks:
//!
//! 1. **Determinism** — results are collected by [`JobId`] (the index
//!    in the submitted job vector), so the output is byte-identical
//!    whether the pool has one worker or sixteen, and independent of
//!    completion order.
//! 2. **Panic isolation** — each job runs under
//!    [`std::panic::catch_unwind`]; one diverging workload yields a
//!    structured [`JobOutcome::Panicked`] row instead of aborting the
//!    whole sweep.
//!
//! Results serialise to schema-stable JSON via the dependency-free
//! [`Json`] value type (crates.io is unreachable in this environment,
//! so the crate is pure `std`).
//!
//! ## Example
//!
//! ```
//! use hwst_harness::{collect_ok, run, Job};
//!
//! let jobs: Vec<Job<u64>> = (0..8u64)
//!     .map(|i| Job::new(format!("square/{i}"), move || Ok(i * i)))
//!     .collect();
//! let (squares, failed) = collect_ok(run(jobs, 4));
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! assert!(failed.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod json;
mod pool;

pub use json::Json;
pub use pool::{collect_ok, run, FailedJob, Job, JobId, JobOutcome, JobResult};
