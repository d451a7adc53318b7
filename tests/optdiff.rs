//! The `-O0`-vs-`-O1` gate over the kernels and Juliet: the optimizing
//! back-end may change *how many* cycles a program takes, never *what
//! it computes* or *what it detects*. Every kernel × scheme at `-O1`
//! goes through [`common::verdict`] (so both engines agree there too)
//! and must give the baseline-at-O0 verdict that `exec.rs` holds every
//! `-O0` cell to; every sampled Juliet case gives the same verdict at
//! both tiers.
//!
//! The cross-suite smoke subset and a one-per-CWE Juliet sample run in
//! tier-1; the full 23-kernel × `Scheme::EVERY` sweep and a deeper
//! Juliet sample ride the `--ignored` CI heavy gate.

mod common;

use common::{juliet_matches_across_tiers, kernels_match_baseline, smoke_kernels, SCHEMES};
use hwst128::compiler::{OptLevel, Scheme};

/// Tier-1: the cross-suite subset × the five kernel schemes, and a
/// one-per-CWE Juliet sample.
#[test]
fn o1_matches_o0_on_smoke_subset() {
    kernels_match_baseline(&smoke_kernels(), &SCHEMES, OptLevel::O1);
    juliet_matches_across_tiers(&SCHEMES, 1);
}

/// Full acceptance: all 23 kernels × every scheme, and a deeper Juliet
/// sample. Rides the CI heavy gate.
#[test]
#[ignore = "full sweep; run via the CI heavy gates"]
fn o1_matches_o0_on_full_suite() {
    kernels_match_baseline(&hwst128::workloads::all(), &Scheme::EVERY, OptLevel::O1);
    juliet_matches_across_tiers(&Scheme::EVERY, 5);
}
