//! The `-O0`-vs-`-O1` gate over the tier-1 kernels: the optimizing
//! back-end may change *how many* cycles a program takes, never *what
//! it computes*. Every `-O1` cell of each kernel goes through the one
//! check in `common`, so both engines agree there too, the image
//! validates, and the verdict is its scheme's `-O0` plain one, which
//! must be the baseline's exit. The `-O0` cells run in `exec.rs`, and
//! the Juliet cases' `-O1` cells in `differential.rs`.

mod common;

use common::{check_kernels, tier1_kernels};
use hwst128::compiler::OptLevel;

/// Tier-1: every `-O1` cell of the tier-1 kernels.
#[test]
fn o1_matches_o0_on_smoke_subset() {
    check_kernels(tier1_kernels(), |o| o.opt == OptLevel::O1);
}
