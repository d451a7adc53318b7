//! Detection gate for the static bounds-proof pass: deleting a check is
//! only acceptable when the access is *proven* in-bounds, so the pass
//! must cost **zero** true-positive detections on the Juliet suite. A
//! stable per-CWE sample of reachable cases is compiled twice — RCE
//! alone vs RCE + bounds, verifier armed both times — and every case
//! the RCE build detects must still be detected by the bounds build.

use hwst_compiler::{CompileOptions, Scheme};
use hwst_juliet::{execute_detects, sample_reachable};

#[test]
fn bounds_pass_costs_zero_true_positive_detections() {
    let cases = sample_reachable(10);
    assert!(!cases.is_empty());
    let mut detected = 0usize;
    for scheme in [Scheme::Sbcets, Scheme::Hwst128Tchk] {
        for case in &cases {
            let rce_only = CompileOptions::new(scheme).with_rce().with_verify();
            let with_bounds = rce_only.with_bounds();
            let before = execute_detects(case, rce_only);
            let after = execute_detects(case, with_bounds);
            if before {
                detected += 1;
                assert!(
                    after,
                    "{case:?}: detected under {scheme} with RCE alone but \
                     missed once the bounds pass removed checks"
                );
            }
            // The pass must not conjure detections either: a skip never
            // adds a trap, so any new detection is a miscompile.
            assert_eq!(
                before, after,
                "{case:?}: detection flipped under {scheme} with bounds on"
            );
        }
    }
    // The gate is vacuous if the sample contains no true positives.
    assert!(
        detected > 50,
        "sample must contain a healthy number of detected cases, got {detected}"
    );
}
