//! Static-detection table: `hwst-lint` coverage over the Juliet suite.
//!
//! The dynamic detectors of this crate (SBCETS/HWST128) *execute* each
//! case and count traps; this module instead runs the compiler's
//! [`lint`] pass over the same generated programs and counts cases
//! whose diagnostic set contains the case's CWE — the "what could the
//! compiler have told you before running anything" column.
//!
//! A case counts as statically detected only when a diagnostic with the
//! **matching** CWE identifier fires; incidental findings of other
//! classes do not count. Benign twins must produce zero diagnostics of
//! any kind (verified by `benign_twins_are_lint_clean`): the linter is
//! must-style and never flags code that could be correct.

use crate::{build_program, suite, Case, Cwe};
use hwst_compiler::binval::{self, BinvalReport};
use hwst_compiler::ir::Module;
use hwst_compiler::lint::lint;
use hwst_compiler::{CompileError, CompileOptions, Scheme};

/// Whether `hwst-lint` statically detects a case: some diagnostic on
/// the case's program carries the case's own CWE code.
pub fn static_detects(case: &Case) -> bool {
    lint(&build_program(case))
        .iter()
        .any(|d| d.cwe == case.cwe.code())
}

/// Whether the binary-level validator statically detects a case: the
/// lowered HWST128_tchk image carries a proven-out-of-bounds finding
/// ([`binval::FindingClass::StaticBug`]) with the case's own CWE code.
///
/// This column is strictly more conservative than `hwst-lint`: it only
/// fires when the machine-level abstract interpreter can evaluate both
/// the access address *and* the bound metadata (globals and stack
/// allocations with constant offsets), whereas the IR linter reasons
/// symbolically over regions.
pub fn binval_detects(case: &Case) -> bool {
    match validated(&build_program(case)) {
        Ok(report) => report.findings.iter().any(|f| {
            f.class == binval::FindingClass::StaticBug && f.cwe == Some(case.cwe.code() as u16)
        }),
        Err(_) => false,
    }
}

/// The binary validator's report on the plain HWST128_tchk image of
/// `module`.
fn validated(module: &Module) -> Result<BinvalReport, CompileError> {
    binval::translation_validate(module, CompileOptions::new(Scheme::Hwst128Tchk))
        .map(|tv| tv.report)
}

/// One row of the static-detection table.
#[derive(Debug, Clone, Copy)]
pub struct StaticRow {
    /// Category.
    pub cwe: Cwe,
    /// Cases the IR linter flags with the matching CWE.
    pub detected: u32,
    /// Cases the binary-level validator flags with the matching CWE.
    pub binval_detected: u32,
    /// Cases in the category.
    pub total: u32,
}

impl StaticRow {
    /// IR-lint detection rate in percent.
    pub fn rate(&self) -> f64 {
        100.0 * self.detected as f64 / self.total as f64
    }
}

/// Computes the full-suite static-detection table (one lint run and
/// one binary validation per case; no program is executed).
pub fn static_coverage() -> Vec<StaticRow> {
    static_coverage_strided(1)
}

/// [`static_coverage`] over every `stride`-th case — the same
/// subsampling knob the Fig. 6 sweep uses, for CI-budget runs. Totals
/// count the sampled cases, so rates stay comparable.
pub fn static_coverage_strided(stride: usize) -> Vec<StaticRow> {
    let mut rows: Vec<StaticRow> = Cwe::ALL
        .iter()
        .map(|&cwe| StaticRow {
            cwe,
            detected: 0,
            binval_detected: 0,
            total: 0,
        })
        .collect();
    for case in suite().into_iter().step_by(stride.max(1)) {
        // Cwe::ALL seeds one row per category, so the find cannot miss.
        let Some(row) = rows.iter_mut().find(|r| r.cwe == case.cwe) else {
            continue;
        };
        row.total += 1;
        if static_detects(&case) {
            row.detected += 1;
        }
        if binval_detects(&case) {
            row.binval_detected += 1;
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::make_case;
    use crate::{build_benign_program, Flow};

    fn straight_reachable(cwe: Cwe) -> Case {
        (0..cwe.reachable_count())
            .map(|i| make_case(cwe, i))
            .find(|c| c.flow == Flow::Straight && !c.sub_granule)
            .expect("every category has a straight reachable case")
    }

    #[test]
    fn straight_cases_are_flagged_with_their_own_cwe() {
        // The acceptance bar is ≥3 distinct CWE classes; the linter
        // covers all in-function classes.
        for cwe in [
            Cwe::Cwe121,
            Cwe::Cwe122,
            Cwe::Cwe124,
            Cwe::Cwe126,
            Cwe::Cwe127,
            Cwe::Cwe415,
            Cwe::Cwe416,
            Cwe::Cwe476,
            Cwe::Cwe761,
        ] {
            let c = straight_reachable(cwe);
            assert!(static_detects(&c), "{cwe} straight case must be flagged");
        }
    }

    #[test]
    fn cross_function_and_laundered_flows_stay_silent() {
        // The violation happens beyond the intraprocedural reach (or
        // the root is laundered): must-style analysis cannot flag it.
        for cwe in [Cwe::Cwe121, Cwe::Cwe122, Cwe::Cwe416, Cwe::Cwe476] {
            let cross = (0..cwe.reachable_count())
                .map(|i| make_case(cwe, i))
                .find(|c| c.flow == Flow::CrossFunction)
                .unwrap();
            assert!(!static_detects(&cross), "{cwe} cross-function flagged");
            let laundered = make_case(cwe, cwe.case_count() - 1);
            assert!(laundered.laundered);
            assert!(!static_detects(&laundered), "{cwe} laundered flagged");
        }
    }

    #[test]
    fn benign_twins_are_lint_clean() {
        for cwe in Cwe::ALL {
            let diags = lint(&build_benign_program(cwe));
            assert!(diags.is_empty(), "{cwe} benign twin: {:?}", diags);
        }
    }

    #[test]
    fn benign_twins_are_binval_clean() {
        // Neither lowering findings (the programs are correctly
        // lowered) nor static bugs (the twins are safe).
        for cwe in Cwe::ALL {
            let r = validated(&build_benign_program(cwe)).expect("benign twin compiles");
            assert!(
                r.findings.is_empty(),
                "{cwe} benign twin: {:?}",
                r.findings.iter().map(|f| f.to_string()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn binval_flags_stack_overflow_cases() {
        // The binary-level interpreter proves bounds only where both
        // address and metadata are statically evaluable — stack buffers
        // with constant offsets (CWE121) are its home turf.
        let c = straight_reachable(Cwe::Cwe121);
        assert!(binval_detects(&c), "CWE121 straight case must be flagged");
    }

    #[test]
    fn binval_never_reports_lowering_findings_on_juliet() {
        // Buggy-but-correctly-lowered programs must never trip the
        // translation validator itself (sampled for test budget).
        for case in suite().into_iter().step_by(97) {
            let r = validated(&build_program(&case)).expect("case compiles");
            assert!(
                r.ok(),
                "CWE{} #{}: {:?}",
                case.cwe.code(),
                case.index,
                r.findings.iter().map(|f| f.to_string()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn coverage_table_is_consistent() {
        let rows = static_coverage();
        assert_eq!(rows.len(), 10);
        let flagged_classes = rows.iter().filter(|r| r.detected > 0).count();
        assert!(
            flagged_classes >= 3,
            "static table must cover ≥3 CWE classes, got {flagged_classes}"
        );
        for r in &rows {
            assert!(r.detected <= r.total, "{}: {:?}", r.cwe, r);
            // Static analysis sees strictly less than the dynamic
            // schemes' reachable slice, except CWE761 where the
            // interior-free shape is visible even laundered.
            if r.cwe != Cwe::Cwe761 {
                assert!(
                    r.detected <= r.cwe.case_count(),
                    "{}: detected beyond total",
                    r.cwe
                );
            }
        }
        // CWE690 launders through a call boundary by construction.
        let cwe690 = rows.iter().find(|r| r.cwe == Cwe::Cwe690).unwrap();
        assert_eq!(cwe690.detected, 0);
    }
}
