//! Detector models.

use crate::{Case, Cwe};

/// The four protection/detection systems of Fig. 6, plus the four
/// related-work designs modeled by the comparative zoo (experiment Z1;
/// DESIGN.md §4l). The zoo entries stay out of [`Detector::ALL`] so the
/// Fig. 6 artifact keeps its published shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Detector {
    /// Default GCC 8.2 (stack protector + glibc heap consistency checks).
    Gcc,
    /// AddressSanitizer.
    Asan,
    /// SoftBoundCETS.
    Sbcets,
    /// HWST128 (this work).
    Hwst128,
    /// RV-CURE capability tags (arXiv:2308.02945): full spatial+temporal
    /// coverage at word granularity; tags do not survive provenance
    /// laundering through integer round-trips.
    RvCure,
    /// L4 Pointer software wide pointers (arXiv:2302.06819): byte-exact
    /// software bounds + key/lock, SoftBoundCETS-class coverage.
    L4Pointer,
    /// CryptSan PAC-style pointer signing (arXiv:2202.08669): temporal
    /// bugs authenticate-fail deterministically; spatial bugs are caught
    /// only when the overflow clobbers a signed pointer that is later
    /// used (modeled as a fixed 1-in-8 reachable slice).
    CryptSan,
    /// HeapSafe heap-only tagging (arXiv:2105.08712): stack CWEs are
    /// unreachable by construction; heap coverage matches the hardware
    /// schemes at word granularity.
    HeapSafe,
}

impl Detector {
    /// All detectors in Fig. 6 order.
    pub const ALL: [Detector; 4] = [
        Detector::Gcc,
        Detector::Sbcets,
        Detector::Asan,
        Detector::Hwst128,
    ];

    /// The four zoo detectors, in Z1 row order.
    pub const ZOO: [Detector; 4] = [
        Detector::RvCure,
        Detector::L4Pointer,
        Detector::CryptSan,
        Detector::HeapSafe,
    ];

    /// Display label.
    pub const fn label(self) -> &'static str {
        match self {
            Detector::Gcc => "GCC",
            Detector::Asan => "ASAN",
            Detector::Sbcets => "SBCETS",
            Detector::Hwst128 => "HWST128",
            Detector::RvCure => "RV-CURE",
            Detector::L4Pointer => "L4Pointer",
            Detector::CryptSan => "CryptSan",
            Detector::HeapSafe => "HeapSafe",
        }
    }
}

impl std::fmt::Display for Detector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Cases per CWE the two *modelled* detectors catch, as `(GCC, ASAN)`.
/// The table encodes the published detection profiles:
///
/// * **GCC**: the stack canary only trips on contiguous stack overflows
///   that reach the guard; glibc aborts on heap-chunk corruption, some
///   double frees and invalid (interior) frees. Nothing for reads or
///   null derefs. Totals 937 = 11.20% (paper).
/// * **ASAN**: strong on redzone-adjacent overflows and quarantined
///   temporal bugs; blind to far out-of-bounds jumps past the redzone,
///   intra-object overflows — and **all of CWE690** ("ASAN cannot detect
///   any of the cases in this category", §5.2). Totals 4859 = 58.08%.
const fn model_counts(cwe: Cwe) -> (u32, u32) {
    match cwe {
        Cwe::Cwe121 => (600, 1300),
        Cwe::Cwe122 => (180, 1350),
        Cwe::Cwe124 => (40, 620),
        Cwe::Cwe126 => (0, 420),
        Cwe::Cwe127 => (0, 460),
        Cwe::Cwe415 => (100, 180),
        Cwe::Cwe416 => (0, 400),
        Cwe::Cwe476 => (0, 80),
        Cwe::Cwe690 => (0, 0),
        Cwe::Cwe761 => (17, 49),
    }
}

/// Whether the modelled detector catches this case.
///
/// The pointer-based schemes and the zoo designs are decided by the
/// case's own attributes (the expected outcome of executing it). GCC
/// and ASAN catch the first `model_counts` cases of each category,
/// striped over its indices.
pub fn model_detects(det: Detector, case: &Case) -> bool {
    match det {
        Detector::Gcc => striped(case, model_counts(case.cwe).0),
        Detector::Asan => striped(case, model_counts(case.cwe).1),
        Detector::Sbcets => !case.laundered,
        Detector::Hwst128 => !case.laundered && !case.sub_granule,
        Detector::RvCure => !case.laundered && !case.sub_granule,
        Detector::L4Pointer => !case.laundered,
        Detector::HeapSafe => case.cwe != Cwe::Cwe121 && !case.laundered && !case.sub_granule,
        Detector::CryptSan => match case.cwe {
            Cwe::Cwe415 | Cwe::Cwe416 | Cwe::Cwe761 => !case.laundered,
            Cwe::Cwe476 | Cwe::Cwe690 => false,
            // Pointer-clobber slice: deterministic 1-in-8 stride over
            // the reachable indices (laundered cases start at
            // `reachable_count`, so the stride count is exact).
            _ => !case.laundered && case.index.is_multiple_of(8),
        },
    }
}

/// Whether `case` is one of the `n` detected cases of its category,
/// striped uniformly over the category so per-index attributes do not
/// correlate with detection (external detectors do not care about
/// pointer-provenance laundering).
fn striped(case: &Case, n: u32) -> bool {
    let total = case.cwe.case_count() as u64;
    let hit = (case.index as u64 * n as u64) % total;
    hit < n as u64 && n > 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite;

    #[test]
    fn modelled_totals_match_paper_fig6() {
        let cases = suite();
        let count = |d: Detector| cases.iter().filter(|c| model_detects(d, c)).count();
        assert_eq!(count(Detector::Gcc), 937, "GCC = 11.20% of 8366");
        assert_eq!(count(Detector::Sbcets), 5395, "SBCETS = 64.49%");
        assert_eq!(count(Detector::Hwst128), 5323, "HWST128 = 63.63%");
        let asan = count(Detector::Asan);
        assert!(
            (4850..=4868).contains(&asan),
            "ASAN ≈ 4859 (58.08%), got {asan}"
        );
    }

    #[test]
    fn asan_detects_nothing_in_cwe690() {
        let cases = suite();
        let hits = cases
            .iter()
            .filter(|c| c.cwe == Cwe::Cwe690)
            .filter(|c| model_detects(Detector::Asan, c))
            .count();
        assert_eq!(hits, 0, "paper §5.2: ASAN misses all of CWE690");
    }

    #[test]
    fn zoo_coverage_structure() {
        let cases = suite();
        let count = |d: Detector| cases.iter().filter(|c| model_detects(d, c)).count();
        // RV-CURE matches the hardware envelope, L4 Pointer the
        // byte-exact software one.
        assert_eq!(count(Detector::RvCure), count(Detector::Hwst128));
        assert_eq!(count(Detector::L4Pointer), count(Detector::Sbcets));
        // HeapSafe = hardware envelope minus the whole stack category.
        let stack = cases
            .iter()
            .filter(|c| c.cwe == Cwe::Cwe121)
            .filter(|c| model_detects(Detector::Hwst128, c))
            .count();
        assert_eq!(count(Detector::HeapSafe), count(Detector::Hwst128) - stack);
        assert!(
            !cases
                .iter()
                .filter(|c| c.cwe == Cwe::Cwe121)
                .any(|c| model_detects(Detector::HeapSafe, c)),
            "HeapSafe misses stack CWEs by construction"
        );
        // CryptSan: deterministic on temporal CWEs, probabilistic slice
        // on spatial ones, nothing on the NULL-deref categories.
        for cwe in [Cwe::Cwe476, Cwe::Cwe690] {
            assert!(!cases
                .iter()
                .filter(|c| c.cwe == cwe)
                .any(|c| model_detects(Detector::CryptSan, c)));
        }
        let cryptsan_spatial = cases
            .iter()
            .filter(|c| c.cwe.is_spatial() && model_detects(Detector::CryptSan, c))
            .count();
        let sbcets_spatial = cases
            .iter()
            .filter(|c| c.cwe.is_spatial() && model_detects(Detector::Sbcets, c))
            .count();
        assert!(
            cryptsan_spatial * 4 < sbcets_spatial,
            "the pointer-clobber slice must stay a small minority: {cryptsan_spatial} vs {sbcets_spatial}"
        );
    }

    #[test]
    fn hwst_trails_sbcets_only_in_cwe122() {
        let cases = suite();
        for cwe in Cwe::ALL {
            let sb = cases
                .iter()
                .filter(|c| c.cwe == cwe)
                .filter(|c| model_detects(Detector::Sbcets, c))
                .count();
            let hw = cases
                .iter()
                .filter(|c| c.cwe == cwe)
                .filter(|c| model_detects(Detector::Hwst128, c))
                .count();
            if cwe == Cwe::Cwe122 {
                assert_eq!(sb - hw, 72);
            } else {
                assert_eq!(sb, hw, "{cwe} must not differ");
            }
        }
    }
}
