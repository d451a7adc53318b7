//! Coverage aggregation (the Fig. 6 data).

use crate::{execute_detects, model_detects, suite, Case, Cwe, Detector};
use hwst_compiler::{CompileOptions, Scheme};
use std::collections::BTreeMap;
use std::fmt;

/// Per-detector, per-CWE detection counts over the suite.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoverageReport {
    /// `(detector label, cwe) -> detected count`.
    counts: BTreeMap<(String, u32), u32>,
    /// Total suite size.
    pub total_cases: u32,
}

impl CoverageReport {
    /// Records one detection.
    pub fn record(&mut self, det: &str, cwe: Cwe) {
        *self
            .counts
            .entry((det.to_string(), cwe.code()))
            .or_insert(0) += 1;
    }

    /// Detections of `det` in `cwe`.
    pub fn count(&self, det: &str, cwe: Cwe) -> u32 {
        self.counts
            .get(&(det.to_string(), cwe.code()))
            .copied()
            .unwrap_or(0)
    }

    /// Total detections of `det`.
    pub fn total(&self, det: &str) -> u32 {
        Cwe::ALL.iter().map(|&c| self.count(det, c)).sum()
    }

    /// Coverage of `det` as a fraction of the suite.
    pub fn coverage(&self, det: &str) -> f64 {
        if self.total_cases == 0 {
            0.0
        } else {
            self.total(det) as f64 / self.total_cases as f64
        }
    }
}

impl fmt::Display for CoverageReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let dets: Vec<String> = {
            let mut v: Vec<String> = self.counts.keys().map(|(d, _)| d.clone()).collect();
            v.sort();
            v.dedup();
            v
        };
        write!(f, "{:<10}", "CWE")?;
        for d in &dets {
            write!(f, "{d:>10}")?;
        }
        writeln!(f)?;
        for cwe in Cwe::ALL {
            write!(f, "{:<10}", cwe.to_string())?;
            for d in &dets {
                write!(f, "{:>10}", self.count(d, cwe))?;
            }
            writeln!(f)?;
        }
        write!(f, "{:<10}", "TOTAL")?;
        for d in &dets {
            write!(f, "{:>10}", self.total(d))?;
        }
        writeln!(f)?;
        write!(f, "{:<10}", "coverage")?;
        for d in &dets {
            write!(f, "{:>9.2}%", self.coverage(d) * 100.0)?;
        }
        Ok(())
    }
}

/// Coverage of the two modelled detectors (GCC, ASAN) plus the modelled
/// expectations for the pointer schemes — cheap, no simulation.
pub fn model_coverage() -> CoverageReport {
    let cases = suite();
    let mut r = CoverageReport {
        total_cases: cases.len() as u32,
        ..Default::default()
    };
    for c in &cases {
        for det in Detector::ALL {
            if model_detects(det, c) {
                r.record(det.label(), c.cwe);
            }
        }
    }
    r
}

/// One case's verdict under all four detectors — the unit of work a
/// parallel Fig. 6 sweep farms out (GCC/ASAN modelled, SBCETS/HWST128
/// executed on the simulator).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CaseDetections {
    /// The case's category.
    pub cwe: Cwe,
    /// Per-detector verdicts, in [`Detector::ALL`] order.
    pub detected: [(Detector, bool); 4],
}

/// Measures one case under every detector.
pub fn measure_case(c: &Case) -> CaseDetections {
    CaseDetections {
        cwe: c.cwe,
        detected: [
            (Detector::Gcc, model_detects(Detector::Gcc, c)),
            (Detector::Asan, model_detects(Detector::Asan, c)),
            (
                Detector::Sbcets,
                execute_detects(c, CompileOptions::new(Scheme::Sbcets)),
            ),
            (
                Detector::Hwst128,
                execute_detects(c, CompileOptions::new(Scheme::Hwst128Tchk)),
            ),
        ],
    }
}

impl CoverageReport {
    /// Folds one measured case into the report (counts the case and
    /// records every positive verdict). Merging is commutative, so a
    /// parallel sweep can absorb in any order — the harness absorbs in
    /// job-ID order regardless.
    pub fn absorb(&mut self, d: &CaseDetections) {
        self.total_cases += 1;
        for (det, hit) in d.detected {
            if hit {
                self.record(det.label(), d.cwe);
            }
        }
    }
}

/// *Measured* coverage: executes `1/stride` of the suite per pointer
/// scheme on the simulator (stride 1 = the full 8366 cases, as the fig6
/// harness runs it), with GCC/ASAN still modelled.
pub fn measure_coverage(stride: usize) -> CoverageReport {
    let stride = stride.max(1);
    let mut r = CoverageReport::default();
    for c in suite().into_iter().step_by(stride) {
        r.absorb(&measure_case(&c));
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_report_reproduces_fig6_profile() {
        let r = model_coverage();
        assert_eq!(r.total("GCC"), 937);
        assert_eq!(r.total("SBCETS"), 5395);
        assert_eq!(r.total("HWST128"), 5323);
        assert!((r.coverage("ASAN") - 0.5808).abs() < 0.002);
        assert!((r.coverage("SBCETS") - 0.6449).abs() < 0.001);
        assert!((r.coverage("HWST128") - 0.6363).abs() < 0.001);
        assert!((r.coverage("GCC") - 0.1120).abs() < 0.001);
    }

    #[test]
    fn measured_sample_matches_model() {
        // Execute every 97th case (87 programs x 2 schemes) and check the
        // measured detections agree exactly with the per-case model.
        let cases: Vec<Case> = suite().into_iter().step_by(97).collect();
        for c in &cases {
            assert_eq!(
                execute_detects(c, CompileOptions::new(Scheme::Sbcets)),
                model_detects(Detector::Sbcets, c),
                "SBCETS mismatch on {:?}",
                c
            );
            assert_eq!(
                execute_detects(c, CompileOptions::new(Scheme::Hwst128Tchk)),
                model_detects(Detector::Hwst128, c),
                "HWST128 mismatch on {:?}",
                c
            );
        }
    }

    #[test]
    fn report_display_renders_all_rows() {
        let r = model_coverage();
        let s = r.to_string();
        assert!(s.contains("CWE121") && s.contains("CWE761"));
        assert!(s.contains("TOTAL") && s.contains("coverage"));
    }
}
