//! The comparative detector zoo (experiments Z1/Z2): RV-CURE
//! (arXiv:2308.02945), L4 Pointer (arXiv:2302.06819), CryptSan
//! (arXiv:2202.08669) and HeapSafe (arXiv:2105.08712) modeled as
//! first-class designs on the shared compiler/simulator substrate,
//! next to the published four.
//!
//! Each [`Design`] ties together its instrumentation scheme
//! (`hwst_compiler::instrument`), its Juliet detector model
//! (`hwst_juliet::detector`), its analytic cost model
//! (`hwst_baselines::ZooCost`) and the calibration band its *measured*
//! overhead geomean must land in (DESIGN.md §4l). `hwst-bench zoo`
//! sweeps all designs over the 23-workload suite, a Juliet sample and
//! an `hwst_sim::inject` fault campaign, emits the Z1 coverage ×
//! overhead frontier, and exits non-zero when a calibration or
//! agreement contract is violated.

use hwst128::compiler::{CompileOptions, Scheme};
use hwst128::exec::inject::campaign;
use hwst128::juliet::{execute_detects, model_detects, sample_reachable, suite, Detector};
use hwst128::sim::inject::{FaultClass, OutcomeCounts};
use hwst128::sim::Machine;
use hwst128::workloads::{Scale, Suite, Workload};
use hwst_baselines::{try_profile_workload, ZooCost};
use hwst_harness::Job;

/// One design of the Z1 frontier: the published four plus the zoo.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Design {
    /// Uninstrumented (`Scheme::None`): the 0-overhead, 0-coverage
    /// anchor of the frontier.
    Baseline,
    /// SoftBoundCETS at `-O0` (software companions + helper calls).
    Sbcets,
    /// HWST128 without the `tchk` temporal path.
    Hwst128,
    /// Full HWST128 (this work's headline configuration).
    Hwst128Tchk,
    /// RV-CURE capability tags.
    RvCure,
    /// L4 Pointer software wide pointers.
    L4Pointer,
    /// CryptSan PAC-style pointer signing.
    CryptSan,
    /// HeapSafe heap-only tagging.
    HeapSafe,
}

impl Design {
    /// Every design, baseline first — Z1 row order.
    pub const ALL: [Design; 8] = [
        Design::Baseline,
        Design::Sbcets,
        Design::Hwst128,
        Design::Hwst128Tchk,
        Design::RvCure,
        Design::L4Pointer,
        Design::CryptSan,
        Design::HeapSafe,
    ];

    /// The instrumented designs (everything but the baseline), in
    /// [`Design::ALL`] order — the measured-overhead columns.
    pub const INSTRUMENTED: [Design; 7] = [
        Design::Sbcets,
        Design::Hwst128,
        Design::Hwst128Tchk,
        Design::RvCure,
        Design::L4Pointer,
        Design::CryptSan,
        Design::HeapSafe,
    ];

    /// The four zoo designs, in [`ZooCost::ALL`] order.
    pub const ZOO: [Design; 4] = [
        Design::RvCure,
        Design::L4Pointer,
        Design::CryptSan,
        Design::HeapSafe,
    ];

    /// The instrumentation scheme realising this design.
    pub const fn scheme(self) -> Scheme {
        match self {
            Design::Baseline => Scheme::None,
            Design::Sbcets => Scheme::Sbcets,
            Design::Hwst128 => Scheme::Hwst128,
            Design::Hwst128Tchk => Scheme::Hwst128Tchk,
            Design::RvCure => Scheme::RvCure,
            Design::L4Pointer => Scheme::L4Pointer,
            Design::CryptSan => Scheme::CryptSan,
            Design::HeapSafe => Scheme::HeapSafe,
        }
    }

    /// The design's Juliet detector model; the baseline detects
    /// nothing and has none.
    pub const fn detector(self) -> Option<Detector> {
        match self {
            Design::Baseline => None,
            Design::Sbcets => Some(Detector::Sbcets),
            Design::Hwst128 | Design::Hwst128Tchk => Some(Detector::Hwst128),
            Design::RvCure => Some(Detector::RvCure),
            Design::L4Pointer => Some(Detector::L4Pointer),
            Design::CryptSan => Some(Detector::CryptSan),
            Design::HeapSafe => Some(Detector::HeapSafe),
        }
    }

    /// The analytic per-event cost model — zoo designs only (the
    /// published designs are measured directly by Fig. 4/5).
    pub const fn zoo_cost(self) -> Option<ZooCost> {
        match self {
            Design::RvCure => Some(ZooCost::RvCure),
            Design::L4Pointer => Some(ZooCost::L4Pointer),
            Design::CryptSan => Some(ZooCost::CryptSan),
            Design::HeapSafe => Some(ZooCost::HeapSafe),
            _ => None,
        }
    }

    /// The calibration band (DESIGN.md §4l): the inclusive range the
    /// measured suite-geomean overhead (percent, `Scale::Test`) must
    /// land in for the design to count as faithfully modeled. The
    /// baseline has no band (its overhead is identically zero).
    pub const fn band(self) -> Option<(f64, f64)> {
        match self {
            Design::Baseline => None,
            Design::Sbcets => Some((250.0, 450.0)),
            Design::Hwst128 => Some((90.0, 170.0)),
            Design::Hwst128Tchk => Some((30.0, 80.0)),
            Design::RvCure => Some((25.0, 75.0)),
            Design::L4Pointer => Some((150.0, 300.0)),
            Design::CryptSan => Some((60.0, 180.0)),
            Design::HeapSafe => Some((20.0, 70.0)),
        }
    }

    /// Display label — the scheme label, so Z1 rows line up with every
    /// other artifact.
    pub const fn label(self) -> &'static str {
        self.scheme().label()
    }
}

impl std::fmt::Display for Design {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Sweep configuration for `hwst-bench zoo`.
#[derive(Debug, Clone)]
pub struct ZooConfig {
    /// Reachable Juliet cases sampled per CWE for the measured
    /// coverage cross-check.
    pub juliet_per_cwe: u32,
    /// Fault-injection targets (drawn from the Fig. 4 set).
    pub inject_workloads: &'static [&'static str],
    /// Faulted runs per (design, workload, fault class) cell.
    pub seeds_per_target: u64,
    /// Base of the deterministic seed sequence.
    pub master_seed: u64,
}

impl Default for ZooConfig {
    fn default() -> Self {
        ZooConfig {
            juliet_per_cwe: 2,
            inject_workloads: &["bzip2", "math"],
            seeds_per_target: 4,
            master_seed: 0x0200_C0DE,
        }
    }
}

impl ZooConfig {
    /// The deterministic seed sequence used for every campaign cell.
    pub fn seeds(&self) -> Vec<u64> {
        (0..self.seeds_per_target)
            .map(|i| self.master_seed.wrapping_add(i))
            .collect()
    }
}

/// One Z1 workload row: measured overhead per instrumented design plus
/// the analytic model's prediction per zoo design.
#[derive(Debug, Clone, PartialEq)]
pub struct ZooRow {
    /// Workload name.
    pub name: String,
    /// Its suite.
    pub suite: Suite,
    /// Uninstrumented cycles — the Eq. 7 denominator.
    pub baseline_cycles: u64,
    /// Measured overhead (percent), [`Design::INSTRUMENTED`] order.
    pub measured_pct: [f64; 7],
    /// Model-predicted overhead (percent), [`Design::ZOO`] order.
    pub model_pct: [f64; 4],
}

/// Per-design Juliet coverage: the full-suite model count plus the
/// executed sample cross-check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DesignCoverage {
    /// The design.
    pub design: Design,
    /// Cases the detector model catches over the full 8366-case suite.
    pub model_detected: u32,
    /// Suite size (the coverage denominator).
    pub total_cases: u32,
    /// Sampled cases executed under the design's scheme.
    pub sample_cases: u32,
    /// Sampled cases where execution trapped with a violation.
    pub sample_detected: u32,
    /// Model verdicts over the same sample.
    pub sample_model: u32,
    /// Whether execution agreed with the model on every sampled case
    /// the design's agreement rule covers (CryptSan's modeled spatial
    /// pointer-clobber slice is exempt — see DESIGN.md §4l).
    pub sample_agree: bool,
}

impl DesignCoverage {
    /// Model coverage as a percentage of the suite.
    pub fn coverage_pct(&self) -> f64 {
        f64::from(self.model_detected) * 100.0 / f64::from(self.total_cases.max(1))
    }
}

/// The assembled Z1/Z2 result set.
#[derive(Debug, Clone)]
pub struct ZooReport {
    /// Per-workload overhead rows, Fig. 4 order.
    pub rows: Vec<ZooRow>,
    /// Per-design coverage, [`Design::ALL`] order.
    pub coverage: Vec<DesignCoverage>,
    /// Per-design fault-injection outcomes (merged over targets, fault
    /// classes and seeds), [`Design::ALL`] order.
    pub inject: Vec<OutcomeCounts>,
}

/// Computes one Z1 workload row: the workload profiled once (baseline,
/// SBCETS and HWST128_tchk cycles plus the event counts the cost
/// models consume), the remaining designs executed directly, and every
/// freshly-run design checked to preserve the benign exit code.
///
/// # Errors
///
/// Compile errors, traps and exit-code divergence come back as `Err`.
pub fn try_zoo_row(wl: &Workload, scale: Scale) -> Result<ZooRow, String> {
    let module = wl.module(scale);
    let fuel = wl.fuel(scale);
    let profile = try_profile_workload(&module, fuel).map_err(|e| format!("{}: {e}", wl.name))?;
    let baseline = hwst128::run_scheme(&module, CompileOptions::new(Scheme::None), fuel)
        .map_err(|e| format!("{} (baseline): {e}", wl.name))?;
    let overhead = |cycles: u64| (cycles as f64 / profile.baseline_cycles as f64 - 1.0) * 100.0;
    let mut measured = [0f64; 7];
    for (slot, design) in measured.iter_mut().zip(Design::INSTRUMENTED) {
        let cycles = match design {
            // Already executed by the profiler; don't pay for them twice.
            Design::Sbcets => profile.sbcets_cycles,
            Design::Hwst128Tchk => profile.hwst_cycles,
            _ => {
                let exit = hwst128::run_scheme(&module, CompileOptions::new(design.scheme()), fuel)
                    .map_err(|e| format!("{} ({design}): {e}", wl.name))?;
                if exit.code != baseline.code {
                    return Err(format!(
                        "{}: {design} changed the exit code ({} vs {})",
                        wl.name, exit.code, baseline.code
                    ));
                }
                exit.stats.total_cycles()
            }
        };
        *slot = overhead(cycles);
    }
    let mut model = [0f64; 4];
    for (slot, cost) in model.iter_mut().zip(ZooCost::ALL) {
        *slot = cost.overhead_pct(&profile);
    }
    Ok(ZooRow {
        name: wl.name.to_string(),
        suite: wl.suite,
        baseline_cycles: profile.baseline_cycles,
        measured_pct: measured,
        model_pct: model,
    })
}

/// Measures one design's Juliet coverage: the detector model over the
/// full suite, plus `per_cwe` reachable cases per CWE executed under
/// the design's scheme and compared against the model.
pub fn design_coverage(design: Design, per_cwe: u32) -> DesignCoverage {
    let cases = suite();
    let verdict = |case: &hwst128::juliet::Case| match design.detector() {
        Some(det) => model_detects(det, case),
        None => false,
    };
    let model_detected = cases.iter().filter(|c| verdict(c)).count() as u32;
    let sample = sample_reachable(per_cwe);
    let mut sample_detected = 0u32;
    let mut sample_model = 0u32;
    let mut sample_agree = true;
    for case in &sample {
        let measured = execute_detects(case, CompileOptions::new(design.scheme()));
        let modeled = verdict(case);
        sample_detected += u32::from(measured);
        sample_model += u32::from(modeled);
        // CryptSan's spatial coverage is a modeled probabilistic slice
        // the substrate deliberately does not reproduce (it would need
        // value-level signature collisions); every other design's model
        // is a measured oracle, and CryptSan's temporal/null rows are.
        let covered_by_rule = design != Design::CryptSan || !case.cwe.is_spatial();
        if covered_by_rule && measured != modeled {
            sample_agree = false;
        }
    }
    DesignCoverage {
        design,
        model_detected,
        total_cases: cases.len() as u32,
        sample_cases: sample.len() as u32,
        sample_detected,
        sample_model,
        sample_agree,
    }
}

/// The Z1 workload sweep: one job per workload, in the order given
/// (`hwst-bench zoo` sweeps all 23, in Fig. 4 order).
pub fn zoo_row_jobs(workloads: Vec<Workload>, scale: Scale) -> Vec<Job<ZooRow>> {
    workloads
        .into_iter()
        .map(|wl| Job::new(format!("zoo/{}", wl.name), move || try_zoo_row(&wl, scale)))
        .collect()
}

/// The per-design coverage measurement: one job per design, in
/// [`Design::ALL`] order.
pub fn zoo_coverage_jobs(cfg: &ZooConfig) -> Vec<Job<DesignCoverage>> {
    let per_cwe = cfg.juliet_per_cwe;
    Design::ALL
        .iter()
        .map(|&design| {
            Job::new(format!("zoo-coverage/{design}"), move || {
                Ok(design_coverage(design, per_cwe))
            })
        })
        .collect()
}

/// The Z2 fault campaign: one job per (design, target) cell covering
/// every fault class, each yielding its design's index in
/// [`Design::ALL`] and its counts; [`merge_inject`] folds them.
///
/// # Errors
///
/// Returns `Err` when a target fails to compile for some design —
/// nothing has run at that point.
pub fn zoo_inject_jobs(
    cfg: &ZooConfig,
    scale: Scale,
) -> Result<Vec<Job<(usize, OutcomeCounts)>>, String> {
    let seeds = cfg.seeds();
    let mut jobs = Vec::new();
    for (di, &design) in Design::ALL.iter().enumerate() {
        for name in cfg.inject_workloads {
            let wl = Workload::by_name(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
            let prog = hwst128::compiler::compile(&wl.module(scale), design.scheme())
                .map_err(|e| format!("{name} ({design}): {e}"))?;
            let fuel = wl.fuel(scale);
            let safety = hwst128::config_for(design.scheme());
            let seeds = seeds.clone();
            jobs.push(Job::new(format!("zoo-inject/{design}/{name}"), move || {
                let m = Machine::new(prog, safety);
                let mut counts = OutcomeCounts::default();
                for c in campaign(&m, fuel, &FaultClass::ALL, &seeds) {
                    counts.merge(c);
                }
                Ok((di, counts))
            }));
        }
    }
    Ok(jobs)
}

/// Merges Z2 campaign cells, in job order, into one outcome counter per
/// design ([`Design::ALL`] order).
pub fn merge_inject(cells: Vec<(usize, OutcomeCounts)>) -> Vec<OutcomeCounts> {
    let mut merged = vec![OutcomeCounts::default(); Design::ALL.len()];
    for (di, counts) in cells {
        merged[di].merge(counts);
    }
    merged
}

/// Suite-geomean measured overhead per instrumented design
/// ([`Design::INSTRUMENTED`] order), as Eq. 7 percentages.
pub fn measured_geomeans(rows: &[ZooRow]) -> [f64; 7] {
    geomeans(rows, |r| &r.measured_pct)
}

/// Suite-geomean model-predicted overhead per zoo design
/// ([`Design::ZOO`] order).
pub fn model_geomeans(rows: &[ZooRow]) -> [f64; 4] {
    geomeans(rows, |r| &r.model_pct)
}

fn geomeans<const N: usize>(rows: &[ZooRow], get: impl Fn(&ZooRow) -> &[f64; N]) -> [f64; N] {
    let mut out = [0f64; N];
    if rows.is_empty() {
        return out;
    }
    for (i, slot) in out.iter_mut().enumerate() {
        let logsum: f64 = rows.iter().map(|r| (1.0 + get(r)[i] / 100.0).ln()).sum();
        *slot = ((logsum / rows.len() as f64).exp() - 1.0) * 100.0;
    }
    out
}

/// One point of the Z1 coverage × overhead plane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignPoint {
    /// The design.
    pub design: Design,
    /// Measured suite-geomean overhead (percent; 0 for the baseline).
    pub overhead_pct: f64,
    /// Model coverage (percent of the Juliet suite).
    pub coverage_pct: f64,
}

/// Assembles the Z1 frontier points, [`Design::ALL`] order.
pub fn design_points(rows: &[ZooRow], coverage: &[DesignCoverage]) -> Vec<DesignPoint> {
    let measured = measured_geomeans(rows);
    Design::ALL
        .iter()
        .map(|&design| {
            let overhead_pct = Design::INSTRUMENTED
                .iter()
                .position(|&d| d == design)
                .map(|i| measured[i])
                .unwrap_or(0.0);
            let coverage_pct = coverage
                .iter()
                .find(|c| c.design == design)
                .map(DesignCoverage::coverage_pct)
                .unwrap_or(0.0);
            DesignPoint {
                design,
                overhead_pct,
                coverage_pct,
            }
        })
        .collect()
}

/// Pareto flags for the frontier points: `true` when no other design
/// has at-least-equal coverage at at-most-equal overhead with at least
/// one strict improvement.
pub fn frontier_flags(points: &[DesignPoint]) -> Vec<bool> {
    points
        .iter()
        .map(|p| {
            !points.iter().any(|q| {
                q.design != p.design
                    && q.overhead_pct <= p.overhead_pct
                    && q.coverage_pct >= p.coverage_pct
                    && (q.overhead_pct < p.overhead_pct || q.coverage_pct > p.coverage_pct)
            })
        })
        .collect()
}

/// Verifies the Z1 calibration and agreement contracts (DESIGN.md
/// §4l); returns one message per violation, empty on a clean pass.
///
/// * every instrumented design's measured geomean sits in its band,
///   and the baseline's is identically ~0;
/// * the cross-design orderings each paper implies hold;
/// * each zoo design's analytic model tracks its measured overhead
///   within ±25% (ratio of the 1+overhead multipliers);
/// * every executed Juliet sample agreed with its detector model
///   (under CryptSan's spatial exemption);
/// * the coverage structure is the published one (RV-CURE matches the
///   hardware envelope, L4 Pointer the software one, HeapSafe loses
///   exactly the stack category, CryptSan trails the hardware designs);
/// * the fault campaign applied the same outcome total to every design.
pub fn zoo_violations(report: &ZooReport) -> Vec<String> {
    let mut bad = Vec::new();
    let measured = measured_geomeans(&report.rows);
    let model = model_geomeans(&report.rows);
    let design_oh = |d: Design| {
        Design::INSTRUMENTED
            .iter()
            .position(|&x| x == d)
            .map(|i| measured[i])
            .unwrap_or(0.0)
    };
    for (i, design) in Design::INSTRUMENTED.iter().enumerate() {
        if let Some((lo, hi)) = design.band() {
            let oh = measured[i];
            if !(lo..=hi).contains(&oh) {
                bad.push(format!(
                    "{design}: measured geomean overhead {oh:.1}% outside its \
                     calibration band [{lo:.0}%, {hi:.0}%]"
                ));
            }
        }
    }
    let orderings: [(Design, Design); 6] = [
        (Design::Hwst128Tchk, Design::Hwst128),
        (Design::Hwst128, Design::Sbcets),
        (Design::RvCure, Design::CryptSan),
        (Design::CryptSan, Design::L4Pointer),
        (Design::L4Pointer, Design::Sbcets),
        (Design::HeapSafe, Design::CryptSan),
    ];
    for (cheap, dear) in orderings {
        if design_oh(cheap) >= design_oh(dear) {
            bad.push(format!(
                "ordering violated: {cheap} ({:.1}%) must undercut {dear} ({:.1}%)",
                design_oh(cheap),
                design_oh(dear)
            ));
        }
    }
    // HeapSafe and RV-CURE bound each other tightly (both ride the
    // cached hardware check); allow a small stack-vs-heap wobble.
    if design_oh(Design::HeapSafe) > design_oh(Design::RvCure) + 5.0 {
        bad.push(format!(
            "ordering violated: HeapSafe ({:.1}%) must stay within 5 points of \
             RV-CURE ({:.1}%)",
            design_oh(Design::HeapSafe),
            design_oh(Design::RvCure)
        ));
    }
    for (i, design) in Design::ZOO.iter().enumerate() {
        let pos = Design::INSTRUMENTED
            .iter()
            .position(|&d| d == *design)
            .unwrap_or(0);
        let ratio = (1.0 + model[i] / 100.0) / (1.0 + measured[pos] / 100.0);
        if !(0.8..=1.25).contains(&ratio) {
            bad.push(format!(
                "{design}: analytic model geomean {:.1}% drifts beyond ±25% of the \
                 measured {:.1}% (ratio {ratio:.3})",
                model[i], measured[pos]
            ));
        }
    }
    for cov in &report.coverage {
        if !cov.sample_agree {
            bad.push(format!(
                "{}: executed Juliet sample disagrees with the detector model \
                 ({}/{} detected vs {} modeled)",
                cov.design, cov.sample_detected, cov.sample_cases, cov.sample_model
            ));
        }
    }
    let model_count = |d: Design| {
        report
            .coverage
            .iter()
            .find(|c| c.design == d)
            .map(|c| c.model_detected)
            .unwrap_or(0)
    };
    let structure: [(&str, bool); 4] = [
        (
            "RV-CURE must match the HWST128 coverage envelope",
            model_count(Design::RvCure) == model_count(Design::Hwst128),
        ),
        (
            "L4 Pointer must match the SBCETS coverage envelope",
            model_count(Design::L4Pointer) == model_count(Design::Sbcets),
        ),
        (
            "HeapSafe must trail HWST128 (it loses the stack category)",
            model_count(Design::HeapSafe) < model_count(Design::Hwst128),
        ),
        (
            "CryptSan must trail the hardware designs",
            model_count(Design::CryptSan) < model_count(Design::Hwst128),
        ),
    ];
    for (what, ok) in structure {
        if !ok {
            bad.push(format!("coverage structure violated: {what}"));
        }
    }
    let totals: Vec<u64> = report.inject.iter().map(OutcomeCounts::total).collect();
    if let Some(&first) = totals.first() {
        if totals.iter().any(|&t| t != first) {
            bad.push(format!(
                "fault campaign applied unequal outcome totals across designs: {totals:?}"
            ));
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn design_tables_are_consistent() {
        assert_eq!(Design::ALL.len(), 8);
        for (i, d) in Design::INSTRUMENTED.iter().enumerate() {
            assert_eq!(Design::ALL[i + 1], *d);
        }
        for (d, c) in Design::ZOO.iter().zip(ZooCost::ALL) {
            assert_eq!(d.zoo_cost(), Some(c), "{d}: cost model mismatch");
        }
        assert_eq!(Design::Baseline.detector(), None);
        assert_eq!(Design::Baseline.band(), None);
        for d in Design::INSTRUMENTED {
            let (lo, hi) = d.band().unwrap_or((0.0, 0.0));
            assert!(lo > 0.0 && lo < hi, "{d}: degenerate band");
            assert!(d.detector().is_some(), "{d}: no detector model");
        }
    }

    #[test]
    fn frontier_flags_mark_non_dominated_points() {
        let mk = |design, overhead_pct, coverage_pct| DesignPoint {
            design,
            overhead_pct,
            coverage_pct,
        };
        let points = vec![
            mk(Design::Baseline, 0.0, 0.0),
            mk(Design::Hwst128Tchk, 45.0, 63.6),
            mk(Design::Hwst128, 130.0, 63.6), // dominated by tchk
            mk(Design::Sbcets, 340.0, 64.5),
            mk(Design::HeapSafe, 46.0, 55.0), // dominated by tchk
        ];
        let flags = frontier_flags(&points);
        assert_eq!(flags, vec![true, true, false, true, false]);
        // Sorted by overhead, the frontier's coverage is monotone.
        let mut frontier: Vec<&DesignPoint> = points
            .iter()
            .zip(&flags)
            .filter(|(_, &f)| f)
            .map(|(p, _)| p)
            .collect();
        frontier.sort_by(|a, b| a.overhead_pct.total_cmp(&b.overhead_pct));
        for pair in frontier.windows(2) {
            assert!(pair[0].coverage_pct < pair[1].coverage_pct);
        }
    }

    #[test]
    fn coverage_model_matches_detector_tables() {
        let hw = design_coverage(Design::Hwst128Tchk, 0);
        assert_eq!(hw.model_detected, 5323);
        let sb = design_coverage(Design::Sbcets, 0);
        assert_eq!(sb.model_detected, 5395);
        assert_eq!(design_coverage(Design::RvCure, 0).model_detected, 5323);
        assert_eq!(design_coverage(Design::L4Pointer, 0).model_detected, 5395);
        let heap = design_coverage(Design::HeapSafe, 0);
        assert!(heap.model_detected < 5323);
        let base = design_coverage(Design::Baseline, 0);
        assert_eq!(base.model_detected, 0);
        assert_eq!(base.total_cases, 8366);
    }

    #[test]
    fn executed_sample_agrees_with_models() {
        // One reachable case per CWE, executed for every design — the
        // in-crate version of the artifact agreement gate.
        for design in Design::ALL {
            let cov = design_coverage(design, 1);
            assert!(
                cov.sample_agree,
                "{design}: {}/{} detected vs {} modeled",
                cov.sample_detected, cov.sample_cases, cov.sample_model
            );
        }
    }

    /// The named workloads, in the order given.
    fn workloads(names: &[&str]) -> Vec<Workload> {
        names
            .iter()
            .map(|n| Workload::by_name(n).unwrap_or_else(|| panic!("unknown workload `{n}`")))
            .collect()
    }

    /// A reduced sweep (four workloads, one sampled Juliet case per CWE,
    /// one fault target, two seeds) meets every gate but the calibration
    /// bands, which `hwst-bench zoo` checks on the full-suite geomean.
    #[test]
    fn subset_sweep_passes_structural_gates() {
        use hwst_harness::{collect_ok, run};
        let cfg = ZooConfig {
            juliet_per_cwe: 1,
            inject_workloads: &["math"],
            seeds_per_target: 2,
            ..ZooConfig::default()
        };
        let subset = workloads(&["bzip2", "math", "treeadd", "string"]);
        let (rows, failed) = collect_ok(run(zoo_row_jobs(subset, Scale::Test), 2));
        assert!(failed.is_empty(), "{failed:?}");
        assert_eq!(rows.len(), 4);
        let (coverage, failed) = collect_ok(run(zoo_coverage_jobs(&cfg), 2));
        assert!(failed.is_empty(), "{failed:?}");
        let jobs = zoo_inject_jobs(&cfg, Scale::Test).unwrap_or_else(|e| panic!("{e}"));
        let (cells, failed) = collect_ok(run(jobs, 2));
        assert!(failed.is_empty(), "{failed:?}");
        let report = ZooReport {
            rows,
            coverage,
            inject: merge_inject(cells),
        };
        let bad: Vec<String> = zoo_violations(&report)
            .into_iter()
            .filter(|v| !v.contains("calibration band"))
            .collect();
        assert!(bad.is_empty(), "{bad:?}");
    }

    #[test]
    fn zoo_rows_are_jobs_deterministic() {
        use hwst_harness::{collect_ok, run};
        let jobs = || zoo_row_jobs(workloads(&["math", "treeadd"]), Scale::Test);
        let serial = collect_ok(run(jobs(), 1));
        let parallel = collect_ok(run(jobs(), 4));
        assert_eq!(serial.0, parallel.0);
        assert!(serial.1.is_empty() && parallel.1.is_empty());
    }
}
