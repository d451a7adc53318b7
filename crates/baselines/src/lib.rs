//! # hwst-baselines
//!
//! Comparator models for the paper's Fig. 5: **BOGO** (Intel MPX spatial
//! protection extended with bound-nullification temporal safety) and
//! **WatchdogLite** in its *narrow* (scalar) and *wide* (AVX) modes.
//!
//! Both systems exist only on x86 and are closed or simulation-based, so
//! the substitution (DESIGN.md §2) models each as a **cost model over the
//! dynamic pointer-operation profile** of a workload, measured on this
//! substrate: dereference checks, through-memory metadata moves and
//! allocator events each carry the per-event cost of that architecture's
//! mechanism. The Fig. 5 metric is Eq. 8 —
//! `speedup = SBCETS_cycles / accelerated_cycles` *on the same
//! architecture* — so each comparator is paired with the corresponding
//! x86 SoftBoundCETS cost model, and HWST128's speedup is fully measured
//! on the simulator.
//!
//! ## Example
//!
//! ```no_run
//! use hwst_baselines::{try_profile_workload, Comparator};
//! use hwst_workloads::{Workload, Scale};
//!
//! let wl = Workload::by_name("bzip2").unwrap();
//! let p = try_profile_workload(&wl.module(Scale::Test), 1_000_000_000).unwrap();
//! let bogo = Comparator::Bogo.speedup(&p);
//! let wide = Comparator::WdlWide.speedup(&p);
//! assert!(bogo < wide, "WDL beats MPX-based BOGO (paper §5.1)");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hwst_compiler::instrument::config_for;
use hwst_compiler::{compile, ir::Module, Scheme};
use hwst_exec::{run_fast, BlockCache};
use hwst_sim::Machine;

/// The dynamic pointer-operation profile of one workload, measured by
/// running it on the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadProfile {
    /// Uninstrumented cycles (our core).
    pub baseline_cycles: u64,
    /// SoftBoundCETS cycles on our core (the Fig. 4 dividend).
    pub sbcets_cycles: u64,
    /// Full-HWST128 cycles on our core.
    pub hwst_cycles: u64,
    /// Dynamic dereference-check count.
    pub derefs: u64,
    /// Dynamic through-memory metadata transfers (128-bit each).
    pub ptr_moves: u64,
    /// `malloc` count.
    pub allocs: u64,
    /// `free` count.
    pub frees: u64,
}

/// Measures a workload's profile by executing it under three schemes.
/// Compile errors and traps come back as `Err`, so a parallel sweep
/// can record the failure and keep going.
///
/// # Errors
///
/// Returns a message naming the failing scheme when the module does
/// not compile or does not run to clean exit.
pub fn try_profile_workload(module: &Module, fuel: u64) -> Result<WorkloadProfile, String> {
    let run = |scheme: Scheme| {
        let prog =
            compile(module, scheme).map_err(|e| format!("{scheme} failed to compile: {e}"))?;
        let mut m = Machine::new(prog, config_for(scheme));
        let exit = run_fast(&mut m, fuel, &mut BlockCache::new())
            .map_err(|e| format!("{scheme} did not run clean: {e}"))?;
        Ok::<_, String>((exit.stats, m.events()))
    };
    let (base, _) = run(Scheme::None)?;
    let (sb, _) = run(Scheme::Sbcets)?;
    let (hwst, ev) = run(Scheme::Hwst128Tchk)?;
    Ok(WorkloadProfile {
        baseline_cycles: base.total_cycles(),
        sbcets_cycles: sb.total_cycles(),
        hwst_cycles: hwst.total_cycles(),
        derefs: hwst.checked_mem,
        ptr_moves: hwst.meta_mem / 2,
        allocs: ev.mallocs,
        frees: ev.frees + ev.invalid_frees,
    })
}

/// Per-event cost model of a safety mechanism on its own architecture
/// (cycles per dynamic event, added to the uninstrumented cycles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Cycles per dereference check.
    pub per_deref: u64,
    /// Cycles per through-memory metadata transfer.
    pub per_ptr_move: u64,
    /// Cycles per allocation (metadata create/bind).
    pub per_alloc: u64,
    /// Cycles per free (metadata invalidate).
    pub per_free: u64,
}

impl CostModel {
    /// Estimated cycles for a workload profile under this mechanism.
    pub fn cycles(&self, p: &WorkloadProfile) -> u64 {
        p.baseline_cycles
            + p.derefs * self.per_deref
            + p.ptr_moves * self.per_ptr_move
            + p.allocs * self.per_alloc
            + p.frees * self.per_free
    }
}

/// SoftBoundCETS on x86 (the Fig. 5 dividend for BOGO/WDL): two check
/// calls per dereference, a metadata-map call per pointer move, wrapper
/// work per allocator event. x86 absorbs the calls better than the
/// in-order RISC-V core, hence the lower per-event costs than our
/// measured RISC-V SBCETS.
pub const SBCETS_X86: CostModel = CostModel {
    per_deref: 25,
    per_ptr_move: 33,
    per_alloc: 100,
    per_free: 100,
};

/// The Fig. 5 comparator systems.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Comparator {
    /// BOGO: Intel MPX bounds checking plus bound-nullification scans on
    /// free (partial temporal safety; the scans erode MPX's 1.52x to
    /// about 1.31x — paper §5.1).
    Bogo,
    /// WatchdogLite, scalar metadata handling.
    WdlNarrow,
    /// WatchdogLite, 256-bit AVX metadata handling.
    WdlWide,
}

impl Comparator {
    /// All comparators in Fig. 5 order.
    pub const ALL: [Comparator; 3] = [Comparator::Bogo, Comparator::WdlNarrow, Comparator::WdlWide];

    /// Display label used by the harness.
    pub const fn label(self) -> &'static str {
        match self {
            Comparator::Bogo => "BOGO",
            Comparator::WdlNarrow => "WDL (narrow)",
            Comparator::WdlWide => "WDL (wide)",
        }
    }

    /// The mechanism's cost model.
    ///
    /// * **BOGO/MPX**: `bndcl`/`bndcu` are cheap (1+1), but pointer moves
    ///   pay the two-level bounds-table walk (`bndldx`/`bndstx`), and
    ///   every `free` pays the BOGO bound-scan.
    /// * **WDL narrow**: dedicated check instructions (2/deref), scalar
    ///   4x64-bit metadata moves.
    /// * **WDL wide**: same checks, single 256-bit AVX metadata moves.
    pub const fn cost_model(self) -> CostModel {
        match self {
            Comparator::Bogo => CostModel {
                per_deref: 9,
                per_ptr_move: 25,
                per_alloc: 60,
                per_free: 460,
            },
            Comparator::WdlNarrow => CostModel {
                per_deref: 9,
                per_ptr_move: 18,
                per_alloc: 60,
                per_free: 60,
            },
            Comparator::WdlWide => CostModel {
                per_deref: 9,
                per_ptr_move: 16,
                per_alloc: 55,
                per_free: 55,
            },
        }
    }

    /// Eq. 8 speedup over SoftBoundCETS (x86 context).
    pub fn speedup(self, p: &WorkloadProfile) -> f64 {
        SBCETS_X86.cycles(p) as f64 / self.cost_model().cycles(p) as f64
    }
}

impl std::fmt::Display for Comparator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// HWST128's Eq. 8 speedup — fully measured on the simulator.
pub fn hwst_speedup(p: &WorkloadProfile) -> f64 {
    p.sbcets_cycles as f64 / p.hwst_cycles as f64
}

/// Analytic cost models for the four zoo designs (experiment Z1,
/// DESIGN.md §4l) — the same per-event substitution the Fig. 5
/// comparators use, with constants derived from each paper's mechanism
/// on our in-order core:
///
/// * **RV-CURE** validates the capability inline on every check, so a
///   dereference pays the (uncached) lock/tag-word access; metadata
///   propagation is a hardware shadow pair.
/// * **HeapSafe** keeps the cached tag fast path and binds only heap
///   objects, so its allocator events are the only place it differs
///   from a bare tag check.
/// * **CryptSan** authenticates in software on every dereference
///   (load + compare + branch) and spills only the 2-word liveness pair
///   on pointer moves.
/// * **L4 Pointer** runs the full inline compare+branch spatial and
///   temporal sequences and moves all four metadata words — the most
///   software work per event, but with no call overhead (unlike
///   SoftBoundCETS at `-O0`).
///
/// The constants are *calibrated*, not measured: the zoo bench gate
/// (`tests/zoo.rs`) checks each model's predicted overhead geomean
/// against the measured instrumentation within the tolerance stated in
/// DESIGN.md §4l.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ZooCost {
    /// RV-CURE capability tags (arXiv:2308.02945).
    RvCure,
    /// L4 Pointer software wide pointers (arXiv:2302.06819).
    L4Pointer,
    /// CryptSan PAC-style pointer signing (arXiv:2202.08669).
    CryptSan,
    /// HeapSafe heap-only tagging (arXiv:2105.08712).
    HeapSafe,
}

impl ZooCost {
    /// All zoo cost models, in Z1 row order.
    pub const ALL: [ZooCost; 4] = [
        ZooCost::RvCure,
        ZooCost::L4Pointer,
        ZooCost::CryptSan,
        ZooCost::HeapSafe,
    ];

    /// The mechanism's per-event cost model (see the type-level doc).
    pub const fn cost_model(self) -> CostModel {
        match self {
            ZooCost::RvCure => CostModel {
                per_deref: 6,
                per_ptr_move: 3,
                per_alloc: 85,
                per_free: 85,
            },
            ZooCost::L4Pointer => CostModel {
                per_deref: 29,
                per_ptr_move: 17,
                per_alloc: 100,
                per_free: 115,
            },
            ZooCost::CryptSan => CostModel {
                per_deref: 14,
                per_ptr_move: 9,
                per_alloc: 100,
                per_free: 115,
            },
            ZooCost::HeapSafe => CostModel {
                per_deref: 5,
                per_ptr_move: 3,
                per_alloc: 85,
                per_free: 85,
            },
        }
    }

    /// Model-predicted Eq. 7 overhead (percent over baseline) for a
    /// measured workload profile.
    pub fn overhead_pct(self, p: &WorkloadProfile) -> f64 {
        (self.cost_model().cycles(p) as f64 / p.baseline_cycles as f64 - 1.0) * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> WorkloadProfile {
        WorkloadProfile {
            baseline_cycles: 100_000,
            sbcets_cycles: 500_000,
            hwst_cycles: 150_000,
            derefs: 4_000,
            ptr_moves: 1_500,
            allocs: 60,
            frees: 60,
        }
    }

    #[test]
    fn comparator_ordering_matches_fig5() {
        let p = profile();
        let bogo = Comparator::Bogo.speedup(&p);
        let narrow = Comparator::WdlNarrow.speedup(&p);
        let wide = Comparator::WdlWide.speedup(&p);
        let hwst = hwst_speedup(&p);
        assert!(bogo < narrow, "BOGO {bogo:.2} < WDL narrow {narrow:.2}");
        assert!(narrow < wide, "narrow {narrow:.2} < wide {wide:.2}");
        assert!(wide < hwst, "wide {wide:.2} < HWST128 {hwst:.2}");
        assert!(bogo > 1.0, "every accelerator beats software");
    }

    #[test]
    fn free_heavy_profiles_hurt_bogo_most() {
        let light = profile();
        let heavy = WorkloadProfile {
            frees: 2_000,
            allocs: 2_000,
            ..light
        };
        let drop_bogo = Comparator::Bogo.speedup(&light) - Comparator::Bogo.speedup(&heavy);
        let drop_wide = Comparator::WdlWide.speedup(&light) - Comparator::WdlWide.speedup(&heavy);
        assert!(
            drop_bogo > drop_wide,
            "BOGO's free-scan must dominate: {drop_bogo:.3} vs {drop_wide:.3}"
        );
    }

    #[test]
    fn cost_model_is_linear_in_events() {
        let m = Comparator::WdlNarrow.cost_model();
        let p = profile();
        let doubled = WorkloadProfile {
            derefs: p.derefs * 2,
            ptr_moves: p.ptr_moves * 2,
            allocs: p.allocs * 2,
            frees: p.frees * 2,
            ..p
        };
        let extra = m.cycles(&doubled) - m.cycles(&p);
        let first = m.cycles(&p) - p.baseline_cycles;
        assert_eq!(extra, first);
    }

    #[test]
    fn zoo_cost_ordering_matches_measured_frontier() {
        // The Z1 frontier ordering must hold for any pointer-heavy
        // profile: hardware tagging (HeapSafe, RV-CURE) under the
        // software signers (CryptSan), under the full wide-pointer
        // scheme (L4 Pointer), all under SoftBoundCETS-at-`-O0`.
        let p = profile();
        let oh = |z: ZooCost| z.overhead_pct(&p);
        let sbcets = (p.sbcets_cycles as f64 / p.baseline_cycles as f64 - 1.0) * 100.0;
        assert!(oh(ZooCost::HeapSafe) <= oh(ZooCost::RvCure));
        assert!(oh(ZooCost::RvCure) < oh(ZooCost::CryptSan));
        assert!(oh(ZooCost::CryptSan) < oh(ZooCost::L4Pointer));
        assert!(
            oh(ZooCost::L4Pointer) < sbcets,
            "L4 Pointer avoids the -O0 call overhead: {:.1} vs {sbcets:.1}",
            oh(ZooCost::L4Pointer)
        );
    }

    #[test]
    fn zoo_models_track_published_shape() {
        // Per-event dominance mirrors each paper's mechanism: software
        // designs pay more per dereference and per pointer move than the
        // hardware ones, and the wide-pointer scheme pays the most.
        let per_deref = |z: ZooCost| z.cost_model().per_deref;
        assert!(per_deref(ZooCost::HeapSafe) <= per_deref(ZooCost::RvCure));
        assert!(per_deref(ZooCost::RvCure) < per_deref(ZooCost::CryptSan));
        assert!(per_deref(ZooCost::CryptSan) < per_deref(ZooCost::L4Pointer));
        let per_move = |z: ZooCost| z.cost_model().per_ptr_move;
        assert!(per_move(ZooCost::CryptSan) < per_move(ZooCost::L4Pointer));
    }
}
