//! Per-PC cycle attribution and the hot-function table.

use crate::{Event, RingRecorder, Track};
use std::collections::BTreeMap;

/// One step's (or one aggregate's) cycles split into the five overhead
/// categories of the P1 table. The split is exhaustive: the categories
/// always sum to the total-cycle delta they were computed from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Breakdown {
    /// Cycles of ordinary program work (including the software portions
    /// of instrumentation, which are indistinguishable from program
    /// instructions at retire time).
    pub base: u64,
    /// Cycles spent executing HWST128 metadata instructions (`bndr*`,
    /// `sbd*`/`lbd*` issue cost, `srfmv`/`srfclr`, `tchk` issue).
    pub check: u64,
    /// Shadow-memory stall cycles (D-cache misses on metadata).
    pub shadow: u64,
    /// `tchk` key-load stall cycles (keybuffer misses).
    pub keybuffer: u64,
    /// Proxy-kernel runtime cycles (allocator wrapper service).
    pub runtime: u64,
}

impl Breakdown {
    /// Category names, in field order (stable across exporters).
    pub const CATEGORIES: [&'static str; 5] = ["base", "check", "shadow", "keybuffer", "runtime"];

    /// Sum of all categories.
    pub fn total(&self) -> u64 {
        self.base + self.check + self.shadow + self.keybuffer + self.runtime
    }

    /// `(category, cycles)` pairs in [`Self::CATEGORIES`] order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> {
        [
            ("base", self.base),
            ("check", self.check),
            ("shadow", self.shadow),
            ("keybuffer", self.keybuffer),
            ("runtime", self.runtime),
        ]
        .into_iter()
    }
}

impl std::ops::AddAssign for Breakdown {
    fn add_assign(&mut self, o: Self) {
        self.base += o.base;
        self.check += o.check;
        self.shadow += o.shadow;
        self.keybuffer += o.keybuffer;
        self.runtime += o.runtime;
    }
}

/// A PC-indexed cycle profile. Keys are absolute PCs; the `BTreeMap`
/// keeps iteration (and therefore every downstream table and export)
/// deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PcProfile {
    map: BTreeMap<u64, Breakdown>,
}

impl PcProfile {
    /// Creates an empty profile.
    pub fn new() -> Self {
        PcProfile::default()
    }

    /// Folds one step's breakdown into the profile at `pc`.
    #[inline]
    pub fn record(&mut self, pc: u64, bd: Breakdown) {
        *self.map.entry(pc).or_default() += bd;
    }

    /// `(pc, breakdown)` pairs in ascending PC order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &Breakdown)> {
        self.map.iter().map(|(&pc, bd)| (pc, bd))
    }

    /// Aggregate over every PC.
    pub fn total(&self) -> Breakdown {
        let mut t = Breakdown::default();
        for bd in self.map.values() {
            t += *bd;
        }
        t
    }

    /// Number of distinct PCs profiled.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// One row of the hot-function table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnRow {
    /// Function name.
    pub name: String,
    /// That function's cycles per category.
    pub cycles: Breakdown,
}

/// The hot-function table: a [`PcProfile`] folded by function.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FnTable {
    /// Per-function rows, hottest first (ties broken by name).
    pub rows: Vec<FnRow>,
    /// Aggregate cycles that landed inside a named function.
    pub attributed: Breakdown,
    /// Aggregate cycles at PCs outside every symbol (the startup shim).
    pub unattributed: Breakdown,
}

impl FnTable {
    /// Fraction of all profiled cycles attributed to named functions
    /// (1.0 for an empty profile — nothing was missed).
    pub fn attributed_fraction(&self) -> f64 {
        let total = self.attributed.total() + self.unattributed.total();
        if total == 0 {
            1.0
        } else {
            self.attributed.total() as f64 / total as f64
        }
    }

    /// Aggregate over attributed and unattributed cycles — equals the
    /// source profile's total.
    pub fn total(&self) -> Breakdown {
        let mut t = self.attributed;
        t += self.unattributed;
        t
    }
}

/// Folds a profile into the hot-function table. `resolve` names the
/// function containing a PC, or `None` outside every function (the
/// startup shim); the compiler's `LowerPlan::func_at_pc` is the one
/// resolver. Functions that never retired an instruction are omitted.
pub fn attribute<'a>(profile: &PcProfile, resolve: impl Fn(u64) -> Option<&'a str>) -> FnTable {
    let mut per_fn: BTreeMap<&str, Breakdown> = BTreeMap::new();
    let mut attributed = Breakdown::default();
    let mut unattributed = Breakdown::default();
    for (pc, bd) in profile.iter() {
        match resolve(pc) {
            Some(name) => {
                *per_fn.entry(name).or_default() += *bd;
                attributed += *bd;
            }
            None => unattributed += *bd,
        }
    }
    let mut rows: Vec<FnRow> = per_fn
        .into_iter()
        .map(|(name, cycles)| FnRow {
            name: name.to_string(),
            cycles,
        })
        .collect();
    rows.sort_by(|a, b| {
        b.cycles
            .total()
            .cmp(&a.cycles.total())
            .then_with(|| a.name.cmp(&b.name))
    });
    FnTable {
        rows,
        attributed,
        unattributed,
    }
}

/// The per-run profiling context the simulator feeds: a PC profile plus
/// an optional span recorder. Constructed without a recorder it is the
/// "profile only" mode; [`Profiler::with_recorder`] adds the event
/// stream for trace export.
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    /// The accumulated PC-indexed profile.
    pub profile: PcProfile,
    /// The span recorder, when attached.
    pub recorder: Option<RingRecorder>,
}

impl Profiler {
    /// A profiler with no recorder attached.
    pub fn new() -> Self {
        Profiler::default()
    }

    /// A profiler with a ring recorder of the given capacity.
    pub fn with_recorder(capacity: usize) -> Self {
        Profiler {
            profile: PcProfile::new(),
            recorder: Some(RingRecorder::new(capacity)),
        }
    }

    /// Folds one executed step into the profile and, when a recorder is
    /// attached, emits stall spans for the step's shadow and keybuffer
    /// stall cycles starting at `start_cycle` (the pre-step cycle
    /// count).
    #[inline]
    pub fn record_step(&mut self, pc: u64, bd: Breakdown, start_cycle: u64) {
        self.profile.record(pc, bd);
        if let Some(r) = self.recorder.as_mut() {
            if bd.shadow > 0 {
                r.record(Event {
                    name: "shadow-stall",
                    track: Track::Shadow,
                    start_cycle,
                    end_cycle: start_cycle + bd.shadow,
                });
            }
            if bd.keybuffer > 0 {
                r.record(Event {
                    name: "keybuffer-miss",
                    track: Track::Keybuffer,
                    start_cycle,
                    end_cycle: start_cycle + bd.keybuffer,
                });
            }
        }
    }

    /// Records an arbitrary span (allocator wrappers, pipeline stages)
    /// when a recorder is attached; a no-op otherwise.
    #[inline]
    pub fn record_span(&mut self, name: &'static str, track: Track, start: u64, end: u64) {
        if let Some(r) = self.recorder.as_mut() {
            r.record(Event {
                name,
                track,
                start_cycle: start,
                end_cycle: end,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A resolver over `(name, start, end)` PC ranges.
    fn ranges<'a>(syms: &'a [(&'a str, u64, u64)]) -> impl Fn(u64) -> Option<&'a str> {
        move |pc| {
            syms.iter()
                .find(|&&(_, lo, hi)| (lo..hi).contains(&pc))
                .map(|&(name, _, _)| name)
        }
    }

    #[test]
    fn breakdown_categories_sum() {
        let b = Breakdown {
            base: 1,
            check: 2,
            shadow: 3,
            keybuffer: 4,
            runtime: 5,
        };
        assert_eq!(b.total(), 15);
        assert_eq!(b.iter().map(|(_, v)| v).sum::<u64>(), 15);
    }

    #[test]
    fn attribution_partitions_cycles() {
        let t = ranges(&[("main", 0x100, 0x200)]);
        let mut p = PcProfile::new();
        p.record(
            0x100,
            Breakdown {
                base: 10,
                ..Default::default()
            },
        );
        p.record(
            0x104,
            Breakdown {
                check: 5,
                shadow: 3,
                ..Default::default()
            },
        );
        p.record(
            0x0, // shim: outside every symbol
            Breakdown {
                base: 2,
                ..Default::default()
            },
        );
        let table = attribute(&p, &t);
        assert_eq!(table.rows.len(), 1);
        assert_eq!(table.rows[0].name, "main");
        assert_eq!(table.attributed.total(), 18);
        assert_eq!(table.unattributed.total(), 2);
        assert_eq!(table.total(), p.total());
        let f = table.attributed_fraction();
        assert!((f - 0.9).abs() < 1e-12, "{f}");
    }

    #[test]
    fn hot_table_sorts_descending_with_name_ties() {
        let t = ranges(&[("a", 0x0, 0x10), ("z", 0x10, 0x20), ("m", 0x20, 0x30)]);
        let mut p = PcProfile::new();
        for (pc, cycles) in [(0x0u64, 5u64), (0x10, 9), (0x20, 9)] {
            p.record(
                pc,
                Breakdown {
                    base: cycles,
                    ..Default::default()
                },
            );
        }
        let names: Vec<String> = attribute(&p, &t).rows.into_iter().map(|r| r.name).collect();
        assert_eq!(names, vec!["m", "z", "a"]);
    }

    #[test]
    fn profiler_emits_stall_spans_only_with_recorder() {
        let bd = Breakdown {
            base: 1,
            shadow: 2,
            keybuffer: 3,
            ..Default::default()
        };
        let mut quiet = Profiler::new();
        quiet.record_step(0x40, bd, 100);
        assert!(quiet.recorder.is_none());
        let mut loud = Profiler::with_recorder(16);
        loud.record_step(0x40, bd, 100);
        let r = loud.recorder.as_ref().unwrap();
        let evs: Vec<_> = r.events().collect();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].track, Track::Shadow);
        assert_eq!(evs[0].end_cycle, 102);
        assert_eq!(evs[1].track, Track::Keybuffer);
        assert_eq!(evs[1].end_cycle, 103);
        assert_eq!(quiet.profile, loud.profile);
    }
}
