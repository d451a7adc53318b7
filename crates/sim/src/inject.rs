//! The metadata-path fault model — the resilience subsystem
//! (DESIGN.md §4d, experiments R1 and Z2).
//!
//! The paper's threat model assumes the metadata path itself (SRF cells,
//! LMSM shadow words, keybuffer entries, compressed records, lock words)
//! is trustworthy. This module stress-tests that assumption in the style
//! of architectural-vulnerability-factor studies: an [`InjectionPlan`]
//! names a fault class, a seed and a trigger instruction count; [`apply`]
//! mutates the machine as the plan says, and [`classify`] compares the
//! faulted run with a fault-free one as an [`Outcome`]. The campaign
//! driver is `hwst_exec::inject`.
//!
//! Everything is deterministic: targets are chosen by a seeded SplitMix64
//! generator over *sorted* candidate lists (memory pages, live lock
//! slots, SRF registers), so a fixed `(program, plan)` pair always
//! produces the same [`FaultRecord`] and the same outcome.
//!
//! ## Example
//!
//! ```
//! use hwst_isa::{AluImmOp, Instr, Program, Reg};
//! use hwst_sim::inject::{apply, classify, FaultClass, InjectionPlan, Outcome};
//! use hwst_sim::{Machine, SafetyConfig};
//!
//! let prog = Program::from_instrs(0x1_0000, vec![
//!     Instr::AluImm { op: AluImmOp::Addi, rd: Reg::A0, rs1: Reg::Zero, imm: 0 },
//!     Instr::AluImm { op: AluImmOp::Addi, rd: Reg::A7, rs1: Reg::Zero, imm: 93 },
//!     Instr::Ecall,
//! ]);
//! let mut m = Machine::new(prog, SafetyConfig::default());
//! let reference = m.clone().run(100);
//! let plan = InjectionPlan::from_seed(FaultClass::ShadowWordFlip, 7, 3);
//! // No metadata was ever written, so there is nothing to corrupt.
//! assert!(!apply(&mut m, &plan).applied());
//! assert_eq!(classify(&reference, &m.run(100)), Outcome::Masked);
//! ```

use crate::machine::{ExitStatus, Machine};
use crate::Trap;
use hwst_isa::{csr, Reg};
use std::fmt;

/// A class of metadata-path fault the campaigns can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// Flip one of the 128 bits of a valid shadow-register-file entry
    /// (a pre-DECOMP compressed record upset).
    SrfBitFlip,
    /// Drop a valid SRF entry entirely (the cell's valid bit clears).
    SrfDrop,
    /// Flip one bit of a resident, nonzero LMSM shadow word (post-COMP,
    /// at-rest metadata corruption).
    ShadowWordFlip,
    /// Plant a stale/wrong `lock → key` entry in the keybuffer. The
    /// keybuffer is a timing structure, so this must always be masked —
    /// the coherence guarantee the campaigns verify.
    KeybufferPoison,
    /// Overwrite a live lock word in the lock_location region with zero
    /// (phantom free) or a wrong key.
    LockWordOverwrite,
    /// Flip one bit of the 24-bit `hwst.compcfg` CSR, skewing every
    /// later COMP/DECOMP.
    CompCfgFlip,
}

impl FaultClass {
    /// Every fault class, in campaign-table order.
    pub const ALL: [FaultClass; 6] = [
        FaultClass::SrfBitFlip,
        FaultClass::SrfDrop,
        FaultClass::ShadowWordFlip,
        FaultClass::KeybufferPoison,
        FaultClass::LockWordOverwrite,
        FaultClass::CompCfgFlip,
    ];

    /// Short stable name used in the R1 table.
    pub const fn name(self) -> &'static str {
        match self {
            FaultClass::SrfBitFlip => "srf-bit-flip",
            FaultClass::SrfDrop => "srf-drop",
            FaultClass::ShadowWordFlip => "shadow-word-flip",
            FaultClass::KeybufferPoison => "keybuffer-poison",
            FaultClass::LockWordOverwrite => "lock-overwrite",
            FaultClass::CompCfgFlip => "compcfg-flip",
        }
    }
}

impl fmt::Display for FaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A deterministic, seed-addressed fault: *which* class of fault to
/// apply, *when* (after `trigger` retired instructions), and the seed
/// that picks the concrete target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectionPlan {
    /// The fault class.
    pub class: FaultClass,
    /// Seed for target selection within the class.
    pub seed: u64,
    /// Apply the fault after this many retired instructions.
    pub trigger: u64,
}

impl InjectionPlan {
    /// Derives a plan from a seed: the trigger point is drawn uniformly
    /// from `[0, horizon)` (pass the reference run's instruction count
    /// as `horizon` so the fault lands somewhere the program actually
    /// executes).
    pub fn from_seed(class: FaultClass, seed: u64, horizon: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0xF417_1C7A_55C0_FFEE);
        InjectionPlan {
            class,
            seed,
            trigger: rng.next() % horizon.max(1),
        }
    }
}

impl fmt::Display for InjectionPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} seed={:#x} trigger={}",
            self.class, self.seed, self.trigger
        )
    }
}

/// What a plan actually mutated when it fired (the campaign log line).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultRecord {
    /// The fault had no target (program exited or trapped before the
    /// trigger, or the targeted structure was empty).
    NotApplied {
        /// Why nothing was mutated.
        why: &'static str,
    },
    /// An SRF entry had one bit flipped.
    SrfBitFlip {
        /// The shadowed register.
        reg: Reg,
        /// Bit index within the 128-bit record.
        bit: u8,
    },
    /// An SRF entry was invalidated.
    SrfDrop {
        /// The shadowed register.
        reg: Reg,
    },
    /// A shadow word had one bit flipped.
    ShadowWordFlip {
        /// Shadow-memory address of the word.
        addr: u64,
        /// Bit index within the word.
        bit: u32,
    },
    /// A stale entry was planted in the keybuffer.
    KeybufferPoison {
        /// The lock address of the planted entry.
        lock: u64,
        /// The (wrong) key it maps to.
        key: u64,
    },
    /// A live lock word was overwritten.
    LockWordOverwrite {
        /// The lock_location address.
        lock: u64,
        /// The key that was stored there.
        old_key: u64,
        /// The value written over it.
        new_key: u64,
    },
    /// The `hwst.compcfg` CSR had one bit flipped.
    CompCfgFlip {
        /// Bit index within the 24-bit encoding.
        bit: u8,
        /// CSR value before the flip.
        old: u64,
        /// CSR value after the flip.
        new: u64,
    },
}

impl FaultRecord {
    /// Whether the plan actually mutated machine state.
    pub const fn applied(&self) -> bool {
        !matches!(self, FaultRecord::NotApplied { .. })
    }
}

impl fmt::Display for FaultRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FaultRecord::NotApplied { why } => write!(f, "not applied: {why}"),
            FaultRecord::SrfBitFlip { reg, bit } => write!(f, "srf[{reg}] bit {bit} flipped"),
            FaultRecord::SrfDrop { reg } => write!(f, "srf[{reg}] dropped"),
            FaultRecord::ShadowWordFlip { addr, bit } => {
                write!(f, "shadow word {addr:#x} bit {bit} flipped")
            }
            FaultRecord::KeybufferPoison { lock, key } => {
                write!(f, "keybuffer poisoned: lock {lock:#x} -> key {key:#x}")
            }
            FaultRecord::LockWordOverwrite {
                lock,
                old_key,
                new_key,
            } => write!(f, "lock {lock:#x} overwritten {old_key:#x} -> {new_key:#x}"),
            FaultRecord::CompCfgFlip { bit, old, new } => {
                write!(f, "compcfg bit {bit} flipped {old:#x} -> {new:#x}")
            }
        }
    }
}

/// AVF-style classification of one faulted run against its fault-free
/// reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// The run ended in a spatial/temporal violation trap: the safety
    /// machinery noticed the corruption (or kept noticing the bug it was
    /// already detecting).
    Detected,
    /// The run ended exactly like the reference: the fault was benign.
    Masked,
    /// The run completed without a trap but with a different exit code
    /// or output than the reference — silent metadata corruption, the
    /// AVF-critical class.
    SilentCorruption,
    /// The run ended in a non-violation trap (machine fault, fetch
    /// error, fuel exhaustion...): noisy failure, not silent.
    MachineFault,
}

impl Outcome {
    /// Short stable name used in the R1 table.
    pub const fn name(self) -> &'static str {
        match self {
            Outcome::Detected => "detected",
            Outcome::Masked => "masked",
            Outcome::SilentCorruption => "silent",
            Outcome::MachineFault => "machine-fault",
        }
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Outcome counters for one campaign cell (fault class × target set).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeCounts {
    /// Runs ending in a violation trap.
    pub detected: u64,
    /// Runs identical to the reference.
    pub masked: u64,
    /// Runs with silently wrong results.
    pub silent: u64,
    /// Runs ending in a non-violation trap.
    pub machine_fault: u64,
    /// Runs whose plan found nothing to corrupt (always also counted
    /// as masked — an unapplied fault cannot diverge).
    pub not_applied: u64,
}

impl OutcomeCounts {
    /// Records one classified run.
    pub fn record(&mut self, outcome: Outcome, applied: bool) {
        match outcome {
            Outcome::Detected => self.detected += 1,
            Outcome::Masked => self.masked += 1,
            Outcome::SilentCorruption => self.silent += 1,
            Outcome::MachineFault => self.machine_fault += 1,
        }
        if !applied {
            self.not_applied += 1;
        }
    }

    /// Adds another cell's counters into this one.
    pub fn merge(&mut self, other: OutcomeCounts) {
        self.detected += other.detected;
        self.masked += other.masked;
        self.silent += other.silent;
        self.machine_fault += other.machine_fault;
        self.not_applied += other.not_applied;
    }

    /// Total classified runs.
    pub fn total(&self) -> u64 {
        self.detected + self.masked + self.silent + self.machine_fault
    }

    /// Fraction of runs that silently corrupted — the AVF of this cell
    /// (0 when no runs were recorded).
    pub fn silent_fraction(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.silent as f64 / total as f64
        }
    }
}

/// Classifies a faulted run against its fault-free reference.
pub fn classify(
    reference: &Result<ExitStatus, Trap>,
    faulted: &Result<ExitStatus, Trap>,
) -> Outcome {
    match faulted {
        Err(t) if t.is_violation() => Outcome::Detected,
        Err(_) => Outcome::MachineFault,
        Ok(f) => match reference {
            Ok(r) if r.code == f.code && r.output == f.output => Outcome::Masked,
            _ => Outcome::SilentCorruption,
        },
    }
}

/// Applies the plan's fault to `m`'s current state and returns what it
/// mutated; running `m` to the plan's trigger first is the caller's job.
/// Targets are deterministic: the plan's seed indexes sorted candidate
/// enumerations (`nonzero_word_addrs_in`, `live_lock_addrs`, ascending
/// register index).
pub fn apply(m: &mut Machine, plan: &InjectionPlan) -> FaultRecord {
    let rng = &mut SplitMix64::new(plan.seed);
    match plan.class {
        FaultClass::SrfBitFlip => {
            let regs = valid_srf_regs(m);
            let Some(reg) = pick(&regs, rng) else {
                return FaultRecord::NotApplied {
                    why: "no valid SRF entries",
                };
            };
            let bit = (rng.next() % 128) as u8;
            if let Some(c) = m.srf.read(reg) {
                m.srf.write(reg, c.flip_bit(bit));
            }
            FaultRecord::SrfBitFlip { reg, bit }
        }
        FaultClass::SrfDrop => {
            let regs = valid_srf_regs(m);
            let Some(reg) = pick(&regs, rng) else {
                return FaultRecord::NotApplied {
                    why: "no valid SRF entries",
                };
            };
            m.srf.clear(reg);
            FaultRecord::SrfDrop { reg }
        }
        FaultClass::ShadowWordFlip => {
            let lo = m.csr(csr::HWST_SM_OFFSET);
            let hi = lo.saturating_add(m.cfg.layout.user_end() << 2);
            let words = m.mem.nonzero_word_addrs_in(lo, hi);
            let Some(addr) = pick(&words, rng) else {
                return FaultRecord::NotApplied {
                    why: "no resident nonzero shadow words",
                };
            };
            let bit = (rng.next() % 64) as u32;
            m.mem.flip_word_bit(addr, bit);
            FaultRecord::ShadowWordFlip { addr, bit }
        }
        FaultClass::KeybufferPoison => {
            // Prefer a live lock (a stale key for it); otherwise invent
            // a plausible slot so the fault still lands.
            let live = m.locks.live_lock_addrs();
            let lock = pick(&live, rng).unwrap_or(m.cfg.layout.lock_region_base + 8);
            let key = rng.next() | 1;
            m.pipeline.poison_keybuffer(lock, key);
            FaultRecord::KeybufferPoison { lock, key }
        }
        FaultClass::LockWordOverwrite => {
            let live = m.locks.live_lock_addrs();
            let Some(lock) = pick(&live, rng) else {
                return FaultRecord::NotApplied {
                    why: "no live lock words",
                };
            };
            let old_key = m.mem.read_u64(lock);
            // Half the campaigns model a phantom free (zero), half a
            // wrong key — never accidentally the old key.
            let candidate = if rng.next() & 1 == 0 { 0 } else { rng.next() };
            let new_key = if candidate == old_key {
                candidate.wrapping_add(1)
            } else {
                candidate
            };
            m.mem.write_u64(lock, new_key);
            FaultRecord::LockWordOverwrite {
                lock,
                old_key,
                new_key,
            }
        }
        FaultClass::CompCfgFlip => {
            let old = m.csr(csr::HWST_COMP_CFG);
            let bit = (rng.next() % 24) as u8;
            let new = old ^ (1u64 << bit);
            m.set_csr(csr::HWST_COMP_CFG, new);
            FaultRecord::CompCfgFlip { bit, old, new }
        }
    }
}

/// SRF registers with valid entries, in ascending index order.
fn valid_srf_regs(m: &Machine) -> Vec<Reg> {
    (1u8..32)
        .filter_map(Reg::from_index)
        .filter(|&r| m.srf.read(r).is_some())
        .collect()
}

/// Deterministically picks one element of a sorted candidate list.
fn pick<T: Copy>(candidates: &[T], rng: &mut SplitMix64) -> Option<T> {
    if candidates.is_empty() {
        None
    } else {
        Some(candidates[(rng.next() % candidates.len() as u64) as usize])
    }
}

/// SplitMix64 — the same tiny deterministic generator the vendored
/// proptest shim uses; good enough to spread targets and free of any
/// global state.
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_matrix() {
        let ok = |code: u64, out: &[u8]| -> Result<ExitStatus, Trap> {
            Ok(ExitStatus {
                code,
                stats: Default::default(),
                output: out.to_vec(),
            })
        };
        let violation = Err(Trap::TemporalViolation {
            pc: 0,
            key: 1,
            lock: 2,
            stored_key: 3,
        });
        let fault = Err(Trap::MachineFault { pc: 0, what: "x" });
        assert_eq!(classify(&ok(0, b""), &violation), Outcome::Detected);
        assert_eq!(classify(&ok(0, b""), &fault), Outcome::MachineFault);
        assert_eq!(classify(&ok(0, b"hi"), &ok(0, b"hi")), Outcome::Masked);
        assert_eq!(
            classify(&ok(0, b"hi"), &ok(0, b"ho")),
            Outcome::SilentCorruption
        );
        assert_eq!(
            classify(&ok(0, b""), &ok(1, b"")),
            Outcome::SilentCorruption
        );
        // A lost detection is silent corruption, not masked.
        assert_eq!(classify(&violation, &ok(0, b"")), Outcome::SilentCorruption);
        // A still-firing detection stays detected.
        assert_eq!(classify(&violation, &violation), Outcome::Detected);
    }

    #[test]
    fn outcome_counts_merge_and_fraction() {
        let mut a = OutcomeCounts::default();
        a.record(Outcome::Detected, true);
        a.record(Outcome::SilentCorruption, true);
        let mut b = OutcomeCounts::default();
        b.record(Outcome::Masked, false);
        b.record(Outcome::MachineFault, true);
        a.merge(b);
        assert_eq!(a.total(), 4);
        assert_eq!(a.not_applied, 1);
        assert!((a.silent_fraction() - 0.25).abs() < 1e-12);
        assert_eq!(OutcomeCounts::default().silent_fraction(), 0.0);
    }
}
