//! The observable state of a machine, defined once for every
//! differential check between execution engines.

use crate::{Machine, RuntimeEvents};
use hwst_isa::Reg;
use hwst_metadata::Compressed;
use hwst_pipeline::CycleStats;

/// Everything a run can be observed to have done to a [`Machine`]:
/// architectural state, the exit latch and output, and the timing
/// model's counters. Two engines agree on a run when they return the
/// same result and leave equal observations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observation {
    /// Program counter.
    pub pc: u64,
    /// The GPRs, indexed by register number.
    pub regs: [u64; 32],
    /// The SRF entry shadowing each GPR (`None` when invalid).
    pub srf: [Option<Compressed>; 32],
    /// The exit latch: the code passed to `exit`, once exited.
    pub exit: Option<u64>,
    /// Bytes written through `putchar`/`print_u64`.
    pub output: Vec<u8>,
    /// Allocator events.
    pub events: RuntimeEvents,
    /// Pipeline statistics.
    pub stats: CycleStats,
    /// D-cache `(hits, misses)`.
    pub dcache: (u64, u64),
    /// Keybuffer `(hits, misses, fills)`.
    pub keybuffer: (u64, u64, u64),
    /// Every nonzero 8-byte memory word as `(address, value)`, in
    /// ascending address order.
    pub memory: Vec<(u64, u64)>,
}

impl Observation {
    /// The first field in which `self` and `other` differ, named and
    /// with both values, or `None` when the observations are equal.
    pub fn first_difference(&self, other: &Observation) -> Option<String> {
        let (a, b) = (self, other);
        if a.pc != b.pc {
            return Some(format!("pc: {:#x} vs {:#x}", a.pc, b.pc));
        }
        for r in Reg::ALL {
            let i = r.index() as usize;
            if a.regs[i] != b.regs[i] {
                return Some(format!(
                    "register {}: {:#x} vs {:#x}",
                    r.name(),
                    a.regs[i],
                    b.regs[i]
                ));
            }
            if a.srf[i] != b.srf[i] {
                return Some(format!(
                    "SRF entry {}: {:?} vs {:?}",
                    r.name(),
                    a.srf[i],
                    b.srf[i]
                ));
            }
        }
        if a.output != b.output {
            return Some(format!(
                "output: {:?} vs {:?}",
                String::from_utf8_lossy(&a.output),
                String::from_utf8_lossy(&b.output)
            ));
        }
        macro_rules! fields {
            ($($f:ident),*) => {$(
                if a.$f != b.$f {
                    return Some(format!(
                        concat!(stringify!($f), ": {:?} vs {:?}"),
                        a.$f, b.$f
                    ));
                }
            )*};
        }
        fields!(exit, events, stats, dcache, keybuffer);
        // Both lists are sorted: the first differing entry holds the
        // lowest address whose word differs (a missing word reads 0).
        let n = a.memory.len().max(b.memory.len());
        (0..n).find_map(|i| {
            let (x, y) = (a.memory.get(i), b.memory.get(i));
            if x == y {
                return None;
            }
            let (addr, vx, vy) = match (x, y) {
                (Some(&(ax, vx)), Some(&(ay, vy))) if ax == ay => (ax, vx, vy),
                (Some(&(ax, vx)), Some(&(ay, _))) if ax < ay => (ax, vx, 0),
                (Some(&(ax, vx)), None) => (ax, vx, 0),
                (_, Some(&(ay, vy))) => (ay, 0, vy),
                (_, None) => return None,
            };
            Some(format!("memory word at {addr:#x}: {vx:#x} vs {vy:#x}"))
        })
    }
}

impl Machine {
    /// Captures the machine's [`Observation`].
    pub fn observe(&self) -> Observation {
        let mem = &self.mem;
        Observation {
            pc: self.pc,
            regs: Reg::ALL.map(|r| self.reg(r)),
            srf: Reg::ALL.map(|r| self.srf.read(r)),
            exit: self.exited,
            output: self.output.clone(),
            events: self.events,
            stats: self.pipeline.stats(),
            dcache: self.pipeline.dcache().stats(),
            keybuffer: self.pipeline.keybuffer().stats(),
            memory: mem
                .nonzero_word_addrs_in(0, u64::MAX)
                .into_iter()
                .map(|a| (a, mem.read_u64(a)))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{Machine, SafetyConfig};
    use hwst_isa::{AluImmOp, Instr, Program, Reg};

    fn machine() -> Machine {
        let prog = Program::from_instrs(
            0x1_0000,
            vec![Instr::AluImm {
                op: AluImmOp::Addi,
                rd: Reg::A0,
                rs1: Reg::Zero,
                imm: 7,
            }],
        );
        Machine::new(prog, SafetyConfig::default())
    }

    #[test]
    fn equal_machines_observe_equal() {
        let (a, b) = (machine(), machine());
        assert_eq!(a.observe(), b.observe());
        assert_eq!(a.observe().first_difference(&b.observe()), None);
    }

    #[test]
    fn first_difference_names_the_field() {
        let a = machine();
        let mut b = machine();
        b.step().expect("addi retires");
        let d = a.observe().first_difference(&b.observe()).expect("differs");
        assert!(d.starts_with("pc:"), "{d}");

        let mut c = machine();
        c.set_reg(Reg::A0, 7);
        let d = a.observe().first_difference(&c.observe()).expect("differs");
        assert_eq!(d, "register a0: 0x0 vs 0x7");

        let mut m = machine();
        m.mem_mut().write_u64(0x2000, 5);
        m.mem_mut().write_u64(0x1000, 9);
        let d = a.observe().first_difference(&m.observe()).expect("differs");
        assert_eq!(d, "memory word at 0x1000: 0x0 vs 0x9");
        let d = m.observe().first_difference(&a.observe()).expect("differs");
        assert_eq!(d, "memory word at 0x1000: 0x9 vs 0x0");
    }
}
