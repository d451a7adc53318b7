//! Per-instruction cycle accounting for the 5-stage in-order core.

use crate::{Cache, CacheConfig, CycleStats, KeyBuffer};
use hwst_isa::{Instr, Reg};

/// How metadata is located in shadow storage — the §2 trade-off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ShadowLayout {
    /// The paper's linear map: the SMAC computes the address in zero
    /// cycles (Eq. 1).
    #[default]
    Linear,
    /// A two-level trie (the SoftBoundCETS layout): every metadata access
    /// first walks the directory — one extra dependent D-cache access.
    Trie,
}

/// Timing parameters of the core model.
///
/// Defaults approximate the Rocket in-order core the paper builds on:
/// single-issue, 1-cycle ALU, 2-cycle redirect on taken control flow,
/// pipelined multiplier, iterative divider, blocking D-cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// D-cache geometry/latency.
    pub dcache: CacheConfig,
    /// Extra cycles when a branch is taken or a jump redirects fetch.
    pub control_penalty: u64,
    /// Extra cycles for a multiply.
    pub mul_latency: u64,
    /// Extra cycles for a divide/remainder.
    pub div_latency: u64,
    /// Stall cycles when an instruction consumes the result of the
    /// immediately preceding load.
    pub load_use_stall: u64,
    /// Keybuffer entries (0 disables the keybuffer).
    pub keybuffer_entries: usize,
    /// Shadow-storage layout (linear map vs trie).
    pub shadow_layout: ShadowLayout,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            dcache: CacheConfig::default(),
            control_penalty: 2,
            mul_latency: 3,
            div_latency: 16,
            load_use_stall: 1,
            keybuffer_entries: 8,
            shadow_layout: ShadowLayout::Linear,
        }
    }
}

/// The timing-relevant shape of an instruction, as decided by
/// [`RetireInfo::of`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetireClass {
    /// A load (plain or checked) writing `rd`.
    Load {
        /// Destination register (arms the load-use interlock).
        rd: Reg,
        /// Whether the SCU checks the access.
        checked: bool,
    },
    /// A store (plain or checked).
    Store {
        /// Whether the SCU checks the access.
        checked: bool,
    },
    /// A conditional branch (pays the redirect only when taken).
    Branch,
    /// An unconditional jump (`jal`/`jalr`).
    Jump,
    /// A multiply-class ALU op.
    Mul,
    /// A divide/remainder-class ALU op.
    Div,
    /// A metadata store (`sbdl`/`sbdu`).
    ShadowStore,
    /// A metadata load (`lbdls`/`lbdus`/`lbas`/`lbnd`/`lkey`/`lloc`)
    /// writing `rd`.
    ShadowLoad {
        /// Destination register (arms the load-use interlock).
        rd: Reg,
    },
    /// A temporal check.
    Tchk,
    /// Everything else: single-cycle, no side effects on timing state.
    Other,
}

/// An instruction's retire facts: source registers (for the load-use
/// interlock), HWST membership and timing class.
///
/// [`Self::of`] is the model's only instruction-to-timing decision.
/// [`Pipeline::retire`] charges one instruction from it; the
/// decoded-block engine sums the same facts into [`StaticCharges`]
/// prefixes at decode time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetireInfo {
    srcs: [Option<Reg>; 2],
    is_hwst: bool,
    class: RetireClass,
}

impl RetireInfo {
    /// Resolves `instr`'s retire facts.
    pub fn of(instr: &Instr) -> Self {
        let class = match *instr {
            Instr::Load { rd, checked, .. } => RetireClass::Load { rd, checked },
            Instr::Store { checked, .. } => RetireClass::Store { checked },
            Instr::Branch { .. } => RetireClass::Branch,
            Instr::Jal { .. } | Instr::Jalr { .. } => RetireClass::Jump,
            Instr::Alu { op, .. } if op.is_muldiv() => {
                if matches!(
                    op,
                    hwst_isa::AluOp::Mul
                        | hwst_isa::AluOp::Mulh
                        | hwst_isa::AluOp::Mulhsu
                        | hwst_isa::AluOp::Mulhu
                        | hwst_isa::AluOp::Mulw
                ) {
                    RetireClass::Mul
                } else {
                    RetireClass::Div
                }
            }
            // Metadata stores/loads go through the D-cache at the shadow
            // address; COMP/DECOMP is folded into the pipe stages
            // (paper: the compression adds critical-path latency, not
            // extra cycles).
            Instr::Sbdl { .. } | Instr::Sbdu { .. } => RetireClass::ShadowStore,
            Instr::Lbdls { rd, .. }
            | Instr::Lbdus { rd, .. }
            | Instr::Lbas { rd, .. }
            | Instr::Lbnd { rd, .. }
            | Instr::Lkey { rd, .. }
            | Instr::Lloc { rd, .. } => RetireClass::ShadowLoad { rd },
            Instr::Tchk { .. } => RetireClass::Tchk,
            _ => RetireClass::Other,
        };
        RetireInfo {
            srcs: instr.src_gprs(),
            is_hwst: instr.is_hwst(),
            class,
        }
    }

    /// The timing class this instruction resolved to.
    pub fn class(&self) -> RetireClass {
        self.class
    }

    /// Whether the instruction is an HWST extension instruction.
    pub fn is_hwst(&self) -> bool {
        self.is_hwst
    }

    /// Whether the instruction reads GPR `r` (x0 never reads as a
    /// dependence: it always reads zero).
    #[inline]
    pub fn reads(&self, r: Reg) -> bool {
        self.srcs.contains(&Some(r))
    }

    /// The destination this instruction arms the load-use interlock
    /// with, if any — the value [`Pipeline::retire`] leaves in
    /// `prev_load_dest` after retiring it.
    #[inline]
    pub fn load_dest(&self) -> Option<Reg> {
        match self.class {
            RetireClass::Load { rd, .. } | RetireClass::ShadowLoad { rd } => Some(rd),
            _ => None,
        }
    }
}

/// The static share of a run of retires: everything that depends only
/// on the instructions themselves, not on addresses or cache state.
/// [`Pipeline::retire`] charges one instruction's share; a decoded
/// block precomputes prefix sums of these, so the fast engine applies
/// one [`Pipeline::charge_static`] per block instead of one `retire`
/// per instruction.
///
/// Fields are counts (latency multipliers are applied by
/// [`Pipeline::charge_static`] against the live config), sized `u16`:
/// a block holds at most 128 components, so no count can overflow.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StaticCharges {
    /// Retired components: `instret` and `base_cycles` each advance by
    /// this much.
    pub comps: u16,
    /// HWST instructions (the `hwst_instrs` counter).
    pub hwst: u16,
    /// Checked loads/stores (the `checked_mem` counter).
    pub checked_mem: u16,
    /// Multiplies (charged `mul_latency` each).
    pub muls: u16,
    /// Divides (charged `div_latency` each).
    pub divs: u16,
    /// Unconditional jumps (charged `control_penalty` each; taken
    /// branches are dynamic).
    pub jumps: u16,
    /// Load-use interlock hits between adjacent components of the same
    /// block (charged `load_use_stall` each). Pairs straddling a block
    /// entry or an environment instruction are dynamic.
    pub load_use: u16,
    /// Shadow-memory operations (the `meta_mem` count).
    pub meta_mem: u16,
}

impl StaticCharges {
    /// Accumulates one component's static facts (the load-use pair
    /// count is the caller's job: it needs the *previous* component).
    pub fn add_component(&mut self, info: &RetireInfo) {
        self.comps += 1;
        self.hwst += info.is_hwst as u16;
        match info.class {
            RetireClass::Load { checked, .. } | RetireClass::Store { checked } => {
                self.checked_mem += checked as u16;
            }
            RetireClass::Mul => self.muls += 1,
            RetireClass::Div => self.divs += 1,
            RetireClass::Jump => self.jumps += 1,
            RetireClass::ShadowStore | RetireClass::ShadowLoad { .. } => self.meta_mem += 1,
            _ => {}
        }
    }
}

impl std::ops::Sub for StaticCharges {
    type Output = StaticCharges;

    /// Prefix-sum difference: the charges of components `[rhs, self)`.
    fn sub(self, rhs: StaticCharges) -> StaticCharges {
        StaticCharges {
            comps: self.comps - rhs.comps,
            hwst: self.hwst - rhs.hwst,
            checked_mem: self.checked_mem - rhs.checked_mem,
            muls: self.muls - rhs.muls,
            divs: self.divs - rhs.divs,
            jumps: self.jumps - rhs.jumps,
            load_use: self.load_use - rhs.load_use,
            meta_mem: self.meta_mem - rhs.meta_mem,
        }
    }
}

/// The cycle-accounting engine. Owns the D-cache and keybuffer state and
/// accumulates a [`CycleStats`] breakdown as the simulator retires
/// instructions through it.
///
/// An instruction's cycles are charged in two shares. The executor
/// charges the *dynamic* share where the access happens
/// ([`Self::charge_mem_dyn`], [`Self::charge_shadow_dyn`],
/// [`Self::charge_tchk_dyn`], [`Self::charge_taken_branch`]), so
/// D-cache and keybuffer state sees accesses in program order; then
/// [`Self::retire`] charges the *static* share.
///
/// # Example
///
/// ```
/// use hwst_pipeline::{Pipeline, PipelineConfig, RetireInfo};
/// use hwst_isa::{Instr, Reg, LoadWidth};
///
/// let mut p = Pipeline::new(PipelineConfig::default());
/// let ld = RetireInfo::of(&Instr::Load { width: LoadWidth::D, rd: Reg::A0, rs1: Reg::Sp, offset: 0, checked: false });
/// p.charge_mem_dyn(0x1000);
/// p.retire(&ld);
/// let cold = p.stats().total_cycles();
/// p.charge_mem_dyn(0x1000);
/// p.retire(&ld);
/// let warm = p.stats().total_cycles() - cold;
/// assert!(cold > warm, "second access hits the D-cache");
/// ```
#[derive(Debug, Clone)]
pub struct Pipeline {
    cfg: PipelineConfig,
    dcache: Cache,
    keybuffer: KeyBuffer,
    stats: CycleStats,
    /// Destination of the previous instruction if it was a load (for the
    /// load-use interlock).
    prev_load_dest: Option<Reg>,
}

impl Pipeline {
    /// Creates a cold pipeline.
    pub fn new(cfg: PipelineConfig) -> Self {
        Pipeline {
            cfg,
            dcache: Cache::new(cfg.dcache),
            keybuffer: KeyBuffer::new(cfg.keybuffer_entries),
            stats: CycleStats::default(),
            prev_load_dest: None,
        }
    }

    /// The configuration.
    pub fn config(&self) -> PipelineConfig {
        self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CycleStats {
        self.stats
    }

    /// The keybuffer (for diagnostics).
    pub fn keybuffer(&self) -> &KeyBuffer {
        &self.keybuffer
    }

    /// The D-cache (for diagnostics).
    pub fn dcache(&self) -> &Cache {
        &self.dcache
    }

    /// Notifies the pipeline that a pointer was freed: the keybuffer is
    /// cleared so it never serves a stale key (paper §3.5).
    pub fn notify_free(&mut self) {
        self.keybuffer.clear();
    }

    /// Fault-injection hook: plants a stale/wrong `lock → key` entry in
    /// the keybuffer (see [`KeyBuffer::poison`]).
    pub fn poison_keybuffer(&mut self, lock: u64, key: u64) {
        self.keybuffer.poison(lock, key);
    }

    /// Charges cycles for environment/runtime work performed on behalf of
    /// the program (the proxy-kernel allocator model).
    pub fn charge_runtime(&mut self, cycles: u64) {
        self.stats.runtime_stalls += cycles;
    }

    /// Trie layout only: the dependent directory access that precedes
    /// every shadow lookup (1 cycle serialization + cache behaviour of
    /// the directory line).
    fn shadow_dir_walk(&mut self, saddr: u64) -> u64 {
        match self.cfg.shadow_layout {
            ShadowLayout::Linear => 0,
            ShadowLayout::Trie => {
                // Directory entries live in their own region; one entry
                // covers a 128 KiB leaf's worth of shadow.
                let dir_addr = 0xD000_0000_0000u64 | ((saddr >> 17) << 3);
                1 + self.dcache.access(dir_addr)
            }
        }
    }

    /// Retires one instruction: the load-use interlock against the
    /// previous retire, then the instruction's static share. Its
    /// dynamic share is charged by the executor beforehand, where the
    /// access happens.
    #[inline]
    pub fn retire(&mut self, info: &RetireInfo) {
        self.interlock_seam(info);
        let mut c = StaticCharges::default();
        c.add_component(info);
        self.charge_static(c);
        self.prev_load_dest = info.load_dest();
    }

    /// Applies the static share of a run of retires: one instruction's
    /// (from [`Self::retire`]) or a decoded block prefix's.
    #[inline]
    pub fn charge_static(&mut self, c: StaticCharges) {
        self.stats.instret += c.comps as u64;
        self.stats.base_cycles += c.comps as u64;
        self.stats.hwst_instrs += c.hwst as u64;
        self.stats.checked_mem += c.checked_mem as u64;
        self.stats.muldiv_stalls +=
            c.muls as u64 * self.cfg.mul_latency + c.divs as u64 * self.cfg.div_latency;
        self.stats.control_stalls += c.jumps as u64 * self.cfg.control_penalty;
        self.stats.load_use_stalls += c.load_use as u64 * self.cfg.load_use_stall;
        self.stats.meta_mem += c.meta_mem as u64;
    }

    /// Dynamic share of a [`RetireClass::Load`]/[`RetireClass::Store`]:
    /// the D-cache access.
    #[inline]
    pub fn charge_mem_dyn(&mut self, addr: u64) {
        self.stats.mem_stalls += self.dcache.access(addr);
    }

    /// Dynamic share of a [`RetireClass::ShadowLoad`]/
    /// [`RetireClass::ShadowStore`]: directory walk plus the D-cache
    /// access at the shadow address.
    #[inline]
    pub fn charge_shadow_dyn(&mut self, saddr: u64) {
        let mut extra = self.shadow_dir_walk(saddr);
        extra += self.dcache.access(saddr);
        self.stats.shadow_stalls += extra;
    }

    /// Dynamic share of a [`RetireClass::Tchk`] whose pointer carries a
    /// lock: keybuffer lookup, and on a miss the key fetch through the
    /// D-cache plus the fill.
    #[inline]
    pub fn charge_tchk_dyn(&mut self, lock: u64, key: u64) {
        match self.keybuffer.lookup(lock) {
            Some(_) => {
                // Keybuffer hit: the key load is bypassed by "modifying
                // the valid signal in the DCache module" — zero extra
                // cycles.
                self.stats.keybuffer_hits += 1;
            }
            None => {
                self.stats.keybuffer_misses += 1;
                // The key must be fetched from the lock_location through
                // the D-cache; tchk is a two-memory-access pattern so it
                // cannot fuse with the load/store (paper §3.5).
                let extra = 1 + self.dcache.access(lock);
                self.stats.tchk_stalls += extra;
                self.keybuffer.fill(lock, key);
            }
        }
    }

    /// Dynamic share of a taken [`RetireClass::Branch`]: the redirect.
    #[inline]
    pub fn charge_taken_branch(&mut self) {
        self.stats.control_stalls += self.cfg.control_penalty;
    }

    /// The load-use interlock: charges a stall when `info` reads the
    /// destination of an immediately preceding load, and consumes that
    /// arming. [`Self::retire`] runs it for every instruction; the
    /// decoded-block engine runs it at a batching seam (block entry, or
    /// the component after an environment instruction), where the
    /// previous component is not known at decode time.
    #[inline]
    pub fn interlock_seam(&mut self, info: &RetireInfo) {
        if let Some(dest) = self.prev_load_dest.take() {
            if info.reads(dest) {
                self.stats.load_use_stalls += self.cfg.load_use_stall;
            }
        }
    }

    /// Restores the interlock arming at a batching seam: called when the
    /// decoded-block engine leaves a run of statically-charged
    /// components, with the `load_dest` of the last component executed
    /// (the value per-instruction retirement would have left behind).
    #[inline]
    pub fn set_prev_load_dest(&mut self, dest: Option<Reg>) {
        self.prev_load_dest = dest;
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use hwst_isa::{AluImmOp, AluOp, BranchCond, CsrOp, LoadWidth, StoreWidth};

    fn pipe() -> Pipeline {
        Pipeline::new(PipelineConfig::default())
    }

    fn load(rd: Reg, rs1: Reg) -> Instr {
        Instr::Load {
            width: LoadWidth::D,
            rd,
            rs1,
            offset: 0,
            checked: false,
        }
    }

    fn alu(op: AluOp, rd: Reg, rs1: Reg, rs2: Reg) -> Instr {
        Instr::Alu { op, rd, rs1, rs2 }
    }

    /// Retires `i` after running `dynamic` (its dynamic share, as the
    /// executor issues it) and returns the cycles the two charged.
    fn retire(p: &mut Pipeline, i: &Instr, dynamic: impl FnOnce(&mut Pipeline)) -> u64 {
        let before = p.stats().total_cycles();
        dynamic(p);
        p.retire(&RetireInfo::of(i));
        p.stats().total_cycles() - before
    }

    fn no_dyn(_: &mut Pipeline) {}

    #[test]
    fn alu_is_single_cycle() {
        let mut p = pipe();
        let i = alu(AluOp::Add, Reg::A0, Reg::A1, Reg::A2);
        assert_eq!(retire(&mut p, &i, no_dyn), 1);
        assert_eq!(p.stats().total_cycles(), 1);
    }

    #[test]
    fn load_use_interlock_fires_only_on_dependence() {
        let mut p = pipe();
        retire(&mut p, &load(Reg::A0, Reg::Sp), |p| p.charge_mem_dyn(0x100));
        // Dependent consumer stalls one cycle.
        let dep = alu(AluOp::Add, Reg::A1, Reg::A0, Reg::Zero);
        assert_eq!(retire(&mut p, &dep, no_dyn), 2);
        // Independent consumer does not.
        retire(&mut p, &load(Reg::A2, Reg::Sp), |p| p.charge_mem_dyn(0x100));
        let indep = alu(AluOp::Add, Reg::A3, Reg::A4, Reg::Zero);
        assert_eq!(retire(&mut p, &indep, no_dyn), 1);
        assert_eq!(p.stats().load_use_stalls, 1);
    }

    #[test]
    fn taken_branch_pays_redirect() {
        let mut p = pipe();
        let br = Instr::Branch {
            cond: BranchCond::Eq,
            rs1: Reg::A0,
            rs2: Reg::A1,
            offset: 8,
        };
        let not_taken = retire(&mut p, &br, no_dyn);
        let taken = retire(&mut p, &br, Pipeline::charge_taken_branch);
        assert_eq!(not_taken, 1);
        assert_eq!(taken, 1 + p.config().control_penalty);
    }

    #[test]
    fn divide_is_slow() {
        let mut p = pipe();
        let div = alu(AluOp::Div, Reg::A0, Reg::A1, Reg::A2);
        let mul = alu(AluOp::Mul, Reg::A0, Reg::A1, Reg::A2);
        assert_eq!(retire(&mut p, &div, no_dyn), 17);
        assert_eq!(retire(&mut p, &mul, no_dyn), 4);
    }

    #[test]
    fn tchk_keybuffer_hit_is_free() {
        let mut p = pipe();
        let tchk = Instr::Tchk { rs1: Reg::A0 };
        let miss = retire(&mut p, &tchk, |p| p.charge_tchk_dyn(0x9000, 42));
        let hit = retire(&mut p, &tchk, |p| p.charge_tchk_dyn(0x9000, 42));
        assert!(
            miss > hit,
            "first tchk loads the key, second hits the buffer"
        );
        assert_eq!(hit, 1);
        assert_eq!(p.stats().keybuffer_hits, 1);
        assert_eq!(p.stats().keybuffer_misses, 1);
    }

    #[test]
    fn poisoned_entry_only_bypasses_timing_and_dies_on_free() {
        let mut p = pipe();
        let tchk = Instr::Tchk { rs1: Reg::A0 };
        // A poisoned (stale) entry makes the next tchk a keybuffer hit —
        // it changes cycles, never the (lock, key) the simulator checks.
        p.poison_keybuffer(0x9000, 0xdead);
        assert_eq!(retire(&mut p, &tchk, |p| p.charge_tchk_dyn(0x9000, 42)), 1);
        assert_eq!(p.stats().keybuffer_hits, 1);
        // The free-coherence rule flushes poison like any entry.
        p.notify_free();
        retire(&mut p, &tchk, |p| p.charge_tchk_dyn(0x9000, 42));
        assert_eq!(p.stats().keybuffer_misses, 1);
    }

    #[test]
    fn free_clears_keybuffer() {
        let mut p = pipe();
        let tchk = Instr::Tchk { rs1: Reg::A0 };
        retire(&mut p, &tchk, |p| p.charge_tchk_dyn(0x9000, 42));
        p.notify_free();
        retire(&mut p, &tchk, |p| p.charge_tchk_dyn(0x9000, 42));
        assert_eq!(p.stats().keybuffer_misses, 2);
    }

    #[test]
    fn checked_and_unchecked_memops_cost_the_same() {
        // The SCU runs in EX in parallel with address generation: a
        // bounded load costs the same cycles as a plain load.
        let mut a = pipe();
        let mut b = pipe();
        for checked in [false, true] {
            let p = if checked { &mut b } else { &mut a };
            let ld = Instr::Load {
                width: LoadWidth::D,
                rd: Reg::A0,
                rs1: Reg::A1,
                offset: 0,
                checked,
            };
            let st = Instr::Store {
                width: StoreWidth::D,
                rs1: Reg::A1,
                rs2: Reg::A0,
                offset: 0,
                checked,
            };
            retire(p, &ld, |p| p.charge_mem_dyn(0x40));
            retire(p, &st, |p| p.charge_mem_dyn(0x80));
        }
        assert_eq!(a.stats().total_cycles(), b.stats().total_cycles());
        assert_eq!((a.stats().checked_mem, b.stats().checked_mem), (0, 2));
    }

    /// The instruction-to-timing table, pinned row by row: every
    /// `Instr` form (plus the mul/div/plain ALU split and the checked
    /// memory forms) resolves to the expected class, GPR sources,
    /// interlock arming and HWST membership.
    #[test]
    fn retire_info_table_covers_every_form() {
        use Reg::{A0, A1, A2};
        use RetireClass::*;
        // (instruction, class, GPR sources, interlock arming, is_hwst)
        type Row = (Instr, RetireClass, &'static [Reg], Option<Reg>, bool);
        #[rustfmt::skip]
        let table: Vec<Row> = vec![
            (Instr::Lui { rd: A0, imm: 4096 }, Other, &[], None, false),
            (Instr::Auipc { rd: A0, imm: 0 }, Other, &[], None, false),
            (Instr::Jal { rd: Reg::Ra, offset: 16 }, Jump, &[], None, false),
            (Instr::Jalr { rd: Reg::Zero, rs1: Reg::Ra, offset: 0 }, Jump, &[Reg::Ra], None, false),
            (Instr::Branch { cond: BranchCond::Ne, rs1: A0, rs2: A1, offset: -8 }, Branch, &[A0, A1], None, false),
            (load(A0, Reg::Sp), Load { rd: A0, checked: false }, &[Reg::Sp], Some(A0), false),
            (Instr::Load { width: LoadWidth::Bu, rd: A1, rs1: A2, offset: 8, checked: true }, Load { rd: A1, checked: true }, &[A2], Some(A1), true),
            (Instr::Store { width: StoreWidth::D, rs1: A0, rs2: A1, offset: 0, checked: false }, Store { checked: false }, &[A0, A1], None, false),
            (Instr::Store { width: StoreWidth::W, rs1: A0, rs2: A1, offset: 4, checked: true }, Store { checked: true }, &[A0, A1], None, true),
            (Instr::AluImm { op: AluImmOp::Addi, rd: A0, rs1: A1, imm: 1 }, Other, &[A1], None, false),
            (alu(AluOp::Add, A0, A1, A2), Other, &[A1, A2], None, false),
            // x0 sources never carry a dependence.
            (alu(AluOp::Sub, A0, Reg::Zero, A2), Other, &[A2], None, false),
            (alu(AluOp::Mul, A0, A1, A2), Mul, &[A1, A2], None, false),
            (alu(AluOp::Mulhu, A0, A1, A2), Mul, &[A1, A2], None, false),
            (alu(AluOp::Mulw, A0, A1, A2), Mul, &[A1, A2], None, false),
            (alu(AluOp::Div, A0, A1, A2), Div, &[A1, A2], None, false),
            (alu(AluOp::Remu, A0, A1, A2), Div, &[A1, A2], None, false),
            (alu(AluOp::Remuw, A0, A1, A2), Div, &[A1, A2], None, false),
            (Instr::Csr { op: CsrOp::Rw, rd: A0, rs1: A1, csr: 0x8c0 }, Other, &[A1], None, false),
            (Instr::Ecall, Other, &[], None, false),
            (Instr::Ebreak, Other, &[], None, false),
            (Instr::Fence, Other, &[], None, false),
            (Instr::Bndrs { rd: A0, rs1: A0, rs2: A1 }, Other, &[A0, A1], None, true),
            (Instr::Bndrt { rd: A0, rs1: A1, rs2: A2 }, Other, &[A1, A2], None, true),
            // The metadata stores read only the container pointer: the
            // SRF entry travels the metadata path, not the GPR path.
            (Instr::Sbdl { rs1: A0, rs2: A1, offset: 0 }, ShadowStore, &[A0], None, true),
            (Instr::Sbdu { rs1: A0, rs2: A1, offset: 8 }, ShadowStore, &[A0], None, true),
            (Instr::Lbdls { rd: A0, rs1: A1, offset: 0 }, ShadowLoad { rd: A0 }, &[A1], Some(A0), true),
            (Instr::Lbdus { rd: A0, rs1: A1, offset: 0 }, ShadowLoad { rd: A0 }, &[A1], Some(A0), true),
            (Instr::Lbas { rd: A2, rs1: A1, offset: 0 }, ShadowLoad { rd: A2 }, &[A1], Some(A2), true),
            (Instr::Lbnd { rd: A2, rs1: A1, offset: 0 }, ShadowLoad { rd: A2 }, &[A1], Some(A2), true),
            (Instr::Lkey { rd: A2, rs1: A1, offset: 0 }, ShadowLoad { rd: A2 }, &[A1], Some(A2), true),
            (Instr::Lloc { rd: A2, rs1: A1, offset: 0 }, ShadowLoad { rd: A2 }, &[A1], Some(A2), true),
            (Instr::Tchk { rs1: A0 }, Tchk, &[A0], None, true),
            (Instr::SrfMv { rd: A0, rs1: A1 }, Other, &[], None, true),
            (Instr::SrfClr { rd: A0 }, Other, &[], None, true),
        ];
        for (i, class, reads, load_dest, is_hwst) in &table {
            let info = RetireInfo::of(i);
            assert_eq!(info.class(), *class, "{i:?}");
            assert_eq!(info.load_dest(), *load_dest, "{i:?}");
            assert_eq!(info.is_hwst(), *is_hwst, "{i:?}");
            for r in Reg::ALL {
                assert_eq!(info.reads(r), reads.contains(&r), "{i:?} reads {r:?}");
            }
        }
        // Every one of the 26 `Instr` variants has at least one row.
        let forms: std::collections::HashSet<_> = table
            .iter()
            .map(|row| std::mem::discriminant(&row.0))
            .collect();
        assert_eq!(forms.len(), 26);
    }

    /// One retire per class, cold, under both shadow layouts: the exact
    /// cycles charged and the category they land in. The trie layout
    /// differs only on shadow accesses (its directory walk).
    #[test]
    fn one_charge_per_class_under_both_layouts() {
        let miss = CacheConfig::default().miss_penalty;
        for layout in [ShadowLayout::Linear, ShadowLayout::Trie] {
            let cfg = PipelineConfig {
                shadow_layout: layout,
                ..PipelineConfig::default()
            };
            // Cold directory line: 1 serialization cycle plus a miss.
            let walk = match layout {
                ShadowLayout::Linear => 0,
                ShadowLayout::Trie => 1 + miss,
            };
            // (instruction, dynamic share, cycles, category charged)
            type Case = (Instr, fn(&mut Pipeline), u64, fn(&CycleStats) -> u64);
            let cases: Vec<Case> = vec![
                (
                    load(Reg::A0, Reg::Sp),
                    |p| p.charge_mem_dyn(0x40),
                    1 + miss,
                    |s| s.mem_stalls,
                ),
                (
                    Instr::Store {
                        width: StoreWidth::D,
                        rs1: Reg::A0,
                        rs2: Reg::A1,
                        offset: 0,
                        checked: true,
                    },
                    |p| p.charge_mem_dyn(0x40),
                    1 + miss,
                    |s| s.mem_stalls,
                ),
                (
                    Instr::Branch {
                        cond: BranchCond::Eq,
                        rs1: Reg::A0,
                        rs2: Reg::A1,
                        offset: 8,
                    },
                    Pipeline::charge_taken_branch,
                    3,
                    |s| s.control_stalls,
                ),
                (
                    Instr::Jal {
                        rd: Reg::Ra,
                        offset: 8,
                    },
                    no_dyn,
                    3,
                    |s| s.control_stalls,
                ),
                (alu(AluOp::Mul, Reg::A0, Reg::A1, Reg::A2), no_dyn, 4, |s| {
                    s.muldiv_stalls
                }),
                (
                    alu(AluOp::Div, Reg::A0, Reg::A1, Reg::A2),
                    no_dyn,
                    17,
                    |s| s.muldiv_stalls,
                ),
                (
                    Instr::Sbdl {
                        rs1: Reg::A0,
                        rs2: Reg::A0,
                        offset: 0,
                    },
                    |p| p.charge_shadow_dyn(0x4000_0000),
                    1 + miss + walk,
                    |s| s.shadow_stalls,
                ),
                (
                    Instr::Lkey {
                        rd: Reg::A0,
                        rs1: Reg::A1,
                        offset: 0,
                    },
                    |p| p.charge_shadow_dyn(0x4000_0008),
                    1 + miss + walk,
                    |s| s.shadow_stalls,
                ),
                (
                    Instr::Tchk { rs1: Reg::A0 },
                    |p| p.charge_tchk_dyn(0x9000, 42),
                    2 + miss,
                    |s| s.tchk_stalls,
                ),
                // Nothing beyond the base cycle.
                (Instr::Fence, no_dyn, 1, |_| 0),
            ];
            for (i, dynamic, cycles, category) in cases {
                let mut p = Pipeline::new(cfg);
                assert_eq!(
                    retire(&mut p, &i, dynamic),
                    cycles,
                    "{i:?} under {layout:?}"
                );
                let s = p.stats();
                assert_eq!((s.instret, s.base_cycles), (1, 1), "{i:?}");
                // Everything above the base cycle lands in one category.
                assert_eq!(category(&s), cycles - 1, "{i:?} under {layout:?}");
            }
        }
    }

    /// A block's summed static share equals retiring its instructions
    /// one by one, when the in-block load-use pairs are counted the way
    /// the decoded-block engine counts them.
    #[test]
    fn summed_static_share_equals_per_instruction_retire() {
        let seq = [
            load(Reg::A0, Reg::Sp),
            alu(AluOp::Add, Reg::A1, Reg::A0, Reg::Zero),
            alu(AluOp::Mul, Reg::A2, Reg::A1, Reg::A1),
            Instr::Lbdls {
                rd: Reg::T0,
                rs1: Reg::A2,
                offset: 0,
            },
            Instr::Tchk { rs1: Reg::T0 },
            Instr::Jal {
                rd: Reg::Ra,
                offset: 8,
            },
        ];
        let mut one_by_one = pipe();
        for i in &seq {
            one_by_one.retire(&RetireInfo::of(i));
        }
        let mut summed = StaticCharges::default();
        let mut prev: Option<Reg> = None;
        for i in &seq {
            let info = RetireInfo::of(i);
            summed.load_use += prev.is_some_and(|d| info.reads(d)) as u16;
            summed.add_component(&info);
            prev = info.load_dest();
        }
        let mut batched = pipe();
        batched.charge_static(summed);
        assert_eq!(one_by_one.stats(), batched.stats());
        assert_eq!(one_by_one.stats().load_use_stalls, 2);
    }

    #[test]
    fn stats_balance() {
        let mut p = pipe();
        let mut sum = retire(&mut p, &load(Reg::A0, Reg::Sp), |p| p.charge_mem_dyn(0));
        let dep = alu(AluOp::Add, Reg::A1, Reg::A0, Reg::Zero);
        sum += retire(&mut p, &dep, no_dyn);
        let jal = Instr::Jal {
            rd: Reg::Ra,
            offset: 16,
        };
        sum += retire(&mut p, &jal, no_dyn);
        assert_eq!(p.stats().total_cycles(), sum);
        assert_eq!(p.stats().instret, 3);
        assert_eq!(sum, 3 + CacheConfig::default().miss_penalty + 1 + 2);
    }
}
