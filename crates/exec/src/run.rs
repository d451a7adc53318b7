//! The fast run loop: executes decoded blocks bit-identically to
//! [`Machine::run`].
//!
//! Every structural rule of the reference loop is replicated exactly:
//!
//! * the exit latch is checked before the fuel budget, and once more
//!   after it, so exit-on-the-last-fuel-unit still reports `Ok`;
//! * [`Trap::BadFetch`] is only raised when fuel remains (fetch happens
//!   inside a fueled step);
//! * a trapping instruction does **not** advance the PC, and — except
//!   `tchk`, which charges its cycles before trapping — does not
//!   retire;
//! * each component of a fused pair consumes one fuel unit and retires
//!   separately, so fuel exhaustion between the halves leaves the
//!   machine exactly where the reference would.
//!
//! `ecall`/`csr*`/`ebreak` components execute through
//! [`Machine::step`] itself; the cached spatial/temporal enable flags
//! are re-read afterwards because only those instructions can rewrite
//! `hwst.status`.
//!
//! Retirement is batched: the static share of a block (instret, base
//! cycles, counter bumps, fixed latencies, statically-known load-use
//! pairs) was prefix-summed at decode time from the same
//! [`RetireInfo::of`] facts `Machine::step` retires, so per component
//! only the dynamic share runs — D-cache and keybuffer accesses, in
//! exactly the order the reference issues them — and one
//! `charge_static` is applied per block, or per block prefix at every
//! early exit (trap, fuel exhaustion, environment fallback). The
//! load-use interlock is checked dynamically only at a *seam* (block
//! entry and after a fallback), where the preceding instruction is
//! unknown at decode time.
//!
//! [`RetireInfo::of`]: hwst_pipeline::RetireInfo::of

use crate::block::{BlockCache, Field, OpKind, Simple};
use hwst_sim::{ExitStatus, Machine, Trap};

/// Runs `m` for at most `fuel` instructions through the decoded-block
/// tier, decoding blocks into `cache` on first touch.
///
/// Bit-identical to [`Machine::run`]: same result, same final machine
/// state. A warm `cache` (from a previous run of this machine or of a
/// clone of it) skips re-decoding entirely; the cache revalidates its
/// program-id stamp first, so a mismatched cache flushes rather than
/// misexecutes.
///
/// # Errors
///
/// Exactly those of [`Machine::run`].
pub fn run_fast(m: &mut Machine, fuel: u64, cache: &mut BlockCache) -> Result<ExitStatus, Trap> {
    cache.revalidate(m);
    let mut executed: u64 = 0;
    let mut spatial = m.spatial_enabled();
    let mut temporal = m.temporal_enabled();

    'outer: loop {
        if let Some(code) = m.exit_code() {
            return Ok(exit_status(m, code));
        }
        if executed >= fuel {
            return Err(Trap::OutOfFuel { executed: fuel });
        }
        let entry = m.pc();
        let block = cache.block_for(m, entry)?;
        let mut pc = entry;
        // Components executed so far / first component of the current
        // unflushed run. Flushing applies the static prefix difference
        // and restores the interlock arming per-op retirement would
        // have left, so any exit point — and any resumption after
        // `OutOfFuel` — sees exactly the cycle engine's state.
        let mut k: usize = 0;
        let mut seg: usize = 0;
        let mut seam = true;
        // With the whole block funded, no per-component fuel checks are
        // needed at all.
        let funded = fuel - executed >= block.ncomps as u64;

        macro_rules! flush {
            () => {
                if k > seg {
                    m.pipeline_mut()
                        .charge_static(block.prefix[k] - block.prefix[seg]);
                    m.pipeline_mut().set_prev_load_dest(block.load_dest[k]);
                }
            };
        }

        for op in block.ops.iter() {
            if !funded && executed >= fuel {
                flush!();
                m.set_pc(pc);
                continue 'outer;
            }
            match op.kind {
                OpKind::Fallback => {
                    flush!();
                    m.set_pc(pc);
                    m.step()?;
                    executed += 1;
                    k += 1;
                    seg = k;
                    seam = true;
                    pc = m.pc();
                    if m.exit_code().is_some() {
                        continue 'outer;
                    }
                    spatial = m.spatial_enabled();
                    temporal = m.temporal_enabled();
                }
                OpKind::FusedSbd { rs1, rs2, offset } => {
                    let container = m.reg(rs1).wrapping_add(offset);
                    let (lower, upper) = match m.srf().read(rs2) {
                        Some(c) => (c.lower, c.upper),
                        None => (0, 0),
                    };
                    if seam {
                        m.pipeline_mut().interlock_seam(&op.info[0]);
                        seam = false;
                    }
                    let s = m.shadow().shadow_addr(container);
                    m.mem_mut().write_le_fast(s, 8, lower);
                    m.pipeline_mut().charge_shadow_dyn(s);
                    executed += 1;
                    k += 1;
                    pc = pc.wrapping_add(4);
                    if !funded && executed >= fuel {
                        flush!();
                        m.set_pc(pc);
                        continue 'outer;
                    }
                    let s = m.shadow().upper_addr(container);
                    m.mem_mut().write_le_fast(s, 8, upper);
                    m.pipeline_mut().charge_shadow_dyn(s);
                    executed += 1;
                    k += 1;
                    pc = pc.wrapping_add(4);
                }
                OpKind::FusedLbd { rd, rs1, offset } => {
                    let container = m.reg(rs1).wrapping_add(offset);
                    if seam {
                        m.pipeline_mut().interlock_seam(&op.info[0]);
                        seam = false;
                    }
                    let s = m.shadow().shadow_addr(container);
                    let v = m.mem().read_le_fast(s, 8);
                    m.srf_mut().write_lower(rd, v);
                    m.pipeline_mut().charge_shadow_dyn(s);
                    executed += 1;
                    k += 1;
                    pc = pc.wrapping_add(4);
                    if !funded && executed >= fuel {
                        flush!();
                        m.set_pc(pc);
                        continue 'outer;
                    }
                    let s = m.shadow().upper_addr(container);
                    let v = m.mem().read_le_fast(s, 8);
                    m.srf_mut().write_upper(rd, v);
                    m.pipeline_mut().charge_shadow_dyn(s);
                    executed += 1;
                    k += 1;
                    pc = pc.wrapping_add(4);
                }
                OpKind::FusedLbdlsLoad {
                    mrd,
                    mrs1,
                    moffset,
                    width,
                    rd,
                    offset,
                } => {
                    // The metadata load must complete before the checked
                    // load: its SRF write is what the SCU checks against.
                    let container = m.reg(mrs1).wrapping_add(moffset);
                    if seam {
                        m.pipeline_mut().interlock_seam(&op.info[0]);
                        seam = false;
                    }
                    let s = m.shadow().shadow_addr(container);
                    let v = m.mem().read_le_fast(s, 8);
                    m.srf_mut().write_lower(mrd, v);
                    m.pipeline_mut().charge_shadow_dyn(s);
                    executed += 1;
                    k += 1;
                    pc = pc.wrapping_add(4);
                    if !funded && executed >= fuel {
                        flush!();
                        m.set_pc(pc);
                        continue 'outer;
                    }
                    let addr = m.reg(mrd).wrapping_add(offset);
                    if spatial {
                        if let Err(t) = m.spatial_check(pc, mrd, addr, width.bytes()) {
                            // The checked load traps without retiring;
                            // the metadata load already executed.
                            flush!();
                            m.set_pc(pc);
                            return Err(t);
                        }
                    }
                    let raw = m.mem().read_le_fast(addr, width.bytes());
                    m.set_reg(rd, width.extend(raw));
                    m.srf_mut().clear(rd);
                    m.pipeline_mut().charge_mem_dyn(addr);
                    executed += 1;
                    k += 1;
                    pc = pc.wrapping_add(4);
                }
                OpKind::Simple(simple) => match exec_one(m, simple, pc, spatial, temporal) {
                    Ok(next) => {
                        if seam {
                            m.pipeline_mut().interlock_seam(&op.info[0]);
                            seam = false;
                        }
                        executed += 1;
                        k += 1;
                        pc = next;
                    }
                    Err(t) => {
                        // A trapping component does not retire — except
                        // tchk, which charges its cycles (and its static
                        // share) before raising the temporal violation.
                        if matches!(t, Trap::TemporalViolation { .. }) {
                            if seam {
                                m.pipeline_mut().interlock_seam(&op.info[0]);
                            }
                            k += 1;
                        }
                        flush!();
                        m.set_pc(pc);
                        return Err(t);
                    }
                },
            }
        }
        flush!();
        m.set_pc(pc);
    }
}

fn exit_status(m: &Machine, code: u64) -> ExitStatus {
    ExitStatus {
        code,
        stats: m.stats(),
        output: m.output().to_vec(),
    }
}

/// Executes one simple op, mirroring [`Machine::step`] arm by arm, and
/// charges its dynamic share. The static share is owed by the caller's
/// block-prefix accounting. Returns the next PC; on a trap the caller
/// leaves the machine PC at `pc`.
#[inline(always)]
fn exec_one(
    m: &mut Machine,
    op: Simple,
    pc: u64,
    spatial: bool,
    temporal: bool,
) -> Result<u64, Trap> {
    let mut next = pc.wrapping_add(4);
    match op {
        Simple::Lui { rd, imm } => {
            m.set_reg(rd, imm);
            m.srf_mut().clear(rd);
        }
        Simple::Auipc { rd, val } => {
            m.set_reg(rd, val);
            m.srf_mut().clear(rd);
        }
        Simple::Jal { rd, link, target } => {
            m.set_reg(rd, link);
            m.srf_mut().clear(rd);
            next = target;
        }
        Simple::Jalr {
            rd,
            rs1,
            offset,
            link,
        } => {
            // Read rs1 before the link write: rd may alias rs1.
            let target = m.reg(rs1).wrapping_add(offset) & !1u64;
            m.set_reg(rd, link);
            m.srf_mut().clear(rd);
            next = target;
        }
        Simple::Branch {
            cond,
            rs1,
            rs2,
            target,
        } => {
            if cond.eval(m.reg(rs1), m.reg(rs2)) {
                next = target;
                m.pipeline_mut().charge_taken_branch();
            }
        }
        Simple::Load {
            width,
            rd,
            rs1,
            offset,
            checked,
        } => {
            let addr = m.reg(rs1).wrapping_add(offset);
            if checked && spatial {
                m.spatial_check(pc, rs1, addr, width.bytes())?;
            }
            let raw = m.mem().read_le_fast(addr, width.bytes());
            m.set_reg(rd, width.extend(raw));
            m.srf_mut().clear(rd);
            m.pipeline_mut().charge_mem_dyn(addr);
        }
        Simple::Store {
            width,
            rs1,
            rs2,
            offset,
            checked,
        } => {
            let addr = m.reg(rs1).wrapping_add(offset);
            if checked && spatial {
                m.spatial_check(pc, rs1, addr, width.bytes())?;
            }
            let val = m.reg(rs2);
            m.mem_mut().write_le_fast(addr, width.bytes(), val);
            m.pipeline_mut().charge_mem_dyn(addr);
        }
        Simple::AluImm { op, rd, rs1, imm } => {
            m.set_reg(rd, op.eval(m.reg(rs1), imm));
            m.srf_mut().propagate(rd, Some(rs1), None);
        }
        Simple::Alu { op, rd, rs1, rs2 } => {
            m.set_reg(rd, op.eval(m.reg(rs1), m.reg(rs2)));
            m.srf_mut().propagate(rd, Some(rs1), Some(rs2));
        }
        Simple::Fence => {}
        Simple::Bndrs { rd, rs1, rs2 } => {
            let (base, bound) = (m.reg(rs1), m.reg(rs2));
            let lower = m
                .codec()
                .compress_spatial(base, bound)
                .map_err(|_| Trap::Environment {
                    pc,
                    what: "bndrs: metadata not representable under compcfg",
                })?;
            m.srf_mut().write_lower(rd, lower);
        }
        Simple::Bndrt { rd, rs1, rs2 } => {
            let (key, lock) = (m.reg(rs1), m.reg(rs2));
            let upper = m
                .codec()
                .compress_temporal(key, lock)
                .map_err(|_| Trap::Environment {
                    pc,
                    what: "bndrt: metadata not representable under compcfg",
                })?;
            m.srf_mut().write_upper(rd, upper);
        }
        Simple::SrfMv { rd, rs1 } => m.srf_mut().mv(rd, rs1),
        Simple::SrfClr { rd } => m.srf_mut().clear(rd),
        Simple::Sbdl { rs1, rs2, offset } => {
            let container = m.reg(rs1).wrapping_add(offset);
            let s = m.shadow().shadow_addr(container);
            let lower = m.srf().read(rs2).map(|c| c.lower).unwrap_or(0);
            m.mem_mut().write_le_fast(s, 8, lower);
            m.pipeline_mut().charge_shadow_dyn(s);
        }
        Simple::Sbdu { rs1, rs2, offset } => {
            let container = m.reg(rs1).wrapping_add(offset);
            let s = m.shadow().upper_addr(container);
            let upper = m.srf().read(rs2).map(|c| c.upper).unwrap_or(0);
            m.mem_mut().write_le_fast(s, 8, upper);
            m.pipeline_mut().charge_shadow_dyn(s);
        }
        Simple::Lbdls { rd, rs1, offset } => {
            let container = m.reg(rs1).wrapping_add(offset);
            let s = m.shadow().shadow_addr(container);
            let v = m.mem().read_le_fast(s, 8);
            m.srf_mut().write_lower(rd, v);
            m.pipeline_mut().charge_shadow_dyn(s);
        }
        Simple::Lbdus { rd, rs1, offset } => {
            let container = m.reg(rs1).wrapping_add(offset);
            let s = m.shadow().upper_addr(container);
            let v = m.mem().read_le_fast(s, 8);
            m.srf_mut().write_upper(rd, v);
            m.pipeline_mut().charge_shadow_dyn(s);
        }
        Simple::ShadowField {
            field,
            rd,
            rs1,
            offset,
        } => {
            let container = m.reg(rs1).wrapping_add(offset);
            let s = match field {
                Field::Base | Field::Bound => m.shadow().shadow_addr(container),
                Field::Key | Field::Lock => m.shadow().upper_addr(container),
            };
            let word = m.mem().read_le_fast(s, 8);
            let v = match field {
                Field::Base => m.codec().decompress_spatial(word).0,
                Field::Bound => m.codec().decompress_spatial(word).1,
                Field::Key => m.codec().decompress_temporal(word).0,
                Field::Lock => m.codec().decompress_temporal(word).1,
            };
            m.set_reg(rd, v);
            m.srf_mut().clear(rd);
            m.pipeline_mut().charge_shadow_dyn(s);
        }
        Simple::Tchk { rs1 } => {
            if temporal {
                if let Some(c) = m.srf().read(rs1) {
                    let (key, lock) = m.codec().decompress_temporal(c.upper);
                    if lock != 0 {
                        let stored = m.mem().read_le_fast(lock, 8);
                        m.pipeline_mut().charge_tchk_dyn(lock, stored);
                        if stored != key {
                            // Charged before trapping, as the reference
                            // does: the dynamic share above, the static
                            // share by the caller, which counts this
                            // component into its flush.
                            return Err(Trap::TemporalViolation {
                                pc,
                                key,
                                lock,
                                stored_key: stored,
                            });
                        }
                    }
                }
            }
        }
    }
    Ok(next)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject::run_with_plan;
    use crate::Engine;
    use hwst_isa::asm::assemble;
    use hwst_sim::inject::{apply, FaultClass, FaultRecord, InjectionPlan};
    use hwst_sim::SafetyConfig;

    const BASE: u64 = 0x1_0000;

    fn machines(src: &str, cfg: SafetyConfig) -> (Machine, Machine) {
        let prog = assemble(BASE, src).unwrap();
        (Machine::new(prog.clone(), cfg), Machine::new(prog, cfg))
    }

    /// Full observable-state comparison ([`hwst_sim::Observation`]).
    fn assert_same_state(cycle: &Machine, fast: &Machine) {
        if let Some(d) = cycle.observe().first_difference(&fast.observe()) {
            panic!("engines diverged: {d}");
        }
    }

    /// Runs `src` under both engines at the given fuel and asserts the
    /// results and final machine states are bit-identical. Returns the
    /// warm cache for follow-up assertions.
    fn assert_same_run(src: &str, cfg: SafetyConfig, fuel: u64) -> BlockCache {
        let (mut cycle, mut fast) = machines(src, cfg);
        let mut cache = BlockCache::new();
        let want = cycle.run(fuel);
        let got = run_fast(&mut fast, fuel, &mut cache);
        assert_eq!(want, got, "run result at fuel {fuel}");
        assert_same_state(&cycle, &fast);
        cache
    }

    /// Exercises every fused pattern, the HWST metadata instructions,
    /// muldiv/branch loops, calls and syscalls in one program.
    const MIXED: &str = "
        li   a0, 64
        li   a7, 1000
        ecall                  # malloc: a0=base a1=key a2=lock
        mv   t0, a0
        addi t1, a0, 64
        bndrs t0, a0, t1
        bndrt t0, a1, a2
        csd  t1, 0(t0)         # checked store, in bounds
        cld  t2, 0(t0)         # checked load, in bounds
        tchk t0                # keybuffer miss
        tchk t0                # keybuffer hit
        sd   t0, 8(a0)
        sbdl t0, 8(a0)         # fused with the next sbdu
        sbdu t0, 8(a0)
        ld   t3, 8(a0)
        lbdls t3, 8(a0)        # fused with the next checked load
        cld  t4, 0(t3)
        lbdls t5, 8(a0)        # fused with the next lbdus
        lbdus t5, 8(a0)
        lbas s0, 8(a0)
        lbnd s1, 8(a0)
        lkey s2, 8(a0)
        lloc s3, 8(a0)
        srfmv s4, t0
        srfclr s4
        li   s5, 5
        li   s6, 0
    loop:
        addi s6, s6, 3
        mul  s7, s6, s6
        div  s8, s7, s5
        addi s5, s5, -1
        bnez s5, loop
        sd   s7, -8(sp)
        ld   s9, -8(sp)
        jal  ra, func
        mv   a0, s7
        li   a7, 1020
        ecall                  # print_u64
        li   a0, 72
        li   a7, 64
        ecall                  # putchar
        li   a0, 0
        li   a7, 93
        ecall                  # exit
    func:
        lui  s10, 4
        auipc s11, 0
        ret
    ";

    #[test]
    fn mixed_program_is_bit_identical() {
        let cache = assert_same_run(MIXED, SafetyConfig::default(), 10_000);
        assert!(cache.decodes() > 0);
    }

    #[test]
    fn mixed_program_matches_under_every_config() {
        for cfg in [
            SafetyConfig::baseline(),
            SafetyConfig::hwst128_no_tchk(),
            SafetyConfig::default(),
        ] {
            assert_same_run(MIXED, cfg, 10_000);
        }
    }

    /// Every fuel value from 0 to completion: out-of-fuel boundaries —
    /// including exhaustion *between* the halves of a fused pair — must
    /// leave both engines in identical states.
    #[test]
    fn every_fuel_boundary_is_bit_identical() {
        for fuel in 0..280 {
            assert_same_run(MIXED, SafetyConfig::default(), fuel);
        }
    }

    /// The oracle split a fault campaign stands for: [`Machine::run`] to
    /// the trigger, [`apply`], [`Machine::run`] for the rest.
    fn oracle_split(
        m: &mut Machine,
        plan: &InjectionPlan,
        fuel: u64,
    ) -> (Result<ExitStatus, Trap>, FaultRecord) {
        let trigger = plan.trigger.min(fuel);
        match m.run(trigger) {
            Err(Trap::OutOfFuel { .. }) => {
                let record = apply(m, plan);
                (m.run(fuel - trigger), record)
            }
            Ok(exit) => {
                let why = "program exited before the trigger point";
                (Ok(exit), FaultRecord::NotApplied { why })
            }
            Err(t) => {
                let why = "trapped before the trigger point";
                (Err(t), FaultRecord::NotApplied { why })
            }
        }
    }

    /// Every split point k of `MIXED` — some between the halves of a
    /// fused pair: a fast run stopped after k instructions and resumed,
    /// bare or after each fault class applied at k, ends exactly like
    /// the oracle (one uninterrupted run, or [`oracle_split`]) — same
    /// result, same fault record, same observable state.
    #[test]
    fn every_split_point_is_bit_identical() {
        const FUEL: u64 = 10_000;
        let fresh = Machine::new(assemble(BASE, MIXED).unwrap(), SafetyConfig::default());
        let mut whole = fresh.clone();
        let want = whole.run(FUEL);
        let end = whole.stats().instret;
        let mut cache = BlockCache::new();
        let mut applied = [false; FaultClass::ALL.len()];
        for k in 0..=end {
            let mut fast = fresh.clone();
            let _ = run_fast(&mut fast, k, &mut cache);
            assert_eq!(
                want,
                run_fast(&mut fast, FUEL - k, &mut cache),
                "split at {k}"
            );
            assert_same_state(&whole, &fast);
            for (ci, class) in FaultClass::ALL.into_iter().enumerate() {
                let plan = InjectionPlan {
                    class,
                    seed: k,
                    trigger: k,
                };
                let mut oracle = fresh.clone();
                let mut fast = fresh.clone();
                let got = run_with_plan(&mut fast, &plan, FUEL, &mut cache);
                assert_eq!(oracle_split(&mut oracle, &plan, FUEL), got, "{plan}");
                assert_same_state(&oracle, &fast);
                applied[ci] |= got.1.applied();
            }
        }
        assert_eq!(
            applied,
            [true; FaultClass::ALL.len()],
            "{:?}",
            FaultClass::ALL
        );
    }

    #[test]
    fn spatial_violation_is_bit_identical() {
        let src = "
            li   a0, 16
            li   a7, 1000
            ecall
            mv   t0, a0
            addi t1, a0, 16
            bndrs t0, a0, t1
            cld  t2, 16(t0)     # one past the bound
        ";
        let (mut cycle, mut fast) = machines(src, SafetyConfig::default());
        let mut cache = BlockCache::new();
        let want = cycle.run(1_000);
        let got = run_fast(&mut fast, 1_000, &mut cache);
        assert!(
            matches!(want, Err(Trap::SpatialViolation { .. })),
            "{want:?}"
        );
        assert_eq!(want, got);
        assert_same_state(&cycle, &fast);
    }

    #[test]
    fn fused_checked_load_violation_is_bit_identical() {
        // The violating access sits in the second half of a fused
        // lbdls+cld pair: the metadata load must retire, the load must
        // trap without retiring, and the pc must stay on the load.
        let src = "
            li   a0, 16
            li   a7, 1000
            ecall
            mv   t0, a0
            addi t1, a0, 16
            bndrs t0, a0, t1
            bndrt t0, a1, a2
            sd   t0, 0(a0)
            sbdl t0, 0(a0)
            sbdu t0, 0(a0)
            ld   t3, 0(a0)
            lbdls t3, 0(a0)
            cld  t4, 24(t3)     # fused, out of bounds
        ";
        let (mut cycle, mut fast) = machines(src, SafetyConfig::default());
        let mut cache = BlockCache::new();
        let want = cycle.run(1_000);
        let got = run_fast(&mut fast, 1_000, &mut cache);
        assert!(
            matches!(want, Err(Trap::SpatialViolation { .. })),
            "{want:?}"
        );
        assert_eq!(want, got);
        assert_same_state(&cycle, &fast);
    }

    #[test]
    fn temporal_violation_is_bit_identical() {
        let src = "
            li   a0, 32
            li   a7, 1000
            ecall
            mv   t0, a0
            addi t1, a0, 32
            bndrs t0, a0, t1
            bndrt t0, a1, a2
            mv   a0, t0
            mv   a1, a2
            li   a7, 1001
            ecall               # free: key at the lock location is cleared
            tchk t0
        ";
        let (mut cycle, mut fast) = machines(src, SafetyConfig::default());
        let mut cache = BlockCache::new();
        let want = cycle.run(1_000);
        let got = run_fast(&mut fast, 1_000, &mut cache);
        assert!(
            matches!(want, Err(Trap::TemporalViolation { .. })),
            "{want:?}"
        );
        assert_eq!(want, got);
        assert_same_state(&cycle, &fast);
    }

    #[test]
    fn csr_write_refreshes_cached_check_flags() {
        // Disabling hwst.status through a fallback instruction must be
        // visible to subsequent decoded checked accesses: the same
        // out-of-bounds load that would trap now passes in both engines.
        let src = "
            li   a0, 16
            li   a7, 1000
            ecall
            mv   t0, a0
            addi t1, a0, 16
            bndrs t0, a0, t1
            csrrw zero, hwst.status, zero
            cld  t2, 64(t0)     # far out of bounds, but checks are off
            li   a0, 0
            li   a7, 93
            ecall
        ";
        let (mut cycle, mut fast) = machines(src, SafetyConfig::default());
        let mut cache = BlockCache::new();
        let want = cycle.run(1_000);
        let got = run_fast(&mut fast, 1_000, &mut cache);
        assert!(want.is_ok(), "{want:?}");
        assert_eq!(want, got);
        assert_same_state(&cycle, &fast);
    }

    #[test]
    fn bad_fetch_and_breakpoint_are_bit_identical() {
        for src in [
            "   li  t0, 0x500000\n   jalr zero, 0(t0)\n",
            "   addi t0, zero, 1\n   ebreak\n",
        ] {
            let (mut cycle, mut fast) = machines(src, SafetyConfig::default());
            let mut cache = BlockCache::new();
            let want = cycle.run(1_000);
            let got = run_fast(&mut fast, 1_000, &mut cache);
            assert!(want.is_err());
            assert_eq!(want, got);
            assert_same_state(&cycle, &fast);
        }
    }

    #[test]
    fn environment_trap_from_bndrs_is_bit_identical() {
        // A bound below the base is not representable: both engines must
        // report the same Environment trap without retiring.
        let src = "
            li   a0, 4096
            li   t1, 8
            bndrs t0, a0, t1
        ";
        let (mut cycle, mut fast) = machines(src, SafetyConfig::default());
        let mut cache = BlockCache::new();
        let want = cycle.run(1_000);
        let got = run_fast(&mut fast, 1_000, &mut cache);
        assert!(matches!(want, Err(Trap::Environment { .. })), "{want:?}");
        assert_eq!(want, got);
        assert_same_state(&cycle, &fast);
    }

    #[test]
    fn warm_cache_skips_redecode_and_stays_identical() {
        let prog = assemble(BASE, MIXED).unwrap();
        let mut cache = BlockCache::new();

        let mut first = Machine::new(prog.clone(), SafetyConfig::default());
        let mut second = first.clone();
        let a = run_fast(&mut first, 10_000, &mut cache).unwrap();
        let decodes = cache.decodes();
        assert!(decodes > 0);

        // A clone keeps the program id, so the cache stays warm.
        let b = run_fast(&mut second, 10_000, &mut cache).unwrap();
        assert_eq!(a, b);
        assert_eq!(cache.decodes(), decodes, "warm run must not re-decode");
        assert!(cache.hits() > 0);

        let mut reference = Machine::new(prog, SafetyConfig::default());
        assert_eq!(reference.run(10_000).unwrap(), b);
    }

    #[test]
    fn engine_dispatch_matches_direct_calls() {
        let prog = assemble(BASE, MIXED).unwrap();
        let mut results = Vec::new();
        for engine in [Engine::Cycle, Engine::Fast] {
            let mut m = Machine::new(prog.clone(), SafetyConfig::default());
            let mut cache = BlockCache::new();
            results.push(engine.run(&mut m, 10_000, &mut cache).unwrap());
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(Engine::default(), Engine::Fast);
    }
}
