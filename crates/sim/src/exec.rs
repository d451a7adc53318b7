//! The fetch/decode/execute step.

use crate::machine::Machine;
use crate::{syscall, Trap};
use hwst_isa::{Instr, Reg};
use hwst_metadata::Metadata;
use hwst_pipeline::RetireInfo;

impl Machine {
    /// Executes one instruction: the reference semantics every
    /// execution engine is checked against. Each access charges its
    /// dynamic share to the pipeline where it happens; the instruction
    /// then retires its static share from [`RetireInfo::of`].
    ///
    /// # Errors
    ///
    /// Returns the [`Trap`] raised by the instruction (violations, bad
    /// fetch, breakpoints, environment faults).
    pub fn step(&mut self) -> Result<(), Trap> {
        if self.exited.is_some() {
            return Ok(());
        }
        let pc = self.pc;
        let instr = *self.program.fetch(pc).ok_or(Trap::BadFetch { pc })?;
        let mut next_pc = pc.wrapping_add(4);

        match instr {
            Instr::Lui { rd, imm } => {
                self.set_reg(rd, imm as u64);
                self.srf.clear(rd);
            }
            Instr::Auipc { rd, imm } => {
                self.set_reg(rd, pc.wrapping_add(imm as u64));
                self.srf.clear(rd);
            }
            Instr::Jal { rd, offset } => {
                self.set_reg(rd, pc.wrapping_add(4));
                self.srf.clear(rd);
                next_pc = pc.wrapping_add(offset as u64);
            }
            Instr::Jalr { rd, rs1, offset } => {
                let target = self.reg(rs1).wrapping_add(offset as u64) & !1u64;
                self.set_reg(rd, pc.wrapping_add(4));
                self.srf.clear(rd);
                next_pc = target;
            }
            Instr::Branch {
                cond,
                rs1,
                rs2,
                offset,
            } => {
                if cond.eval(self.reg(rs1), self.reg(rs2)) {
                    next_pc = pc.wrapping_add(offset as u64);
                    self.pipeline.charge_taken_branch();
                }
            }
            Instr::Load {
                width,
                rd,
                rs1,
                offset,
                checked,
            } => {
                let addr = self.reg(rs1).wrapping_add(offset as u64);
                if checked && self.spatial_on() {
                    self.spatial_check(pc, rs1, addr, width.bytes())?;
                }
                let raw = self.mem.read_le(addr, width.bytes());
                self.pipeline.charge_mem_dyn(addr);
                self.set_reg(rd, width.extend(raw));
                self.srf.clear(rd);
            }
            Instr::Store {
                width,
                rs1,
                rs2,
                offset,
                checked,
            } => {
                let addr = self.reg(rs1).wrapping_add(offset as u64);
                if checked && self.spatial_on() {
                    self.spatial_check(pc, rs1, addr, width.bytes())?;
                }
                self.mem.write_le(addr, width.bytes(), self.reg(rs2));
                self.pipeline.charge_mem_dyn(addr);
            }
            Instr::AluImm { op, rd, rs1, imm } => {
                self.set_reg(rd, op.eval(self.reg(rs1), imm));
                self.srf.propagate(rd, Some(rs1), None);
            }
            Instr::Alu { op, rd, rs1, rs2 } => {
                self.set_reg(rd, op.eval(self.reg(rs1), self.reg(rs2)));
                self.srf.propagate(rd, Some(rs1), Some(rs2));
            }
            Instr::Csr { op, rd, rs1, csr } => {
                let old = self.csr(csr);
                let src = self.reg(rs1);
                self.set_reg(rd, old);
                self.srf.clear(rd);
                self.set_csr(csr, op.apply(old, src));
            }
            Instr::Ecall => {
                self.ecall(pc)?;
            }
            Instr::Ebreak => return Err(Trap::Breakpoint { pc }),
            Instr::Fence => {}

            // ---- HWST128 extension ----
            Instr::Bndrs { rd, rs1, rs2 } => {
                let (base, bound) = (self.reg(rs1), self.reg(rs2));
                let lower =
                    self.codec
                        .compress_spatial(base, bound)
                        .map_err(|_| Trap::Environment {
                            pc,
                            what: "bndrs: metadata not representable under compcfg",
                        })?;
                self.srf.write_lower(rd, lower);
            }
            Instr::Bndrt { rd, rs1, rs2 } => {
                let (key, lock) = (self.reg(rs1), self.reg(rs2));
                let upper =
                    self.codec
                        .compress_temporal(key, lock)
                        .map_err(|_| Trap::Environment {
                            pc,
                            what: "bndrt: metadata not representable under compcfg",
                        })?;
                self.srf.write_upper(rd, upper);
            }
            Instr::SrfMv { rd, rs1 } => self.srf.mv(rd, rs1),
            Instr::SrfClr { rd } => self.srf.clear(rd),
            Instr::Sbdl { rs1, rs2, offset } => {
                let container = self.reg(rs1).wrapping_add(offset as u64);
                let s = self.shadow.shadow_addr(container);
                let lower = self.srf.read(rs2).map(|c| c.lower).unwrap_or(0);
                self.mem.write_u64(s, lower);
                self.pipeline.charge_shadow_dyn(s);
            }
            Instr::Sbdu { rs1, rs2, offset } => {
                let container = self.reg(rs1).wrapping_add(offset as u64);
                let s = self.shadow.upper_addr(container);
                let upper = self.srf.read(rs2).map(|c| c.upper).unwrap_or(0);
                self.mem.write_u64(s, upper);
                self.pipeline.charge_shadow_dyn(s);
            }
            Instr::Lbdls { rd, rs1, offset } => {
                let container = self.reg(rs1).wrapping_add(offset as u64);
                let s = self.shadow.shadow_addr(container);
                let v = self.mem.read_u64(s);
                self.pipeline.charge_shadow_dyn(s);
                self.srf.write_lower(rd, v);
            }
            Instr::Lbdus { rd, rs1, offset } => {
                let container = self.reg(rs1).wrapping_add(offset as u64);
                let s = self.shadow.upper_addr(container);
                let v = self.mem.read_u64(s);
                self.pipeline.charge_shadow_dyn(s);
                self.srf.write_upper(rd, v);
            }
            Instr::Lbas { rd, rs1, offset } => {
                let (v, s) = self.shadow_field(rs1, offset, Field::Base);
                self.pipeline.charge_shadow_dyn(s);
                self.set_reg(rd, v);
                self.srf.clear(rd);
            }
            Instr::Lbnd { rd, rs1, offset } => {
                let (v, s) = self.shadow_field(rs1, offset, Field::Bound);
                self.pipeline.charge_shadow_dyn(s);
                self.set_reg(rd, v);
                self.srf.clear(rd);
            }
            Instr::Lkey { rd, rs1, offset } => {
                let (v, s) = self.shadow_field(rs1, offset, Field::Key);
                self.pipeline.charge_shadow_dyn(s);
                self.set_reg(rd, v);
                self.srf.clear(rd);
            }
            Instr::Lloc { rd, rs1, offset } => {
                let (v, s) = self.shadow_field(rs1, offset, Field::Lock);
                self.pipeline.charge_shadow_dyn(s);
                self.set_reg(rd, v);
                self.srf.clear(rd);
            }
            Instr::Tchk { rs1 } => {
                if self.temporal_on() {
                    if let Some(c) = self.srf.read(rs1) {
                        let (key, lock) = self.codec.decompress_temporal(c.upper);
                        if lock != 0 {
                            let stored = self.mem.read_u64(lock);
                            self.pipeline.charge_tchk_dyn(lock, stored);
                            if stored != key {
                                // Charge the cycles before trapping so the
                                // detection is visible in the stats too.
                                self.pipeline.retire(&RetireInfo::of(&instr));
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

        self.pipeline.retire(&RetireInfo::of(&instr));
        self.pc = next_pc;
        Ok(())
    }

    /// The SCU: checks an `n`-byte access at `addr` against the spatial
    /// metadata shadowing `ptr_reg`. An invalid SRF entry — or an
    /// all-zero compressed spatial word, the value every never-written
    /// shadow container holds — admits the access: uninstrumented pointer
    /// flows must keep working (the SBCETS binary-compatibility rule the
    /// paper inherits). NULL pointers are bound to the empty region
    /// `[8, 8)` by the allocator wrapper, which compresses to a nonzero
    /// word and therefore still traps.
    ///
    /// Public (and `&self` — the check only reads) so the decoded-block
    /// execution tier shares this exact predicate instead of
    /// re-implementing it.
    #[inline]
    pub fn spatial_check(&self, pc: u64, ptr_reg: Reg, addr: u64, bytes: u64) -> Result<(), Trap> {
        if let Some(c) = self.srf.read(ptr_reg) {
            if c.lower == 0 {
                return Ok(());
            }
            let (base, bound) = self.codec.decompress_spatial(c.lower);
            let md = Metadata::spatial(base, bound);
            if !md.spatial_ok(addr, bytes) {
                return Err(Trap::SpatialViolation {
                    pc,
                    addr,
                    base,
                    bound,
                });
            }
        }
        Ok(())
    }

    fn shadow_field(&mut self, rs1: Reg, offset: i64, f: Field) -> (u64, u64) {
        let container = self.reg(rs1).wrapping_add(offset as u64);
        let (s, word) = match f {
            Field::Base | Field::Bound => {
                let s = self.shadow.shadow_addr(container);
                (s, self.mem.read_u64(s))
            }
            Field::Key | Field::Lock => {
                let s = self.shadow.upper_addr(container);
                (s, self.mem.read_u64(s))
            }
        };
        let v = match f {
            Field::Base => self.codec.decompress_spatial(word).0,
            Field::Bound => self.codec.decompress_spatial(word).1,
            Field::Key => self.codec.decompress_temporal(word).0,
            Field::Lock => self.codec.decompress_temporal(word).1,
        };
        (v, s)
    }

    /// Proxy-kernel syscall dispatch (`a7` = number).
    fn ecall(&mut self, pc: u64) -> Result<(), Trap> {
        let num = self.reg(Reg::A7);
        let a0 = self.reg(Reg::A0);
        let a1 = self.reg(Reg::A1);
        let a2 = self.reg(Reg::A2);
        match num {
            syscall::EXIT => {
                self.exited = Some(a0);
            }
            syscall::PUTCHAR => {
                self.output.push(a0 as u8);
            }
            syscall::MALLOC => {
                self.events.mallocs += 1;
                // A realistic allocator costs tens of cycles of runtime
                // work beyond the wrapper's own instructions.
                self.pipeline.charge_runtime(30);
                match self.heap.malloc(a0) {
                    Ok(block) => {
                        let grant = self.locks.acquire().map_err(|_| Trap::Environment {
                            pc,
                            what: "lock_location slots exhausted",
                        })?;
                        self.mem.write_u64(grant.lock, grant.key);
                        self.set_reg(Reg::A0, block.base);
                        self.set_reg(Reg::A1, grant.key);
                        self.set_reg(Reg::A2, grant.lock);
                        self.srf.clear(Reg::A0);
                        self.srf.clear(Reg::A1);
                        self.srf.clear(Reg::A2);
                    }
                    Err(_) => {
                        self.set_reg(Reg::A0, 0);
                        self.set_reg(Reg::A1, 0);
                        self.set_reg(Reg::A2, 0);
                    }
                }
            }
            syscall::FREE => {
                self.pipeline.charge_runtime(30);
                if a1 != 0 {
                    // Erase the key: every pointer still carrying the old
                    // key is now invalid (CETS semantics, §3.4).
                    self.mem.write_u64(a1, 0);
                    let _ = self.locks.release(a1);
                    self.pipeline.notify_free();
                }
                match self.heap.free(a0) {
                    Ok(()) => self.events.frees += 1,
                    Err(_) => self.events.invalid_frees += 1,
                }
            }
            syscall::LOCK_ACQUIRE => {
                self.pipeline.charge_runtime(10);
                let grant = self.locks.acquire().map_err(|_| Trap::Environment {
                    pc,
                    what: "lock_location slots exhausted",
                })?;
                self.mem.write_u64(grant.lock, grant.key);
                self.set_reg(Reg::A0, grant.key);
                self.set_reg(Reg::A1, grant.lock);
                self.srf.clear(Reg::A0);
                self.srf.clear(Reg::A1);
            }
            syscall::LOCK_RELEASE => {
                self.pipeline.charge_runtime(10);
                self.mem.write_u64(a0, 0);
                let _ = self.locks.release(a0);
                self.pipeline.notify_free();
            }
            syscall::ABORT_SPATIAL => {
                return Err(Trap::SpatialViolation {
                    pc,
                    addr: a0,
                    base: a1,
                    bound: a2,
                });
            }
            syscall::ABORT_TEMPORAL => {
                return Err(Trap::TemporalViolation {
                    pc,
                    key: a0,
                    lock: a1,
                    stored_key: a2,
                });
            }
            syscall::PRINT_U64 => {
                self.output.extend_from_slice(a0.to_string().as_bytes());
                self.output.push(b'\n');
            }
            _ => {
                return Err(Trap::MachineFault {
                    pc,
                    what: "unknown syscall number",
                })
            }
        }
        Ok(())
    }
}

#[derive(Clone, Copy)]
enum Field {
    Base,
    Bound,
    Key,
    Lock,
}
