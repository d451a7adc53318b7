//! Architectural state and the run loop.

use crate::Trap;
use hwst_isa::{csr, Program, Reg};
use hwst_mem::{HeapAllocator, LinearShadow, LockAllocator, MemoryLayout, SparseMemory};
use hwst_metadata::{CompressionConfig, ShadowCodec};
use hwst_pipeline::{CycleStats, Pipeline, PipelineConfig, ShadowRegisterFile};
use std::sync::atomic::{AtomicU64, Ordering};

/// The source of [`Machine::program_id`]: every program load in the
/// process draws the next value, so no two loads share an id.
static NEXT_PROGRAM_ID: AtomicU64 = AtomicU64::new(0);

fn next_program_id() -> u64 {
    // Relaxed: the id publishes no other data, and `fetch_add` alone
    // keeps every drawn value distinct.
    NEXT_PROGRAM_ID.fetch_add(1, Ordering::Relaxed)
}

/// Which safety machinery is armed, and with what parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SafetyConfig {
    /// Metadata compression bit widths (the `hwst.compcfg` CSR).
    pub compression: CompressionConfig,
    /// Pipeline timing parameters (incl. keybuffer size).
    pub pipeline: PipelineConfig,
    /// Hardware spatial checks on bounded loads/stores.
    pub spatial: bool,
    /// Hardware temporal checks (`tchk`).
    pub temporal: bool,
    /// Whether `tchk` may hit in the keybuffer.
    pub keybuffer: bool,
    /// The address map.
    pub layout: MemoryLayout,
}

impl Default for SafetyConfig {
    fn default() -> Self {
        SafetyConfig {
            compression: CompressionConfig::SPEC_DEFAULT,
            pipeline: PipelineConfig::default(),
            spatial: true,
            temporal: true,
            keybuffer: true,
            layout: MemoryLayout::default(),
        }
    }
}

impl SafetyConfig {
    /// A configuration with every HWST128 feature disabled — the
    /// uninstrumented baseline core.
    pub fn baseline() -> Self {
        SafetyConfig {
            spatial: false,
            temporal: false,
            keybuffer: false,
            ..Self::default()
        }
    }

    /// The paper's `HWST128` bar in Fig. 4: hardware spatial metadata
    /// machinery, but the temporal key check is done in software (no
    /// `tchk`/keybuffer).
    pub fn hwst128_no_tchk() -> Self {
        SafetyConfig {
            keybuffer: false,
            ..Self::default()
        }
    }
}

/// Errors from [`Machine::from_image`]: the structured answers a binary
/// loader gives instead of panicking on a malformed image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadError {
    /// The image length is not a multiple of 4, so the tail cannot be an
    /// instruction word (previously the trailing bytes were silently
    /// dropped).
    RaggedImage {
        /// The offending image length in bytes.
        len: usize,
    },
    /// A word failed to decode.
    Decode(hwst_isa::DecodeError),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            LoadError::RaggedImage { len } => {
                write!(f, "image length {len} is not a multiple of 4")
            }
            LoadError::Decode(e) => write!(f, "image decode failed: {e}"),
        }
    }
}

impl std::error::Error for LoadError {}

impl From<hwst_isa::DecodeError> for LoadError {
    fn from(e: hwst_isa::DecodeError) -> Self {
        LoadError::Decode(e)
    }
}

/// Successful program termination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExitStatus {
    /// The code passed to `exit`.
    pub code: u64,
    /// Cycle/instruction statistics from the pipeline model.
    pub stats: CycleStats,
    /// Bytes written through `putchar`/`print_u64`.
    pub output: Vec<u8>,
}

impl ExitStatus {
    /// The captured output as lossy UTF-8.
    pub fn output_string(&self) -> String {
        String::from_utf8_lossy(&self.output).into_owned()
    }
}

/// Non-trapping runtime events worth counting (used by the Juliet
/// detectors and tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeEvents {
    /// `free` syscalls whose pointer was not a live allocation base
    /// (double free / interior free — CWE415/CWE761 raw material).
    pub invalid_frees: u64,
    /// `malloc` calls served.
    pub mallocs: u64,
    /// `free` calls served (valid ones).
    pub frees: u64,
}

/// The simulated HWST128 machine.
///
/// See the crate-level example for typical use. The machine is
/// deterministic: same program + config ⇒ same exit, output and cycle
/// counts.
#[derive(Debug, Clone)]
pub struct Machine {
    pub(crate) regs: [u64; 32],
    pub(crate) pc: u64,
    pub(crate) program: Program,
    /// User + shadow memory.
    pub(crate) mem: SparseMemory,
    pub(crate) srf: ShadowRegisterFile,
    pub(crate) pipeline: Pipeline,
    pub(crate) heap: HeapAllocator,
    pub(crate) locks: LockAllocator,
    pub(crate) codec: ShadowCodec,
    pub(crate) shadow: LinearShadow,
    pub(crate) cfg: SafetyConfig,
    pub(crate) output: Vec<u8>,
    pub(crate) events: RuntimeEvents,
    pub(crate) exited: Option<u64>,
    /// Custom CSR backing store (hwst.* registers).
    pub(crate) csrs: std::collections::HashMap<u16, u64>,
    /// Process-unique identity of the loaded program, drawn by
    /// [`Self::new`] and kept by clones;
    /// decoded-block caches validate against it so no other program
    /// can ever execute through their pre-decoded blocks.
    pub(crate) program_id: u64,
}

impl Machine {
    /// Creates a machine with the program loaded and the HWST128 CSRs
    /// initialised from `cfg` (the "set at the beginning of a program"
    /// step of §3.3).
    pub fn new(program: Program, cfg: SafetyConfig) -> Self {
        let layout = cfg.layout;
        debug_assert!(layout.validate().is_ok());
        let mut regs = [0u64; 32];
        regs[Reg::Sp.index() as usize] = layout.stack_top;
        regs[Reg::Gp.index() as usize] = layout.data_base;
        let mut csrs = std::collections::HashMap::new();
        csrs.insert(csr::HWST_SM_OFFSET, layout.shadow_offset);
        csrs.insert(csr::HWST_COMP_CFG, cfg.compression.to_csr());
        csrs.insert(csr::HWST_LOCK_BASE, layout.lock_region_base);
        let status = (cfg.spatial as u64 * csr::STATUS_SPATIAL)
            | (cfg.temporal as u64 * csr::STATUS_TEMPORAL)
            | (cfg.keybuffer as u64 * csr::STATUS_KEYBUFFER);
        csrs.insert(csr::HWST_STATUS, status);
        let pc = program.base();
        // Disabling the keybuffer in the safety config zeroes its size in
        // the timing model (every tchk pays the key load).
        let mut pipe_cfg = cfg.pipeline;
        if !cfg.keybuffer {
            pipe_cfg.keybuffer_entries = 0;
        }
        Machine {
            regs,
            pc,
            program,
            mem: SparseMemory::new(),
            srf: ShadowRegisterFile::new(),
            pipeline: Pipeline::new(pipe_cfg),
            heap: HeapAllocator::new(layout.heap_base, layout.heap_size),
            locks: LockAllocator::new(layout.lock_region_base, layout.lock_slots),
            codec: ShadowCodec::new(cfg.compression, layout.lock_region_base),
            shadow: LinearShadow::new(layout.shadow_offset),
            cfg,
            output: Vec::new(),
            events: RuntimeEvents::default(),
            exited: None,
            csrs,
            program_id: next_program_id(),
        }
    }

    /// Creates a machine from a raw little-endian instruction image (as
    /// produced by [`Program::to_image`]), decoding it up front — the
    /// path a binary loader would take.
    ///
    /// # Errors
    ///
    /// [`LoadError::RaggedImage`] when the image length is not a multiple
    /// of 4, [`LoadError::Decode`] for the first undecodable word.
    pub fn from_image(base: u64, image: &[u8], cfg: SafetyConfig) -> Result<Self, LoadError> {
        if !image.len().is_multiple_of(4) {
            return Err(LoadError::RaggedImage { len: image.len() });
        }
        let mut instrs = Vec::with_capacity(image.len() / 4);
        for chunk in image.chunks_exact(4) {
            let word = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
            instrs.push(hwst_isa::decode(word)?);
        }
        Ok(Self::new(Program::from_instrs(base, instrs), cfg))
    }

    /// The loaded program's identity, unique within the process: every
    /// [`Self::new`] draws a fresh one, and a clone keeps its original's. The instruction image is immutable
    /// while the id stands, so decoded-block caches key their validity
    /// on it alone.
    pub fn program_id(&self) -> u64 {
        self.program_id
    }

    /// The loaded program (decoded-block engines fetch through this).
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Current program counter.
    #[inline]
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// Sets the program counter. This is the decoded-block engine's
    /// write-back hook; it performs no fetch or alignment check — the
    /// next execution step reports [`Trap::BadFetch`] exactly as it
    /// would after a wild `jalr`.
    #[inline]
    pub fn set_pc(&mut self, pc: u64) {
        self.pc = pc;
    }

    /// Peeks at the instruction the next [`step`](Self::step) will
    /// execute (`None` once exited or when the PC left the program).
    pub fn next_instr(&self) -> Option<(u64, hwst_isa::Instr)> {
        if self.exited.is_some() {
            return None;
        }
        self.program.fetch(self.pc).map(|i| (self.pc, *i))
    }

    /// Whether the program has exited (and with which code).
    #[inline]
    pub fn exit_code(&self) -> Option<u64> {
        self.exited
    }

    /// Reads a GPR (x0 reads as zero).
    #[inline]
    pub fn reg(&self, r: Reg) -> u64 {
        if r.is_zero() {
            0
        } else {
            self.regs[r.index() as usize]
        }
    }

    /// Writes a GPR (writes to x0 are discarded). Does **not** touch the
    /// SRF — callers decide propagation.
    #[inline]
    pub fn set_reg(&mut self, r: Reg, v: u64) {
        if !r.is_zero() {
            self.regs[r.index() as usize] = v;
        }
    }

    /// The shadow register file (diagnostics and tests).
    #[inline]
    pub fn srf(&self) -> &ShadowRegisterFile {
        &self.srf
    }

    /// Mutable shadow register file — fault-injection hook (SRF cell
    /// upsets).
    #[inline]
    pub fn srf_mut(&mut self) -> &mut ShadowRegisterFile {
        &mut self.srf
    }

    /// Simulated memory (for loading data and inspecting results).
    #[inline]
    pub fn mem(&self) -> &SparseMemory {
        &self.mem
    }

    /// Mutable simulated memory (test setup).
    #[inline]
    pub fn mem_mut(&mut self) -> &mut SparseMemory {
        &mut self.mem
    }

    /// The metadata codec currently configured through the HWST CSRs.
    #[inline]
    pub fn codec(&self) -> &hwst_metadata::ShadowCodec {
        &self.codec
    }

    /// The linear shadow map currently configured through
    /// `hwst.sm_offset`.
    #[inline]
    pub fn shadow(&self) -> &LinearShadow {
        &self.shadow
    }

    /// Bytes written through `putchar`/`print_u64` so far.
    pub fn output(&self) -> &[u8] {
        &self.output
    }

    /// Pipeline statistics so far.
    pub fn stats(&self) -> CycleStats {
        self.pipeline.stats()
    }

    /// The pipeline model (keybuffer/D-cache diagnostics).
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// Mutable pipeline model — fault-injection hook (keybuffer
    /// poisoning).
    #[inline]
    pub fn pipeline_mut(&mut self) -> &mut Pipeline {
        &mut self.pipeline
    }

    /// Runtime events so far.
    pub fn events(&self) -> RuntimeEvents {
        self.events
    }

    /// The active safety configuration.
    pub fn config(&self) -> &SafetyConfig {
        &self.cfg
    }

    /// Reads a CSR value as the `csrr*` instructions see it.
    pub fn csr(&self, addr: u16) -> u64 {
        match addr {
            csr::CYCLE => self.pipeline.stats().total_cycles(),
            csr::INSTRET => self.pipeline.stats().instret,
            _ => self.csrs.get(&addr).copied().unwrap_or(0),
        }
    }

    pub(crate) fn set_csr(&mut self, addr: u16, v: u64) {
        self.csrs.insert(addr, v);
        // Reconfigure derived units when HWST CSRs change.
        match addr {
            csr::HWST_COMP_CFG => {
                if let Ok(c) = CompressionConfig::from_csr(v) {
                    self.codec = ShadowCodec::new(c, self.codec.lock_region_base());
                }
            }
            csr::HWST_SM_OFFSET => {
                self.shadow = LinearShadow::new(v);
            }
            csr::HWST_LOCK_BASE => {
                self.codec = ShadowCodec::new(self.codec.config(), v);
            }
            _ => {}
        }
    }

    /// Whether hardware spatial checks are armed.
    pub(crate) fn spatial_on(&self) -> bool {
        self.csr(csr::HWST_STATUS) & csr::STATUS_SPATIAL != 0
    }

    /// Whether hardware temporal checks are armed.
    pub(crate) fn temporal_on(&self) -> bool {
        self.csr(csr::HWST_STATUS) & csr::STATUS_TEMPORAL != 0
    }

    /// Whether hardware spatial checks are armed (the
    /// `hwst.status.spatial` bit as [`step`](Self::step) reads it).
    ///
    /// Execution engines may cache this between CSR writes: only a
    /// `csr*` instruction (or environment call) can change it.
    pub fn spatial_enabled(&self) -> bool {
        self.spatial_on()
    }

    /// Whether hardware temporal checks are armed (the
    /// `hwst.status.temporal` bit). Same caching contract as
    /// [`Self::spatial_enabled`].
    pub fn temporal_enabled(&self) -> bool {
        self.temporal_on()
    }

    /// Runs until exit, trap or `fuel` instructions.
    ///
    /// # Errors
    ///
    /// Returns the [`Trap`] that stopped execution; spatial/temporal
    /// violations are the detections the experiments count.
    pub fn run(&mut self, fuel: u64) -> Result<ExitStatus, Trap> {
        self.run_steps(fuel, Self::step)
    }

    /// The fuel/exit loop of [`Self::run`], [`Self::run_profiled`] and
    /// [`Self::trace`]: the exit latch is checked before each fueled
    /// `step`, and once more when the fuel runs out.
    pub(crate) fn run_steps(
        &mut self,
        fuel: u64,
        mut step: impl FnMut(&mut Self) -> Result<(), Trap>,
    ) -> Result<ExitStatus, Trap> {
        for _ in 0..fuel {
            if let Some(code) = self.exited {
                return Ok(self.exit_status(code));
            }
            step(self)?;
        }
        match self.exited {
            Some(code) => Ok(self.exit_status(code)),
            None => Err(Trap::OutOfFuel { executed: fuel }),
        }
    }

    pub(crate) fn exit_status(&self, code: u64) -> ExitStatus {
        ExitStatus {
            code,
            stats: self.pipeline.stats(),
            output: self.output.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwst_isa::{AluImmOp, Instr};

    fn exit_prog(code: i64) -> Program {
        Program::from_instrs(
            0x1_0000,
            vec![
                Instr::AluImm {
                    op: AluImmOp::Addi,
                    rd: Reg::A0,
                    rs1: Reg::Zero,
                    imm: code,
                },
                Instr::AluImm {
                    op: AluImmOp::Addi,
                    rd: Reg::A7,
                    rs1: Reg::Zero,
                    imm: crate::syscall::EXIT as i64,
                },
                Instr::Ecall,
            ],
        )
    }

    #[test]
    fn exits_with_code() {
        let mut m = Machine::new(exit_prog(42), SafetyConfig::default());
        let e = m.run(100).unwrap();
        assert_eq!(e.code, 42);
        assert_eq!(e.stats.instret, 3);
    }

    #[test]
    fn fuel_exhaustion_is_a_trap() {
        // An infinite loop: jal zero, 0.
        let prog = Program::from_instrs(
            0x1_0000,
            vec![Instr::Jal {
                rd: Reg::Zero,
                offset: 0,
            }],
        );
        let mut m = Machine::new(prog, SafetyConfig::default());
        assert_eq!(m.run(100), Err(Trap::OutOfFuel { executed: 100 }));
    }

    #[test]
    fn initial_state_follows_layout() {
        let m = Machine::new(exit_prog(0), SafetyConfig::default());
        let l = m.config().layout;
        assert_eq!(m.reg(Reg::Sp), l.stack_top);
        assert_eq!(m.csr(csr::HWST_SM_OFFSET), l.shadow_offset);
        assert_eq!(m.csr(csr::HWST_LOCK_BASE), l.lock_region_base);
        assert_eq!(m.reg(Reg::Zero), 0);
    }

    #[test]
    fn status_bits_reflect_config() {
        let m = Machine::new(exit_prog(0), SafetyConfig::baseline());
        assert!(!m.spatial_on());
        assert!(!m.temporal_on());
        let m = Machine::new(exit_prog(0), SafetyConfig::hwst128_no_tchk());
        assert!(m.spatial_on());
        assert!(m.temporal_on());
        assert_eq!(m.csr(csr::HWST_STATUS) & csr::STATUS_KEYBUFFER, 0);
    }

    #[test]
    fn run_after_exit_is_stable() {
        let mut m = Machine::new(exit_prog(5), SafetyConfig::default());
        assert_eq!(m.run(100).unwrap().code, 5);
        assert_eq!(m.run(100).unwrap().code, 5, "idempotent after exit");
    }

    #[test]
    fn clones_keep_the_program_id_and_new_machines_draw_one() {
        let m = Machine::new(exit_prog(5), SafetyConfig::default());
        let id = m.program_id();
        assert_eq!(m.clone().program_id(), id, "a clone keeps the id");
        assert_ne!(
            Machine::new(exit_prog(5), SafetyConfig::default()).program_id(),
            id,
            "every new machine draws its own id"
        );
    }
}
