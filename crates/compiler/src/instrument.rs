//! The instrumentation passes: `None`, SBCETS (software), HWST128
//! (hardware metadata, software key check) and HWST128+`tchk`.
//!
//! The pass rewrites each function so that
//!
//! * pointer **creation** sites bind metadata (software companion
//!   variables, hardware `bndrs`/`bndrt`, or both),
//! * pointer **propagation** sites move metadata (software copies and
//!   shadow loads/stores, or hardware `sbd*`/`lbd*`; register-to-register
//!   propagation is free in hardware),
//! * pointer **dereference** sites check metadata (software compare+
//!   branch sequences, or hardware bounded accesses and `tchk`),
//!
//! exactly mirroring which work each scheme of the paper's Fig. 4 does in
//! software versus hardware.

use crate::analysis::PointerInfo;
use crate::ir::{
    BinOp, Block, BlockId, Function, Global, Inst, MetaField, Module, Terminator, VarId, Width,
};
use hwst_sim::SafetyConfig;
use std::collections::HashMap;

/// The instrumentation scheme (the paper's Fig. 4 series).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// No instrumentation: the uninstrumented baseline.
    None,
    /// SoftBoundCETS: every metadata operation in software, uncompressed
    /// 256-bit metadata in shadow memory.
    Sbcets,
    /// HWST128 without `tchk`: hardware metadata propagation and spatial
    /// checks, software key load + compare for temporal checks.
    Hwst128,
    /// Full HWST128: hardware `tchk` with the keybuffer.
    Hwst128Tchk,
    /// SHORE (DAC 2021), the paper's predecessor: hardware *spatial*
    /// safety only — no temporal metadata, checks or frame locks. Not
    /// part of the paper's Fig. 4 series ([`Scheme::ALL`] stays the
    /// published four); used by the spatial-only ablation.
    Shore,
    /// RV-CURE (arXiv:2308.02945) zoo model: a full-pipeline
    /// capability-tag architecture. Modeled as hardware metadata
    /// propagation with tagged checks (`tchk`) but *without* the
    /// keybuffer — RV-CURE validates capabilities inline rather than
    /// caching lock words. Not in [`Scheme::ALL`]; see DESIGN.md §4l.
    RvCure,
    /// L4 Pointer (arXiv:2302.06819) zoo model: software-only 128-bit
    /// wide pointers. Metadata travels *with* the pointer, so checks
    /// are inline compare+branch sequences (no runtime helper calls)
    /// and propagation is plain word traffic. Not in [`Scheme::ALL`].
    L4Pointer,
    /// CryptSan (arXiv:2202.08669) zoo model: PAC-style pointer
    /// signing. Authentication happens on dereference and catches
    /// temporal reuse (dangling signatures) but direct in-bounds-object
    /// overflows keep a valid signature, so no spatial checks are
    /// emitted. Detection of spatial bugs is probabilistic at the
    /// Juliet layer. Not in [`Scheme::ALL`].
    CryptSan,
    /// HeapSafe (arXiv:2105.08712) zoo model: heap-only reference
    /// tagging. Hardware-assisted binds/checks exist only for `malloc`
    /// results; stack and global pointers are never bound, so those
    /// CWEs are missed by construction. Not in [`Scheme::ALL`].
    HeapSafe,
}

impl Scheme {
    /// All schemes, in Fig. 4 order.
    pub const ALL: [Scheme; 4] = [
        Scheme::None,
        Scheme::Sbcets,
        Scheme::Hwst128,
        Scheme::Hwst128Tchk,
    ];

    /// The four related-work designs modeled by `hwst-zoo` (experiment
    /// Z1/Z2). Deliberately *not* part of [`Scheme::ALL`] so every
    /// Fig. 4/5/6 artifact keeps its published shape.
    pub const ZOO: [Scheme; 4] = [
        Scheme::RvCure,
        Scheme::L4Pointer,
        Scheme::CryptSan,
        Scheme::HeapSafe,
    ];

    /// Every scheme, in declaration order: the domain of
    /// [`Scheme::by_label`]. [`Scheme::ALL`] is its Fig. 4 subset.
    pub const EVERY: [Scheme; 9] = [
        Scheme::None,
        Scheme::Sbcets,
        Scheme::Hwst128,
        Scheme::Hwst128Tchk,
        Scheme::Shore,
        Scheme::RvCure,
        Scheme::L4Pointer,
        Scheme::CryptSan,
        Scheme::HeapSafe,
    ];

    /// Parses a CLI-style spelling: any [`Scheme::label`],
    /// case-insensitively, plus the aliases `none` (baseline) and
    /// `tchk` (HWST128_tchk).
    pub fn by_label(raw: &str) -> Option<Scheme> {
        if raw.eq_ignore_ascii_case("none") {
            return Some(Scheme::None);
        }
        if raw.eq_ignore_ascii_case("tchk") {
            return Some(Scheme::Hwst128Tchk);
        }
        Scheme::EVERY
            .into_iter()
            .find(|s| s.label().eq_ignore_ascii_case(raw))
    }

    /// Display label used by the benchmark harness.
    pub const fn label(self) -> &'static str {
        match self {
            Scheme::None => "baseline",
            Scheme::Sbcets => "SBCETS",
            Scheme::Hwst128 => "HWST128",
            Scheme::Hwst128Tchk => "HWST128_tchk",
            Scheme::Shore => "SHORE",
            Scheme::RvCure => "RV-CURE",
            Scheme::L4Pointer => "L4Pointer",
            Scheme::CryptSan => "CryptSan",
            Scheme::HeapSafe => "HeapSafe",
        }
    }

    /// Whether the scheme uses the HWST128 hardware (SRF & friends).
    pub const fn uses_hardware(self) -> bool {
        matches!(
            self,
            Scheme::Hwst128
                | Scheme::Hwst128Tchk
                | Scheme::Shore
                | Scheme::RvCure
                | Scheme::HeapSafe
        )
    }

    /// Whether the scheme carries temporal (key/lock) metadata at all.
    pub const fn temporal_safety(self) -> bool {
        !matches!(self, Scheme::None | Scheme::Shore)
    }

    /// Whether only heap allocations are bound (HeapSafe's defining
    /// restriction: stack and global pointers carry no metadata, so
    /// stack/global CWEs are unreachable by construction).
    pub const fn heap_only(self) -> bool {
        matches!(self, Scheme::HeapSafe)
    }

    /// Whether software key/lock companion variables are carried.
    const fn sw_temporal(self) -> bool {
        matches!(
            self,
            Scheme::Sbcets | Scheme::Hwst128 | Scheme::L4Pointer | Scheme::CryptSan
        )
    }

    /// Whether software base/bound/key/lock companions are carried at
    /// all (every non-hardware scheme that instruments).
    const fn sw_companions(self) -> bool {
        matches!(self, Scheme::Sbcets | Scheme::L4Pointer | Scheme::CryptSan)
    }

    /// Whether dereference checks are *inline* compare+branch sequences
    /// rather than runtime helper calls (L4 Pointer carries metadata in
    /// the wide pointer itself; CryptSan's PAC authentication is an
    /// inline instruction, not a call).
    const fn inline_sw_checks(self) -> bool {
        matches!(self, Scheme::L4Pointer | Scheme::CryptSan)
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The [`SafetyConfig`] a program instrumented for `scheme` runs on in
/// the paper's experiments: software schemes run on the baseline core,
/// hardware schemes arm the corresponding checks.
pub fn config_for(scheme: Scheme) -> SafetyConfig {
    match scheme {
        Scheme::None | Scheme::Sbcets => SafetyConfig::baseline(),
        Scheme::Hwst128 => SafetyConfig::hwst128_no_tchk(),
        Scheme::Hwst128Tchk => SafetyConfig::default(),
        // SHORE: spatial hardware armed, no temporal machinery.
        Scheme::Shore => SafetyConfig {
            temporal: false,
            keybuffer: false,
            ..SafetyConfig::default()
        },
        // Zoo designs (DESIGN.md §4l). RV-CURE validates capabilities
        // inline with no lock cache, so every `tchk` pays the lock-word
        // access — the same timing point as HWST128-without-keybuffer.
        Scheme::RvCure => SafetyConfig::hwst128_no_tchk(),
        // HeapSafe's heap tag check is a cached fast path: full hardware
        // with the keybuffer armed (fewer binds reach it anyway).
        Scheme::HeapSafe => SafetyConfig::default(),
        // L4 Pointer and CryptSan are software-only: baseline core.
        Scheme::L4Pointer | Scheme::CryptSan => SafetyConfig::baseline(),
    }
}

/// Shadow offset baked into *software* shadow-address computation (the
/// hardware reads it from the CSR; software SBCETS must embed it).
/// Matches `hwst_mem::MemoryLayout::default().shadow_offset`.
const SHADOW_OFFSET: i64 = 0x1_0000_0000;

/// Name of the metadata argument-transfer area (the software shadow
/// stack for call metadata).
pub const META_ARGS_GLOBAL: &str = "__meta_args";
/// Name of the 8-byte scratch container used by hardware schemes to
/// extract key/lock from the SRF through shadow memory.
pub const SCRATCH_GLOBAL: &str = "__hwst_scratch";
/// SBCETS runtime spatial-check helper (a real function call at `-O0`).
pub const SPATIAL_CHECK_FN: &str = "__sbcets_spatial_check";
/// SBCETS runtime temporal-check helper.
pub const TEMPORAL_CHECK_FN: &str = "__sbcets_temporal_check";
/// SBCETS runtime metadata-load helper (shadow-map lookup: a function
/// call at `-O0`, writing the four fields into `__meta_tmp`).
pub const META_LOAD_FN: &str = "__sbcets_metadata_load";
/// SBCETS runtime metadata-store helper.
pub const META_STORE_FN: &str = "__sbcets_metadata_store";
/// Scratch record the metadata-load helper fills (base/bound/key/lock).
pub const META_TMP_GLOBAL: &str = "__meta_tmp";

/// Software companion metadata variables for one pointer variable.
#[derive(Debug, Clone, Copy)]
struct Companions {
    base: VarId,
    bound: VarId,
    key: VarId,
    lock: VarId,
}

/// One dereference check the instrumenter skipped on the strength of a
/// bounds-proof witness ([`crate::bounds::Witness`]). The site is named
/// by its block in the *instrumented* function plus the dereference's
/// ordinal among that block's dereference instructions — NOT a raw
/// instruction index, because redundant-check elimination later deletes
/// check instructions (shifting indices) but never deletes a
/// dereference, so the ordinal stays valid all the way down to the
/// lowering plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkippedCheck {
    /// Function name.
    pub func: String,
    /// Block index of the dereference in the instrumented function.
    pub block: usize,
    /// Ordinal of the dereference among the block's `Load` / `Store` /
    /// `LoadPtr` / `StorePtr` instructions (0-based).
    pub deref: usize,
    /// Index into the witness list that justified the skip.
    pub witness: usize,
}

/// Is `inst` one of the four dereference forms a [`SkippedCheck`]
/// ordinal counts over?
pub fn is_deref(inst: &Inst) -> bool {
    matches!(
        inst,
        Inst::Load { .. } | Inst::Store { .. } | Inst::LoadPtr { .. } | Inst::StorePtr { .. }
    )
}

/// Instruments `module` for `scheme`.
pub fn instrument(module: &Module, info: &PointerInfo, scheme: Scheme) -> Module {
    instrument_with_bounds(module, info, scheme, None).0
}

/// [`instrument`], additionally skipping the per-dereference checks the
/// bounds pass proved unnecessary. Every skip is recorded with the
/// witness index that justified it; callers enabling this MUST forward
/// the skips and witnesses to [`crate::verify::verify_with`] (and, for
/// binary validation, to the `binval` elimination plan) — a skip
/// without a valid witness is a lost detection.
///
/// Per-scheme elimination policy (see DESIGN.md §4h): the hardware
/// schemes keep spatial safety on the bounded machine accesses
/// regardless, so a witness skips only the temporal check (`tchk` /
/// the inline software key compare). Under SBCETS both software checks
/// are skipped, but only for non-heap provenance — a heap pointer may
/// be NULL (failed allocation), and the spatial check is what catches
/// that dereference.
pub fn instrument_with_bounds(
    module: &Module,
    info: &PointerInfo,
    scheme: Scheme,
    bounds: Option<&crate::bounds::BoundsOutcome>,
) -> (Module, Vec<SkippedCheck>) {
    if scheme == Scheme::None {
        return (module.clone(), Vec::new());
    }
    let mut out = Module {
        funcs: Vec::new(),
        globals: module.globals.clone(),
    };
    // Reserve the transfer area and scratch container.
    out.globals.push(Global {
        name: META_ARGS_GLOBAL.into(),
        size: 8 * 40, // 8 slots x (ptr copy + base/bound/key/lock)
        init: vec![],
    });
    out.globals.push(Global {
        name: SCRATCH_GLOBAL.into(),
        size: 8,
        init: vec![],
    });
    out.globals.push(Global {
        name: META_TMP_GLOBAL.into(),
        size: 32,
        init: vec![],
    });
    let meta_args_id = crate::ir::GlobalId((out.globals.len() - 3) as u32);
    let scratch_id = crate::ir::GlobalId((out.globals.len() - 2) as u32);
    let meta_tmp_id = crate::ir::GlobalId((out.globals.len() - 1) as u32);

    let mut skips = Vec::new();
    for f in &module.funcs {
        // Per-scheme witness filter: SBCETS must keep the software
        // spatial check on heap pointers (NULL-malloc detection rides
        // on it); the hardware schemes keep spatial safety in the
        // bounded accesses and can drop the temporal check everywhere
        // a witness proves liveness.
        let proven: std::collections::BTreeMap<(usize, usize), usize> =
            match bounds.and_then(|b| b.proven_for(&f.name).map(|m| (b, m))) {
                Some((b, m)) => m
                    .iter()
                    .filter(|&(_, &wi)| scheme.uses_hardware() || !b.witnesses[wi].heap())
                    .map(|(&site, &wi)| (site, wi))
                    .collect(),
                None => Default::default(),
            };
        let mut rw = Rewriter::new(
            f,
            module,
            info,
            scheme,
            meta_args_id,
            scratch_id,
            meta_tmp_id,
        );
        rw.proven = proven;
        out.funcs.push(rw.run());
        skips.append(&mut rw.skips);
    }
    if scheme == Scheme::Sbcets {
        out.funcs.push(spatial_check_fn());
        out.funcs.push(temporal_check_fn());
        out.funcs.push(meta_load_fn(meta_tmp_id));
        out.funcs.push(meta_store_fn());
    }
    (out, skips)
}

/// `__sbcets_metadata_load(container)` — shadow-map lookup; leaves the
/// four uncompressed fields in `__meta_tmp`.
fn meta_load_fn(tmp: crate::ir::GlobalId) -> Function {
    use crate::ir::{Block, Terminator, Width};
    let container = VarId(0);
    let shifted = VarId(1);
    let offc = VarId(2);
    let saddr = VarId(3);
    let (b, bd, k, l) = (VarId(4), VarId(5), VarId(6), VarId(7));
    let tp = VarId(8);
    let mut insts = vec![
        Inst::BinImm {
            op: BinOp::Sll,
            dst: shifted,
            lhs: container,
            imm: 2,
        },
        Inst::Const {
            dst: offc,
            value: SHADOW_OFFSET,
        },
        Inst::Bin {
            op: BinOp::Add,
            dst: saddr,
            lhs: shifted,
            rhs: offc,
        },
    ];
    for (dst, off) in [(b, 0i64), (bd, 8), (k, 16), (l, 24)] {
        insts.push(Inst::Load {
            dst,
            addr: saddr,
            offset: off,
            width: Width::U64,
        });
    }
    insts.push(Inst::AddrOfGlobal {
        dst: tp,
        global: tmp,
    });
    for (src, off) in [(b, 0i64), (bd, 8), (k, 16), (l, 24)] {
        insts.push(Inst::Store {
            src,
            addr: tp,
            offset: off,
            width: Width::U64,
        });
    }
    Function {
        name: META_LOAD_FN.into(),
        params: vec![container],
        param_is_ptr: vec![false],
        num_vars: 9,
        num_locals: 0,
        blocks: vec![Block {
            insts,
            term: Terminator::Ret { value: None },
        }],
    }
}

/// `__sbcets_metadata_store(container, base, bound, key, lock)`.
fn meta_store_fn() -> Function {
    use crate::ir::{Block, Terminator, Width};
    let container = VarId(0);
    let (b, bd, k, l) = (VarId(1), VarId(2), VarId(3), VarId(4));
    let shifted = VarId(5);
    let offc = VarId(6);
    let saddr = VarId(7);
    let mut insts = vec![
        Inst::BinImm {
            op: BinOp::Sll,
            dst: shifted,
            lhs: container,
            imm: 2,
        },
        Inst::Const {
            dst: offc,
            value: SHADOW_OFFSET,
        },
        Inst::Bin {
            op: BinOp::Add,
            dst: saddr,
            lhs: shifted,
            rhs: offc,
        },
    ];
    for (src, off) in [(b, 0i64), (bd, 8), (k, 16), (l, 24)] {
        insts.push(Inst::Store {
            src,
            addr: saddr,
            offset: off,
            width: Width::U64,
        });
    }
    Function {
        name: META_STORE_FN.into(),
        params: vec![container, b, bd, k, l],
        param_is_ptr: vec![false; 5],
        num_vars: 8,
        num_locals: 0,
        blocks: vec![Block {
            insts,
            term: Terminator::Ret { value: None },
        }],
    }
}

/// `__sbcets_spatial_check(addr, base, bound, size)` — traps on
/// out-of-bounds. Runtime-library code: never itself instrumented.
fn spatial_check_fn() -> Function {
    use crate::ir::{Block, Terminator, Width};
    let (addr, base, bound, size) = (VarId(0), VarId(1), VarId(2), VarId(3));
    let below = VarId(4);
    let end = VarId(5);
    let above = VarId(6);
    let both = VarId(7);
    let unbound = VarId(8);
    let _ = Width::U64;
    Function {
        name: SPATIAL_CHECK_FN.into(),
        params: vec![addr, base, bound, size],
        param_is_ptr: vec![false; 4],
        num_vars: 9,
        num_locals: 0,
        blocks: vec![
            // Zero metadata means "unbound container" (SoftBound's
            // binary-compatibility rule): skip the check entirely.
            Block {
                insts: vec![
                    Inst::Bin {
                        op: BinOp::Or,
                        dst: both,
                        lhs: base,
                        rhs: bound,
                    },
                    Inst::BinImm {
                        op: BinOp::Eq,
                        dst: unbound,
                        lhs: both,
                        imm: 0,
                    },
                ],
                term: Terminator::Br {
                    cond: unbound,
                    then_: BlockId(4),
                    else_: BlockId(5),
                },
            },
            Block {
                insts: vec![Inst::AbortSpatial { addr, base, bound }],
                term: Terminator::Ret { value: None },
            },
            Block {
                insts: vec![
                    Inst::Bin {
                        op: BinOp::Add,
                        dst: end,
                        lhs: addr,
                        rhs: size,
                    },
                    Inst::Bin {
                        op: BinOp::Sltu,
                        dst: above,
                        lhs: bound,
                        rhs: end,
                    },
                ],
                term: Terminator::Br {
                    cond: above,
                    then_: BlockId(3),
                    else_: BlockId(4),
                },
            },
            Block {
                insts: vec![Inst::AbortSpatial { addr, base, bound }],
                term: Terminator::Ret { value: None },
            },
            Block {
                insts: vec![],
                term: Terminator::Ret { value: None },
            },
            Block {
                insts: vec![Inst::Bin {
                    op: BinOp::Sltu,
                    dst: below,
                    lhs: addr,
                    rhs: base,
                }],
                term: Terminator::Br {
                    cond: below,
                    then_: BlockId(1),
                    else_: BlockId(2),
                },
            },
        ],
    }
}

/// `__sbcets_temporal_check(key, lock)` — traps on a stale key; a zero
/// lock means "no temporal identity" and passes.
fn temporal_check_fn() -> Function {
    use crate::ir::{Block, Terminator, Width};
    let (key, lock) = (VarId(0), VarId(1));
    let zero = VarId(2);
    let has = VarId(3);
    let stored = VarId(4);
    let bad = VarId(5);
    Function {
        name: TEMPORAL_CHECK_FN.into(),
        params: vec![key, lock],
        param_is_ptr: vec![false; 2],
        num_vars: 6,
        num_locals: 0,
        blocks: vec![
            Block {
                insts: vec![
                    Inst::Const {
                        dst: zero,
                        value: 0,
                    },
                    Inst::Bin {
                        op: BinOp::Ne,
                        dst: has,
                        lhs: lock,
                        rhs: zero,
                    },
                ],
                term: Terminator::Br {
                    cond: has,
                    then_: BlockId(1),
                    else_: BlockId(3),
                },
            },
            Block {
                insts: vec![
                    Inst::Load {
                        dst: stored,
                        addr: lock,
                        offset: 0,
                        width: Width::U64,
                    },
                    Inst::Bin {
                        op: BinOp::Ne,
                        dst: bad,
                        lhs: stored,
                        rhs: key,
                    },
                ],
                term: Terminator::Br {
                    cond: bad,
                    then_: BlockId(2),
                    else_: BlockId(3),
                },
            },
            Block {
                insts: vec![Inst::AbortTemporal { key, lock, stored }],
                term: Terminator::Ret { value: None },
            },
            Block {
                insts: vec![],
                term: Terminator::Ret { value: None },
            },
        ],
    }
}

/// Per-function rewriter. Original block ids are preserved (indices
/// `0..N`); split-continuation and abort blocks are appended after them.
struct Rewriter<'a> {
    src: &'a Function,
    module: &'a Module,
    info: &'a PointerInfo,
    scheme: Scheme,
    meta_args: crate::ir::GlobalId,
    scratch: crate::ir::GlobalId,
    meta_tmp: crate::ir::GlobalId,
    next_var: u32,
    /// Output blocks; `0..src.blocks.len()` map 1:1 to source blocks.
    blocks: Vec<Option<Block>>,
    cur: usize,
    cur_insts: Vec<Inst>,
    companions: HashMap<VarId, Companions>,
    frame_grant: Option<(VarId, VarId)>,
    /// Source sites `(block, inst)` whose dereference check the bounds
    /// pass proved away (already filtered for this scheme), mapping to
    /// the justifying witness index.
    proven: std::collections::BTreeMap<(usize, usize), usize>,
    /// The source site currently being rewritten.
    cur_site: Option<(usize, usize)>,
    /// Checks actually skipped, in instrumented coordinates.
    skips: Vec<SkippedCheck>,
}

impl<'a> Rewriter<'a> {
    fn new(
        src: &'a Function,
        module: &'a Module,
        info: &'a PointerInfo,
        scheme: Scheme,
        meta_args: crate::ir::GlobalId,
        scratch: crate::ir::GlobalId,
        meta_tmp: crate::ir::GlobalId,
    ) -> Self {
        Rewriter {
            src,
            module,
            info,
            scheme,
            meta_args,
            scratch,
            meta_tmp,
            next_var: src.num_vars,
            blocks: vec![None; src.blocks.len()],
            cur: 0,
            cur_insts: Vec::new(),
            companions: HashMap::new(),
            frame_grant: None,
            proven: Default::default(),
            cur_site: None,
            skips: Vec::new(),
        }
    }

    fn fresh(&mut self) -> VarId {
        let v = VarId(self.next_var);
        self.next_var += 1;
        v
    }

    fn emit(&mut self, i: Inst) {
        self.cur_insts.push(i);
    }

    fn konst(&mut self, v: i64) -> VarId {
        let dst = self.fresh();
        self.emit(Inst::Const { dst, value: v });
        dst
    }

    fn copy(&mut self, src: VarId) -> VarId {
        let dst = self.fresh();
        self.emit(Inst::BinImm {
            op: BinOp::Add,
            dst,
            lhs: src,
            imm: 0,
        });
        dst
    }

    /// Finishes the current output block with `term`.
    fn seal(&mut self, term: Terminator) {
        let insts = std::mem::take(&mut self.cur_insts);
        let b = Block { insts, term };
        if self.cur < self.blocks.len() {
            self.blocks[self.cur] = Some(b);
        } else {
            // Continuation/abort blocks were pre-pushed as None.
            self.blocks[self.cur] = Some(b);
        }
    }

    /// Creates a pending block id (filled later or by `seal`).
    fn reserve_block(&mut self) -> usize {
        self.blocks.push(None);
        self.blocks.len() - 1
    }

    /// Emits `violation_cond != 0 → abort`, continuing in a fresh block.
    fn guard(&mut self, violation_cond: VarId, abort: Vec<Inst>) {
        let abort_id = self.reserve_block();
        let cont_id = self.reserve_block();
        self.seal(Terminator::Br {
            cond: violation_cond,
            then_: BlockId(abort_id as u32),
            else_: BlockId(cont_id as u32),
        });
        self.blocks[abort_id] = Some(Block {
            insts: abort,
            // Unreachable: the abort op traps. Keep a trivial terminator.
            term: Terminator::Ret { value: None },
        });
        self.cur = cont_id;
    }

    fn is_ptr(&self, v: VarId) -> bool {
        self.info.is_pointer(&self.src.name, v)
    }

    fn comps(&mut self, p: VarId) -> Companions {
        if let Some(c) = self.companions.get(&p) {
            return *c;
        }
        // Unknown provenance (e.g. pointer never initialised on this
        // path): universal metadata so it never faults — the SBCETS
        // compatibility rule.
        let base = self.konst(0);
        let bound = self.konst(-1); // u64::MAX
        let key = self.konst(0);
        let lock = self.konst(0);
        let c = Companions {
            base,
            bound,
            key,
            lock,
        };
        self.companions.insert(p, c);
        c
    }

    fn set_comps(&mut self, p: VarId, c: Companions) {
        self.companions.insert(p, c);
    }

    /// `container + off` as a plain value.
    fn container_addr(&mut self, container: VarId, off: i64) -> VarId {
        if off != 0 {
            let d = self.fresh();
            self.emit(Inst::BinImm {
                op: BinOp::Add,
                dst: d,
                lhs: container,
                imm: off,
            });
            d
        } else {
            self.copy(container)
        }
    }

    /// Software shadow address of `container + off` — the same Eq. 1
    /// arithmetic [`meta_load_fn`] performs, but emitted *inline* for
    /// the zoo schemes whose metadata moves without a runtime call
    /// (L4 Pointer's wide-pointer words, CryptSan's signature lookup).
    fn inline_shadow_addr(&mut self, container: VarId, off: i64) -> VarId {
        let c = self.container_addr(container, off);
        let shifted = self.fresh();
        self.emit(Inst::BinImm {
            op: BinOp::Sll,
            dst: shifted,
            lhs: c,
            imm: 2,
        });
        let offc = self.konst(SHADOW_OFFSET);
        let saddr = self.fresh();
        self.emit(Inst::Bin {
            op: BinOp::Add,
            dst: saddr,
            lhs: shifted,
            rhs: offc,
        });
        saddr
    }

    /// SBCETS spatial check: a call to the runtime helper, exactly as the
    /// unmodified SoftBoundCETS pass emits at `-O0` (the checks are
    /// library functions; only optimised builds inline them).
    fn sbcets_spatial_check(&mut self, p: VarId, off: i64, n: u64) {
        let c = self.comps(p);
        let addr = self.container_addr(p, off);
        let size = self.konst(n as i64);
        self.emit(Inst::Call {
            dst: None,
            func: SPATIAL_CHECK_FN.into(),
            args: vec![addr, c.base, c.bound, size],
        });
    }

    /// SBCETS temporal check: runtime helper call.
    fn sbcets_temporal_check(&mut self, p: VarId) {
        let c = self.comps(p);
        self.emit(Inst::Call {
            dst: None,
            func: TEMPORAL_CHECK_FN.into(),
            args: vec![c.key, c.lock],
        });
    }

    /// Software spatial check of an `n`-byte access at `p + off`.
    fn sw_spatial_check(&mut self, p: VarId, off: i64, n: u64) {
        let c = self.comps(p);
        let addr = if off != 0 {
            let d = self.fresh();
            self.emit(Inst::BinImm {
                op: BinOp::Add,
                dst: d,
                lhs: p,
                imm: off,
            });
            d
        } else {
            // Pointers are plain u64 values in check arithmetic.
            self.copy(p)
        };
        // below = addr < base
        let below = self.fresh();
        self.emit(Inst::Bin {
            op: BinOp::Sltu,
            dst: below,
            lhs: addr,
            rhs: c.base,
        });
        self.guard(
            below,
            vec![Inst::AbortSpatial {
                addr,
                base: c.base,
                bound: c.bound,
            }],
        );
        // above = bound < addr + n
        let end = self.fresh();
        self.emit(Inst::BinImm {
            op: BinOp::Add,
            dst: end,
            lhs: addr,
            imm: n as i64,
        });
        let above = self.fresh();
        self.emit(Inst::Bin {
            op: BinOp::Sltu,
            dst: above,
            lhs: c.bound,
            rhs: end,
        });
        let c2 = self.comps(p);
        self.guard(
            above,
            vec![Inst::AbortSpatial {
                addr,
                base: c2.base,
                bound: c2.bound,
            }],
        );
    }

    /// Software temporal check of `p` (skipped dynamically when lock==0).
    fn sw_temporal_check(&mut self, p: VarId) {
        let c = self.comps(p);
        // has_lock = lock != 0
        let zero = self.konst(0);
        let has_lock = self.fresh();
        self.emit(Inst::Bin {
            op: BinOp::Ne,
            dst: has_lock,
            lhs: c.lock,
            rhs: zero,
        });
        // Split: if has_lock, load stored key and compare.
        let check_id = self.reserve_block();
        let cont_id = self.reserve_block();
        self.seal(Terminator::Br {
            cond: has_lock,
            then_: BlockId(check_id as u32),
            else_: BlockId(cont_id as u32),
        });
        self.cur = check_id;
        let stored = self.fresh();
        // The lock is a raw address; software loads through it directly.
        self.emit(Inst::Load {
            dst: stored,
            addr: c.lock,
            offset: 0,
            width: Width::U64,
        });
        let bad = self.fresh();
        self.emit(Inst::Bin {
            op: BinOp::Ne,
            dst: bad,
            lhs: stored,
            rhs: c.key,
        });
        let abort_id = self.reserve_block();
        self.seal(Terminator::Br {
            cond: bad,
            then_: BlockId(abort_id as u32),
            else_: BlockId(cont_id as u32),
        });
        self.blocks[abort_id] = Some(Block {
            insts: vec![Inst::AbortTemporal {
                key: c.key,
                lock: c.lock,
                stored,
            }],
            term: Terminator::Ret { value: None },
        });
        self.cur = cont_id;
    }

    /// Hardware temporal check: `tchk` (Hwst128Tchk) or software key
    /// compare (Hwst128).
    fn temporal_check(&mut self, p: VarId) {
        match self.scheme {
            Scheme::Hwst128Tchk | Scheme::RvCure | Scheme::HeapSafe => {
                self.emit(Inst::Tchk { ptr: p });
            }
            Scheme::Hwst128 | Scheme::L4Pointer | Scheme::CryptSan => self.sw_temporal_check(p),
            Scheme::Sbcets => self.sbcets_temporal_check(p),
            Scheme::None | Scheme::Shore => {}
        }
    }

    /// The metadata transfer slot address for argument `i`.
    fn arg_slot(&mut self, i: usize) -> VarId {
        let g = self.fresh();
        self.emit(Inst::AddrOfGlobal {
            dst: g,
            global: self.meta_args,
        });
        if i == 0 {
            g
        } else {
            let d = self.fresh();
            self.emit(Inst::GepImm {
                dst: d,
                base: g,
                imm: (i * 40) as i64,
            });
            d
        }
    }

    fn run(&mut self) -> Function {
        let needs_frame_lock = self
            .info
            .func(&self.src.name)
            .is_some_and(|fi| fi.has_stack_alloc)
            && self.scheme.temporal_safety()
            && !self.scheme.heap_only();

        // ---- entry prologue (block 0) ----
        self.cur = 0;
        if needs_frame_lock {
            let key = self.fresh();
            let lock = self.fresh();
            self.emit(Inst::FrameLock { key, lock });
            self.frame_grant = Some((key, lock));
        }
        // Receive pointer-parameter metadata from the transfer area.
        let params: Vec<(usize, VarId)> = self
            .src
            .params
            .iter()
            .enumerate()
            .filter(|(i, _)| self.src.param_is_ptr[*i])
            .map(|(i, &v)| (i, v))
            .collect();
        for (i, p) in params {
            self.receive_meta(i, p);
        }

        // ---- rewrite every source block ----
        for bi in 0..self.src.blocks.len() {
            if bi != 0 {
                self.cur = bi;
                debug_assert!(self.cur_insts.is_empty());
            }
            let block = &self.src.blocks[bi];
            for (ii, inst) in block.insts.clone().into_iter().enumerate() {
                self.cur_site = Some((bi, ii));
                self.rewrite(inst);
            }
            self.cur_site = None;
            let term = block.term.clone();
            // Epilogue work before returns.
            if let Terminator::Ret { value } = &term {
                if let Some(v) = value {
                    if self.is_ptr(*v) {
                        self.send_meta(0, *v);
                    }
                }
                if let Some((_, lock)) = self.frame_grant {
                    self.emit(Inst::FrameUnlock { lock });
                }
            }
            self.seal(term);
        }

        Function {
            name: self.src.name.clone(),
            params: self.src.params.clone(),
            param_is_ptr: self.src.param_is_ptr.clone(),
            num_vars: self.next_var,
            num_locals: self.src.num_locals,
            blocks: self
                .blocks
                .drain(..)
                .enumerate()
                .map(|(i, b)| {
                    let Some(b) = b else {
                        panic!("block b{i} not sealed");
                    };
                    b
                })
                .collect(),
        }
    }

    /// Sends metadata of pointer `p` through transfer slot `i`
    /// (caller side / returning a pointer).
    fn send_meta(&mut self, i: usize, p: VarId) {
        let slot = self.arg_slot(i);
        if self.scheme.uses_hardware() {
            // Hardware: one shadow store pair keyed on the slot container.
            self.emit(Inst::MetaStore {
                ptr: p,
                container: slot,
                offset: 0,
            });
            if self.scheme.sw_temporal() {
                let c = self.comps(p);
                self.emit(Inst::Store {
                    src: c.key,
                    addr: slot,
                    offset: 8,
                    width: Width::U64,
                });
                self.emit(Inst::Store {
                    src: c.lock,
                    addr: slot,
                    offset: 16,
                    width: Width::U64,
                });
            }
        } else {
            // Software: four uncompressed stores into the slot itself.
            let c = self.comps(p);
            self.emit(Inst::Store {
                src: c.base,
                addr: slot,
                offset: 0,
                width: Width::U64,
            });
            self.emit(Inst::Store {
                src: c.bound,
                addr: slot,
                offset: 8,
                width: Width::U64,
            });
            self.emit(Inst::Store {
                src: c.key,
                addr: slot,
                offset: 16,
                width: Width::U64,
            });
            self.emit(Inst::Store {
                src: c.lock,
                addr: slot,
                offset: 24,
                width: Width::U64,
            });
        }
    }

    /// Receives metadata for pointer `p` from transfer slot `i`
    /// (callee prologue / call-result reload).
    fn receive_meta(&mut self, i: usize, p: VarId) {
        let slot = self.arg_slot(i);
        if self.scheme.uses_hardware() {
            self.emit(Inst::MetaLoad {
                ptr: p,
                container: slot,
                offset: 0,
            });
            if self.scheme.sw_temporal() {
                let key = self.fresh();
                let lock = self.fresh();
                self.emit(Inst::Load {
                    dst: key,
                    addr: slot,
                    offset: 8,
                    width: Width::U64,
                });
                self.emit(Inst::Load {
                    dst: lock,
                    addr: slot,
                    offset: 16,
                    width: Width::U64,
                });
                let base = self.konst(0);
                let bound = self.konst(-1);
                self.set_comps(
                    p,
                    Companions {
                        base,
                        bound,
                        key,
                        lock,
                    },
                );
            }
        } else {
            let base = self.fresh();
            let bound = self.fresh();
            let key = self.fresh();
            let lock = self.fresh();
            self.emit(Inst::Load {
                dst: base,
                addr: slot,
                offset: 0,
                width: Width::U64,
            });
            self.emit(Inst::Load {
                dst: bound,
                addr: slot,
                offset: 8,
                width: Width::U64,
            });
            self.emit(Inst::Load {
                dst: key,
                addr: slot,
                offset: 16,
                width: Width::U64,
            });
            self.emit(Inst::Load {
                dst: lock,
                addr: slot,
                offset: 24,
                width: Width::U64,
            });
            self.set_comps(
                p,
                Companions {
                    base,
                    bound,
                    key,
                    lock,
                },
            );
        }
    }

    fn rewrite(&mut self, inst: Inst) {
        let hw = self.scheme.uses_hardware();
        match inst {
            // ---- pointer creation ----
            Inst::Malloc { dst, size } => {
                let (key, lock) = if self.scheme.temporal_safety() {
                    let key = self.fresh();
                    let lock = self.fresh();
                    self.emit(Inst::MallocMeta {
                        dst,
                        size,
                        key,
                        lock,
                    });
                    (key, lock)
                } else {
                    // SHORE: the plain allocation, no temporal grant used.
                    self.emit(Inst::Malloc { dst, size });
                    let zero = self.konst(0);
                    (zero, zero)
                };
                // A failed malloc returns NULL; the wrapper binds the
                // empty region [8, 8) — distinguishable from the all-zero
                // "unbound" encoding — so any dereference of the null
                // pointer traps spatially (CWE476/CWE690 detection path).
                let zero = self.konst(0);
                let is_null = self.fresh();
                self.emit(Inst::Bin {
                    op: BinOp::Eq,
                    dst: is_null,
                    lhs: dst,
                    rhs: zero,
                });
                let nonnull = self.fresh();
                self.emit(Inst::Bin {
                    op: BinOp::Ne,
                    dst: nonnull,
                    lhs: dst,
                    rhs: zero,
                });
                let null_base = self.fresh();
                self.emit(Inst::BinImm {
                    op: BinOp::Sll,
                    dst: null_base,
                    lhs: is_null,
                    imm: 3,
                });
                let base = self.fresh();
                self.emit(Inst::Bin {
                    op: BinOp::Add,
                    dst: base,
                    lhs: dst,
                    rhs: null_base,
                });
                let eff = self.fresh();
                self.emit(Inst::Bin {
                    op: BinOp::Mul,
                    dst: eff,
                    lhs: size,
                    rhs: nonnull,
                });
                let bound = self.fresh();
                self.emit(Inst::Bin {
                    op: BinOp::Add,
                    dst: bound,
                    lhs: base,
                    rhs: eff,
                });
                if hw {
                    self.emit(Inst::BindSpatial {
                        ptr: dst,
                        base,
                        bound,
                    });
                    if self.scheme.temporal_safety() {
                        self.emit(Inst::BindTemporal {
                            ptr: dst,
                            key,
                            lock,
                        });
                    }
                }
                if self.scheme.sw_temporal() || self.scheme == Scheme::Sbcets {
                    self.set_comps(
                        dst,
                        Companions {
                            base,
                            bound,
                            key,
                            lock,
                        },
                    );
                }
            }
            Inst::StackAlloc { dst, size } => {
                self.emit(Inst::StackAlloc { dst, size });
                let bound = self.fresh();
                self.emit(Inst::BinImm {
                    op: BinOp::Add,
                    dst: bound,
                    lhs: dst,
                    imm: size as i64,
                });
                let (key, lock) = match self.frame_grant {
                    Some(g) => g,
                    None => {
                        // SHORE carries no temporal metadata; HeapSafe
                        // deliberately leaves stack pointers unbound.
                        debug_assert!(!self.scheme.temporal_safety() || self.scheme.heap_only());
                        let z = self.konst(0);
                        (z, z)
                    }
                };
                if hw {
                    // HeapSafe binds its unbound stack pointers to the
                    // all-zero word (`key` and `lock` are zero here),
                    // which the hardware reads as "no metadata"; an
                    // unwritten home-slot shadow would instead hold
                    // whatever an earlier frame left there (DESIGN.md
                    // §4l).
                    let (base, bound) = if self.scheme.heap_only() {
                        (key, lock)
                    } else {
                        (self.copy(dst), bound)
                    };
                    self.emit(Inst::BindSpatial {
                        ptr: dst,
                        base,
                        bound,
                    });
                    if self.scheme.temporal_safety() {
                        self.emit(Inst::BindTemporal {
                            ptr: dst,
                            key,
                            lock,
                        });
                    }
                }
                if self.scheme.sw_temporal() || self.scheme == Scheme::Sbcets {
                    let base = self.copy(dst);
                    self.set_comps(
                        dst,
                        Companions {
                            base,
                            bound,
                            key,
                            lock,
                        },
                    );
                }
            }
            Inst::AddrOfGlobal { dst, global } => {
                // Hardware schemes bind global bounds during lowering
                // (the bounds are static); only the software companions
                // are materialised here.
                self.emit(Inst::AddrOfGlobal { dst, global });
                if self.scheme.sw_companions() || self.scheme == Scheme::Hwst128 {
                    let size = self.module.globals[global.0 as usize].size.div_ceil(8) * 8;
                    let bound = self.fresh();
                    self.emit(Inst::BinImm {
                        op: BinOp::Add,
                        dst: bound,
                        lhs: dst,
                        imm: size as i64,
                    });
                    let base = self.copy(dst);
                    let key = self.konst(0);
                    let lock = self.konst(0);
                    self.set_comps(
                        dst,
                        Companions {
                            base,
                            bound,
                            key,
                            lock,
                        },
                    );
                }
            }

            // ---- pointer propagation ----
            Inst::Gep { dst, base, offset } => {
                self.emit(Inst::Gep { dst, base, offset });
                // Hardware: SRF propagates through the ALU bypass for free.
                if self.scheme.sw_temporal() || self.scheme == Scheme::Sbcets {
                    let c = self.comps(base);
                    self.set_comps(dst, c);
                }
            }
            Inst::GepImm { dst, base, imm } => {
                self.emit(Inst::GepImm { dst, base, imm });
                if self.scheme.sw_temporal() || self.scheme == Scheme::Sbcets {
                    let c = self.comps(base);
                    self.set_comps(dst, c);
                }
            }
            Inst::LoadPtr { dst, addr, offset } => {
                // Spatial+temporal check of the *container* access first.
                self.check_deref(addr, offset, 8);
                self.emit(Inst::LoadPtr { dst, addr, offset });
                if hw {
                    self.emit(Inst::MetaLoad {
                        ptr: dst,
                        container: addr,
                        offset,
                    });
                    if self.scheme.sw_temporal() {
                        let key = self.fresh();
                        self.emit(Inst::MetaLoadField {
                            dst: key,
                            container: addr,
                            offset,
                            field: MetaField::Key,
                        });
                        let lock = self.fresh();
                        self.emit(Inst::MetaLoadField {
                            dst: lock,
                            container: addr,
                            offset,
                            field: MetaField::Lock,
                        });
                        let base = self.konst(0);
                        let bound = self.konst(-1);
                        self.set_comps(
                            dst,
                            Companions {
                                base,
                                bound,
                                key,
                                lock,
                            },
                        );
                    }
                } else if self.scheme.inline_sw_checks() {
                    // Zoo software schemes: the metadata words reload
                    // inline (no helper call). L4 Pointer carries all
                    // four words in the wide pointer; CryptSan only
                    // recovers key/lock (the signature's liveness
                    // witness) — its pointers carry no bounds.
                    let saddr = self.inline_shadow_addr(addr, offset);
                    let (base, bound) = if self.scheme == Scheme::L4Pointer {
                        let base = self.fresh();
                        let bound = self.fresh();
                        for (dstv, off) in [(base, 0i64), (bound, 8)] {
                            self.emit(Inst::Load {
                                dst: dstv,
                                addr: saddr,
                                offset: off,
                                width: Width::U64,
                            });
                        }
                        (base, bound)
                    } else {
                        (self.konst(0), self.konst(-1))
                    };
                    let key = self.fresh();
                    let lock = self.fresh();
                    for (dstv, off) in [(key, 16i64), (lock, 24)] {
                        self.emit(Inst::Load {
                            dst: dstv,
                            addr: saddr,
                            offset: off,
                            width: Width::U64,
                        });
                    }
                    self.set_comps(
                        dst,
                        Companions {
                            base,
                            bound,
                            key,
                            lock,
                        },
                    );
                } else {
                    // Runtime shadow-map lookup (a function call at -O0),
                    // then reload the fields from the scratch record.
                    let container = self.container_addr(addr, offset);
                    self.emit(Inst::Call {
                        dst: None,
                        func: META_LOAD_FN.into(),
                        args: vec![container],
                    });
                    let tp = self.fresh();
                    self.emit(Inst::AddrOfGlobal {
                        dst: tp,
                        global: self.meta_tmp,
                    });
                    let base = self.fresh();
                    let bound = self.fresh();
                    let key = self.fresh();
                    let lock = self.fresh();
                    for (dstv, off) in [(base, 0), (bound, 8), (key, 16), (lock, 24)] {
                        self.emit(Inst::Load {
                            dst: dstv,
                            addr: tp,
                            offset: off,
                            width: Width::U64,
                        });
                    }
                    self.set_comps(
                        dst,
                        Companions {
                            base,
                            bound,
                            key,
                            lock,
                        },
                    );
                }
            }
            Inst::StorePtr { src, addr, offset } => {
                self.check_deref(addr, offset, 8);
                self.emit(Inst::StorePtr { src, addr, offset });
                if hw {
                    self.emit(Inst::MetaStore {
                        ptr: src,
                        container: addr,
                        offset,
                    });
                } else if self.scheme.inline_sw_checks() {
                    // Inline shadow-word spill, mirroring the LoadPtr
                    // reload path: L4 Pointer writes all four words,
                    // CryptSan only the key/lock pair.
                    let c = self.comps(src);
                    let saddr = self.inline_shadow_addr(addr, offset);
                    let words: &[(VarId, i64)] = if self.scheme == Scheme::L4Pointer {
                        &[(c.base, 0), (c.bound, 8), (c.key, 16), (c.lock, 24)]
                    } else {
                        &[(c.key, 16), (c.lock, 24)]
                    };
                    for &(srcv, off) in words {
                        self.emit(Inst::Store {
                            src: srcv,
                            addr: saddr,
                            offset: off,
                            width: Width::U64,
                        });
                    }
                } else {
                    let c = self.comps(src);
                    let container = self.container_addr(addr, offset);
                    self.emit(Inst::Call {
                        dst: None,
                        func: META_STORE_FN.into(),
                        args: vec![container, c.base, c.bound, c.key, c.lock],
                    });
                }
            }

            // ---- dereference checks ----
            Inst::Load {
                dst,
                addr,
                offset,
                width,
            } => {
                self.check_deref(addr, offset, width.bytes());
                self.emit(Inst::Load {
                    dst,
                    addr,
                    offset,
                    width,
                });
            }
            Inst::Store {
                src,
                addr,
                offset,
                width,
            } => {
                self.check_deref(addr, offset, width.bytes());
                self.emit(Inst::Store {
                    src,
                    addr,
                    offset,
                    width,
                });
            }

            // ---- deallocation ----
            Inst::Free { ptr } => {
                // CETS free wrapper: (1) the pointer must be the start of
                // the allocation (catches CWE761 free-not-at-start),
                // (2) its key must still be live (catches CWE415 double
                // free), then the key is erased.
                if self.scheme.temporal_safety() {
                    self.free_base_check(ptr);
                }
                self.temporal_check(ptr);
                let lock = match self.scheme {
                    Scheme::Shore => self.konst(0),
                    Scheme::Sbcets | Scheme::Hwst128 | Scheme::L4Pointer | Scheme::CryptSan => {
                        self.comps(ptr).lock
                    }
                    Scheme::Hwst128Tchk | Scheme::RvCure | Scheme::HeapSafe => {
                        // Extract the lock from the SRF through the
                        // scratch shadow container (the wrapper path).
                        let g = self.fresh();
                        self.emit(Inst::AddrOfGlobal {
                            dst: g,
                            global: self.scratch,
                        });
                        self.emit(Inst::MetaStore {
                            ptr,
                            container: g,
                            offset: 0,
                        });
                        let lock = self.fresh();
                        self.emit(Inst::MetaLoadField {
                            dst: lock,
                            container: g,
                            offset: 0,
                            field: MetaField::Lock,
                        });
                        lock
                    }
                    Scheme::None => unreachable!("scheme None is not rewritten"),
                };
                self.emit(Inst::FreeMeta { ptr, lock });
            }

            // ---- calls: transfer pointer-argument metadata ----
            Inst::Call { dst, func, args } => {
                let Some(callee) = self.module.func(&func) else {
                    // Unknown callee: the analysis pass validates every
                    // call target, so this cannot happen on accepted
                    // modules — pass the call through without metadata
                    // transfer rather than panic.
                    self.emit(Inst::Call { dst, func, args });
                    return;
                };
                let callee_ret_ptr = self.info.func(&func).is_some_and(|fi| fi.returns_ptr);
                for (i, &a) in args.iter().enumerate() {
                    if *callee.param_is_ptr.get(i).unwrap_or(&false) && self.is_ptr(a) {
                        self.send_meta(i, a);
                    }
                }
                self.emit(Inst::Call { dst, func, args });
                if let (Some(d), true) = (dst, callee_ret_ptr) {
                    self.receive_meta(0, d);
                }
            }

            // Everything else passes through untouched.
            other => self.emit(other),
        }
    }

    /// CETS free-wrapper base check: `ptr` must equal its metadata base,
    /// otherwise the free is of an interior pointer (CWE761).
    fn free_base_check(&mut self, ptr: VarId) {
        let base = match self.scheme {
            Scheme::Sbcets | Scheme::Hwst128 | Scheme::L4Pointer | Scheme::CryptSan => {
                // In hardware mode the base companion is not tracked for
                // reloaded pointers; fetch it from the scratch shadow.
                if self.scheme == Scheme::Hwst128 {
                    let g = self.fresh();
                    self.emit(Inst::AddrOfGlobal {
                        dst: g,
                        global: self.scratch,
                    });
                    self.emit(Inst::MetaStore {
                        ptr,
                        container: g,
                        offset: 0,
                    });
                    let base = self.fresh();
                    self.emit(Inst::MetaLoadField {
                        dst: base,
                        container: g,
                        offset: 0,
                        field: MetaField::Base,
                    });
                    base
                } else {
                    self.comps(ptr).base
                }
            }
            Scheme::Hwst128Tchk | Scheme::RvCure | Scheme::HeapSafe => {
                let g = self.fresh();
                self.emit(Inst::AddrOfGlobal {
                    dst: g,
                    global: self.scratch,
                });
                self.emit(Inst::MetaStore {
                    ptr,
                    container: g,
                    offset: 0,
                });
                let base = self.fresh();
                self.emit(Inst::MetaLoadField {
                    dst: base,
                    container: g,
                    offset: 0,
                    field: MetaField::Base,
                });
                base
            }
            Scheme::None | Scheme::Shore => return,
        };
        // A zero base means "no metadata" (e.g. a pointer that was never
        // bound): skip the check rather than false-positive.
        let addr = self.copy(ptr);
        let mismatch = self.fresh();
        self.emit(Inst::Bin {
            op: BinOp::Ne,
            dst: mismatch,
            lhs: addr,
            rhs: base,
        });
        let zero = self.konst(0);
        let has_base = self.fresh();
        self.emit(Inst::Bin {
            op: BinOp::Ne,
            dst: has_base,
            lhs: base,
            rhs: zero,
        });
        let bad = self.fresh();
        self.emit(Inst::Bin {
            op: BinOp::And,
            dst: bad,
            lhs: mismatch,
            rhs: has_base,
        });
        let bound = self.copy(base);
        self.guard(bad, vec![Inst::AbortSpatial { addr, base, bound }]);
    }

    /// Emits the per-scheme spatial + temporal checks for an `n`-byte
    /// access at `p + off` and marks the following access as
    /// hardware-checked where applicable.
    fn check_deref(&mut self, p: VarId, off: i64, n: u64) {
        // A bounds-proof witness for this source site removes the whole
        // check. Every rewrite arm that calls `check_deref` emits the
        // dereference itself as its very next instruction, so the
        // skipped check's dereference becomes the (current block,
        // next-deref-ordinal) instruction of the instrumented function.
        if let Some(site) = self.cur_site {
            if let Some(&witness) = self.proven.get(&site) {
                let ordinal = self.cur_insts.iter().filter(|i| is_deref(i)).count();
                self.skips.push(SkippedCheck {
                    func: self.src.name.clone(),
                    block: self.cur,
                    deref: ordinal,
                    witness,
                });
                return;
            }
        }
        match self.scheme {
            Scheme::Sbcets => {
                self.sbcets_spatial_check(p, off, n);
                self.sbcets_temporal_check(p);
            }
            Scheme::Hwst128 => {
                // Spatial is free (bounded access); temporal in software.
                self.sw_temporal_check(p);
            }
            // RV-CURE validates its capability inline (no keybuffer —
            // the config pays the lock-word latency per check) and
            // HeapSafe tag-checks every access; both reuse `tchk`,
            // which passes vacuously on unbound (stack/global under
            // HeapSafe) pointers.
            Scheme::Hwst128Tchk | Scheme::RvCure | Scheme::HeapSafe => {
                self.emit(Inst::Tchk { ptr: p });
            }
            // L4 Pointer: both halves inline — the wide pointer already
            // holds bounds and tag, so checks are compare+branch with
            // no call overhead.
            Scheme::L4Pointer => {
                self.sw_spatial_check(p, off, n);
                self.sw_temporal_check(p);
            }
            // CryptSan: PAC authentication on dereference — a temporal
            // liveness check only. In-bounds-object overflows keep a
            // valid signature, so no spatial sequence exists to emit.
            Scheme::CryptSan => self.sw_temporal_check(p),
            // SHORE: spatial checks ride the bounded accesses; nothing
            // temporal exists to check.
            Scheme::None | Scheme::Shore => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use crate::ModuleBuilder;

    fn malloc_deref_module() -> Module {
        let mut mb = ModuleBuilder::new();
        let mut f = mb.func("main");
        let p = f.malloc_bytes(64);
        let v = f.konst(5);
        f.store(v, p, 0, Width::U64);
        let r = f.load(p, 0, Width::U64);
        f.free(p);
        f.ret(Some(r));
        f.finish();
        mb.finish()
    }

    fn count_insts(m: &Module, pred: impl Fn(&Inst) -> bool) -> usize {
        m.funcs
            .iter()
            .flat_map(|f| &f.blocks)
            .flat_map(|b| &b.insts)
            .filter(|i| pred(i))
            .count()
    }

    #[test]
    fn every_label_and_alias_parses() {
        for s in Scheme::EVERY {
            assert_eq!(Scheme::by_label(s.label()), Some(s));
            assert_eq!(Scheme::by_label(&s.label().to_lowercase()), Some(s));
        }
        assert_eq!(Scheme::by_label("none"), Some(Scheme::None));
        assert_eq!(Scheme::by_label("TCHK"), Some(Scheme::Hwst128Tchk));
        assert_eq!(Scheme::by_label("no-such"), None);
    }

    #[test]
    fn none_scheme_is_identity() {
        let m = malloc_deref_module();
        let info = analyze(&m).unwrap();
        let out = instrument(&m, &info, Scheme::None);
        assert_eq!(out, m);
    }

    #[test]
    fn hwst_tchk_uses_hardware_ops() {
        let m = malloc_deref_module();
        let info = analyze(&m).unwrap();
        let out = instrument(&m, &info, Scheme::Hwst128Tchk);
        assert!(count_insts(&out, |i| matches!(i, Inst::BindSpatial { .. })) >= 1);
        assert!(count_insts(&out, |i| matches!(i, Inst::BindTemporal { .. })) >= 1);
        assert!(
            count_insts(&out, |i| matches!(i, Inst::Tchk { .. })) >= 3,
            "store, load and free each need a temporal check"
        );
        assert_eq!(
            count_insts(&out, |i| matches!(i, Inst::AbortSpatial { .. })),
            1,
            "the only software abort path is the free-wrapper base check"
        );
    }

    #[test]
    fn sbcets_emits_software_checks_only() {
        let m = malloc_deref_module();
        let info = analyze(&m).unwrap();
        let out = instrument(&m, &info, Scheme::Sbcets);
        assert_eq!(count_insts(&out, |i| matches!(i, Inst::Tchk { .. })), 0);
        assert_eq!(
            count_insts(&out, |i| matches!(i, Inst::BindSpatial { .. })),
            0
        );
        assert!(count_insts(&out, |i| matches!(i, Inst::AbortSpatial { .. })) >= 2);
        assert!(count_insts(&out, |i| matches!(i, Inst::AbortTemporal { .. })) >= 1);
    }

    #[test]
    fn instrumented_code_is_larger_in_the_expected_order() {
        let m = malloc_deref_module();
        let info = analyze(&m).unwrap();
        let base = instrument(&m, &info, Scheme::None).inst_count();
        let tchk = instrument(&m, &info, Scheme::Hwst128Tchk).inst_count();
        let hwst = instrument(&m, &info, Scheme::Hwst128).inst_count();
        let sb = instrument(&m, &info, Scheme::Sbcets).inst_count();
        assert!(base < tchk, "tchk adds code");
        assert!(tchk < hwst, "software key check adds more");
        assert!(hwst < sb, "full software checks add the most");
    }

    #[test]
    fn stack_alloc_gets_frame_lock() {
        let mut mb = ModuleBuilder::new();
        let mut f = mb.func("main");
        let p = f.stack_alloc(32);
        let v = f.konst(1);
        f.store(v, p, 0, Width::U64);
        f.ret(None);
        f.finish();
        let m = mb.finish();
        let info = analyze(&m).unwrap();
        let out = instrument(&m, &info, Scheme::Hwst128Tchk);
        assert_eq!(
            count_insts(&out, |i| matches!(i, Inst::FrameLock { .. })),
            1
        );
        assert_eq!(
            count_insts(&out, |i| matches!(i, Inst::FrameUnlock { .. })),
            1
        );
    }

    #[test]
    fn pointer_args_transfer_metadata() {
        let mut mb = ModuleBuilder::new();
        let mut f = mb.func("use_ptr");
        let p = f.param(true);
        let r = f.load(p, 0, Width::U64);
        f.ret(Some(r));
        f.finish();
        let mut f = mb.func("main");
        let p = f.malloc_bytes(16);
        let r = f.call("use_ptr", &[p]);
        f.ret(Some(r));
        f.finish();
        let m = mb.finish();
        let info = analyze(&m).unwrap();
        let out = instrument(&m, &info, Scheme::Hwst128Tchk);
        // The caller must send (MetaStore into the transfer slot) and the
        // callee must receive (MetaLoad).
        assert!(count_insts(&out, |i| matches!(i, Inst::MetaStore { .. })) >= 1);
        assert!(count_insts(&out, |i| matches!(i, Inst::MetaLoad { .. })) >= 1);
    }
}
