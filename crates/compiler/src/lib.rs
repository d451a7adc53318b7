//! # hwst-compiler
//!
//! The compiler substrate of the HWST128 reproduction. The paper
//! instruments C programs with an LLVM 8 pass derived from SoftBoundCETS;
//! here the same role is played by a small pointer-aware IR plus three
//! instrumentation passes and a RISC-V back-end:
//!
//! * [`ir`] — functions, basic blocks, virtual registers, explicit
//!   pointer provenance (`Malloc`, `StackAlloc`, `AddrOfGlobal`, `Gep`,
//!   `LoadPtr`/`StorePtr`),
//! * [`FuncBuilder`] / [`ModuleBuilder`] — ergonomic IR construction
//!   (what the workload kernels use),
//! * [`analysis`] — the pointer analysis: provenance inference and
//!   validation, deref-site enumeration,
//! * [`instrument`] — the three schemes of the paper's Fig. 4:
//!   [`Scheme::Sbcets`] (pure software checks), [`Scheme::Hwst128`]
//!   (hardware metadata, software key check) and
//!   [`Scheme::Hwst128Tchk`] (hardware `tchk` + keybuffer), plus
//!   [`Scheme::None`] as the uninstrumented baseline,
//! * a `-O0` back-end performing frame allocation and machine-code
//!   emission for RV64IM + HWST128, and its `-O1` tier ([`OptLevel`]),
//!
//! ## Entry points
//!
//! The pass order is defined once: pointer analysis, the bounds proofs
//! (optional), instrumentation, redundant-check elimination (optional),
//! the completeness verifier (optional), lowering.
//!
//! * [`compile_with_options`] runs it for a [`CompileOptions`] and
//!   returns a [`Compiled`]: the program, its [`LowerPlan`] and the pass
//!   counters. [`compile`] keeps only the program of a plain build.
//! * [`binval::translation_validate`] compiles through the same passes
//!   and pairs the IR verifier's verdict with the binary validator's on
//!   the image they emit; the `binval` mutation campaigns corrupt that
//!   image.
//! * [`lower_with_plan_opt`] lowers a module that is already
//!   instrumented, for callers that run the passes one by one.
//! * [`instrument::config_for`] names the simulator configuration each
//!   [`Scheme`] runs on.
//!
//! ## Example
//!
//! ```
//! use hwst_compiler::{ModuleBuilder, Scheme, compile};
//! use hwst_sim::{Machine, SafetyConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut mb = ModuleBuilder::new();
//! let mut f = mb.func("main");
//! let n = f.konst(21);
//! let two = f.konst(2);
//! let r = f.bin(hwst_compiler::ir::BinOp::Mul, n, two);
//! f.ret(Some(r));
//! f.finish();
//! let module = mb.finish();
//!
//! let prog = compile(&module, Scheme::None)?;
//! let exit = Machine::new(prog, SafetyConfig::baseline()).run(10_000)?;
//! assert_eq!(exit.code, 42);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod binval;
pub mod bounds;
mod builder;
pub mod dataflow;
mod error;
pub mod instrument;
pub mod ir;
pub mod lint;
mod lower;
mod printer;
pub mod rce;
pub mod regalloc;
pub mod verify;

pub use builder::{FuncBuilder, ModuleBuilder};
pub use error::CompileError;
pub use instrument::Scheme;
pub use lower::{lower_with_plan_opt, CheckSite, FnPlan, LowerPlan, OptLevel};
pub use printer::function_with_cfg;

use hwst_isa::Program;

/// Instruments `module` for `scheme` and lowers it to machine code:
/// [`compile_with_options`] with every optional pass off, keeping only
/// the program.
///
/// The entry point is the function named `main`; the emitted program
/// begins with a startup shim that calls `main` and passes its return
/// value to `exit`.
///
/// # Errors
///
/// Returns a [`CompileError`] for malformed IR (pointer-analysis
/// violations, unknown callees, missing `main`).
pub fn compile(module: &ir::Module, scheme: Scheme) -> Result<Program, CompileError> {
    compile_with_options(module, CompileOptions::new(scheme)).map(|c| c.program)
}

/// Pass configuration for [`compile_with_options`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompileOptions {
    /// Instrumentation scheme.
    pub scheme: Scheme,
    /// Run redundant-check elimination ([`rce`]) on the instrumented
    /// IR.
    pub rce: bool,
    /// Run the metadata-completeness verifier ([`verify`]) on the final
    /// instrumented IR (after RCE, when enabled).
    pub verify: bool,
    /// Run the static bounds-proof pass ([`bounds`]) on the source IR
    /// and skip every check it proves unnecessary, emitting one proof
    /// witness per skip.
    pub bounds: bool,
    /// Back-end optimization level ([`OptLevel`]): `O0` is the paper's
    /// frame-slot lowering, `O1` adds linear-scan register allocation,
    /// frame-slot load/store elimination and metadata-op scheduling.
    pub opt: OptLevel,
}

impl CompileOptions {
    /// Plain compilation for `scheme` — exactly what [`compile`] does.
    pub const fn new(scheme: Scheme) -> Self {
        CompileOptions {
            scheme,
            rce: false,
            verify: false,
            bounds: false,
            opt: OptLevel::O0,
        }
    }

    /// Enables redundant-check elimination.
    pub const fn with_rce(mut self) -> Self {
        self.rce = true;
        self
    }

    /// Enables the completeness verifier.
    pub const fn with_verify(mut self) -> Self {
        self.verify = true;
        self
    }

    /// Enables the static bounds-proof check elimination.
    pub const fn with_bounds(mut self) -> Self {
        self.bounds = true;
        self
    }

    /// Selects the back-end optimization level.
    pub const fn with_opt(mut self, opt: OptLevel) -> Self {
        self.opt = opt;
        self
    }
}

/// The result of [`compile_with_options`].
#[derive(Debug)]
pub struct Compiled {
    /// The lowered program.
    pub program: Program,
    /// The lowering side-tables of `program`: function symbol ranges,
    /// frame geometry and check sites — what the telemetry profiler and
    /// the binary validator consume. `plan.funcs[i].len` is the static
    /// instruction count of function `i`.
    pub plan: LowerPlan,
    /// Check-elimination counters (all zero when RCE was off).
    pub rce: rce::RceStats,
    /// Static check sites remaining in the final instrumented IR
    /// ([`rce::static_check_count`]).
    pub check_count: usize,
    /// Bounds-proof counters (all zero when the pass was off).
    pub bounds: bounds::BoundsStats,
    /// One proof witness per site the bounds pass proved in-bounds
    /// (empty when the pass was off). Indexed by
    /// [`instrument::SkippedCheck::witness`].
    pub witnesses: Vec<bounds::Witness>,
    /// The checks the instrumenter actually skipped, each justified by
    /// a witness.
    pub skips: Vec<instrument::SkippedCheck>,
}

/// [`compile`] with the optional static-analysis passes: the bounds-
/// proof check eliminator, redundant-check elimination and the
/// metadata-completeness verifier, lowered at `opts.opt`.
///
/// Pass order: `bounds` analyzes the *source* IR and the instrumenter
/// skips every proven check as it inserts the rest; `rce` then removes
/// dominated duplicates among the surviving checks; `verify` finally
/// re-checks completeness, accepting a missing check only where a skip
/// carries an arithmetically valid witness
/// ([`verify::verify_with`]). [`binval::translation_validate`] and the
/// `binval` campaigns compile through the same passes.
///
/// # Errors
///
/// Same as [`compile`], plus [`CompileError::UncoveredDeref`] /
/// [`CompileError::InvalidWitness`] when verification is enabled and
/// fails.
pub fn compile_with_options(
    module: &ir::Module,
    opts: CompileOptions,
) -> Result<Compiled, CompileError> {
    let front = front_half(module, opts)?;
    if opts.verify {
        verify::verify_with(&front.module, opts.scheme, &front.skips, &front.witnesses)?;
    }
    let check_count = rce::static_check_count(&front.module);
    let (program, plan) = lower_with_plan_opt(&front.module, opts.scheme, opts.opt)?;
    Ok(Compiled {
        program,
        plan,
        rce: front.rce,
        check_count,
        bounds: front.bounds,
        witnesses: front.witnesses,
        skips: front.skips,
    })
}

/// What [`front_half`] hands to verification and lowering. The other
/// fields mean what the [`Compiled`] fields of the same names do.
pub(crate) struct FrontHalf {
    /// The instrumented module, after RCE when enabled.
    pub(crate) module: ir::Module,
    pub(crate) rce: rce::RceStats,
    pub(crate) bounds: bounds::BoundsStats,
    pub(crate) witnesses: Vec<bounds::Witness>,
    pub(crate) skips: Vec<instrument::SkippedCheck>,
}

/// The one definition of the pass order up to lowering: pointer
/// analysis, then the bounds proofs when `opts.bounds`, then
/// instrumentation (skipping every proven check), then RCE when
/// `opts.rce`. Every compile in this crate starts here.
pub(crate) fn front_half(
    module: &ir::Module,
    opts: CompileOptions,
) -> Result<FrontHalf, CompileError> {
    let info = analysis::analyze(module)?;
    let outcome = opts.bounds.then(|| bounds::analyze(module));
    let (mut instrumented, skips) =
        instrument::instrument_with_bounds(module, &info, opts.scheme, outcome.as_ref());
    let rce = if opts.rce {
        rce::eliminate(&mut instrumented)
    } else {
        rce::RceStats::default()
    };
    let (bounds, witnesses) = outcome.map_or_else(Default::default, |o| (o.stats, o.witnesses));
    Ok(FrontHalf {
        module: instrumented,
        rce,
        bounds,
        witnesses,
        skips,
    })
}
