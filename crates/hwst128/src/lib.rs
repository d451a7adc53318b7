//! # hwst128
//!
//! The complete public API of the **HWST128** reproduction — a
//! hardware/software co-designed memory-safety accelerator for RISC-V
//! with metadata compression (Dow, Li, Parameswaran — DAC 2022),
//! rebuilt as a pure-Rust simulation stack.
//!
//! This facade re-exports every subsystem:
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`isa`] | `hwst-isa` | RV64IM + HWST128 instruction set |
//! | [`mem`] | `hwst-mem` | memory, shadow memory, allocators |
//! | [`metadata`] | `hwst-metadata` | metadata model & compression (the core contribution) |
//! | [`pipeline`] | `hwst-pipeline` | 5-stage core timing, SRF, keybuffer |
//! | [`sim`] | `hwst-sim` | instruction-set simulator + traps |
//! | [`compiler`] | `hwst-compiler` | IR, pointer analysis, instrumentation, back-end |
//! | [`baselines`] | `hwst-baselines` | BOGO / WatchdogLite comparator models |
//! | [`workloads`] | `hwst-workloads` | MiBench/Olden/SPEC-like kernels |
//! | [`juliet`] | `hwst-juliet` | security-coverage suite |
//! | [`hwcost`] | `hwst-hwcost` | FPGA cost model |
//! | [`telemetry`] | `hwst-telemetry` | observability: cycle attribution, trace export |
//! | [`exec`] | `hwst-exec` | decoded-block fast execution tier (bit-identical to `sim`) |
//!
//! ## Quickstart
//!
//! ```
//! use hwst128::prelude::*;
//!
//! // Build a tiny program: allocate, write out of bounds.
//! let mut mb = ModuleBuilder::new();
//! let mut f = mb.func("main");
//! let p = f.malloc_bytes(32);
//! let v = f.konst(7);
//! f.store(v, p, 32, Width::U64); // one past the end
//! f.ret(None);
//! f.finish();
//! let module = mb.finish();
//!
//! // Compile with full HWST128 protection and run.
//! let prog = compile(&module, Scheme::Hwst128Tchk).unwrap();
//! let result = Machine::new(prog, SafetyConfig::default()).run(100_000);
//! assert!(matches!(result, Err(Trap::SpatialViolation { .. })));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod debugger;

pub use hwst_baselines as baselines;
pub use hwst_compiler as compiler;
pub use hwst_exec as exec;
pub use hwst_hwcost as hwcost;
pub use hwst_isa as isa;
pub use hwst_juliet as juliet;
pub use hwst_mem as mem;
pub use hwst_metadata as metadata;
pub use hwst_pipeline as pipeline;
pub use hwst_sim as sim;
pub use hwst_telemetry as telemetry;
pub use hwst_workloads as workloads;

/// The names most programs need, in one import.
pub mod prelude {
    pub use hwst_compiler::ir::{BinOp, Width};
    pub use hwst_compiler::{compile, CompileOptions, FuncBuilder, ModuleBuilder, Scheme};
    pub use hwst_exec::{run_fast, BlockCache};
    pub use hwst_isa::{Instr, Program, Reg};
    pub use hwst_metadata::{CompressionConfig, Metadata, ShadowCodec};
    pub use hwst_sim::{ExitStatus, Machine, SafetyConfig, Trap};
    pub use hwst_workloads::{Scale, Suite, Workload};
}

pub use hwst_compiler::instrument::config_for;

/// Compiles `module` with `opts` and runs it for `fuel` instructions on
/// the safety configuration [`config_for`] pairs with `opts.scheme`,
/// on the fast engine ([`exec::run_fast`], bit-identical to
/// [`sim::Machine::run`]) — the one-call experiment step.
///
/// # Errors
///
/// Returns the compile error or the trap that stopped execution, both as
/// boxed errors.
pub fn run_scheme(
    module: &compiler::ir::Module,
    opts: compiler::CompileOptions,
    fuel: u64,
) -> Result<sim::ExitStatus, Box<dyn std::error::Error + Send + Sync>> {
    let prog = compiler::compile_with_options(module, opts)?.program;
    let mut m = sim::Machine::new(prog, config_for(opts.scheme));
    Ok(exec::run_fast(&mut m, fuel, &mut exec::BlockCache::new())?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use compiler::{CompileOptions, Scheme};

    #[test]
    fn config_pairing() {
        assert!(!config_for(Scheme::None).spatial);
        assert!(!config_for(Scheme::Sbcets).spatial);
        assert!(config_for(Scheme::Hwst128).spatial);
        assert!(!config_for(Scheme::Hwst128).keybuffer);
        assert!(config_for(Scheme::Hwst128Tchk).keybuffer);
    }

    #[test]
    fn run_scheme_round_trip() {
        let mut mb = compiler::ModuleBuilder::new();
        let mut f = mb.func("main");
        let v = f.konst(9);
        f.ret(Some(v));
        f.finish();
        let m = mb.finish();
        for s in Scheme::ALL {
            let exit = run_scheme(&m, CompileOptions::new(s), 100_000).unwrap();
            assert_eq!(exit.code, 9);
        }
    }

    #[test]
    fn run_scheme_matches_the_reference_interpreter() {
        let mut mb = compiler::ModuleBuilder::new();
        let mut f = mb.func("main");
        let p = f.malloc_bytes(24);
        let v = f.konst(5);
        f.store(v, p, 0, compiler::ir::Width::U64);
        f.free(p);
        f.ret(Some(v));
        f.finish();
        let m = mb.finish();
        for s in Scheme::ALL {
            let prog = compiler::compile(&m, s).unwrap();
            let reference = sim::Machine::new(prog, config_for(s)).run(100_000);
            assert_eq!(
                run_scheme(&m, CompileOptions::new(s), 100_000).unwrap(),
                reference.unwrap(),
                "scheme {s:?}"
            );
        }
    }
}
