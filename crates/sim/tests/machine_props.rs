//! Robustness properties: the machine must never panic, whatever
//! instructions it executes — arbitrary (decodable) words, arbitrary
//! register values, arbitrary CSR writes. Traps are fine; panics are
//! bugs.

use hwst_exec::inject::run_with_plan;
use hwst_exec::{run_fast, BlockCache};
use hwst_isa::{decode, Instr, Program, Reg};
use hwst_metadata::CompressionConfig;
use hwst_sim::inject::{FaultClass, InjectionPlan};
use hwst_sim::{syscall, Machine, SafetyConfig};
use proptest::prelude::*;

/// `a0 = code; exit` — three instructions at `0x1_0000`, so any two
/// exit codes give programs with the same base and length.
fn exit_prog(code: i64) -> Program {
    use hwst_isa::AluImmOp;
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
                imm: syscall::EXIT as i64,
            },
            Instr::Ecall,
        ],
    )
}

/// Raw images: arbitrary bytes (ragged lengths, mostly undecodable
/// words) or the image of a random decodable instruction stream, so
/// that loads at hostile bases also get to run.
fn arb_image() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        prop::collection::vec(any::<u8>(), 0..64),
        prop::collection::vec(any::<u32>(), 0..16).prop_map(|words| {
            let instrs = words.iter().filter_map(|&w| decode(w).ok()).collect();
            Program::from_instrs(0, instrs).to_image()
        }),
    ]
}

/// Load bases for hostile images: the usual text base, the edges of the
/// address space (where `base + 4 * len` overflows), and anything.
fn arb_base() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0x1_0000u64),
        Just(0u64),
        Just(u64::MAX),
        Just(u64::MAX - 3),
        any::<u64>()
    ]
}

/// The compression config a random `hwst.compcfg` value encodes, or the
/// default for the invalid encodings most values are.
fn arb_compression() -> impl Strategy<Value = CompressionConfig> {
    any::<u64>().prop_map(|v| CompressionConfig::from_csr(v).unwrap_or_default())
}

/// Loads a raw byte image at `base` under `compression` and runs
/// whatever loads for `fuel` on the reference interpreter and, from a
/// clone, on the fast engine. A rejected image must be a printable
/// structured error; a loaded one must give the same result and the
/// same [`Observation`](hwst_sim::Observation) on both engines. A panic
/// anywhere fails the case.
fn hostile_image_is_contained(
    image: &[u8],
    base: u64,
    compression: CompressionConfig,
    fuel: u64,
) -> Result<(), TestCaseError> {
    let cfg = SafetyConfig {
        compression,
        ..SafetyConfig::default()
    };
    match Machine::from_image(base, image, cfg) {
        Ok(mut reference) => {
            let mut fast = reference.clone();
            let want = reference.run(fuel);
            let got = run_fast(&mut fast, fuel, &mut BlockCache::new());
            prop_assert_eq!(&want, &got);
            let diff = reference.observe().first_difference(&fast.observe());
            prop_assert!(diff.is_none(), "{}", diff.unwrap_or_default());
        }
        Err(e) => prop_assert!(!e.to_string().is_empty()),
    }
    Ok(())
}

/// A small malloc → bind → check → free churn program: every metadata
/// structure (SRF, shadow memory, lock words, keybuffer) is populated,
/// so arbitrary injection plans have real targets to corrupt.
fn churn_prog() -> Program {
    let addi = |rd, rs1, imm| Instr::AluImm {
        op: hwst_isa::AluImmOp::Addi,
        rd,
        rs1,
        imm,
    };
    let mut body = Vec::new();
    for _ in 0..3 {
        body.extend([
            addi(Reg::A0, Reg::Zero, 64),
            addi(Reg::A7, Reg::Zero, syscall::MALLOC as i64),
            Instr::Ecall,
            addi(Reg::T0, Reg::A0, 64),
            Instr::Bndrs {
                rd: Reg::A0,
                rs1: Reg::A0,
                rs2: Reg::T0,
            },
            Instr::Bndrt {
                rd: Reg::A0,
                rs1: Reg::A1,
                rs2: Reg::A2,
            },
            Instr::Tchk { rs1: Reg::A0 },
            Instr::Store {
                width: hwst_isa::StoreWidth::D,
                rs1: Reg::A0,
                rs2: Reg::T0,
                offset: 0,
                checked: true,
            },
            addi(Reg::A1, Reg::A2, 0),
            addi(Reg::A0, Reg::A0, 0),
            addi(Reg::A7, Reg::Zero, syscall::FREE as i64),
            Instr::Ecall,
        ]);
    }
    body.extend([
        addi(Reg::A7, Reg::Zero, syscall::EXIT as i64),
        addi(Reg::A0, Reg::Zero, 0),
        Instr::Ecall,
    ]);
    Program::from_instrs(0x1_0000, body)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary CSR writes (including garbage compression configs)
    /// never panic and never brick the machine.
    #[test]
    fn random_csr_writes_are_survivable(
        csr_addr in any::<u16>(),
        value64 in any::<u64>(),
    ) {
        use hwst_isa::{AluImmOp, CsrOp};
        let mut instrs = vec![
            // A small value into a0 (proptest value folded to 12 bits to
            // keep the program well-formed; the CSR gets the low bits).
            Instr::AluImm {
                op: AluImmOp::Addi,
                rd: Reg::A0,
                rs1: Reg::Zero,
                imm: (value64 & 0x7ff) as i64,
            },
            Instr::Csr {
                op: CsrOp::Rw,
                rd: Reg::A1,
                rs1: Reg::A0,
                csr: csr_addr & 0xfff,
            },
        ];
        // Then do a metadata op that consults the (possibly nonsense)
        // configuration.
        instrs.push(Instr::Bndrs { rd: Reg::A2, rs1: Reg::Zero, rs2: Reg::A0 });
        instrs.push(Instr::Tchk { rs1: Reg::A2 });
        let prog = Program::from_instrs(0x1_0000, instrs);
        let mut m = Machine::new(prog, SafetyConfig::default());
        let _ = m.run(1_000);
    }

    /// Arbitrary byte images — ragged lengths, undecodable words, bases
    /// at the edges of the address space, garbage compression configs,
    /// any fuel — either load or return a structured error; loaded
    /// images run without panicking and identically on both engines.
    #[test]
    fn random_images_never_panic(
        image in arb_image(),
        base in arb_base(),
        compression in arb_compression(),
        fuel in 0u64..5_000,
    ) {
        hostile_image_is_contained(&image, base, compression, fuel)?;
    }

    /// Random decodable instruction streams execute without panicking
    /// and **identically** on the reference interpreter and the
    /// decoded-block fast engine, at any fuel budget and under the
    /// baseline, HWST128 and HWST128_tchk configurations: the same
    /// result (exit or trap) and the same
    /// [`Observation`](hwst_sim::Observation). This is the
    /// instruction-level counterpart of the compiled-program gate in
    /// `tests/differential.rs` — random streams reach decoder corners
    /// (jumps into fused pairs, blocks ending mid-idiom, traps at every
    /// offset) no compiled program exercises.
    #[test]
    fn random_words_execute_identically_on_both_engines(
        words in prop::collection::vec(any::<u32>(), 1..64),
        fuel in 1u64..=10_000,
    ) {
        let instrs: Vec<Instr> =
            words.iter().filter_map(|&w| decode(w).ok()).collect();
        if instrs.is_empty() {
            return Ok(());
        }
        let prog = Program::from_instrs(0x1_0000, instrs);
        for cfg in [
            SafetyConfig::baseline(),
            SafetyConfig::hwst128_no_tchk(),
            SafetyConfig::default(),
        ] {
            let mut cycle = Machine::new(prog.clone(), cfg);
            let cycle_result = cycle.run(fuel);
            let mut fast = Machine::new(prog.clone(), cfg);
            let fast_result = run_fast(&mut fast, fuel, &mut BlockCache::new());
            prop_assert_eq!(&cycle_result, &fast_result);
            let diff = cycle.observe().first_difference(&fast.observe());
            prop_assert!(diff.is_none(), "{:?}: {}", cfg, diff.unwrap_or_default());
        }
    }

    /// Every fault class × any seed × any trigger point: the machine
    /// degrades to a classified trap or exit status, never a panic.
    #[test]
    fn arbitrary_injection_plans_never_panic(
        seed in any::<u64>(),
        trigger in 0u64..64,
        class_index in 0usize..FaultClass::ALL.len(),
    ) {
        let plan = InjectionPlan {
            class: FaultClass::ALL[class_index],
            seed,
            trigger,
        };
        let mut m = Machine::new(churn_prog(), SafetyConfig::default());
        let (result, record) = run_with_plan(&mut m, &plan, 10_000, &mut BlockCache::new());
        // Any classified outcome is legal; only a panic would fail this.
        let _ = (result, record.applied());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100_000))]

    /// [`random_images_never_panic`] at depth, for the heavy gates.
    #[test]
    #[ignore = "deep fuzz sweep; run explicitly or in heavy gates"]
    fn random_images_never_panic_deep(
        image in arb_image(),
        base in arb_base(),
        compression in arb_compression(),
        fuel in 0u64..5_000,
    ) {
        hostile_image_is_contained(&image, base, compression, fuel)?;
    }
}

#[test]
fn ragged_image_is_a_structured_load_error() {
    for len in [1usize, 2, 3, 5, 7, 9] {
        let image = vec![0x13u8; len]; // 0x13 = addi x0,x0,0 prefix bytes
        let Err(err) = Machine::from_image(0, &image, SafetyConfig::default()) else {
            panic!("ragged image of len {len} must be rejected");
        };
        assert!(
            err.to_string().contains("multiple of 4"),
            "unexpected error for len {len}: {err}"
        );
    }
}

#[test]
fn huge_malloc_degrades_to_null_not_panic() {
    // malloc(-1): the size rounding used to overflow in debug builds;
    // now it must degrade to a failed allocation (a0 = 0).
    let addi = |rd, rs1, imm| Instr::AluImm {
        op: hwst_isa::AluImmOp::Addi,
        rd,
        rs1,
        imm,
    };
    let prog = Program::from_instrs(
        0x1_0000,
        vec![
            addi(Reg::A0, Reg::Zero, -1),
            addi(Reg::A7, Reg::Zero, syscall::MALLOC as i64),
            Instr::Ecall,
            // exit(a0): a failed allocation exits 0.
            addi(Reg::A7, Reg::Zero, syscall::EXIT as i64),
            Instr::Ecall,
        ],
    );
    let mut m = Machine::new(prog, SafetyConfig::default());
    let exit = m.run(100).expect("absurd sizes must degrade gracefully");
    assert_eq!(exit.code, 0, "malloc(-1) must return the null block");
}

#[test]
fn image_round_trip_executes_identically() {
    use hwst_isa::AluImmOp;
    let prog = Program::from_instrs(
        0x1_0000,
        vec![
            Instr::AluImm {
                op: AluImmOp::Addi,
                rd: Reg::A0,
                rs1: Reg::Zero,
                imm: 11,
            },
            Instr::AluImm {
                op: AluImmOp::Addi,
                rd: Reg::A7,
                rs1: Reg::Zero,
                imm: 93,
            },
            Instr::Ecall,
        ],
    );
    let direct = Machine::new(prog.clone(), SafetyConfig::default())
        .run(100)
        .unwrap();
    let image = prog.to_image();
    let mut from_image = Machine::from_image(0x1_0000, &image, SafetyConfig::default())
        .expect("valid image decodes");
    let via_image = from_image.run(100).unwrap();
    assert_eq!(direct.code, via_image.code);
    assert_eq!(direct.stats, via_image.stats);
}

#[test]
fn bad_image_reports_decode_error() {
    let image = 0xffff_ffffu32.to_le_bytes();
    assert!(Machine::from_image(0, &image, SafetyConfig::default()).is_err());
}

#[test]
fn one_cache_never_runs_another_machines_program() {
    // Two fresh machines whose programs share a base and a length, one
    // cache: the second machine must run its own program, exactly as
    // the reference does, never the first machine's decoded blocks.
    let mut cache = BlockCache::new();
    let mut a = Machine::new(exit_prog(7), SafetyConfig::default());
    let first = run_fast(&mut a, 1_000, &mut cache).expect("program A exits");
    assert_eq!(first.code, 7);

    let want = Machine::new(exit_prog(9), SafetyConfig::default()).run(1_000);
    let mut b = Machine::new(exit_prog(9), SafetyConfig::default());
    let got = run_fast(&mut b, 1_000, &mut cache);
    assert_eq!(got, want, "stale blocks must not execute");
    assert_eq!(cache.decodes(), 2, "the second machine forces a re-decode");
    assert_eq!(cache.hits(), 0);
}
