//! Every program through every cell. Four sources feed the one check
//! in `common` ([`check_program`] over [`cells`]): programs from one
//! deterministic splitmix64 generator of well-formed, pointer-rich IR
//! (a `u64` seed or a hand-written `&[Act]`), the 23 kernels, a Juliet
//! sample (reachable and laundered cases per CWE) and the ten benign
//! twins. In every cell both engines agree, the image passes
//! translation validation, and the verdict equals its scheme's `-O0`
//! plain verdict: the baseline's exit for a benign program.
//!
//! Tier-1 runs every cell on a fixed subset of each source, one test
//! per source so they run in parallel; the tier-1 kernels' `-O0` and
//! `-O1` cells run in `exec.rs` and `optdiff.rs`. The `#[ignore]`d
//! tests run each source in full and ride the heavy gate (`cargo test
//! --release --workspace -- --ignored`).

mod common;

use common::{cells, check_kernels, check_program, Verdict, FUEL};
use hwst128::compiler::ir::{BinOp, Module, VarId, Width};
use hwst128::compiler::{
    bounds, compile_with_options, CompileOptions, FuncBuilder, ModuleBuilder, Scheme,
};
use hwst128::juliet::{build_benign_program, build_program, sample_reachable, suite, Case, Cwe};
use hwst128::workloads::all;
use hwst128::workloads::util::for_range;

/// Seeds of the tier-1 generated smoke.
const SMOKE_SEEDS: std::ops::Range<u64> = 0..2;

/// Seeds of the heavy-gate deep sweep.
const DEEP_SEEDS: std::ops::Range<u64> = 0..512;

// ---------------------------------------------------------------------------
// The generator
// ---------------------------------------------------------------------------

/// One generated action. Indices are taken modulo the live state at
/// build time, so any sequence is well-formed by construction.
#[derive(Debug, Clone, Copy)]
enum Act {
    /// Allocate a heap buffer of 8..=256 bytes.
    Alloc(u8),
    /// Allocate a stack buffer of 8..=128 bytes.
    Stack(u8),
    /// Store at a constant in-bounds slot of a live buffer.
    Store { buf: u8, frac: u8, val: i8 },
    /// Load a constant in-bounds slot and mix it into the accumulator.
    Load { buf: u8, frac: u8 },
    /// Derived pointer: gep by a constant, then store through it.
    GepStore { buf: u8, frac: u8, val: i8 },
    /// `for (i = 0; i < slots; i++) buf[i] = val + i` — the loop shape
    /// the interval widening was built for.
    LoopFill { buf: u8, val: i8 },
    /// Sum every slot of a buffer into the accumulator with a loop.
    LoopSum { buf: u8 },
    /// Round-trip a pointer through memory, then read through it
    /// (unprovable: the reload has heap provenance only at runtime).
    PtrRoundTrip { buf: u8, frac: u8 },
    /// Pass a pointer to the helper, which writes through it.
    CallPoke { buf: u8, frac: u8 },
    /// Free the oldest live heap buffer (if more than one remains).
    FreeOldest,
    /// Pure arithmetic on the accumulator.
    Arith { op: u8, imm: i16 },
}

/// The action list of `seed`: 1..48 actions, each kind equally likely.
fn generate(seed: u64) -> Vec<Act> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let len = 1 + next() % 47;
    (0..len)
        .map(|_| {
            let r = next();
            let (kind, buf, frac, val) = (r % 11, (r >> 8) as u8, (r >> 16) as u8, (r >> 24) as i8);
            match kind {
                0 => Act::Alloc(buf),
                1 => Act::Stack(buf),
                2 => Act::Store { buf, frac, val },
                3 => Act::Load { buf, frac },
                4 => Act::GepStore { buf, frac, val },
                5 => Act::LoopFill { buf, val },
                6 => Act::LoopSum { buf },
                7 => Act::PtrRoundTrip { buf, frac },
                8 => Act::CallPoke { buf, frac },
                9 => Act::FreeOldest,
                _ => Act::Arith {
                    op: buf,
                    imm: (r >> 32) as i16,
                },
            }
        })
        .collect()
}

/// A buffer live in `main`: heap ones can be freed, stack ones cannot.
#[derive(Clone, Copy)]
struct Buf {
    var: VarId,
    size: u64,
    heap: bool,
}

/// In-bounds 8-byte-slot offset for a buffer of `size` bytes.
fn slot_offset(size: u64, frac: u8) -> i64 {
    ((frac as u64 % (size / 8)) * 8) as i64
}

/// Builds the program of `acts`, and lists the actions that took
/// effect (a buffer past the tenth, or a free with one heap buffer
/// left, emits nothing).
fn build(acts: &[Act]) -> (Module, Vec<Act>) {
    let mut mb = ModuleBuilder::new();

    // poke(ptr, off): *(ptr+off) ^= 0x5a
    let mut f = mb.func("poke");
    let p = f.param(true);
    let off = f.param(false);
    let slot = f.gep(p, off);
    let v = f.load(slot, 0, Width::U64);
    let x = f.bin_imm(BinOp::Xor, v, 0x5a);
    f.store(x, slot, 0, Width::U64);
    f.ret(None);
    f.finish();

    let mut f = mb.func("main");
    let acc = f.local();
    let z = f.konst(0);
    f.local_set(acc, z);
    // The pointer round-trip cell, and one buffer so indices resolve.
    let cell = f.malloc_bytes(8);
    let first = f.malloc_bytes(64);
    let mut bufs = vec![Buf {
        var: first,
        size: 64,
        heap: true,
    }];
    let mix = |f: &mut FuncBuilder<'_>, v| {
        let a = f.local_get(acc);
        let m = f.bin(BinOp::Add, a, v);
        let m = f.bin_imm(BinOp::And, m, 0xffff);
        f.local_set(acc, m);
    };

    let mut emitted = Vec::new();
    for &act in acts {
        let pick = |buf: u8| bufs[buf as usize % bufs.len()];
        match act {
            Act::Alloc(_) | Act::Stack(_) if bufs.len() >= 10 => continue,
            Act::Alloc(s) => {
                let size = 8 + (s as u64 % 32) * 8;
                let var = f.malloc_bytes(size);
                bufs.push(Buf {
                    var,
                    size,
                    heap: true,
                });
            }
            Act::Stack(s) => {
                let size = 8 + (s as u64 % 16) * 8;
                let var = f.stack_alloc(size);
                bufs.push(Buf {
                    var,
                    size,
                    heap: false,
                });
            }
            Act::Store { buf, frac, val } => {
                let b = pick(buf);
                let v = f.konst(val as i64);
                f.store(v, b.var, slot_offset(b.size, frac), Width::U64);
            }
            Act::Load { buf, frac } => {
                let b = pick(buf);
                let v = f.load(b.var, slot_offset(b.size, frac), Width::U64);
                mix(&mut f, v);
            }
            Act::GepStore { buf, frac, val } => {
                let b = pick(buf);
                let o = f.konst(slot_offset(b.size, frac));
                let p = f.gep(b.var, o);
                let v = f.konst(val as i64);
                f.store(v, p, 0, Width::U64);
            }
            Act::LoopFill { buf, val } => {
                let b = pick(buf);
                for_range(&mut f, 0, (b.size / 8) as i64, |f, iv| {
                    let off = f.bin_imm(BinOp::Sll, iv, 3);
                    let slot = f.gep(b.var, off);
                    let v = f.bin_imm(BinOp::Add, iv, val as i64);
                    f.store(v, slot, 0, Width::U64);
                });
            }
            Act::LoopSum { buf } => {
                let b = pick(buf);
                for_range(&mut f, 0, (b.size / 8) as i64, |f, iv| {
                    let off = f.bin_imm(BinOp::Sll, iv, 3);
                    let slot = f.gep(b.var, off);
                    let v = f.load(slot, 0, Width::U64);
                    mix(f, v);
                });
            }
            Act::PtrRoundTrip { buf, frac } => {
                let b = pick(buf);
                f.store_ptr(b.var, cell, 0);
                let q = f.load_ptr(cell, 0);
                let v = f.load(q, slot_offset(b.size, frac), Width::U64);
                mix(&mut f, v);
            }
            Act::CallPoke { buf, frac } => {
                let b = pick(buf);
                let o = f.konst(slot_offset(b.size, frac));
                f.call_void("poke", &[b.var, o]);
            }
            Act::FreeOldest => {
                if bufs.iter().filter(|b| b.heap).count() < 2 {
                    continue;
                }
                let pos = bufs.iter().position(|b| b.heap).expect("two heap buffers");
                f.free(bufs.remove(pos).var);
            }
            Act::Arith { op, imm } => {
                let a = f.local_get(acc);
                let v = match op % 4 {
                    0 => f.bin_imm(BinOp::Add, a, imm as i64),
                    1 => f.bin_imm(BinOp::Xor, a, imm as i64),
                    2 => f.bin_imm(BinOp::Mul, a, (imm as i64) | 1),
                    _ => f.bin_imm(BinOp::Srl, a, (imm as i64 & 7) + 1),
                };
                let v = f.bin_imm(BinOp::And, v, 0xffff);
                f.local_set(acc, v);
            }
        }
        emitted.push(act);
    }
    for b in bufs.iter().filter(|b| b.heap) {
        f.free(b.var);
    }
    f.free(cell);
    let r = f.local_get(acc);
    f.print_u64(r);
    let code = f.bin_imm(BinOp::And, r, 0xff);
    f.ret(Some(code));
    f.finish();
    (mb.finish(), emitted)
}

// ---------------------------------------------------------------------------
// The sources
// ---------------------------------------------------------------------------

/// Runs the program of `acts` (named `name` in failure messages)
/// through `cells` as a benign program. Returns the actions that took
/// effect and the number of sites the bounds pass proved.
fn check_acts(
    name: &str,
    acts: &[Act],
    cells: impl Iterator<Item = CompileOptions>,
) -> (Vec<Act>, usize) {
    let (module, emitted) = build(acts);
    let checked = check_program(&module, FUEL, true, cells)
        .unwrap_or_else(|e| panic!("{name}: {e}\nacts: {acts:?}"));
    (emitted, checked.proven)
}

/// The Juliet sample: `per_cwe` reachable cases of every CWE
/// (`sample_reachable`) and its first laundered case, plus its last
/// one when `both_ends`.
fn juliet_sample(per_cwe: u32, both_ends: bool) -> Vec<Case> {
    let suite = suite();
    let mut cases = sample_reachable(per_cwe);
    for cwe in Cwe::ALL {
        let mut laundered = suite.iter().filter(|c| c.cwe == cwe && c.laundered);
        cases.extend(laundered.next());
        if both_ends {
            cases.extend(laundered.next_back());
        }
    }
    cases
}

/// Runs every case of `cases` through every cell. The check is vacuous
/// without true positives, so more than half of the reachable cases'
/// (case, scheme) references must end in a spatial or temporal trap;
/// prints how many do.
fn check_juliet(cases: &[Case]) {
    let (mut refs, mut traps) = (0, 0);
    for case in cases {
        let checked = check_program(&build_program(case), FUEL, false, cells())
            .unwrap_or_else(|e| panic!("juliet {:?}#{}: {e}", case.cwe, case.index));
        if !case.laundered {
            refs += checked.refs.len();
            traps += checked
                .refs
                .iter()
                .filter(|(_, v)| matches!(v, Verdict::Trap("spatial" | "temporal")))
                .count();
        }
    }
    eprintln!("{traps} of {refs} reachable (case, scheme) references trap");
    assert!(
        2 * traps > refs,
        "only {traps} of {refs} reachable (case, scheme) references trap"
    );
}

/// Runs every CWE's benign twin through every cell.
fn check_twins() {
    for cwe in Cwe::ALL {
        check_program(&build_benign_program(cwe), FUEL, true, cells())
            .unwrap_or_else(|e| panic!("{cwe} benign twin: {e}"));
    }
}

/// Tier-1: a fixed-seed smoke of generated programs through every cell.
#[test]
fn generated_programs_agree_in_every_cell() {
    for seed in SMOKE_SEEDS {
        check_acts(&format!("seed {seed}"), &generate(seed), cells());
    }
}

/// Tier-1: one reachable and one laundered Juliet case per CWE through
/// every cell.
#[test]
fn juliet_cases_agree_in_every_cell() {
    check_juliet(&juliet_sample(1, false));
}

/// Tier-1: all ten benign twins through every cell.
#[test]
fn benign_twins_agree_in_every_cell() {
    check_twins();
}

/// The heavy-gate deep sweep: [`DEEP_SEEDS`] generated programs
/// through every cell. Prints the generator's traffic: per action kind,
/// how many actions took effect and in how many programs; and how many
/// programs prove a bounds site or run a loop.
#[test]
#[ignore = "deep sweep; run via the CI heavy gates"]
fn generated_programs_agree_in_every_cell_deep() {
    // Action kind (its variant name) → (actions, programs).
    let mut traffic = std::collections::BTreeMap::<String, (usize, usize)>::new();
    let (mut proven, mut looping) = (0, 0);
    for seed in DEEP_SEEDS {
        let (emitted, sites) = check_acts(&format!("seed {seed}"), &generate(seed), cells());
        let mut kinds = std::collections::BTreeMap::<String, usize>::new();
        for act in &emitted {
            let name = format!("{act:?}");
            let kind = name.split([' ', '(']).next().unwrap_or_default();
            *kinds.entry(kind.to_string()).or_default() += 1;
        }
        for (kind, n) in kinds {
            let t = traffic.entry(kind).or_default();
            *t = (t.0 + n, t.1 + 1);
        }
        proven += usize::from(sites > 0);
        let is_loop = |a: &Act| matches!(a, Act::LoopFill { .. } | Act::LoopSum { .. });
        looping += usize::from(emitted.iter().any(is_loop));
    }
    for (kind, (actions, programs)) in &traffic {
        eprintln!("{kind:>12}: {actions:>5} actions in {programs:>3} programs");
    }
    let programs = DEEP_SEEDS.count();
    eprintln!("{programs} programs: {proven} prove a site, {looping} run a loop");
    assert_eq!(traffic.len(), 11, "every action kind takes effect");
}

/// The heavy gate: all 23 kernels through every cell.
#[test]
#[ignore = "full sweep; run via the CI heavy gates"]
fn kernels_agree_in_every_cell_full() {
    check_kernels(all(), |_| true);
}

/// The heavy gate: eleven reachable cases and the first and last
/// laundered case of every CWE, and the ten benign twins, through
/// every cell. Eleven is the smallest even-stride sample that draws
/// all three flow shapes of every CWE.
#[test]
#[ignore = "full sweep; run via the CI heavy gates"]
fn juliet_cases_and_twins_agree_in_every_cell_full() {
    check_juliet(&juliet_sample(11, true));
    check_twins();
}

/// The reduced program both validator disagreements shared: a stack
/// buffer, a heap buffer, and a counted loop summing the stack buffer.
const STACK_LOOP: [Act; 3] = [Act::Stack(0), Act::Alloc(0), Act::LoopSum { buf: 1 }];

/// HeapSafe leaves stack pointers unbound, but the loop's derived
/// pointer copies the stack buffer's home-slot shadow word, so that
/// word must be written (to the all-zero "no metadata" word) or binval
/// rejects the copy with `SHADOW_UNWRITTEN`.
#[test]
fn heapsafe_stack_pointers_carry_written_metadata() {
    let heapsafe = cells().filter(|o| o.scheme == Scheme::HeapSafe);
    check_acts("heapsafe stack loop", &STACK_LOOP, heapsafe);
}

/// SBCETS, L4 Pointer and CryptSan skip the loop's proven stack
/// checks, and their lowerings record no hardware check sites, so
/// binval must accept those witnesses without one (no
/// `WITNESS_DANGLING`).
#[test]
fn software_scheme_stack_witnesses_validate() {
    let software = [Scheme::Sbcets, Scheme::L4Pointer, Scheme::CryptSan];
    let bounded = cells().filter(|o| o.bounds && software.contains(&o.scheme));
    check_acts("software stack witnesses", &STACK_LOOP, bounded);
}

/// The generator must actually exercise the bounds pass: on a module
/// made of loop fills and sums the analysis proves sites, and the
/// proofs translate into strictly fewer static checks than RCE alone.
#[test]
fn generator_produces_provable_sites() {
    let (module, _) = build(&[
        Act::Stack(12),
        Act::LoopFill { buf: 1, val: 3 },
        Act::LoopSum { buf: 1 },
        Act::Store {
            buf: 0,
            frac: 2,
            val: 9,
        },
        Act::Load { buf: 0, frac: 2 },
    ]);
    let outcome = bounds::analyze(&module);
    assert!(
        outcome.stats.proven >= 4,
        "expected the loop and constant sites proven, got {:?}",
        outcome.stats
    );
    let rce = CompileOptions::new(Scheme::Hwst128Tchk).with_rce();
    let rce_only = compile_with_options(&module, rce).expect("rce build");
    let full =
        compile_with_options(&module, rce.with_bounds().with_verify()).expect("bounds build");
    assert!(
        full.check_count < rce_only.check_count,
        "bounds must beat RCE alone: {} vs {}",
        full.check_count,
        rce_only.check_count
    );
    assert_eq!(full.skips.len(), outcome.stats.proven);
}
