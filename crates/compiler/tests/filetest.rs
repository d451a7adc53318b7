//! Filetest-style golden tests for the IR passes.
//!
//! Each file under `tests/filetests/` is named `<fixture>.<pass>.golden`
//! and holds the expected listing after running `<pass>` on the named
//! fixture module: a stats header (`;`-prefixed comment lines) followed
//! by every function rendered through
//! [`hwst_compiler::function_with_cfg`], so block-level diffs show
//! predecessor/dominator changes too.
//!
//! Passes: `rce` (instrument for HWST128_tchk, then redundant-check
//! elimination), `bounds` (the static bounds-proof pass: witness table,
//! skip table and the instrumented-with-skips IR) and `o1` (instrument for
//! HWST128_tchk, then the optimizing back-end: the rendered `-O1`
//! disassembly with each function's frame/ptr-slot/register-assignment
//! header, so spill decisions and metadata-op scheduling are pinned).
//!
//! To regenerate after an intentional output change:
//!
//! ```text
//! BLESS=1 cargo test -p hwst-compiler --test filetest
//! ```

use hwst_compiler::ir::{BinOp, Module, VarId, Width};
use hwst_compiler::{analysis, bounds, function_with_cfg, instrument, rce};
use hwst_compiler::{lower_with_plan_opt, FuncBuilder, ModuleBuilder, OptLevel, Scheme};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

// ---------------------------------------------------------------- fixtures

/// Straight-line code: constant math, a dead binop, and in-bounds
/// stack/heap accesses the bounds pass proves.
fn straightline() -> Module {
    let mut mb = ModuleBuilder::new();
    let mut f = mb.func("main");
    let a = f.stack_alloc(16);
    let x = f.konst(6);
    let y = f.konst(7);
    let prod = f.bin(BinOp::Mul, x, y);
    let _dead = f.bin(BinOp::Add, prod, x);
    f.store(prod, a, 8, Width::U64);
    let p = f.malloc_bytes(32);
    f.store(prod, p, 24, Width::U64);
    let v = f.load(a, 8, Width::U64);
    f.free(p);
    f.ret(Some(v));
    f.finish();
    mb.finish()
}

/// A counted loop writing then summing an 8-element array: the bounds
/// pass needs edge refinement plus widening to prove the body accesses.
fn loop_sum() -> Module {
    let mut mb = ModuleBuilder::new();
    let mut f = mb.func("main");
    let buf = f.stack_alloc(64);
    count_loop(&mut f, 8, |f, iv| {
        let off = f.bin_imm(BinOp::Sll, iv, 3);
        let slot = f.gep(buf, off);
        f.store(iv, slot, 0, Width::U64);
    });
    let acc = f.local();
    let z = f.konst(0);
    f.local_set(acc, z);
    count_loop(&mut f, 8, |f, iv| {
        let off = f.bin_imm(BinOp::Sll, iv, 3);
        let slot = f.gep(buf, off);
        let v = f.load(slot, 0, Width::U64);
        let a = f.local_get(acc);
        let s = f.bin(BinOp::Add, a, v);
        f.local_set(acc, s);
    });
    let r = f.local_get(acc);
    f.ret(Some(r));
    f.finish();
    mb.finish()
}

/// Heap pointers stored and reloaded through memory: repeated derefs of
/// the same pointer for RCE dominance, and a reloaded pointer the
/// bounds pass cannot prove (its only `tchk` must survive).
fn heap_copy() -> Module {
    let mut mb = ModuleBuilder::new();
    let g = mb.global("table", 16);
    let mut f = mb.func("main");
    let p = f.malloc_bytes(64);
    let one = f.konst(1);
    f.store(one, p, 0, Width::U64);
    f.store(one, p, 8, Width::U64);
    let cell = f.malloc_bytes(16);
    f.store_ptr(p, cell, 0);
    let q = f.load_ptr(cell, 0);
    let v = f.load(q, 8, Width::U64);
    let t = f.addr_of_global(g);
    f.store(v, t, 0, Width::U64);
    f.free(cell);
    f.free(p);
    f.ret(Some(v));
    f.finish();
    mb.finish()
}

/// Register pressure: fourteen values defined up front and all still
/// live at the final reduction, so the `-O1` linear-scan allocator
/// (twelve pool registers) must spill — the golden pins which home
/// slots win registers and which stay memory-resident.
fn spill() -> Module {
    let mut mb = ModuleBuilder::new();
    let mut f = mb.func("main");
    let buf = f.stack_alloc(128);
    let mut vals = Vec::new();
    for i in 0..14i64 {
        let k = f.konst(i + 1);
        f.store(k, buf, i * 8, Width::U64);
        vals.push(f.load(buf, i * 8, Width::U64));
    }
    // First reduction in definition order, second in reverse: every
    // value's last use sits in the second chain, so all fourteen are
    // simultaneously live where the chains meet.
    let mut fwd = vals[0];
    for &v in &vals[1..] {
        fwd = f.bin(BinOp::Add, fwd, v);
    }
    let mut rev = vals[13];
    for &v in vals[..13].iter().rev() {
        rev = f.bin(BinOp::Add, rev, v);
    }
    let out = f.bin(BinOp::Sub, fwd, rev);
    f.ret(Some(out));
    f.finish();
    mb.finish()
}

/// A copy loop through two heap pointers plus a through-memory pointer
/// store: the `-O1` golden pins the metadata-op schedule — which
/// `lbdls` reloads the emitter's SRF cache elides across the
/// straight-line body, and where the `sbdl`/`sbdu` pair of the
/// `store_ptr` lands relative to the shuttle reload it feeds on.
fn ptrloop() -> Module {
    let mut mb = ModuleBuilder::new();
    let mut f = mb.func("main");
    let src = f.malloc_bytes(64);
    let dst = f.malloc_bytes(64);
    let cell = f.malloc_bytes(16);
    f.store_ptr(src, cell, 0);
    count_loop(&mut f, 8, |f, iv| {
        let off = f.bin_imm(BinOp::Sll, iv, 3);
        let s = f.gep(src, off);
        let v = f.load(s, 0, Width::U64);
        let d = f.gep(dst, off);
        f.store(v, d, 0, Width::U64);
    });
    let back = f.load_ptr(cell, 0);
    let v = f.load(back, 56, Width::U64);
    f.free(cell);
    f.free(dst);
    f.free(src);
    f.ret(Some(v));
    f.finish();
    mb.finish()
}

/// `for (i = 0; i < n; i++) body(i)` in the same shape the workloads
/// use (header / body / exit blocks), so the goldens exercise the CFG
/// annotations on a retreating edge.
fn count_loop(f: &mut FuncBuilder<'_>, n: i64, body: impl FnOnce(&mut FuncBuilder<'_>, VarId)) {
    let i = f.local();
    let z = f.konst(0);
    f.local_set(i, z);
    let head = f.new_block();
    let body_b = f.new_block();
    let done = f.new_block();
    f.jmp(head);
    f.switch_to(head);
    let iv = f.local_get(i);
    let e = f.konst(n);
    let c = f.bin(BinOp::Slt, iv, e);
    f.br(c, body_b, done);
    f.switch_to(body_b);
    let iv2 = f.local_get(i);
    body(f, iv2);
    let iv3 = f.local_get(i);
    let nx = f.bin_imm(BinOp::Add, iv3, 1);
    f.local_set(i, nx);
    f.jmp(head);
    f.switch_to(done);
}

// ------------------------------------------------------------------ passes

fn render_module(m: &Module) -> String {
    let mut s = String::new();
    for g in &m.globals {
        let _ = writeln!(s, "global {} : {} bytes", g.name, g.size);
    }
    for func in &m.funcs {
        s.push_str(&function_with_cfg(func));
    }
    s
}

fn run_pass(pass: &str, module: Module) -> String {
    match pass {
        "rce" => {
            let info = analysis::analyze(&module).expect("fixture analyzes");
            let mut instrumented = instrument::instrument(&module, &info, Scheme::Hwst128Tchk);
            let stats = rce::eliminate(&mut instrumented);
            format!(
                "; pass: rce (scheme=HWST128_tchk)\n; tchk_removed={} spatial_removed={} \
                 temporal_removed={} patterns_removed={}\n{}",
                stats.tchk_removed,
                stats.spatial_removed,
                stats.temporal_removed,
                stats.patterns_removed,
                render_module(&instrumented)
            )
        }
        "bounds" => {
            let info = analysis::analyze(&module).expect("fixture analyzes");
            let outcome = bounds::analyze(&module);
            let (instrumented, skips) = instrument::instrument_with_bounds(
                &module,
                &info,
                Scheme::Hwst128Tchk,
                Some(&outcome),
            );
            let mut s = format!(
                "; pass: bounds (scheme=HWST128_tchk)\n; derefs={} proven={}\n",
                outcome.stats.derefs, outcome.stats.proven
            );
            for (i, w) in outcome.witnesses.iter().enumerate() {
                let _ = writeln!(
                    s,
                    "; witness[{i}]: {} b{}/i{} {:?} size={} [{}, {})",
                    w.func, w.block, w.inst, w.kind, w.size, w.lo, w.hi
                );
            }
            for sk in &skips {
                let _ = writeln!(
                    s,
                    "; skip: {} b{} deref#{} -> witness[{}]",
                    sk.func, sk.block, sk.deref, sk.witness
                );
            }
            s.push_str(&render_module(&instrumented));
            s
        }
        "o1" => {
            let info = analysis::analyze(&module).expect("fixture analyzes");
            let instrumented = instrument::instrument(&module, &info, Scheme::Hwst128Tchk);
            let (prog, plan) =
                lower_with_plan_opt(&instrumented, Scheme::Hwst128Tchk, OptLevel::O1)
                    .expect("fixture lowers at -O1");
            let mut s = String::from("; pass: o1 (scheme=HWST128_tchk)\n");
            for fp in &plan.funcs {
                let _ = writeln!(
                    s,
                    "; fn {}: frame={} alloca_base={} meta_stores={} checks={}",
                    fp.name,
                    fp.frame_size,
                    fp.alloca_base,
                    fp.meta_stores,
                    fp.checks.len()
                );
                let _ = writeln!(s, ";   ptr_slots: {:?}", fp.ptr_slots);
                if fp.reg_assign.is_empty() {
                    let _ = writeln!(s, ";   reg_assign: (none)");
                } else {
                    let pairs: Vec<String> = fp
                        .reg_assign
                        .iter()
                        .map(|(slot, r)| format!("{r}<-slot{slot}"))
                        .collect();
                    let _ = writeln!(s, ";   reg_assign: {}", pairs.join(" "));
                }
                for (i, ins) in prog.instrs()[fp.start..fp.start + fp.len]
                    .iter()
                    .enumerate()
                {
                    let pc = fp.start_pc + i as u64 * 4;
                    let _ = writeln!(s, "{pc:#07x}  {ins}");
                }
            }
            s
        }
        // Zoo instrumentation goldens: the inline wide-pointer scheme
        // (shadow transfers of all four metadata words + inline
        // spatial/temporal compare-and-branch) and the heap-only tagging
        // scheme (no stack binds, no frame lock, `tchk` checks) — the
        // two zoo designs whose emitted shapes differ most from the
        // published four.
        "l4pointer" => zoo_instrument(Scheme::L4Pointer, module),
        "heapsafe" => zoo_instrument(Scheme::HeapSafe, module),
        other => panic!("unknown pass {other:?} in filetests"),
    }
}

fn zoo_instrument(scheme: Scheme, module: Module) -> String {
    let info = analysis::analyze(&module).expect("fixture analyzes");
    let instrumented = instrument::instrument(&module, &info, scheme);
    format!(
        "; pass: instrument (scheme={})\n{}",
        scheme.label(),
        render_module(&instrumented)
    )
}

// ------------------------------------------------------------------ runner

fn fixture(name: &str) -> Module {
    match name {
        "straightline" => straightline(),
        "loop_sum" => loop_sum(),
        "heap_copy" => heap_copy(),
        "spill" => spill(),
        "ptrloop" => ptrloop(),
        other => panic!("unknown fixture {other:?} in filetests"),
    }
}

const FIXTURES: &[&str] = &["straightline", "loop_sum", "heap_copy", "spill", "ptrloop"];
const PASSES: &[&str] = &["rce", "bounds", "o1", "l4pointer", "heapsafe"];

fn filetests_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/filetests")
}

fn first_diff(expected: &str, actual: &str) -> String {
    for (i, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
        if e != a {
            return format!(
                "first diff at line {}:\n  expected: {e}\n  actual:   {a}",
                i + 1
            );
        }
    }
    format!(
        "line counts differ: expected {} lines, got {}",
        expected.lines().count(),
        actual.lines().count()
    )
}

#[test]
fn goldens_match() {
    let dir = filetests_dir();
    let bless = std::env::var_os("BLESS").is_some();
    let mut failures = Vec::new();
    for fx in FIXTURES {
        for pass in PASSES {
            let path = dir.join(format!("{fx}.{pass}.golden"));
            let actual = run_pass(pass, fixture(fx));
            if bless {
                std::fs::write(&path, &actual).expect("write golden");
                continue;
            }
            let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                panic!("missing golden {}: {e} (run with BLESS=1)", path.display())
            });
            if expected != actual {
                failures.push(format!(
                    "{fx}.{pass}: output drifted from golden ({}).\n{}\n\
                     If the change is intentional, regenerate with BLESS=1.",
                    path.display(),
                    first_diff(&expected, &actual)
                ));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n\n"));
}

#[test]
fn every_golden_names_a_known_fixture_and_pass() {
    // Catches stale goldens left behind by a renamed fixture.
    for entry in std::fs::read_dir(filetests_dir()).expect("filetests dir exists") {
        let name = entry.expect("dir entry").file_name();
        let name = name.to_string_lossy();
        let mut parts = name.rsplitn(3, '.');
        let ext = parts.next().unwrap_or("");
        let pass = parts.next().unwrap_or("");
        let fx = parts.next().unwrap_or("");
        assert_eq!(ext, "golden", "unexpected file {name} in filetests/");
        assert!(PASSES.contains(&pass), "{name}: unknown pass {pass:?}");
        assert!(FIXTURES.contains(&fx), "{name}: unknown fixture {fx:?}");
    }
}
