//! The experiments `hwst-bench` dispatches to. Each prints its table to
//! stdout and returns its `sim` payload (and X1 its `host` payload), its
//! failed jobs and whether its gates passed; the driver owns flags,
//! timing, the artifact envelope and the exit code. Worker counts and
//! wall times go to stderr (printed by the driver), so stdout is
//! byte-identical for any `--jobs N` wherever the table itself is
//! deterministic.

use crate::{Ctx, Outcome};
use hwst128::compiler::{
    binval, compile, compile_with_options, ir::Module, lint, CompileOptions, OptLevel, Scheme,
};
use hwst128::config_for;
use hwst128::exec::{run_fast, BlockCache};
use hwst128::hwcost::hwst128_report;
use hwst128::juliet::{execute_detects, sample_reachable, CoverageReport};
use hwst128::mem::{LinearShadow, ShadowTrie};
use hwst128::metadata::{CompressionConfig, Metadata, ShadowCodec};
use hwst128::pipeline::{CacheConfig, ShadowLayout};
use hwst128::run_scheme;
use hwst128::sim::inject::OutcomeCounts;
use hwst128::sim::{Machine, SafetyConfig};
use hwst128::telemetry::Breakdown;
use hwst128::workloads::{all, spec_suite, Scale, Suite, Workload};
use hwst_bench::exec::{exec_geomean, try_exec_row};
use hwst_bench::profile::{profile_mean_fractions, try_profile_row, try_profile_trace};
use hwst_bench::runs::{
    binval_jobs, fig6_jobs, keybuffer_jobs, resilience_jobs, resilience_rows, workload_jobs,
    BoundsRow, BoundsRun, BINVAL_MASTER_SEED,
};
use hwst_bench::summary::{
    binval_sim, boundscheck_sim, exec_payloads, fig4_o1_sim, fig4_sim, fig5_sim, fig6_sim,
    overhead_triple, profile_sim, resilience_sim, zoo_sim,
};
use hwst_bench::{
    fig4_geomean, fig5_geomean, geomean_baseline_speedup, resilience_guarantee_violations,
    try_fig4_row, try_fig5_row, Fig4Row, ResilienceConfig,
};
use hwst_harness::{FailedJob, Job, Json};
use hwst_zoo::{
    design_points, frontier_flags, merge_inject, model_geomeans, zoo_coverage_jobs,
    zoo_inject_jobs, zoo_row_jobs, zoo_violations, Design, ZooConfig, ZooReport,
};

/// A percentage column.
fn pct(v: f64) -> String {
    format!("{v:>8.1}%")
}

fn print_failed(failed: &[FailedJob]) {
    for f in failed {
        println!("{} FAILED {}", f.label, f.error);
    }
}

fn workload(name: &str) -> Result<Workload, String> {
    Workload::by_name(name).ok_or_else(|| format!("unknown workload `{name}`"))
}

/// Fig. 4: performance overhead of MiBench, Olden and SPEC2006 under
/// SBCETS, HWST128 and HWST128_tchk (Eq. 7). A workload that fails
/// prints as a FAILED row and fails the run; the rest of the table
/// still prints.
pub fn fig4(cx: &mut Ctx) -> Result<Outcome, String> {
    let scale = cx.scale();
    println!("Fig. 4 — performance overhead (Eq. 7), scale {scale:?}");
    println!(
        "{:<12} {:<8} {:>12} {:>9} {:>9} {:>9}",
        "workload", "suite", "base cycles", "SBCETS", "HWST128", "_tchk"
    );
    let (rows, failed) = cx.settle(workload_jobs("fig4", all(), move |wl| {
        try_fig4_row(wl, scale, OptLevel::O0)
    }));
    for r in &rows {
        println!(
            "{:<12} {:<8} {:>12} {} {} {}",
            r.name,
            r.suite.to_string(),
            r.baseline_cycles,
            pct(r.overhead_pct[0]),
            pct(r.overhead_pct[1]),
            pct(r.overhead_pct[2]),
        );
    }
    print_failed(&failed);
    let suites: Vec<(Suite, [f64; 3])> = [Suite::MiBench, Suite::Olden, Suite::Spec]
        .into_iter()
        .filter_map(|suite| {
            let sub: Vec<Fig4Row> = rows.iter().filter(|r| r.suite == suite).cloned().collect();
            (!sub.is_empty()).then(|| (suite, fig4_geomean(&sub)))
        })
        .collect();
    for (suite, g) in &suites {
        println!(
            "{:<12} {:<8} {:>12} {} {} {}",
            "(geomean)",
            suite.to_string(),
            "",
            pct(g[0]),
            pct(g[1]),
            pct(g[2])
        );
    }
    let g = fig4_geomean(&rows);
    println!(
        "{:<12} {:<8} {:>12} {} {} {}",
        "Geo. mean",
        "",
        "",
        pct(g[0]),
        pct(g[1]),
        pct(g[2])
    );
    println!("paper      : SBCETS 441.4%  HWST128 152.9%  HWST128_tchk 94.9%");
    Ok(Outcome::new(fig4_sim(&rows, &suites, &g), failed))
}

/// Fig. 5: speedup over SoftBoundCETS (Eq. 8) for BOGO, WatchdogLite
/// narrow/wide and HWST128 on the SPEC workloads.
pub fn fig5(cx: &mut Ctx) -> Result<Outcome, String> {
    let scale = cx.scale();
    println!("Fig. 5 — speedup over SBCETS (Eq. 8), scale {scale:?}");
    println!(
        "{:<10} {:>7} {:>12} {:>10} {:>9}",
        "workload", "BOGO", "WDL(narrow)", "WDL(wide)", "HWST128"
    );
    let (rows, failed) = cx.settle(workload_jobs("fig5", spec_suite(), move |wl| {
        try_fig5_row(wl, scale)
    }));
    for r in &rows {
        println!(
            "{:<10} {:>6.2}x {:>11.2}x {:>9.2}x {:>8.2}x",
            r.name, r.speedup[0], r.speedup[1], r.speedup[2], r.speedup[3]
        );
    }
    print_failed(&failed);
    let g = fig5_geomean(&rows);
    println!(
        "{:<10} {:>6.2}x {:>11.2}x {:>9.2}x {:>8.2}x",
        "Geo. mean", g[0], g[1], g[2], g[3]
    );
    println!("paper     :  1.31x        1.58x      1.64x     3.74x");
    Ok(Outcome::new(fig5_sim(&rows, &g), failed))
}

/// Fig. 6: NIST-Juliet-style security coverage of GCC, ASAN, SBCETS and
/// HWST128. SBCETS/HWST128 detections are measured by executing every
/// `--stride`th case (default 1, the full 8366-case suite) in chunks on
/// the pool; a failed chunk's cases are left out of `total_cases`.
pub fn fig6(cx: &mut Ctx) -> Result<Outcome, String> {
    let stride = cx.args.stride.unwrap_or(1);
    println!("Fig. 6 — security coverage (SBCETS/HWST128 measured, stride {stride})");
    let (batches, failed) = cx.settle(fig6_jobs(stride));
    let mut report = CoverageReport::default();
    for d in batches.iter().flatten() {
        report.absorb(d);
    }
    println!("{report}");
    print_failed(&failed);
    println!();
    println!("paper: GCC 11.20%  ASAN 58.08%  SBCETS 64.49%  HWST128 63.63%");
    Ok(Outcome::new(
        fig6_sim(&report).set("stride", stride),
        failed,
    ))
}

/// §5.3: the hardware-cost table (LUTs, FFs, critical path) for the
/// given keybuffer entry count (default 1, the published build).
pub fn hwcost(cx: &mut Ctx) -> Result<Outcome, String> {
    let entries = match cx.args.positional.as_slice() {
        [] => 1,
        [raw] => raw
            .parse()
            .map_err(|_| format!("`{raw}` is not a keybuffer entry count"))?,
        _ => return Err("takes at most one keybuffer entry count".to_string()),
    };
    let report = hwst128_report(entries);
    println!("§5.3 — hardware cost (keybuffer entries: {entries})");
    println!("{report}");
    println!();
    println!("paper: +1536 LUTs (+4.11%), +112 FFs (+0.66%), 5.26 ns -> 6.45 ns");
    let cost = |luts: u32, ffs: u32| Json::obj().set("luts", luts).set("ffs", ffs);
    let modules = report.modules.iter().map(|m| {
        Json::obj()
            .set("name", m.name)
            .set("luts", m.cost.luts)
            .set("ffs", m.cost.ffs)
    });
    let added = report.delta();
    let sim = Json::obj()
        .set("keybuffer_entries", entries)
        .set("modules", Json::Arr(modules.collect()))
        .set("added", cost(added.luts, added.ffs))
        .set("baseline", cost(report.baseline.luts, report.baseline.ffs))
        .set("lut_overhead_pct", report.lut_overhead_pct())
        .set("ff_overhead_pct", report.ff_overhead_pct())
        .set("critical_path_base_ns", report.critical_path_base_ns)
        .set("critical_path_ns", report.critical_path_ns);
    Ok(Outcome::new(sim, Vec::new()))
}

/// A1: keybuffer size sweep on the temporal-heavy workloads (paper
/// §3.5/§5.1 — the keybuffer is what separates HWST128_tchk from
/// HWST128; the published FF budget implies a single-entry buffer).
pub fn ablation_keybuffer(cx: &mut Ctx) -> Result<Outcome, String> {
    let sizes = [0usize, 1, 2, 4, 8, 16];
    let names = ["bzip2", "hmmer", "health", "math"];
    println!("A1 — keybuffer size sweep (HWST128_tchk cycles)");
    print!("{:<10}", "workload");
    for s in sizes {
        print!("{s:>12}");
    }
    println!();
    let (rows, failed) = cx.settle(keybuffer_jobs(&names, &sizes, cx.scale())?);
    let mut sim_rows = Vec::new();
    for row in &rows {
        print!("{:<10}", row.name);
        let base = row.cycles[0];
        for &c in &row.cycles {
            print!("{:>11.3}x", base as f64 / c as f64);
        }
        println!();
        let cycles = row.cycles.iter().map(|&c| Json::from(c));
        sim_rows.push(
            Json::obj()
                .set("name", row.name.as_str())
                .set("cycles", Json::Arr(cycles.collect())),
        );
    }
    print_failed(&failed);
    println!("(values are speedup over the no-keybuffer configuration)");
    let sizes = sizes.iter().map(|&s| Json::from(s));
    let sim = Json::obj()
        .set("keybuffer_entries", Json::Arr(sizes.collect()))
        .set("rows", Json::Arr(sim_rows));
    Ok(Outcome::new(sim, failed))
}

/// A2: compression field-width sweep (paper §3.3 — "the range bit
/// needs to be at least 25 bits to pass the SPEC2006"; the lock field
/// sizes the live-allocation population).
pub fn ablation_compression(_cx: &mut Ctx) -> Result<Outcome, String> {
    println!("A2 — range-width sweep: largest expressible object");
    println!(
        "{:>6} {:>18} {:>28}",
        "bits", "max object", "SPEC-class object fits?"
    );
    // The paper's SPEC runs need objects just under 2^28 bytes.
    let spec_object: u64 = (1 << 28) - 8;
    let mut range = Vec::new();
    for range_bits in [20u8, 22, 24, 25, 26, 28, 29] {
        let cfg = CompressionConfig::new(35, range_bits, 20, 64 - 20)
            .map_err(|e| format!("range sweep: {e}"))?;
        let codec = ShadowCodec::new(cfg, 0x4000_0000);
        let fits = codec.compress_spatial(0, spec_object).is_ok();
        println!(
            "{:>6} {:>18} {:>28}",
            range_bits,
            cfg.max_range(),
            if fits { "yes" } else { "NO (SPEC would trap)" }
        );
        range.push(
            Json::obj()
                .set("bits", u32::from(range_bits))
                .set("max_object", cfg.max_range())
                .set("spec_object_fits", fits),
        );
    }

    println!();
    println!("A2 — lock-width sweep: live allocations supported");
    println!("{:>6} {:>18}", "bits", "lock entries");
    let mut lock = Vec::new();
    for lock_bits in [12u8, 16, 18, 20, 22] {
        let cfg = CompressionConfig::new(35, 29, lock_bits, 64 - lock_bits)
            .map_err(|e| format!("lock sweep: {e}"))?;
        println!("{:>6} {:>18}", lock_bits, cfg.lock_entries());
        lock.push(
            Json::obj()
                .set("bits", u32::from(lock_bits))
                .set("lock_entries", cfg.lock_entries()),
        );
    }

    println!();
    println!("round-trip sanity at the paper's layout (35/29/20/44):");
    let codec = ShadowCodec::new(CompressionConfig::SPEC_DEFAULT, 0x4000_0000);
    let md = Metadata {
        base: 0x1000_0000,
        bound: 0x1000_4000,
        key: 0xfeed,
        lock: 0x4000_0000 + 8 * 1234,
    };
    let c = codec.compress(md).map_err(|e| format!("round trip: {e}"))?;
    let back = codec.decompress(c);
    println!("  {md}  ->  {c}  ->  {back}");
    let sim = Json::obj()
        .set("spec_object_bytes", spec_object)
        .set("range", Json::Arr(range))
        .set("lock", Json::Arr(lock))
        .set(
            "round_trip",
            Json::Arr(vec![
                md.to_string().into(),
                c.to_string().into(),
                back.to_string().into(),
            ]),
        );
    Ok(Outcome::new(sim, Vec::new()))
}

/// HWST128_tchk cycles of `wl` at Test scale with the shadow kept in
/// `layout`.
fn cycles_with_layout(wl: &Workload, layout: ShadowLayout) -> Result<u64, String> {
    let prog = compile(&wl.module(Scale::Test), Scheme::Hwst128Tchk)
        .map_err(|e| format!("{}: {e}", wl.name))?;
    let mut cfg = SafetyConfig::default();
    cfg.pipeline.shadow_layout = layout;
    let exit = run_fast(
        &mut Machine::new(prog, cfg),
        wl.fuel(Scale::Test),
        &mut BlockCache::new(),
    )
    .map_err(|e| format!("{}: {e}", wl.name))?;
    Ok(exit.stats.total_cycles())
}

/// A3: linear-mapped shadow memory vs the shadow trie (paper §2 — the
/// trie utilises address space better; the linear map is
/// hardware-friendly with zero-indirection lookups).
pub fn ablation_shadow(_cx: &mut Ctx) -> Result<Outcome, String> {
    println!("A3 — shadow layout: lookup cost and address-space footprint");
    let linear = LinearShadow::new(0x1_0000_0000);
    let mut trie = ShadowTrie::new();

    // A pointer-dense working set: 4096 containers over a 1 MiB heap,
    // plus a distant stack page (sparse address-space usage).
    let mut containers: Vec<u64> = (0..4096u64).map(|i| 0x0100_0000 + i * 256).collect();
    containers.extend((0..64u64).map(|i| 0x07ff_0000 + i * 8));
    for &c in &containers {
        trie.store(c, c, c ^ 0xffff);
    }

    // Lookup cost (dependent memory accesses per metadata access).
    println!(
        "{:<22} {:>24} {:>20}",
        "layout", "lookup mem accesses", "addr-space reserved"
    );
    println!(
        "{:<22} {:>24} {:>20}",
        "linear map (HWST128)", "0 (address arithmetic)", "2/3 of user space"
    );
    println!(
        "{:<22} {:>24} {:>20}",
        "trie (SBCETS)",
        format!("{} (dir + leaf)", ShadowTrie::LOOKUP_MEM_OPS),
        format!("{} leaf tables", trie.leaf_tables())
    );

    // Shadow addresses of the working set under the linear map span:
    let shadow_addrs = containers.iter().map(|&c| linear.shadow_addr(c));
    let lo = shadow_addrs.clone().min().unwrap_or_default();
    let hi = shadow_addrs.max().unwrap_or_default();
    println!();
    println!(
        "linear map shadow span for this working set: {:.1} MiB",
        (hi - lo) as f64 / (1 << 20) as f64
    );
    println!(
        "trie leaf storage for the same set:          {:.1} KiB",
        (trie.leaf_tables() * (1 << 14) * 16) as f64 / 1024.0
    );
    println!();
    println!("-> the linear map trades address space for zero-latency SMAC");
    println!("   address computation; the trie pays two dependent loads per");
    println!("   metadata access (what the SBCETS helpers model).");

    // Measured: HWST128_tchk cycles if the hardware used a trie instead.
    println!();
    println!("measured HWST128_tchk cycles, linear vs trie shadow:");
    println!(
        "{:<12} {:>12} {:>12} {:>9}",
        "workload", "linear", "trie", "slowdown"
    );
    let mut rows = Vec::new();
    for name in ["treeadd", "em3d", "bzip2"] {
        let wl = workload(name)?;
        let lin = cycles_with_layout(&wl, ShadowLayout::Linear)?;
        let trie_cycles = cycles_with_layout(&wl, ShadowLayout::Trie)?;
        println!(
            "{:<12} {:>12} {:>12} {:>8.2}x",
            name,
            lin,
            trie_cycles,
            trie_cycles as f64 / lin as f64
        );
        rows.push(
            Json::obj()
                .set("name", name)
                .set("linear_cycles", lin)
                .set("trie_cycles", trie_cycles),
        );
    }
    println!("-> the paper's choice of the linear map buys this back for free.");
    let sim = Json::obj()
        .set("containers", containers.len())
        .set("trie_lookup_mem_ops", ShadowTrie::LOOKUP_MEM_OPS)
        .set("trie_leaf_tables", trie.leaf_tables())
        .set("linear_span_bytes", hi - lo)
        .set("rows", Json::Arr(rows));
    Ok(Outcome::new(sim, Vec::new()))
}

/// Eq. 7 overhead of `scheme` on `wl` (Test scale) with the D-cache
/// replaced by `dcache`.
fn dcache_overhead(wl: &Workload, scheme: Scheme, dcache: CacheConfig) -> Result<f64, String> {
    let run = |scheme: Scheme| -> Result<u64, String> {
        let mut cfg = config_for(scheme);
        cfg.pipeline.dcache = dcache;
        let prog = compile(&wl.module(Scale::Test), scheme)
            .map_err(|e| format!("{} ({scheme}): {e}", wl.name))?;
        let fuel = wl.fuel(Scale::Test);
        let exit = run_fast(&mut Machine::new(prog, cfg), fuel, &mut BlockCache::new())
            .map_err(|e| format!("{} ({scheme}): {e}", wl.name))?;
        Ok(exit.stats.total_cycles())
    };
    Ok((run(scheme)? as f64 / run(Scheme::None)? as f64 - 1.0) * 100.0)
}

/// A4 (extension): D-cache sensitivity. HWST128's metadata traffic
/// shares the D-cache with user data (the paper bypasses only
/// keybuffer hits); this sweep shows how the overhead of each scheme
/// responds to cache size and miss penalty. One job per cache point.
pub fn ablation_dcache(cx: &mut Ctx) -> Result<Outcome, String> {
    let wl = workload("lbm")?;
    println!(
        "A4 — D-cache sensitivity on {} (overhead %, Eq. 7)",
        wl.name
    );
    println!(
        "{:<26} {:>9} {:>9} {:>9}",
        "dcache", "SBCETS", "HWST128", "_tchk"
    );
    let sweeps = [
        (
            "4 KiB, 20-cycle miss",
            CacheConfig {
                sets: 16,
                ways: 4,
                line_bytes: 64,
                miss_penalty: 20,
            },
        ),
        ("16 KiB, 20-cycle miss", CacheConfig::default()),
        (
            "64 KiB, 20-cycle miss",
            CacheConfig {
                sets: 256,
                ways: 4,
                line_bytes: 64,
                miss_penalty: 20,
            },
        ),
        (
            "16 KiB, 50-cycle miss",
            CacheConfig {
                miss_penalty: 50,
                ..CacheConfig::default()
            },
        ),
        (
            "16 KiB, 100-cycle miss",
            CacheConfig {
                miss_penalty: 100,
                ..CacheConfig::default()
            },
        ),
    ];
    let jobs: Vec<Job<(&'static str, [f64; 3])>> = sweeps
        .into_iter()
        .map(|(label, dc)| {
            Job::new(format!("a4/{label}"), move || {
                Ok((
                    label,
                    [
                        dcache_overhead(&wl, Scheme::Sbcets, dc)?,
                        dcache_overhead(&wl, Scheme::Hwst128, dc)?,
                        dcache_overhead(&wl, Scheme::Hwst128Tchk, dc)?,
                    ],
                ))
            })
        })
        .collect();
    let (rows, failed) = cx.settle(jobs);
    for (label, o) in &rows {
        println!("{:<26} {:>8.1}% {:>8.1}% {:>8.1}%", label, o[0], o[1], o[2]);
    }
    print_failed(&failed);
    println!();
    println!("-> the kernels' working sets mostly fit even a 4 KiB cache, so");
    println!("   overheads are remarkably stable across the sweep — metadata");
    println!("   traffic is dominated by *instruction count*, not misses,");
    println!("   which is exactly why the paper attacks it with compression");
    println!("   and the keybuffer rather than with a bigger cache.");
    let rows = rows.iter().map(|(label, o)| {
        Json::obj()
            .set("dcache", *label)
            .set("overhead_pct", overhead_triple(o))
    });
    let sim = Json::obj()
        .set("workload", wl.name)
        .set("rows", Json::Arr(rows.collect()));
    Ok(Outcome::new(sim, failed))
}

/// A6 (paper lineage): SHORE vs HWST128 — the cost of adding
/// *temporal* safety on top of the spatial-only predecessor (DAC 2021).
pub fn ablation_shore(_cx: &mut Ctx) -> Result<Outcome, String> {
    println!("A6 — spatial-only (SHORE) vs complete safety (Eq. 7 overhead)");
    println!(
        "{:<11} {:>9} {:>13} {:>14}",
        "workload", "SHORE", "HWST128_tchk", "temporal cost"
    );
    let mut rows = Vec::new();
    for name in ["sha", "susan", "treeadd", "health", "bzip2", "hmmer"] {
        let wl = workload(name)?;
        let module = wl.module(Scale::Test);
        let fuel = wl.fuel(Scale::Test);
        let cycles = |s: Scheme| -> Result<f64, String> {
            Ok(run_scheme(&module, CompileOptions::new(s), fuel)
                .map_err(|e| format!("{name}: {e}"))?
                .stats
                .total_cycles() as f64)
        };
        let base = cycles(Scheme::None)?;
        let shore = (cycles(Scheme::Shore)? / base - 1.0) * 100.0;
        let full = (cycles(Scheme::Hwst128Tchk)? / base - 1.0) * 100.0;
        println!(
            "{:<11} {:>8.1}% {:>12.1}% {:>13.1}pp",
            name,
            shore,
            full,
            full - shore
        );
        rows.push(
            Json::obj()
                .set("name", name)
                .set("shore_pct", shore)
                .set("hwst128_tchk_pct", full),
        );
    }
    println!();
    println!("-> with tchk + keybuffer, complete (spatial+temporal) safety");
    println!("   costs only a few overhead points more than SHORE's");
    println!("   spatial-only protection — the paper's core pitch.");
    let sim = Json::obj().set("rows", Json::Arr(rows));
    Ok(Outcome::new(sim, Vec::new()))
}

/// Nonzero shadow bytes for heap/global containers after running `wl`
/// under `scheme`. The stack's shadow window is excluded: in the `-O0`
/// back-end every frame slot doubles as a hardware metadata home
/// (register-spill shadow traffic), which is codegen bookkeeping, not
/// the paper's through-memory propagation.
fn container_shadow_bytes(wl: &Workload, scheme: Scheme) -> Result<u64, String> {
    let prog = compile(&wl.module(Scale::Test), scheme).map_err(|e| format!("{}: {e}", wl.name))?;
    let cfg = config_for(scheme);
    let l = cfg.layout;
    let shadow = |a: u64| (a << 2) + l.shadow_offset;
    let mut m = Machine::new(prog, cfg);
    run_fast(&mut m, wl.fuel(Scale::Test), &mut BlockCache::new())
        .map_err(|e| format!("{}: {e}", wl.name))?;
    let all = m.mem().nonzero_bytes_in(l.shadow_offset, u64::MAX);
    let stack = m
        .mem()
        .nonzero_bytes_in(shadow(l.stack_limit()), shadow(l.stack_top));
    Ok(all - stack)
}

/// A7 (the compression claim, measured): shadow-memory footprint of
/// through-memory metadata propagation with 128-bit compressed
/// metadata (HWST128) vs 256-bit uncompressed metadata (SBCETS).
pub fn ablation_footprint(_cx: &mut Ctx) -> Result<Outcome, String> {
    println!("A7 — container-shadow footprint (nonzero bytes, stack excluded)");
    println!(
        "{:<11} {:>16} {:>18} {:>8}",
        "workload", "SBCETS (256b)", "HWST128 (128b)", "ratio"
    );
    let mut ratios = Vec::new();
    let mut rows = Vec::new();
    for name in ["treeadd", "em3d", "health", "tsp", "mst", "perimeter"] {
        let wl = workload(name)?;
        let sb = container_shadow_bytes(&wl, Scheme::Sbcets)?;
        let hw = container_shadow_bytes(&wl, Scheme::Hwst128Tchk)?;
        let ratio = sb as f64 / hw as f64;
        ratios.push(ratio);
        println!("{name:<11} {sb:>14} B {hw:>16} B {ratio:>7.2}x");
        rows.push(
            Json::obj()
                .set("name", name)
                .set("sbcets_bytes", sb)
                .set("hwst128_bytes", hw),
        );
    }
    let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
    println!();
    println!(
        "mean ratio {mean:.2}x measured on nonzero bytes. Architecturally the \
record"
    );
    println!("shrinks exactly 2x (32 -> 16 bytes per container); the measured");
    println!("ratio is lower because uncompressed records carry many zero");
    println!("bytes (high address bytes, small keys) that the counter skips —");
    println!("the denser compressed encoding is precisely the paper's point.");
    let sim = Json::obj()
        .set("rows", Json::Arr(rows))
        .set("mean_ratio", mean);
    Ok(Outcome::new(sim, Vec::new()))
}

/// Static code size (extension): the instrumentation bloat factor per
/// scheme. `--scheme A,B,...` narrows or widens the column set (the
/// zoo designs are valid labels); the default is the published five.
pub fn codesize(cx: &mut Ctx) -> Result<Outcome, String> {
    let schemes = cx.args.schemes.clone().unwrap_or_else(|| {
        vec![
            Scheme::None,
            Scheme::Sbcets,
            Scheme::Hwst128,
            Scheme::Hwst128Tchk,
            Scheme::Shore,
        ]
    });
    if schemes.is_empty() {
        return Err("empty --scheme list".to_string());
    }
    println!("static code size (machine instructions, whole program)");
    print!("{:<11}", "workload");
    for s in &schemes {
        print!(" {:>12}", s.label());
    }
    println!();
    let mut totals = vec![0usize; schemes.len()];
    let mut rows = Vec::new();
    for name in ["sha", "dijkstra", "treeadd", "health", "bzip2"] {
        let module = workload(name)?.module(Scale::Test);
        print!("{name:<11}");
        let mut insts = Json::obj();
        for (i, &s) in schemes.iter().enumerate() {
            let prog = compile(&module, s).map_err(|e| format!("{name}: {e}"))?;
            print!(" {:>12}", prog.len());
            totals[i] += prog.len();
            insts = insts.set(s.label(), prog.len());
        }
        println!();
        rows.push(Json::obj().set("name", name).set("insts", insts));
    }
    print!("{:<11}", "TOTAL");
    for t in &totals {
        print!(" {t:>12}");
    }
    println!();
    println!();
    if let Some(base) = schemes
        .iter()
        .position(|&s| s == Scheme::None)
        .map(|i| totals[i])
    {
        for (i, &s) in schemes.iter().enumerate() {
            if s == Scheme::None {
                continue;
            }
            println!(
                "{:<13} {:>5.2}x the baseline text size",
                s.label(),
                totals[i] as f64 / base as f64
            );
        }
        println!();
    }
    println!("-> full HWST128 (tchk) is the smallest *complete*-protection");
    println!("   text: one tchk replaces the software key-check sequence, and");
    println!("   bndr/sbd pairs replace SBCETS's runtime calls. The no-tchk");
    println!("   variant is the largest — it pays for hardware metadata AND");
    println!("   software temporal checks, exactly why the paper adds tchk.");
    let mut total = Json::obj();
    for (s, t) in schemes.iter().zip(totals) {
        total = total.set(s.label(), t);
    }
    let sim = Json::obj().set("rows", Json::Arr(rows)).set("total", total);
    Ok(Outcome::new(sim, Vec::new()))
}

/// A9 and the binary-level translation-validation gate: every workload
/// under every scheme lowered, validated against the IR-level verifier
/// and attacked by the seeded mutation campaign (8 seeds per scheme).
/// Any divergence, lowering finding or surviving mutant fails the run.
/// At `--opt O1` the register-allocation campaign replaces the
/// metadata-plumbing one.
pub fn binval(cx: &mut Ctx) -> Result<Outcome, String> {
    let scale = cx.scale();
    let opt = cx.args.opt;
    let seeds_per_scheme: u64 = 8;
    println!(
        "binval — binary-level translation validation [-{}]",
        opt.label()
    );
    println!(
        "mutation campaign ({}): {seeds_per_scheme} seed(s)/scheme, master seed {:#x}",
        match opt {
            OptLevel::O0 => "metadata plumbing",
            OptLevel::O1 => "register allocation",
        },
        BINVAL_MASTER_SEED
    );
    let (rows, failed) = cx.settle(binval_jobs(scale, seeds_per_scheme, opt));
    println!(
        "{:<10} {:<12} {:>7} {:>6} {:>9} {:>9} {:>7}",
        "workload", "scheme", "checked", "rce-", "inbounds", "redundant", "mutants"
    );
    for r in &rows {
        println!(
            "{:<10} {:<12} {:>7} {:>6} {:>9} {:>9} {:>3}/{:<3}",
            r.name,
            r.scheme,
            r.checked_ops,
            r.rce_removed,
            r.discharged_in_bounds,
            r.discharged_redundant,
            r.mutants_killed,
            r.mutants
        );
    }
    print_failed(&failed);
    let checked: usize = rows.iter().map(|r| r.checked_ops).sum();
    let discharged: usize = rows.iter().map(|r| r.discharged()).sum();
    let mutants: usize = rows.iter().map(|r| r.mutants).sum();
    println!("A9: {discharged}/{checked} checks discharged at binary level beyond IR-level RCE");
    println!(
        "mutation: {mutants} mutant(s), all killed: {}",
        failed.is_empty()
    );
    Ok(Outcome::new(
        binval_sim(seeds_per_scheme, opt, &rows),
        failed,
    ))
}

/// The IR-level static safety linter over the workload modules (all of
/// them, or the ones named as positional arguments). Fails the run on
/// any diagnostic.
pub fn lint(cx: &mut Ctx) -> Result<Outcome, String> {
    let scale = cx.scale();
    let targets: Vec<Workload> = if cx.args.positional.is_empty() {
        all()
    } else {
        cx.args
            .positional
            .iter()
            .map(|n| workload(n))
            .collect::<Result<_, _>>()?
    };
    let mut total = 0usize;
    let mut rows = Vec::new();
    for wl in &targets {
        let diags = lint::lint(&wl.module(scale));
        for d in &diags {
            println!("{}: {d}", wl.name);
        }
        total += diags.len();
        rows.push(
            Json::obj().set("name", wl.name).set(
                "diagnostics",
                Json::Arr(
                    diags
                        .iter()
                        .map(|d| {
                            Json::obj()
                                .set("func", d.func.as_str())
                                .set("block", d.block)
                                .set("inst", d.inst)
                                .set("severity", d.severity.to_string())
                                .set("cwe", d.cwe)
                                .set("message", d.message.as_str())
                        })
                        .collect(),
                ),
            ),
        );
    }
    println!("{total} diagnostic(s) across {} workload(s)", targets.len());
    let sim = Json::obj().set("total", total).set("rows", Json::Arr(rows));
    Ok(Outcome {
        passed: total == 0,
        ..Outcome::new(sim, Vec::new())
    })
}

fn outcome_cell(c: &OutcomeCounts) -> String {
    format!(
        "{:>5} {:>5} {:>6} {:>6} {:>4} {:>7.3}",
        c.detected,
        c.masked,
        c.silent,
        c.machine_fault,
        c.not_applied,
        c.silent_fraction()
    )
}

/// R1: metadata-path fault-injection campaigns under HWST128_tchk,
/// AVF-style (detected / masked / silent / machine-fault per fault
/// class, split by target group). The run fails when lock/shadow
/// corruption is ever silent on the clean workloads.
pub fn resilience(cx: &mut Ctx) -> Result<Outcome, String> {
    let scale = cx.scale();
    let rc = ResilienceConfig::default();
    println!("R1 — metadata-path fault injection (HWST128_tchk)");
    println!(
        "targets: {} (Fig. 4 subset) + Juliet sample ({} reachable case(s)/CWE)",
        rc.workloads.join(", "),
        rc.juliet_per_cwe
    );
    println!(
        "seeds/target: {}  master seed: {:#x}",
        rc.seeds_per_target, rc.master_seed
    );
    let (cells, failed) = cx.settle(resilience_jobs(&rc, scale)?);
    let rows = resilience_rows(cells);
    let hdr = "  det  mask silent mfault  n/a     avf";
    println!("{:<17}|{:^39}|{:^39}", "fault class", "workloads", "juliet");
    println!("{:<17}|{hdr} |{hdr}", "");
    for r in &rows {
        println!(
            "{:<17}| {} | {}",
            r.class.name(),
            outcome_cell(&r.workloads),
            outcome_cell(&r.juliet)
        );
    }
    print_failed(&failed);
    let bad = resilience_guarantee_violations(&rows);
    if bad.is_empty() {
        println!("guarantee: lock/shadow corruption never silent on clean workloads — PASS");
    }
    for r in &bad {
        println!(
            "guarantee VIOLATED: {} silent={} on clean workloads",
            r.class.name(),
            r.workloads.silent
        );
    }
    let guarantee = bad.is_empty() && failed.is_empty();
    Ok(Outcome {
        passed: guarantee,
        ..Outcome::new(resilience_sim(&rc, &rows, guarantee), failed)
    })
}

/// The instrumented schemes a witness skip can reach.
const BOUNDS_SCHEMES: [Scheme; 3] = [Scheme::Sbcets, Scheme::Hwst128, Scheme::Hwst128Tchk];

fn bounds_opts(scheme: Scheme, rce: bool, bounds: bool) -> CompileOptions {
    let mut opts = CompileOptions::new(scheme).with_verify();
    opts.rce = rce;
    opts.bounds = bounds;
    opts
}

fn bounds_run(module: &Module, fuel: u64, opts: CompileOptions) -> Result<BoundsRun, String> {
    let tag = |e: &dyn std::fmt::Display| {
        format!(
            "{} (rce={}, bounds={}): {e}",
            opts.scheme, opts.rce, opts.bounds
        )
    };
    let compiled = compile_with_options(module, opts).map_err(|e| tag(&e))?;
    let mut m = Machine::new(compiled.program, config_for(opts.scheme));
    let exit = run_fast(&mut m, fuel, &mut BlockCache::new()).map_err(|e| tag(&e))?;
    Ok(BoundsRun {
        static_checks: compiled.check_count,
        proven: compiled.bounds.proven,
        cycles: exit.stats.total_cycles(),
        dynamic_tchks: exit.stats.keybuffer_hits + exit.stats.keybuffer_misses,
    })
}

/// One A10 row: the baseline run, the `[plain, rce, rce+bounds]`
/// triple per scheme, and the witness-forging campaign.
fn bounds_row(wl: &Workload, scale: Scale, seeds: &[u64]) -> Result<BoundsRow, String> {
    let module = wl.module(scale);
    let fuel = wl.fuel(scale);
    let base_exit = run_scheme(&module, CompileOptions::new(Scheme::None), fuel)
        .map_err(|e| format!("{}: baseline: {e}", wl.name))?;
    let mut runs = Vec::new();
    for scheme in BOUNDS_SCHEMES {
        let build = |rce, bounds| {
            bounds_run(&module, fuel, bounds_opts(scheme, rce, bounds))
                .map_err(|e| format!("{}: {e}", wl.name))
        };
        let plain = build(false, false)?;
        let rce = build(true, false)?;
        let bounds = build(true, true)?;
        if rce.dynamic_tchks > plain.dynamic_tchks {
            return Err(format!(
                "{}: RCE must never add dynamic tchks under {scheme}",
                wl.name
            ));
        }
        if bounds.static_checks > rce.static_checks {
            return Err(format!(
                "{}: bounds must never add checks under {scheme}",
                wl.name
            ));
        }
        runs.push((scheme.label().to_string(), [plain, rce, bounds]));
    }
    let campaign = binval::witness_campaign(&module, seeds)
        .map_err(|e| format!("{}: campaign: {e}", wl.name))?;
    if !campaign.all_killed() {
        return Err(format!(
            "{}: witness forgery survived validation ({}/{} killed)",
            wl.name,
            campaign.killed(),
            campaign.total()
        ));
    }
    Ok(BoundsRow {
        name: wl.name.to_string(),
        suite: wl.suite,
        baseline_cycles: base_exit.stats.total_cycles(),
        runs,
        campaign_skips: campaign.skips,
        campaign_mutants: campaign.total(),
        campaign_killed: campaign.killed(),
    })
}

/// A10 (and A8): the static bounds-proof pass on top of RCE. Reruns the
/// Fig. 4 workloads under every instrumented scheme as checks-on
/// (`plain`), redundant-check elimination (`rce`, the A8 ablation) and
/// RCE plus the value-range bounds prover (`bounds`), with the
/// witness-checking verifier armed throughout. Each workload job also
/// runs the witness-forging mutation campaign; RCE adding a dynamic
/// `tchk` or a forgery surviving validation fails the job. A sampled
/// Juliet pass then requires the bounds build to detect exactly what
/// the RCE build detects.
pub fn ablation_boundscheck(cx: &mut Ctx) -> Result<Outcome, String> {
    let scale = cx.scale();
    let campaign_seeds: [u64; 3] = [3, 5, 9];
    println!("A10 — static bounds-proof check elimination (scale {scale:?})");
    println!(
        "{:<12} {:>7} {:>7} {:>7} {:>7} {:>12} {:>12} {:>8} {:>8}",
        "workload",
        "static",
        "rce",
        "bounds",
        "proven",
        "tchk rce",
        "tchk bounds",
        "ovh rce",
        "ovh bnd"
    );
    let workloads = all();
    let total_workloads = workloads.len();
    let (rows, failed) = cx.settle(workload_jobs("a10", workloads, move |wl| {
        bounds_row(wl, scale, &campaign_seeds)
    }));

    let mut improved = 0usize;
    for row in &rows {
        let t = row.tchk();
        let ovh = |r: &BoundsRun| {
            100.0 * (r.cycles as f64 - row.baseline_cycles as f64) / row.baseline_cycles as f64
        };
        println!(
            "{:<12} {:>7} {:>7} {:>7} {:>7} {:>12} {:>12} {:>7.1}% {:>7.1}%",
            row.name,
            t[0].static_checks,
            t[1].static_checks,
            t[2].static_checks,
            t[2].proven,
            t[1].dynamic_tchks,
            t[2].dynamic_tchks,
            ovh(&t[1]),
            ovh(&t[2]),
        );
        if t[2].dynamic_tchks < t[1].dynamic_tchks {
            improved += 1;
        }
    }
    print_failed(&failed);

    // Sampled Juliet detection gate: the bounds pass must cost zero
    // true positives (the root cell matrix checks the same under every
    // scheme and tier; this keeps the bench honest on every run).
    let juliet_cases = sample_reachable(5);
    let mut juliet_detected = 0usize;
    let mut juliet_lost = 0usize;
    for case in &juliet_cases {
        for scheme in [Scheme::Sbcets, Scheme::Hwst128Tchk] {
            let before = execute_detects(case, bounds_opts(scheme, true, false));
            let after = execute_detects(case, bounds_opts(scheme, true, true));
            if before {
                juliet_detected += 1;
                if !after {
                    juliet_lost += 1;
                }
            }
        }
    }

    println!();
    println!(
        "-> {improved}/{total_workloads} workloads execute strictly fewer tchks with \
         bounds than with RCE alone;\n   every witness forgery was killed by the binary \
         validator;\n   Juliet sample: {juliet_detected} detections with RCE, \
         {juliet_lost} lost with bounds on."
    );
    let sim = boundscheck_sim(&rows, improved, (juliet_detected, juliet_lost));
    Ok(Outcome {
        passed: juliet_lost == 0,
        ..Outcome::new(sim, failed)
    })
}

/// P1: per-function overhead attribution. Every workload runs under
/// HWST128_tchk with per-PC cycle attribution folded through the
/// compiler's symbol ranges.
/// `--trace WL` writes `TRACE_WL.json` (Chrome trace-event JSON,
/// Perfetto-loadable) and `--collapse WL` writes `FLAME_WL.txt`
/// (collapsed stacks) for workload `WL`.
pub fn profile(cx: &mut Ctx) -> Result<Outcome, String> {
    let scale = cx.scale();
    let mut exports = Vec::new();
    for (name, prefix, ext) in [
        (&cx.args.trace, "TRACE", "json"),
        (&cx.args.collapse, "FLAME", "txt"),
    ] {
        if let Some(name) = name {
            exports.push((workload(name)?, prefix, ext));
        }
    }
    let workloads = all();
    println!(
        "P1 — per-function overhead attribution ({} workloads)",
        workloads.len()
    );
    let (rows, failed) = cx.settle(workload_jobs("profile", workloads, move |wl| {
        try_profile_row(wl, scale)
    }));
    println!(
        "{:<10} {:>12} {:>9} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6}  hottest",
        "workload", "cycles", "overhead", "base%", "check%", "shad%", "keyb%", "runt%", "attr%",
    );
    for r in &rows {
        let total = r.total.total().max(1) as f64;
        let pct = |c: u64| 100.0 * c as f64 / total;
        println!(
            "{:<10} {:>12} {:>8.1}% {:>5.1}% {:>5.1}% {:>5.1}% {:>5.1}% {:>5.1}% {:>5.1}%  {}",
            r.name,
            r.total.total(),
            r.overhead_pct(),
            pct(r.total.base),
            pct(r.total.check),
            pct(r.total.shadow),
            pct(r.total.keybuffer),
            pct(r.total.runtime),
            r.attributed_fraction * 100.0,
            r.hot.first().map_or("-", |h| h.name.as_str())
        );
    }
    print_failed(&failed);
    let mean = profile_mean_fractions(&rows);
    let mean_str: Vec<String> = Breakdown::CATEGORIES
        .iter()
        .zip(&mean)
        .map(|(cat, f)| format!("{cat} {:.1}%", f * 100.0))
        .collect();
    println!("mean fraction: {}", mean_str.join(", "));
    for (wl, prefix, ext) in exports {
        let t = try_profile_trace(&wl, scale)?;
        let path = format!("{prefix}_{}.{ext}", wl.name);
        let body = if ext == "json" {
            format!("{}\n", t.chrome)
        } else {
            t.collapsed
        };
        std::fs::write(&path, body).map_err(|e| format!("could not write {path}: {e}"))?;
        if t.dropped > 0 {
            eprintln!("note: {path}: ring recorder dropped {} span(s)", t.dropped);
        }
        println!("wrote {path}");
    }
    Ok(Outcome::new(profile_sim(&rows, &mean), failed))
}

/// X1: decoded-block fast-engine speedup. Every workload runs under
/// HWST128_tchk on both the reference interpreter and the fast engine,
/// timed on the host clock; any divergence between the two is a failed
/// row, so a green table certifies bit-identity over the measured set.
/// `--opt O1` measures the optimized back-end's images.
pub fn exec(cx: &mut Ctx) -> Result<Outcome, String> {
    let scale = cx.scale();
    let opt = cx.args.opt;
    let workloads = all();
    println!(
        "X1 — fast-engine speedup [-{}] ({} workloads), scale {scale:?}",
        opt.label(),
        workloads.len(),
    );
    let (rows, failed) = cx.settle(workload_jobs("exec", workloads, move |wl| {
        try_exec_row(wl, scale, opt)
    }));
    println!(
        "{:<10} {:<8} {:>12} {:>7} {:>11} {:>11} {:>8}",
        "workload", "suite", "instret", "blocks", "cycle Mips", "fast Mips", "speedup"
    );
    for r in &rows {
        println!(
            "{:<10} {:<8} {:>12} {:>7} {:>11.2} {:>11.2} {:>7.1}x",
            r.name,
            r.suite.to_string(),
            r.instret,
            r.decoded_blocks,
            r.cycle_ips() / 1e6,
            r.fast_ips() / 1e6,
            r.speedup()
        );
    }
    print_failed(&failed);
    let g = exec_geomean(&rows);
    println!("geomean speedup: {g:.1}x");
    let (sim, host) = exec_payloads(opt, &rows, g);
    Ok(Outcome {
        host,
        ..Outcome::new(sim, failed)
    })
}

/// O1: the Fig. 4 matrix at both back-end tiers — does HWST128's
/// relative overhead grow or shrink when the baseline it is measured
/// against is optimized?
pub fn fig4_o1(cx: &mut Ctx) -> Result<Outcome, String> {
    let scale = cx.scale();
    let workloads = all();
    println!(
        "O1 experiment — Fig. 4 at both back-end tiers, scale {scale:?}, {} workload(s)",
        workloads.len(),
    );
    println!(
        "{:<12} {:<8} {:>12} {:>12} {:>8} {:>9} {:>9} {:>9}",
        "workload", "suite", "O0 cycles", "O1 cycles", "speedup", "O1 SBC", "O1 H128", "O1 _tchk"
    );
    let (pairs, failed) = cx.settle(workload_jobs("fig4_o1", workloads, move |wl| {
        Ok((
            try_fig4_row(wl, scale, OptLevel::O0)?,
            try_fig4_row(wl, scale, OptLevel::O1)?,
        ))
    }));
    let (o0, o1): (Vec<Fig4Row>, Vec<Fig4Row>) = pairs.into_iter().unzip();
    for (r0, r1) in o0.iter().zip(&o1) {
        println!(
            "{:<12} {:<8} {:>12} {:>12} {:>7.2}x {} {} {}",
            r0.name,
            r0.suite.to_string(),
            r0.baseline_cycles,
            r1.baseline_cycles,
            r0.baseline_speedup(r1),
            pct(r1.overhead_pct[0]),
            pct(r1.overhead_pct[1]),
            pct(r1.overhead_pct[2]),
        );
    }
    print_failed(&failed);
    let g1 = fig4_geomean(&o1);
    let speedup = geomean_baseline_speedup(&o0, &o1);
    println!(
        "{:<12} {:<8} {:>12} {:>12} {:>7.2}x {} {} {}",
        "Geo. mean",
        "",
        "",
        "",
        speedup,
        pct(g1[0]),
        pct(g1[1]),
        pct(g1[2])
    );
    let g0 = fig4_geomean(&o0);
    println!(
        "-O0 geomean: SBCETS {}  HWST128 {}  HWST128_tchk {}",
        pct(g0[0]),
        pct(g0[1]),
        pct(g0[2])
    );
    println!(
        "baseline speedup target 1.30x: {}",
        if speedup >= 1.3 { "met" } else { "NOT met" }
    );
    Ok(Outcome::new(
        fig4_o1_sim(&o0, &o1, &g0, &g1, speedup),
        failed,
    ))
}

/// Z1/Z2: the comparative detector zoo — coverage × overhead frontier
/// over the published four designs plus RV-CURE, L4 Pointer, CryptSan
/// and HeapSafe, with a fault-injection campaign per design. A
/// calibration or agreement violation fails the run.
pub fn zoo(cx: &mut Ctx) -> Result<Outcome, String> {
    let scale = cx.scale();
    let cfg = ZooConfig::default();
    println!("Z1/Z2 — comparative detector zoo");
    let (rows, mut failed) = cx.settle(zoo_row_jobs(all(), scale));
    let (coverage, cov_failed) = cx.settle(zoo_coverage_jobs(&cfg));
    failed.extend(cov_failed);
    let (cells, inj_failed) = cx.settle(zoo_inject_jobs(&cfg, scale)?);
    failed.extend(inj_failed);
    let report = ZooReport {
        rows,
        coverage,
        inject: merge_inject(cells),
    };

    let model = model_geomeans(&report.rows);
    let points = design_points(&report.rows, &report.coverage);
    let flags = frontier_flags(&points);
    println!(
        "\n{:<13} {:>9} {:>9} {:>8} {:>7} {:>6} {:>6} {:>6}  frontier",
        "design", "overhead%", "model%", "cover%", "det", "mask", "silent", "mfault"
    );
    for (di, &design) in Design::ALL.iter().enumerate() {
        let model_s = Design::ZOO
            .iter()
            .position(|&d| d == design)
            .map(|i| format!("{:.1}", model[i]))
            .unwrap_or_else(|| "-".to_string());
        let inj = &report.inject[di];
        println!(
            "{:<13} {:>9.1} {:>9} {:>8.2} {:>7} {:>6} {:>6} {:>6}  {}",
            design.label(),
            points[di].overhead_pct,
            model_s,
            points[di].coverage_pct,
            inj.detected,
            inj.masked,
            inj.silent,
            inj.machine_fault,
            if flags[di] { "*" } else { "" }
        );
    }
    print_failed(&failed);

    let violations = zoo_violations(&report);
    if violations.is_empty() {
        println!("gate: calibration bands, orderings, model tracking, sample agreement — PASS");
    }
    for v in &violations {
        println!("gate VIOLATED: {v}");
    }
    let gate = violations.is_empty() && failed.is_empty();
    let sim = zoo_sim(&cfg, &report, &points, &flags, &model, &violations, gate);
    Ok(Outcome {
        passed: gate,
        ..Outcome::new(sim, failed)
    })
}
