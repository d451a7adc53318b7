//! `perfbench`: the repository's host benchmark.
//!
//! ```text
//! perfbench --workload <sweep|juliet|validate> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! One process, one worker thread, a closed loop with a single caller: every
//! cell of the workload runs in a seeded order, pass after pass, until
//! `--seconds` have gone by (whole passes only). With `--trace 0` the
//! cells call the user-facing entry points and the end-to-end metrics
//! are reported, from each cell's fastest time over the passes; with
//! `--trace 1` untraced passes alternate with passes
//! that call the same layers one by one inside spans, and the per-layer
//! metrics are reported. Correctness checks run outside the timed
//! passes. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod cells;
mod checks;
mod trace;

use std::time::Instant;

use hwst128::compiler::{compile_with_options, OptLevel, Scheme};
use hwst_harness::Json;

use cells::{Cell, Inputs, Kind, Outcome, Sizing};
use checks::Tally;
use trace::{Layer, Tracer};

/// Input builds per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 201;
/// Spans kept for the exported Chrome trace.
const TRACE_KEEP: usize = 20_000;
/// Fig. 4 geomean overheads (%) of SBCETS, HWST128, HWST128_tchk.
const PAPER_FIG4: [f64; 3] = [441.4, 152.9, 94.9];

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let v = value()?;
                kind = Some(Kind::parse(&v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => {
                let s = value()?.parse::<f64>().map_err(|e| e.to_string())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                })
            }
            "--smoke" => smoke = true,
            _ => return Err(format!("unknown argument `{a}`")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
    })
}

/// Summed counts of one pass. Every one is simulated or a static count,
/// so every pass — traced or not, any seed — must produce the same.
#[derive(Debug, Clone, Default, PartialEq)]
struct Counts([u64; Counts::NAMES.len()]);

impl Counts {
    const NAMES: [&'static str; 20] = [
        "pipeline.instret",
        "pipeline.cycles",
        "pipeline.keybuffer_hits",
        "pipeline.keybuffer_misses",
        "pipeline.shadow_stalls",
        "pipeline.tchk_stalls",
        "pipeline.mem_stalls",
        "pipeline.runtime_stalls",
        "pipeline.checked_mem",
        "pipeline.meta_mem",
        "exec.decoded_blocks",
        "exec.block_hits",
        "sim.loads",
        "compiler.static_insts",
        "compiler.static_checks",
        "compiler.checks_elided",
        "binval.validations",
        "binval.findings",
        "binval.mutants",
        "binval.killed",
    ];

    fn add(&mut self, o: &Outcome) {
        let s = &o.stats;
        let v = [
            s.instret,
            s.total_cycles(),
            s.keybuffer_hits,
            s.keybuffer_misses,
            s.shadow_stalls,
            s.tchk_stalls,
            s.mem_stalls,
            s.runtime_stalls,
            s.checked_mem,
            s.meta_mem,
            o.decodes,
            o.hits,
            u64::from(o.exit.is_some()),
            o.static_insts,
            o.static_checks,
            o.checks_elided,
            o.validations,
            o.findings,
            o.mutants,
            o.killed,
        ];
        for (a, b) in self.0.iter_mut().zip(v) {
            *a += b;
        }
    }

    fn get(&self, name: &str) -> u64 {
        let i = Self::NAMES.iter().position(|&n| n == name);
        self.0[i.expect("known count")]
    }

    /// The names of the counts that differ.
    fn diff(&self, other: &Counts) -> Vec<&'static str> {
        Self::NAMES
            .iter()
            .zip(self.0.iter().zip(other.0.iter()))
            .filter(|(_, (a, b))| a != b)
            .map(|(&n, _)| n)
            .collect()
    }
}

/// Times of the input builds, in seconds.
#[derive(Default)]
struct Setup {
    total: Vec<f64>,
    modules: Vec<f64>,
    suite: Vec<f64>,
}

impl Setup {
    fn build(&mut self, kind: Kind, sizing: Sizing, seed: u64) -> Inputs {
        let t = Instant::now();
        let inp = Inputs::build(kind, sizing, seed);
        self.total.push(t.elapsed().as_secs_f64());
        self.modules.push(inp.build_s.0);
        self.suite.push(inp.build_s.1);
        inp
    }
}

/// One pass over every cell.
struct Pass {
    wall_s: f64,
    counts: Counts,
    /// Instructions binval walked (traced passes only).
    validated: u64,
    /// Outcomes, kept for the first pass of each kind only.
    outcomes: Vec<Outcome>,
}

/// Runs every cell once. Where `best` is given, each cell's latency (ms)
/// lowers its entry to the fastest seen so far.
fn run_pass(
    inp: &Inputs,
    keep: bool,
    tally: &mut Tally,
    mut best: Option<&mut [f64]>,
    mut run: impl FnMut(u32, Cell) -> (Outcome, u64),
) -> Pass {
    let mut p = Pass {
        wall_s: 0.0,
        counts: Counts::default(),
        validated: 0,
        outcomes: Vec::new(),
    };
    let start = Instant::now();
    for (i, &cell) in inp.cells.iter().enumerate() {
        let t = Instant::now();
        let (o, validated) = std::hint::black_box(run(i as u32, cell));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if let Some(b) = best.as_deref_mut() {
            b[i] = b[i].min(ms);
        }
        checks::cell(tally, cell, &o);
        p.counts.add(&o);
        p.validated += validated;
        if keep {
            p.outcomes.push(o);
        }
    }
    p.wall_s = start.elapsed().as_secs_f64();
    p
}

fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// Nearest-rank percentile.
fn percentile(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return 0.0;
    }
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Peak resident set (`VmHWM`) in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Instructions one pass processes: retired by the simulator on `sweep`
/// and `juliet`, walked by binval on `validate` — there, image lengths
/// are recomputed off the clock, and a mutant is as long as its image.
fn pass_work(inp: &Inputs, outs: &[Outcome]) -> u64 {
    inp.cells
        .iter()
        .zip(outs)
        .map(|(&cell, o)| match cell {
            Cell::Tv { .. } | Cell::Mutants { .. } => {
                let len = cells::with_module(inp, cell, |m| {
                    compile_with_options(m, cell.options()).map_or(0, |c| c.program.len() as u64)
                });
                len * o.validations
            }
            _ => o.stats.instret,
        })
        .sum()
}

/// Fig. 4 at O1 from a sweep pass: the mean absolute gap, in percentage
/// points, between the geomean overheads and the paper's.
fn fig4_err_pp(inp: &Inputs, outs: &[Outcome]) -> Option<f64> {
    let mut cycles = vec![[0.0f64; 4]; inp.kernels.len()];
    for (&cell, o) in inp.cells.iter().zip(outs) {
        if let Cell::Sweep {
            k,
            scheme,
            opt: OptLevel::O1,
        } = cell
        {
            let s = Scheme::ALL.iter().position(|&x| x == scheme)?;
            cycles[k][s] = o.stats.total_cycles() as f64;
        }
    }
    if cycles.is_empty() {
        return None;
    }
    let mut err = 0.0;
    for (i, paper) in PAPER_FIG4.iter().enumerate() {
        let logsum: f64 = cycles.iter().map(|c| (c[i + 1] / c[0]).ln()).sum();
        let geo = ((logsum / cycles.len() as f64).exp() - 1.0) * 100.0;
        println!(
            "fig4 O1 geomean {:<13} {geo:>7.1} %  (paper {paper} %)",
            Scheme::ALL[i + 1].label()
        );
        err += (geo - paper).abs();
    }
    Some(err / PAPER_FIG4.len() as f64)
}

struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    fn print(&self) {
        for (n, v, u) in &self.0 {
            println!("{n:<28} {v:>16.6} {u}");
        }
    }

    fn json(&self) -> Json {
        self.0.iter().fold(Json::obj(), |doc, (n, v, u)| {
            doc.set(n, Json::obj().set("value", *v).set("unit", *u))
        })
    }
}

/// One line of JSON: the writer pretty-prints, and no string it writes
/// contains a raw newline, so dropping line breaks and indentation
/// compacts it losslessly.
fn one_line(doc: &Json) -> String {
    doc.to_string().lines().map(str::trim_start).collect()
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <sweep|juliet|validate> --seed <n> \
                 --seconds <s> --trace <0|1> [--smoke]"
            );
            std::process::exit(2);
        }
    };
    // The work runs on one spawned thread: its stack is a fresh mapping,
    // so its placement does not move with the main stack's per-process
    // random offset.
    let worker = std::thread::Builder::new()
        .name("perfbench".into())
        .stack_size(64 << 20)
        .spawn(move || run(args))
        .expect("spawn the worker thread");
    if worker.join().is_err() {
        std::process::exit(101);
    }
}

fn run(args: Args) {
    let kind = args.kind;
    let sizing = Sizing { smoke: args.smoke };

    // Set-up: build every input several times; report the median.
    let mut setup = Setup::default();
    let mut inp = setup.build(kind, sizing, args.seed);
    for _ in 1..SETUP_REPEATS {
        inp = setup.build(kind, sizing, args.seed);
    }
    println!(
        "perfbench {} seed {} ({} cells: {}), {} s per run, trace {}",
        kind.name(),
        args.seed,
        inp.cells.len(),
        sizing.describe(kind),
        args.seconds,
        u8::from(args.trace)
    );

    // Whole passes until the time is up; a traced run alternates
    // untraced and traced passes, so drift in machine load hits both.
    let mut tally = Tally::default();
    let mut tracer = Tracer::new(TRACE_KEEP);
    // Each cell's fastest untraced latency. The host is shared, and
    // contention only ever slows a cell down: the fastest of the timings
    // taken at different moments of the run is the least disturbed one.
    let mut best = vec![f64::INFINITY; inp.cells.len()];
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while plain.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        plain.push(run_pass(
            &inp,
            plain.is_empty(),
            &mut tally,
            Some(&mut best),
            |_, c| (cells::run_untraced(&inp, c), 0),
        ));
        if args.trace {
            traced.push(run_pass(
                &inp,
                traced.is_empty(),
                &mut tally,
                None,
                |i, c| {
                    tracer.set_cell(i);
                    cells::run_traced(&mut tracer, &inp, c)
                },
            ));
        }
    }
    let rss = peak_rss_mb();

    // Correctness, off the clock.
    let full = !args.smoke;
    let first = &plain[0];
    checks::outcomes(&mut tally, &inp, &first.outcomes, full);
    let replays = match (kind, args.smoke) {
        (Kind::Sweep, _) => 3,
        (Kind::Juliet, false) => 64,
        (Kind::Juliet, true) => 16,
        (Kind::Validate, _) => 0,
    };
    checks::replay(&mut tally, &inp, &first.outcomes, args.seed, replays);
    for p in plain.iter().chain(&traced) {
        let d = p.counts.diff(&first.counts);
        tally.check(d.is_empty(), || {
            format!("repeat: counts differ between passes: {}", d.join(", "))
        });
    }
    if let Some(t) = traced.first() {
        checks::same_outcomes(&mut tally, &inp, &first.outcomes, &t.outcomes);
        checks::images(&mut tally, &inp);
    }
    tally.print();

    let fig4 = if kind == Kind::Sweep {
        fig4_err_pp(&inp, &first.outcomes)
    } else {
        None
    };
    if let Some(e) = fig4 {
        println!("fig4_err_pp {e:.3} pp (simulated; validated against the paper's Fig. 4 only)");
    }

    let mut m = Metrics(Vec::new());
    if !args.trace {
        let work = pass_work(&inp, &first.outcomes) as f64;
        let best_pass_s = best.iter().sum::<f64>() / 1e3;
        let rates: Vec<f64> = plain
            .iter()
            .map(|p| inp.cells.len() as f64 / p.wall_s)
            .collect();
        m.put("setup_s", median(&setup.total), "s");
        m.put("cells_per_s", inp.cells.len() as f64 / best_pass_s, "1/s");
        m.put("cell_ms_p50", percentile(&best, 0.5), "ms");
        m.put("cell_ms_p90", percentile(&best, 0.9), "ms");
        m.put("mips", work / best_pass_s / 1e6, "Minst/s");
        m.put("peak_rss_mb", rss, "MB");
        println!(
            "{} passes, {} cells, each timed {} times (metrics use each cell's fastest time); \
             cells/s by whole pass: {}",
            plain.len(),
            best.len(),
            plain.len(),
            rates
                .iter()
                .map(|r| format!("{r:.1}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
    } else {
        per_layer(&mut m, &tracer, &traced, &plain, &setup, fig4);
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("{}.trace.json", kind.name()));
        let written = std::fs::create_dir_all(path.parent().expect("has a parent"))
            .and_then(|()| std::fs::write(&path, one_line(&tracer.chrome_trace(kind.name()))));
        match written {
            Ok(()) => println!("trace written to {}", path.display()),
            Err(e) => println!("trace not written ({}): {e}", path.display()),
        }
    }
    m.print();
    let fail_frac = ratio(tally.failed as f64, tally.attempted as f64);
    println!(
        "fail_frac {fail_frac} (failed {} / attempted {})",
        tally.failed, tally.attempted
    );
    let doc = Json::obj()
        .set("correct", tally.failed == 0)
        .set("attempted", tally.attempted)
        .set("failed", tally.failed)
        .set("metrics", m.json());
    println!("{}", one_line(&doc));
}

/// The per-layer metrics of a traced run, per traced pass.
fn per_layer(
    m: &mut Metrics,
    tr: &Tracer,
    traced: &[Pass],
    plain: &[Pass],
    setup: &Setup,
    fig4: Option<f64>,
) {
    let passes = traced.len() as f64;
    let ms = |l: Layer| tr.self_ns(l) as f64 / 1e6 / passes;
    let c = &traced[0].counts;
    let n = |name: &str| c.get(name) as f64;
    let cell_ms = tr.total_ns(Layer::Cell) as f64 / 1e6 / passes;

    println!(
        "{:<20} {:>12} {:>12} {:>8}",
        "layer", "self ms/pass", "spans/pass", "share"
    );
    for l in Layer::ALL {
        println!(
            "{:<20} {:>12.3} {:>12} {:>7.2}%",
            l.name(),
            ms(l),
            tr.count(l) as f64 / passes,
            100.0 * ratio(ms(l), cell_ms)
        );
    }

    m.put("workloads.build_ms", median(&setup.modules) * 1e3, "ms");
    m.put("juliet.build_ms", median(&setup.suite) * 1e3, "ms");
    m.put("juliet.program_ms", ms(Layer::JulietProgram), "ms");
    for (name, l) in [
        ("compiler.analysis_ms", Layer::Analysis),
        ("compiler.bounds_ms", Layer::Bounds),
        ("compiler.instrument_ms", Layer::Instrument),
        ("compiler.rce_ms", Layer::Rce),
        ("compiler.verify_ms", Layer::Verify),
        ("compiler.lower_ms", Layer::Lower),
    ] {
        m.put(name, ms(l), "ms");
    }
    for name in [
        "compiler.static_insts",
        "compiler.static_checks",
        "compiler.checks_elided",
    ] {
        m.put(name, n(name), "count");
    }
    let validated = traced[0].validated as f64;
    m.put("binval.validate_ms", ms(Layer::BinvalValidate), "ms");
    m.put("binval.sites_ms", ms(Layer::BinvalSites), "ms");
    m.put("binval.mutate_ms", ms(Layer::BinvalMutate), "ms");
    m.put("binval.validations", n("binval.validations"), "count");
    m.put(
        "binval.us_per_inst",
        ratio(ms(Layer::BinvalValidate) * 1e3, validated),
        "us/inst",
    );
    m.put("binval.mutants", n("binval.mutants"), "count");
    m.put(
        "binval.killed_frac",
        ratio(n("binval.killed"), n("binval.mutants")),
        "frac",
    );
    m.put("sim.load_ms", ms(Layer::SimLoad), "ms");
    m.put("sim.loads", n("sim.loads"), "count");
    let instret = n("pipeline.instret");
    let decodes = n("exec.decoded_blocks");
    m.put("exec.run_ms", ms(Layer::ExecRun), "ms");
    m.put(
        "exec.mips",
        ratio(instret, ms(Layer::ExecRun) * 1e3),
        "Minst/s",
    );
    m.put("exec.decoded_blocks", decodes, "count");
    m.put("exec.block_hits", n("exec.block_hits"), "count");
    m.put(
        "exec.decode_frac",
        ratio(decodes, decodes + n("exec.block_hits")),
        "frac",
    );
    m.put("exec.instret_per_decode", ratio(instret, decodes), "inst");
    m.put("pipeline.instret", instret, "count");
    m.put("pipeline.cycles", n("pipeline.cycles"), "count");
    m.put(
        "pipeline.ipc",
        ratio(instret, n("pipeline.cycles")),
        "inst/cycle",
    );
    let kb = n("pipeline.keybuffer_hits");
    m.put(
        "pipeline.keybuffer_hit_frac",
        ratio(kb, kb + n("pipeline.keybuffer_misses")),
        "frac",
    );
    for name in [
        "pipeline.shadow_stalls",
        "pipeline.tchk_stalls",
        "pipeline.mem_stalls",
        "pipeline.runtime_stalls",
        "pipeline.checked_mem",
        "pipeline.meta_mem",
    ] {
        m.put(name, n(name), "count");
    }
    m.put("pipeline.fig4_err_pp", fig4.unwrap_or(0.0), "pp");
    let wall = |ps: &[Pass]| median(&ps.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    m.put(
        "trace.overhead_frac",
        ratio(wall(traced), wall(plain)) - 1.0,
        "frac",
    );
    m.put("trace.cell_ms", cell_ms, "ms");
    m.put(
        "trace.coverage_frac",
        1.0 - ratio(ms(Layer::Cell), cell_ms),
        "frac",
    );
}
