//! `hwst-bench <experiment> [flags]` — the one driver behind every
//! figure, table and extension experiment of the reproduction — and
//! `hwst-bench diff A.json B.json`, which compares two of its artifacts.
//!
//! Each experiment is a plain function that prints its table and
//! returns its payloads — `sim`, every deterministic number, and
//! `host`, any host timing of its own — its failed jobs and whether its
//! gates passed. The driver alone handles the rest: it parses the
//! flags, sizes the worker pool, runs every sweep's jobs on it, writes
//! the `--json` artifact envelope (`schema`, `version`, `rev`, `scale`,
//! `flags`, `sim`, `host`), prints the wall/worker line to stderr and
//! maps the result to the exit code — `0` every gate passed, `1` a gate
//! or job failed, `2` a usage error, an I/O error or a hard error that
//! stopped the run. `hwst-bench help` lists the experiments and the
//! flags each takes.

#![forbid(unsafe_code)]

mod experiments;

use hwst128::compiler::{OptLevel, Scheme};
use hwst128::workloads::Scale;
use hwst_harness::{collect_ok, run, FailedJob, Job, Json};
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

/// The artifact envelope's `version`.
const VERSION: i64 = 2;

/// One entry of the experiment index.
struct Experiment {
    name: &'static str,
    /// The flags it takes, as `help` prints them: a bracketed word
    /// stands for positional arguments. An experiment that takes
    /// `--jobs` runs its sweeps on the worker pool.
    flags: &'static str,
    about: &'static str,
    run: fn(&mut Ctx) -> Result<Outcome, String>,
}

impl Experiment {
    /// Every experiment takes `--json PATH`.
    fn takes(&self, flag: &str) -> bool {
        flag == "--json" || self.flags.split_whitespace().any(|t| t == flag)
    }

    fn takes_positional(&self) -> bool {
        self.flags.contains('[')
    }
}

/// Every experiment, in the order `help` lists them. The names are the
/// former per-experiment binary names without their `hwst-` prefix.
const EXPERIMENTS: [Experiment; 19] = [
    Experiment {
        name: "fig4",
        flags: "--jobs N --bench-scale",
        about: "Fig. 4: Eq. 7 overhead of SBCETS, HWST128, HWST128_tchk",
        run: experiments::fig4,
    },
    Experiment {
        name: "fig5",
        flags: "--jobs N --bench-scale",
        about: "Fig. 5: speedup over SBCETS of BOGO, WDL and HWST128",
        run: experiments::fig5,
    },
    Experiment {
        name: "fig6",
        flags: "--jobs N --stride N",
        about: "Fig. 6: Juliet coverage, measured",
        run: experiments::fig6,
    },
    Experiment {
        name: "hwcost",
        flags: "[ENTRIES]",
        about: "§5.3: LUT/FF/critical-path cost at ENTRIES keybuffer entries",
        run: experiments::hwcost,
    },
    Experiment {
        name: "ablation_keybuffer",
        flags: "--jobs N --bench-scale",
        about: "A1: keybuffer size sweep",
        run: experiments::ablation_keybuffer,
    },
    Experiment {
        name: "ablation_compression",
        flags: "",
        about: "A2: range/lock field-width sweep",
        run: experiments::ablation_compression,
    },
    Experiment {
        name: "ablation_shadow",
        flags: "",
        about: "A3: linear shadow map vs trie",
        run: experiments::ablation_shadow,
    },
    Experiment {
        name: "ablation_dcache",
        flags: "--jobs N",
        about: "A4: D-cache size and miss-penalty sensitivity",
        run: experiments::ablation_dcache,
    },
    Experiment {
        name: "ablation_shore",
        flags: "",
        about: "A6: spatial-only SHORE vs complete safety",
        run: experiments::ablation_shore,
    },
    Experiment {
        name: "ablation_footprint",
        flags: "",
        about: "A7: container-shadow footprint, 256-bit vs 128-bit records",
        run: experiments::ablation_footprint,
    },
    Experiment {
        name: "codesize",
        flags: "--scheme LIST",
        about: "static code size per scheme",
        run: experiments::codesize,
    },
    Experiment {
        name: "binval",
        flags: "--jobs N --bench-scale --opt O0|O1",
        about: "A9: binary translation validation + mutation campaign",
        run: experiments::binval,
    },
    Experiment {
        name: "lint",
        flags: "--bench-scale [WORKLOAD...]",
        about: "IR-level static safety diagnostics over the workloads",
        run: experiments::lint,
    },
    Experiment {
        name: "resilience",
        flags: "--jobs N --bench-scale",
        about: "R1: metadata-path fault injection",
        run: experiments::resilience,
    },
    Experiment {
        name: "ablation_boundscheck",
        flags: "--jobs N --bench-scale",
        about: "A8/A10: RCE and static bounds-proof check elimination",
        run: experiments::ablation_boundscheck,
    },
    Experiment {
        name: "profile",
        flags: "--jobs N --bench-scale --trace WL --collapse WL",
        about: "P1: per-function overhead attribution, trace export",
        run: experiments::profile,
    },
    Experiment {
        name: "exec",
        flags: "--jobs N --bench-scale --opt O0|O1",
        about: "X1: fast engine vs reference interpreter, differential",
        run: experiments::exec,
    },
    Experiment {
        name: "fig4_o1",
        flags: "--jobs N --bench-scale",
        about: "O1: Fig. 4 at -O0 and -O1",
        run: experiments::fig4_o1,
    },
    Experiment {
        name: "zoo",
        flags: "--jobs N --bench-scale",
        about: "Z1/Z2: detector zoo frontier + fault campaign",
        run: experiments::zoo,
    },
];

/// The parsed flags of one run, each checked where it enters.
#[derive(Debug, Default)]
struct Args {
    jobs: Option<usize>,
    json: Option<PathBuf>,
    bench_scale: bool,
    opt: OptLevel,
    stride: Option<usize>,
    /// `--scheme A,B,...` (repeatable), deduplicated in first-seen
    /// order; `None` when the flag is absent.
    schemes: Option<Vec<Scheme>>,
    trace: Option<String>,
    collapse: Option<String>,
    positional: Vec<String>,
    /// The words that can change `sim`: every one but `--json PATH`
    /// and `--jobs N`, as given.
    flags: Vec<String>,
}

impl Args {
    /// Parses `argv` (the words after the experiment name), rejecting
    /// any flag `exp` does not take and any malformed value.
    fn parse(exp: &Experiment, argv: &[String]) -> Result<Args, String> {
        let mut args = Args::default();
        let mut words = argv.iter();
        while let Some(word) = words.next() {
            if !word.starts_with("--") {
                if !exp.takes_positional() {
                    return Err(format!("unexpected argument `{word}`"));
                }
                args.positional.push(word.clone());
                args.flags.push(word.clone());
                continue;
            }
            if !exp.takes(word) {
                return Err(format!("unknown flag `{word}`"));
            }
            let sim_flag = word != "--json" && word != "--jobs";
            if sim_flag {
                args.flags.push(word.clone());
            }
            let flags = &mut args.flags;
            let mut value = || {
                let value = words
                    .next()
                    .ok_or_else(|| format!("`{word}` needs a value"))?;
                if sim_flag {
                    flags.push(value.clone());
                }
                Ok::<_, String>(value.as_str())
            };
            match word.as_str() {
                "--jobs" => args.jobs = Some(positive(word, value()?)?),
                "--stride" => args.stride = Some(positive(word, value()?)?),
                "--json" => args.json = Some(PathBuf::from(value()?)),
                "--trace" => args.trace = Some(value()?.to_string()),
                "--collapse" => args.collapse = Some(value()?.to_string()),
                "--opt" => {
                    let raw = value()?;
                    args.opt = OptLevel::by_name(raw)
                        .ok_or_else(|| format!("unknown opt level `{raw}` (expected O0 or O1)"))?;
                }
                "--scheme" => {
                    let picked = args.schemes.get_or_insert_with(Vec::new);
                    for label in value()?.split(',').filter(|l| !l.is_empty()) {
                        let scheme = Scheme::by_label(label).ok_or_else(|| {
                            let known: Vec<&str> =
                                Scheme::EVERY.iter().map(|s| s.label()).collect();
                            format!("unknown scheme `{label}` (known: {})", known.join(", "))
                        })?;
                        if !picked.contains(&scheme) {
                            picked.push(scheme);
                        }
                    }
                }
                "--bench-scale" => args.bench_scale = true,
                _ => return Err(format!("unknown flag `{word}`")),
            }
        }
        Ok(args)
    }
}

/// Parses a flag value that must be a positive integer.
fn positive(flag: &str, raw: &str) -> Result<usize, String> {
    match raw.parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!("`{flag} {raw}`: expected a positive integer")),
    }
}

/// What the driver hands an experiment.
struct Ctx {
    args: Args,
    /// Worker threads of the pool.
    workers: usize,
    /// Summed per-job wall time of the sweeps settled so far.
    serial_wall: Option<Duration>,
}

impl Ctx {
    /// `Scale::Bench` under `--bench-scale`, else `Scale::Test`.
    fn scale(&self) -> Scale {
        if self.args.bench_scale {
            Scale::Bench
        } else {
            Scale::Test
        }
    }

    /// Runs a sweep's jobs on the pool and splits the results into rows
    /// (in job order) and failed jobs, adding the jobs' wall times to
    /// `host.serial_wall_ms` (what the sweep would have cost serially).
    fn settle<T: Send + 'static>(&mut self, jobs: Vec<Job<T>>) -> (Vec<T>, Vec<FailedJob>) {
        let results = run(jobs, self.workers);
        let wall: Duration = results.iter().map(|r| r.wall).sum();
        *self.serial_wall.get_or_insert(Duration::ZERO) += wall;
        collect_ok(results)
    }
}

/// What an experiment hands back.
struct Outcome {
    /// Every deterministic number of the run: the envelope's `sim`.
    sim: Json,
    /// Host timings of its own (X1's), merged into the envelope's
    /// `host` after the driver's.
    host: Json,
    /// Jobs that returned an error or panicked; any one fails the run.
    failed: Vec<FailedJob>,
    /// Whether the experiment's own gates passed.
    passed: bool,
}

impl Outcome {
    /// An outcome with no host payload and no gate beyond its jobs.
    fn new(sim: Json, failed: Vec<FailedJob>) -> Outcome {
        Outcome {
            sim,
            host: Json::obj(),
            failed,
            passed: true,
        }
    }
}

/// The artifact envelope of one run of `exp`.
fn envelope(exp: &Experiment, cx: &Ctx, outcome: Outcome, wall: Duration) -> Json {
    let failed = outcome.failed.iter().map(|f| {
        Json::obj()
            .set("label", f.label.as_str())
            .set("error", f.error.as_str())
    });
    let mut host = Json::obj();
    if exp.takes("--jobs") {
        host = host.set("workers", cx.workers);
    }
    host = host.set("wall_ms", wall.as_secs_f64() * 1e3);
    if let Some(serial) = cx.serial_wall {
        host = host.set("serial_wall_ms", serial.as_secs_f64() * 1e3);
    }
    if let Json::Obj(fields) = outcome.host {
        for (key, value) in fields {
            host = host.set(&key, value);
        }
    }
    Json::obj()
        .set("schema", format!("hwst-bench/{}", exp.name))
        .set("version", VERSION)
        .set("rev", rev())
        .set("scale", format!("{:?}", cx.scale()))
        .set(
            "flags",
            Json::Arr(cx.args.flags.iter().cloned().map(Json::from).collect()),
        )
        .set(
            "sim",
            outcome.sim.set("failed", Json::Arr(failed.collect())),
        )
        .set("host", host)
}

/// `git describe --always --dirty`, or `"unknown"` without git.
fn rev() -> String {
    Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|text| text.trim().to_string())
        .filter(|text| !text.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// `hwst-bench diff A.json B.json`: `0` when the two artifacts agree on
/// everything but `rev` and `host`, `1` when they differ (the first
/// differing path is printed with both values, then how many others
/// differ), `2` on a usage, I/O or parse error.
fn diff(paths: &[String]) -> ExitCode {
    let [a, b] = paths else {
        eprintln!("error: usage: hwst-bench diff A.json B.json");
        return ExitCode::from(2);
    };
    let read = |path: &String| {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("could not read {path}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("could not parse {path}: {e}"))?;
        Ok::<_, String>(match doc {
            Json::Obj(fields) => Json::Obj(
                fields
                    .into_iter()
                    .filter(|(key, _)| key != "rev" && key != "host")
                    .collect(),
            ),
            other => other,
        })
    };
    let (a_doc, b_doc) = match (read(a), read(b)) {
        (Ok(a_doc), Ok(b_doc)) => (a_doc, b_doc),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: diff: {e}");
            return ExitCode::from(2);
        }
    };
    let mut found = Vec::new();
    differences(String::new(), Some(&a_doc), Some(&b_doc), &mut found);
    let Some((path, left, right)) = found.first() else {
        println!("{a} and {b} agree (rev and host not compared)");
        return ExitCode::SUCCESS;
    };
    println!("{path}: {left} vs {right}");
    println!("{} other difference(s)", found.len() - 1);
    ExitCode::from(1)
}

/// Appends `(path, a, b)` for every place `a` and `b` disagree, in
/// document order: objects by key (order-insensitive), arrays by index,
/// anything else by value; a missing side prints as `(absent)`.
fn differences(
    path: String,
    a: Option<&Json>,
    b: Option<&Json>,
    out: &mut Vec<(String, String, String)>,
) {
    match (a, b) {
        (Some(left @ Json::Obj(x)), Some(right @ Json::Obj(y))) => {
            let only_y = y.iter().filter(|(k, _)| left.get(k).is_none());
            for (key, _) in x.iter().chain(only_y) {
                differences(format!("{path}.{key}"), left.get(key), right.get(key), out);
            }
        }
        (Some(Json::Arr(x)), Some(Json::Arr(y))) => {
            for i in 0..x.len().max(y.len()) {
                differences(format!("{path}[{i}]"), x.get(i), y.get(i), out);
            }
        }
        _ if a == b => {}
        _ => {
            let show = |v: Option<&Json>| v.map_or("(absent)".to_string(), Json::to_string);
            out.push((path, show(a), show(b)));
        }
    }
}

fn help() -> String {
    let mut text = String::from(
        "usage: hwst-bench <experiment> [flags]\n       hwst-bench diff A.json B.json\n\n\
         experiments:\n",
    );
    for exp in &EXPERIMENTS {
        text += &format!("  {:<21} {}\n", exp.name, exp.about);
        if !exp.flags.is_empty() {
            text += &format!("  {:<21}   {}\n", "", exp.flags);
        }
    }
    text += "\n--jobs N: worker threads (default: the available parallelism)\n\
             every experiment takes --json PATH: write its artifact envelope\n\
             diff: compare two artifacts on everything but rev and host\n\
             exit codes: 0 every gate passed (diff: equal); 1 a gate or job\n\
             \x20           failed (diff: different); 2 usage, I/O or hard error\n";
    text
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let name = argv.first().map_or("", String::as_str);
    if matches!(name, "help" | "--help" | "-h") {
        print!("{}", help());
        return ExitCode::SUCCESS;
    }
    if name == "diff" {
        return diff(&argv[1..]);
    }
    let Some(exp) = EXPERIMENTS.iter().find(|e| e.name == name) else {
        eprintln!("error: unknown experiment `{name}`; `hwst-bench help` lists them");
        return ExitCode::from(2);
    };
    let args = match Args::parse(exp, &argv[1..]) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {name}: {e} (takes: {})", exp.flags);
            return ExitCode::from(2);
        }
    };
    let workers = args
        .jobs
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get));
    let json = args.json.clone();
    let mut cx = Ctx {
        args,
        workers,
        serial_wall: None,
    };
    let start = Instant::now();
    let result = (exp.run)(&mut cx);
    let wall = start.elapsed();
    let wall_ms = wall.as_secs_f64() * 1e3;
    if exp.takes("--jobs") {
        eprintln!("wall {wall_ms:.1} ms on {} worker(s)", cx.workers);
    } else {
        eprintln!("wall {wall_ms:.1} ms");
    }
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {name}: {e}");
            return ExitCode::from(2);
        }
    };
    let passed = outcome.passed && outcome.failed.is_empty();
    if let Some(path) = json {
        let doc = envelope(exp, &cx, outcome, wall);
        if let Err(e) = std::fs::write(&path, format!("{doc}\n")) {
            eprintln!("error: could not write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("wrote {}", path.display());
    }
    if passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(name: &str, words: &[&str]) -> Result<Args, String> {
        let exp = EXPERIMENTS.iter().find(|e| e.name == name).unwrap();
        Args::parse(
            exp,
            &words.iter().map(|w| w.to_string()).collect::<Vec<_>>(),
        )
    }

    #[test]
    fn parses_the_flags_an_experiment_takes() {
        let a = parse(
            "binval",
            &["--jobs", "4", "--json", "out.json", "--opt", "O1"],
        )
        .unwrap();
        assert_eq!(a.jobs, Some(4));
        assert_eq!(a.json, Some(PathBuf::from("out.json")));
        assert_eq!(a.opt, OptLevel::O1);
        assert!(!a.bench_scale);
        let a = parse(
            "codesize",
            &["--scheme", "rv-cure", "--scheme", "none,RV-CURE"],
        )
        .unwrap();
        assert_eq!(a.schemes, Some(vec![Scheme::RvCure, Scheme::None]));
        assert_eq!(parse("hwcost", &["4"]).unwrap().positional, ["4"]);
    }

    /// The index and the parser agree: every flag an experiment lists
    /// has a parser arm.
    #[test]
    fn every_experiment_flag_is_parsed() {
        for exp in &EXPERIMENTS {
            for word in exp.flags.split_whitespace().filter(|w| w.starts_with("--")) {
                let err = Args::parse(exp, &[word.to_string()])
                    .err()
                    .unwrap_or_default();
                assert!(!err.contains("unknown flag"), "{}: {err}", exp.name);
            }
        }
    }
}
