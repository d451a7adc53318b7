//! `hwst128-cli` — drive the HWST128 stack from the command line.
//!
//! ```text
//! hwst128-cli asm <file.s> [--run] [--trace N]    assemble (and run) a file
//! hwst128-cli run <workload> [--scheme S] [--trace N]
//! hwst128-cli disasm <workload> [--scheme S]      dump generated code
//! hwst128-cli list                                list workloads
//! ```
//!
//! `--scheme` takes any `Scheme::label` or the aliases `none` and
//! `tchk` (default `tchk`). Each command takes its one positional
//! argument first (none for `list`), then only the flags its help line
//! lists; any other word is an error. Figures and tables come from
//! `hwst-bench`.

use hwst128::compiler::{compile, Scheme};
use hwst128::isa::asm::assemble;
use hwst128::prelude::*;
use hwst128::{config_for, workloads};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type CliResult = Result<(), Box<dyn std::error::Error + Send + Sync>>;

fn run(args: &[String]) -> CliResult {
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    match cmd {
        "asm" => cmd_asm(&args[1..]),
        "debug" => cmd_debug(&args[1..]),
        "run" => cmd_run(&args[1..]),
        "disasm" => cmd_disasm(&args[1..]),
        "ir" => cmd_ir(&args[1..]),
        "list" => cmd_list(&args[1..]),
        "help" | "--help" | "-h" => {
            print!("{}", HELP);
            Ok(())
        }
        other => Err(format!("unknown command {other:?}; try `help`").into()),
    }
}

const HELP: &str = "\
hwst128-cli — the HWST128 memory-safety accelerator, on the command line

  asm <file.s> [--run] [--trace N]   assemble (and run) an assembly file
  debug <file.s | workload> [--scheme S]
                                     interactive debugger (b/c/s/regs/srf/x)
  run <workload> [--scheme S] [--trace N]
                                     run a benchmark kernel and print stats
  disasm <workload> [--scheme S]     dump the generated machine code
  ir <workload> [--scheme S]         dump the (instrumented) IR listing
  list                               list the available workloads

schemes: none | SBCETS | HWST128 | tchk | SHORE | RV-CURE | L4Pointer |
         CryptSan | HeapSafe, any case (default tchk)
";

/// Checks the words after a command: its positional argument first (when
/// `positional`), then only `flags`, each followed by its value, and
/// `switches`. Returns the positional argument, if one was given.
fn check_args<'a>(
    args: &'a [String],
    positional: bool,
    flags: &[&str],
    switches: &[&str],
) -> Result<Option<&'a String>, String> {
    let (first, rest) = match args.split_first() {
        Some((first, rest)) if positional && !first.starts_with("--") => (Some(first), rest),
        _ => (None, args),
    };
    let mut words = rest.iter();
    while let Some(word) = words.next() {
        if flags.contains(&word.as_str()) {
            words.next();
        } else if !switches.contains(&word.as_str()) {
            return Err(if word.starts_with("--") {
                format!("unknown flag {word:?}")
            } else {
                format!("unexpected argument {word:?}")
            });
        }
    }
    Ok(first)
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// The `--trace N` step count, 0 without the flag.
fn parse_trace(args: &[String]) -> Result<usize, String> {
    if !args.iter().any(|a| a == "--trace") {
        return Ok(0);
    }
    let raw = flag_value(args, "--trace").ok_or("--trace needs a step count")?;
    raw.parse()
        .map_err(|_| format!("--trace takes a step count, got {raw:?}"))
}

/// The `--scheme S` scheme, HWST128_tchk without the flag.
fn parse_scheme(args: &[String]) -> Result<Scheme, String> {
    if !args.iter().any(|a| a == "--scheme") {
        return Ok(Scheme::Hwst128Tchk);
    }
    let raw = flag_value(args, "--scheme").ok_or("--scheme needs a scheme")?;
    Scheme::by_label(raw).ok_or_else(|| format!("unknown scheme {raw:?}"))
}

/// Runs `m` to an exit or a trap: the `--trace` prefix on the reference
/// interpreter (structured: shows the register effects too), the rest
/// on the fast engine.
fn run_machine(mut m: Machine, trace: usize) -> CliResult {
    if trace > 0 {
        let (events, trap) = m.trace(trace);
        for e in &events {
            println!("{e}");
        }
        if let Some(t) = trap {
            println!("TRAP: {t}");
            println!("{}", m.stats());
            return Ok(());
        }
    }
    match run_fast(&mut m, 2_000_000_000, &mut BlockCache::new()) {
        Ok(exit) => {
            if !exit.output.is_empty() {
                print!("{}", exit.output_string());
            }
            println!("exit code : {}", exit.code);
            println!("{}", exit.stats);
            Ok(())
        }
        Err(t) => {
            println!("TRAP: {t}");
            println!("{}", m.stats());
            Ok(())
        }
    }
}

fn cmd_asm(args: &[String]) -> CliResult {
    let path =
        check_args(args, true, &["--trace"], &["--run"])?.ok_or("usage: asm <file.s> [--run]")?;
    let src = std::fs::read_to_string(path)?;
    let base = hwst128::mem::MemoryLayout::default().text_base;
    let prog = assemble(base, &src)?;
    if args.iter().any(|a| a == "--run") {
        let trace = parse_trace(args)?;
        run_machine(Machine::new(prog, SafetyConfig::default()), trace)
    } else {
        print!("{prog}");
        Ok(())
    }
}

fn lookup_workload(name: Option<&String>) -> Result<Workload, String> {
    let name = name.ok_or("missing workload name; see `list`")?;
    Workload::by_name(name).ok_or_else(|| format!("unknown workload {name:?}; see `list`"))
}

fn cmd_run(args: &[String]) -> CliResult {
    let wl = lookup_workload(check_args(args, true, &["--scheme", "--trace"], &[])?)?;
    let scheme = parse_scheme(args)?;
    let trace = parse_trace(args)?;
    println!("{} [{}] under {}", wl.name, wl.suite, scheme.label());
    let prog = compile(&wl.module(Scale::Test), scheme)?;
    println!("code size : {} instructions", prog.len());
    run_machine(Machine::new(prog, config_for(scheme)), trace)
}

fn cmd_disasm(args: &[String]) -> CliResult {
    let wl = lookup_workload(check_args(args, true, &["--scheme"], &[])?)?;
    let scheme = parse_scheme(args)?;
    let prog = compile(&wl.module(Scale::Test), scheme)?;
    print!("{prog}");
    Ok(())
}

fn cmd_debug(args: &[String]) -> CliResult {
    use hwst128::debugger::{Debugger, Outcome};
    use std::io::{BufRead, Write};
    let target =
        check_args(args, true, &["--scheme"], &[])?.ok_or("usage: debug <file.s | workload>")?;
    let prog = if std::path::Path::new(target).exists() {
        let src = std::fs::read_to_string(target)?;
        assemble(hwst128::mem::MemoryLayout::default().text_base, &src)?
    } else {
        let wl = Workload::by_name(target)
            .ok_or_else(|| format!("no such file or workload: {target}"))?;
        let scheme = parse_scheme(args)?;
        compile(&wl.module(Scale::Test), scheme)?
    };
    let scheme = parse_scheme(args)?;
    let mut dbg = Debugger::new(Machine::new(prog, config_for(scheme)));
    let stdin = std::io::stdin();
    let mut out = std::io::stdout();
    loop {
        write!(out, "(hwst) ")?;
        out.flush()?;
        let mut line = String::new();
        if stdin.lock().read_line(&mut line)? == 0 {
            break;
        }
        match dbg.execute(line.trim()) {
            Outcome::Quit => break,
            Outcome::Text(t) => {
                if !t.is_empty() {
                    writeln!(out, "{t}")?;
                }
            }
            Outcome::Exited(code) => {
                writeln!(out, "program exited with {code}")?;
            }
            Outcome::Trapped(t) => writeln!(out, "TRAP: {t}")?,
        }
    }
    Ok(())
}

fn cmd_ir(args: &[String]) -> CliResult {
    use hwst128::compiler::{analysis, instrument};
    let wl = lookup_workload(check_args(args, true, &["--scheme"], &[])?)?;
    let scheme = parse_scheme(args)?;
    let module = wl.module(Scale::Test);
    let info = analysis::analyze(&module)?;
    print!("{}", instrument::instrument(&module, &info, scheme));
    Ok(())
}

fn cmd_list(args: &[String]) -> CliResult {
    check_args(args, false, &[], &[])?;
    for w in workloads::all() {
        println!("{:<12} [{:<7}] {}", w.name, w.suite.to_string(), w.profile);
    }
    Ok(())
}
