//! The `hwst-bench` input and exit contract, driven through the built
//! binary: `help` lists every experiment once; an unknown experiment,
//! an unknown flag or a malformed value exits 2 before anything runs; a
//! `--json` write failure exits 2; `diff` exits 0/1/2 for
//! equal/different/unreadable artifacts; the print-only experiments
//! and A1 write the artifact envelope and their committed artifacts
//! regenerate identically; a pool-driven table is byte-identical at any worker
//! count; and every pool experiment records its workers, wall time and
//! summed job time.

use hwst_harness::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn hwst_bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hwst-bench"))
        .args(args)
        .output()
        .expect("hwst-bench runs")
}

fn assert_usage_error(args: &[&str], says: &str) {
    let out = hwst_bench(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        stderr.contains(says),
        "{args:?}: stderr lacks `{says}`: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{args:?} must not run");
}

/// The former binary names, without their `hwst-` prefix.
const EXPERIMENTS: [&str; 19] = [
    "fig4",
    "fig5",
    "fig6",
    "hwcost",
    "ablation_keybuffer",
    "ablation_compression",
    "ablation_shadow",
    "ablation_dcache",
    "ablation_shore",
    "ablation_footprint",
    "codesize",
    "binval",
    "lint",
    "resilience",
    "ablation_boundscheck",
    "profile",
    "exec",
    "fig4_o1",
    "zoo",
];

#[test]
fn help_lists_each_experiment_once() {
    let out = hwst_bench(&["help"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    // Experiment lines are indented by two spaces, their flags deeper.
    let listed: Vec<&str> = text
        .lines()
        .filter_map(|l| l.strip_prefix("  "))
        .filter(|l| !l.starts_with(' '))
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    let mut sorted = listed.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), listed.len(), "duplicates in {listed:?}");
    let mut expected = EXPERIMENTS.to_vec();
    expected.sort_unstable();
    assert_eq!(sorted, expected);
}

#[test]
fn unknown_experiment_exits_2() {
    assert_usage_error(
        &["no_such_experiment"],
        "unknown experiment `no_such_experiment`",
    );
    assert_usage_error(&[], "unknown experiment");
}

#[test]
fn unknown_flag_exits_2() {
    assert_usage_error(&["fig4_o1", "--smok"], "unknown flag `--smok`");
    // Each experiment has one configuration: no reduced mode.
    for name in EXPERIMENTS {
        assert_usage_error(&[name, "--smoke"], "unknown flag `--smoke`");
    }
    // `--scheme` changes only `codesize`'s columns; the zoo always
    // sweeps and prints every design.
    assert_usage_error(&["zoo", "--scheme", "tchk"], "unknown flag `--scheme`");
    // A flag another experiment takes is still unknown here.
    assert_usage_error(&["fig4", "--opt", "O1"], "unknown flag `--opt`");
    assert_usage_error(
        &["ablation_compression", "--jobs", "2"],
        "unknown flag `--jobs`",
    );
    assert_usage_error(&["fig5", "extra"], "unexpected argument `extra`");
    // `--jobs N` is the only pool flag.
    for args in [
        &["fig4", "--progress"][..],
        &["fig4", "--quiet"],
        &["fig4", "--timeout-secs", "5"],
    ] {
        assert_usage_error(args, &format!("unknown flag `{}`", args[1]));
    }
}

#[test]
fn malformed_value_exits_2() {
    assert_usage_error(&["hwcost", "abc"], "`abc` is not a keybuffer entry count");
    assert_usage_error(&["fig4", "--jobs", "many"], "`--jobs many`");
    assert_usage_error(&["fig4", "--jobs", "0"], "`--jobs 0`");
    assert_usage_error(&["fig6", "--stride"], "`--stride` needs a value");
    assert_usage_error(&["binval", "--opt", "O3"], "unknown opt level `O3`");
    assert_usage_error(
        &["codesize", "--scheme", "no-such"],
        "unknown scheme `no-such`",
    );
    assert_usage_error(
        &["lint", "no-such-workload"],
        "unknown workload `no-such-workload`",
    );
}

#[test]
fn fixed_scale_experiments_reject_bench_scale() {
    for name in [
        "ablation_shore",
        "ablation_footprint",
        "ablation_shadow",
        "ablation_dcache",
        "codesize",
    ] {
        assert_usage_error(&[name, "--bench-scale"], "unknown flag `--bench-scale`");
    }
}

#[test]
fn json_write_failure_exits_2() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let good = dir.join("driver-lint.json");
    let out = hwst_bench(&["lint", "math", "--json", good.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0));
    let text = std::fs::read_to_string(&good).expect("artifact written");
    assert!(text.contains("\"schema\": \"hwst-bench/lint\""), "{text}");

    let bad = dir.join("no-such-dir").join("driver-lint.json");
    let out = hwst_bench(&["lint", "math", "--json", bad.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("could not write"), "{stderr}");
}

#[test]
fn pool_table_is_identical_at_any_worker_count() {
    let run = |jobs: &str| {
        let out = hwst_bench(&["fig6", "--stride", "97", "--jobs", jobs]);
        assert_eq!(out.status.code(), Some(0), "--jobs {jobs}");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(stderr.contains(&format!("on {jobs} worker(s)")), "{stderr}");
        out.stdout
    };
    let serial = run("1");
    assert!(!serial.is_empty());
    assert_eq!(serial, run("2"));
}

/// Pool experiments settle every sweep through the driver, so each
/// envelope's `host` carries the worker count, the wall time and the
/// jobs' summed wall time.
#[test]
fn pool_experiments_record_serial_wall() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    for (name, extra) in [
        ("ablation_keybuffer", &[][..]),
        ("fig6", &["--stride", "500"][..]),
    ] {
        let path = dir.join(format!("driver-{name}.json"));
        let mut args = vec![name, "--jobs", "2", "--json", arg(&path)];
        args.extend(extra);
        let out = hwst_bench(&args);
        assert_eq!(out.status.code(), Some(0), "{name}");
        let doc = Json::parse(&std::fs::read_to_string(&path).expect(name)).expect(name);
        let host = doc.get("host").expect("host payload");
        assert_eq!(
            host.get("workers").and_then(Json::as_i64),
            Some(2),
            "{name}"
        );
        for key in ["wall_ms", "serial_wall_ms"] {
            let ms = host.get(key).and_then(Json::as_f64);
            assert!(
                ms.is_some_and(|ms| ms >= 0.0),
                "{name}: host.{key} = {ms:?}"
            );
        }
    }
}

fn repo_file(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name)
}

fn arg(path: &Path) -> &str {
    path.to_str().expect("UTF-8 path")
}

#[test]
fn diff_compares_everything_but_rev_and_host() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let committed = repo_file("BENCH_hwcost.json");
    let text = std::fs::read_to_string(&committed).expect("committed artifact");
    let doc = Json::parse(&text).expect("parses");
    let copy = |name: &str, body: String| {
        let path = dir.join(name);
        std::fs::write(&path, body).expect("scratch file written");
        path
    };
    let diff = |other: &Path| hwst_bench(&["diff", arg(&committed), arg(other)]);

    assert_eq!(diff(&committed).status.code(), Some(0));
    for (name, changed) in [
        ("diff-rev.json", doc.clone().set("rev", "elsewhere")),
        ("diff-host.json", doc.clone().set("host", Json::obj())),
    ] {
        let out = diff(&copy(name, changed.to_string()));
        assert_eq!(out.status.code(), Some(0), "{name}");
    }

    let sim_change = text.replacen("\"luts\": 1536", "\"luts\": 1537", 1);
    assert_ne!(sim_change, text, "the fixture carries the added-LUT total");
    let out = diff(&copy("diff-sim.json", sim_change));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains(".sim.added.luts: 1536 vs 1537"), "{stdout}");

    for other in [
        dir.join("no-such.json"),
        copy("diff-bad.json", "{ nope".into()),
    ] {
        let out = diff(&other);
        assert_eq!(out.status.code(), Some(2), "{}", other.display());
    }
    assert_usage_error(&["diff", arg(&committed)], "usage: hwst-bench diff");
}

/// The print-only experiments and A1 write the artifact envelope, and
/// their committed artifacts regenerate from the recorded `flags` with
/// an identical `sim`.
#[test]
fn committed_artifacts_regenerate_identically() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    for file in [
        "BENCH_hwcost.json",
        "BENCH_compression.json",
        "BENCH_codesize.json",
        "BENCH_lint.json",
        "BENCH_keybuffer.json",
    ] {
        let committed = repo_file(file);
        let doc = Json::parse(&std::fs::read_to_string(&committed).expect(file)).expect(file);
        let schema = doc.get("schema").and_then(Json::as_str).expect("schema");
        let flags = doc.get("flags").and_then(Json::as_arr).expect("flags");
        let fresh = dir.join(file);
        let mut args = vec![schema
            .strip_prefix("hwst-bench/")
            .expect("hwst-bench schema")];
        args.extend(flags.iter().filter_map(Json::as_str));
        args.extend(["--json", arg(&fresh)]);
        assert_eq!(hwst_bench(&args).status.code(), Some(0), "{file}");

        let envelope = Json::parse(&std::fs::read_to_string(&fresh).expect(file)).expect(file);
        assert_eq!(envelope.get("schema").and_then(Json::as_str), Some(schema));
        assert_eq!(envelope.get("version").and_then(Json::as_i64), Some(2));
        assert_eq!(envelope.get("flags").and_then(Json::as_arr), Some(flags));
        for payload in ["sim", "host"] {
            let found = envelope.get(payload);
            assert!(matches!(found, Some(Json::Obj(_))), "{file}: {payload}");
        }
        let out = hwst_bench(&["diff", arg(&committed), arg(&fresh)]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{file}: {stdout}");
    }
}
