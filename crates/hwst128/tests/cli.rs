//! `hwst128-cli` argument errors: a bad flag value or a word the
//! command does not take exits 1 with an `error: …` line instead of
//! being ignored.

use std::process::Command;

/// Runs `hwst128-cli run math <flag> [value]` and asserts that it exits
/// 1 with exactly `error: <message>`.
fn assert_flag_error(flag: &str, value: Option<&str>, message: &str) {
    let mut args = vec!["run", "math", flag];
    args.extend(value);
    let out = Command::new(env!("CARGO_BIN_EXE_hwst128-cli"))
        .args(&args)
        .output()
        .expect("hwst128-cli starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert_eq!(stderr.trim_end(), format!("error: {message}"), "{args:?}");
}

/// A malformed, negative or missing `--trace` count is an error that
/// names the flag (and the value, when there is one), not an untraced
/// run.
#[test]
fn malformed_trace_count_is_an_error() {
    for (value, message) in [
        (Some("x"), r#"--trace takes a step count, got "x""#),
        (Some("-3"), r#"--trace takes a step count, got "-3""#),
        (None, "--trace needs a step count"),
    ] {
        assert_flag_error("--trace", value, message);
    }
}

/// A missing or unknown `--scheme` is an error, not a run under the
/// default scheme.
#[test]
fn malformed_scheme_is_an_error() {
    for (value, message) in [
        (Some("bogus"), r#"unknown scheme "bogus""#),
        (None, "--scheme needs a scheme"),
    ] {
        assert_flag_error("--scheme", value, message);
    }
}

/// A word a command does not take — a misspelt flag, a flag of another
/// command, a second positional argument or any argument to `list` — is
/// an error that names it, not a run that ignores it.
#[test]
fn unknown_and_stray_arguments_are_errors() {
    for (args, message) in [
        (
            &["run", "health", "--schme", "sbcets"][..],
            r#"unknown flag "--schme""#,
        ),
        (
            &["run", "health", "sbcets"],
            r#"unexpected argument "sbcets""#,
        ),
        (
            &["disasm", "math", "--trace", "5"],
            r#"unknown flag "--trace""#,
        ),
        (&["ir", "math", "extra"], r#"unexpected argument "extra""#),
        (&["list", "--scheme", "x"], r#"unknown flag "--scheme""#),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_hwst128-cli"))
            .args(args)
            .output()
            .expect("hwst128-cli starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert_eq!(stderr.trim_end(), format!("error: {message}"), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} must not run");
    }
}
