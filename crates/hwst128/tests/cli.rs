//! `hwst128-cli` argument errors: a bad flag value exits 1 with an
//! `error: …` line instead of being ignored.

use std::process::Command;

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
        let mut args = vec!["run", "math", "--trace"];
        args.extend(value);
        let out = Command::new(env!("CARGO_BIN_EXE_hwst128-cli"))
            .args(&args)
            .output()
            .expect("hwst128-cli starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert_eq!(stderr.trim_end(), format!("error: {message}"), "{args:?}");
    }
}
