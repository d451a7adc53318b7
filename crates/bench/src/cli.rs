//! Tiny shared argument parsing for the bench binaries.
//!
//! Every bin accepts the harness family of flags:
//!
//! * `--jobs N` — worker count (env fallback `HWST_JOBS`, default
//!   [`std::thread::available_parallelism`]),
//! * `--json PATH` — write the machine-readable summary there,
//! * `--timeout-secs N` — per-job watchdog,
//! * `--progress` — per-job progress lines on stderr (failures are
//!   always printed),
//! * `--bench-scale` — full-size workloads instead of `Scale::Test`.
//!
//! Bin-specific flags (`--smoke`, `--stride N`, `--model`) go through
//! [`BenchArgs::flag`] / [`BenchArgs::value`].

use hwst128::compiler::Scheme;
use hwst128::workloads::Scale;
use hwst_harness::{ConsoleSink, NullSink, PoolConfig, Sink};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Parsed command line of a bench bin.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    args: Vec<String>,
}

impl BenchArgs {
    /// Parses [`std::env::args`] (the program name is skipped).
    pub fn parse() -> Self {
        Self::from_vec(std::env::args().skip(1).collect())
    }

    /// Builds from an explicit vector (for tests).
    pub fn from_vec(args: Vec<String>) -> Self {
        BenchArgs { args }
    }

    /// Is the bare flag present?
    pub fn flag(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == name)
    }

    /// The value following `name`, if both are present.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.args
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.args.get(i + 1))
            .map(String::as_str)
    }

    /// The value following `name`, parsed; malformed values abort with
    /// a clear message rather than being silently ignored.
    pub fn parsed_value<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        self.value(name).map(|raw| {
            raw.parse().unwrap_or_else(|_| {
                eprintln!("error: `{name} {raw}` is not a valid value");
                std::process::exit(2)
            })
        })
    }

    /// `Scale::Bench` when `--bench-scale` is given, else `Scale::Test`.
    pub fn scale(&self) -> Scale {
        if self.flag("--bench-scale") {
            Scale::Bench
        } else {
            Scale::Test
        }
    }

    /// Worker count: `--jobs N`, else `HWST_JOBS`, else the machine's
    /// available parallelism.
    pub fn jobs(&self) -> usize {
        self.parsed_value::<usize>("--jobs")
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| PoolConfig::from_env().workers)
    }

    /// The pool configuration implied by `--jobs`/`--timeout-secs`.
    pub fn pool(&self) -> PoolConfig {
        let mut cfg = PoolConfig::parallel(self.jobs());
        if let Some(secs) = self.parsed_value::<u64>("--timeout-secs") {
            cfg = cfg.with_timeout(Duration::from_secs(secs));
        }
        cfg
    }

    /// Target of `--json`, if requested.
    pub fn json_path(&self) -> Option<&Path> {
        self.value("--json").map(Path::new)
    }

    /// Target of `--json`, owned.
    pub fn json_path_buf(&self) -> Option<PathBuf> {
        self.json_path().map(Path::to_path_buf)
    }

    /// The scheme/design filter shared by the sweeping bins:
    /// `--scheme A,B,...` (repeatable), matched against
    /// [`Scheme::label`] case-insensitively, `none` accepted as an
    /// alias for `baseline`. Absent flags yield `default`; unknown
    /// labels abort with the known list rather than being silently
    /// dropped.
    pub fn schemes(&self, default: &[Scheme]) -> Vec<Scheme> {
        let mut picked = Vec::new();
        let mut explicit = false;
        for (i, a) in self.args.iter().enumerate() {
            if a != "--scheme" {
                continue;
            }
            explicit = true;
            let raw = self.args.get(i + 1).map(String::as_str).unwrap_or_default();
            for label in raw.split(',').filter(|l| !l.is_empty()) {
                let scheme = scheme_by_label(label).unwrap_or_else(|| {
                    let known: Vec<&str> = ALL_SCHEMES.iter().map(|s| s.label()).collect();
                    eprintln!(
                        "error: unknown scheme `{label}` (known: {})",
                        known.join(", ")
                    );
                    std::process::exit(2)
                });
                if !picked.contains(&scheme) {
                    picked.push(scheme);
                }
            }
        }
        if explicit {
            picked
        } else {
            default.to_vec()
        }
    }

    /// The progress sink: verbose per-job lines with `--progress`,
    /// failures-only otherwise.
    pub fn sink(&self) -> Box<dyn Sink> {
        if self.flag("--quiet") {
            Box::new(NullSink)
        } else {
            Box::new(ConsoleSink {
                verbose: self.flag("--progress"),
            })
        }
    }
}

/// Every scheme the compiler knows, in declaration order — the
/// `--scheme` match domain.
pub const ALL_SCHEMES: [Scheme; 9] = [
    Scheme::None,
    Scheme::Sbcets,
    Scheme::Hwst128,
    Scheme::Hwst128Tchk,
    Scheme::Shore,
    Scheme::RvCure,
    Scheme::L4Pointer,
    Scheme::CryptSan,
    Scheme::HeapSafe,
];

/// Resolves a scheme from its [`Scheme::label`] (case-insensitive);
/// `none` is accepted as an alias for `baseline`.
pub fn scheme_by_label(raw: &str) -> Option<Scheme> {
    if raw.eq_ignore_ascii_case("none") {
        return Some(Scheme::None);
    }
    ALL_SCHEMES
        .iter()
        .copied()
        .find(|s| s.label().eq_ignore_ascii_case(raw))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_harness_flags() {
        let a = BenchArgs::from_vec(
            ["--jobs", "4", "--json", "out.json", "--timeout-secs", "9"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
        );
        assert_eq!(a.jobs(), 4);
        assert_eq!(a.pool().workers, 4);
        assert_eq!(a.pool().timeout, Some(Duration::from_secs(9)));
        assert_eq!(a.json_path(), Some(Path::new("out.json")));
        assert_eq!(a.scale(), Scale::Test);
        assert!(!a.flag("--smoke"));
    }

    #[test]
    fn parses_scheme_lists() {
        let args = |v: &[&str]| BenchArgs::from_vec(v.iter().map(|s| s.to_string()).collect());
        let default = [Scheme::Hwst128Tchk];
        assert_eq!(args(&[]).schemes(&default), vec![Scheme::Hwst128Tchk]);
        assert_eq!(
            args(&["--scheme", "SBCETS,HWST128_tchk"]).schemes(&default),
            vec![Scheme::Sbcets, Scheme::Hwst128Tchk]
        );
        // Repeatable, case-insensitive, deduplicated, `none` aliased.
        assert_eq!(
            args(&["--scheme", "rv-cure", "--scheme", "none,RV-CURE"]).schemes(&default),
            vec![Scheme::RvCure, Scheme::None]
        );
        assert_eq!(scheme_by_label("heapsafe"), Some(Scheme::HeapSafe));
        assert_eq!(scheme_by_label("no-such"), None);
    }

    #[test]
    fn defaults_are_sane() {
        let a = BenchArgs::from_vec(vec!["--bench-scale".into(), "--smoke".into()]);
        assert!(a.jobs() >= 1);
        assert_eq!(a.pool().timeout, None);
        assert_eq!(a.json_path(), None);
        assert_eq!(a.scale(), Scale::Bench);
        assert!(a.flag("--smoke"));
    }
}
