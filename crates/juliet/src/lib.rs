//! # hwst-juliet
//!
//! A NIST-Juliet-style memory-safety test suite (paper §4/§5.2, Fig. 6):
//! 8366 cases across the paper's ten CWE sub-categories, evaluated
//! against four detectors.
//!
//! The real Juliet 1.x C sources cannot be compiled here, so the suite is
//! *regenerated*: each [`Case`] carries the attributes that decide
//! detectability (overflow magnitude, 8-byte-granule slack, provenance
//! laundering — Juliet's many flow variants where the violation happens
//! outside the instrumentation's reach) and expands into a real IR
//! program via [`build_program`].
//!
//! * **SBCETS** and **HWST128** coverage is *measured*: every case is
//!   compiled with the corresponding instrumentation and executed on the
//!   simulator; a spatial/temporal trap counts as detection — exactly the
//!   paper's methodology ("The memory violation detection is done by
//!   parsing the output of the test case").
//! * **GCC** and **ASAN** coverage is *modelled* per-CWE (documented
//!   substitution: those toolchains are outside this substrate), with
//!   rates reproducing the published Fig. 6 profile — notably ASAN's
//!   total blindness to CWE690.
//!
//! ## Example
//!
//! ```
//! use hwst_juliet::{suite, Cwe};
//!
//! let cases = suite();
//! assert_eq!(cases.len(), 8366);
//! let spatial = cases.iter().filter(|c| c.cwe.is_spatial()).count();
//! assert_eq!(spatial, 7074); // paper §4
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod case;
mod detector;
mod program;
mod report;
mod static_detect;

pub use case::{sample_reachable, suite, Case, Cwe, Flow};
pub use detector::{model_detects, Detector};
pub use program::{build_benign_program, build_program, execute_detects};
pub use report::{measure_case, measure_coverage, model_coverage, CaseDetections, CoverageReport};
pub use static_detect::{
    binval_detects, static_coverage, static_coverage_strided, static_detects, StaticRow,
};
