//! Compilation errors.

use crate::ir::{LocalId, VarId};
use std::fmt;

/// Errors raised while analyzing or lowering a module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The module has no `main` function.
    MissingMain,
    /// A call names a function the module does not define.
    UnknownCallee {
        /// The function containing the call.
        caller: String,
        /// The missing callee name.
        callee: String,
    },
    /// A pointer-typed operand is produced by a non-pointer definition
    /// (pointer-analysis consistency violation).
    NotAPointer {
        /// The function containing the use.
        func: String,
        /// The offending variable.
        var: VarId,
        /// Where it was used as a pointer.
        at: &'static str,
    },
    /// More than 8 call arguments.
    TooManyArgs {
        /// The function containing the call.
        caller: String,
        /// The callee.
        callee: String,
        /// Argument count.
        count: usize,
    },
    /// A branch or jump targets a block that does not exist.
    BadBlockTarget {
        /// The function.
        func: String,
        /// The missing block index.
        target: u32,
    },
    /// A parameter, instruction or terminator names a variable at or
    /// past the function's `num_vars`.
    VarOutOfRange {
        /// The function.
        func: String,
        /// The out-of-range variable.
        var: VarId,
    },
    /// A function's `param_is_ptr` does not have one flag per parameter.
    ParamFlagsMismatch {
        /// The function.
        func: String,
        /// Number of parameters.
        params: usize,
        /// Number of `param_is_ptr` flags.
        flags: usize,
    },
    /// A `LocalGet` or `LocalSet` names a slot at or past the function's
    /// `num_locals`.
    LocalOutOfRange {
        /// The function.
        func: String,
        /// The out-of-range slot.
        local: LocalId,
    },
    /// A function has no blocks, so it would lower to no code at all and
    /// a call to it would run into whatever code follows.
    EmptyFunction {
        /// The function.
        func: String,
    },
    /// The metadata-completeness verifier found a dereference the
    /// active scheme's promised checks do not cover (see
    /// [`crate::verify`]).
    UncoveredDeref {
        /// The function containing the access.
        func: String,
        /// Block index of the access.
        block: usize,
        /// Instruction index within the block.
        inst: usize,
        /// The scheme whose contract was violated.
        scheme: &'static str,
    },
    /// A skipped check's bounds-proof witness failed re-validation (see
    /// [`crate::verify::verify_with`]) — either the claimed interval
    /// does not fit the object, the witness index is out of range, or
    /// the exempted site is not a dereference.
    InvalidWitness {
        /// The function containing the skipped check.
        func: String,
        /// Block index of the skip (instrumented coordinates).
        block: usize,
        /// Instruction index within the block.
        inst: usize,
        /// Why the witness was rejected.
        reason: &'static str,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::MissingMain => {
                write!(f, "module does not define a main function")
            }
            CompileError::UnknownCallee { caller, callee } => {
                write!(f, "{caller} calls unknown function {callee}")
            }
            CompileError::NotAPointer { func, var, at } => {
                write!(
                    f,
                    "{func}: {var} used as a pointer at {at} but never defined as one"
                )
            }
            CompileError::TooManyArgs {
                caller,
                callee,
                count,
            } => write!(f, "{caller} passes {count} arguments to {callee} (max 8)"),
            CompileError::BadBlockTarget { func, target } => {
                write!(f, "{func}: control flow targets missing block b{target}")
            }
            CompileError::VarOutOfRange { func, var } => {
                write!(f, "{func}: {var} is past the function's num_vars")
            }
            CompileError::ParamFlagsMismatch {
                func,
                params,
                flags,
            } => write!(
                f,
                "{func}: {params} parameters but {flags} param_is_ptr flags"
            ),
            CompileError::LocalOutOfRange { func, local } => {
                write!(
                    f,
                    "{func}: local[{}] is past the function's num_locals",
                    local.0
                )
            }
            CompileError::EmptyFunction { func } => write!(f, "{func}: function has no blocks"),
            CompileError::UncoveredDeref {
                func,
                block,
                inst,
                scheme,
            } => write!(
                f,
                "{func}: dereference at b{block}/{inst} is not covered by the {scheme} checks"
            ),
            CompileError::InvalidWitness {
                func,
                block,
                inst,
                reason,
            } => write!(
                f,
                "{func}: check skipped at b{block}/{inst} without a valid witness: {reason}"
            ),
        }
    }
}

impl std::error::Error for CompileError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_function() {
        let e = CompileError::UnknownCallee {
            caller: "main".into(),
            callee: "ghost".into(),
        };
        assert!(e.to_string().contains("main") && e.to_string().contains("ghost"));
    }
}
