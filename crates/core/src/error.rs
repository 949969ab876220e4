//! Error type for threshold synthesis.

use std::error::Error;
use std::fmt;

use tels_ilp::SolveError;
use tels_logic::LogicError;

/// Errors produced by threshold network synthesis and verification.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SynthError {
    /// The underlying Boolean network is malformed (cyclic, bad references).
    Logic(LogicError),
    /// The ILP solver failed with an arithmetic error.
    Solver(SolveError),
    /// A threshold netlist failed to parse; carries line and description.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// A cover reached a splitting routine that cannot decompose it (for
    /// example a single-cube or constant cover handed to the unate split).
    Split(String),
    /// The configuration cannot be synthesized with: a field out of range
    /// (see [`TelsConfig::validate`](crate::TelsConfig::validate)), or a
    /// weight cap too small for a gate the flow must emit.
    Config(String),
    /// An internal invariant was violated (a bug in the synthesizer).
    Internal(String),
}

impl fmt::Display for SynthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthError::Logic(e) => write!(f, "logic error: {e}"),
            SynthError::Solver(e) => write!(f, "solver error: {e}"),
            SynthError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            SynthError::Split(m) => write!(f, "split error: {m}"),
            SynthError::Config(m) => write!(f, "invalid configuration: {m}"),
            SynthError::Internal(m) => write!(f, "internal synthesis error: {m}"),
        }
    }
}

impl Error for SynthError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SynthError::Logic(e) => Some(e),
            SynthError::Solver(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LogicError> for SynthError {
    fn from(e: LogicError) -> Self {
        SynthError::Logic(e)
    }
}

impl From<SolveError> for SynthError {
    fn from(e: SolveError) -> Self {
        SynthError::Solver(e)
    }
}
