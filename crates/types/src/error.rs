//! Workspace-wide error type.

use std::fmt;

use crate::ids::{AccountId, ShardId};

/// Convenience alias for results in this workspace.
pub type Result<T, E = Error> = std::result::Result<T, E>;

/// Errors produced by Mosaic components.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// A shard id was outside `[0, k)`.
    ShardOutOfRange {
        /// The offending shard.
        shard: ShardId,
        /// The configured shard count `k`.
        shards: u16,
    },
    /// The shard count `k` must be at least 1.
    InvalidShardCount(u16),
    /// The cross-shard difficulty `η` must satisfy `η ≥ 1` and be finite.
    InvalidEta(f64),
    /// The future-knowledge ratio `β` must lie in `[0, 1]`.
    InvalidBeta(f64),
    /// The epoch length `τ` (blocks) must be at least 1.
    InvalidTau(u32),
    /// A fixed capacity `λ` must be positive and finite.
    InvalidLambda(f64),
    /// A synthetic-workload field is out of range.
    InvalidWorkload {
        /// The field, named as its `workload.<field>` scenario key.
        field: &'static str,
        /// The rejected value.
        value: f64,
        /// The accepted range.
        expected: &'static str,
    },
    /// A migration request must actually move the account.
    SelfMigration(AccountId),
    /// A trace or epoch window was empty where data was required.
    EmptyTrace,
    /// Malformed input while parsing an external trace file.
    ParseTrace {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// Malformed input while parsing a scenario specification.
    ParseScenario {
        /// 1-based line number (0 when no line applies).
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// An I/O failure while materialising a scenario (trace file,
    /// scenario file, CSV sink).
    Io {
        /// The path involved.
        path: String,
        /// The underlying error message.
        message: String,
    },
    /// A component was used before required initialisation.
    NotInitialized(&'static str),
    /// A `check_invariants` method found broken state.
    Inconsistent {
        /// The component checked, e.g. `"ledger"`.
        component: &'static str,
        /// The invariant that failed, with the values that broke it.
        detail: String,
    },
}

/// Returns [`Error::Inconsistent`] naming `$component`, with a
/// `format!` detail, unless `$holds`.
#[macro_export]
macro_rules! ensure {
    ($holds:expr, $component:expr, $($detail:tt)+) => {
        if !$holds {
            return Err($crate::Error::Inconsistent {
                component: $component,
                detail: format!($($detail)+),
            });
        }
    };
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::ShardOutOfRange { shard, shards } => {
                write!(f, "shard {shard} out of range for k = {shards}")
            }
            Error::InvalidShardCount(k) => write!(f, "invalid shard count k = {k}"),
            Error::InvalidEta(eta) => write!(f, "invalid difficulty eta = {eta}, need eta >= 1"),
            Error::InvalidBeta(beta) => write!(f, "invalid beta = {beta}, need 0 <= beta <= 1"),
            Error::InvalidTau(tau) => write!(f, "invalid epoch length tau = {tau}"),
            Error::InvalidLambda(l) => write!(f, "invalid capacity lambda = {l}"),
            Error::InvalidWorkload {
                field,
                value,
                expected,
            } => write!(f, "invalid workload.{field} = {value}, need {expected}"),
            Error::SelfMigration(acct) => {
                write!(f, "migration request for {acct} does not change shard")
            }
            Error::EmptyTrace => f.write_str("transaction trace is empty"),
            Error::ParseTrace { line, message } => {
                write!(f, "trace parse error at line {line}: {message}")
            }
            Error::ParseScenario { line, message } => {
                if *line == 0 {
                    write!(f, "scenario error: {message}")
                } else {
                    write!(f, "scenario parse error at line {line}: {message}")
                }
            }
            Error::Io { path, message } => write!(f, "io error on {path}: {message}"),
            Error::NotInitialized(what) => write!(f, "component not initialised: {what}"),
            Error::Inconsistent { component, detail } => {
                write!(f, "inconsistent {component}: {detail}")
            }
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_lowercase_and_informative() {
        let e = Error::ShardOutOfRange {
            shard: ShardId::new(9),
            shards: 4,
        };
        assert_eq!(e.to_string(), "shard S10 out of range for k = 4");
        assert!(Error::InvalidEta(0.5).to_string().contains("eta"));
        assert!(Error::InvalidBeta(2.0).to_string().contains("beta"));
        assert!(Error::ParseTrace {
            line: 3,
            message: "bad field".into()
        }
        .to_string()
        .contains("line 3"));
    }

    #[test]
    fn error_is_std_error_send_sync() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<Error>();
    }
}
