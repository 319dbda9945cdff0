//! The pipeline-wide structured error type.
//!
//! Every fallible operation in the framework — exact arithmetic that can
//! overflow, polyhedral queries that can blow up, transformation requests
//! that name the wrong node — reports an [`InlError`] instead of panicking.
//! The error carries a machine-matchable [`InlErrorKind`], a human-readable
//! message, and the source location that constructed it (captured via
//! `#[track_caller]`), so a failure deep in Fourier–Motzkin elimination
//! still points at the line that gave up.
//!
//! Rejection is a first-class outcome: callers are expected to match on
//! [`InlError::kind`] and recover (try a different transformation, fall
//! back to the untransformed program), never to treat an error as fatal.

use std::fmt;
use std::panic::Location;

/// Machine-matchable classification of an [`InlError`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum InlErrorKind {
    /// Exact integer or rational arithmetic exceeded the `i128` range.
    Overflow,
    /// A constraint system is infeasible where a solution was required.
    Infeasible,
    /// A constraint system or matrix is structurally ill-formed
    /// (arity mismatch, zero denominator, non-positive divisor, …).
    IllFormed,
    /// A resource budget was exhausted (e.g. the Fourier–Motzkin
    /// inequality budget) before the query could be answered.
    Budget,
    /// A matrix completion or rank computation failed (dependent rows,
    /// singular per-statement transform, …).
    RankDeficient,
    /// A transformation names a target node it cannot apply to.
    InvalidTarget,
    /// A program violates the structural rules of the IR.
    MalformedProgram,
    /// The input is valid but uses a feature this implementation does not
    /// handle (non-unit steps, complex bounds, …).
    Unsupported,
}

impl fmt::Display for InlErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InlErrorKind::Overflow => "overflow",
            InlErrorKind::Infeasible => "infeasible",
            InlErrorKind::IllFormed => "ill-formed",
            InlErrorKind::Budget => "budget exhausted",
            InlErrorKind::RankDeficient => "rank-deficient",
            InlErrorKind::InvalidTarget => "invalid target",
            InlErrorKind::MalformedProgram => "malformed program",
            InlErrorKind::Unsupported => "unsupported",
        };
        f.write_str(s)
    }
}

/// A structured, recoverable pipeline error.
///
/// Equality compares kind and message but *not* the source location, so
/// tests can assert on reconstructed errors.
#[derive(Clone, Debug)]
pub struct InlError {
    kind: InlErrorKind,
    message: String,
    location: &'static Location<'static>,
}

impl InlError {
    /// Build an error of `kind`, capturing the caller's source location.
    #[track_caller]
    pub fn new(kind: InlErrorKind, message: impl Into<String>) -> Self {
        InlError {
            kind,
            message: message.into(),
            location: Location::caller(),
        }
    }

    /// Shorthand for [`InlErrorKind::Overflow`] in the named operation.
    #[track_caller]
    pub fn overflow(op: &str) -> Self {
        InlError::new(InlErrorKind::Overflow, format!("{op} exceeds i128 range"))
    }

    /// Shorthand for [`InlErrorKind::InvalidTarget`], naming the offending
    /// node path so the caller can see *which* request was malformed.
    #[track_caller]
    pub fn invalid_target(path: impl fmt::Display, reason: impl fmt::Display) -> Self {
        InlError::new(InlErrorKind::InvalidTarget, format!("{path}: {reason}"))
    }

    /// The error's classification.
    pub fn kind(&self) -> InlErrorKind {
        self.kind
    }

    /// The human-readable detail message.
    pub fn message(&self) -> &str {
        &self.message
    }

    /// `kind: message`, without the source location: the form an error
    /// takes when it leaves the process (a reply, a gate document).
    pub fn summary(&self) -> String {
        format!("{}: {}", self.kind, self.message)
    }

    /// Source file/line that constructed the error.
    pub fn location(&self) -> &'static Location<'static> {
        self.location
    }
}

impl PartialEq for InlError {
    fn eq(&self, other: &Self) -> bool {
        self.kind == other.kind && self.message == other.message
    }
}

impl Eq for InlError {}

impl fmt::Display for InlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} (at {}:{})",
            self.kind,
            self.message,
            self.location.file(),
            self.location.line()
        )
    }
}

impl std::error::Error for InlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_kind_message_and_location() {
        let e = InlError::overflow("lcm");
        assert_eq!(e.kind(), InlErrorKind::Overflow);
        let s = e.to_string();
        assert!(s.contains("overflow"), "{s}");
        assert!(s.contains("lcm exceeds i128 range"), "{s}");
        assert!(s.contains("error.rs"), "location missing: {s}");
        assert_eq!(e.summary(), "overflow: lcm exceeds i128 range");
    }

    #[test]
    fn equality_ignores_location() {
        let a = InlError::new(InlErrorKind::Budget, "fm blow-up");
        let b = InlError::new(InlErrorKind::Budget, "fm blow-up");
        assert_eq!(a, b);
        assert_ne!(a, InlError::new(InlErrorKind::Budget, "other"));
    }

    #[test]
    fn invalid_target_names_the_path() {
        let e = InlError::invalid_target("root[2]", "expected a loop, found a statement");
        assert_eq!(e.kind(), InlErrorKind::InvalidTarget);
        assert!(e.message().starts_with("root[2]: expected a loop"));
    }
}
