//! Structured errors for the interchange layer.
//!
//! Every failure mode a hostile or merely stale input can trigger maps
//! to one of these variants; none of the parsers or the validator panic
//! on malformed input. The [`IrRule`] taxonomy names the validation
//! rules so callers (and tests) can match on *which* rule fired rather
//! than grepping message text.

use std::error::Error;
use std::fmt;

/// Which validation rule a violation belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IrRule {
    /// A signal net with no device or passive attached to it.
    DanglingNet,
    /// Two records of the same kind claim one id.
    DuplicateId,
    /// Record ids of one kind do not form a contiguous `0..n` range.
    MissingId,
    /// A record references a net, device, or CCC that does not exist.
    BadReference,
    /// A device with non-positive or non-finite geometry, or zero
    /// fingers.
    IllTypedDevice,
    /// A passive with a negative or non-finite value.
    NonFiniteGeometry,
    /// Recognition annotations disagree with a fresh partition of the
    /// loaded netlist (CCC ownership, family, clocks, or state).
    CccOwnership,
    /// A design with no devices and no passives.
    EmptyDesign,
}

impl IrRule {
    /// Stable lowercase name of the rule (used in error text and the
    /// wire form of rejections).
    pub fn name(self) -> &'static str {
        match self {
            IrRule::DanglingNet => "dangling-net",
            IrRule::DuplicateId => "duplicate-id",
            IrRule::MissingId => "missing-id",
            IrRule::BadReference => "bad-reference",
            IrRule::IllTypedDevice => "ill-typed-device",
            IrRule::NonFiniteGeometry => "non-finite-geometry",
            IrRule::CccOwnership => "ccc-ownership",
            IrRule::EmptyDesign => "empty-design",
        }
    }
}

/// One validation finding: the rule that fired, the entity it fired on,
/// and a human-readable explanation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IrViolation {
    /// The rule.
    pub rule: IrRule,
    /// The entity, e.g. `net 3` or `device "inv_p"`.
    pub subject: String,
    /// What is wrong.
    pub message: String,
}

impl fmt::Display for IrViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {}: {}",
            self.rule.name(),
            self.subject,
            self.message
        )
    }
}

/// Interchange-layer error. `Display` renders a single line suitable
/// for the daemon's wire-level `error` field.
#[derive(Debug, Clone, PartialEq)]
pub enum IrError {
    /// The input is not valid UTF-8.
    Encoding {
        /// Byte offset of the first invalid sequence.
        offset: usize,
    },
    /// The version header names a format this build does not read.
    Version {
        /// The header line as found.
        found: String,
    },
    /// A malformed line in `cbv-ir` text.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// A structurally invalid Yosys JSON document.
    Import {
        /// What went wrong, with the offending module/cell named.
        message: String,
    },
    /// The netlist parsed but failed validation.
    Invalid {
        /// Every rule that fired, in deterministic order.
        violations: Vec<IrViolation>,
    },
}

impl IrError {
    /// Wraps a non-empty violation list; panics on an empty one (an
    /// empty list means the input was valid).
    pub fn invalid(violations: Vec<IrViolation>) -> IrError {
        assert!(!violations.is_empty(), "no violations to report");
        IrError::Invalid { violations }
    }
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrError::Encoding { offset } => {
                write!(f, "input is not valid UTF-8 (first bad byte at {offset})")
            }
            IrError::Version { found } => {
                write!(
                    f,
                    "unsupported IR version {found:?} (this build reads cbv-ir/1)"
                )
            }
            IrError::Parse { line, message } => write!(f, "line {line}: {message}"),
            IrError::Import { message } => write!(f, "yosys import: {message}"),
            IrError::Invalid { violations } => {
                write!(f, "invalid design ({} violations):", violations.len())?;
                for v in violations {
                    write!(f, " {v};")?;
                }
                Ok(())
            }
        }
    }
}

impl Error for IrError {}

/// A required field missing from an imported JSON document.
impl From<serde_json::FieldError> for IrError {
    fn from(e: serde_json::FieldError) -> IrError {
        IrError::Import {
            message: e.to_string(),
        }
    }
}
