//! Error types for the algorithm library.

use std::error::Error as StdError;
use std::fmt;

use crate::time::Duration;

/// Errors arising from invalid algorithm configuration or use.
///
/// All configuration constructors in this crate validate their arguments
/// ([C-VALIDATE]) and report failures through this type.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ConfigError {
    /// A parameter that must lie in an open or closed unit-style interval
    /// was outside it (e.g. the LIMD linear factor `l` must satisfy
    /// `0 < l < 1`).
    ParameterOutOfRange {
        /// Parameter name as it appears in the paper (e.g. `"l"`, `"m"`).
        name: &'static str,
        /// The offending value.
        value: f64,
        /// Human-readable description of the admissible range.
        range: &'static str,
    },
    /// `ttr_min` exceeded `ttr_max`.
    InvalidTtrBounds {
        /// Configured lower bound.
        min: Duration,
        /// Configured upper bound.
        max: Duration,
    },
    /// A tolerance (Δ or δ) that must be positive was zero.
    ZeroTolerance {
        /// Which tolerance was zero (`"delta"` for Δ, `"group delta"` for δ).
        name: &'static str,
    },
    /// A group of related objects needs at least two members.
    GroupTooSmall {
        /// Number of members supplied.
        len: usize,
    },
    /// A serialized configuration spec could not be parsed (see
    /// [`crate::mutual::temporal::MtPolicy`]'s `FromStr`), or a parsed
    /// one names a value out of range.
    InvalidSpec {
        /// What was wrong with the spec text.
        message: String,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ParameterOutOfRange { name, value, range } => {
                write!(
                    f,
                    "parameter `{name}` = {value} outside required range {range}"
                )
            }
            ConfigError::InvalidTtrBounds { min, max } => {
                write!(f, "ttr_min ({min}) exceeds ttr_max ({max})")
            }
            ConfigError::ZeroTolerance { name } => {
                write!(f, "tolerance `{name}` must be positive")
            }
            ConfigError::GroupTooSmall { len } => {
                write!(
                    f,
                    "a related-object group needs at least 2 members, got {len}"
                )
            }
            ConfigError::InvalidSpec { message } => {
                write!(f, "invalid configuration spec: {message}")
            }
        }
    }
}

impl StdError for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = ConfigError::ParameterOutOfRange {
            name: "l",
            value: 1.5,
            range: "(0, 1)",
        };
        assert!(e.to_string().contains('l'));
        assert!(e.to_string().contains("1.5"));

        let e = ConfigError::InvalidTtrBounds {
            min: Duration::from_mins(10),
            max: Duration::from_mins(1),
        };
        assert!(e.to_string().contains("ttr_min"));

        let e = ConfigError::ZeroTolerance { name: "delta" };
        assert!(e.to_string().contains("delta"));

        let e = ConfigError::GroupTooSmall { len: 1 };
        assert!(e.to_string().contains('1'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync + std::error::Error>() {}
        assert_send_sync::<ConfigError>();
    }
}
