//! Error type shared by the time-series substrate.

use std::fmt;

/// Errors produced while constructing or transforming time series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TsError {
    /// A series with zero samples was supplied where data is required.
    Empty,
    /// Two series that must share a length do not.
    LengthMismatch {
        /// Length that was expected (usually the query length).
        expected: usize,
        /// Length that was actually supplied.
        actual: usize,
    },
    /// A sample was NaN or infinite.
    NonFinite {
        /// Index of the offending sample.
        index: usize,
    },
    /// Z-normalization of a constant series was requested.
    ZeroVariance,
    /// A parameter was outside its valid domain.
    InvalidParam {
        /// Name of the parameter.
        name: &'static str,
        /// Human-readable description of the violation.
        message: String,
    },
}

impl TsError {
    /// Convenience constructor for [`TsError::InvalidParam`].
    pub fn invalid_param(name: &'static str, message: impl Into<String>) -> Self {
        TsError::InvalidParam {
            name,
            message: message.into(),
        }
    }
}

impl fmt::Display for TsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TsError::Empty => write!(f, "time series must contain at least one sample"),
            TsError::LengthMismatch { expected, actual } => {
                write!(f, "length mismatch: expected {expected}, got {actual}")
            }
            TsError::NonFinite { index } => {
                write!(f, "sample at index {index} is NaN or infinite")
            }
            TsError::ZeroVariance => {
                write!(f, "cannot z-normalize a series with zero variance")
            }
            TsError::InvalidParam { name, message } => {
                write!(f, "invalid parameter `{name}`: {message}")
            }
        }
    }
}

impl std::error::Error for TsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = TsError::LengthMismatch {
            expected: 8,
            actual: 4,
        };
        assert_eq!(e.to_string(), "length mismatch: expected 8, got 4");
        assert_eq!(
            TsError::Empty.to_string(),
            "time series must contain at least one sample"
        );
        assert_eq!(
            TsError::NonFinite { index: 3 }.to_string(),
            "sample at index 3 is NaN or infinite"
        );
    }

    #[test]
    fn invalid_param_constructor() {
        let e = TsError::invalid_param("band", "must be <= n");
        assert_eq!(e.to_string(), "invalid parameter `band`: must be <= n");
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn std::error::Error> = Box::new(TsError::ZeroVariance);
        assert!(e.to_string().contains("zero variance"));
    }
}
