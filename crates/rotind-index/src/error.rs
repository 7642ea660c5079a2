//! Error type for search and indexing operations.

use rotind_ts::TsError;
use std::fmt;

/// Errors from the search engine and the disk index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SearchError {
    /// The database contains no items.
    EmptyDatabase,
    /// A database item's length differs from the query length.
    LengthMismatch {
        /// Index of the offending database item.
        index: usize,
        /// Expected series length (the query length).
        expected: usize,
        /// Actual length of the item.
        actual: usize,
    },
    /// The query's length differs from the series length of the
    /// database it is run against.
    QueryLength {
        /// Length of the query series.
        query: usize,
        /// Series length of every database item.
        database: usize,
    },
    /// The query series was rejected when the engine was built: it is
    /// empty or holds a NaN or infinite sample.
    InvalidQuery(TsError),
    /// An invalid parameter (e.g. `k = 0` for k-NN).
    InvalidParam {
        /// Parameter name.
        name: &'static str,
        /// Violation description.
        message: String,
    },
}

impl SearchError {
    /// Convenience constructor for [`SearchError::InvalidParam`].
    pub fn invalid_param(name: &'static str, message: impl Into<String>) -> Self {
        SearchError::InvalidParam {
            name,
            message: message.into(),
        }
    }
}

impl fmt::Display for SearchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SearchError::EmptyDatabase => write!(f, "database contains no items"),
            SearchError::LengthMismatch {
                index,
                expected,
                actual,
            } => write!(
                f,
                "database item {index} has length {actual}, expected {expected}"
            ),
            SearchError::QueryLength { query, database } => write!(
                f,
                "query has length {query}, but the database series have length {database}"
            ),
            SearchError::InvalidQuery(e) => write!(f, "invalid query: {e}"),
            SearchError::InvalidParam { name, message } => {
                write!(f, "invalid parameter `{name}`: {message}")
            }
        }
    }
}

impl std::error::Error for SearchError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert_eq!(
            SearchError::EmptyDatabase.to_string(),
            "database contains no items"
        );
        let e = SearchError::LengthMismatch {
            index: 3,
            expected: 64,
            actual: 32,
        };
        assert_eq!(e.to_string(), "database item 3 has length 32, expected 64");
        let e = SearchError::QueryLength {
            query: 8,
            database: 16,
        };
        assert_eq!(
            e.to_string(),
            "query has length 8, but the database series have length 16"
        );
        assert_eq!(
            SearchError::InvalidQuery(TsError::NonFinite { index: 2 }).to_string(),
            "invalid query: sample at index 2 is NaN or infinite"
        );
        assert_eq!(
            SearchError::invalid_param("k", "must be >= 1").to_string(),
            "invalid parameter `k`: must be >= 1"
        );
    }

    #[test]
    fn is_std_error() {
        let e: Box<dyn std::error::Error> = Box::new(SearchError::EmptyDatabase);
        assert!(!e.to_string().is_empty());
    }
}
