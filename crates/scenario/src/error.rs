//! Typed scenario errors.
//!
//! Every failure mode of loading, validating or running a scenario is a
//! [`ScenarioError`] naming the offending field (as a `.`-separated path
//! into the JSON document, e.g. `grid.generator.floors` or
//! `grid.explicit.cables[2].a`) — malformed input must never panic.

use simnet::grid::GridError;
use std::fmt;

/// Why a scenario or campaign could not be loaded, validated or run.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// A file could not be read or written.
    Io {
        /// Path of the file the failing operation named.
        path: String,
        /// Underlying error text.
        message: String,
    },
    /// The document is not valid JSON.
    Parse {
        /// Parser error text.
        message: String,
    },
    /// A field is missing, has the wrong type, or holds an invalid value.
    Invalid {
        /// Path of the offending field inside the document.
        field: String,
        /// What is wrong and what would be accepted.
        message: String,
    },
    /// Grid construction rejected the declared topology.
    Grid {
        /// Path of the field that produced the bad grid element.
        field: String,
        /// The structural grid error.
        source: GridError,
    },
}

impl ScenarioError {
    /// Convenience constructor for [`ScenarioError::Invalid`].
    pub fn invalid(field: impl Into<String>, message: impl Into<String>) -> Self {
        ScenarioError::Invalid {
            field: field.into(),
            message: message.into(),
        }
    }

    /// The field path the error points at, when it points at one.
    pub fn field(&self) -> Option<&str> {
        match self {
            ScenarioError::Invalid { field, .. } | ScenarioError::Grid { field, .. } => Some(field),
            _ => None,
        }
    }
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Io { path, message } => {
                write!(f, "I/O error on {path}: {message}")
            }
            ScenarioError::Parse { message } => write!(f, "invalid JSON: {message}"),
            ScenarioError::Invalid { field, message } => {
                write!(f, "invalid scenario field `{field}`: {message}")
            }
            ScenarioError::Grid { field, source } => {
                write!(f, "invalid grid at `{field}`: {source}")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<GridError> for ScenarioError {
    fn from(source: GridError) -> Self {
        ScenarioError::Grid {
            field: "grid".to_string(),
            source,
        }
    }
}
