//! Newtype identifiers for the entities of the assessment system.
//!
//! Every identifier is a validated, non-empty string wrapper. Using
//! distinct newtypes keeps a `ProblemId` from ever being passed where an
//! `ExamId` is expected (C-NEWTYPE).

use std::borrow::Borrow;
use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, JsonWriter, Serialize};

use crate::error::CoreError;

/// Checks the shared identifier grammar: non-empty, no control characters,
/// at most 128 bytes.
fn validate(kind: &'static str, value: &str) -> Result<(), CoreError> {
    let ok = !value.is_empty() && value.len() <= 128 && !value.chars().any(char::is_control);
    if ok {
        Ok(())
    } else {
        Err(CoreError::InvalidIdentifier {
            kind,
            value: value.to_string(),
        })
    }
}

macro_rules! string_id {
    ($(#[$doc:meta])* $name:ident, $kind:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Deserialize)]
        #[serde(try_from = "String")]
        pub struct $name(String);

        // Serializes as the bare string, written without a clone (ids
        // are the most frequent strings in reports and snapshots).
        impl Serialize for $name {
            fn serialize_into(&self, out: &mut JsonWriter) {
                out.str(&self.0);
            }
        }

        impl $name {
            /// Creates a validated identifier.
            ///
            /// # Errors
            ///
            /// Returns [`CoreError::InvalidIdentifier`] when the input is
            /// empty, longer than 128 bytes, or contains control
            /// characters.
            pub fn new(value: impl Into<String>) -> Result<Self, CoreError> {
                let value = value.into();
                validate($kind, &value)?;
                Ok(Self(value))
            }

            /// The identifier as a string slice.
            #[must_use]
            pub fn as_str(&self) -> &str {
                &self.0
            }

            /// Consumes the identifier, returning the underlying `String`.
            #[must_use]
            pub fn into_inner(self) -> String {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(&self.0)
            }
        }

        impl AsRef<str> for $name {
            fn as_ref(&self) -> &str {
                &self.0
            }
        }

        impl Borrow<str> for $name {
            fn borrow(&self) -> &str {
                &self.0
            }
        }

        impl FromStr for $name {
            type Err = CoreError;

            fn from_str(s: &str) -> Result<Self, Self::Err> {
                Self::new(s)
            }
        }

        impl TryFrom<String> for $name {
            type Error = CoreError;

            fn try_from(value: String) -> Result<Self, Self::Error> {
                Self::new(value)
            }
        }

        impl TryFrom<&str> for $name {
            type Error = CoreError;

            fn try_from(value: &str) -> Result<Self, Self::Error> {
                Self::new(value)
            }
        }

        impl From<$name> for String {
            fn from(id: $name) -> String {
                id.0
            }
        }
    };
}

string_id!(
    /// Identifies a problem (a single question) in the item bank.
    ProblemId,
    "problem"
);
string_id!(
    /// Identifies an exam (an ordered collection of problems).
    ExamId,
    "exam"
);
string_id!(
    /// Identifies a student (learner) taking exams.
    StudentId,
    "student"
);
string_id!(
    /// Identifies a live or resumable delivery session.
    SessionId,
    "session"
);
string_id!(
    /// Identifies a content concept row of the two-way specification table.
    ConceptId,
    "concept"
);
string_id!(
    /// Identifies a reusable problem presentation template (§5.3).
    TemplateId,
    "template"
);
string_id!(
    /// Identifies a presentation-style group in exam authoring (§5.4).
    GroupId,
    "group"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_reasonable_identifiers() {
        assert!(ProblemId::new("prob-001").is_ok());
        assert!(ExamId::new("midterm 2004 §1").is_ok());
        assert!(StudentId::new("学生42").is_ok());
    }

    #[test]
    fn rejects_empty() {
        let err = ProblemId::new("").unwrap_err();
        assert!(matches!(
            err,
            CoreError::InvalidIdentifier {
                kind: "problem",
                ..
            }
        ));
    }

    #[test]
    fn rejects_control_characters() {
        assert!(SessionId::new("abc\n").is_err());
        assert!(SessionId::new("a\tb").is_err());
        assert!(SessionId::new("nul\0").is_err());
    }

    #[test]
    fn rejects_over_long() {
        let long = "x".repeat(129);
        assert!(ConceptId::new(long).is_err());
        assert!(ConceptId::new("x".repeat(128)).is_ok());
    }

    #[test]
    fn ids_are_distinct_types() {
        // This is a compile-time property; here we just confirm the values
        // compare within a type.
        let a = TemplateId::new("t1").unwrap();
        let b = TemplateId::new("t1").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn display_and_as_str_agree() {
        let id = GroupId::new("layout-2col").unwrap();
        assert_eq!(id.to_string(), "layout-2col");
        assert_eq!(id.as_str(), "layout-2col");
        assert_eq!(id.clone().into_inner(), "layout-2col");
    }

    #[test]
    fn from_str_and_try_from_round_trip() {
        let id: ProblemId = "q7".parse().unwrap();
        assert_eq!(String::from(id.clone()), "q7");
        assert_eq!(ProblemId::try_from("q7").unwrap(), id);
    }

    #[test]
    fn serde_validates_on_deserialize() {
        assert!(serde_json::from_str::<ProblemId>("\"ok\"").is_ok());
        assert!(serde_json::from_str::<ProblemId>("\"\"").is_err());
    }
}
