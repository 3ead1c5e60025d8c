//! Path-tracking JSON decoding helpers.
//!
//! The vendored `serde_derive` maps a whole document at once and cannot
//! say *which* field was wrong, so scenario and campaign specs are
//! decoded by hand over the [`serde::Value`] tree with these helpers.
//! Every accessor carries the `.`-separated path of the value it looks
//! at, so an error like `invalid scenario field `grid.generator.floors`:
//! expected number, found string` points straight at the offending line
//! of the document.

use crate::error::ScenarioError;
use serde::Value;

/// The longest span, in nanoseconds, that a time-valued field may name:
/// 2^61 ns, about 73 years of simulated time. A run also ends within it.
/// Every instant a run computes is the sum of at most four capped values
/// plus a few seconds of fixed look-ahead, so it stays inside the u64
/// nanoseconds of [`simnet::time::Time`].
pub(crate) const MAX_SPAN_NS: u64 = 1 << 61;

/// A JSON value plus the document path that leads to it.
#[derive(Debug, Clone)]
pub struct At<'a> {
    /// The value under inspection.
    pub value: &'a Value,
    /// Path from the document root, e.g. `grid.generator.drop_length_m`.
    pub path: String,
}

impl<'a> At<'a> {
    /// Root of a document.
    pub fn root(value: &'a Value) -> Self {
        At {
            value,
            path: String::new(),
        }
    }

    fn child_path(&self, key: &str) -> String {
        if self.path.is_empty() {
            key.to_string()
        } else {
            format!("{}.{key}", self.path)
        }
    }

    fn err(&self, message: impl Into<String>) -> ScenarioError {
        let field = if self.path.is_empty() {
            "<root>"
        } else {
            &self.path
        };
        ScenarioError::invalid(field, message)
    }

    /// The value as an object, or a typed error.
    pub fn obj(&self) -> Result<&'a [(String, Value)], ScenarioError> {
        match self.value {
            Value::Obj(fields) => Ok(fields),
            other => Err(self.err(format!("expected object, found {}", other.kind()))),
        }
    }

    /// The value as an array, or a typed error.
    pub fn arr(&self) -> Result<&'a [Value], ScenarioError> {
        match self.value {
            Value::Arr(items) => Ok(items),
            other => Err(self.err(format!("expected array, found {}", other.kind()))),
        }
    }

    /// The value as a string, or a typed error.
    pub fn str(&self) -> Result<&'a str, ScenarioError> {
        match self.value {
            Value::Str(s) => Ok(s),
            other => Err(self.err(format!("expected string, found {}", other.kind()))),
        }
    }

    /// The value as a finite `f64`, or a typed error.
    pub fn f64(&self) -> Result<f64, ScenarioError> {
        match self.value {
            Value::Num(n) => {
                let x = n.as_f64();
                if x.is_finite() {
                    Ok(x)
                } else {
                    Err(self.err("expected a finite number"))
                }
            }
            other => Err(self.err(format!("expected number, found {}", other.kind()))),
        }
    }

    /// The value as a `u64`, or a typed error (floats and negatives are
    /// rejected with a message saying so).
    pub fn u64(&self) -> Result<u64, ScenarioError> {
        match self.value {
            Value::Num(n) => n
                .as_u64()
                .ok_or_else(|| self.err("expected a non-negative integer")),
            other => Err(self.err(format!("expected integer, found {}", other.kind()))),
        }
    }

    /// The value as a strictly positive `f64`, or a typed error.
    pub(crate) fn positive(&self) -> Result<f64, ScenarioError> {
        let x = self.f64()?;
        if x > 0.0 {
            Ok(x)
        } else {
            Err(self.err(format!("must be positive, got {x}")))
        }
    }

    /// The value as a name: campaign, scenario and workload names become
    /// parts of file names, so they are non-empty and use only ASCII
    /// letters, digits and `-`.
    pub(crate) fn name(&self) -> Result<&'a str, ScenarioError> {
        let s = self.str()?;
        if !s.is_empty() && s.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'-') {
            Ok(s)
        } else {
            Err(self.err(format!(
                "invalid name {s:?}: names are non-empty and use only ASCII letters, \
                 digits and '-' (they become file names)"
            )))
        }
    }

    /// The value as a `usize`.
    pub fn usize(&self) -> Result<usize, ScenarioError> {
        let u = self.u64()?;
        usize::try_from(u).map_err(|_| self.err("integer too large"))
    }

    /// `count` units of `unit_ns` nanoseconds each, in nanoseconds, or an
    /// error naming this field if the span exceeds [`MAX_SPAN_NS`].
    pub(crate) fn span_ns(&self, count: u64, unit_ns: u64) -> Result<u64, ScenarioError> {
        count
            .checked_mul(unit_ns)
            .filter(|&ns| ns <= MAX_SPAN_NS)
            .ok_or_else(|| self.out_of_range(count as f64))
    }

    /// `secs` (finite, non-negative) seconds in nanoseconds, rounded the
    /// way [`simnet::time::Duration::from_secs_f64`] rounds, or an error
    /// naming this field if the span exceeds [`MAX_SPAN_NS`].
    pub(crate) fn secs_ns(&self, secs: f64) -> Result<u64, ScenarioError> {
        let ns = (secs * 1e9).round();
        if ns <= MAX_SPAN_NS as f64 {
            Ok(ns as u64)
        } else {
            Err(self.out_of_range(secs))
        }
    }

    fn out_of_range(&self, value: f64) -> ScenarioError {
        self.err(format!(
            "{value} is out of range: time values must stay within {:.0} s of simulated time",
            MAX_SPAN_NS as f64 / 1e9
        ))
    }

    /// A required object field; missing or `null` is an error naming the
    /// full field path.
    pub fn req(&self, key: &str) -> Result<At<'a>, ScenarioError> {
        match self.value.get(key) {
            Some(v) if !matches!(v, Value::Null) => Ok(At {
                value: v,
                path: self.child_path(key),
            }),
            _ => Err(ScenarioError::invalid(
                self.child_path(key),
                "required field is missing",
            )),
        }
    }

    /// An optional object field; `None` when absent or `null`.
    pub fn opt(&self, key: &str) -> Option<At<'a>> {
        match self.value.get(key) {
            Some(v) if !matches!(v, Value::Null) => Some(At {
                value: v,
                path: self.child_path(key),
            }),
            _ => None,
        }
    }

    /// The elements of an array field, each with an indexed path like
    /// `cables[3]`.
    pub fn items(&self) -> Result<Vec<At<'a>>, ScenarioError> {
        let items = self.arr()?;
        Ok(items
            .iter()
            .enumerate()
            .map(|(i, v)| At {
                value: v,
                path: format!("{}[{i}]", self.path),
            })
            .collect())
    }

    /// Reject object keys outside `known` — catches typos like
    /// `"flors"` instead of `"floors"` with a message listing the
    /// accepted spellings.
    pub fn no_unknown_keys(&self, known: &[&str]) -> Result<(), ScenarioError> {
        for (k, _) in self.obj()? {
            if !known.contains(&k.as_str()) {
                return Err(ScenarioError::invalid(
                    self.child_path(k),
                    format!("unknown field (accepted fields: {})", known.join(", ")),
                ));
            }
        }
        Ok(())
    }

    /// Build an [`ScenarioError::Invalid`] at this path.
    pub fn invalid(&self, message: impl Into<String>) -> ScenarioError {
        self.err(message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(json: &str) -> Value {
        serde_json::from_str::<Value>(json).expect("test doc parses")
    }

    #[test]
    fn paths_name_nested_fields() {
        let v = doc(r#"{"grid": {"generator": {"floors": "two"}}}"#);
        let root = At::root(&v);
        let floors = root
            .req("grid")
            .and_then(|g| g.req("generator"))
            .and_then(|g| g.req("floors"))
            .expect("fields exist");
        let err = floors.u64().unwrap_err();
        assert_eq!(err.field(), Some("grid.generator.floors"));
        assert!(err.to_string().contains("expected integer, found string"));
    }

    #[test]
    fn missing_required_field_names_full_path() {
        let v = doc(r#"{"grid": {}}"#);
        let err = At::root(&v)
            .req("grid")
            .and_then(|g| g.req("generator"))
            .unwrap_err();
        assert_eq!(err.field(), Some("grid.generator"));
        assert!(err.to_string().contains("required field is missing"));
    }

    #[test]
    fn unknown_keys_are_rejected_with_suggestions() {
        let v = doc(r#"{"flors": 2}"#);
        let err = At::root(&v)
            .no_unknown_keys(&["floors", "seed"])
            .unwrap_err();
        assert_eq!(err.field(), Some("flors"));
        assert!(err.to_string().contains("accepted fields: floors, seed"));
    }

    #[test]
    fn array_items_carry_indexed_paths() {
        let v = doc(r#"{"cables": [1, "x"]}"#);
        let root = At::root(&v);
        let cables = root.req("cables").expect("field exists");
        let items = cables.items().expect("is array");
        let err = items[1].f64().unwrap_err();
        assert_eq!(err.field(), Some("cables[1]"));
    }
}
