//! Raw values and per-class dictionaries.
//!
//! Every attribute belongs to an *attribute class* (e.g. `city`,
//! `areacode`, `student_id`); all columns of a class share one [`Dict`], so
//! a value has the same dense code wherever it appears. The paper's BDD
//! encoding (Section 2.2) assumes exactly this: finite domains
//! `{1..|dom|}` shared between the columns a first-order variable ranges
//! over.

use std::collections::HashMap;
use std::fmt;

/// A raw attribute value before dictionary encoding.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Raw {
    /// Integer-valued attributes (area codes, numbers, zip codes, ids).
    Int(i64),
    /// String-valued attributes (cities, states, departments).
    Str(String),
}

impl Raw {
    /// Shorthand for a string value.
    pub fn str(s: impl Into<String>) -> Raw {
        Raw::Str(s.into())
    }
}

impl fmt::Display for Raw {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Raw::Int(i) => write!(f, "{i}"),
            Raw::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Raw {
    fn from(v: i64) -> Raw {
        Raw::Int(v)
    }
}

impl From<&str> for Raw {
    fn from(v: &str) -> Raw {
        Raw::Str(v.to_owned())
    }
}

impl From<String> for Raw {
    fn from(v: String) -> Raw {
        Raw::Str(v)
    }
}

/// A dense dictionary: raw value ↔ `u32` code. Codes are allocated in first-
/// seen order and never reused (only a failed load takes its own new codes
/// back), so the dictionary size is the attribute class's active-domain
/// size.
///
/// Integers and strings are looked up in separate maps, so a CSV field is
/// interned from its text slice without building a [`Raw`] first.
#[derive(Debug, Clone, Default)]
pub struct Dict {
    values: Vec<Raw>,
    ints: HashMap<i64, u32>,
    strs: HashMap<String, u32>,
}

impl Dict {
    /// Empty dictionary.
    pub fn new() -> Dict {
        Dict::default()
    }

    /// Intern a value, returning its code (allocating one if new).
    pub fn encode(&mut self, v: &Raw) -> u32 {
        match v {
            Raw::Int(i) => self.encode_int(*i),
            Raw::Str(s) => self.encode_str(s),
        }
    }

    /// Intern an integer value.
    pub(crate) fn encode_int(&mut self, i: i64) -> u32 {
        let next = self.values.len() as u32;
        let c = *self.ints.entry(i).or_insert(next);
        if c == next {
            self.values.push(Raw::Int(i));
        }
        c
    }

    /// Intern a string value; allocates only when the string is new.
    pub(crate) fn encode_str(&mut self, s: &str) -> u32 {
        if let Some(&c) = self.strs.get(s) {
            return c;
        }
        let c = self.values.len() as u32;
        self.values.push(Raw::Str(s.to_owned()));
        self.strs.insert(s.to_owned(), c);
        c
    }

    /// Forget every value interned after the first `len`, so a failed load
    /// leaves the dictionary as it found it.
    pub(crate) fn truncate(&mut self, len: usize) {
        for v in self.values.drain(len..) {
            match v {
                Raw::Int(i) => self.ints.remove(&i),
                Raw::Str(s) => self.strs.remove(&s),
            };
        }
    }

    /// Code of an already-interned value, if any.
    pub fn code(&self, v: &Raw) -> Option<u32> {
        match v {
            Raw::Int(i) => self.ints.get(i),
            Raw::Str(s) => self.strs.get(s),
        }
        .copied()
    }

    /// The raw value behind a code.
    ///
    /// # Panics
    /// Panics if `code` was never allocated.
    pub fn decode(&self, code: u32) -> &Raw {
        &self.values[code as usize]
    }

    /// Number of interned values (the class's active-domain size).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no value has been interned.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_is_idempotent() {
        let mut d = Dict::new();
        let a = d.encode(&Raw::str("Toronto"));
        let b = d.encode(&Raw::str("Oshawa"));
        let a2 = d.encode(&Raw::str("Toronto"));
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn decode_round_trips() {
        let mut d = Dict::new();
        let vals = [Raw::Int(416), Raw::str("NJ"), Raw::Int(-3)];
        let codes: Vec<u32> = vals.iter().map(|v| d.encode(v)).collect();
        for (v, &c) in vals.iter().zip(&codes) {
            assert_eq!(d.decode(c), v);
            assert_eq!(d.code(v), Some(c));
        }
        assert_eq!(d.code(&Raw::Int(999)), None);
    }

    #[test]
    fn ints_and_strings_are_distinct_values() {
        let mut d = Dict::new();
        let a = d.encode(&Raw::Int(416));
        let b = d.encode(&Raw::str("416"));
        assert_ne!(a, b);
    }

    #[test]
    fn truncate_forgets_later_values() {
        let mut d = Dict::new();
        d.encode(&Raw::str("Toronto"));
        d.encode(&Raw::Int(416));
        d.truncate(1);
        assert_eq!(d.len(), 1);
        assert_eq!(d.code(&Raw::Int(416)), None);
        assert_eq!(
            d.encode(&Raw::str("Oshawa")),
            1,
            "the next code follows the kept prefix"
        );
        assert_eq!(d.code(&Raw::str("Toronto")), Some(0));
    }
}
