//! Scalar data types and values.
//!
//! The reproduction targets the Star Schema Benchmark, whose columns are
//! integers, dates (stored as `yyyymmdd` integers, as in the original dbgen),
//! decimals (stored as scaled i64), and low-cardinality strings. Strings are
//! dictionary-encoded at load time (see [`crate::column::DictionaryBuilder`]),
//! so query execution only ever touches fixed-width values — the same design
//! the paper's columnar engines use.

use std::fmt;

/// Physical data type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 32-bit signed integer (keys, dates, small measures, dictionary codes).
    Int32,
    /// 64-bit signed integer (large measures, revenue sums).
    Int64,
    /// Dictionary-encoded string; the physical representation is an `Int32`
    /// code, ordered so that range predicates on the original strings map to
    /// range predicates on the codes.
    Dictionary,
}

impl DataType {
    /// Width of one value of this type in bytes, as materialized in a block.
    pub const fn byte_width(self) -> usize {
        match self {
            DataType::Int32 | DataType::Dictionary => 4,
            DataType::Int64 => 8,
        }
    }

    /// Whether the physical representation is a 32-bit integer.
    pub const fn is_int32_repr(self) -> bool {
        matches!(self, DataType::Int32 | DataType::Dictionary)
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            DataType::Int32 => "INT32",
            DataType::Int64 => "INT64",
            DataType::Dictionary => "DICT",
        };
        f.write_str(name)
    }
}

/// A single scalar value; used at the edges of the system (query results,
/// literals in expressions, test fixtures) — never on the per-tuple hot path,
/// which operates on typed column slices directly.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Int32(i32),
    Int64(i64),
    /// A dictionary code together with (optionally) its decoded string.
    Str(String),
    Null,
}

impl Value {
    /// The data type this value would occupy in a column, if representable.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Int32(_) => Some(DataType::Int32),
            Value::Int64(_) => Some(DataType::Int64),
            Value::Str(_) => Some(DataType::Dictionary),
            Value::Null => None,
        }
    }

    /// Interpret the value as i64, widening 32-bit integers.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int32(v) => Some(*v as i64),
            Value::Int64(v) => Some(*v),
            _ => None,
        }
    }

    /// Interpret the value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int32(v) => write!(f, "{v}"),
            Value::Int64(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Null => f.write_str("NULL"),
        }
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int32(v)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int64(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_widths() {
        assert_eq!(DataType::Int32.byte_width(), 4);
        assert_eq!(DataType::Dictionary.byte_width(), 4);
        assert_eq!(DataType::Int64.byte_width(), 8);
    }

    #[test]
    fn value_conversions() {
        assert_eq!(Value::from(7i32).as_i64(), Some(7));
        assert_eq!(Value::from(7i64).as_i64(), Some(7));
        assert_eq!(Value::from("MFGR#12").as_str(), Some("MFGR#12"));
        assert_eq!(Value::Null.as_i64(), None);
        assert_eq!(Value::Null.data_type(), None);
    }

    #[test]
    fn display_formats() {
        assert_eq!(DataType::Dictionary.to_string(), "DICT");
        assert_eq!(Value::Int64(11).to_string(), "11");
        assert_eq!(Value::Null.to_string(), "NULL");
    }
}
