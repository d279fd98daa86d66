//! Typed column vectors and dictionary encoding.
//!
//! Columns are the unit of storage (`hetex-storage` keeps tables as columns
//! split into NUMA-resident segments) and blocks are row windows over shared
//! columns, read through borrowed [`ColumnRef`]s. Strings are
//! dictionary-encoded into ordered `i32` codes so that the execution engine
//! only ever processes fixed-width data, exactly like the columnar engines the
//! paper evaluates.

use crate::error::{HetError, Result};
use crate::types::{DataType, Value};
use std::collections::HashMap;
use std::ops::Range;

/// Physical storage for one column.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    Int32(Vec<i32>),
    Int64(Vec<i64>),
}

/// A borrowed, typed run of a column's values: how readers see one column of
/// a block without copying it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ColumnRef<'a> {
    Int32(&'a [i32]),
    Int64(&'a [i64]),
}

impl ColumnRef<'_> {
    /// Number of values in view.
    pub fn len(&self) -> usize {
        match self {
            ColumnRef::Int32(v) => v.len(),
            ColumnRef::Int64(v) => v.len(),
        }
    }

    /// True if no values are in view.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The physical data type of the values.
    pub fn data_type(&self) -> DataType {
        match self {
            ColumnRef::Int32(_) => DataType::Int32,
            ColumnRef::Int64(_) => DataType::Int64,
        }
    }

    /// Size of the values in view in bytes (count × physical width).
    pub fn byte_size(&self) -> usize {
        self.len() * self.data_type().byte_width()
    }

    /// Value at `idx` widened to i64.
    pub fn get_i64(&self, idx: usize) -> Option<i64> {
        match self {
            ColumnRef::Int32(v) => v.get(idx).map(|x| *x as i64),
            ColumnRef::Int64(v) => v.get(idx).copied(),
        }
    }
}

impl ColumnData {
    /// Borrow the values at `rows`.
    ///
    /// # Panics
    /// If `rows` is out of bounds, like slice indexing.
    pub(crate) fn view(&self, rows: Range<usize>) -> ColumnRef<'_> {
        match self {
            ColumnData::Int32(v) => ColumnRef::Int32(&v[rows]),
            ColumnData::Int64(v) => ColumnRef::Int64(&v[rows]),
        }
    }

    /// Borrow every value.
    pub fn values(&self) -> ColumnRef<'_> {
        self.view(0..self.len())
    }

    /// Number of values stored.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Int32(v) => v.len(),
            ColumnData::Int64(v) => v.len(),
        }
    }

    /// True if the column holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size of the stored values in bytes.
    pub fn byte_size(&self) -> usize {
        self.values().byte_size()
    }

    /// The physical data type of the column.
    pub fn data_type(&self) -> DataType {
        self.values().data_type()
    }

    /// Value at `idx` widened to i64.
    pub fn get_i64(&self, idx: usize) -> Option<i64> {
        match self {
            ColumnData::Int32(v) => v.get(idx).map(|x| *x as i64),
            ColumnData::Int64(v) => v.get(idx).copied(),
        }
    }

    /// Value at `idx` boxed as a [`Value`].
    pub fn get_value(&self, idx: usize) -> Option<Value> {
        match self {
            ColumnData::Int32(v) => v.get(idx).map(|x| Value::Int32(*x)),
            ColumnData::Int64(v) => v.get(idx).map(|x| Value::Int64(*x)),
        }
    }

    /// Append an i64, narrowing to the physical type.
    pub fn push_i64(&mut self, value: i64) {
        match self {
            ColumnData::Int32(v) => v.push(value as i32),
            ColumnData::Int64(v) => v.push(value),
        }
    }

    /// Borrow as an `i32` slice (panics in debug if the type differs).
    pub fn as_i32(&self) -> Result<&[i32]> {
        match self {
            ColumnData::Int32(v) => Ok(v),
            other => Err(HetError::Schema(format!(
                "expected Int32 column, found {:?}",
                other.data_type()
            ))),
        }
    }

    /// Borrow as an `i64` slice.
    pub fn as_i64(&self) -> Result<&[i64]> {
        match self {
            ColumnData::Int64(v) => Ok(v),
            other => Err(HetError::Schema(format!(
                "expected Int64 column, found {:?}",
                other.data_type()
            ))),
        }
    }

    /// Retain capacity but remove all values.
    pub fn clear(&mut self) {
        match self {
            ColumnData::Int32(v) => v.clear(),
            ColumnData::Int64(v) => v.clear(),
        }
    }
}

/// A named column: a schema field plus its data.
#[derive(Debug, Clone)]
pub struct Column {
    /// Column name.
    pub name: String,
    /// Logical data type (may be `Dictionary` even though data is `Int32`).
    pub data_type: DataType,
    /// Physical values.
    pub data: ColumnData,
}

impl Column {
    /// Create a column from parts.
    pub fn new(name: impl Into<String>, data_type: DataType, data: ColumnData) -> Self {
        Self { name: name.into(), data_type, data }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// Order-preserving dictionary encoder for string columns.
///
/// The SSB string domains (regions, nations, categories, brands, priorities)
/// are known up front, so the builder is usually constructed from a sorted
/// domain, which makes the assigned codes order-preserving: a predicate such as
/// `p_brand1 BETWEEN 'MFGR#2221' AND 'MFGR#2228'` (Q2.2's string inequality)
/// becomes a range predicate over the codes.
#[derive(Debug, Clone, Default)]
pub struct DictionaryBuilder {
    values: Vec<String>,
    index: HashMap<String, i32>,
}

impl DictionaryBuilder {
    /// Empty dictionary; codes are assigned in first-seen order by [`Self::insert`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Build an order-preserving dictionary from a full domain. The domain is
    /// sorted and deduplicated, so code order equals lexicographic order.
    pub fn from_domain<I, S>(domain: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut values: Vec<String> = domain.into_iter().map(Into::into).collect();
        values.sort();
        values.dedup();
        let index = values.iter().enumerate().map(|(i, v)| (v.clone(), i as i32)).collect();
        Self { values, index }
    }

    /// Code for `value`, inserting it (first-seen order) if absent.
    pub fn insert(&mut self, value: &str) -> i32 {
        if let Some(code) = self.index.get(value) {
            return *code;
        }
        let code = self.values.len() as i32;
        self.values.push(value.to_owned());
        self.index.insert(value.to_owned(), code);
        code
    }

    /// Code for `value` if it is in the dictionary.
    pub fn encode(&self, value: &str) -> Option<i32> {
        self.index.get(value).copied()
    }

    /// Original string for a code.
    pub fn decode(&self, code: i32) -> Option<&str> {
        self.values.get(code as usize).map(String::as_str)
    }

    /// Number of distinct values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no values have been added.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Smallest code whose string is `>= value` (for translating string range
    /// predicates into code ranges). Only meaningful for order-preserving
    /// dictionaries built via [`Self::from_domain`].
    pub fn lower_bound(&self, value: &str) -> i32 {
        self.values.partition_point(|v| v.as_str() < value) as i32
    }

    /// Largest code whose string is `<= value`, or -1 if none.
    pub fn upper_bound(&self, value: &str) -> i32 {
        self.values.partition_point(|v| v.as_str() <= value) as i32 - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_data_push_and_get() {
        let mut c = ColumnData::Int32(Vec::new());
        c.push_i64(7);
        c.push_i64(-3);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get_i64(1), Some(-3));
        assert_eq!(c.get_value(0), Some(Value::Int32(7)));
        assert_eq!(c.byte_size(), 8);
    }

    #[test]
    fn column_data_type_checks() {
        let c = ColumnData::Int64(vec![1, 2]);
        assert!(c.as_i64().is_ok());
        assert!(c.as_i32().is_err());
        assert_eq!(c.values().data_type(), DataType::Int64);
        assert_eq!(c.values().get_i64(2), None);
    }

    #[test]
    fn column_data_slice_and_clear() {
        let c = ColumnData::Int32(vec![1, 2, 3, 4, 5]);
        let view = c.view(1..3);
        assert_eq!(view, ColumnRef::Int32(&[2, 3]));
        assert_eq!((view.len(), view.byte_size(), view.get_i64(1)), (2, 8, Some(3)));
        assert!(c.view(5..5).is_empty());
        assert_eq!(ColumnData::Int64(vec![1, 2, 3]).view(0..2).byte_size(), 16);
        let mut c = c;
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn dictionary_order_preserving() {
        let dict = DictionaryBuilder::from_domain(["MFGR#22", "MFGR#12", "MFGR#21"]);
        assert_eq!(dict.len(), 3);
        let c12 = dict.encode("MFGR#12").unwrap();
        let c21 = dict.encode("MFGR#21").unwrap();
        let c22 = dict.encode("MFGR#22").unwrap();
        assert!(c12 < c21 && c21 < c22);
        assert_eq!(dict.decode(c21), Some("MFGR#21"));
    }

    #[test]
    fn dictionary_range_bounds() {
        let dict = DictionaryBuilder::from_domain(["a", "c", "e", "g"]);
        assert_eq!(dict.lower_bound("c"), 1);
        assert_eq!(dict.lower_bound("d"), 2);
        assert_eq!(dict.upper_bound("e"), 2);
        assert_eq!(dict.upper_bound("0"), -1);
    }

    #[test]
    fn dictionary_insert_first_seen() {
        let mut dict = DictionaryBuilder::new();
        assert_eq!(dict.insert("x"), 0);
        assert_eq!(dict.insert("y"), 1);
        assert_eq!(dict.insert("x"), 0);
        assert!(dict.encode("z").is_none());
    }
}
