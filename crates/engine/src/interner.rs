//! Value interning for the columnar executor.
//!
//! The join executor works over dense `u32` value ids instead of [`Value`]s:
//! every value appearing in a joined relation is interned exactly once, and
//! all subsequent key hashing, equality checking, and binding storage happens
//! on the ids. Interning preserves [`Value`] equality exactly (bitwise for
//! floats, kind-strict across `Int`/`Float`/`Str`), so id equality is value
//! equality and hash-join semantics are unchanged.
//!
//! [`ColumnarTable`] is the interned, column-major image of one relation:
//! `cols[c][r]` is the id of row `r`'s value in column `c`. Cache-friendly
//! column access is what the probe loops iterate over.

use crate::value::{Tuple, Value};
use std::collections::HashMap;
use std::ops::Deref;
use std::sync::Arc;

/// Id reserved as the "unbound variable" sentinel in partial bindings; the
/// interner never hands it out.
pub const UNBOUND: u32 = u32::MAX;

/// A dense `Value -> u32` dictionary with an id-indexed reverse side table.
#[derive(Debug, Default, Clone)]
pub struct Interner {
    ids: HashMap<Value, u32>,
    values: Vec<Value>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Interner::default()
    }

    /// Interns a value, returning its dense id (allocating on first sight).
    pub fn intern(&mut self, v: &Value) -> u32 {
        if let Some(&id) = self.ids.get(v) {
            return id;
        }
        let id = self.values.len() as u32;
        assert!(id < UNBOUND, "interner id space exhausted");
        self.ids.insert(v.clone(), id);
        self.values.push(v.clone());
        id
    }

    /// The value behind an id.
    #[inline]
    pub fn resolve(&self, id: u32) -> &Value {
        &self.values[id as usize]
    }

    /// Number of distinct interned values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Rebuilds an interner from its dense side table (archive reopen).
    ///
    /// The forward map is reconstructed so the interner behaves identically
    /// to the one that produced `values`: re-interning any archived value
    /// returns its original id. Returns `None` if `values` contains a
    /// duplicate (a well-formed archive never does).
    pub fn from_values(values: Vec<Value>) -> Option<Interner> {
        let ids = values
            .iter()
            .enumerate()
            .map(|(i, v)| (v.clone(), i as u32))
            .collect::<HashMap<_, _>>();
        if ids.len() != values.len() {
            return None;
        }
        Some(Interner { ids, values })
    }

    /// The dense side table, id-ordered (archive serialization).
    pub fn values(&self) -> &[Value] {
        &self.values
    }
}

/// Backing store for one interned column: either an owned heap vector (the
/// in-memory path) or a zero-copy window into a memory-mapped archive.
///
/// Both deref to `&[u32]`, so every probe-loop read site (`cols[c][r]`,
/// `.iter()`, slicing) is identical for heap and mapped tables.
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// Owned ids produced by [`ColumnarTable::from_rows`].
    Heap(Vec<u32>),
    /// A `len`-element window starting `off` *elements* (not bytes) into a
    /// memory-mapped archive's u32 payload.
    Mapped {
        /// Keeps the mapping alive for as long as any column views it.
        map: Arc<crate::storage::Mapping>,
        /// Element offset of this column's first id.
        off: usize,
        /// Number of ids in this column (one per row).
        len: usize,
    },
}

impl Deref for ColumnData {
    type Target = [u32];

    #[inline]
    fn deref(&self) -> &[u32] {
        match self {
            ColumnData::Heap(v) => v,
            ColumnData::Mapped { map, off, len } => &map.as_u32s()[*off..*off + *len],
        }
    }
}

impl From<Vec<u32>> for ColumnData {
    fn from(v: Vec<u32>) -> ColumnData {
        ColumnData::Heap(v)
    }
}

/// One relation's rows interned column-major: `cols[c][r]` is the id of the
/// value in column `c` of row `r`. Cloning a mapped table is cheap (an `Arc`
/// bump per column); cloning a heap table copies its id vectors.
#[derive(Debug, Clone)]
pub struct ColumnarTable {
    /// Column-major interned ids (heap-owned or archive-mapped).
    pub cols: Vec<ColumnData>,
    /// Number of rows.
    pub nrows: usize,
}

impl ColumnarTable {
    /// Interns `rows` (all of the same arity) into a columnar table.
    pub fn from_rows(rows: &[Tuple], interner: &mut Interner) -> ColumnarTable {
        let arity = rows.first().map(|t| t.len()).unwrap_or(0);
        let mut cols = vec![Vec::with_capacity(rows.len()); arity];
        for row in rows {
            for (c, v) in row.iter().enumerate() {
                cols[c].push(interner.intern(v));
            }
        }
        ColumnarTable { cols: cols.into_iter().map(ColumnData::Heap).collect(), nrows: rows.len() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_preserves_value_identity() {
        let mut i = Interner::new();
        let a = i.intern(&Value::Int(7));
        let b = i.intern(&Value::Int(7));
        let c = i.intern(&Value::Float(7.0));
        let d = i.intern(&Value::str("7"));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_ne!(c, d);
        assert_eq!(i.len(), 3);
        assert_eq!(i.resolve(a), &Value::Int(7));
        assert_eq!(i.resolve(d), &Value::str("7"));
    }

    #[test]
    fn float_interning_is_bitwise() {
        let mut i = Interner::new();
        let z = i.intern(&Value::Float(0.0));
        let nz = i.intern(&Value::Float(-0.0));
        assert_ne!(z, nz, "0.0 and -0.0 are distinct join keys");
    }

    #[test]
    fn columnar_table_round_trips() {
        let mut i = Interner::new();
        let rows = vec![vec![Value::Int(1), Value::str("x")], vec![Value::Int(2), Value::str("x")]];
        let t = ColumnarTable::from_rows(&rows, &mut i);
        assert_eq!(t.nrows, 2);
        assert_eq!(t.cols.len(), 2);
        assert_eq!(t.cols[1][0], t.cols[1][1], "shared string interned once");
        assert_eq!(i.resolve(t.cols[0][1]), &Value::Int(2));
    }

    #[test]
    fn empty_rows_make_empty_table() {
        let mut i = Interner::new();
        let t = ColumnarTable::from_rows(&[], &mut i);
        assert_eq!(t.nrows, 0);
        assert!(t.cols.is_empty());
        assert!(i.is_empty());
    }
}
