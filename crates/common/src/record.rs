//! Rows and tables: the structured-data container used across the stack.
//!
//! [`Table`] is a row-major container with a [`Schema`]; the relational
//! engine converts it to columnar batches internally, but at the framework
//! boundary (generators, format conversion, workload inputs) row-major is
//! the simpler, clearer representation.

use crate::value::{Key, Schema, Value};
use crate::{BdbError, Result};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt::{Display, Write};

/// One row of values.
pub type Record = Vec<Value>;

/// The separator between the cells of a row line (U+001F, unit separator).
pub const CELL_SEP: char = '\u{1f}';

/// Rows as lines, one per row: the cells' `Display` joined by [`CELL_SEP`].
/// The one way a result row becomes text, so every row set that is
/// compared or hashed has the same bytes whichever code built it. Each row
/// is written into one reused buffer and copied out at its exact length.
pub fn row_lines<R, C>(rows: impl IntoIterator<Item = R>) -> Vec<String>
where
    R: IntoIterator<Item = C>,
    C: Display,
{
    let rows = rows.into_iter();
    let mut lines = Vec::with_capacity(rows.size_hint().0);
    let mut buf = String::new();
    for row in rows {
        buf.clear();
        for (i, cell) in row.into_iter().enumerate() {
            if i > 0 {
                buf.push(CELL_SEP);
            }
            write!(buf, "{cell}").expect("writing to a String cannot fail");
        }
        lines.push(buf.as_str().to_owned());
    }
    lines
}

/// Lexicographic row order over [`Value::total_cmp`], a shorter row
/// before its extensions: a total order, so any rows can be sorted by it.
/// The canonical order every engine sorts aggregate output and
/// cross-engine comparison rows by.
pub fn cmp_records(a: &Record, b: &Record) -> Ordering {
    a.iter().map(Key).cmp(b.iter().map(Key))
}

/// A schema-carrying collection of rows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Table {
    schema: Schema,
    rows: Vec<Record>,
}

impl Table {
    /// An empty table with the given schema.
    pub fn new(schema: Schema) -> Self {
        Self { schema, rows: Vec::new() }
    }

    /// An empty table with capacity for `n` rows.
    pub fn with_capacity(schema: Schema, n: usize) -> Self {
        Self { schema, rows: Vec::with_capacity(n) }
    }

    /// Build from pre-validated rows.
    ///
    /// Validates every row against the schema; prefer this over repeated
    /// [`Table::push`] when the row count is known.
    pub fn from_rows(schema: Schema, rows: Vec<Record>) -> Result<Self> {
        for r in &rows {
            schema.validate_row(r)?;
        }
        Ok(Self { schema, rows })
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The rows in insertion order.
    pub fn rows(&self) -> &[Record] {
        &self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Append a row after validating it against the schema.
    pub fn push(&mut self, row: Record) -> Result<()> {
        self.schema.validate_row(&row)?;
        self.rows.push(row);
        Ok(())
    }

    /// Append a row without validation.
    ///
    /// Generators that construct rows directly from the schema use this to
    /// avoid paying validation per row; the debug assertion still catches
    /// arity bugs in tests.
    pub fn push_unchecked(&mut self, row: Record) {
        debug_assert_eq!(row.len(), self.schema.len());
        self.rows.push(row);
    }

    /// The value at `(row, col)`.
    pub fn value(&self, row: usize, col: usize) -> Option<&Value> {
        self.rows.get(row).and_then(|r| r.get(col))
    }

    /// All values of the named column, cloned.
    pub fn column(&self, name: &str) -> Result<Vec<Value>> {
        let idx = self
            .schema
            .index_of(name)
            .ok_or_else(|| BdbError::NotFound(format!("column {name}")))?;
        Ok(self.rows.iter().map(|r| r[idx].clone()).collect())
    }

    /// Approximate in-memory data size in bytes (sum of cell sizes).
    ///
    /// This is the *volume* measure reported by the table data generators.
    pub fn byte_size(&self) -> usize {
        self.rows
            .iter()
            .map(|r| r.iter().map(Value::byte_size).sum::<usize>())
            .sum()
    }

    /// Consume the table, returning its rows.
    pub fn into_rows(self) -> Vec<Record> {
        self.rows
    }

    /// Keep only rows matching the predicate.
    pub fn retain<F: FnMut(&Record) -> bool>(&mut self, f: F) {
        self.rows.retain(f);
    }

    /// Append all rows of `other`.
    ///
    /// # Errors
    /// Fails when the schemas differ.
    pub fn append(&mut self, other: Table) -> Result<()> {
        if other.schema != self.schema {
            return Err(BdbError::TypeMismatch {
                expected: format!("schema {:?}", self.schema),
                found: format!("schema {:?}", other.schema),
            });
        }
        self.rows.extend(other.rows);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{DataType, Field};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("name", DataType::Text),
        ])
    }

    fn sample() -> Table {
        let mut t = Table::new(schema());
        t.push(vec![Value::Int(1), Value::from("a")]).unwrap();
        t.push(vec![Value::Int(2), Value::from("bb")]).unwrap();
        t
    }

    #[test]
    fn push_validates() {
        let mut t = Table::new(schema());
        assert!(t.push(vec![Value::Int(1)]).is_err());
        assert!(t.push(vec![Value::from("x"), Value::from("a")]).is_err());
        assert!(t.push(vec![Value::Int(1), Value::from("a")]).is_ok());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn from_rows_validates_all() {
        let ok = Table::from_rows(
            schema(),
            vec![vec![Value::Int(1), Value::from("a")]],
        );
        assert!(ok.is_ok());
        let bad = Table::from_rows(schema(), vec![vec![Value::Int(1)]]);
        assert!(bad.is_err());
    }

    #[test]
    fn column_extraction() {
        let t = sample();
        let names = t.column("name").unwrap();
        assert_eq!(names, vec![Value::from("a"), Value::from("bb")]);
        assert!(t.column("missing").is_err());
    }

    #[test]
    fn byte_size_sums_cells() {
        let t = sample();
        // Each row: 8 bytes int + text length (1 then 2).
        assert_eq!(t.byte_size(), 8 + 1 + 8 + 2);
    }

    #[test]
    fn append_requires_same_schema() {
        let mut a = sample();
        let b = sample();
        a.append(b).unwrap();
        assert_eq!(a.len(), 4);
        let other = Table::new(Schema::new(vec![Field::new("x", DataType::Int)]));
        assert!(a.append(other).is_err());
    }

    #[test]
    fn cmp_records_is_lexicographic_and_total() {
        let row = |id: i64, name: &str| vec![Value::Int(id), Value::from(name)];
        assert_eq!(cmp_records(&row(1, "b"), &row(2, "a")), Ordering::Less);
        assert_eq!(cmp_records(&row(2, "a"), &row(2, "b")), Ordering::Less);
        assert_eq!(cmp_records(&row(2, "b"), &row(2, "b")), Ordering::Equal);
        // Int vs Text orders by type rank: numbers before text.
        let mixed = vec![Value::from("x"), Value::from("a")];
        assert_eq!(cmp_records(&row(9, "b"), &mixed), Ordering::Less);
        assert_eq!(cmp_records(&mixed, &row(9, "b")), Ordering::Greater);
        // A row sorts before the rows it is a prefix of.
        assert_eq!(cmp_records(&vec![Value::Int(2)], &row(2, "z")), Ordering::Less);
    }

    /// Sorting by a comparator that is not a total order may panic; NaN
    /// and mixed-type columns used to make `cmp_records` one.
    #[test]
    fn sorting_nan_and_mixed_type_columns_is_stable_across_runs() {
        let rows: Vec<Record> = (0..64)
            .map(|i| {
                let float = if i % 3 == 0 { f64::NAN } else { f64::from(i % 7) - 3.0 };
                let mixed = match i % 4 {
                    0 => Value::Int(i64::from(i % 5)),
                    1 => Value::from("t"),
                    2 => Value::Null,
                    _ => Value::Float(f64::from(i % 5)),
                };
                vec![Value::Float(float), mixed]
            })
            .collect();
        let sorted = |mut rows: Vec<Record>| {
            rows.sort_by(cmp_records);
            // `Value`'s own `==` calls NaN equal to everything; compare text.
            rows.iter().map(|r| format!("{r:?}")).collect::<Vec<_>>()
        };
        let once = sorted(rows.clone());
        assert_eq!(sorted(rows.clone()), once);
        let mut reversed = rows;
        reversed.reverse();
        reversed.sort_by(cmp_records);
        assert!(reversed.windows(2).all(|w| cmp_records(&w[0], &w[1]).is_le()));
        assert!(once[63].starts_with("[Float(NaN)"), "NaN sorts last: {}", once[63]);
    }

    #[test]
    fn row_lines_join_each_rows_cells() {
        let rows = [
            vec![Value::Int(-1), Value::Null, Value::Float(-0.0), Value::from("a b")],
            vec![],
            vec![Value::Timestamp(5)],
        ];
        assert_eq!(row_lines(&rows), ["-1\u{1f}NULL\u{1f}-0\u{1f}a b", "", "@5"]);
        assert_eq!(row_lines([[3u64, 4]]), ["3\u{1f}4"]);
    }

    #[test]
    fn value_accessor_bounds() {
        let t = sample();
        assert_eq!(t.value(0, 0), Some(&Value::Int(1)));
        assert_eq!(t.value(9, 0), None);
        assert_eq!(t.value(0, 9), None);
    }

    #[test]
    fn retain_filters_rows() {
        let mut t = sample();
        t.retain(|r| r[0].as_i64() == Some(2));
        assert_eq!(t.len(), 1);
        assert_eq!(t.value(0, 1), Some(&Value::from("bb")));
    }
}
