//! Dynamic values and schemas for structured (table) data.
//!
//! The paper's *variety* axis requires the framework to handle structured
//! data alongside text, graph and stream data. [`Value`] is the dynamic cell
//! type shared by the table generator, the relational engine and the format
//! conversion tools; [`Schema`] describes a table's columns.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// The type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit float.
    Float,
    /// UTF-8 string.
    Text,
    /// Boolean.
    Bool,
    /// Milliseconds since an arbitrary epoch; the stream generators use it
    /// for event time.
    Timestamp,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Text => "TEXT",
            DataType::Bool => "BOOL",
            DataType::Timestamp => "TIMESTAMP",
        };
        f.write_str(s)
    }
}

/// A dynamically typed cell value.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Text(String),
    /// Boolean.
    Bool(bool),
    /// Milliseconds since an arbitrary epoch.
    Timestamp(i64),
}

impl Value {
    /// The value's runtime type, or `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Text(_) => Some(DataType::Text),
            Value::Bool(_) => Some(DataType::Bool),
            Value::Timestamp(_) => Some(DataType::Timestamp),
        }
    }

    /// True for [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view: ints, floats and timestamps as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Timestamp(t) => Some(*t as f64),
            _ => None,
        }
    }

    /// Integer view.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Timestamp(t) => Some(*t),
            _ => None,
        }
    }

    /// String view (only for `Text`).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Approximate in-memory footprint in bytes, used by the *volume*
    /// accounting of the data generators.
    pub fn byte_size(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Int(_) | Value::Float(_) | Value::Timestamp(_) => 8,
            Value::Bool(_) => 1,
            Value::Text(s) => s.len(),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp_values(other) == Some(Ordering::Equal)
    }
}

impl Value {
    /// Total ordering across comparable values; `None` when the variants are
    /// incomparable (e.g. Text vs Int). NULL compares equal to NULL and less
    /// than everything else, matching the sort semantics of the SQL engine.
    pub fn cmp_values(&self, other: &Value) -> Option<Ordering> {
        use Value::*;
        match (self, other) {
            (Null, Null) => Some(Ordering::Equal),
            (Null, _) => Some(Ordering::Less),
            (_, Null) => Some(Ordering::Greater),
            (Int(a), Int(b)) => Some(a.cmp(b)),
            (Timestamp(a), Timestamp(b)) => Some(a.cmp(b)),
            (Float(a), Float(b)) => a.partial_cmp(b).or(Some(Ordering::Equal)),
            (Int(a), Float(b)) => (*a as f64).partial_cmp(b),
            (Float(a), Int(b)) => a.partial_cmp(&(*b as f64)),
            (Text(a), Text(b)) => Some(a.cmp(b)),
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// The one total order over values: what every sort, group, join and
    /// shuffle keys on. It is [`Value::cmp_values`] wherever that is a lawful
    /// order, and closes its gaps: an Int and a Float compare exactly (no
    /// lossy `as f64` cast, so the order stays transitive past 2⁵³), NaN
    /// equals NaN and follows every other number, `-0.0` equals `0.0`, and
    /// values of incomparable types order by a fixed type rank (NULL,
    /// numbers, text, booleans, timestamps).
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Int(a), Int(b)) | (Timestamp(a), Timestamp(b)) => a.cmp(b),
            (Float(a), Float(b)) => {
                a.partial_cmp(b).unwrap_or_else(|| a.is_nan().cmp(&b.is_nan()))
            }
            (Int(a), Float(b)) => cmp_int_float(*a, *b),
            (Float(a), Int(b)) => cmp_int_float(*b, *a).reverse(),
            (Text(a), Text(b)) => a.cmp(b),
            (Bool(a), Bool(b)) => a.cmp(b),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }

    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Int(_) | Value::Float(_) => 1,
            Value::Text(_) => 2,
            Value::Bool(_) => 3,
            Value::Timestamp(_) => 4,
        }
    }
}

/// 2⁶³: the first float above every `i64`.
const I64_END: f64 = 9_223_372_036_854_775_808.0;

/// `f` as the `i64` it equals, if it equals one.
fn exact_i64(f: f64) -> Option<i64> {
    (f.trunc() == f && (-I64_END..I64_END).contains(&f)).then_some(f as i64)
}

/// `a` against `b` without rounding `a` to a float.
fn cmp_int_float(a: i64, b: f64) -> Ordering {
    if b.is_nan() || b >= I64_END {
        Ordering::Less
    } else if b < -I64_END {
        Ordering::Greater
    } else {
        // In range, so the integral part of `b` is an `i64`; a tie on it
        // is decided by the sign of the fraction.
        let whole = b.trunc();
        a.cmp(&(whole as i64))
            .then_with(|| 0.0_f64.partial_cmp(&(b - whole)).expect("b is not NaN"))
    }
}

/// A borrowed [`Value`] as a sort, group, join or shuffle key: its `Ord`,
/// `Eq` and `Hash` are [`Value::total_cmp`].
#[derive(Debug, Clone, Copy)]
pub struct Key<'a>(pub &'a Value);

impl Ord for Key<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(other.0)
    }
}

impl PartialOrd for Key<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Key<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Key<'_> {}

impl Hash for Key<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u8(self.0.type_rank());
        match self.0 {
            Value::Null => {}
            Value::Int(i) | Value::Timestamp(i) => state.write_i64(*i),
            // A float that equals an integer hashes as that integer; no
            // other float (NaN in any bit pattern included) equals one.
            Value::Float(f) => match exact_i64(*f) {
                Some(i) => state.write_i64(i),
                None if f.is_nan() => state.write_u64(f64::NAN.to_bits()),
                None => state.write_u64(f.to_bits()),
            },
            Value::Text(s) => s.hash(state),
            Value::Bool(b) => b.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Text(s) => f.write_str(s),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Timestamp(t) => write!(f, "@{t}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// A named, typed column.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Field {
    /// Column name.
    pub name: String,
    /// Column type.
    pub data_type: DataType,
    /// Whether NULLs are permitted.
    pub nullable: bool,
}

impl Field {
    /// A non-nullable field.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        Self { name: name.into(), data_type, nullable: false }
    }

    /// A nullable field.
    pub fn nullable(name: impl Into<String>, data_type: DataType) -> Self {
        Self { name: name.into(), data_type, nullable: true }
    }
}

/// An ordered list of fields describing a table.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// Build a schema from fields.
    ///
    /// # Panics
    /// Panics if two fields share a name.
    pub fn new(fields: Vec<Field>) -> Self {
        for (i, f) in fields.iter().enumerate() {
            for g in &fields[i + 1..] {
                assert_ne!(f.name, g.name, "duplicate column name {}", f.name);
            }
        }
        Self { fields }
    }

    /// The fields in order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True for a zero-column schema.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Index of the column named `name`.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }

    /// The field named `name`.
    pub fn field(&self, name: &str) -> Option<&Field> {
        self.fields.iter().find(|f| f.name == name)
    }

    /// Check a row of values against this schema (arity, types, nullability).
    pub fn validate_row(&self, row: &[Value]) -> crate::Result<()> {
        if row.len() != self.fields.len() {
            return Err(crate::BdbError::TypeMismatch {
                expected: format!("{} columns", self.fields.len()),
                found: format!("{} columns", row.len()),
            });
        }
        for (v, f) in row.iter().zip(&self.fields) {
            match v.data_type() {
                None if f.nullable => {}
                None => {
                    return Err(crate::BdbError::TypeMismatch {
                        expected: f.data_type.to_string(),
                        found: format!("NULL in non-nullable column {}", f.name),
                    })
                }
                Some(t) if t == f.data_type => {}
                Some(t) => {
                    return Err(crate::BdbError::TypeMismatch {
                        expected: format!("{} for column {}", f.data_type, f.name),
                        found: t.to_string(),
                    })
                }
            }
        }
        Ok(())
    }

    /// A new schema with only the named columns, in the given order.
    pub fn project(&self, names: &[&str]) -> crate::Result<Schema> {
        let mut fields = Vec::with_capacity(names.len());
        for n in names {
            let f = self
                .field(n)
                .ok_or_else(|| crate::BdbError::NotFound(format!("column {n}")))?;
            fields.push(f.clone());
        }
        Ok(Schema::new(fields))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("name", DataType::Text),
            Field::nullable("score", DataType::Float),
        ])
    }

    #[test]
    fn value_type_introspection() {
        assert_eq!(Value::Int(1).data_type(), Some(DataType::Int));
        assert_eq!(Value::Null.data_type(), None);
        assert!(Value::Null.is_null());
        assert_eq!(Value::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Text("x".into()).as_str(), Some("x"));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
    }

    #[test]
    fn value_ordering_null_first() {
        assert_eq!(
            Value::Null.cmp_values(&Value::Int(0)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Int(0).cmp_values(&Value::Null),
            Some(Ordering::Greater)
        );
        assert_eq!(Value::Null.cmp_values(&Value::Null), Some(Ordering::Equal));
    }

    #[test]
    fn value_cross_numeric_comparison() {
        assert_eq!(
            Value::Int(2).cmp_values(&Value::Float(2.5)),
            Some(Ordering::Less)
        );
        assert_eq!(Value::Int(2), Value::Float(2.0));
    }

    #[test]
    fn incomparable_values() {
        assert_eq!(Value::Int(1).cmp_values(&Value::Text("1".into())), None);
    }

    const TWO_53: i64 = 1 << 53;

    /// Values drawn from small pools, so equal pairs are common: NULL,
    /// signed zeros, NaN in two bit patterns, infinities, ints and floats
    /// around 2^53 and the ends of `i64`, text, booleans, timestamps.
    fn arb_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            (-3i64..4).prop_map(Value::Int),
            (-2i64..3).prop_map(|d| Value::Int(TWO_53 + d)),
            (-2i64..3).prop_map(|d| Value::Int(-TWO_53 + d)),
            (0i64..3).prop_map(|d| Value::Int(i64::MAX - d)),
            (0i64..3).prop_map(|d| Value::Int(i64::MIN + d)),
            (-6i32..7).prop_map(|h| Value::Float(f64::from(h) / 2.0)),
            (-2i64..3).prop_map(|d| Value::Float((TWO_53 + 2 * d) as f64)),
            (0usize..9).prop_map(|i| Value::Float(
                [0.0, -0.0, f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY, I64_END,
                 -I64_END, 1e300][i]
            )),
            (0usize..4).prop_map(|i| Value::from(["", "a", "b", "1"][i])),
            any::<bool>().prop_map(Value::Bool),
            (-2i64..3).prop_map(Value::Timestamp),
        ]
    }

    fn hash_of(v: &Value) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        Key(v).hash(&mut h);
        h.finish()
    }

    /// `cmp_values` is the reference for this pair: it has an answer, and
    /// neither a NaN nor an int that `as f64` rounds is involved.
    fn cmp_values_is_lawful(a: &Value, b: &Value) -> bool {
        let nan = |v: &Value| matches!(v, Value::Float(f) if f.is_nan());
        let rounds = |v: &Value| matches!(v, Value::Int(i) if i.unsigned_abs() > TWO_53 as u64);
        let mixed = matches!(
            (a, b),
            (Value::Int(_), Value::Float(_)) | (Value::Float(_), Value::Int(_))
        );
        !nan(a) && !nan(b) && !(mixed && (rounds(a) || rounds(b)))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn total_cmp_is_a_total_order_that_hash_respects(
            a in arb_value(), b in arb_value(), c in arb_value()
        ) {
            prop_assert_eq!(a.total_cmp(&a), Ordering::Equal);
            prop_assert_eq!(a.total_cmp(&b), b.total_cmp(&a).reverse(), "{:?} {:?}", a, b);
            if a.total_cmp(&b).is_le() && b.total_cmp(&c).is_le() {
                prop_assert!(a.total_cmp(&c).is_le(), "{:?} <= {:?} <= {:?}", a, b, c);
            }
            if a.total_cmp(&b).is_eq() {
                prop_assert_eq!(hash_of(&a), hash_of(&b), "{:?} == {:?}", a, b);
                prop_assert_eq!(Key(&a), Key(&b));
            }
            if cmp_values_is_lawful(&a, &b) {
                if let Some(ord) = a.cmp_values(&b) {
                    prop_assert_eq!(a.total_cmp(&b), ord, "{:?} vs {:?}", a, b);
                }
            }
        }
    }

    #[test]
    fn total_cmp_closes_the_gaps_cmp_values_leaves() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan.total_cmp(&Value::Float(-f64::NAN)), Ordering::Equal);
        assert_eq!(nan.total_cmp(&Value::Float(f64::INFINITY)), Ordering::Greater);
        assert_eq!(nan.total_cmp(&Value::Int(i64::MAX)), Ordering::Greater);
        assert_eq!(Value::Float(-0.0).total_cmp(&Value::Float(0.0)), Ordering::Equal);
        assert_eq!(hash_of(&Value::Float(-0.0)), hash_of(&Value::Int(0)));
        // 2^53 + 1 rounds to 2^53 as a float; the exact comparison sees it.
        let (odd, float) = (Value::Int(TWO_53 + 1), Value::Float(TWO_53 as f64));
        assert_eq!(odd.cmp_values(&float), Some(Ordering::Equal));
        assert_eq!(odd.total_cmp(&float), Ordering::Greater);
        assert_eq!(Value::Int(i64::MAX).total_cmp(&Value::Float(I64_END)), Ordering::Less);
        assert_eq!(Value::Int(-1).total_cmp(&Value::Float(-1.5)), Ordering::Greater);
        // Incomparable types: NULL, numbers, text, booleans, timestamps.
        let ranked = [
            Value::Null,
            Value::Int(9),
            Value::from("1"),
            Value::Bool(false),
            Value::Timestamp(-5),
        ];
        for pair in ranked.windows(2) {
            assert_eq!(pair[0].total_cmp(&pair[1]), Ordering::Less, "{pair:?}");
        }
    }

    #[test]
    fn byte_size_accounting() {
        assert_eq!(Value::Int(1).byte_size(), 8);
        assert_eq!(Value::Text("abcd".into()).byte_size(), 4);
        assert_eq!(Value::Null.byte_size(), 1);
    }

    #[test]
    fn schema_lookup_and_projection() {
        let s = schema();
        assert_eq!(s.index_of("name"), Some(1));
        assert_eq!(s.index_of("missing"), None);
        let p = s.project(&["score", "id"]).unwrap();
        assert_eq!(p.fields()[0].name, "score");
        assert_eq!(p.fields()[1].name, "id");
        assert!(s.project(&["nope"]).is_err());
    }

    #[test]
    fn validate_row_accepts_valid() {
        let s = schema();
        let row = vec![Value::Int(1), Value::from("a"), Value::Null];
        assert!(s.validate_row(&row).is_ok());
    }

    #[test]
    fn validate_row_rejects_null_in_non_nullable() {
        let s = schema();
        let row = vec![Value::Null, Value::from("a"), Value::Null];
        assert!(s.validate_row(&row).is_err());
    }

    #[test]
    fn validate_row_rejects_wrong_arity_and_type() {
        let s = schema();
        assert!(s.validate_row(&[Value::Int(1)]).is_err());
        let row = vec![Value::from("oops"), Value::from("a"), Value::Null];
        assert!(s.validate_row(&row).is_err());
    }

    #[test]
    #[should_panic(expected = "duplicate column name")]
    fn schema_rejects_duplicate_names() {
        let _ = Schema::new(vec![
            Field::new("x", DataType::Int),
            Field::new("x", DataType::Text),
        ]);
    }

    #[test]
    fn display_round_trip_like() {
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Timestamp(5).to_string(), "@5");
        assert_eq!(DataType::Timestamp.to_string(), "TIMESTAMP");
    }
}
