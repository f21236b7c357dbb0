//! Scalar expressions and their evaluation.

use bdb_common::value::{Schema, Value};
use bdb_common::{BdbError, Result};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;

/// A scalar expression over the columns of a row.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A column reference by name (resolved to an index by [`Expr::bind`]).
    Column(String),
    /// A literal value.
    Literal(Value),
    /// A binary operation.
    Binary {
        /// Left operand.
        left: Box<Expr>,
        /// The operator.
        op: BinOp,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Logical negation.
    Not(Box<Expr>),
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `=`
    Eq,
    /// `!=` / `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `AND`
    And,
    /// `OR`
    Or,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Eq => "=",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
        };
        f.write_str(s)
    }
}

impl Expr {
    /// Shorthand: column reference.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column(name.into())
    }

    /// Shorthand: literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// Shorthand: binary expression.
    pub fn binary(left: Expr, op: BinOp, right: Expr) -> Expr {
        Expr::Binary { left: Box::new(left), op, right: Box::new(right) }
    }

    /// All column names referenced by this expression.
    pub fn referenced_columns(&self, out: &mut Vec<String>) {
        match self {
            Expr::Column(c) => {
                if !out.contains(c) {
                    out.push(c.clone());
                }
            }
            Expr::Literal(_) => {}
            Expr::Binary { left, right, .. } => {
                left.referenced_columns(out);
                right.referenced_columns(out);
            }
            Expr::Not(e) => e.referenced_columns(out),
        }
    }

    /// Resolve every column name to its index in `schema`, once.
    ///
    /// # Errors
    /// Fails on a column `schema` does not have — before any row is
    /// read, so also over an empty input.
    pub fn bind(&self, schema: &Schema) -> Result<BoundExpr> {
        Ok(match self {
            Expr::Column(name) => BoundExpr::Column(
                schema
                    .index_of(name)
                    .ok_or_else(|| BdbError::NotFound(format!("column {name}")))?,
            ),
            Expr::Literal(v) => BoundExpr::Literal(v.clone()),
            Expr::Not(e) => BoundExpr::Not(Box::new(e.bind(schema)?)),
            Expr::Binary { left, op, right } => BoundExpr::Binary {
                left: Box::new(left.bind(schema)?),
                op: *op,
                right: Box::new(right.bind(schema)?),
            },
        })
    }
}

/// An [`Expr`] whose columns are row indices: the only evaluator.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundExpr {
    /// The value at this index of the row.
    Column(usize),
    /// A literal value.
    Literal(Value),
    /// A binary operation.
    Binary {
        /// Left operand.
        left: Box<BoundExpr>,
        /// The operator.
        op: BinOp,
        /// Right operand.
        right: Box<BoundExpr>,
    },
    /// Logical negation.
    Not(Box<BoundExpr>),
}

impl BoundExpr {
    /// Replace every column index `i` with `map[i]`: an expression bound
    /// to a pruned scan's schema then reads the unpruned stored rows.
    pub fn remap(&mut self, map: &[usize]) {
        match self {
            BoundExpr::Column(i) => *i = map[*i],
            BoundExpr::Literal(_) => {}
            BoundExpr::Not(e) => e.remap(map),
            BoundExpr::Binary { left, right, .. } => {
                left.remap(map);
                right.remap(map);
            }
        }
    }

    /// Evaluate against a row. Columns and literals are lent; only a
    /// computed result is a new value, so a comparison of a column with a
    /// literal copies neither operand.
    pub fn eval<'a>(&'a self, row: &'a [Value]) -> Result<Cow<'a, Value>> {
        match self {
            BoundExpr::Column(i) => Ok(Cow::Borrowed(&row[*i])),
            BoundExpr::Literal(v) => Ok(Cow::Borrowed(v)),
            BoundExpr::Not(e) => match &*e.eval(row)? {
                Value::Bool(b) => Ok(Cow::Owned(Value::Bool(!b))),
                Value::Null => Ok(Cow::Owned(Value::Null)),
                other => Err(BdbError::TypeMismatch {
                    expected: "BOOL".into(),
                    found: format!("{other}"),
                }),
            },
            BoundExpr::Binary { left, op, right } => {
                // A column or literal operand is read in place; only a
                // computed operand is evaluated into a value first.
                let (l, r);
                let l = match left.leaf(row) {
                    Some(v) => v,
                    None => {
                        l = left.eval(row)?;
                        &*l
                    }
                };
                let r = match right.leaf(row) {
                    Some(v) => v,
                    None => {
                        r = right.eval(row)?;
                        &*r
                    }
                };
                eval_binary(l, *op, r).map(Cow::Owned)
            }
        }
    }

    /// The value of a column or literal, lent; `None` for a computed node.
    fn leaf<'a>(&'a self, row: &'a [Value]) -> Option<&'a Value> {
        match self {
            BoundExpr::Column(i) => Some(&row[*i]),
            BoundExpr::Literal(v) => Some(v),
            _ => None,
        }
    }

    /// Evaluate as a predicate: NULL and false are both "filtered out".
    pub fn eval_predicate(&self, row: &[Value]) -> Result<bool> {
        Ok(matches!(*self.eval(row)?, Value::Bool(true)))
    }
}

fn eval_binary(l: &Value, op: BinOp, r: &Value) -> Result<Value> {
    use BinOp::*;
    match op {
        And | Or => {
            let (a, b) = match (l, r) {
                (Value::Bool(a), Value::Bool(b)) => (*a, *b),
                (Value::Null, _) | (_, Value::Null) => return Ok(Value::Null),
                _ => {
                    return Err(BdbError::TypeMismatch {
                        expected: "BOOL operands".into(),
                        found: format!("{l} {op} {r}"),
                    })
                }
            };
            Ok(Value::Bool(if op == And { a && b } else { a || b }))
        }
        Eq | Ne | Lt | Le | Gt | Ge => {
            if l.is_null() || r.is_null() {
                // SQL three-valued logic: comparisons with NULL are NULL.
                return Ok(Value::Null);
            }
            let ord = l.cmp_values(r).ok_or_else(|| BdbError::TypeMismatch {
                expected: "comparable values".into(),
                found: format!("{l} {op} {r}"),
            })?;
            let b = match op {
                Eq => ord == Ordering::Equal,
                Ne => ord != Ordering::Equal,
                Lt => ord == Ordering::Less,
                Le => ord != Ordering::Greater,
                Gt => ord == Ordering::Greater,
                Ge => ord != Ordering::Less,
                _ => unreachable!(),
            };
            Ok(Value::Bool(b))
        }
        Add | Sub | Mul | Div => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            match (l, r) {
                (Value::Int(a), Value::Int(b)) => {
                    let v = match op {
                        Add => a.wrapping_add(*b),
                        Sub => a.wrapping_sub(*b),
                        Mul => a.wrapping_mul(*b),
                        Div => {
                            if *b == 0 {
                                return Ok(Value::Null);
                            }
                            a / b
                        }
                        _ => unreachable!(),
                    };
                    Ok(Value::Int(v))
                }
                _ => {
                    let a = l.as_f64().ok_or_else(|| type_err(l, op, r))?;
                    let b = r.as_f64().ok_or_else(|| type_err(l, op, r))?;
                    let v = match op {
                        Add => a + b,
                        Sub => a - b,
                        Mul => a * b,
                        Div => {
                            if b == 0.0 {
                                return Ok(Value::Null);
                            }
                            a / b
                        }
                        _ => unreachable!(),
                    };
                    Ok(Value::Float(v))
                }
            }
        }
    }
}

fn type_err(l: &Value, op: BinOp, r: &Value) -> BdbError {
    BdbError::TypeMismatch {
        expected: "numeric operands".into(),
        found: format!("{l} {op} {r}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdb_common::record::Record;
    use bdb_common::value::{DataType, Field};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Float),
            Field::nullable("c", DataType::Int),
        ])
    }

    fn row() -> Record {
        vec![Value::Int(10), Value::Float(2.5), Value::Null]
    }

    /// Bind to [`schema`], evaluate against [`row`].
    fn eval(e: &Expr) -> Result<Value> {
        Ok(e.bind(&schema())?.eval(&row())?.into_owned())
    }

    #[test]
    fn column_and_literal_eval() {
        assert_eq!(eval(&Expr::col("a")).unwrap(), Value::Int(10));
        assert_eq!(eval(&Expr::lit(5i64)).unwrap(), Value::Int(5));
        assert!(eval(&Expr::col("zz")).is_err());
    }

    #[test]
    fn arithmetic_int_and_float() {
        let e = Expr::binary(Expr::col("a"), BinOp::Add, Expr::lit(5i64));
        assert_eq!(eval(&e).unwrap(), Value::Int(15));
        let e = Expr::binary(Expr::col("a"), BinOp::Mul, Expr::col("b"));
        assert_eq!(eval(&e).unwrap(), Value::Float(25.0));
    }

    #[test]
    fn division_by_zero_is_null() {
        let e = Expr::binary(Expr::col("a"), BinOp::Div, Expr::lit(0i64));
        assert!(eval(&e).unwrap().is_null());
        let e = Expr::binary(Expr::col("b"), BinOp::Div, Expr::lit(0.0));
        assert!(eval(&e).unwrap().is_null());
    }

    #[test]
    fn comparisons_and_null_semantics() {
        let e = Expr::binary(Expr::col("a"), BinOp::Gt, Expr::lit(5i64));
        assert_eq!(eval(&e).unwrap(), Value::Bool(true));
        // NULL comparison yields NULL, and the predicate filters it.
        let e = Expr::binary(Expr::col("c"), BinOp::Eq, Expr::lit(1i64));
        assert!(eval(&e).unwrap().is_null());
        assert!(!e.bind(&schema()).unwrap().eval_predicate(&row()).unwrap());
    }

    #[test]
    fn logic_ops() {
        let t = Expr::lit(true);
        let f = Expr::lit(false);
        assert_eq!(
            eval(&Expr::binary(t.clone(), BinOp::And, f.clone())).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            eval(&Expr::binary(t.clone(), BinOp::Or, f.clone())).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(eval(&Expr::Not(Box::new(t))).unwrap(), Value::Bool(false));
        assert!(eval(&Expr::Not(Box::new(Expr::lit(3i64)))).is_err());
    }

    #[test]
    fn referenced_columns_dedupes() {
        let e = Expr::binary(
            Expr::binary(Expr::col("a"), BinOp::Add, Expr::col("b")),
            BinOp::Gt,
            Expr::col("a"),
        );
        let mut cols = Vec::new();
        e.referenced_columns(&mut cols);
        assert_eq!(cols, vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn incomparable_types_error() {
        let e = Expr::binary(Expr::col("a"), BinOp::Eq, Expr::lit("x"));
        assert!(eval(&e).is_err());
    }
}
