//! The scalar expression tree and its three-valued evaluation.
//!
//! [`BoundExpr::eval_truth`] is the reference semantics of a search
//! condition: SQL2's three truth values, collapsed by whoever consumes
//! the answer through `⌊·⌋` ([`Truth::floor`], WHERE / ON / HAVING) or
//! `⌈·⌉` ([`Truth::ceil`], CHECK). The row engine evaluates exactly
//! this, row by row. The chunk pipeline does not: it applies the
//! interpretation operator to the *tree*, once, where it binds
//! ([`crate::lower`]), and evaluates the resulting two-valued condition
//! as bitmaps — answering to this module on every row.

use std::collections::BTreeSet;
use std::fmt;

use gbj_types::{ColumnRef, DataType, Error, Result, Schema, Truth, Value};

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    /// `=` (three-valued).
    Eq,
    /// `<>` (three-valued).
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// Logical `AND` (Figure 2 semantics).
    And,
    /// Logical `OR` (Figure 2 semantics).
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

impl BinaryOp {
    /// Whether the operator is a comparison yielding a truth value.
    #[must_use]
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinaryOp::Eq
                | BinaryOp::NotEq
                | BinaryOp::Lt
                | BinaryOp::LtEq
                | BinaryOp::Gt
                | BinaryOp::GtEq
        )
    }

    /// Whether the operator is a logical connective.
    #[must_use]
    pub fn is_logical(self) -> bool {
        matches!(self, BinaryOp::And | BinaryOp::Or)
    }

    /// Whether the operator is arithmetic.
    #[must_use]
    pub fn is_arithmetic(self) -> bool {
        matches!(
            self,
            BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div
        )
    }

    /// The SQL spelling.
    #[must_use]
    pub fn symbol(self) -> &'static str {
        match self {
            BinaryOp::Eq => "=",
            BinaryOp::NotEq => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::LtEq => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::GtEq => ">=",
            BinaryOp::And => "AND",
            BinaryOp::Or => "OR",
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
        }
    }
}

impl fmt::Display for BinaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// A scalar expression with name-based column references.
///
/// This is the *logical* form used by the parser, planner and optimizer.
/// Before execution it is compiled against a concrete schema into a
/// [`BoundExpr`] whose column references are row ordinals.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A column reference, resolved by name at bind time.
    Column(ColumnRef),
    /// A literal value.
    Literal(Value),
    /// A binary operation.
    Binary {
        /// Left operand.
        left: Box<Expr>,
        /// Operator.
        op: BinaryOp,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Logical `NOT` (three-valued).
    Not(Box<Expr>),
    /// Arithmetic negation.
    Neg(Box<Expr>),
    /// `expr IS [NOT] NULL`. Always two-valued (never `unknown`).
    IsNull {
        /// Operand.
        expr: Box<Expr>,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
}

impl Expr {
    /// Column reference shorthand: `Expr::col("E", "DeptID")`.
    pub fn col(table: impl Into<String>, column: impl Into<String>) -> Expr {
        Expr::Column(ColumnRef::qualified(table, column))
    }

    /// Unqualified column reference shorthand.
    pub fn bare(column: impl Into<String>) -> Expr {
        Expr::Column(ColumnRef::bare(column))
    }

    /// Literal shorthand.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// Build `self op other`.
    #[must_use]
    pub fn binary(self, op: BinaryOp, other: Expr) -> Expr {
        Expr::Binary {
            left: Box::new(self),
            op,
            right: Box::new(other),
        }
    }

    /// Build `self = other`.
    #[must_use]
    pub fn eq(self, other: Expr) -> Expr {
        self.binary(BinaryOp::Eq, other)
    }

    /// Build `self AND other`.
    #[must_use]
    pub fn and(self, other: Expr) -> Expr {
        self.binary(BinaryOp::And, other)
    }

    /// Build `self OR other`.
    #[must_use]
    pub fn or(self, other: Expr) -> Expr {
        self.binary(BinaryOp::Or, other)
    }

    /// Conjoin a sequence of predicates; `None` when the iterator is
    /// empty (the always-true predicate is *absent*, not `TRUE`).
    pub fn conjunction(exprs: impl IntoIterator<Item = Expr>) -> Option<Expr> {
        exprs.into_iter().reduce(Expr::and)
    }

    /// All column references in the expression, in a deterministic order.
    #[must_use]
    pub fn columns(&self) -> BTreeSet<ColumnRef> {
        let mut out = BTreeSet::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns(&self, out: &mut BTreeSet<ColumnRef>) {
        match self {
            Expr::Column(c) => {
                out.insert(c.clone());
            }
            Expr::Literal(_) => {}
            Expr::Binary { left, right, .. } => {
                left.collect_columns(out);
                right.collect_columns(out);
            }
            Expr::Not(e) | Expr::Neg(e) => e.collect_columns(out),
            Expr::IsNull { expr, .. } => expr.collect_columns(out),
        }
    }

    /// Rewrite every column reference with `f` (used when re-rooting an
    /// expression onto a different schema, e.g. after the eager-
    /// aggregation rewrite renames aggregate outputs).
    #[must_use]
    pub fn map_columns(&self, f: &impl Fn(&ColumnRef) -> ColumnRef) -> Expr {
        match self {
            Expr::Column(c) => Expr::Column(f(c)),
            Expr::Literal(v) => Expr::Literal(v.clone()),
            Expr::Binary { left, op, right } => Expr::Binary {
                left: Box::new(left.map_columns(f)),
                op: *op,
                right: Box::new(right.map_columns(f)),
            },
            Expr::Not(e) => Expr::Not(Box::new(e.map_columns(f))),
            Expr::Neg(e) => Expr::Neg(Box::new(e.map_columns(f))),
            Expr::IsNull { expr, negated } => Expr::IsNull {
                expr: Box::new(expr.map_columns(f)),
                negated: *negated,
            },
        }
    }

    /// Static type of the expression under `schema`.
    ///
    /// Comparisons and logical connectives are `Boolean`; arithmetic
    /// follows numeric coercion. Ill-typed trees are rejected here so
    /// execution never sees them.
    pub fn data_type(&self, schema: &Schema) -> Result<DataType> {
        match self {
            Expr::Column(c) => Ok(schema.resolve(c)?.1.data_type),
            Expr::Literal(v) => Ok(v.data_type().unwrap_or(DataType::Int64)),
            Expr::Binary { left, op, right } => {
                let lt = left.data_type(schema)?;
                let rt = right.data_type(schema)?;
                if op.is_comparison() {
                    if lt.comparable_with(rt) {
                        Ok(DataType::Boolean)
                    } else {
                        Err(Error::Type(format!(
                            "cannot compare {lt} with {rt} in {self}"
                        )))
                    }
                } else if op.is_logical() {
                    if lt == DataType::Boolean && rt == DataType::Boolean {
                        Ok(DataType::Boolean)
                    } else {
                        Err(Error::Type(format!(
                            "{op} requires boolean operands, got {lt} and {rt}"
                        )))
                    }
                } else {
                    lt.numeric_common(rt)
                        .ok_or_else(|| Error::Type(format!("invalid arithmetic {lt} {op} {rt}")))
                }
            }
            Expr::Not(e) => {
                let t = e.data_type(schema)?;
                if t == DataType::Boolean {
                    Ok(DataType::Boolean)
                } else {
                    Err(Error::Type(format!(
                        "NOT requires a boolean operand, got {t}"
                    )))
                }
            }
            Expr::Neg(e) => {
                let t = e.data_type(schema)?;
                if t.is_numeric() {
                    Ok(t)
                } else {
                    Err(Error::Type(format!("cannot negate {t}")))
                }
            }
            Expr::IsNull { expr, .. } => {
                expr.data_type(schema)?;
                Ok(DataType::Boolean)
            }
        }
    }

    /// Whether the expression can evaluate to `NULL` under `schema`.
    pub fn nullable(&self, schema: &Schema) -> Result<bool> {
        match self {
            Expr::Column(c) => Ok(schema.resolve(c)?.1.nullable),
            Expr::Literal(v) => Ok(v.is_null()),
            Expr::Binary { left, op, right } => {
                if op.is_logical() {
                    // AND/OR can yield unknown (≈ NULL at rest) whenever
                    // an operand can.
                    Ok(left.nullable(schema)? || right.nullable(schema)?)
                } else {
                    Ok(left.nullable(schema)? || right.nullable(schema)?)
                }
            }
            Expr::Not(e) | Expr::Neg(e) => e.nullable(schema),
            Expr::IsNull { .. } => Ok(false),
        }
    }

    /// Compile to a [`BoundExpr`] by resolving column names to ordinals.
    pub fn bind(&self, schema: &Schema) -> Result<BoundExpr> {
        // Type-check once here; evaluation can then skip re-validation.
        self.data_type(schema)?;
        self.bind_inner(schema)
    }

    fn bind_inner(&self, schema: &Schema) -> Result<BoundExpr> {
        Ok(match self {
            Expr::Column(c) => BoundExpr::Column(schema.index_of(c)?),
            Expr::Literal(v) => BoundExpr::Literal(v.clone()),
            Expr::Binary { left, op, right } => BoundExpr::Binary {
                left: Box::new(left.bind_inner(schema)?),
                op: *op,
                right: Box::new(right.bind_inner(schema)?),
            },
            Expr::Not(e) => BoundExpr::Not(Box::new(e.bind_inner(schema)?)),
            Expr::Neg(e) => BoundExpr::Neg(Box::new(e.bind_inner(schema)?)),
            Expr::IsNull { expr, negated } => BoundExpr::IsNull {
                expr: Box::new(expr.bind_inner(schema)?),
                negated: *negated,
            },
        })
    }

    /// Evaluate against a row without pre-binding (convenience for tests
    /// and one-shot checks; the executor uses [`BoundExpr`]).
    pub fn eval(&self, row: &[Value], schema: &Schema) -> Result<Value> {
        self.bind(schema)?.eval(row)
    }

    /// Evaluate as a predicate to a three-valued [`Truth`].
    pub fn eval_truth(&self, row: &[Value], schema: &Schema) -> Result<Truth> {
        self.bind(schema)?.eval_truth(row)
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column(c) => write!(f, "{c}"),
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Binary { left, op, right } => write!(f, "({left} {op} {right})"),
            Expr::Not(e) => write!(f, "(NOT {e})"),
            Expr::Neg(e) => write!(f, "(-{e})"),
            Expr::IsNull {
                expr,
                negated: false,
            } => write!(f, "({expr} IS NULL)"),
            Expr::IsNull {
                expr,
                negated: true,
            } => write!(f, "({expr} IS NOT NULL)"),
        }
    }
}

/// An expression compiled against a concrete schema: columns are row
/// ordinals, so evaluation is allocation-free for scalars.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundExpr {
    /// Row ordinal.
    Column(usize),
    /// Literal.
    Literal(Value),
    /// Binary operation.
    Binary {
        /// Left operand.
        left: Box<BoundExpr>,
        /// Operator.
        op: BinaryOp,
        /// Right operand.
        right: Box<BoundExpr>,
    },
    /// Three-valued `NOT`.
    Not(Box<BoundExpr>),
    /// Arithmetic negation.
    Neg(Box<BoundExpr>),
    /// `IS [NOT] NULL`.
    IsNull {
        /// Operand.
        expr: Box<BoundExpr>,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
}

impl BoundExpr {
    /// Evaluate to a [`Value`]. Truth values are reified as
    /// `Value::Bool` / `Value::Null` (for `unknown`).
    pub fn eval(&self, row: &[Value]) -> Result<Value> {
        match self {
            BoundExpr::Column(i) => row
                .get(*i)
                .cloned()
                .ok_or_else(|| Error::Internal(format!("column ordinal {i} out of range"))),
            BoundExpr::Literal(v) => Ok(v.clone()),
            BoundExpr::Binary { left, op, right } => {
                if op.is_logical() {
                    return Ok(truth_to_value(self.eval_truth(row)?));
                }
                let l = left.eval(row)?;
                let r = right.eval(row)?;
                match op {
                    BinaryOp::Add => l.add(&r),
                    BinaryOp::Sub => l.sub(&r),
                    BinaryOp::Mul => l.mul(&r),
                    BinaryOp::Div => l.div(&r),
                    _ => Ok(truth_to_value(compare(&l, *op, &r))),
                }
            }
            BoundExpr::Not(e) => Ok(truth_to_value(e.eval_truth(row)?.not())),
            BoundExpr::Neg(e) => e.eval(row)?.neg(),
            BoundExpr::IsNull { expr, negated } => {
                let v = expr.eval(row)?;
                Ok(Value::Bool(v.is_null() != *negated))
            }
        }
    }

    /// Evaluate as a search condition to a three-valued [`Truth`],
    /// short-circuiting `AND`/`OR` where three-valued logic permits.
    /// [`BoundExpr::lower_floor`] / [`BoundExpr::lower_ceil`] are this
    /// followed by [`Truth::floor`] / [`Truth::ceil`], as one two-valued
    /// tree.
    pub fn eval_truth(&self, row: &[Value]) -> Result<Truth> {
        match self {
            BoundExpr::Binary {
                left,
                op: BinaryOp::And,
                right,
            } => {
                let l = left.eval_truth(row)?;
                if l == Truth::False {
                    return Ok(Truth::False);
                }
                Ok(l.and(right.eval_truth(row)?))
            }
            BoundExpr::Binary {
                left,
                op: BinaryOp::Or,
                right,
            } => {
                let l = left.eval_truth(row)?;
                if l == Truth::True {
                    return Ok(Truth::True);
                }
                Ok(l.or(right.eval_truth(row)?))
            }
            BoundExpr::Binary { left, op, right } if op.is_comparison() => {
                let l = left.eval(row)?;
                let r = right.eval(row)?;
                Ok(compare(&l, *op, &r))
            }
            BoundExpr::Not(e) => Ok(e.eval_truth(row)?.not()),
            other => Ok(value_to_truth(&other.eval(row)?)),
        }
    }
}

/// Three-valued comparison of two values.
fn compare(l: &Value, op: BinaryOp, r: &Value) -> Truth {
    compare_values(l, op, r)
}

/// Three-valued comparison of two values: `unknown` when either side is
/// NULL or the pair is incomparable (via [`Value::sql_cmp`]), otherwise
/// the comparison lifted to [`Truth`].
///
/// This is the single source of comparison semantics for both the
/// row-at-a-time interpreter ([`BoundExpr::eval_truth`]) and the
/// vectorized kernels in `gbj-exec`, which must agree bit for bit.
#[must_use]
pub fn compare_values(l: &Value, op: BinaryOp, r: &Value) -> Truth {
    ordering_truth(op, l.sql_cmp(r))
}

/// Lift an optional [`Ordering`](std::cmp::Ordering) (as produced by
/// [`Value::sql_cmp`]; `None` means NULL/incomparable) to a [`Truth`]
/// under the given comparison operator. Non-comparison operators yield
/// `unknown` (callers guarantee a comparison operator).
#[must_use]
pub fn ordering_truth(op: BinaryOp, ord: Option<std::cmp::Ordering>) -> Truth {
    use std::cmp::Ordering;
    let Some(ord) = ord else {
        return Truth::Unknown;
    };
    let b = match op {
        BinaryOp::Eq => ord == Ordering::Equal,
        BinaryOp::NotEq => ord != Ordering::Equal,
        BinaryOp::Lt => ord == Ordering::Less,
        BinaryOp::LtEq => ord != Ordering::Greater,
        BinaryOp::Gt => ord == Ordering::Greater,
        BinaryOp::GtEq => ord != Ordering::Less,
        _ => return Truth::Unknown,
    };
    Truth::from_bool(b)
}

/// Reify a [`Truth`] as a [`Value`]: `unknown` becomes NULL.
#[must_use]
pub fn truth_to_value(t: Truth) -> Value {
    match t {
        Truth::True => Value::Bool(true),
        Truth::False => Value::Bool(false),
        Truth::Unknown => Value::Null,
    }
}

/// Read a [`Value`] as a search-condition [`Truth`]: NULL is `unknown`,
/// `TRUE` is `true`, everything else is `false`.
#[must_use]
pub fn value_to_truth(v: &Value) -> Truth {
    match v {
        Value::Null => Truth::Unknown,
        Value::Bool(true) => Truth::True,
        _ => Truth::False,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbj_types::Field;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("a", DataType::Int64, true).with_qualifier("T"),
            Field::new("b", DataType::Int64, true).with_qualifier("T"),
            Field::new("s", DataType::Utf8, true).with_qualifier("T"),
        ])
    }

    fn row(a: Value, b: Value, s: Value) -> Vec<Value> {
        vec![a, b, s]
    }

    #[test]
    fn comparison_three_valued() {
        let s = schema();
        let e = Expr::col("T", "a").eq(Expr::lit(1i64));
        assert_eq!(
            e.eval_truth(&row(Value::Int(1), Value::Null, Value::Null), &s)
                .unwrap(),
            Truth::True
        );
        assert_eq!(
            e.eval_truth(&row(Value::Int(2), Value::Null, Value::Null), &s)
                .unwrap(),
            Truth::False
        );
        assert_eq!(
            e.eval_truth(&row(Value::Null, Value::Null, Value::Null), &s)
                .unwrap(),
            Truth::Unknown
        );
    }

    #[test]
    fn where_clause_rejects_unknown() {
        // NULL = NULL is unknown, and ⌊unknown⌋ = false.
        let s = schema();
        let e = Expr::col("T", "a").eq(Expr::col("T", "b"));
        let t = e
            .eval_truth(&row(Value::Null, Value::Null, Value::Null), &s)
            .unwrap();
        assert!(!t.floor());
    }

    #[test]
    fn and_or_short_circuit_preserves_3vl() {
        let s = schema();
        // (a = 1) OR (b = 1): with a=1, b=NULL → true (short circuit).
        let e = Expr::col("T", "a")
            .eq(Expr::lit(1i64))
            .or(Expr::col("T", "b").eq(Expr::lit(1i64)));
        assert_eq!(
            e.eval_truth(&row(Value::Int(1), Value::Null, Value::Null), &s)
                .unwrap(),
            Truth::True
        );
        // with a=2, b=NULL → false OR unknown = unknown.
        assert_eq!(
            e.eval_truth(&row(Value::Int(2), Value::Null, Value::Null), &s)
                .unwrap(),
            Truth::Unknown
        );
        // AND: a=NULL, b=2 → unknown AND false = false.
        let e = Expr::col("T", "a")
            .eq(Expr::lit(1i64))
            .and(Expr::col("T", "b").eq(Expr::lit(1i64)));
        assert_eq!(
            e.eval_truth(&row(Value::Null, Value::Int(2), Value::Null), &s)
                .unwrap(),
            Truth::False
        );
    }

    #[test]
    fn is_null_is_two_valued() {
        let s = schema();
        let e = Expr::IsNull {
            expr: Box::new(Expr::col("T", "a")),
            negated: false,
        };
        assert_eq!(
            e.eval(&row(Value::Null, Value::Null, Value::Null), &s)
                .unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            e.eval(&row(Value::Int(0), Value::Null, Value::Null), &s)
                .unwrap(),
            Value::Bool(false)
        );
        let e = Expr::IsNull {
            expr: Box::new(Expr::col("T", "a")),
            negated: true,
        };
        assert_eq!(
            e.eval(&row(Value::Null, Value::Null, Value::Null), &s)
                .unwrap(),
            Value::Bool(false)
        );
    }

    #[test]
    fn arithmetic_evaluation() {
        let s = schema();
        let e = Expr::col("T", "a")
            .binary(BinaryOp::Add, Expr::col("T", "b"))
            .binary(BinaryOp::Mul, Expr::lit(2i64));
        assert_eq!(
            e.eval(&row(Value::Int(3), Value::Int(4), Value::Null), &s)
                .unwrap(),
            Value::Int(14)
        );
        assert_eq!(
            e.eval(&row(Value::Null, Value::Int(4), Value::Null), &s)
                .unwrap(),
            Value::Null
        );
    }

    #[test]
    fn neg_and_not() {
        let s = schema();
        let e = Expr::Neg(Box::new(Expr::col("T", "a")));
        assert_eq!(
            e.eval(&row(Value::Int(3), Value::Null, Value::Null), &s)
                .unwrap(),
            Value::Int(-3)
        );
        let e = Expr::Not(Box::new(Expr::col("T", "a").eq(Expr::lit(1i64))));
        assert_eq!(
            e.eval_truth(&row(Value::Null, Value::Null, Value::Null), &s)
                .unwrap(),
            Truth::Unknown
        );
    }

    #[test]
    fn type_checking_rejects_mismatches() {
        let s = schema();
        assert!(Expr::col("T", "a")
            .eq(Expr::col("T", "s"))
            .data_type(&s)
            .is_err());
        assert!(Expr::col("T", "a")
            .and(Expr::col("T", "b"))
            .data_type(&s)
            .is_err());
        assert!(Expr::Neg(Box::new(Expr::col("T", "s")))
            .data_type(&s)
            .is_err());
        assert!(Expr::col("T", "a")
            .binary(BinaryOp::Add, Expr::col("T", "s"))
            .data_type(&s)
            .is_err());
        // And bind() surfaces the same error.
        assert!(Expr::col("T", "a")
            .and(Expr::col("T", "b"))
            .bind(&s)
            .is_err());
    }

    #[test]
    fn data_types() {
        let s = schema();
        assert_eq!(
            Expr::col("T", "a")
                .eq(Expr::lit(1i64))
                .data_type(&s)
                .unwrap(),
            DataType::Boolean
        );
        assert_eq!(
            Expr::col("T", "a")
                .binary(BinaryOp::Add, Expr::lit(1.5f64))
                .data_type(&s)
                .unwrap(),
            DataType::Float64
        );
        assert_eq!(
            Expr::lit(Value::Null).data_type(&s).unwrap(),
            DataType::Int64
        );
    }

    #[test]
    fn nullability() {
        let s = Schema::new(vec![
            Field::new("nn", DataType::Int64, false).with_qualifier("T"),
            Field::new("n", DataType::Int64, true).with_qualifier("T"),
        ]);
        assert!(!Expr::col("T", "nn").nullable(&s).unwrap());
        assert!(Expr::col("T", "n").nullable(&s).unwrap());
        assert!(Expr::col("T", "n")
            .binary(BinaryOp::Add, Expr::col("T", "nn"))
            .nullable(&s)
            .unwrap());
        assert!(!Expr::IsNull {
            expr: Box::new(Expr::col("T", "n")),
            negated: false
        }
        .nullable(&s)
        .unwrap());
    }

    #[test]
    fn columns_collection() {
        let e = Expr::col("A", "x")
            .eq(Expr::col("B", "y"))
            .and(Expr::col("A", "z").eq(Expr::lit(1i64)));
        let cols = e.columns();
        assert_eq!(cols.len(), 3);
        assert!(cols.contains(&ColumnRef::qualified("A", "x")));
        assert!(cols.contains(&ColumnRef::qualified("B", "y")));
        assert!(cols.contains(&ColumnRef::qualified("A", "z")));
    }

    #[test]
    fn map_columns_rewrites() {
        let e = Expr::col("A", "x").eq(Expr::col("B", "y"));
        let mapped = e.map_columns(&|c| {
            if c.table.as_deref() == Some("A") {
                ColumnRef::qualified("R1", c.column.clone())
            } else {
                c.clone()
            }
        });
        let cols = mapped.columns();
        assert!(cols.contains(&ColumnRef::qualified("R1", "x")));
        assert!(cols.contains(&ColumnRef::qualified("B", "y")));
    }

    #[test]
    fn conjunction_builder() {
        assert_eq!(Expr::conjunction(vec![]), None);
        let single = Expr::conjunction(vec![Expr::lit(true)]).unwrap();
        assert_eq!(single, Expr::lit(true));
        let double = Expr::conjunction(vec![Expr::lit(true), Expr::lit(false)]).unwrap();
        assert_eq!(double, Expr::lit(true).and(Expr::lit(false)));
    }

    #[test]
    fn display_round_readability() {
        let e = Expr::col("E", "DeptID").eq(Expr::col("D", "DeptID"));
        assert_eq!(e.to_string(), "(E.DeptID = D.DeptID)");
        let e = Expr::Not(Box::new(Expr::bare("x").eq(Expr::lit(5i64))));
        assert_eq!(e.to_string(), "(NOT (x = 5))");
        let e = Expr::IsNull {
            expr: Box::new(Expr::bare("x")),
            negated: true,
        };
        assert_eq!(e.to_string(), "(x IS NOT NULL)");
    }

    #[test]
    fn bound_column_out_of_range_is_internal_error() {
        let b = BoundExpr::Column(9);
        let err = b.eval(&[Value::Int(1)]).unwrap_err();
        assert_eq!(err.kind(), "internal");
    }

    #[test]
    fn logical_op_as_value_reifies_unknown_as_null() {
        let s = schema();
        let e = Expr::col("T", "a")
            .eq(Expr::lit(1i64))
            .or(Expr::col("T", "b").eq(Expr::lit(1i64)));
        assert_eq!(
            e.eval(&row(Value::Int(2), Value::Null, Value::Null), &s)
                .unwrap(),
            Value::Null
        );
    }
}
