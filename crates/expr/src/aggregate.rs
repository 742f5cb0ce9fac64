//! SQL aggregate functions with SQL2 NULL and DISTINCT semantics.
//!
//! The paper's `F(AA)` is "an array of aggregation functions and/or
//! arithmetic aggregation expressions applied on AA" — we support the
//! five SQL2 aggregates over arbitrary scalar argument expressions, plus
//! `COUNT(*)`. NULL handling follows SQL2:
//!
//! * every aggregate except `COUNT(*)` ignores NULL inputs;
//! * `COUNT` of an empty/all-NULL group is `0`;
//! * `SUM/MIN/MAX/AVG` of an empty/all-NULL group is `NULL`;
//! * `DISTINCT` dedupes inputs under the `=ⁿ` duplicate semantics.

use std::collections::HashSet;
use std::fmt;

use gbj_types::{DataType, Error, GroupKey, Result, Schema, Value};

use crate::expr::Expr;

/// The aggregate function kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggregateFunction {
    /// `COUNT(*)` — counts rows, including all-NULL ones.
    CountStar,
    /// `COUNT(expr)` — counts non-NULL values.
    Count,
    /// `SUM(expr)`.
    Sum,
    /// `MIN(expr)`.
    Min,
    /// `MAX(expr)`.
    Max,
    /// `AVG(expr)`.
    Avg,
}

impl AggregateFunction {
    /// SQL name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            AggregateFunction::CountStar | AggregateFunction::Count => "COUNT",
            AggregateFunction::Sum => "SUM",
            AggregateFunction::Min => "MIN",
            AggregateFunction::Max => "MAX",
            AggregateFunction::Avg => "AVG",
        }
    }
}

/// One aggregate call in a SELECT list, e.g. `SUM(DISTINCT A.Usage)`.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateCall {
    /// Which function.
    pub func: AggregateFunction,
    /// The argument expression; `None` only for `COUNT(*)`.
    pub arg: Option<Expr>,
    /// Whether `DISTINCT` was specified.
    pub distinct: bool,
}

impl AggregateCall {
    /// `COUNT(*)`.
    #[must_use]
    pub fn count_star() -> AggregateCall {
        AggregateCall {
            func: AggregateFunction::CountStar,
            arg: None,
            distinct: false,
        }
    }

    /// An aggregate over an argument expression.
    #[must_use]
    pub fn new(func: AggregateFunction, arg: Expr) -> AggregateCall {
        AggregateCall {
            func,
            arg: Some(arg),
            distinct: false,
        }
    }

    /// Mark the call `DISTINCT`.
    #[must_use]
    pub fn with_distinct(mut self) -> AggregateCall {
        self.distinct = true;
        self
    }

    /// The columns referenced by the argument — the paper's *aggregation
    /// columns* `AA` contributed by this call.
    #[must_use]
    pub fn columns(&self) -> std::collections::BTreeSet<gbj_types::ColumnRef> {
        self.arg.as_ref().map(Expr::columns).unwrap_or_default()
    }

    /// Result type under `schema`, validating the argument type.
    pub fn data_type(&self, schema: &Schema) -> Result<DataType> {
        match self.func {
            AggregateFunction::CountStar => Ok(DataType::Int64),
            AggregateFunction::Count => {
                let arg = self.expect_arg()?;
                arg.data_type(schema)?;
                Ok(DataType::Int64)
            }
            AggregateFunction::Sum => {
                let t = self.expect_arg()?.data_type(schema)?;
                if t.is_numeric() {
                    Ok(t)
                } else {
                    Err(Error::Type(format!(
                        "SUM requires a numeric argument, got {t}"
                    )))
                }
            }
            AggregateFunction::Avg => {
                let t = self.expect_arg()?.data_type(schema)?;
                if t.is_numeric() {
                    Ok(DataType::Float64)
                } else {
                    Err(Error::Type(format!(
                        "AVG requires a numeric argument, got {t}"
                    )))
                }
            }
            AggregateFunction::Min | AggregateFunction::Max => {
                let t = self.expect_arg()?.data_type(schema)?;
                if t == DataType::Boolean {
                    Err(Error::Type(format!(
                        "{} over BOOLEAN is not supported",
                        self.func.name()
                    )))
                } else {
                    Ok(t)
                }
            }
        }
    }

    fn expect_arg(&self) -> Result<&Expr> {
        self.arg
            .as_ref()
            .ok_or_else(|| Error::Internal(format!("{} call missing argument", self.func.name())))
    }

    /// Create a fresh accumulator for one group.
    #[must_use]
    pub fn accumulator(&self) -> Accumulator {
        Accumulator::new(self.func, self.distinct)
    }
}

impl fmt::Display for AggregateCall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.func.name())?;
        if self.distinct {
            f.write_str("DISTINCT ")?;
        }
        match &self.arg {
            Some(e) => write!(f, "{e}")?,
            None => f.write_str("*")?,
        }
        f.write_str(")")
    }
}

/// The running state of one aggregate over one group.
#[derive(Debug, Clone)]
pub struct Accumulator {
    func: AggregateFunction,
    seen: Option<HashSet<GroupKey>>,
    state: AggState,
}

/// The running state of one aggregate apart from its function and its
/// DISTINCT set. Public so that an executor keeping states column-wise
/// (one typed vector per aggregate) can hand a group's state back
/// through [`Accumulator::resume`] when it needs the general form;
/// [`Accumulator`] stays the definition of every transition.
#[derive(Debug, Clone, PartialEq)]
pub enum AggState {
    /// `COUNT` / `COUNT(*)`: inputs counted so far.
    Count(i64),
    /// `SUM` that has seen only integers (`any`: at least one).
    SumInt {
        /// The checked running sum.
        sum: i64,
        /// Whether any non-NULL input arrived.
        any: bool,
    },
    /// `SUM` promoted by its first float input.
    SumFloat {
        /// The running sum.
        sum: f64,
        /// Whether any non-NULL input arrived.
        any: bool,
    },
    /// `MIN` / `MAX`: the best input so far.
    MinMax(Option<Value>),
    /// `AVG`: the float sum and the count of its inputs.
    Avg {
        /// The running sum.
        sum: f64,
        /// Non-NULL inputs so far.
        count: i64,
    },
}

impl Accumulator {
    /// A non-DISTINCT accumulator of `func` that continues from `state`.
    #[must_use]
    pub fn resume(func: AggregateFunction, state: AggState) -> Accumulator {
        Accumulator {
            func,
            seen: None,
            state,
        }
    }

    fn new(func: AggregateFunction, distinct: bool) -> Accumulator {
        let state = match func {
            AggregateFunction::CountStar | AggregateFunction::Count => AggState::Count(0),
            // SUM starts as integer and promotes to float on the first
            // float input.
            AggregateFunction::Sum => AggState::SumInt { sum: 0, any: false },
            AggregateFunction::Min | AggregateFunction::Max => AggState::MinMax(None),
            AggregateFunction::Avg => AggState::Avg { sum: 0.0, count: 0 },
        };
        Accumulator {
            func,
            seen: distinct.then(HashSet::new),
            state,
        }
    }

    /// Feed one input value. For `COUNT(*)` pass the dummy
    /// `Value::Int(1)` (or anything non-NULL) once per row.
    pub fn update(&mut self, v: &Value) -> Result<()> {
        if self.func != AggregateFunction::CountStar {
            if v.is_null() {
                return Ok(()); // aggregates ignore NULL inputs
            }
            if let Some(seen) = &mut self.seen {
                if !seen.insert(GroupKey(vec![v.clone()])) {
                    return Ok(()); // duplicate under DISTINCT
                }
            }
        }
        match &mut self.state {
            AggState::Count(n) => *n += 1,
            AggState::SumInt { sum, any } => match v {
                Value::Int(i) => {
                    *sum = sum
                        .checked_add(*i)
                        .ok_or_else(|| Error::Execution("integer overflow in SUM".into()))?;
                    *any = true;
                }
                Value::Float(f) => {
                    let promoted = *sum as f64 + f;
                    self.state = AggState::SumFloat {
                        sum: promoted,
                        any: true,
                    };
                }
                other => return Err(Error::Type(format!("SUM over non-numeric value {other}"))),
            },
            AggState::SumFloat { sum, any } => {
                let f = v
                    .as_f64()?
                    .ok_or_else(|| Error::Internal("NULL reached SUM state".into()))?;
                *sum += f;
                *any = true;
            }
            AggState::MinMax(cur) => {
                let keep_new = match cur {
                    None => true,
                    Some(best) => {
                        let ord = v.sql_cmp(best).ok_or_else(|| {
                            Error::Type(format!(
                                "incomparable values in {}: {v} vs {best}",
                                self.func.name()
                            ))
                        })?;
                        match self.func {
                            AggregateFunction::Min => ord == std::cmp::Ordering::Less,
                            AggregateFunction::Max => ord == std::cmp::Ordering::Greater,
                            _ => unreachable!(),
                        }
                    }
                };
                if keep_new {
                    *cur = Some(v.clone());
                }
            }
            AggState::Avg { sum, count } => {
                let f = v
                    .as_f64()?
                    .ok_or_else(|| Error::Internal("NULL reached AVG state".into()))?;
                *sum += f;
                *count += 1;
            }
        }
        Ok(())
    }

    /// Merge another accumulator of the same call into this one, as if
    /// the other's inputs had been fed to `self` after its own. This is
    /// the combine path partitioned parallel aggregation uses to fold
    /// per-morsel partial states together.
    ///
    /// Exactness caveat: for `SUM`/`AVG` over floats the merged total is
    /// `self + other` rather than a replay of the original input order,
    /// and float addition is not associative, so the merged result can
    /// differ from the serial one by far more than an ulp: partials of
    /// `1e16`, `1.0` and `-1e16` sum to `0.0` in one order and `1.0` in
    /// another. An integer `SUM` is exact whatever the order, but it can
    /// overflow in one order and not in another; `AVG`'s `f64` sums of
    /// integers are exact while every partial stays below 2^53.
    pub fn merge(&mut self, other: &Accumulator) -> Result<()> {
        if self.func != other.func || self.seen.is_some() != other.seen.is_some() {
            return Err(Error::Internal(
                "cannot merge accumulators of different aggregate calls".into(),
            ));
        }
        if let Some(other_seen) = &other.seen {
            // DISTINCT: the state only ever saw deduped values, so
            // replay the other's distinct set through `update`, which
            // re-dedupes against our own `seen`. Replay in sorted order:
            // `HashSet` iteration order is unstable and must not leak
            // into results.
            let mut vals: Vec<&Value> = other_seen.iter().filter_map(|k| k.0.first()).collect();
            vals.sort_by(|a, b| a.total_cmp(b));
            for v in vals {
                self.update(v)?;
            }
            return Ok(());
        }
        match (&mut self.state, &other.state) {
            (AggState::Count(n), AggState::Count(m)) => *n += m,
            (AggState::SumInt { sum, any }, AggState::SumInt { sum: s, any: a }) => {
                if *a {
                    *sum = sum
                        .checked_add(*s)
                        .ok_or_else(|| Error::Execution("integer overflow in SUM".into()))?;
                    *any = true;
                }
            }
            (AggState::SumInt { sum, any }, AggState::SumFloat { sum: s, any: a }) => {
                self.state = AggState::SumFloat {
                    sum: *sum as f64 + s,
                    any: *any || *a,
                };
            }
            (AggState::SumFloat { sum, any }, AggState::SumInt { sum: s, any: a }) => {
                if *a {
                    *sum += *s as f64;
                    *any = true;
                }
            }
            (AggState::SumFloat { sum, any }, AggState::SumFloat { sum: s, any: a }) => {
                if *a {
                    *sum += s;
                    *any = true;
                }
            }
            (AggState::MinMax(cur), AggState::MinMax(theirs)) => {
                if let Some(v) = theirs {
                    let keep_new = match &*cur {
                        None => true,
                        Some(best) => {
                            let ord = v.sql_cmp(best).ok_or_else(|| {
                                Error::Type(format!(
                                    "incomparable values in {}: {v} vs {best}",
                                    self.func.name()
                                ))
                            })?;
                            match self.func {
                                AggregateFunction::Min => ord == std::cmp::Ordering::Less,
                                AggregateFunction::Max => ord == std::cmp::Ordering::Greater,
                                _ => {
                                    return Err(Error::Internal(
                                        "MinMax state on a non-MIN/MAX call".into(),
                                    ))
                                }
                            }
                        }
                    };
                    if keep_new {
                        *cur = Some(v.clone());
                    }
                }
            }
            (AggState::Avg { sum, count }, AggState::Avg { sum: s, count: c }) => {
                *sum += s;
                *count += c;
            }
            _ => {
                return Err(Error::Internal(
                    "cannot merge accumulators in mismatched states".into(),
                ))
            }
        }
        Ok(())
    }

    /// The aggregate result for the group.
    #[must_use]
    pub fn finish(&self) -> Value {
        match &self.state {
            AggState::Count(n) => Value::Int(*n),
            AggState::SumInt { sum, any } => {
                if *any {
                    Value::Int(*sum)
                } else {
                    Value::Null
                }
            }
            AggState::SumFloat { sum, any } => {
                if *any {
                    Value::Float(*sum)
                } else {
                    Value::Null
                }
            }
            AggState::MinMax(cur) => cur.clone().unwrap_or(Value::Null),
            AggState::Avg { sum, count } => {
                if *count == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / *count as f64)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbj_types::Field;

    fn feed(call: &AggregateCall, vals: &[Value]) -> Value {
        let mut acc = call.accumulator();
        for v in vals {
            acc.update(v).unwrap();
        }
        acc.finish()
    }

    #[test]
    fn count_star_counts_every_row() {
        let c = AggregateCall::count_star();
        let v = feed(&c, &[Value::Null, Value::Null, Value::Int(1)]);
        assert_eq!(v, Value::Int(3));
    }

    #[test]
    fn count_ignores_nulls_and_empty_is_zero() {
        let c = AggregateCall::new(AggregateFunction::Count, Expr::bare("x"));
        assert_eq!(
            feed(&c, &[Value::Int(1), Value::Null, Value::Int(2)]),
            Value::Int(2)
        );
        assert_eq!(feed(&c, &[]), Value::Int(0));
        assert_eq!(feed(&c, &[Value::Null, Value::Null]), Value::Int(0));
    }

    #[test]
    fn sum_int_float_and_null_groups() {
        let c = AggregateCall::new(AggregateFunction::Sum, Expr::bare("x"));
        assert_eq!(
            feed(&c, &[Value::Int(1), Value::Int(2), Value::Null]),
            Value::Int(3)
        );
        assert_eq!(feed(&c, &[]), Value::Null);
        assert_eq!(feed(&c, &[Value::Null]), Value::Null);
        // Promotion to float mid-stream.
        assert_eq!(
            feed(&c, &[Value::Int(1), Value::Float(0.5)]),
            Value::Float(1.5)
        );
        assert_eq!(
            feed(&c, &[Value::Float(0.5), Value::Int(1)]),
            Value::Float(1.5)
        );
    }

    #[test]
    fn sum_overflow_is_an_error() {
        let c = AggregateCall::new(AggregateFunction::Sum, Expr::bare("x"));
        let mut acc = c.accumulator();
        acc.update(&Value::Int(i64::MAX)).unwrap();
        assert!(acc.update(&Value::Int(1)).is_err());
    }

    #[test]
    fn min_max() {
        let mn = AggregateCall::new(AggregateFunction::Min, Expr::bare("x"));
        let mx = AggregateCall::new(AggregateFunction::Max, Expr::bare("x"));
        let vals = [Value::Int(5), Value::Null, Value::Int(2), Value::Int(9)];
        assert_eq!(feed(&mn, &vals), Value::Int(2));
        assert_eq!(feed(&mx, &vals), Value::Int(9));
        assert_eq!(feed(&mn, &[]), Value::Null);
        // Strings compare lexicographically.
        let vals = [Value::str("pear"), Value::str("apple")];
        assert_eq!(feed(&mn, &vals), Value::str("apple"));
        assert_eq!(feed(&mx, &vals), Value::str("pear"));
    }

    #[test]
    fn avg_ignores_nulls() {
        let c = AggregateCall::new(AggregateFunction::Avg, Expr::bare("x"));
        assert_eq!(
            feed(&c, &[Value::Int(1), Value::Null, Value::Int(3)]),
            Value::Float(2.0)
        );
        assert_eq!(feed(&c, &[]), Value::Null);
    }

    #[test]
    fn distinct_dedupes_under_null_eq() {
        let c = AggregateCall::new(AggregateFunction::Count, Expr::bare("x")).with_distinct();
        assert_eq!(
            feed(
                &c,
                &[Value::Int(1), Value::Int(1), Value::Int(2), Value::Null]
            ),
            Value::Int(2)
        );
        let s = AggregateCall::new(AggregateFunction::Sum, Expr::bare("x")).with_distinct();
        assert_eq!(
            feed(&s, &[Value::Int(5), Value::Int(5), Value::Int(3)]),
            Value::Int(8)
        );
    }

    #[test]
    fn type_checking() {
        let schema = Schema::new(vec![
            Field::new("n", DataType::Int64, true),
            Field::new("s", DataType::Utf8, true),
            Field::new("b", DataType::Boolean, true),
        ]);
        assert_eq!(
            AggregateCall::count_star().data_type(&schema).unwrap(),
            DataType::Int64
        );
        assert_eq!(
            AggregateCall::new(AggregateFunction::Sum, Expr::bare("n"))
                .data_type(&schema)
                .unwrap(),
            DataType::Int64
        );
        assert_eq!(
            AggregateCall::new(AggregateFunction::Avg, Expr::bare("n"))
                .data_type(&schema)
                .unwrap(),
            DataType::Float64
        );
        assert_eq!(
            AggregateCall::new(AggregateFunction::Min, Expr::bare("s"))
                .data_type(&schema)
                .unwrap(),
            DataType::Utf8
        );
        assert!(AggregateCall::new(AggregateFunction::Sum, Expr::bare("s"))
            .data_type(&schema)
            .is_err());
        assert!(AggregateCall::new(AggregateFunction::Avg, Expr::bare("s"))
            .data_type(&schema)
            .is_err());
        assert!(AggregateCall::new(AggregateFunction::Max, Expr::bare("b"))
            .data_type(&schema)
            .is_err());
    }

    #[test]
    fn display() {
        assert_eq!(AggregateCall::count_star().to_string(), "COUNT(*)");
        let c = AggregateCall::new(AggregateFunction::Sum, Expr::col("A", "Usage"));
        assert_eq!(c.to_string(), "SUM(A.Usage)");
        let c = AggregateCall::new(AggregateFunction::Count, Expr::col("A", "x")).with_distinct();
        assert_eq!(c.to_string(), "COUNT(DISTINCT A.x)");
    }

    #[test]
    fn aggregate_columns() {
        let c = AggregateCall::new(
            AggregateFunction::Sum,
            Expr::col("A", "x").binary(crate::expr::BinaryOp::Add, Expr::col("A", "y")),
        );
        let cols = c.columns();
        assert_eq!(cols.len(), 2);
        assert!(AggregateCall::count_star().columns().is_empty());
    }

    #[test]
    fn sum_rejects_non_numeric_value_at_runtime() {
        let c = AggregateCall::new(AggregateFunction::Sum, Expr::bare("x"));
        let mut acc = c.accumulator();
        assert!(acc.update(&Value::str("oops")).is_err());
    }

    #[test]
    fn minmax_incomparable_is_type_error() {
        let c = AggregateCall::new(AggregateFunction::Min, Expr::bare("x"));
        let mut acc = c.accumulator();
        acc.update(&Value::Int(1)).unwrap();
        assert!(acc.update(&Value::str("a")).is_err());
    }

    /// `merge` must agree with feeding the concatenated input serially,
    /// for every function, split point, and NULL placement.
    #[test]
    fn merge_equals_serial_feed() {
        let calls: Vec<AggregateCall> = vec![
            AggregateCall::count_star(),
            AggregateCall::new(AggregateFunction::Count, Expr::bare("x")),
            AggregateCall::new(AggregateFunction::Sum, Expr::bare("x")),
            AggregateCall::new(AggregateFunction::Min, Expr::bare("x")),
            AggregateCall::new(AggregateFunction::Max, Expr::bare("x")),
            AggregateCall::new(AggregateFunction::Avg, Expr::bare("x")),
            AggregateCall::new(AggregateFunction::Count, Expr::bare("x")).with_distinct(),
            AggregateCall::new(AggregateFunction::Sum, Expr::bare("x")).with_distinct(),
            AggregateCall::new(AggregateFunction::Avg, Expr::bare("x")).with_distinct(),
        ];
        let vals = [
            Value::Int(3),
            Value::Null,
            Value::Int(-1),
            Value::Int(3),
            Value::Int(7),
            Value::Null,
            Value::Int(0),
        ];
        for call in &calls {
            for split in 0..=vals.len() {
                let (a, b) = vals.split_at(split);
                let serial = feed(call, &vals);
                let mut left = call.accumulator();
                for v in a {
                    left.update(v).unwrap();
                }
                let mut right = call.accumulator();
                for v in b {
                    right.update(v).unwrap();
                }
                left.merge(&right).unwrap();
                assert_eq!(
                    left.finish(),
                    serial,
                    "{call} split at {split}: merge differs from serial"
                );
            }
        }
    }

    #[test]
    fn merge_promotes_int_and_float_sums_both_ways() {
        let c = AggregateCall::new(AggregateFunction::Sum, Expr::bare("x"));
        // int-state ⊕ float-state
        let mut a = c.accumulator();
        a.update(&Value::Int(2)).unwrap();
        let mut b = c.accumulator();
        b.update(&Value::Float(0.5)).unwrap();
        a.merge(&b).unwrap();
        assert_eq!(a.finish(), Value::Float(2.5));
        // float-state ⊕ int-state
        let mut a = c.accumulator();
        a.update(&Value::Float(0.5)).unwrap();
        let mut b = c.accumulator();
        b.update(&Value::Int(2)).unwrap();
        a.merge(&b).unwrap();
        assert_eq!(a.finish(), Value::Float(2.5));
        // empty ⊕ empty stays NULL regardless of state flavour
        let a2 = c.accumulator();
        let mut b2 = c.accumulator();
        b2.merge(&a2).unwrap();
        assert_eq!(b2.finish(), Value::Null);
    }

    #[test]
    fn merge_overflow_is_an_error() {
        let c = AggregateCall::new(AggregateFunction::Sum, Expr::bare("x"));
        let mut a = c.accumulator();
        a.update(&Value::Int(i64::MAX)).unwrap();
        let mut b = c.accumulator();
        b.update(&Value::Int(1)).unwrap();
        assert!(a.merge(&b).is_err());
    }

    #[test]
    fn merge_distinct_dedupes_across_partitions() {
        let c = AggregateCall::new(AggregateFunction::Sum, Expr::bare("x")).with_distinct();
        let mut a = c.accumulator();
        a.update(&Value::Int(5)).unwrap();
        a.update(&Value::Int(3)).unwrap();
        let mut b = c.accumulator();
        b.update(&Value::Int(5)).unwrap();
        b.update(&Value::Int(2)).unwrap();
        a.merge(&b).unwrap();
        assert_eq!(a.finish(), Value::Int(10), "5 must count once across parts");
    }

    #[test]
    fn merge_mismatched_calls_is_internal_error() {
        let sum = AggregateCall::new(AggregateFunction::Sum, Expr::bare("x"));
        let cnt = AggregateCall::new(AggregateFunction::Count, Expr::bare("x"));
        let mut a = sum.accumulator();
        assert!(a.merge(&cnt.accumulator()).is_err());
        let distinct = sum.clone().with_distinct();
        assert!(a.merge(&distinct.accumulator()).is_err());
    }
}
