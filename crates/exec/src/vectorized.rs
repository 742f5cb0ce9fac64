//! Vectorized expression kernels over [`ColumnarBatch`]es.
//!
//! The kernels evaluate a [`BoundExpr`] column-at-a-time instead of
//! row-at-a-time, producing either a truth vector (for filters) or a
//! result column (for projections and grouping keys). The row engine
//! remains the semantic oracle: every kernel is required to produce
//! *bit-identical* results to [`BoundExpr::eval_truth`] /
//! [`BoundExpr::eval`], which the differential suites assert at every
//! thread count.
//!
//! **The error-free vectorization rule.** Only expressions that can
//! never raise an execution error are vectorized: column references,
//! literals, comparisons, `AND`/`OR`/`NOT`, and `IS [NOT] NULL`
//! ([`vectorizable`] is the gate). Arithmetic (`+ - * /`, unary `-`)
//! can overflow or divide by zero, and the row engine's error — the
//! first one in row-major, depth-first, short-circuit order — is
//! impossible to reproduce when evaluation is reordered column-major.
//! Rather than approximate it, a plan with any expression outside the
//! rule runs on the row engine wholesale (see
//! [`execution_path`](crate::execution_path)), so error behavior is
//! always exactly the oracle's.
//!
//! Within the error-free domain, `AND`/`OR` are evaluated *without*
//! short-circuiting (both sides fully, combined element-wise through
//! [`Truth::and`]/[`Truth::or`]); since neither side can error, the
//! result is identical to the short-circuiting interpreter, and the
//! data-parallel loop stays branch-free. See DESIGN.md §11.

use std::borrow::Cow;

use gbj_expr::{compare_values, ordering_truth, value_to_truth, BinaryOp, BoundExpr};
use gbj_types::{internal_err, Result, Truth, Value};

use crate::batch::{Bitmap, ColumnVector, ColumnarBatch};

/// Whether `expr` is in the error-free vectorizable domain: columns,
/// literals, comparisons, logical connectives and `IS [NOT] NULL`.
/// Arithmetic is excluded — it can error, and error order must stay
/// the row engine's (see the module docs).
#[must_use]
pub fn vectorizable(expr: &BoundExpr) -> bool {
    match expr {
        BoundExpr::Column(_) | BoundExpr::Literal(_) => true,
        BoundExpr::Binary { left, op, right } => {
            !op.is_arithmetic() && vectorizable(left) && vectorizable(right)
        }
        BoundExpr::Not(e) => vectorizable(e),
        BoundExpr::Neg(_) => false,
        BoundExpr::IsNull { expr, .. } => vectorizable(expr),
    }
}

/// Evaluate `expr` as a search condition over every row of `batch`,
/// producing one [`Truth`] per row. Requires [`vectorizable`]`(expr)`;
/// a non-vectorizable node is an internal error (the executor checks
/// the gate before dispatching here).
pub fn eval_truth_vec(expr: &BoundExpr, batch: &ColumnarBatch) -> Result<Vec<Truth>> {
    match expr {
        BoundExpr::Binary {
            left,
            op: BinaryOp::And,
            right,
        } => {
            let l = eval_truth_vec(left, batch)?;
            let r = eval_truth_vec(right, batch)?;
            Ok(l.into_iter().zip(r).map(|(a, b)| a.and(b)).collect())
        }
        BoundExpr::Binary {
            left,
            op: BinaryOp::Or,
            right,
        } => {
            let l = eval_truth_vec(left, batch)?;
            let r = eval_truth_vec(right, batch)?;
            Ok(l.into_iter().zip(r).map(|(a, b)| a.or(b)).collect())
        }
        BoundExpr::Binary { left, op, right } if op.is_comparison() => {
            compare_vec(left, *op, right, batch)
        }
        BoundExpr::Not(e) => {
            let v = eval_truth_vec(e, batch)?;
            Ok(v.into_iter().map(Truth::not).collect())
        }
        other => {
            let col = eval_value_vec(other, batch)?;
            Ok((0..batch.len())
                .map(|i| value_to_truth(&col.value(i)))
                .collect())
        }
    }
}

/// Evaluate `expr` as a value over every row of `batch`, producing a
/// result column. Borrows the input column when `expr` is a bare
/// column reference. Requires [`vectorizable`]`(expr)`.
pub fn eval_value_vec<'a>(
    expr: &BoundExpr,
    batch: &'a ColumnarBatch,
) -> Result<Cow<'a, ColumnVector>> {
    match expr {
        BoundExpr::Column(i) => Ok(Cow::Borrowed(batch.column(*i)?)),
        BoundExpr::Literal(v) => Ok(Cow::Owned(ColumnVector::Mixed {
            values: vec![v.clone(); batch.len()],
        })),
        BoundExpr::Binary { op, .. } if op.is_logical() => Ok(Cow::Owned(truths_to_bool_column(
            eval_truth_vec(expr, batch)?,
        ))),
        BoundExpr::Binary { left, op, right } if op.is_comparison() => Ok(Cow::Owned(
            truths_to_bool_column(compare_vec(left, *op, right, batch)?),
        )),
        BoundExpr::Not(_) => Ok(Cow::Owned(truths_to_bool_column(eval_truth_vec(
            expr, batch,
        )?))),
        BoundExpr::IsNull { expr, negated } => {
            let col = eval_value_vec(expr, batch)?;
            let n = batch.len();
            let values = (0..n).map(|i| col.is_valid(i) == *negated).collect();
            Ok(Cow::Owned(ColumnVector::Bool {
                values,
                validity: Bitmap::new_all(n, true),
            }))
        }
        BoundExpr::Binary { .. } | BoundExpr::Neg(_) => Err(internal_err!(
            "vectorized evaluation of a non-vectorizable expression"
        )),
    }
}

/// Reify a truth vector as a `Bool` column: `unknown` → invalid (NULL),
/// mirroring `truth_to_value`.
fn truths_to_bool_column(truths: Vec<Truth>) -> ColumnVector {
    let n = truths.len();
    let mut validity = Bitmap::new_all(n, true);
    let values = truths
        .iter()
        .enumerate()
        .map(|(i, t)| match t {
            Truth::True => true,
            Truth::False => false,
            Truth::Unknown => {
                validity.set(i, false);
                false
            }
        })
        .collect();
    ColumnVector::Bool { values, validity }
}

/// One comparison operand: a column (borrowed or computed) or a scalar
/// literal (never materialized to a full column).
enum Operand<'a> {
    Col(Cow<'a, ColumnVector>),
    Lit(&'a Value),
}

fn operand<'a>(expr: &'a BoundExpr, batch: &'a ColumnarBatch) -> Result<Operand<'a>> {
    match expr {
        BoundExpr::Literal(v) => Ok(Operand::Lit(v)),
        other => Ok(Operand::Col(eval_value_vec(other, batch)?)),
    }
}

/// Element-wise three-valued comparison, bit-identical to the row
/// engine's `compare` (i.e. [`Value::sql_cmp`] lifted by
/// [`ordering_truth`]). Typed column/literal and column/column pairs
/// take allocation-free fast paths; everything else reconstructs
/// [`Value`]s per element and defers to [`compare_values`].
fn compare_vec(
    left: &BoundExpr,
    op: BinaryOp,
    right: &BoundExpr,
    batch: &ColumnarBatch,
) -> Result<Vec<Truth>> {
    let l = operand(left, batch)?;
    let r = operand(right, batch)?;
    let n = batch.len();
    Ok(match (&l, &r) {
        (Operand::Lit(a), Operand::Lit(b)) => vec![compare_values(a, op, b); n],
        (Operand::Col(c), Operand::Lit(v)) => col_lit(c, op, v, false, n),
        (Operand::Lit(v), Operand::Col(c)) => col_lit(c, op, v, true, n),
        (Operand::Col(a), Operand::Col(b)) => col_col(a, op, b, n),
    })
}

/// `op`'s truth result for each [`Ordering`], precomputed once per
/// kernel call so the per-element loop is a branch-predictable
/// three-way select instead of a nested match on the operator.
#[derive(Clone, Copy)]
struct CmpTable {
    lt: Truth,
    eq: Truth,
    gt: Truth,
}

impl CmpTable {
    fn new(op: BinaryOp) -> CmpTable {
        CmpTable {
            lt: ordering_truth(op, Some(std::cmp::Ordering::Less)),
            eq: ordering_truth(op, Some(std::cmp::Ordering::Equal)),
            gt: ordering_truth(op, Some(std::cmp::Ordering::Greater)),
        }
    }

    #[inline]
    fn pick(self, ord: std::cmp::Ordering) -> Truth {
        match ord {
            std::cmp::Ordering::Less => self.lt,
            std::cmp::Ordering::Equal => self.eq,
            std::cmp::Ordering::Greater => self.gt,
        }
    }

    #[inline]
    fn pick_opt(self, ord: Option<std::cmp::Ordering>) -> Truth {
        ord.map_or(Truth::Unknown, |o| self.pick(o))
    }
}

/// Mirror a comparison so `lit op col` becomes `col mirror(op) lit`:
/// the ordering flips, equality ops are symmetric.
fn mirror(op: BinaryOp) -> BinaryOp {
    match op {
        BinaryOp::Lt => BinaryOp::Gt,
        BinaryOp::LtEq => BinaryOp::GtEq,
        BinaryOp::Gt => BinaryOp::Lt,
        BinaryOp::GtEq => BinaryOp::LtEq,
        other => other,
    }
}

/// `Int`-column vs `Int`-scalar loop, monomorphized per comparison
/// operator so the body is a branch-free `i64` predicate that LLVM can
/// autovectorize — the hottest loop in the filter kernel.
fn int_lit_cmp<F: Fn(i64) -> bool>(values: &[i64], validity: &Bitmap, f: F) -> Vec<Truth> {
    if validity.all_valid() {
        values.iter().map(|v| Truth::from_bool(f(*v))).collect()
    } else {
        values
            .iter()
            .zip(validity.iter())
            .map(|(v, ok)| {
                if ok {
                    Truth::from_bool(f(*v))
                } else {
                    Truth::Unknown
                }
            })
            .collect()
    }
}

/// Compare a column against a scalar. `flipped` means the literal is
/// the *left* operand (`lit op col`).
fn col_lit(col: &ColumnVector, op: BinaryOp, lit: &Value, flipped: bool, n: usize) -> Vec<Truth> {
    if lit.is_null() {
        return vec![Truth::Unknown; n];
    }
    let t = CmpTable::new(op);
    match (col, lit) {
        (ColumnVector::Int { values, validity }, Value::Int(k)) => {
            // Normalize `lit op col` to `col op' lit` by mirroring the
            // operator, then dispatch to a per-op monomorphized loop.
            let (op, k) = (if flipped { mirror(op) } else { op }, *k);
            match op {
                BinaryOp::Eq => int_lit_cmp(values, validity, |v| v == k),
                BinaryOp::NotEq => int_lit_cmp(values, validity, |v| v != k),
                BinaryOp::Lt => int_lit_cmp(values, validity, |v| v < k),
                BinaryOp::LtEq => int_lit_cmp(values, validity, |v| v <= k),
                BinaryOp::Gt => int_lit_cmp(values, validity, |v| v > k),
                BinaryOp::GtEq => int_lit_cmp(values, validity, |v| v >= k),
                // Unreachable: compare_vec only dispatches comparison
                // ops here; keep the exact three-valued loop anyway.
                _ => {
                    let cmp = |v: &i64| t.pick(v.cmp(&k));
                    if validity.all_valid() {
                        values.iter().map(cmp).collect()
                    } else {
                        values
                            .iter()
                            .zip(validity.iter())
                            .map(|(v, ok)| if ok { cmp(v) } else { Truth::Unknown })
                            .collect()
                    }
                }
            }
        }
        (ColumnVector::Int { values, validity }, Value::Float(k)) => {
            let cmp = |v: &i64| {
                let x = *v as f64;
                t.pick_opt(if flipped {
                    k.partial_cmp(&x)
                } else {
                    x.partial_cmp(k)
                })
            };
            if validity.all_valid() {
                values.iter().map(cmp).collect()
            } else {
                values
                    .iter()
                    .zip(validity.iter())
                    .map(|(v, ok)| if ok { cmp(v) } else { Truth::Unknown })
                    .collect()
            }
        }
        (ColumnVector::Float { values, validity }, Value::Float(k)) => {
            let cmp = |v: &f64| {
                t.pick_opt(if flipped {
                    k.partial_cmp(v)
                } else {
                    v.partial_cmp(k)
                })
            };
            if validity.all_valid() {
                values.iter().map(cmp).collect()
            } else {
                values
                    .iter()
                    .zip(validity.iter())
                    .map(|(v, ok)| if ok { cmp(v) } else { Truth::Unknown })
                    .collect()
            }
        }
        (ColumnVector::Float { values, validity }, Value::Int(k)) => {
            let x = *k as f64;
            let cmp = move |v: &f64| {
                t.pick_opt(if flipped {
                    x.partial_cmp(v)
                } else {
                    v.partial_cmp(&x)
                })
            };
            if validity.all_valid() {
                values.iter().map(cmp).collect()
            } else {
                values
                    .iter()
                    .zip(validity.iter())
                    .map(|(v, ok)| if ok { cmp(v) } else { Truth::Unknown })
                    .collect()
            }
        }
        (ColumnVector::Str { values, validity }, Value::Str(k)) => {
            let cmp = |v: &String| {
                t.pick(if flipped {
                    k.as_str().cmp(v.as_str())
                } else {
                    v.as_str().cmp(k.as_str())
                })
            };
            if validity.all_valid() {
                values.iter().map(cmp).collect()
            } else {
                values
                    .iter()
                    .zip(validity.iter())
                    .map(|(v, ok)| if ok { cmp(v) } else { Truth::Unknown })
                    .collect()
            }
        }
        (ColumnVector::Dict { codes, dict }, Value::Str(k)) => match op {
            // (In)equality against a dictionary-encoded column never
            // touches the strings: resolve the literal to a code once
            // (absent → can't equal any valid row) and compare `u32`s.
            // `flipped` is irrelevant — equality is symmetric.
            BinaryOp::Eq | BinaryOp::NotEq => {
                let want_eq = op == BinaryOp::Eq;
                let lit_code = dict.code_of(k);
                codes
                    .iter()
                    .map(|&c| {
                        if (c as usize) < dict.len() {
                            Truth::from_bool((Some(c) == lit_code) == want_eq)
                        } else {
                            Truth::Unknown
                        }
                    })
                    .collect()
            }
            // Ordering comparisons decode per element (codes are
            // insertion-ordered, not sort-ordered).
            _ => codes
                .iter()
                .map(|&c| {
                    dict.get(c).map_or(Truth::Unknown, |v| {
                        t.pick(if flipped {
                            k.as_str().cmp(v)
                        } else {
                            v.cmp(k.as_str())
                        })
                    })
                })
                .collect(),
        },
        _ => (0..n)
            .map(|i| {
                let v = col.value(i);
                if flipped {
                    compare_values(lit, op, &v)
                } else {
                    compare_values(&v, op, lit)
                }
            })
            .collect(),
    }
}

/// Compare two columns element-wise.
fn col_col(a: &ColumnVector, op: BinaryOp, b: &ColumnVector, n: usize) -> Vec<Truth> {
    let t = CmpTable::new(op);
    match (a, b) {
        (
            ColumnVector::Int {
                values: av,
                validity: am,
            },
            ColumnVector::Int {
                values: bv,
                validity: bm,
            },
        ) => {
            if am.all_valid() && bm.all_valid() {
                av.iter().zip(bv).map(|(x, y)| t.pick(x.cmp(y))).collect()
            } else {
                av.iter()
                    .zip(bv)
                    .zip(am.iter().zip(bm.iter()))
                    .map(|((x, y), (va, vb))| {
                        if va && vb {
                            t.pick(x.cmp(y))
                        } else {
                            Truth::Unknown
                        }
                    })
                    .collect()
            }
        }
        (
            ColumnVector::Float {
                values: av,
                validity: am,
            },
            ColumnVector::Float {
                values: bv,
                validity: bm,
            },
        ) => {
            if am.all_valid() && bm.all_valid() {
                av.iter()
                    .zip(bv)
                    .map(|(x, y)| t.pick_opt(x.partial_cmp(y)))
                    .collect()
            } else {
                av.iter()
                    .zip(bv)
                    .zip(am.iter().zip(bm.iter()))
                    .map(|((x, y), (va, vb))| {
                        if va && vb {
                            t.pick_opt(x.partial_cmp(y))
                        } else {
                            Truth::Unknown
                        }
                    })
                    .collect()
            }
        }
        (
            ColumnVector::Str {
                values: av,
                validity: am,
            },
            ColumnVector::Str {
                values: bv,
                validity: bm,
            },
        ) => av
            .iter()
            .zip(bv)
            .zip(am.iter().zip(bm.iter()))
            .map(|((x, y), (va, vb))| {
                if va && vb {
                    t.pick(x.cmp(y))
                } else {
                    Truth::Unknown
                }
            })
            .collect(),
        (
            ColumnVector::Dict {
                codes: ac,
                dict: ad,
            },
            ColumnVector::Dict {
                codes: bc,
                dict: bd,
            },
        ) => {
            // Same dictionary (the common case: two references into one
            // scan) makes (in)equality a pure code comparison; anything
            // else decodes per element.
            if std::sync::Arc::ptr_eq(ad, bd) && matches!(op, BinaryOp::Eq | BinaryOp::NotEq) {
                let want_eq = op == BinaryOp::Eq;
                ac.iter()
                    .zip(bc)
                    .map(|(&x, &y)| {
                        if (x as usize) < ad.len() && (y as usize) < bd.len() {
                            Truth::from_bool((x == y) == want_eq)
                        } else {
                            Truth::Unknown
                        }
                    })
                    .collect()
            } else {
                ac.iter()
                    .zip(bc)
                    .map(|(&x, &y)| match (ad.get(x), bd.get(y)) {
                        (Some(a), Some(b)) => t.pick(a.cmp(b)),
                        _ => Truth::Unknown,
                    })
                    .collect()
            }
        }
        _ => (0..n)
            .map(|i| compare_values(&a.value(i), op, &b.value(i)))
            .collect(),
    }
}

/// Evaluate `expr` as a filter over `batch` and return the selection
/// vector: the indices of rows where the predicate is `true` (3VL —
/// `false` and `unknown` rows are dropped, exactly like the row
/// engine's filter). This is the late-materialization primitive the
/// batch-native pipeline carries between operators instead of copying
/// rows.
pub fn filter_selection(expr: &BoundExpr, batch: &ColumnarBatch) -> Result<Vec<u32>> {
    Ok(eval_truth_vec(expr, batch)?
        .iter()
        .enumerate()
        .filter(|&(_, t)| *t == Truth::True)
        .map(|(i, _)| i as u32)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbj_expr::Expr;
    use gbj_types::{DataType, Field, Schema};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("a", DataType::Int64, true),
            Field::new("b", DataType::Int64, true),
            Field::new("s", DataType::Utf8, true),
            Field::new("f", DataType::Float64, true),
        ])
    }

    fn bind(e: Expr) -> BoundExpr {
        e.bind(&schema()).unwrap()
    }

    fn rows() -> Vec<Vec<Value>> {
        vec![
            vec![
                Value::Int(1),
                Value::Int(10),
                Value::str("x"),
                Value::Float(0.5),
            ],
            vec![
                Value::Null,
                Value::Int(2),
                Value::str("y"),
                Value::Float(f64::NAN),
            ],
            vec![Value::Int(3), Value::Null, Value::Null, Value::Float(-0.0)],
            vec![Value::Int(-4), Value::Int(-4), Value::str(""), Value::Null],
        ]
    }

    fn batch() -> ColumnarBatch {
        ColumnarBatch::from_rows(&rows(), 4).unwrap()
    }

    /// The oracle check: the kernel must agree with the row engine on
    /// every row.
    fn assert_matches_row_engine(e: &BoundExpr) {
        let b = batch();
        let vec_truths = eval_truth_vec(e, &b).unwrap();
        for (i, row) in rows().iter().enumerate() {
            assert_eq!(
                vec_truths.get(i).copied().unwrap(),
                e.eval_truth(row).unwrap(),
                "row {i} disagrees for {e:?}"
            );
        }
        let vec_vals = eval_value_vec(e, &b).unwrap();
        for (i, row) in rows().iter().enumerate() {
            assert_eq!(vec_vals.value(i), e.eval(row).unwrap(), "row {i} value");
        }
    }

    #[test]
    fn vectorizable_gate() {
        assert!(vectorizable(&bind(
            Expr::bare("a").eq(Expr::lit(Value::Int(1)))
        )));
        assert!(vectorizable(&bind(
            Expr::bare("a")
                .eq(Expr::bare("b"))
                .and(Expr::bare("s").eq(Expr::lit(Value::str("x")))),
        )));
        assert!(vectorizable(&bind(Expr::IsNull {
            expr: Box::new(Expr::bare("a")),
            negated: true,
        })));
        // Arithmetic can error: excluded.
        assert!(!vectorizable(&bind(
            Expr::bare("a")
                .binary(BinaryOp::Add, Expr::bare("b"))
                .eq(Expr::lit(Value::Int(3))),
        )));
        assert!(!vectorizable(&bind(Expr::Neg(Box::new(Expr::bare("a"))))));
    }

    #[test]
    fn comparisons_match_row_engine() {
        for op in [
            BinaryOp::Eq,
            BinaryOp::NotEq,
            BinaryOp::Lt,
            BinaryOp::LtEq,
            BinaryOp::Gt,
            BinaryOp::GtEq,
        ] {
            // col vs literal, literal vs col, col vs col; Int, Str,
            // Float (with NaN), and cross-numeric Int/Float.
            assert_matches_row_engine(&bind(Expr::bare("a").binary(op, Expr::lit(Value::Int(1)))));
            assert_matches_row_engine(&bind(Expr::lit(Value::Int(1)).binary(op, Expr::bare("a"))));
            assert_matches_row_engine(&bind(Expr::bare("a").binary(op, Expr::bare("b"))));
            assert_matches_row_engine(&bind(
                Expr::bare("s").binary(op, Expr::lit(Value::str("x"))),
            ));
            assert_matches_row_engine(&bind(
                Expr::bare("f").binary(op, Expr::lit(Value::Float(0.5))),
            ));
            assert_matches_row_engine(&bind(Expr::bare("a").binary(op, Expr::bare("f"))));
            assert_matches_row_engine(&bind(Expr::bare("f").binary(op, Expr::lit(Value::Int(0)))));
            assert_matches_row_engine(&bind(Expr::bare("a").binary(op, Expr::lit(Value::Null))));
        }
    }

    #[test]
    fn logical_connectives_match_row_engine() {
        let lt = Expr::bare("a").binary(BinaryOp::Lt, Expr::lit(Value::Int(2)));
        let gt = Expr::bare("b").binary(BinaryOp::Gt, Expr::lit(Value::Int(0)));
        assert_matches_row_engine(&bind(lt.clone().and(gt.clone())));
        assert_matches_row_engine(&bind(lt.clone().or(gt.clone())));
        assert_matches_row_engine(&bind(Expr::Not(Box::new(lt.and(gt)))));
    }

    #[test]
    fn is_null_matches_row_engine() {
        for negated in [false, true] {
            assert_matches_row_engine(&bind(Expr::IsNull {
                expr: Box::new(Expr::bare("a")),
                negated,
            }));
        }
    }

    #[test]
    fn bare_columns_and_literals_match_row_engine() {
        assert_matches_row_engine(&bind(Expr::bare("a")));
        assert_matches_row_engine(&bind(Expr::lit(Value::Bool(true))));
        assert_matches_row_engine(&bind(Expr::lit(Value::Null)));
    }

    #[test]
    fn dict_kernels_match_decoded_strings() {
        use crate::batch::{StringDict, NULL_CODE};
        use std::sync::Arc;

        let dict = {
            let mut b = StringDict::default();
            b.intern("x").unwrap();
            b.intern("y").unwrap();
            b.intern("").unwrap();
            Arc::new(b)
        };
        let a = ColumnVector::Dict {
            codes: vec![0, 1, NULL_CODE, 2],
            dict: Arc::clone(&dict),
        };
        let b = ColumnVector::Dict {
            codes: vec![1, 1, 0, NULL_CODE],
            dict: Arc::clone(&dict),
        };
        for op in [
            BinaryOp::Eq,
            BinaryOp::NotEq,
            BinaryOp::Lt,
            BinaryOp::LtEq,
            BinaryOp::Gt,
            BinaryOp::GtEq,
        ] {
            for lit in [Value::str("x"), Value::str("zz"), Value::Null] {
                for flipped in [false, true] {
                    let got = col_lit(&a, op, &lit, flipped, 4);
                    let want: Vec<Truth> = (0..4)
                        .map(|i| {
                            let v = a.value(i);
                            if flipped {
                                compare_values(&lit, op, &v)
                            } else {
                                compare_values(&v, op, &lit)
                            }
                        })
                        .collect();
                    assert_eq!(got, want, "{op:?} lit={lit:?} flipped={flipped}");
                }
            }
            let got = col_col(&a, op, &b, 4);
            let want: Vec<Truth> = (0..4)
                .map(|i| compare_values(&a.value(i), op, &b.value(i)))
                .collect();
            assert_eq!(got, want, "{op:?} col-col");
        }
    }

    #[test]
    fn filter_selection_keeps_only_true_rows() {
        // a < 2: row 0 true, row 1 NULL (unknown), row 2 false, row 3 true.
        let e = bind(Expr::bare("a").binary(BinaryOp::Lt, Expr::lit(Value::Int(2))));
        let sel = filter_selection(&e, &batch()).unwrap();
        assert_eq!(sel, vec![0, 3]);
    }
}
