//! Mask kernels: two-valued predicates over [`ColumnarBatch`]es.
//!
//! The chunk pipeline never evaluates a three-valued condition. Where
//! it binds a predicate it lowers it once ([`lower_predicate`]:
//! [`BoundExpr::lower_floor`], the paper's `⌊P⌋`) into a [`Lowered`]
//! tree over cells and validity bits, and the kernels here evaluate
//! that tree a chunk at a time as word-packed bitmaps: a leaf writes 64
//! results per `u64` from the typed slice, validity is ANDed in
//! word-wise, `∧ ∨ ¬` are word operations, and the mask becomes a
//! selection vector by `trailing_zeros` ([`select`]). A Boolean
//! expression used as a *value* is two lowerings of one tree
//! ([`Operand::Cond`]): `values = ⌊P⌋`, `validity = ⌊P⌋ ∨ ¬⌈P⌉`
//! ([`eval_value`]). The row engine remains the semantic oracle: every
//! kernel must agree with [`BoundExpr::eval_truth`] /
//! [`BoundExpr::eval`] on every row, which the unit suite below and the
//! differential suites assert at every shard and thread count.
//!
//! **The error-free vectorization rule.** Only expressions that can
//! never raise an execution error are vectorized: column references,
//! literals, comparisons, `AND`/`OR`/`NOT`, and `IS [NOT] NULL` —
//! exactly the domain the lowering is defined on, so the gate asks the
//! lowering ([`BoundExpr::lower_value`] is `Some`). Arithmetic (`+ - * /`, unary `-`) can overflow or
//! divide by zero, and the row engine's error — the first one in
//! row-major, depth-first, short-circuit order — is impossible to
//! reproduce when evaluation is reordered column-major. Rather than
//! approximate it, a plan with any expression outside the rule runs on
//! the row engine wholesale (see
//! [`execution_path`](crate::execution_path)), so error behavior is
//! always exactly the oracle's. Within the domain nothing
//! short-circuits: both sides of `AND`/`OR` are evaluated in full,
//! which no row can observe.
//!
//! **Leaves.** A comparison leaf is `def(a, b) ∧ a op₂ b`, `def` being
//! "both valid and comparable": the operator is applied to
//! `partial_cmp`'s answer, so a `Float` meeting NaN fails all six
//! operators exactly as a NULL does, and the ceiling `¬def ∨ a op₂ b`
//! is the negation of the complementary leaf (see [`gbj_expr::lower`]).
//! `Int`/`Float` vectors against a literal or each other, `Str`, and
//! dictionary codes for `=` / `<>` run typed; anything else — `Bool`,
//! cross-type pairs — goes cell by cell through [`compare_values`] and
//! keeps its `⌊·⌋`.
//!
//! **Rows and bits.** A kernel evaluates either every row of the batch
//! (bit `i` is row `i`) or, given an incoming selection, only the
//! listed rows in the listed order (bit `k` is row `sel[k]`) — a filter
//! over a filtered or dealt chunk reads the live cells in place and
//! copies nothing. Bits past the row count are zero in every mask
//! ([`Bitmap`]'s invariant), so `¬` cannot invent rows, and a mask
//! lists its rows in ascending bit order: batch order, or the incoming
//! selection's. See DESIGN.md §11.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::sync::Arc;

use gbj_expr::{compare_values, BinaryOp, BoundExpr, Lowered, Operand};
use gbj_types::{internal_err, Result, Value};

use crate::batch::{Bitmap, ColumnVector, ColumnarBatch, StringDict};

fn outside_the_gate() -> gbj_types::Error {
    internal_err!("vectorized evaluation of a non-vectorizable expression")
}

/// `⌊predicate⌋`, lowered where the pipeline binds a filter or a join
/// residual. A predicate that does not lower is an internal error (the
/// gate runs before the pipeline does).
pub(crate) fn lower_predicate(predicate: &BoundExpr) -> Result<Lowered> {
    predicate.lower_floor().ok_or_else(outside_the_gate)
}

/// `expr` as a value the kernels can produce: a column passed on, a
/// literal, or the two lowerings of a Boolean expression. An expression
/// that does not lower is an internal error.
pub(crate) fn lower_value(expr: &BoundExpr) -> Result<Operand> {
    expr.lower_value().ok_or_else(outside_the_gate)
}

/// The rows a kernel evaluates, and so what a mask's bits stand for.
#[derive(Clone, Copy)]
enum Rows<'a> {
    /// Every row of the batch: bit `i` is row `i`.
    All(usize),
    /// The listed rows, in that order: bit `k` is row `sel[k]`.
    Sel(&'a [u32]),
}

/// Up to 64 answers as one word, the first in bit 0.
#[inline]
fn word(bits: impl Iterator<Item = bool>) -> u64 {
    bits.enumerate()
        .fold(0, |word, (bit, set)| word | (u64::from(set) << bit))
}

impl Rows<'_> {
    fn len(self) -> usize {
        match self {
            Rows::All(n) => n,
            Rows::Sel(sel) => sel.len(),
        }
    }

    /// One bit per row from a test on its row id: the cell-by-cell
    /// form every leaf falls back to.
    fn mask(self, test: impl Fn(usize) -> bool) -> Bitmap {
        let words = match self {
            Rows::All(n) => (0..n)
                .step_by(64)
                .map(|at| word((at..n.min(at + 64)).map(&test)))
                .collect(),
            Rows::Sel(sel) => sel
                .chunks(64)
                .map(|ids| word(ids.iter().map(|&i| test(i as usize))))
                .collect(),
        };
        Bitmap::from_words(words, self.len())
    }

    /// `valid(cell) ∧ test(cell)` over one typed vector (`validity:
    /// None` when the vector marks NULL some other way): the pair leaf
    /// reading its left side only — zipped 64-cell chunks compile to
    /// the same loop either way.
    fn cells<T>(
        self,
        values: &[T],
        validity: Option<&Bitmap>,
        test: impl Fn(&T) -> bool,
    ) -> Bitmap {
        self.pairs((values, validity), (values, None), |cell, _| test(cell))
    }

    /// `valid(a) ∧ valid(b) ∧ test(a, b)` over two typed vectors.
    fn pairs<A, B>(
        self,
        (a, a_valid): (&[A], Option<&Bitmap>),
        (b, b_valid): (&[B], Option<&Bitmap>),
        test: impl Fn(&A, &B) -> bool,
    ) -> Bitmap {
        let a_valid = a_valid.filter(|v| !v.all_valid());
        let b_valid = b_valid.filter(|v| !v.all_valid());
        match self {
            Rows::All(n) => {
                let words = a.chunks(64).zip(b.chunks(64)).map(|(a, b)| {
                    let cells = a.iter().zip(b);
                    word(cells.map(|(a, b)| test(a, b)))
                });
                let mut mask = Bitmap::from_words(words.collect(), n);
                for validity in [a_valid, b_valid].into_iter().flatten() {
                    mask.and_with(validity);
                }
                mask
            }
            Rows::Sel(_) => self.mask(|i| {
                a_valid.is_none_or(|v| v.get(i))
                    && b_valid.is_none_or(|v| v.get(i))
                    && a.get(i).zip(b.get(i)).is_some_and(|(a, b)| test(a, b))
            }),
        }
    }

    /// `valid(c)` for every row.
    fn valid(self, col: &ColumnVector) -> Bitmap {
        match (col.validity(), self) {
            (Some(validity), Rows::All(n)) if validity.len() == n => validity.clone(),
            (Some(validity), Rows::Sel(sel)) => validity.gather(sel),
            _ => self.mask(|i| col.is_valid(i)),
        }
    }
}

/// A comparison operand, resolved against the batch.
enum Arg<'a> {
    Col(Cow<'a, ColumnVector>),
    Lit(&'a Value),
}

/// The cells of a vector the comparison leaf reads typed.
enum Cells<'a> {
    Int(&'a [i64]),
    Float(&'a [f64]),
    Str(&'a [String]),
    Dict(&'a [u32], &'a Arc<StringDict>),
}

impl<'a> Arg<'a> {
    /// A computed operand is evaluated for the whole batch, so either
    /// kind is read by row id.
    fn of(operand: &'a Operand, batch: &'a ColumnarBatch) -> Result<Arg<'a>> {
        match operand {
            Operand::Literal(v) => Ok(Arg::Lit(v)),
            other => eval_value(other, batch).map(Arg::Col),
        }
    }

    fn value(&self, i: usize) -> Value {
        match self {
            Arg::Col(col) => col.value(i),
            Arg::Lit(v) => (*v).clone(),
        }
    }

    /// A column's typed cells and validity bitmap, if it has them.
    fn cells(&self) -> Option<(Cells<'_>, Option<&Bitmap>)> {
        let Arg::Col(col) = self else {
            return None;
        };
        let cells = match col.as_ref() {
            ColumnVector::Int { values, .. } => Cells::Int(values),
            ColumnVector::Float { values, .. } => Cells::Float(values),
            ColumnVector::Str { values, .. } => Cells::Str(values),
            ColumnVector::Dict { codes, dict } => Cells::Dict(codes, dict),
            ColumnVector::Bool { .. } => return None,
        };
        Some((cells, col.validity()))
    }
}

/// The comparison leaf `def(l, r) ∧ l op₂ r`: typed where both sides
/// are, cell by cell through [`compare_values`] otherwise.
fn compare(
    l: &Arg<'_>,
    op: BinaryOp,
    r: &Arg<'_>,
    rows: Rows<'_>,
    test: impl Fn(Option<Ordering>) -> bool + Copy,
) -> Bitmap {
    use Cells::{Dict, Float, Int, Str};
    let coded = |code: &u32, dict: &StringDict| (*code as usize) < dict.len();
    // On codes an (in)equality only asks whether two valid codes match.
    let on_codes = matches!(op, BinaryOp::Eq | BinaryOp::NotEq);
    let (same, differ) = (test(Some(Ordering::Equal)), test(Some(Ordering::Less)));
    match (l.cells(), r, r.cells()) {
        (Some((Int(a), ok)), Arg::Lit(Value::Int(k)), _) => {
            rows.cells(a, ok, |a| test(Some(a.cmp(k))))
        }
        (Some((Int(a), ok)), Arg::Lit(Value::Float(k)), _) => {
            rows.cells(a, ok, |a| test((*a as f64).partial_cmp(k)))
        }
        (Some((Float(a), ok)), Arg::Lit(Value::Float(k)), _) => {
            rows.cells(a, ok, |a| test(a.partial_cmp(k)))
        }
        (Some((Float(a), ok)), Arg::Lit(Value::Int(k)), _) => {
            rows.cells(a, ok, |a| test(a.partial_cmp(&(*k as f64))))
        }
        (Some((Str(a), ok)), Arg::Lit(Value::Str(k)), _) => {
            rows.cells(a, ok, |a| test(Some(a.as_str().cmp(k))))
        }
        // The literal resolves to a code once (absent: it equals no
        // row); an ordering decodes, codes being insertion-ordered.
        (Some((Dict(a, dict), _)), Arg::Lit(Value::Str(k)), _) if on_codes => {
            let code = dict.code_of(k);
            let hit = |a: &u32| if Some(*a) == code { same } else { differ };
            rows.cells(a, None, |a| coded(a, dict) && hit(a))
        }
        (Some((Dict(a, dict), _)), Arg::Lit(Value::Str(k)), _) => rows.cells(a, None, |a| {
            dict.get(*a).is_some_and(|a| test(Some(a.cmp(k.as_str()))))
        }),
        (Some((Int(a), a_ok)), _, Some((Int(b), b_ok))) => {
            rows.pairs((a, a_ok), (b, b_ok), |a, b| test(Some(a.cmp(b))))
        }
        (Some((Float(a), a_ok)), _, Some((Float(b), b_ok))) => {
            rows.pairs((a, a_ok), (b, b_ok), |a, b| test(a.partial_cmp(b)))
        }
        (Some((Str(a), a_ok)), _, Some((Str(b), b_ok))) => {
            rows.pairs((a, a_ok), (b, b_ok), |a, b| test(Some(a.cmp(b))))
        }
        // One dictionary (two references into one scan) compares
        // codes; two decode.
        (Some((Dict(a, dict), _)), _, Some((Dict(b, other), _)))
            if on_codes && Arc::ptr_eq(dict, other) =>
        {
            let hit = |a: &u32, b: &u32| if a == b { same } else { differ };
            rows.pairs((a, None), (b, None), |a, b| {
                coded(a, dict) && coded(b, dict) && hit(a, b)
            })
        }
        (Some((Dict(a, a_dict), _)), _, Some((Dict(b, b_dict), _))) => {
            rows.pairs((a, None), (b, None), |a, b| {
                let decoded = a_dict.get(*a).zip(b_dict.get(*b));
                decoded.is_some_and(|(a, b)| test(Some(a.cmp(b))))
            })
        }
        _ => rows.mask(|i| compare_values(&l.value(i), op, &r.value(i)).floor()),
    }
}

/// Evaluate a lowered condition over `rows` of `batch`, one bit a row.
fn eval_mask(pred: &Lowered, batch: &ColumnarBatch, rows: Rows<'_>) -> Result<Bitmap> {
    Ok(match pred {
        Lowered::Const(answer) => Bitmap::new_all(rows.len(), *answer),
        Lowered::Cmp { left, op, right } => {
            let (l, r) = (Arg::of(left, batch)?, Arg::of(right, batch)?);
            // One instance of the leaf per operator, each compiled
            // around a branch-free test of the ordering; `None` (a NaN,
            // a cross-type pair) fails all six.
            use Ordering::{Equal, Greater, Less};
            match op {
                BinaryOp::Eq => compare(&l, *op, &r, rows, |o| o == Some(Equal)),
                BinaryOp::NotEq => {
                    compare(&l, *op, &r, rows, |o| matches!(o, Some(Less | Greater)))
                }
                BinaryOp::Lt => compare(&l, *op, &r, rows, |o| o == Some(Less)),
                BinaryOp::LtEq => compare(&l, *op, &r, rows, |o| matches!(o, Some(Less | Equal))),
                BinaryOp::Gt => compare(&l, *op, &r, rows, |o| o == Some(Greater)),
                BinaryOp::GtEq => {
                    compare(&l, *op, &r, rows, |o| matches!(o, Some(Greater | Equal)))
                }
                other => return Err(internal_err!("{other} is not a comparison")),
            }
        }
        Lowered::Valid(c) => rows.valid(batch.column(*c)?),
        Lowered::Bool { column, want } => match batch.column(*column)? {
            ColumnVector::Bool { values, validity } => {
                rows.cells(values, Some(validity), |cell| cell == want)
            }
            // `value_to_truth`: a non-NULL cell that is not `TRUE` is
            // `false`.
            other => rows.mask(|i| match other.value(i) {
                Value::Null => false,
                cell => matches!(cell, Value::Bool(true)) == *want,
            }),
        },
        Lowered::And(l, r) => {
            let mut mask = eval_mask(l, batch, rows)?;
            mask.and_with(&eval_mask(r, batch, rows)?);
            mask
        }
        Lowered::Or(l, r) => {
            let mut mask = eval_mask(l, batch, rows)?;
            mask.or_with(&eval_mask(r, batch, rows)?);
            mask
        }
        Lowered::Not(inner) => {
            let mut mask = eval_mask(inner, batch, rows)?;
            mask.negate();
            mask
        }
    })
}

/// The selection vector of a lowered predicate: the rows of `batch`
/// where it holds, in ascending order — or, given an incoming
/// selection, those of `sel`, read in place and kept in `sel`'s order.
/// This is the late-materialization primitive the pipeline carries
/// between operators instead of copying rows.
pub fn select(pred: &Lowered, batch: &ColumnarBatch, sel: Option<&[u32]>) -> Result<Vec<u32>> {
    let rows = sel.map_or(Rows::All(batch.len()), Rows::Sel);
    let mask = eval_mask(pred, batch, rows)?;
    let mut kept = Vec::with_capacity(mask.count_valid());
    match sel {
        None => kept.extend(mask.ones().map(|i| i as u32)),
        Some(sel) => kept.extend(mask.ones().filter_map(|k| sel.get(k).copied())),
    }
    Ok(kept)
}

/// Evaluate a lowered value over every row of `batch`, producing a
/// result column: the input column itself for a column reference, a
/// typed constant vector for a literal, a `Bool` vector with
/// `values = ⌊P⌋` and `validity = ⌊P⌋ ∨ ¬⌈P⌉` for a Boolean expression
/// (`unknown` → NULL, as `truth_to_value` has it).
pub fn eval_value<'a>(value: &Operand, batch: &'a ColumnarBatch) -> Result<Cow<'a, ColumnVector>> {
    let rows = Rows::All(batch.len());
    Ok(match value {
        Operand::Column(i) => Cow::Borrowed(batch.column(*i)?),
        // A constant vector of the literal's own type (the all-NULL
        // placeholder for a NULL literal).
        Operand::Literal(v) => Cow::Owned(ColumnVector::from_values(std::iter::repeat_n(
            v,
            batch.len(),
        ))?),
        Operand::Cond { floor, ceil } => {
            let holds = eval_mask(floor, batch, rows)?;
            let mut validity = eval_mask(ceil, batch, rows)?;
            validity.negate();
            validity.or_with(&holds);
            Cow::Owned(ColumnVector::Bool {
                values: holds.iter().collect(),
                validity,
            })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbj_expr::Expr;
    use gbj_types::{DataType, Field, Schema, Truth};

    const OPS: [BinaryOp; 6] = [
        BinaryOp::Eq,
        BinaryOp::NotEq,
        BinaryOp::Lt,
        BinaryOp::LtEq,
        BinaryOp::Gt,
        BinaryOp::GtEq,
    ];

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

    /// The oracle check over `rows` as one batch: `⌊e⌋` selects the
    /// rows where `eval_truth` is `true` and `⌈e⌉` those where it is
    /// not `false` — every row, and under each incoming selection in
    /// that selection's order — and `e` as a value equals `eval`.
    fn assert_matches_row_engine_on(e: &BoundExpr, rows: &[Vec<Value>], batch: &ColumnarBatch) {
        let truths: Vec<_> = rows.iter().map(|r| e.eval_truth(r).unwrap()).collect();
        let n = rows.len() as u32;
        let selections: [Option<Vec<u32>>; 4] = [
            None,
            Some((0..n).rev().collect()),
            Some((0..n).filter(|i| i % 4 == 1).collect()),
            Some(Vec::new()),
        ];
        type Reading = fn(Truth) -> bool;
        let readings: [(Option<Lowered>, Reading); 2] = [
            (e.lower_floor(), Truth::floor),
            (e.lower_ceil(), Truth::ceil),
        ];
        for (lowered, reading) in readings {
            let lowered = lowered.unwrap();
            for sel in &selections {
                let all: Vec<u32> = (0..n).collect();
                let want: Vec<u32> = sel
                    .as_ref()
                    .unwrap_or(&all)
                    .iter()
                    .copied()
                    .filter(|&i| reading(truths[i as usize]))
                    .collect();
                let got = select(&lowered, batch, sel.as_deref()).unwrap();
                assert_eq!(got, want, "{e:?} as {lowered:?} under {sel:?}");
            }
        }
        let values = eval_value(&lower_value(e).unwrap(), batch).unwrap();
        assert_eq!(values.len(), rows.len());
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(values.value(i), e.eval(row).unwrap(), "row {i} of {e:?}");
        }
    }

    fn assert_matches_row_engine(e: &BoundExpr) {
        let batch = ColumnarBatch::from_rows(&rows(), 4).unwrap();
        assert_matches_row_engine_on(e, &rows(), &batch);
    }

    #[test]
    fn comparisons_match_row_engine() {
        for op in OPS {
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
            assert_matches_row_engine(&bind(
                Expr::lit(Value::Float(f64::NAN)).binary(op, Expr::bare("f")),
            ));
            assert_matches_row_engine(&bind(Expr::bare("a").binary(op, Expr::bare("f"))));
            assert_matches_row_engine(&bind(Expr::bare("f").binary(op, Expr::bare("f"))));
            assert_matches_row_engine(&bind(Expr::bare("s").binary(op, Expr::bare("s"))));
            assert_matches_row_engine(&bind(Expr::bare("a").binary(op, Expr::lit(0.5f64))));
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
        assert_matches_row_engine(&bind(Expr::Not(Box::new(lt.clone().and(gt.clone())))));
        // A condition as a comparison operand, and under IS NULL.
        assert_matches_row_engine(&bind(lt.clone().eq(gt.clone())));
        assert_matches_row_engine(&bind(lt.clone().binary(BinaryOp::Lt, Expr::lit(true))));
        assert_matches_row_engine(&bind(Expr::IsNull {
            expr: Box::new(lt.or(gt)),
            negated: false,
        }));
    }

    #[test]
    fn is_null_matches_row_engine() {
        for negated in [false, true] {
            for column in ["a", "s", "f"] {
                assert_matches_row_engine(&bind(Expr::IsNull {
                    expr: Box::new(Expr::bare(column)),
                    negated,
                }));
            }
        }
    }

    #[test]
    fn bare_columns_and_literals_match_row_engine() {
        assert_matches_row_engine(&bind(Expr::bare("a")));
        assert_matches_row_engine(&bind(Expr::lit(Value::Bool(true))));
        assert_matches_row_engine(&bind(Expr::lit(Value::Null)));
        // A literal as a value is a constant vector of its own type.
        let batch = ColumnarBatch::from_rows(&rows(), 4).unwrap();
        for lit in [Value::Int(7), Value::Float(-0.0), Value::str("s")] {
            let e = bind(Expr::lit(lit.clone()));
            assert_matches_row_engine(&e);
            let column = eval_value(&lower_value(&e).unwrap(), &batch).unwrap();
            let typed = ColumnVector::from_values(vec![lit; 4].iter()).unwrap();
            assert_eq!(column.as_ref(), &typed);
        }
        // A Boolean column, an integer one and an all-NULL one, each as
        // a bare predicate and under `= TRUE`.
        let rows: Vec<Vec<Value>> = [
            [Value::Bool(true), Value::Int(1), Value::Null],
            [Value::Null, Value::Int(0), Value::Null],
            [Value::Bool(false), Value::Int(-3), Value::Null],
            [Value::Bool(true), Value::Null, Value::Null],
        ]
        .map(Vec::from)
        .into();
        let batch = ColumnarBatch::from_rows(&rows, 3).unwrap();
        for column in 0..3 {
            let bare = BoundExpr::Column(column);
            assert_matches_row_engine_on(&bare, &rows, &batch);
            let is_true = BoundExpr::Binary {
                left: Box::new(bare),
                op: BinaryOp::Eq,
                right: Box::new(BoundExpr::Literal(Value::Bool(true))),
            };
            assert_matches_row_engine_on(&is_true, &rows, &batch);
        }
    }

    /// Dictionary columns — NULL codes, a literal the dictionary lacks,
    /// an entry no row uses, one dictionary on both sides and two —
    /// against the same strings decoded.
    #[test]
    fn dict_kernels_match_decoded_strings() {
        use crate::batch::{StringDict, NULL_CODE};

        let dict = {
            let mut b = StringDict::default();
            b.intern("x").unwrap();
            b.intern("y").unwrap();
            b.intern("").unwrap();
            b.intern("unused").unwrap();
            Arc::new(b)
        };
        let other = {
            let mut b = StringDict::default();
            b.intern("y").unwrap();
            b.intern("x").unwrap();
            Arc::new(b)
        };
        let columns = vec![
            ColumnVector::Dict {
                codes: vec![0, 1, NULL_CODE, 2],
                dict: Arc::clone(&dict),
            },
            ColumnVector::Dict {
                codes: vec![1, 1, 0, NULL_CODE],
                dict: Arc::clone(&dict),
            },
            ColumnVector::Dict {
                codes: vec![1, 0, 0, NULL_CODE],
                dict: other,
            },
        ];
        let batch = ColumnarBatch::from_columns(columns, 4).unwrap();
        let rows = batch.to_rows();
        let compare = |left: BoundExpr, op, right: BoundExpr| BoundExpr::Binary {
            left: Box::new(left),
            op,
            right: Box::new(right),
        };
        for op in OPS {
            for lit in [Value::str("x"), Value::str("zz"), Value::Null] {
                let (col, lit) = (BoundExpr::Column(0), BoundExpr::Literal(lit));
                assert_matches_row_engine_on(&compare(col.clone(), op, lit.clone()), &rows, &batch);
                assert_matches_row_engine_on(&compare(lit, op, col), &rows, &batch);
            }
            for right in [1, 2] {
                let e = compare(BoundExpr::Column(0), op, BoundExpr::Column(right));
                assert_matches_row_engine_on(&e, &rows, &batch);
            }
        }
    }

    /// Where words end: batches one short of, at, and one past a word
    /// and a block, NULLs at the seams, predicates that keep nothing,
    /// everything and every other row.
    #[test]
    fn masks_agree_with_the_row_engine_at_every_word_boundary() {
        let lt = |k: i64| bind(Expr::bare("a").binary(BinaryOp::Lt, Expr::lit(Value::Int(k))));
        let both = bind(
            Expr::bare("a")
                .binary(BinaryOp::GtEq, Expr::lit(Value::Int(0)))
                .and(Expr::Not(Box::new(Expr::bare("f").eq(Expr::bare("f"))))),
        );
        for n in [0usize, 1, 63, 64, 65, 127, 128, 129, 1023, 1024, 1025] {
            let rows: Vec<Vec<Value>> = (0..n as i64)
                .map(|i| {
                    let a = if i % 64 == 63 || i % 64 == 0 && i % 3 == 0 {
                        Value::Null
                    } else {
                        Value::Int(i % 2)
                    };
                    let f = if i % 5 == 0 { f64::NAN } else { i as f64 };
                    vec![a, Value::Int(i), Value::Null, Value::Float(f)]
                })
                .collect();
            let batch = ColumnarBatch::from_rows(&rows, 4).unwrap();
            for e in [lt(-1), lt(2), lt(1), both.clone()] {
                assert_matches_row_engine_on(&e, &rows, &batch);
            }
        }
    }

    #[test]
    fn select_keeps_only_true_rows() {
        // a < 2: row 0 true, row 1 NULL (unknown), row 2 false, row 3 true.
        let e = bind(Expr::bare("a").binary(BinaryOp::Lt, Expr::lit(Value::Int(2))));
        let batch = ColumnarBatch::from_rows(&rows(), 4).unwrap();
        let keep = lower_predicate(&e).unwrap();
        assert_eq!(select(&keep, &batch, None).unwrap(), vec![0, 3]);
        // An incoming selection is read in place and keeps its order.
        assert_eq!(
            select(&keep, &batch, Some(&[3, 2, 1, 0])).unwrap(),
            vec![3, 0]
        );
    }
}
