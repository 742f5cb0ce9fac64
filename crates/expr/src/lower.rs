//! Two-valued lowering of search conditions: the paper's interpretation
//! operators `⌊P⌋` / `⌈P⌉` (Figure 3) applied once, to the tree.
//!
//! A three-valued condition is only ever *used* through one of the two
//! operators — every WHERE / ON / HAVING through `⌊P⌋` (`unknown` reads
//! `false`), every CHECK through `⌈P⌉` (`unknown` reads `true`) — and
//! both are plain Boolean conditions over values and null flags (Libkin,
//! "Handling SQL Nulls with Two-Valued Logic"). [`BoundExpr::lower_floor`]
//! and [`BoundExpr::lower_ceil`] compute them as a [`Lowered`] tree, so
//! whatever evaluates the predicate afterwards needs no third truth
//! value: NULL is a validity bit beside the value, not a value.
//!
//! | `P`                   | `⌊P⌋`                          | `⌈P⌉`                          |
//! |-----------------------|--------------------------------|--------------------------------|
//! | `a op b`              | `def(a,b) ∧ a op₂ b`           | `¬def(a,b) ∨ a op₂ b`          |
//! | `P ∧ Q` / `P ∨ Q`     | `⌊P⌋ ∧ ⌊Q⌋` / `⌊P⌋ ∨ ⌊Q⌋`      | `⌈P⌉ ∧ ⌈Q⌉` / `⌈P⌉ ∨ ⌈Q⌉`      |
//! | `¬P`                  | `¬⌈P⌉`                         | `¬⌊P⌋`                         |
//! | `e IS NULL`           | `¬valid(e)`                    | `¬valid(e)`                    |
//! | bare column `c`       | `valid(c) ∧ c`                 | `¬valid(c) ∨ c`                |
//! | literal               | constant                       | constant                       |
//!
//! `def(a,b)` is "both valid **and comparable**": a `Float` comparison
//! meeting NaN, or a cross-type pair, is `unknown` with both sides
//! non-NULL ([`Value::sql_cmp`] answers `None`), so comparability sits
//! in the mask with validity. Among comparable pairs exactly one of
//! `op` and its complement holds, hence `¬def ∨ a op₂ b = ¬(def ∧ a
//! ¬op₂ b)`: the ceiling of a comparison is the negated floor of the
//! complementary one, and [`Lowered::Cmp`] is the only comparison leaf.
//! A bare column is read as [`value_to_truth`] reads it (a non-NULL
//! value other than `TRUE` is `false`), a Boolean expression used as a
//! *value* (`(a < b) = c`, `(a < b) IS NULL`) is the pair of its two
//! lowerings ([`Operand::Cond`]): `TRUE` where `⌊P⌋`, NULL where
//! `¬⌊P⌋ ∧ ⌈P⌉`.
//!
//! The lowering is defined on the error-free domain only — columns,
//! literals, comparisons, `AND` / `OR` / `NOT`, `IS [NOT] NULL`.
//! Arithmetic can raise, and which operand of a short-circuiting
//! connective raises depends on the third truth value the lowering
//! removes (`unknown AND <error>` raises, `false AND <error>` does not,
//! and `⌊·⌋` cannot tell them apart), so such a tree lowers to `None`.
//! That domain is the pipeline's: its gate admits exactly the
//! expressions that lower, its mask kernels evaluate the tree, and the
//! analyzer's range pass judges and refines predicates on the same tree,
//! so all three share one definition of "two-valued".
//! [`Truth`](gbj_types::Truth) and [`BoundExpr::eval_truth`] stay the
//! reference semantics; `tests/lowering_exhaustive.rs` reads every
//! lowered tree cell by cell, as its variants are documented here, and
//! checks it against them on every row of a small-scope domain.

use gbj_types::Value;

use crate::expr::{compare_values, value_to_truth, BinaryOp, BoundExpr};

/// One side of a lowered comparison.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    /// The cell at a row ordinal.
    Column(usize),
    /// A non-NULL literal (a NULL literal makes the leaf constant).
    /// After lowering a literal is always the *right* operand.
    Literal(Value),
    /// A Boolean expression `P` used as a value: `TRUE` where `floor`
    /// holds, `FALSE` where `ceil` does not, NULL in between.
    Cond {
        /// `⌊P⌋`.
        floor: Box<Lowered>,
        /// `⌈P⌉`.
        ceil: Box<Lowered>,
    },
}

/// A two-valued condition over cells and their validity.
#[derive(Debug, Clone, PartialEq)]
pub enum Lowered {
    /// The same answer on every row.
    Const(bool),
    /// `def(left, right) ∧ left op₂ right`: both non-NULL, comparable,
    /// and the comparison holds.
    Cmp {
        /// Left operand.
        left: Operand,
        /// One of the six comparison operators.
        op: BinaryOp,
        /// Right operand.
        right: Operand,
    },
    /// `valid(c)`: the cell is not NULL.
    Valid(usize),
    /// The cell is not NULL and is `TRUE` exactly when `want`:
    /// `valid(c) ∧ c` / `valid(c) ∧ ¬c`.
    Bool {
        /// Row ordinal.
        column: usize,
        /// Whether the cell must be `TRUE` (else: anything but).
        want: bool,
    },
    /// Both hold.
    And(Box<Lowered>, Box<Lowered>),
    /// Either holds.
    Or(Box<Lowered>, Box<Lowered>),
    /// Two-valued negation.
    Not(Box<Lowered>),
}

impl BoundExpr {
    /// `⌊self⌋`: the rows a WHERE / ON / HAVING keeps. `None` outside
    /// the error-free domain (arithmetic), see the [module docs](self).
    #[must_use]
    pub fn lower_floor(&self) -> Option<Lowered> {
        lower(self, false)
    }

    /// `⌈self⌉`: the rows a CHECK admits. `None` outside the error-free
    /// domain (arithmetic).
    #[must_use]
    pub fn lower_ceil(&self) -> Option<Lowered> {
        lower(self, true)
    }

    /// `self` as a value: a column, a literal, or — for a Boolean
    /// expression — the pair of its two lowerings. `None` outside the
    /// error-free domain (arithmetic).
    #[must_use]
    pub fn lower_value(&self) -> Option<Operand> {
        operand(self)
    }
}

/// `⌈expr⌉` if `ceil`, else `⌊expr⌋`.
fn lower(expr: &BoundExpr, ceil: bool) -> Option<Lowered> {
    Some(match expr {
        BoundExpr::Binary { left, op, right } => match op {
            BinaryOp::And => {
                Lowered::And(Box::new(lower(left, ceil)?), Box::new(lower(right, ceil)?))
            }
            BinaryOp::Or => {
                Lowered::Or(Box::new(lower(left, ceil)?), Box::new(lower(right, ceil)?))
            }
            _ if !op.is_comparison() => return None,
            // ⌈a op b⌉ = ¬⌊a ¬op b⌋.
            _ if ceil => not(compare(left, complement(*op), right)?),
            _ => compare(left, *op, right)?,
        },
        BoundExpr::Not(inner) => not(lower(inner, !ceil)?),
        BoundExpr::IsNull { expr, negated } => {
            let null = match operand(expr)? {
                Operand::Column(c) => not(Lowered::Valid(c)),
                Operand::Literal(v) => Lowered::Const(v.is_null()),
                Operand::Cond { floor, ceil: top } => Lowered::And(Box::new(not(*floor)), top),
            };
            if *negated {
                not(null)
            } else {
                null
            }
        }
        BoundExpr::Column(c) if ceil => not(Lowered::Bool {
            column: *c,
            want: false,
        }),
        BoundExpr::Column(c) => Lowered::Bool {
            column: *c,
            want: true,
        },
        BoundExpr::Literal(v) => {
            let truth = value_to_truth(v);
            Lowered::Const(if ceil { truth.ceil() } else { truth.floor() })
        }
        BoundExpr::Neg(_) => return None,
    })
}

/// `expr` as a comparison (or `IS NULL`) operand.
fn operand(expr: &BoundExpr) -> Option<Operand> {
    Some(match expr {
        BoundExpr::Column(c) => Operand::Column(*c),
        BoundExpr::Literal(v) => Operand::Literal(v.clone()),
        BoundExpr::Neg(_) => return None,
        BoundExpr::Binary { op, .. } if op.is_arithmetic() => return None,
        condition => Operand::Cond {
            floor: Box::new(lower(condition, false)?),
            ceil: Box::new(lower(condition, true)?),
        },
    })
}

/// `def(left, right) ∧ left op₂ right`, with a literal moved to the
/// right (mirroring `op`) and folded away when it decides the leaf.
fn compare(left: &BoundExpr, op: BinaryOp, right: &BoundExpr) -> Option<Lowered> {
    Some(match (operand(left)?, operand(right)?) {
        (Operand::Literal(a), Operand::Literal(b)) => {
            Lowered::Const(compare_values(&a, op, &b).floor())
        }
        (Operand::Literal(null), _) | (_, Operand::Literal(null)) if null.is_null() => {
            Lowered::Const(false)
        }
        (literal @ Operand::Literal(_), other) => Lowered::Cmp {
            left: other,
            op: mirror(op),
            right: literal,
        },
        (left, right) => Lowered::Cmp { left, op, right },
    })
}

/// `¬x`, without stacking negations or negating a constant.
fn not(x: Lowered) -> Lowered {
    match x {
        Lowered::Not(inner) => *inner,
        Lowered::Const(b) => Lowered::Const(!b),
        other => Lowered::Not(Box::new(other)),
    }
}

/// The comparison that holds exactly where `op` fails, among
/// comparable pairs.
fn complement(op: BinaryOp) -> BinaryOp {
    match op {
        BinaryOp::Eq => BinaryOp::NotEq,
        BinaryOp::NotEq => BinaryOp::Eq,
        BinaryOp::Lt => BinaryOp::GtEq,
        BinaryOp::LtEq => BinaryOp::Gt,
        BinaryOp::Gt => BinaryOp::LtEq,
        BinaryOp::GtEq => BinaryOp::Lt,
        other => other,
    }
}

/// `b mirror(op) a` ⇔ `a op b`.
fn mirror(op: BinaryOp) -> BinaryOp {
    match op {
        BinaryOp::Lt => BinaryOp::Gt,
        BinaryOp::LtEq => BinaryOp::GtEq,
        BinaryOp::Gt => BinaryOp::Lt,
        BinaryOp::GtEq => BinaryOp::LtEq,
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use gbj_types::{DataType, Field, Schema};

    fn bind(e: Expr) -> BoundExpr {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64, true),
            Field::new("b", DataType::Int64, true),
        ]);
        e.bind(&schema).unwrap()
    }

    fn cmp(left: usize, op: BinaryOp, right: Operand) -> Lowered {
        Lowered::Cmp {
            left: Operand::Column(left),
            op,
            right,
        }
    }

    #[test]
    fn the_ceiling_of_a_comparison_is_the_negated_complement() {
        let lt = bind(Expr::bare("a").binary(BinaryOp::Lt, Expr::bare("b")));
        assert_eq!(
            lt.lower_floor().unwrap(),
            cmp(0, BinaryOp::Lt, Operand::Column(1))
        );
        assert_eq!(
            lt.lower_ceil().unwrap(),
            Lowered::Not(Box::new(cmp(0, BinaryOp::GtEq, Operand::Column(1))))
        );
        // NOT swaps the two and the double negation cancels.
        let not_lt = BoundExpr::Not(Box::new(lt));
        assert_eq!(
            not_lt.lower_floor().unwrap(),
            cmp(0, BinaryOp::GtEq, Operand::Column(1))
        );
    }

    #[test]
    fn literals_move_right_and_null_literals_fold() {
        let flipped = bind(Expr::lit(5i64).binary(BinaryOp::Lt, Expr::bare("a")));
        assert_eq!(
            flipped.lower_floor().unwrap(),
            cmp(0, BinaryOp::Gt, Operand::Literal(Value::Int(5)))
        );
        let null = bind(Expr::bare("a").eq(Expr::lit(Value::Null)));
        assert_eq!(null.lower_floor().unwrap(), Lowered::Const(false));
        assert_eq!(null.lower_ceil().unwrap(), Lowered::Const(true));
        let both = bind(Expr::lit(1i64).binary(BinaryOp::LtEq, Expr::lit(1.5f64)));
        assert_eq!(both.lower_floor().unwrap(), Lowered::Const(true));
    }

    #[test]
    fn arithmetic_does_not_lower() {
        let sum = Expr::bare("a").binary(BinaryOp::Add, Expr::bare("b"));
        assert_eq!(bind(sum.clone().eq(Expr::lit(3i64))).lower_floor(), None);
        let is_null = Expr::IsNull {
            expr: Box::new(sum),
            negated: false,
        };
        assert_eq!(bind(is_null).lower_ceil(), None);
        let neg = Expr::Neg(Box::new(Expr::bare("a")));
        let keeps = Expr::bare("a").eq(Expr::lit(1i64));
        assert_eq!(bind(keeps.and(neg.eq(Expr::lit(1i64)))).lower_floor(), None);
    }
}
