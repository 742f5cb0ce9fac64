//! `lower_floor(P)` ≡ `⌊P⌋` and `lower_ceil(P)` ≡ `⌈P⌉`, by enumeration.
//!
//! The reference is [`BoundExpr::eval_truth`] followed by
//! [`Truth::floor`](gbj_types::Truth::floor) /
//! [`Truth::ceil`](gbj_types::Truth::ceil); the subject is the lowered
//! tree, read one row at a time by [`holds`] exactly as the variants of
//! [`Lowered`] are documented (the mask kernels of `gbj-exec` read the
//! same tree a word at a time, and answer to the same reference in
//! their own suites). Nothing is sampled. Two sweeps:
//!
//! * **Atoms, over the value zoo.** Every depth-1 predicate — the six
//!   comparisons × column/literal, literal/column, column/column and
//!   literal/literal, `IS [NOT] NULL`, a bare column, a bare literal —
//!   over every pairing of the zoo's columns and literals (a superset
//!   of what the type checker lets through: cross-type pairs included),
//!   on every row of the columns it reads. The zoo holds `i64::MIN` /
//!   `MAX`, `2^53` / `2^53 + 1` beside the `Float` `2^53`, `±0.0`, NaN,
//!   `""`, Booleans, and two columns that mix types.
//! * **Trees, over a basis.** Every tree of depth ≤ 3 that `NOT`,
//!   `AND`, `OR`, `IS [NOT] NULL` and a comparison of two conditions
//!   build over six atoms that between them take every truth value for
//!   every reason (a NULL, a NaN, a cross-type pair, a literal NULL),
//!   on all 64 rows of the three columns the atoms read.

use gbj_expr::{compare_values, BinaryOp, BoundExpr, Lowered, Operand};
use gbj_types::Value;

/// A lowered operand's value on `row`.
fn value_of(operand: &Operand, row: &[Value]) -> Value {
    match operand {
        Operand::Column(i) => row[*i].clone(),
        Operand::Literal(v) => v.clone(),
        Operand::Cond { floor, .. } if holds(floor, row) => Value::Bool(true),
        Operand::Cond { ceil, .. } if holds(ceil, row) => Value::Null,
        Operand::Cond { .. } => Value::Bool(false),
    }
}

/// Whether a lowered condition holds on `row`: two truth values, NULL
/// only ever asked about, never propagated.
fn holds(lowered: &Lowered, row: &[Value]) -> bool {
    match lowered {
        Lowered::Const(answer) => *answer,
        Lowered::Cmp { left, op, right } => {
            compare_values(&value_of(left, row), *op, &value_of(right, row)).floor()
        }
        Lowered::Valid(i) => !row[*i].is_null(),
        Lowered::Bool { column, want } => match &row[*column] {
            Value::Null => false,
            cell => matches!(cell, Value::Bool(true)) == *want,
        },
        Lowered::And(l, r) => holds(l, row) && holds(r, row),
        Lowered::Or(l, r) => holds(l, row) || holds(r, row),
        Lowered::Not(inner) => !holds(inner, row),
    }
}

const OPS: [BinaryOp; 6] = [
    BinaryOp::Eq,
    BinaryOp::NotEq,
    BinaryOp::Lt,
    BinaryOp::LtEq,
    BinaryOp::Gt,
    BinaryOp::GtEq,
];

const TWO_53: i64 = 1 << 53;

/// The non-NULL values of each column (NULL is added to every one).
fn zoo() -> Vec<Vec<Value>> {
    vec![
        vec![
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Int(TWO_53 + 1),
        ],
        vec![Value::Int(TWO_53), Value::Int(0), Value::Int(-1)],
        vec![
            Value::Float(TWO_53 as f64),
            Value::Float(f64::NAN),
            Value::Float(-0.0),
        ],
        vec![
            Value::Float(0.0),
            Value::Float(1.5),
            Value::Float(f64::NEG_INFINITY),
        ],
        vec![Value::str(""), Value::str("a"), Value::str("B")],
        vec![Value::Bool(true), Value::Bool(false)],
        vec![Value::Int(1), Value::Bool(false), Value::Bool(true)],
        vec![Value::Float(1.0), Value::str("1"), Value::Bool(false)],
    ]
}

fn literals() -> Vec<Value> {
    vec![
        Value::Int(i64::MIN),
        Value::Int(TWO_53 + 1),
        Value::Int(0),
        Value::Float(TWO_53 as f64),
        Value::Float(f64::NAN),
        Value::Float(-0.0),
        Value::str(""),
        Value::str("a"),
        Value::Bool(true),
        Value::Bool(false),
        Value::Null,
    ]
}

fn col(i: usize) -> BoundExpr {
    BoundExpr::Column(i)
}

fn lit(v: &Value) -> BoundExpr {
    BoundExpr::Literal(v.clone())
}

fn binary(left: &BoundExpr, op: BinaryOp, right: &BoundExpr) -> BoundExpr {
    BoundExpr::Binary {
        left: Box::new(left.clone()),
        op,
        right: Box::new(right.clone()),
    }
}

fn is_null(expr: &BoundExpr, negated: bool) -> BoundExpr {
    BoundExpr::IsNull {
        expr: Box::new(expr.clone()),
        negated,
    }
}

/// Every row over `columns` of the zoo (each ranging over its values
/// and NULL), the other columns NULL.
fn rows_over(columns: &[usize]) -> Vec<Vec<Value>> {
    let zoo = zoo();
    let mut rows = vec![vec![Value::Null; zoo.len()]];
    for &c in columns {
        let mut values = zoo[c].clone();
        values.push(Value::Null);
        rows = rows
            .iter()
            .flat_map(|row| {
                values.iter().map(move |v| {
                    let mut row = row.clone();
                    row[c] = v.clone();
                    row
                })
            })
            .collect();
    }
    rows
}

/// Assert both lowerings of `expr` against the definition on `rows`;
/// the number of rows checked.
fn check(expr: &BoundExpr, rows: &[Vec<Value>]) -> usize {
    let floor = expr
        .lower_floor()
        .unwrap_or_else(|| panic!("no floor for {expr:?}"));
    let ceil = expr
        .lower_ceil()
        .unwrap_or_else(|| panic!("no ceil for {expr:?}"));
    for row in rows {
        let truth = expr.eval_truth(row).expect("error-free");
        assert_eq!(
            holds(&floor, row),
            truth.floor(),
            "⌊{expr:?}⌋ = {floor:?} on {row:?} ({truth})"
        );
        assert_eq!(
            holds(&ceil, row),
            truth.ceil(),
            "⌈{expr:?}⌉ = {ceil:?} on {row:?} ({truth})"
        );
    }
    rows.len()
}

#[test]
fn every_atom_over_the_value_zoo() {
    let columns = zoo().len();
    let literals = literals();
    let mut checked = 0usize;
    for a in 0..columns {
        let one = rows_over(&[a]);
        checked += check(&col(a), &one);
        for negated in [false, true] {
            checked += check(&is_null(&col(a), negated), &one);
        }
        for op in OPS {
            for v in &literals {
                checked += check(&binary(&col(a), op, &lit(v)), &one);
                checked += check(&binary(&lit(v), op, &col(a)), &one);
            }
            for b in 0..columns {
                let two = rows_over(&[a, b]);
                checked += check(&binary(&col(a), op, &col(b)), &two);
            }
        }
    }
    let no_columns = rows_over(&[]);
    for v in &literals {
        checked += check(&lit(v), &no_columns);
        for negated in [false, true] {
            checked += check(&is_null(&lit(v), negated), &no_columns);
        }
        for op in OPS {
            for w in &literals {
                checked += check(&binary(&lit(v), op, &lit(w)), &no_columns);
            }
        }
    }
    assert!(checked > 10_000, "{checked} rows checked");
}

/// `trees` closed once more under every connective.
fn one_deeper(trees: &[BoundExpr]) -> Vec<BoundExpr> {
    let mut out = trees.to_vec();
    for p in trees {
        out.push(BoundExpr::Not(Box::new(p.clone())));
        out.push(is_null(p, false));
        out.push(is_null(p, true));
        for q in trees {
            for op in [BinaryOp::And, BinaryOp::Or, BinaryOp::Eq, BinaryOp::Lt] {
                out.push(binary(p, op, q));
            }
        }
    }
    out
}

#[test]
fn every_tree_up_to_depth_three_over_the_basis() {
    // x: Int extremes, y: Float with NaN, z: mixed types.
    let (x, y, z) = (0, 2, 6);
    let basis = vec![
        binary(&col(x), BinaryOp::Lt, &col(y)),
        binary(&col(y), BinaryOp::NotEq, &lit(&Value::Float(0.0))),
        is_null(&col(x), false),
        col(z),
        binary(&col(z), BinaryOp::Eq, &lit(&Value::Bool(true))),
        lit(&Value::Null),
    ];
    let rows = rows_over(&[x, y, z]);
    assert_eq!(rows.len(), 64);
    // Every atom is true, false and unknown somewhere — the NULL
    // literal apart — so the connectives meet every pairing.
    for atom in &basis[..5] {
        let seen: Vec<String> = rows
            .iter()
            .map(|row| atom.eval_truth(row).unwrap().to_string())
            .collect();
        let two_valued = matches!(atom, BoundExpr::IsNull { .. });
        for truth in ["true", "false", "unknown"] {
            let expected = !(two_valued && truth == "unknown");
            assert_eq!(
                seen.iter().any(|t| t == truth),
                expected,
                "{atom:?} {truth}"
            );
        }
    }
    let depth_three = one_deeper(&one_deeper(&basis));
    let checked: usize = depth_three.iter().map(|tree| check(tree, &rows)).sum();
    assert_eq!(checked, depth_three.len() * 64);
    assert!(depth_three.len() > 100_000, "{} trees", depth_three.len());
}
