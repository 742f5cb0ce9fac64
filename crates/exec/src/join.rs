//! The row engine's joins: hash join on the equi keys, and nested loops
//! for a condition without one.
//!
//! Both implement the inner join `σ[condition](L × R)` with SQL's
//! search-condition semantics: a pair qualifies only when the condition
//! evaluates to *true*, so NULL join keys never match (unlike the `=ⁿ`
//! duplicate semantics used by grouping).

use std::collections::HashMap;

use gbj_expr::{BoundExpr, Expr};
use gbj_plan::{split_equi_keys, EquiKey, LogicalPlan};
use gbj_types::{internal_err, GroupKey, Result, Schema, Truth, Value};

use crate::guard::{row_bytes, ResourceGuard};
use crate::metrics::MetricsSink;

/// Checked column access: a bad ordinal is an optimizer/binder bug, so
/// it surfaces as `Error::Internal` instead of a panic.
pub(crate) fn col(row: &[Value], idx: usize) -> Result<&Value> {
    row.get(idx).ok_or_else(|| {
        internal_err!(
            "column ordinal {idx} out of bounds for row of arity {}",
            row.len()
        )
    })
}

/// A join condition bound against its inputs: the equi keys, the
/// residual over the concatenated row, and the schemas they refer to.
pub(crate) struct BoundJoin {
    /// Schema of `left ++ right`.
    pub(crate) schema: Schema,
    pub(crate) left_arity: usize,
    pub(crate) right_arity: usize,
    pub(crate) keys: Vec<EquiKey>,
    pub(crate) residual: Option<BoundExpr>,
}

/// Split and bind `condition` for a join of `left` and `right`.
pub(crate) fn bind_join(
    left: &LogicalPlan,
    right: &LogicalPlan,
    condition: &Expr,
) -> Result<BoundJoin> {
    let lschema = left.schema()?;
    let rschema = right.schema()?;
    let schema = lschema.join(&rschema);
    let (keys, residual) = split_equi_keys(condition, &lschema, &rschema);
    let residual = Expr::conjunction(residual)
        .map(|e| e.bind(&schema))
        .transpose()?;
    Ok(BoundJoin {
        schema,
        left_arity: lschema.len(),
        right_arity: rschema.len(),
        keys,
        residual,
    })
}

pub(crate) fn concat(l: &[Value], r: &[Value]) -> Vec<Value> {
    let mut row = Vec::with_capacity(l.len() + r.len());
    row.extend_from_slice(l);
    row.extend_from_slice(r);
    row
}

pub(crate) fn residual_passes(residual: &Option<BoundExpr>, row: &[Value]) -> Result<bool> {
    match residual {
        None => Ok(true),
        Some(p) => Ok(p.eval_truth(row)? == Truth::True),
    }
}

/// Nested-loop join: evaluate the full bound condition on every pair.
pub fn nested_loop_join(
    left: &[Vec<Value>],
    right: &[Vec<Value>],
    condition: &BoundExpr,
    guard: &ResourceGuard,
    sink: &MetricsSink,
) -> Result<Vec<Vec<Value>>> {
    let probe_timer = sink.start_timer();
    let mut out = Vec::new();
    for l in left {
        for r in right {
            guard.tick()?;
            let row = concat(l, r);
            if condition.eval_truth(&row)? == Truth::True {
                out.push(row);
            }
        }
    }
    sink.record_probe(probe_timer);
    Ok(out)
}

/// One side's join key for `row`, by cloning the key columns.
/// `Ok(None)` for a key containing NULL: `NULL = NULL` is `unknown` in
/// a search condition, so such rows never join.
pub(crate) fn side_key(
    row: &[Value],
    ordinal: impl Fn(&EquiKey) -> usize,
    keys: &[EquiKey],
) -> Result<Option<GroupKey>> {
    let kv: Vec<Value> = keys
        .iter()
        .map(|k| col(row, ordinal(k)).cloned())
        .collect::<Result<_>>()?;
    Ok((!kv.iter().any(Value::is_null)).then_some(GroupKey(kv)))
}

/// Hash join on the given equi keys, with an optional bound residual
/// predicate over the concatenated row.
///
/// Builds on the right side, probes with the left. Rows whose key
/// contains NULL are skipped on both sides (see [`side_key`]).
pub fn hash_join(
    left: &[Vec<Value>],
    right: &[Vec<Value>],
    keys: &[EquiKey],
    residual: &Option<BoundExpr>,
    guard: &ResourceGuard,
    sink: &MetricsSink,
) -> Result<Vec<Vec<Value>>> {
    let mut table: HashMap<GroupKey, Vec<usize>> = HashMap::new();
    let mut build_bytes = 0u64;
    let mut build_entries = 0u64;
    let build_timer = sink.start_timer();
    let build_result = (|| -> Result<()> {
        for (i, r) in right.iter().enumerate() {
            guard.tick()?;
            let Some(key) = side_key(r, |k| k.right, keys)? else {
                continue;
            };
            let entry_bytes = row_bytes(&key.0) + std::mem::size_of::<usize>() as u64;
            build_bytes += entry_bytes;
            build_entries += 1;
            guard.charge_memory(entry_bytes)?;
            table.entry(key).or_default().push(i);
        }
        Ok(())
    })();
    sink.record_build(build_timer);
    sink.add_hash_entries(build_entries);
    sink.add_state_bytes(build_bytes);
    let probe_timer = sink.start_timer();
    let probe = build_result.and_then(|()| {
        let mut out = Vec::new();
        for l in left {
            guard.tick()?;
            let Some(key) = side_key(l, |k| k.left, keys)? else {
                continue;
            };
            if let Some(matches) = table.get(&key) {
                for &ri in matches {
                    guard.tick()?;
                    let r = right
                        .get(ri)
                        .ok_or_else(|| internal_err!("hash-join build index {ri} out of bounds"))?;
                    let row = concat(l, r);
                    if residual_passes(residual, &row)? {
                        out.push(row);
                    }
                }
            }
        }
        Ok(out)
    });
    sink.record_probe(probe_timer);
    guard.release_memory(build_bytes);
    probe
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbj_types::{DataType, Field};

    fn lschema() -> Schema {
        Schema::new(vec![
            Field::new("id", DataType::Int64, true).with_qualifier("L"),
            Field::new("x", DataType::Int64, true).with_qualifier("L"),
        ])
    }

    fn rschema() -> Schema {
        Schema::new(vec![
            Field::new("id", DataType::Int64, true).with_qualifier("R"),
            Field::new("y", DataType::Int64, true).with_qualifier("R"),
        ])
    }

    fn rows(data: &[(Option<i64>, i64)]) -> Vec<Vec<Value>> {
        data.iter()
            .map(|(a, b)| vec![a.map_or(Value::Null, Value::Int), Value::Int(*b)])
            .collect()
    }

    fn condition() -> Expr {
        Expr::col("L", "id").eq(Expr::col("R", "id"))
    }

    /// Both joins over `cond`, asserted equal as multisets: the hash
    /// join against nested loops over the whole bound condition.
    fn agreed_join(left: &[Vec<Value>], right: &[Vec<Value>], cond: &Expr) -> Vec<Vec<Value>> {
        let ls = lschema();
        let rs = rschema();
        let joined = ls.join(&rs);
        let bound = cond.bind(&joined).unwrap();
        let (keys, residual) = split_equi_keys(cond, &ls, &rs);
        assert!(!keys.is_empty());
        let resid_bound = Expr::conjunction(residual).map(|e| e.bind(&joined).unwrap());
        let g = ResourceGuard::unlimited();
        let sink = MetricsSink::new();
        let nested = nested_loop_join(left, right, &bound, &g, &sink).unwrap();
        let hashed = hash_join(left, right, &keys, &resid_bound, &g, &sink).unwrap();
        assert_eq!(as_multiset(&hashed), as_multiset(&nested));
        hashed
    }

    fn as_multiset(rows: &[Vec<Value>]) -> std::collections::HashMap<GroupKey, usize> {
        let mut m = std::collections::HashMap::new();
        for r in rows {
            *m.entry(GroupKey(r.clone())).or_default() += 1;
        }
        m
    }

    #[test]
    fn hash_and_nested_loops_agree_on_fk_join() {
        let left = rows(&[(Some(1), 10), (Some(2), 20), (Some(1), 11), (None, 99)]);
        let right = rows(&[(Some(1), 100), (Some(2), 200), (Some(3), 300)]);
        let out = agreed_join(&left, &right, &condition());
        assert_eq!(out.len(), 3, "1 joins twice, 2 once, NULL never");
    }

    #[test]
    fn null_keys_never_match() {
        let left = rows(&[(None, 1)]);
        let right = rows(&[(None, 2)]);
        let out = agreed_join(&left, &right, &condition());
        assert!(out.is_empty(), "NULL = NULL is unknown, no match");
    }

    #[test]
    fn duplicate_keys_produce_cross_products() {
        let left = rows(&[(Some(1), 10), (Some(1), 11)]);
        let right = rows(&[(Some(1), 100), (Some(1), 101), (Some(1), 102)]);
        assert_eq!(agreed_join(&left, &right, &condition()).len(), 6);
    }

    #[test]
    fn residual_predicate_filters_pairs() {
        // L.id = R.id AND L.x < R.y
        let cond = condition()
            .and(Expr::col("L", "x").binary(gbj_expr::BinaryOp::Lt, Expr::col("R", "y")));
        let left = rows(&[(Some(1), 10), (Some(1), 200)]);
        let right = rows(&[(Some(1), 100)]);
        let out = agreed_join(&left, &right, &cond);
        assert_eq!(out.len(), 1, "only x=10 < y=100 passes");
        assert_eq!(out[0][1], Value::Int(10));
    }

    #[test]
    fn empty_inputs() {
        let left = rows(&[]);
        let right = rows(&[(Some(1), 100)]);
        assert!(agreed_join(&left, &right, &condition()).is_empty());
    }

    #[test]
    fn composite_keys() {
        let ls = Schema::new(vec![
            Field::new("a", DataType::Int64, true).with_qualifier("L"),
            Field::new("b", DataType::Int64, true).with_qualifier("L"),
        ]);
        let rs = Schema::new(vec![
            Field::new("a", DataType::Int64, true).with_qualifier("R"),
            Field::new("b", DataType::Int64, true).with_qualifier("R"),
        ]);
        let cond = Expr::col("L", "a")
            .eq(Expr::col("R", "a"))
            .and(Expr::col("L", "b").eq(Expr::col("R", "b")));
        let (keys, residual) = split_equi_keys(&cond, &ls, &rs);
        assert_eq!(keys.len(), 2);
        assert!(residual.is_empty());
        let left = vec![
            vec![Value::Int(1), Value::Int(1)],
            vec![Value::Int(1), Value::Int(2)],
        ];
        let right = vec![vec![Value::Int(1), Value::Int(1)]];
        let g = ResourceGuard::unlimited();
        let sink = MetricsSink::new();
        let out = hash_join(&left, &right, &keys, &None, &g, &sink).unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn hash_join_counts_non_null_build_entries() {
        // 3 right rows, one with a NULL key: 2 hash entries, some bytes.
        let left = rows(&[(Some(1), 10)]);
        let right = rows(&[(Some(1), 100), (None, 200), (Some(2), 300)]);
        let ls = lschema();
        let rs = rschema();
        let (keys, _) = split_equi_keys(&condition(), &ls, &rs);
        let g = ResourceGuard::unlimited();
        let sink = MetricsSink::new();
        let out = hash_join(&left, &right, &keys, &None, &g, &sink).unwrap();
        assert_eq!(out.len(), 1);
        let m = sink.finish(left.len() + right.len(), out.len());
        assert_eq!(m.hash_entries, 2, "NULL build keys are never inserted");
        assert!(m.state_bytes > 0);
    }
}
