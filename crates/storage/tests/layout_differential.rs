//! Column-major storage against a row model.
//!
//! The oracle is a plain `Vec<Row>` kept here and nowhere in the crate:
//! seeded random interleavings of INSERT, refused INSERT (PRIMARY KEY,
//! NOT NULL, CHECK, FOREIGN KEY), DELETE, UPDATE and snapshots run
//! against both, over tables that start at 0, 1, 1023, 1024, 1025 and
//! 2049 rows — either side of one and two block boundaries — with all
//! four types, a NULL-heavy column, an all-NULL column, `i64::MIN` /
//! `MAX`, `NaN`, `0.0` / `-0.0`, `""`, and strings first seen after a
//! snapshot. After every step the table must read back as the model:
//! `rows()` with RowIDs, both cursor forms at batch sizes 1, 2, 7, 1023,
//! 1024, 1025 and the default, clean, under seeded NULL flips and with
//! a failing Nth batch (same cells flipped, same count, same error on
//! the same ordinal from both forms), every default batch but the last
//! a full block, and `stats()` / `joint_ndv` equal to the row-scan
//! definitions (`stats_oracle`: every exact fact by a walk over the
//! model, the two estimates by their definition and within their error
//! of the truth, the whole summary that of a fresh load of the model's
//! rows) — including after a DELETE takes the last user of a string,
//! which the dictionary still remembers.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

mod stats_oracle;

use std::sync::Arc;

use gbj_catalog::{ColumnDef, Constraint, TableDef};
use gbj_expr::{BinaryOp, Expr};
use gbj_storage::{ColumnVector, FaultConfig, FaultInjector, Row, Storage};
use gbj_types::{DataType, Value};

const BLOCK: usize = 1024;
/// `None` is the default batch size (one block).
const BATCH_SIZES: [Option<usize>; 7] = [
    Some(1),
    Some(2),
    Some(7),
    Some(1023),
    Some(1024),
    Some(1025),
    None,
];
/// Column ordinals of `T`.
const ID: usize = 0;
const I: usize = 1;
const F: usize = 2;
const B: usize = 3;
const S: usize = 4;
const N: usize = 5;
const P: usize = 6;
const E: usize = 7;
const TYPES: [DataType; 8] = [
    DataType::Int64,
    DataType::Int64,
    DataType::Float64,
    DataType::Boolean,
    DataType::Utf8,
    DataType::Int64,
    DataType::Int64,
    DataType::Utf8,
];
/// Parent keys `0..PARENTS` exist; anything else breaks the FOREIGN KEY.
const PARENTS: i64 = 8;

/// splitmix64: the suite's only source of randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn one_in(&mut self, n: u64) -> bool {
        self.below(n) == 0
    }

    fn pick<T: Clone>(&mut self, from: &[T]) -> T {
        from[self.below(from.len() as u64) as usize].clone()
    }
}

fn storage() -> Storage {
    let mut s = Storage::new();
    s.create_table(
        TableDef::new("P", vec![ColumnDef::new("pid", DataType::Int64)])
            .with_constraint(Constraint::PrimaryKey(vec!["pid".into()])),
    )
    .unwrap();
    for pid in 0..PARENTS {
        s.insert("P", vec![Value::Int(pid)]).unwrap();
    }
    s.create_table(
        TableDef::new(
            "T",
            vec![
                ColumnDef::new("id", DataType::Int64),
                ColumnDef::new("i", DataType::Int64),
                ColumnDef::new("f", DataType::Float64),
                ColumnDef::new("b", DataType::Boolean),
                ColumnDef::new("s", DataType::Utf8),
                ColumnDef::new("n", DataType::Int64)
                    .not_null()
                    .with_check(Expr::bare("n").binary(BinaryOp::GtEq, Expr::lit(0i64))),
                ColumnDef::new("p", DataType::Int64),
                ColumnDef::new("e", DataType::Utf8),
            ],
        )
        .with_constraint(Constraint::PrimaryKey(vec!["id".into()]))
        .with_constraint(Constraint::ForeignKey {
            columns: vec!["p".into()],
            ref_table: "P".into(),
            ref_columns: vec![],
        }),
    )
    .unwrap();
    s
}

/// The model: what the table must hold, and the RowID the next stored
/// row must get.
#[derive(Clone, Default)]
struct Model {
    rows: Vec<Row>,
    next_row_id: u64,
    next_id: i64,
    fresh_strings: u64,
}

impl Model {
    /// A valid row with a new primary key, as it is handed to `insert`
    /// (`f` may be an `Int`, which storage coerces).
    fn gen_row(&mut self, rng: &mut Rng) -> Vec<Value> {
        let id = self.next_id;
        self.next_id += 1;
        let i = if rng.one_in(2) {
            Value::Null
        } else {
            let small = rng.below(5) as i64 - 2;
            Value::Int(rng.pick(&[i64::MIN, i64::MAX, small, small, small]))
        };
        let f = match rng.below(8) {
            0 => Value::Null,
            1 => Value::Int(rng.below(4) as i64),
            _ => {
                let x = rng.below(7) as f64 / 2.0 - 1.0;
                Value::Float(rng.pick(&[f64::NAN, 0.0, -0.0, x, x, x]))
            }
        };
        let b = match rng.below(7) {
            0 => Value::Null,
            k => Value::Bool(k % 2 == 0),
        };
        let s = match rng.below(8) {
            0 => Value::Null,
            1 => {
                self.fresh_strings += 1;
                Value::Str(format!("n{}", self.fresh_strings))
            }
            _ => Value::str(rng.pick(&["", "a", "b", "héllo", "a longer string"])),
        };
        let p = if rng.one_in(3) {
            Value::Null
        } else {
            Value::Int(rng.below(PARENTS as u64) as i64)
        };
        let n = Value::Int(rng.below(100) as i64);
        vec![Value::Int(id), i, f, b, s, n, p, Value::Null]
    }

    /// Record a row storage accepted: coerced as storage coerces.
    fn push(&mut self, mut values: Vec<Value>) -> u64 {
        if let Value::Int(k) = values[F] {
            values[F] = Value::Float(k as f64);
        }
        let row_id = self.next_row_id;
        self.next_row_id += 1;
        self.rows.push(Row { row_id, values });
        row_id
    }
}

/// A value as something `==` can compare bit for bit: `NaN` equals
/// itself, `0.0` differs from `-0.0`.
fn bits(v: &Value) -> (u8, u64, &str) {
    match v {
        Value::Null => (0, 0, ""),
        Value::Bool(b) => (1, u64::from(*b), ""),
        Value::Int(i) => (2, *i as u64, ""),
        Value::Float(f) => (3, f.to_bits(), ""),
        Value::Str(s) => (4, 0, s),
    }
}

fn row_bits(row: &[Value]) -> Vec<(u8, u64, &str)> {
    row.iter().map(bits).collect()
}

fn assert_rows_eq(got: &[Vec<Value>], want: &[&Vec<Value>], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: row count");
    for (k, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(row_bits(g), row_bits(w), "{ctx}: row {k}");
    }
}

/// Every batch of a scan, through one cursor form.
fn drain(
    s: &Storage,
    batch: Option<usize>,
    columnar: bool,
) -> Result<Vec<Vec<Vec<Value>>>, String> {
    let mut cursor = s.open_scan("T").unwrap();
    if let Some(rows) = batch {
        cursor = cursor.with_batch_size(rows);
    }
    let mut batches = Vec::new();
    loop {
        let next = if columnar {
            cursor.next_columnar().map(|b| b.map(|b| b.to_rows()))
        } else {
            cursor.next_batch()
        };
        match next {
            Ok(Some(rows)) => batches.push(rows),
            Ok(None) => return Ok(batches),
            Err(e) => return Err(format!("{} batches, then {e}", batches.len())),
        }
    }
}

fn inject(s: &mut Storage, config: FaultConfig) {
    s.set_fault_injector(Some(FaultInjector::new(config)));
}

/// The whole read-back check of one table state.
fn check(s: &mut Storage, model: &Model, rng: &mut Rng, ctx: &str) {
    let want: Vec<&Vec<Value>> = model.rows.iter().map(|r| &r.values).collect();
    check_snapshot(s, model, ctx);

    let mut flipped_image: Option<(Vec<Vec<Value>>, u64)> = None;
    for batch in BATCH_SIZES {
        let ctx = format!("{ctx}, batch size {batch:?}");
        let size = batch.unwrap_or(BLOCK);

        // Clean: both forms cut the model at the same boundaries.
        s.set_fault_injector(None);
        for columnar in [false, true] {
            let got = drain(s, batch, columnar).unwrap();
            let sizes: Vec<usize> = got.iter().map(Vec::len).collect();
            let cut: Vec<usize> = want.chunks(size).map(<[_]>::len).collect();
            assert_eq!(sizes, cut, "{ctx}: batch boundaries (columnar={columnar})");
            assert_rows_eq(&got.concat(), &want, &ctx);
        }

        // Seeded NULL flips: the same cells from both forms, counted
        // alike, at any batch size; never a NOT NULL column, never a
        // value the model does not hold.
        let flips = FaultConfig {
            seed: 11,
            batch_size: batch,
            null_flip_one_in: Some(3),
            ..FaultConfig::default()
        };
        inject(s, flips);
        let by_rows = drain(s, None, false).unwrap().concat();
        let counted = s.fault_injector().unwrap().nulls_injected();
        s.fault_injector().unwrap().reset();
        let by_columns = drain(s, None, true).unwrap().concat();
        assert_eq!(
            s.fault_injector().unwrap().nulls_injected(),
            counted,
            "{ctx}: nulls_injected"
        );
        let by_rows_refs: Vec<&Vec<Value>> = by_rows.iter().collect();
        assert_rows_eq(&by_columns, &by_rows_refs, &format!("{ctx}: flipped forms"));
        for (got, want) in by_rows.iter().zip(&want) {
            for (c, (g, w)) in got.iter().zip(want.iter()).enumerate() {
                assert!(g.is_null() || bits(g) == bits(w), "{ctx}: column {c}");
                assert!(
                    !(g.is_null() && (c == ID || c == N)),
                    "{ctx}: NOT NULL flipped"
                );
            }
        }
        match &flipped_image {
            None => flipped_image = Some((by_rows, counted)),
            Some((image, count)) => {
                let image: Vec<&Vec<Value>> = image.iter().collect();
                assert_rows_eq(
                    &by_rows,
                    &image,
                    &format!("{ctx}: flips depend on batch size"),
                );
                assert_eq!(counted, *count, "{ctx}: flip count depends on batch size");
            }
        }

        // A failing Nth batch: the same prefix, then the same error.
        let batches = want.len().div_ceil(size) as u64;
        if batches > 0 {
            let nth = rng.below(batches);
            inject(
                s,
                FaultConfig {
                    batch_size: batch,
                    fail_nth_batch: Some(nth),
                    ..FaultConfig::default()
                },
            );
            let by_rows = drain(s, None, false).unwrap_err();
            assert_eq!(s.fault_injector().unwrap().failures_injected(), 1);
            s.fault_injector().unwrap().reset();
            let by_columns = drain(s, None, true).unwrap_err();
            assert_eq!(by_rows, by_columns, "{ctx}: failing batch {nth}");
            assert!(
                by_rows.starts_with(&format!("{nth} batches, then ")),
                "{ctx}: {by_rows}"
            );
            let fault = format!("injected fault: scan batch {nth} of table t failed");
            assert!(by_rows.ends_with(&fault), "{ctx}: {by_rows}");
        }
    }
    s.set_fault_injector(None);
}

/// What a snapshot must keep satisfying while the writer moves on (and
/// the first part of [`check`]): rows with RowIDs, the default scan's
/// shape, and the statistics.
fn check_snapshot(s: &Storage, model: &Model, ctx: &str) {
    let table = s.table_data("T").unwrap();
    let want: Vec<&Vec<Value>> = model.rows.iter().map(|r| &r.values).collect();
    assert_eq!(table.len(), model.rows.len(), "{ctx}");
    assert_eq!(table.is_empty(), model.rows.is_empty(), "{ctx}");
    let rows: Vec<Row> = table.rows().collect();
    let ids: Vec<u64> = rows.iter().map(|r| r.row_id).collect();
    let want_ids: Vec<u64> = model.rows.iter().map(|r| r.row_id).collect();
    assert_eq!(ids, want_ids, "{ctx}: RowIDs");
    let values: Vec<Vec<Value>> = rows.into_iter().map(|r| r.values).collect();
    assert_rows_eq(&values, &want, &format!("{ctx}: rows()"));
    let values: Vec<Vec<Value>> = table.value_rows().collect();
    assert_rows_eq(&values, &want, &format!("{ctx}: value_rows()"));

    // The default scan hands out blocks: every batch but the last is
    // full, columns are typed by the declared type even when they hold
    // nothing but NULL, and one dictionary serves the whole scan.
    let mut cursor = s.open_scan("T").unwrap();
    assert_eq!(cursor.total_rows(), model.rows.len());
    let mut seen = 0;
    let mut dicts: Vec<Option<Arc<gbj_storage::StringDict>>> = vec![None; TYPES.len()];
    while let Some(batch) = cursor.next_columnar().unwrap() {
        let last = seen + batch.len() == model.rows.len();
        assert!(
            batch.len() == BLOCK || (last && batch.len() < BLOCK),
            "{ctx}"
        );
        for (c, data_type) in TYPES.iter().enumerate() {
            match (batch.column(c).unwrap(), data_type) {
                (ColumnVector::Int { .. }, DataType::Int64)
                | (ColumnVector::Float { .. }, DataType::Float64)
                | (ColumnVector::Bool { .. }, DataType::Boolean) => {}
                (ColumnVector::Dict { dict, .. }, DataType::Utf8) => {
                    let first = dicts[c].get_or_insert_with(|| Arc::clone(dict));
                    assert!(Arc::ptr_eq(first, dict), "{ctx}: one dictionary per scan");
                }
                (other, _) => panic!("{ctx}: column {c} scanned as {other:?}"),
            }
        }
        let want = &want[seen..seen + batch.len()];
        assert_rows_eq(&batch.to_rows(), want, &format!("{ctx}: default scan"));
        seen += batch.len();
    }
    assert_eq!(seen, model.rows.len(), "{ctx}");

    stats_oracle::assert_stats(table, &TYPES, &want, ctx);
    for ordinals in [vec![S, I], vec![F], vec![B, P, E], vec![ID]] {
        stats_oracle::assert_joint_ndv(table, &want, &ordinals, ctx);
    }
}

fn id_between(lo: i64, hi: i64) -> Expr {
    Expr::bare("id")
        .binary(BinaryOp::GtEq, Expr::lit(lo))
        .and(Expr::bare("id").binary(BinaryOp::Lt, Expr::lit(hi)))
}

/// Which model rows a DELETE takes.
type Doomed = Box<dyn Fn(&Row) -> bool>;

/// A random id range covering about `share` of the live keys.
fn some_ids(model: &Model, rng: &mut Rng, share: u64) -> (i64, i64) {
    let lo = rng.below(model.next_id.max(1) as u64) as i64;
    (
        lo,
        lo + 1 + rng.below((model.next_id as u64 / share).max(1)) as i64,
    )
}

fn run(initial_rows: usize, steps: usize, seed: u64) {
    let mut rng = Rng(seed);
    let mut s = storage();
    let mut model = Model::default();
    for _ in 0..initial_rows {
        let row = model.gen_row(&mut rng);
        assert_eq!(s.insert("T", row.clone()).unwrap(), model.push(row));
    }
    check(
        &mut s,
        &model,
        &mut rng,
        &format!("{initial_rows} rows loaded"),
    );

    let mut snapshots: Vec<(Storage, Model, String)> = Vec::new();
    for step in 0..steps {
        let op = rng.below(100);
        let ctx = format!("{initial_rows} rows, seed {seed}, step {step} (op {op})");
        match op {
            // One row, or a burst that may cross a block boundary.
            0..=39 => {
                let burst = if op < 25 { 1 } else { 1 + rng.below(40) };
                for _ in 0..burst {
                    let row = model.gen_row(&mut rng);
                    assert_eq!(
                        s.insert("T", row.clone()).unwrap(),
                        model.push(row),
                        "{ctx}"
                    );
                }
            }
            // Refused: nothing stored, no RowID spent, the dictionary's
            // new string (if any) used by no row.
            40..=59 => {
                let mut row = model.gen_row(&mut rng);
                row[S] = Value::Str(format!("refused at step {step}"));
                match rng.below(4) {
                    0 if !model.rows.is_empty() => {
                        let taken = rng.below(model.rows.len() as u64) as usize;
                        row[ID] = model.rows[taken].values[ID].clone();
                    }
                    1 => row[N] = Value::Null,
                    2 => row[N] = Value::Int(-1),
                    _ => row[P] = Value::Int(PARENTS + rng.below(3) as i64),
                }
                let epoch = s.epoch();
                let err = s.insert("T", row).unwrap_err();
                assert_eq!(err.kind(), "constraint", "{ctx}: {err}");
                assert_eq!(s.epoch(), epoch, "{ctx}");
            }
            // DELETE a key range — or every user of one string.
            60..=74 => {
                let (predicate, dead): (Expr, Doomed) = if rng.one_in(3) {
                    let victim = rng.pick(&["", "a", "b", "héllo", "n1", "n2"]);
                    let predicate = Expr::bare("s").eq(Expr::lit(victim));
                    (
                        predicate,
                        Box::new(move |r| r.values[S] == Value::str(victim)),
                    )
                } else {
                    let (lo, hi) = some_ids(&model, &mut rng, 4);
                    let dead = move |r: &Row| matches!(r.values[ID], Value::Int(id) if (lo..hi).contains(&id));
                    (id_between(lo, hi), Box::new(dead))
                };
                let before = model.rows.len();
                model.rows.retain(|r| !dead(r));
                let deleted = s.delete("T", Some(&predicate)).unwrap();
                assert_eq!(deleted, before - model.rows.len(), "{ctx}");
            }
            // UPDATE a key range: a new string, a NULL, a float.
            75..=89 => {
                let (lo, hi) = some_ids(&model, &mut rng, 6);
                let (column, name, value) = match rng.below(3) {
                    0 => (S, "s", Value::Str(format!("updated at step {step}"))),
                    1 => (I, "i", Value::Null),
                    _ => (F, "f", Value::Float(-0.0)),
                };
                let mut updated = 0;
                for row in &mut model.rows {
                    if matches!(row.values[ID], Value::Int(id) if (lo..hi).contains(&id)) {
                        row.values[column] = value.clone();
                        updated += 1;
                    }
                }
                let set = [(name.to_string(), Expr::Literal(value))];
                let got = s.update("T", &set, Some(&id_between(lo, hi))).unwrap();
                assert_eq!(got, updated, "{ctx}");
            }
            // A snapshot, checked from here on against what it held.
            _ => snapshots.push((s.clone(), model.clone(), ctx.clone())),
        }
        check(&mut s, &model, &mut rng, &ctx);
        for (snapshot, held, taken) in &snapshots {
            check_snapshot(snapshot, held, &format!("snapshot of [{taken}] at [{ctx}]"));
        }
    }
}

#[test]
fn from_empty() {
    run(0, 60, 1);
    run(0, 60, 2);
}

#[test]
fn from_one_row() {
    run(1, 60, 3);
}

#[test]
fn one_row_short_of_a_block() {
    run(1023, 10, 4);
}

#[test]
fn exactly_one_block() {
    run(1024, 10, 5);
}

#[test]
fn one_row_into_the_second_block() {
    run(1025, 10, 6);
}

#[test]
fn one_row_into_the_third_block() {
    run(2049, 8, 7);
}
