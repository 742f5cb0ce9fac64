//! Sharing is real, and is broken exactly where it must be.
//!
//! A scan hands out the stored blocks, a clone shares them, and a write
//! copies one block — this suite checks each of those by address, and
//! checks that the copy happens wherever a reader could otherwise see a
//! write: (a) two scans of one table return the *same* value buffers
//! and one dictionary; (b) after a clone and one insert only the tail
//! block differs, and the clone keeps its rows, and decodes its own
//! strings, while the writer appends past a block boundary, deletes,
//! updates and interns new strings; (c) inserting a string the
//! dictionary knows leaves it shared, a new string copies it away from
//! the clone; (d) readers scanning snapshots while the writer appends
//! see one length and one set of rows per scan; (e) a write after a
//! clone copies the key-index sets it inserts into and nothing else,
//! counted by `Storage::index_entries_copied` — each set once, a few
//! dozen keys each, none once the clone is gone. (The same by address,
//! set by set, lives beside the sets:
//! `table::tests::key_sets_are_copied_one_at_a_time`.)

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use std::sync::mpsc;
use std::sync::Arc;

use gbj_catalog::{ColumnDef, Constraint, TableDef};
use gbj_expr::{BinaryOp, Expr};
use gbj_storage::{ColumnVector, ColumnarBatch, Storage, StringDict};
use gbj_types::{DataType, Value};

const BLOCK: usize = 1024;
const TAGS: i64 = 5;

fn row(k: i64) -> Vec<Value> {
    let tag = if k % 11 == 0 {
        Value::Null
    } else {
        Value::Str(format!("tag{}", k % TAGS))
    };
    vec![
        Value::Int(k),
        Value::Float(k as f64 / 4.0),
        Value::Bool(k % 3 == 0),
        tag,
    ]
}

/// `T(k PRIMARY KEY, x, flag, tag)` holding rows `0..rows`.
fn table(rows: i64) -> Storage {
    let mut s = Storage::new();
    s.create_table(
        TableDef::new(
            "T",
            vec![
                ColumnDef::new("k", DataType::Int64),
                ColumnDef::new("x", DataType::Float64),
                ColumnDef::new("flag", DataType::Boolean),
                ColumnDef::new("tag", DataType::Utf8),
            ],
        )
        .with_constraint(Constraint::PrimaryKey(vec!["k".into()])),
    )
    .unwrap();
    s.insert_many("T", (0..rows).map(row)).unwrap();
    s
}

fn scan(s: &Storage) -> Vec<ColumnarBatch> {
    let mut cursor = s.open_scan("T").unwrap();
    let mut batches = Vec::new();
    while let Some(batch) = cursor.next_columnar().unwrap() {
        batches.push(batch);
    }
    batches
}

fn rows_of(s: &Storage) -> Vec<Vec<Value>> {
    scan(s).iter().flat_map(ColumnarBatch::to_rows).collect()
}

/// Where a typed column keeps its values.
fn buffer(column: &ColumnVector) -> usize {
    match column {
        ColumnVector::Int { values, .. } => values.as_ptr() as usize,
        ColumnVector::Float { values, .. } => values.as_ptr() as usize,
        ColumnVector::Bool { values, .. } => values.as_ptr() as usize,
        other => panic!("not a typed column: {other:?}"),
    }
}

fn dict_of(batch: &ColumnarBatch) -> Arc<StringDict> {
    match batch.column(3).unwrap() {
        ColumnVector::Dict { dict, .. } => Arc::clone(dict),
        other => panic!("tag scanned as {other:?}"),
    }
}

/// (a) The hit path copies nothing: two cursors over one table hand out
/// the same vectors, value buffers at the same addresses, and every
/// batch of every scan carries the table's one dictionary.
#[test]
fn two_scans_hand_out_the_same_blocks() {
    let s = table(2 * BLOCK as i64 + 500);
    let (first, second) = (scan(&s), scan(&s));
    assert_eq!(first.len(), 3);
    let dict = dict_of(&first[0]);
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a.len(), b.len());
        for c in 0..3 {
            let (x, y) = (&a.columns()[c], &b.columns()[c]);
            assert!(Arc::ptr_eq(x, y), "column {c} is the stored block");
            assert_eq!(buffer(x), buffer(y), "column {c}");
        }
        assert!(Arc::ptr_eq(&dict, &dict_of(a)) && Arc::ptr_eq(&dict, &dict_of(b)));
    }
    assert_eq!(dict.len(), TAGS as usize);
    // A cursor that cuts its own batches copies, and still agrees.
    let mut cut = s.open_scan("T").unwrap().with_batch_size(BLOCK / 2);
    let half = cut.next_columnar().unwrap().unwrap();
    assert_ne!(buffer(&half.columns()[0]), buffer(&first[0].columns()[0]));
    assert_eq!(half.to_rows(), first[0].to_rows()[..BLOCK / 2]);
}

/// (b) A clone shares every block; the first insert copies the tail
/// block of each column and nothing else; and whatever the writer does
/// next, the clone reads what it held.
#[test]
fn a_write_after_a_clone_copies_the_tail_block_only() {
    let rows = 2 * BLOCK as i64 + 500;
    let mut writer = table(rows);
    let snapshot = writer.clone();
    let held = rows_of(&snapshot);
    for (a, b) in scan(&writer).iter().zip(&scan(&snapshot)) {
        (0..3).for_each(|c| assert!(Arc::ptr_eq(&a.columns()[c], &b.columns()[c])));
    }

    writer.insert("T", row(rows)).unwrap();
    let (ours, theirs) = (scan(&writer), scan(&snapshot));
    for (b, (a, z)) in ours.iter().zip(&theirs).enumerate() {
        for c in 0..3 {
            let shared = Arc::ptr_eq(&a.columns()[c], &z.columns()[c]);
            assert_eq!(shared, b < 2, "block {b} of column {c}");
        }
    }
    assert_eq!((ours[2].len(), theirs[2].len()), (501, 500));

    // Past a block boundary, with strings the snapshot never saw.
    let more = (rows + 1..rows + 700).map(|k| {
        let mut r = row(k);
        r[3] = Value::Str(format!("new{}", k % 7));
        r
    });
    writer.insert_many("T", more).unwrap();
    assert_eq!(rows_of(&snapshot), held);
    // DELETE and UPDATE re-pack the writer's blocks; not the clone's.
    let low = Expr::bare("k").binary(BinaryOp::Lt, Expr::lit(1500i64));
    assert_eq!(writer.delete("T", Some(&low)).unwrap(), 1500);
    assert_eq!(rows_of(&snapshot), held);
    let renamed = [("tag".to_string(), Expr::lit("renamed"))];
    assert_eq!(
        writer.update("T", &renamed, None).unwrap(),
        rows as usize + 700 - 1500
    );
    assert_eq!(rows_of(&snapshot), held);
    assert_eq!(snapshot.table_data("T").unwrap().len(), rows as usize);
    assert_eq!(dict_of(&scan(&snapshot)[0]).len(), TAGS as usize);

    let written = rows_of(&writer);
    assert_eq!(written.len(), rows as usize + 700 - 1500);
    assert!(written.iter().all(|r| r[3] == Value::str("renamed")));
    assert_eq!(written[0][0], Value::Int(1500));
    // The writer's dictionary remembers strings no live row uses.
    assert_eq!(dict_of(&scan(&writer)[0]).len(), TAGS as usize + 7 + 1);
}

/// (c) A dictionary hit mutates nothing, so the dictionary stays
/// shared; the first *new* string copies it, and the clone keeps the
/// one it had.
#[test]
fn only_a_new_string_copies_the_dictionary() {
    let mut writer = table(100);
    let snapshot = writer.clone();
    let shared = dict_of(&scan(&snapshot)[0]);
    assert!(Arc::ptr_eq(&shared, &dict_of(&scan(&writer)[0])));

    writer.insert("T", row(101)).unwrap();
    assert!(
        Arc::ptr_eq(&shared, &dict_of(&scan(&writer)[0])),
        "an interned string leaves the dictionary shared"
    );

    let mut fresh = row(102);
    fresh[3] = Value::str("never seen");
    writer.insert("T", fresh).unwrap();
    let grown = dict_of(&scan(&writer)[0]);
    assert!(!Arc::ptr_eq(&shared, &grown));
    assert_eq!((shared.len(), grown.len()), (5, 6));
    assert_eq!(shared.code_of("never seen"), None);
    assert!(Arc::ptr_eq(&shared, &dict_of(&scan(&snapshot)[0])));
    assert_eq!(rows_of(&snapshot), (0..100).map(row).collect::<Vec<_>>());
    // Unshared, the dictionary grows in place.
    let mut another = row(103);
    another[3] = Value::str("nor this");
    writer.insert("T", another).unwrap();
    assert_eq!(dict_of(&scan(&writer)[0]).len(), 7);
    assert_eq!(rows_of(&writer).last().unwrap()[3], Value::str("nor this"));
}

/// (d) Readers scan snapshots while the writer appends to the blocks
/// they share. Each reader stops in the middle of its scan until the
/// writer has appended again, so every scan straddles a write; it must
/// still see exactly the rows its snapshot held.
#[test]
fn a_scan_of_a_snapshot_straddling_writes_sees_one_length() {
    // As many readers as the engine would use threads under this pass.
    let readers: usize = std::env::var("GBJ_TEST_THREADS")
        .ok()
        .and_then(|n| n.parse().ok())
        .unwrap_or(2);
    let mut writer = table(BLOCK as i64 - 40);
    std::thread::scope(|scope| {
        let mut lanes = Vec::new();
        for _ in 0..readers {
            let (to_reader, snapshots) = mpsc::channel::<Storage>();
            let (mid_scan, to_writer) = mpsc::channel::<()>();
            let (resume, resumed) = mpsc::channel::<()>();
            lanes.push((to_reader, to_writer, resume));
            scope.spawn(move || {
                for snapshot in snapshots {
                    let held = snapshot.table_data("T").unwrap().len();
                    let mut cursor = snapshot.open_scan("T").unwrap().with_batch_size(100);
                    let mut seen = cursor.next_batch().unwrap().unwrap();
                    mid_scan.send(()).unwrap();
                    resumed.recv().unwrap();
                    while let Some(batch) = cursor.next_columnar().unwrap() {
                        seen.extend(batch.to_rows());
                    }
                    assert_eq!(seen.len(), held, "one length per scan");
                    assert_eq!(seen, (0..held as i64).map(row).collect::<Vec<_>>());
                }
            });
        }
        // Each round appends 30 rows: the tail fills, and the table
        // grows into a second and a third block, under the readers.
        let mut next = writer.table_data("T").unwrap().len() as i64;
        for _ in 0..40 {
            for (to_reader, _, _) in &lanes {
                to_reader.send(writer.clone()).unwrap();
            }
            for (_, mid_scan, _) in &lanes {
                mid_scan.recv().unwrap();
            }
            writer.insert_many("T", (next..next + 30).map(row)).unwrap();
            next += 30;
            for (_, _, resume) in &lanes {
                resume.send(()).unwrap();
            }
        }
    });
    assert_eq!(rows_of(&writer).len(), BLOCK - 40 + 40 * 30);
}

/// (e) A clone of the key index copies no entry; a write after it
/// copies the entries of the sets it inserts into (a few dozen keys
/// each, and one more set when the index grows) and nothing else; no
/// set is copied twice; and the clone keeps deciding by the keys it was
/// cloned with.
#[test]
fn a_write_after_a_clone_copies_the_key_sets_it_inserts_into_and_nothing_else() {
    let rows = 20 * BLOCK as i64;
    let mut writer = table(rows);
    assert_eq!(writer.index_entries_copied(), 0, "nothing shared yet");
    let snapshot = writer.clone();
    assert_eq!(writer.index_entries_copied(), 0, "a clone copies pointers");

    writer.insert("T", row(rows)).unwrap();
    let one = writer.index_entries_copied();
    assert!((1..=200).contains(&one), "one or two sets: {one}");
    writer
        .insert_many("T", (rows + 1..rows + 10).map(row))
        .unwrap();
    let ten = writer.index_entries_copied();
    assert!(ten > one && ten <= 600, "at most eleven sets: {ten}");

    // Whatever the writer does next, an entry the clone shares is
    // copied at most once: the count never passes the keys it held.
    writer
        .insert_many("T", (rows + 10..rows + 4_000).map(row))
        .unwrap();
    let many = writer.index_entries_copied();
    assert!(many > ten && many <= rows as u64, "{many} of {rows}");
    // Both sides decide by their own keys.
    let mut snapshot = snapshot;
    assert_eq!(
        writer.insert("T", row(rows + 5)).unwrap_err().kind(),
        "constraint"
    );
    assert_eq!(
        snapshot.insert("T", row(7)).unwrap_err().kind(),
        "constraint"
    );
    snapshot.insert("T", row(rows + 5)).unwrap();
    assert_eq!(rows_of(&snapshot).len(), rows as usize + 1);

    // With the clone gone nothing is shared, and nothing is copied.
    let before = writer.index_entries_copied();
    drop(snapshot);
    writer
        .insert_many("T", (rows + 4_000..rows + 4_100).map(row))
        .unwrap();
    assert_eq!(writer.index_entries_copied(), before);
}
