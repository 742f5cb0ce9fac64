//! A scan split over `n` parts puts every row where placement says, and
//! a sealed block's split is made once and kept exactly as long as it
//! is right.
//!
//! The oracle is the stored rows in position order, each on the part
//! `GroupKey::shard(n)` of its key cells names — or its row ordinal
//! modulo `n` when no key is given. Against it: (a) tables of 1 023,
//! 1 024, 1 025 and 2 049 rows under `Int`, dictionary, two-column and
//! ordinal placement at 2, 3, 4 and 8 parts on one storage, where a
//! split is made on the first scan at a key and part count, served
//! (the same `Arc`) on the next, and made again after another key or
//! count was asked; (b) a fork shares the splits of the blocks it
//! shares, and an append that seals a block splits that side's block
//! alone; (c) DELETE and UPDATE re-pack the table and start its splits
//! afresh, leaving a snapshot its own; (d) a string interned after the
//! split makes the split again, so every batch of a scan carries one
//! dictionary; (e) a batch the cursor cuts or flips is split by the
//! same function, claimed like `next_columnar`'s, and never reads or
//! fills a kept split. Counted by `Storage::blocks_split`.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use std::sync::Arc;

use gbj_catalog::{ColumnDef, Constraint, TableDef};
use gbj_expr::{BinaryOp, Expr};
use gbj_storage::{ColumnVector, FaultConfig, FaultInjector, ScanSplit, Storage, StringDict};
use gbj_types::{DataType, GroupKey, Value};

const BLOCK: usize = 1024;

fn row(k: i64) -> Vec<Value> {
    let tag = if k % 13 == 0 {
        Value::Null
    } else {
        Value::Str(format!("tag{}", k % 7))
    };
    let x = if k % 17 == 0 {
        Value::Null
    } else {
        Value::Float((k % 5) as f64 / 2.0)
    };
    vec![Value::Int(k), x, Value::Bool(k % 3 == 0), tag]
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

/// Every placement the suite sweeps: by an `Int` key, a dictionary key,
/// a two-column key with NULLs in it, and by row ordinal.
const KEYS: [Option<&[usize]>; 4] = [Some(&[0]), Some(&[3]), Some(&[1, 2]), None];

fn split_scan(s: &Storage, key: Option<&[usize]>, n: usize) -> Vec<Arc<ScanSplit>> {
    let mut cursor = s.open_scan("T").unwrap();
    let mut splits = Vec::new();
    while let Some(split) = cursor.next_split(key, n).unwrap() {
        assert_eq!(split.parts().len(), n);
        splits.push(split);
    }
    let held: usize = splits.iter().map(|split| split.rows()).sum();
    assert_eq!(held, cursor.total_rows(), "every row, once");
    splits
}

/// Each part's rows, in scan order.
fn parts_of(splits: &[Arc<ScanSplit>], n: usize) -> Vec<Vec<Vec<Value>>> {
    let mut parts = vec![Vec::new(); n];
    for split in splits {
        for (part, batch) in parts.iter_mut().zip(split.parts()) {
            part.extend(batch.to_rows());
        }
    }
    parts
}

/// `rows` (in position order, the first at ordinal 0) placed by `key`
/// over `n` parts, each part in position order.
fn placed(rows: Vec<Vec<Value>>, key: Option<&[usize]>, n: usize) -> Vec<Vec<Vec<Value>>> {
    let mut parts = vec![Vec::new(); n];
    for (ordinal, row) in rows.into_iter().enumerate() {
        let part = match key {
            Some(ords) => GroupKey(ords.iter().map(|&o| row[o].clone()).collect()).shard(n),
            None => ordinal % n,
        };
        parts[part].push(row);
    }
    parts
}

fn oracle(s: &Storage, key: Option<&[usize]>, n: usize) -> Vec<Vec<Vec<Value>>> {
    placed(s.table_data("T").unwrap().value_rows().collect(), key, n)
}

/// The one dictionary every batch of a scan carries in column `tag`.
fn one_dict(splits: &[Arc<ScanSplit>]) -> Arc<StringDict> {
    let mut dicts =
        splits
            .iter()
            .flat_map(|split| split.parts())
            .map(|batch| match batch.column(3).unwrap() {
                ColumnVector::Dict { dict, .. } => Arc::clone(dict),
                other => panic!("tag is not dictionary-coded: {other:?}"),
            });
    let first = dicts.next().unwrap();
    assert!(
        dicts.all(|d| Arc::ptr_eq(&d, &first)),
        "one scan, one dictionary"
    );
    first
}

/// Whether two scans hold the very same split for sealed block `b`.
fn same_split(a: &[Arc<ScanSplit>], b: &[Arc<ScanSplit>], block: usize) -> bool {
    Arc::ptr_eq(&a[block], &b[block])
}

#[test]
fn each_part_holds_its_rows_in_position_order() {
    for rows in [1023i64, 1024, 1025, 2049] {
        let s = table(rows);
        let sealed = rows as u64 / BLOCK as u64;
        let split_now = || s.blocks_split();
        let mut first: Option<Vec<Arc<ScanSplit>>> = None;
        for key in KEYS {
            for n in [2usize, 3, 4, 8] {
                let ctx = format!("rows={rows} key={key:?} n={n}");
                let before = split_now();
                let splits = split_scan(&s, key, n);
                assert_eq!(parts_of(&splits, n), oracle(&s, key, n), "{ctx}");
                assert_eq!(
                    split_now() - before,
                    sealed,
                    "{ctx}: one split per sealed block"
                );
                one_dict(&splits);
                let again = split_scan(&s, key, n);
                assert_eq!(
                    split_now() - before,
                    sealed,
                    "{ctx}: the second scan is served"
                );
                for b in 0..splits.len() {
                    let kept = (b as u64) < sealed;
                    assert_eq!(same_split(&splits, &again, b), kept, "{ctx}: block {b}");
                }
                first.get_or_insert(splits);
            }
        }
        // Back to the first key and count: made again, not served.
        let (key, n) = (KEYS[0], 2);
        let before = split_now();
        let splits = split_scan(&s, key, n);
        assert_eq!(parts_of(&splits, n), oracle(&s, key, n));
        assert_eq!(split_now() - before, sealed, "rows={rows}: re-declared key");
        let first = first.unwrap();
        assert!((0..splits.len()).all(|b| !same_split(&first, &splits, b)));
    }
}

#[test]
fn a_fork_shares_splits_and_an_append_that_seals_splits_its_own() {
    let (key, n) = (Some(&[0usize][..]), 4);
    let mut writer = table(1500);
    let held = split_scan(&writer, key, n);
    let mut fork = writer.clone();
    let before = writer.blocks_split();
    let forked = split_scan(&fork, key, n);
    assert_eq!(
        writer.blocks_split(),
        before,
        "the fork is served the writer's split"
    );
    assert!(same_split(&held, &forked, 0));

    // Each side appends past the next seal, with different rows.
    writer.insert_many("T", (1500..2100).map(row)).unwrap();
    fork.insert_many("T", (5000..5600).map(row)).unwrap();
    let before = writer.blocks_split();
    let ours = split_scan(&writer, key, n);
    let theirs = split_scan(&fork, key, n);
    assert_eq!(
        writer.blocks_split() - before,
        2,
        "each side splits its own block 1"
    );
    assert_eq!(parts_of(&ours, n), oracle(&writer, key, n));
    assert_eq!(parts_of(&theirs, n), oracle(&fork, key, n));
    assert!(same_split(&held, &ours, 0) && same_split(&held, &theirs, 0));
    assert!(!same_split(&ours, &theirs, 1));
}

#[test]
fn delete_and_update_repack_and_split_afresh() {
    let (key, n) = (Some(&[3usize][..]), 4);
    let mut writer = table(2049);
    let held = split_scan(&writer, key, n);
    let snapshot = writer.clone();

    let low = Expr::bare("k").binary(BinaryOp::Lt, Expr::lit(500i64));
    assert_eq!(writer.delete("T", Some(&low)).unwrap(), 500);
    let before = writer.blocks_split();
    let after_delete = split_scan(&writer, key, n);
    assert_eq!(parts_of(&after_delete, n), oracle(&writer, key, n));
    assert_eq!(
        writer.blocks_split() - before,
        1,
        "1 549 rows: one sealed block"
    );
    assert!(!same_split(&held, &after_delete, 0));

    let renamed = [("tag".to_string(), Expr::lit("renamed"))];
    assert_eq!(writer.update("T", &renamed, None).unwrap(), 1549);
    let before = writer.blocks_split();
    let after_update = split_scan(&writer, key, n);
    assert_eq!(parts_of(&after_update, n), oracle(&writer, key, n));
    assert_eq!(writer.blocks_split() - before, 1);
    assert!(!same_split(&after_delete, &after_update, 0));

    // The snapshot still reads, and is served, its own splits.
    let before = snapshot.blocks_split();
    let old = split_scan(&snapshot, key, n);
    assert_eq!(snapshot.blocks_split(), before);
    assert!(same_split(&held, &old, 0) && same_split(&held, &old, 1));
    assert_eq!(parts_of(&old, n), oracle(&snapshot, key, n));
}

#[test]
fn a_string_interned_after_the_split_leaves_one_dictionary_per_scan() {
    let n = 4;
    for key in KEYS {
        let mut s = table(2049);
        let held = split_scan(&s, key, n);
        let old = one_dict(&held);
        let mut fresh = row(9_999);
        fresh[3] = Value::str("interned after the split");
        s.insert("T", fresh).unwrap();

        let before = s.blocks_split();
        let splits = split_scan(&s, key, n);
        let now = one_dict(&splits);
        assert!(!Arc::ptr_eq(&old, &now), "{key:?}: the dictionary grew");
        assert_eq!(now.code_of("interned after the split"), Some(7));
        assert_eq!(
            s.blocks_split() - before,
            2,
            "{key:?}: both sealed splits remade"
        );
        assert_eq!(parts_of(&splits, n), oracle(&s, key, n), "{key:?}");
        let again = split_scan(&s, key, n);
        assert_eq!(s.blocks_split() - before, 2, "{key:?}: and then served");
        assert!(Arc::ptr_eq(&one_dict(&again), &now));
    }
}

#[test]
fn cut_and_flipped_batches_are_split_by_the_same_function() {
    let n = 4;
    let faults = [
        (Some(7), None),
        (None, Some(3)),
        (Some(BLOCK), Some(5)),
        (Some(500), None),
    ];
    for (batch_size, null_flip_one_in) in faults {
        for key in KEYS {
            let ctx = format!("batch_size={batch_size:?} flips={null_flip_one_in:?} key={key:?}");
            let mut s = table(2049);
            s.set_fault_injector(Some(FaultInjector::new(FaultConfig {
                seed: 5,
                batch_size,
                null_flip_one_in,
                ..FaultConfig::default()
            })));
            // The oracle: the cursor's own batches, as it cut and
            // flipped them, placed row by row at their global ordinals.
            let mut cursor = s.open_scan("T").unwrap();
            let mut rows = Vec::new();
            let mut sizes = Vec::new();
            while let Some(batch) = cursor.next_columnar().unwrap() {
                sizes.push(batch.len());
                rows.extend(batch.to_rows());
            }
            let inj = s.fault_injector().unwrap();
            let served = inj.batches_served();
            inj.reset();
            let splits = split_scan(&s, key, n);
            assert_eq!(parts_of(&splits, n), placed(rows, key, n), "{ctx}");
            let split_sizes: Vec<usize> = splits.iter().map(|sp| sp.rows()).collect();
            assert_eq!(split_sizes, sizes, "{ctx}: the same batches");
            assert_eq!(inj.batches_served(), served, "{ctx}: the same claims");
            assert_eq!(s.blocks_split(), 0, "{ctx}: no kept split read or made");
            one_dict(&splits);
        }
    }
    // An injector that neither cuts nor flips leaves sealed blocks whole:
    // their kept splits are served, and an injected failure lands on the
    // same batch ordinal as on `next_columnar`.
    let mut s = table(3000);
    s.set_fault_injector(Some(FaultInjector::new(FaultConfig {
        seed: 1,
        fail_nth_batch: Some(2),
        ..FaultConfig::default()
    })));
    let mut cursor = s.open_scan("T").unwrap();
    assert!(cursor.next_split(Some(&[0]), n).unwrap().is_some());
    assert!(cursor.next_split(Some(&[0]), n).unwrap().is_some());
    let err = cursor.next_split(Some(&[0]), n).unwrap_err().to_string();
    assert!(err.contains("scan batch 2 of table t failed"), "{err}");
    assert_eq!(s.blocks_split(), 2);
}
