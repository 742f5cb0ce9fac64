//! Statistics are a function of the rows, and cost the tail.
//!
//! A table's summary is the fold of its sealed blocks merged with one
//! pass over its tail block, the sealed fold shared by clones and
//! extended by whichever of them fills a block. Two things must then
//! hold whatever the table went through. **What it reads:** tables of
//! 0, 1, 1 023, 1 024, 1 025, 2 049 and 5 000 rows — either side of
//! one, two and four block edges — with a key, a NULL-heavy small
//! domain, the `i64` extremes, an all-NULL column, floats with NaN and
//! both zeros, strings at and past the value-set cap, Booleans and a
//! column past the sketch size, reached by a bulk load, by single-row
//! inserts, by a fork written on both sides and by a seeded churn of
//! inserts, DELETEs, UPDATEs (which leave dictionary entries no live
//! row uses), forks and early joint-count questions, all summarize as
//! `stats_oracle` says their rows do: every exact fact by its scan
//! definition, the estimates by theirs and within their error, the
//! whole summary field for field that of a fresh load. **What it
//! costs:** the counters beside `Storage::stats_builds()` pin that a
//! ten-row insert makes the next summary read the tail block and copies
//! a bounded number of index entries, the same at 4 blocks and at 64.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

mod stats_oracle;

use gbj_catalog::{ColumnDef, Constraint, TableDef};
use gbj_expr::{BinaryOp, Expr};
use gbj_storage::Storage;
use gbj_types::{DataType, Value};
use stats_oracle::BLOCK;

const TYPES: [DataType; 9] = [
    DataType::Int64,   // k: the key, ascending
    DataType::Int64,   // w: 0..40, NULL in a third of the rows
    DataType::Int64,   // ext: i64::MIN / MAX among small values
    DataType::Int64,   // allnull
    DataType::Float64, // f: NaN, 0.0, -0.0, quarters
    DataType::Utf8,    // s16: at the value-set cap
    DataType::Utf8,    // s17: one past it
    DataType::Boolean, // b
    DataType::Int64,   // wide: past the sketch size in a large table
];
const SIZES: [usize; 7] = [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1, 5_000];
/// Column lists whose joint distinct count is asked, in asking order.
const LISTS: [&[usize]; 4] = [&[1, 7], &[0], &[5, 4], &[8, 1, 7]];

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
}

fn row(rng: &mut Rng, k: i64) -> Vec<Value> {
    let ext = match rng.below(10) {
        0 => i64::MIN,
        1 => i64::MAX,
        _ => rng.below(2_000) as i64 - 1_000,
    };
    let f = match rng.below(8) {
        0 => f64::NAN,
        1 => 0.0,
        2 => -0.0,
        _ => (rng.below(100) as f64 - 50.0) / 4.0,
    };
    let mut row = vec![
        Value::Int(k),
        Value::Int(rng.below(40) as i64),
        Value::Int(ext),
        Value::Null,
        Value::Float(f),
        Value::str(format!("s{}", k.rem_euclid(16))),
        Value::str(format!("s{}", k.rem_euclid(17))),
        Value::Bool(rng.below(2) == 0),
        Value::Int(rng.below(1 << 40) as i64),
    ];
    if rng.below(3) == 0 {
        row[1] = Value::Null;
    }
    for cell in row.iter_mut().skip(2) {
        if rng.below(10) == 0 {
            *cell = Value::Null;
        }
    }
    row
}

fn empty() -> Storage {
    let mut s = Storage::new();
    let columns = TYPES.iter().enumerate();
    let columns = columns.map(|(c, t)| ColumnDef::new(format!("c{c}"), *t));
    let def = TableDef::new("T", columns.collect());
    s.create_table(def.with_constraint(Constraint::PrimaryKey(vec!["c0".into()])))
        .unwrap();
    s
}

/// A storage and the rows it must hold, in order.
struct Pair {
    storage: Storage,
    model: Vec<Vec<Value>>,
}

impl Pair {
    fn new() -> Pair {
        Pair {
            storage: empty(),
            model: Vec::new(),
        }
    }

    fn fork(&self) -> Pair {
        Pair {
            storage: self.storage.clone(),
            model: self.model.clone(),
        }
    }

    fn insert_each(&mut self, rows: Vec<Vec<Value>>) {
        for row in rows {
            self.storage.insert("T", row.clone()).unwrap();
            self.model.push(row);
        }
    }

    fn insert_bulk(&mut self, rows: Vec<Vec<Value>>) {
        self.storage.insert_many("T", rows.clone()).unwrap();
        self.model.extend(rows);
    }

    fn check(&self, ctx: &str) {
        let table = self.storage.table_data("T").unwrap();
        stats_oracle::assert_stats(table, &TYPES, &self.model, ctx);
        for ordinals in LISTS {
            stats_oracle::assert_joint_ndv(table, &self.model, ordinals, ctx);
        }
    }
}

fn rows(rng: &mut Rng, keys: std::ops::Range<i64>) -> Vec<Vec<Value>> {
    keys.map(|k| row(rng, k)).collect()
}

#[test]
fn a_bulk_load_and_single_row_inserts_summarize_alike() {
    for (size, seed) in SIZES.iter().zip(1..) {
        let data = rows(&mut Rng(seed), 0..*size as i64);
        let (mut bulk, mut each) = (Pair::new(), Pair::new());
        bulk.insert_bulk(data.clone());
        each.insert_each(data);
        bulk.check(&format!("{size} rows in bulk"));
        each.check(&format!("{size} rows one by one"));
        let table = |p: &Pair| p.storage.table_data("T").unwrap().stats().clone();
        assert_eq!(table(&bulk), table(&each), "{size} rows");
    }
}

/// Half the rows, a fork, and both sides written past the next block
/// edge with different rows — the fork in bulk, the original row by
/// row; a joint count asked before the fork is carried by both.
#[test]
fn a_fork_written_on_both_sides_summarizes_its_own_rows() {
    for (size, seed) in SIZES.iter().zip(11..) {
        let mut rng = Rng(seed);
        let half = (*size / 2) as i64;
        let mut ours = Pair::new();
        ours.insert_bulk(rows(&mut rng, 0..half));
        if size % 2 == 0 {
            ours.check(&format!("{size} rows: before the fork"));
        }
        let mut theirs = ours.fork();
        ours.insert_each(rows(&mut rng, half..*size as i64));
        theirs.insert_bulk(rows(&mut rng, 1_000_000..1_000_000 + *size as i64 - half));
        ours.check(&format!("{size} rows: the original"));
        theirs.check(&format!("{size} rows: the fork"));
        // And a fork of the fork, written after its parent moved on.
        let mut third = theirs.fork();
        theirs.insert_each(rows(&mut rng, 2_000_000..2_000_700));
        third.insert_each(rows(&mut rng, -300..0));
        theirs.check(&format!("{size} rows: the fork, 700 later"));
        third.check(&format!("{size} rows: the fork's fork"));
    }
}

fn key_between(lo: i64, hi: i64) -> Expr {
    let at_least = Expr::bare("c0").binary(BinaryOp::GtEq, Expr::lit(lo));
    at_least.and(Expr::bare("c0").binary(BinaryOp::Lt, Expr::lit(hi)))
}

/// A seeded interleaving of everything that changes a table, topped up
/// to each size: inserts one by one and in bursts, DELETEs and UPDATEs
/// of key ranges (the UPDATEs rename strings, so the dictionary keeps
/// entries no live row uses), forks that are kept and checked at the
/// end, and joint counts asked in the middle.
#[test]
fn churned_tables_summarize_as_a_fresh_load_of_their_rows() {
    for (size, seed) in SIZES.iter().zip(21..) {
        let mut rng = Rng(seed);
        let mut pair = Pair::new();
        let mut kept: Vec<(Pair, String)> = Vec::new();
        let mut next_key = 0i64;
        for step in 0..24 {
            let ctx = format!("{size} rows, seed {seed}, step {step}");
            match rng.below(8) {
                0..=2 => {
                    let n = 1 + rng.below(*size as u64 / 4 + 40) as i64;
                    let new = rows(&mut rng, next_key..next_key + n);
                    next_key += n;
                    if rng.below(2) == 0 {
                        pair.insert_each(new);
                    } else {
                        pair.insert_bulk(new);
                    }
                }
                3 => {
                    let lo = rng.below(next_key.max(1) as u64) as i64;
                    let hi = lo + 1 + rng.below(next_key.max(1) as u64 / 5 + 1) as i64;
                    let doomed = key_between(lo, hi);
                    pair.storage.delete("T", Some(&doomed)).unwrap();
                    let key =
                        |r: &Vec<Value>| matches!(r[0], Value::Int(k) if (lo..hi).contains(&k));
                    pair.model.retain(|r| !key(r));
                }
                4 => {
                    let lo = rng.below(next_key.max(1) as u64) as i64;
                    let hi = lo + 1 + rng.below(next_key.max(1) as u64 / 3 + 1) as i64;
                    let renamed = format!("renamed at {step}");
                    let set = [
                        ("c5".to_string(), Expr::lit(renamed.as_str())),
                        ("c1".to_string(), Expr::lit(7i64)),
                    ];
                    let range = key_between(lo, hi);
                    pair.storage.update("T", &set, Some(&range)).unwrap();
                    for r in &mut pair.model {
                        if matches!(r[0], Value::Int(k) if (lo..hi).contains(&k)) {
                            r[5] = Value::str(renamed.clone());
                            r[1] = Value::Int(7);
                        }
                    }
                }
                5 => kept.push((pair.fork(), ctx)),
                6 => {
                    let table = pair.storage.table_data("T").unwrap();
                    let list = LISTS[rng.below(LISTS.len() as u64) as usize];
                    stats_oracle::assert_joint_ndv(table, &pair.model, list, &ctx);
                }
                _ => pair.check(&ctx),
            }
        }
        // Top up (or cut down) to the size under test.
        let held = pair.model.len();
        if held < *size {
            let n = (*size - held) as i64;
            pair.insert_each(rows(&mut rng, next_key..next_key + n));
        } else if held > *size {
            let Value::Int(cut) = pair.model[*size][0] else {
                panic!("keys are integers");
            };
            pair.storage
                .delete("T", Some(&key_between(cut, i64::MAX)))
                .unwrap();
            pair.model.truncate(*size);
        }
        assert_eq!(pair.model.len(), *size);
        pair.check(&format!("{size} rows, seed {seed}: churned"));
        for (fork, ctx) in &kept {
            fork.check(&format!("{ctx}: a fork kept to the end"));
        }
    }
}

/// `T` with `rows` rows, summarized, and a snapshot of it.
fn summarized(rows_held: usize) -> (Storage, Storage) {
    let mut pair = Pair::new();
    pair.insert_bulk(rows(&mut Rng(7), 0..rows_held as i64));
    let table = pair.storage.table_data("T").unwrap();
    let _ = (table.stats(), table.joint_ndv(LISTS[0]));
    let snapshot = pair.storage.clone();
    (pair.storage, snapshot)
}

/// What a ten-row INSERT after a snapshot costs, at 4 blocks and at 64:
/// the next summary reads the tail block and nothing else, the index
/// copies a few hundred entries — and a summary asked twice is read,
/// not built.
#[test]
fn a_write_costs_the_tail_block_and_a_few_index_sets_at_every_size() {
    let mut costs = Vec::new();
    for blocks in [4, 64] {
        let held = blocks * BLOCK + 500;
        let (mut s, snapshot) = summarized(held);
        let before = (
            s.stats_builds(),
            s.stats_rows_read(),
            s.index_entries_copied(),
        );
        assert_eq!(
            before.1,
            (2 * held) as u64,
            "{blocks} blocks: two passes in all"
        );
        assert_eq!(before.2, 0, "nothing was shared while loading");

        let new = rows(&mut Rng(8), held as i64..held as i64 + 10);
        s.insert_many("T", new).unwrap();
        let copied = s.index_entries_copied();
        assert_eq!(s.stats_rows_read(), before.1, "the write folds nothing");
        let table = s.table_data("T").unwrap();
        assert_eq!(table.stats().rows, held + 10);
        let _ = table.joint_ndv(LISTS[0]);
        let read = s.stats_rows_read() - before.1;
        assert_eq!(
            s.stats_builds() - before.0,
            2,
            "a summary and a joint count"
        );
        assert_eq!(
            read,
            2 * 510,
            "{blocks} blocks: each pass reads the 510-row tail"
        );
        costs.push((read, copied));

        // Asking again, on either side, builds nothing.
        let again = (s.stats_builds(), s.stats_rows_read());
        let _ = (table.stats(), table.joint_ndv(LISTS[0]));
        let theirs = snapshot.table_data("T").unwrap();
        assert_eq!(theirs.stats().rows, held, "the snapshot keeps its summary");
        let _ = theirs.joint_ndv(LISTS[0]);
        assert_eq!((s.stats_builds(), s.stats_rows_read()), again);

        // A write that seals a block folds that block, once, itself.
        let fill = rows(&mut Rng(9), 1_000_000..1_000_000 + (BLOCK - 510) as i64 + 3);
        s.insert_many("T", fill).unwrap();
        assert_eq!(s.stats_rows_read() - again.1, BLOCK as u64);
        assert_eq!(
            s.table_data("T").unwrap().stats().rows,
            held + 10 + BLOCK - 510 + 3
        );
        assert_eq!(
            s.stats_rows_read() - again.1,
            BLOCK as u64 + 3,
            "the 3-row tail"
        );
    }
    let [(read_4, copied_4), (read_64, copied_64)] = costs[..] else {
        panic!("two sizes");
    };
    assert_eq!(read_4, read_64, "rows read do not follow the table");
    assert!(read_4 / 2 <= (BLOCK + 10) as u64);
    for copied in [copied_4, copied_64] {
        assert!((10..=600).contains(&copied), "{copied_4} and {copied_64}");
    }
}
