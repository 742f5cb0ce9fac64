//! The key index against a scan.
//!
//! A PRIMARY KEY / UNIQUE index answers "does this key exist" from
//! bounded sets of raw `i64`s or decoded keys; the oracle here answers
//! it by walking a plain `Vec` of the rows. Seeded statements — single
//! and multi-row INSERTs (a duplicate inside one statement commits the
//! rows before it), DELETEs by value followed by re-inserts of the same
//! key, UPDATEs onto existing keys and onto NULL, and INSERTs into a
//! child table whose FOREIGN KEY is probed through the parent's index —
//! run against both, over one-, two- and three-column keys of `Int64`,
//! `Utf8`, `Float64` and mixed columns, NULL in every position, `1` /
//! `1.0`, `±0.0`, NaN and `2^53` / `2^53 + 1`, with a fork taken before
//! every 25th statement and written independently from then on. Every
//! statement must get the same accept / reject decision and the same
//! error text from both, on every side, and each side's rows must stay
//! its own model's.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use gbj_catalog::{ColumnDef, Constraint, TableDef};
use gbj_expr::Expr;
use gbj_storage::Storage;
use gbj_types::{DataType, Error, GroupKey, Truth, Value};

const T_COLS: [(&str, DataType); 4] = [
    ("a", DataType::Int64),
    ("s", DataType::Utf8),
    ("f", DataType::Float64),
    ("b", DataType::Int64),
];
const C_COLS: [(&str, DataType); 5] = [
    ("id", DataType::Int64),
    ("x", DataType::Int64),
    ("xs", DataType::Utf8),
    ("xf", DataType::Float64),
    ("xb", DataType::Int64),
];
const BIG: i64 = 1 << 53;

/// One schema under test: the keys declared on `T` (PRIMARY KEY or
/// UNIQUE, over `T`'s column ordinals, in declaration order) and the
/// FOREIGN KEY of `C` (its columns, the columns of `T` they reference,
/// and whether the reference names them or defaults to the primary
/// key).
struct Variant {
    name: &'static str,
    keys: &'static [(bool, &'static [usize])],
    fk: (&'static [usize], &'static [usize], bool),
}

const PK: bool = true;
const UNIQUE: bool = false;
const VARIANTS: [Variant; 9] = [
    Variant {
        name: "PRIMARY KEY (a)",
        keys: &[(PK, &[0])],
        fk: (&[1], &[0], false),
    },
    Variant {
        name: "UNIQUE (a)",
        keys: &[(UNIQUE, &[0])],
        fk: (&[1], &[0], true),
    },
    Variant {
        name: "PRIMARY KEY (a), referenced by a DOUBLE PRECISION column",
        keys: &[(PK, &[0])],
        fk: (&[3], &[0], false),
    },
    Variant {
        name: "PRIMARY KEY (s)",
        keys: &[(PK, &[1])],
        fk: (&[2], &[1], false),
    },
    Variant {
        name: "UNIQUE (f)",
        keys: &[(UNIQUE, &[2])],
        fk: (&[3], &[2], true),
    },
    Variant {
        name: "PRIMARY KEY (a, s)",
        keys: &[(PK, &[0, 1])],
        fk: (&[1, 2], &[0, 1], false),
    },
    Variant {
        name: "UNIQUE (a, f, s)",
        keys: &[(UNIQUE, &[0, 2, 1])],
        fk: (&[1, 3, 2], &[0, 2, 1], true),
    },
    Variant {
        name: "PRIMARY KEY (a, b), UNIQUE (s)",
        keys: &[(PK, &[0, 3]), (UNIQUE, &[1])],
        fk: (&[2], &[1], true),
    },
    Variant {
        name: "UNIQUE (b, a), PRIMARY KEY (f, a)",
        keys: &[(UNIQUE, &[3, 0]), (PK, &[2, 0])],
        fk: (&[3, 1], &[2, 0], false),
    },
];

fn names(cols: &[(&str, DataType)], ordinals: &[usize]) -> Vec<String> {
    ordinals.iter().map(|&c| cols[c].0.to_string()).collect()
}

fn storage(v: &Variant) -> Storage {
    let columns = |cols: &[(&str, DataType)]| {
        let defs = cols.iter().map(|(name, t)| ColumnDef::new(*name, *t));
        defs.collect::<Vec<_>>()
    };
    let mut t = TableDef::new("T", columns(&T_COLS));
    for (pk, cols) in v.keys {
        let cols = names(&T_COLS, cols);
        t = t.with_constraint(if *pk {
            Constraint::PrimaryKey(cols)
        } else {
            Constraint::Unique(cols)
        });
    }
    let (from, to, named) = v.fk;
    let c = TableDef::new("C", columns(&C_COLS)).with_constraint(Constraint::ForeignKey {
        columns: names(&C_COLS, from),
        ref_table: "T".into(),
        ref_columns: if named { names(&T_COLS, to) } else { vec![] },
    });
    let mut s = Storage::new();
    s.create_table(t).unwrap();
    s.create_table(c).unwrap();
    s
}

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

    fn pick<T: Clone>(&mut self, from: &[T]) -> T {
        from[self.below(from.len() as u64) as usize].clone()
    }

    /// A cell of a column of type `t`: small domains, so that keys
    /// collide, with the values whose `=ⁿ` comparison is special.
    fn cell(&mut self, t: DataType) -> Value {
        if self.below(8) == 0 {
            return Value::Null;
        }
        match t {
            DataType::Int64 if self.below(4) == 0 => {
                Value::Int(self.pick(&[BIG, BIG + 1, i64::MIN, i64::MAX, 1]))
            }
            DataType::Int64 => Value::Int(self.below(120) as i64),
            DataType::Float64 if self.below(3) == 0 => {
                Value::Float(self.pick(&[0.0, -0.0, f64::NAN, 1.5, BIG as f64, 1.0]))
            }
            DataType::Float64 => Value::Float(self.below(120) as f64),
            DataType::Utf8 if self.below(4) == 0 => {
                Value::str(self.pick(&["", "x", "x ", "é", "0", "k1"]))
            }
            DataType::Utf8 => Value::str(format!("k{}", self.below(120))),
            DataType::Boolean => Value::Bool(self.below(2) == 0),
        }
    }

    fn row(&mut self, cols: &[(&str, DataType)]) -> Vec<Value> {
        cols.iter().map(|(_, t)| self.cell(*t)).collect()
    }
}

fn project(row: &[Value], cols: &[usize]) -> Vec<Value> {
    cols.iter().map(|&c| row[c].clone()).collect()
}

fn full(key: &[Value]) -> bool {
    !key.iter().any(Value::is_null)
}

/// `=ⁿ` on whole keys, as `GroupKey` compares them.
fn same(a: &[Value], b: &[Value]) -> bool {
    GroupKey(a.to_vec()) == GroupKey(b.to_vec())
}

fn refused(message: String) -> String {
    Error::Constraint(message).to_string()
}

/// The rows both tables must hold, and the scan oracle over them.
#[derive(Clone, Default)]
struct Model {
    t: Vec<Vec<Value>>,
    c: Vec<Vec<Value>>,
}

impl Model {
    fn duplicate(cols: &[usize]) -> String {
        refused(format!("duplicate key value for key on columns {cols:?}"))
    }

    /// The first key constraint `rows` (the whole of `T`) break.
    fn broken_key(v: &Variant, rows: &[Vec<Value>]) -> Option<String> {
        for (_, cols) in v.keys {
            let keys: Vec<Vec<Value>> = rows.iter().map(|r| project(r, cols)).collect();
            let keys: Vec<&Vec<Value>> = keys.iter().filter(|k| full(k)).collect();
            let twice = |(i, k): (usize, &&Vec<Value>)| keys[..i].iter().any(|seen| same(seen, k));
            if keys.iter().enumerate().any(twice) {
                return Some(Model::duplicate(cols));
            }
        }
        None
    }

    /// The first key constraint adding `row` to `T` would break.
    fn taken_key(&self, v: &Variant, row: &[Value]) -> Option<String> {
        let taken = |cols: &[usize]| {
            let key = project(row, cols);
            full(&key) && self.t.iter().any(|r| same(&project(r, cols), &key))
        };
        let (_, cols) = v.keys.iter().find(|(_, cols)| taken(cols))?;
        Some(Model::duplicate(cols))
    }

    /// The NOT NULL a row of `T` breaks: PRIMARY KEY columns are.
    fn null_in_primary_key(v: &Variant, row: &[Value]) -> Option<String> {
        let primary = |c: &usize| v.keys.iter().any(|(pk, cols)| *pk && cols.contains(c));
        let null = (0..T_COLS.len()).find(|c| row[*c].is_null() && primary(c))?;
        let text = format!("NULL in NOT NULL column T.{}", T_COLS[null].0);
        Some(refused(text))
    }

    /// The first row of `C` left dangling if `T` held `rows`.
    fn dangling(&self, v: &Variant, rows: &[Vec<Value>]) -> Option<String> {
        let (from, to, _) = v.fk;
        let found = |key: &[Value]| rows.iter().any(|r| same(&project(r, to), key));
        let keys = self.c.iter().map(|r| project(r, from));
        let lost = keys.filter(|k| full(k)).find(|k| !found(k))?;
        let text = format!("cannot modify T: row {lost:?} of C still references it");
        Some(refused(text))
    }

    fn insert_t(&mut self, v: &Variant, row: Vec<Value>) -> Result<usize, String> {
        let refusal = Model::null_in_primary_key(v, &row).or_else(|| self.taken_key(v, &row));
        match refusal {
            Some(error) => Err(error),
            None => {
                self.t.push(row);
                Ok(1)
            }
        }
    }

    fn insert_c(&mut self, v: &Variant, row: Vec<Value>) -> Result<usize, String> {
        let (from, to, _) = v.fk;
        let key = project(&row, from);
        if full(&key) && !self.t.iter().any(|r| same(&project(r, to), &key)) {
            return Err(refused(format!(
                "foreign key violation: C({}) -> T({}) value {key:?} not found",
                names(&C_COLS, from).join(","),
                names(&T_COLS, to).join(","),
            )));
        }
        self.c.push(row);
        Ok(1)
    }

    fn matches(row: &[Value], a: &Value) -> bool {
        row[0].sql_eq(a) == Truth::True
    }

    fn delete_t(&mut self, v: &Variant, a: &Value) -> Result<usize, String> {
        let kept: Vec<Vec<Value>> = self
            .t
            .iter()
            .filter(|r| !Model::matches(r, a))
            .cloned()
            .collect();
        let deleted = self.t.len() - kept.len();
        if deleted == 0 {
            return Ok(0);
        }
        if let Some(error) = self.dangling(v, &kept) {
            return Err(error);
        }
        self.t = kept;
        Ok(deleted)
    }

    fn update_t(
        &mut self,
        v: &Variant,
        col: usize,
        to: &Value,
        a: &Value,
    ) -> Result<usize, String> {
        let mut rows = self.t.clone();
        let mut updated = 0;
        for row in rows.iter_mut().filter(|r| Model::matches(r, a)) {
            row[col] = to.clone();
            if let Some(error) = Model::null_in_primary_key(v, row) {
                return Err(error);
            }
            updated += 1;
        }
        if updated == 0 {
            return Ok(0);
        }
        if let Some(error) = Model::broken_key(v, &rows).or_else(|| self.dangling(v, &rows)) {
            return Err(error);
        }
        self.t = rows;
        Ok(updated)
    }
}

/// One side of the differential: a storage and its model.
struct Side {
    storage: Storage,
    model: Model,
}

fn a_equals(a: &Value) -> Expr {
    Expr::bare("a").eq(Expr::lit(a.clone()))
}

impl Side {
    /// One random statement, against both; the decisions must agree.
    fn step(&mut self, v: &Variant, rng: &mut Rng, ctx: &str) {
        let text = |r: Result<usize, Error>| r.map_err(|e| e.to_string());
        let (s, m) = (&mut self.storage, &mut self.model);
        match rng.below(20) {
            0..=7 => {
                let row = rng.row(&T_COLS);
                let got = text(s.insert("T", row.clone()).map(|_| 1));
                assert_eq!(got, m.insert_t(v, row.clone()), "{ctx}: INSERT {row:?}");
            }
            8..=9 => {
                // Three rows in one statement, often with a repeat: the
                // rows before the first refused one are committed.
                let mut rows: Vec<Vec<Value>> = (0..3).map(|_| rng.row(&T_COLS)).collect();
                if rng.below(3) == 0 {
                    rows[2] = rows[rng.below(2) as usize].clone();
                }
                let got = text(s.insert_many("T", rows.clone()));
                let want = rows
                    .iter()
                    .try_fold(0, |n, row| Ok(n + m.insert_t(v, row.clone())?));
                assert_eq!(got, want, "{ctx}: INSERT {rows:?}");
            }
            10..=13 => {
                let mut row = rng.row(&C_COLS);
                if let Some(parent) = (!m.t.is_empty() && rng.below(2) == 0).then(|| rng.pick(&m.t))
                {
                    // Aim at a key that exists (as the child's type).
                    for (from, to) in v.fk.0.iter().zip(v.fk.1) {
                        row[*from] = match (&parent[*to], C_COLS[*from].1) {
                            (Value::Int(i), DataType::Float64) => Value::Float(*i as f64),
                            (cell, _) => cell.clone(),
                        };
                    }
                }
                let got = text(s.insert("C", row.clone()).map(|_| 1));
                assert_eq!(
                    got,
                    m.insert_c(v, row.clone()),
                    "{ctx}: INSERT INTO C {row:?}"
                );
            }
            14..=16 => {
                let a = rng.cell(DataType::Int64);
                let got = text(s.delete("T", Some(&a_equals(&a))));
                assert_eq!(got, m.delete_t(v, &a), "{ctx}: DELETE WHERE a = {a:?}");
            }
            _ => {
                // Move the rows with one `a` onto another value of a
                // key column: often one that is taken.
                let a = rng.cell(DataType::Int64);
                let (_, cols) = rng.pick(v.keys);
                let col = rng.pick(cols);
                let to = match (!m.t.is_empty() && rng.below(2) == 0).then(|| rng.pick(&m.t)) {
                    Some(taken) => taken[col].clone(),
                    None => rng.cell(T_COLS[col].1),
                };
                let set = [(T_COLS[col].0.to_string(), Expr::lit(to.clone()))];
                let got = text(s.update("T", &set, Some(&a_equals(&a))));
                let want = m.update_t(v, col, &to, &a);
                assert_eq!(
                    got, want,
                    "{ctx}: UPDATE SET {} = {to:?} WHERE a = {a:?}",
                    T_COLS[col].0
                );
            }
        }
    }

    /// The storage holds the model's rows, in order.
    fn check_rows(&self, ctx: &str) {
        let bits = |rows: &[Vec<Value>]| format!("{rows:?}");
        for (table, want) in [("T", &self.model.t), ("C", &self.model.c)] {
            let got: Vec<Vec<Value>> = self
                .storage
                .table_data(table)
                .unwrap()
                .value_rows()
                .collect();
            assert_eq!(bits(&got), bits(want), "{ctx}: rows of {table}");
        }
    }
}

#[test]
fn every_statement_is_decided_as_a_scan_decides_it() {
    for (n, v) in VARIANTS.iter().enumerate() {
        let mut rng = Rng(100 + n as u64);
        let mut sides = vec![Side {
            storage: storage(v),
            model: Model::default(),
        }];
        let (mut accepted, mut refused) = (0, 0);
        for step in 0..700 {
            if step % 25 == 0 && step > 0 {
                // A fork of the main side, written on its own from here;
                // the oldest fork makes room.
                if sides.len() == 4 {
                    sides.remove(1);
                }
                let fork = Side {
                    storage: sides[0].storage.clone(),
                    model: sides[0].model.clone(),
                };
                sides.push(fork);
            }
            for (k, side) in sides.iter_mut().enumerate() {
                let before = side.storage.epoch();
                side.step(v, &mut rng, &format!("{}, step {step}, side {k}", v.name));
                if side.storage.epoch() == before {
                    refused += 1;
                } else {
                    accepted += 1;
                }
            }
            if step % 50 == 49 {
                for (k, side) in sides.iter().enumerate() {
                    side.check_rows(&format!("{}, step {step}, side {k}", v.name));
                }
            }
        }
        // The zoo must have exercised both answers, and grown the main
        // side's index through several splits.
        assert!(
            accepted > 300 && refused > 300,
            "{}: {accepted} / {refused}",
            v.name
        );
        assert!(
            sides[0].model.t.len() > 60,
            "{}: {} rows",
            v.name,
            sides[0].model.t.len()
        );
    }
}
