//! Seeded inputs: the two schemas' rows, the query texts, and the insert
//! batches. The harness keeps its own compact copy of every row it hands
//! the engine — that copy is what [`crate::expect`] folds over.

use gbj::types::Value;

use crate::rng::SplitMix64;

/// DDL of the star schema shared by `serve_hot`, `analytic_scan`,
/// `mixed_rw` and `scaleout`. `V` and `Tag` are nullable on purpose: the
/// fold has to get NULL aggregates and the NULL group right.
pub const STAR_DDL: &str = "\
CREATE TABLE Dim (
    DimId INTEGER PRIMARY KEY,
    Cat VARCHAR(20) NOT NULL,
    Region VARCHAR(20) NOT NULL);
CREATE TABLE Fact (
    FactId INTEGER PRIMARY KEY,
    DimId INTEGER,
    V INTEGER,
    Tag VARCHAR(20));";

/// DDL of the paper's Example 1 and Example 3 schemas.
pub const PAPER_DDL: &str = include_str!("../corpus/paper_schema.sql");

/// Distinct `Fact.Tag` values (a NULL tag is a 65th group).
pub const TAGS: u64 = 64;
/// `Fact.V` is uniform in `0..V_RANGE`, so `V < 50` keeps 5 % and
/// `V >= 500` keeps half.
pub const V_RANGE: u64 = 1000;
/// One row in this many has a NULL `DimId` / `V` / `Tag`.
const NULL_ONE_IN: u64 = 100;
/// The one machine Example 3 filters on, and the others.
pub const MACHINES: [&str; 3] = ["dragon", "tiger", "crane"];

#[derive(Debug, Clone, PartialEq)]
pub struct Dim {
    pub id: i64,
    pub cat: String,
    pub region: String,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Fact {
    pub id: i64,
    pub dim: Option<i64>,
    pub v: Option<i64>,
    pub tag: Option<u8>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct StarData {
    pub dims: Vec<Dim>,
    pub facts: Vec<Fact>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Dept {
    pub id: i64,
    pub name: String,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Emp {
    pub id: i64,
    pub last_name: String,
    pub dept: i64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct User {
    pub id: i64,
    pub machine: &'static str,
    pub name: String,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Printer {
    pub pno: i64,
    pub speed: i64,
    pub make: String,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Auth {
    pub user: i64,
    pub machine: &'static str,
    pub pno: i64,
    pub usage: i64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct PaperData {
    pub depts: Vec<Dept>,
    pub emps: Vec<Emp>,
    pub users: Vec<User>,
    pub printers: Vec<Printer>,
    pub auths: Vec<Auth>,
}

/// Everything one workload loaded, in the harness's own representation.
#[derive(Debug, Clone, PartialEq)]
pub enum Data {
    Star(StarData),
    Paper(PaperData),
}

/// One new fact row. `DimId` is uniform over twice the dimension's keys,
/// so half the non-NULL facts never join.
fn fact(rng: &mut SplitMix64, id: i64, n_dim: usize) -> Fact {
    let dim = rng.below(2 * n_dim as u64) as i64;
    let v = rng.below(V_RANGE) as i64;
    let tag = rng.below(TAGS) as u8;
    Fact {
        id,
        dim: (!rng.one_in(NULL_ONE_IN)).then_some(dim),
        v: (!rng.one_in(NULL_ONE_IN)).then_some(v),
        tag: (!rng.one_in(NULL_ONE_IN)).then_some(tag),
    }
}

pub fn star(seed: u64, n_fact: usize, n_dim: usize) -> StarData {
    let mut rng = SplitMix64::derive(seed, 1);
    let cats = (n_dim / 10).clamp(2, 20) as u64;
    let dims = (0..n_dim as i64)
        .map(|id| Dim {
            id,
            cat: format!("cat{:02}", rng.below(cats)),
            region: format!("region{}", rng.below(8)),
        })
        .collect();
    let facts = (0..n_fact as i64)
        .map(|id| fact(&mut rng, id, n_dim))
        .collect();
    StarData { dims, facts }
}

/// The `batch`-th insert batch of `rows` new facts with ids past the
/// loaded ones and past every other batch. A pure function of its
/// arguments, so the run and the check regenerate the same rows.
pub fn fact_batch(seed: u64, batch: u64, rows: usize, loaded: usize, n_dim: usize) -> Vec<Fact> {
    let mut rng = SplitMix64::derive(seed, 1000 + batch);
    let first = loaded as i64 + batch as i64 * rows as i64;
    (0..rows as i64)
        .map(|i| fact(&mut rng, first + i, n_dim))
        .collect()
}

pub fn paper(seed: u64, n_emp: usize) -> PaperData {
    let mut rng = SplitMix64::derive(seed, 2);
    let n_dept = (n_emp / 15).max(4);
    // Names repeat across departments, so grouping by `Name` alone (the
    // refusal template) really merges groups that `DeptID, Name` keeps
    // apart.
    let names = (n_dept as u64 * 2 / 3).max(2);
    let depts: Vec<Dept> = (0..n_dept as i64)
        .map(|id| Dept {
            id,
            name: format!("dept{:02}", rng.below(names)),
        })
        .collect();
    let emps = (0..n_emp as i64)
        .map(|id| emp(&mut rng, id, n_dept))
        .collect();
    let n_user = (n_emp / 5).max(4);
    let mut users = Vec::new();
    for id in 0..n_user as i64 {
        for machine in MACHINES {
            if machine == "dragon" || rng.one_in(2) {
                users.push(User {
                    id,
                    machine,
                    name: format!("user{:03}", rng.below(n_user as u64)),
                });
            }
        }
    }
    let printers: Vec<Printer> = (0..10)
        .map(|pno| Printer {
            pno,
            speed: 1 + rng.below(40) as i64,
            make: format!("make{}", rng.below(4)),
        })
        .collect();
    // About |users|·10/5 rows: ~240 at full size, under the 300-row cap.
    let mut auths = Vec::new();
    for u in &users {
        for p in &printers {
            if rng.one_in(5) {
                auths.push(Auth {
                    user: u.id,
                    machine: u.machine,
                    pno: p.pno,
                    usage: rng.below(V_RANGE) as i64,
                });
            }
        }
    }
    PaperData {
        depts,
        emps,
        users,
        printers,
        auths,
    }
}

fn emp(rng: &mut SplitMix64, id: i64, n_dept: usize) -> Emp {
    Emp {
        id,
        last_name: format!("name{:03}", rng.below(500)),
        dept: rng.below(n_dept as u64) as i64,
    }
}

/// The `batch`-th insert batch of new employees (see [`fact_batch`]).
pub fn emp_batch(seed: u64, batch: u64, rows: usize, loaded: usize, n_dept: usize) -> Vec<Emp> {
    let mut rng = SplitMix64::derive(seed, 2000 + batch);
    let first = loaded as i64 + batch as i64 * rows as i64;
    (0..rows as i64)
        .map(|i| emp(&mut rng, first + i, n_dept))
        .collect()
}

fn opt_int(v: Option<i64>) -> Value {
    v.map_or(Value::Null, Value::Int)
}

pub fn tag_name(tag: u8) -> String {
    format!("tag{tag:02}")
}

impl Dim {
    pub fn row(&self) -> Vec<Value> {
        vec![
            Value::Int(self.id),
            Value::str(&self.cat),
            Value::str(&self.region),
        ]
    }
}

impl Fact {
    pub fn row(&self) -> Vec<Value> {
        vec![
            Value::Int(self.id),
            opt_int(self.dim),
            opt_int(self.v),
            self.tag.map_or(Value::Null, |t| Value::Str(tag_name(t))),
        ]
    }

    fn sql_tuple(&self) -> String {
        let int = |v: Option<i64>| v.map_or("NULL".to_string(), |v| v.to_string());
        let tag = self
            .tag
            .map_or("NULL".to_string(), |t| format!("'{}'", tag_name(t)));
        format!("({}, {}, {}, {tag})", self.id, int(self.dim), int(self.v))
    }
}

impl Emp {
    pub fn row(&self) -> Vec<Value> {
        vec![
            Value::Int(self.id),
            Value::str(&self.last_name),
            Value::Int(self.dept),
        ]
    }
}

/// `INSERT INTO Fact VALUES (…), (…)` for one batch.
pub fn fact_insert_sql(batch: &[Fact]) -> String {
    let tuples: Vec<String> = batch.iter().map(Fact::sql_tuple).collect();
    format!("INSERT INTO Fact VALUES {}", tuples.join(", "))
}

/// `INSERT INTO Employee VALUES (…), (…)` for one batch.
pub fn emp_insert_sql(batch: &[Emp]) -> String {
    let tuples: Vec<String> = batch
        .iter()
        .map(|e| format!("({}, '{}', {})", e.id, e.last_name, e.dept))
        .collect();
    format!("INSERT INTO Employee VALUES {}", tuples.join(", "))
}

/// One read of a workload: a template plus its seeded literal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Query {
    /// Join, `GROUP BY D.DimId`: TestFD certifies, eager wins.
    FaninKey,
    /// Join + `F.V >= 500`, `GROUP BY D.Cat`: a string group key that is
    /// not a key of `Dim`.
    JoinCat,
    /// Single table, `F.V < 50`, `GROUP BY F.Tag`: a 5 % selective scan.
    FilterTag,
    /// Example 1 with `E.EmpID >= min_emp`.
    Example1 { min_emp: i64 },
    /// Theorem 2: the select list is a subset of the grouping columns.
    Thm2Subset { min_emp: i64 },
    /// Theorem 2: `SELECT DISTINCT` over the same.
    Thm2Distinct { min_emp: i64 },
    /// Example 3 with `A.Usage >= min_usage`.
    Example3 { min_usage: i64 },
    /// Grouping by `D.Name` alone: FD2 does not hold, TestFD refuses.
    Refusal { min_emp: i64 },
}

/// Template names in the order `tpl.<name>.p50_ms` lists them.
pub const TEMPLATES: [&str; 8] = [
    "fanin_key",
    "join_cat",
    "filter_tag",
    "example1",
    "thm2_subset",
    "thm2_distinct",
    "example3",
    "refusal",
];

impl Query {
    pub fn template(&self) -> &'static str {
        match self {
            Query::FaninKey => "fanin_key",
            Query::JoinCat => "join_cat",
            Query::FilterTag => "filter_tag",
            Query::Example1 { .. } => "example1",
            Query::Thm2Subset { .. } => "thm2_subset",
            Query::Thm2Distinct { .. } => "thm2_distinct",
            Query::Example3 { .. } => "example3",
            Query::Refusal { .. } => "refusal",
        }
    }

    pub fn sql(&self) -> String {
        const EMP_DEPT: &str = "FROM Employee E, Department D WHERE E.DeptID = D.DeptID";
        match self {
            Query::FaninKey => "SELECT D.DimId, COUNT(F.FactId), SUM(F.V) \
                 FROM Fact F, Dim D WHERE F.DimId = D.DimId GROUP BY D.DimId"
                .to_string(),
            Query::JoinCat => "SELECT D.Cat, COUNT(F.FactId), SUM(F.V) \
                 FROM Fact F, Dim D WHERE F.DimId = D.DimId AND F.V >= 500 GROUP BY D.Cat"
                .to_string(),
            Query::FilterTag => "SELECT F.Tag, COUNT(F.FactId), MIN(F.V) \
                 FROM Fact F WHERE F.V < 50 GROUP BY F.Tag"
                .to_string(),
            Query::Example1 { min_emp } => format!(
                "SELECT D.DeptID, D.Name, COUNT(E.EmpID) {EMP_DEPT} \
                 AND E.EmpID >= {min_emp} GROUP BY D.DeptID, D.Name"
            ),
            Query::Thm2Subset { min_emp } => format!(
                "SELECT D.Name, COUNT(E.EmpID) {EMP_DEPT} \
                 AND E.EmpID >= {min_emp} GROUP BY D.DeptID, D.Name"
            ),
            Query::Thm2Distinct { min_emp } => format!(
                "SELECT DISTINCT D.Name, COUNT(E.EmpID) {EMP_DEPT} \
                 AND E.EmpID >= {min_emp} GROUP BY D.DeptID, D.Name"
            ),
            Query::Example3 { min_usage } => format!(
                "SELECT U.UserId, U.UserName, SUM(A.Usage), MAX(P.Speed), MIN(P.Speed) \
                 FROM UserAccount U, PrinterAuth A, Printer P \
                 WHERE U.UserId = A.UserId AND U.Machine = A.Machine \
                 AND A.PNo = P.PNo AND U.Machine = 'dragon' AND A.Usage >= {min_usage} \
                 GROUP BY U.UserId, U.UserName"
            ),
            Query::Refusal { min_emp } => format!(
                "SELECT D.Name, COUNT(E.EmpID) {EMP_DEPT} \
                 AND E.EmpID >= {min_emp} GROUP BY D.Name"
            ),
        }
    }
}

/// The three star templates, in cycle order.
pub const STAR_QUERIES: [Query; 3] = [Query::FaninKey, Query::JoinCat, Query::FilterTag];

/// `n` distinct paper-schema texts cycling the five templates, each with
/// its own seeded literal. Literals are distinct per template, so the
/// texts are distinct; they stay in the lower half of their column's
/// range, so no query comes back empty.
pub fn paper_queries(seed: u64, n: usize, n_emp: usize) -> Vec<Query> {
    let mut rng = SplitMix64::derive(seed, 3);
    let per_template = n.div_ceil(5);
    let mut literals = |range: u64| -> Vec<i64> {
        // A seeded sample without replacement from `0..range`.
        let mut pool: Vec<i64> = (0..range.max(per_template as u64) as i64).collect();
        for i in 0..per_template {
            let j = i + rng.below((pool.len() - i) as u64) as usize;
            pool.swap(i, j);
        }
        pool.truncate(per_template);
        pool
    };
    let emp_range = (n_emp as u64 / 2).max(1);
    let [ex1, subset, distinct, refusal] = [(); 4].map(|()| literals(emp_range));
    let ex3 = literals(V_RANGE / 2);
    (0..n)
        .map(|i| {
            let k = i / 5;
            match i % 5 {
                0 => Query::Example1 { min_emp: ex1[k] },
                1 => Query::Thm2Subset { min_emp: subset[k] },
                2 => Query::Thm2Distinct {
                    min_emp: distinct[k],
                },
                3 => Query::Example3 { min_usage: ex3[k] },
                _ => Query::Refusal {
                    min_emp: refusal[k],
                },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn generators_are_deterministic_per_seed_and_differ_across_seeds() {
        assert_eq!(star(7, 500, 20), star(7, 500, 20));
        assert_ne!(star(7, 500, 20), star(8, 500, 20));
        assert_eq!(paper(7, 120), paper(7, 120));
        assert_ne!(paper(7, 120), paper(8, 120));
        assert_eq!(paper_queries(7, 96, 300), paper_queries(7, 96, 300));
        assert_ne!(paper_queries(7, 96, 300), paper_queries(8, 96, 300));
        assert_eq!(fact_batch(7, 3, 10, 500, 20), fact_batch(7, 3, 10, 500, 20));
        assert_ne!(fact_batch(7, 3, 10, 500, 20), fact_batch(7, 4, 10, 500, 20));
    }

    #[test]
    fn star_data_has_the_stated_shape() {
        let d = star(1, 20_000, 100);
        let nulls = d.facts.iter().filter(|f| f.dim.is_none()).count();
        assert!((100..400).contains(&nulls), "~1 % NULL keys, got {nulls}");
        let joining = d
            .facts
            .iter()
            .filter(|f| f.dim.is_some_and(|k| k < 100))
            .count();
        assert!(
            (9_000..11_000).contains(&joining),
            "half join, got {joining}"
        );
        assert!(d.facts.iter().any(|f| f.tag.is_none()));
        assert!(d.facts.iter().any(|f| f.v.is_none()));
        let tags: BTreeSet<_> = d.facts.iter().filter_map(|f| f.tag).collect();
        assert_eq!(tags.len(), TAGS as usize);
    }

    #[test]
    fn paper_data_respects_its_keys_and_sizes() {
        let d = paper(1, 300);
        assert_eq!(d.emps.len(), 300);
        assert!((150..=300).contains(&d.auths.len()), "{}", d.auths.len());
        let users: BTreeSet<_> = d.users.iter().map(|u| (u.id, u.machine)).collect();
        assert_eq!(users.len(), d.users.len(), "UserAccount key is unique");
        let auths: BTreeSet<_> = d.auths.iter().map(|a| (a.user, a.machine, a.pno)).collect();
        assert_eq!(auths.len(), d.auths.len(), "PrinterAuth key is unique");
        assert!(d.auths.iter().all(|a| users.contains(&(a.user, a.machine))));
        let names: BTreeSet<_> = d.depts.iter().map(|d| &d.name).collect();
        assert!(names.len() < d.depts.len(), "department names repeat");
    }

    #[test]
    fn paper_texts_are_distinct_and_batches_do_not_collide() {
        let texts: BTreeSet<String> = paper_queries(1, 96, 300).iter().map(Query::sql).collect();
        assert_eq!(texts.len(), 96);
        let a = fact_batch(1, 0, 10, 500, 20);
        let b = fact_batch(1, 1, 10, 500, 20);
        assert_eq!(a[0].id, 500);
        assert_eq!(b[0].id, 510);
    }
}
