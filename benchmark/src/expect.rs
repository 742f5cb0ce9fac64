//! The independent result check: expected rows of every template from a
//! plain fold over the harness's own copy of the data. Nothing here calls
//! the engine — the engine never grades itself.
//!
//! SQL semantics the fold has to reproduce: a NULL join key matches
//! nothing (`NULL = x` is unknown, and WHERE keeps only true); a NULL
//! grouping value forms one group of its own (the paper's `=ⁿ`);
//! `COUNT(col)`, `SUM`, `MIN` and `MAX` skip NULLs, and `SUM`/`MIN`/`MAX`
//! over no non-NULL value are NULL; a comparison with NULL filters the
//! row out.

use std::collections::{BTreeMap, BTreeSet};

use gbj::types::Value;

use crate::gen::{tag_name, Data, PaperData, Query, StarData};

/// One result cell in the harness's own terms. The derived order is only
/// used to sort both sides the same way before comparing.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Cell {
    Null,
    Int(i64),
    Str(String),
}

pub type Rows = Vec<Vec<Cell>>;

/// The engine's rows as sorted [`Cell`] rows; `None` when a value has a
/// type no template produces (which is then a wrong answer).
pub fn normalise(rows: &[Vec<Value>]) -> Option<Rows> {
    let mut out = rows
        .iter()
        .map(|row| {
            row.iter()
                .map(|v| match v {
                    Value::Null => Some(Cell::Null),
                    Value::Int(i) => Some(Cell::Int(*i)),
                    Value::Str(s) => Some(Cell::Str(s.clone())),
                    Value::Bool(_) | Value::Float(_) => None,
                })
                .collect::<Option<Vec<Cell>>>()
        })
        .collect::<Option<Rows>>()?;
    out.sort();
    Some(out)
}

fn opt(v: Option<i64>) -> Cell {
    v.map_or(Cell::Null, Cell::Int)
}

/// `COUNT(F.FactId)` and `SUM(F.V)` of one group.
#[derive(Default)]
struct CountSum {
    count: i64,
    sum: Option<i64>,
}

impl CountSum {
    fn add(&mut self, v: Option<i64>) {
        self.count += 1;
        if let Some(v) = v {
            self.sum = Some(self.sum.unwrap_or(0) + v);
        }
    }
}

fn star_rows(query: Query, data: &StarData) -> Rows {
    // Dim ids are unique, so the join is a lookup; a fact whose key is
    // NULL or names no dimension joins nothing.
    let dims: BTreeMap<i64, &str> = data.dims.iter().map(|d| (d.id, d.cat.as_str())).collect();
    match query {
        Query::FaninKey => {
            let mut groups: BTreeMap<i64, CountSum> = BTreeMap::new();
            for f in &data.facts {
                if let Some(k) = f.dim.filter(|k| dims.contains_key(k)) {
                    groups.entry(k).or_default().add(f.v);
                }
            }
            groups
                .into_iter()
                .map(|(k, g)| vec![Cell::Int(k), Cell::Int(g.count), opt(g.sum)])
                .collect()
        }
        Query::JoinCat => {
            let mut groups: BTreeMap<&str, CountSum> = BTreeMap::new();
            for f in &data.facts {
                let passes = f.v.is_some_and(|v| v >= 500);
                if let Some(cat) = f.dim.and_then(|k| dims.get(&k)).filter(|_| passes) {
                    groups.entry(cat).or_default().add(f.v);
                }
            }
            groups
                .into_iter()
                .map(|(cat, g)| vec![Cell::Str(cat.to_string()), Cell::Int(g.count), opt(g.sum)])
                .collect()
        }
        Query::FilterTag => {
            // Key `None` is the NULL tag: one group, like any other.
            let mut groups: BTreeMap<Option<u8>, (i64, i64)> = BTreeMap::new();
            for f in &data.facts {
                if let Some(v) = f.v.filter(|v| *v < 50) {
                    let g = groups.entry(f.tag).or_insert((0, v));
                    g.0 += 1;
                    g.1 = g.1.min(v);
                }
            }
            groups
                .into_iter()
                .map(|(tag, (count, min))| {
                    let tag = tag.map_or(Cell::Null, |t| Cell::Str(tag_name(t)));
                    vec![tag, Cell::Int(count), Cell::Int(min)]
                })
                .collect()
        }
        _ => unreachable!("paper-schema template over star data"),
    }
}

/// Employees with `EmpID >= min_emp` counted per department. `DeptID` is
/// NOT NULL and references `Department`, so every employee joins.
fn emp_counts(data: &PaperData, min_emp: i64) -> BTreeMap<i64, i64> {
    let mut counts = BTreeMap::new();
    for e in data.emps.iter().filter(|e| e.id >= min_emp) {
        *counts.entry(e.dept).or_insert(0) += 1;
    }
    counts
}

fn paper_rows(query: Query, data: &PaperData) -> Rows {
    let dept_name = |id: i64| -> Cell {
        let d = data.depts.iter().find(|d| d.id == id);
        Cell::Str(d.map_or_else(String::new, |d| d.name.clone()))
    };
    match query {
        Query::Example1 { min_emp } => emp_counts(data, min_emp)
            .into_iter()
            .map(|(dept, n)| vec![Cell::Int(dept), dept_name(dept), Cell::Int(n)])
            .collect(),
        // One row per (DeptID, Name) group, projected to (Name, count):
        // two same-named departments with equal counts stay two rows …
        Query::Thm2Subset { min_emp } => emp_counts(data, min_emp)
            .into_iter()
            .map(|(dept, n)| vec![dept_name(dept), Cell::Int(n)])
            .collect(),
        // … unless DISTINCT folds them.
        Query::Thm2Distinct { min_emp } => emp_counts(data, min_emp)
            .into_iter()
            .map(|(dept, n)| vec![dept_name(dept), Cell::Int(n)])
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect(),
        Query::Refusal { min_emp } => {
            let mut by_name: BTreeMap<Cell, i64> = BTreeMap::new();
            for (dept, n) in emp_counts(data, min_emp) {
                *by_name.entry(dept_name(dept)).or_insert(0) += n;
            }
            by_name
                .into_iter()
                .map(|(name, n)| vec![name, Cell::Int(n)])
                .collect()
        }
        Query::Example3 { min_usage } => {
            // (sum of usage, max speed, min speed) per dragon user;
            // (UserId, 'dragon') is a key of UserAccount, so grouping by
            // (UserId, UserName) is grouping by UserId.
            let mut groups: BTreeMap<i64, (i64, i64, i64)> = BTreeMap::new();
            for a in &data.auths {
                if a.machine != "dragon" || a.usage < min_usage {
                    continue;
                }
                let Some(p) = data.printers.iter().find(|p| p.pno == a.pno) else {
                    continue;
                };
                let g = groups.entry(a.user).or_insert((0, p.speed, p.speed));
                g.0 += a.usage;
                g.1 = g.1.max(p.speed);
                g.2 = g.2.min(p.speed);
            }
            groups
                .into_iter()
                .filter_map(|(user, (sum, max, min))| {
                    let u = data
                        .users
                        .iter()
                        .find(|u| u.id == user && u.machine == "dragon")?;
                    Some(vec![
                        Cell::Int(user),
                        Cell::Str(u.name.clone()),
                        Cell::Int(sum),
                        Cell::Int(max),
                        Cell::Int(min),
                    ])
                })
                .collect()
        }
        _ => unreachable!("star template over paper data"),
    }
}

/// The sorted rows `query` must return over `data`.
pub fn expected(query: Query, data: &Data) -> Rows {
    let mut rows = match data {
        Data::Star(d) => star_rows(query, d),
        Data::Paper(d) => paper_rows(query, d),
    };
    rows.sort();
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{Dim, Fact};

    fn int(v: i64) -> Cell {
        Cell::Int(v)
    }

    fn text(s: &str) -> Cell {
        Cell::Str(s.to_string())
    }

    /// Twelve fact rows over three dimensions, with every NULL case.
    fn twelve() -> Data {
        let dim = |id, cat: &str| Dim {
            id,
            cat: cat.to_string(),
            region: "r".to_string(),
        };
        let fact = |id, dim, v, tag| Fact { id, dim, v, tag };
        Data::Star(StarData {
            dims: vec![dim(0, "a"), dim(1, "b"), dim(2, "a")],
            facts: vec![
                fact(0, Some(0), Some(600), Some(1)),
                fact(1, Some(0), Some(10), Some(1)),
                fact(2, Some(0), None, Some(2)), // NULL V: counted, not summed
                fact(3, Some(1), None, None),    // group 1 has only NULL V
                fact(4, Some(2), Some(500), None), // boundary of V >= 500
                fact(5, Some(2), Some(499), Some(2)),
                fact(6, None, Some(700), Some(1)), // NULL key never joins
                fact(7, Some(5), Some(800), Some(1)), // key without a dimension
                fact(8, None, Some(20), None),     // NULL tag group, V < 50
                fact(9, Some(1), Some(49), None),  // NULL tag group again
                fact(10, Some(2), Some(50), Some(3)), // boundary of V < 50
                fact(11, Some(0), Some(0), Some(2)),
            ],
        })
    }

    #[test]
    fn fold_matches_hand_computed_rows_with_nulls() {
        let d = twelve();
        assert_eq!(
            expected(Query::FaninKey, &d),
            vec![
                vec![int(0), int(4), int(610)],
                vec![int(1), int(2), int(49)],
                vec![int(2), int(3), int(1049)],
            ]
        );
        // V >= 500 keeps facts 0 and 4 among the joining ones; both
        // dimensions are category "a".
        assert_eq!(
            expected(Query::JoinCat, &d),
            vec![vec![text("a"), int(2), int(1100)]]
        );
        // V < 50 keeps facts 1, 8, 9, 11; NULL V rows drop out; the two
        // NULL tags form one group, which sorts first.
        assert_eq!(
            expected(Query::FilterTag, &d),
            vec![
                vec![Cell::Null, int(2), int(20)],
                vec![text("tag01"), int(1), int(10)],
                vec![text("tag02"), int(1), int(0)],
            ]
        );
    }

    #[test]
    fn a_group_of_only_null_values_sums_to_null() {
        let Data::Star(mut d) = twelve() else {
            unreachable!()
        };
        d.facts.retain(|f| f.id == 3);
        assert_eq!(
            expected(Query::FaninKey, &Data::Star(d)),
            vec![vec![int(1), int(1), Cell::Null]]
        );
    }

    #[test]
    fn paper_templates_differ_exactly_where_the_paper_says() {
        use crate::gen::{Dept, Emp};
        let dept = |id, name: &str| Dept {
            id,
            name: name.to_string(),
        };
        let emp = |id, dept| Emp {
            id,
            last_name: "x".to_string(),
            dept,
        };
        // Departments 0 and 1 share a name and a head count; 2 is empty.
        let d = Data::Paper(PaperData {
            depts: vec![dept(0, "ops"), dept(1, "ops"), dept(2, "lab")],
            emps: vec![emp(0, 0), emp(1, 0), emp(2, 1), emp(3, 1)],
            users: vec![],
            printers: vec![],
            auths: vec![],
        });
        assert_eq!(
            expected(Query::Example1 { min_emp: 0 }, &d),
            vec![
                vec![int(0), text("ops"), int(2)],
                vec![int(1), text("ops"), int(2)]
            ]
        );
        assert_eq!(
            expected(Query::Thm2Subset { min_emp: 0 }, &d),
            vec![vec![text("ops"), int(2)], vec![text("ops"), int(2)]]
        );
        assert_eq!(
            expected(Query::Thm2Distinct { min_emp: 0 }, &d),
            vec![vec![text("ops"), int(2)]]
        );
        assert_eq!(
            expected(Query::Refusal { min_emp: 0 }, &d),
            vec![vec![text("ops"), int(4)]]
        );
        assert_eq!(
            expected(Query::Refusal { min_emp: 3 }, &d),
            vec![vec![text("ops"), int(1)]]
        );
    }

    #[test]
    fn normalise_sorts_and_rejects_unexpected_types() {
        let rows = vec![
            vec![Value::str("b"), Value::Int(1)],
            vec![Value::Null, Value::Int(2)],
        ];
        assert_eq!(
            normalise(&rows).unwrap(),
            vec![vec![Cell::Null, int(2)], vec![text("b"), int(1)]]
        );
        assert_eq!(normalise(&[vec![Value::Float(1.0)]]), None);
    }
}
