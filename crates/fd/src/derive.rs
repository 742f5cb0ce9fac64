//! Deriving functional dependencies from catalog constraints and query
//! predicates.
//!
//! This implements the knowledge base behind TestFD: key constraints of
//! the participating tables, plus the Type-1/Type-2 equality atoms of
//! one DNF disjunct, become an [`FdSet`] over which attribute closures
//! answer "does FD1 / FD2 hold?".
//!
//! The paper's Example 2 (derived dependencies) falls out of the same
//! machinery: a key of a source table stays a key of the derived table
//! when the closure reasoning carries it through selections and joins.

use gbj_catalog::TableDef;
use gbj_expr::{AtomClass, Expr};
use gbj_types::ColumnRef;

use crate::fd::{Fd, FdSet};

/// The pseudo-column standing for a table's implicit RowID in FD
/// reasoning (paper §4.3). The `#` prefix keeps it out of the SQL
/// identifier space so it can never collide with a user column.
#[must_use]
pub fn row_id_col(qualifier: &str) -> ColumnRef {
    ColumnRef::qualified(qualifier, "#ROWID")
}

/// A derivation context: the tables in scope (with the qualifiers they
/// are known by in the query) and their key constraints.
#[derive(Debug, Clone, Default)]
pub struct FdContext {
    tables: Vec<(String, TableDef)>,
}

impl FdContext {
    /// An empty context.
    #[must_use]
    pub fn new() -> FdContext {
        FdContext::default()
    }

    /// Add a table under the qualifier the query uses for it (its alias,
    /// or its own name).
    pub fn add_table(&mut self, qualifier: impl Into<String>, def: TableDef) {
        self.tables.push((qualifier.into(), def));
    }

    /// The qualifiers registered in this context.
    pub fn qualifiers(&self) -> impl Iterator<Item = &str> {
        self.tables.iter().map(|(q, _)| q.as_str())
    }

    /// Look up a table definition by qualifier.
    #[must_use]
    pub fn table(&self, qualifier: &str) -> Option<&TableDef> {
        self.tables
            .iter()
            .find(|(q, _)| q.eq_ignore_ascii_case(qualifier))
            .map(|(_, d)| d)
    }

    /// The candidate keys of the table known by `qualifier` whose
    /// columns are all declared NOT NULL, with columns qualified
    /// accordingly. A nullable UNIQUE is no key: it admits several rows
    /// with a NULL key, which agree under `=ⁿ`.
    #[must_use]
    pub fn keys_of(&self, qualifier: &str) -> Vec<Vec<ColumnRef>> {
        let Some(def) = self.table(qualifier) else {
            return vec![];
        };
        null_free_keys(def)
            .map(|key| {
                key.iter()
                    .map(|c| ColumnRef::qualified(qualifier, c.clone()))
                    .collect()
            })
            .collect()
    }

    /// Whether `col`, qualified by a query qualifier, is a column
    /// declared NOT NULL (PRIMARY KEY columns are). An unknown column
    /// is not.
    #[must_use]
    pub fn is_not_null(&self, col: &ColumnRef) -> bool {
        col.table
            .as_deref()
            .and_then(|q| self.table(q))
            .and_then(|def| def.column(&col.column))
            .is_some_and(|(_, c)| !c.nullable)
    }

    /// All columns of the table known by `qualifier` (qualified),
    /// including the RowID pseudo-column.
    #[must_use]
    pub fn columns_of(&self, qualifier: &str) -> Vec<ColumnRef> {
        let Some(def) = self.table(qualifier) else {
            return vec![];
        };
        let mut cols: Vec<ColumnRef> = def
            .columns
            .iter()
            .map(|c| ColumnRef::qualified(qualifier, c.name.clone()))
            .collect();
        cols.push(row_id_col(qualifier));
        cols
    }

    /// Build the [`FdSet`] for one conjunction of atoms (a DNF disjunct
    /// `Ei` in TestFD's Step 4):
    ///
    /// * each candidate key of each table whose columns are all NOT
    ///   NULL (as in [`FdContext::keys_of`]) yields a key dependency onto
    ///   all the table's columns plus its RowID;
    /// * each Type-1 atom (`col = const`) registers a constant column
    ///   (Step 4(b)/(f));
    /// * each Type-2 atom (`col = col`) registers a bidirectional
    ///   dependency;
    /// * other atoms are ignored — they can only *weaken* what we can
    ///   derive, so ignoring them is conservative (the paper drops them
    ///   in Steps 1–2).
    #[must_use]
    pub fn fd_set(&self, atoms: &[Expr]) -> FdSet {
        let mut fds = FdSet::new();
        for (q, def) in &self.tables {
            let all_cols: Vec<ColumnRef> = self.columns_of(q);
            for key in null_free_keys(def) {
                let lhs: Vec<ColumnRef> = key
                    .iter()
                    .map(|c| ColumnRef::qualified(q.clone(), c.clone()))
                    .collect();
                fds.add(Fd::new(
                    lhs.clone(),
                    all_cols.clone(),
                    format!(
                        "key ({}) of {}",
                        lhs.iter()
                            .map(ToString::to_string)
                            .collect::<Vec<_>>()
                            .join(", "),
                        q
                    ),
                ));
            }
        }
        for atom in atoms {
            match AtomClass::of(atom) {
                AtomClass::ColumnEqConstant(c, v) => {
                    fds.add_constant(c.clone(), format!("{c} = {v}"));
                }
                AtomClass::ColumnEqColumn(a, b) => {
                    let reason = format!("{a} = {b}");
                    fds.add_equality(a, b, reason);
                }
                AtomClass::Other => {}
            }
        }
        fds
    }
}

/// The candidate keys of `def` whose columns are all declared NOT NULL.
///
/// SQL's UNIQUE admits any number of rows with a NULL in a key column,
/// and under `=ⁿ` those rows agree on the key while their RowIDs
/// differ, so a nullable UNIQUE is no key for FD2. PRIMARY KEY columns
/// are NOT NULL by [`TableDef::validate`].
fn null_free_keys(def: &TableDef) -> impl Iterator<Item = &[String]> {
    def.candidate_keys().into_iter().filter(|key| {
        key.iter()
            .all(|c| def.column(c).is_some_and(|(_, col)| !col.nullable))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbj_catalog::{ColumnDef, Constraint};
    use gbj_types::DataType;
    use std::collections::BTreeSet;

    fn part() -> TableDef {
        TableDef::new(
            "Part",
            vec![
                ColumnDef::new("ClassCode", DataType::Int64),
                ColumnDef::new("PartNo", DataType::Int64),
                ColumnDef::new("PartName", DataType::Utf8),
                ColumnDef::new("SupplierNo", DataType::Int64),
            ],
        )
        .with_constraint(Constraint::PrimaryKey(vec![
            "ClassCode".into(),
            "PartNo".into(),
        ]))
        .validate()
        .unwrap()
    }

    fn supplier() -> TableDef {
        TableDef::new(
            "Supplier",
            vec![
                ColumnDef::new("SupplierNo", DataType::Int64),
                ColumnDef::new("Name", DataType::Utf8),
                ColumnDef::new("Address", DataType::Utf8),
            ],
        )
        .with_constraint(Constraint::PrimaryKey(vec!["SupplierNo".into()]))
        .validate()
        .unwrap()
    }

    fn cols(items: &[(&str, &str)]) -> BTreeSet<ColumnRef> {
        items
            .iter()
            .map(|(t, c)| ColumnRef::qualified(*t, *c))
            .collect()
    }

    /// The paper's Example 2: in
    /// `SELECT … FROM Part P, Supplier S
    ///  WHERE P.ClassCode = 25 AND P.SupplierNo = S.SupplierNo`
    /// PartNo is a key of the derived table, and Name is functionally
    /// dependent on SupplierNo.
    #[test]
    fn example2_derived_key_dependency() {
        let mut ctx = FdContext::new();
        ctx.add_table("P", part());
        ctx.add_table("S", supplier());
        let atoms = vec![
            Expr::col("P", "ClassCode").eq(Expr::lit(25i64)),
            Expr::col("P", "SupplierNo").eq(Expr::col("S", "SupplierNo")),
        ];
        let fds = ctx.fd_set(&atoms);

        // PartNo determines every column of both tables …
        let closure = fds.closure(&cols(&[("P", "PartNo")]));
        assert!(closure.contains(&ColumnRef::qualified("P", "PartName")));
        assert!(closure.contains(&ColumnRef::qualified("S", "Name")));
        assert!(closure.contains(&ColumnRef::qualified("S", "Address")));
        // … including both RowIDs: it is a key of the derived table.
        assert!(closure.contains(&row_id_col("P")));
        assert!(closure.contains(&row_id_col("S")));

        // The non-key derived dependency: SupplierNo → Name.
        assert!(fds.implies(&cols(&[("S", "SupplierNo")]), &cols(&[("S", "Name")])));
        // But Name does not determine SupplierNo.
        assert!(!fds.implies(&cols(&[("S", "Name")]), &cols(&[("S", "SupplierNo")])));
    }

    #[test]
    fn without_the_constant_partno_is_not_a_key() {
        let mut ctx = FdContext::new();
        ctx.add_table("P", part());
        ctx.add_table("S", supplier());
        // No ClassCode = 25 atom this time.
        let atoms = vec![Expr::col("P", "SupplierNo").eq(Expr::col("S", "SupplierNo"))];
        let fds = ctx.fd_set(&atoms);
        let closure = fds.closure(&cols(&[("P", "PartNo")]));
        assert!(
            !closure.contains(&ColumnRef::qualified("P", "PartName")),
            "PartNo alone is not the key of Part"
        );
    }

    fn unique_sid(sid: ColumnDef) -> FdContext {
        let t = TableDef::new(
            "U",
            vec![
                ColumnDef::new("id", DataType::Int64),
                sid,
                ColumnDef::new("payload", DataType::Utf8),
            ],
        )
        .with_constraint(Constraint::PrimaryKey(vec!["id".into()]))
        .with_constraint(Constraint::Unique(vec!["sid".into()]))
        .validate()
        .unwrap();
        let mut ctx = FdContext::new();
        ctx.add_table("U", t);
        ctx
    }

    #[test]
    fn unique_constraints_also_contribute_keys() {
        let ctx = unique_sid(ColumnDef::new("sid", DataType::Int64).not_null());
        let fds = ctx.fd_set(&[]);
        assert!(fds.implies(
            &cols(&[("U", "sid")]),
            &cols(&[("U", "payload"), ("U", "id")])
        ));
        assert_eq!(ctx.keys_of("U").len(), 2);

        // A nullable UNIQUE admits two rows with sid NULL, which agree
        // under =ⁿ: it is no key.
        let ctx = unique_sid(ColumnDef::new("sid", DataType::Int64));
        let fds = ctx.fd_set(&[]);
        assert!(!fds.implies(&cols(&[("U", "sid")]), &cols(&[("U", "id")])));
        assert_eq!(
            ctx.keys_of("U"),
            vec![vec![ColumnRef::qualified("U", "id")]]
        );
    }

    #[test]
    fn is_not_null_reads_the_declaration() {
        let ctx = unique_sid(ColumnDef::new("sid", DataType::Int64));
        assert!(
            ctx.is_not_null(&ColumnRef::qualified("U", "id")),
            "PRIMARY KEY"
        );
        assert!(!ctx.is_not_null(&ColumnRef::qualified("U", "sid")));
        assert!(!ctx.is_not_null(&ColumnRef::qualified("U", "ghost")));
        assert!(!ctx.is_not_null(&ColumnRef::bare("id")));
    }

    #[test]
    fn keys_of_and_columns_of() {
        let mut ctx = FdContext::new();
        ctx.add_table("S", supplier());
        let keys = ctx.keys_of("S");
        assert_eq!(keys.len(), 1);
        assert_eq!(keys[0], vec![ColumnRef::qualified("S", "SupplierNo")]);
        let cols = ctx.columns_of("S");
        assert_eq!(cols.len(), 4); // 3 columns + RowID
        assert_eq!(cols[3], row_id_col("S"));
        assert!(ctx.keys_of("missing").is_empty());
        assert!(ctx.columns_of("missing").is_empty());
    }

    #[test]
    fn non_equality_atoms_are_ignored() {
        let mut ctx = FdContext::new();
        ctx.add_table("S", supplier());
        let atoms = vec![Expr::col("S", "Name").binary(gbj_expr::BinaryOp::Lt, Expr::lit("z"))];
        let fds = ctx.fd_set(&atoms);
        // Only the key dependency exists; Name is not constant.
        assert!(!fds.implies(&cols(&[("S", "Address")]), &cols(&[("S", "Name")])));
    }

    #[test]
    fn table_lookup_is_case_insensitive() {
        let mut ctx = FdContext::new();
        ctx.add_table("Sup", supplier());
        assert!(ctx.table("sup").is_some());
        assert!(ctx.table("SUP").is_some());
        assert_eq!(ctx.qualifiers().collect::<Vec<_>>(), vec!["Sup"]);
    }

    #[test]
    fn row_id_col_cannot_collide_with_sql_identifiers() {
        let c = row_id_col("T");
        assert!(c.column.starts_with('#'));
    }
}
