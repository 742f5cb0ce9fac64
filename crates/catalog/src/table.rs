//! Table definitions.

use std::fmt;

use gbj_expr::Expr;
use gbj_types::{DataType, Error, Field, Result, Schema};

use crate::constraint::Constraint;

/// One column of a table definition.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    /// Column name.
    pub name: String,
    /// Data type (already resolved if declared via a domain).
    pub data_type: DataType,
    /// Whether NULL is permitted. Primary-key membership forces this to
    /// `false` during [`TableDef::validate`].
    pub nullable: bool,
    /// Per-column CHECK constraints (column + domain checks), each over
    /// the unqualified column name.
    pub checks: Vec<Expr>,
    /// Name of the domain the column was declared with, if any.
    pub domain: Option<String>,
}

impl ColumnDef {
    /// A plain nullable column.
    pub fn new(name: impl Into<String>, data_type: DataType) -> ColumnDef {
        ColumnDef {
            name: name.into(),
            data_type,
            nullable: true,
            checks: vec![],
            domain: None,
        }
    }

    /// Mark NOT NULL.
    #[must_use]
    pub fn not_null(mut self) -> ColumnDef {
        self.nullable = false;
        self
    }

    /// Attach a CHECK expression (over the unqualified column name).
    #[must_use]
    pub fn with_check(mut self, check: Expr) -> ColumnDef {
        self.checks.push(check);
        self
    }
}

/// A base-table definition: columns plus table-level constraints.
#[derive(Debug, Clone, PartialEq)]
pub struct TableDef {
    /// Table name.
    pub name: String,
    /// Columns in declaration order.
    pub columns: Vec<ColumnDef>,
    /// Table-level constraints (keys, checks, foreign keys).
    pub constraints: Vec<Constraint>,
}

impl TableDef {
    /// A new table definition; call [`TableDef::validate`] after
    /// assembling columns and constraints.
    pub fn new(name: impl Into<String>, columns: Vec<ColumnDef>) -> TableDef {
        TableDef {
            name: name.into(),
            columns,
            constraints: vec![],
        }
    }

    /// Add a constraint (builder style).
    #[must_use]
    pub fn with_constraint(mut self, c: Constraint) -> TableDef {
        self.constraints.push(c);
        self
    }

    /// Find a column by (case-insensitive) name.
    #[must_use]
    pub fn column(&self, name: &str) -> Option<(usize, &ColumnDef)> {
        self.columns
            .iter()
            .enumerate()
            .find(|(_, c)| c.name.eq_ignore_ascii_case(name))
    }

    /// The primary key columns, if a primary key is declared.
    #[must_use]
    pub fn primary_key(&self) -> Option<&[String]> {
        self.constraints.iter().find_map(|c| match c {
            Constraint::PrimaryKey(cols) => Some(cols.as_slice()),
            _ => None,
        })
    }

    /// All candidate keys: the primary key plus every UNIQUE constraint.
    ///
    /// These are the `Ki(R)` of the paper's Section 6 (Figure 6). FD
    /// reasoning (`gbj_fd::FdContext`) keeps only those whose columns
    /// are all NOT NULL: a UNIQUE admits several NULL keys.
    #[must_use]
    pub fn candidate_keys(&self) -> Vec<&[String]> {
        self.constraints
            .iter()
            .filter_map(Constraint::key_columns)
            .collect()
    }

    /// All foreign keys.
    pub fn foreign_keys(&self) -> impl Iterator<Item = &Constraint> {
        self.constraints
            .iter()
            .filter(|c| matches!(c, Constraint::ForeignKey { .. }))
    }

    /// Structural validation: known columns in constraints, no duplicate
    /// column names, primary-key columns forced NOT NULL (SQL2: "no
    /// column of a \[primary\] key can be NULL").
    pub fn validate(mut self) -> Result<TableDef> {
        for (i, c) in self.columns.iter().enumerate() {
            for other in self.columns.iter().skip(i + 1) {
                if c.name.eq_ignore_ascii_case(&other.name) {
                    return Err(Error::Catalog(format!(
                        "duplicate column {} in table {}",
                        c.name, self.name
                    )));
                }
            }
        }
        let mut pk_count = 0;
        let mut force_not_null: Vec<String> = vec![];
        for cons in &self.constraints {
            match cons {
                Constraint::PrimaryKey(cols) => {
                    pk_count += 1;
                    if cols.is_empty() {
                        return Err(Error::Catalog(format!(
                            "empty PRIMARY KEY on table {}",
                            self.name
                        )));
                    }
                    for col in cols {
                        self.require_column(col)?;
                        force_not_null.push(col.clone());
                    }
                }
                Constraint::Unique(cols) => {
                    if cols.is_empty() {
                        return Err(Error::Catalog(format!(
                            "empty UNIQUE constraint on table {}",
                            self.name
                        )));
                    }
                    for col in cols {
                        self.require_column(col)?;
                    }
                }
                Constraint::ForeignKey {
                    columns,
                    ref_columns,
                    ..
                } => {
                    for col in columns {
                        self.require_column(col)?;
                    }
                    if !ref_columns.is_empty() && ref_columns.len() != columns.len() {
                        return Err(Error::Catalog(format!(
                            "foreign key arity mismatch on table {}",
                            self.name
                        )));
                    }
                }
                Constraint::Check { .. } => {}
            }
        }
        if pk_count > 1 {
            return Err(Error::Catalog(format!(
                "table {} declares more than one PRIMARY KEY",
                self.name
            )));
        }
        for name in force_not_null {
            if let Some(col) = self
                .columns
                .iter_mut()
                .find(|c| c.name.eq_ignore_ascii_case(&name))
            {
                col.nullable = false;
            }
        }
        Ok(self)
    }

    fn require_column(&self, name: &str) -> Result<()> {
        if self.column(name).is_none() {
            return Err(Error::Catalog(format!(
                "constraint on table {} references unknown column {name}",
                self.name
            )));
        }
        Ok(())
    }

    /// The schema of this table with fields qualified by `qualifier`
    /// (the table name, or an alias from the FROM clause).
    #[must_use]
    pub fn schema(&self, qualifier: &str) -> Schema {
        Schema::new(
            self.columns
                .iter()
                .map(|c| {
                    Field::new(c.name.clone(), c.data_type, c.nullable).with_qualifier(qualifier)
                })
                .collect(),
        )
    }
}

impl fmt::Display for TableDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "TABLE {} (", self.name)?;
        for c in &self.columns {
            write!(f, "  {} {}", c.name, c.data_type)?;
            if !c.nullable {
                f.write_str(" NOT NULL")?;
            }
            for check in &c.checks {
                write!(f, " CHECK {check}")?;
            }
            writeln!(f, ",")?;
        }
        for cons in &self.constraints {
            writeln!(f, "  {cons},")?;
        }
        f.write_str(")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbj_expr::BinaryOp;

    /// The employee table of the paper's Figure 5 (modulo its typo of
    /// calling it "Department").
    fn figure5_table() -> TableDef {
        TableDef::new(
            "Employee",
            vec![
                ColumnDef::new("EmpID", DataType::Int64)
                    .with_check(Expr::bare("EmpID").binary(BinaryOp::Gt, Expr::lit(0i64))),
                ColumnDef::new("EmpSID", DataType::Int64),
                ColumnDef::new("LastName", DataType::Utf8).not_null(),
                ColumnDef::new("FirstName", DataType::Utf8),
                ColumnDef::new("DeptID", DataType::Int64)
                    .with_check(Expr::bare("DeptID").binary(BinaryOp::Gt, Expr::lit(5i64))),
            ],
        )
        .with_constraint(Constraint::PrimaryKey(vec!["EmpID".into()]))
        .with_constraint(Constraint::Unique(vec!["EmpSID".into()]))
        .with_constraint(Constraint::ForeignKey {
            columns: vec!["DeptID".into()],
            ref_table: "Dept".into(),
            ref_columns: vec![],
        })
    }

    #[test]
    fn figure5_validates_and_exposes_keys() {
        let t = figure5_table().validate().unwrap();
        assert_eq!(t.primary_key().unwrap(), &["EmpID".to_string()]);
        let keys = t.candidate_keys();
        assert_eq!(keys.len(), 2);
        assert_eq!(keys[0], &["EmpID".to_string()]);
        assert_eq!(keys[1], &["EmpSID".to_string()]);
        assert_eq!(t.foreign_keys().count(), 1);
    }

    #[test]
    fn primary_key_forces_not_null() {
        let t = figure5_table().validate().unwrap();
        let (_, emp_id) = t.column("EmpID").unwrap();
        assert!(!emp_id.nullable, "PK column must become NOT NULL");
        // UNIQUE (candidate key) does NOT force NOT NULL per SQL2.
        let (_, emp_sid) = t.column("EmpSID").unwrap();
        assert!(emp_sid.nullable);
    }

    #[test]
    fn schema_carries_qualifier_and_nullability() {
        let t = figure5_table().validate().unwrap();
        let s = t.schema("E");
        assert_eq!(s.len(), 5);
        assert_eq!(s.field(0).qualifier.as_deref(), Some("E"));
        assert!(!s.field(0).nullable); // EmpID via PK
        assert!(!s.field(2).nullable); // LastName via NOT NULL
        assert!(s.field(3).nullable); // FirstName
    }

    #[test]
    fn rejects_duplicate_columns() {
        let t = TableDef::new(
            "T",
            vec![
                ColumnDef::new("a", DataType::Int64),
                ColumnDef::new("A", DataType::Int64),
            ],
        );
        assert!(t.validate().is_err());
    }

    #[test]
    fn rejects_unknown_constraint_columns() {
        let t = TableDef::new("T", vec![ColumnDef::new("a", DataType::Int64)])
            .with_constraint(Constraint::PrimaryKey(vec!["nope".into()]));
        assert!(t.validate().is_err());
        let t = TableDef::new("T", vec![ColumnDef::new("a", DataType::Int64)])
            .with_constraint(Constraint::Unique(vec!["nope".into()]));
        assert!(t.validate().is_err());
    }

    #[test]
    fn rejects_double_primary_key_and_empty_keys() {
        let t = TableDef::new("T", vec![ColumnDef::new("a", DataType::Int64)])
            .with_constraint(Constraint::PrimaryKey(vec!["a".into()]))
            .with_constraint(Constraint::PrimaryKey(vec!["a".into()]));
        assert!(t.validate().is_err());
        let t = TableDef::new("T", vec![ColumnDef::new("a", DataType::Int64)])
            .with_constraint(Constraint::PrimaryKey(vec![]));
        assert!(t.validate().is_err());
    }

    #[test]
    fn rejects_fk_arity_mismatch() {
        let t = TableDef::new("T", vec![ColumnDef::new("a", DataType::Int64)]).with_constraint(
            Constraint::ForeignKey {
                columns: vec!["a".into()],
                ref_table: "U".into(),
                ref_columns: vec!["x".into(), "y".into()],
            },
        );
        assert!(t.validate().is_err());
    }

    #[test]
    fn column_lookup_is_case_insensitive() {
        let t = figure5_table().validate().unwrap();
        assert!(t.column("empid").is_some());
        assert!(t.column("EMPID").is_some());
        assert!(t.column("missing").is_none());
    }
}
