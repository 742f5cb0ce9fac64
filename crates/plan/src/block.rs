//! The SPJG query block — the canonical form of the paper's query class.
//!
//! Section 3 of the paper fixes the query shape
//!
//! ```sql
//! SELECT [ALL|DISTINCT] SGA1, SGA2, F(AA)
//! FROM   R1, R2, …
//! WHERE  C1 AND C0 AND C2
//! GROUP BY GA1, GA2
//! ```
//!
//! A [`QueryBlock`] captures exactly this: relations (base tables or
//! nested derived blocks — the latter is how Section 8's aggregated
//! views appear), the WHERE conjuncts, grouping columns, aggregate
//! calls, the select list and the ALL/DISTINCT flag. The
//! transformation reasons over blocks; [`QueryBlock::lower`] builds a
//! block's executable [`LogicalPlan`](crate::LogicalPlan) in one pass:
//! relations joined in a connected order, each conjunct at the lowest
//! join or relation that can evaluate it, scans pruned to the columns
//! used above them.

use std::collections::BTreeSet;
use std::fmt;

use gbj_expr::{AggregateCall, Expr};
use gbj_types::{ColumnRef, Error, Result, Schema};

use crate::plan::{aggregate_schema, project_schema};

/// A FROM-clause relation inside a block.
#[derive(Debug, Clone, PartialEq)]
pub enum BlockRelation {
    /// A base table.
    Base {
        /// Catalog table name.
        table: String,
        /// Qualifier (alias or table name).
        qualifier: String,
        /// The table's schema, qualified by `qualifier`.
        schema: Schema,
    },
    /// A derived table: a nested query block under an alias. Aggregated
    /// views (Section 8) take this form after view expansion.
    Derived {
        /// The nested block.
        block: Box<QueryBlock>,
        /// Qualifier for the derived table's columns.
        qualifier: String,
    },
}

impl BlockRelation {
    /// The qualifier this relation is known by.
    #[must_use]
    pub fn qualifier(&self) -> &str {
        match self {
            BlockRelation::Base { qualifier, .. } | BlockRelation::Derived { qualifier, .. } => {
                qualifier
            }
        }
    }

    /// The relation's output schema, qualified.
    pub fn schema(&self) -> Result<Schema> {
        match self {
            BlockRelation::Base { schema, .. } => Ok(schema.clone()),
            BlockRelation::Derived { block, qualifier } => {
                Ok(block.output_schema()?.with_qualifier(qualifier))
            }
        }
    }

    /// Whether the relation is a derived (nested) block.
    #[must_use]
    pub fn is_derived(&self) -> bool {
        matches!(self, BlockRelation::Derived { .. })
    }
}

/// One item of a block's select list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// A (grouping) column, output under `alias`.
    Column {
        /// The column.
        col: ColumnRef,
        /// Output name.
        alias: String,
    },
    /// The `index`-th aggregate of the block, output under its alias.
    Aggregate {
        /// Index into [`QueryBlock::aggregates`].
        index: usize,
    },
}

/// The SPJG block.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryBlock {
    /// FROM-clause relations.
    pub relations: Vec<BlockRelation>,
    /// WHERE conjuncts (empty = no WHERE clause).
    pub predicate: Vec<Expr>,
    /// GROUP BY columns (the paper's `GA1 ∪ GA2`).
    pub group_by: Vec<ColumnRef>,
    /// Aggregate calls with their output aliases (the paper's `F(AA)`).
    pub aggregates: Vec<(AggregateCall, String)>,
    /// The select list (must reference grouping columns / aggregates
    /// when the block aggregates).
    pub select: Vec<SelectItem>,
    /// DISTINCT projection (the paper's `D`-projection).
    pub distinct: bool,
    /// HAVING predicate; the paper's transformation does not apply when
    /// present (Section 3), but the block still executes.
    pub having: Option<Expr>,
}

impl QueryBlock {
    /// A block over the given relations with everything else empty.
    #[must_use]
    pub fn new(relations: Vec<BlockRelation>) -> QueryBlock {
        QueryBlock {
            relations,
            predicate: vec![],
            group_by: vec![],
            aggregates: vec![],
            select: vec![],
            distinct: false,
            having: None,
        }
    }

    /// Whether the block groups/aggregates at all.
    #[must_use]
    pub fn is_aggregating(&self) -> bool {
        !self.group_by.is_empty() || !self.aggregates.is_empty()
    }

    /// The qualifiers of all relations.
    #[must_use]
    pub fn qualifiers(&self) -> BTreeSet<String> {
        self.relations
            .iter()
            .map(|r| r.qualifier().to_string())
            .collect()
    }

    /// The concatenated input schema (all relations joined).
    pub fn input_schema(&self) -> Result<Schema> {
        let mut schema = Schema::empty();
        for r in &self.relations {
            schema = schema.join(&r.schema()?);
        }
        Ok(schema)
    }

    /// The WHERE clause as one conjunction (`None` when empty).
    #[must_use]
    pub fn predicate_expr(&self) -> Option<Expr> {
        Expr::conjunction(self.predicate.iter().cloned())
    }

    /// The columns used by aggregate arguments — the paper's
    /// *aggregation columns* `AA`.
    #[must_use]
    pub fn aggregation_columns(&self) -> BTreeSet<ColumnRef> {
        let mut out = BTreeSet::new();
        for (call, _) in &self.aggregates {
            out.extend(call.columns());
        }
        out
    }

    /// Structural validation: resolvable columns, select ⊆ group-by
    /// (SQL2's rule for grouped queries), aggregate indices in range,
    /// distinct qualifiers.
    pub fn validate(&self) -> Result<()> {
        if self.relations.is_empty() {
            return Err(Error::Plan("query block has no relations".into()));
        }
        let mut seen = BTreeSet::new();
        for r in &self.relations {
            if !seen.insert(r.qualifier().to_ascii_lowercase()) {
                return Err(Error::Bind(format!(
                    "duplicate table qualifier {}",
                    r.qualifier()
                )));
            }
        }
        let schema = self.input_schema()?;
        for p in &self.predicate {
            for c in p.columns() {
                schema.resolve(&c)?;
            }
        }
        for g in &self.group_by {
            schema.resolve(g)?;
        }
        for (call, _) in &self.aggregates {
            for c in call.columns() {
                schema.resolve(&c)?;
            }
        }
        let grouped = self.is_aggregating();
        for item in &self.select {
            match item {
                SelectItem::Column { col, .. } => {
                    schema.resolve(col)?;
                    if grouped && !self.group_by.iter().any(|g| g == col) {
                        return Err(Error::Bind(format!(
                            "selection column {col} must appear in GROUP BY"
                        )));
                    }
                }
                SelectItem::Aggregate { index } => {
                    if *index >= self.aggregates.len() {
                        return Err(Error::Internal(format!(
                            "aggregate select index {index} out of range"
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    /// The block's output schema: that of the projection
    /// [`QueryBlock::lower`] puts on top, computed without building the
    /// plan.
    pub fn output_schema(&self) -> Result<Schema> {
        let exprs = self.projection()?;
        let mut schema = self.input_schema()?;
        if self.is_aggregating() {
            let group_by: Vec<Expr> = self.group_by.iter().cloned().map(Expr::Column).collect();
            schema = aggregate_schema(&schema, &group_by, &self.aggregates)?;
        }
        project_schema(&schema, &exprs)
    }
}

impl fmt::Display for QueryBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT ")?;
        if self.distinct {
            write!(f, "DISTINCT ")?;
        }
        let items: Vec<String> = self
            .select
            .iter()
            .map(|i| match i {
                SelectItem::Column { col, alias } => {
                    if col.column.eq_ignore_ascii_case(alias) {
                        col.to_string()
                    } else {
                        format!("{col} AS {alias}")
                    }
                }
                SelectItem::Aggregate { index } => match self.aggregates.get(*index) {
                    Some((call, alias)) => format!("{call} AS {alias}"),
                    None => format!("<aggregate #{index}?>"),
                },
            })
            .collect();
        write!(f, "{}", items.join(", "))?;
        let froms: Vec<String> = self
            .relations
            .iter()
            .map(|r| match r {
                BlockRelation::Base {
                    table, qualifier, ..
                } => {
                    if table.eq_ignore_ascii_case(qualifier) {
                        table.clone()
                    } else {
                        format!("{table} {qualifier}")
                    }
                }
                BlockRelation::Derived { qualifier, .. } => format!("(<derived>) {qualifier}"),
            })
            .collect();
        write!(f, " FROM {}", froms.join(", "))?;
        if let Some(p) = self.predicate_expr() {
            write!(f, " WHERE {p}")?;
        }
        if !self.group_by.is_empty() {
            let gs: Vec<String> = self.group_by.iter().map(ToString::to_string).collect();
            write!(f, " GROUP BY {}", gs.join(", "))?;
        }
        if let Some(h) = &self.having {
            write!(f, " HAVING {h}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbj_expr::AggregateFunction;
    use gbj_types::{DataType, Field};

    fn emp_rel() -> BlockRelation {
        BlockRelation::Base {
            table: "Employee".into(),
            qualifier: "E".into(),
            schema: Schema::new(vec![
                Field::new("EmpID", DataType::Int64, false).with_qualifier("E"),
                Field::new("DeptID", DataType::Int64, true).with_qualifier("E"),
            ]),
        }
    }

    fn dept_rel() -> BlockRelation {
        BlockRelation::Base {
            table: "Department".into(),
            qualifier: "D".into(),
            schema: Schema::new(vec![
                Field::new("DeptID", DataType::Int64, false).with_qualifier("D"),
                Field::new("Name", DataType::Utf8, true).with_qualifier("D"),
            ]),
        }
    }

    /// The paper's Example 1 as a block.
    fn example1_block() -> QueryBlock {
        let mut b = QueryBlock::new(vec![emp_rel(), dept_rel()]);
        b.predicate = vec![Expr::col("E", "DeptID").eq(Expr::col("D", "DeptID"))];
        b.group_by = vec![
            ColumnRef::qualified("D", "DeptID"),
            ColumnRef::qualified("D", "Name"),
        ];
        b.aggregates = vec![(
            AggregateCall::new(AggregateFunction::Count, Expr::col("E", "EmpID")),
            "cnt".into(),
        )];
        b.select = vec![
            SelectItem::Column {
                col: ColumnRef::qualified("D", "DeptID"),
                alias: "DeptID".into(),
            },
            SelectItem::Column {
                col: ColumnRef::qualified("D", "Name"),
                alias: "Name".into(),
            },
            SelectItem::Aggregate { index: 0 },
        ];
        b
    }

    #[test]
    fn example1_block_validates_and_lowers() {
        let b = example1_block();
        b.validate().unwrap();
        let plan = b.lower(&[]).unwrap();
        // Lowered shape: the join predicate is the join's condition; no
        // scan is pruned, every column is used above it.
        assert_eq!(
            plan.display_tree(),
            "Project D.DeptID, D.Name, cnt\n  \
             Aggregate groupBy=[D.DeptID, D.Name] aggs=[COUNT(E.EmpID) AS cnt]\n    \
             Join on (E.DeptID = D.DeptID)\n      \
             Scan Employee AS E\n      \
             Scan Department AS D\n"
        );
        // Output schema.
        let s = b.output_schema().unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.field(2).name, "cnt");
    }

    #[test]
    fn select_not_in_group_by_rejected() {
        let mut b = example1_block();
        b.select.push(SelectItem::Column {
            col: ColumnRef::qualified("E", "DeptID"),
            alias: "edept".into(),
        });
        let err = b.validate().unwrap_err();
        assert!(err.message().contains("GROUP BY"));
    }

    #[test]
    fn duplicate_qualifiers_rejected() {
        let b = QueryBlock::new(vec![emp_rel(), emp_rel()]);
        assert!(b.validate().is_err());
    }

    #[test]
    fn empty_relations_rejected() {
        let b = QueryBlock::new(vec![]);
        assert!(b.validate().is_err());
        assert!(b.lower(&[]).is_err());
    }

    #[test]
    fn aggregation_columns_and_qualifiers() {
        let b = example1_block();
        let aa = b.aggregation_columns();
        assert_eq!(aa.len(), 1);
        assert!(aa.contains(&ColumnRef::qualified("E", "EmpID")));
        let qs = b.qualifiers();
        assert!(qs.contains("E") && qs.contains("D"));
        assert!(b.is_aggregating());
    }

    #[test]
    fn plain_spj_block_lowers_without_aggregate() {
        let mut b = QueryBlock::new(vec![emp_rel()]);
        b.select = vec![SelectItem::Column {
            col: ColumnRef::qualified("E", "EmpID"),
            alias: "EmpID".into(),
        }];
        b.validate().unwrap();
        let plan = b.lower(&[]).unwrap();
        assert!(!plan.display_tree().contains("Aggregate"));
        assert!(!b.is_aggregating());
    }

    #[test]
    fn derived_relation_schema_requalifies() {
        let inner = {
            let mut b = QueryBlock::new(vec![emp_rel()]);
            b.group_by = vec![ColumnRef::qualified("E", "DeptID")];
            b.aggregates = vec![(AggregateCall::count_star(), "n".into())];
            b.select = vec![
                SelectItem::Column {
                    col: ColumnRef::qualified("E", "DeptID"),
                    alias: "DeptID".into(),
                },
                SelectItem::Aggregate { index: 0 },
            ];
            b
        };
        let rel = BlockRelation::Derived {
            block: Box::new(inner),
            qualifier: "V".into(),
        };
        assert!(rel.is_derived());
        let s = rel.schema().unwrap();
        assert!(s.contains(&ColumnRef::qualified("V", "DeptID")));
        assert!(s.contains(&ColumnRef::qualified("V", "n")));

        // And a block over the derived relation lowers with an alias node.
        let mut outer = QueryBlock::new(vec![rel]);
        outer.select = vec![SelectItem::Column {
            col: ColumnRef::qualified("V", "n"),
            alias: "n".into(),
        }];
        outer.validate().unwrap();
        let tree = outer.lower(&[]).unwrap().display_tree();
        assert!(tree.contains("SubqueryAlias V"));
    }

    #[test]
    fn having_lowers_to_filter_above_aggregate() {
        let mut b = example1_block();
        b.having = Some(Expr::bare("cnt").binary(gbj_expr::BinaryOp::Gt, Expr::lit(5i64)));
        let tree = b.lower(&[]).unwrap().display_tree();
        let lines: Vec<&str> = tree.lines().collect();
        assert!(lines[0].starts_with("Project"));
        assert!(lines[1].trim_start().starts_with("Filter"));
        assert!(lines[2].trim_start().starts_with("Aggregate"));
    }

    #[test]
    fn display_renders_sqlish_text() {
        let b = example1_block();
        let text = b.to_string();
        assert!(text.contains("SELECT"));
        assert!(text.contains("FROM Employee E, Department D"));
        assert!(text.contains("GROUP BY D.DeptID, D.Name"));
        assert!(text.contains("COUNT(E.EmpID) AS cnt"));
    }

    #[test]
    fn empty_select_list_rejected_at_lowering() {
        let mut b = example1_block();
        b.select.clear();
        assert!(b.lower(&[]).is_err());
    }
}
