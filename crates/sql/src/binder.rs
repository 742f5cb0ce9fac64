//! The binder: AST → validated [`QueryBlock`] / catalog objects.
//!
//! Name resolution fully qualifies every column reference (the
//! optimizer's `C1/C0/C2` classification needs qualifiers), expands
//! view references into nested derived blocks, and enforces the SQL2
//! rules the paper relies on (selection columns ⊆ grouping columns,
//! aggregate arguments scalar, …).

use gbj_catalog::{Catalog, ColumnDef, Constraint, Domain, TableDef, ViewDef};
use gbj_expr::{AggregateCall, AggregateFunction, Expr};
use gbj_plan::{BlockRelation, QueryBlock, SelectItem};
use gbj_types::{ColumnRef, Error, Result, Schema, Value};

use crate::ast::{
    AstExpr, ColumnDefAst, SelectItemAst, SelectStmt, Statement, TableConstraintAst, TypeRef,
};
use crate::parser::parse_sql;

/// Maximum view-expansion depth (defends against cyclic views).
const MAX_VIEW_DEPTH: usize = 16;

/// A bound query: the canonical block plus presentation-only ORDER BY.
#[derive(Debug, Clone)]
pub struct BoundSelect {
    /// The SPJG block (executable via `QueryBlock::lower`).
    pub block: QueryBlock,
    /// ORDER BY keys over the *output* schema, with ascending flags.
    pub order_by: Vec<(ColumnRef, bool)>,
}

/// Binds statements against a catalog.
pub struct Binder<'a> {
    catalog: &'a Catalog,
}

impl<'a> Binder<'a> {
    /// A binder over the given catalog.
    #[must_use]
    pub fn new(catalog: &'a Catalog) -> Binder<'a> {
        Binder { catalog }
    }

    // ------------------------------------------------------------- queries

    /// Bind a SELECT statement.
    pub fn bind_select(&self, stmt: &SelectStmt) -> Result<BoundSelect> {
        self.bind_select_depth(stmt, 0)
    }

    fn bind_select_depth(&self, stmt: &SelectStmt, depth: usize) -> Result<BoundSelect> {
        if depth > MAX_VIEW_DEPTH {
            return Err(Error::Bind("view nesting too deep (cycle?)".into()));
        }

        // FROM: resolve tables and views.
        let mut relations = Vec::with_capacity(stmt.from.len());
        for table_ref in &stmt.from {
            let qualifier = table_ref
                .alias
                .clone()
                .unwrap_or_else(|| table_ref.name.clone());
            if let Some(def) = self.catalog.table(&table_ref.name) {
                relations.push(BlockRelation::Base {
                    table: def.name.clone(),
                    qualifier: qualifier.clone(),
                    schema: def.schema(&qualifier),
                });
            } else if let Some(view) = self.catalog.view(&table_ref.name) {
                let view = view.clone();
                let inner_stmt = match parse_sql(&view.query_sql)? {
                    Statement::Select(s) => s,
                    _ => {
                        return Err(Error::Bind(format!(
                            "view {} does not define a SELECT",
                            view.name
                        )))
                    }
                };
                let mut bound = self.bind_select_depth(&inner_stmt, depth + 1)?;
                if !bound.order_by.is_empty() {
                    return Err(Error::Unsupported(format!(
                        "view {} uses ORDER BY",
                        view.name
                    )));
                }
                if !view.columns.is_empty() {
                    rename_block_outputs(&mut bound.block, &view.columns)?;
                }
                relations.push(BlockRelation::Derived {
                    block: Box::new(bound.block),
                    qualifier: qualifier.clone(),
                });
            } else {
                return Err(Error::Bind(format!(
                    "unknown table or view {}",
                    table_ref.name
                )));
            }
        }

        let mut block = QueryBlock::new(relations);
        let input_schema = block.input_schema()?;

        // WHERE (scalar only).
        if let Some(w) = &stmt.where_clause {
            let bound = self.bind_scalar(w, &input_schema)?;
            block.predicate = gbj_expr::conjuncts(&bound);
        }

        // GROUP BY (duplicates are legal SQL; keep the first occurrence).
        for name in &stmt.group_by {
            let col = name_to_ref(name)?;
            let (_, field) = input_schema.resolve(&col)?;
            let resolved = field.column_ref();
            if !block.group_by.contains(&resolved) {
                block.group_by.push(resolved);
            }
        }

        // Select list.
        let has_aggregates = stmt.items.iter().any(|i| match i {
            SelectItemAst::Expr { expr, .. } => expr.contains_aggregate(),
            SelectItemAst::Wildcard => false,
        });
        let grouped = has_aggregates || !stmt.group_by.is_empty();
        let mut used_aliases: Vec<String> = Vec::new();
        let next_alias = |base: String, used: &mut Vec<String>| -> String {
            let mut name = base;
            let mut n = 1;
            while used.iter().any(|u| u.eq_ignore_ascii_case(&name)) {
                name = format!("{name}_{n}");
                n += 1;
            }
            used.push(name.clone());
            name
        };
        for item in &stmt.items {
            match item {
                SelectItemAst::Wildcard => {
                    if grouped {
                        return Err(Error::Bind(
                            "SELECT * cannot be combined with GROUP BY or aggregates".into(),
                        ));
                    }
                    for field in input_schema.fields() {
                        let alias = next_alias(field.name.clone(), &mut used_aliases);
                        block.select.push(SelectItem::Column {
                            col: field.column_ref(),
                            alias,
                        });
                    }
                }
                SelectItemAst::Expr { expr, alias } => {
                    if expr.contains_aggregate() {
                        let call = self.bind_aggregate(expr, &input_schema)?;
                        let base = alias
                            .clone()
                            .unwrap_or_else(|| call.func.name().to_ascii_lowercase());
                        let name = next_alias(base, &mut used_aliases);
                        block.aggregates.push((call, name));
                        block.select.push(SelectItem::Aggregate {
                            index: block.aggregates.len() - 1,
                        });
                    } else {
                        let bound = self.bind_scalar(expr, &input_schema)?;
                        let Expr::Column(col) = bound else {
                            return Err(Error::Unsupported(format!(
                                "non-column select expression {bound} \
                                 (only columns and aggregates are supported)"
                            )));
                        };
                        let base = alias.clone().unwrap_or_else(|| col.column.clone());
                        let name = next_alias(base, &mut used_aliases);
                        block.select.push(SelectItem::Column { col, alias: name });
                    }
                }
            }
        }
        block.distinct = stmt.distinct;

        // HAVING: binds against the aggregate output (grouping columns +
        // aggregate aliases); aggregate calls must match a SELECT
        // aggregate.
        if let Some(h) = &stmt.having {
            if !grouped {
                return Err(Error::Bind("HAVING without GROUP BY/aggregates".into()));
            }
            let agg_schema = aggregate_output_schema(&block, &input_schema)?;
            let bound = self.bind_having(h, &block, &input_schema, &agg_schema)?;
            block.having = Some(bound);
        }

        block.validate()?;

        // ORDER BY over the output schema. A qualified name selected as
        // a column binds to that item's output name first: a renamed
        // output (`F.X AS X_1`) has lost its qualifier.
        let out_schema = block.output_schema()?;
        let mut order_by = Vec::new();
        for (name, asc) in &stmt.order_by {
            let mut col = name_to_ref(name)?;
            if let Some(table) = &col.table {
                let selected = block.select.iter().find_map(|item| match item {
                    SelectItem::Column { col: source, alias }
                        if source.column.eq_ignore_ascii_case(&col.column)
                            && source
                                .table
                                .as_deref()
                                .is_some_and(|t| t.eq_ignore_ascii_case(table)) =>
                    {
                        Some(ColumnRef::bare(alias.clone()))
                    }
                    _ => None,
                });
                col = selected.unwrap_or(col);
            }
            let (_, field) = out_schema.resolve(&col)?;
            order_by.push((field.column_ref(), *asc));
        }

        Ok(BoundSelect { block, order_by })
    }

    /// Bind a scalar expression (no aggregates), qualifying every
    /// column reference against `schema`.
    pub fn bind_scalar(&self, ast: &AstExpr, schema: &Schema) -> Result<Expr> {
        let expr = match ast {
            AstExpr::Name(parts) => {
                let col = name_to_ref(parts)?;
                let (_, field) = schema.resolve(&col)?;
                Expr::Column(field.column_ref())
            }
            AstExpr::Literal(v) => Expr::Literal(v.clone()),
            AstExpr::Binary { left, op, right } => Expr::Binary {
                left: Box::new(self.bind_scalar(left, schema)?),
                op: *op,
                right: Box::new(self.bind_scalar(right, schema)?),
            },
            AstExpr::Not(e) => Expr::Not(Box::new(self.bind_scalar(e, schema)?)),
            AstExpr::Neg(e) => Expr::Neg(Box::new(self.bind_scalar(e, schema)?)),
            AstExpr::IsNull { expr, negated } => Expr::IsNull {
                expr: Box::new(self.bind_scalar(expr, schema)?),
                negated: *negated,
            },
            AstExpr::Func { name, .. } => {
                return Err(Error::Bind(format!(
                    "aggregate {name} is not allowed in this context"
                )))
            }
        };
        // Type-check eagerly so errors carry SQL-level context.
        expr.data_type(schema)?;
        Ok(expr)
    }

    fn bind_aggregate(&self, ast: &AstExpr, schema: &Schema) -> Result<AggregateCall> {
        let AstExpr::Func {
            name,
            distinct,
            star,
            args,
        } = ast
        else {
            return Err(Error::Unsupported(
                "expressions over aggregates are not supported \
                 (select the aggregate directly)"
                    .to_string(),
            ));
        };
        let func = match name.to_ascii_uppercase().as_str() {
            "COUNT" if *star => AggregateFunction::CountStar,
            "COUNT" => AggregateFunction::Count,
            "SUM" => AggregateFunction::Sum,
            "MIN" => AggregateFunction::Min,
            "MAX" => AggregateFunction::Max,
            "AVG" => AggregateFunction::Avg,
            other => return Err(Error::Unsupported(format!("unknown function {other}"))),
        };
        let call = if *star {
            if *distinct {
                return Err(Error::Bind("COUNT(DISTINCT *) is not valid".into()));
            }
            AggregateCall::count_star()
        } else {
            let [arg] = args.as_slice() else {
                return Err(Error::Bind(format!("{name} takes exactly one argument")));
            };
            if arg.contains_aggregate() {
                return Err(Error::Bind("nested aggregates are not allowed".into()));
            }
            let bound = self.bind_scalar(arg, schema)?;
            let mut call = AggregateCall::new(func, bound);
            if *distinct {
                call = call.with_distinct();
            }
            call
        };
        call.data_type(schema)?;
        Ok(call)
    }

    fn bind_having(
        &self,
        ast: &AstExpr,
        block: &QueryBlock,
        input_schema: &Schema,
        agg_schema: &Schema,
    ) -> Result<Expr> {
        match ast {
            AstExpr::Func { .. } => {
                // Must match one of the SELECT aggregates; replace with
                // a reference to its output column.
                let call = self.bind_aggregate(ast, input_schema)?;
                for (existing, alias) in &block.aggregates {
                    if *existing == call {
                        return Ok(Expr::Column(ColumnRef::bare(alias.clone())));
                    }
                }
                Err(Error::Unsupported(format!(
                    "HAVING aggregate {call} must also appear in the SELECT list"
                )))
            }
            AstExpr::Name(parts) => {
                let col = name_to_ref(parts)?;
                let (_, field) = agg_schema.resolve(&col)?;
                Ok(Expr::Column(field.column_ref()))
            }
            AstExpr::Literal(v) => Ok(Expr::Literal(v.clone())),
            AstExpr::Binary { left, op, right } => Ok(Expr::Binary {
                left: Box::new(self.bind_having(left, block, input_schema, agg_schema)?),
                op: *op,
                right: Box::new(self.bind_having(right, block, input_schema, agg_schema)?),
            }),
            AstExpr::Not(e) => Ok(Expr::Not(Box::new(self.bind_having(
                e,
                block,
                input_schema,
                agg_schema,
            )?))),
            AstExpr::Neg(e) => Ok(Expr::Neg(Box::new(self.bind_having(
                e,
                block,
                input_schema,
                agg_schema,
            )?))),
            AstExpr::IsNull { expr, negated } => Ok(Expr::IsNull {
                expr: Box::new(self.bind_having(expr, block, input_schema, agg_schema)?),
                negated: *negated,
            }),
        }
    }

    // ----------------------------------------------------------------- DDL

    /// Bind a CREATE TABLE statement to a validated [`TableDef`].
    pub fn bind_create_table(
        &self,
        name: &str,
        columns: &[ColumnDefAst],
        constraints: &[TableConstraintAst],
    ) -> Result<TableDef> {
        let mut defs = Vec::with_capacity(columns.len());
        let mut extra_constraints: Vec<Constraint> = Vec::new();
        for c in columns {
            let (data_type, domain_check, domain_name) = match &c.data_type {
                TypeRef::Builtin(t) => (*t, None, None),
                TypeRef::Domain(d) => {
                    let domain = self
                        .catalog
                        .domain(d)
                        .ok_or_else(|| Error::Catalog(format!("unknown domain {d}")))?;
                    (
                        domain.data_type,
                        domain.check.clone(),
                        Some(domain.name.clone()),
                    )
                }
            };
            let mut def = ColumnDef::new(c.name.clone(), data_type);
            def.domain = domain_name;
            if c.not_null {
                def = def.not_null();
            }
            if let Some(check) = domain_check {
                def = def.with_check(check);
            }
            for check in &c.checks {
                def = def.with_check(ast_to_raw_expr(check)?);
            }
            if c.primary_key {
                extra_constraints.push(Constraint::PrimaryKey(vec![c.name.clone()]));
            }
            if c.unique {
                extra_constraints.push(Constraint::Unique(vec![c.name.clone()]));
            }
            if let Some((ref_table, ref_columns)) = &c.references {
                extra_constraints.push(Constraint::ForeignKey {
                    columns: vec![c.name.clone()],
                    ref_table: ref_table.clone(),
                    ref_columns: ref_columns.clone(),
                });
            }
            defs.push(def);
        }
        let mut table = TableDef::new(name, defs);
        for c in extra_constraints {
            table = table.with_constraint(c);
        }
        for c in constraints {
            let bound = match c {
                TableConstraintAst::PrimaryKey(cols) => Constraint::PrimaryKey(cols.clone()),
                TableConstraintAst::Unique(cols) => Constraint::Unique(cols.clone()),
                TableConstraintAst::Check(e) => Constraint::Check {
                    name: None,
                    expr: ast_to_raw_expr(e)?,
                },
                TableConstraintAst::ForeignKey {
                    columns,
                    ref_table,
                    ref_columns,
                } => Constraint::ForeignKey {
                    columns: columns.clone(),
                    ref_table: ref_table.clone(),
                    ref_columns: ref_columns.clone(),
                },
            };
            table = table.with_constraint(bound);
        }
        table.validate()
    }

    /// Bind a CREATE DOMAIN statement.
    pub fn bind_create_domain(
        &self,
        name: &str,
        data_type: gbj_types::DataType,
        check: Option<&AstExpr>,
    ) -> Result<Domain> {
        Ok(Domain {
            name: name.to_string(),
            data_type,
            check: check.map(ast_to_raw_expr).transpose()?,
        })
    }

    /// Bind a CREATE VIEW statement, validating the defining query.
    pub fn bind_create_view(
        &self,
        name: &str,
        columns: &[String],
        query_sql: &str,
    ) -> Result<ViewDef> {
        let stmt = match parse_sql(query_sql)? {
            Statement::Select(s) => s,
            _ => {
                return Err(Error::Bind(format!(
                    "view {name} must be defined by a SELECT"
                )))
            }
        };
        let bound = self.bind_select(&stmt)?;
        if !columns.is_empty() && columns.len() != bound.block.select.len() {
            return Err(Error::Bind(format!(
                "view {name} declares {} columns but selects {}",
                columns.len(),
                bound.block.select.len()
            )));
        }
        Ok(ViewDef {
            name: name.to_string(),
            columns: columns.to_vec(),
            query_sql: query_sql.to_string(),
        })
    }

    /// Bind an expression scoped to a single table (DELETE/UPDATE
    /// predicates and assignment values): names resolve against the
    /// table's own schema.
    pub fn bind_table_expr(&self, table: &str, ast: &AstExpr) -> Result<Expr> {
        let def = self
            .catalog
            .table(table)
            .ok_or_else(|| Error::Bind(format!("unknown table {table}")))?;
        let schema = def.schema(&def.name);
        self.bind_scalar(ast, &schema)
    }

    /// Evaluate INSERT row expressions to values (literals and literal
    /// arithmetic only).
    pub fn bind_values(&self, rows: &[Vec<AstExpr>]) -> Result<Vec<Vec<Value>>> {
        let empty = Schema::empty();
        rows.iter()
            .map(|row| {
                row.iter()
                    .map(|e| {
                        let expr = self.bind_scalar(e, &empty)?;
                        expr.eval(&[], &empty)
                    })
                    .collect()
            })
            .collect()
    }
}

/// Convert an AST expression to a *raw* expression (names kept as
/// written, unresolved) — used for constraint expressions whose scope is
/// a single table or domain.
fn ast_to_raw_expr(ast: &AstExpr) -> Result<Expr> {
    Ok(match ast {
        AstExpr::Name(parts) => Expr::Column(name_to_ref(parts)?),
        AstExpr::Literal(v) => Expr::Literal(v.clone()),
        AstExpr::Binary { left, op, right } => Expr::Binary {
            left: Box::new(ast_to_raw_expr(left)?),
            op: *op,
            right: Box::new(ast_to_raw_expr(right)?),
        },
        AstExpr::Not(e) => Expr::Not(Box::new(ast_to_raw_expr(e)?)),
        AstExpr::Neg(e) => Expr::Neg(Box::new(ast_to_raw_expr(e)?)),
        AstExpr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(ast_to_raw_expr(expr)?),
            negated: *negated,
        },
        AstExpr::Func { name, .. } => {
            return Err(Error::Bind(format!(
                "aggregate {name} is not allowed in constraints"
            )))
        }
    })
}

fn name_to_ref(parts: &[String]) -> Result<ColumnRef> {
    match parts {
        [col] => Ok(ColumnRef::bare(col.clone())),
        [table, col] => Ok(ColumnRef::qualified(table.clone(), col.clone())),
        _ => Err(Error::Bind(format!(
            "invalid column reference {}",
            parts.join(".")
        ))),
    }
}

/// The schema of the aggregate output (grouping columns + aggregate
/// aliases) used to bind HAVING.
fn aggregate_output_schema(block: &QueryBlock, input_schema: &Schema) -> Result<Schema> {
    let mut fields = Vec::new();
    for g in &block.group_by {
        let (_, f) = input_schema.resolve(g)?;
        fields.push(f.clone());
    }
    for (call, alias) in &block.aggregates {
        fields.push(gbj_types::Field::new(
            alias.clone(),
            call.data_type(input_schema)?,
            true,
        ));
    }
    Ok(Schema::new(fields))
}

/// Rename a block's output columns in order (for `CREATE VIEW v (a, b)`).
fn rename_block_outputs(block: &mut QueryBlock, names: &[String]) -> Result<()> {
    if names.len() != block.select.len() {
        return Err(Error::Bind(format!(
            "view declares {} columns but its query selects {}",
            names.len(),
            block.select.len()
        )));
    }
    for (item, name) in block.select.iter_mut().zip(names) {
        match item {
            SelectItem::Column { alias, .. } => *alias = name.clone(),
            SelectItem::Aggregate { index } => {
                if let Some(agg) = block.aggregates.get_mut(*index) {
                    agg.1 = name.clone();
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbj_types::DataType;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.create_table(
            TableDef::new(
                "Department",
                vec![
                    ColumnDef::new("DeptID", DataType::Int64),
                    ColumnDef::new("Name", DataType::Utf8),
                ],
            )
            .with_constraint(Constraint::PrimaryKey(vec!["DeptID".into()])),
        )
        .unwrap();
        c.create_table(
            TableDef::new(
                "Employee",
                vec![
                    ColumnDef::new("EmpID", DataType::Int64),
                    ColumnDef::new("DeptID", DataType::Int64),
                    ColumnDef::new("Salary", DataType::Int64),
                ],
            )
            .with_constraint(Constraint::PrimaryKey(vec!["EmpID".into()])),
        )
        .unwrap();
        c.create_view(ViewDef {
            name: "DeptCounts".into(),
            columns: vec!["DeptID".into(), "Cnt".into()],
            query_sql: "SELECT E.DeptID, COUNT(E.EmpID) FROM Employee E GROUP BY E.DeptID".into(),
        })
        .unwrap();
        c
    }

    fn bind(sql: &str) -> Result<BoundSelect> {
        let cat = catalog();
        let stmt = parse_sql(sql)?;
        let Statement::Select(s) = stmt else {
            panic!("not a select")
        };
        Binder::new(&cat).bind_select(&s)
    }

    #[test]
    fn binds_example1_shape() {
        let b = bind(
            "SELECT D.DeptID, D.Name, COUNT(E.EmpID) \
             FROM Employee E, Department D \
             WHERE E.DeptID = D.DeptID GROUP BY D.DeptID, D.Name",
        )
        .unwrap();
        assert_eq!(b.block.relations.len(), 2);
        assert_eq!(b.block.group_by.len(), 2);
        assert_eq!(b.block.aggregates.len(), 1);
        assert_eq!(b.block.aggregates[0].1, "count");
        let schema = b.block.output_schema().unwrap();
        assert_eq!(schema.field(2).name, "count");
    }

    #[test]
    fn qualifies_unqualified_columns() {
        let b = bind("SELECT Name FROM Department WHERE DeptID = 1").unwrap();
        // The WHERE conjunct is fully qualified by the binder.
        assert_eq!(b.block.predicate[0].to_string(), "(Department.DeptID = 1)");
        let SelectItem::Column { col, .. } = &b.block.select[0] else {
            panic!()
        };
        assert_eq!(col, &ColumnRef::qualified("Department", "Name"));
    }

    #[test]
    fn ambiguous_unqualified_column_is_an_error() {
        let err = bind("SELECT DeptID FROM Employee E, Department D WHERE E.DeptID = D.DeptID")
            .unwrap_err();
        assert!(err.message().contains("ambiguous"));
    }

    #[test]
    fn wildcard_expansion() {
        let b = bind("SELECT * FROM Department").unwrap();
        assert_eq!(b.block.select.len(), 2);
        let s = b.block.output_schema().unwrap();
        assert_eq!(s.field(0).name, "DeptID");
        assert_eq!(s.field(1).name, "Name");
    }

    #[test]
    fn wildcard_with_group_by_rejected() {
        assert!(bind("SELECT * FROM Department GROUP BY DeptID").is_err());
    }

    #[test]
    fn selection_must_be_grouped() {
        let err = bind("SELECT Name, COUNT(*) FROM Department GROUP BY DeptID").unwrap_err();
        assert!(err.message().contains("GROUP BY"));
    }

    #[test]
    fn view_expansion_creates_derived_relation() {
        let b = bind(
            "SELECT V.DeptID, V.Cnt, D.Name FROM DeptCounts V, Department D \
             WHERE V.DeptID = D.DeptID",
        )
        .unwrap();
        assert!(b.block.relations[0].is_derived());
        let s = b.block.output_schema().unwrap();
        assert_eq!(s.field(1).name, "Cnt", "view column renames apply");
    }

    #[test]
    fn having_binds_matching_aggregate() {
        let b = bind("SELECT DeptID, COUNT(*) FROM Employee GROUP BY DeptID HAVING COUNT(*) > 2")
            .unwrap();
        let h = b.block.having.unwrap();
        assert_eq!(h.to_string(), "(count > 2)");
    }

    #[test]
    fn having_with_unselected_aggregate_rejected() {
        let err =
            bind("SELECT DeptID, COUNT(*) FROM Employee GROUP BY DeptID HAVING SUM(Salary) > 2")
                .unwrap_err();
        assert_eq!(err.kind(), "unsupported");
    }

    #[test]
    fn order_by_binds_output_columns() {
        let b = bind("SELECT DeptID, COUNT(*) AS n FROM Employee GROUP BY DeptID ORDER BY n DESC")
            .unwrap();
        assert_eq!(b.order_by.len(), 1);
        assert_eq!(b.order_by[0].0.column, "n");
        assert!(!b.order_by[0].1);
        // Ordering by a non-output column fails.
        assert!(bind("SELECT DeptID FROM Employee GROUP BY DeptID ORDER BY Salary").is_err());
    }

    #[test]
    fn aggregate_alias_uniquing() {
        let b = bind("SELECT DeptID, COUNT(*), COUNT(*) FROM Employee GROUP BY DeptID").unwrap();
        assert_eq!(b.block.aggregates[0].1, "count");
        assert_eq!(b.block.aggregates[1].1, "count_1");
    }

    #[test]
    fn scalar_aggregate_without_group_by() {
        let b = bind("SELECT COUNT(*), SUM(Salary) FROM Employee").unwrap();
        assert!(b.block.group_by.is_empty());
        assert_eq!(b.block.aggregates.len(), 2);
    }

    #[test]
    fn unsupported_select_expressions() {
        assert!(bind("SELECT Salary + 1 FROM Employee").is_err());
        assert!(bind("SELECT SUM(Salary) + 1 FROM Employee").is_err());
        assert!(bind("SELECT FOO(Salary) FROM Employee").is_err());
    }

    #[test]
    fn unknown_names_error() {
        assert!(bind("SELECT * FROM Mystery").is_err());
        assert!(bind("SELECT Missing FROM Department").is_err());
        assert!(bind("SELECT Name FROM Department WHERE X.DeptID = 1").is_err());
    }

    #[test]
    fn type_errors_surface_at_bind_time() {
        assert!(bind("SELECT Name FROM Department WHERE Name = 1").is_err());
        assert!(bind("SELECT SUM(Name) FROM Department").is_err());
    }

    #[test]
    fn bind_create_table_resolves_domains() {
        let mut cat = catalog();
        cat.create_domain(Domain {
            name: "SmallId".into(),
            data_type: DataType::Int64,
            check: Some(Expr::bare("VALUE").binary(gbj_expr::BinaryOp::Gt, Expr::lit(0i64))),
        })
        .unwrap();
        let binder = Binder::new(&cat);
        let Statement::CreateTable {
            name,
            columns,
            constraints,
        } = parse_sql("CREATE TABLE T (id SmallId PRIMARY KEY, ref_id INT REFERENCES Department)")
            .unwrap()
        else {
            panic!()
        };
        let def = binder
            .bind_create_table(&name, &columns, &constraints)
            .unwrap();
        assert_eq!(def.columns[0].data_type, DataType::Int64);
        assert_eq!(def.columns[0].domain.as_deref(), Some("SmallId"));
        assert_eq!(def.columns[0].checks.len(), 1, "domain check copied");
        assert_eq!(def.primary_key().unwrap(), &["id".to_string()]);
        assert_eq!(def.foreign_keys().count(), 1);
        // Unknown domain errors.
        let Statement::CreateTable {
            name,
            columns,
            constraints,
        } = parse_sql("CREATE TABLE U (x NoSuchDomain)").unwrap()
        else {
            panic!()
        };
        assert!(binder
            .bind_create_table(&name, &columns, &constraints)
            .is_err());
    }

    #[test]
    fn bind_values_evaluates_literals() {
        let cat = catalog();
        let binder = Binder::new(&cat);
        let Statement::Insert { rows, .. } =
            parse_sql("INSERT INTO t VALUES (1, -2, 'x', NULL, 2 + 3)").unwrap()
        else {
            panic!()
        };
        let vals = binder.bind_values(&rows).unwrap();
        assert_eq!(
            vals[0],
            vec![
                Value::Int(1),
                Value::Int(-2),
                Value::str("x"),
                Value::Null,
                Value::Int(5)
            ]
        );
    }

    #[test]
    fn bind_create_view_validates_the_query() {
        let cat = catalog();
        let binder = Binder::new(&cat);
        let v = binder
            .bind_create_view("V", &["a".into()], "SELECT DeptID FROM Department")
            .unwrap();
        assert_eq!(v.columns, vec!["a"]);
        // Arity mismatch.
        assert!(binder
            .bind_create_view(
                "V",
                &["a".into(), "b".into()],
                "SELECT DeptID FROM Department",
            )
            .is_err());
        // Invalid query.
        assert!(binder
            .bind_create_view("V", &[], "SELECT Nope FROM Department")
            .is_err());
    }
}
