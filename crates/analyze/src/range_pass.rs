//! Pass 6: abstract interpretation of per-column range / NULL-ness /
//! NDV domains over logical plans.
//!
//! A bottom-up walk assigns every plan node a [`DomainNode`]: one
//! [`ColumnDomain`] per output column, seeded at the scans from the
//! catalog ([`SeedDomains`] — column types, NOT NULL / PRIMARY KEY
//! declarations and per-column `CHECK` constraints, optionally merged
//! with observed data statistics by the engine) and transferred through
//! filter / project / join / group. Grouping honours the paper's `=ⁿ`
//! semantics: NULL forms its own group, so a nullable grouping column
//! contributes `NDV + 1` possible groups and keeps its nullability in
//! the output.
//!
//! Predicates are read through the lowering `⌊P⌋` of `gbj_expr::lower`,
//! the same two-valued tree the pipeline's mask kernels evaluate: each
//! WHERE / ON conjunct is bound and lowered once, its verdict is a
//! Boolean abstract evaluation of that tree — can it hold, can it fail
//! — and the facts a kept row satisfies are read off its comparison and
//! validity leaves. A comparison leaf `def(a, b) ∧ a op b` takes both
//! answers from the operand domains; `def` can fail on a NULL, on a
//! `Float64` operand (NaN compares with nothing) and on a cross-type
//! pair. A conjunct that does not lower (arithmetic) proves nothing and
//! refines nothing. The GBJ6xx diagnostic family:
//!
//! * **GBJ601** — a predicate that can never hold: `⌊P⌋` discards the
//!   whole subtree (e.g. `x > 10 AND x < 5`).
//! * **GBJ602** — a predicate that can never fail: `⌊P⌋` keeps every
//!   row. Since the tree is two-valued, a NULL or NaN operand is just
//!   another way to fail, so Libkin's 2VL-safety obligation needs no
//!   argument of its own.
//! * **GBJ603** — an equality between two columns with provably
//!   disjoint domains: the (join) output is empty regardless of data.
//! * **GBJ604** — an `IS [NOT] NULL` check on a column proven
//!   non-NULL: the check is constant and 2VL-safe to delete.
//! * **GBJ605** — a comparison against a literal outside the column's
//!   proven domain (`CHECK (Usage >= 0)` vs `Usage = -3`).
//!
//! Comparisons against a literal `NULL` are GBJ301's territory
//! (`null_pass`); this pass suppresses its own node-level findings
//! there so each defect gets exactly one code.
//!
//! The per-node domains feed the engine, which derives hard cardinality
//! upper bounds from them (`groups ≤ Π NDV`, empty-subtree proofs) to
//! clamp the estimator, and EXPLAIN's `domains:` line.

use std::borrow::Cow;
use std::collections::BTreeMap;

use gbj_catalog::{Catalog, ColumnDef, TableDef};
use gbj_expr::{AggregateFunction, BinaryOp, Expr, Lowered, Operand};
use gbj_plan::LogicalPlan;
use gbj_types::{ColumnRef, DataType, Field, Schema, Value};

use crate::diag::{Code, Diagnostic, PlanPath, Report};
use crate::domain::{
    compare_domain_literal, compare_domains, refine_by_literal, ColumnDomain, Interval, Nullability,
};

/// The canonical map key of a schema field: `qualifier.name` (or the
/// bare name), lowercase.
#[must_use]
pub fn field_key(f: &Field) -> String {
    match &f.qualifier {
        Some(q) => format!("{}.{}", q.to_lowercase(), f.name.to_lowercase()),
        None => f.name.to_lowercase(),
    }
}

/// Seed domains per base table, keyed by lowercase table and column
/// names. Built from the catalog (types, NOT NULL / PRIMARY KEY,
/// per-column CHECK constraints); the engine can merge observed data
/// statistics (min/max, distinct counts) on top for estimate clamping.
#[derive(Debug, Clone, Default)]
pub struct SeedDomains {
    tables: BTreeMap<String, BTreeMap<String, ColumnDomain>>,
}

impl SeedDomains {
    /// Derive seeds for every catalog table: the column type bounds the
    /// interval shape, NOT NULL (incl. PRIMARY KEY, forced by
    /// validation) bounds nullability, and each per-column `CHECK`
    /// restricts the non-NULL values. The CHECK restriction is sound
    /// under 3VL because a constraint passes when its predicate is *not
    /// false* — a NULL satisfies `CHECK (x > 0)` vacuously, so the
    /// check constrains only the non-NULL values and the declared
    /// nullability is kept.
    #[must_use]
    pub fn from_catalog(catalog: &Catalog) -> SeedDomains {
        SeedDomains::for_tables(catalog.tables())
    }

    /// [`SeedDomains::from_catalog`] restricted to `tables` — all a
    /// range pass over plans that scan only those tables reads.
    #[must_use]
    pub fn for_tables<'a>(tables: impl IntoIterator<Item = &'a TableDef>) -> SeedDomains {
        let mut seeds = SeedDomains::default();
        for table in tables {
            for col in &table.columns {
                seeds.insert(&table.name, &col.name, check_domain(col));
            }
        }
        seeds
    }

    /// Insert (replacing) a seed for `table.column`.
    pub fn insert(&mut self, table: &str, column: &str, domain: ColumnDomain) {
        self.tables
            .entry(table.to_lowercase())
            .or_default()
            .insert(column.to_lowercase(), domain);
    }

    /// Meet a fact into an existing seed (used by the engine to merge
    /// data statistics on top of the catalog seed).
    pub fn merge(&mut self, table: &str, column: &str, fact: &ColumnDomain) {
        let entry = self
            .tables
            .entry(table.to_lowercase())
            .or_default()
            .entry(column.to_lowercase())
            .or_insert_with(|| ColumnDomain::top(true));
        *entry = entry.intersect(fact);
    }

    /// The seed for `table.column`, if any.
    #[must_use]
    pub fn get(&self, table: &str, column: &str) -> Option<&ColumnDomain> {
        self.tables
            .get(&table.to_lowercase())?
            .get(&column.to_lowercase())
    }
}

/// The seed of one catalog column: its type and NOT NULL, met with its
/// CHECKs. A CHECK admits the rows where `⌈P⌉` holds; on a non-NULL,
/// comparable value every comparison in a one-column `P` is defined, so
/// there `⌈P⌉` is `⌊P⌋`, and the refinement `⌊P⌋` implies bounds the
/// comparable values — which is all an interval or value set describes.
/// NULL and NaN pass vacuously: the declared nullability is kept, and a
/// `Float64` column takes no NDV bound from its CHECK (NaN would be one
/// more value).
fn check_domain(col: &ColumnDef) -> ColumnDomain {
    let schema = Schema::new(vec![Field::new(
        col.name.clone(),
        col.data_type,
        col.nullable,
    )]);
    let mut map = DomainMap::new();
    for check in &col.checks {
        if let Some(lowered) = check.bind(&schema).ok().and_then(|b| b.lower_floor()) {
            refine(&mut map, &schema, &lowered);
        }
    }
    let mut dom = map
        .into_values()
        .next()
        .unwrap_or_else(|| ColumnDomain::for_type(col.data_type, col.nullable));
    dom.nullability = if col.nullable {
        Nullability::Maybe
    } else {
        Nullability::Never
    };
    if col.data_type == DataType::Float64 {
        dom.ndv = None;
    }
    dom
}

/// The abstract state at one plan node.
#[derive(Debug, Clone, Default)]
pub struct DomainNode {
    /// Per-output-column domains, keyed by [`field_key`].
    pub columns: BTreeMap<String, ColumnDomain>,
    /// Whether this node's own predicate is provably never `true`
    /// (the node's output is empty under `⌊P⌋`).
    pub never_true: bool,
    /// Child states, in plan order.
    pub children: Vec<DomainNode>,
}

impl DomainNode {
    /// The domain of a column reference, resolved against the node's
    /// output schema.
    #[must_use]
    pub fn domain_of(&self, schema: &Schema, col: &ColumnRef) -> Option<&ColumnDomain> {
        let (_, field) = schema.resolve(col).ok()?;
        self.columns.get(&field_key(field))
    }

    /// Deterministic one-line rendering of the non-trivial column
    /// facts, in `schema` field order: `E.Age: [31,+inf] not-null; ...`.
    /// Empty string when nothing is known.
    #[must_use]
    pub fn render_columns(&self, schema: &Schema) -> String {
        let mut parts: Vec<String> = vec![];
        for f in schema.fields() {
            if let Some(dom) = self.columns.get(&field_key(f)) {
                let rendered = dom.render();
                if !rendered.is_empty() {
                    parts.push(format!("{}: {rendered}", display_name(f)));
                }
            }
        }
        parts.join("; ")
    }
}

/// How EXPLAIN and the diagnostics name a field: `qualifier.name`.
fn display_name(f: &Field) -> String {
    match &f.qualifier {
        Some(q) => format!("{q}.{}", f.name),
        None => f.name.clone(),
    }
}

/// The pass output: diagnostics and the root abstract state (children
/// nested inside, mirroring the plan shape).
#[derive(Debug, Clone)]
pub struct RangeAnalysis {
    /// GBJ6xx findings.
    pub report: Report,
    /// The root node's abstract state.
    pub root: DomainNode,
}

/// Run the abstract interpreter over a plan.
#[must_use]
pub fn analyze_plan(plan: &LogicalPlan, seeds: &SeedDomains) -> RangeAnalysis {
    let mut report = Report::new(String::new());
    let root = walk(plan, &PlanPath::root(plan.label()), seeds, &mut report);
    RangeAnalysis { report, root }
}

type DomainMap = BTreeMap<String, ColumnDomain>;

fn walk(
    plan: &LogicalPlan,
    path: &PlanPath,
    seeds: &SeedDomains,
    report: &mut Report,
) -> DomainNode {
    let children: Vec<DomainNode> = plan
        .children()
        .iter()
        .enumerate()
        .map(|(i, c)| walk(c, &path.child(i, c.label()), seeds, report))
        .collect();
    let mut node = DomainNode {
        columns: BTreeMap::new(),
        never_true: false,
        children,
    };
    match plan {
        LogicalPlan::Scan { table, schema, .. } => {
            for f in schema.fields() {
                let mut dom = seeds
                    .get(table, &f.name)
                    .cloned()
                    .unwrap_or_else(|| ColumnDomain::for_type(f.data_type, f.nullable));
                if !f.nullable {
                    dom.nullability = Nullability::Never;
                }
                node.columns.insert(field_key(f), dom);
            }
        }
        LogicalPlan::Filter { input, predicate } => {
            let mut map = node
                .children
                .first()
                .map(|c| c.columns.clone())
                .unwrap_or_default();
            if let Ok(schema) = input.schema() {
                node.never_true = apply_predicate(&mut map, &schema, predicate, path, report);
            }
            node.columns = map;
        }
        LogicalPlan::Join {
            left,
            right,
            condition,
        } => {
            let mut map = merged_children(&node);
            if let (Ok(ls), Ok(rs)) = (left.schema(), right.schema()) {
                let schema = ls.join(&rs);
                node.never_true = apply_predicate(&mut map, &schema, condition, path, report);
            }
            node.columns = map;
        }
        LogicalPlan::CrossJoin { .. } => {
            node.columns = merged_children(&node);
        }
        LogicalPlan::Project { input, exprs, .. } => {
            let child_map = node.children.first().map(|c| &c.columns);
            if let (Ok(in_schema), Ok(out_schema), Some(child_map)) =
                (input.schema(), plan.schema(), child_map)
            {
                for ((e, _alias), out_field) in exprs.iter().zip(out_schema.fields()) {
                    let dom = match e {
                        Expr::Column(c) => in_schema
                            .resolve(c)
                            .ok()
                            .and_then(|(_, f)| child_map.get(&field_key(f)))
                            .cloned(),
                        Expr::Literal(v) => Some(ColumnDomain::of_literal(v)),
                        _ => None,
                    };
                    if let Some(dom) = dom {
                        node.columns.insert(field_key(out_field), dom);
                    }
                }
            }
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggregates,
        } => {
            let child_map = node
                .children
                .first()
                .map(|c| c.columns.clone())
                .unwrap_or_default();
            if let (Ok(in_schema), Ok(out_schema)) = (input.schema(), plan.schema()) {
                // Group keys keep their domains — including nullability:
                // under `=ⁿ` the NULL group survives grouping.
                for g in group_by {
                    if let Expr::Column(c) = g {
                        if let Ok((_, f)) = in_schema.resolve(c) {
                            if let Some(dom) = child_map.get(&field_key(f)) {
                                node.columns.insert(field_key(f), dom.clone());
                            }
                        }
                    }
                }
                let agg_fields = out_schema.fields().iter().skip(group_by.len());
                for ((call, _alias), out_field) in aggregates.iter().zip(agg_fields) {
                    let dom = aggregate_domain(call, &in_schema, &child_map, !group_by.is_empty());
                    node.columns.insert(field_key(out_field), dom);
                }
            }
        }
        LogicalPlan::SubqueryAlias { input, .. } => {
            let child_map = node.children.first().map(|c| &c.columns);
            if let (Ok(in_schema), Ok(out_schema), Some(child_map)) =
                (input.schema(), plan.schema(), child_map)
            {
                for (in_f, out_f) in in_schema.fields().iter().zip(out_schema.fields()) {
                    if let Some(dom) = child_map.get(&field_key(in_f)) {
                        node.columns.insert(field_key(out_f), dom.clone());
                    }
                }
            }
        }
        LogicalPlan::Sort { .. } => {
            node.columns = node
                .children
                .first()
                .map(|c| c.columns.clone())
                .unwrap_or_default();
        }
    }
    node
}

fn merged_children(node: &DomainNode) -> DomainMap {
    let mut map = DomainMap::new();
    for c in &node.children {
        for (k, v) in &c.columns {
            map.insert(k.clone(), v.clone());
        }
    }
    map
}

/// The abstract value of one aggregate output column.
fn aggregate_domain(
    call: &gbj_expr::AggregateCall,
    in_schema: &Schema,
    child_map: &DomainMap,
    grouped: bool,
) -> ColumnDomain {
    let arg_dom = match &call.arg {
        Some(Expr::Column(c)) => in_schema
            .resolve(c)
            .ok()
            .and_then(|(_, f)| child_map.get(&field_key(f))),
        _ => None,
    };
    // With GROUP BY every group holds ≥ 1 row, so an aggregate over a
    // non-NULL argument is itself non-NULL; scalar aggregates can see
    // an empty input (NULL result for everything but COUNT).
    let arg_never_null = grouped && arg_dom.is_some_and(|d| d.nullability == Nullability::Never);
    match call.func {
        AggregateFunction::CountStar | AggregateFunction::Count => {
            let lo = if grouped && call.func == AggregateFunction::CountStar {
                1.0
            } else {
                0.0
            };
            ColumnDomain {
                interval: Some(Interval {
                    lo: Some(lo),
                    hi: None,
                    integral: true,
                }),
                values: None,
                nullability: Nullability::Never,
                ndv: None,
            }
        }
        AggregateFunction::Min | AggregateFunction::Max => {
            let mut dom = arg_dom.cloned().unwrap_or_else(|| ColumnDomain::top(true));
            dom.nullability = if arg_never_null {
                Nullability::Never
            } else {
                Nullability::Maybe
            };
            dom
        }
        AggregateFunction::Sum => {
            let mut dom = ColumnDomain::top(true);
            if let Some(i) = arg_dom.and_then(|d| d.interval) {
                // A sum of ≥ 1 same-signed values stays beyond the
                // nearest bound; mixed signs are unbounded.
                dom.interval = Some(Interval {
                    lo: i.lo.filter(|l| *l >= 0.0),
                    hi: i.hi.filter(|h| *h <= 0.0),
                    integral: i.integral,
                });
            }
            dom.nullability = if arg_never_null {
                Nullability::Never
            } else {
                Nullability::Maybe
            };
            dom
        }
        AggregateFunction::Avg => {
            let mut dom = ColumnDomain::top(true);
            if let Some(i) = arg_dom.and_then(|d| d.interval) {
                // The mean stays inside the argument's range.
                dom.interval = Some(Interval {
                    lo: i.lo,
                    hi: i.hi,
                    integral: false,
                });
            }
            dom.nullability = if arg_never_null {
                Nullability::Never
            } else {
                Nullability::Maybe
            };
            dom
        }
    }
}

/// Analyze one Filter / Join predicate over the node's input `schema`:
/// bind and lower each conjunct to `⌊c⌋` once, fire its atom-level
/// finding (GBJ603/604/605) against the node's *input* domains, prove
/// the conjunction's verdict (GBJ601/602) with progressive refinement,
/// refine `map` as if the predicate held, and return whether the node's
/// output is provably empty.
fn apply_predicate(
    map: &mut DomainMap,
    schema: &Schema,
    predicate: &Expr,
    path: &PlanPath,
    report: &mut Report,
) -> bool {
    let conjuncts: Vec<(&Expr, Option<Lowered>)> = flatten_conjuncts(predicate)
        .into_iter()
        .map(|c| (c, c.bind(schema).ok().and_then(|b| b.lower_floor())))
        .collect();
    // A comparison with a literal NULL is GBJ301's (null_pass): it
    // draws no finding from this pass, at either level.
    let mut quiet = false;
    for (written, lowered) in &conjuncts {
        if contains_null_literal_cmp(written) {
            quiet = true;
        } else if let Some(finding) = lowered
            .as_ref()
            .and_then(|l| atom_finding(map, schema, written, l))
        {
            report.push(finding.at(path.clone()));
            quiet = true;
        }
    }
    // Each conjunct is judged on the domains the ones before it left,
    // then refines them as if it held; one that does not lower proves
    // nothing and refines nothing.
    let (mut can_hold, mut can_fail) = (true, false);
    for (_, lowered) in &conjuncts {
        let Some(lowered) = lowered else {
            can_fail = true;
            continue;
        };
        let (hold, fail) = verdict(map, schema, lowered);
        can_hold &= hold;
        can_fail |= fail;
        refine(map, schema, lowered);
    }
    if !quiet && !can_hold {
        report.push(
            Diagnostic::new(
                Code::AlwaysFalsePredicate,
                format!(
                    "predicate `{predicate}` is provably never true: no value in the \
                     columns' domains satisfies it, so ⌊P⌋ keeps no rows"
                ),
            )
            .at(path.clone())
            .note("the subtree under this predicate is provably empty"),
        );
    } else if !quiet && !can_fail {
        report.push(
            Diagnostic::new(
                Code::TautologicalPredicate,
                format!(
                    "predicate `{predicate}` is provably true on every row — the \
                     operands are non-NULL (2VL-safe) and their domains admit no \
                     other outcome"
                ),
            )
            .at(path.clone())
            .note("the filter keeps everything; it can be deleted without changing answers"),
        );
    }
    !can_hold
}

/// Flatten nested `AND`s into a conjunct list.
fn flatten_conjuncts(e: &Expr) -> Vec<&Expr> {
    match e {
        Expr::Binary {
            left,
            op: BinaryOp::And,
            right,
        } => {
            let mut v = flatten_conjuncts(left);
            v.extend(flatten_conjuncts(right));
            v
        }
        other => vec![other],
    }
}

/// Whether the expression contains a comparison against a literal NULL.
fn contains_null_literal_cmp(e: &Expr) -> bool {
    match e {
        Expr::Binary { left, op, right } if op.is_comparison() => {
            matches!(left.as_ref(), Expr::Literal(Value::Null))
                || matches!(right.as_ref(), Expr::Literal(Value::Null))
        }
        Expr::Binary { left, right, .. } => {
            contains_null_literal_cmp(left) || contains_null_literal_cmp(right)
        }
        Expr::Not(inner) | Expr::Neg(inner) => contains_null_literal_cmp(inner),
        _ => false,
    }
}

/// Column `i` of the node's input: its field, and its domain in `map`
/// (the type's when nothing is known yet).
fn column<'a>(
    map: &'a DomainMap,
    schema: &'a Schema,
    i: usize,
) -> Option<(&'a Field, Cow<'a, ColumnDomain>)> {
    let field = schema.fields().get(i)?;
    let dom = map.get(&field_key(field)).map_or_else(
        || Cow::Owned(ColumnDomain::for_type(field.data_type, field.nullable)),
        Cow::Borrowed,
    );
    Some((field, dom))
}

/// The atom-level finding one lowered conjunct earns against `map`,
/// printed as `atom` was written: a NULL check on a column proven
/// non-NULL (GBJ604), a comparison with a literal outside the column's
/// domain (GBJ605), an equality of two disjoint columns (GBJ603).
fn atom_finding(
    map: &DomainMap,
    schema: &Schema,
    atom: &Expr,
    lowered: &Lowered,
) -> Option<Diagnostic> {
    let (c, verdict) = match lowered {
        Lowered::Valid(c) => (*c, "true"),
        Lowered::Not(inner) => match **inner {
            Lowered::Valid(c) => (c, "false"),
            _ => return None,
        },
        Lowered::Cmp {
            left: Operand::Column(c),
            op,
            right: Operand::Literal(v),
        } => {
            let (field, dom) = column(map, schema, *c)?;
            if compare_domain_literal(&dom, *op, v).0 || dom.is_value_empty() {
                return None;
            }
            return Some(
                Diagnostic::new(
                    Code::OutOfDomainComparison,
                    format!(
                        "`{atom}` can never be true: the proven domain of `{}` is `{}`",
                        display_name(field),
                        dom.render()
                    ),
                )
                .note("the literal lies outside the column's proven domain"),
            );
        }
        Lowered::Cmp {
            left: Operand::Column(a),
            op: BinaryOp::Eq,
            right: Operand::Column(b),
        } => {
            let ((fa, da), (fb, db)) = (column(map, schema, *a)?, column(map, schema, *b)?);
            if compare_domains(&da, BinaryOp::Eq, &db).0
                || da.is_value_empty()
                || db.is_value_empty()
            {
                return None;
            }
            return Some(
                Diagnostic::new(
                    Code::ProvablyEmptyJoin,
                    format!(
                        "equi-join key domains are disjoint: `{}` in `{}` never equals `{}` \
                         in `{}`",
                        display_name(fa),
                        da.render(),
                        display_name(fb),
                        db.render()
                    ),
                )
                .note("the join output is provably empty regardless of the data"),
            );
        }
        _ => return None,
    };
    let (field, dom) = column(map, schema, c)?;
    (dom.nullability == Nullability::Never).then(|| {
        Diagnostic::new(
            Code::RedundantNullCheck,
            format!(
                "`{atom}` is constantly {verdict}: `{}` is proven non-NULL, so the check is \
                 redundant and 2VL-safe to delete",
                display_name(field)
            ),
        )
    })
}

/// `(can_hold, can_fail)`: whether the lowered condition can be true,
/// and whether it can be false, on some row the domains in `map` allow.
/// The tree is two-valued, so the connectives are Boolean.
fn verdict(map: &DomainMap, schema: &Schema, lowered: &Lowered) -> (bool, bool) {
    match lowered {
        Lowered::Const(b) => (*b, !*b),
        Lowered::Valid(c) => match column(map, schema, *c).map(|(_, d)| d.nullability) {
            Some(Nullability::Never) => (true, false),
            Some(Nullability::Always) => (false, true),
            _ => (true, true),
        },
        Lowered::Bool { .. } => (true, true),
        Lowered::Cmp { left, op, right } => compare(map, schema, left, *op, right),
        Lowered::Not(inner) => {
            let (hold, fail) = verdict(map, schema, inner);
            (fail, hold)
        }
        Lowered::And(a, b) => {
            let ((ha, fa), (hb, fb)) = (verdict(map, schema, a), verdict(map, schema, b));
            (ha && hb, fa || fb)
        }
        Lowered::Or(a, b) => {
            let ((ha, fa), (hb, fb)) = (verdict(map, schema, a), verdict(map, schema, b));
            (ha || hb, fa && fb)
        }
    }
}

/// The comparison leaf `def(a, b) ∧ a op b`: the comparison itself is
/// read off the operand domains, and `def` can fail on a NULL, on NaN
/// and on a cross-type pair. A Boolean expression used as a value
/// proves nothing.
fn compare(
    map: &DomainMap,
    schema: &Schema,
    left: &Operand,
    op: BinaryOp,
    right: &Operand,
) -> (bool, bool) {
    let Some((a, (fa, da))) = (match left {
        Operand::Column(a) => column(map, schema, *a).map(|col| (*a, col)),
        _ => None,
    }) else {
        return (true, true);
    };
    let (hold, fail, defined) = match right {
        Operand::Literal(v) => {
            let (hold, fail) = compare_domain_literal(&da, op, v);
            let nan = matches!(v, Value::Float(f) if f.is_nan());
            let kinds = v.data_type().is_some_and(|t| comparable(fa.data_type, t));
            (hold, fail, kinds && !nan && !da.nullability.can_be_null())
        }
        Operand::Column(b) => {
            let Some((fb, db)) = column(map, schema, *b) else {
                return (true, true);
            };
            let (hold, fail) = if a == *b {
                let reflexive = matches!(op, BinaryOp::Eq | BinaryOp::LtEq | BinaryOp::GtEq);
                (reflexive, !reflexive)
            } else {
                compare_domains(&da, op, &db)
            };
            let kinds =
                comparable(fa.data_type, fb.data_type) && comparable(fb.data_type, fa.data_type);
            let nulls = da.nullability.can_be_null() || db.nullability.can_be_null();
            (hold, fail, kinds && !nulls)
        }
        Operand::Cond { .. } => return (true, true),
    };
    (hold, fail || !defined)
}

/// Whether a non-NULL cell of type `cell` always compares with a
/// non-NaN value of type `other`: a `Float64` cell may hold NaN, and a
/// cross-type pair never compares.
fn comparable(cell: DataType, other: DataType) -> bool {
    cell != DataType::Float64 && (cell == other || (cell.is_numeric() && other.is_numeric()))
}

/// Refine the domains as if the lowered condition held: both sides of an
/// `∧` hold, a comparison with a literal bounds its column (the lowering
/// has moved the literal right), an equality of two columns meets their
/// domains, any comparison that holds proves its columns non-NULL, and
/// `valid(c)` / `¬valid(c)` prove `c` non-NULL / NULL.
fn refine(map: &mut DomainMap, schema: &Schema, lowered: &Lowered) {
    match lowered {
        Lowered::And(a, b) => {
            refine(map, schema, a);
            refine(map, schema, b);
        }
        Lowered::Valid(c) => refine_column(map, schema, *c, |dom, _| {
            dom.nullability = Nullability::Never;
        }),
        Lowered::Not(inner) => {
            if let Lowered::Valid(c) = **inner {
                refine_column(map, schema, c, |dom, _| {
                    dom.nullability = Nullability::Always;
                    dom.clear_values();
                });
            }
        }
        Lowered::Cmp {
            left: Operand::Column(c),
            op,
            right: Operand::Literal(v),
        } => refine_column(map, schema, *c, |dom, ty| {
            refine_by_literal(dom, ty, *op, v)
        }),
        Lowered::Cmp {
            left: Operand::Column(a),
            op,
            right: Operand::Column(b),
        } => {
            let eq = *op == BinaryOp::Eq;
            let [da, db] = [*a, *b].map(|i| {
                column(map, schema, i)
                    .filter(|_| eq)
                    .map(|(_, d)| d.into_owned())
            });
            for (col, other) in [(*a, db), (*b, da)] {
                refine_column(map, schema, col, |dom, _| {
                    if let Some(other) = other {
                        *dom = dom.intersect(&other);
                    }
                    dom.nullability = Nullability::Never;
                });
            }
        }
        _ => {}
    }
}

/// Apply a refinement, given the column's type, to column `i`'s entry
/// in `map` (the type's domain when nothing is known yet).
fn refine_column(
    map: &mut DomainMap,
    schema: &Schema,
    i: usize,
    f: impl FnOnce(&mut ColumnDomain, DataType),
) {
    let Some(field) = schema.fields().get(i) else {
        return;
    };
    let dom = map
        .entry(field_key(field))
        .or_insert_with(|| ColumnDomain::for_type(field.data_type, field.nullable));
    f(dom, field.data_type);
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbj_catalog::TableDef;

    fn scan(nullable_a: bool) -> LogicalPlan {
        LogicalPlan::Scan {
            table: "T".into(),
            qualifier: "T".into(),
            schema: Schema::new(vec![
                Field::new("A", DataType::Int64, nullable_a).with_qualifier("T"),
                Field::new("B", DataType::Int64, false).with_qualifier("T"),
                Field::new("S", DataType::Utf8, true).with_qualifier("T"),
                Field::new("F", DataType::Float64, false).with_qualifier("T"),
            ]),
        }
    }

    fn filter(pred: Expr, nullable_a: bool) -> LogicalPlan {
        LogicalPlan::Filter {
            input: Box::new(scan(nullable_a)),
            predicate: pred,
        }
    }

    fn run(plan: &LogicalPlan) -> RangeAnalysis {
        analyze_plan(plan, &SeedDomains::default())
    }

    #[test]
    fn contradictory_conjunction_is_gbj601() {
        let pred = Expr::col("T", "A")
            .binary(BinaryOp::Gt, Expr::lit(10i64))
            .and(Expr::col("T", "A").binary(BinaryOp::Lt, Expr::lit(5i64)));
        let r = run(&filter(pred, true));
        assert_eq!(r.report.codes(), vec![Code::AlwaysFalsePredicate]);
        assert!(r.root.never_true);
    }

    #[test]
    fn satisfiable_conjunction_is_clean_and_refines() {
        let pred = Expr::col("T", "A")
            .binary(BinaryOp::GtEq, Expr::lit(0i64))
            .and(Expr::col("T", "A").binary(BinaryOp::LtEq, Expr::lit(9i64)));
        let plan = filter(pred, true);
        let r = run(&plan);
        assert!(r.report.is_empty(), "{}", r.report.render_text());
        let schema = plan.schema().unwrap();
        let dom = r
            .root
            .domain_of(&schema, &ColumnRef::qualified("T", "A"))
            .unwrap();
        assert_eq!(dom.group_ndv_upper(), Some(10.0));
        assert_eq!(dom.nullability, Nullability::Never);
    }

    #[test]
    fn tautology_on_non_nullable_is_gbj602() {
        let pred = Expr::col("T", "B").binary(BinaryOp::GtEq, Expr::col("T", "B"));
        let r = run(&filter(pred, true));
        assert_eq!(r.report.codes(), vec![Code::TautologicalPredicate]);
    }

    #[test]
    fn tautology_claim_requires_non_null_operands() {
        // `A >= A` is true of every non-NULL value but UNKNOWN on NULL:
        // claiming a tautology would not be 2VL-safe.
        let pred = Expr::col("T", "A").binary(BinaryOp::GtEq, Expr::col("T", "A"));
        let r = run(&filter(pred, true));
        assert!(r.report.is_empty(), "{}", r.report.render_text());
    }

    #[test]
    fn a_float_operand_can_fail_on_nan() {
        // `F = F` fails on a NaN cell, which is not NULL: no tautology.
        let pred = Expr::col("T", "F").eq(Expr::col("T", "F"));
        assert!(run(&filter(pred, true)).report.is_empty());
        let pred = Expr::col("T", "F").binary(BinaryOp::Lt, Expr::col("T", "F"));
        assert_eq!(
            run(&filter(pred, true)).report.codes(),
            vec![Code::AlwaysFalsePredicate]
        );
    }

    #[test]
    fn refinement_reads_the_lowering() {
        // `5 < A` and `NOT (A <= 5)` both lower to `A > 5`.
        let a = || Expr::col("T", "A");
        let flipped = Expr::lit(5i64).binary(BinaryOp::Lt, a());
        let negated = Expr::Not(Box::new(a().binary(BinaryOp::LtEq, Expr::lit(5i64))));
        for pred in [flipped, negated] {
            let plan = filter(pred, true);
            let r = run(&plan);
            let dom = r
                .root
                .domain_of(&plan.schema().unwrap(), &ColumnRef::qualified("T", "A"))
                .unwrap();
            assert_eq!(dom.render(), "[6,+inf] not-null");
        }
    }

    #[test]
    fn a_null_literal_disjunct_does_not_empty_the_subtree() {
        // `A = NULL OR A > 5` keeps the rows with `A > 5`.
        let pred = Expr::col("T", "A")
            .eq(Expr::Literal(Value::Null))
            .or(Expr::col("T", "A").binary(BinaryOp::Gt, Expr::lit(5i64)));
        let r = run(&filter(pred, true));
        assert!(r.report.is_empty(), "{}", r.report.render_text());
        assert!(!r.root.never_true);
    }

    #[test]
    fn redundant_null_check_is_gbj604() {
        let pred = Expr::IsNull {
            expr: Box::new(Expr::col("T", "B")),
            negated: true,
        };
        let r = run(&filter(pred, true));
        assert_eq!(r.report.codes(), vec![Code::RedundantNullCheck]);
        // The same check on a nullable column is fine.
        let pred = Expr::IsNull {
            expr: Box::new(Expr::col("T", "A")),
            negated: true,
        };
        assert!(run(&filter(pred, true)).report.is_empty());
    }

    #[test]
    fn null_literal_comparisons_are_left_to_gbj301() {
        let pred = Expr::col("T", "A").eq(Expr::Literal(Value::Null));
        let r = run(&filter(pred, true));
        assert!(r.report.is_empty(), "{}", r.report.render_text());
        // ...but the subtree is still proven empty for the bounds.
        assert!(r.root.never_true);
    }

    #[test]
    fn check_seeded_out_of_domain_is_gbj605() {
        let mut catalog = Catalog::new();
        catalog
            .create_table(
                TableDef::new(
                    "T",
                    vec![
                        ColumnDef::new("A", DataType::Int64)
                            .with_check(Expr::bare("A").binary(BinaryOp::GtEq, Expr::lit(0i64))),
                        ColumnDef::new("B", DataType::Int64).not_null(),
                        ColumnDef::new("S", DataType::Utf8),
                    ],
                )
                .validate()
                .unwrap(),
            )
            .unwrap();
        let seeds = SeedDomains::from_catalog(&catalog);
        // CHECK restricts the non-NULL values but keeps nullability.
        let seeded = seeds.get("t", "a").unwrap();
        assert_eq!(seeded.nullability, Nullability::Maybe);
        assert_eq!(seeded.interval.unwrap().lo, Some(0.0));

        let pred = Expr::col("T", "A").eq(Expr::lit(-3i64));
        let plan = filter(pred, true);
        let r = analyze_plan(&plan, &seeds);
        assert_eq!(r.report.codes(), vec![Code::OutOfDomainComparison]);
    }

    #[test]
    fn disjoint_join_keys_are_gbj603() {
        let old = LogicalPlan::Scan {
            table: "Old".into(),
            qualifier: "O".into(),
            schema: Schema::new(vec![
                Field::new("Year", DataType::Int64, false).with_qualifier("O")
            ]),
        };
        let new = LogicalPlan::Scan {
            table: "New".into(),
            qualifier: "N".into(),
            schema: Schema::new(vec![
                Field::new("Year", DataType::Int64, false).with_qualifier("N")
            ]),
        };
        let mut seeds = SeedDomains::default();
        let mut lo = ColumnDomain::for_type(DataType::Int64, false);
        refine_by_literal(&mut lo, DataType::Int64, BinaryOp::Lt, &Value::Int(2000));
        seeds.insert("Old", "Year", lo);
        let mut hi = ColumnDomain::for_type(DataType::Int64, false);
        refine_by_literal(&mut hi, DataType::Int64, BinaryOp::GtEq, &Value::Int(2000));
        seeds.insert("New", "Year", hi);
        let plan = LogicalPlan::Join {
            left: Box::new(old),
            right: Box::new(new),
            condition: Expr::col("O", "Year").eq(Expr::col("N", "Year")),
        };
        let r = analyze_plan(&plan, &seeds);
        assert_eq!(r.report.codes(), vec![Code::ProvablyEmptyJoin]);
        assert!(r.root.never_true);
    }

    #[test]
    fn grouping_preserves_null_group_and_bounds_groups() {
        // GROUP BY a nullable column bounded to [0,9]: ≤ 11 groups
        // under =ⁿ (ten values plus the NULL group).
        let pred = Expr::col("T", "A")
            .binary(BinaryOp::GtEq, Expr::lit(0i64))
            .and(Expr::col("T", "A").binary(BinaryOp::LtEq, Expr::lit(9i64)));
        let agg = LogicalPlan::Aggregate {
            input: Box::new(scan(true)),
            group_by: vec![Expr::col("T", "A")],
            aggregates: vec![(gbj_expr::AggregateCall::count_star(), "cnt".to_string())],
        };
        // No filter: unbounded.
        let r = run(&agg);
        let schema = agg.schema().unwrap();
        let dom = r
            .root
            .domain_of(&schema, &ColumnRef::qualified("T", "A"))
            .unwrap();
        assert_eq!(dom.group_ndv_upper(), None);
        assert_eq!(
            dom.nullability,
            Nullability::Maybe,
            "=ⁿ keeps the NULL group"
        );
        // COUNT(*) over a grouped query is ≥ 1 and non-NULL.
        let cnt = r.root.domain_of(&schema, &ColumnRef::bare("cnt")).unwrap();
        assert_eq!(cnt.nullability, Nullability::Never);
        assert_eq!(cnt.interval.unwrap().lo, Some(1.0));

        // With the filter below: bounded groups.
        let agg = LogicalPlan::Aggregate {
            input: Box::new(filter(pred, true)),
            group_by: vec![Expr::col("T", "A")],
            aggregates: vec![(gbj_expr::AggregateCall::count_star(), "cnt".to_string())],
        };
        let r = run(&agg);
        let dom = r
            .root
            .domain_of(&schema, &ColumnRef::qualified("T", "A"))
            .unwrap();
        // The filter proves A non-NULL, so no NULL group survives.
        assert_eq!(dom.group_ndv_upper(), Some(10.0));
    }

    #[test]
    fn alias_rekeys_domains() {
        let pred = Expr::col("T", "A").binary(BinaryOp::GtEq, Expr::lit(5i64));
        let plan = LogicalPlan::SubqueryAlias {
            input: Box::new(filter(pred, true)),
            alias: "X".into(),
        };
        let r = run(&plan);
        let schema = plan.schema().unwrap();
        let dom = r
            .root
            .domain_of(&schema, &ColumnRef::qualified("X", "A"))
            .unwrap();
        assert_eq!(dom.interval.unwrap().lo, Some(5.0));
    }

    #[test]
    fn rendered_domains_line_is_deterministic() {
        let pred = Expr::col("T", "A").binary(BinaryOp::GtEq, Expr::lit(0i64));
        let plan = filter(pred, true);
        let r = run(&plan);
        let schema = plan.schema().unwrap();
        let line = r.root.render_columns(&schema);
        assert_eq!(line, "T.A: [0,+inf] not-null; T.B: not-null; T.F: not-null");
        let again = run(&plan).root.render_columns(&schema);
        assert_eq!(line, again);
    }
}
