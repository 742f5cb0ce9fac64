//! The reusable diagnostics framework: stable codes, severities,
//! plan-path spans, and text + JSON rendering.
//!
//! Every diagnostic carries a [`Code`] from the fixed registry below.
//! Codes are *stable*: once published they keep their meaning forever,
//! so CI jobs, golden tests and downstream tooling can match on them. A
//! retired code's number is never reused (DESIGN.md §12 lists the
//! retired codes).
//!
//! Code space:
//!
//! * `GBJ1xx` — schema / type soundness over logical plans,
//! * `GBJ2xx` — FD-derivation audit of eager-aggregation rewrites,
//! * `GBJ3xx` — NULL-semantics (2VL vs 3VL) lints,
//! * `GBJ5xx` — cost/statistics findings (the §7 cost decision vs. the
//!   FD-certified rewrite set),
//! * `GBJ6xx` — abstract-interpretation findings from the range/domain
//!   pass (contradictions, tautologies, provably-empty joins, redundant
//!   NULL checks, out-of-domain comparisons).

use std::fmt;

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational: worth knowing, nothing wrong.
    Info,
    /// Suspicious: very likely not what the author meant, but the
    /// engine's behaviour is still well-defined.
    Warning,
    /// A broken invariant: the plan (or the claim attached to it) is
    /// wrong and must not ship.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// A stable diagnostic code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Code {
    /// A column reference does not resolve in its operator's input
    /// schema.
    UnresolvedColumn,
    /// An operator's output schema is not derivable from its inputs.
    UnderivableSchema,
    /// A Filter/Join predicate is not boolean.
    NonBooleanPredicate,
    /// A comparison's operand types are incompatible under 3VL.
    IncomparableTypes,
    /// FD1 `(GA1, GA2) → GA1+` is not derivable (TestFD Step 4h).
    Fd1NotDerivable,
    /// FD2 `(GA1+, GA2) → RowID(R2)` is not derivable: no candidate key
    /// of an `R2` relation is reachable (TestFD Step 4d).
    Fd2NotDerivable,
    /// No usable equality clause survives TestFD Step 2 (Step 3 says
    /// NO).
    NoUsableEqualities,
    /// The CNF→DNF conversion exceeded the clause budget.
    DnfBudgetExceeded,
    /// The query is structurally outside the transformable class (no
    /// aggregates, no GROUP BY, degenerate partition, …).
    RewriteInapplicable,
    /// A predicate compares against a literal NULL: it is `unknown` on
    /// every row, and `⌊P⌋` discards every row — almost certainly
    /// `IS NULL` was meant.
    NullLiteralComparison,
    /// `NOT` over a nullable operand: under naive 2VL, `NOT P` accepts
    /// the rows where `P` is unknown; under the paper's `⌊·⌋`
    /// interpretation both `P` and `NOT P` reject them.
    NotOverNullable,
    /// `⌊P⌋` and `⌈P⌉` provably diverge on NULL inputs for a
    /// `<>`-comparison against a nullable column — rows with NULLs are
    /// in neither `P` nor its complement.
    FloorCeilDivergence,
    /// An eager rewrite does not preserve `=ⁿ` grouping semantics: the
    /// derived block's grouping set differs from `GA1+`, or the outer
    /// grouping set differs from the original `GA`.
    GroupingSemanticsChanged,
    /// The §7 cost model declined an FD-certified eager rewrite on
    /// populated tables: the transformation is *valid* but estimated
    /// slower (group-by input growth outweighs join input shrinkage).
    /// Informational — the paper is explicit that applicability and
    /// profitability are separate questions.
    CostChoiceDivergence,
    /// A sharded run has an aggregate below a join but no FD1/FD2
    /// certificate, so the pre-aggregation cannot be pushed below the
    /// exchange as a combiner: raw rows will cross the wire instead of
    /// per-group partials (§7's distributed saving is forfeited).
    /// Informational — correctness is unaffected, only shipped bytes.
    CombinerNotCertified,
    /// A predicate is provably never `true` under 3VL floor semantics:
    /// the abstract domains of its columns admit no satisfying row, so
    /// `⌊P⌋` discards the entire subtree.
    AlwaysFalsePredicate,
    /// A predicate is provably `true` (never `false`, never `unknown`)
    /// on every possible row: the operands are proven non-null (the
    /// Libkin 2VL-safety obligation), so the filter keeps everything.
    TautologicalPredicate,
    /// An equi-join whose key domains are provably disjoint: the join
    /// output is empty regardless of the data.
    ProvablyEmptyJoin,
    /// An `IS [NOT] NULL` check on a column the domain pass proves
    /// non-null (NOT NULL / PRIMARY KEY, or dominated by an earlier
    /// comparison): the check is constant and 2VL-safe to delete.
    RedundantNullCheck,
    /// A comparison against a literal outside the column's proven
    /// domain (CHECK constraint or domain bounds): it can never be
    /// `true`.
    OutOfDomainComparison,
}

impl Code {
    /// The stable `GBJxxx` identifier.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Code::UnresolvedColumn => "GBJ101",
            Code::UnderivableSchema => "GBJ102",
            Code::NonBooleanPredicate => "GBJ103",
            Code::IncomparableTypes => "GBJ104",
            Code::Fd1NotDerivable => "GBJ202",
            Code::Fd2NotDerivable => "GBJ203",
            Code::NoUsableEqualities => "GBJ204",
            Code::DnfBudgetExceeded => "GBJ205",
            Code::RewriteInapplicable => "GBJ206",
            Code::NullLiteralComparison => "GBJ301",
            Code::NotOverNullable => "GBJ302",
            Code::FloorCeilDivergence => "GBJ303",
            Code::GroupingSemanticsChanged => "GBJ304",
            Code::CostChoiceDivergence => "GBJ501",
            Code::CombinerNotCertified => "GBJ502",
            Code::AlwaysFalsePredicate => "GBJ601",
            Code::TautologicalPredicate => "GBJ602",
            Code::ProvablyEmptyJoin => "GBJ603",
            Code::RedundantNullCheck => "GBJ604",
            Code::OutOfDomainComparison => "GBJ605",
        }
    }

    /// The default severity of the code.
    #[must_use]
    pub fn severity(self) -> Severity {
        match self {
            Code::UnresolvedColumn
            | Code::UnderivableSchema
            | Code::NonBooleanPredicate
            | Code::IncomparableTypes
            | Code::GroupingSemanticsChanged => Severity::Error,
            Code::Fd1NotDerivable
            | Code::Fd2NotDerivable
            | Code::NoUsableEqualities
            | Code::DnfBudgetExceeded
            | Code::NullLiteralComparison
            | Code::NotOverNullable
            | Code::FloorCeilDivergence
            | Code::AlwaysFalsePredicate
            | Code::TautologicalPredicate
            | Code::ProvablyEmptyJoin
            | Code::OutOfDomainComparison => Severity::Warning,
            Code::RewriteInapplicable
            | Code::CostChoiceDivergence
            | Code::CombinerNotCertified
            | Code::RedundantNullCheck => Severity::Info,
        }
    }

    /// One-line description for `--explain`-style listings.
    #[must_use]
    pub fn description(self) -> &'static str {
        match self {
            Code::UnresolvedColumn => "column reference does not resolve in the input schema",
            Code::UnderivableSchema => "operator output schema is not derivable from its inputs",
            Code::NonBooleanPredicate => "filter/join predicate is not boolean",
            Code::IncomparableTypes => "comparison operands are type-incompatible under 3VL",
            Code::Fd1NotDerivable => "FD1 (GA1,GA2) -> GA1+ is not derivable (TestFD Step 4h)",
            Code::Fd2NotDerivable => {
                "FD2: no candidate key of an R2 relation is derivable (TestFD Step 4d)"
            }
            Code::NoUsableEqualities => "no usable equality clauses remain (TestFD Step 3)",
            Code::DnfBudgetExceeded => "CNF->DNF conversion exceeded the clause budget",
            Code::RewriteInapplicable => "query is outside the transformable class",
            Code::NullLiteralComparison => "comparison with literal NULL is always unknown",
            Code::NotOverNullable => "NOT over a nullable operand diverges from 2VL",
            Code::FloorCeilDivergence => "floor/ceil interpretations diverge on NULL inputs",
            Code::GroupingSemanticsChanged => "rewrite changes the =n grouping semantics",
            Code::CostChoiceDivergence => {
                "cost model declined a valid (FD-certified) eager rewrite"
            }
            Code::CombinerNotCertified => {
                "sharded aggregate-below-join without a certificate ships raw rows, not partials"
            }
            Code::AlwaysFalsePredicate => {
                "predicate is provably never true: the subtree is empty under floor semantics"
            }
            Code::TautologicalPredicate => {
                "predicate is provably true on every row (2VL-safe: operands proven non-null)"
            }
            Code::ProvablyEmptyJoin => "equi-join key domains are disjoint: the join is empty",
            Code::RedundantNullCheck => "NULL check on a column proven non-null is constant",
            Code::OutOfDomainComparison => {
                "comparison against a literal outside the column's proven domain"
            }
        }
    }

    /// Every registered code, in `GBJxxx` order — the registry listing
    /// behind `gbj-lint --codes` and the DESIGN.md table.
    #[must_use]
    pub fn all() -> &'static [Code] {
        &[
            Code::UnresolvedColumn,
            Code::UnderivableSchema,
            Code::NonBooleanPredicate,
            Code::IncomparableTypes,
            Code::Fd1NotDerivable,
            Code::Fd2NotDerivable,
            Code::NoUsableEqualities,
            Code::DnfBudgetExceeded,
            Code::RewriteInapplicable,
            Code::NullLiteralComparison,
            Code::NotOverNullable,
            Code::FloorCeilDivergence,
            Code::GroupingSemanticsChanged,
            Code::CostChoiceDivergence,
            Code::CombinerNotCertified,
            Code::AlwaysFalsePredicate,
            Code::TautologicalPredicate,
            Code::ProvablyEmptyJoin,
            Code::RedundantNullCheck,
            Code::OutOfDomainComparison,
        ]
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Where in a plan a diagnostic points: the child-index path from the
/// root plus the node's display label.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PlanPath {
    /// Child indices walked from the root (empty = the root itself).
    pub indices: Vec<usize>,
    /// The label of the node at the end of the path.
    pub label: String,
}

impl PlanPath {
    /// The root of a plan.
    #[must_use]
    pub fn root(label: impl Into<String>) -> PlanPath {
        PlanPath {
            indices: vec![],
            label: label.into(),
        }
    }

    /// Extend the path by one child step.
    #[must_use]
    pub fn child(&self, index: usize, label: impl Into<String>) -> PlanPath {
        let mut indices = self.indices.clone();
        indices.push(index);
        PlanPath {
            indices,
            label: label.into(),
        }
    }

    /// The dotted span form: `$` for the root, `$.0.1` for the second
    /// child of the first child.
    #[must_use]
    pub fn span(&self) -> String {
        let mut s = String::from("$");
        for i in &self.indices {
            s.push('.');
            s.push_str(&i.to_string());
        }
        s
    }
}

impl fmt::Display for PlanPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.span(), self.label)
    }
}

/// One finding of the analyzer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The stable code.
    pub code: Code,
    /// The severity (defaults to [`Code::severity`]).
    pub severity: Severity,
    /// Where in the plan it points (when it points at a plan node).
    pub path: Option<PlanPath>,
    /// The human-readable message.
    pub message: String,
    /// Extra context lines (derivation fragments, suggestions).
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// A diagnostic with the code's default severity.
    #[must_use]
    pub fn new(code: Code, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: code.severity(),
            path: None,
            message: message.into(),
            notes: vec![],
        }
    }

    /// Attach a plan path.
    #[must_use]
    pub fn at(mut self, path: PlanPath) -> Diagnostic {
        self.path = Some(path);
        self
    }

    /// Append a note line.
    #[must_use]
    pub fn note(mut self, note: impl Into<String>) -> Diagnostic {
        self.notes.push(note.into());
        self
    }

    /// Render as a single text block: `severity[CODE] at $.path (label):
    /// message` plus indented notes.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!("{}[{}]", self.severity, self.code.as_str());
        if let Some(p) = &self.path {
            out.push_str(&format!(" at {p}"));
        }
        out.push_str(&format!(": {}", self.message));
        for n in &self.notes {
            out.push_str(&format!("\n    note: {n}"));
        }
        out
    }
}

/// Escape a string for JSON output (the workspace has no serde; this is
/// the same hand-rolled escaping the bench reporters use).
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The collected output of an analyzer run over one query/plan.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    /// What was analyzed (a query string or plan label), for rendering.
    pub subject: String,
    /// Findings, in pass order.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty report for a subject.
    #[must_use]
    pub fn new(subject: impl Into<String>) -> Report {
        Report {
            subject: subject.into(),
            diagnostics: vec![],
        }
    }

    /// Add a finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Merge another report's findings into this one.
    pub fn extend(&mut self, other: Report) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// Whether any finding reaches `at_least`.
    #[must_use]
    pub fn has_severity(&self, at_least: Severity) -> bool {
        self.diagnostics.iter().any(|d| d.severity >= at_least)
    }

    /// The codes present, in finding order.
    #[must_use]
    pub fn codes(&self) -> Vec<Code> {
        self.diagnostics.iter().map(|d| d.code).collect()
    }

    /// Number of findings.
    #[must_use]
    pub fn len(&self) -> usize {
        self.diagnostics.len()
    }

    /// Whether the report is clean.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Render the report as text: one block per diagnostic plus a
    /// summary line. Deterministic — no timings, no absolute paths.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        if !self.subject.is_empty() {
            out.push_str(&format!("lint: {}\n", self.subject));
        }
        for d in &self.diagnostics {
            out.push_str(&d.render());
            out.push('\n');
        }
        let errors = self
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count();
        let warnings = self
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count();
        out.push_str(&format!(
            "{} diagnostic(s): {errors} error(s), {warnings} warning(s)\n",
            self.diagnostics.len()
        ));
        out
    }

    /// Render the report as a JSON object (hand-rolled; stable key
    /// order).
    #[must_use]
    pub fn render_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"subject\":\"{}\",", json_escape(&self.subject)));
        out.push_str("\"diagnostics\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            out.push_str(&format!("\"code\":\"{}\",", d.code.as_str()));
            out.push_str(&format!("\"severity\":\"{}\",", d.severity));
            match &d.path {
                Some(p) => {
                    out.push_str(&format!(
                        "\"span\":\"{}\",\"node\":\"{}\",",
                        json_escape(&p.span()),
                        json_escape(&p.label)
                    ));
                }
                None => out.push_str("\"span\":null,\"node\":null,"),
            }
            out.push_str(&format!("\"message\":\"{}\",", json_escape(&d.message)));
            out.push_str("\"notes\":[");
            for (j, n) in d.notes.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{}\"", json_escape(n)));
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_stable() {
        let all = Code::all();
        let mut seen = std::collections::BTreeSet::new();
        for c in all {
            assert!(seen.insert(c.as_str()), "duplicate code {c}");
            assert!(c.as_str().starts_with("GBJ"));
            assert!(!c.description().is_empty());
        }
        // Spot-pin the published codes: these must never change.
        assert_eq!(Code::UnresolvedColumn.as_str(), "GBJ101");
        assert_eq!(Code::Fd1NotDerivable.as_str(), "GBJ202");
        assert_eq!(Code::Fd2NotDerivable.as_str(), "GBJ203");
        assert_eq!(Code::NullLiteralComparison.as_str(), "GBJ301");
        assert_eq!(Code::AlwaysFalsePredicate.as_str(), "GBJ601");
        assert_eq!(Code::TautologicalPredicate.as_str(), "GBJ602");
        assert_eq!(Code::ProvablyEmptyJoin.as_str(), "GBJ603");
        assert_eq!(Code::RedundantNullCheck.as_str(), "GBJ604");
        assert_eq!(Code::OutOfDomainComparison.as_str(), "GBJ605");
    }

    #[test]
    fn severity_ordering() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
    }

    #[test]
    fn plan_path_spans() {
        let root = PlanPath::root("Aggregate");
        assert_eq!(root.span(), "$");
        let child = root.child(0, "Join").child(1, "Scan D");
        assert_eq!(child.span(), "$.0.1");
        assert_eq!(child.to_string(), "$.0.1 (Scan D)");
    }

    #[test]
    fn report_rendering_text_and_json() {
        let mut r = Report::new("SELECT 1");
        r.push(
            Diagnostic::new(Code::NullLiteralComparison, "E.x = NULL is always unknown")
                .at(PlanPath::root("Filter").child(0, "Scan E"))
                .note("did you mean E.x IS NULL?"),
        );
        let text = r.render_text();
        assert!(text.contains("warning[GBJ301]"));
        assert!(text.contains("$.0 (Scan E)"));
        assert!(text.contains("note: did you mean"));
        assert!(text.contains("1 diagnostic(s): 0 error(s), 1 warning(s)"));

        let json = r.render_json();
        assert!(json.contains("\"code\":\"GBJ301\""));
        assert!(json.contains("\"severity\":\"warning\""));
        assert!(json.contains("\"span\":\"$.0\""));
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn has_severity_thresholds() {
        let mut r = Report::new("q");
        assert!(!r.has_severity(Severity::Info));
        r.push(Diagnostic::new(Code::RedundantNullCheck, "constant check"));
        assert!(r.has_severity(Severity::Info));
        assert!(!r.has_severity(Severity::Warning));
        r.push(Diagnostic::new(Code::Fd2NotDerivable, "no key"));
        assert!(r.has_severity(Severity::Warning));
        assert!(!r.has_severity(Severity::Error));
    }
}
