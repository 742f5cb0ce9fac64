//! The multi-pass driver.
//!
//! An [`Analysis`] accumulates diagnostics across the passes for one
//! query. The engine drives it with whatever artifacts it has — the
//! logical plan always, the transformation outcome when the optimizer
//! examined one — and the result is a single [`Report`].

use gbj_core::{EagerOutcome, ReverseOutcome};
use gbj_plan::{LogicalPlan, QueryBlock};

use crate::diag::{Report, Severity};
use crate::fd_audit::{audit_eager_outcome, audit_reverse_outcome};
use crate::range_pass::{analyze_plan, RangeAnalysis, SeedDomains};
use crate::{null_pass, schema_pass};

/// Accumulated analysis state for one query.
#[derive(Debug)]
pub struct Analysis {
    report: Report,
}

impl Analysis {
    /// Start an analysis; `subject` names the query (SQL text, test
    /// name) in rendered output.
    #[must_use]
    pub fn new(subject: impl Into<String>) -> Analysis {
        Analysis {
            report: Report::new(subject),
        }
    }

    /// Pass 1 (schema/type soundness) and pass 3 (NULL-semantics
    /// lints) over a logical plan.
    pub fn check_logical(&mut self, plan: &LogicalPlan) {
        self.report.extend(schema_pass::check_plan(plan));
        self.report.extend(null_pass::check_plan(plan));
    }

    /// Pass 6 (range/NULL-ness/NDV domains): run the abstract
    /// interpreter over a logical plan with the given seeds, folding
    /// its GBJ6xx findings into the report and returning the full
    /// [`RangeAnalysis`] (per-node domains) for the engine to render
    /// and clamp estimates with.
    pub fn check_domains(&mut self, plan: &LogicalPlan, seeds: &SeedDomains) -> RangeAnalysis {
        let analysis = analyze_plan(plan, seeds);
        self.report.extend(analysis.report.clone());
        analysis
    }

    /// Pass 2: audit the eager-aggregation outcome — the stable code
    /// of a refusal, or for a rewrite the `=ⁿ` grouping-shape check
    /// (GBJ304) against the original block.
    pub fn check_rewrite(&mut self, original: &QueryBlock, outcome: &EagerOutcome) {
        self.report.extend(audit_eager_outcome(outcome));
        if let EagerOutcome::Rewritten {
            block, partition, ..
        } = outcome
        {
            self.report.extend(null_pass::check_rewrite_grouping(
                original, block, partition,
            ));
        }
    }

    /// Pass 2 for a §8 view query: why TestFD refused to unfold the
    /// view, under the same codes as a refused eager rewrite.
    pub fn check_unfolding(&mut self, outcome: &ReverseOutcome) {
        self.report.extend(audit_reverse_outcome(outcome));
    }

    /// Pass 5 (cost/statistics): record that the §7 cost model declined
    /// an FD-certified eager rewrite on populated tables (GBJ501,
    /// informational). The engine calls this only when the decision was
    /// *data-driven* — a certified rewrite, a cost-based policy, and at
    /// least one involved base table with rows — so schema-only lint
    /// runs (empty corpora) stay clean.
    pub fn check_cost_choice(&mut self, detail: impl Into<String>) {
        self.report.push(
            crate::diag::Diagnostic::new(crate::diag::Code::CostChoiceDivergence, detail.into())
                .note("the rewrite is valid (FD1/FD2 certified); the cost model judged it slower")
                .note("see EXPLAIN's shape-cost lines for the per-operator comparison"),
        );
    }

    /// Pass 5, distributed flavour: record that a multi-shard plan has
    /// an aggregate below a join with no FD1/FD2 certificate, so the
    /// pre-aggregation cannot run as a combiner below the exchange
    /// (GBJ502, informational). The engine calls this only when it is
    /// actually configured for more than one shard.
    pub fn check_combiner_pushdown(&mut self, detail: impl Into<String>) {
        self.report.push(
            crate::diag::Diagnostic::new(crate::diag::Code::CombinerNotCertified, detail.into())
                .note("raw rows will cross the exchange instead of per-group partials")
                .note("a certified eager rewrite would ship at most groups x shards partial rows"),
        );
    }

    /// The accumulated report.
    #[must_use]
    pub fn report(&self) -> &Report {
        &self.report
    }

    /// Whether any Error-severity diagnostic was recorded.
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.report.has_severity(Severity::Error)
    }

    /// Consume the analysis, yielding the report.
    #[must_use]
    pub fn finish(self) -> Report {
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbj_expr::Expr;
    use gbj_types::{DataType, Field, Schema};

    #[test]
    fn clean_plan_yields_empty_report() {
        let plan = LogicalPlan::Filter {
            input: Box::new(LogicalPlan::Scan {
                table: "T".into(),
                qualifier: "T".into(),
                schema: Schema::new(vec![
                    Field::new("A", DataType::Int64, false).with_qualifier("T")
                ]),
            }),
            predicate: Expr::col("T", "A").eq(Expr::lit(1i64)),
        };
        let mut a = Analysis::new("clean");
        a.check_logical(&plan);
        assert!(a.report().is_empty(), "{}", a.report().render_text());
        assert!(!a.has_errors());
    }

    #[test]
    fn passes_accumulate_into_one_report() {
        let plan = LogicalPlan::Filter {
            input: Box::new(LogicalPlan::Scan {
                table: "T".into(),
                qualifier: "T".into(),
                schema: Schema::new(vec![
                    Field::new("A", DataType::Int64, true).with_qualifier("T")
                ]),
            }),
            // Unresolved column (pass 1) — pass 3 stays quiet on it.
            predicate: Expr::col("T", "Ghost").eq(Expr::lit(1i64)),
        };
        let mut a = Analysis::new("multi");
        a.check_logical(&plan);
        assert_eq!(a.report().len(), 1);
        assert!(a.has_errors());
    }
}
