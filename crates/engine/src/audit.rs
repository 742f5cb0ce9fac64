//! Cardinality auditing: estimated vs. actual rows per plan node.
//!
//! The optimizer's [`Estimator`](crate::Estimator) predicts an output
//! cardinality for every node of the chosen plan
//! ([`CardTree`]); the executor measures
//! what actually flowed ([`ProfileNode`]). Both trees mirror the logical
//! plan exactly, so zipping them node by node yields an estimate-vs-
//! actual table with a **Q-error** per node — `max(est, actual) /
//! min(est, actual)`, the standard symmetric accuracy measure (≥ 1,
//! where 1 is a perfect estimate). `EXPLAIN ANALYZE` and the REPL's
//! `\metrics` command render from this module, and the
//! `estimator_accuracy` suite bounds its Q-errors.

use gbj_exec::ProfileNode;
use gbj_optimizer::CardTree;

use crate::stats::q_error;

/// One plan node's estimate-vs-actual record.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeAudit {
    /// The plan node's label.
    pub label: String,
    /// The physical operator that ran.
    pub operator: String,
    /// Estimated output rows.
    pub estimated: f64,
    /// Measured output rows.
    pub actual: u64,
    /// `max(est, actual) / min(est, actual)`, both floored at one row.
    pub q_error: f64,
    /// Tree depth (root = 0), for indented rendering.
    pub depth: usize,
}

/// Zip an estimate tree onto the measured profile tree, pre-order; the
/// labels come from the profile. The trees mirror the same logical
/// plan, so they are congruent; if a defensive mismatch ever appears,
/// the surplus children are skipped rather than misattributed.
#[must_use]
pub fn audit_nodes(est: &CardTree, profile: &ProfileNode) -> Vec<NodeAudit> {
    let mut out = Vec::new();
    zip_nodes(est, profile, 0, &mut out);
    out
}

fn zip_nodes(est: &CardTree, profile: &ProfileNode, depth: usize, out: &mut Vec<NodeAudit>) {
    let actual = profile.metrics.rows_out.max(profile.rows_out as u64);
    out.push(NodeAudit {
        label: profile.label.clone(),
        operator: profile.operator.clone(),
        estimated: est.rows,
        actual,
        q_error: q_error(est.rows, actual as f64),
        depth,
    });
    for (e, p) in est.children.iter().zip(&profile.children) {
        zip_nodes(e, p, depth + 1, out);
    }
}

/// Render the audit as an indented tree, one line per node:
/// `label [operator] est=… actual=… q=…`. Deterministic across runs —
/// no timings — so golden tests can assert on it verbatim.
#[must_use]
pub fn annotated_tree(audits: &[NodeAudit]) -> String {
    let mut out = String::new();
    for a in audits {
        for _ in 0..a.depth {
            out.push_str("  ");
        }
        out.push_str(&format!(
            "{} [{}] est={:.0} actual={} q={:.2}\n",
            a.label, a.operator, a.estimated, a.actual, a.q_error
        ));
    }
    out
}

/// The largest per-node Q-error (1.0 for an empty audit).
#[must_use]
pub fn max_q(audits: &[NodeAudit]) -> f64 {
    audits.iter().map(|a| a.q_error).fold(1.0, f64::max)
}

/// The median per-node Q-error (1.0 for an empty audit). For an even
/// count this is the lower median — deterministic and bound-friendly.
#[must_use]
pub fn median_q(audits: &[NodeAudit]) -> f64 {
    if audits.is_empty() {
        return 1.0;
    }
    let mut qs: Vec<f64> = audits.iter().map(|a| a.q_error).collect();
    qs.sort_by(f64::total_cmp);
    let mid = (qs.len() - 1) / 2;
    qs.get(mid).copied().unwrap_or(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbj_exec::OperatorMetrics;

    fn est(rows: f64, children: Vec<CardTree>) -> CardTree {
        CardTree { rows, children }
    }

    fn prof(label: &str, op: &str, rows: usize, children: Vec<ProfileNode>) -> ProfileNode {
        ProfileNode::new(label, op, rows, children).with_metrics(OperatorMetrics {
            rows_out: rows as u64,
            ..OperatorMetrics::default()
        })
    }

    #[test]
    fn zip_walks_both_trees_in_lockstep() {
        let e = est(10.0, vec![est(100.0, vec![est(1000.0, vec![])])]);
        let p = prof(
            "Agg",
            "HashAggregate",
            4,
            vec![prof(
                "Join",
                "HashJoin",
                120,
                vec![prof("Scan E", "Scan", 1000, vec![])],
            )],
        );
        let audits = audit_nodes(&e, &p);
        assert_eq!(audits.len(), 3);
        assert_eq!(audits[0].q_error, 2.5, "est 10 vs actual 4");
        assert!((audits[1].q_error - 1.2).abs() < 1e-9);
        assert_eq!(audits[2].q_error, 1.0, "scans are exact");
        assert_eq!(audits[2].depth, 2);
        assert_eq!(max_q(&audits), 2.5);
        assert_eq!(median_q(&audits), 1.2);
    }

    /// The golden rendering: a 10-group aggregate over a 100-row scan,
    /// both estimated exactly.
    const AGG_OVER_SCAN: &str =
        "Agg [HashAggregate] est=10 actual=10 q=1.00\n  Scan [Scan] est=100 actual=100 q=1.00\n";

    fn agg_over_scan_profile() -> ProfileNode {
        prof(
            "Agg",
            "HashAggregate",
            10,
            vec![prof("Scan", "Scan", 100, vec![])],
        )
    }

    #[test]
    fn tree_rendering_is_deterministic_and_indented() {
        let e = est(10.0, vec![est(100.0, vec![])]);
        let text = annotated_tree(&audit_nodes(&e, &agg_over_scan_profile()));
        assert_eq!(text, AGG_OVER_SCAN);
    }

    /// The audit zips the one estimate tree, clamped by the one clamp:
    /// an over-estimate cut to its proven bound renders the same `est=`
    /// / `q=` columns as an exact estimate, and an unbounded node keeps
    /// its estimate.
    #[test]
    fn clamped_card_tree_renders_the_same_columns() {
        let mut e = est(40.0, vec![est(100.0, vec![])]);
        e.clamp(&est(10.0, vec![est(f64::INFINITY, vec![])]));
        let audits = audit_nodes(&e, &agg_over_scan_profile());
        assert_eq!(annotated_tree(&audits), AGG_OVER_SCAN);
        assert_eq!(max_q(&audits), 1.0);
    }

    #[test]
    fn empty_audit_summaries_are_neutral() {
        assert_eq!(max_q(&[]), 1.0);
        assert_eq!(median_q(&[]), 1.0);
    }
}
