//! Pass 4: physical-plan invariants.
//!
//! Checks the execution configuration and (when available) the
//! post-execution profile against the plan:
//!
//! * **GBJ403** (info) — the executor is *configured* without resource
//!   budgets (`ResourceLimits::is_unlimited`) and no profile exists
//!   yet: fine interactively, but the panic-free pipeline's guarantees
//!   assume a [`gbj_exec`] ResourceGuard with real limits in
//!   production paths.
//! * **GBJ405** (warning) — a profile exists, i.e. the query actually
//!   *ran*, and it ran with neither a resource budget nor a deadline
//!   attached to its guard: nothing could have cancelled, shed, or
//!   timed it out. The serving layer (DESIGN.md §13) always attaches
//!   one or the other, so a profiled-but-unguarded run marks a code
//!   path that bypassed admission.
//! * **GBJ404** (error) — the profile tree's shape does not mirror the
//!   plan: a missing `ProfileNode` means an operator executed without
//!   MetricsSink/guard wiring.
//! * **GBJ401** (warning) — metrics collection was enabled but an
//!   operator that produced rows recorded an all-zero
//!   [`OperatorMetrics`]: its sink is not wired.
//! * **GBJ402** (error) — an operator claims vectorized kernel
//!   invocations (`metrics.vectors > 0`) on a filter predicate or a
//!   projection expression that falls outside the error-free
//!   vectorization rule (DESIGN.md §11, [`gbj_exec::vectorizable`]):
//!   the claim cannot be honest, or the kernel ran on an expression
//!   that can raise mid-batch.

use gbj_exec::{vectorizable, ExecOptions, ProfileNode};
use gbj_plan::LogicalPlan;

use crate::diag::{Code, Diagnostic, PlanPath, Report};
use crate::schema_pass::input_schema_of;

/// Check execution invariants for `plan` under `opts`, optionally
/// auditing the profile of a completed run. `had_deadline` reports
/// whether the run's ResourceGuard carried a deadline (a session
/// timeout counts as a budget for GBJ405 even when `opts.limits` is
/// otherwise unlimited).
#[must_use]
pub fn check_execution(
    plan: &LogicalPlan,
    opts: &ExecOptions,
    profile: Option<&ProfileNode>,
    had_deadline: bool,
) -> Report {
    let mut report = Report::new(String::new());
    if opts.limits.is_unlimited() && !had_deadline {
        if profile.is_some() {
            report.push(Diagnostic::new(
                Code::UnguardedExecution,
                "execution profile was produced without a resource budget or deadline: \
                 the run could not be cancelled, shed, or timed out",
            ));
        } else {
            report.push(Diagnostic::new(
                Code::UnboundedResources,
                "executor configured without resource budgets; the ResourceGuard admits \
                 unbounded rows, memory and time",
            ));
        }
    }
    if let Some(profile) = profile {
        walk(
            plan,
            profile,
            &PlanPath::root(plan.label()),
            opts,
            &mut report,
        );
    }
    report
}

fn walk(
    plan: &LogicalPlan,
    profile: &ProfileNode,
    path: &PlanPath,
    opts: &ExecOptions,
    report: &mut Report,
) {
    let children = plan.children();
    if profile.children.len() != children.len() {
        report.push(
            Diagnostic::new(
                Code::ProfileShapeMismatch,
                format!(
                    "plan node {} has {} child(ren) but its profile ({}) has {}: an \
                     operator executed without MetricsSink wiring",
                    plan.label(),
                    children.len(),
                    profile.operator,
                    profile.children.len()
                ),
            )
            .at(path.clone()),
        );
        return; // alignment is lost below this point
    }
    for (i, (child, child_profile)) in children.iter().zip(&profile.children).enumerate() {
        walk(
            child,
            child_profile,
            &path.child(i, child.label()),
            opts,
            report,
        );
    }

    let m = &profile.metrics;
    if opts.metrics && profile.rows_out > 0 && m.fingerprint() == [0; 4] {
        report.push(
            Diagnostic::new(
                Code::MissingMetrics,
                format!(
                    "{} produced {} row(s) with metrics enabled but recorded an all-zero \
                     OperatorMetrics: its sink is not wired",
                    profile.operator, profile.rows_out
                ),
            )
            .at(path.clone()),
        );
    }

    if m.vectors > 0 {
        match plan {
            LogicalPlan::Filter { predicate, .. } => {
                let honest = input_schema_of(plan)
                    .ok()
                    .and_then(|s| predicate.bind(&s).ok())
                    .is_some_and(|bound| vectorizable(&bound));
                if !honest {
                    report.push(
                        Diagnostic::new(
                            Code::BogusVectorizationClaim,
                            format!(
                                "filter claims {} vectorized kernel invocation(s) but its \
                                 predicate `{predicate}` is outside the error-free \
                                 vectorization rule (DESIGN.md §11)",
                                m.vectors
                            ),
                        )
                        .at(path.clone()),
                    );
                }
            }
            LogicalPlan::Project { exprs, .. } => {
                // The batch-native pipeline only runs a projection
                // column-at-a-time when *every* output expression is in
                // the error-free subset (and the row engine never runs
                // a kernel); one arithmetic expression poisons the claim.
                let dishonest = input_schema_of(plan).ok().and_then(|s| {
                    exprs
                        .iter()
                        .find(|(e, _)| !e.bind(&s).ok().is_some_and(|bound| vectorizable(&bound)))
                });
                if let Some((expr, _)) = dishonest {
                    report.push(
                        Diagnostic::new(
                            Code::BogusVectorizationClaim,
                            format!(
                                "projection claims {} vectorized kernel invocation(s) but \
                                 its expression `{expr}` is outside the error-free \
                                 vectorization rule (DESIGN.md §11)",
                                m.vectors
                            ),
                        )
                        .at(path.clone()),
                    );
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbj_exec::{OperatorMetrics, ResourceLimits};
    use gbj_expr::Expr;
    use gbj_types::{DataType, Field, Schema};

    fn scan() -> LogicalPlan {
        LogicalPlan::Scan {
            table: "T".into(),
            qualifier: "T".into(),
            schema: Schema::new(vec![
                Field::new("A", DataType::Int64, false).with_qualifier("T")
            ]),
        }
    }

    fn filter_plan() -> LogicalPlan {
        LogicalPlan::Filter {
            input: Box::new(scan()),
            predicate: Expr::col("T", "A").eq(Expr::lit(1i64)),
        }
    }

    fn metrics_with(vectors: u64, rows_out: u64) -> OperatorMetrics {
        OperatorMetrics {
            rows_out,
            vectors,
            ..OperatorMetrics::default()
        }
    }

    fn profile_for_filter(vectors: u64) -> ProfileNode {
        let scan_node =
            ProfileNode::new("Scan: T", "Scan", 10, vec![]).with_metrics(metrics_with(0, 10));
        ProfileNode::new("Filter", "Filter", 5, vec![scan_node])
            .with_metrics(metrics_with(vectors, 5))
    }

    fn opts() -> ExecOptions {
        ExecOptions {
            metrics: true,
            ..ExecOptions::default()
        }
    }

    #[test]
    fn unlimited_resources_is_gbj403_info() {
        let o = ExecOptions {
            limits: ResourceLimits::default(),
            ..opts()
        };
        assert!(o.limits.is_unlimited());
        let r = check_execution(&filter_plan(), &o, None, false);
        assert_eq!(r.codes(), vec![Code::UnboundedResources]);
    }

    #[test]
    fn profiled_unguarded_run_is_gbj405_warning() {
        let o = ExecOptions {
            limits: ResourceLimits::default(),
            ..opts()
        };
        let r = check_execution(&filter_plan(), &o, Some(&profile_for_filter(3)), false);
        assert_eq!(r.codes(), vec![Code::UnguardedExecution]);
        assert!(
            r.has_severity(crate::diag::Severity::Warning),
            "{}",
            r.render_text()
        );
    }

    #[test]
    fn deadline_counts_as_a_budget_for_gbj405() {
        let o = ExecOptions {
            limits: ResourceLimits::default(),
            ..opts()
        };
        let r = check_execution(&filter_plan(), &o, Some(&profile_for_filter(3)), true);
        assert!(r.is_empty(), "{}", r.render_text());
        // And at configuration time, a deadline silences GBJ403 too.
        let r = check_execution(&filter_plan(), &o, None, true);
        assert!(r.is_empty(), "{}", r.render_text());
    }

    fn bounded() -> ExecOptions {
        ExecOptions {
            limits: ResourceLimits {
                max_rows: Some(1_000_000),
                ..ResourceLimits::default()
            },
            ..opts()
        }
    }

    #[test]
    fn vectorizable_filter_claim_is_honest() {
        let r = check_execution(
            &filter_plan(),
            &bounded(),
            Some(&profile_for_filter(3)),
            false,
        );
        assert!(r.is_empty(), "{}", r.render_text());
    }

    #[test]
    fn non_vectorizable_claim_is_gbj402() {
        // Arithmetic inside the predicate is outside the error-free rule.
        let plan = LogicalPlan::Filter {
            input: Box::new(scan()),
            predicate: Expr::col("T", "A")
                .binary(gbj_expr::BinaryOp::Add, Expr::lit(1i64))
                .eq(Expr::lit(2i64)),
        };
        let r = check_execution(&plan, &bounded(), Some(&profile_for_filter(3)), false);
        assert_eq!(r.codes(), vec![Code::BogusVectorizationClaim]);
    }

    fn project_plan(expr: Expr) -> LogicalPlan {
        LogicalPlan::Project {
            input: Box::new(scan()),
            exprs: vec![(expr, "out".into())],
            distinct: false,
        }
    }

    fn profile_for_project(vectors: u64) -> ProfileNode {
        let scan_node =
            ProfileNode::new("Scan: T", "Scan", 10, vec![]).with_metrics(metrics_with(0, 10));
        ProfileNode::new("Project", "Project", 10, vec![scan_node])
            .with_metrics(metrics_with(vectors, 10))
    }

    #[test]
    fn vectorizable_projection_claim_is_honest() {
        let plan = project_plan(Expr::col("T", "A").eq(Expr::lit(1i64)));
        let r = check_execution(&plan, &bounded(), Some(&profile_for_project(2)), false);
        assert!(r.is_empty(), "{}", r.render_text());
    }

    #[test]
    fn non_vectorizable_projection_claim_is_gbj402() {
        // Arithmetic in an output expression is outside the error-free
        // rule, so a vectors > 0 claim on the projection is bogus.
        let plan =
            project_plan(Expr::col("T", "A").binary(gbj_expr::BinaryOp::Add, Expr::lit(1i64)));
        let r = check_execution(&plan, &bounded(), Some(&profile_for_project(2)), false);
        assert_eq!(r.codes(), vec![Code::BogusVectorizationClaim]);
    }

    #[test]
    fn shape_mismatch_is_gbj404() {
        let orphan = ProfileNode::new("Filter", "Filter", 5, vec![]); // missing Scan child
        let r = check_execution(&filter_plan(), &bounded(), Some(&orphan), false);
        assert_eq!(r.codes(), vec![Code::ProfileShapeMismatch]);
    }

    #[test]
    fn zero_metrics_with_rows_is_gbj401() {
        let scan_node = ProfileNode::new("Scan: T", "Scan", 10, vec![]);
        let p = ProfileNode::new("Filter", "Filter", 5, vec![scan_node])
            .with_metrics(metrics_with(0, 5));
        let r = check_execution(&filter_plan(), &bounded(), Some(&p), false);
        assert_eq!(r.codes(), vec![Code::MissingMetrics]);
    }
}
