//! Result sets and execution profiles.

use std::collections::HashMap;
use std::fmt;

use gbj_types::{GroupKey, Schema, Value};

use crate::metrics::OperatorMetrics;

/// A materialised query result: a schema plus a multiset of rows.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    /// The result schema.
    pub schema: Schema,
    /// The rows, in whatever order the executor produced them.
    pub rows: Vec<Vec<Value>>,
}

impl ResultSet {
    /// An empty result with the given schema.
    #[must_use]
    pub fn empty(schema: Schema) -> ResultSet {
        ResultSet {
            schema,
            rows: vec![],
        }
    }

    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the result has no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Multiset equality under SQL2 duplicate semantics (`=ⁿ`, order
    /// insensitive): the correctness criterion the paper's equivalence
    /// theorems speak about.
    #[must_use]
    pub fn multiset_eq(&self, other: &ResultSet) -> bool {
        if self.rows.len() != other.rows.len() {
            return false;
        }
        if self.schema.len() != other.schema.len() {
            return false;
        }
        let mut counts: HashMap<GroupKey, i64> = HashMap::new();
        for row in &self.rows {
            *counts.entry(GroupKey(row.clone())).or_default() += 1;
        }
        for row in &other.rows {
            match counts.get_mut(&GroupKey(row.clone())) {
                Some(c) => *c -= 1,
                None => return false,
            }
        }
        counts.values().all(|&c| c == 0)
    }

    /// Render as CSV (RFC-4180-style quoting; NULL becomes an empty
    /// field). Handy for piping results into plotting tools.
    #[must_use]
    pub fn to_csv(&self) -> String {
        fn field(s: &str) -> String {
            if s.contains([',', '"', '\n']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
        let mut out = String::new();
        let header: Vec<String> = self
            .schema
            .fields()
            .iter()
            .map(|f| field(&f.column_ref().to_string()))
            .collect();
        out.push_str(&header.join(","));
        out.push('\n');
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .map(|v| match v {
                    Value::Null => String::new(),
                    Value::Str(s) => field(s),
                    other => field(&other.to_string()),
                })
                .collect();
            out.push_str(&cells.join(","));
            out.push('\n');
        }
        out
    }

    /// The rows sorted by the total order (for deterministic display).
    #[must_use]
    pub fn sorted(&self) -> ResultSet {
        let mut rows = self.rows.clone();
        rows.sort_by(|a, b| {
            for (x, y) in a.iter().zip(b) {
                let ord = x.total_cmp(y);
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        ResultSet {
            schema: self.schema.clone(),
            rows,
        }
    }
}

impl fmt::Display for ResultSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Column widths: header vs longest cell.
        let headers: Vec<String> = self
            .schema
            .fields()
            .iter()
            .map(|fd| fd.column_ref().to_string())
            .collect();
        let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(ToString::to_string).collect())
            .collect();
        for row in &rendered {
            for (w, cell) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(cell.len());
            }
        }
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            f.write_str("|")?;
            for (i, cell) in cells.iter().enumerate() {
                write!(
                    f,
                    " {cell:width$} |",
                    width = widths.get(i).copied().unwrap_or(0)
                )?;
            }
            writeln!(f)
        };
        write_row(f, &headers)?;
        f.write_str("|")?;
        for w in &widths {
            write!(f, "{:-<width$}|", "", width = w + 2)?;
        }
        writeln!(f)?;
        for row in &rendered {
            write_row(f, row)?;
        }
        write!(f, "({} rows)", self.rows.len())
    }
}

/// The execution profile of one operator: its label, the physical
/// algorithm used, and its output cardinality. Children mirror the plan
/// tree.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileNode {
    /// The logical label (e.g. `Filter (E.DeptID = D.DeptID)`).
    pub label: String,
    /// The physical operator (e.g. `HashJoin`, `HashAggregate`).
    pub operator: String,
    /// Rows this operator produced.
    pub rows_out: usize,
    /// Counters and timings recorded while the operator ran (all zero
    /// when metrics collection is disabled).
    pub metrics: OperatorMetrics,
    /// Child profiles.
    pub children: Vec<ProfileNode>,
}

impl ProfileNode {
    /// Create a leaf/parent node (with zeroed metrics; see
    /// [`ProfileNode::with_metrics`]).
    #[must_use]
    pub fn new(
        label: impl Into<String>,
        operator: impl Into<String>,
        rows_out: usize,
        children: Vec<ProfileNode>,
    ) -> ProfileNode {
        ProfileNode {
            label: label.into(),
            operator: operator.into(),
            rows_out,
            metrics: OperatorMetrics::default(),
            children,
        }
    }

    /// Attach recorded metrics to the node.
    #[must_use]
    pub fn with_metrics(mut self, metrics: OperatorMetrics) -> ProfileNode {
        self.metrics = metrics;
        self
    }

    /// Sum of rows flowing *into* the operator (children's outputs).
    #[must_use]
    pub fn rows_in(&self) -> usize {
        self.children.iter().map(|c| c.rows_out).sum()
    }

    /// Find the first node (pre-order) whose operator name matches.
    #[must_use]
    pub fn find_operator(&self, operator: &str) -> Option<&ProfileNode> {
        if self.operator == operator {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find_operator(operator))
    }

    /// Render as an indented tree with cardinalities.
    #[must_use]
    pub fn display_tree(&self) -> String {
        let mut out = String::new();
        self.fmt_tree(0, &mut out);
        out
    }

    fn fmt_tree(&self, depth: usize, out: &mut String) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(&format!(
            "{} [{}] rows={}\n",
            self.label, self.operator, self.rows_out
        ));
        for c in &self.children {
            c.fmt_tree(depth + 1, out);
        }
    }

    /// Render as an indented tree with the full per-operator metrics
    /// (counters, state bytes, build/probe timings).
    #[must_use]
    pub fn display_tree_with_metrics(&self) -> String {
        let mut out = String::new();
        self.fmt_tree_metrics(0, &mut out);
        out
    }

    fn fmt_tree_metrics(&self, depth: usize, out: &mut String) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        let m = &self.metrics;
        out.push_str(&format!(
            "{} [{}] rows={} in={} batches={} hash={} state={}B build={}ns probe={}ns \
             vec={} sel={} kernel={}ns\n",
            self.label,
            self.operator,
            self.rows_out,
            m.rows_in,
            m.batches,
            m.hash_entries,
            m.state_bytes,
            m.build_ns,
            m.probe_ns,
            m.vectors,
            m.selected,
            m.kernel_ns,
        ));
        for c in &self.children {
            c.fmt_tree_metrics(depth + 1, out);
        }
    }

    /// The path-invariant counters of the whole tree, pre-order:
    /// `(label, [rows_in, rows_out, batches, hash_entries])` per node.
    /// Byte-identical on both paths and at every part and thread count
    /// for the same input (operator *names* are excluded — over several
    /// parts the pipeline's operators rename themselves).
    #[must_use]
    pub fn counter_fingerprint(&self) -> Vec<(String, [u64; 4])> {
        let mut out = Vec::new();
        self.collect_fingerprint(&mut out);
        out
    }

    fn collect_fingerprint(&self, out: &mut Vec<(String, [u64; 4])>) {
        out.push((self.label.clone(), self.metrics.fingerprint()));
        for c in &self.children {
            c.collect_fingerprint(out);
        }
    }
}

impl fmt::Display for ProfileNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.display_tree())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbj_types::{DataType, Field};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("a", DataType::Int64, true),
            Field::new("b", DataType::Utf8, true),
        ])
    }

    fn rs(rows: Vec<Vec<Value>>) -> ResultSet {
        ResultSet {
            schema: schema(),
            rows,
        }
    }

    #[test]
    fn multiset_eq_ignores_order() {
        let a = rs(vec![
            vec![Value::Int(1), Value::str("x")],
            vec![Value::Int(2), Value::str("y")],
        ]);
        let b = rs(vec![
            vec![Value::Int(2), Value::str("y")],
            vec![Value::Int(1), Value::str("x")],
        ]);
        assert!(a.multiset_eq(&b));
    }

    #[test]
    fn multiset_eq_counts_duplicates() {
        let a = rs(vec![
            vec![Value::Int(1), Value::str("x")],
            vec![Value::Int(1), Value::str("x")],
        ]);
        let b = rs(vec![
            vec![Value::Int(1), Value::str("x")],
            vec![Value::Int(2), Value::str("y")],
        ]);
        assert!(!a.multiset_eq(&b));
        let c = rs(vec![vec![Value::Int(1), Value::str("x")]]);
        assert!(!a.multiset_eq(&c), "different cardinalities differ");
    }

    #[test]
    fn multiset_eq_null_rows() {
        let a = rs(vec![vec![Value::Null, Value::Null]]);
        let b = rs(vec![vec![Value::Null, Value::Null]]);
        assert!(a.multiset_eq(&b), "NULL rows are duplicates under =ⁿ");
    }

    #[test]
    fn sorted_orders_rows_with_nulls_last() {
        let a = rs(vec![
            vec![Value::Null, Value::str("n")],
            vec![Value::Int(2), Value::str("y")],
            vec![Value::Int(1), Value::str("x")],
        ]);
        let s = a.sorted();
        assert_eq!(s.rows[0][0], Value::Int(1));
        assert_eq!(s.rows[2][0], Value::Null);
    }

    #[test]
    fn display_renders_table() {
        let a = rs(vec![vec![Value::Int(1), Value::str("hello")]]);
        let text = a.to_string();
        assert!(text.contains("| a |"));
        assert!(text.contains("'hello'"));
        assert!(text.contains("(1 rows)"));
    }

    #[test]
    fn to_csv_quotes_and_nulls() {
        let a = rs(vec![
            vec![Value::Int(1), Value::str("plain")],
            vec![Value::Null, Value::str("a,b \"q\"")],
        ]);
        let csv = a.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "a,b");
        assert_eq!(lines[1], "1,plain");
        assert_eq!(lines[2], ",\"a,b \"\"q\"\"\"");
    }

    #[test]
    fn profile_tree() {
        let leaf = ProfileNode::new("Scan E", "Scan", 100, vec![]);
        let root = ProfileNode::new("Filter x", "Filter", 40, vec![leaf]);
        assert_eq!(root.rows_in(), 100);
        assert_eq!(root.find_operator("Scan").unwrap().rows_out, 100);
        assert!(root.find_operator("Join").is_none());
        let text = root.display_tree();
        assert!(text.contains("Filter x [Filter] rows=40"));
        assert!(text.contains("  Scan E [Scan] rows=100"));
    }

    #[test]
    fn fingerprint_walks_pre_order_and_skips_timings() {
        let leaf = ProfileNode::new("Scan E", "Scan", 100, vec![]).with_metrics(OperatorMetrics {
            rows_in: 0,
            rows_out: 100,
            batches: 2,
            hash_entries: 0,
            build_ns: 12345, // excluded from the fingerprint
            probe_ns: 678,
            state_bytes: 4096,
            ..OperatorMetrics::default()
        });
        let root = ProfileNode::new("Agg g", "HashAggregate", 7, vec![leaf]).with_metrics(
            OperatorMetrics {
                rows_in: 100,
                rows_out: 7,
                batches: 1,
                hash_entries: 7,
                ..OperatorMetrics::default()
            },
        );
        assert_eq!(
            root.counter_fingerprint(),
            vec![
                ("Agg g".to_string(), [100, 7, 1, 7]),
                ("Scan E".to_string(), [0, 100, 2, 0]),
            ]
        );
        let text = root.display_tree_with_metrics();
        assert!(text.contains("Agg g [HashAggregate] rows=7 in=100 batches=1 hash=7"));
        assert!(text.contains("build=12345ns"));
    }
}
