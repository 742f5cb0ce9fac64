//! The abstract value lattice for the range/domain pass.
//!
//! Each column is described by a [`ColumnDomain`]: an over-approximation
//! of the set of values the column can hold at a plan node. The lattice
//! value has four components:
//!
//! * an **interval** over the numeric line (closed bounds, with an
//!   `integral` flag, set from the column's declared type, so `Int64`
//!   widths are countable),
//! * a small **value set** for string dictionaries,
//! * a **nullability** in `{never, maybe, always}`,
//! * an **NDV upper bound** on the number of distinct non-NULL values.
//!
//! The interval and value set describe the non-NULL **comparable**
//! values only: nullability is tracked separately, and a `Float64`
//! column may also hold NaN, which compares with nothing and so is kept
//! by no comparison (the NDV bound counts it). This split is what makes
//! seeding from `CHECK` constraints sound under three-valued logic: a
//! CHECK passes when the predicate is *not false*, so a NULL (or a NaN)
//! satisfies `CHECK (x > 0)` vacuously — the constraint restricts the
//! comparable values and says nothing about the others.
//!
//! Predicates are judged on their lowering `⌊P⌋` (`gbj_expr::lower`),
//! which is two-valued (see `range_pass`); this module supplies the
//! comparison leaf's part: whether `x op v` can hold and whether it can
//! fail among comparable values ([`compare_domain_literal`],
//! [`compare_domains`]), and the refinement a true `x op v` implies
//! ([`refine_by_literal`]).

use std::collections::BTreeSet;
use std::fmt;

use gbj_expr::BinaryOp;
use gbj_types::{DataType, Value};

/// Value sets larger than this are widened to "unknown" — the pass
/// only tracks small string dictionaries.
pub const MAX_VALUE_SET: usize = 16;

/// Whether a column can be NULL at a plan node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Nullability {
    /// Proven non-NULL (NOT NULL column, or dominated by a predicate
    /// that is only `true` on non-NULL values).
    Never,
    /// May or may not be NULL.
    Maybe,
    /// Proven NULL on every row (e.g. below a satisfied `IS NULL`).
    Always,
}

impl Nullability {
    /// Whether NULL is a possible value.
    #[must_use]
    pub fn can_be_null(self) -> bool {
        !matches!(self, Nullability::Never)
    }
}

/// A closed numeric interval `[lo, hi]`; `None` bounds are infinite.
///
/// `lo > hi` encodes the empty interval. For `integral` intervals the
/// width `hi - lo + 1` bounds the number of distinct values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Lower bound (inclusive); `None` = `-∞`.
    pub lo: Option<f64>,
    /// Upper bound (inclusive); `None` = `+∞`.
    pub hi: Option<f64>,
    /// Whether the column is integer-typed (widths are countable).
    pub integral: bool,
}

impl Interval {
    /// The full line.
    #[must_use]
    pub fn full(integral: bool) -> Interval {
        Interval {
            lo: None,
            hi: None,
            integral,
        }
    }

    /// The empty interval.
    #[must_use]
    pub fn empty(integral: bool) -> Interval {
        Interval {
            lo: Some(1.0),
            hi: Some(0.0),
            integral,
        }
    }

    /// A single point.
    #[must_use]
    pub fn point(v: f64, integral: bool) -> Interval {
        Interval {
            lo: Some(v),
            hi: Some(v),
            integral,
        }
    }

    /// Effective lower bound as an `f64` (`-∞` when unbounded).
    #[must_use]
    pub fn lo_f(&self) -> f64 {
        self.lo.unwrap_or(f64::NEG_INFINITY)
    }

    /// Effective upper bound as an `f64` (`+∞` when unbounded).
    #[must_use]
    pub fn hi_f(&self) -> f64 {
        self.hi.unwrap_or(f64::INFINITY)
    }

    /// Whether the interval contains no value.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lo_f() > self.hi_f()
    }

    /// Whether `v` lies inside.
    #[must_use]
    pub fn contains(&self, v: f64) -> bool {
        self.lo_f() <= v && v <= self.hi_f()
    }

    /// Intersection (the lattice meet). The result describes `self`'s
    /// column, so it keeps `self`'s integrality.
    #[must_use]
    pub fn intersect(&self, other: &Interval) -> Interval {
        Interval {
            lo: match (self.lo, other.lo) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (a, b) => a.or(b),
            },
            hi: match (self.hi, other.hi) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            },
            integral: self.integral,
        }
    }

    /// The number of distinct values the interval can hold, when
    /// countable (finite integral intervals only: an empty `Float64`
    /// interval still leaves room for NaN).
    #[must_use]
    pub fn width(&self) -> Option<f64> {
        if !self.integral {
            return None;
        }
        if self.is_empty() {
            return Some(0.0);
        }
        match (self.lo, self.hi) {
            (Some(l), Some(h)) => Some((h.floor() - l.ceil() + 1.0).max(0.0)),
            _ => None,
        }
    }

    fn fmt_bound(v: f64, integral: bool) -> String {
        if integral && v.fract() == 0.0 && v.abs() < 9.0e15 {
            format!("{}", v as i64)
        } else {
            format!("{v}")
        }
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return f.write_str("[empty]");
        }
        let lo = self.lo.map_or_else(
            || "-inf".to_string(),
            |v| Interval::fmt_bound(v, self.integral),
        );
        let hi = self.hi.map_or_else(
            || "+inf".to_string(),
            |v| Interval::fmt_bound(v, self.integral),
        );
        write!(f, "[{lo},{hi}]")
    }
}

/// The abstract value of one column at one plan node.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDomain {
    /// Numeric range of the non-NULL values (numeric columns only).
    pub interval: Option<Interval>,
    /// Small dictionary of the possible non-NULL string values.
    pub values: Option<BTreeSet<String>>,
    /// Whether the column can be NULL here.
    pub nullability: Nullability,
    /// Upper bound on the number of distinct non-NULL values.
    pub ndv: Option<f64>,
}

impl ColumnDomain {
    /// The top element: nothing known beyond nullability.
    #[must_use]
    pub fn top(nullable: bool) -> ColumnDomain {
        ColumnDomain {
            interval: None,
            values: None,
            nullability: if nullable {
                Nullability::Maybe
            } else {
                Nullability::Never
            },
            ndv: None,
        }
    }

    /// The seed domain for a catalog column of the given type.
    #[must_use]
    pub fn for_type(data_type: DataType, nullable: bool) -> ColumnDomain {
        let mut d = ColumnDomain::top(nullable);
        match data_type {
            DataType::Int64 => d.interval = Some(Interval::full(true)),
            DataType::Float64 => d.interval = Some(Interval::full(false)),
            _ => {}
        }
        d
    }

    /// The exact domain of a literal value.
    #[must_use]
    pub fn of_literal(v: &Value) -> ColumnDomain {
        match v {
            Value::Null => {
                let mut d = ColumnDomain::top(true);
                d.nullability = Nullability::Always;
                d.clear_values();
                d
            }
            Value::Int(i) => ColumnDomain {
                interval: Some(Interval::point(*i as f64, true)),
                values: None,
                nullability: Nullability::Never,
                ndv: Some(1.0),
            },
            Value::Float(f) => ColumnDomain {
                interval: Some(Interval::point(*f, false)),
                values: None,
                nullability: Nullability::Never,
                ndv: Some(1.0),
            },
            Value::Str(s) => ColumnDomain {
                interval: None,
                values: Some(std::iter::once(s.clone()).collect()),
                nullability: Nullability::Never,
                ndv: Some(1.0),
            },
            Value::Bool(_) => ColumnDomain {
                interval: None,
                values: None,
                nullability: Nullability::Never,
                ndv: Some(2.0),
            },
        }
    }

    /// Make the non-NULL value set provably empty (the column can only
    /// be NULL, if anything).
    pub fn clear_values(&mut self) {
        let integral = self.interval.is_none_or(|i| i.integral);
        self.interval = Some(Interval::empty(integral));
        self.values = Some(BTreeSet::new());
        self.ndv = Some(0.0);
    }

    /// Whether the set of possible non-NULL values is provably empty.
    #[must_use]
    pub fn is_value_empty(&self) -> bool {
        self.interval.is_some_and(|i| i.is_empty())
            || self.values.as_ref().is_some_and(BTreeSet::is_empty)
    }

    /// Upper bound on the number of `=ⁿ` groups this column can form:
    /// the tightest of the NDV bound, the countable interval width and
    /// the value-set size, plus one for the NULL group when the column
    /// is nullable (`=ⁿ` groups NULL with NULL).
    #[must_use]
    pub fn group_ndv_upper(&self) -> Option<f64> {
        let mut best: Option<f64> = self.ndv;
        if let Some(w) = self.interval.and_then(|i| i.width()) {
            best = Some(best.map_or(w, |b| b.min(w)));
        }
        if let Some(s) = self.values.as_ref().map(|v| v.len() as f64) {
            best = Some(best.map_or(s, |b| b.min(s)));
        }
        best.map(|b| {
            b + if self.nullability.can_be_null() {
                1.0
            } else {
                0.0
            }
        })
    }

    /// Meet with another domain describing the same column (both facts
    /// hold simultaneously).
    #[must_use]
    pub fn intersect(&self, other: &ColumnDomain) -> ColumnDomain {
        let interval = match (self.interval, other.interval) {
            (Some(a), Some(b)) => Some(a.intersect(&b)),
            (a, b) => a.or(b),
        };
        let values = match (&self.values, &other.values) {
            (Some(a), Some(b)) => Some(a.intersection(b).cloned().collect()),
            (a, b) => a.clone().or_else(|| b.clone()),
        };
        let nullability = match (self.nullability, other.nullability) {
            (Nullability::Never, _) | (_, Nullability::Never) => Nullability::Never,
            (Nullability::Always, _) | (_, Nullability::Always) => Nullability::Always,
            _ => Nullability::Maybe,
        };
        let ndv = match (self.ndv, other.ndv) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        ColumnDomain {
            interval,
            values,
            nullability,
            ndv,
        }
    }

    /// Compact deterministic rendering, e.g. `int[1,+inf] not-null
    /// ndv<=5` or `in {'a','b'}`. Empty string when nothing is known.
    #[must_use]
    pub fn render(&self) -> String {
        let mut parts: Vec<String> = vec![];
        if let Some(i) = &self.interval {
            if i.lo.is_some() || i.hi.is_some() {
                parts.push(i.to_string());
            }
        }
        if let Some(vs) = &self.values {
            let items: Vec<String> = vs.iter().map(|s| format!("'{s}'")).collect();
            parts.push(format!("in {{{}}}", items.join(",")));
        }
        match self.nullability {
            Nullability::Never => parts.push("not-null".to_string()),
            Nullability::Always => parts.push("always-null".to_string()),
            Nullability::Maybe => {}
        }
        if let Some(n) = self.ndv {
            parts.push(format!("ndv<={}", Interval::fmt_bound(n, true)));
        }
        parts.join(" ")
    }
}

/// Whether `x op v` can hold, and whether it can fail, for `x` ranging
/// over `dom`'s comparable non-NULL values and a non-NULL literal `v`.
/// Both are `false` when there is no such value; NULL and NaN are the
/// caller's part (`def`, see `range_pass`).
#[must_use]
pub fn compare_domain_literal(dom: &ColumnDomain, op: BinaryOp, v: &Value) -> (bool, bool) {
    if dom.is_value_empty() {
        return (false, false);
    }
    match v {
        Value::Int(_) | Value::Float(_) => match dom.interval {
            Some(i) => interval_vs_point(&i, op, numeric(v)),
            None => (true, true),
        },
        Value::Str(s) => match (&dom.values, op) {
            (Some(set), BinaryOp::Eq) => (set.contains(s), set.len() > 1 || !set.contains(s)),
            (Some(set), BinaryOp::NotEq) => (set.len() > 1 || !set.contains(s), set.contains(s)),
            _ => (true, true),
        },
        _ => (true, true),
    }
}

/// A numeric literal on the interval's line.
fn numeric(v: &Value) -> f64 {
    match v {
        Value::Int(i) => *i as f64,
        Value::Float(f) => *f,
        _ => f64::NAN,
    }
}

/// `(can_hold, can_fail)` of `x op v` for `x ∈ [lo, hi]` (non-empty).
fn interval_vs_point(i: &Interval, op: BinaryOp, v: f64) -> (bool, bool) {
    let (lo, hi) = (i.lo_f(), i.hi_f());
    match op {
        BinaryOp::Eq => (i.contains(v), !(lo == v && hi == v)),
        BinaryOp::NotEq => (!(lo == v && hi == v), i.contains(v)),
        BinaryOp::Lt => (lo < v, hi >= v),
        BinaryOp::LtEq => (lo <= v, hi > v),
        BinaryOp::Gt => (hi > v, lo <= v),
        BinaryOp::GtEq => (hi >= v, lo < v),
        _ => (true, true),
    }
}

/// Whether `x op y` can hold, and whether it can fail, for `x`, `y`
/// ranging independently over two columns' comparable non-NULL values.
#[must_use]
pub fn compare_domains(l: &ColumnDomain, op: BinaryOp, r: &ColumnDomain) -> (bool, bool) {
    if l.is_value_empty() || r.is_value_empty() {
        return (false, false);
    }
    match (l.interval, r.interval) {
        (Some(a), Some(b)) => {
            let (alo, ahi) = (a.lo_f(), a.hi_f());
            let (blo, bhi) = (b.lo_f(), b.hi_f());
            let overlap = !a.intersect(&b).is_empty();
            let both_same_point = alo == ahi && blo == bhi && alo == blo;
            match op {
                BinaryOp::Eq => (overlap, !both_same_point),
                BinaryOp::NotEq => (!both_same_point, overlap),
                BinaryOp::Lt => (alo < bhi, ahi >= blo),
                BinaryOp::LtEq => (alo <= bhi, ahi > blo),
                BinaryOp::Gt => (ahi > blo, alo <= bhi),
                BinaryOp::GtEq => (ahi >= blo, alo < bhi),
                _ => (true, true),
            }
        }
        _ => match (&l.values, &r.values, op) {
            (Some(a), Some(b), BinaryOp::Eq) => {
                let overlap = a.intersection(b).next().is_some();
                let both_same_point =
                    a.len() == 1 && b.len() == 1 && a.iter().next() == b.iter().next();
                (overlap, !both_same_point)
            }
            _ => (true, true),
        },
    }
}

/// Below this magnitude every integer is exact in `f64`, so a bound can
/// be rounded to the next integer without losing one.
const EXACT_INTEGERS: f64 = 9_007_199_254_740_992.0;

/// Refine the domain of a column of type `ty` under the assumption that
/// `x op v` held: `x` is non-NULL and comparable, and a literal of its
/// own kind bounds it. On an `Int64` column a bound is rounded into the
/// type — `x > 5.5` is `x >= 6`, `x < 7` is `x <= 6` — and on a `Float64`
/// column the closed bound over-approximates the open one.
pub fn refine_by_literal(dom: &mut ColumnDomain, ty: DataType, op: BinaryOp, v: &Value) {
    if !op.is_comparison() || matches!(v, Value::Null) {
        return;
    }
    dom.nullability = Nullability::Never;
    match v {
        Value::Int(_) | Value::Float(_) if ty.is_numeric() => {
            let v = numeric(v);
            let integral = ty == DataType::Int64;
            // The integers around `v`, and the step a strict bound takes
            // past them; on a float the closed bound is `v` itself.
            let (ceil, floor, step) = if integral && v.abs() < EXACT_INTEGERS {
                (v.ceil(), v.floor(), 1.0)
            } else {
                (v, v, 0.0)
            };
            let (lo, hi) = match op {
                BinaryOp::Eq => (Some(ceil), Some(floor)),
                BinaryOp::Lt => (None, Some(ceil - step)),
                BinaryOp::LtEq => (None, Some(floor)),
                BinaryOp::Gt => (Some(floor + step), None),
                BinaryOp::GtEq => (Some(ceil), None),
                _ => return,
            };
            let r = Interval { lo, hi, integral };
            dom.interval = Some(dom.interval.map_or(r, |i| i.intersect(&r)));
            if op == BinaryOp::Eq {
                dom.ndv = Some(1.0);
            }
        }
        Value::Str(s) if ty == DataType::Utf8 => match op {
            BinaryOp::Eq => {
                let singleton: BTreeSet<String> = std::iter::once(s.clone()).collect();
                dom.values = Some(match &dom.values {
                    Some(set) => set.intersection(&singleton).cloned().collect(),
                    None => singleton,
                });
                dom.ndv = Some(1.0);
            }
            BinaryOp::NotEq => {
                if let Some(set) = &mut dom.values {
                    set.remove(s);
                }
            }
            _ => {}
        },
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_meet_and_width() {
        let a = Interval {
            lo: Some(0.0),
            hi: Some(10.0),
            integral: true,
        };
        let b = Interval {
            lo: Some(5.0),
            hi: None,
            integral: true,
        };
        let m = a.intersect(&b);
        assert_eq!(m.lo, Some(5.0));
        assert_eq!(m.hi, Some(10.0));
        assert_eq!(m.width(), Some(6.0));
        assert!(!m.is_empty());
        let e = m.intersect(&Interval {
            lo: Some(20.0),
            hi: None,
            integral: true,
        });
        assert!(e.is_empty());
        assert_eq!(e.width(), Some(0.0));
        assert_eq!(Interval::full(false).width(), None);
    }

    #[test]
    fn literal_domains_are_points() {
        let d = ColumnDomain::of_literal(&Value::Int(7));
        assert_eq!(d.interval, Some(Interval::point(7.0, true)));
        assert_eq!(d.nullability, Nullability::Never);
        assert_eq!(d.group_ndv_upper(), Some(1.0));
        let n = ColumnDomain::of_literal(&Value::Null);
        assert!(n.is_value_empty());
        assert_eq!(n.nullability, Nullability::Always);
    }

    const INT: DataType = DataType::Int64;

    #[test]
    fn group_ndv_counts_the_null_group() {
        let mut d = ColumnDomain::for_type(INT, true);
        refine_by_literal(&mut d, INT, BinaryOp::GtEq, &Value::Int(1));
        // Refinement by a true comparison proves non-NULL.
        assert_eq!(d.nullability, Nullability::Never);
        refine_by_literal(&mut d, INT, BinaryOp::LtEq, &Value::Int(4));
        assert_eq!(d.group_ndv_upper(), Some(4.0));
        d.nullability = Nullability::Maybe;
        assert_eq!(d.group_ndv_upper(), Some(5.0));
    }

    #[test]
    fn strict_bounds_tighten_on_integers() {
        let mut d = ColumnDomain::for_type(INT, true);
        refine_by_literal(&mut d, INT, BinaryOp::Gt, &Value::Int(10));
        refine_by_literal(&mut d, INT, BinaryOp::Lt, &Value::Int(13));
        let i = d.interval.unwrap();
        assert_eq!((i.lo, i.hi), (Some(11.0), Some(12.0)));
        assert_eq!(i.width(), Some(2.0));
    }

    /// A bound is rounded into the column's type, not stepped by one:
    /// `x > 5.5 AND x < 7` keeps 6 on an `Int64` column, and an integer
    /// literal does not make a `Float64` column integral.
    #[test]
    fn bounds_follow_the_column_type() {
        let mut d = ColumnDomain::for_type(INT, false);
        refine_by_literal(&mut d, INT, BinaryOp::Gt, &Value::Float(5.5));
        refine_by_literal(&mut d, INT, BinaryOp::Lt, &Value::Int(7));
        assert_eq!(d.render(), "[6,6] not-null");
        let mut d = ColumnDomain::for_type(INT, false);
        refine_by_literal(&mut d, INT, BinaryOp::Eq, &Value::Float(5.5));
        assert!(d.is_value_empty(), "no integer equals 5.5");

        let float = DataType::Float64;
        let mut d = ColumnDomain::for_type(float, false);
        refine_by_literal(&mut d, float, BinaryOp::Gt, &Value::Int(5));
        refine_by_literal(&mut d, float, BinaryOp::Lt, &Value::Int(6));
        let i = d.interval.unwrap();
        assert_eq!((i.lo, i.hi, i.integral), (Some(5.0), Some(6.0), false));
        assert_eq!(i.width(), None);
    }

    #[test]
    fn contradictory_refinement_is_empty() {
        let mut d = ColumnDomain::for_type(INT, false);
        refine_by_literal(&mut d, INT, BinaryOp::Gt, &Value::Int(10));
        refine_by_literal(&mut d, INT, BinaryOp::Lt, &Value::Int(5));
        assert!(d.is_value_empty());
    }

    #[test]
    fn domain_literal_comparisons() {
        let mut d = ColumnDomain::for_type(INT, false);
        refine_by_literal(&mut d, INT, BinaryOp::GtEq, &Value::Int(0));
        // x >= 0 vs `x = -3`: never holds.
        assert_eq!(
            compare_domain_literal(&d, BinaryOp::Eq, &Value::Int(-3)),
            (false, true)
        );
        // x >= 0 vs `x > -1`: never fails.
        assert_eq!(
            compare_domain_literal(&d, BinaryOp::Gt, &Value::Int(-1)),
            (true, false)
        );
    }

    #[test]
    fn disjoint_domains_never_compare_equal() {
        let mut l = ColumnDomain::for_type(INT, false);
        refine_by_literal(&mut l, INT, BinaryOp::Lt, &Value::Int(2000));
        let mut r = ColumnDomain::for_type(INT, false);
        refine_by_literal(&mut r, INT, BinaryOp::GtEq, &Value::Int(2000));
        assert_eq!(compare_domains(&l, BinaryOp::Eq, &r), (false, true));
        // But `l < r` holds on every pair of these ranges.
        assert_eq!(compare_domains(&l, BinaryOp::Lt, &r), (true, false));
    }

    #[test]
    fn string_value_sets() {
        let text = DataType::Utf8;
        let mut d = ColumnDomain::top(false);
        refine_by_literal(&mut d, text, BinaryOp::Eq, &Value::str("laser"));
        let ink = compare_domain_literal(&d, BinaryOp::Eq, &Value::str("ink"));
        assert_eq!(ink, (false, true));
        let laser = compare_domain_literal(&d, BinaryOp::Eq, &Value::str("laser"));
        assert_eq!(laser, (true, false));
        assert_eq!(d.render(), "in {'laser'} not-null ndv<=1");
    }

    #[test]
    fn rendering_is_compact() {
        let mut d = ColumnDomain::for_type(INT, false);
        assert_eq!(d.render(), "not-null");
        refine_by_literal(&mut d, INT, BinaryOp::GtEq, &Value::Int(0));
        assert_eq!(d.render(), "[0,+inf] not-null");
        refine_by_literal(&mut d, INT, BinaryOp::LtEq, &Value::Int(9));
        assert_eq!(d.render(), "[0,9] not-null");
    }
}
