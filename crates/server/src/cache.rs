//! The bound-plan cache: prepared statements keyed on SQL text plus
//! the *plan epoch* they were planned against.
//!
//! Planning (bind → FD reasoning → eager/lazy decision → costing) is
//! the expensive, *stats-dependent* half of a query. The decision can
//! flip when the data changes — a `CREATE TABLE` changes binding, an
//! `INSERT` drifts the cardinalities the cost model reads — and also
//! when the data *doesn't* change but the learned statistics do (an
//! absorbed execution-feedback delta). The session therefore keys on
//! the plan epoch, the pair (storage epoch, stats epoch) of
//! [`Database::plan_epoch`](gbj_engine::Database::plan_epoch): any
//! committed mutation or material stats update moves it and every older
//! entry simply stops being reachable (and is swept out
//! opportunistically).
//!
//! A configuration change moves no epoch, so [`PlanCache::clear`] is
//! its only invalidation, and it also bumps the cache's *generation*.
//! A session reads the generation before it takes its snapshot and
//! hands it back with the plan it inserts; an insert whose generation
//! is no longer current was planned under options that a clear has
//! since retired, and is refused — otherwise a miss in flight across
//! [`Server::reconfigure`](crate::Server::reconfigure) would cache its
//! old-options plan under the same `(sql, plan epoch)` the new options
//! read.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, PoisonError};

use gbj_engine::QueryReport;

/// A plan epoch: `(storage epoch, stats epoch)`.
type PlanEpoch = (u64, u64);

/// The plans of one plan epoch — the one of the latest insert: a plan
/// from any other epoch is unreachable, so none is kept, and a lookup
/// compares the epoch once and then asks the map by `&str`.
#[derive(Debug, Default)]
struct CacheState {
    /// Bumped by every [`PlanCache::clear`].
    generation: u64,
    epoch: PlanEpoch,
    map: HashMap<String, Arc<QueryReport>>,
    /// Insertion order for FIFO eviction.
    order: VecDeque<String>,
}

/// A bounded map from `(sql, plan epoch)` to the planner's
/// [`QueryReport`].
#[derive(Debug)]
pub struct PlanCache {
    capacity: usize,
    state: Mutex<CacheState>,
}

impl PlanCache {
    /// A cache holding at most `capacity` plans (0 disables caching).
    #[must_use]
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            capacity,
            state: Mutex::new(CacheState::default()),
        }
    }

    /// The plan prepared for exactly this SQL text at this plan epoch.
    #[must_use]
    pub fn get(&self, sql: &str, epoch: PlanEpoch) -> Option<Arc<QueryReport>> {
        let st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.map.get(sql).filter(|_| st.epoch == epoch).cloned()
    }

    /// The current generation: read it *before* taking the snapshot a
    /// plan will be made on, and pass it to [`PlanCache::insert`].
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .generation
    }

    /// Store a freshly planned report, unless a [`PlanCache::clear`]
    /// ran since `generation` was read. Entries from older epochs are
    /// unreachable by construction; this also sweeps them out so the
    /// capacity is spent on live plans.
    pub fn insert(&self, sql: &str, epoch: PlanEpoch, generation: u64, report: Arc<QueryReport>) {
        if self.capacity == 0 {
            return;
        }
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if st.generation != generation {
            return;
        }
        if st.epoch != epoch {
            st.map.clear();
            st.order.clear();
            st.epoch = epoch;
        }
        while st.order.len() >= self.capacity {
            if let Some(old) = st.order.pop_front() {
                st.map.remove(&old);
            } else {
                break;
            }
        }
        if st.map.insert(sql.to_string(), report).is_none() {
            st.order.push_back(sql.to_string());
        }
    }

    /// Drop everything and start a new generation (configuration
    /// changed: plans may differ now even at the same epoch, including
    /// those still being made).
    pub fn clear(&self) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.map.clear();
        st.order.clear();
        st.generation += 1;
    }

    /// Number of cached plans.
    #[must_use]
    pub fn len(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .map
            .len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbj_engine::Database;

    fn report_for(db: &Database, sql: &str) -> Arc<QueryReport> {
        Arc::new(db.plan_query(sql).unwrap())
    }

    fn db() -> Database {
        let mut db = Database::new();
        db.run_script(
            "CREATE TABLE T (A INTEGER PRIMARY KEY, B INTEGER); \
             INSERT INTO T VALUES (1, 10), (2, 20);",
        )
        .unwrap();
        db
    }

    #[test]
    fn hit_requires_same_sql_and_epoch() {
        let d = db();
        let cache = PlanCache::new(8);
        let sql = "SELECT A FROM T";
        cache.insert(sql, (5, 1), 0, report_for(&d, sql));
        assert!(cache.get(sql, (5, 1)).is_some());
        assert!(cache.get(sql, (6, 1)).is_none(), "a write invalidates");
        assert!(cache.get(sql, (5, 2)).is_none(), "so do new statistics");
        assert!(
            cache.get(sql, (6, 0)).is_none() && cache.get(sql, (4, 2)).is_none(),
            "the key is the pair, not its sum"
        );
        assert!(cache.get("SELECT B FROM T", (5, 1)).is_none());
    }

    #[test]
    fn new_epoch_sweeps_stale_entries() {
        let d = db();
        let cache = PlanCache::new(8);
        cache.insert(
            "SELECT A FROM T",
            (1, 0),
            0,
            report_for(&d, "SELECT A FROM T"),
        );
        cache.insert(
            "SELECT B FROM T",
            (1, 0),
            0,
            report_for(&d, "SELECT B FROM T"),
        );
        assert_eq!(cache.len(), 2);
        cache.insert(
            "SELECT A FROM T",
            (2, 0),
            0,
            report_for(&d, "SELECT A FROM T"),
        );
        assert_eq!(cache.len(), 1, "epoch-1 plans are swept at epoch 2");
        assert!(cache.get("SELECT B FROM T", (1, 0)).is_none());
    }

    #[test]
    fn capacity_is_bounded_fifo() {
        let d = db();
        let cache = PlanCache::new(2);
        for (i, sql) in ["SELECT A FROM T", "SELECT B FROM T", "SELECT A, B FROM T"]
            .iter()
            .enumerate()
        {
            cache.insert(sql, (1, 0), 0, report_for(&d, sql));
            assert!(cache.len() <= 2, "insert {i} exceeded capacity");
        }
        assert!(
            cache.get("SELECT A FROM T", (1, 0)).is_none(),
            "oldest evicted"
        );
        assert!(cache.get("SELECT A, B FROM T", (1, 0)).is_some());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let d = db();
        let cache = PlanCache::new(0);
        cache.insert(
            "SELECT A FROM T",
            (1, 0),
            0,
            report_for(&d, "SELECT A FROM T"),
        );
        assert!(cache.is_empty());
        assert!(cache.get("SELECT A FROM T", (1, 0)).is_none());
    }

    #[test]
    fn clear_empties_everything() {
        let d = db();
        let cache = PlanCache::new(4);
        cache.insert(
            "SELECT A FROM T",
            (1, 0),
            0,
            report_for(&d, "SELECT A FROM T"),
        );
        cache.clear();
        assert!(cache.is_empty());
    }

    /// A plan made under a generation that a clear has since retired
    /// is refused, at the same SQL and epoch; the new generation's
    /// plans are stored.
    #[test]
    fn insert_after_a_clear_needs_the_new_generation() {
        let d = db();
        let cache = PlanCache::new(4);
        let sql = "SELECT A FROM T";
        let before = cache.generation();
        cache.clear();
        cache.insert(sql, (1, 0), before, report_for(&d, sql));
        assert!(cache.is_empty(), "a plan from before the clear is refused");
        assert!(cache.get(sql, (1, 0)).is_none());
        let after = cache.generation();
        assert_ne!(after, before);
        cache.insert(sql, (1, 0), after, report_for(&d, sql));
        assert!(cache.get(sql, (1, 0)).is_some());
    }
}
