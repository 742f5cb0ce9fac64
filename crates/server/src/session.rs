//! The server and its sessions: snapshot reads, guarded execution,
//! and the serialised write path with its commit log.
//!
//! ## Concurrency model
//!
//! * **Writers serialise** on one mutex around the authoritative
//!   [`Database`]; each write script runs whole under the lock and
//!   (when it committed anything) appends one entry to the commit log.
//! * **Readers never take the write lock for data access.** They run
//!   against an `Arc`-shared snapshot published from the authoritative
//!   database. Snapshots are refreshed lazily *on read*: a reader that
//!   notices the published epoch moved re-forks the database (O(tables)
//!   thanks to `Arc`-shared row storage) and installs the new snapshot
//!   for everyone. Queries therefore observe a consistent committed
//!   prefix of the write history — never torn state — and each response
//!   carries the epoch it read at.
//! * **Lock order** is `snapshot → db`; the write path takes only `db`,
//!   so the pair cannot deadlock.
//! * **What a read learns goes to the authoritative database.** A
//!   snapshot never absorbs its own execution feedback — its store
//!   would die with it at the next write. With
//!   [`EngineOptions::adaptive`](gbj_engine::EngineOptions::adaptive)
//!   set, a served read hands its delta to
//!   [`Server::absorb_feedback`]: a material change moves the stats
//!   epoch and publishes a fresh snapshot, so every session plans with
//!   the same facts at one plan epoch, and the facts survive writes.
//!
//! The commit log plus per-response epochs are what make the chaos
//! differential test an *oracle*: replaying the logged scripts serially
//! onto a fork of the initial database reproduces every committed
//! state, and every successful concurrent read must be byte-identical
//! to the serial replay at its epoch.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Once, PoisonError, RwLock};
use std::time::{Duration, Instant};

use gbj_engine::{Database, QueryMetrics, QueryOutput, QueryReport};
use gbj_exec::{CancellationToken, ResourceGuard, ResultSet};
use gbj_sql::{parse_statements, Statement};
use gbj_types::{Error, Result};

use crate::admission::AdmissionConfig;
use crate::admission::AdmissionController;
use crate::cache::PlanCache;
use crate::metrics::{MetricsSnapshot, ServerMetrics};

/// Whole-server configuration.
#[derive(Debug, Clone, Default)]
pub struct ServerConfig {
    /// Slot pool and shedding behaviour.
    pub admission: AdmissionConfig,
    /// Per-query resource budgets applied to every read (the session
    /// deadline/cancellation are layered on top per call).
    pub default_limits: gbj_exec::ResourceLimits,
    /// Deadline applied to queries when the session sets none.
    pub default_timeout: Option<Duration>,
    /// Bound-plan cache capacity (0 disables the cache).
    pub plan_cache_capacity: usize,
    /// Record committed write scripts for serial replay (chaos tests;
    /// unbounded memory, so off by default).
    pub record_commits: bool,
}

impl ServerConfig {
    /// The defaults plus a plan cache of useful size.
    #[must_use]
    pub fn with_plan_cache(mut self, capacity: usize) -> ServerConfig {
        self.plan_cache_capacity = capacity;
        self
    }
}

/// One committed (possibly partially committed) write script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommittedOp {
    /// Commit order (0-based, dense).
    pub seq: u64,
    /// The storage epoch after this script ran.
    pub epoch_after: u64,
    /// The script text, exactly as executed.
    pub sql: String,
}

struct ServerShared {
    config: ServerConfig,
    /// The authoritative database. Writers hold this for whole scripts.
    db: Mutex<Database>,
    /// The latest published read snapshot.
    snapshot: RwLock<Arc<Database>>,
    /// Epoch of the authoritative database, published without locking.
    published_epoch: AtomicU64,
    admission: AdmissionController,
    cache: PlanCache,
    metrics: ServerMetrics,
    commit_log: Mutex<Vec<CommittedOp>>,
    next_session: AtomicU64,
}

/// The serving layer over one [`Database`]. Cheap to clone (an `Arc`);
/// clones share sessions, admission slots, metrics and the plan cache.
#[derive(Clone)]
pub struct Server {
    shared: Arc<ServerShared>,
}

/// Per-query options layered over the session defaults.
#[derive(Debug, Clone, Default)]
pub struct QueryOpts {
    /// Deadline for this call (overrides the session timeout).
    pub deadline: Option<Duration>,
    /// Cooperative cancellation handle for this call.
    pub cancel: Option<CancellationToken>,
}

/// A successful snapshot read.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// The result rows.
    pub rows: ResultSet,
    /// The storage epoch the snapshot was taken at.
    pub epoch: u64,
    /// Whether the plan came from the bound-plan cache.
    pub cache_hit: bool,
    /// The (possibly cached) planning report.
    pub report: Arc<QueryReport>,
    /// Execution metrics for this call.
    pub metrics: QueryMetrics,
}

/// A write script's outcome.
#[derive(Debug, Clone)]
pub struct WriteResponse {
    /// One output per executed statement.
    pub outputs: Vec<QueryOutput>,
    /// The storage epoch after the script.
    pub epoch_after: u64,
    /// The commit-log sequence number, when commit recording is on and
    /// the script committed at least one change.
    pub seq: Option<u64>,
}

/// Ask the allocator to keep the heap that reads have grown.
///
/// A read materializes megabytes of short-lived vectors and frees them
/// all before it returns. glibc hands a free heap top back to the
/// kernel once it passes the trim threshold, so when nothing long-lived
/// happens to sit above those vectors every read ends with a trim and
/// the next one faults the same pages in again — +40 % on a 100 000-row
/// pipeline read's p90, decided by what else the process has allocated
/// (an index that got smaller is enough), not by the read
/// (EXPERIMENTS.md X19, X22). The threshold is dynamic (`mallopt(3)`,
/// "dynamic mmap threshold"): freeing a block large enough to have been
/// `mmap`ped raises the mmap threshold to its size and the trim
/// threshold to twice that. So the first server of a process reserves
/// and releases one such block — never touched, so never resident —
/// and from then on the process keeps what its reads have grown, up to
/// 32 MiB of free top. Under another allocator this is an untouched
/// allocation and its release.
fn keep_grown_heap() {
    const BLOCK: usize = 16 << 20;
    static ASKED: Once = Once::new();
    ASKED.call_once(|| drop(std::hint::black_box(Vec::<u8>::with_capacity(BLOCK))));
}

impl Server {
    /// A server over an empty database.
    #[must_use]
    pub fn new(config: ServerConfig) -> Server {
        Server::with_database(Database::new(), config)
    }

    /// A server over an existing database (takes ownership — all
    /// further access goes through sessions).
    #[must_use]
    pub fn with_database(db: Database, config: ServerConfig) -> Server {
        keep_grown_heap();
        let snapshot = Arc::new(db.fork());
        let epoch = db.epoch();
        Server {
            shared: Arc::new(ServerShared {
                admission: AdmissionController::new(config.admission),
                cache: PlanCache::new(config.plan_cache_capacity),
                metrics: ServerMetrics::default(),
                commit_log: Mutex::new(Vec::new()),
                next_session: AtomicU64::new(0),
                db: Mutex::new(db),
                snapshot: RwLock::new(snapshot),
                published_epoch: AtomicU64::new(epoch),
                config,
            }),
        }
    }

    /// Open a session.
    #[must_use]
    pub fn connect(&self) -> Session {
        self.shared.metrics.on_session_opened();
        Session {
            id: self.shared.next_session.fetch_add(1, Ordering::Relaxed),
            timeout: self.shared.config.default_timeout,
            shared: Arc::clone(&self.shared),
        }
    }

    /// A copy of every serving counter.
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Queries currently holding an admission slot (gauge, for tests
    /// that need to synchronise with in-flight work).
    #[must_use]
    pub fn active_queries(&self) -> u64 {
        self.shared.metrics.active_queries()
    }

    /// The current published storage epoch.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.shared.published_epoch.load(Ordering::Acquire)
    }

    /// The committed-write log (empty unless
    /// [`ServerConfig::record_commits`] is set).
    #[must_use]
    pub fn commit_log(&self) -> Vec<CommittedOp> {
        self.shared
            .commit_log
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Number of plans currently cached.
    #[must_use]
    pub fn plan_cache_len(&self) -> usize {
        self.shared.cache.len()
    }

    /// Run a read-only closure against the current snapshot (catalog
    /// inspection, `\lint`, …) without going through admission. The
    /// closure must not mutate: changes would land on a throwaway fork,
    /// not the authoritative database — use [`Server::reconfigure`] or
    /// [`Session::execute_write`] for that.
    pub fn with_snapshot<R>(&self, f: impl FnOnce(&Database) -> R) -> R {
        f(&self.shared.current_snapshot())
    }

    /// Absorb an execution-feedback delta (see
    /// [`gbj_engine::FeedbackDelta`]) into the authoritative database's
    /// statistics and, when it changed any learned fact, publish a
    /// fresh snapshot so readers pick up the bumped stats epoch.
    /// Returns whether the stats epoch moved. The plan cache is *not*
    /// cleared: entries are keyed on the plan epoch, so stale plans
    /// simply stop matching and are re-costed on the next miss.
    pub fn absorb_feedback(&self, delta: &gbj_engine::FeedbackDelta) -> bool {
        self.shared.absorb_feedback(delta)
    }

    /// Apply a configuration change to the authoritative database
    /// (policy, threads, fault injector, …). A fresh snapshot is
    /// published immediately and the plan cache is cleared — same SQL
    /// and epoch may now plan differently.
    ///
    /// The closure runs under the writers' database mutex only, never
    /// the snapshot lock readers refresh under. The snapshot is then
    /// forked from the database under the snapshot lock, as a
    /// refreshing reader and an absorb fork it, so installs are
    /// serialised and this one holds this change and every one that
    /// raced it. The cache is cleared last: a read that took the old
    /// snapshot read the cache generation before that, so the clear
    /// retires whatever plan it offers later, and a read that takes the
    /// new snapshot plans under the new options.
    pub fn reconfigure(&self, f: impl FnOnce(&mut Database)) {
        let shared = &self.shared;
        {
            let mut db = shared.db.lock().unwrap_or_else(PoisonError::into_inner);
            f(&mut db);
            shared.published_epoch.store(db.epoch(), Ordering::Release);
        }
        {
            let mut slot = shared
                .snapshot
                .write()
                .unwrap_or_else(PoisonError::into_inner);
            let db = shared.db.lock().unwrap_or_else(PoisonError::into_inner);
            *slot = Arc::new(db.fork());
        }
        shared.cache.clear();
        shared.metrics.on_snapshot_refresh();
    }
}

impl ServerShared {
    /// The freshest snapshot, re-forking lazily when the published
    /// epoch moved past the installed one.
    fn current_snapshot(&self) -> Arc<Database> {
        let published = self.published_epoch.load(Ordering::Acquire);
        {
            let snap = self.snapshot.read().unwrap_or_else(PoisonError::into_inner);
            if snap.epoch() == published {
                return Arc::clone(&snap);
            }
        }
        let mut slot = self
            .snapshot
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        // Double-check under the write lock: another reader may have
        // refreshed while we waited, and the epoch may have moved again.
        if slot.epoch() != self.published_epoch.load(Ordering::Acquire) {
            let db = self.db.lock().unwrap_or_else(PoisonError::into_inner);
            *slot = Arc::new(db.fork());
            self.metrics.on_snapshot_refresh();
        }
        Arc::clone(&slot)
    }

    /// What a read plans on: the cache generation, then the freshest
    /// snapshot — in that order, so that a [`Server::reconfigure`]
    /// that replaces this snapshot clears after the generation was
    /// read, and the plan a miss makes on it is refused.
    fn begin_read(&self) -> (u64, Arc<Database>) {
        let generation = self.cache.generation();
        (generation, self.current_snapshot())
    }

    /// A plan-cache miss: plan and run `sql` on `snap`, then offer the
    /// plan to the cache under the generation [`ServerShared::begin_read`]
    /// returned with `snap`.
    fn plan_miss(
        &self,
        snap: &Database,
        generation: u64,
        sql: &str,
        guard: &ResourceGuard,
    ) -> Result<(ResultSet, Arc<QueryReport>, QueryMetrics)> {
        let plan_epoch = snap.plan_epoch();
        let (rows, report, metrics) = snap.query_with_guard(sql, guard)?;
        let report = Arc::new(report);
        self.cache
            .insert(sql, plan_epoch, generation, Arc::clone(&report));
        Ok((rows, report, metrics))
    }

    /// [`Server::absorb_feedback`]. Readers refresh the snapshot while
    /// holding its lock, so it is taken first here too.
    fn absorb_feedback(&self, delta: &gbj_engine::FeedbackDelta) -> bool {
        let mut slot = self
            .snapshot
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        let db = self.db.lock().unwrap_or_else(PoisonError::into_inner);
        let changed = db.absorb_feedback(delta);
        if changed {
            *slot = Arc::new(db.fork());
            self.metrics.on_snapshot_refresh();
        }
        changed
    }

    /// Count one finished read against the outcome counters.
    fn classify<T>(&self, result: &Result<T>) {
        match result {
            Ok(_) => self.metrics.on_query_ok(),
            Err(Error::Cancelled) => self.metrics.on_cancelled(),
            Err(Error::DeadlineExceeded { .. }) => self.metrics.on_deadline(),
            Err(Error::Overloaded { .. }) => self.metrics.on_shed(),
            Err(_) => self.metrics.on_query_failed(),
        }
    }
}

/// One client connection: a deadline default plus a handle on the
/// shared server state. Sessions are `Send` — hand one to each client
/// thread.
pub struct Session {
    shared: Arc<ServerShared>,
    id: u64,
    timeout: Option<Duration>,
}

impl Session {
    /// The server-unique session id.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Set (or with `None`, clear) the session deadline applied to
    /// every subsequent query — the REPL's `\timeout <ms>`.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) {
        self.timeout = timeout;
    }

    /// The session deadline.
    #[must_use]
    pub fn timeout(&self) -> Option<Duration> {
        self.timeout
    }

    /// Run a single SELECT through admission control against the
    /// current snapshot.
    pub fn query(&self, sql: &str) -> Result<QueryResponse> {
        self.query_opts(sql, &QueryOpts::default())
    }

    /// [`Session::query`] with an explicit deadline and/or cancellation
    /// token. The deadline clock starts *here* and spans admission
    /// wait: a query stuck behind a full server times out rather than
    /// waiting forever.
    pub fn query_opts(&self, sql: &str, opts: &QueryOpts) -> Result<QueryResponse> {
        let entry = Instant::now();
        let timeout = opts.deadline.or(self.timeout);
        let abs_deadline = timeout.map(|t| entry + t);
        let memory = self
            .shared
            .config
            .default_limits
            .max_memory_bytes
            .unwrap_or(0);
        let permit = match self.shared.admission.admit(memory, abs_deadline) {
            Ok(p) => {
                self.shared.metrics.on_admitted();
                p
            }
            Err(e) => {
                let e = fill_deadline(e, timeout, entry);
                self.shared.classify::<()>(&Err(e.clone()));
                return Err(e);
            }
        };
        self.shared.metrics.enter_active();
        let result = self.run_admitted(sql, opts, timeout, entry);
        self.shared.metrics.leave_active();
        drop(permit);
        self.shared.classify(&result);
        result
    }

    fn run_admitted(
        &self,
        sql: &str,
        opts: &QueryOpts,
        timeout: Option<Duration>,
        entry: Instant,
    ) -> Result<QueryResponse> {
        let (generation, snap) = self.shared.begin_read();
        let epoch = snap.epoch();
        // Plans are keyed on the *plan* epoch (data, statistics): a
        // stats-feedback absorption re-costs cached plans even though
        // the data — and therefore the response epoch the replay oracle
        // checks against — did not move.
        let plan_epoch = snap.plan_epoch();
        let mut guard = ResourceGuard::new(self.shared.config.default_limits);
        if let Some(t) = timeout {
            // The remaining slice of the deadline after admission wait;
            // an already-expired deadline fails here, typed, before any
            // execution work.
            let elapsed = entry.elapsed();
            let Some(remaining) = t.checked_sub(elapsed) else {
                return Err(deadline_error(t, elapsed));
            };
            guard = guard.with_deadline(remaining);
        }
        if let Some(token) = &opts.cancel {
            guard = guard.with_cancellation(token.clone());
        }
        let cached = self.shared.cache.get(sql, plan_epoch);
        let cache_hit = cached.is_some();
        let (rows, report, metrics) = match cached {
            Some(report) => {
                self.shared.metrics.on_cache_hit();
                let (rows, metrics) = snap.execute_report_guarded(&report, &guard)?;
                (rows, report, metrics)
            }
            None => {
                self.shared.metrics.on_cache_miss();
                self.shared.plan_miss(&snap, generation, sql, &guard)?
            }
        };
        if snap.options().adaptive {
            self.shared.absorb_feedback(&metrics.feedback);
        }
        Ok(QueryResponse {
            rows,
            epoch,
            cache_hit,
            report,
            metrics,
        })
    }

    /// Run a write script (DDL/DML, or any mixed script) serially on
    /// the authoritative database. The whole script runs under the
    /// write lock; if it committed anything it is appended to the
    /// commit log (when recording) even if a later statement failed —
    /// the committed prefix is real and the replay oracle must see it.
    pub fn execute_write(&self, sql: &str) -> Result<WriteResponse> {
        let shared = &self.shared;
        let mut db = shared.db.lock().unwrap_or_else(PoisonError::into_inner);
        let before = db.epoch();
        let result = db.run_script(sql);
        let after = db.epoch();
        shared.published_epoch.store(after, Ordering::Release);
        let mut seq = None;
        if after != before {
            shared.metrics.on_write();
            if shared.config.record_commits {
                let mut log = shared
                    .commit_log
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                let s = log.len() as u64;
                log.push(CommittedOp {
                    seq: s,
                    epoch_after: after,
                    sql: sql.to_string(),
                });
                seq = Some(s);
            }
        }
        drop(db);
        match result {
            Ok(outputs) => Ok(WriteResponse {
                outputs,
                epoch_after: after,
                seq,
            }),
            Err(e) => {
                shared.metrics.on_query_failed();
                Err(e)
            }
        }
    }

    /// Route a script: a single SELECT goes through the admission +
    /// snapshot read path; everything else (DDL, DML, EXPLAIN, mixed
    /// scripts) runs on the serialised write path.
    pub fn run(&self, sql: &str) -> Result<Vec<QueryOutput>> {
        let stmts = parse_statements(sql)?;
        if let [Statement::Select(_)] = stmts.as_slice() {
            let resp = self.query(sql)?;
            return Ok(vec![QueryOutput::Rows(resp.rows)]);
        }
        Ok(self.execute_write(sql)?.outputs)
    }

    /// Metrics of this session's server (the `\sessions` view).
    #[must_use]
    pub fn server_metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.shared.metrics.on_session_closed();
    }
}

/// Admission reports `DeadlineExceeded` without timing context (it
/// only knows the absolute instant); fill in the session's numbers.
fn fill_deadline(e: Error, timeout: Option<Duration>, entry: Instant) -> Error {
    match (e, timeout) {
        (
            Error::DeadlineExceeded {
                budget_ms: 0,
                elapsed_ms: 0,
            },
            Some(t),
        ) => deadline_error(t, entry.elapsed()),
        (e, _) => e,
    }
}

fn deadline_error(budget: Duration, elapsed: Duration) -> Error {
    let ms = |d: Duration| d.as_millis().min(u128::from(u64::MAX)) as u64;
    Error::DeadlineExceeded {
        budget_ms: ms(budget),
        elapsed_ms: ms(elapsed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbj_types::Value;

    fn seeded_server(config: ServerConfig) -> Server {
        let mut db = Database::new();
        db.run_script(
            "CREATE TABLE Dept (DeptId INTEGER PRIMARY KEY, Name VARCHAR(20)); \
             CREATE TABLE Emp (EmpId INTEGER PRIMARY KEY, DeptId INTEGER, Sal INTEGER);",
        )
        .unwrap();
        db.insert_rows(
            "Dept",
            (0..5).map(|d| vec![Value::Int(d), Value::str(format!("d{d}"))]),
        )
        .unwrap();
        db.insert_rows(
            "Emp",
            (0..100).map(|e| vec![Value::Int(e), Value::Int(e % 5), Value::Int(e * 10)]),
        )
        .unwrap();
        Server::with_database(db, config)
    }

    const AGG: &str = "SELECT D.DeptId, COUNT(E.EmpId), SUM(E.Sal) \
                       FROM Emp E, Dept D WHERE E.DeptId = D.DeptId GROUP BY D.DeptId";

    #[test]
    fn snapshot_reads_do_not_see_later_writes() {
        let server = seeded_server(ServerConfig::default());
        let session = server.connect();
        let before = session.query(AGG).unwrap();
        let writer = server.connect();
        writer
            .execute_write("INSERT INTO Emp VALUES (1000, 0, 999)")
            .unwrap();
        let after = session.query(AGG).unwrap();
        assert!(after.epoch > before.epoch);
        assert_ne!(before.rows.rows, after.rows.rows);
        assert_eq!(before.rows.len(), 5);
    }

    #[test]
    fn plan_cache_hits_same_epoch_and_invalidates_on_write() {
        let server = seeded_server(ServerConfig::default().with_plan_cache(16));
        let session = server.connect();
        let a = session.query(AGG).unwrap();
        assert!(!a.cache_hit);
        let b = session.query(AGG).unwrap();
        assert!(b.cache_hit, "same SQL at same epoch must hit");
        assert_eq!(a.rows.rows, b.rows.rows, "cached plan, identical bytes");
        session
            .execute_write("INSERT INTO Emp VALUES (2000, 1, 5)")
            .unwrap();
        let c = session.query(AGG).unwrap();
        assert!(!c.cache_hit, "epoch moved: cache must miss");
        assert_ne!(b.rows.rows, c.rows.rows);
    }

    #[test]
    fn stats_feedback_bumps_plan_epoch_and_recosts_cached_plans() {
        let server = seeded_server(ServerConfig::default().with_plan_cache(16));
        let session = server.connect();
        let a = session.query(AGG).unwrap();
        assert!(!a.cache_hit);
        let b = session.query(AGG).unwrap();
        assert!(b.cache_hit, "same SQL, same plan epoch: must hit");
        // Absorb the execution feedback the first run produced. No data
        // changed, but the learned stats did — the plan epoch moves.
        assert!(
            server.absorb_feedback(&a.metrics.feedback),
            "first absorption must learn something"
        );
        let c = session.query(AGG).unwrap();
        assert!(!c.cache_hit, "stats epoch moved: cached plan re-costed");
        assert_eq!(c.epoch, b.epoch, "data epoch unchanged — only stats moved");
        assert_eq!(c.rows.rows, b.rows.rows, "re-costed plan, identical bytes");
        // Absorbing the same facts again is a no-op: the epoch stays
        // put and the freshly cached plan keeps hitting.
        assert!(!server.absorb_feedback(&a.metrics.feedback));
        let d = session.query(AGG).unwrap();
        assert!(d.cache_hit, "idempotent absorb must not thrash the cache");
    }

    #[test]
    fn cached_plans_run_batch_native_with_row_engine_fingerprint() {
        // Cached plans flow through the same executor dispatch as fresh
        // ones: on the pipeline, both the cache miss and the cache hit
        // must take the batch-native path (live vector counters) and
        // stay byte-identical to the row engine — rows and
        // path-invariant counter fingerprint.
        let server = seeded_server(ServerConfig::default().with_plan_cache(16));
        let session = server.connect();
        // The reference is the oracle switch. One part throughout: the
        // rows below are compared in order, which several parts
        // (`GBJ_TEST_SHARDS`) would not keep.
        server.reconfigure(|db| {
            db.set_shards(std::num::NonZeroUsize::MIN);
            db.set_vectorized(false);
        });
        let row = session.query(AGG).unwrap();
        assert_eq!(row.metrics.path, gbj_exec::ExecPath::Row(None));
        assert_eq!(row.metrics.profile.metrics.vectors, 0);
        let row_fp = row.metrics.profile.counter_fingerprint();

        server.reconfigure(|db| db.set_vectorized(true));
        let miss = session.query(AGG).unwrap();
        assert!(!miss.cache_hit, "reconfigure must clear the plan cache");
        let hit = session.query(AGG).unwrap();
        assert!(hit.cache_hit, "same SQL at same epoch must hit");
        for (name, resp) in [("miss", &miss), ("hit", &hit)] {
            assert_eq!(
                resp.rows.rows, row.rows.rows,
                "{name}: rows match row engine"
            );
            assert_eq!(
                resp.metrics.profile.counter_fingerprint(),
                row_fp,
                "{name}: counter fingerprint matches row engine"
            );
            assert!(
                resp.metrics.profile.metrics.vectors > 0,
                "{name}: batch-native run must claim kernel invocations"
            );
        }
    }

    #[test]
    fn session_timeout_and_zero_deadline_are_typed() {
        let server = seeded_server(ServerConfig::default());
        let mut session = server.connect();
        session.set_timeout(Some(Duration::ZERO));
        let err = session.query(AGG).unwrap_err();
        assert!(matches!(err, Error::DeadlineExceeded { .. }), "{err}");
        session.set_timeout(None);
        session.query(AGG).unwrap();
        let m = server.metrics();
        assert_eq!(m.deadline_exceeded, 1);
        assert_eq!(m.queries_ok, 1);
    }

    #[test]
    fn cancellation_before_start_is_typed() {
        let server = seeded_server(ServerConfig::default());
        let session = server.connect();
        let token = CancellationToken::new();
        token.cancel();
        let err = session
            .query_opts(
                AGG,
                &QueryOpts {
                    cancel: Some(token),
                    ..QueryOpts::default()
                },
            )
            .unwrap_err();
        assert_eq!(err, Error::Cancelled);
        assert_eq!(server.metrics().cancelled, 1);
    }

    #[test]
    fn run_routes_selects_and_writes() {
        let server = seeded_server(ServerConfig::default());
        let session = server.connect();
        let out = session.run("SELECT DeptId FROM Dept").unwrap();
        assert!(matches!(out.as_slice(), [QueryOutput::Rows(r)] if r.len() == 5));
        session.run("DELETE FROM Emp WHERE EmpId >= 50").unwrap();
        let out = session.run("SELECT EmpId FROM Emp").unwrap();
        assert!(matches!(out.as_slice(), [QueryOutput::Rows(r)] if r.len() == 50));
    }

    #[test]
    fn commit_log_records_partial_commits() {
        let mut cfg = ServerConfig::default();
        cfg.record_commits = true;
        let server = seeded_server(cfg);
        let session = server.connect();
        // Second row violates the PK: the first row still commits, and
        // the script must be logged for the replay oracle.
        let err = session
            .execute_write("INSERT INTO Dept VALUES (7, 'x'); INSERT INTO Dept VALUES (7, 'y')")
            .unwrap_err();
        assert_eq!(err.kind(), "constraint");
        let log = server.commit_log();
        assert_eq!(log.len(), 1);
        assert!(log[0].sql.contains("INSERT INTO Dept"));
        // A script that commits nothing is not logged.
        assert!(session
            .execute_write("DELETE FROM Dept WHERE DeptId = 99")
            .is_ok());
        assert_eq!(server.commit_log().len(), 1);
    }

    #[test]
    fn reconfigure_clears_cache_and_republishes() {
        let server = seeded_server(ServerConfig::default().with_plan_cache(16));
        let session = server.connect();
        session.query(AGG).unwrap();
        assert_eq!(server.plan_cache_len(), 1);
        server.reconfigure(|db| {
            db.options_mut().policy = gbj_engine::PushdownPolicy::Never;
        });
        assert_eq!(server.plan_cache_len(), 0);
        let resp = session.query(AGG).unwrap();
        assert!(!resp.cache_hit);
        assert_eq!(resp.rows.len(), 5);
    }

    /// A read that took its snapshot before a `reconfigure` and missed
    /// offers its plan after the clear: at the same SQL and plan epoch
    /// the new snapshot reads, but chosen under the old policy. The
    /// cache refuses it, so the next read plans under the new policy.
    #[test]
    fn a_miss_in_flight_across_reconfigure_is_not_cached() {
        use gbj_engine::{PlanChoice, PushdownPolicy};
        let server = seeded_server(ServerConfig::default().with_plan_cache(16));
        server.reconfigure(|db| db.options_mut().policy = PushdownPolicy::Always);
        let shared = &server.shared;
        let guard = ResourceGuard::new(shared.config.default_limits);

        let (generation, old) = shared.begin_read();
        server.reconfigure(|db| db.options_mut().policy = PushdownPolicy::Never);
        let (_, stale, _) = shared.plan_miss(&old, generation, AGG, &guard).unwrap();
        assert_eq!(stale.choice, PlanChoice::Eager, "planned under Always");
        assert_eq!(
            shared.current_snapshot().plan_epoch(),
            old.plan_epoch(),
            "a configuration change moves no epoch"
        );
        assert_eq!(
            server.plan_cache_len(),
            0,
            "the old-options plan is refused"
        );

        let session = server.connect();
        let fresh = session.query(AGG).unwrap();
        assert!(!fresh.cache_hit);
        assert_eq!(fresh.report.choice, PlanChoice::Lazy, "planned under Never");
        let hit = session.query(AGG).unwrap();
        assert!(hit.cache_hit, "a miss of the new generation is cached");
        assert_eq!(hit.report.choice, PlanChoice::Lazy);
    }

    /// An absorb that takes the snapshot lock while a reconfigure's
    /// closure holds the database installs its learned facts first; the
    /// reconfigure then installs a fork of the database as it stands, so
    /// the snapshot readers get holds both the new policy and the facts.
    #[test]
    fn a_reconfigure_racing_an_absorb_keeps_both() {
        use gbj_engine::PushdownPolicy;
        let server = seeded_server(ServerConfig::default().with_plan_cache(16));
        let learned = server.connect().query(AGG).unwrap().metrics.feedback;
        let stats = server.with_snapshot(Database::stats_epoch);
        std::thread::scope(|s| {
            server.reconfigure(|db| {
                s.spawn(|| assert!(server.absorb_feedback(&learned)));
                // Let the absorb take the snapshot lock and wait on the
                // database the closure holds.
                std::thread::sleep(Duration::from_millis(50));
                db.options_mut().policy = PushdownPolicy::Never;
            });
        });
        let snap = server.shared.current_snapshot();
        assert_eq!(snap.options().policy, PushdownPolicy::Never);
        assert_eq!(snap.stats_epoch(), stats + 1, "the absorbed facts");
    }

    #[test]
    fn sessions_count_open_and_closed() {
        let server = seeded_server(ServerConfig::default());
        {
            let _a = server.connect();
            let _b = server.connect();
            let m = server.metrics();
            assert_eq!(m.sessions_opened, 2);
            assert_eq!(m.sessions_closed, 0);
        }
        let m = server.metrics();
        assert_eq!(m.sessions_closed, 2);
    }
}
