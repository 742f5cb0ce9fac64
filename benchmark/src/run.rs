//! The untraced run: set-up, the closed one-client loop in ten equal
//! rounds, the write bursts, and the result check after each timer stops.

use std::collections::{BTreeMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::time::Instant;

use gbj::engine::PlanChoice;
use gbj::server::{MetricsSnapshot, Server, Session};
use gbj::types::{Result, Value};

use crate::expect::{expected, normalise, Rows};
use crate::gen::{Data, Query};
use crate::stats::quietest;
use crate::workload::{InsertBatch, Op, Spec, INSERT_ROWS, ROUNDS};

/// Set-up is repeated at least this often before the rounds, and until it
/// has taken [`SETUP_MIN_TOTAL_S`] in total (a millisecond set-up needs
/// more repetitions to be steady than a one-second one), but never more
/// than [`SETUP_MAX_REPS`] times — and then as often again after the run,
/// so that one interference episode cannot cover every repetition.
const SETUP_MIN_REPS: usize = 2;
const SETUP_MAX_REPS: usize = 15;
const SETUP_MIN_TOTAL_S: f64 = 0.3;
/// Warm-up passes over the read texts (part of set-up).
const WARM_UP_PASSES: usize = 2;
/// Timed writes per burst (workloads without writes in their loop); at
/// most this many texts are re-read to check the burst on the run's own
/// server landed.
const BURST_WRITES: usize = 40;
const BURST_CHECK_READS: usize = 5;

/// FNV-1a, so result checksums do not depend on the standard library's
/// hasher staying the same between toolchains.
struct Fnv(u64);

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// Grades responses against the fold over the harness's own rows.
pub struct Checker {
    /// The harness's copy of what the engine holds.
    pub data: Data,
    /// Expected rows per query at the current state of `data`.
    cache: BTreeMap<Query, Rows>,
    checksum: Fnv,
    pub attempted: u64,
    pub failed: u64,
    /// The first few mismatches, for the human report.
    pub complaints: Vec<String>,
}

impl Checker {
    pub fn new(data: Data) -> Checker {
        Checker {
            data,
            cache: BTreeMap::new(),
            checksum: Fnv(0xCBF2_9CE4_8422_2325),
            attempted: 0,
            failed: 0,
            complaints: Vec::new(),
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.complaints.len() < 5 {
            self.complaints.push(what);
        }
    }

    /// Grade one read: an error, an unexpected value type or any
    /// difference from the fold's sorted rows is a failure.
    pub fn read(&mut self, query: Query, result: Result<Vec<Vec<Value>>>) {
        self.attempted += 1;
        let rows = match result {
            Ok(rows) => rows,
            Err(e) => return self.fail(format!("{}: {e}", query.template())),
        };
        let Some(got) = normalise(&rows) else {
            return self.fail(format!("{}: unexpected value type", query.template()));
        };
        got.hash(&mut self.checksum);
        let data = &self.data;
        let want = self
            .cache
            .entry(query)
            .or_insert_with(|| expected(query, data));
        if got != *want {
            let first = got.iter().zip(want.iter()).find(|(g, w)| g != w);
            let what = format!(
                "{}: {} rows returned, {} expected, first difference {first:?}",
                query.template(),
                got.len(),
                want.len(),
            );
            self.fail(what);
        }
    }

    /// Grade one write and, when it succeeded, bring the copy up to date.
    pub fn write(&mut self, batch: InsertBatch, result: Result<()>) {
        if self.write_elsewhere(result) {
            batch.apply(&mut self.data);
            self.cache.clear();
        }
    }

    /// Grade one write to a server whose rows are never read back (a
    /// discarded set-up repetition). Returns whether it succeeded.
    pub fn write_elsewhere(&mut self, result: Result<()>) -> bool {
        self.attempted += 1;
        match result {
            Ok(()) => true,
            Err(e) => {
                self.fail(format!("insert: {e}"));
                false
            }
        }
    }

    pub fn checksum(&self) -> u64 {
        self.checksum.finish()
    }
}

/// One timed read.
#[derive(Debug, Clone, Copy)]
pub struct ReadSample {
    pub round: usize,
    pub query: usize,
    pub ms: f64,
    pub cache_hit: bool,
}

/// Everything the untraced run measured.
pub struct Outcome {
    pub setup_s: Vec<f64>,
    pub reads: Vec<ReadSample>,
    /// `(group, ms)` of every timed write: the group is the round on
    /// `mixed_rw` and the burst elsewhere.
    pub writes: Vec<(usize, f64)>,
    pub write_groups: usize,
    /// Whether the writes are operations of the loop (`mixed_rw`) and so
    /// count towards its throughput.
    pub loop_writes: bool,
    /// Wall time of each round, timers of the grader excluded.
    pub round_walls_s: Vec<f64>,
    pub ops_per_round: usize,
    pub eager_reads: u64,
    pub shipped_rows: u64,
    pub shipped_bytes: u64,
    /// Server counters when the first round began and when the last one
    /// ended (before the write bursts).
    pub server_before: MetricsSnapshot,
    pub server: MetricsSnapshot,
    pub peak_rss_mb: f64,
}

/// The timings of one kind of operation: how many were timed, and the
/// quietest twentieth of them (see `stats::quietest`).
pub struct Quiet {
    pub count: usize,
    pub ms: Vec<f64>,
}

impl Quiet {
    fn of(ms: &[f64]) -> Quiet {
        Quiet {
            count: ms.len(),
            ms: quietest(ms),
        }
    }
}

impl Outcome {
    /// Every timed read by kind — reads of one text that all hit the plan
    /// cache, or all missed it, cost alike — of one round or of the run.
    pub fn reads_by_kind(&self, round: Option<usize>) -> BTreeMap<(usize, bool), Vec<f64>> {
        let mut kinds: BTreeMap<(usize, bool), Vec<f64>> = BTreeMap::new();
        for r in self
            .reads
            .iter()
            .filter(|r| round.is_none_or(|n| n == r.round))
        {
            kinds.entry((r.query, r.cache_hit)).or_default().push(r.ms);
        }
        kinds
    }

    /// The quiet samples of each kind of read, keyed by text. Every kind
    /// keeps the same share, so pooled they keep the mix of the loop.
    pub fn quiet_reads(&self, round: Option<usize>) -> Vec<(usize, Quiet)> {
        let kinds = self.reads_by_kind(round);
        let quiet = kinds.iter().map(|((query, _), ms)| (*query, Quiet::of(ms)));
        quiet.collect()
    }

    /// The quiet samples of the timed writes of one group or of the run.
    pub fn quiet_writes(&self, group: Option<usize>) -> Quiet {
        let of = self
            .writes
            .iter()
            .filter(|w| group.is_none_or(|g| g == w.0));
        Quiet::of(&of.map(|w| w.1).collect::<Vec<_>>())
    }
}

/// A response (or a write) waiting for the round's timer to stop.
enum Pending {
    Read(usize, Result<Vec<Vec<Value>>>),
    Wrote(InsertBatch, Result<()>),
}

/// One burst of the timed writes of a workload whose loop has none:
/// [`BURST_WRITES`] back-to-back inserts; the caller grades what it
/// returns. Every server a run loads takes one burst — the set-up
/// repetitions before the rounds and after them, and the run's own server
/// once its reads are done — so the timed writes are spread over the run,
/// not gathered where one interference episode covers them all. The first
/// insert after a read copies the whole table, because the
/// reader's snapshot shares it: one untimed insert pays that, so the timed
/// ones are alike.
fn write_burst(
    session: &Session,
    burst: usize,
    mut next: impl FnMut() -> InsertBatch,
    writes: &mut Vec<(usize, f64)>,
) -> Vec<(InsertBatch, Result<()>)> {
    let prime = next();
    let primed = session.execute_write(&prime.sql).map(|_| ());
    let mut done = vec![(prime, primed)];
    for _ in 0..BURST_WRITES {
        let batch = next();
        let result = timed_write(session, &batch, burst, writes);
        done.push((batch, result));
    }
    done
}

fn timed_write(
    session: &Session,
    batch: &InsertBatch,
    group: usize,
    writes: &mut Vec<(usize, f64)>,
) -> Result<()> {
    let started = Instant::now();
    let result = session.execute_write(&batch.sql);
    writes.push((group, started.elapsed().as_secs_f64() * 1e3));
    result.map(|_| ())
}

/// A loaded server, its one client, and the grader.
pub struct Harness {
    pub spec: Spec,
    pub seed: u64,
    pub queries: Vec<Query>,
    pub sqls: Vec<String>,
    /// The loaded server and its one client, until [`Harness::finish`].
    live: Option<(Server, Session)>,
    pub checker: Checker,
    pub setup_s: Vec<f64>,
    next_batch: u64,
    /// `(burst, ms)` of the write bursts so far, and how many there were.
    burst_writes: Vec<(usize, f64)>,
    bursts: usize,
}

impl Harness {
    /// One set-up: DDL + load + server start + warm-up, and how long it
    /// took.
    fn set_up_once(spec: &Spec, data: &Data, sqls: &[String]) -> Result<(Server, Session, f64)> {
        let started = Instant::now();
        let server = spec.start_server(data)?;
        let session = server.connect();
        if spec.warm_up {
            for sql in sqls.iter().cycle().take(WARM_UP_PASSES * sqls.len()) {
                session.query(sql)?;
            }
        }
        Ok((server, session, started.elapsed().as_secs_f64()))
    }

    /// Set-up, several times over; the last server is the one the run
    /// uses.
    pub fn set_up(spec: &Spec, seed: u64) -> Result<Harness> {
        let queries = spec.queries(seed);
        let mut h = Harness {
            spec: spec.clone(),
            seed,
            sqls: queries.iter().map(Query::sql).collect(),
            queries,
            live: None,
            checker: Checker::new(spec.generate(seed)),
            setup_s: Vec::new(),
            next_batch: 0,
            burst_writes: Vec::new(),
            bursts: 0,
        };
        while h.setup_s.len() < SETUP_MIN_REPS
            || (h.setup_s.iter().sum::<f64>() < SETUP_MIN_TOTAL_S
                && h.setup_s.len() < SETUP_MAX_REPS)
        {
            // Two loaded servers at once would double the peak RSS, so the
            // last one goes first, after a write burst: the run's own
            // server stays as loaded, its plan cache warm.
            if let Some((_server, session)) = h.live.take() {
                h.burst_elsewhere(&session);
            }
            let (server, session, took_s) = Harness::set_up_once(spec, &h.checker.data, &h.sqls)?;
            h.setup_s.push(took_s);
            h.live = Some((server, session));
        }
        Ok(h)
    }

    /// A write burst on a server whose rows are never read back.
    fn burst_elsewhere(&mut self, session: &Session) {
        if self.spec.is_mixed() {
            return;
        }
        let (spec, seed, data) = (&self.spec, self.seed, &self.checker.data);
        let next = || next_insert(spec, seed, &mut self.next_batch, data);
        let done = write_burst(session, self.bursts, next, &mut self.burst_writes);
        self.bursts += 1;
        for (_, result) in done {
            self.checker.write_elsewhere(result);
        }
    }

    pub fn server(&self) -> &Server {
        &self.live.as_ref().expect("the server lives until finish").0
    }

    pub fn session(&self) -> &Session {
        &self.live.as_ref().expect("the server lives until finish").1
    }

    pub fn next_insert(&mut self) -> InsertBatch {
        next_insert(
            &self.spec,
            self.seed,
            &mut self.next_batch,
            &self.checker.data,
        )
    }

    fn grade(&mut self, pending: Vec<Pending>) {
        for p in pending {
            match p {
                Pending::Read(q, result) => self.checker.read(self.queries[q], result),
                Pending::Wrote(batch, result) => self.checker.write(batch, result),
            }
        }
    }

    /// Rounds, then the late write bursts: the whole untraced run.
    #[cfg(test)]
    pub fn run(&mut self) -> Outcome {
        let mut out = self.run_rounds();
        self.finish(&mut out).unwrap();
        out
    }

    /// The measured rounds. Responses are graded after each round's timer
    /// stops, so checking costs neither latency nor throughput.
    pub fn run_rounds(&mut self) -> Outcome {
        let mut out = Outcome {
            setup_s: self.setup_s.clone(),
            reads: Vec::new(),
            writes: Vec::new(),
            write_groups: ROUNDS,
            loop_writes: self.spec.is_mixed(),
            round_walls_s: Vec::new(),
            ops_per_round: 0,
            eager_reads: 0,
            shipped_rows: 0,
            shipped_bytes: 0,
            server_before: self.server().metrics(),
            server: self.server().metrics(),
            peak_rss_mb: 0.0,
        };
        let cycle = self.spec.cycle(&self.queries);
        let ops: Vec<Op> = cycle
            .iter()
            .copied()
            .cycle()
            .take(cycle.len() * self.spec.cycles_per_round)
            .collect();
        out.ops_per_round = ops.len();
        for round in 0..ROUNDS {
            let writes = ops.iter().filter(|op| **op == Op::Write).count();
            let mut batches: VecDeque<InsertBatch> =
                (0..writes).map(|_| self.next_insert()).collect();
            let mut pending = Vec::with_capacity(ops.len());
            let wall = Instant::now();
            for op in &ops {
                match *op {
                    Op::Read(q) => {
                        let started = Instant::now();
                        let result = self.session().query(&self.sqls[q]);
                        let ms = started.elapsed().as_secs_f64() * 1e3;
                        let rows = result.map(|resp| {
                            out.reads.push(ReadSample {
                                round,
                                query: q,
                                ms,
                                cache_hit: resp.cache_hit,
                            });
                            out.eager_reads += u64::from(resp.metrics.choice == PlanChoice::Eager);
                            out.shipped_rows += resp.metrics.shipped_rows;
                            out.shipped_bytes += resp.metrics.shipped_bytes;
                            resp.rows.rows
                        });
                        pending.push(Pending::Read(q, rows));
                    }
                    Op::Write => {
                        let batch = batches.pop_front().expect("one batch per write op");
                        let result = timed_write(self.session(), &batch, round, &mut out.writes);
                        pending.push(Pending::Wrote(batch, result));
                    }
                }
            }
            out.round_walls_s.push(wall.elapsed().as_secs_f64());
            self.grade(pending);
        }
        out.server = self.server().metrics();
        out
    }

    /// The late write bursts, the late set-up repetitions and the memory
    /// high-water mark. Runs after the traced part, when there is one, so
    /// the spans see the tables at the size the rounds saw them.
    pub fn finish(&mut self, out: &mut Outcome) -> Result<()> {
        if !self.spec.is_mixed() {
            self.burst_here();
        }
        // As many set-ups again, of the data as first loaded, once the
        // run's own server is gone.
        self.live = None;
        let loaded = self.spec.generate(self.seed);
        for _ in 0..self.setup_s.len() {
            let (_server, session, took_s) = Harness::set_up_once(&self.spec, &loaded, &self.sqls)?;
            out.setup_s.push(took_s);
            self.burst_elsewhere(&session);
        }
        if !self.spec.is_mixed() {
            out.writes = std::mem::take(&mut self.burst_writes);
            out.write_groups = self.bursts;
        }
        out.peak_rss_mb = peak_rss_mb();
        Ok(())
    }

    /// A write burst on the run's own server once its reads are done,
    /// then a re-read of a few texts to prove the rows landed.
    fn burst_here(&mut self) {
        let (spec, seed, data) = (&self.spec, self.seed, &self.checker.data);
        let next = || next_insert(spec, seed, &mut self.next_batch, data);
        let (_, session) = self.live.as_ref().expect("the server lives until finish");
        let done = write_burst(session, self.bursts, next, &mut self.burst_writes);
        self.bursts += 1;
        for (batch, result) in done {
            self.checker.write(batch, result);
        }
        for q in 0..self.queries.len().min(BURST_CHECK_READS) {
            let rows = self.session().query(&self.sqls[q]).map(|r| r.rows.rows);
            self.checker.read(self.queries[q], rows);
        }
    }
}

/// The next insert batch of a run, numbered by `counter`.
fn next_insert(spec: &Spec, seed: u64, counter: &mut u64, data: &Data) -> InsertBatch {
    let batch = InsertBatch::new(spec, seed, *counter, INSERT_ROWS, data);
    *counter += 1;
    batch
}

/// `VmHWM` of this process in MiB; 0 where `/proc` does not say.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;

    fn tiny(name: &str) -> Spec {
        workload::find(name).unwrap().sized(0.02, 1.0)
    }

    #[test]
    fn every_workload_passes_its_own_check_on_two_seeds() {
        for w in &workload::WORKLOADS {
            for seed in [1, 2] {
                let mut h = Harness::set_up(&tiny(w.name), seed).unwrap();
                let out = h.run();
                assert_eq!(
                    h.checker.failed, 0,
                    "{} seed {seed}: {:?}",
                    w.name, h.checker.complaints
                );
                assert!(h.checker.attempted as usize >= out.reads.len() + out.writes.len());
                assert_eq!(out.round_walls_s.len(), ROUNDS);
                let groups: std::collections::BTreeSet<usize> =
                    out.writes.iter().map(|w| w.0).collect();
                assert_eq!(
                    groups.len(),
                    out.write_groups,
                    "{}: write_p50_ms needs samples in every group",
                    w.name
                );
                assert!(out.write_groups >= 4, "{}", w.name);
            }
        }
    }

    #[test]
    fn a_second_seed_gives_different_data_and_a_different_checksum() {
        let spec = tiny("serve_hot");
        let run = |seed| {
            let mut h = Harness::set_up(&spec, seed).unwrap();
            h.run();
            (h.checker.checksum(), h.checker.data.clone())
        };
        let (a, b, again) = (run(1), run(2), run(1));
        assert_ne!(a.1, b.1);
        assert_ne!(a.0, b.0);
        assert_eq!(a.0, again.0, "same seed, same results");
    }

    #[test]
    fn a_corrupted_expectation_is_caught() {
        // The engine holds the generated rows; the grader is handed a
        // copy with one aggregate input changed. Every read of the
        // template that sums `V` must now fail — proof that the check
        // can fail at all.
        let mut h = Harness::set_up(&tiny("serve_hot"), 1).unwrap();
        let Data::Star(d) = &mut h.checker.data else {
            unreachable!()
        };
        let joined = d
            .facts
            .iter_mut()
            .find(|f| f.v.is_some() && f.dim.is_some_and(|k| k < 10))
            .unwrap();
        joined.v = joined.v.map(|v| v + 1);
        h.run();
        assert!(h.checker.failed > 0);
        let share = h.checker.failed as f64 / h.checker.attempted as f64;
        assert!(
            share > 0.0 && share < 1.0,
            "only some templates read V: {share}"
        );
        assert!(h.checker.complaints[0].contains("fanin_key"));
    }

    #[test]
    fn mixed_rw_misses_once_per_write_and_counts_repeat() {
        let spec = tiny("mixed_rw");
        let mut h = Harness::set_up(&spec, 1).unwrap();
        let out = h.run();
        let before = out.server_before;
        let writes = out.writes.len() as u64;
        assert_eq!(writes, (ROUNDS * spec.cycles_per_round) as u64);
        assert_eq!(out.reads.len() as u64, 4 * writes);
        assert_eq!(out.server.cache_misses - before.cache_misses, writes);
        assert_eq!(out.server.cache_hits - before.cache_hits, 3 * writes);
        assert_eq!(
            out.server.snapshot_refreshes - before.snapshot_refreshes,
            writes
        );
        assert_eq!(h.checker.failed, 0, "{:?}", h.checker.complaints);
    }

    #[test]
    fn plan_cold_never_hits_its_plan_cache() {
        let mut h = Harness::set_up(&tiny("plan_cold"), 1).unwrap();
        let out = h.run();
        assert!(out.reads.iter().all(|r| !r.cache_hit));
        assert_eq!(h.checker.failed, 0, "{:?}", h.checker.complaints);
    }
}
