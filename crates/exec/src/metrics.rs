//! Per-operator execution metrics.
//!
//! Every operator the executor runs gets a fresh [`MetricsSink`]; the
//! operator implementations record counters and timings into it and the
//! executor snapshots the sink into the operator's
//! [`ProfileNode`](crate::ProfileNode) as an [`OperatorMetrics`] value.
//!
//! **Determinism.** The counters `rows_in`, `rows_out`, `batches` and
//! `hash_entries` depend only on the input data and the plan, never on
//! the path, the part count or scheduling. Over several parts the
//! pipeline's operators record the totals of their *merged* state —
//! distinct groups of the merged table, build rows of the whole build
//! side — so the counts are byte-identical to the row engine's at
//! every part and thread count, the same guarantee the operators make
//! for their row output. Timings (`build_ns`, `probe_ns`) and
//! `state_bytes` are measurements of a particular run and are
//! deliberately excluded from [`OperatorMetrics::fingerprint`].
//!
//! **Timers.** Three phase timers, `build_ns`, `probe_ns` and
//! `kernel_ns`, and the way they nest is a rule per operator. On the
//! chunk pipeline:
//!
//! | operator | `build_ns` | `probe_ns` | `kernel_ns` |
//! |---|---|---|---|
//! | Scan | — | the cursor, dealing batches to parts | — |
//! | Filter, Project | — | the whole operator | per-chunk evaluation and any exchange: **inside** `probe_ns` |
//! | Join | the hash build | the probe loop of every window | the exchanges, the build side's concatenation, the compaction of sparse probe runs, the gather and the residual: **disjoint** from the other two |
//! | Aggregate | the fold (under a combiner: fold, routing and merge) | the drain | per-chunk key and argument evaluation: **inside** `build_ns`; a gather or exchange before the fold: **disjoint** |
//! | Sort | the sort | — | the gather: **disjoint** |
//!
//! So an operator's own time is `probe_ns` for Filter and Project,
//! `build_ns + probe_ns + kernel_ns` for Join and Sort, and for an
//! Aggregate `build_ns + probe_ns` plus the disjoint share of
//! `kernel_ns`. A movement counts as the moving operator's kernel time.
//! Over several parts the timers sum the parts' times, not wall time.
//! The row engine runs no kernel (`kernel_ns` is zero) and times its
//! phases as the table says.
//!
//! The sink is internally atomic so an operator's parts can share it by
//! reference across the thread team (see [`crate::parallel`]).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Counters and timings one operator produced during one execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OperatorMetrics {
    /// Rows flowing into the operator (sum over all inputs).
    pub rows_in: u64,
    /// Rows the operator produced.
    pub rows_out: u64,
    /// Input batches processed: real cursor batches for a scan, morsel
    /// count (a function of input size only) for blocking operators,
    /// one for single-pass streaming operators.
    pub batches: u64,
    /// Hash-table entries built (join build entries / distinct groups).
    pub hash_entries: u64,
    /// Nanoseconds spent constructing operator state (hash build, sort,
    /// aggregation-table fill).
    pub build_ns: u64,
    /// Nanoseconds spent producing output (probe, merge, stream).
    pub probe_ns: u64,
    /// Estimated bytes of operator state charged against the
    /// [`ResourceGuard`](crate::ResourceGuard) (memory high-water of
    /// this operator's tables/buffers).
    pub state_bytes: u64,
    /// Columnar vectors (batches) built by the vectorized kernels; zero
    /// on the row path.
    pub vectors: u64,
    /// Rows that passed a vectorized selection (selection density =
    /// `selected / rows_in`); zero on the row path.
    pub selected: u64,
    /// Nanoseconds spent inside vectorized kernels (batch construction
    /// plus column-at-a-time evaluation).
    pub kernel_ns: u64,
    /// Rows this operator shipped across a shard boundary (exchange /
    /// gather traffic; zero on the single-shard path). Deterministic at
    /// a fixed shard count but a function of the shard count itself, so
    /// excluded from [`OperatorMetrics::fingerprint`].
    pub shipped_rows: u64,
    /// Estimated bytes-over-the-wire for `shipped_rows` (row payload
    /// plus per-row framing; partial aggregates price key + accumulator
    /// states). Excluded from the fingerprint like `shipped_rows`.
    pub shipped_bytes: u64,
}

impl OperatorMetrics {
    /// The thread-count-invariant counters: `[rows_in, rows_out,
    /// batches, hash_entries]`. Identical at every thread count for the
    /// same input (timings and state bytes are excluded — they measure
    /// a particular run).
    #[must_use]
    pub fn fingerprint(&self) -> [u64; 4] {
        [self.rows_in, self.rows_out, self.batches, self.hash_entries]
    }
}

/// A per-operator metrics recorder.
///
/// Counters are atomics so one sink can be shared by reference across
/// the thread team an operator's parts run on; a disabled sink (see
/// [`MetricsSink::disabled`]) records nothing and skips its clock
/// reads, so metrics collection can be turned off wholesale via
/// [`ExecOptions::metrics`](crate::ExecOptions::metrics).
#[derive(Debug, Default)]
pub struct MetricsSink {
    disabled: bool,
    batches: AtomicU64,
    hash_entries: AtomicU64,
    build_ns: AtomicU64,
    probe_ns: AtomicU64,
    state_bytes: AtomicU64,
    vectors: AtomicU64,
    selected: AtomicU64,
    kernel_ns: AtomicU64,
    shipped_rows: AtomicU64,
    shipped_bytes: AtomicU64,
}

impl MetricsSink {
    /// A recording sink.
    #[must_use]
    pub fn new() -> MetricsSink {
        MetricsSink::default()
    }

    /// A sink that records nothing (every method is a no-op).
    #[must_use]
    pub fn disabled() -> MetricsSink {
        MetricsSink {
            disabled: true,
            ..MetricsSink::default()
        }
    }

    /// Whether this sink records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        !self.disabled
    }

    /// Count `n` processed input batches.
    pub fn add_batches(&self, n: u64) {
        if !self.disabled {
            self.batches.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Count `n` hash-table entries built.
    pub fn add_hash_entries(&self, n: u64) {
        if !self.disabled {
            self.hash_entries.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Count `bytes` of operator state charged against the guard.
    pub fn add_state_bytes(&self, bytes: u64) {
        if !self.disabled {
            self.state_bytes.fetch_add(bytes, Ordering::Relaxed);
        }
    }

    /// Count `n` columnar vectors built by the vectorized kernels.
    pub fn add_vectors(&self, n: u64) {
        if !self.disabled {
            self.vectors.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Count `n` rows that passed a vectorized selection.
    pub fn add_selected(&self, n: u64) {
        if !self.disabled {
            self.selected.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Record elapsed vectorized-kernel time since `started`.
    pub fn record_kernel(&self, started: Option<Instant>) {
        if let Some(t) = started {
            self.kernel_ns.fetch_add(elapsed_ns(t), Ordering::Relaxed);
        }
    }

    /// Count rows (and their wire bytes) shipped across a shard
    /// boundary by an exchange or gather.
    pub fn add_shipped(&self, rows: u64, bytes: u64) {
        if !self.disabled {
            self.shipped_rows.fetch_add(rows, Ordering::Relaxed);
            self.shipped_bytes.fetch_add(bytes, Ordering::Relaxed);
        }
    }

    /// Start a phase timer (`None` when the sink is disabled, so a
    /// disabled sink costs no clock reads).
    #[must_use]
    pub fn start_timer(&self) -> Option<Instant> {
        if self.disabled {
            None
        } else {
            Some(Instant::now())
        }
    }

    /// Record elapsed build time (state construction) since `started`.
    pub fn record_build(&self, started: Option<Instant>) {
        if let Some(t) = started {
            self.build_ns.fetch_add(elapsed_ns(t), Ordering::Relaxed);
        }
    }

    /// Record elapsed probe time (output production) since `started`.
    pub fn record_probe(&self, started: Option<Instant>) {
        if let Some(t) = started {
            self.probe_ns.fetch_add(elapsed_ns(t), Ordering::Relaxed);
        }
    }

    /// Snapshot the sink into an [`OperatorMetrics`] with the given
    /// cardinalities.
    #[must_use]
    pub fn finish(&self, rows_in: usize, rows_out: usize) -> OperatorMetrics {
        OperatorMetrics {
            rows_in: rows_in as u64,
            rows_out: rows_out as u64,
            batches: self.batches.load(Ordering::Relaxed),
            hash_entries: self.hash_entries.load(Ordering::Relaxed),
            build_ns: self.build_ns.load(Ordering::Relaxed),
            probe_ns: self.probe_ns.load(Ordering::Relaxed),
            state_bytes: self.state_bytes.load(Ordering::Relaxed),
            vectors: self.vectors.load(Ordering::Relaxed),
            selected: self.selected.load(Ordering::Relaxed),
            kernel_ns: self.kernel_ns.load(Ordering::Relaxed),
            shipped_rows: self.shipped_rows.load(Ordering::Relaxed),
            shipped_bytes: self.shipped_bytes.load(Ordering::Relaxed),
        }
    }
}

fn elapsed_ns(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let sink = MetricsSink::new();
        sink.add_batches(2);
        sink.add_batches(1);
        sink.add_hash_entries(5);
        sink.add_state_bytes(128);
        let m = sink.finish(10, 7);
        assert_eq!(m.rows_in, 10);
        assert_eq!(m.rows_out, 7);
        assert_eq!(m.batches, 3);
        assert_eq!(m.hash_entries, 5);
        assert_eq!(m.state_bytes, 128);
        assert_eq!(m.fingerprint(), [10, 7, 3, 5]);
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let sink = MetricsSink::disabled();
        assert!(!sink.is_enabled());
        assert!(sink.start_timer().is_none());
        sink.add_batches(3);
        sink.add_hash_entries(9);
        sink.add_state_bytes(64);
        sink.add_vectors(2);
        sink.add_selected(5);
        sink.record_kernel(sink.start_timer());
        let m = sink.finish(1, 1);
        assert_eq!(m.batches, 0);
        assert_eq!(m.hash_entries, 0);
        assert_eq!(m.state_bytes, 0);
        assert_eq!(m.vectors, 0);
        assert_eq!(m.selected, 0);
        assert_eq!(m.kernel_ns, 0);
    }

    #[test]
    fn vectorized_counters_accumulate_but_stay_out_of_the_fingerprint() {
        let sink = MetricsSink::new();
        sink.add_vectors(3);
        sink.add_selected(40);
        sink.record_kernel(sink.start_timer());
        let m = sink.finish(100, 40);
        assert_eq!(m.vectors, 3);
        assert_eq!(m.selected, 40);
        // The fingerprint stays comparable between the row and the
        // vectorized path (and across thread counts).
        assert_eq!(m.fingerprint(), [100, 40, 0, 0]);
    }

    #[test]
    fn shipped_counters_accumulate_but_stay_out_of_the_fingerprint() {
        let sink = MetricsSink::new();
        sink.add_shipped(10, 800);
        sink.add_shipped(5, 400);
        let m = sink.finish(100, 100);
        assert_eq!(m.shipped_rows, 15);
        assert_eq!(m.shipped_bytes, 1200);
        // Shipped traffic depends on the shard count, so the
        // shard-count-invariant fingerprint must not see it.
        assert_eq!(m.fingerprint(), [100, 100, 0, 0]);

        let off = MetricsSink::disabled();
        off.add_shipped(3, 99);
        assert_eq!(off.finish(0, 0).shipped_rows, 0);
    }

    #[test]
    fn timers_record_elapsed_time() {
        let sink = MetricsSink::new();
        let t = sink.start_timer();
        assert!(t.is_some());
        std::thread::sleep(std::time::Duration::from_millis(1));
        sink.record_build(t);
        let t = sink.start_timer();
        sink.record_probe(t);
        let m = sink.finish(0, 0);
        assert!(m.build_ns > 0);
        // Timings never count toward the deterministic fingerprint.
        assert_eq!(m.fingerprint(), [0, 0, 0, 0]);
    }
}
