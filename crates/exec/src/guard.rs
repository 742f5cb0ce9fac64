//! Resource governance for query execution.
//!
//! A [`ResourceGuard`] is created per [`Executor::execute`] call from
//! the [`ResourceLimits`] in [`ExecOptions`] and threaded by reference
//! through every operator. Operators charge produced rows and operator
//! state (hash/sort tables) against it and poll it cooperatively inside
//! their loops — the row engine once per row ([`ResourceGuard::tick`]),
//! the chunk pipeline once per chunk of at most 1 024 rows
//! ([`ResourceGuard::tick_rows`]: the same counter, one atomic per
//! chunk) — so a query that exceeds its row, memory, or wall-clock
//! budget aborts promptly with [`Error::ResourceExhausted`] instead of
//! running away.
//!
//! The counters are atomics, so one guard is shared by every member of
//! the thread team the pipeline's parts run on (see
//! [`crate::parallel`]): the row/memory/time budgets are **global per
//! query**, not per thread, and the first member to cross a limit
//! surfaces the typed error while the others drain cooperatively.
//!
//! [`Executor::execute`]: crate::Executor::execute
//! [`ExecOptions`]: crate::ExecOptions
//! [`Error::ResourceExhausted`]: gbj_types::Error::ResourceExhausted

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gbj_types::{Error, ResourceKind, Result, Value};

/// A shared, clonable cancellation flag.
///
/// The session layer hands one clone to the client (or a chaos thread)
/// and attaches another to the query's [`ResourceGuard`] via
/// [`ResourceGuard::with_cancellation`]; every cooperative poll site in
/// the operators then surfaces [`Error::Cancelled`] promptly. Cancelling
/// is idempotent and the flag is sticky — once set it stays set.
#[derive(Debug, Clone, Default)]
pub struct CancellationToken {
    flag: Arc<AtomicBool>,
}

impl CancellationToken {
    /// A fresh, uncancelled token.
    #[must_use]
    pub fn new() -> CancellationToken {
        CancellationToken::default()
    }

    /// Request cancellation. All clones observe it.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// How often (in cooperative ticks) the wall clock is polled. Reading
/// `Instant::now` per row would dominate tight loops; every 256 rows is
/// prompt enough for cancellation and cheap enough to leave on.
const TICKS_PER_CLOCK_POLL: u64 = 256;

/// Optional execution budgets. `None` in every field (the default)
/// means unlimited — the guard then never fires.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResourceLimits {
    /// Maximum total rows produced across all operators in one query.
    pub max_rows: Option<u64>,
    /// Maximum estimated bytes held in operator state (hash-join build
    /// tables, aggregation tables, sort buffers) at any one time.
    pub max_memory_bytes: Option<u64>,
    /// Maximum wall-clock execution time.
    pub time_budget: Option<Duration>,
}

impl ResourceLimits {
    /// True when no budget is configured at all.
    #[must_use]
    pub fn is_unlimited(&self) -> bool {
        self.max_rows.is_none() && self.max_memory_bytes.is_none() && self.time_budget.is_none()
    }
}

/// Per-query enforcement state for [`ResourceLimits`].
///
/// Atomic counters keep the guard shareable by `&` reference both down
/// the recursive operator tree and across the thread team under the
/// pipeline's parts (`ResourceGuard` is `Sync`).
#[derive(Debug)]
pub struct ResourceGuard {
    limits: ResourceLimits,
    /// Absolute wall-clock deadline, as a duration from `started`.
    /// Unlike `limits.time_budget` (a per-query execution budget that
    /// raises `ResourceExhausted`), an expired deadline raises the
    /// session-level [`Error::DeadlineExceeded`].
    deadline: Option<Duration>,
    cancel: Option<CancellationToken>,
    rows: AtomicU64,
    memory: AtomicU64,
    peak_memory: AtomicU64,
    ticks: AtomicU64,
    started: Instant,
}

impl ResourceGuard {
    /// A guard enforcing `limits`, with the clock starting now.
    #[must_use]
    pub fn new(limits: ResourceLimits) -> ResourceGuard {
        ResourceGuard {
            limits,
            deadline: None,
            cancel: None,
            rows: AtomicU64::new(0),
            memory: AtomicU64::new(0),
            peak_memory: AtomicU64::new(0),
            ticks: AtomicU64::new(0),
            started: Instant::now(),
        }
    }

    /// A guard that never fires.
    #[must_use]
    pub fn unlimited() -> ResourceGuard {
        ResourceGuard::new(ResourceLimits::default())
    }

    /// Attach a wall-clock deadline `remaining` from now. A zero (or
    /// already-elapsed) deadline fires deterministically at the first
    /// cooperative poll — it never races the first rows.
    #[must_use]
    pub fn with_deadline(mut self, remaining: Duration) -> ResourceGuard {
        self.deadline = Some(remaining);
        self
    }

    /// Attach a cancellation token checked at every cooperative poll.
    #[must_use]
    pub fn with_cancellation(mut self, token: CancellationToken) -> ResourceGuard {
        self.cancel = Some(token);
        self
    }

    /// The deadline attached via [`ResourceGuard::with_deadline`].
    #[must_use]
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// Whether an attached token has requested cancellation.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(CancellationToken::is_cancelled)
    }

    /// Wall-clock time since the guard was created, in milliseconds.
    #[must_use]
    pub fn elapsed_ms(&self) -> u64 {
        self.started.elapsed().as_millis().min(u128::from(u64::MAX)) as u64
    }

    /// Surface [`Error::Cancelled`] if the attached token fired. A bare
    /// atomic load — cheap enough for every tick.
    fn check_cancelled(&self) -> Result<()> {
        if self.is_cancelled() {
            return Err(Error::Cancelled);
        }
        Ok(())
    }

    /// Whether any wall-clock condition needs `Instant::now` polling.
    fn needs_clock(&self) -> bool {
        self.limits.time_budget.is_some() || self.deadline.is_some()
    }

    /// Total rows charged so far.
    #[must_use]
    pub fn rows_used(&self) -> u64 {
        self.rows.load(Ordering::Relaxed)
    }

    /// Estimated operator-state bytes currently held.
    #[must_use]
    pub fn memory_used(&self) -> u64 {
        self.memory.load(Ordering::Relaxed)
    }

    /// The memory high-water mark: the largest operator-state footprint
    /// held at any one time during this query (the number a spilling
    /// policy would key off). Never decreases on `release_memory`.
    #[must_use]
    pub fn peak_memory(&self) -> u64 {
        self.peak_memory.load(Ordering::Relaxed)
    }

    /// Charge `n` produced rows against the row budget (also polls the
    /// deadline so row-producing loops stay cancellable).
    pub fn charge_rows(&self, n: usize) -> Result<()> {
        let before = self.rows.fetch_add(n as u64, Ordering::Relaxed);
        if let Some(limit) = self.limits.max_rows {
            let used = before.saturating_add(n as u64);
            if used > limit {
                return Err(Error::ResourceExhausted {
                    kind: ResourceKind::Rows,
                    limit,
                    used,
                });
            }
        }
        self.check_deadline()
    }

    /// Reserve `bytes` of operator state against the memory budget.
    pub fn charge_memory(&self, bytes: u64) -> Result<()> {
        self.check_cancelled()?;
        let before = self.memory.fetch_add(bytes, Ordering::Relaxed);
        self.peak_memory
            .fetch_max(before.saturating_add(bytes), Ordering::Relaxed);
        if let Some(limit) = self.limits.max_memory_bytes {
            let used = before.saturating_add(bytes);
            if used > limit {
                return Err(Error::ResourceExhausted {
                    kind: ResourceKind::Memory,
                    limit,
                    used,
                });
            }
        }
        Ok(())
    }

    /// Return `bytes` of operator state (an operator finished and
    /// dropped its table/buffer).
    pub fn release_memory(&self, bytes: u64) {
        // Saturating decrement: release must never underflow even if an
        // operator double-releases after an error path.
        let mut cur = self.memory.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(bytes);
            match self
                .memory
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Cooperative cancellation point for row-at-a-time loops: one tick.
    /// See [`ResourceGuard::tick_rows`].
    pub fn tick(&self) -> Result<()> {
        self.tick_rows(1)
    }

    /// Cooperative cancellation point covering `n` rows of work at
    /// once — what a chunk loop calls once per chunk where a row loop
    /// calls [`ResourceGuard::tick`] once per row: a cancellation check
    /// plus one addition to the shared tick counter, with the wall
    /// clock polled when the addition contains the **first** tick (so
    /// zero/near-zero budgets fail before any work, deterministically)
    /// or crosses a [`TICKS_PER_CLOCK_POLL`] boundary. The counter ends
    /// where `n` single ticks would leave it; `n = 0` still polls
    /// cancellation.
    pub fn tick_rows(&self, n: usize) -> Result<()> {
        self.check_cancelled()?;
        let before = self.ticks.fetch_add(n as u64, Ordering::Relaxed);
        if self.needs_clock() && covers_clock_poll(before, n as u64) {
            return self.check_deadline_now();
        }
        Ok(())
    }

    /// Cooperative ticks counted so far, by [`ResourceGuard::tick`] and
    /// [`ResourceGuard::tick_rows`] alike.
    #[must_use]
    pub fn ticks(&self) -> u64 {
        self.ticks.load(Ordering::Relaxed)
    }

    /// Poll cancellation and the wall-clock conditions (no-op beyond
    /// the cancellation load when neither a time budget nor a deadline
    /// is set).
    pub fn check_deadline(&self) -> Result<()> {
        self.check_cancelled()?;
        if !self.needs_clock() {
            return Ok(());
        }
        self.check_deadline_now()
    }

    fn check_deadline_now(&self) -> Result<()> {
        self.check_cancelled()?;
        let to_ms = |d: Duration| d.as_millis().min(u128::from(u64::MAX)) as u64;
        // Deadline first: when both are configured and expired, the
        // session-level deadline is the more meaningful outcome.
        if let Some(deadline) = self.deadline {
            let elapsed = self.started.elapsed();
            // `is_zero` makes a zero deadline fire even when `elapsed`
            // is still zero on a coarse clock (determinism, not a race
            // with the first rows).
            if deadline.is_zero() || elapsed > deadline {
                return Err(Error::DeadlineExceeded {
                    budget_ms: to_ms(deadline),
                    elapsed_ms: to_ms(elapsed),
                });
            }
        }
        if let Some(budget) = self.limits.time_budget {
            let elapsed = self.started.elapsed();
            if budget.is_zero() || elapsed > budget {
                return Err(Error::ResourceExhausted {
                    kind: ResourceKind::Time,
                    limit: to_ms(budget),
                    used: to_ms(elapsed),
                });
            }
        }
        Ok(())
    }
}

/// Whether the ticks `before + 1 ..= before + n` include one on which
/// the clock is polled: the first tick of all, or a multiple of
/// [`TICKS_PER_CLOCK_POLL`].
fn covers_clock_poll(before: u64, n: u64) -> bool {
    let after = before.wrapping_add(n);
    (before == 0 && n > 0) || before / TICKS_PER_CLOCK_POLL != after / TICKS_PER_CLOCK_POLL
}

/// Rough heap footprint of one row, for memory budgeting. This is an
/// estimate (enum discriminants, `Vec` headers and string heap bytes),
/// not an allocator measurement — budgets should be read as orders of
/// magnitude, not exact byte counts.
#[must_use]
pub fn row_bytes(row: &[Value]) -> u64 {
    let base = (std::mem::size_of::<Vec<Value>>() + std::mem::size_of_val(row)) as u64;
    let heap: u64 = row
        .iter()
        .map(|v| match v {
            Value::Str(s) => s.len() as u64,
            _ => 0,
        })
        .sum();
    base + heap
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_fires() {
        let g = ResourceGuard::unlimited();
        for _ in 0..10_000 {
            g.tick().unwrap();
        }
        g.charge_rows(1_000_000).unwrap();
        g.charge_memory(u64::MAX / 2).unwrap();
        g.check_deadline().unwrap();
    }

    #[test]
    fn row_budget_fires_with_counts() {
        let g = ResourceGuard::new(ResourceLimits {
            max_rows: Some(10),
            ..ResourceLimits::default()
        });
        g.charge_rows(10).unwrap();
        let err = g.charge_rows(5).unwrap_err();
        match err {
            Error::ResourceExhausted { kind, limit, used } => {
                assert_eq!(kind, ResourceKind::Rows);
                assert_eq!(limit, 10);
                assert_eq!(used, 15);
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn memory_budget_fires_and_releases() {
        let g = ResourceGuard::new(ResourceLimits {
            max_memory_bytes: Some(1_000),
            ..ResourceLimits::default()
        });
        g.charge_memory(900).unwrap();
        g.release_memory(900);
        g.charge_memory(999).unwrap();
        let err = g.charge_memory(2).unwrap_err();
        assert_eq!(err.kind(), "resource");
        assert_eq!(err.message(), "memory budget exceeded");
    }

    #[test]
    fn release_never_underflows() {
        let g = ResourceGuard::unlimited();
        g.charge_memory(10).unwrap();
        g.release_memory(100);
        assert_eq!(g.memory_used(), 0);
    }

    #[test]
    fn peak_memory_is_a_high_water_mark() {
        let g = ResourceGuard::unlimited();
        assert_eq!(g.peak_memory(), 0);
        g.charge_memory(100).unwrap();
        g.charge_memory(50).unwrap();
        g.release_memory(150);
        assert_eq!(g.memory_used(), 0);
        assert_eq!(g.peak_memory(), 150, "peak survives release");
        g.charge_memory(40).unwrap();
        assert_eq!(g.peak_memory(), 150, "smaller refill keeps the peak");
    }

    #[test]
    fn zero_time_budget_fires_deterministically() {
        // No sleep: a zero budget must fail on the very first poll even
        // when the clock has not visibly advanced yet.
        let g = ResourceGuard::new(ResourceLimits {
            time_budget: Some(Duration::ZERO),
            ..ResourceLimits::default()
        });
        let err = g.check_deadline().unwrap_err();
        assert!(matches!(
            err,
            Error::ResourceExhausted {
                kind: ResourceKind::Time,
                ..
            }
        ));
        // The FIRST tick (not the 256th) already polls the clock, so a
        // zero budget cannot race the first morsel.
        let g = ResourceGuard::new(ResourceLimits {
            time_budget: Some(Duration::ZERO),
            ..ResourceLimits::default()
        });
        assert!(g.tick().is_err(), "first tick must fire a zero budget");
    }

    /// One `tick_rows(n)` stands for `n` ticks: the counter ends where
    /// they would leave it, and the clock is polled iff one of them
    /// would have polled it.
    #[test]
    fn tick_rows_totals_and_clock_polls_equal_per_row_ticks() {
        let (by_row, by_chunk) = (ResourceGuard::unlimited(), ResourceGuard::unlimited());
        for n in [0usize, 1, 7, 255, 256, 257, 1024, 3] {
            (0..n).for_each(|_| by_row.tick().unwrap());
            by_chunk.tick_rows(n).unwrap();
            assert_eq!(by_chunk.ticks(), by_row.ticks(), "after {n} more");
        }
        for before in (0..600).chain([1023, 1024, 1025]) {
            for n in [0u64, 1, 2, 100, 255, 256, 257, 1024] {
                let per_row = (before + 1..=before + n)
                    .any(|t| t == 1 || t.is_multiple_of(TICKS_PER_CLOCK_POLL));
                assert_eq!(covers_clock_poll(before, n), per_row, "{before} + {n}");
            }
        }
    }

    /// The first `tick_rows` — of any size — fails a zero budget and a
    /// zero deadline with the variants `tick` fails them with; an empty
    /// one polls no clock but still sees a cancellation.
    #[test]
    fn tick_rows_fails_zero_budgets_first_and_polls_cancellation_when_empty() {
        for n in [1usize, 1024] {
            let g = ResourceGuard::new(ResourceLimits {
                time_budget: Some(Duration::ZERO),
                ..ResourceLimits::default()
            });
            assert!(matches!(
                g.tick_rows(n).unwrap_err(),
                Error::ResourceExhausted {
                    kind: ResourceKind::Time,
                    ..
                }
            ));
            let g = ResourceGuard::unlimited().with_deadline(Duration::ZERO);
            assert!(matches!(
                g.tick_rows(n).unwrap_err(),
                Error::DeadlineExceeded { budget_ms: 0, .. }
            ));
        }
        let token = CancellationToken::new();
        let g = ResourceGuard::unlimited()
            .with_deadline(Duration::ZERO)
            .with_cancellation(token.clone());
        g.tick_rows(0).unwrap();
        token.cancel();
        assert_eq!(g.tick_rows(0).unwrap_err(), Error::Cancelled);
    }

    #[test]
    fn zero_deadline_fires_deterministically() {
        let g = ResourceGuard::unlimited().with_deadline(Duration::ZERO);
        let err = g.tick().unwrap_err();
        match err {
            Error::DeadlineExceeded { budget_ms, .. } => assert_eq!(budget_ms, 0),
            other => panic!("unexpected error {other}"),
        }
        // charge_rows reaches the same check.
        let g = ResourceGuard::unlimited().with_deadline(Duration::ZERO);
        assert!(matches!(
            g.charge_rows(1).unwrap_err(),
            Error::DeadlineExceeded { .. }
        ));
    }

    #[test]
    fn expired_deadline_beats_time_budget() {
        // Both configured and both expired: the session-level deadline
        // is reported, not the execution budget.
        let g = ResourceGuard::new(ResourceLimits {
            time_budget: Some(Duration::ZERO),
            ..ResourceLimits::default()
        })
        .with_deadline(Duration::ZERO);
        assert!(matches!(
            g.check_deadline().unwrap_err(),
            Error::DeadlineExceeded { .. }
        ));
    }

    #[test]
    fn cancellation_is_sticky_and_prompt() {
        let token = CancellationToken::new();
        let g = ResourceGuard::unlimited().with_cancellation(token.clone());
        g.tick().unwrap();
        g.charge_rows(10).unwrap();
        assert!(!g.is_cancelled());
        token.cancel();
        token.cancel(); // idempotent
        assert!(g.is_cancelled());
        assert_eq!(g.tick().unwrap_err(), Error::Cancelled);
        assert_eq!(g.charge_rows(1).unwrap_err(), Error::Cancelled);
        assert_eq!(g.charge_memory(1).unwrap_err(), Error::Cancelled);
        assert_eq!(g.check_deadline().unwrap_err(), Error::Cancelled);
        // A clone made after cancellation still observes it.
        assert!(token.clone().is_cancelled());
    }

    #[test]
    fn cancellation_reaches_all_workers() {
        let token = CancellationToken::new();
        let g = ResourceGuard::unlimited().with_cancellation(token.clone());
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    // Spin on the cooperative poll until cancellation
                    // propagates; bounded so a regression fails fast.
                    for _ in 0..5_000_000_u64 {
                        if g.tick().is_err() {
                            return true;
                        }
                        std::hint::spin_loop();
                    }
                    false
                });
            }
            std::thread::sleep(Duration::from_millis(2));
            token.cancel();
        });
        assert!(g.is_cancelled());
    }

    #[test]
    fn peak_memory_monotone_under_concurrent_release() {
        let g = ResourceGuard::unlimited();
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            // A sampler asserts the high-water mark never decreases
            // while workers concurrently charge and release.
            let sampler = s.spawn(|| {
                let mut last = 0;
                while !stop.load(Ordering::Relaxed) {
                    let peak = g.peak_memory();
                    assert!(peak >= last, "peak regressed: {peak} < {last}");
                    last = peak;
                }
                last
            });
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..20_000 {
                        g.charge_memory(64).unwrap();
                        g.release_memory(64);
                    }
                });
            }
            // Give the workers a moment of real overlap with the
            // sampler, then stop it; the scope joins the workers.
            while g.peak_memory() < 64 {
                std::hint::spin_loop();
            }
            std::thread::sleep(Duration::from_millis(2));
            stop.store(true, Ordering::Relaxed);
            let final_peak = sampler.join().unwrap_or(0);
            assert!(final_peak <= g.peak_memory());
        });
        assert_eq!(g.memory_used(), 0, "all charges released");
        assert!(g.peak_memory() >= 64);
        assert!(
            g.peak_memory() <= 4 * 64,
            "peak bounded by the true concurrent maximum"
        );
    }

    #[test]
    fn guard_is_shareable_across_threads() {
        let g = ResourceGuard::new(ResourceLimits {
            max_rows: Some(100_000),
            ..ResourceLimits::default()
        });
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1_000 {
                        g.charge_rows(1).unwrap();
                        g.tick().unwrap();
                    }
                    g.charge_memory(64).unwrap();
                    g.release_memory(64);
                });
            }
        });
        assert_eq!(g.rows_used(), 4_000);
        assert_eq!(g.memory_used(), 0);
    }

    #[test]
    fn row_bytes_counts_string_heap() {
        let short = row_bytes(&[Value::Int(1), Value::Null]);
        let long = row_bytes(&[Value::Int(1), Value::str("x".repeat(100))]);
        assert!(long >= short + 100);
    }
}
