//! The thread team under the chunk pipeline's parts.
//!
//! The pipeline ([`crate::pipeline`]) runs each operator body once per
//! part; `run_morsels` is the team those bodies run on: a fixed number
//! of members — the calling thread and `threads − 1` scoped
//! `std::thread` workers — claim indices from a shared atomic counter,
//! one index per part, and the caller reads the results back **in index
//! order** (`collect_in_order`). Nothing else in the executor starts
//! a thread: the row engine is serial, and one part runs inline on the
//! calling thread, so [`ExecOptions::threads`](crate::ExecOptions) is a
//! team size and has no say in what is computed.
//!
//! Error handling: worker panics are caught and surfaced as
//! `Error::Internal`; claims are strictly sequential, so every index
//! below the highest claimed one runs to completion, and scanning the
//! result slots in order always finds the *lowest* erroring index —
//! deterministic first-error selection regardless of scheduling. The
//! shared [`ResourceGuard`](crate::ResourceGuard) is charged from every
//! member, so row/memory/deadline budgets are global per query.
//!
//! `morsel_rows` is what is left of the row engine's own morsel
//! operators: the definition of the `batches` counter a blocking
//! operator reports (`⌈rows / morsel_rows(rows)⌉`, a function of the
//! input size only), kept so every counter fingerprint stays what it
//! was.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use gbj_types::{internal_err, Result};

/// Rows per morsel, as a function of the input size only: small inputs
/// count several morsels, large ones the classic ~1k-row morsel. The
/// divisor of the `batches` counter (see the module docs).
#[must_use]
pub(crate) fn morsel_rows(total: usize) -> usize {
    (total / 8).clamp(16, 1024)
}

/// Panic-free mutex lock: a poisoned mutex means a sibling worker
/// panicked mid-write, which `run_morsels` already converts into a
/// typed error — the data behind the lock is still the best record we
/// have, so recover it instead of propagating the poison.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Run `worker` over morsel indices `0..n_morsels` on a team of at most
/// `threads` members: the calling thread is the first of them — a team
/// of one spawns nothing and runs inline — and the others are scoped
/// worker threads. Returns one result slot per morsel; `None` marks a
/// morsel that was never claimed because an earlier morsel errored
/// (claims are strictly sequential, so unclaimed morsels always form a
/// suffix).
pub(crate) fn run_morsels<T, F>(
    n_morsels: usize,
    threads: usize,
    worker: &F,
) -> Vec<Option<Result<T>>>
where
    T: Send,
    F: Fn(usize) -> Result<T> + Sync,
{
    if n_morsels == 0 {
        return Vec::new();
    }
    let team = threads.min(n_morsels).max(1);
    let slots: Vec<Mutex<Option<Result<T>>>> = (0..n_morsels).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let member = || loop {
        if abort.load(Ordering::Relaxed) {
            return;
        }
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n_morsels {
            return;
        }
        // A worker panic must not tear down the team — or, on the
        // calling thread, the caller: convert it into a typed error in
        // this morsel's slot. All other claimed morsels still run to
        // completion, so the scope's join never deadlocks and never
        // leaks a thread.
        let result = catch_unwind(AssertUnwindSafe(|| worker(i)))
            .unwrap_or_else(|_| Err(internal_err!("parallel worker panicked on morsel {i}")));
        if result.is_err() {
            abort.store(true, Ordering::Relaxed);
        }
        if let Some(slot) = slots.get(i) {
            *lock(slot) = Some(result);
        }
    };
    if team == 1 {
        member();
    } else {
        std::thread::scope(|s| {
            for _ in 1..team {
                s.spawn(member);
            }
            member();
        });
    }
    slots
        .into_iter()
        .map(|m| m.into_inner().unwrap_or_else(PoisonError::into_inner))
        .collect()
}

/// Fold result slots in morsel order: the first `Err` encountered is by
/// construction the lowest-index error (deterministic first-error
/// selection); otherwise all morsels completed and their values are
/// returned in order.
pub(crate) fn collect_in_order<T>(slots: Vec<Option<Result<T>>>) -> Result<Vec<T>> {
    let mut out = Vec::with_capacity(slots.len());
    for (i, slot) in slots.into_iter().enumerate() {
        match slot {
            Some(Ok(v)) => out.push(v),
            Some(Err(e)) => return Err(e),
            None => return Err(internal_err!("morsel {i} unclaimed without a prior error")),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_panic_becomes_internal_error_and_joins_all_threads() {
        let slots = run_morsels(32, 4, &|i| -> Result<usize> {
            if i == 7 {
                // Deliberate panic: run_morsels must catch it.
                #[allow(clippy::panic)]
                {
                    panic!("boom");
                }
            }
            Ok(i)
        });
        let err = collect_in_order(slots).unwrap_err();
        assert_eq!(err.kind(), "internal");
        assert!(err.message().contains("panicked"), "{err}");
    }

    /// Two indices fail; whatever the team size and however the claims
    /// interleave, the error read back is the lower one's.
    #[test]
    fn lowest_index_error_wins_at_every_team_size() {
        for threads in [1usize, 2, 4, 8, 64] {
            for _ in 0..8 {
                let slots = run_morsels(40, threads, &|i| -> Result<usize> {
                    match i {
                        5 | 31 => Err(internal_err!("index {i} failed")),
                        _ => Ok(i),
                    }
                });
                let err = collect_in_order(slots).unwrap_err();
                assert_eq!(err.message(), "index 5 failed", "threads={threads}");
            }
        }
    }

    /// Claims are sequential and stop at the first failure, so what was
    /// never claimed is a suffix: every slot before the failing one holds
    /// a value, and no `None` is followed by a `Some`.
    #[test]
    fn unclaimed_morsels_form_a_suffix_after_an_error() {
        for threads in [1usize, 3, 8] {
            let slots = run_morsels(200, threads, &|i| -> Result<usize> {
                if i == 9 {
                    return Err(internal_err!("index 9 failed"));
                }
                Ok(i)
            });
            assert_eq!(slots.len(), 200);
            let claimed = slots.iter().take_while(|s| s.is_some()).count();
            assert!(claimed > 9, "threads={threads}: the failing index ran");
            assert!(slots.iter().skip(claimed).all(Option::is_none));
            assert!(
                slots.iter().take(9).all(|s| matches!(s, Some(Ok(_)))),
                "threads={threads}: every index below the failure completed"
            );
            if threads == 1 {
                assert_eq!(claimed, 10, "a team of one stops at the failure");
            }
        }
        // All claimed: values come back in index order; none: nothing.
        let all = collect_in_order(run_morsels(17, 4, &|i| Ok(i * 2))).unwrap();
        assert_eq!(all, (0..17).map(|i| i * 2).collect::<Vec<_>>());
        assert!(run_morsels(0, 4, &|i| Ok(i)).is_empty());
    }

    #[test]
    fn morsel_rows_is_thread_independent_and_bounded() {
        assert_eq!(morsel_rows(0), 16);
        assert_eq!(morsel_rows(100), 16);
        assert_eq!(morsel_rows(800), 100);
        assert_eq!(morsel_rows(1_000_000), 1024);
    }
}
