//! Deterministic, seed-driven fault injection for the read path.
//!
//! A [`FaultInjector`] installed on a [`Storage`](crate::Storage) makes
//! table scans misbehave in controlled, reproducible ways:
//!
//! * **fail the Nth batch** — the Nth `next_batch` call across all
//!   scans of the query returns `Error::Execution`, exercising error
//!   propagation through every operator;
//! * **short batches** — scans deliver tiny batches instead of the
//!   default, exercising the executor's batch loop (results must be
//!   byte-identical to unfaulted runs);
//! * **NULL injection** — nullable cells are flipped to SQL NULL with
//!   probability `1/k`, exercising three-valued logic everywhere.
//!
//! Determinism across plan shapes is the load-bearing design point:
//! NULL flips are keyed by `hash(seed, table, row_id, column)` — *not*
//! by a call counter — so the eager (`E2`) and lazy (`E1`) plans of the
//! same query observe **identical** data no matter how many times or in
//! what order they scan each table. That is what makes the differential
//! test (`tests/fault_injection.rs`) sound. Batch failures, by
//! contrast, use a global counter (`fail_nth_batch`), which is why the
//! differential oracle only asserts "both plans fail or both agree".

use std::sync::atomic::{AtomicU64, Ordering};

/// What to inject. The default injects nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultConfig {
    /// Seed for all randomized decisions (NULL flips).
    pub seed: u64,
    /// Fail the batch with this 0-based global ordinal (counted across
    /// all scans served since construction or [`FaultInjector::reset`]).
    pub fail_nth_batch: Option<u64>,
    /// Override the scan batch size (clamped to at least 1).
    pub batch_size: Option<usize>,
    /// Flip roughly one in this many nullable cells to NULL.
    /// `Some(1)` flips every nullable cell.
    pub null_flip_one_in: Option<u64>,
}

/// Injection state: the configuration plus observation counters.
///
/// Counters are atomics so the injector can be driven through the
/// shared `&Storage` the executor holds — including from the parallel
/// operators' worker threads and from concurrent snapshot readers in
/// the serving layer (`Storage` must stay `Sync`).
#[derive(Debug, Default)]
pub struct FaultInjector {
    config: FaultConfig,
    batches_served: AtomicU64,
    nulls_injected: AtomicU64,
    failures_injected: AtomicU64,
}

impl Clone for FaultInjector {
    fn clone(&self) -> FaultInjector {
        FaultInjector {
            config: self.config,
            batches_served: AtomicU64::new(self.batches_served()),
            nulls_injected: AtomicU64::new(self.nulls_injected()),
            failures_injected: AtomicU64::new(self.failures_injected()),
        }
    }
}

/// SplitMix64 finalizer: a cheap, well-mixed 64-bit hash step.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a case-normalised table name.
fn table_hash(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b.to_ascii_lowercase());
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

impl FaultInjector {
    /// An injector with the given configuration and zeroed counters.
    #[must_use]
    pub fn new(config: FaultConfig) -> FaultInjector {
        FaultInjector {
            config,
            ..FaultInjector::default()
        }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> FaultConfig {
        self.config
    }

    /// Zero all counters (so a second run — e.g. the other plan shape
    /// in a differential test — sees the same global batch ordinals).
    pub fn reset(&self) {
        self.batches_served.store(0, Ordering::Relaxed);
        self.nulls_injected.store(0, Ordering::Relaxed);
        self.failures_injected.store(0, Ordering::Relaxed);
    }

    /// Batches served (successfully or not) since the last reset.
    #[must_use]
    pub fn batches_served(&self) -> u64 {
        self.batches_served.load(Ordering::Relaxed)
    }

    /// NULLs injected since the last reset.
    #[must_use]
    pub fn nulls_injected(&self) -> u64 {
        self.nulls_injected.load(Ordering::Relaxed)
    }

    /// Batch failures injected since the last reset.
    #[must_use]
    pub fn failures_injected(&self) -> u64 {
        self.failures_injected.load(Ordering::Relaxed)
    }

    /// The batch size scans should use, if overridden.
    #[must_use]
    pub fn batch_size(&self) -> Option<usize> {
        self.config.batch_size.map(|b| b.max(1))
    }

    /// Claim the next global batch ordinal and decide whether it fails.
    /// Called once per served batch.
    pub(crate) fn claim_batch(&self) -> Result<u64, u64> {
        let ordinal = self.batches_served.fetch_add(1, Ordering::Relaxed);
        if self.config.fail_nth_batch == Some(ordinal) {
            self.failures_injected.fetch_add(1, Ordering::Relaxed);
            return Err(ordinal);
        }
        Ok(ordinal)
    }

    /// Whether the cell `(table, row_id, column)` should read as NULL,
    /// counting it in `nulls_injected` if so. Pure in `(seed, table,
    /// row_id, column)` — independent of call order, so every plan
    /// shape sees the same data. The scan cursor asks once per served
    /// cell, in the one place both of its forms share.
    pub(crate) fn flips_to_null(&self, table: &str, row_id: u64, column: usize) -> bool {
        let Some(k) = self.config.null_flip_one_in else {
            return false;
        };
        let h = mix(self.config.seed
            ^ mix(table_hash(table))
            ^ mix(row_id)
            ^ mix(0x0c01 ^ ((column as u64) << 16)));
        let flips = h.is_multiple_of(k.max(1));
        if flips {
            self.nulls_injected.fetch_add(1, Ordering::Relaxed);
        }
        flips
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claim_batch_fails_exactly_the_nth() {
        let inj = FaultInjector::new(FaultConfig {
            fail_nth_batch: Some(2),
            ..FaultConfig::default()
        });
        assert_eq!(inj.claim_batch(), Ok(0));
        assert_eq!(inj.claim_batch(), Ok(1));
        assert_eq!(inj.claim_batch(), Err(2));
        assert_eq!(inj.claim_batch(), Ok(3));
        assert_eq!(inj.failures_injected(), 1);
        inj.reset();
        assert_eq!(inj.claim_batch(), Ok(0));
        assert_eq!(inj.failures_injected(), 0);
    }

    #[test]
    fn null_flips_are_deterministic_and_order_independent() {
        let inj = FaultInjector::new(FaultConfig {
            seed: 99,
            null_flip_one_in: Some(3),
            ..FaultConfig::default()
        });
        let forward: Vec<bool> = (0..100).map(|r| inj.flips_to_null("Fact", r, 1)).collect();
        let backward: Vec<bool> = (0..100)
            .rev()
            .map(|r| inj.flips_to_null("Fact", r, 1))
            .rev()
            .collect();
        assert_eq!(forward, backward);
        assert!(forward.iter().any(|&b| b), "1-in-3 should hit in 100 rows");
        assert!(!forward.iter().all(|&b| b), "1-in-3 should also miss");
        // Case-insensitive table naming (catalog lookups are).
        assert_eq!(
            (0..50)
                .map(|r| inj.flips_to_null("FACT", r, 0))
                .collect::<Vec<_>>(),
            (0..50)
                .map(|r| inj.flips_to_null("fact", r, 0))
                .collect::<Vec<_>>(),
        );
    }

    #[test]
    fn different_seeds_flip_different_cells() {
        let a = FaultInjector::new(FaultConfig {
            seed: 1,
            null_flip_one_in: Some(2),
            ..FaultConfig::default()
        });
        let b = FaultInjector::new(FaultConfig {
            seed: 2,
            null_flip_one_in: Some(2),
            ..FaultConfig::default()
        });
        let fa: Vec<bool> = (0..200).map(|r| a.flips_to_null("T", r, 0)).collect();
        let fb: Vec<bool> = (0..200).map(|r| b.flips_to_null("T", r, 0)).collect();
        assert_ne!(fa, fb);
    }

    #[test]
    fn one_in_one_flips_everything() {
        let inj = FaultInjector::new(FaultConfig {
            null_flip_one_in: Some(1),
            ..FaultConfig::default()
        });
        assert!((0..50).all(|r| inj.flips_to_null("T", r, 3)));
    }
}
