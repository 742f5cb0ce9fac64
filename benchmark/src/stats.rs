//! Percentiles, medians and the quartile spread the benchmark contract
//! uses to decide whether a metric is steady enough to be compared.

/// The `p`-th percentile (`0.0..=100.0`) of `values`, interpolating
/// linearly between the two nearest ranks. `NaN` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let Some(last) = sorted.len().checked_sub(1) else {
        return f64::NAN;
    };
    let rank = (p / 100.0).clamp(0.0, 1.0) * last as f64;
    let lo = rank.floor() as usize;
    let hi = (lo + 1).min(last);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The share of a set of like timings kept as its quiet samples, and the
/// fewest kept however small the set.
pub const QUIET_SHARE: f64 = 0.05;
pub const QUIET_MIN: usize = 3;

/// The quietest twentieth of `values`: the `max(3, ⌈n/20⌉)` smallest, in
/// ascending order. Interference in a shared sandbox only ever adds time,
/// and it comes in episodes of tens of seconds that slow everything by up
/// to a half, so a median over a run says which episodes the run met; the
/// fastest timings of one kind of operation, taken over the whole run, are
/// the ones that measured the program rather than its neighbours.
pub fn quietest(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let keep = ((sorted.len() as f64 * QUIET_SHARE).ceil() as usize).max(QUIET_MIN);
    sorted.truncate(keep);
    sorted
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Operations per second of one client in a closed loop that sends
/// `count` operations of each kind, a kind taking `ms` each: the client
/// waits for every reply, so it completes them in the sum of their
/// latencies.
pub fn closed_loop_rate(kinds: impl Iterator<Item = (usize, f64)>) -> f64 {
    let (ops, busy_ms) = kinds.fold((0, 0.0), |(ops, busy_ms), (count, ms)| {
        (ops + count, busy_ms + count as f64 * ms)
    });
    ops as f64 / busy_ms * 1e3
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles of Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method) — the
/// spread the driver computes over ten runs. `None` below two values or
/// with a zero median.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    let quartile = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    let mid = quartile(2);
    (mid != 0.0).then(|| (quartile(3) - quartile(1)) / mid.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_and_ignore_input_order() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert!((percentile(&v, 90.0) - 4.6).abs() < 1e-12);
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
        assert!(percentile(&[], 50.0).is_nan());
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn quietest_keeps_the_fastest_twentieth_and_at_least_three() {
        let v: Vec<f64> = (1..=80).rev().map(f64::from).collect();
        assert_eq!(quietest(&v), vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(quietest(&[5.0, 1.0, 4.0, 2.0, 3.0]), vec![1.0, 2.0, 3.0]);
        assert_eq!(quietest(&[2.0, 1.0]), vec![1.0, 2.0]);
        assert!(quietest(&[]).is_empty());
        // An episode that slows half the run by 40 % moves no quiet sample.
        let calm: Vec<f64> = (0..100).map(|i| 10.0 + f64::from(i % 7) * 0.01).collect();
        let mut met = calm.clone();
        met.iter_mut().skip(50).for_each(|x| *x *= 1.4);
        assert_eq!(median(&quietest(&calm)), median(&quietest(&met)));
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn closed_loop_rate_is_operations_over_the_sum_of_their_latencies() {
        // Three 10 ms reads and one 70 ms read take the client 100 ms.
        let rate = closed_loop_rate([(3, 10.0), (1, 70.0)].into_iter());
        assert!((rate - 40.0).abs() < 1e-9, "{rate}");
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = quartile_spread(&v).unwrap();
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{s}");
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        let s = quartile_spread(&[40.0, 10.0, 20.0]).unwrap();
        assert!((s - 1.5).abs() < 1e-12, "{s}");
        assert_eq!(quartile_spread(&[1.0]), None);
        assert_eq!(quartile_spread(&[0.0, 0.0, 0.0]), None);
    }
}
