//! Summary statistics over latency samples and completion times.

/// Samples that must lie beyond a percentile before it is reported: with
/// fewer, the value is one or two outliers, not a percentile.
pub const MIN_BEYOND: usize = 10;

/// The `p`-th percentile (nearest rank) of `sorted`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((n as f64 * p).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Median of `values` (mean of the middle two for an even count); 0 when empty.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Mean of `values`; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Throughput as the median over whole `slice_ns` slices of the work done in
/// each, per second. `done` holds `(start, end, units of work)` of every call,
/// in nanoseconds since the clock started; a call that spans slices gives each
/// its share. A median over slices ignores the seconds in which the sandbox's
/// other tenants took the processor; the plain total does not. Falls back to
/// total ÷ wall when the run spans fewer than three slices.
pub fn sliced_rate(done: &[(u64, u64, u64)], wall_ns: u64, slice_ns: u64) -> f64 {
    let whole = (wall_ns / slice_ns) as usize;
    if whole < 3 {
        let total: u64 = done.iter().map(|d| d.2).sum();
        return total as f64 / (wall_ns.max(1) as f64 / 1e9);
    }
    let mut per_slice = vec![0.0f64; whole];
    for &(start, end, units) in done {
        let span = (end.saturating_sub(start)).max(1) as f64;
        for k in (start / slice_ns)..=(end / slice_ns) {
            let Some(slot) = per_slice.get_mut(k as usize) else {
                break;
            };
            let overlap = end
                .min((k + 1) * slice_ns)
                .saturating_sub(start.max(k * slice_ns));
            *slot += units as f64
                * if end > start {
                    overlap as f64 / span
                } else {
                    1.0
                };
        }
    }
    median(&mut per_slice) / (slice_ns as f64 / 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_withheld_without_ten_samples_beyond() {
        let v: Vec<u64> = (1..=1000).collect();
        // p99 of 1000 samples: rank 990, ten samples beyond.
        assert_eq!(percentile(&v, 0.99), Some(990));
        let v: Vec<u64> = (1..=999).collect();
        assert_eq!(percentile(&v, 0.99), None, "nine beyond is not enough");
        assert_eq!(percentile(&v, 0.90), Some(900));
        assert_eq!(percentile(&[], 0.5), None);
        let v: Vec<u64> = (1..=19).collect();
        assert_eq!(percentile(&v, 0.5), None, "p50 of 19 has nine beyond");
        let v: Vec<u64> = (1..=20).collect();
        assert_eq!(percentile(&v, 0.5), Some(10));
    }

    #[test]
    fn sliced_rate_takes_the_median_slice() {
        const S: u64 = 1_000_000_000;
        // 5 slices of 1 s; one slice stalls.
        let mut done = Vec::new();
        for s in 0..5u64 {
            let n = if s == 2 { 10 } else { 100 };
            for k in 0..n {
                done.push((s * S + k, s * S + k + 1, 1));
            }
        }
        assert_eq!(sliced_rate(&done, 5 * S, S), 100.0);
        // Too short to slice: plain total over wall.
        assert_eq!(sliced_rate(&[(0, 1, 50)], S / 2, S), 100.0);
        // A call across a slice boundary gives each slice its share.
        let done = [
            (0, S, 100),
            (S, 2 * S, 100),
            (2 * S - S / 2, 3 * S - S / 2, 100),
            (3 * S, 4 * S, 100),
        ];
        assert_eq!(sliced_rate(&done, 4 * S, S), 100.0);
        assert_eq!(
            sliced_rate(&[(S / 2, 3 * S / 2, 80), (2 * S, 2 * S, 7)], 3 * S, S),
            40.0
        );
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }
}
