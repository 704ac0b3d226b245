//! Order statistics and on-time accounting.
//!
//! Every percentile the benchmark prints comes from [`tail_percentile`],
//! which refuses a percentile that fewer than [`MIN_BEYOND`] samples lie
//! beyond: with too few samples in the tail, "p99" is one outlier.

/// Samples that must rank above a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// A percentile with the sample counts that back it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile's value.
    pub value: f64,
    /// Samples it was taken over.
    pub samples: usize,
    /// Samples ranked strictly above it.
    pub beyond: usize,
}

/// Nearest-rank percentile `q` (0 < q ≤ 1) of `samples`, or `None` when
/// fewer than [`MIN_BEYOND`] samples rank above it.
pub fn tail_percentile(samples: &[f64], q: f64) -> Option<Percentile> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = nearest_rank(sorted.len(), q)?;
    let beyond = sorted.len() - 1 - rank;
    (beyond >= MIN_BEYOND).then(|| Percentile {
        value: sorted[rank],
        samples: sorted.len(),
        beyond,
    })
}

/// Zero-based index of the nearest-rank `q` percentile of `n` sorted
/// samples: the smallest rank with at least `q·n` samples at or below it.
fn nearest_rank(n: usize, q: f64) -> Option<usize> {
    if n == 0 || !(q > 0.0 && q <= 1.0) {
        return None;
    }
    let rank = (q * n as f64).ceil() as usize;
    Some(rank.clamp(1, n) - 1)
}

/// Median and quartiles of a handful of values (per-window or
/// per-repetition figures), as Python's `statistics.quantiles(n=4)`
/// computes them (the "exclusive" method).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// How many values.
    pub n: usize,
}

impl Quartiles {
    /// Quartiles of `values`; `None` when empty.
    pub fn of(values: &[f64]) -> Option<Quartiles> {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        match n {
            0 => None,
            1 => Some(Quartiles {
                q1: sorted[0],
                median: sorted[0],
                q3: sorted[0],
                n,
            }),
            _ => {
                // Position (n + 1)·p, one-based, linearly interpolated and
                // clamped to the sample range.
                let at = |p: f64| {
                    let pos = ((n + 1) as f64 * p).clamp(1.0, n as f64);
                    let lo = pos.floor() as usize;
                    let frac = pos - lo as f64;
                    let hi = (lo + 1).min(n);
                    sorted[lo - 1] + frac * (sorted[hi - 1] - sorted[lo - 1])
                };
                Some(Quartiles {
                    q1: at(0.25),
                    median: at(0.5),
                    q3: at(0.75),
                    n,
                })
            }
        }
    }
}

/// Whether a frame is on time: classified within `limit_ms` of its due
/// time. A frame that was never classified — shed, or lost — is a miss.
pub fn on_time(latency_ms: Option<f64>, limit_ms: f64) -> bool {
    latency_ms.is_some_and(|l| l <= limit_ms)
}

/// Splits `(key, value)` samples, in key order, into as many
/// consecutive, near-equal chunks of at least `chunk` samples as fit
/// (one chunk when there are fewer), and applies `stat` to each chunk's
/// values. Reporting the
/// median over chunks keeps one burst of host noise from moving a
/// run's figure.
pub fn per_chunk<T>(samples: &[(u64, f64)], chunk: usize, stat: impl Fn(&[f64]) -> T) -> Vec<T> {
    let mut sorted = samples.to_vec();
    sorted.sort_by_key(|&(key, _)| key);
    let values: Vec<f64> = sorted.into_iter().map(|(_, v)| v).collect();
    let chunks = (values.len() / chunk.max(1)).max(1);
    (0..chunks)
        .map(|i| {
            let from = i * values.len() / chunks;
            let to = (i + 1) * values.len() / chunks;
            stat(&values[from..to])
        })
        .collect()
}

/// Arithmetic mean (0 for no values).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank ceil(990) - 1 = 989 leaves 10 above.
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p = tail_percentile(&samples, 0.99).expect("1000 samples support p99");
        assert_eq!(p.value, 990.0);
        assert_eq!(p.beyond, 10);
        assert_eq!(p.samples, 1000);
        // 999 samples leave only 9 above p99.
        assert_eq!(tail_percentile(&samples[..999], 0.99), None);
        // The median of a small sample is fine.
        let p50 = tail_percentile(&samples[..21], 0.5).expect("21 samples support p50");
        assert_eq!(p50.value, 11.0);
        assert_eq!(p50.beyond, 10);
    }

    #[test]
    fn percentile_ignores_input_order_and_rejects_bad_q() {
        let mut samples: Vec<f64> = (0..40).map(|i| f64::from((i * 17) % 40)).collect();
        let p = tail_percentile(&samples, 0.5).expect("40 samples support p50");
        samples.sort_by(f64::total_cmp);
        assert_eq!(p.value, samples[19]);
        assert_eq!(tail_percentile(&samples, 0.0), None);
        assert_eq!(tail_percentile(&samples, 1.5), None);
        assert_eq!(tail_percentile(&[], 0.5), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let q = Quartiles::of(&(1..=10).map(f64::from).collect::<Vec<_>>()).expect("non-empty");
        assert_eq!((q.q1, q.median, q.q3, q.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let q = Quartiles::of(&[3.0, 1.0, 2.0]).expect("non-empty");
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
        assert_eq!(Quartiles::of(&[4.0]).map(|q| q.median), Some(4.0));
        assert_eq!(Quartiles::of(&[]), None);
    }

    #[test]
    fn on_time_counts_unclassified_frames_as_misses() {
        assert!(on_time(Some(10.0), 33.3));
        assert!(on_time(Some(33.3), 33.3));
        assert!(!on_time(Some(40.0), 33.3));
        assert!(!on_time(None, 33.3));
    }

    #[test]
    fn chunks_follow_key_order_and_absorb_the_remainder() {
        // Keys out of order; values equal to keys.
        let samples: Vec<(u64, f64)> = [5u64, 0, 3, 1, 4, 2, 6]
            .iter()
            .map(|&k| (k, k as f64))
            .collect();
        // 7 samples in chunks of at least 3: two chunks, sizes 3 and 4.
        let sums = per_chunk(&samples, 3, |v| v.to_vec());
        assert_eq!(sums, vec![vec![0.0, 1.0, 2.0], vec![3.0, 4.0, 5.0, 6.0]]);
        // Fewer samples than a chunk still make one chunk.
        assert_eq!(per_chunk(&samples, 100, |v| v.len()), vec![7]);
        assert_eq!(per_chunk(&samples, 2, mean), vec![0.5, 2.5, 5.0]);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn a_chunk_of_1100_supports_its_own_p99() {
        let samples: Vec<(u64, f64)> = (0..2300u64).map(|k| (k, (k % 1100) as f64)).collect();
        let p99s = per_chunk(&samples, 1100, |v| tail_percentile(v, 0.99));
        assert_eq!(p99s.len(), 2);
        assert!(p99s
            .iter()
            .all(|p| p.is_some_and(|p| p.beyond >= MIN_BEYOND)));
    }
}
