//! Execution-time statistics.
//!
//! The paper measures plugin running speed with Boost Accumulators and
//! reports 50th/99th-percentile execution times (Fig. 5d). This module is
//! the equivalent instrument, and the only one: [`ExecTimeStats`], an
//! exact count of executions beside a log-linear histogram, sum, minimum
//! and maximum of the ones that were timed. The host's per-plugin stats
//! (exact count, sampled times: one in 16 calls of a plugin is timed),
//! the multi-cell engine's per-worker shards and the figure harnesses all
//! record into it.
//!
//! A histogram, not a streaming quantile estimator, because the numbers
//! that matter here are *merged*: a fleet report folds one tracker per
//! cell × slice into a single p50/p99. Merging histograms is adding bucket
//! counts — exact, associative and commutative, so a merged tracker equals
//! one that recorded every sample itself and workers can keep their own
//! (no cross-thread contention on the hot path) until the join. The price
//! is resolution: a quantile is only known to its bucket, whose width is
//! under 1/16 of its lower bound.

use std::time::Duration;

/// Buckets per power of two. A bucket is narrower than 1/`SUB_BUCKETS` of
/// its lower bound, which bounds a quantile's relative error.
const SUB_BUCKETS: u64 = 16;
const SUB_BITS: u32 = SUB_BUCKETS.trailing_zeros();

/// Histogram bucket of a duration in nanoseconds. Values below
/// `2 * SUB_BUCKETS` get a bucket each; above, every power of two is cut
/// into `SUB_BUCKETS` equal buckets.
fn bucket_of(ns: u64) -> usize {
    let shift = (u64::BITS - 1 - SUB_BITS).saturating_sub(ns.leading_zeros());
    ((u64::from(shift) << SUB_BITS) + (ns >> shift)) as usize
}

/// Smallest and largest nanosecond value of a bucket; inverse of
/// [`bucket_of`].
fn bucket_range(bucket: usize) -> (u64, u64) {
    let bucket = bucket as u64;
    let shift = (bucket >> SUB_BITS).saturating_sub(1);
    let lo = (bucket - (shift << SUB_BITS)) << shift;
    (lo, lo + ((1 << shift) - 1))
}

/// Per-plugin execution-time tracker: an exact count of executions, and
/// the mean, min/max and p50/p99 of the timed ones among them. Durations
/// are kept in whole nanoseconds and reported in microseconds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecTimeStats {
    /// Executions, timed or not.
    count: u64,
    /// Timed executions: the population of the histogram, sum and extremes.
    samples: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
    /// Samples per [`bucket_of`] index, grown to the highest bucket seen:
    /// an idle tracker allocates nothing and a plugin with microsecond
    /// calls 1–2 KB.
    buckets: Vec<u64>,
}

impl Default for ExecTimeStats {
    fn default() -> Self {
        ExecTimeStats {
            count: 0,
            samples: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
            buckets: Vec::new(),
        }
    }
}

impl ExecTimeStats {
    /// Empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one execution that was not timed: counted, not sampled.
    pub fn record_untimed(&mut self) {
        self.count += 1;
    }

    /// Record one timed execution. A duration past `u64::MAX` ns counts as
    /// that.
    pub fn record(&mut self, d: Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        let bucket = bucket_of(ns);
        if bucket >= self.buckets.len() {
            self.buckets.resize(bucket + 1, 0);
        }
        self.buckets[bucket] += 1;
        self.count += 1;
        self.samples += 1;
        self.sum_ns += u128::from(ns);
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Executions recorded, timed or not.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Timed executions: the samples every duration statistic reads.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Mean of the samples, µs (0 when there are none).
    pub fn mean_us(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.samples as f64 / 1e3
        }
    }

    /// Minimum sample, µs (0 when there are none).
    pub fn min_us(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.min_ns as f64 / 1e3
        }
    }

    /// Maximum sample, µs (0 when there are none).
    pub fn max_us(&self) -> f64 {
        self.max_ns as f64 / 1e3
    }

    /// Median sample, µs.
    pub fn p50_us(&self) -> f64 {
        self.quantile_us(0.5)
    }

    /// 99th-percentile sample, µs.
    pub fn p99_us(&self) -> f64 {
        self.quantile_us(0.99)
    }

    /// The `q`-quantile of the samples in µs, 0 when there are none: the
    /// sample of nearest rank `round((samples - 1) * q)`, located to its
    /// bucket and interpolated inside it by its position among the
    /// bucket's samples. The estimate
    /// lies in the same bucket as that sample, so it is off by less than
    /// 1/16 of it; the first and last rank are the exact extremes.
    pub fn quantile_us(&self, q: f64) -> f64 {
        let last = self.samples.saturating_sub(1);
        let rank = (last as f64 * q.clamp(0.0, 1.0)).round() as u64;
        let mut seen = 0;
        for (bucket, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen > rank {
                let ns = if rank == 0 {
                    self.min_ns as f64
                } else if rank == last {
                    self.max_ns as f64
                } else {
                    let (lo, hi) = bucket_range(bucket);
                    let below = (rank - (seen - n)) as f64 + 0.5;
                    (lo as f64 + (hi - lo) as f64 * below / n as f64)
                        .clamp(self.min_ns as f64, self.max_ns as f64)
                };
                return ns / 1e3;
            }
        }
        0.0
    }

    /// Fold another tracker into this one. Exact: the result equals a
    /// tracker that recorded both sides' executions itself, timed and
    /// untimed, in any order.
    pub fn merge(&mut self, other: &ExecTimeStats) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.samples += other.samples;
        self.sum_ns += other.sum_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

/// Depth/drop accounting for one stage of work (the RIC plane's
/// `ServiceReport::ingress`): how many items were accepted, how many were
/// displaced or refused, and the most ever in the stage at once.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueDepthStats {
    /// Items accepted into the queue.
    pub enqueued: u64,
    /// Items displaced or refused by a full queue.
    pub dropped: u64,
    /// High-water mark of the queue depth.
    pub max_depth: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_range_within_resolution() {
        let mut next = 0;
        for bucket in 0..=bucket_of(u64::MAX) {
            let (lo, hi) = bucket_range(bucket);
            assert_eq!(lo, next, "bucket {bucket} leaves a gap or overlaps");
            assert_eq!((bucket_of(lo), bucket_of(hi)), (bucket, bucket));
            assert!((hi - lo) * SUB_BUCKETS <= lo, "bucket {bucket} is too wide");
            next = hi.wrapping_add(1);
        }
        assert_eq!(next, 0, "the last bucket ends at u64::MAX");
    }

    #[test]
    fn counts_do_not_wrap_and_extremes_saturate() {
        let mut s = ExecTimeStats::new();
        for us in 1..=100u64 {
            s.record(Duration::from_micros(us));
        }
        let (p50, p99) = (s.p50_us(), s.p99_us());
        // Doubling 40 times takes every bucket count past u32.
        for _ in 0..40 {
            let same = s.clone();
            s.merge(&same);
        }
        assert_eq!(s.count(), 100 << 40);
        assert!((s.mean_us() - 50.5).abs() < 1e-9);
        assert!((s.p50_us() - p50).abs() <= p50 / 16.0);
        assert!((s.p99_us() - p99).abs() <= p99 / 16.0);

        // Past what nanoseconds in a u64 can hold: counted, clamped, no panic.
        s.record(Duration::MAX);
        assert_eq!(s.count(), (100 << 40) + 1);
        assert_eq!(s.max_us(), u64::MAX as f64 / 1e3);
        assert_eq!(s.quantile_us(1.0), s.max_us());
        assert_eq!(s.min_us(), 1.0);
    }

    #[test]
    fn untimed_executions_are_counted_not_sampled() {
        let mut s = ExecTimeStats::new();
        for _ in 0..15 {
            s.record_untimed();
        }
        assert_eq!((s.count(), s.samples()), (15, 0));
        assert_eq!((s.p50_us(), s.mean_us(), s.min_us()), (0.0, 0.0, 0.0));
        s.record(Duration::from_micros(4));
        assert_eq!((s.count(), s.samples()), (16, 1));
        assert_eq!((s.p50_us(), s.mean_us(), s.min_us()), (4.0, 4.0, 4.0));
    }

    #[test]
    fn exec_time_stats_accumulate() {
        let mut s = ExecTimeStats::new();
        assert_eq!(
            (s.count(), s.mean_us(), s.min_us(), s.max_us()),
            (0, 0.0, 0.0, 0.0)
        );
        assert_eq!((s.p50_us(), s.p99_us()), (0.0, 0.0));
        for i in 1..=100u64 {
            s.record(Duration::from_micros(i));
        }
        assert_eq!(s.count(), 100);
        assert!((s.mean_us() - 50.5).abs() < 0.5);
        assert!((s.min_us() - 1.0).abs() < 0.1);
        assert!((s.max_us() - 100.0).abs() < 0.1);
        assert!(s.p50_us() > 30.0 && s.p50_us() < 70.0);
        assert!(s.p99_us() > 85.0);
    }
}
