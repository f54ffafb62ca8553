//! Laws of the one latency instrument, against a sort of the samples:
//! merging trackers is exact in any split and order, and a quantile is
//! off by less than one bucket. This is what lets the multi-cell engine
//! keep per-worker and per-slot stats lock-free and merge after the join.

use std::time::Duration;

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use waran_host::ExecTimeStats;

/// Exact pooled quantile by sorting, the ground truth the tracker is
/// compared against.
fn pooled_quantile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx]
}

/// Nanosecond durations spread evenly over magnitudes, 0 ns to 100 s.
fn duration_ns() -> impl Strategy<Value = u64> {
    (0u32..37, any::<u64>()).prop_map(|(bits, raw)| (raw >> (63 - bits)).min(100_000_000_000))
}

proptest! {
    #[test]
    fn merge_in_any_split_and_order_equals_one_tracker(
        samples in proptest::collection::vec((0usize..8, duration_ns()), 0..200),
        trackers in 1usize..=8,
        order in proptest::collection::vec(any::<u64>(), 8),
        cut in 0usize..=8,
    ) {
        let mut single = ExecTimeStats::new();
        let mut parts = vec![ExecTimeStats::new(); trackers];
        for &(part, ns) in &samples {
            let d = Duration::from_nanos(ns);
            single.record(d);
            parts[part % trackers].record(d);
        }

        // Fold the parts in a drawn order, as two groups merged last:
        // commutativity and associativity in one go.
        let mut turn: Vec<usize> = (0..trackers).collect();
        turn.sort_by_key(|&i| order[i]);
        let (first, second) = turn.split_at(cut.min(trackers));
        let mut merged = ExecTimeStats::new();
        let mut rest = ExecTimeStats::new();
        for &i in first {
            merged.merge(&parts[i]);
        }
        for &i in second {
            rest.merge(&parts[i]);
        }
        merged.merge(&rest);

        prop_assert_eq!(&merged, &single);
        prop_assert_eq!(merged.count(), samples.len() as u64);
        prop_assert_eq!(merged.min_us(), single.min_us());
        prop_assert_eq!(merged.max_us(), single.max_us());
        prop_assert_eq!(merged.mean_us(), single.mean_us());
        prop_assert_eq!(merged.p50_us(), single.p50_us());
        prop_assert_eq!(merged.p99_us(), single.p99_us());
    }

    #[test]
    fn quantiles_are_within_a_bucket_of_the_sorted_samples(
        samples in proptest::collection::vec(duration_ns(), 1..300),
    ) {
        let mut stats = ExecTimeStats::new();
        for &ns in &samples {
            stats.record(Duration::from_nanos(ns));
        }
        let us: Vec<f64> = samples.iter().map(|&ns| ns as f64 / 1e3).collect();
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let (est, exact) = (stats.quantile_us(q), pooled_quantile(&us, q));
            prop_assert!(
                (est - exact).abs() <= exact / 16.0,
                "q={q}: estimate {est} vs sorted {exact}"
            );
        }
        prop_assert_eq!(stats.quantile_us(0.0), pooled_quantile(&us, 0.0));
        prop_assert_eq!(stats.quantile_us(1.0), pooled_quantile(&us, 1.0));
        prop_assert_eq!(stats.min_us(), stats.quantile_us(0.0));
        prop_assert_eq!(stats.max_us(), stats.quantile_us(1.0));
    }
}

/// Standard normal (Box–Muller).
fn normal(rng: &mut StdRng) -> f64 {
    let (u, v): (f64, f64) = (rng.gen_range(f64::EPSILON..1.0), rng.gen_range(0.0..1.0));
    (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
}

/// The shape `MultiCellReport::exec` has on the fleet workloads: hundreds
/// of per-slot trackers, a few hundred calls each, every slot with its own
/// typical call time, a rare stall two orders of magnitude out — merged
/// into one p50/p99. Merged P² estimators read this p50 28 % and this p99
/// 37× high, which is why the instrument is a histogram.
#[test]
fn merged_fleet_quantiles_match_the_sorted_samples() {
    let mut rng = StdRng::seed_from_u64(22);
    let mut merged = ExecTimeStats::new();
    let mut all_us = Vec::new();
    for _ in 0..300 {
        let typical_ns = 800.0 * (0.3 * normal(&mut rng)).exp();
        let mut slot = ExecTimeStats::new();
        for _ in 0..200 {
            let stall = if rng.gen_range(0..500) == 0 {
                200.0
            } else {
                1.0
            };
            let ns = (typical_ns * (0.25 * normal(&mut rng)).exp() * stall) as u64;
            slot.record(Duration::from_nanos(ns));
            all_us.push(ns as f64 / 1e3);
        }
        merged.merge(&slot);
    }
    for (q, est) in [(0.5, merged.p50_us()), (0.99, merged.p99_us())] {
        let exact = pooled_quantile(&all_us, q);
        assert!(
            (est - exact).abs() <= 0.04 * exact,
            "merged q={q}: {est} µs vs sorted {exact} µs"
        );
    }
}
