//! Order statistics for benchmark samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default *exclusive* method), because that is what the PR driver uses
//! to judge run-to-run spread: the benchmark's own `agree`/`compare`
//! verdicts then predict the driver's.

/// Sort a sample set ascending (NaNs, which no timer produces, last).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Greater));
    v
}

/// The three quartiles of an ascending slice, computed exactly as
/// `statistics.quantiles(v, n=4)` does (integer positions `i * (len + 1)
/// / 4`, clamped to `1..len-1`, so two-sample sets extrapolate like
/// Python's). A single sample is its own quartiles; `None` when empty.
pub fn quartiles_sorted(v: &[f64]) -> Option<[f64; 3]> {
    let ld = v.len();
    match ld {
        0 => return None,
        1 => return Some([v[0]; 3]),
        _ => {}
    }
    let m = ld as i64 + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1i64..) {
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Quantile `p` in `(0, 1)` of an ascending slice by the same exclusive
/// method generalised: 1-based position `p * (len + 1)`, interpolated,
/// clamped to the extremes. `None` when empty.
pub fn quantile_sorted(v: &[f64], p: f64) -> Option<f64> {
    let (first, last) = (*v.first()?, *v.last()?);
    let pos = p * (v.len() as f64 + 1.0);
    let j = pos.floor();
    if j < 1.0 {
        return Some(first);
    }
    if j as usize >= v.len() {
        return Some(last);
    }
    let j = j as usize;
    Some(v[j - 1] + (pos - j as f64) * (v[j] - v[j - 1]))
}

/// Quantile of an unsorted sample set.
pub fn quantile(v: &[f64], p: f64) -> Option<f64> {
    quantile_sorted(&sorted(v.to_vec()), p)
}

/// Median of an unsorted sample set.
pub fn median(v: &[f64]) -> Option<f64> {
    quartiles_sorted(&sorted(v.to_vec())).map(|q| q[1])
}

/// The highest percentile that still has at least ten samples beyond
/// it, chosen from 90 / 99 / 99.9 / 99.99; `None` under 100 samples
/// (nothing above the quartiles is resolvable).
pub fn tail_percentile(n: usize) -> Option<f64> {
    // Percentiles in hundredths of a percent, so the count beyond each
    // is exact integer arithmetic.
    [9_999u64, 9_990, 9_900, 9_000]
        .into_iter()
        .find(|p| n as u64 * (10_000 - p) >= 10 * 10_000)
        .map(|p| p as f64 / 100.0)
}

/// Summary of one sample set: count, quartiles, and the tail percentile
/// picked by [`tail_percentile`].
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Samples.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// `(percentile, value)` of the highest resolvable tail.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarise `samples`; `None` when empty — an empty timing is an
    /// *uncomputable* metric, which callers turn into an oracle failure.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let v = sorted(samples.to_vec());
        let [q1, median, q3] = quartiles_sorted(&v)?;
        let tail = tail_percentile(v.len()).and_then(|p| {
            // Nearest-rank for the tail: with >= 10 samples beyond it,
            // interpolation would add nothing.
            let idx = ((v.len() as f64) * p / 100.0).ceil() as usize;
            v.get(idx.clamp(1, v.len()) - 1).map(|x| (p, *x))
        });
        Some(Summary {
            n: v.len(),
            q1,
            median,
            q3,
            tail,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        //   -> [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) -> [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4)
        //   -> [15.0, 30.0, 45.0]
        let s = Summary::of(&[50.0, 10.0, 40.0, 20.0, 30.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (15.0, 30.0, 45.0));
    }

    #[test]
    fn median_of_repetitions_is_robust_to_one_stall() {
        // Five repetitions, one hit by a hypervisor stall.
        assert_eq!(median(&[5.0, 5.1, 4.9, 5.05, 9.7]), Some(5.05));
        assert_eq!(median(&[2.0, 4.0]), Some(3.0));
        // statistics.quantiles([2, 4], n=4) -> [1.5, 3.0, 4.5]
        assert_eq!(quartiles_sorted(&[2.0, 4.0]), Some([1.5, 3.0, 4.5]));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn fast_decile_by_hand() {
        // Nine samples: position 0.1 * 10 = 1 -> the smallest.
        let v: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.10), Some(1.0));
        // 19 samples: position 2 -> the second smallest.
        let v: Vec<f64> = (1..=19).rev().map(f64::from).collect();
        assert_eq!(quantile(&v, 0.10), Some(2.0));
        // 14 samples: position 1.5 -> halfway between the two smallest.
        let v: Vec<f64> = (0..14).map(|i| 10.0 + 2.0 * f64::from(i)).collect();
        assert_eq!(quantile(&v, 0.10), Some(11.0));
        // Agrees with the quartile routine at the quartiles.
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.25), Some(2.75));
        assert_eq!(quantile(&v, 0.99), Some(10.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn empty_and_single_sample_sets() {
        assert_eq!(Summary::of(&[]), None);
        let s = Summary::of(&[7.0]).unwrap();
        assert_eq!(
            (s.n, s.q1, s.median, s.q3, s.tail),
            (1, 7.0, 7.0, 7.0, None)
        );
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(Summary::of(&v).unwrap().tail, Some((99.0, 990.0)));
    }
}
