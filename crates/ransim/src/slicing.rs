//! Inter-slice scheduling: dividing the carrier's PRBs among slices
//! (MVNOs) each slot.

/// Per-slice state the inter-slice allocation decides on.
#[derive(Debug, Clone, Copy)]
pub struct SliceDemand {
    /// Slice id.
    pub slice_id: u32,
    /// Target cumulative DL rate for the slice, bit/s (`None` = best
    /// effort).
    pub target_bps: Option<f64>,
    /// Bits the slice could transmit this slot if given unlimited PRBs
    /// (sum over backlogged UEs, capped by buffers).
    pub demand_bits: f64,
    /// Mean per-PRB capacity over the slice's backlogged UEs, bits.
    pub mean_prb_bits: f64,
    /// Token-bucket fill: bits of "owed" service under the target rate.
    pub tokens_bits: f64,
}

/// PRBs a targeted slice draws against its token bucket (0 for a
/// best-effort slice or one with no backlogged capacity).
fn want(d: &SliceDemand) -> u32 {
    if d.target_bps.is_none() || d.mean_prb_bits <= 0.0 {
        return 0;
    }
    let want_bits = d.tokens_bits.min(d.demand_bits).max(0.0);
    (want_bits / d.mean_prb_bits).ceil() as u32
}

/// PRBs that would drain a slice's whole backlog.
fn need(d: &SliceDemand) -> u32 {
    (d.demand_bits / d.mean_prb_bits.max(1.0)).ceil() as u32
}

/// A best-effort slice with something to send.
fn hungry_best_effort(d: &SliceDemand) -> bool {
    d.target_bps.is_none() && d.demand_bits > 0.0
}

/// Target-rate allocation: each slice earns tokens at its target rate and
/// spends them on PRBs; spare PRBs go to the best-effort slices in equal
/// shares.
///
/// This is the allocator behind Fig. 5a: with targets 3/12/15 Mb/s each
/// MVNO receives exactly the PRBs needed to track its target (channel
/// permitting) and they co-exist on one carrier.
///
/// Clears `grants` and fills it with one grant per demand (same order as
/// `demands`; the grants sum to at most `total_prbs`). The caller owns the
/// buffer, so a slot allocates nothing here.
pub fn allocate(total_prbs: u32, demands: &[SliceDemand], grants: &mut Vec<u32>) {
    grants.clear();
    grants.resize(demands.len(), 0);
    let mut remaining = total_prbs;

    // Pass 1: targeted slices draw PRBs against their token buckets.
    // When the grid cannot cover everyone's wish, shares scale down
    // proportionally instead of starving later slices.
    let total_want: u64 = demands.iter().map(|d| want(d) as u64).sum();
    let scale = if total_want > total_prbs as u64 {
        total_prbs as f64 / total_want as f64
    } else {
        1.0
    };
    for (grant, d) in grants.iter_mut().zip(demands) {
        if remaining == 0 {
            break;
        }
        let give = ((want(d) as f64 * scale).floor() as u32).min(remaining);
        *grant = give;
        remaining -= give;
    }
    // Rounding leftovers go to still-hungry targeted slices in order.
    if scale < 1.0 {
        for (grant, d) in grants.iter_mut().zip(demands) {
            if remaining == 0 {
                break;
            }
            let extra = want(d).saturating_sub(*grant).min(1).min(remaining);
            *grant += extra;
            remaining -= extra;
        }
    }

    // Pass 2: spare capacity to the hungry best-effort slices in equal
    // shares. The share is the float `(1/n) * pool` floored, not
    // `pool / n`: at n = 49 and pool = 49 it floors to 0 and pass 3 gives
    // the whole pool to the first slice, where integer division would
    // give each slice 1 — a different grant, and different digests.
    let n = demands.iter().filter(|d| hungry_best_effort(d)).count();
    if remaining > 0 && n > 0 {
        let pool = remaining;
        let share = ((1.0 / n as f64) * pool as f64).floor() as u32;
        let best_effort = grants.iter_mut().zip(demands);
        for (grant, d) in best_effort.filter(|(_, d)| hungry_best_effort(d)) {
            let give = share.min(need(d)).min(remaining);
            *grant += give;
            remaining -= give;
        }
        // Pass 3: leftovers to the first best-effort slice that can use
        // them.
        let best_effort = grants.iter_mut().zip(demands);
        for (grant, d) in best_effort.filter(|(_, d)| hungry_best_effort(d)) {
            if remaining == 0 {
                break;
            }
            let extra = need(d).saturating_sub(*grant).min(remaining);
            *grant += extra;
            remaining -= extra;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demand(id: u32, target: Option<f64>, demand_bits: f64, tokens: f64) -> SliceDemand {
        SliceDemand {
            slice_id: id,
            target_bps: target,
            demand_bits,
            mean_prb_bits: 500.0,
            tokens_bits: tokens,
        }
    }

    /// Run [`allocate`] into a buffer left dirty by an earlier, longer
    /// slot: the callee must clear it.
    fn run(total: u32, demands: &[SliceDemand]) -> Vec<u32> {
        let mut out = vec![u32::MAX; demands.len() + 3];
        allocate(total, demands, &mut out);
        out
    }

    #[test]
    fn target_rate_gives_tokens_worth() {
        // Slice owed 5000 bits, 500 bits/PRB -> 10 PRBs.
        let grants = run(52, &[demand(0, Some(5e6), 1e9, 5000.0)]);
        assert_eq!(grants[0], 10);
    }

    #[test]
    fn target_rate_capped_by_demand() {
        // Owed a lot, but only 1000 bits buffered -> 2 PRBs.
        let grants = run(52, &[demand(0, Some(5e6), 1000.0, 1e9)]);
        assert_eq!(grants[0], 2);
    }

    #[test]
    fn target_rate_respects_capacity() {
        let d = demand(0, Some(100e6), 1e9, 1e9);
        let grants = run(52, &[d, d]);
        assert_eq!(grants.iter().sum::<u32>(), 52);
    }

    #[test]
    fn best_effort_gets_leftovers() {
        let targeted = demand(0, Some(1e6), 1e9, 1000.0); // wants 2 PRBs
        let be = demand(1, None, 1e9, 0.0);
        let grants = run(52, &[targeted, be]);
        assert_eq!(grants[0], 2);
        assert_eq!(grants[1], 50);
    }

    #[test]
    fn best_effort_split_keeps_the_float_rounding() {
        // n hungry best-effort slices share a pool of n PRBs. The share is
        // `((1/n) * pool).floor()`: exactly 1 at n = 2 and 3, but
        // 0.999… → 0 at n = 49, so the leftover pass hands all 49 PRBs to
        // the first slice. `pool / n` would give each slice 1.
        for (n, first, rest) in [(2, 1, 1), (3, 1, 1), (49, 49, 0)] {
            let demands: Vec<_> = (0..n).map(|i| demand(i, None, 1e9, 0.0)).collect();
            let grants = run(n, &demands);
            let mut expected = vec![rest; n as usize];
            expected[0] = first;
            assert_eq!(grants, expected, "n = pool = {n}");
        }
    }

    #[test]
    fn zero_demand_zero_grant() {
        let grants = run(
            52,
            &[demand(0, Some(5e6), 0.0, 1e9), demand(1, None, 0.0, 0.0)],
        );
        assert_eq!(grants, vec![0, 0]);
    }

    #[test]
    fn allocate_clears_the_buffer() {
        for demands in [&[][..], &[demand(0, None, 0.0, 0.0)][..]] {
            let g = run(52, demands);
            assert_eq!(g.len(), demands.len());
            assert!(g.iter().sum::<u32>() <= 52);
        }
    }
}
