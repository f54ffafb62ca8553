//! Inter-slice scheduling: dividing the carrier's PRBs among slices
//! (MVNOs) each slot.

/// Per-slice state the inter-slice scheduler decides on.
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
    /// Relative weight for best-effort distribution.
    pub weight: f64,
}

/// An inter-slice scheduler: maps demands to per-slice PRB grants.
pub trait InterSliceScheduler: Send {
    /// Clear `grants` and fill it with one grant per demand (same order as
    /// `demands`; the grants sum to at most `total_prbs`). The caller owns
    /// the buffer, so a slot allocates nothing here.
    fn allocate(&mut self, total_prbs: u32, demands: &[SliceDemand], grants: &mut Vec<u32>);

    /// Name for reports.
    fn name(&self) -> &str;
}

/// Fixed proportional shares (by `weight`), independent of targets.
#[derive(Debug, Default)]
pub struct FixedShare;

impl FixedShare {
    /// Fixed-share allocator.
    pub fn new() -> Self {
        Self
    }
}

impl InterSliceScheduler for FixedShare {
    fn allocate(&mut self, total_prbs: u32, demands: &[SliceDemand], grants: &mut Vec<u32>) {
        grants.clear();
        let total_weight: f64 = demands.iter().map(|d| d.weight.max(0.0)).sum();
        if total_weight <= 0.0 {
            grants.resize(demands.len(), 0);
            return;
        }
        grants.extend(
            demands
                .iter()
                .map(|d| ((d.weight.max(0.0) / total_weight) * total_prbs as f64).floor() as u32),
        );
        // Distribute the rounding remainder by weight order.
        let used: u32 = grants.iter().sum();
        let mut remainder = total_prbs.saturating_sub(used);
        let mut order: Vec<usize> = (0..demands.len()).collect();
        order.sort_by(|a, b| demands[*b].weight.total_cmp(&demands[*a].weight));
        for &i in order.iter().cycle().take(demands.len() * 2) {
            if remainder == 0 {
                break;
            }
            grants[i] += 1;
            remainder -= 1;
        }
    }

    fn name(&self) -> &str {
        "fixed-share"
    }
}

/// Target-rate allocation: each slice earns tokens at its target rate and
/// spends them on PRBs; spare PRBs go to best-effort slices by weight.
///
/// This is the allocator behind Fig. 5a: with targets 3/12/15 Mb/s each
/// MVNO receives exactly the PRBs needed to track its target (channel
/// permitting) and they co-exist on one carrier.
#[derive(Debug, Default)]
pub struct TargetRate;

impl TargetRate {
    /// Target-rate allocator.
    pub fn new() -> Self {
        Self
    }
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

impl InterSliceScheduler for TargetRate {
    fn allocate(&mut self, total_prbs: u32, demands: &[SliceDemand], grants: &mut Vec<u32>) {
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

        // Pass 2: spare capacity to best-effort slices, weighted.
        if remaining > 0 && demands.iter().any(hungry_best_effort) {
            let total_weight: f64 = demands
                .iter()
                .filter(|d| hungry_best_effort(d))
                .map(|d| d.weight.max(0.0))
                .sum();
            if total_weight > 0.0 {
                let pool = remaining;
                let best_effort = grants.iter_mut().zip(demands);
                for (grant, d) in best_effort.filter(|(_, d)| hungry_best_effort(d)) {
                    let share = ((d.weight.max(0.0) / total_weight) * pool as f64).floor() as u32;
                    let give = share.min(need(d)).min(remaining);
                    *grant += give;
                    remaining -= give;
                }
                // Leftovers to the first best-effort slice that can use them.
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
    }

    fn name(&self) -> &str {
        "target-rate"
    }
}

/// Strict priority: serve slices in declaration order, each up to its
/// demand. (Useful as a baseline and for URLLC-style setups.)
#[derive(Debug, Default)]
pub struct StrictPriority;

impl StrictPriority {
    /// Strict-priority allocator.
    pub fn new() -> Self {
        Self
    }
}

impl InterSliceScheduler for StrictPriority {
    fn allocate(&mut self, total_prbs: u32, demands: &[SliceDemand], grants: &mut Vec<u32>) {
        grants.clear();
        let mut remaining = total_prbs;
        grants.extend(demands.iter().map(|d| {
            if d.mean_prb_bits <= 0.0 {
                return 0;
            }
            let need = (d.demand_bits / d.mean_prb_bits).ceil() as u32;
            let give = need.min(remaining);
            remaining -= give;
            give
        }));
    }

    fn name(&self) -> &str {
        "strict-priority"
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
            weight: 1.0,
        }
    }

    /// Run `alloc` into a buffer left dirty by an earlier, longer slot:
    /// the callee must clear it.
    fn run(alloc: &mut dyn InterSliceScheduler, total: u32, demands: &[SliceDemand]) -> Vec<u32> {
        let mut out = vec![u32::MAX; demands.len() + 3];
        alloc.allocate(total, demands, &mut out);
        out
    }

    #[test]
    fn fixed_share_proportional() {
        let mut fs = FixedShare::new();
        let mut d1 = demand(0, None, 1e9, 0.0);
        let mut d2 = demand(1, None, 1e9, 0.0);
        d1.weight = 3.0;
        d2.weight = 1.0;
        let grants = run(&mut fs, 52, &[d1, d2]);
        assert_eq!(grants.iter().sum::<u32>(), 52);
        assert!(grants[0] >= 38 && grants[0] <= 40, "grants {grants:?}");
    }

    #[test]
    fn target_rate_gives_tokens_worth() {
        let mut tr = TargetRate::new();
        // Slice owed 5000 bits, 500 bits/PRB -> 10 PRBs.
        let grants = run(&mut tr, 52, &[demand(0, Some(5e6), 1e9, 5000.0)]);
        assert_eq!(grants[0], 10);
    }

    #[test]
    fn target_rate_capped_by_demand() {
        let mut tr = TargetRate::new();
        // Owed a lot, but only 1000 bits buffered -> 2 PRBs.
        let grants = run(&mut tr, 52, &[demand(0, Some(5e6), 1000.0, 1e9)]);
        assert_eq!(grants[0], 2);
    }

    #[test]
    fn target_rate_respects_capacity() {
        let mut tr = TargetRate::new();
        let d = demand(0, Some(100e6), 1e9, 1e9);
        let grants = run(&mut tr, 52, &[d, d]);
        assert_eq!(grants.iter().sum::<u32>(), 52);
    }

    #[test]
    fn best_effort_gets_leftovers() {
        let mut tr = TargetRate::new();
        let targeted = demand(0, Some(1e6), 1e9, 1000.0); // wants 2 PRBs
        let be = demand(1, None, 1e9, 0.0);
        let grants = run(&mut tr, 52, &[targeted, be]);
        assert_eq!(grants[0], 2);
        assert_eq!(grants[1], 50);
    }

    #[test]
    fn strict_priority_orders() {
        let mut sp = StrictPriority::new();
        let hungry = demand(0, None, 500.0 * 40.0, 0.0); // needs 40 PRBs
        let second = demand(1, None, 1e9, 0.0);
        let grants = run(&mut sp, 52, &[hungry, second]);
        assert_eq!(grants[0], 40);
        assert_eq!(grants[1], 12);
    }

    #[test]
    fn zero_demand_zero_grant() {
        let mut tr = TargetRate::new();
        let grants = run(
            &mut tr,
            52,
            &[demand(0, Some(5e6), 0.0, 1e9), demand(1, None, 0.0, 0.0)],
        );
        assert_eq!(grants, vec![0, 0]);
    }

    #[test]
    fn every_allocator_clears_the_buffer() {
        let allocators: [&mut dyn InterSliceScheduler; 3] = [
            &mut FixedShare::new(),
            &mut TargetRate::new(),
            &mut StrictPriority::new(),
        ];
        for alloc in allocators {
            for demands in [&[][..], &[demand(0, None, 0.0, 0.0)][..]] {
                let g = run(alloc, 52, demands);
                assert_eq!(g.len(), demands.len(), "{}", alloc.name());
                assert!(g.iter().sum::<u32>() <= 52, "{}", alloc.name());
            }
        }
    }

    #[test]
    fn fixed_share_survives_a_nan_weight() {
        let mut fs = FixedShare::new();
        let mut bad = demand(0, None, 1e9, 0.0);
        bad.weight = f64::NAN;
        let good = demand(1, None, 1e9, 0.0);
        let g = run(&mut fs, 52, &[bad, good]);
        // A NaN weight counts as zero: the other slice takes the grid.
        assert_eq!(g, vec![0, 52]);
    }
}
