//! Intra-slice schedulers.
//!
//! [`SliceScheduler`] is the seam between the gNB and scheduling policy:
//! native Rust implementations live here (the paper's comparators and the
//! gNB's fallback), and `waran-core` provides an adapter that routes the
//! same interface into a Wasm plugin. Both sides speak the
//! [`SchedRequest`]/[`SchedResponse`] ABI, so native-vs-plugin comparisons
//! (ablation A1) are apples to apples.

use waran_abi::sched::{Allocation, SchedRequest, SchedResponse};

/// Why a scheduler invocation failed. For plugin-backed schedulers this
/// wraps trap/ABI faults; native schedulers never fail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedulerFault {
    /// Machine-readable code (`trap:unreachable`, `abi`, `codec`, …).
    pub code: String,
    /// Human-readable detail.
    pub detail: String,
}

impl std::fmt::Display for SchedulerFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.detail)
    }
}

impl std::error::Error for SchedulerFault {}

/// An intra-slice scheduler: decides how the slice's PRB grant is divided
/// among the slice's UEs.
pub trait SliceScheduler: Send {
    /// Produce allocations for one slot.
    fn schedule(&mut self, req: &SchedRequest) -> Result<SchedResponse, SchedulerFault>;

    /// Policy name for reports.
    fn name(&self) -> &str;
}

/// PRBs needed to drain a UE's buffer this slot.
fn prbs_needed(buffer_bytes: u32, prb_capacity_bits: f64) -> u32 {
    if prb_capacity_bits <= 0.0 {
        return 0;
    }
    ((buffer_bytes as f64 * 8.0) / prb_capacity_bits).ceil() as u32
}

/// Round robin: equal shares over backlogged UEs, rotation advancing each
/// slot so remainder PRBs cycle fairly.
#[derive(Debug, Default)]
pub struct RoundRobin {
    next: usize,
}

impl RoundRobin {
    /// Fresh rotation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate one slot. Infallible: the gNB serves a slot whose plugin
    /// faulted with this, and the trait impl wraps it.
    pub fn fill(&mut self, req: &SchedRequest) -> SchedResponse {
        let backlogged: Vec<&waran_abi::sched::UeInfo> =
            req.ues.iter().filter(|u| u.buffer_bytes > 0).collect();
        if backlogged.is_empty() || req.prbs_granted == 0 {
            return SchedResponse::default();
        }
        let n = backlogged.len();
        let rotation = self.next % n;
        self.next = self.next.wrapping_add(1);

        // Equal share with remainder to the head of the rotation; PRBs a UE
        // can't use (buffer drained) spill to the next UE in rotation.
        let mut allocs = Vec::with_capacity(n);
        let mut remaining = req.prbs_granted;
        let share = req.prbs_granted / n as u32;
        let extra = (req.prbs_granted % n as u32) as usize;
        let mut spill = 0u32;
        for i in 0..n {
            let ue = backlogged[(rotation + i) % n];
            let mut quota = share + if i < extra { 1 } else { 0 } + spill;
            quota = quota.min(remaining);
            let need = prbs_needed(ue.buffer_bytes, ue.prb_capacity_bits);
            let give = quota.min(need);
            spill = quota - give;
            remaining -= give;
            if give > 0 {
                allocs.push(Allocation {
                    ue_id: ue.ue_id,
                    prbs: give as u16,
                    priority: i.min(255) as u8,
                });
            }
        }
        SchedResponse { allocs }
    }
}

impl SliceScheduler for RoundRobin {
    fn schedule(&mut self, req: &SchedRequest) -> Result<SchedResponse, SchedulerFault> {
        Ok(self.fill(req))
    }

    fn name(&self) -> &str {
        "round-robin"
    }
}

/// Maximum throughput: serve UEs in decreasing order of per-PRB capacity.
#[derive(Debug, Default)]
pub struct MaxThroughput;

impl MaxThroughput {
    /// MT scheduler.
    pub fn new() -> Self {
        Self
    }
}

impl SliceScheduler for MaxThroughput {
    fn schedule(&mut self, req: &SchedRequest) -> Result<SchedResponse, SchedulerFault> {
        let mut order: Vec<usize> = (0..req.ues.len())
            .filter(|i| req.ues[*i].buffer_bytes > 0)
            .collect();
        order.sort_by(|a, b| {
            req.ues[*b]
                .prb_capacity_bits
                .total_cmp(&req.ues[*a].prb_capacity_bits)
        });
        Ok(greedy_fill(req, &order))
    }

    fn name(&self) -> &str {
        "max-throughput"
    }
}

/// Proportional fair: serve UEs in decreasing order of
/// `achievable_rate / long_term_average`. The long-term average (and hence
/// the time constant) is maintained by the gNB's EWMA, so the policy itself
/// is stateless.
#[derive(Debug, Default)]
pub struct ProportionalFair;

impl ProportionalFair {
    /// PF scheduler.
    pub fn new() -> Self {
        Self
    }
}

impl SliceScheduler for ProportionalFair {
    fn schedule(&mut self, req: &SchedRequest) -> Result<SchedResponse, SchedulerFault> {
        let metric = |i: usize| {
            let ue = &req.ues[i];
            ue.prb_capacity_bits / ue.avg_tput_bps.max(1e-3)
        };
        let mut order: Vec<usize> = (0..req.ues.len())
            .filter(|i| req.ues[*i].buffer_bytes > 0)
            .collect();
        order.sort_by(|a, b| metric(*b).total_cmp(&metric(*a)));
        Ok(greedy_fill(req, &order))
    }

    fn name(&self) -> &str {
        "proportional-fair"
    }
}

/// Serve UEs in `order`, granting each the PRBs it needs to drain its
/// buffer until the grant runs out.
fn greedy_fill(req: &SchedRequest, order: &[usize]) -> SchedResponse {
    let mut remaining = req.prbs_granted;
    let mut allocs = Vec::new();
    for (rank, &i) in order.iter().enumerate() {
        if remaining == 0 {
            break;
        }
        let ue = &req.ues[i];
        let need = prbs_needed(ue.buffer_bytes, ue.prb_capacity_bits);
        let give = need.min(remaining);
        if give > 0 {
            allocs.push(Allocation {
                ue_id: ue.ue_id,
                prbs: give.min(u16::MAX as u32) as u16,
                priority: rank.min(255) as u8,
            });
            remaining -= give;
        }
    }
    SchedResponse { allocs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waran_abi::sched::UeInfo;

    fn ue(id: u32, buffer: u32, cap: f64, avg: f64) -> UeInfo {
        UeInfo {
            ue_id: id,
            cqi: 10,
            mcs: 20,
            flags: 0,
            buffer_bytes: buffer,
            avg_tput_bps: avg,
            prb_capacity_bits: cap,
        }
    }

    fn req(prbs: u32, ues: Vec<UeInfo>) -> SchedRequest {
        SchedRequest {
            slot: 0,
            prbs_granted: prbs,
            slice_id: 0,
            ues,
        }
    }

    #[test]
    fn rr_splits_evenly() {
        let mut rr = RoundRobin::new();
        let r = req(52, vec![ue(1, 1 << 20, 500.0, 0.0); 4]);
        let resp = rr.schedule(&r).unwrap();
        assert_eq!(resp.total_prbs(), 52);
        let prbs: Vec<u16> = resp.allocs.iter().map(|a| a.prbs).collect();
        assert!(prbs.iter().all(|p| *p == 13));
    }

    #[test]
    fn rr_rotation_cycles_remainder() {
        let mut rr = RoundRobin::new();
        let ues = vec![
            ue(1, 1 << 20, 500.0, 0.0),
            ue(2, 1 << 20, 500.0, 0.0),
            ue(3, 1 << 20, 500.0, 0.0),
        ];
        let r = req(10, ues);
        // 10 = 4+3+3; the head of rotation changes every slot.
        let first: Vec<u32> = (0..3)
            .map(|_| {
                let resp = rr.schedule(&r).unwrap();
                resp.allocs.iter().max_by_key(|a| a.prbs).unwrap().ue_id
            })
            .collect();
        assert_eq!(first.len(), 3);
        assert_ne!(first[0], first[1]);
        assert_ne!(first[1], first[2]);
    }

    #[test]
    fn rr_skips_empty_buffers() {
        let mut rr = RoundRobin::new();
        let r = req(10, vec![ue(1, 0, 500.0, 0.0), ue(2, 1 << 20, 500.0, 0.0)]);
        let resp = rr.schedule(&r).unwrap();
        assert_eq!(resp.allocs.len(), 1);
        assert_eq!(resp.allocs[0].ue_id, 2);
        assert_eq!(resp.total_prbs(), 10);
    }

    #[test]
    fn rr_small_buffer_spills_to_next() {
        let mut rr = RoundRobin::new();
        // UE 1 needs 1 PRB only (50 bytes at 500 bits/PRB); UE 2 is greedy.
        let r = req(10, vec![ue(1, 50, 500.0, 0.0), ue(2, 1 << 20, 500.0, 0.0)]);
        let resp = rr.schedule(&r).unwrap();
        let get = |id| {
            resp.allocs
                .iter()
                .find(|a| a.ue_id == id)
                .map(|a| a.prbs)
                .unwrap_or(0)
        };
        assert_eq!(get(1), 1);
        assert_eq!(get(2), 9);
    }

    #[test]
    fn mt_prefers_best_channel() {
        let mut mt = MaxThroughput::new();
        let r = req(
            10,
            vec![
                ue(1, 1 << 20, 300.0, 0.0),
                ue(2, 1 << 20, 800.0, 0.0),
                ue(3, 1 << 20, 500.0, 0.0),
            ],
        );
        let resp = mt.schedule(&r).unwrap();
        // All PRBs go to UE 2 (its buffer needs more than 10 PRBs).
        assert_eq!(resp.allocs.len(), 1);
        assert_eq!(resp.allocs[0].ue_id, 2);
        assert_eq!(resp.allocs[0].prbs, 10);
    }

    #[test]
    fn mt_overflows_to_second_best() {
        let mut mt = MaxThroughput::new();
        // UE 2 only needs 2 PRBs (1000 bits of buffer at 800 bits/PRB).
        let r = req(10, vec![ue(1, 1 << 20, 300.0, 0.0), ue(2, 125, 800.0, 0.0)]);
        let resp = mt.schedule(&r).unwrap();
        let get = |id| {
            resp.allocs
                .iter()
                .find(|a| a.ue_id == id)
                .map(|a| a.prbs)
                .unwrap_or(0)
        };
        assert_eq!(get(2), 2);
        assert_eq!(get(1), 8);
    }

    #[test]
    fn pf_prioritizes_low_average() {
        let mut pf = ProportionalFair::new();
        // Same channel; UE 2 has been starved (tiny average).
        let r = req(
            10,
            vec![ue(1, 1 << 20, 500.0, 10e6), ue(2, 1 << 20, 500.0, 0.01e6)],
        );
        let resp = pf.schedule(&r).unwrap();
        assert_eq!(resp.allocs[0].ue_id, 2);
        assert_eq!(resp.allocs[0].priority, 0);
    }

    #[test]
    fn pf_balances_rate_and_fairness() {
        let mut pf = ProportionalFair::new();
        // UE 1: great channel, high average. UE 2: poor channel, low average.
        // metric(1) = 800/8e6, metric(2) = 300/1e6 -> UE 2 wins.
        let r = req(
            10,
            vec![ue(1, 1 << 20, 800.0, 8e6), ue(2, 1 << 20, 300.0, 1e6)],
        );
        let resp = pf.schedule(&r).unwrap();
        assert_eq!(resp.allocs[0].ue_id, 2);
    }

    #[test]
    fn zero_grant_or_no_ues() {
        let mut rr = RoundRobin::new();
        assert!(rr
            .schedule(&req(0, vec![ue(1, 100, 500.0, 0.0)]))
            .unwrap()
            .allocs
            .is_empty());
        assert!(rr.schedule(&req(10, vec![])).unwrap().allocs.is_empty());
        let mut pf = ProportionalFair::new();
        assert!(pf.schedule(&req(10, vec![])).unwrap().allocs.is_empty());
    }

    #[test]
    fn grant_never_exceeded() {
        for sched in [
            &mut RoundRobin::new() as &mut dyn SliceScheduler,
            &mut MaxThroughput::new(),
            &mut ProportionalFair::new(),
        ] {
            let r = req(
                7,
                vec![
                    ue(1, 1 << 20, 311.0, 2e6),
                    ue(2, 5_000, 777.0, 4e6),
                    ue(3, 64, 123.0, 0.5e6),
                ],
            );
            let resp = sched.schedule(&r).unwrap();
            assert!(resp.total_prbs() <= 7, "{} exceeded grant", sched.name());
        }
    }
}
