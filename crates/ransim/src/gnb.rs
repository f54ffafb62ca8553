//! The gNB MAC: the slot loop tying channels, traffic, two-level
//! scheduling and delivery together.
//!
//! Each slot:
//! 1. every UE receives traffic and sounds its channel;
//! 2. the inter-slice scheduler divides the PRB grid among slices
//!    (targets/tokens/weights — §4.A "fixed percentages, latency priority,
//!    or target bit rates");
//! 3. each slice's intra-slice scheduler (native or Wasm plugin behind the
//!    same [`SliceScheduler`] seam) divides its grant among its UEs;
//! 4. the resource allocator sanitizes the response (unknown UEs dropped,
//!    duplicates rejected, grant clamped by priority) and delivers
//!    transport blocks;
//! 5. every UE's long-term average updates (the PF time constant).
//!
//! A faulting scheduler never stalls the slot: the gNB falls back to a
//! native round robin for that slice and counts the fault (§6.A).

use rand::rngs::StdRng;
use rand::SeedableRng;

use waran_abi::sched::{SchedRequest, SchedResponse};

use crate::channel::ChannelModel;
use crate::massive::MassivePlane;
use crate::metrics::MetricsRecorder;
use crate::phy::Carrier;
use crate::sched::{RoundRobin, SliceScheduler};
use crate::slicing::{InterSliceScheduler, SliceDemand, TargetRate};
use crate::traffic::TrafficSource;
use crate::ue::UeState;

/// Static configuration of a slice (an MVNO).
#[derive(Debug, Clone)]
pub struct SliceConfig {
    /// Human-readable name.
    pub name: String,
    /// Target cumulative DL rate, bit/s (`None` = best effort).
    pub target_bps: Option<f64>,
    /// Weight for best-effort sharing.
    pub weight: f64,
}

impl SliceConfig {
    /// Best-effort slice.
    pub fn best_effort(name: &str) -> Self {
        SliceConfig {
            name: name.to_string(),
            target_bps: None,
            weight: 1.0,
        }
    }

    /// Slice with a target rate in Mb/s.
    pub fn with_target_mbps(name: &str, mbps: f64) -> Self {
        SliceConfig {
            name: name.to_string(),
            target_bps: Some(mbps * 1e6),
            weight: 1.0,
        }
    }
}

/// gNB-wide configuration.
#[derive(Debug, Clone)]
pub struct GnbConfig {
    /// Cell identity, used by multi-cell scenarios to tell the gNBs of a
    /// deployment apart (reports, traces, per-cell seeds).
    pub cell_id: u32,
    /// Carrier (bandwidth + numerology).
    pub carrier: Carrier,
    /// RNG seed (simulations are deterministic given a seed).
    pub seed: u64,
    /// PF time constant in slots (large = long memory; the paper
    /// "intentionally chose a large time constant" for Fig. 5b).
    pub pf_time_constant_slots: f64,
    /// Metrics aggregation window in slots.
    pub metrics_window_slots: u64,
    /// Cap on token-bucket accumulation, seconds of target rate.
    pub token_cap_seconds: f64,
    /// First UE id this gNB assigns. Multi-cell mobility deployments give
    /// every cell a disjoint range so a UE id stays unique while the UE
    /// migrates across cells.
    pub first_ue_id: u32,
}

impl Default for GnbConfig {
    fn default() -> Self {
        GnbConfig {
            cell_id: 0,
            carrier: Carrier::paper_testbed(),
            seed: 1,
            pf_time_constant_slots: 1000.0,
            metrics_window_slots: 100,
            token_cap_seconds: 0.05,
            first_ue_id: 70,
        }
    }
}

/// Per-slice health counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct SliceHealth {
    /// Scheduler invocations that faulted.
    pub faults: u64,
    /// Slots served by the fallback scheduler.
    pub fallback_slots: u64,
}

struct SliceRuntime {
    slice_id: u32,
    config: SliceConfig,
    scheduler: Box<dyn SliceScheduler>,
    fallback: RoundRobin,
    ues: Vec<UeState>,
    tokens_bits: f64,
    health: SliceHealth,
}

/// The simulated gNB.
pub struct Gnb {
    config: GnbConfig,
    slices: Vec<SliceRuntime>,
    inter: Box<dyn InterSliceScheduler>,
    slot: u64,
    rng: StdRng,
    metrics: MetricsRecorder,
    next_ue_id: u32,
    /// Massive-UE background tier (None = classic per-UE path).
    background: Option<MassivePlane>,
}

impl Gnb {
    /// gNB with the default target-rate inter-slice scheduler.
    pub fn new(config: GnbConfig) -> Self {
        Self::with_inter_scheduler(config, Box::new(TargetRate::new()))
    }

    /// gNB with an explicit inter-slice scheduler.
    pub fn with_inter_scheduler(config: GnbConfig, inter: Box<dyn InterSliceScheduler>) -> Self {
        let slot_seconds = config.carrier.numerology.slot_seconds();
        let metrics = MetricsRecorder::new(config.metrics_window_slots, slot_seconds);
        let rng = StdRng::seed_from_u64(config.seed);
        let next_ue_id = config.first_ue_id;
        Gnb {
            config,
            slices: Vec::new(),
            inter,
            slot: 0,
            rng,
            metrics,
            next_ue_id,
            background: None,
        }
    }

    /// Attach the massive-UE background plane (after all slices are
    /// added) and perform the initial promotion fill. Background slices
    /// get slice-level metrics series; no per-UE state is materialized
    /// for the multiplexed population.
    pub fn attach_background(&mut self, plane: MassivePlane) {
        for si in 0..plane.slice_count() {
            self.metrics.register_slice(plane.slice_id(si));
        }
        self.background = Some(plane);
        self.rotate_background(true);
    }

    /// The background plane, if one is attached.
    pub fn background(&self) -> Option<&MassivePlane> {
        self.background.as_ref()
    }

    /// Rotate which background UEs hold foreground fidelity: demote the
    /// oldest promoted UEs back into their SoA rows, then promote the
    /// next entries at the promotion cursor up to the quota. Driven by
    /// the slot counter only, so it is identical at every worker count.
    fn rotate_background(&mut self, initial: bool) {
        // Take the plane out of `self` so `admit_ue`'s absorption check
        // (which only fires while `background` is Some) cannot absorb
        // the very UEs being promoted here.
        let Some(mut plane) = self.background.take() else {
            return;
        };
        let quota = plane.foreground_quota() as usize;
        for si in 0..plane.slice_count() {
            if !initial {
                while plane.promoted_count(si) > 0 {
                    let Some(ue_id) = plane.demote_candidate(si) else {
                        break;
                    };
                    // None = the UE handed over away while promoted;
                    // its row becomes a tombstone.
                    let state = self.remove_ue(ue_id).map(|(_, ue)| ue);
                    plane.complete_demotion(si, ue_id, state);
                }
            }
            while plane.promoted_count(si) < quota {
                let Some((slice_id, ue)) = plane.prepare_promotion(si) else {
                    break;
                };
                match self.admit_ue(slice_id, ue) {
                    Ok(()) => {}
                    Err(ue) => {
                        plane.abort_promotion(si, ue);
                        break;
                    }
                }
            }
        }
        self.background = Some(plane);
    }

    /// Add a slice with its intra-slice scheduler; returns the slice id.
    pub fn add_slice(&mut self, config: SliceConfig, scheduler: Box<dyn SliceScheduler>) -> u32 {
        let slice_id = self.slices.len() as u32;
        self.slices.push(SliceRuntime {
            slice_id,
            config,
            scheduler,
            fallback: RoundRobin::new(),
            ues: Vec::new(),
            tokens_bits: 0.0,
            health: SliceHealth::default(),
        });
        slice_id
    }

    /// Attach a UE to a slice; returns the UE id.
    pub fn add_ue(
        &mut self,
        slice_id: u32,
        channel: Box<dyn ChannelModel>,
        traffic: Box<dyn TrafficSource>,
    ) -> u32 {
        let ue_id = self.next_ue_id;
        self.next_ue_id += 1;
        let slice = &mut self.slices[slice_id as usize];
        slice.ues.push(UeState::new(ue_id, channel, traffic));
        self.metrics.register(slice_id, ue_id);
        ue_id
    }

    /// Hot-swap a slice's intra-slice scheduler mid-run (the Fig. 5b
    /// experiment: the gNB keeps running, no UE disconnects).
    pub fn swap_scheduler(&mut self, slice_id: u32, scheduler: Box<dyn SliceScheduler>) {
        self.slices[slice_id as usize].scheduler = scheduler;
    }

    /// Current slot number.
    pub fn slot(&self) -> u64 {
        self.slot
    }

    /// The cell identity this gNB was configured with.
    pub fn cell_id(&self) -> u32 {
        self.config.cell_id
    }

    /// Slot duration in seconds.
    pub fn slot_seconds(&self) -> f64 {
        self.config.carrier.numerology.slot_seconds()
    }

    /// The metrics recorder.
    pub fn metrics(&self) -> &MetricsRecorder {
        &self.metrics
    }

    /// Health counters for a slice.
    pub fn slice_health(&self, slice_id: u32) -> Option<SliceHealth> {
        self.slices.get(slice_id as usize).map(|s| s.health)
    }

    /// Name of the scheduler currently driving a slice.
    pub fn scheduler_name(&self, slice_id: u32) -> Option<String> {
        self.slices
            .get(slice_id as usize)
            .map(|s| s.scheduler.name().to_string())
    }

    /// UE ids attached to a slice.
    pub fn slice_ues(&self, slice_id: u32) -> Vec<u32> {
        self.slices
            .get(slice_id as usize)
            .map(|s| s.ues.iter().map(|u| u.ue_id).collect())
            .unwrap_or_default()
    }

    /// Change a slice's target rate at run time (a RIC control action).
    pub fn set_slice_target(&mut self, slice_id: u32, target_bps: Option<f64>) {
        if let Some(slice) = self.slices.get_mut(slice_id as usize) {
            slice.config.target_bps = target_bps;
        }
    }

    /// Replace a UE's channel model at run time (how the simulator realizes
    /// a handover: the UE now sees the target cell's channel).
    pub fn set_ue_channel(&mut self, ue_id: u32, channel: Box<dyn ChannelModel>) -> bool {
        for slice in &mut self.slices {
            if let Some(ue) = slice.ues.iter_mut().find(|u| u.ue_id == ue_id) {
                ue.channel = channel;
                return true;
            }
        }
        false
    }

    /// Detach a UE from the gNB, returning its slice id and full MAC
    /// state (buffer, averages, channel, traffic) so another cell can
    /// admit it — the RAN-side half of a handover. The metrics recorder
    /// keeps the UE registered: its rate series continues (at zero) in
    /// this cell's report, which keeps window alignment deterministic.
    pub fn remove_ue(&mut self, ue_id: u32) -> Option<(u32, UeState)> {
        for slice in &mut self.slices {
            if let Some(pos) = slice.ues.iter().position(|u| u.ue_id == ue_id) {
                return Some((slice.slice_id, slice.ues.remove(pos)));
            }
        }
        None
    }

    /// Admit a previously detached UE into `slice_id`, preserving its MAC
    /// state. Returns `false` (and drops nothing — the caller keeps the
    /// state) if the slice does not exist or the id is already attached.
    pub fn admit_ue(&mut self, slice_id: u32, ue: UeState) -> Result<(), UeState> {
        // Two-tier absorption: a UE promoted out of another cell's
        // background plane arrives by handover with a `PinnedChannel`
        // (`name() == "pinned"`). If this cell runs a background
        // population for the slice, the UE joins it as a fresh SoA row
        // instead of staying foreground forever. The rotation path
        // bypasses this by taking the plane out of `self.background`
        // before promoting.
        if ue.channel.name() == "pinned" && self.slices.get(slice_id as usize).is_some() {
            if let Some(plane) = self.background.as_mut() {
                if plane.absorb(slice_id, &ue) {
                    return Ok(());
                }
            }
        }
        if self
            .slices
            .iter()
            .any(|s| s.ues.iter().any(|u| u.ue_id == ue.ue_id))
        {
            return Err(ue);
        }
        let Some(slice) = self.slices.get_mut(slice_id as usize) else {
            return Err(ue);
        };
        self.metrics.register(slice_id, ue.ue_id);
        slice.ues.push(ue);
        Ok(())
    }

    /// Positions of every UE whose channel tracks one:
    /// `(slice_id, ue_id, position)` — what the mobility subsystem's
    /// measurement pass consumes.
    pub fn mobile_ues(&self) -> Vec<(u32, u32, [f64; 2])> {
        let mut out = Vec::new();
        for slice in &self.slices {
            for ue in &slice.ues {
                if let Some(pos) = ue.channel.position() {
                    out.push((slice.slice_id, ue.ue_id, pos));
                }
            }
        }
        out
    }

    /// KPI snapshot across all UEs: `(slice_id, ue_id, cqi, mcs,
    /// buffer_bytes, avg_tput_bps)` — what the E2 agent reports to the RIC.
    pub fn ue_kpis(&self) -> Vec<(u32, u32, u8, u8, u64, f64)> {
        let mut out = Vec::new();
        for slice in &self.slices {
            for ue in &slice.ues {
                out.push((
                    slice.slice_id,
                    ue.ue_id,
                    ue.cqi,
                    ue.mcs,
                    ue.buffer_bytes,
                    ue.avg_tput_bps,
                ));
            }
        }
        out
    }

    /// Run `n` slots.
    pub fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Run for `seconds` of simulated time.
    pub fn run_seconds(&mut self, seconds: f64) {
        let slots = (seconds / self.slot_seconds()).round() as u64;
        self.run(slots);
    }

    /// Execute one slot.
    pub fn step(&mut self) {
        let slot_seconds = self.slot_seconds();
        let total_prbs = self.config.carrier.num_prbs();
        let slot = self.slot;

        // 0. Deterministic tier rotation for the massive plane.
        if let Some(plane) = &self.background {
            let period = plane.rotation_period_slots();
            if period > 0 && slot > 0 && slot.is_multiple_of(period) {
                self.rotate_background(false);
            }
        }

        // 1. Arrivals + channel sounding; token accrual.
        for slice in &mut self.slices {
            for ue in &mut slice.ues {
                ue.begin_slot(slot, slot_seconds, &mut self.rng);
            }
            if let Some(target) = slice.config.target_bps {
                slice.tokens_bits += target * slot_seconds;
                let cap = target * self.config.token_cap_seconds;
                slice.tokens_bits = slice.tokens_bits.min(cap).max(0.0);
            }
        }
        if let Some(plane) = &mut self.background {
            plane.begin_slot(slot, slot_seconds);
        }

        // 2. Inter-slice allocation (foreground + background demand).
        let background = &self.background;
        let demands: Vec<SliceDemand> = self
            .slices
            .iter()
            .map(|s| {
                let backlogged: Vec<&UeState> =
                    s.ues.iter().filter(|u| u.buffer_bytes > 0).collect();
                let fg_bits: f64 = backlogged.iter().map(|u| u.buffer_bytes as f64 * 8.0).sum();
                let fg_mean = if backlogged.is_empty() {
                    0.0
                } else {
                    backlogged
                        .iter()
                        .map(|u| u.prb_capacity_bits() as f64)
                        .sum::<f64>()
                        / backlogged.len() as f64
                };
                let (bg_bits, bg_mean) = background
                    .as_ref()
                    .and_then(|p| p.slice_index(s.slice_id).map(|si| p.demand(si)))
                    .unwrap_or((0, 0.0));
                let bg_bits = bg_bits as f64;
                let demand_bits = fg_bits + bg_bits;
                // Blend the per-PRB capacities, weighted by backlog.
                let mean_prb_bits = if demand_bits <= 0.0 {
                    0.0
                } else {
                    (fg_bits * fg_mean + bg_bits * bg_mean) / demand_bits
                };
                SliceDemand {
                    slice_id: s.slice_id,
                    target_bps: s.config.target_bps,
                    demand_bits,
                    mean_prb_bits,
                    tokens_bits: s.tokens_bits,
                    weight: s.config.weight,
                }
            })
            .collect();
        let grants = self.inter.allocate(total_prbs, &demands);
        debug_assert!(grants.iter().sum::<u32>() <= total_prbs);

        // 3-4. Intra-slice scheduling + delivery. The plane is taken out
        // so its mutation doesn't alias the slice iteration.
        let mut background = self.background.take();
        let mut prbs_used_total = 0u32;
        for (slice, grant) in self.slices.iter_mut().zip(&grants) {
            let grant = *grant;
            let bg_si = background
                .as_ref()
                .and_then(|p| p.slice_index(slice.slice_id));
            // Per-UE delivered bits this slot (for the EWMA pass below).
            let mut delivered: Vec<u64> = vec![0; slice.ues.len()];
            let mut remaining = grant;
            // A background-only slice (no foreground UEs) skips the
            // scheduler and gives the whole grant to the aggregate tier;
            // without a plane the classic path is unchanged.
            let run_scheduler = grant > 0 && !(slice.ues.is_empty() && bg_si.is_some());
            if run_scheduler {
                let req = SchedRequest {
                    slot,
                    prbs_granted: grant,
                    slice_id: slice.slice_id,
                    ues: slice.ues.iter().map(UeState::to_abi).collect(),
                };
                let response = match slice.scheduler.schedule(&req) {
                    Ok(resp) => resp,
                    Err(_fault) => {
                        slice.health.faults += 1;
                        slice.health.fallback_slots += 1;
                        slice
                            .fallback
                            .schedule(&req)
                            .expect("native round robin cannot fault")
                    }
                };
                let used = Self::apply_response(
                    slice,
                    &response,
                    grant,
                    &mut delivered,
                    &mut self.metrics,
                );
                prbs_used_total += used;
                // PRBs the foreground schedule did not fill with data are
                // leftovers for the background tier (a nominal claim that
                // carried nothing does not occupy the grid).
                remaining = grant - used;
            }
            // Background tier: serve the multiplexed population from the
            // PRBs the foreground schedule left over.
            if remaining > 0 {
                if let (Some(plane), Some(si)) = (background.as_mut(), bg_si) {
                    let (bits, used) = plane.serve(si, remaining);
                    if bits > 0 {
                        slice.tokens_bits -= bits as f64;
                        self.metrics.record_slice_delivery(slice.slice_id, bits);
                        prbs_used_total += used;
                    }
                }
            }
            // 5. EWMA update for every UE.
            for (ue, bits) in slice.ues.iter_mut().zip(&delivered) {
                ue.update_average(*bits, slot_seconds, self.config.pf_time_constant_slots);
            }
        }
        self.background = background;

        self.metrics.end_slot(prbs_used_total, total_prbs);
        self.slot += 1;
    }

    /// Sanitize and apply a scheduler response; returns PRBs actually
    /// used (only PRBs that carried data count — the caller hands
    /// `grant - used` to the background tier as leftovers).
    fn apply_response(
        slice: &mut SliceRuntime,
        response: &SchedResponse,
        grant: u32,
        delivered: &mut [u64],
        metrics: &mut MetricsRecorder,
    ) -> u32 {
        // Order by priority (stable: record order breaks ties).
        let mut order: Vec<usize> = (0..response.allocs.len()).collect();
        order.sort_by_key(|i| response.allocs[*i].priority);

        let mut remaining = grant;
        let mut served = vec![false; slice.ues.len()];
        let mut used = 0u32;
        for idx in order {
            if remaining == 0 {
                break;
            }
            let alloc = &response.allocs[idx];
            // Unknown UE ids and duplicates are plugin bugs: skip, don't fault.
            let Some(pos) = slice.ues.iter().position(|u| u.ue_id == alloc.ue_id) else {
                continue;
            };
            if served[pos] {
                continue;
            }
            served[pos] = true;
            let prbs = (alloc.prbs as u32).min(remaining);
            if prbs == 0 {
                continue;
            }
            let bits = slice.ues[pos].deliver(prbs);
            if bits > 0 {
                // Only count PRBs that moved data toward utilization.
                let cap = slice.ues[pos].prb_capacity_bits().max(1) as u64;
                let prbs_carrying = bits.div_ceil(cap).min(prbs as u64) as u32;
                used += prbs_carrying;
                remaining -= prbs;
                slice.tokens_bits -= bits as f64;
                delivered[pos] += bits;
                metrics.record_delivery(slice.slice_id, alloc.ue_id, bits);
            } else {
                remaining -= prbs;
            }
        }
        used
    }
}

impl std::fmt::Debug for Gnb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gnb")
            .field("slot", &self.slot)
            .field("slices", &self.slices.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{FixedMcsChannel, StaticChannel};
    use crate::sched::{MaxThroughput, ProportionalFair, SchedulerFault};
    use crate::traffic::{Cbr, FullBuffer};

    fn basic_gnb() -> Gnb {
        Gnb::new(GnbConfig::default())
    }

    #[test]
    fn single_slice_full_buffer_saturates_carrier() {
        let mut gnb = basic_gnb();
        let s = gnb.add_slice(SliceConfig::best_effort("s"), Box::new(RoundRobin::new()));
        gnb.add_ue(s, Box::new(StaticChannel::new(15)), Box::new(FullBuffer));
        gnb.run_seconds(2.0);
        let rate = gnb.metrics().slice_mean_mbps(s);
        // 10 MHz @ top MCS: expect ~35-45 Mb/s.
        assert!(rate > 30.0 && rate < 50.0, "rate {rate}");
    }

    #[test]
    fn target_rate_tracked() {
        let mut gnb = basic_gnb();
        let s = gnb.add_slice(
            SliceConfig::with_target_mbps("mvno", 12.0),
            Box::new(RoundRobin::new()),
        );
        gnb.add_ue(s, Box::new(StaticChannel::new(12)), Box::new(FullBuffer));
        gnb.run_seconds(3.0);
        let rate = gnb.metrics().slice_mean_mbps(s);
        assert!((rate - 12.0).abs() < 1.0, "rate {rate}");
    }

    #[test]
    fn cbr_below_capacity_fully_served() {
        let mut gnb = basic_gnb();
        let s = gnb.add_slice(
            SliceConfig::best_effort("s"),
            Box::new(ProportionalFair::new()),
        );
        gnb.add_ue(s, Box::new(StaticChannel::new(12)), Box::new(Cbr::new(5e6)));
        gnb.run_seconds(3.0);
        let rate = gnb.metrics().slice_mean_mbps(s);
        assert!((rate - 5.0).abs() < 0.3, "rate {rate}");
    }

    #[test]
    fn remove_admit_round_trip_preserves_ue_state() {
        let mut gnb = basic_gnb();
        let s = gnb.add_slice(SliceConfig::best_effort("s"), Box::new(RoundRobin::new()));
        let ue = gnb.add_ue(s, Box::new(StaticChannel::new(12)), Box::new(FullBuffer));
        gnb.run_seconds(0.2);
        let before = gnb.metrics().ue_mean_mbps(ue);
        assert!(before > 0.0);

        let (slice_id, state) = gnb.remove_ue(ue).expect("ue attached");
        assert_eq!(slice_id, s);
        assert!(gnb.remove_ue(ue).is_none(), "already detached");
        assert!(gnb.ue_kpis().iter().all(|k| k.1 != ue));

        // Readmission keeps the same id and buffer; a duplicate id or a
        // bogus slice is rejected and hands the state back.
        gnb.admit_ue(s, state).expect("readmit");
        let dup = UeState::new(ue, Box::new(StaticChannel::new(1)), Box::new(FullBuffer));
        assert!(gnb.admit_ue(s, dup).is_err(), "duplicate id rejected");
        let orphan = UeState::new(999, Box::new(StaticChannel::new(1)), Box::new(FullBuffer));
        assert!(gnb.admit_ue(42, orphan).is_err(), "unknown slice rejected");

        gnb.run_seconds(0.2);
        assert!(gnb.metrics().ue_mean_mbps(ue) > 0.0, "serves again");
    }

    #[test]
    fn first_ue_id_offsets_assignment() {
        let mut gnb = Gnb::new(GnbConfig {
            first_ue_id: 1_000,
            ..GnbConfig::default()
        });
        let s = gnb.add_slice(SliceConfig::best_effort("s"), Box::new(RoundRobin::new()));
        let ue = gnb.add_ue(s, Box::new(StaticChannel::new(12)), Box::new(FullBuffer));
        assert_eq!(ue, 1_000);
    }

    #[test]
    fn mt_starves_worst_channel_under_contention() {
        let mut gnb = basic_gnb();
        let s = gnb.add_slice(
            SliceConfig::best_effort("s"),
            Box::new(MaxThroughput::new()),
        );
        let good = gnb.add_ue(s, Box::new(FixedMcsChannel::new(28)), Box::new(FullBuffer));
        let bad = gnb.add_ue(s, Box::new(FixedMcsChannel::new(10)), Box::new(FullBuffer));
        gnb.run_seconds(2.0);
        let good_rate = gnb.metrics().ue_mean_mbps(good);
        let bad_rate = gnb.metrics().ue_mean_mbps(bad);
        assert!(good_rate > 25.0, "good {good_rate}");
        assert!(bad_rate < 0.5, "bad {bad_rate}");
    }

    #[test]
    fn pf_shares_under_contention() {
        let mut gnb = basic_gnb();
        let s = gnb.add_slice(
            SliceConfig::best_effort("s"),
            Box::new(ProportionalFair::new()),
        );
        let good = gnb.add_ue(s, Box::new(FixedMcsChannel::new(28)), Box::new(FullBuffer));
        let bad = gnb.add_ue(s, Box::new(FixedMcsChannel::new(10)), Box::new(FullBuffer));
        gnb.run_seconds(3.0);
        let good_rate = gnb.metrics().ue_mean_mbps(good);
        let bad_rate = gnb.metrics().ue_mean_mbps(bad);
        // PF gives both airtime; the good channel still ends up faster.
        assert!(bad_rate > 2.0, "bad {bad_rate}");
        assert!(good_rate > bad_rate, "good {good_rate} bad {bad_rate}");
    }

    #[test]
    fn three_slices_coexist() {
        let mut gnb = basic_gnb();
        let s1 = gnb.add_slice(
            SliceConfig::with_target_mbps("mt", 3.0),
            Box::new(MaxThroughput::new()),
        );
        let s2 = gnb.add_slice(
            SliceConfig::with_target_mbps("rr", 12.0),
            Box::new(RoundRobin::new()),
        );
        let s3 = gnb.add_slice(
            SliceConfig::with_target_mbps("pf", 15.0),
            Box::new(ProportionalFair::new()),
        );
        for s in [s1, s2, s3] {
            for _ in 0..2 {
                gnb.add_ue(s, Box::new(StaticChannel::new(12)), Box::new(FullBuffer));
            }
        }
        gnb.run_seconds(4.0);
        assert!((gnb.metrics().slice_mean_mbps(s1) - 3.0).abs() < 0.5);
        assert!((gnb.metrics().slice_mean_mbps(s2) - 12.0).abs() < 1.0);
        assert!((gnb.metrics().slice_mean_mbps(s3) - 15.0).abs() < 1.5);
    }

    #[test]
    fn hot_swap_takes_effect() {
        let mut gnb = basic_gnb();
        let s = gnb.add_slice(
            SliceConfig::best_effort("s"),
            Box::new(MaxThroughput::new()),
        );
        let good = gnb.add_ue(s, Box::new(FixedMcsChannel::new(28)), Box::new(FullBuffer));
        let bad = gnb.add_ue(s, Box::new(FixedMcsChannel::new(10)), Box::new(FullBuffer));
        let _ = good;
        gnb.run_seconds(1.0);
        let bad_before = gnb.metrics().ue_mean_mbps(bad);
        assert!(bad_before < 0.5);
        assert_eq!(gnb.scheduler_name(s).unwrap(), "max-throughput");
        // Swap to RR mid-run: the starved UE starts getting service.
        gnb.swap_scheduler(s, Box::new(RoundRobin::new()));
        assert_eq!(gnb.scheduler_name(s).unwrap(), "round-robin");
        gnb.run_seconds(1.0);
        let series = gnb.metrics().ue_series_mbps(bad);
        let late = series[series.len() - 5..].iter().sum::<f64>() / 5.0;
        assert!(late > 1.0, "after swap {late}");
    }

    struct AlwaysFaults;
    impl SliceScheduler for AlwaysFaults {
        fn schedule(&mut self, _req: &SchedRequest) -> Result<SchedResponse, SchedulerFault> {
            Err(SchedulerFault {
                code: "test".into(),
                detail: "boom".into(),
            })
        }
        fn name(&self) -> &str {
            "always-faults"
        }
    }

    #[test]
    fn faulting_scheduler_falls_back_to_rr() {
        let mut gnb = basic_gnb();
        let s = gnb.add_slice(SliceConfig::best_effort("s"), Box::new(AlwaysFaults));
        let ue = gnb.add_ue(s, Box::new(StaticChannel::new(12)), Box::new(FullBuffer));
        gnb.run_seconds(1.0);
        // Service continued via fallback.
        assert!(gnb.metrics().ue_mean_mbps(ue) > 10.0);
        let health = gnb.slice_health(s).unwrap();
        assert!(health.faults > 900);
        assert_eq!(health.faults, health.fallback_slots);
    }

    struct Overclaimer;
    impl SliceScheduler for Overclaimer {
        fn schedule(&mut self, req: &SchedRequest) -> Result<SchedResponse, SchedulerFault> {
            // Claims 10× the grant for the first UE and repeats it, plus a
            // bogus UE id: the allocator must clamp and drop.
            let ue = req.ues[0].ue_id;
            Ok(SchedResponse {
                allocs: vec![
                    waran_abi::sched::Allocation {
                        ue_id: ue,
                        // Saturate: a grant over 6553 PRBs must clamp to
                        // u16::MAX, not silently wrap to a small claim.
                        prbs: (req.prbs_granted * 10).min(u16::MAX as u32) as u16,
                        priority: 0,
                    },
                    waran_abi::sched::Allocation {
                        ue_id: ue,
                        prbs: 50,
                        priority: 1,
                    },
                    waran_abi::sched::Allocation {
                        ue_id: 9999,
                        prbs: 50,
                        priority: 2,
                    },
                ],
            })
        }
        fn name(&self) -> &str {
            "overclaimer"
        }
    }

    #[test]
    fn allocator_sanitizes_hostile_response() {
        let mut gnb = basic_gnb();
        let s = gnb.add_slice(SliceConfig::best_effort("s"), Box::new(Overclaimer));
        gnb.add_ue(s, Box::new(StaticChannel::new(15)), Box::new(FullBuffer));
        gnb.add_ue(s, Box::new(StaticChannel::new(15)), Box::new(FullBuffer));
        gnb.run_seconds(1.0);
        // Throughput can never exceed carrier capacity despite the 10× claim.
        let total: f64 = gnb.metrics().slice_mean_mbps(s);
        assert!(total < 50.0, "total {total}");
        // Utilization is bounded at 1.
        for u in gnb.metrics().utilization_series() {
            assert!(*u <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn determinism_same_seed() {
        let run = |seed: u64| {
            let mut gnb = Gnb::new(GnbConfig {
                seed,
                ..GnbConfig::default()
            });
            let s = gnb.add_slice(
                SliceConfig::best_effort("s"),
                Box::new(ProportionalFair::new()),
            );
            let ue = gnb.add_ue(
                s,
                Box::new(crate::channel::MarkovFadingChannel::good()),
                Box::new(FullBuffer),
            );
            gnb.run(2000);
            (gnb.metrics().ue_mean_mbps(ue) * 1e6) as u64
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn background_plane_serves_rotates_and_conserves() {
        use crate::massive::{BackgroundSliceSpec, MassiveConfig, MassivePlane};
        let mut gnb = basic_gnb();
        let s = gnb.add_slice(SliceConfig::best_effort("bg"), Box::new(RoundRobin::new()));
        let plane = MassivePlane::new(
            MassiveConfig {
                seed: 7,
                foreground_quota: 2,
                rotation_period_slots: 100,
                ..MassiveConfig::default()
            },
            &[BackgroundSliceSpec {
                slice_id: s,
                population: 500,
                per_ue_rate_bps: 16_000.0,
                burst_bytes: 0.0,
            }],
        );
        gnb.attach_background(plane);
        assert_eq!(gnb.slice_ues(s).len(), 2, "initial promotion fill");
        gnb.run_seconds(2.0);
        let snap = gnb.background().unwrap().snapshot()[0];
        // Rotation churned through the population (20 rotations × 2).
        assert!(snap.promotions > 20, "promotions {}", snap.promotions);
        assert!(snap.demotions > 18, "demotions {}", snap.demotions);
        assert_eq!(snap.promoted, 2);
        assert_eq!(snap.active + snap.promoted, 500);
        assert!(snap.offered_bytes > 0);
        assert!(snap.scheduled_bytes > 0);
        // 500 UEs × 16 kb/s = 8 Mb/s offered, well under carrier
        // capacity: the slice mean (foreground + aggregate deliveries)
        // lands near the offered rate.
        let rate = gnb.metrics().slice_mean_mbps(s);
        assert!(rate > 6.0 && rate < 9.0, "rate {rate}");
    }

    #[test]
    fn background_plane_is_deterministic() {
        use crate::massive::{BackgroundSliceSpec, MassiveConfig, MassivePlane};
        let run = || {
            let mut gnb = basic_gnb();
            let s = gnb.add_slice(SliceConfig::best_effort("bg"), Box::new(RoundRobin::new()));
            gnb.attach_background(MassivePlane::new(
                MassiveConfig {
                    seed: 11,
                    ..MassiveConfig::default()
                },
                &[BackgroundSliceSpec {
                    slice_id: s,
                    population: 300,
                    per_ue_rate_bps: 32_000.0,
                    burst_bytes: 600.0,
                }],
            ));
            gnb.run_seconds(1.0);
            gnb.background().unwrap().snapshot()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn empty_gnb_steps_safely() {
        let mut gnb = basic_gnb();
        gnb.run(100);
        assert_eq!(gnb.slot(), 100);
    }

    #[test]
    fn slice_with_no_traffic_uses_no_prbs() {
        let mut gnb = basic_gnb();
        let s = gnb.add_slice(
            SliceConfig::best_effort("idle"),
            Box::new(RoundRobin::new()),
        );
        gnb.add_ue(s, Box::new(StaticChannel::new(12)), Box::new(Cbr::new(0.0)));
        gnb.run_seconds(1.0);
        assert_eq!(gnb.metrics().slice_mean_mbps(s), 0.0);
        for u in gnb.metrics().utilization_series() {
            assert_eq!(*u, 0.0);
        }
    }
}
