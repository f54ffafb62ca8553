//! The massive-UE traffic plane: struct-of-arrays background state plus
//! statistical aggregate flows, scaling one cell from tens of UEs to
//! thousands (and a 500-cell deployment to a million).
//!
//! # Two-tier fidelity
//!
//! The gNB keeps a small **foreground** set per slice simulated exactly
//! as before — boxed channel/traffic models, per-slot scheduling,
//! mobility, A3 events. Everything else lives in this plane's
//! **background** tier: per-UE state packed into contiguous `Vec`s
//! (buffer depth, CQI, MCS, shadowing, base SNR, position) and offered
//! traffic multiplexed into one [`FleetTraffic`] aggregate per slice —
//! a single distribution draw per slot no matter how many UEs are
//! multiplexed, conserving the fleet's mean rate.
//!
//! Background buffers are served from the PRBs left over after the
//! foreground schedule of the owning slice, at the background tier's
//! own per-entry MCS, so aggregate counters (offered / scheduled /
//! dropped bytes) are physically meaningful.
//!
//! # Deterministic promotion / demotion
//!
//! Every `rotation_period_slots` the gNB rotates which background UEs
//! get foreground fidelity: the longest-promoted UEs (FIFO) are demoted
//! back into their SoA rows and the next `foreground_quota` entries at
//! the promotion cursor are materialized as real `UeState`s with a
//! [`PinnedChannel`]. Both directions are pure functions of the cell
//! seed and the slot number — never of wall clock, worker id or lock
//! order — so per-cell digests stay bit-identical across worker counts.
//! Promoted UEs are position-bearing and can hand over; a promoted UE
//! that leaves the cell is tombstoned ([`EntryState::Departed`]) rather
//! than compacted, keeping every recorded index stable. The destination
//! cell absorbs such arrivals into its own plane (see
//! `Gnb::admit_ue`), which appends a fresh SoA row.
//!
//! A deployment sets only what [`MassiveConfig`] holds; every setting with
//! one value (strides, buffer ceiling, [`CELL_RADIUS_M`]) is a constant.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::channel::{path_loss_snr_db, sample_gaussian, snr_to_cqi, PinnedChannel};
use crate::phy::{bits_per_prb, cqi_to_mcs};
use crate::traffic::{Cbr, FleetTraffic, PoissonPackets, TrafficSource};
use crate::ue::UeState;

/// Shadowing σ for background entries, dB (matches [`PinnedChannel`]).
const SHADOW_SIGMA_DB: f64 = 3.0;
/// Shadowing AR(1) coefficient (matches [`PinnedChannel`]).
const SHADOW_RHO: f64 = 0.98;

/// Background UEs are placed uniformly in a square of this half-width
/// around the serving site, meters, in the per-UE population model too.
/// The shared link budget ([`path_loss_snr_db`]: 38 dB at 10 m,
/// −35 dB/decade) puts the cell edge near 500 m; 100 m keeps a dense
/// background population in the small-cell regime where the carrier can
/// actually serve it.
pub const CELL_RADIUS_M: f64 = 100.0;

/// Active rows the per-slot aggregate arrival is spread over.
const ARRIVAL_STRIDE: usize = 64;

/// Rows whose channel is resampled per slot (round-robin).
const RESAMPLE_STRIDE: usize = 64;

/// Per-row buffer ceiling, bytes.
const MAX_BUFFER_BYTES: u64 = 1 << 20;

/// Lifecycle of one SoA row. Rows are never compacted (`swap_remove`
/// would invalidate the indices held by the promotion FIFO); they move
/// between states instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryState {
    /// Multiplexed into the aggregate flow and served from leftovers.
    Active,
    /// Currently materialized as a foreground `UeState`.
    Promoted,
    /// Left the cell while promoted (handover); row is a tombstone.
    Departed,
}

/// Static configuration of a cell's massive plane.
#[derive(Debug, Clone, Copy)]
pub struct MassiveConfig {
    /// Seed for the plane's own RNG and the deterministic SoA layout.
    pub seed: u64,
    /// Background UEs held at foreground fidelity per slice.
    pub foreground_quota: u32,
    /// Promote/demote every this many slots (0 = never rotate after the
    /// initial fill).
    pub rotation_period_slots: u64,
    /// Serving-site position, meters; background UEs are placed within
    /// [`CELL_RADIUS_M`] of it.
    pub cell_pos: [f64; 2],
    /// First background UE id (must not collide with foreground ids).
    pub first_ue_id: u32,
}

impl Default for MassiveConfig {
    fn default() -> Self {
        MassiveConfig {
            seed: 0,
            foreground_quota: 2,
            rotation_period_slots: 100,
            cell_pos: [0.0, 0.0],
            first_ue_id: 1_000_000,
        }
    }
}

/// Declarative description of one slice's background population.
#[derive(Debug, Clone, Copy)]
pub struct BackgroundSliceSpec {
    /// Slice id this population belongs to.
    pub slice_id: u32,
    /// Number of background UEs.
    pub population: u32,
    /// Mean offered rate per UE, bit/s.
    pub per_ue_rate_bps: f64,
    /// Burst granularity in bytes (0 → smooth CBR fleet).
    pub burst_bytes: f64,
}

/// Per-slice counters surfaced into reports and digests.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BackgroundSliceSnapshot {
    /// Slice id.
    pub slice_id: u32,
    /// Total SoA rows (initial population + absorbed arrivals).
    pub population: u32,
    /// Rows currently multiplexed into the aggregate.
    pub active: u32,
    /// Rows currently materialized as foreground UEs.
    pub promoted: u32,
    /// Tombstoned rows (left the cell while promoted).
    pub departed: u32,
    /// Bytes offered by the aggregate flow.
    pub offered_bytes: u64,
    /// Bytes drained from background buffers by leftover-PRB service.
    pub scheduled_bytes: u64,
    /// Bytes dropped at per-entry buffer ceilings.
    pub dropped_bytes: u64,
    /// Bytes currently buffered across active rows.
    pub buffered_bytes: u64,
    /// Lifetime promotions out of the background tier.
    pub promotions: u64,
    /// Lifetime demotions back into the background tier.
    pub demotions: u64,
    /// Promoted UEs that handed over away while promoted.
    pub lost_to_handover: u64,
    /// UEs absorbed from other cells' planes.
    pub absorbed: u64,
}

/// One slice's background population in struct-of-arrays form.
struct BgSlice {
    slice_id: u32,
    per_ue_rate_bps: f64,
    burst_bytes: f64,
    // --- SoA columns (parallel, never compacted) ---
    ue_id: Vec<u32>,
    buffer_bytes: Vec<u64>,
    cqi: Vec<u8>,
    mcs: Vec<u8>,
    shadow_db: Vec<f64>,
    base_snr_db: Vec<f64>,
    pos: Vec<[f64; 2]>,
    state: Vec<EntryState>,
    // --- incremental aggregates over Active rows ---
    buffer_total: u64,
    sum_prb_bits: u64,
    active: u32,
    fleet: FleetTraffic,
    // --- cursors (round-robin fairness + batch strides) ---
    arrival_cursor: usize,
    service_cursor: usize,
    resample_cursor: usize,
    promote_cursor: usize,
    /// Promoted rows, oldest first: `(row index, ue_id)`.
    promoted_fifo: VecDeque<(usize, u32)>,
    // --- lifetime counters ---
    offered_bytes: u64,
    scheduled_bytes: u64,
    dropped_bytes: u64,
    promotions: u64,
    demotions: u64,
    lost_to_handover: u64,
    absorbed: u64,
}

impl BgSlice {
    fn len(&self) -> usize {
        self.state.len()
    }

    /// Recompute an entry's CQI/MCS from base SNR + shadowing, keeping
    /// the `sum_prb_bits` aggregate in sync for Active rows.
    fn refresh_link(&mut self, i: usize) {
        let was = bits_per_prb(self.mcs[i]) as u64;
        self.cqi[i] = snr_to_cqi(self.base_snr_db[i] + self.shadow_db[i]);
        self.mcs[i] = cqi_to_mcs(self.cqi[i]);
        if self.state[i] == EntryState::Active {
            let now = bits_per_prb(self.mcs[i]) as u64;
            self.sum_prb_bits = self.sum_prb_bits - was + now;
        }
    }
}

/// The per-cell massive traffic plane. Owned by a `Gnb` (behind the
/// `PopulationModel::TwoTier` config seam); all operations are
/// deterministic given the construction seed and the slot sequence.
pub struct MassivePlane {
    config: MassiveConfig,
    rng: StdRng,
    slices: Vec<BgSlice>,
}

/// SplitMix64's increment: `splitmix64(s + k·SPLITMIX64_GAMMA)` is output
/// `k`, counting from 0, of the SplitMix64 stream seeded `s`.
pub const SPLITMIX64_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// One SplitMix64 step: the workspace's one seed-derivation mixer, used
/// wherever a layer needs decorrelated deterministic sub-seeds (per cell,
/// per UE, per background row) as a pure function of its inputs.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(SPLITMIX64_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Map a hash to a uniform f64 in [0, 1): its top 53 bits.
pub fn unit_f64(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Where background UE `i` of the population keyed `slice_key` stands,
/// as an offset from its cell site, uniform within ±[`CELL_RADIUS_M`] on
/// each axis: a pure function of `(seed, slice_key, i)`. The per-UE
/// ground truth and [`MassivePlane::new`] place their rows with it.
pub fn background_offset(seed: u64, slice_key: u64, i: u64) -> [f64; 2] {
    let h = splitmix64(seed ^ splitmix64(((slice_key + 1) << 32) ^ (i + 1)));
    let hx = splitmix64(h);
    let hy = splitmix64(hx);
    [
        (unit_f64(hx) * 2.0 - 1.0) * CELL_RADIUS_M,
        (unit_f64(hy) * 2.0 - 1.0) * CELL_RADIUS_M,
    ]
}

/// The row after `i` in a cursor walk over `len` rows, wrapping to 0. A
/// compare, not a division: this steps every row loop in the plane.
#[inline]
fn next_row(i: usize, len: usize) -> usize {
    let next = i + 1;
    if next == len {
        0
    } else {
        next
    }
}

impl MassivePlane {
    /// Build the plane: lay out every background UE deterministically
    /// from the seed (position → path-loss SNR → initial CQI/MCS).
    pub fn new(config: MassiveConfig, specs: &[BackgroundSliceSpec]) -> Self {
        let mut slices = Vec::with_capacity(specs.len());
        let mut next_id = config.first_ue_id;
        for (si, spec) in specs.iter().enumerate() {
            let n = spec.population as usize;
            let mut s = BgSlice {
                slice_id: spec.slice_id,
                per_ue_rate_bps: spec.per_ue_rate_bps,
                burst_bytes: spec.burst_bytes,
                ue_id: Vec::with_capacity(n),
                buffer_bytes: vec![0; n],
                cqi: Vec::with_capacity(n),
                mcs: Vec::with_capacity(n),
                shadow_db: vec![0.0; n],
                base_snr_db: Vec::with_capacity(n),
                pos: Vec::with_capacity(n),
                state: vec![EntryState::Active; n],
                buffer_total: 0,
                sum_prb_bits: 0,
                active: spec.population,
                fleet: FleetTraffic::new(
                    spec.population as u64,
                    spec.per_ue_rate_bps,
                    spec.burst_bytes,
                ),
                arrival_cursor: 0,
                service_cursor: 0,
                resample_cursor: 0,
                promote_cursor: 0,
                promoted_fifo: VecDeque::new(),
                offered_bytes: 0,
                scheduled_bytes: 0,
                dropped_bytes: 0,
                promotions: 0,
                demotions: 0,
                lost_to_handover: 0,
                absorbed: 0,
            };
            for i in 0..n {
                let [ox, oy] = background_offset(config.seed, si as u64, i as u64);
                let x = config.cell_pos[0] + ox;
                let y = config.cell_pos[1] + oy;
                let dx = x - config.cell_pos[0];
                let dy = y - config.cell_pos[1];
                let snr = path_loss_snr_db((dx * dx + dy * dy).sqrt());
                let cqi = snr_to_cqi(snr);
                let mcs = cqi_to_mcs(cqi);
                s.ue_id.push(next_id);
                next_id += 1;
                s.cqi.push(cqi);
                s.mcs.push(mcs);
                s.base_snr_db.push(snr);
                s.pos.push([x, y]);
                s.sum_prb_bits += bits_per_prb(mcs) as u64;
            }
            slices.push(s);
        }
        MassivePlane {
            rng: StdRng::seed_from_u64(splitmix64(config.seed ^ 0x6d61_7373_6976_6531)),
            config,
            slices,
        }
    }

    /// Number of background slices.
    pub fn slice_count(&self) -> usize {
        self.slices.len()
    }

    /// Index of the background population for `slice_id`, if any.
    pub fn slice_index(&self, slice_id: u32) -> Option<usize> {
        self.slices.iter().position(|s| s.slice_id == slice_id)
    }

    /// Slice id at plane index `si`.
    pub fn slice_id(&self, si: usize) -> u32 {
        self.slices[si].slice_id
    }

    /// Foreground promotion quota per slice.
    pub fn foreground_quota(&self) -> u32 {
        self.config.foreground_quota
    }

    /// Rotation period in slots (0 = initial fill only).
    pub fn rotation_period_slots(&self) -> u64 {
        self.config.rotation_period_slots
    }

    /// Currently promoted row count for plane index `si`.
    pub fn promoted_count(&self, si: usize) -> usize {
        self.slices[si].promoted_fifo.len()
    }

    /// Start-of-slot batch update: one aggregate draw per slice spread
    /// over `ARRIVAL_STRIDE` active rows, then AR(1) channel resampling
    /// of the next `RESAMPLE_STRIDE` rows. O(strides), not O(population).
    pub fn begin_slot(&mut self, slot: u64, slot_seconds: f64) {
        let MassivePlane { rng, slices, .. } = self;
        for s in slices.iter_mut() {
            // Aggregate arrival.
            let offered = s.fleet.bytes_for_slot(slot, slot_seconds, rng);
            s.offered_bytes += offered;
            if s.active > 0 && offered > 0 {
                let targets = ARRIVAL_STRIDE.min(s.active as usize);
                let per = offered / targets as u64;
                let mut extra = offered - per * targets as u64;
                let len = s.len();
                let mut filled = 0usize;
                let mut scanned = 0usize;
                let mut i = s.arrival_cursor % len.max(1);
                while filled < targets && scanned < len {
                    if s.state[i] == EntryState::Active {
                        let mut amount = per;
                        if extra > 0 {
                            amount += extra;
                            extra = 0;
                        }
                        let room = MAX_BUFFER_BYTES.saturating_sub(s.buffer_bytes[i]);
                        let accepted = amount.min(room);
                        s.buffer_bytes[i] += accepted;
                        s.buffer_total += accepted;
                        s.dropped_bytes += amount - accepted;
                        filled += 1;
                    }
                    i = next_row(i, len);
                    scanned += 1;
                }
                s.arrival_cursor = i;
            }
            // Batched channel resampling.
            if s.active > 0 {
                let len = s.len();
                let budget = RESAMPLE_STRIDE.min(len);
                let mut i = s.resample_cursor % len;
                for _ in 0..budget {
                    if s.state[i] != EntryState::Departed {
                        let noise = sample_gaussian(rng) * SHADOW_SIGMA_DB;
                        s.shadow_db[i] = SHADOW_RHO * s.shadow_db[i]
                            + (1.0 - SHADOW_RHO * SHADOW_RHO).sqrt() * noise;
                        s.refresh_link(i);
                    }
                    i = next_row(i, len);
                }
                s.resample_cursor = i;
            }
        }
    }

    /// Backlogged demand of plane index `si`: `(demand_bits,
    /// mean_prb_bits)` in the same units the inter-slice allocator sees
    /// from foreground UEs.
    pub fn demand(&self, si: usize) -> (u64, f64) {
        let s = &self.slices[si];
        let mean = if s.active == 0 {
            0.0
        } else {
            s.sum_prb_bits as f64 / s.active as f64
        };
        (s.buffer_total * 8, mean)
    }

    /// Serve plane index `si` with up to `prbs` leftover PRBs,
    /// round-robin from the service cursor at each row's own MCS.
    /// Returns `(delivered_bits, prbs_used)`.
    pub fn serve(&mut self, si: usize, prbs: u32) -> (u64, u32) {
        let s = &mut self.slices[si];
        if prbs == 0 || s.buffer_total == 0 {
            return (0, 0);
        }
        let len = s.len();
        let mut prbs_left = prbs;
        let mut delivered_bits = 0u64;
        let mut i = s.service_cursor % len;
        for _ in 0..len {
            if prbs_left == 0 {
                break;
            }
            if s.state[i] == EntryState::Active && s.buffer_bytes[i] > 0 {
                let per_prb = bits_per_prb(s.mcs[i]) as u64;
                let cap_bits = prbs_left as u64 * per_prb;
                let buffered_bits = s.buffer_bytes[i] * 8;
                let bits = cap_bits.min(buffered_bits);
                let drained = bits.div_ceil(8).min(s.buffer_bytes[i]);
                s.buffer_bytes[i] -= drained;
                s.buffer_total -= drained;
                s.scheduled_bytes += drained;
                delivered_bits += bits;
                prbs_left -= (bits.div_ceil(per_prb) as u32).min(prbs_left);
            }
            i = next_row(i, len);
        }
        s.service_cursor = i;
        (delivered_bits, prbs - prbs_left)
    }

    /// Oldest promoted UE of plane index `si`, if any — the demotion
    /// candidate for this rotation.
    pub fn demote_candidate(&self, si: usize) -> Option<u32> {
        self.slices[si].promoted_fifo.front().map(|&(_, id)| id)
    }

    /// Finish demoting `ue_id`: fold the returned foreground state back
    /// into its SoA row, or tombstone the row when the UE is gone
    /// (handed over away while promoted).
    pub fn complete_demotion(&mut self, si: usize, ue_id: u32, ue: Option<UeState>) {
        let s = &mut self.slices[si];
        let Some(&(row, fifo_id)) = s.promoted_fifo.front() else {
            return;
        };
        debug_assert_eq!(fifo_id, ue_id);
        s.promoted_fifo.pop_front();
        match ue {
            Some(ue) => {
                let buf = ue.buffer_bytes.min(MAX_BUFFER_BYTES);
                s.state[row] = EntryState::Active;
                s.buffer_bytes[row] = buf;
                s.buffer_total += buf;
                s.cqi[row] = ue.cqi.max(1);
                s.mcs[row] = ue.mcs;
                s.sum_prb_bits += bits_per_prb(s.mcs[row]) as u64;
                s.active += 1;
                s.demotions += 1;
            }
            None => {
                s.state[row] = EntryState::Departed;
                s.lost_to_handover += 1;
            }
        }
        s.fleet.set_active_ues(s.active as u64);
    }

    /// Materialize the next active row of plane index `si` as a
    /// foreground `UeState` (PinnedChannel + per-UE source matching the
    /// fleet parametrization). Returns `(slice_id, ue)`; the caller
    /// admits it and must call [`MassivePlane::abort_promotion`] if
    /// admission fails.
    pub fn prepare_promotion(&mut self, si: usize) -> Option<(u32, UeState)> {
        let cell_pos = self.config.cell_pos;
        let s = &mut self.slices[si];
        if s.active == 0 {
            return None;
        }
        let len = s.len();
        let mut i = s.promote_cursor % len;
        for _ in 0..len {
            if s.state[i] == EntryState::Active {
                break;
            }
            i = next_row(i, len);
        }
        if s.state[i] != EntryState::Active {
            return None;
        }
        s.promote_cursor = next_row(i, len);
        s.state[i] = EntryState::Promoted;
        s.active -= 1;
        s.buffer_total -= s.buffer_bytes[i];
        s.sum_prb_bits -= bits_per_prb(s.mcs[i]) as u64;
        s.fleet.set_active_ues(s.active as u64);
        s.promotions += 1;
        s.promoted_fifo.push_back((i, s.ue_id[i]));
        let traffic: Box<dyn TrafficSource> = if s.burst_bytes > 0.0 {
            Box::new(PoissonPackets::new(
                s.per_ue_rate_bps / (8.0 * s.burst_bytes),
                s.burst_bytes as u64,
            ))
        } else {
            Box::new(Cbr::new(s.per_ue_rate_bps))
        };
        let mut ue = UeState::new(
            s.ue_id[i],
            Box::new(PinnedChannel::new(s.pos[i], cell_pos, s.shadow_db[i])),
            traffic,
        );
        ue.buffer_bytes = s.buffer_bytes[i];
        ue.cqi = s.cqi[i];
        ue.mcs = s.mcs[i];
        ue.max_buffer_bytes = MAX_BUFFER_BYTES;
        s.buffer_bytes[i] = 0;
        Some((s.slice_id, ue))
    }

    /// Roll back the most recent [`MassivePlane::prepare_promotion`]
    /// (admission failed): restore the row to Active.
    pub fn abort_promotion(&mut self, si: usize, ue: UeState) {
        let s = &mut self.slices[si];
        let Some((row, id)) = s.promoted_fifo.pop_back() else {
            return;
        };
        debug_assert_eq!(id, ue.ue_id);
        s.state[row] = EntryState::Active;
        s.buffer_bytes[row] = ue.buffer_bytes.min(MAX_BUFFER_BYTES);
        s.buffer_total += s.buffer_bytes[row];
        s.sum_prb_bits += bits_per_prb(s.mcs[row]) as u64;
        s.active += 1;
        s.promotions -= 1;
        s.fleet.set_active_ues(s.active as u64);
    }

    /// Absorb a pinned UE arriving by handover from another cell's
    /// plane: append a fresh SoA row for it. Returns `false` when no
    /// background population exists for `slice_id`.
    pub fn absorb(&mut self, slice_id: u32, ue: &UeState) -> bool {
        let Some(si) = self.slice_index(slice_id) else {
            return false;
        };
        let cell_pos = self.config.cell_pos;
        let s = &mut self.slices[si];
        let pos = ue.channel.position().unwrap_or(cell_pos);
        let dx = pos[0] - cell_pos[0];
        let dy = pos[1] - cell_pos[1];
        let snr = path_loss_snr_db((dx * dx + dy * dy).sqrt());
        let cqi = ue.cqi.max(1);
        let mcs = ue.mcs;
        let buf = ue.buffer_bytes.min(MAX_BUFFER_BYTES);
        s.ue_id.push(ue.ue_id);
        s.buffer_bytes.push(buf);
        s.cqi.push(cqi);
        s.mcs.push(mcs);
        s.shadow_db.push(0.0);
        s.base_snr_db.push(snr);
        s.pos.push(pos);
        s.state.push(EntryState::Active);
        s.buffer_total += buf;
        s.sum_prb_bits += bits_per_prb(mcs) as u64;
        s.active += 1;
        s.absorbed += 1;
        s.fleet.set_active_ues(s.active as u64);
        true
    }

    /// Per-slice counters for reports and digests.
    pub fn snapshot(&self) -> Vec<BackgroundSliceSnapshot> {
        self.slices
            .iter()
            .map(|s| BackgroundSliceSnapshot {
                slice_id: s.slice_id,
                population: s.len() as u32,
                active: s.active,
                promoted: s.promoted_fifo.len() as u32,
                departed: s
                    .state
                    .iter()
                    .filter(|&&st| st == EntryState::Departed)
                    .count() as u32,
                offered_bytes: s.offered_bytes,
                scheduled_bytes: s.scheduled_bytes,
                dropped_bytes: s.dropped_bytes,
                buffered_bytes: s.buffer_total,
                promotions: s.promotions,
                demotions: s.demotions,
                lost_to_handover: s.lost_to_handover,
                absorbed: s.absorbed,
            })
            .collect()
    }
}

impl std::fmt::Debug for MassivePlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MassivePlane")
            .field("slices", &self.slices.len())
            .field(
                "population",
                &self.slices.iter().map(|s| s.len()).sum::<usize>(),
            )
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SLOT: f64 = 0.001;

    fn plane(pop: u32, rate: f64, burst: f64) -> MassivePlane {
        MassivePlane::new(
            MassiveConfig {
                seed: 42,
                foreground_quota: 2,
                rotation_period_slots: 50,
                ..MassiveConfig::default()
            },
            &[BackgroundSliceSpec {
                slice_id: 0,
                population: pop,
                per_ue_rate_bps: rate,
                burst_bytes: burst,
            }],
        )
    }

    #[test]
    fn layout_is_deterministic() {
        let a = plane(500, 16_000.0, 0.0);
        let b = plane(500, 16_000.0, 0.0);
        assert_eq!(a.slices[0].pos, b.slices[0].pos);
        assert_eq!(a.slices[0].cqi, b.slices[0].cqi);
        assert_eq!(a.slices[0].ue_id, b.slices[0].ue_id);
    }

    #[test]
    fn offered_matches_fleet_mean_and_service_drains() {
        let mut p = plane(1000, 16_000.0, 0.0);
        let mut served = 0u64;
        for slot in 0..5000 {
            p.begin_slot(slot, SLOT);
            let (bits, _prbs) = p.serve(0, 40);
            served += bits;
        }
        let snap = &p.snapshot()[0];
        let expected = 1000.0 * 16_000.0 * 5.0 / 8.0;
        assert!(
            (snap.offered_bytes as f64 - expected).abs() < expected * 0.01,
            "offered {} expected {expected}",
            snap.offered_bytes
        );
        // Conservation: offered = scheduled + dropped + still buffered.
        assert_eq!(
            snap.offered_bytes,
            snap.scheduled_bytes + snap.dropped_bytes + snap.buffered_bytes
        );
        assert!(served > 0);
    }

    #[test]
    fn demand_tracks_buffers() {
        let mut p = plane(100, 64_000.0, 0.0);
        p.begin_slot(0, SLOT);
        let (bits, mean_prb) = p.demand(0);
        assert!(bits > 0);
        assert!(mean_prb > 0.0);
        let before = bits;
        p.serve(0, 52);
        let (after, _) = p.demand(0);
        assert!(after < before);
    }

    #[test]
    fn promotion_demotion_round_trip_conserves_population() {
        let mut p = plane(50, 16_000.0, 0.0);
        for slot in 0..10 {
            p.begin_slot(slot, SLOT);
        }
        let (slice_id, ue) = p.prepare_promotion(0).unwrap();
        assert_eq!(slice_id, 0);
        assert_eq!(p.promoted_count(0), 1);
        assert_eq!(p.snapshot()[0].active, 49);
        let id = ue.ue_id;
        assert_eq!(p.demote_candidate(0), Some(id));
        p.complete_demotion(0, id, Some(ue));
        let snap = &p.snapshot()[0];
        assert_eq!(snap.active, 50);
        assert_eq!(snap.promotions, 1);
        assert_eq!(snap.demotions, 1);
        assert_eq!(p.promoted_count(0), 0);
    }

    #[test]
    fn departed_promoted_ue_is_tombstoned() {
        let mut p = plane(10, 16_000.0, 0.0);
        let (_, ue) = p.prepare_promotion(0).unwrap();
        p.complete_demotion(0, ue.ue_id, None);
        let snap = &p.snapshot()[0];
        assert_eq!(snap.active, 9);
        assert_eq!(snap.departed, 1);
        assert_eq!(snap.lost_to_handover, 1);
        // Tombstones never come back: promote the remaining 9 fine.
        for _ in 0..9 {
            assert!(p.prepare_promotion(0).is_some());
        }
        assert!(p.prepare_promotion(0).is_none());
    }

    #[test]
    fn abort_promotion_restores_row() {
        let mut p = plane(5, 16_000.0, 0.0);
        p.begin_slot(0, SLOT);
        let before = p.snapshot()[0];
        let (_, ue) = p.prepare_promotion(0).unwrap();
        p.abort_promotion(0, ue);
        let after = p.snapshot()[0];
        assert_eq!(before, after);
    }

    #[test]
    fn absorb_appends_row() {
        let mut p = plane(5, 16_000.0, 0.0);
        let ue = UeState::new(
            999_999,
            Box::new(PinnedChannel::new([100.0, 0.0], [0.0, 0.0], 0.0)),
            Box::new(Cbr::new(16_000.0)),
        );
        assert!(p.absorb(0, &ue));
        let snap = &p.snapshot()[0];
        assert_eq!(snap.population, 6);
        assert_eq!(snap.active, 6);
        assert_eq!(snap.absorbed, 1);
        assert!(!p.absorb(7, &ue), "unknown slice");
    }

    #[test]
    fn bursty_plane_conserves_over_long_horizon() {
        let mut p = plane(200, 32_000.0, 1200.0);
        for slot in 0..20_000 {
            p.begin_slot(slot, SLOT);
            p.serve(0, 52);
        }
        let snap = &p.snapshot()[0];
        let expected = 200.0 * 32_000.0 * 20.0 / 8.0;
        assert!(
            (snap.offered_bytes as f64 - expected).abs() < expected * 0.05,
            "offered {} expected {expected}",
            snap.offered_bytes
        );
    }
}
