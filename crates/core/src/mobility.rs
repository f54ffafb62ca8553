//! Cross-cell mobility: A3 measurement events, handover state machines
//! and the deterministic inter-cell exchange protocol.
//!
//! The subsystem turns the sharded multi-cell engine's fully independent
//! cells into a deployment UEs can roam across, without giving up the
//! worker-count-independence guarantee:
//!
//! * [`CellLayout`] places cells on a square grid and owns the shared
//!   link-budget geometry ([`path_loss_snr_db`]) — a *measured* neighbor
//!   SNR and the SNR a UE actually sees after handover agree by
//!   construction.
//! * [`CellMobility`] runs per-cell A3-style events at every exchange
//!   boundary: `neighbor > serving +` [`A3_HYSTERESIS_DB`] for `ttt_windows`
//!   consecutive boundaries triggers a departure; a post-handover hold
//!   suppresses ping-pong. RIC-commanded handovers enter the same path
//!   through [`CellMobility::queue_forced`].
//! * Departures travel as [`Departure`]s carrying a [`HandoverMsg`] key.
//!   The engine admits a whole window's worth at the next boundary in
//!   [`HandoverMsg::admission_key`] order `(slot, src_cell, ue_id)` — a
//!   total order over any one window's messages (a UE departs at most
//!   once per boundary), so the admission sequence is independent of the
//!   arrival order in which worker threads collected them.
//!
//! Measurements are pure functions of UE position and cell geometry
//! (path loss only — shadowing stays inside the UE's own channel), and a
//! mobile UE's trajectory is self-seeded, so nothing about migration
//! perturbs any cell's RNG stream.
//!
//! Under the two-tier population model
//! ([`crate::scenario::PopulationModel::TwoTier`]) this subsystem needs
//! no special cases: a background UE promoted to foreground fidelity
//! carries a position-bearing `PinnedChannel`, so it is A3-eligible like
//! any other UE. When such a UE hands over, the destination gNB's
//! `admit_ue` routes it into that cell's own massive plane when one
//! exists for the slice (an *absorption* — the UE rejoins the aggregate
//! tier there); otherwise it is admitted as a regular foreground UE. Its
//! home plane tombstones the vacated row (`lost_to_handover`), keeping
//! every plane's population ledger exact under churn.

use std::collections::HashMap;
use std::sync::Arc;

use waran_ransim::channel::path_loss_snr_db;
use waran_ransim::ue::UeState;

use crate::scenario::Scenario;

/// Positions of every cell site in a deployment, on a square grid.
#[derive(Debug, Clone)]
pub struct CellLayout {
    positions: Vec<[f64; 2]>,
    isd_m: f64,
}

impl CellLayout {
    /// `n_cells` sites on a `ceil(sqrt(n))`-column grid with the given
    /// inter-site distance (meters).
    pub fn grid(n_cells: usize, isd_m: f64) -> Self {
        let isd = isd_m.max(1.0);
        let cols = (n_cells.max(1) as f64).sqrt().ceil() as usize;
        let positions = (0..n_cells.max(1))
            .map(|i| [(i % cols) as f64 * isd, (i / cols) as f64 * isd])
            .collect();
        CellLayout {
            positions,
            isd_m: isd,
        }
    }

    /// Number of sites.
    pub fn num_cells(&self) -> usize {
        self.positions.len()
    }

    /// Inter-site distance, meters.
    pub fn isd_m(&self) -> f64 {
        self.isd_m
    }

    /// Position of a site, meters.
    pub fn pos(&self, cell: usize) -> [f64; 2] {
        self.positions[cell]
    }

    /// Deployment-area bounds `[min_x, min_y, max_x, max_y]`: the grid's
    /// bounding box padded by half the inter-site distance, so UEs can
    /// roam past edge sites without leaving the area.
    pub fn area(&self) -> [f64; 4] {
        let pad = self.isd_m / 2.0;
        let mut area = [f64::MAX, f64::MAX, f64::MIN, f64::MIN];
        for p in &self.positions {
            area[0] = area[0].min(p[0]);
            area[1] = area[1].min(p[1]);
            area[2] = area[2].max(p[0]);
            area[3] = area[3].max(p[1]);
        }
        [area[0] - pad, area[1] - pad, area[2] + pad, area[3] + pad]
    }

    /// Path-loss SNR (dB) a UE at `ue_pos` measures from `cell` — the
    /// shadowing-free measurement quantity A3 events compare.
    pub fn snr_db(&self, cell: usize, ue_pos: [f64; 2]) -> f64 {
        let p = self.positions[cell];
        let (dx, dy) = (ue_pos[0] - p[0], ue_pos[1] - p[1]);
        path_loss_snr_db((dx * dx + dy * dy).sqrt())
    }

    /// Strongest neighbor of `serving` as seen from `ue_pos`:
    /// `(cell, snr_db)`. Ties break toward the lowest cell id —
    /// deterministic. `None` in a single-cell layout.
    pub fn best_neighbor(&self, serving: usize, ue_pos: [f64; 2]) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for i in 0..self.positions.len() {
            if i == serving {
                continue;
            }
            let snr = self.snr_db(i, ue_pos);
            if best.is_none_or(|(_, b)| snr > b) {
                best = Some((i, snr));
            }
        }
        best
    }
}

/// A3 hysteresis: a neighbor must beat the serving cell by this margin, dB.
pub const A3_HYSTERESIS_DB: f64 = 3.0;

/// A3 event parameters (3GPP TS 38.331 §5.5.4.4, scaled to exchange
/// windows instead of milliseconds). The margin is [`A3_HYSTERESIS_DB`].
#[derive(Debug, Clone, Copy)]
pub struct A3Config {
    /// Consecutive exchange windows the condition must hold
    /// (time-to-trigger).
    pub(crate) ttt_windows: u32,
    /// Windows after admission during which a fresh handover is
    /// suppressed (ping-pong guard).
    pub(crate) hold_windows: u32,
}

impl Default for A3Config {
    fn default() -> Self {
        A3Config {
            ttt_windows: 2,
            hold_windows: 3,
        }
    }
}

/// Per-UE A3 trigger state.
#[derive(Debug, Clone, Copy, Default)]
struct A3State {
    /// Current best-neighbor candidate.
    candidate: usize,
    /// Consecutive windows the A3 condition held for `candidate`.
    streak: u32,
    /// Remaining post-handover hold windows.
    hold: u32,
}

/// The inter-cell handover message: the key half of a [`Departure`],
/// also what the engine's admission ordering is defined over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HandoverMsg {
    /// Slot at which the source cell released the UE.
    pub slot: u64,
    /// Releasing cell.
    pub src_cell: u32,
    /// Admitting cell.
    pub dst_cell: u32,
    /// The UE in flight.
    pub ue_id: u32,
    /// True when RIC-commanded rather than A3-triggered.
    pub forced: bool,
}

impl HandoverMsg {
    /// The deterministic admission order: `(slot, src_cell, ue_id)`.
    /// Within one exchange window a UE departs at most once, so the key
    /// is unique and the induced order total — shuffling arrival order
    /// cannot change the admission sequence.
    pub fn admission_key(&self) -> (u64, u32, u32) {
        (self.slot, self.src_cell, self.ue_id)
    }
}

/// A UE in flight between cells: the message key plus everything the
/// destination needs to admit it.
pub struct Departure {
    /// Ordering key and provenance.
    pub msg: HandoverMsg,
    /// Slice name the UE belongs to (admitted into the same-named slice
    /// at the destination).
    pub slice: String,
    /// Full MAC state (buffer, averages, channel, traffic).
    pub ue: UeState,
}

/// Sort departures into admission order (see
/// [`HandoverMsg::admission_key`]).
pub fn sort_departures(deps: &mut [Departure]) {
    deps.sort_by_key(|d| d.msg.admission_key());
}

/// Handover activity counters for one cell.
#[derive(Debug, Clone, Copy, Default)]
pub struct MobilityCounters {
    /// A3-triggered departures.
    pub a3_departures: u64,
    /// RIC-commanded departures.
    pub forced_departures: u64,
    /// UEs admitted from other cells.
    pub admissions: u64,
    /// Arrivals the cell could not admit (no same-named slice or
    /// duplicate id) — the UE drops out of the simulation.
    pub rejected_admissions: u64,
}

/// Per-cell mobility state: A3 event machines for every UE the cell
/// serves, plus the RIC's forced-handover queue.
pub struct CellMobility {
    cell_id: u32,
    layout: Arc<CellLayout>,
    a3: A3Config,
    states: HashMap<u32, A3State>,
    forced: Vec<(u32, u32)>,
    /// Activity counters folded into the deployment's
    /// [`MobilityReport`].
    pub counters: MobilityCounters,
}

impl CellMobility {
    /// Mobility state for `cell_id` within `layout`.
    pub fn new(cell_id: u32, layout: Arc<CellLayout>, a3: A3Config) -> Self {
        CellMobility {
            cell_id,
            layout,
            a3,
            states: HashMap::new(),
            forced: Vec::new(),
            counters: MobilityCounters::default(),
        }
    }

    /// Queue a RIC-commanded handover, executed at the next exchange
    /// boundary. Returns `false` (and queues nothing) for an invalid
    /// target: out of range or the commanding cell itself.
    pub fn queue_forced(&mut self, ue_id: u32, target_cell: u32) -> bool {
        if target_cell == self.cell_id || target_cell as usize >= self.layout.num_cells() {
            return false;
        }
        self.forced.push((ue_id, target_cell));
        true
    }

    /// Run the boundary measurement pass at `slot`: execute queued
    /// forced handovers, advance every served UE's A3 machine, and
    /// detach the triggered ones. Returns the window's departures.
    pub fn evaluate(&mut self, scenario: &mut Scenario, slot: u64) -> Vec<Departure> {
        let mut out = Vec::new();
        for (ue_id, dst) in std::mem::take(&mut self.forced) {
            // The UE may have A3'd away since the command was queued;
            // a missing id is silently stale, not an error.
            if let Some((slice, ue)) = scenario.detach_ue(ue_id) {
                self.states.remove(&ue_id);
                self.counters.forced_departures += 1;
                out.push(Departure {
                    msg: HandoverMsg {
                        slot,
                        src_cell: self.cell_id,
                        dst_cell: dst,
                        ue_id,
                        forced: true,
                    },
                    slice,
                    ue,
                });
            }
        }

        let mut triggered = Vec::new();
        for (_slice_id, ue_id, pos) in scenario.gnb.mobile_ues() {
            let Some((nbr, nbr_snr)) = self.layout.best_neighbor(self.cell_id as usize, pos) else {
                continue;
            };
            let serving_snr = self.layout.snr_db(self.cell_id as usize, pos);
            let st = self.states.entry(ue_id).or_default();
            if st.hold > 0 {
                st.hold -= 1;
                st.streak = 0;
                continue;
            }
            if nbr_snr > serving_snr + A3_HYSTERESIS_DB {
                if st.candidate == nbr {
                    st.streak += 1;
                } else {
                    st.candidate = nbr;
                    st.streak = 1;
                }
                if st.streak >= self.a3.ttt_windows {
                    triggered.push((ue_id, nbr as u32));
                }
            } else {
                st.streak = 0;
            }
        }
        for (ue_id, dst) in triggered {
            if let Some((slice, ue)) = scenario.detach_ue(ue_id) {
                self.states.remove(&ue_id);
                self.counters.a3_departures += 1;
                out.push(Departure {
                    msg: HandoverMsg {
                        slot,
                        src_cell: self.cell_id,
                        dst_cell: dst,
                        ue_id,
                        forced: false,
                    },
                    slice,
                    ue,
                });
            }
        }
        out
    }

    /// Admit an in-transit UE: re-anchor its channel to this site,
    /// attach it to the same-named slice, and start the post-handover
    /// hold. Returns `false` when the cell has no such slice (the UE is
    /// dropped and counted).
    pub fn admit(&mut self, scenario: &mut Scenario, mut dep: Departure) -> bool {
        dep.ue
            .channel
            .retarget(self.layout.pos(self.cell_id as usize));
        let ue_id = dep.ue.ue_id;
        match scenario.attach_ue(&dep.slice, dep.ue) {
            Ok(()) => {
                self.states.insert(
                    ue_id,
                    A3State {
                        hold: self.a3.hold_windows,
                        ..A3State::default()
                    },
                );
                self.counters.admissions += 1;
                true
            }
            Err(_) => {
                self.counters.rejected_admissions += 1;
                false
            }
        }
    }
}

/// Mobility configuration for a multi-cell deployment. Each value is set
/// through its builder method, which clamps it to a usable range.
#[derive(Debug, Clone, Copy)]
pub struct MobilityAttachment {
    /// Inter-site distance of the grid layout, meters.
    pub(crate) isd_m: f64,
    /// Slots per exchange window (departures collected at window ends,
    /// admitted one window later — the handover interruption time).
    pub(crate) exchange_period_slots: u64,
    /// A3 event parameters.
    pub(crate) a3: A3Config,
}

impl Default for MobilityAttachment {
    fn default() -> Self {
        Self::new()
    }
}

impl MobilityAttachment {
    /// Defaults: 80 m ISD, 20-slot exchange windows, A3 defaults.
    pub fn new() -> Self {
        MobilityAttachment {
            isd_m: 80.0,
            exchange_period_slots: 20,
            a3: A3Config::default(),
        }
    }

    /// Set the inter-site distance, meters.
    pub fn isd_m(mut self, m: f64) -> Self {
        self.isd_m = m.max(1.0);
        self
    }

    /// Set the exchange window, slots.
    pub fn exchange_period_slots(mut self, slots: u64) -> Self {
        self.exchange_period_slots = slots.max(1);
        self
    }

    /// Set the A3 time-to-trigger, exchange windows.
    pub fn ttt_windows(mut self, windows: u32) -> Self {
        self.a3.ttt_windows = windows.max(1);
        self
    }

    /// Set the post-handover hold, exchange windows.
    pub fn hold_windows(mut self, windows: u32) -> Self {
        self.a3.hold_windows = windows;
        self
    }
}

/// Handover interruption-time statistics (milliseconds of simulated
/// time each migrating UE spent unserved in transit).
#[derive(Debug, Clone, Copy, Default)]
pub struct InterruptionStats {
    /// Completed cross-cell handovers measured.
    pub count: u64,
    /// Mean interruption, ms.
    pub mean_ms: f64,
    /// Shortest interruption, ms.
    pub min_ms: f64,
    /// Longest interruption, ms.
    pub max_ms: f64,
}

impl InterruptionStats {
    /// Fold per-handover `(depart_slot, admit_slot)` pairs.
    pub fn from_records(records: &[(u64, u64)], slot_seconds: f64) -> Self {
        if records.is_empty() {
            return InterruptionStats::default();
        }
        let ms: Vec<f64> = records
            .iter()
            .map(|(dep, adm)| adm.saturating_sub(*dep) as f64 * slot_seconds * 1e3)
            .collect();
        let sum: f64 = ms.iter().sum();
        InterruptionStats {
            count: records.len() as u64,
            mean_ms: sum / ms.len() as f64,
            min_ms: ms.iter().copied().fold(f64::MAX, f64::min),
            max_ms: ms.iter().copied().fold(f64::MIN, f64::max),
        }
    }
}

/// Deployment-wide mobility accounting after a run.
#[derive(Debug, Clone, Default)]
pub struct MobilityReport {
    /// Exchange window the deployment ran with, slots.
    pub exchange_period_slots: u64,
    /// Cross-cell handovers completed (UE admitted at the destination).
    pub cross_cell_handovers: u64,
    /// Departures triggered by A3 events.
    pub a3_departures: u64,
    /// Departures commanded by the RIC.
    pub forced_departures: u64,
    /// Arrivals no cell could admit.
    pub rejected_admissions: u64,
    /// In-transit departures dropped at the exchange because the
    /// destination was unserviceable (out-of-range cell id from a hostile
    /// RIC action, or a faulted destination cell).
    pub dropped_departures: u64,
    /// Interruption-time statistics across completed handovers.
    pub interruption: InterruptionStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{ChannelSpec, ScenarioBuilder, SchedKind, SliceSpec, TrafficSpec};

    #[test]
    fn grid_layout_geometry() {
        let l = CellLayout::grid(6, 100.0);
        assert_eq!(l.num_cells(), 6);
        // ceil(sqrt(6)) = 3 columns: row 0 is cells 0..3, row 1 is 3..6.
        assert_eq!(l.pos(0), [0.0, 0.0]);
        assert_eq!(l.pos(2), [200.0, 0.0]);
        assert_eq!(l.pos(3), [0.0, 100.0]);
        let area = l.area();
        assert_eq!(area, [-50.0, -50.0, 250.0, 150.0]);
        // Measurement geometry: standing on a site measures it loudest.
        let (nbr, snr) = l.best_neighbor(0, [0.0, 0.0]).unwrap();
        assert_eq!(nbr, 1);
        assert!(l.snr_db(0, [0.0, 0.0]) > snr);
        // Halfway between two sites the far one cannot win by hysteresis.
        let mid = [50.0, 0.0];
        assert!((l.snr_db(0, mid) - l.snr_db(1, mid)).abs() < 1e-9);
    }

    #[test]
    fn admission_order_is_arrival_order_independent() {
        let mk = |slot, src, ue| HandoverMsg {
            slot,
            src_cell: src,
            dst_cell: 0,
            ue_id: ue,
            forced: false,
        };
        let admitted = |msgs: &[HandoverMsg]| {
            let mut deps: Vec<Departure> = msgs
                .iter()
                .map(|&msg| Departure {
                    msg,
                    slice: "s".into(),
                    ue: UeState::new(
                        msg.ue_id,
                        Box::new(waran_ransim::channel::StaticChannel::new(12)),
                        Box::new(waran_ransim::traffic::FullBuffer),
                    ),
                })
                .collect();
            sort_departures(&mut deps);
            deps.iter().map(|d| d.msg).collect::<Vec<_>>()
        };
        let mut msgs = vec![mk(20, 2, 9), mk(20, 0, 5), mk(40, 1, 3), mk(20, 0, 2)];
        let a = admitted(&msgs);
        msgs.reverse();
        assert_eq!(a, admitted(&msgs));
        assert_eq!(a[0], mk(20, 0, 2));
        assert_eq!(a[3], mk(40, 1, 3));
    }

    fn mobile_cell(cell: u32, layout: &Arc<CellLayout>, seed: u64) -> Scenario {
        ScenarioBuilder::new()
            .slice(
                SliceSpec::new("s", SchedKind::RoundRobin)
                    .ue(
                        ChannelSpec::Mobile { speed_mps: 0.0 },
                        TrafficSpec::FullBuffer,
                    )
                    .native(),
            )
            .seconds(5.0)
            .seed(seed)
            .cell_id(cell)
            .first_ue_id(70 + cell * 1000)
            .cell_position(layout.pos(cell as usize))
            .mobility_area(layout.area())
            .build()
            .unwrap()
    }

    #[test]
    fn a3_machine_triggers_after_ttt_and_holds_after_admission() {
        let layout = Arc::new(CellLayout::grid(2, 100.0));
        // The UE starts within ±50 m of cell 0; park it, then teleport
        // the serving anchor by evaluating as if the UE sat next to
        // cell 1 — here simply: walk the machine manually with a UE that
        // spawned closer to cell 1 than to cell 0.
        let mut src = mobile_cell(0, &layout, 3);
        let mob0 = CellMobility::new(0, layout.clone(), A3Config::default());
        src.run_slots(10);

        // Force a clear A3 condition by moving the *serving site* far
        // away: rebuild mobility with a layout where cell 0 sits 1 km
        // off, so the UE (near the origin) strongly prefers cell 1.
        let skewed = Arc::new(CellLayout {
            positions: vec![[1000.0, 0.0], [0.0, 0.0]],
            isd_m: 100.0,
        });
        let mut mob_skewed = CellMobility::new(0, skewed, A3Config::default());
        // TTT = 2: first boundary arms, second fires.
        assert!(mob_skewed.evaluate(&mut src, 10).is_empty());
        let deps = mob_skewed.evaluate(&mut src, 20);
        assert_eq!(deps.len(), 1);
        let dep = &deps[0];
        assert_eq!(dep.msg.dst_cell, 1);
        assert!(!dep.msg.forced);
        assert_eq!(dep.slice, "s");
        assert_eq!(mob_skewed.counters.a3_departures, 1);

        // Admission into cell 1: hold suppresses instant ping-pong even
        // under a permanently true A3 condition.
        let mut dst = mobile_cell(1, &layout, 4);
        let dst_ue = dst.slice_ues("s")[0];
        dst.detach_ue(dst_ue).unwrap();
        let mut mob1 = CellMobility::new(1, layout.clone(), A3Config::default());
        let migrant = dep.msg.ue_id;
        let moved = mob_skewed
            .evaluate(&mut src, 20)
            .into_iter()
            .chain(deps)
            .find(|d| d.msg.ue_id == migrant)
            .unwrap();
        assert!(mob1.admit(&mut dst, moved));
        assert!(dst.slice_ues("s").contains(&migrant));
        for b in 0..3u64 {
            // hold_windows = 3 boundaries of immunity.
            assert!(
                mob1.evaluate(&mut dst, 30 + b * 10).is_empty(),
                "hold must suppress boundary {b}"
            );
        }
        assert_eq!(mob0.counters.a3_departures, 0);
    }

    #[test]
    fn forced_handover_detaches_and_validates_target() {
        let layout = Arc::new(CellLayout::grid(4, 100.0));
        let mut cell = mobile_cell(0, &layout, 9);
        let ue = cell.slice_ues("s")[0];
        let mut mob = CellMobility::new(0, layout, A3Config::default());
        assert!(!mob.queue_forced(ue, 0), "self-target rejected");
        assert!(!mob.queue_forced(ue, 99), "out-of-range rejected");
        assert!(mob.queue_forced(ue, 2));
        assert!(
            mob.queue_forced(12345, 3),
            "stale ids accepted at queue time"
        );
        let deps = mob.evaluate(&mut cell, 20);
        assert_eq!(deps.len(), 1, "stale id silently skipped");
        assert!(deps[0].msg.forced);
        assert_eq!(deps[0].msg.dst_cell, 2);
        assert_eq!(mob.counters.forced_departures, 1);
    }

    #[test]
    fn rejected_admission_is_counted() {
        let layout = Arc::new(CellLayout::grid(2, 100.0));
        let mut src = mobile_cell(0, &layout, 3);
        let ue = src.slice_ues("s")[0];
        let (slice, state) = src.detach_ue(ue).unwrap();
        let mut dst = ScenarioBuilder::new()
            .slice(
                SliceSpec::new("other", SchedKind::RoundRobin)
                    .ues(1)
                    .native(),
            )
            .seconds(1.0)
            .build()
            .unwrap();
        let mut mob = CellMobility::new(1, layout, A3Config::default());
        let dep = Departure {
            msg: HandoverMsg {
                slot: 20,
                src_cell: 0,
                dst_cell: 1,
                ue_id: ue,
                forced: false,
            },
            slice,
            ue: state,
        };
        assert!(!mob.admit(&mut dst, dep), "no same-named slice");
        assert_eq!(mob.counters.rejected_admissions, 1);
    }

    #[test]
    fn interruption_stats_fold() {
        let s = InterruptionStats::from_records(&[(100, 120), (140, 160), (200, 240)], 1e-3);
        assert_eq!(s.count, 3);
        assert!((s.min_ms - 20.0).abs() < 1e-9);
        assert!((s.max_ms - 40.0).abs() < 1e-9);
        assert!((s.mean_ms - 80.0 / 3.0).abs() < 1e-9);
        assert_eq!(InterruptionStats::from_records(&[], 1e-3).count, 0);
    }
}
