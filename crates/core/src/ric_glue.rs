//! Closing the loop: gNB ↔ near-RT RIC.
//!
//! There is one path between a cell and the RIC: the [`RicBus`] plane,
//! attached to a deployment with
//! [`MultiCellScenarioBuilder::ric`](crate::MultiCellScenarioBuilder::ric)
//! (a single gNB is a one-cell deployment). At each report boundary a
//! cell's (crate-private) `CellE2Driver` collects its mailbox, applies
//! the action batches in `(answers_slot, arrival)` order, then publishes
//! this period's indication. Publishing serves the indication in the
//! cell's own worker and queues the reply, so a reply answers the
//! previous boundary's indication and lands at the next one, and
//! per-cell results are the same for any number of workers.
//!
//! Everything on the wire is a `CommCodec` — so two deployments can
//! disagree on the encoding and still interoperate via an adapter plugin.

use waran_ric::bus::{ActionBatch, CellPort, DeliveryMode, RicBus};
use waran_ric::comm::CommCodec;
use waran_ric::e2::{ControlAction, Indication, KpiReport};
use waran_ric::ric::NearRtRic;

use waran_ransim::channel::MarkovFadingChannel;

use crate::mobility::CellMobility;
use crate::scenario::Scenario;

/// Snapshot the gNB's per-UE state as E2 KPI reports.
pub fn sample_kpis(scenario: &Scenario) -> Vec<KpiReport> {
    scenario
        .gnb
        .ue_kpis()
        .into_iter()
        .map(|(slice_id, ue_id, cqi, mcs, buffer, tput)| KpiReport {
            ue_id,
            slice_id,
            cqi,
            mcs,
            buffer_bytes: buffer.min(u32::MAX as u64) as u32,
            tput_bps: tput,
        })
        .collect()
}

/// What applying a control action did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppliedAction {
    /// A slice target was set.
    SliceTarget,
    /// A handover was realized as a channel change.
    Handover,
    /// The action could not be applied (unknown id, unmodelled knob).
    Rejected,
}

/// Apply one control action onto a scenario's gNB. Without a cell grid
/// to move across, a handover is realized as a channel change: the UE's
/// channel becomes that of a target cell with a good (cell-center)
/// profile.
pub fn apply_action(scenario: &mut Scenario, action: ControlAction) -> AppliedAction {
    match action {
        ControlAction::SetSliceTarget {
            slice_id,
            target_bps,
        } => {
            scenario.gnb.set_slice_target(slice_id, Some(target_bps));
            AppliedAction::SliceTarget
        }
        ControlAction::Handover {
            ue_id,
            target_cell: _,
        } => {
            let good_cell = Box::new(MarkovFadingChannel::good());
            if scenario.gnb.set_ue_channel(ue_id, good_cell) {
                AppliedAction::Handover
            } else {
                AppliedAction::Rejected
            }
        }
        ControlAction::SetCqiTable { .. } => {
            // Link-adaptation table switching is not modelled; count it.
            AppliedAction::Rejected
        }
    }
}

/// Builds the per-cell node codec and the service-side codec+RIC.
pub type CodecFactory = Box<dyn Fn() -> Box<dyn CommCodec> + Send + Sync>;
/// Builds a cell's RIC state (xApps included), keyed by cell id.
pub type RicFactory = Box<dyn Fn(u32) -> NearRtRic + Send + Sync>;

/// Configuration for attaching a deployment to the RIC plane. The
/// reporting period is set through its builder method, which clamps it to
/// a usable range.
pub struct RicAttachment {
    /// Reporting period, slots (reports land at period *ends*).
    pub(crate) report_period_slots: u64,
    codec_factory: CodecFactory,
    ric_factory: RicFactory,
}

impl RicAttachment {
    /// Attachment with 100-slot reporting.
    pub fn new(codec_factory: CodecFactory, ric_factory: RicFactory) -> Self {
        RicAttachment {
            report_period_slots: 100,
            codec_factory,
            ric_factory,
        }
    }

    /// Set the reporting period, slots.
    pub fn report_period_slots(mut self, period: u64) -> Self {
        self.report_period_slots = period.max(1);
        self
    }

    /// Sets nothing: indications are served as they are published, so
    /// nothing is in flight to bound. Kept only for slotbench's call
    /// sites.
    pub fn bus_capacity(self, _capacity: usize) -> Self {
        self
    }

    /// Sets nothing: [`DeliveryMode`] has one variant. Kept only for
    /// slotbench's call sites.
    pub fn mode(self, _mode: DeliveryMode) -> Self {
        self
    }

    /// The plane this attachment describes (cells still unregistered).
    pub(crate) fn build_bus(&self) -> RicBus {
        RicBus::new(0, DeliveryMode::Deterministic)
    }

    /// Register `cell_id` on `bus` and return its driver.
    pub(crate) fn driver(&self, cell_id: u32, bus: &mut RicBus) -> CellE2Driver {
        let port = bus.register(cell_id, (self.codec_factory)(), (self.ric_factory)(cell_id));
        CellE2Driver {
            port,
            codec: (self.codec_factory)(),
            report_period_slots: self.report_period_slots,
            attached: true,
            indications_sent: 0,
            action_batches_received: 0,
            applied_slice_targets: 0,
            applied_handovers: 0,
            rejected_actions: 0,
            decode_errors: 0,
        }
    }
}

/// Cell-side driver for the RIC plane (see module docs).
pub(crate) struct CellE2Driver {
    port: CellPort,
    codec: Box<dyn CommCodec>,
    /// Reporting period, slots.
    pub(crate) report_period_slots: u64,
    attached: bool,
    /// Indications published.
    pub(crate) indications_sent: u64,
    /// Action batches received (including empty ones).
    pub(crate) action_batches_received: u64,
    /// Slice-target actions applied.
    pub(crate) applied_slice_targets: u64,
    /// Handovers applied.
    pub(crate) applied_handovers: u64,
    /// Actions that could not be applied.
    pub(crate) rejected_actions: u64,
    /// Undecodable batches plus skipped action records.
    pub(crate) decode_errors: u64,
}

impl CellE2Driver {
    /// Still connected to a live service?
    pub fn is_attached(&self) -> bool {
        self.attached
    }

    /// True when `slot` closes a reporting period. Reports happen at the
    /// *end* of each period — the first at `report_period_slots` — so an
    /// indication always covers real traffic; sampling at slot 0 would
    /// feed all-zero KPIs into every xApp hysteresis window.
    pub fn due(&self, slot: u64) -> bool {
        slot > 0 && slot.is_multiple_of(self.report_period_slots)
    }

    /// Run the boundary protocol at the scenario's current slot: collect
    /// the mailbox, apply its action batches in `(answers_slot, arrival)`
    /// order, then sample and publish this period's indication.
    ///
    /// With `mobility` attached, `ControlAction::Handover` becomes a
    /// *cross-cell* command queued for the next exchange boundary; the
    /// channel swap of [`apply_action`] stays the degenerate within-cell
    /// case for deployments without mobility.
    pub fn on_boundary(&mut self, scenario: &mut Scenario, mobility: Option<&mut CellMobility>) {
        if !self.attached {
            return;
        }
        self.apply_batches(scenario, mobility, self.port.collect());
        let slot = scenario.gnb.slot();
        let reports = sample_kpis(scenario);
        let frame = self.codec.encode_indication(&Indication { slot, reports });
        if self.port.publish(slot, frame) {
            self.indications_sent += 1;
        } else {
            self.attached = false;
        }
    }

    /// Settle at end of run: apply the reply to the last indication, so
    /// every indication is answered and nothing is left in the mailbox.
    pub fn finish(&mut self, scenario: &mut Scenario, mobility: Option<&mut CellMobility>) {
        if self.attached {
            self.apply_batches(scenario, mobility, self.port.collect());
        }
    }

    fn apply_batches(
        &mut self,
        scenario: &mut Scenario,
        mut mobility: Option<&mut CellMobility>,
        mut batches: Vec<ActionBatch>,
    ) {
        // Deterministic application order: stable sort by the answered
        // slot keeps arrival order within a slot.
        batches.sort_by_key(|b| b.answers_slot);
        for batch in batches {
            self.action_batches_received += 1;
            match self.codec.decode_actions(&batch.frame) {
                Ok((actions, skipped)) => {
                    self.decode_errors += skipped as u64;
                    for action in actions {
                        if let (ControlAction::Handover { ue_id, target_cell }, Some(mob)) =
                            (&action, mobility.as_deref_mut())
                        {
                            if mob.queue_forced(*ue_id, *target_cell) {
                                self.applied_handovers += 1;
                            } else {
                                self.rejected_actions += 1;
                            }
                            continue;
                        }
                        match apply_action(scenario, action) {
                            AppliedAction::SliceTarget => self.applied_slice_targets += 1,
                            AppliedAction::Handover => self.applied_handovers += 1,
                            AppliedAction::Rejected => self.rejected_actions += 1,
                        }
                    }
                }
                Err(_) => self.decode_errors += 1,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};

    use super::*;
    use crate::multicell::{CellSpec, MultiCellReport, MultiCellScenarioBuilder};
    use crate::scenario::{ChannelSpec, ScenarioBuilder, SchedKind, SliceSpec, TrafficSpec};
    use waran_abi::CodecError;
    use waran_ric::bus::ServiceReport;
    use waran_ric::comm::TlvCodec;
    use waran_ric::e2::ACTION_RECORD_LEN;
    use waran_ric::ric::{SliceSlaAssurance, TrafficSteering, XApp};

    /// A single gNB attached to the RIC: the one-cell deployment, TLV on
    /// the wire, 100-slot reporting.
    fn run_one_cell(
        seconds: f64,
        slices: Vec<SliceSpec>,
        xapp: fn() -> Box<dyn XApp>,
    ) -> MultiCellReport {
        let mut cell = CellSpec::new("gnb");
        for slice in slices {
            cell = cell.slice(slice);
        }
        MultiCellScenarioBuilder::new()
            .seconds(seconds)
            .cell(cell)
            .ric(RicAttachment::new(
                Box::new(|| Box::new(TlvCodec)),
                Box::new(move |_cell| {
                    let mut ric = NearRtRic::new();
                    ric.add_xapp(xapp());
                    ric
                }),
            ))
            .build()
            .unwrap()
            .run(1)
    }

    #[test]
    fn traffic_steering_rescues_cell_edge_ue() {
        let report = run_one_cell(
            4.0,
            vec![SliceSpec::new("s", SchedKind::ProportionalFair)
                .ue(ChannelSpec::FadingGood, TrafficSpec::FullBuffer)
                .ue(ChannelSpec::Distance(900.0), TrafficSpec::FullBuffer)],
            || Box::new(TrafficSteering::new(5, 3, 1)),
        );

        let ric = report.ric.as_ref().expect("attached run reports the plane");
        assert!(ric.applied_handovers >= 1, "steering should fire");
        // After the handover the edge UE's rate improves markedly.
        let series = &report.cells[0].report.slice("s").unwrap().ues[1].series_mbps;
        // The first window (100 ms) predates the handover (hysteresis of 3
        // reports at a 100-slot period, applied one boundary later ≈
        // 400 ms); the tail is post-handover.
        let early = series[0];
        let late: f64 = series[series.len() - 5..].iter().sum::<f64>() / 5.0;
        assert!(early < 3.0, "cell-edge UE should start slow, got {early}");
        assert!(late > early * 2.0 + 0.1, "early {early} late {late}");
    }

    #[test]
    fn sla_assurance_boosts_underperforming_slice() {
        // SLA is 12 Mb/s but the configured target is 10: the slice will
        // underperform its SLA until the xApp raises the enforced target.
        let report = run_one_cell(
            3.0,
            vec![
                SliceSpec::new("gold", SchedKind::RoundRobin)
                    .target_mbps(10.0)
                    .ues(2),
                SliceSpec::new("rest", SchedKind::RoundRobin).ues(2),
            ],
            || Box::new(SliceSlaAssurance::new(&[(0, 12e6)])),
        );

        let ric = report.ric.as_ref().expect("attached run reports the plane");
        assert!(ric.applied_slice_targets >= 1, "SLA xApp should act");
        let gold = report.cells[0].report.slice("gold").unwrap();
        // Late-run rate approaches the SLA thanks to the boost.
        assert!(
            gold.recent_rate_mbps(5) > 10.5,
            "recent {}",
            gold.recent_rate_mbps(5)
        );
    }

    /// Drive one standalone scenario through the boundary protocol
    /// against a live service, 100-slot reporting.
    fn drive(attachment: RicAttachment, scenario: &mut Scenario) -> (CellE2Driver, ServiceReport) {
        let mut bus = attachment.build_bus();
        let mut driver = attachment.driver(0, &mut bus);
        let service = bus.start();
        while scenario.remaining_slots() > 0 {
            let slot = scenario.gnb.slot();
            if driver.due(slot) {
                driver.on_boundary(scenario, None);
            }
            scenario.run_slots(100 - (slot % 100));
        }
        driver.finish(scenario, None);
        (driver, service.stop())
    }

    fn edge_ue_scenario() -> Scenario {
        ScenarioBuilder::new()
            .slice(
                SliceSpec::new("s", SchedKind::ProportionalFair)
                    .ue(ChannelSpec::FadingGood, TrafficSpec::FullBuffer)
                    .ue(ChannelSpec::Distance(900.0), TrafficSpec::FullBuffer),
            )
            .seconds(2.0)
            .build()
            .unwrap()
    }

    #[test]
    fn cell_driver_applies_actions_at_next_boundary() {
        let attachment = RicAttachment::new(
            Box::new(|| Box::new(TlvCodec)),
            Box::new(|_cell| {
                let mut ric = NearRtRic::new();
                ric.add_xapp(Box::new(TrafficSteering::new(5, 2, 1)));
                ric
            }),
        );
        let (driver, report) = drive(attachment, &mut edge_ue_scenario());

        assert!(driver.is_attached());
        // End-of-period reporting: slots 100, 200, …, 1900 → 19
        // indications (slot 0 carries no traffic and slot 2000 is past
        // the run).
        assert_eq!(driver.indications_sent, 19);
        // Every indication was answered (reply-per-indication protocol).
        assert_eq!(driver.action_batches_received, 19);
        assert!(driver.applied_handovers >= 1, "steering should fire");
        assert_eq!(report.indications_handled, 19);
        assert_eq!(driver.decode_errors, 0);
    }

    /// TLV on the wire, except that the encoder the *service* replies
    /// through is hostile: replies alternate between plain garbage and a
    /// well-formed frame whose packed list carries one good action, one
    /// unknown-tag record and a truncated trailer.
    struct HostileReplies(AtomicU64);

    impl CommCodec for HostileReplies {
        fn encode_indication(&self, ind: &Indication) -> Vec<u8> {
            TlvCodec.encode_indication(ind)
        }
        fn decode_indication(&self, bytes: &[u8]) -> Result<Indication, CodecError> {
            TlvCodec.decode_indication(bytes)
        }
        fn encode_actions(&self, _actions: &[ControlAction]) -> Vec<u8> {
            if self.0.fetch_add(1, Ordering::Relaxed).is_multiple_of(2) {
                return vec![0xff, 0x00, 0x13];
            }
            let mut packed =
                ControlAction::list_to_bytes(&[ControlAction::SetCqiTable { ue_id: 9, table: 1 }]);
            packed.extend_from_slice(&[0x77; ACTION_RECORD_LEN]);
            packed.extend_from_slice(&[0x01; 5]);
            let mut w = waran_abi::tlv::TlvWriter::new();
            w.bytes(3, &packed);
            w.finish()
        }
        fn decode_actions(&self, bytes: &[u8]) -> Result<(Vec<ControlAction>, usize), CodecError> {
            TlvCodec.decode_actions(bytes)
        }
        fn name(&self) -> &'static str {
            "hostile-replies"
        }
    }

    #[test]
    fn cell_driver_counts_hostile_action_frames() {
        // A misbehaving RIC cannot crash the node: undecodable batches
        // and skipped records fold into `decode_errors`, what did decode
        // is still applied, and the cell stays attached.
        let attachment = RicAttachment::new(
            Box::new(|| Box::new(HostileReplies(AtomicU64::new(0)))),
            Box::new(|_cell| NearRtRic::new()),
        );
        let (driver, report) = drive(attachment, &mut edge_ue_scenario());

        assert!(driver.is_attached());
        assert_eq!(report.indications_handled, 19);
        assert_eq!(driver.action_batches_received, 19);
        // 10 garbage batches (1 each) + 9 spliced batches (unknown tag +
        // truncation = 2 each).
        assert_eq!(driver.decode_errors, 10 + 9 * 2);
        // The one decodable action per spliced batch reached the gNB
        // (where `SetCqiTable` is unmodelled, hence counted as rejected).
        assert_eq!(driver.rejected_actions, 9);
    }

    #[test]
    fn cell_driver_detaches_when_service_dies() {
        let mut scenario = ScenarioBuilder::new()
            .slice(SliceSpec::new("s", SchedKind::RoundRobin).ues(1))
            .seconds(1.0)
            .build()
            .unwrap();
        let attachment = RicAttachment::new(
            Box::new(|| Box::new(TlvCodec)),
            Box::new(|_| NearRtRic::new()),
        );
        let mut bus = attachment.build_bus();
        let mut driver = attachment.driver(0, &mut bus);
        // The service never starts; dropping the bus kills the plane.
        drop(bus);

        scenario.run_slots(100);
        driver.on_boundary(&mut scenario, None);
        assert!(!driver.is_attached(), "driver must detach, not stall");
        scenario.run_slots(100);
        driver.on_boundary(&mut scenario, None); // no-op, still must not block
        driver.finish(&mut scenario, None);
        assert_eq!(driver.indications_sent, 0);
    }
}
