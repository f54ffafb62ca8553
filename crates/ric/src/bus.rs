//! The multi-cell RIC plane: N cells' E2 agents publish indications to
//! **one** near-RT RIC service thread over a bounded MPSC bus, and each
//! cell receives its control actions through a bounded per-cell mailbox.
//!
//! Two properties drive the design:
//!
//! 1. **The RAN never pays for the RIC.** The bus is bounded; in
//!    [`DeliveryMode::Lossy`] a stalled or dead RIC costs stale frames
//!    (drop-oldest, counted per cell in [`ServiceReport::drops_by_cell`]),
//!    never node memory or slot-loop latency. If the service dies, every
//!    blocked publisher and reply-waiter is released immediately.
//! 2. **Determinism is recoverable.** In [`DeliveryMode::Deterministic`]
//!    the service keeps *per-cell* [`NearRtRic`] state — a cell's actions
//!    are a pure function of that cell's own indication stream — and
//!    always replies (even with an empty batch, even on a decode error),
//!    so a cell driver can rendezvous on the reply to its previous
//!    indication before publishing the next. Cell digests then stay
//!    bit-identical no matter how many workers drive the cells.
//!
//! Actions carry the slot of the indication they answer
//! ([`ActionBatch::answers_slot`]); the cell driver applies batches sorted
//! by `(answers_slot, arrival)` at its next slot boundary.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;
use waran_host::QueueDepthStats;

use crate::comm::CommCodec;
use crate::link::{queue, QueueReceiver, QueueSender, RecvOutcome, SendOutcome};
use crate::ric::NearRtRic;

/// One indication frame in flight on the bus.
#[derive(Debug)]
pub struct BusFrame {
    /// Publishing cell.
    pub cell_id: u32,
    /// Slot the indication was taken at.
    pub slot: u64,
    /// Encoded indication (the cell's codec produced it).
    pub frame: Vec<u8>,
}

/// One encoded action batch delivered to a cell's mailbox.
#[derive(Debug)]
pub struct ActionBatch {
    /// Slot of the indication this batch answers.
    pub answers_slot: u64,
    /// Encoded actions (possibly an empty batch).
    pub frame: Vec<u8>,
}

/// How indications travel from cells to the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryMode {
    /// Publishing blocks while the bus is full; nothing is dropped. Cell
    /// drivers rendezvous on replies, so per-cell results are
    /// reproducible across any worker count.
    Deterministic,
    /// Publishing never blocks; a full bus displaces its oldest frame
    /// (counted against the displaced frame's cell). The mode for
    /// measuring what a stalled RIC costs.
    Lossy,
}

/// Bound on each cell's action mailbox, batches. A cell drains its
/// mailbox at every report boundary, so depth only builds while the cell
/// itself is stalled; overflow displaces the oldest batch.
const MAILBOX_CAPACITY: usize = 16;

struct ServiceCell {
    codec: Box<dyn CommCodec>,
    ric: NearRtRic,
    reply_tx: QueueSender<ActionBatch>,
}

/// Builder/registry for the RIC plane. Register every cell, then
/// [`RicBus::start`] the service thread.
pub struct RicBus {
    mode: DeliveryMode,
    ingress_tx: QueueSender<BusFrame>,
    ingress_rx: QueueReceiver<BusFrame>,
    cells: BTreeMap<u32, ServiceCell>,
    drops: Arc<Mutex<BTreeMap<u32, u64>>>,
}

impl RicBus {
    /// A bus holding at most `capacity` in-flight indications.
    pub fn new(capacity: usize, mode: DeliveryMode) -> Self {
        let (ingress_tx, ingress_rx) = queue(capacity);
        RicBus {
            mode,
            ingress_tx,
            ingress_rx,
            cells: BTreeMap::new(),
            drops: Arc::new(Mutex::new(BTreeMap::new())),
        }
    }

    /// Register a cell: the service hosts `ric` (with the cell's own xApp
    /// state) and speaks `codec` for that cell. Returns the cell-side
    /// port. Panics if `cell_id` is already registered.
    pub fn register(
        &mut self,
        cell_id: u32,
        codec: Box<dyn CommCodec>,
        ric: NearRtRic,
    ) -> CellPort {
        let (reply_tx, mailbox) = queue(MAILBOX_CAPACITY);
        let prev = self.cells.insert(
            cell_id,
            ServiceCell {
                codec,
                ric,
                reply_tx,
            },
        );
        assert!(prev.is_none(), "cell {cell_id} registered twice");
        CellPort {
            cell_id,
            mode: self.mode,
            tx: self.ingress_tx.clone(),
            mailbox,
            drops: self.drops.clone(),
        }
    }

    /// Spawn the service thread. The bus's own ingress sender is dropped
    /// here, so once every [`CellPort`] is gone the service sees
    /// disconnection and exits on its own.
    pub fn start(self) -> RicService {
        let RicBus {
            ingress_tx,
            ingress_rx,
            mut cells,
            drops,
            ..
        } = self;
        drop(ingress_tx);
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = stop.clone();
        let handle = std::thread::Builder::new()
            .name("ric-service".into())
            .spawn(move || {
                let mut report = ServiceReport::default();
                loop {
                    if stop_flag.load(Ordering::Relaxed) {
                        break;
                    }
                    match ingress_rx.recv_timeout(Duration::from_millis(5)) {
                        RecvOutcome::Msg(bus_frame) => {
                            Self::serve(&mut cells, bus_frame, &mut report)
                        }
                        RecvOutcome::Empty => {}
                        RecvOutcome::Disconnected => break,
                    }
                }
                report.ingress = ingress_rx.stats();
                report.drops_by_cell = drops.lock().clone();
                for cell in cells.values() {
                    report.actions_emitted += cell.ric.actions_emitted;
                    report.xapp_faults += cell.ric.xapp_faults();
                    report.action_decode_skips += cell.ric.action_decode_skips;
                }
                report
            })
            .expect("spawn ric-service thread");
        RicService { handle, stop }
    }

    fn serve(
        cells: &mut BTreeMap<u32, ServiceCell>,
        bus_frame: BusFrame,
        report: &mut ServiceReport,
    ) {
        let Some(cell) = cells.get_mut(&bus_frame.cell_id) else {
            report.unknown_cell_frames += 1;
            return;
        };
        let actions = match cell.codec.decode_indication(&bus_frame.frame) {
            Ok(ind) => {
                report.indications_handled += 1;
                cell.ric.handle_indication(&ind)
            }
            Err(_) => {
                report.decode_errors += 1;
                // Still reply (empty): a corrupt frame must not deadlock
                // a deterministic cell waiting for its rendezvous.
                Vec::new()
            }
        };
        let batch = ActionBatch {
            answers_slot: bus_frame.slot,
            frame: cell.codec.encode_actions(&actions),
        };
        if !matches!(cell.reply_tx.send(batch), SendOutcome::Disconnected(_)) {
            report.reply_frames_sent += 1;
        }
    }
}

/// Cell-side handle onto the bus: publish indications, collect action
/// batches. `Send`, so it rides into whatever worker thread runs the cell.
pub struct CellPort {
    /// The owning cell.
    pub cell_id: u32,
    mode: DeliveryMode,
    tx: QueueSender<BusFrame>,
    mailbox: QueueReceiver<ActionBatch>,
    drops: Arc<Mutex<BTreeMap<u32, u64>>>,
}

impl CellPort {
    /// Publish one encoded indication. Returns `false` when the service
    /// is gone (the caller should detach — the RAN outlives the RIC).
    pub fn publish(&self, slot: u64, frame: Vec<u8>) -> bool {
        let bus_frame = BusFrame {
            cell_id: self.cell_id,
            slot,
            frame,
        };
        match self.mode {
            DeliveryMode::Deterministic => self.tx.send_wait(bus_frame).is_ok(),
            DeliveryMode::Lossy => match self.tx.send(bus_frame) {
                SendOutcome::Queued => true,
                SendOutcome::Displaced(victim) => {
                    *self.drops.lock().entry(victim.cell_id).or_insert(0) += 1;
                    true
                }
                SendOutcome::Disconnected(_) => false,
            },
        }
    }

    /// Everything currently in the mailbox, arrival order.
    pub fn collect(&self) -> Vec<ActionBatch> {
        self.mailbox.drain()
    }

    /// Wait up to `timeout` for the next action batch.
    pub fn await_reply(&self, timeout: Duration) -> RecvOutcome<ActionBatch> {
        self.mailbox.recv_timeout(timeout)
    }

    /// Depth/drop accounting for the shared ingress queue.
    pub fn ingress_stats(&self) -> QueueDepthStats {
        self.tx.stats()
    }

    /// Indications currently queued at the service.
    pub fn ingress_depth(&self) -> usize {
        self.tx.depth()
    }

    /// Indications this bus displaced, per victim cell, so far.
    pub fn drops_by_cell(&self) -> BTreeMap<u32, u64> {
        self.drops.lock().clone()
    }
}

/// Handle on the running service thread.
pub struct RicService {
    handle: JoinHandle<ServiceReport>,
    stop: Arc<AtomicBool>,
}

impl RicService {
    /// Stop the service and collect its report. Frames still queued at
    /// stop time are abandoned (they are visible as `ingress.enqueued -
    /// indications_handled - decode_errors`).
    pub fn stop(self) -> ServiceReport {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("ric-service thread panicked")
    }
}

/// What the service did over its lifetime.
#[derive(Debug, Default, Clone)]
pub struct ServiceReport {
    /// Indications decoded and run through xApps.
    pub indications_handled: u64,
    /// Indication frames that failed to decode (still replied to).
    pub decode_errors: u64,
    /// Frames from unregistered cells (dropped).
    pub unknown_cell_frames: u64,
    /// Action batches delivered to mailboxes.
    pub reply_frames_sent: u64,
    /// Control actions emitted across all per-cell RICs.
    pub actions_emitted: u64,
    /// xApp faults across all per-cell RICs.
    pub xapp_faults: u64,
    /// Skipped action records across all per-cell RICs.
    pub action_decode_skips: u64,
    /// Ingress queue accounting (enqueued / dropped / max depth).
    pub ingress: QueueDepthStats,
    /// Indications displaced by drop-oldest, per victim cell.
    pub drops_by_cell: BTreeMap<u32, u64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::{JsonCodec, PbCodec, TlvCodec};
    use crate::e2::{ControlAction, Indication, KpiReport};
    use crate::ric::{TrafficSteering, XApp, XAppCtx};

    /// A slow RIC: an xApp that sleeps through every indication.
    struct Stall(Duration);

    impl XApp for Stall {
        fn name(&self) -> &str {
            "stall"
        }

        fn on_indication(&mut self, _: &mut XAppCtx<'_>, _: &Indication) -> Vec<ControlAction> {
            std::thread::sleep(self.0);
            Vec::new()
        }
    }

    fn bad_kpi(ue: u32) -> KpiReport {
        KpiReport {
            ue_id: ue,
            slice_id: 0,
            cqi: 1,
            mcs: 2,
            buffer_bytes: 64,
            tput_bps: 1e5,
        }
    }

    fn steering_ric() -> NearRtRic {
        let mut ric = NearRtRic::new();
        ric.add_xapp(Box::new(TrafficSteering::new(5, 2, 9)));
        ric
    }

    #[test]
    fn deterministic_reply_per_indication() {
        let mut bus = RicBus::new(8, DeliveryMode::Deterministic);
        let port = bus.register(0, Box::new(TlvCodec), steering_ric());
        let service = bus.start();

        // Two bad indications: first reply is empty, second carries the
        // handover — and every publish gets exactly one reply.
        for slot in [100u64, 200] {
            let ind = Indication {
                slot,
                reports: vec![bad_kpi(7)],
            };
            assert!(port.publish(slot, TlvCodec.encode_indication(&ind)));
            let RecvOutcome::Msg(batch) = port.await_reply(Duration::from_secs(5)) else {
                panic!("service must reply to every indication");
            };
            assert_eq!(batch.answers_slot, slot);
            let (actions, skipped) = TlvCodec.decode_actions(&batch.frame).unwrap();
            assert_eq!(skipped, 0);
            if slot == 200 {
                assert_eq!(
                    actions,
                    vec![ControlAction::Handover {
                        ue_id: 7,
                        target_cell: 9
                    }]
                );
            } else {
                assert!(actions.is_empty());
            }
        }
        let report = service.stop();
        assert_eq!(report.indications_handled, 2);
        assert_eq!(report.reply_frames_sent, 2);
        assert_eq!(report.actions_emitted, 1);
        assert!(report.drops_by_cell.is_empty());
    }

    #[test]
    fn per_cell_ric_state_and_codec_are_independent() {
        // Cell 0 sends two bad reports (handover); cell 1 sends one
        // (no handover). Interleaving on the shared bus must not let cell
        // 1's report advance cell 0's hysteresis or vice versa. Cell 1's
        // vendor stack picked pbwire on both ends of its wire; cell 2's
        // node speaks TLV at a service expecting JSON — the §3.B mismatch
        // an adapter plugin fixes — and must cost decode errors, not the
        // plane.
        let mut bus = RicBus::new(8, DeliveryMode::Deterministic);
        let p0 = bus.register(0, Box::new(TlvCodec), steering_ric());
        let p1 = bus.register(1, Box::new(PbCodec), steering_ric());
        let p2 = bus.register(2, Box::new(JsonCodec), steering_ric());
        let service = bus.start();

        let publish = |port: &CellPort, codec: &dyn CommCodec, slot: u64| {
            let ind = Indication {
                slot,
                reports: vec![bad_kpi(7)],
            };
            assert!(port.publish(slot, codec.encode_indication(&ind)));
            let RecvOutcome::Msg(batch) = port.await_reply(Duration::from_secs(5)) else {
                panic!("no reply");
            };
            batch.frame
        };
        let actions =
            |codec: &dyn CommCodec, frame: Vec<u8>| codec.decode_actions(&frame).unwrap().0;

        assert!(actions(&TlvCodec, publish(&p0, &TlvCodec, 10)).is_empty());
        assert!(actions(&PbCodec, publish(&p1, &PbCodec, 10)).is_empty());
        // Mismatched codecs, then plain garbage: every frame is a decode
        // error at the service, yet each is still answered (with an empty
        // batch in the *service's* codec) so the cell never deadlocks.
        assert!(actions(&JsonCodec, publish(&p2, &TlvCodec, 10)).is_empty());
        assert!(p2.publish(20, vec![0xff, 0x00, 0x13]));
        assert!(matches!(
            p2.await_reply(Duration::from_secs(5)),
            RecvOutcome::Msg(_)
        ));
        let steered = actions(&TlvCodec, publish(&p0, &TlvCodec, 20));
        assert_eq!(steered.len(), 1, "cell 0 hit its own hysteresis");
        let steered = actions(&PbCodec, publish(&p1, &PbCodec, 20));
        assert_eq!(steered.len(), 1, "so did cell 1, independently");

        let report = service.stop();
        assert_eq!(report.indications_handled, 4);
        assert_eq!(report.decode_errors, 2, "cell 2's frames, nobody else's");
        assert_eq!(report.reply_frames_sent, 6);
        assert_eq!(report.actions_emitted, 2);
    }

    #[test]
    fn lossy_mode_bounds_depth_and_counts_drops() {
        // A stalled service: depth must stay at the cap and overflow must
        // surface as per-cell drop counts, while publishing never blocks.
        let mut bus = RicBus::new(4, DeliveryMode::Lossy);
        let mut ric = NearRtRic::new();
        ric.add_xapp(Box::new(Stall(Duration::from_millis(250))));
        let port = bus.register(3, Box::new(TlvCodec), ric);
        let service = bus.start();

        let ind = Indication {
            slot: 1,
            reports: vec![bad_kpi(1)],
        };
        let frame = TlvCodec.encode_indication(&ind);
        for slot in 0..64u64 {
            assert!(port.publish(slot, frame.clone()));
            assert!(port.ingress_depth() <= 4, "bounded despite the stall");
        }
        let drops = port.drops_by_cell();
        assert!(drops.get(&3).copied().unwrap_or(0) > 0, "drops counted");
        let stats = port.ingress_stats();
        assert_eq!(stats.enqueued, 64);
        assert!(stats.max_depth <= 4);
        let report = service.stop();
        assert_eq!(report.drops_by_cell, drops);
    }

    #[test]
    fn dead_service_releases_publishers() {
        let mut bus = RicBus::new(1, DeliveryMode::Deterministic);
        let port = bus.register(0, Box::new(TlvCodec), steering_ric());
        let service = bus.start();
        service.stop();
        // The service (and its ingress receiver) is gone: a blocking
        // publish returns immediately instead of stalling the cell.
        assert!(!port.publish(1, vec![1, 2, 3]));
        assert!(matches!(
            port.await_reply(Duration::from_millis(10)),
            RecvOutcome::Empty | RecvOutcome::Disconnected
        ));
    }
}
