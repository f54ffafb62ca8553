//! The multi-cell RIC plane: N cells' E2 agents publish indications to
//! their near-RT RIC state, and each cell receives its control actions
//! through its own mailbox.
//!
//! [`CellPort::publish`] serves its indication before it returns, in the
//! thread that publishes: it decodes the frame with the service-side
//! codec, runs that cell's [`NearRtRic`], encodes the reply and queues it
//! in the cell's mailbox. Three rules follow:
//!
//! 1. **Per-cell state.** [`RicBus`] is a registry of per-cell service
//!    state (codec, [`NearRtRic`], counters), each behind its own lock: a
//!    cell's actions are a pure function of that cell's own indication
//!    stream, so cell digests stay bit-identical no matter how many
//!    workers drive the cells.
//! 2. **A reply to every indication**, even an empty batch, even on a
//!    decode error, so the cell can count on the answer to its previous
//!    indication at its next boundary.
//! 3. **A panic fences one cell.** An xApp or codec that panics unwinds
//!    through the publishing cell only; the engine's panic boundary marks
//!    that cell faulted, and every other cell's state sits behind its own
//!    lock, untouched.
//!
//! Actions carry the slot of the indication they answer
//! ([`ActionBatch::answers_slot`]); the cell driver applies batches sorted
//! by `(answers_slot, arrival)` at its next slot boundary.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use parking_lot::Mutex;
use waran_host::QueueDepthStats;

use crate::comm::CommCodec;
use crate::ric::NearRtRic;

/// One encoded action batch delivered to a cell's mailbox.
#[derive(Debug)]
pub struct ActionBatch {
    /// Slot of the indication this batch answers.
    pub answers_slot: u64,
    /// Encoded actions (possibly an empty batch).
    pub frame: Vec<u8>,
}

/// What a mailbox read produced.
#[derive(Debug, PartialEq, Eq)]
pub enum RecvOutcome<T> {
    /// One item.
    Msg(T),
    /// Nothing queued.
    Empty,
    /// Nothing queued and the service is gone.
    Disconnected,
}

/// How indications travel from cells to the service. Every indication is
/// served in the publishing cell, so there is one mode; the type is kept
/// only for slotbench's call sites and sets nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryMode {
    /// Every indication is served before `publish` returns; nothing is
    /// dropped.
    Deterministic,
}

/// Service-side state of one registered cell, `None` once the service
/// stopped. A panic while serving leaves its lock to be recovered, not
/// refused: the panicking cell is faulted and never publishes again, and
/// `stop` reads only its counters.
type ServiceSlot = Mutex<Option<ServiceCell>>;

struct ServiceCell {
    codec: Box<dyn CommCodec>,
    ric: NearRtRic,
    indications_handled: u64,
    decode_errors: u64,
}

/// Indications in service at once, across every cell: the current count
/// and its peak.
#[derive(Default)]
struct InService {
    now: AtomicU64,
    peak: AtomicU64,
}

/// Holds one unit of [`InService`] for one indication, released even if
/// serving it unwinds.
struct Serving<'a>(&'a InService);

impl<'a> Serving<'a> {
    fn enter(gauge: &'a InService) -> Self {
        let now = gauge.now.fetch_add(1, Ordering::Relaxed) + 1;
        gauge.peak.fetch_max(now, Ordering::Relaxed);
        Serving(gauge)
    }
}

impl Drop for Serving<'_> {
    fn drop(&mut self) {
        self.0.now.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Registry of the RIC plane's per-cell service state. Register every
/// cell, then [`RicBus::start`] to get the handle that stops the plane.
/// Dropping the bus unstarted drops the service: every port's publish
/// then returns `false`.
pub struct RicBus {
    cells: Vec<Arc<ServiceSlot>>,
    in_service: Arc<InService>,
}

impl RicBus {
    /// An empty registry. `capacity` and `mode` set nothing — nothing is
    /// ever in flight between cell and service — and are kept only for
    /// slotbench's call sites.
    pub fn new(_capacity: usize, _mode: DeliveryMode) -> Self {
        RicBus {
            cells: Vec::new(),
            in_service: Arc::default(),
        }
    }

    /// Register a cell: its indications are served by `ric` (with the
    /// cell's own xApp state) speaking `codec`. Returns the cell-side
    /// port, which serves from registration on.
    pub fn register(
        &mut self,
        cell_id: u32,
        codec: Box<dyn CommCodec>,
        ric: NearRtRic,
    ) -> CellPort {
        let cell = Arc::new(Mutex::new(Some(ServiceCell {
            codec,
            ric,
            indications_handled: 0,
            decode_errors: 0,
        })));
        let service = Arc::downgrade(&cell);
        self.cells.push(cell);
        CellPort {
            cell_id,
            service,
            in_service: Arc::clone(&self.in_service),
            mailbox: Mutex::new(VecDeque::new()),
        }
    }

    /// Hand the registry to the [`RicService`] that stops it.
    pub fn start(self) -> RicService {
        RicService { bus: self }
    }
}

/// Cell-side handle onto the plane: publish indications, collect action
/// batches. `Send`, so it rides into whatever worker thread runs the cell.
pub struct CellPort {
    /// The owning cell.
    pub cell_id: u32,
    service: Weak<ServiceSlot>,
    in_service: Arc<InService>,
    mailbox: Mutex<VecDeque<ActionBatch>>,
}

impl CellPort {
    /// Serve one encoded indication and queue the reply in this cell's
    /// mailbox. Returns `false` when the service is gone (the caller
    /// should detach — the RAN outlives the RIC).
    pub fn publish(&self, slot: u64, frame: Vec<u8>) -> bool {
        let Some(shared) = self.service.upgrade() else {
            return false;
        };
        let mut guard = shared.lock();
        let Some(cell) = guard.as_mut() else {
            return false;
        };
        let _serving = Serving::enter(&self.in_service);
        let actions = match cell.codec.decode_indication(&frame) {
            Ok(ind) => {
                cell.indications_handled += 1;
                cell.ric.handle_indication(&ind)
            }
            Err(_) => {
                // Still reply (empty): the cell counts on an answer to
                // every indication.
                cell.decode_errors += 1;
                Vec::new()
            }
        };
        let batch = ActionBatch {
            answers_slot: slot,
            frame: cell.codec.encode_actions(&actions),
        };
        self.mailbox.lock().push_back(batch);
        true
    }

    /// Everything currently in the mailbox, arrival order.
    pub fn collect(&self) -> Vec<ActionBatch> {
        self.mailbox.lock().drain(..).collect()
    }

    /// The oldest action batch in the mailbox. `publish` has queued its
    /// reply before it returns, so there is nothing to wait for: the
    /// `timeout` sets nothing and is kept only for slotbench's call sites.
    pub fn await_reply(&self, _timeout: Duration) -> RecvOutcome<ActionBatch> {
        match self.mailbox.lock().pop_front() {
            Some(batch) => RecvOutcome::Msg(batch),
            None if self.service.strong_count() == 0 => RecvOutcome::Disconnected,
            None => RecvOutcome::Empty,
        }
    }
}

/// Handle on the started plane.
pub struct RicService {
    bus: RicBus,
}

impl RicService {
    /// Stop the service and fold its report from the per-cell registry.
    /// Every publish after this returns `false`.
    pub fn stop(self) -> ServiceReport {
        let mut report = ServiceReport::default();
        for cell in &self.bus.cells {
            let Some(cell) = cell.lock().take() else {
                continue;
            };
            let served = cell.indications_handled + cell.decode_errors;
            report.indications_handled += cell.indications_handled;
            report.decode_errors += cell.decode_errors;
            report.reply_frames_sent += served;
            report.ingress.enqueued += served;
            report.actions_emitted += cell.ric.actions_emitted;
            report.xapp_faults += cell.ric.xapp_faults();
            report.action_decode_skips += cell.ric.action_decode_skips;
        }
        report.ingress.max_depth = self.bus.in_service.peak.load(Ordering::Relaxed);
        report
    }
}

/// What the service did over its lifetime.
#[derive(Debug, Default, Clone)]
pub struct ServiceReport {
    /// Indications decoded and run through xApps.
    pub indications_handled: u64,
    /// Indication frames that failed to decode (still replied to).
    pub decode_errors: u64,
    /// Action batches delivered to mailboxes: one per indication served.
    pub reply_frames_sent: u64,
    /// Control actions emitted across all per-cell RICs.
    pub actions_emitted: u64,
    /// xApp faults across all per-cell RICs.
    pub xapp_faults: u64,
    /// Skipped action records across all per-cell RICs.
    pub action_decode_skips: u64,
    /// `enqueued`: indications served; `dropped`: always 0, nothing is
    /// shed; `max_depth`: the measured peak of indications in service at
    /// once across all cells, at most one per publishing thread.
    pub ingress: QueueDepthStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::{JsonCodec, PbCodec, TlvCodec};
    use crate::e2::{ControlAction, Indication, KpiReport};
    use crate::ric::TrafficSteering;

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
        assert_eq!(report.ingress.enqueued, 2);
        assert_eq!(report.ingress.dropped, 0);
        assert_eq!(report.ingress.max_depth, 1);
    }

    #[test]
    fn per_cell_ric_state_and_codec_are_independent() {
        // Cell 0 sends two bad reports (handover); cell 1 sends one
        // (no handover). Interleaving on the shared plane must not let
        // cell 1's report advance cell 0's hysteresis or vice versa.
        // Cell 1's vendor stack picked pbwire on both ends of its wire;
        // cell 2's node speaks TLV at a service expecting JSON — the §3.B
        // mismatch an adapter plugin fixes — and must cost decode errors,
        // not the plane.
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
        // batch in the *service's* codec).
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
    fn dead_service_releases_publishers() {
        let mut bus = RicBus::new(1, DeliveryMode::Deterministic);
        let port = bus.register(0, Box::new(TlvCodec), steering_ric());
        let service = bus.start();
        service.stop();
        // The service is gone: a publish returns at once instead of
        // stalling the cell, and the empty mailbox reports it.
        assert!(!port.publish(1, vec![1, 2, 3]));
        assert!(matches!(
            port.await_reply(Duration::from_millis(10)),
            RecvOutcome::Empty | RecvOutcome::Disconnected
        ));
    }
}
