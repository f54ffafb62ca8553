//! The near-RT RIC host: KPI store, xApp lifecycle, inter-xApp messaging.
//!
//! xApps are the paper's second plugin category (§4.B): the RIC host calls
//! an exported entry point per indication, and exposes host functions —
//! here inter-xApp messaging — back into the sandbox. [`XApp`] is the
//! seam; native Rust xApps (traffic steering, slice SLA assurance) and
//! [`WasmXApp`]-wrapped plugins are interchangeable.

use std::collections::{BTreeMap, HashMap, VecDeque};

use waran_host::plugin::{Plugin, PluginError, SandboxPolicy};
use waran_wasm::instance::Linker;
use waran_wasm::interp::Value;
use waran_wasm::types::ValType;
use waran_wasm::Trap;

use crate::e2::{ControlAction, Indication};

/// Latest KPI state per UE plus per-slice aggregates.
#[derive(Debug, Default, Clone)]
pub struct KpiStore {
    latest: BTreeMap<u32, crate::e2::KpiReport>,
    /// Sum of recent throughput per slice (recomputed each indication).
    slice_tput_bps: BTreeMap<u32, f64>,
    /// Indications absorbed.
    pub indications: u64,
}

impl KpiStore {
    /// Merge an indication.
    pub fn absorb(&mut self, ind: &Indication) {
        self.indications += 1;
        for r in &ind.reports {
            self.latest.insert(r.ue_id, *r);
        }
        self.slice_tput_bps.clear();
        for r in self.latest.values() {
            *self.slice_tput_bps.entry(r.slice_id).or_insert(0.0) += r.tput_bps;
        }
    }

    /// Latest report for a UE.
    pub fn ue(&self, ue_id: u32) -> Option<&crate::e2::KpiReport> {
        self.latest.get(&ue_id)
    }

    /// All UEs.
    pub fn ues(&self) -> impl Iterator<Item = &crate::e2::KpiReport> {
        self.latest.values()
    }

    /// Aggregate throughput of a slice, bit/s.
    pub fn slice_tput_bps(&self, slice_id: u32) -> f64 {
        self.slice_tput_bps.get(&slice_id).copied().unwrap_or(0.0)
    }
}

/// Context handed to an xApp on each indication.
pub struct XAppCtx<'a> {
    /// The RIC's KPI store (read-only).
    pub kpis: &'a KpiStore,
    /// Messages other xApps sent to this one since its last run.
    pub inbox: Vec<Vec<u8>>,
    /// Messages to deliver to other xApps: `(destination xApp, payload)`.
    pub outbox: Vec<(String, Vec<u8>)>,
    /// Malformed action records the xApp's output decoder skipped this
    /// turn (set by [`WasmXApp`]; the RIC folds it into
    /// [`NearRtRic::action_decode_skips`]).
    pub decode_skips: u64,
    /// Set when the xApp faulted this turn and yielded nothing (set by
    /// [`WasmXApp`]; the RIC counts it in [`NearRtRic::xapp_faults`]).
    pub faulted: bool,
}

/// An application hosted by the near-RT RIC.
pub trait XApp: Send {
    /// xApp name (also its messaging address).
    fn name(&self) -> &str;

    /// Handle one indication; returns control actions for the RAN.
    fn on_indication(&mut self, ctx: &mut XAppCtx<'_>, ind: &Indication) -> Vec<ControlAction>;
}

/// The near-RT RIC.
pub struct NearRtRic {
    xapps: Vec<Box<dyn XApp>>,
    kpis: KpiStore,
    mailboxes: HashMap<String, VecDeque<Vec<u8>>>,
    /// Lifetime count of control actions emitted.
    pub actions_emitted: u64,
    /// xApp faults observed (a faulting xApp skips its turn, §6.A).
    pub xapp_faults: u64,
    /// Malformed action records skipped while decoding xApp output.
    pub action_decode_skips: u64,
}

impl Default for NearRtRic {
    fn default() -> Self {
        Self::new()
    }
}

impl NearRtRic {
    /// Empty RIC.
    pub fn new() -> Self {
        NearRtRic {
            xapps: Vec::new(),
            kpis: KpiStore::default(),
            mailboxes: HashMap::new(),
            actions_emitted: 0,
            xapp_faults: 0,
            action_decode_skips: 0,
        }
    }

    /// Deploy an xApp.
    pub fn add_xapp(&mut self, xapp: Box<dyn XApp>) {
        self.mailboxes.entry(xapp.name().to_string()).or_default();
        self.xapps.push(xapp);
    }

    /// The KPI store.
    pub fn kpis(&self) -> &KpiStore {
        &self.kpis
    }

    /// Process one indication through every xApp; returns the combined
    /// control actions.
    pub fn handle_indication(&mut self, ind: &Indication) -> Vec<ControlAction> {
        self.kpis.absorb(ind);
        let mut all_actions = Vec::new();
        let mut routed: Vec<(String, Vec<u8>)> = Vec::new();
        for xapp in &mut self.xapps {
            let name = xapp.name().to_string();
            let inbox = self
                .mailboxes
                .get_mut(&name)
                .map(|q| q.drain(..).collect())
                .unwrap_or_default();
            let mut ctx = XAppCtx {
                kpis: &self.kpis,
                inbox,
                outbox: Vec::new(),
                decode_skips: 0,
                faulted: false,
            };
            let actions = xapp.on_indication(&mut ctx, ind);
            all_actions.extend(actions);
            routed.append(&mut ctx.outbox);
            self.action_decode_skips += ctx.decode_skips;
            self.xapp_faults += u64::from(ctx.faulted);
        }
        for (dst, msg) in routed {
            if let Some(q) = self.mailboxes.get_mut(&dst) {
                q.push_back(msg);
            }
            // Messages to unknown xApps are dropped (logged by the embedder).
        }
        self.actions_emitted += all_actions.len() as u64;
        all_actions
    }
}

// ---------------------------------------------------------------------
// Native xApps
// ---------------------------------------------------------------------

/// Traffic steering: hand over UEs whose channel stays bad.
///
/// A UE reporting CQI below `cqi_threshold` for `hysteresis` consecutive
/// indications is steered to `target_cell`. (In the simulator the handover
/// is applied by the E2 agent as a channel-model change.)
pub struct TrafficSteering {
    /// CQI below this is "bad".
    pub cqi_threshold: u8,
    /// Consecutive bad reports before acting.
    pub hysteresis: u32,
    /// Where to send the UE.
    pub target_cell: u32,
    bad_streak: HashMap<u32, u32>,
}

impl TrafficSteering {
    /// Steering xApp with the given policy.
    pub fn new(cqi_threshold: u8, hysteresis: u32, target_cell: u32) -> Self {
        TrafficSteering {
            cqi_threshold,
            hysteresis,
            target_cell,
            bad_streak: HashMap::new(),
        }
    }
}

impl XApp for TrafficSteering {
    fn name(&self) -> &str {
        "traffic-steering"
    }

    fn on_indication(&mut self, _ctx: &mut XAppCtx<'_>, ind: &Indication) -> Vec<ControlAction> {
        let mut actions = Vec::new();
        for r in &ind.reports {
            let streak = self.bad_streak.entry(r.ue_id).or_insert(0);
            if r.cqi < self.cqi_threshold {
                *streak += 1;
                if *streak == self.hysteresis {
                    actions.push(ControlAction::Handover {
                        ue_id: r.ue_id,
                        target_cell: self.target_cell,
                    });
                    *streak = 0;
                }
            } else {
                *streak = 0;
            }
        }
        actions
    }
}

/// Slice SLA assurance: nudge a slice's target rate when it underperforms.
///
/// When a slice's aggregate throughput falls below `shortfall` × SLA for
/// `hysteresis` consecutive indications, the xApp raises the enforced
/// target (headroom); when it recovers, the target returns to the SLA.
pub struct SliceSlaAssurance {
    /// SLA per slice, bit/s.
    pub slas_bps: HashMap<u32, f64>,
    /// Fraction of the SLA below which the slice is "failing".
    pub shortfall: f64,
    /// Consecutive failing indications before acting.
    pub hysteresis: u32,
    /// Multiplier applied to the target while failing.
    pub boost: f64,
    failing_streak: HashMap<u32, u32>,
    boosted: HashMap<u32, bool>,
}

impl SliceSlaAssurance {
    /// SLA-assurance xApp over `(slice, sla_bps)` pairs.
    pub fn new(slas: &[(u32, f64)]) -> Self {
        SliceSlaAssurance {
            slas_bps: slas.iter().copied().collect(),
            shortfall: 0.9,
            hysteresis: 3,
            boost: 1.15,
            failing_streak: HashMap::new(),
            boosted: HashMap::new(),
        }
    }
}

impl XApp for SliceSlaAssurance {
    fn name(&self) -> &str {
        "slice-sla"
    }

    fn on_indication(&mut self, ctx: &mut XAppCtx<'_>, _ind: &Indication) -> Vec<ControlAction> {
        let mut actions = Vec::new();
        for (&slice, &sla) in &self.slas_bps {
            let achieved = ctx.kpis.slice_tput_bps(slice);
            let streak = self.failing_streak.entry(slice).or_insert(0);
            let boosted = self.boosted.entry(slice).or_insert(false);
            if achieved < sla * self.shortfall {
                *streak += 1;
                if *streak >= self.hysteresis && !*boosted {
                    actions.push(ControlAction::SetSliceTarget {
                        slice_id: slice,
                        target_bps: sla * self.boost,
                    });
                    *boosted = true;
                }
            } else {
                *streak = 0;
                if *boosted {
                    actions.push(ControlAction::SetSliceTarget {
                        slice_id: slice,
                        target_bps: sla,
                    });
                    *boosted = false;
                }
            }
        }
        actions
    }
}

// ---------------------------------------------------------------------
// Wasm-hosted xApps
// ---------------------------------------------------------------------

/// Host state exposed to a Wasm xApp: its inbox and outgoing messages.
#[derive(Debug, Default)]
pub struct XAppHostState {
    inbox: VecDeque<Vec<u8>>,
    outgoing: Vec<(String, Vec<u8>)>,
}

/// Build the host-function linker a Wasm xApp instantiates against:
///
/// * `env.xapp_send(dst_ptr, dst_len, msg_ptr, msg_len)` — queue a message
///   to another xApp by name,
/// * `env.xapp_recv(buf_ptr, buf_cap) -> i32` — pop the next inbox message
///   into guest memory (returns its length, `-1` when empty, or traps if
///   the buffer is too small).
pub fn xapp_linker() -> Linker<XAppHostState> {
    let mut linker: Linker<XAppHostState> = Linker::new();
    linker.func(
        "env",
        "xapp_send",
        &[ValType::I32, ValType::I32, ValType::I32, ValType::I32],
        &[],
        |state, mem, args| {
            let dst = mem.read_bytes(args[0].as_u32(), args[1].as_u32())?.to_vec();
            let msg = mem.read_bytes(args[2].as_u32(), args[3].as_u32())?.to_vec();
            let dst = String::from_utf8(dst)
                .map_err(|_| Trap::HostError("xapp_send: destination not UTF-8".into()))?;
            state.outgoing.push((dst, msg));
            Ok(None)
        },
    );
    linker.func(
        "env",
        "xapp_recv",
        &[ValType::I32, ValType::I32],
        &[ValType::I32],
        |state, mem, args| match state.inbox.pop_front() {
            None => Ok(Some(Value::I32(-1))),
            Some(msg) => {
                if msg.len() > args[1].as_u32() as usize {
                    return Err(Trap::HostError("xapp_recv: buffer too small".into()));
                }
                mem.write_bytes(args[0].as_u32(), &msg)?;
                Ok(Some(Value::I32(msg.len() as i32)))
            }
        },
    );
    linker
}

/// An xApp implemented as a Wasm plugin.
///
/// The plugin must export `on_indication(ptr, len) -> packed` taking the
/// xApp-ABI indication layout and returning a packed list of control
/// actions ([`ControlAction::list_from_bytes`]).
pub struct WasmXApp {
    name: String,
    plugin: Plugin<XAppHostState>,
}

impl WasmXApp {
    /// Load a Wasm xApp from module bytes.
    pub fn new(name: &str, wasm: &[u8], policy: SandboxPolicy) -> Result<Self, PluginError> {
        let plugin = Plugin::new(wasm, &xapp_linker(), XAppHostState::default(), policy)?;
        Ok(WasmXApp {
            name: name.to_string(),
            plugin,
        })
    }
}

impl XApp for WasmXApp {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_indication(&mut self, ctx: &mut XAppCtx<'_>, ind: &Indication) -> Vec<ControlAction> {
        self.plugin.instance_mut().data.inbox = ctx.inbox.drain(..).collect();
        let input = ind.to_xapp_bytes();
        match self.plugin.call("on_indication", &input) {
            Ok(out) => {
                let state = &mut self.plugin.instance_mut().data;
                ctx.outbox.append(&mut state.outgoing);
                let (actions, skipped) = ControlAction::list_from_bytes(&out);
                ctx.decode_skips += skipped as u64;
                actions
            }
            Err(_fault) => {
                // A faulty xApp yields no actions; the RIC keeps running
                // and counts the skipped turn.
                ctx.faulted = true;
                Vec::new()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::e2::KpiReport;

    fn report(ue: u32, slice: u32, cqi: u8, tput: f64) -> KpiReport {
        KpiReport {
            ue_id: ue,
            slice_id: slice,
            cqi,
            mcs: cqi * 2,
            buffer_bytes: 1000,
            tput_bps: tput,
        }
    }

    fn ind(slot: u64, reports: Vec<KpiReport>) -> Indication {
        Indication { slot, reports }
    }

    #[test]
    fn kpi_store_tracks_latest_and_aggregates() {
        let mut store = KpiStore::default();
        store.absorb(&ind(1, vec![report(1, 0, 10, 5e6), report(2, 0, 8, 3e6)]));
        assert_eq!(store.ue(1).unwrap().cqi, 10);
        assert_eq!(store.slice_tput_bps(0), 8e6);
        // Later report replaces the UE's entry.
        store.absorb(&ind(2, vec![report(1, 0, 4, 1e6)]));
        assert_eq!(store.ue(1).unwrap().cqi, 4);
        assert_eq!(store.slice_tput_bps(0), 4e6);
        assert_eq!(store.indications, 2);
    }

    #[test]
    fn traffic_steering_waits_for_hysteresis() {
        let mut ric = NearRtRic::new();
        ric.add_xapp(Box::new(TrafficSteering::new(5, 3, 2)));
        // Two bad reports: nothing yet.
        for slot in 0..2 {
            let actions = ric.handle_indication(&ind(slot, vec![report(70, 0, 3, 1e6)]));
            assert!(actions.is_empty(), "slot {slot}");
        }
        // Third consecutive bad report triggers the handover.
        let actions = ric.handle_indication(&ind(2, vec![report(70, 0, 3, 1e6)]));
        assert_eq!(
            actions,
            vec![ControlAction::Handover {
                ue_id: 70,
                target_cell: 2
            }]
        );
    }

    #[test]
    fn traffic_steering_resets_on_recovery() {
        let mut ric = NearRtRic::new();
        ric.add_xapp(Box::new(TrafficSteering::new(5, 3, 2)));
        ric.handle_indication(&ind(0, vec![report(70, 0, 3, 1e6)]));
        ric.handle_indication(&ind(1, vec![report(70, 0, 3, 1e6)]));
        // Recovery breaks the streak.
        ric.handle_indication(&ind(2, vec![report(70, 0, 12, 9e6)]));
        let actions = ric.handle_indication(&ind(3, vec![report(70, 0, 3, 1e6)]));
        assert!(actions.is_empty());
    }

    #[test]
    fn sla_assurance_boosts_and_restores() {
        let mut ric = NearRtRic::new();
        ric.add_xapp(Box::new(SliceSlaAssurance::new(&[(0, 10e6)])));
        // Underperforming for 3 indications → boost.
        let mut boost_actions = Vec::new();
        for slot in 0..4 {
            boost_actions = ric.handle_indication(&ind(slot, vec![report(1, 0, 10, 5e6)]));
            if !boost_actions.is_empty() {
                break;
            }
        }
        assert_eq!(
            boost_actions,
            vec![ControlAction::SetSliceTarget {
                slice_id: 0,
                target_bps: 10e6 * 1.15
            }]
        );
        // Recovery → restore the SLA target.
        let actions = ric.handle_indication(&ind(9, vec![report(1, 0, 14, 11e6)]));
        assert_eq!(
            actions,
            vec![ControlAction::SetSliceTarget {
                slice_id: 0,
                target_bps: 10e6
            }]
        );
    }

    struct Echo {
        to: String,
    }
    impl XApp for Echo {
        fn name(&self) -> &str {
            "echo"
        }
        fn on_indication(
            &mut self,
            ctx: &mut XAppCtx<'_>,
            _ind: &Indication,
        ) -> Vec<ControlAction> {
            ctx.outbox.push((self.to.clone(), b"ping".to_vec()));
            Vec::new()
        }
    }
    struct Listener {
        got: std::sync::Arc<std::sync::atomic::AtomicUsize>,
    }
    impl XApp for Listener {
        fn name(&self) -> &str {
            "listener"
        }
        fn on_indication(
            &mut self,
            ctx: &mut XAppCtx<'_>,
            _ind: &Indication,
        ) -> Vec<ControlAction> {
            self.got
                .fetch_add(ctx.inbox.len(), std::sync::atomic::Ordering::SeqCst);
            Vec::new()
        }
    }

    #[test]
    fn inter_xapp_messaging_routes() {
        let got = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let mut ric = NearRtRic::new();
        ric.add_xapp(Box::new(Echo {
            to: "listener".into(),
        }));
        ric.add_xapp(Box::new(Listener { got: got.clone() }));
        ric.handle_indication(&ind(0, vec![]));
        ric.handle_indication(&ind(1, vec![]));
        // Messages sent in indication k arrive at indication k+1.
        assert_eq!(got.load(std::sync::atomic::Ordering::SeqCst), 1);
    }

    #[test]
    fn faulting_wasm_xapp_is_counted_and_skips_only_its_own_turn() {
        struct Steady;
        impl XApp for Steady {
            fn name(&self) -> &str {
                "steady"
            }
            fn on_indication(
                &mut self,
                _: &mut XAppCtx<'_>,
                ind: &Indication,
            ) -> Vec<ControlAction> {
                vec![ControlAction::Handover {
                    ue_id: ind.slot as u32,
                    target_cell: 1,
                }]
            }
        }
        // Traps on its second indication only.
        let wasm = waran_plugc::compile(
            r#"global seen: i32 = 0;
               export fn on_indication(ptr: i32, len: i32) -> i64 {
                   seen = seen + 1;
                   if (seen == 2) { trap(); }
                   return pack(0, 0);
               }"#,
        )
        .expect("compiles");
        let mut ric = NearRtRic::new();
        let flaky = WasmXApp::new("flaky", &wasm, SandboxPolicy::default()).expect("loads");
        ric.add_xapp(Box::new(flaky));
        ric.add_xapp(Box::new(Steady));
        for slot in 0..3 {
            // The xApp after the faulting one still gets its turn.
            assert_eq!(ric.handle_indication(&ind(slot, vec![])).len(), 1);
            assert_eq!(ric.xapp_faults, u64::from(slot >= 1), "slot {slot}");
        }
        assert_eq!(ric.actions_emitted, 3);
    }

    #[test]
    fn messages_to_unknown_xapps_dropped() {
        let mut ric = NearRtRic::new();
        ric.add_xapp(Box::new(Echo {
            to: "nobody".into(),
        }));
        // Must not panic or leak.
        ric.handle_indication(&ind(0, vec![]));
        ric.handle_indication(&ind(1, vec![]));
    }
}
