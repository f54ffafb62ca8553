//! The bridge between the gNB's scheduler seam and the plugin host: an
//! intra-slice scheduler whose decisions come from a Wasm plugin.
//!
//! The binding goes through a shared [`PluginHost`] slot so operators can
//! hot-swap the plugin (Fig. 5b) or watch its health/stats while the gNB
//! runs. Faults surface as [`SchedulerFault`]s; the gNB then serves the
//! slot with its native fallback and the host's quarantine policy decides
//! whether the plugin gets another chance (§6.A).

use std::sync::Arc;

use waran_abi::sched::{SchedRequest, SchedResponse};
use waran_host::plugin::{PluginError, SandboxPolicy};
use waran_host::{PluginHost, SlotHandle, TemplateCache};
use waran_ransim::sched::{SchedulerFault, SliceScheduler};

/// A [`SliceScheduler`] backed by a named plugin in a [`PluginHost`].
pub struct WasmSliceScheduler {
    host: Arc<PluginHost<()>>,
    slot_name: String,
    display_name: String,
    /// Pinned slot, resolved on first use: the per-slot scheduler call
    /// then skips the host's name → slot map and contends only on the
    /// slot's own call mutex. Hot swaps still land (the handle shares the
    /// slot's publication cell).
    handle: Option<SlotHandle<()>>,
}

impl WasmSliceScheduler {
    /// Bind to the plugin installed under `slot_name` in `host`.
    pub fn new(host: Arc<PluginHost<()>>, slot_name: &str) -> Self {
        WasmSliceScheduler {
            host,
            slot_name: slot_name.to_string(),
            display_name: format!("wasm:{slot_name}"),
            handle: None,
        }
    }

    /// Convenience: create a host slot from raw module bytes and bind to it.
    pub fn from_wasm(
        host: Arc<PluginHost<()>>,
        slot_name: &str,
        wasm: &[u8],
        policy: SandboxPolicy,
    ) -> Result<Self, PluginError> {
        // Template-cached: binding the same plugin to many slices/cells
        // shares one validated module, its compiled IR, one resolved
        // import vector and one state snapshot — each install past the
        // first is a memcpy stamp-out.
        let pre = TemplateCache::global().get_or_build(wasm, policy)?;
        host.install(slot_name, pre.instantiate(())?);
        Ok(Self::new(host, slot_name))
    }

    /// The backing host (for swaps, stats, health).
    pub fn host(&self) -> &Arc<PluginHost<()>> {
        &self.host
    }

    /// The host slot this scheduler calls.
    pub fn slot_name(&self) -> &str {
        &self.slot_name
    }
}

impl SliceScheduler for WasmSliceScheduler {
    fn schedule(&mut self, req: &SchedRequest) -> Result<SchedResponse, SchedulerFault> {
        if self.handle.is_none() {
            self.handle = self.host.handle(&self.slot_name);
        }
        let result = match &self.handle {
            Some(handle) => handle.call_sched(req),
            None => Err(PluginError::NoSuchPlugin(self.slot_name.clone())),
        };
        result.map_err(|e| SchedulerFault {
            code: match &e {
                PluginError::Trap(t) => format!("trap:{}", t.code()),
                PluginError::Abi(_) => "abi".to_string(),
                PluginError::Codec(_) => "codec".to_string(),
                PluginError::Quarantined { .. } => "quarantined".to_string(),
                PluginError::NoSuchPlugin(_) => "missing".to_string(),
                PluginError::Admission { .. } => "admission".to_string(),
                PluginError::Load(_) | PluginError::Instantiate(_) => "load".to_string(),
            },
            detail: e.to_string(),
        })
    }

    fn name(&self) -> &str {
        &self.display_name
    }
}

/// Install a plugin compiled from `.wasm` bytes into `host` under `name`
/// (hot swap if the slot exists).
///
/// Swaps go through the content-addressed [`TemplateCache`]: installing
/// *different* bytes builds (or re-uses) a different template, so the new
/// slot epoch can never be stamped from the previous module's snapshot,
/// while re-installing identical bytes intentionally reuses one.
pub fn install_plugin(
    host: &PluginHost<()>,
    name: &str,
    wasm: &[u8],
    policy: SandboxPolicy,
) -> Result<(), PluginError> {
    let pre = TemplateCache::global().get_or_build(wasm, policy)?;
    host.install(name, pre.instantiate(())?);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plugins;
    use waran_abi::sched::UeInfo;

    fn req(prbs: u32, n: usize) -> SchedRequest {
        SchedRequest {
            slot: 0,
            prbs_granted: prbs,
            slice_id: 0,
            ues: (0..n)
                .map(|i| UeInfo {
                    ue_id: 100 + i as u32,
                    cqi: 10,
                    mcs: 15,
                    flags: 0,
                    buffer_bytes: 1 << 20,
                    avg_tput_bps: 1e6 * (i as f64 + 1.0),
                    prb_capacity_bits: 400.0 + 50.0 * i as f64,
                })
                .collect(),
        }
    }

    #[test]
    fn wasm_rr_schedules_everyone() {
        let host = Arc::new(PluginHost::new());
        let mut sched =
            WasmSliceScheduler::from_wasm(host, "rr", plugins::rr_wasm(), SandboxPolicy::default())
                .unwrap();
        let resp = sched.schedule(&req(52, 4)).unwrap();
        assert_eq!(resp.allocs.len(), 4);
        assert_eq!(resp.total_prbs(), 52);
    }

    #[test]
    fn wasm_mt_picks_best_channel() {
        let host = Arc::new(PluginHost::new());
        let mut sched =
            WasmSliceScheduler::from_wasm(host, "mt", plugins::mt_wasm(), SandboxPolicy::default())
                .unwrap();
        let resp = sched.schedule(&req(10, 3)).unwrap();
        // Highest capacity is the last UE (102).
        assert_eq!(resp.allocs[0].ue_id, 102);
        assert_eq!(resp.total_prbs(), 10);
    }

    #[test]
    fn wasm_pf_picks_lowest_average_on_equal_channels() {
        let host = Arc::new(PluginHost::new());
        let mut sched =
            WasmSliceScheduler::from_wasm(host, "pf", plugins::pf_wasm(), SandboxPolicy::default())
                .unwrap();
        let mut r = req(10, 3);
        for ue in &mut r.ues {
            ue.prb_capacity_bits = 500.0;
        }
        // avg is 1e6, 2e6, 3e6 -> UE 100 has the best PF metric.
        let resp = sched.schedule(&r).unwrap();
        assert_eq!(resp.allocs[0].ue_id, 100);
    }

    #[test]
    fn wasm_matches_native_policies() {
        // The plugin library and the native schedulers must produce the
        // same decisions for the same requests.
        use waran_ransim::sched::{MaxThroughput, ProportionalFair, RoundRobin};
        let host = Arc::new(PluginHost::new());
        let cases: Vec<(&str, &[u8], Box<dyn SliceScheduler>)> = vec![
            ("rr", plugins::rr_wasm(), Box::new(RoundRobin::new())),
            ("pf", plugins::pf_wasm(), Box::new(ProportionalFair::new())),
            ("mt", plugins::mt_wasm(), Box::new(MaxThroughput::new())),
        ];
        for (name, wasm, mut native) in cases {
            let mut wasm_sched =
                WasmSliceScheduler::from_wasm(host.clone(), name, wasm, SandboxPolicy::default())
                    .unwrap();
            for prbs in [0u32, 1, 7, 52] {
                for n in [0usize, 1, 3, 10] {
                    let r = req(prbs, n);
                    let w = wasm_sched.schedule(&r).unwrap();
                    let nv = native.schedule(&r).unwrap();
                    assert_eq!(w, nv, "{name} diverged at prbs={prbs} n={n}");
                }
            }
        }
    }

    #[test]
    fn hot_swap_through_shared_host() {
        let host = Arc::new(PluginHost::new());
        let mut sched = WasmSliceScheduler::from_wasm(
            host.clone(),
            "slice0",
            plugins::mt_wasm(),
            SandboxPolicy::default(),
        )
        .unwrap();
        let r = req(10, 3);
        let before = sched.schedule(&r).unwrap();
        assert_eq!(before.allocs[0].ue_id, 102); // MT picks best channel
                                                 // Operator pushes PF into the same slot; the scheduler object is
                                                 // untouched.
        install_plugin(
            &host,
            "slice0",
            plugins::pf_wasm(),
            SandboxPolicy::default(),
        )
        .unwrap();
        let mut r2 = r.clone();
        for ue in &mut r2.ues {
            ue.prb_capacity_bits = 500.0;
        }
        let after = sched.schedule(&r2).unwrap();
        assert_eq!(after.allocs[0].ue_id, 100); // PF picks lowest average
        assert_eq!(host.health("slice0").unwrap().swaps, 1);
    }

    #[test]
    fn faulty_plugin_surfaces_as_scheduler_fault() {
        let host = Arc::new(PluginHost::new());
        let wasm = plugins::compile_faulty(plugins::faulty::NULL_DEREF);
        let policy = SandboxPolicy {
            quarantine_after: 2,
            ..SandboxPolicy::default()
        };
        let mut sched = WasmSliceScheduler::from_wasm(host.clone(), "bad", &wasm, policy).unwrap();
        let fault = sched.schedule(&req(10, 1)).unwrap_err();
        assert_eq!(fault.code, "trap:memory-out-of-bounds");
        let fault = sched.schedule(&req(10, 1)).unwrap_err();
        assert_eq!(fault.code, "trap:memory-out-of-bounds");
        // Third call: quarantined without running guest code.
        let fault = sched.schedule(&req(10, 1)).unwrap_err();
        assert_eq!(fault.code, "quarantined");
    }
}
