//! Outside-in tracing: a [`Timed`] scheduler wrapper and an in-memory
//! span log, both owned by the benchmark. Nothing here touches the
//! program under test beyond its public `SliceScheduler` seam.
//!
//! Aggregates (per-call durations, byte counts, fuel) cover **every**
//! slot of the traced repetition; full spans are kept for 1 slot in
//! [`SPAN_SAMPLE_EVERY`] and written out once, at exit.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use waran_abi::sched::{SchedRequest, SchedResponse};
use waran_core::WasmSliceScheduler;
use waran_host::PluginHost;
use waran_ransim::sched::{SchedulerFault, SliceScheduler};

/// Keep full spans for one slot in this many.
pub const SPAN_SAMPLE_EVERY: u64 = 64;

/// Keep at most this many live requests for the crossing-cost replay.
const REQUEST_SAMPLES: usize = 512;

/// One span: `name,start_ns,end_ns,parent,slot` in the trace file.
/// `parent` indexes the span that caused this one (`-1` for a root).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-boundary name (`slot`, `schedule`, `abi.encode`, `abi.decode`).
    pub name: &'static str,
    /// Start, ns since the traced repetition began.
    pub start_ns: u64,
    /// End, ns since the traced repetition began.
    pub end_ns: u64,
    /// Index of the causing span, or -1.
    pub parent: i64,
    /// Simulated slot — the identifier every span of one slot shares.
    pub slot: u64,
}

/// What the traced repetition accumulates. Shared between the stepping
/// loop (slot spans) and every [`Timed`] wrapper (call spans).
#[derive(Debug)]
pub struct TraceSink {
    origin: Instant,
    /// Sampled spans, in completion order except that a slot's root span
    /// is reserved before its children.
    pub spans: Vec<Span>,
    /// Index of the open slot span when the current slot is sampled.
    open_slot: Option<usize>,
    /// Wall µs of every `schedule` call, outside view.
    pub call_us: Vec<f64>,
    /// Σ `schedule` wall ns.
    pub call_ns: u64,
    /// Σ ns the wrappers spent on their own probes (ABI re-timing, fuel
    /// reads) — inside the slot's wall time but not the program's work.
    pub probe_ns: u64,
    /// Σ re-timed `SchedRequest::encode_into` ns.
    pub encode_ns: u64,
    /// Σ re-timed `SchedResponse::decode` ns.
    pub decode_ns: u64,
    /// Σ encoded request bytes.
    pub req_bytes: u64,
    /// Σ encoded response bytes.
    pub resp_bytes: u64,
    /// Successful calls (the ones with a response to re-time).
    pub ok_calls: u64,
    /// Σ fuel consumed by successful calls.
    pub fuel: u64,
    /// Σ guest instructions retired by successful calls.
    pub instrs: u64,
    /// Calls whose fuel/instruction reading was available.
    pub metered_calls: u64,
    /// A bounded sample of live requests, for the crossing-cost replay.
    pub requests: Vec<SchedRequest>,
}

impl TraceSink {
    /// An empty sink whose clock starts now.
    pub fn new() -> Arc<Mutex<TraceSink>> {
        Arc::new(Mutex::new(TraceSink::empty()))
    }

    fn empty() -> TraceSink {
        TraceSink {
            origin: Instant::now(),
            spans: Vec::new(),
            open_slot: None,
            call_us: Vec::new(),
            call_ns: 0,
            probe_ns: 0,
            encode_ns: 0,
            decode_ns: 0,
            req_bytes: 0,
            resp_bytes: 0,
            ok_calls: 0,
            fuel: 0,
            instrs: 0,
            metered_calls: 0,
            requests: Vec::new(),
        }
    }

    /// Forget everything recorded so far and restart the clock (warm-up
    /// slots run instrumented but are not part of the budget).
    pub fn reset(&mut self) {
        *self = TraceSink::empty();
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Open the root span of `slot` if this slot is sampled.
    pub fn begin_slot(&mut self, slot: u64, start: Instant) {
        self.open_slot = slot.is_multiple_of(SPAN_SAMPLE_EVERY).then(|| {
            let start_ns = self.ns(start);
            self.spans.push(Span {
                name: "slot",
                start_ns,
                end_ns: start_ns,
                parent: -1,
                slot,
            });
            self.spans.len() - 1
        });
    }

    /// Close the slot's root span.
    pub fn end_slot(&mut self, end: Instant) {
        if let Some(idx) = self.open_slot.take() {
            self.spans[idx].end_ns = self.ns(end);
        }
    }

    /// Record a child span under the open slot span (no-op on unsampled
    /// slots); returns its index for grandchildren.
    fn child(&mut self, name: &'static str, start: Instant, end: Instant, parent: usize) -> usize {
        let slot = self.spans[parent].slot;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: parent as i64,
            slot,
        });
        self.spans.len() - 1
    }

    /// The trace file body: a header line, then one line per span.
    pub fn spans_csv(&self) -> String {
        let mut out = String::from("name,start_ns,end_ns,parent,slot\n");
        for s in &self.spans {
            out.push_str(&format!(
                "{},{},{},{},{}\n",
                s.name, s.start_ns, s.end_ns, s.parent, s.slot
            ));
        }
        out
    }
}

/// Lock the sink; a panic elsewhere must not hide the trace.
pub fn lock(sink: &Mutex<TraceSink>) -> MutexGuard<'_, TraceSink> {
    sink.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A [`SliceScheduler`] that times its inner scheduler from outside and
/// re-times the ABI codecs on the live request/response.
pub struct Timed<S> {
    inner: S,
    /// Host slot to read fuel/instruction counters from after a good call.
    probe: Option<(Arc<PluginHost<()>>, String)>,
    /// Guest instructions retired at the previous reading.
    last_instrs: u64,
    sink: Arc<Mutex<TraceSink>>,
    scratch: Vec<u8>,
}

impl Timed<WasmSliceScheduler> {
    /// Wrap a fresh binding to `slot_name` in `host` — the same host slot
    /// the scenario installed, so swaps, strikes and stats keep landing
    /// where the untraced run put them.
    pub fn wasm(host: &Arc<PluginHost<()>>, slot_name: &str, sink: &Arc<Mutex<TraceSink>>) -> Self {
        Timed {
            inner: WasmSliceScheduler::new(host.clone(), slot_name),
            probe: Some((host.clone(), slot_name.to_string())),
            last_instrs: 0,
            sink: sink.clone(),
            scratch: Vec::new(),
        }
    }
}

impl<S: SliceScheduler> SliceScheduler for Timed<S> {
    fn schedule(&mut self, req: &SchedRequest) -> Result<SchedResponse, SchedulerFault> {
        let start = Instant::now();
        let result = self.inner.schedule(req);
        let end = Instant::now();

        // Everything below is the benchmark's own work; it is timed so
        // the slot budget can subtract it.
        self.scratch.clear();
        let enc_start = Instant::now();
        req.encode_into(&mut self.scratch);
        let enc_end = Instant::now();
        let decoded = result.as_ref().ok().map(|resp| {
            let bytes = resp.encode();
            let dec_start = Instant::now();
            let again = SchedResponse::decode(&bytes, req.ues.len() + 8);
            let dec_end = Instant::now();
            debug_assert!(again.is_ok());
            (bytes.len(), dec_start, dec_end)
        });
        // Fuel and instruction counters, read only after a *successful*
        // call: `with_plugin` counts as a good call in the slot's health,
        // which after a success changes nothing the digest sees, but
        // after a fault would reset the strike streak.
        let metered = match (&self.probe, result.is_ok()) {
            (Some((host, name)), true) => host
                .with_plugin(name, |p| {
                    Ok((p.instance().fuel_consumed(), p.instance().stats()))
                })
                .ok(),
            _ => None,
        };

        let mut sink = lock(&self.sink);
        let call_ns = (end - start).as_nanos() as u64;
        sink.call_ns += call_ns;
        sink.call_us.push(call_ns as f64 / 1e3);
        sink.encode_ns += (enc_end - enc_start).as_nanos() as u64;
        sink.req_bytes += self.scratch.len() as u64;
        if let Some((resp_len, dec_start, dec_end)) = decoded {
            sink.ok_calls += 1;
            sink.decode_ns += (dec_end - dec_start).as_nanos() as u64;
            sink.resp_bytes += resp_len as u64;
        }
        if let Some((fuel, stats)) = metered {
            // `instrs` is a lifetime counter of the instance. One ABI call
            // is at most three guest invocations (`wrn_alloc`, `schedule`,
            // `wrn_reset`), so a count that low means a hot swap just put
            // a fresh instance in the slot and the counter restarted.
            let fresh = stats.invokes <= 3;
            let before = if fresh { 0 } else { self.last_instrs };
            self.last_instrs = stats.instrs;
            if let Some(fuel) = fuel {
                sink.fuel += fuel;
                sink.instrs += stats.instrs.saturating_sub(before);
                sink.metered_calls += 1;
            }
        }
        if sink.requests.len() < REQUEST_SAMPLES && req.slot.is_multiple_of(SPAN_SAMPLE_EVERY) {
            sink.requests.push(req.clone());
        }
        if let Some(slot_span) = sink.open_slot {
            let call = sink.child("schedule", start, end, slot_span);
            sink.child("abi.encode", enc_start, enc_end, call);
            if let Some((_, dec_start, dec_end)) = decoded {
                sink.child("abi.decode", dec_start, dec_end, call);
            }
        }
        sink.probe_ns += Instant::now().duration_since(end).as_nanos() as u64;
        result
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waran_ransim::sched::RoundRobin;

    #[test]
    fn spans_nest_under_sampled_slots_only() {
        let sink = TraceSink::new();
        let mut timed = Timed {
            inner: RoundRobin::new(),
            probe: None,
            last_instrs: 0,
            sink: sink.clone(),
            scratch: Vec::new(),
        };
        for slot in [0, 1, SPAN_SAMPLE_EVERY] {
            let req = SchedRequest {
                slot,
                prbs_granted: 10,
                slice_id: 0,
                ues: Vec::new(),
            };
            let t = Instant::now();
            lock(&sink).begin_slot(slot, t);
            timed.schedule(&req).unwrap();
            lock(&sink).end_slot(Instant::now());
        }
        let sink = lock(&sink);
        assert_eq!(sink.call_us.len(), 3, "aggregates cover every slot");
        let names: Vec<_> = sink
            .spans
            .iter()
            .map(|s| (s.name, s.parent, s.slot))
            .collect();
        assert_eq!(
            names,
            vec![
                ("slot", -1, 0),
                ("schedule", 0, 0),
                ("abi.encode", 1, 0),
                ("abi.decode", 1, 0),
                ("slot", -1, SPAN_SAMPLE_EVERY),
                ("schedule", 4, SPAN_SAMPLE_EVERY),
                ("abi.encode", 5, SPAN_SAMPLE_EVERY),
                ("abi.decode", 5, SPAN_SAMPLE_EVERY),
            ]
        );
        assert!(sink.spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(sink
            .spans_csv()
            .starts_with("name,start_ns,end_ns,parent,slot\nslot,"));
    }
}
