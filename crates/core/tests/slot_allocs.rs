//! Outside the plugin, a slot allocates nothing: the gNB reuses per-slice
//! scratch for the request, the inter-slice grant and the delivery pass,
//! and the metrics recorder adds into dense accumulators. What is left is
//! one allocation per plugin call — the decoded response.
//!
//! The cell is the paper's Fig. 5a shape (`mvno_cell`): three Wasm slices
//! (MT 3 Mb/s, RR 12, PF 15) of 20 fading UEs each. A counting global
//! allocator sees every thread of this binary, so this file holds exactly
//! one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use waran_core::{ChannelSpec, ScenarioBuilder, SchedKind, SliceSpec, TrafficSpec};

/// The system allocator, counting every new block (`alloc`,
/// `alloc_zeroed`). Growing a block (`realloc`) is not counted: each of
/// the recorder's 63 rate series gains one entry per 100-slot window and
/// doubles its capacity O(log slots) times, 0.13 reallocations per slot
/// over this window.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, so
// each inherits the caller's guarantees and `System`'s contract.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded; the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const WARMUP_SLOTS: u64 = 400;
const SLOTS: u64 = 1_000;
const SLICES: [(&str, SchedKind, f64); 3] = [
    ("mt", SchedKind::MaxThroughput, 3.0),
    ("rr", SchedKind::RoundRobin, 12.0),
    ("pf", SchedKind::ProportionalFair, 15.0),
];

#[test]
fn a_wasm_cell_slot_allocates_only_the_plugin_responses() {
    let mut b = ScenarioBuilder::new()
        .seconds((WARMUP_SLOTS + SLOTS) as f64 / 1000.0)
        .seed(3);
    for (name, kind, mbps) in SLICES {
        let mut slice = SliceSpec::new(name, kind).target_mbps(mbps);
        for i in 0..20 {
            let channel = if i % 2 == 0 {
                ChannelSpec::FadingGood
            } else {
                ChannelSpec::FadingCellEdge
            };
            let traffic = if i % 3 == 0 {
                TrafficSpec::FullBuffer
            } else {
                TrafficSpec::CbrMbps(1.5)
            };
            slice = slice.ue(channel, traffic);
        }
        b = b.slice(slice);
    }
    let mut scenario = b.build().expect("scenario builds");
    scenario.run_slots(WARMUP_SLOTS);
    let calls_before: u64 = plugin_calls(&scenario);

    let before = ALLOCS.load(Ordering::Relaxed);
    scenario.run_slots(SLOTS);
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;

    let calls = plugin_calls(&scenario) - calls_before;
    assert!(
        calls >= 2 * SLOTS,
        "the plugins must actually run ({calls} calls in {SLOTS} slots)"
    );
    let report = scenario.report();
    for s in &report.slices {
        assert_eq!(s.scheduler_faults, 0, "{}: no fault, no fallback", s.name);
    }
    let per_slot = allocs as f64 / SLOTS as f64;
    assert!(
        per_slot <= 3.1,
        "{per_slot:.2} allocations per slot for {:.2} plugin calls per slot",
        calls as f64 / SLOTS as f64
    );
}

/// Scheduler calls made so far, over the three slices' plugins.
fn plugin_calls(scenario: &waran_core::Scenario) -> u64 {
    SLICES
        .iter()
        .map(|(name, _, _)| {
            scenario
                .plugin_host()
                .stats(name)
                .expect("slice plugin installed")
                .count()
        })
        .sum()
}
