//! # waran-ransim — a slot-accurate 5G gNB MAC simulator
//!
//! The RAN substrate of the WA-RAN reproduction, standing in for the
//! srsRAN + Intel NUC + RF testbed of the paper's §5.A:
//!
//! * [`phy`] — numerology (15 kHz SCS → 1 ms slots), the 52-PRB grid of a
//!   10 MHz carrier, and the CQI→MCS→transport-block-size chain patterned
//!   on 3GPP TS 38.214.
//! * [`channel`] — per-UE channel models (static, fixed-MCS, Gauss-Markov
//!   fading, distance-based).
//! * [`traffic`] — DL traffic sources (full-buffer "iperf", CBR, Poisson
//!   IoT, the massive plane's aggregate fleet flow).
//! * [`sched`] — the [`sched::SliceScheduler`] seam plus native
//!   round-robin / proportional-fair / max-throughput policies speaking
//!   the same ABI as Wasm plugins.
//! * [`slicing`] — the inter-slice allocation: target-rate token buckets,
//!   spare PRBs shared equally among best-effort slices.
//! * [`gnb`] — the slot loop: arrivals, sounding, two-level scheduling,
//!   sanitized delivery, EWMA averages, fault fallback.
//! * [`metrics`] — windowed throughput series, Jain fairness, PRB
//!   utilization.
//!
//! Simulations are deterministic given a seed.
//!
//! ```
//! use waran_ransim::gnb::{Gnb, GnbConfig, SliceConfig};
//! use waran_ransim::sched::RoundRobin;
//! use waran_ransim::channel::StaticChannel;
//! use waran_ransim::traffic::FullBuffer;
//!
//! let mut gnb = Gnb::new(GnbConfig::default());
//! let slice = gnb.add_slice(SliceConfig::with_target_mbps("mvno-2", 12.0),
//!                           Box::new(RoundRobin::new()));
//! gnb.add_ue(slice, Box::new(StaticChannel::new(12)), Box::new(FullBuffer));
//! gnb.run_seconds(1.0);
//! let rate = gnb.metrics().slice_mean_mbps(slice);
//! assert!(rate > 8.0 && rate < 13.0);
//! ```

pub mod channel;
pub mod gnb;
pub mod massive;
pub mod metrics;
pub mod phy;
pub mod sched;
pub mod slicing;
pub mod traffic;
pub mod ue;

pub use gnb::{Gnb, GnbConfig, SliceConfig, SliceHealth};
pub use massive::{BackgroundSliceSnapshot, BackgroundSliceSpec, MassiveConfig, MassivePlane};
pub use metrics::MetricsRecorder;
pub use phy::{Carrier, Numerology};
pub use sched::{MaxThroughput, ProportionalFair, RoundRobin, SchedulerFault, SliceScheduler};
