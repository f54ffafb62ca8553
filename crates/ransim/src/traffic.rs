//! Downlink traffic sources: how many bytes arrive in a UE's buffer each
//! slot.

use rand::Rng;

/// Saturation rate modelled by [`FullBuffer`], in bit/s.
///
/// 1 Gb/s is comfortably above the peak DL capacity of every carrier the
/// simulator supports (the paper's 10 MHz / 52-PRB testbed tops out around
/// 50 Mb/s; even a 100 MHz Mu1 carrier stays under ~500 Mb/s), so the
/// buffer can never drain between slots — the iperf3 behaviour from §5.A.
pub const FULL_BUFFER_RATE_BPS: f64 = 1e9;

/// A per-UE downlink traffic source.
pub trait TrafficSource: Send {
    /// Bytes arriving during this slot.
    fn bytes_for_slot(&mut self, slot: u64, slot_seconds: f64, rng: &mut dyn rand::RngCore) -> u64;

    /// Short name for reports.
    fn name(&self) -> &'static str;
}

/// Full-buffer traffic: the buffer never empties (the paper saturates UEs
/// with iperf3 DL).
#[derive(Debug, Clone, Copy, Default)]
pub struct FullBuffer;

impl TrafficSource for FullBuffer {
    fn bytes_for_slot(
        &mut self,
        _slot: u64,
        slot_seconds: f64,
        _rng: &mut dyn rand::RngCore,
    ) -> u64 {
        (FULL_BUFFER_RATE_BPS * slot_seconds / 8.0) as u64
    }

    fn name(&self) -> &'static str {
        "full-buffer"
    }
}

/// Constant bit rate (voice/video-style).
#[derive(Debug, Clone, Copy)]
pub struct Cbr {
    /// Offered rate in bit/s.
    pub rate_bps: f64,
    /// Fractional-byte accumulator.
    carry: f64,
}

impl Cbr {
    /// CBR source at `rate_bps`.
    pub fn new(rate_bps: f64) -> Self {
        Cbr {
            rate_bps,
            carry: 0.0,
        }
    }
}

impl TrafficSource for Cbr {
    fn bytes_for_slot(
        &mut self,
        _slot: u64,
        slot_seconds: f64,
        _rng: &mut dyn rand::RngCore,
    ) -> u64 {
        let exact = self.rate_bps * slot_seconds / 8.0 + self.carry;
        let whole = exact.floor();
        self.carry = exact - whole;
        whole as u64
    }

    fn name(&self) -> &'static str {
        "cbr"
    }
}

/// Poisson packet arrivals (IoT/M2M-style bursts).
#[derive(Debug, Clone, Copy)]
pub struct PoissonPackets {
    /// Mean packets per second.
    pub pkts_per_sec: f64,
    /// Bytes per packet.
    pub pkt_bytes: u64,
}

impl PoissonPackets {
    /// Poisson source.
    pub fn new(pkts_per_sec: f64, pkt_bytes: u64) -> Self {
        PoissonPackets {
            pkts_per_sec,
            pkt_bytes,
        }
    }
}

impl TrafficSource for PoissonPackets {
    fn bytes_for_slot(
        &mut self,
        _slot: u64,
        slot_seconds: f64,
        rng: &mut dyn rand::RngCore,
    ) -> u64 {
        // Knuth's algorithm is fine at per-slot λ ≪ 100.
        let lambda = self.pkts_per_sec * slot_seconds;
        let l = (-lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        let r = rng;
        loop {
            p *= r.gen_range(0.0..1.0f64);
            if p <= l {
                break;
            }
            k += 1;
            if k > 10_000 {
                break; // λ misconfigured; cap rather than spin
            }
        }
        k * self.pkt_bytes
    }

    fn name(&self) -> &'static str {
        "poisson"
    }
}

/// Statistical multiplex of many background UEs into one aggregate flow.
///
/// Instead of simulating `n` independent per-UE sources, the fleet draws
/// one sample per slot from the *sum* distribution: mean
/// `n · rate · slot_s / 8` bytes, and (for bursty parametrisations)
/// variance `mean_bytes · burst_bytes` — the variance a superposition of
/// `n` independent sources with per-arrival burst size `burst_bytes`
/// would have. With `burst_bytes == 0` the aggregate is a smooth CBR
/// fleet (σ = 0). Mean rate is conserved exactly over long horizons by a
/// fractional level accumulator: each slot adds `mean + noise` to the
/// level, emits `floor(level)` bytes, and carries the remainder, with the
/// level clamped at −4σ so a run of negative noise cannot bank an
/// unbounded deficit.
///
/// [`FleetTraffic::set_active_ues`] rescales the aggregate when UEs are
/// promoted out of (or demoted back into) the background tier, so the
/// offered load of foreground + background stays conserved.
#[derive(Debug, Clone, Copy)]
pub struct FleetTraffic {
    /// Number of UEs currently multiplexed into this aggregate.
    pub active_ues: u64,
    /// Mean offered rate per multiplexed UE, bit/s.
    pub per_ue_rate_bps: f64,
    /// Burst granularity in bytes (0 → smooth CBR aggregate).
    pub burst_bytes: f64,
    level: f64,
}

impl FleetTraffic {
    /// Aggregate of `active_ues` UEs each offering `per_ue_rate_bps`.
    pub fn new(active_ues: u64, per_ue_rate_bps: f64, burst_bytes: f64) -> Self {
        FleetTraffic {
            active_ues,
            per_ue_rate_bps,
            burst_bytes: burst_bytes.max(0.0),
            level: 0.0,
        }
    }

    /// Rescale the multiplex after promotion/demotion.
    pub fn set_active_ues(&mut self, n: u64) {
        self.active_ues = n;
    }
}

impl TrafficSource for FleetTraffic {
    fn bytes_for_slot(
        &mut self,
        _slot: u64,
        slot_seconds: f64,
        rng: &mut dyn rand::RngCore,
    ) -> u64 {
        if self.active_ues == 0 {
            return 0;
        }
        let mean = self.active_ues as f64 * self.per_ue_rate_bps * slot_seconds / 8.0;
        let sigma = (mean * self.burst_bytes).sqrt();
        let noise = if sigma > 0.0 {
            // Box-Muller; one draw per slot regardless of population size.
            let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0f64);
            sigma * (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
        } else {
            0.0
        };
        self.level = (self.level + mean + noise).max(-4.0 * sigma);
        let emit = self.level.max(0.0).floor();
        self.level -= emit;
        emit as u64
    }

    fn name(&self) -> &'static str {
        "fleet"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const SLOT: f64 = 0.001;

    #[test]
    fn full_buffer_never_starves() {
        let mut t = FullBuffer;
        let mut rng = StdRng::seed_from_u64(1);
        assert!(t.bytes_for_slot(0, SLOT, &mut rng) > 50_000);
    }

    #[test]
    fn cbr_rate_is_exact_over_time() {
        let mut t = Cbr::new(12e6); // 12 Mb/s
        let mut rng = StdRng::seed_from_u64(1);
        let total: u64 = (0..10_000)
            .map(|s| t.bytes_for_slot(s, SLOT, &mut rng))
            .sum();
        // 10 s at 12 Mb/s = 15 MB.
        let expected = 12e6 * 10.0 / 8.0;
        assert!((total as f64 - expected).abs() < 10.0, "total {total}");
    }

    #[test]
    fn cbr_fractional_rates_accumulate() {
        // 3 kb/s = 0.375 bytes/slot: must not round to zero forever.
        let mut t = Cbr::new(3_000.0);
        let mut rng = StdRng::seed_from_u64(1);
        let total: u64 = (0..8000).map(|s| t.bytes_for_slot(s, SLOT, &mut rng)).sum();
        assert_eq!(total, 3_000); // 8 s × 3 kb/s / 8 = 3000 bytes
    }

    #[test]
    fn poisson_mean_matches() {
        let mut t = PoissonPackets::new(1000.0, 100);
        let mut rng = StdRng::seed_from_u64(42);
        let total: u64 = (0..20_000)
            .map(|s| t.bytes_for_slot(s, SLOT, &mut rng))
            .sum();
        // 20 s × 1000 pkt/s × 100 B = 2 MB, ±5%.
        let expected = 2_000_000.0;
        assert!(
            (total as f64 - expected).abs() < expected * 0.05,
            "total {total}"
        );
    }

    #[test]
    fn full_buffer_rate_is_derived_from_named_constant() {
        let mut t = FullBuffer;
        let mut rng = StdRng::seed_from_u64(1);
        // 1 Gb/s × 1 ms / 8 = exactly 125 kB per slot.
        assert_eq!(t.bytes_for_slot(0, SLOT, &mut rng), 125_000);
    }

    #[test]
    fn fleet_smooth_conserves_mean_exactly() {
        // 2000 UEs × 16 kb/s, burst 0 → deterministic CBR aggregate.
        let mut t = FleetTraffic::new(2000, 16_000.0, 0.0);
        let mut rng = StdRng::seed_from_u64(3);
        let total: u64 = (0..10_000)
            .map(|s| t.bytes_for_slot(s, SLOT, &mut rng))
            .sum();
        let expected = 2000.0 * 16_000.0 * 10.0 / 8.0;
        assert!((total as f64 - expected).abs() < 10.0, "total {total}");
    }

    #[test]
    fn fleet_bursty_conserves_mean_over_long_horizons() {
        let mut t = FleetTraffic::new(500, 64_000.0, 1200.0);
        let mut rng = StdRng::seed_from_u64(11);
        let total: u64 = (0..50_000)
            .map(|s| t.bytes_for_slot(s, SLOT, &mut rng))
            .sum();
        let expected = 500.0 * 64_000.0 * 50.0 / 8.0;
        assert!(
            (total as f64 - expected).abs() < expected * 0.02,
            "total {total} expected {expected}"
        );
    }

    #[test]
    fn fleet_scales_with_active_count() {
        let mut t = FleetTraffic::new(1000, 8_000.0, 0.0);
        let mut rng = StdRng::seed_from_u64(5);
        let a: u64 = (0..1000).map(|s| t.bytes_for_slot(s, SLOT, &mut rng)).sum();
        t.set_active_ues(500);
        let b: u64 = (0..1000)
            .map(|s| t.bytes_for_slot(1000 + s, SLOT, &mut rng))
            .sum();
        assert!(a > 0 && b > 0);
        let ratio = a as f64 / b as f64;
        assert!((ratio - 2.0).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn fleet_empty_is_silent() {
        let mut t = FleetTraffic::new(0, 64_000.0, 1200.0);
        let mut rng = StdRng::seed_from_u64(9);
        assert_eq!(t.bytes_for_slot(0, SLOT, &mut rng), 0);
    }
}
