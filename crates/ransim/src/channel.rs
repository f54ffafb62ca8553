//! Per-UE channel models: each slot they produce a CQI report, which link
//! adaptation turns into an MCS.

use rand::Rng;

use crate::phy::{cqi_to_mcs, MAX_CQI};

/// A downlink channel model for one UE.
pub trait ChannelModel: Send {
    /// CQI report for this slot.
    fn sample_cqi(&mut self, slot: u64, rng: &mut dyn rand::RngCore) -> u8;

    /// Short name for reports.
    fn name(&self) -> &'static str;

    /// Current 2-D position in meters, for models that track one (the
    /// mobility subsystem reads this to run its measurement events).
    fn position(&self) -> Option<[f64; 2]> {
        None
    }

    /// Re-anchor the model to a new serving-cell position (how a
    /// handover is realized for a mobile UE: same trajectory, new site).
    /// Models without geometry ignore it.
    fn retarget(&mut self, _serving_pos: [f64; 2]) {}
}

/// A channel pinned to a constant CQI (lab bench with fixed attenuation).
#[derive(Debug, Clone, Copy)]
pub struct StaticChannel {
    /// The CQI to report every slot.
    pub cqi: u8,
}

impl StaticChannel {
    /// Constant-CQI channel.
    pub fn new(cqi: u8) -> Self {
        StaticChannel {
            cqi: cqi.clamp(1, MAX_CQI),
        }
    }
}

impl ChannelModel for StaticChannel {
    fn sample_cqi(&mut self, _slot: u64, _rng: &mut dyn rand::RngCore) -> u8 {
        self.cqi
    }

    fn name(&self) -> &'static str {
        "static"
    }
}

/// A channel pinned so link adaptation lands exactly on a target MCS —
/// how the paper's Fig. 5b fixes UEs at MCS 20/24/28.
#[derive(Debug, Clone, Copy)]
pub struct FixedMcsChannel {
    cqi: u8,
    /// The MCS this channel locks to.
    pub mcs: u8,
}

impl FixedMcsChannel {
    /// Channel whose CQI maps to (at least) `mcs` under [`cqi_to_mcs`].
    pub fn new(mcs: u8) -> Self {
        // Smallest CQI whose mapped MCS reaches the target.
        let mut cqi = MAX_CQI;
        for c in 1..=MAX_CQI {
            if cqi_to_mcs(c) >= mcs {
                cqi = c;
                break;
            }
        }
        FixedMcsChannel { cqi, mcs }
    }
}

impl ChannelModel for FixedMcsChannel {
    fn sample_cqi(&mut self, _slot: u64, _rng: &mut dyn rand::RngCore) -> u8 {
        self.cqi
    }

    fn name(&self) -> &'static str {
        "fixed-mcs"
    }
}

/// Gauss-Markov (first-order autoregressive) SNR process mapped to CQI:
/// slow fading around a mean with tunable correlation.
#[derive(Debug, Clone)]
pub struct MarkovFadingChannel {
    mean_snr_db: f64,
    sigma_db: f64,
    /// AR(1) coefficient in [0, 1): higher = slower fading.
    rho: f64,
    /// `sqrt(1 − ρ²)`, the innovation's weight.
    innovation: f64,
    state_db: f64,
}

impl MarkovFadingChannel {
    /// Channel with the given mean SNR, shadowing σ and correlation ρ.
    pub fn new(mean_snr_db: f64, sigma_db: f64, rho: f64) -> Self {
        let rho = rho.clamp(0.0, 0.9999);
        MarkovFadingChannel {
            mean_snr_db,
            sigma_db,
            rho,
            innovation: (1.0 - rho * rho).sqrt(),
            state_db: 0.0,
        }
    }

    /// A "good urban" profile: 22 dB mean, 3 dB σ, ρ = 0.98.
    pub fn good() -> Self {
        Self::new(22.0, 3.0, 0.98)
    }

    /// A cell-edge profile: 8 dB mean, 4 dB σ, ρ = 0.98.
    pub fn cell_edge() -> Self {
        Self::new(8.0, 4.0, 0.98)
    }
}

/// Map an SNR in dB to a CQI report (piecewise-linear over the usable
/// range −6 dB … 26 dB — roughly the 38.214 CQI switching points).
pub fn snr_to_cqi(snr_db: f64) -> u8 {
    let clamped = snr_db.clamp(-6.0, 26.0);
    let frac = (clamped + 6.0) / 32.0;
    ((frac * (MAX_CQI - 1) as f64).round() as u8 + 1).clamp(1, MAX_CQI)
}

impl ChannelModel for MarkovFadingChannel {
    fn sample_cqi(&mut self, _slot: u64, rng: &mut dyn rand::RngCore) -> u8 {
        // AR(1): x' = ρx + sqrt(1-ρ²)·n, n ~ N(0, σ).
        let noise: f64 = sample_gaussian(rng) * self.sigma_db;
        self.state_db = self.rho * self.state_db + self.innovation * noise;
        snr_to_cqi(self.mean_snr_db + self.state_db)
    }

    fn name(&self) -> &'static str {
        "markov-fading"
    }
}

/// Log-distance path-loss SNR: 38 dB at 10 m, −35 dB/decade. The single
/// link-budget formula shared by [`DistanceChannel`], [`MobileChannel`]
/// and the mobility subsystem's A3 measurements (so a measured neighbor
/// SNR and the SNR the UE would actually see after handover agree).
pub fn path_loss_snr_db(distance_m: f64) -> f64 {
    let d = distance_m.max(1.0);
    38.0 - 35.0 * (d / 10.0).log10()
}

/// Distance-based model: log-distance path loss + AR(1) shadowing.
#[derive(Debug, Clone)]
pub struct DistanceChannel {
    inner: MarkovFadingChannel,
    /// Distance from the gNB in meters.
    pub distance_m: f64,
}

impl DistanceChannel {
    /// UE at `distance_m` meters; TX budget tuned so ~50 m is excellent
    /// and ~500 m is cell edge.
    pub fn new(distance_m: f64) -> Self {
        let d = distance_m.max(1.0);
        DistanceChannel {
            inner: MarkovFadingChannel::new(path_loss_snr_db(d), 3.0, 0.98),
            distance_m: d,
        }
    }
}

impl ChannelModel for DistanceChannel {
    fn sample_cqi(&mut self, slot: u64, rng: &mut dyn rand::RngCore) -> u8 {
        self.inner.sample_cqi(slot, rng)
    }

    fn name(&self) -> &'static str {
        "distance"
    }
}

/// A moving UE: 2-D waypoint walk inside a bounded deployment area, with
/// per-slot SNR derived from the distance to the serving site via
/// [`path_loss_snr_db`] plus AR(1) shadowing.
///
/// The walk and the shadowing draw from the channel's **own** RNG
/// (seeded at construction), never from the cell RNG passed to
/// [`ChannelModel::sample_cqi`]. A UE's trajectory is therefore a pure
/// function of its seed: migrating the UE between cells neither perturbs
/// any cell's RNG stream nor changes where the UE goes — the property
/// the multi-cell exchange barrier's determinism argument leans on.
pub struct MobileChannel {
    pos: [f64; 2],
    waypoint: [f64; 2],
    /// Deployment-area bounds `[min_x, min_y, max_x, max_y]`, meters.
    area: [f64; 4],
    /// Meters traveled per slot.
    step_m: f64,
    serving_pos: [f64; 2],
    shadow_sigma_db: f64,
    shadow_rho: f64,
    /// `sqrt(1 − ρ²)` for `shadow_rho`.
    shadow_innovation: f64,
    shadow_db: f64,
    rng: rand::rngs::StdRng,
    last_slot: u64,
}

impl MobileChannel {
    /// A UE starting at `start`, walking at `step_m` meters per slot
    /// toward uniformly drawn waypoints inside `area`, served by a site
    /// at `serving_pos`. `seed` pins the trajectory and the shadowing.
    pub fn new(
        start: [f64; 2],
        step_m: f64,
        area: [f64; 4],
        serving_pos: [f64; 2],
        seed: u64,
    ) -> Self {
        use rand::SeedableRng;
        let shadow_rho = 0.98;
        let mut ch = MobileChannel {
            pos: clamp_to_area(start, area),
            waypoint: start,
            area,
            step_m: step_m.max(0.0),
            serving_pos,
            shadow_sigma_db: 3.0,
            shadow_rho,
            shadow_innovation: (1.0f64 - shadow_rho * shadow_rho).sqrt(),
            shadow_db: 0.0,
            rng: rand::rngs::StdRng::seed_from_u64(seed),
            last_slot: 0,
        };
        ch.waypoint = ch.draw_waypoint();
        ch
    }

    /// Current position, meters.
    pub fn pos(&self) -> [f64; 2] {
        self.pos
    }

    fn draw_waypoint(&mut self) -> [f64; 2] {
        use rand::Rng;
        let x = self
            .rng
            .gen_range(self.area[0]..self.area[2].max(self.area[0] + 1e-9));
        let y = self
            .rng
            .gen_range(self.area[1]..self.area[3].max(self.area[1] + 1e-9));
        [x, y]
    }

    /// Advance the walk by one slot.
    fn advance(&mut self) {
        if self.step_m <= 0.0 {
            return;
        }
        let dx = self.waypoint[0] - self.pos[0];
        let dy = self.waypoint[1] - self.pos[1];
        let dist = (dx * dx + dy * dy).sqrt();
        if dist <= self.step_m {
            self.pos = self.waypoint;
            self.waypoint = self.draw_waypoint();
        } else {
            self.pos[0] += dx / dist * self.step_m;
            self.pos[1] += dy / dist * self.step_m;
        }
    }

    fn snr_db(&self) -> f64 {
        let dx = self.pos[0] - self.serving_pos[0];
        let dy = self.pos[1] - self.serving_pos[1];
        path_loss_snr_db((dx * dx + dy * dy).sqrt()) + self.shadow_db
    }
}

fn clamp_to_area(p: [f64; 2], area: [f64; 4]) -> [f64; 2] {
    [p[0].clamp(area[0], area[2]), p[1].clamp(area[1], area[3])]
}

impl ChannelModel for MobileChannel {
    fn sample_cqi(&mut self, slot: u64, _rng: &mut dyn rand::RngCore) -> u8 {
        // Catch up on slots not sampled (e.g. the in-transit window of a
        // handover): motion is per-slot regardless of who serves the UE.
        let steps = slot.saturating_sub(self.last_slot).clamp(1, 10_000);
        self.last_slot = slot;
        for _ in 0..steps {
            self.advance();
        }
        let noise: f64 = sample_gaussian(&mut self.rng) * self.shadow_sigma_db;
        self.shadow_db = self.shadow_rho * self.shadow_db + self.shadow_innovation * noise;
        snr_to_cqi(self.snr_db())
    }

    fn name(&self) -> &'static str {
        "mobile"
    }

    fn position(&self) -> Option<[f64; 2]> {
        Some(self.pos)
    }

    fn retarget(&mut self, serving_pos: [f64; 2]) {
        self.serving_pos = serving_pos;
    }
}

/// A position-bearing channel for UEs promoted out of the background
/// tier of the massive traffic plane (`crate::massive`).
///
/// The UE sits at a fixed position (background UEs do not walk); SNR is
/// [`path_loss_snr_db`] to the serving site plus AR(1) shadowing seeded
/// from the background entry's shadow state, so promotion is continuous:
/// the foreground channel picks up exactly where the SoA row left off.
/// Because `position()` is `Some`, a promoted UE is visible to the A3
/// mobility machinery and can hand over like any mobile UE; `retarget`
/// re-anchors it to the new serving site. The `name()` string `"pinned"`
/// is the tier marker the gNB admission path keys on to absorb such UEs
/// back into the destination cell's background plane.
#[derive(Debug, Clone)]
pub struct PinnedChannel {
    pos: [f64; 2],
    serving_pos: [f64; 2],
    shadow_db: f64,
    sigma_db: f64,
    rho: f64,
    /// `sqrt(1 − ρ²)`, the innovation's weight.
    innovation: f64,
}

impl PinnedChannel {
    /// A stationary UE at `pos` served from `serving_pos`, resuming the
    /// AR(1) shadowing process at `shadow_db`.
    pub fn new(pos: [f64; 2], serving_pos: [f64; 2], shadow_db: f64) -> Self {
        let rho = 0.98;
        PinnedChannel {
            pos,
            serving_pos,
            shadow_db,
            sigma_db: 3.0,
            rho,
            innovation: (1.0f64 - rho * rho).sqrt(),
        }
    }

    /// Current shadowing state, dB (read back on demotion).
    pub fn shadow_db(&self) -> f64 {
        self.shadow_db
    }
}

impl ChannelModel for PinnedChannel {
    fn sample_cqi(&mut self, _slot: u64, rng: &mut dyn rand::RngCore) -> u8 {
        let noise: f64 = sample_gaussian(rng) * self.sigma_db;
        self.shadow_db = self.rho * self.shadow_db + self.innovation * noise;
        let dx = self.pos[0] - self.serving_pos[0];
        let dy = self.pos[1] - self.serving_pos[1];
        snr_to_cqi(path_loss_snr_db((dx * dx + dy * dy).sqrt()) + self.shadow_db)
    }

    fn name(&self) -> &'static str {
        "pinned"
    }

    fn position(&self) -> Option<[f64; 2]> {
        Some(self.pos)
    }

    fn retarget(&mut self, serving_pos: [f64; 2]) {
        self.serving_pos = serving_pos;
    }
}

/// Box-Muller standard normal from a `RngCore`. Generic, so a concrete
/// generator (the massive plane's `StdRng`) inlines its draws.
pub(crate) fn sample_gaussian<R: rand::RngCore + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn static_channel_constant() {
        let mut ch = StaticChannel::new(9);
        let mut rng = StdRng::seed_from_u64(1);
        for slot in 0..100 {
            assert_eq!(ch.sample_cqi(slot, &mut rng), 9);
        }
    }

    #[test]
    fn static_channel_clamps() {
        assert_eq!(StaticChannel::new(0).cqi, 1);
        assert_eq!(StaticChannel::new(99).cqi, MAX_CQI);
    }

    #[test]
    fn fixed_mcs_channel_maps_back() {
        for target in [20u8, 24, 28] {
            let mut ch = FixedMcsChannel::new(target);
            let mut rng = StdRng::seed_from_u64(1);
            let cqi = ch.sample_cqi(0, &mut rng);
            assert!(
                cqi_to_mcs(cqi) >= target,
                "target {target}: cqi {cqi} maps to {}",
                cqi_to_mcs(cqi)
            );
        }
    }

    #[test]
    fn snr_to_cqi_monotone() {
        let mut prev = 0;
        for snr in -10..30 {
            let cqi = snr_to_cqi(snr as f64);
            assert!(cqi >= prev);
            prev = cqi;
        }
        assert_eq!(snr_to_cqi(-20.0), 1);
        assert_eq!(snr_to_cqi(40.0), MAX_CQI);
    }

    #[test]
    fn fading_stays_near_mean() {
        let mut ch = MarkovFadingChannel::good();
        let mut rng = StdRng::seed_from_u64(42);
        let samples: Vec<u8> = (0..5000).map(|s| ch.sample_cqi(s, &mut rng)).collect();
        let mean = samples.iter().map(|c| *c as f64).sum::<f64>() / samples.len() as f64;
        // 22 dB mean maps to a high CQI; fading wobbles around it.
        assert!(mean > 10.0 && mean <= 15.0, "mean cqi {mean}");
        // The channel actually varies.
        let min = *samples.iter().min().unwrap();
        let max = *samples.iter().max().unwrap();
        assert!(max > min, "fading must vary");
    }

    #[test]
    fn distance_orders_quality() {
        let mut rng = StdRng::seed_from_u64(7);
        let mean_cqi = |d: f64, rng: &mut StdRng| {
            let mut ch = DistanceChannel::new(d);
            (0..2000).map(|s| ch.sample_cqi(s, rng) as f64).sum::<f64>() / 2000.0
        };
        let near = mean_cqi(30.0, &mut rng);
        let mid = mean_cqi(150.0, &mut rng);
        let far = mean_cqi(600.0, &mut rng);
        assert!(near > mid, "near {near} mid {mid}");
        assert!(mid > far, "mid {mid} far {far}");
    }

    #[test]
    fn mobile_channel_moves_and_is_deterministic() {
        let area = [0.0, 0.0, 1000.0, 1000.0];
        let run = |seed: u64| {
            let mut ch = MobileChannel::new([100.0, 100.0], 5.0, area, [0.0, 0.0], seed);
            let mut rng = StdRng::seed_from_u64(999);
            let cqis: Vec<u8> = (0..500).map(|s| ch.sample_cqi(s, &mut rng)).collect();
            (ch.pos(), cqis)
        };
        let (pos_a, cqi_a) = run(7);
        let (pos_b, cqi_b) = run(7);
        assert_eq!(pos_a, pos_b, "trajectory is a pure function of the seed");
        assert_eq!(cqi_a, cqi_b);
        let (pos_c, _) = run(8);
        assert_ne!(pos_a, pos_c, "different seeds walk differently");
        // 500 slots at 5 m/slot: the UE actually moved.
        let moved = ((pos_a[0] - 100.0).powi(2) + (pos_a[1] - 100.0).powi(2)).sqrt();
        assert!(moved > 10.0, "moved {moved} m");
    }

    #[test]
    fn mobile_channel_quality_tracks_serving_distance() {
        let area = [0.0, 0.0, 10_000.0, 10_000.0];
        // Zero speed: quality is pinned by geometry alone.
        let mut near = MobileChannel::new([10.0, 0.0], 0.0, area, [0.0, 0.0], 3);
        let mut far = MobileChannel::new([900.0, 0.0], 0.0, area, [0.0, 0.0], 3);
        let mut rng = StdRng::seed_from_u64(1);
        let mean = |ch: &mut MobileChannel, rng: &mut StdRng| {
            (0..2000).map(|s| ch.sample_cqi(s, rng) as f64).sum::<f64>() / 2000.0
        };
        assert!(mean(&mut near, &mut rng) > mean(&mut far, &mut rng) + 2.0);
        // Retargeting to a nearby site restores quality.
        far.retarget([900.0, 10.0]);
        assert!(mean(&mut far, &mut rng) > 10.0);
        assert_eq!(far.position().unwrap(), [900.0, 0.0]);
    }

    #[test]
    fn path_loss_shared_formula_matches_distance_channel() {
        // DistanceChannel's link budget and the standalone formula agree.
        assert!((path_loss_snr_db(10.0) - 38.0).abs() < 1e-9);
        assert!(path_loss_snr_db(100.0) < path_loss_snr_db(50.0));
        // Clamped below 1 m.
        assert_eq!(path_loss_snr_db(0.0), path_loss_snr_db(1.0));
    }

    #[test]
    fn pinned_channel_tracks_distance_and_retargets() {
        let mut near = PinnedChannel::new([20.0, 0.0], [0.0, 0.0], 0.0);
        let mut far = PinnedChannel::new([800.0, 0.0], [0.0, 0.0], 0.0);
        let mut rng = StdRng::seed_from_u64(21);
        let mean = |ch: &mut PinnedChannel, rng: &mut StdRng| {
            (0..2000).map(|s| ch.sample_cqi(s, rng) as f64).sum::<f64>() / 2000.0
        };
        assert!(mean(&mut near, &mut rng) > mean(&mut far, &mut rng) + 2.0);
        assert_eq!(far.position().unwrap(), [800.0, 0.0]);
        // Handover to a co-located site restores quality.
        far.retarget([800.0, 10.0]);
        assert!(mean(&mut far, &mut rng) > 10.0);
        assert_eq!(far.name(), "pinned");
    }

    #[test]
    fn gaussian_sampler_moments() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_gaussian(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }
}
