//! PHY-layer abstractions: numerology, the PRB grid and the CQI→MCS→
//! transport-block-size chain.
//!
//! The tables are patterned on 3GPP TS 38.214 (CQI table 5.2.2.1-2, MCS
//! table 5.1.3.1-1) with transport-block sizing reduced to
//! `bits/PRB/slot = 12 subcarriers × 14 symbols × spectral efficiency ×
//! (1 − overhead)`. That collapses the full TBS procedure (which exists to
//! quantize to byte-aligned code blocks) while preserving exactly what the
//! paper's figures depend on: who gets scheduled, and at what rate a PRB
//! converts to bits for a given channel quality.
//!
//! Link adaptation is a lookup: the CQI → MCS map and the bits per PRB of
//! every MCS are computed at compile time from the TS 38.214 efficiency
//! arrays, so [`cqi_to_mcs`] and [`bits_per_prb`] are one clamped index
//! each — they run per UE row per slot on the massive plane.

use std::time::Duration;

/// Subcarrier spacing (5G numerology µ).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Numerology {
    /// 15 kHz SCS → 1 ms slots (the paper's configuration).
    Mu0,
    /// 30 kHz SCS → 0.5 ms slots.
    Mu1,
    /// 60 kHz SCS → 0.25 ms slots.
    Mu2,
}

impl Numerology {
    /// Slot duration.
    pub fn slot_duration(self) -> Duration {
        match self {
            Numerology::Mu0 => Duration::from_micros(1000),
            Numerology::Mu1 => Duration::from_micros(500),
            Numerology::Mu2 => Duration::from_micros(250),
        }
    }

    /// Slot duration in seconds.
    pub fn slot_seconds(self) -> f64 {
        self.slot_duration().as_secs_f64()
    }

    /// Subcarrier spacing in kHz.
    pub fn scs_khz(self) -> u32 {
        match self {
            Numerology::Mu0 => 15,
            Numerology::Mu1 => 30,
            Numerology::Mu2 => 60,
        }
    }
}

/// Carrier configuration: bandwidth + numerology → PRB grid.
#[derive(Debug, Clone, Copy)]
pub struct Carrier {
    /// Channel bandwidth in MHz.
    pub bandwidth_mhz: u32,
    /// Numerology.
    pub numerology: Numerology,
}

impl Carrier {
    /// The paper's testbed: FDD band n3, 10 MHz, 15 kHz SCS.
    pub fn paper_testbed() -> Carrier {
        Carrier {
            bandwidth_mhz: 10,
            numerology: Numerology::Mu0,
        }
    }

    /// Number of PRBs in the grid (3GPP TS 38.101-1 Table 5.3.2-1 for FR1).
    pub fn num_prbs(&self) -> u32 {
        match (self.bandwidth_mhz, self.numerology) {
            (5, Numerology::Mu0) => 25,
            (10, Numerology::Mu0) => 52,
            (15, Numerology::Mu0) => 79,
            (20, Numerology::Mu0) => 106,
            (40, Numerology::Mu0) => 216,
            (10, Numerology::Mu1) => 24,
            (20, Numerology::Mu1) => 51,
            (40, Numerology::Mu1) => 106,
            (100, Numerology::Mu1) => 273,
            // Fallback: ~90% of bandwidth divided by PRB width.
            (bw, mu) => {
                let prb_khz = 12 * mu.scs_khz();
                (bw * 1000 * 9 / 10) / prb_khz
            }
        }
    }
}

/// Highest MCS index supported (QAM64 table).
pub const MAX_MCS: u8 = 28;
/// Highest CQI index.
pub const MAX_CQI: u8 = 15;

/// Spectral efficiency (bits/symbol/subcarrier) per MCS index, following
/// TS 38.214 Table 5.1.3.1-1 (modulation order × code rate / 1024).
const MCS_EFFICIENCY: [f64; 29] = [
    0.2344, 0.3066, 0.3770, 0.4902, 0.6016, 0.7402, 0.8770, 1.0273, 1.1758, 1.3262, // QPSK
    1.3281, 1.4844, 1.6953, 1.9141, 2.1602, 2.4063, // 16QAM
    2.5703, 2.7305, 3.0293, 3.3223, 3.6094, 3.9023, 4.2129, 4.5234, 4.8164, 5.1152, 5.3320, 5.5547,
    5.8906, // 64QAM
];

/// CQI → spectral efficiency (TS 38.214 Table 5.2.2.1-2; index 0 = out of
/// range / no transmission).
const CQI_EFFICIENCY: [f64; 16] = [
    0.0, 0.1523, 0.2344, 0.3770, 0.6016, 0.8770, 1.1758, 1.4766, 1.9141, 2.4063, 2.7305, 3.3223,
    3.9023, 4.5234, 5.1152, 5.5547,
];

/// Fraction of resource elements lost to control/reference signals.
pub const OVERHEAD: f64 = 0.14;

/// CQI → MCS for every CQI, computed at compile time: the highest MCS
/// whose efficiency does not exceed the CQI's (the standard
/// link-adaptation rule of thumb). Peak CQI unlocks the peak MCS: the
/// 64QAM table tops out slightly above CQI 15's efficiency, and real
/// schedulers make this jump too.
const CQI_TO_MCS: [u8; MAX_CQI as usize + 1] = {
    let mut table = [0u8; MAX_CQI as usize + 1];
    let mut cqi = 0;
    while cqi < MAX_CQI as usize {
        let target = CQI_EFFICIENCY[cqi];
        let mut mcs = 0;
        while mcs < MCS_EFFICIENCY.len() && MCS_EFFICIENCY[mcs] <= target {
            table[cqi] = mcs as u8;
            mcs += 1;
        }
        cqi += 1;
    }
    table[MAX_CQI as usize] = MAX_MCS;
    table
};

/// Transport-block bits of one PRB for one slot per MCS, computed at
/// compile time: `12 subcarriers × 14 symbols × efficiency × (1 −
/// overhead)`, floored.
const BITS_PER_PRB: [u32; MAX_MCS as usize + 1] = {
    let re_per_prb = 12.0 * 14.0; // subcarriers × OFDM symbols
    let mut table = [0u32; MAX_MCS as usize + 1];
    let mut mcs = 0;
    while mcs < table.len() {
        table[mcs] = (re_per_prb * MCS_EFFICIENCY[mcs] * (1.0 - OVERHEAD)).floor() as u32;
        mcs += 1;
    }
    table
};

/// Map a CQI report to the highest MCS whose efficiency does not exceed
/// the CQI's, and peak CQI to the peak MCS; CQIs above [`MAX_CQI`] are
/// clamped.
pub fn cqi_to_mcs(cqi: u8) -> u8 {
    CQI_TO_MCS[cqi.min(MAX_CQI) as usize]
}

/// Transport-block capacity of one PRB for one slot at the given MCS, in
/// bits; MCS indices above [`MAX_MCS`] are clamped.
pub fn bits_per_prb(mcs: u8) -> u32 {
    BITS_PER_PRB[mcs.min(MAX_MCS) as usize]
}

/// Peak DL rate of a carrier at the given MCS, bit/s.
pub fn peak_rate_bps(carrier: &Carrier, mcs: u8) -> f64 {
    let per_slot = bits_per_prb(mcs) as f64 * carrier.num_prbs() as f64;
    per_slot / carrier.numerology.slot_seconds()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_carrier_is_52_prbs_1ms() {
        let c = Carrier::paper_testbed();
        assert_eq!(c.num_prbs(), 52);
        assert_eq!(c.numerology.slot_duration(), Duration::from_millis(1));
    }

    #[test]
    fn higher_numerology_shorter_slots() {
        assert!(Numerology::Mu1.slot_seconds() < Numerology::Mu0.slot_seconds());
        assert!(Numerology::Mu2.slot_seconds() < Numerology::Mu1.slot_seconds());
    }

    #[test]
    fn mcs_efficiency_monotone() {
        for w in MCS_EFFICIENCY.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    /// The link-adaptation scan the [`CQI_TO_MCS`] table replaces, kept as
    /// its oracle.
    fn cqi_to_mcs_scan(cqi: u8) -> u8 {
        let cqi = cqi.min(MAX_CQI) as usize;
        if cqi as u8 == MAX_CQI {
            return MAX_MCS;
        }
        let target = CQI_EFFICIENCY[cqi];
        let mut best = 0u8;
        for (mcs, eff) in MCS_EFFICIENCY.iter().enumerate() {
            if *eff <= target {
                best = mcs as u8;
            } else {
                break;
            }
        }
        best
    }

    /// The float expression the [`BITS_PER_PRB`] table replaces, kept as
    /// its oracle.
    fn bits_per_prb_formula(mcs: u8) -> u32 {
        let mcs = mcs.min(MAX_MCS) as usize;
        let re_per_prb = 12.0 * 14.0;
        (re_per_prb * MCS_EFFICIENCY[mcs] * (1.0 - OVERHEAD)).floor() as u32
    }

    /// The compile-time tables equal the runtime formulas on every input,
    /// so an edit to an efficiency array cannot desynchronise them.
    #[test]
    fn tables_equal_the_formulas() {
        for x in 0..=u8::MAX {
            assert_eq!(cqi_to_mcs(x), cqi_to_mcs_scan(x), "cqi {x}");
            assert_eq!(bits_per_prb(x), bits_per_prb_formula(x), "mcs {x}");
        }
    }

    #[test]
    fn cqi_mapping_monotone_and_bounded() {
        let mut prev = 0;
        for cqi in 1..=MAX_CQI {
            let mcs = cqi_to_mcs(cqi);
            assert!(mcs >= prev, "cqi {cqi}");
            assert!(mcs <= MAX_MCS);
            prev = mcs;
        }
        assert_eq!(cqi_to_mcs(0), 0);
        // Top CQI reaches (nearly) top MCS.
        assert!(cqi_to_mcs(15) >= 26);
    }

    #[test]
    fn bits_per_prb_sane() {
        // MCS 0: low — tens of bits per PRB per slot.
        assert!(bits_per_prb(0) > 20 && bits_per_prb(0) < 60);
        // MCS 28: ~850 bits.
        assert!(bits_per_prb(28) > 700 && bits_per_prb(28) < 1000);
        // Clamped above MAX_MCS.
        assert_eq!(bits_per_prb(99), bits_per_prb(28));
    }

    #[test]
    fn peak_rate_matches_10mhz_expectations() {
        // 10 MHz FDD at top MCS lands in the 35–50 Mb/s range — the regime
        // in which the paper's 3/12/15/22 Mb/s targets make sense.
        let rate = peak_rate_bps(&Carrier::paper_testbed(), 28);
        assert!(rate > 35e6 && rate < 50e6, "peak {rate}");
    }

    #[test]
    fn fallback_prb_computation() {
        let c = Carrier {
            bandwidth_mhz: 25,
            numerology: Numerology::Mu0,
        };
        let prbs = c.num_prbs();
        assert!(prbs > 100 && prbs < 140);
    }
}
