//! Measurement: windowed throughput time series, fairness, utilization.

use std::collections::BTreeMap;

/// Delivered bits of one UE or one slice: the open window, the lifetime
/// total, and one Mb/s entry per closed window.
#[derive(Debug, Clone, Default)]
struct Accum {
    window_bits: u64,
    total_bits: u64,
    series: Vec<f64>,
}

impl Accum {
    fn add(&mut self, bits: u64) {
        self.window_bits += bits;
        self.total_bits += bits;
    }

    fn close_window(&mut self, window_s: f64) {
        self.series.push(self.window_bits as f64 / window_s / 1e6);
        self.window_bits = 0;
    }
}

/// Records per-UE and per-slice delivered bits, aggregated into fixed
/// windows (e.g. 100 ms) to produce the rate-vs-time series the paper's
/// Fig. 5a/5b plot.
///
/// Accumulators are dense: a UE's lives at the index [`register`] returns,
/// which the gNB keeps beside the UE, and a slice's at its id, so a
/// delivery is two indexed adds. The id → index map serves report-time
/// reads by id.
///
/// [`register`]: MetricsRecorder::register
#[derive(Debug, Clone)]
pub struct MetricsRecorder {
    window_slots: u64,
    slot_seconds: f64,
    slot: u64,
    /// Per-UE accumulators, in registration order.
    ues: Vec<Accum>,
    /// UE id → index into `ues`.
    ue_index: BTreeMap<u32, usize>,
    /// Per-slice accumulators indexed by slice id (`None` = never
    /// registered: no series, absent from reports).
    slices: Vec<Option<Accum>>,
    // Current-window utilization.
    prbs_used_window: u64,
    prbs_total_window: u64,
    util_series: Vec<f64>,
}

impl MetricsRecorder {
    /// Recorder aggregating every `window_slots` slots of `slot_seconds`
    /// each.
    pub fn new(window_slots: u64, slot_seconds: f64) -> Self {
        MetricsRecorder {
            window_slots: window_slots.max(1),
            slot_seconds,
            slot: 0,
            ues: Vec::new(),
            ue_index: BTreeMap::new(),
            slices: Vec::new(),
            prbs_used_window: 0,
            prbs_total_window: 0,
            util_series: Vec::new(),
        }
    }

    /// Ensure a UE and its slice show up in reports even if never
    /// scheduled; returns the UE's accumulator index for
    /// [`MetricsRecorder::record_delivery`]. Registering a UE again (a
    /// handover back, a move between slices) returns the index it already
    /// has, so the UE keeps one series and one total.
    pub fn register(&mut self, slice_id: u32, ue_id: u32) -> usize {
        self.register_slice(slice_id);
        *self.ue_index.entry(ue_id).or_insert_with(|| {
            self.ues.push(Accum::default());
            self.ues.len() - 1
        })
    }

    /// Record a delivery of `bits` to the UE registered at index `ue`
    /// within `slice_id`.
    pub fn record_delivery(&mut self, ue: usize, slice_id: u32, bits: u64) {
        self.ues[ue].add(bits);
        self.record_slice_delivery(slice_id, bits);
    }

    /// Ensure a slice shows up in reports without registering any UE —
    /// the massive plane's background tier has no per-UE series (a
    /// million UEs must never materialize a million accumulators here).
    pub fn register_slice(&mut self, slice_id: u32) {
        let i = slice_id as usize;
        if self.slices.len() <= i {
            self.slices.resize(i + 1, None);
        }
        self.slices[i].get_or_insert_with(Accum::default);
    }

    /// Record a slice-level delivery with no per-UE attribution (the
    /// background tier's aggregate service path). A slice that was never
    /// registered records nothing.
    pub fn record_slice_delivery(&mut self, slice_id: u32, bits: u64) {
        if let Some(Some(slice)) = self.slices.get_mut(slice_id as usize) {
            slice.add(bits);
        }
    }

    /// Lifetime delivered bits across all slices (foreground UE
    /// deliveries plus background aggregate deliveries).
    pub fn total_bits(&self) -> u64 {
        self.slices.iter().flatten().map(|s| s.total_bits).sum()
    }

    /// Close the slot; rolls the window when due.
    pub fn end_slot(&mut self, prbs_used: u32, prbs_total: u32) {
        self.prbs_used_window += prbs_used as u64;
        self.prbs_total_window += prbs_total as u64;
        self.slot += 1;
        if self.slot.is_multiple_of(self.window_slots) {
            let window_s = self.window_slots as f64 * self.slot_seconds;
            for acc in self.ues.iter_mut().chain(self.slices.iter_mut().flatten()) {
                acc.close_window(window_s);
            }
            self.util_series.push(if self.prbs_total_window == 0 {
                0.0
            } else {
                self.prbs_used_window as f64 / self.prbs_total_window as f64
            });
            self.prbs_used_window = 0;
            self.prbs_total_window = 0;
        }
    }

    /// A registered UE's accumulator index.
    pub(crate) fn ue_index(&self, ue_id: u32) -> Option<usize> {
        self.ue_index.get(&ue_id).copied()
    }

    fn ue(&self, ue_id: u32) -> Option<&Accum> {
        self.ue_index(ue_id).map(|i| &self.ues[i])
    }

    fn slice(&self, slice_id: u32) -> Option<&Accum> {
        self.slices.get(slice_id as usize)?.as_ref()
    }

    /// Mb/s over the whole run for `total_bits`.
    fn lifetime_mbps(&self, total_bits: u64) -> f64 {
        let secs = self.slot as f64 * self.slot_seconds;
        if secs == 0.0 {
            0.0
        } else {
            total_bits as f64 / secs / 1e6
        }
    }

    /// Seconds covered by one window.
    pub fn window_seconds(&self) -> f64 {
        self.window_slots as f64 * self.slot_seconds
    }

    /// Throughput series (Mb/s per window) for a UE.
    pub fn ue_series_mbps(&self, ue_id: u32) -> &[f64] {
        self.ue(ue_id).map(|u| u.series.as_slice()).unwrap_or(&[])
    }

    /// Throughput series (Mb/s per window) for a slice.
    pub fn slice_series_mbps(&self, slice_id: u32) -> &[f64] {
        self.slice(slice_id)
            .map(|s| s.series.as_slice())
            .unwrap_or(&[])
    }

    /// PRB utilization per window (0..1).
    pub fn utilization_series(&self) -> &[f64] {
        &self.util_series
    }

    /// Mean rate of a slice over the whole run, Mb/s.
    pub fn slice_mean_mbps(&self, slice_id: u32) -> f64 {
        self.lifetime_mbps(self.slice(slice_id).map_or(0, |s| s.total_bits))
    }

    /// Mean rate of a UE over the whole run, Mb/s.
    pub fn ue_mean_mbps(&self, ue_id: u32) -> f64 {
        self.lifetime_mbps(self.ue(ue_id).map_or(0, |u| u.total_bits))
    }

    /// Slots recorded.
    pub fn slots(&self) -> u64 {
        self.slot
    }

    /// All registered UE ids, ascending.
    pub fn ue_ids(&self) -> Vec<u32> {
        self.ue_index.keys().copied().collect()
    }

    /// All registered slice ids, ascending.
    pub fn slice_ids(&self) -> Vec<u32> {
        (0..self.slices.len() as u32)
            .filter(|&id| self.slice(id).is_some())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_roll_correctly() {
        let mut m = MetricsRecorder::new(10, 0.001);
        let ue = m.register(0, 1);
        for _ in 0..25 {
            m.record_delivery(ue, 0, 1000);
            m.end_slot(10, 52);
        }
        // Two complete windows of 10 slots each (the 5 leftover pending).
        assert_eq!(m.ue_series_mbps(1).len(), 2);
        // 10 kbit over 10 ms = 1 Mb/s.
        assert!((m.ue_series_mbps(1)[0] - 1.0).abs() < 1e-9);
        assert_eq!(m.utilization_series().len(), 2);
        assert!((m.utilization_series()[0] - 10.0 / 52.0).abs() < 1e-9);
    }

    #[test]
    fn mean_rates() {
        let mut m = MetricsRecorder::new(10, 0.001);
        let ue = m.register(7, 1);
        for _ in 0..1000 {
            m.record_delivery(ue, 7, 12_000); // 12 Mb/s at 1 ms slots
            m.end_slot(26, 52);
        }
        assert!((m.slice_mean_mbps(7) - 12.0).abs() < 1e-9);
        assert!((m.ue_mean_mbps(1) - 12.0).abs() < 1e-9);
    }

    #[test]
    fn unscheduled_ue_reports_zero() {
        let mut m = MetricsRecorder::new(5, 0.001);
        let ue = m.register(0, 1);
        m.register(0, 2);
        for _ in 0..5 {
            m.record_delivery(ue, 0, 5000);
            m.end_slot(5, 52);
        }
        assert!(m.ue_series_mbps(1)[0] > 0.0);
        assert_eq!(m.ue_series_mbps(2), &[0.0]);
    }

    #[test]
    fn slice_only_path_records_without_ue_series() {
        let mut m = MetricsRecorder::new(10, 0.001);
        m.register_slice(3);
        for _ in 0..1000 {
            m.record_slice_delivery(3, 8_000); // 8 Mb/s
            m.end_slot(20, 52);
        }
        assert!((m.slice_mean_mbps(3) - 8.0).abs() < 1e-9);
        assert_eq!(m.slice_series_mbps(3).len(), 100);
        assert!(m.ue_ids().is_empty(), "no per-UE state materialized");
        assert_eq!(m.total_bits(), 8_000_000);
    }

    #[test]
    fn empty_recorder_is_safe() {
        let m = MetricsRecorder::new(10, 0.001);
        assert_eq!(m.ue_series_mbps(1), &[] as &[f64]);
        assert_eq!(m.slice_mean_mbps(0), 0.0);
        assert!(m.slice_ids().is_empty());
    }

    #[test]
    fn reregistration_keeps_one_accumulator() {
        // Two half-second slots: a one-second window, so Mb/s = bits / 1e6.
        let mut m = MetricsRecorder::new(2, 0.5);
        let ue = m.register(0, 9);
        m.record_delivery(ue, 0, 1000);
        m.end_slot(0, 52);
        // The same UE registered again — in another slice — is the same
        // accumulator: one series, one total.
        assert_eq!(m.register(1, 9), ue);
        m.record_delivery(ue, 1, 3000);
        m.end_slot(0, 52);
        assert_eq!(m.ue_ids(), vec![9]);
        assert_eq!(m.ue_series_mbps(9), &[0.004]);
        assert_eq!(m.ue_mean_mbps(9), 0.004);
        assert_eq!(m.slice_series_mbps(0), &[0.001]);
        assert_eq!(m.slice_series_mbps(1), &[0.003]);
        assert_eq!(m.total_bits(), 4000);
    }

    #[test]
    fn ids_report_in_ascending_order() {
        // Registration order is not id order; reports list ids ascending,
        // and a slice id gap is not a slice.
        let mut m = MetricsRecorder::new(10, 0.001);
        for (slice, ue) in [(4, 90), (0, 30), (4, 70), (2, 10)] {
            m.register(slice, ue);
        }
        m.register_slice(7);
        assert_eq!(m.ue_ids(), vec![10, 30, 70, 90]);
        assert_eq!(m.slice_ids(), vec![0, 2, 4, 7]);
        assert_eq!(m.slice_series_mbps(3), &[] as &[f64]);
    }
}
