//! Sharded multi-cell scenario engine: one deployment, N independent
//! cells, executed by a fixed worker pool.
//!
//! The paper's deployment story (§4) is an operator pushing one xApp to a
//! *fleet* of cells. This module scales the single-gNB [`Scenario`]
//! driver to that shape:
//!
//! * Each cell is a full [`Scenario`] — its own gNB, slice set, UE
//!   population, traffic and RNG seed — so cells share **no** mutable
//!   state. Identical plugin bytecode across cells still shares one
//!   compiled module through the host's `TemplateCache` (compile once per
//!   bytecode hash, stamp an instance per cell).
//! * [`MultiCellScenario::run`] executes the cells on `workers` OS
//!   threads with **one** engine: workers claim cells off an atomic
//!   cursor and run each for one *window*, a barrier closes, the barrier
//!   leader runs the serial cross-cell exchange, and the next window
//!   opens. With mobility attached the window is the exchange period;
//!   without it nothing crosses cells, so one window spans the whole run
//!   and the single exchange that closes it is empty. Because a cell's
//!   evolution depends only on its own seed and on that serial exchange,
//!   per-cell results are byte-identical for every worker count —
//!   [`Report::digest`] is the check.
//! * Per-worker slot-chunk timings land in per-worker shards merged
//!   after the join, so the hot loop never touches a shared accumulator.
//! * A deployment can attach the whole fleet to one near-RT RIC service
//!   thread ([`MultiCellScenarioBuilder::ric`]): every cell's E2 driver
//!   publishes onto a bounded bus and applies mailboxed actions at report
//!   boundaries. In deterministic delivery mode the per-cell digests stay
//!   bit-identical across worker counts *with the RIC in the loop*; in
//!   lossy mode a stalled RIC sheds load visibly
//!   ([`RicPlaneReport::service`] drop counters) instead of growing node
//!   memory.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use waran_host::plugin::SandboxPolicy;
use waran_host::{fnv1a, ExecTimeStats, SlotState, StrikeCounters};
use waran_ric::bus::{RicBus, ServiceReport};

use crate::mobility::{
    sort_departures, CellLayout, CellMobility, Departure, InterruptionStats, MobilityAttachment,
    MobilityReport,
};
use crate::ric_glue::{CellE2Driver, RicAttachment};
use crate::scenario::{
    PopulationModel, Report, Scenario, ScenarioBuilder, ScenarioError, SchedKind, SliceSpec,
};

// The engine moves whole `Scenario`s into worker threads; this is the
// compile-time proof that every layer below (gNB, schedulers, channels,
// traffic, plugin host, Wasm instances) stays `Send`.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Scenario>();
};

/// Lock a deployment-internal mutex, recovering from poisoning.
///
/// A worker that panics mid-cell poisons that cell's lock; with plain
/// `.expect("poisoned")` every later toucher — the exchange leader, the
/// report fold, the *other* cells' workers joining through shared state —
/// aborts too, turning one cell's fault into a deployment-wide crash.
/// Panicked cells are instead marked `faulted` (see [`run_cell_window`])
/// and skipped, so recovering the guard here is safe: the data behind a
/// poisoned cell lock is only ever read for final reporting.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Declarative description of one cell in a deployment.
#[derive(Clone)]
pub struct CellSpec {
    name: String,
    slices: Vec<SliceSpec>,
    seed: Option<u64>,
}

impl CellSpec {
    /// A cell with no slices yet.
    pub fn new(name: &str) -> Self {
        CellSpec {
            name: name.to_string(),
            slices: Vec::new(),
            seed: None,
        }
    }

    /// Add a slice to this cell.
    pub fn slice(mut self, spec: SliceSpec) -> Self {
        self.slices.push(spec);
        self
    }

    /// Pin this cell's RNG seed (default: derived from the deployment
    /// seed and the cell index, stable across worker counts).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }
}

/// Builds a [`MultiCellScenario`].
pub struct MultiCellScenarioBuilder {
    cells: Vec<CellSpec>,
    seconds: f64,
    base_seed: u64,
    policy: SandboxPolicy,
    ric: Option<RicAttachment>,
    mobility: Option<MobilityAttachment>,
    pushes: Vec<PushSpec>,
    population: PopulationModel,
}

impl Default for MultiCellScenarioBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl MultiCellScenarioBuilder {
    /// Deployment with paper-testbed cell defaults.
    pub fn new() -> Self {
        MultiCellScenarioBuilder {
            cells: Vec::new(),
            seconds: 1.0,
            base_seed: 1,
            policy: SandboxPolicy::slot_budget(),
            ric: None,
            mobility: None,
            pushes: Vec::new(),
            population: PopulationModel::PerUe,
        }
    }

    /// How every cell materializes its [`SliceSpec::background`]
    /// populations. `TwoTier` routes them into the struct-of-arrays
    /// massive plane; the default (`PerUe`) keeps the classic path and
    /// existing deployments byte-identical.
    pub fn population(mut self, model: PopulationModel) -> Self {
        self.population = model;
        self
    }

    /// Schedule a fleet-wide plugin push: at simulated slot `slot`, every
    /// cell hot-swaps `slice`'s scheduler to `wasm` (the operator "push an
    /// xApp to the fleet mid-run" move). Every cell ends its current chunk
    /// at `slot`, so the swap lands at exactly that slot in every
    /// deployment and at every worker count. A push that fails to install
    /// (bad bytes, admission rejection) counts into the cell's
    /// `push_failures` instead of aborting the run.
    pub fn push_at(mut self, slot: u64, slice: &str, wasm: &[u8]) -> Self {
        self.pushes.push(PushSpec {
            slot,
            slice: slice.to_string(),
            bytes: Arc::new(wasm.to_vec()),
        });
        self
    }

    /// Attach the deployment to the RIC plane: one service thread hosts
    /// every cell's RIC state; cells publish over a bounded bus.
    pub fn ric(mut self, attachment: RicAttachment) -> Self {
        self.ric = Some(attachment);
        self
    }

    /// Attach cross-cell mobility: cells are placed on a grid, mobile
    /// UEs roam it, and [`MultiCellScenario::run`] closes a window every
    /// exchange period so UEs migrate deterministically. Every cell gets
    /// a disjoint UE-id range (ids stay unique in flight).
    pub fn mobility(mut self, attachment: MobilityAttachment) -> Self {
        self.mobility = Some(attachment);
        self
    }

    /// Add a cell.
    pub fn cell(mut self, spec: CellSpec) -> Self {
        self.cells.push(spec);
        self
    }

    /// Simulated duration, applied to every cell.
    pub fn seconds(mut self, seconds: f64) -> Self {
        self.seconds = seconds;
        self
    }

    /// Deployment seed; per-cell seeds derive from it deterministically.
    pub fn base_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Sandbox policy for every plugin-backed slice.
    pub fn sandbox_policy(mut self, policy: SandboxPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Instantiate every cell (gNBs, slices, UEs, plugins).
    pub fn build(self) -> Result<MultiCellScenario, ScenarioError> {
        if self.cells.is_empty() {
            return Err(ScenarioError::Invalid(
                "a deployment needs at least one cell".into(),
            ));
        }
        if let (Some(mobility), Some(ric)) = (&self.mobility, &self.ric) {
            // Actions applied at a report boundary queue forced handovers
            // for the exchange that closes the *previous* window, so every
            // report boundary must be a window start.
            if !ric
                .report_period_slots
                .is_multiple_of(mobility.exchange_period_slots)
            {
                return Err(ScenarioError::Invalid(format!(
                    "RIC report period ({} slots) must be a multiple of the \
                     mobility exchange period ({} slots)",
                    ric.report_period_slots, mobility.exchange_period_slots
                )));
            }
        }
        let layout = self
            .mobility
            .map(|m| Arc::new(CellLayout::grid(self.cells.len(), m.isd_m)));
        let mut pushes = self.pushes;
        pushes.sort_by_key(|p| p.slot);
        let mut cells = Vec::with_capacity(self.cells.len());
        for (idx, spec) in self.cells.into_iter().enumerate() {
            let cell_id = idx as u32;
            if cells
                .iter()
                .any(|c: &Mutex<CellRuntime>| lock_recover(c).name == spec.name)
            {
                return Err(ScenarioError::Invalid(format!(
                    "duplicate cell `{}`",
                    spec.name
                )));
            }
            let seed = spec
                .seed
                .unwrap_or_else(|| derive_seed(self.base_seed, cell_id));
            let mut builder = ScenarioBuilder::new()
                .seconds(self.seconds)
                .seed(seed)
                .cell_id(cell_id)
                .sandbox_policy(self.policy)
                .population(self.population);
            if let Some(layout) = &layout {
                // Disjoint per-cell UE-id ranges: an id stays unique
                // deployment-wide while its UE migrates.
                builder = builder
                    .cell_position(layout.pos(idx))
                    .mobility_area(layout.area())
                    .first_ue_id(70 + cell_id * 100_000);
            }
            for slice in spec.slices {
                builder = builder.slice(slice);
            }
            let scenario = builder.build()?;
            let mobility = self
                .mobility
                .zip(layout.clone())
                .map(|(m, layout)| CellMobility::new(cell_id, layout, m.a3));
            cells.push(Mutex::new(CellRuntime {
                name: spec.name,
                cell_id,
                seed,
                scenario,
                driver: None,
                mobility,
                pushes: pushes.clone(),
                push_failures: 0,
                faulted: false,
            }));
        }
        let bus = self.ric.map(|attachment| {
            let mut bus = attachment.build_bus();
            for cell in &cells {
                let mut cell = lock_recover(cell);
                cell.driver = Some(attachment.driver(cell.cell_id, &mut bus));
            }
            bus
        });
        Ok(MultiCellScenario {
            cells,
            bus,
            mobility_cfg: self.mobility,
        })
    }
}

/// SplitMix64 over (deployment seed, cell id): decorrelates per-cell RNG
/// streams while staying a pure function of the build inputs, so the
/// schedule of worker threads can never perturb a cell's seed.
fn derive_seed(base: u64, cell_id: u32) -> u64 {
    let mut z = base.wrapping_add(0x9e37_79b9_7f4a_7c15_u64.wrapping_mul(u64::from(cell_id) + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One scheduled fleet-wide plugin push: at simulated slot `slot`, swap
/// `slice`'s scheduler to `bytes` (a pure function of simulation time,
/// never of wall clock or worker schedule).
#[derive(Clone)]
struct PushSpec {
    slot: u64,
    slice: String,
    bytes: Arc<Vec<u8>>,
}

struct CellRuntime {
    name: String,
    cell_id: u32,
    seed: u64,
    scenario: Scenario,
    driver: Option<CellE2Driver>,
    mobility: Option<CellMobility>,
    /// Scheduled plugin pushes not yet applied, sorted by slot.
    pushes: Vec<PushSpec>,
    /// Scheduled pushes that failed to install (bad bytes, admission).
    push_failures: u64,
    /// A worker panicked inside this cell; it is skipped from then on and
    /// reported as faulted instead of aborting the deployment.
    faulted: bool,
}

/// Apply every scheduled push whose slot has been reached. Called at
/// chunk starts, and chunks end at the next push slot, so each push lands
/// at exactly its slot.
fn apply_due_pushes(cell: &mut CellRuntime) {
    let slot = cell.scenario.gnb.slot();
    let due = cell.pushes.partition_point(|p| p.slot <= slot);
    for push in cell.pushes.drain(..due) {
        if cell
            .scenario
            .swap_plugin_bytes(&push.slice, &push.bytes)
            .is_err()
        {
            cell.push_failures += 1;
        }
    }
}

/// What the serial exchange carries from one window to the next and, at
/// the end, hands back to `run`.
#[derive(Default)]
struct Exchange {
    /// Departures collected at the last window close, admitted at the
    /// next one.
    in_transit: Vec<Departure>,
    /// `(depart_slot, admit_slot)` for every admitted handover.
    records: Vec<(u64, u64)>,
    /// In-transit departures dropped (unserviceable destination).
    dropped: u64,
}

/// A built multi-cell deployment, runnable on any number of workers.
pub struct MultiCellScenario {
    cells: Vec<Mutex<CellRuntime>>,
    /// Present until [`MultiCellScenario::run`] starts the service.
    bus: Option<RicBus>,
    mobility_cfg: Option<MobilityAttachment>,
}

impl MultiCellScenario {
    /// Number of cells.
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// Hot-swap a Wasm slice's scheduler in one cell to a standard
    /// policy. The swap is atomic per cell: only that cell's plugin host
    /// publishes a new slot epoch; every other cell is untouched.
    pub fn swap_plugin(
        &self,
        cell: &str,
        slice: &str,
        kind: SchedKind,
    ) -> Result<(), ScenarioError> {
        let runtime = self
            .cells
            .iter()
            .find(|c| lock_recover(c).name == cell)
            .ok_or_else(|| ScenarioError::Invalid(format!("no cell `{cell}`")))?;
        lock_recover(runtime).scenario.swap_plugin(slice, kind)
    }

    /// Run every cell to completion on `workers` threads (0 and 1 both
    /// mean sequential execution on the calling thread) and report
    /// per-cell and aggregate results. Per-cell outputs are independent
    /// of `workers`.
    ///
    /// Every cell runs exactly one window, a barrier closes, one worker
    /// (the barrier leader) serially admits the *previous* window's
    /// in-transit departures in `(slot, src_cell, ue_id)` order and
    /// collects this window's, and the next window opens. Departures
    /// therefore ride in transit for exactly one window — the handover
    /// interruption time — and the admission sequence is a pure function
    /// of the simulation state, never of worker scheduling. The window is
    /// the mobility exchange period; a deployment without mobility has
    /// nothing to exchange and runs as one window.
    pub fn run(&mut self, workers: usize) -> MultiCellReport {
        let started = Instant::now();
        let n_cells = self.cells.len();
        let requested_workers = workers;
        let workers = workers.clamp(1, n_cells.max(1));
        let service = self.bus.take().map(RicBus::start);

        let window = self
            .mobility_cfg
            .map_or(u64::MAX, |cfg| cfg.exchange_period_slots.max(1));
        let (chunk_shards, exchange) = self.run_windows(workers, window);
        let (cell_reports, exec) = self.finish_cells();

        let wall_seconds = started.elapsed().as_secs_f64();
        let mut slot_chunks = ExecTimeStats::new();
        for shard in &chunk_shards {
            slot_chunks.merge(shard);
        }

        // Workers are done: stop the service and fold the plane's counters.
        let ric = service.map(|service| {
            let mut plane = RicPlaneReport {
                service: service.stop(),
                ..RicPlaneReport::default()
            };
            for cell in &self.cells {
                let cell = lock_recover(cell);
                if let Some(driver) = &cell.driver {
                    plane.indications_sent += driver.indications_sent;
                    plane.action_batches_received += driver.action_batches_received;
                    plane.applied_slice_targets += driver.applied_slice_targets;
                    plane.applied_handovers += driver.applied_handovers;
                    plane.rejected_actions += driver.rejected_actions;
                    if driver.rejected_actions > 0 {
                        plane
                            .rejected_by_cell
                            .push((cell.cell_id, driver.rejected_actions));
                    }
                    plane.agent_decode_errors += driver.decode_errors;
                    plane.detached_cells += u64::from(!driver.is_attached());
                }
            }
            plane
        });

        let total_slots = cell_reports.iter().map(|c| c.report.slots).sum();
        let total_sched_calls = cell_reports.iter().map(|c| c.sched_calls).sum();

        let mut background: Option<FleetBackground> = None;
        for cell in &cell_reports {
            let Some(bg) = &cell.report.background else {
                continue;
            };
            let total = background.get_or_insert_with(FleetBackground::default);
            total.delivered_bytes += bg.delivered_bytes;
            for s in &bg.slices {
                total.population += u64::from(s.population);
                total.active += u64::from(s.active);
                total.promoted += u64::from(s.promoted);
                total.departed += u64::from(s.departed);
                total.offered_bytes += s.offered_bytes;
                total.scheduled_bytes += s.scheduled_bytes;
                total.dropped_bytes += s.dropped_bytes;
                total.buffered_bytes += s.buffered_bytes;
                total.promotions += s.promotions;
                total.demotions += s.demotions;
                total.lost_to_handover += s.lost_to_handover;
                total.absorbed += s.absorbed;
            }
        }

        let mobility = self.mobility_cfg.map(|cfg| {
            let slot_seconds = lock_recover(&self.cells[0]).scenario.gnb.slot_seconds();
            let mut report = MobilityReport {
                exchange_period_slots: cfg.exchange_period_slots,
                dropped_departures: exchange.dropped,
                interruption: InterruptionStats::from_records(&exchange.records, slot_seconds),
                ..MobilityReport::default()
            };
            for cell in &self.cells {
                let cell = lock_recover(cell);
                if let Some(m) = &cell.mobility {
                    report.cross_cell_handovers += m.counters.admissions;
                    report.a3_departures += m.counters.a3_departures;
                    report.forced_departures += m.counters.forced_departures;
                    report.rejected_admissions += m.counters.rejected_admissions;
                }
            }
            report
        });

        MultiCellReport {
            cells: cell_reports,
            exec,
            slot_chunks,
            workers,
            requested_workers,
            wall_seconds,
            total_slots,
            total_sched_calls,
            ric,
            mobility,
            background,
        }
    }

    /// The engine: `workers` threads (the caller's included) alternate
    /// between claiming cells for one window each and a barrier-fenced
    /// serial [`lockstep_exchange`], until every cell has finished.
    /// Returns each worker's slot-chunk timing shard and the exchange's
    /// final state.
    fn run_windows(&self, workers: usize, window: u64) -> (Vec<ExecTimeStats>, Exchange) {
        let cells = &self.cells;
        let cursor = AtomicUsize::new(0);
        let done = AtomicBool::new(false);
        let exchange = Mutex::new(Exchange::default());
        let barrier = Barrier::new(workers);
        let worker = || {
            let mut chunk_shard = ExecTimeStats::new();
            while !done.load(Ordering::Relaxed) {
                loop {
                    let idx = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(cell) = cells.get(idx) else {
                        break;
                    };
                    run_cell_window(&mut lock_recover(cell), window, &mut chunk_shard);
                }
                if barrier.wait().is_leader() {
                    // Serial section: every other worker is parked at
                    // the second barrier.
                    let all_done = lockstep_exchange(cells, &mut lock_recover(&exchange));
                    cursor.store(0, Ordering::Relaxed);
                    done.store(all_done, Ordering::Relaxed);
                }
                barrier.wait();
            }
            chunk_shard
        };
        let shards = std::thread::scope(|scope| {
            let spawned: Vec<_> = (1..workers).map(|_| scope.spawn(worker)).collect();
            let mut shards = vec![worker()];
            shards.extend(
                spawned
                    .into_iter()
                    .map(|h| h.join().expect("worker panicked")),
            );
            shards
        });
        let exchange = exchange
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        (shards, exchange)
    }

    /// The serial finish pass, in declaration order so the RIC counters
    /// are deterministic: settle each cell's E2 driver, fold its plugin
    /// execution times, then read out its counters and report snapshot. A
    /// faulted cell is never executed again: its driver is not settled
    /// and its timings are not folded; it is only read for reporting, as
    /// it stood at the fault point.
    fn finish_cells(&self) -> (Vec<CellReport>, ExecTimeStats) {
        let mut exec = ExecTimeStats::new();
        let mut reports = Vec::with_capacity(self.cells.len());
        for cell in &self.cells {
            let mut guard = lock_recover(cell);
            let cell = &mut *guard;
            if !cell.faulted {
                if let Some(driver) = cell.driver.as_mut() {
                    driver.finish(&mut cell.scenario, cell.mobility.as_mut());
                }
            }
            let mut sched_calls = 0;
            let mut governance = CellGovernance {
                push_failures: cell.push_failures,
                ..CellGovernance::default()
            };
            for name in cell.scenario.slice_names() {
                if let Some(stats) = cell.scenario.plugin_stats(name) {
                    sched_calls += stats.count();
                    if !cell.faulted {
                        exec.merge(&stats);
                    }
                }
                if let Some(health) = cell.scenario.plugin_health(name) {
                    governance.strikes.merge(&health.strikes);
                    governance.rollbacks += health.rollbacks;
                }
                if cell.scenario.plugin_state(name) == Some(SlotState::Quarantined) {
                    governance.quarantined_slices += 1;
                }
            }
            reports.push(CellReport {
                name: cell.name.clone(),
                cell_id: cell.cell_id,
                seed: cell.seed,
                sched_calls,
                governance,
                faulted: cell.faulted,
                report: cell.scenario.report(),
            });
        }
        (reports, exec)
    }
}

/// Chunk length for detached cells, slots. Matches the default RIC
/// reporting period so attached-vs-detached chunk latencies compare
/// like-for-like.
const DETACHED_CHUNK_SLOTS: u64 = 100;

/// Run one cell to the end of the current window (or of its run) in
/// chunks: apply the scheduled pushes that are due, run the E2 boundary
/// protocol if a report period just closed, then advance to the nearest
/// of the next report boundary, the next scheduled push and the window
/// end, timing each chunk into `chunk_shard`.
///
/// All of it under the deployment's one panic boundary: a panic anywhere
/// inside the cell (a poisoned internal lock, a logic bug tickled by
/// hostile input) marks the cell faulted and is swallowed, so one cell
/// degrades to "stopped, reported as faulted" instead of unwinding
/// through the worker and aborting the whole deployment. A faulted cell
/// reads as finished to the exchange, so the other cells keep going
/// without it. `AssertUnwindSafe` is justified the same way the poison
/// recovery is: a faulted cell is never executed again, only read for
/// final reporting.
fn run_cell_window(cell: &mut CellRuntime, window_slots: u64, chunk_shard: &mut ExecTimeStats) {
    if cell.faulted {
        return;
    }
    let ran = catch_unwind(AssertUnwindSafe(|| {
        let chunk_len = cell
            .driver
            .as_ref()
            .map_or(DETACHED_CHUNK_SLOTS, |d| d.report_period_slots)
            .max(1);
        let mut left = window_slots.min(cell.scenario.remaining_slots());
        while left > 0 {
            apply_due_pushes(cell);
            let slot = cell.scenario.gnb.slot();
            if let Some(driver) = cell.driver.as_mut() {
                if driver.due(slot) {
                    driver.on_boundary(&mut cell.scenario, cell.mobility.as_mut());
                }
            }
            let to_boundary = chunk_len - (slot % chunk_len);
            // Stop early at the next scheduled push, so the swap lands at
            // exactly its slot (same slot at any worker count).
            let to_push = cell
                .pushes
                .first()
                .map_or(u64::MAX, |p| p.slot.saturating_sub(slot).max(1));
            let n = to_boundary.min(to_push).min(left);
            let chunk_started = Instant::now();
            cell.scenario.run_slots(n);
            chunk_shard.record(chunk_started.elapsed());
            left -= n;
        }
    }));
    if ran.is_err() {
        cell.faulted = true;
    }
}

/// The serial exchange at a window close: admit the previous window's
/// in-transit departures in admission order, then collect this window's
/// (cells visited in declaration order — the collection order is erased
/// by the sort anyway). Returns true when every cell has finished. Without
/// mobility there is nothing in transit and nothing to collect: the call
/// only observes that every cell is done.
fn lockstep_exchange(cells: &[Mutex<CellRuntime>], exchange: &mut Exchange) -> bool {
    let Exchange {
        in_transit,
        records,
        dropped,
    } = exchange;
    for dep in in_transit.drain(..) {
        // A hostile or buggy RIC action can put an out-of-range (or
        // otherwise unserviceable) destination in flight; indexing
        // unchecked here would panic the exchange leader and poison every
        // cell lock. Drop such departures instead, with per-cell
        // attribution on the *source* cell's mobility counters.
        let Some(dst) = cells.get(dep.msg.dst_cell as usize) else {
            *dropped += 1;
            reject_at_source(cells, dep.msg.src_cell);
            continue;
        };
        let mut cell = lock_recover(dst);
        let depart_slot = dep.msg.slot;
        let admit_slot = cell.scenario.gnb.slot();
        let CellRuntime {
            scenario,
            mobility,
            faulted,
            ..
        } = &mut *cell;
        // A faulted destination (or one without mobility wired — only
        // possible via a corrupted message) cannot admit; the departure
        // is dropped, not panicked on.
        let (false, Some(mob)) = (*faulted, mobility.as_mut()) else {
            *dropped += 1;
            drop(cell);
            reject_at_source(cells, dep.msg.src_cell);
            continue;
        };
        if mob.admit(scenario, dep) {
            records.push((depart_slot, admit_slot));
        }
    }
    let mut fresh = Vec::new();
    let mut all_done = true;
    for cell in cells {
        let mut cell = lock_recover(cell);
        if cell.faulted || cell.scenario.remaining_slots() == 0 {
            continue;
        }
        all_done = false;
        let slot = cell.scenario.gnb.slot();
        let CellRuntime {
            scenario, mobility, ..
        } = &mut *cell;
        if let Some(mob) = mobility.as_mut() {
            fresh.extend(mob.evaluate(scenario, slot));
        }
    }
    sort_departures(&mut fresh);
    *in_transit = fresh;
    all_done
}

/// Attribute a dropped in-transit departure to its source cell's mobility
/// counters (the cell whose UE is now lost to the deployment report, not
/// to a panic).
fn reject_at_source(cells: &[Mutex<CellRuntime>], src_cell: u32) {
    if let Some(src) = cells.get(src_cell as usize) {
        if let Some(mob) = lock_recover(src).mobility.as_mut() {
            mob.counters.rejected_admissions += 1;
        }
    }
}

/// Aggregate view of the RIC plane after a run.
#[derive(Debug, Clone, Default)]
pub struct RicPlaneReport {
    /// What the service thread saw (queue accounting, per-cell drops,
    /// xApp activity).
    pub service: ServiceReport,
    /// Indications published across all cells.
    pub indications_sent: u64,
    /// Action batches received across all cells.
    pub action_batches_received: u64,
    /// Slice-target actions applied.
    pub applied_slice_targets: u64,
    /// Handovers applied.
    pub applied_handovers: u64,
    /// Actions that could not be applied.
    pub rejected_actions: u64,
    /// Per-cell attribution of rejected actions: `(cell_id, rejected)`
    /// for every cell that rejected at least one, in declaration order.
    /// A hostile xApp shows up here as a hot spot instead of vanishing
    /// into the aggregate.
    pub rejected_by_cell: Vec<(u32, u64)>,
    /// Cell-side decode failures (bad batches + skipped records).
    pub agent_decode_errors: u64,
    /// Cells that lost the service mid-run and detached.
    pub detached_cells: u64,
}

/// Governance counters for one cell, folded across its plugin slots at
/// report time: the ops-plane view of how the cell's plugins behaved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CellGovernance {
    /// Faults by kind, summed over the cell's plugin slots.
    pub strikes: StrikeCounters,
    /// Automatic rollbacks to the last-good module.
    pub rollbacks: u64,
    /// Slots still quarantined at the end of the run.
    pub quarantined_slices: u64,
    /// Scheduled plugin pushes that failed to install on this cell.
    pub push_failures: u64,
}

/// Aggregate-tier totals folded across every cell that ran the massive
/// plane ([`PopulationModel::TwoTier`]). The per-slice counters come
/// from each cell's [`crate::scenario::BackgroundReport`]; this is the
/// fleet-wide sum the benches and gates read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetBackground {
    /// Background rows (initial populations + absorbed arrivals),
    /// summed over cells and slices.
    pub population: u64,
    /// Rows still multiplexed in the aggregate tier at run end.
    pub active: u64,
    /// Rows materialized as foreground UEs at run end.
    pub promoted: u64,
    /// Tombstoned rows (left their home cell while promoted).
    pub departed: u64,
    /// Bytes the aggregate flows offered.
    pub offered_bytes: u64,
    /// Bytes drained from background buffers by leftover-PRB service.
    pub scheduled_bytes: u64,
    /// Bytes dropped at per-row buffer ceilings.
    pub dropped_bytes: u64,
    /// Bytes still buffered at run end.
    pub buffered_bytes: u64,
    /// Lifetime promotions out of the background tier.
    pub promotions: u64,
    /// Lifetime demotions back into the background tier.
    pub demotions: u64,
    /// Promoted UEs that handed over away while promoted.
    pub lost_to_handover: u64,
    /// UEs absorbed from other cells' planes.
    pub absorbed: u64,
    /// Bytes delivered by background-running cells (foreground +
    /// background), summed.
    pub delivered_bytes: u64,
}

/// One cell's results.
#[derive(Debug, Clone)]
pub struct CellReport {
    /// Cell name.
    pub name: String,
    /// Cell identity (index in declaration order).
    pub cell_id: u32,
    /// The RNG seed the cell ran with.
    pub seed: u64,
    /// Scheduler-plugin calls made by this cell.
    pub sched_calls: u64,
    /// Strike / rollback / quarantine accounting for this cell.
    pub governance: CellGovernance,
    /// True when the cell panicked mid-run and was fenced off; its
    /// report is a snapshot at the fault point.
    pub faulted: bool,
    /// The cell's full measurement snapshot.
    pub report: Report,
}

/// Aggregate results of one deployment run.
#[derive(Debug, Clone)]
pub struct MultiCellReport {
    /// Per-cell results in declaration order.
    pub cells: Vec<CellReport>,
    /// Plugin execution-time statistics folded across all cells.
    pub exec: ExecTimeStats,
    /// Wall time of each report-period slot chunk, merged across workers
    /// (the slot-loop latency the RIC attachment must not inflate).
    pub slot_chunks: ExecTimeStats,
    /// Worker threads actually used ([`MultiCellScenario::run`] clamps
    /// the request to the cell count).
    pub workers: usize,
    /// Worker threads the caller asked for, pre-clamp.
    pub requested_workers: usize,
    /// Wall-clock duration of the run, seconds.
    pub wall_seconds: f64,
    /// Slots simulated, summed over cells.
    pub total_slots: u64,
    /// Scheduler-plugin calls, summed over cells.
    pub total_sched_calls: u64,
    /// RIC-plane accounting when the deployment ran attached.
    pub ric: Option<RicPlaneReport>,
    /// Mobility accounting when the deployment ran with mobility.
    pub mobility: Option<MobilityReport>,
    /// Massive-plane totals when any cell ran `PopulationModel::TwoTier`.
    pub background: Option<FleetBackground>,
}

impl MultiCellReport {
    /// Look up a cell by name.
    pub fn cell(&self, name: &str) -> Option<&CellReport> {
        self.cells.iter().find(|c| c.name == name)
    }

    /// Per-cell report digests in declaration order; equal vectors across
    /// runs mean byte-identical per-cell outputs (the worker-count
    /// independence check). Governance counters (strikes, rollbacks,
    /// quarantines, push failures, fault fencing) fold into the digest,
    /// so the check also covers the ops plane: a quarantine or rollback
    /// that fires on one worker count but not another breaks the gate.
    pub fn cell_digests(&self) -> Vec<u64> {
        self.cells
            .iter()
            .map(|c| {
                let g = &c.governance;
                let mut bytes = [0u8; 64];
                for (i, v) in [
                    g.strikes.trap,
                    g.strikes.fuel_exhausted,
                    g.strikes.deadline,
                    g.strikes.other,
                    g.rollbacks,
                    g.quarantined_slices,
                    g.push_failures,
                    u64::from(c.faulted),
                ]
                .into_iter()
                .enumerate()
                {
                    bytes[i * 8..i * 8 + 8].copy_from_slice(&v.to_le_bytes());
                }
                c.report.digest() ^ fnv1a(&bytes)
            })
            .collect()
    }

    /// Governance counters merged across all cells.
    pub fn governance(&self) -> CellGovernance {
        let mut total = CellGovernance::default();
        for cell in &self.cells {
            total.strikes.merge(&cell.governance.strikes);
            total.rollbacks += cell.governance.rollbacks;
            total.quarantined_slices += cell.governance.quarantined_slices;
            total.push_failures += cell.governance.push_failures;
        }
        total
    }

    /// Cells that panicked mid-run and were fenced off.
    pub fn faulted_cells(&self) -> u64 {
        self.cells.iter().filter(|c| c.faulted).count() as u64
    }

    /// Aggregate slot throughput, slots per wall-clock second.
    pub fn slots_per_sec(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.total_slots as f64 / self.wall_seconds
        } else {
            0.0
        }
    }

    /// Delivered-byte throughput of the massive-plane cells, bytes per
    /// wall-clock second (0 when no cell ran `PopulationModel::TwoTier`).
    pub fn bytes_scheduled_per_sec(&self) -> f64 {
        match &self.background {
            Some(bg) if self.wall_seconds > 0.0 => bg.delivered_bytes as f64 / self.wall_seconds,
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mobility::HandoverMsg;
    use crate::scenario::SliceSpec;

    fn plain_deployment(cells: usize, seconds: f64) -> MultiCellScenarioBuilder {
        let mut b = MultiCellScenarioBuilder::new()
            .seconds(seconds)
            .base_seed(42);
        for i in 0..cells {
            b = b.cell(
                CellSpec::new(&format!("cell{i}")).slice(
                    SliceSpec::new("mvno", SchedKind::RoundRobin)
                        .target_mbps(8.0)
                        .ues(2),
                ),
            );
        }
        b
    }

    fn deployment(cells: usize, seconds: f64) -> MultiCellScenario {
        plain_deployment(cells, seconds).build().unwrap()
    }

    #[test]
    fn builder_rejects_empty_and_duplicates() {
        assert!(matches!(
            MultiCellScenarioBuilder::new().build(),
            Err(ScenarioError::Invalid(_))
        ));
        let dup = MultiCellScenarioBuilder::new()
            .cell(CellSpec::new("a").slice(SliceSpec::new("s", SchedKind::RoundRobin).ues(1)))
            .cell(CellSpec::new("a").slice(SliceSpec::new("s", SchedKind::RoundRobin).ues(1)))
            .build();
        assert!(matches!(dup, Err(ScenarioError::Invalid(_))));
    }

    #[test]
    fn exchange_drops_unserviceable_destinations() {
        // A hostile or buggy RIC can put a departure in flight whose
        // destination is out of range, or whose destination has faulted
        // mid-run. Both must be dropped (with per-cell attribution on
        // the source), never indexed unchecked.
        let mobile = || {
            SliceSpec::new("m", SchedKind::RoundRobin)
                .target_mbps(8.0)
                .ue(
                    crate::ChannelSpec::Mobile { speed_mps: 50.0 },
                    crate::TrafficSpec::FullBuffer,
                )
                .ue(
                    crate::ChannelSpec::Mobile { speed_mps: 25.0 },
                    crate::TrafficSpec::FullBuffer,
                )
                .native()
        };
        let d = MultiCellScenarioBuilder::new()
            .seconds(0.1)
            .base_seed(7)
            .mobility(
                MobilityAttachment::new()
                    .isd_m(60.0)
                    .exchange_period_slots(20),
            )
            .cell(CellSpec::new("a").slice(mobile()))
            .cell(CellSpec::new("b").slice(mobile()))
            .build()
            .unwrap();

        let mut exchange = Exchange::default();
        {
            let mut cell = lock_recover(&d.cells[0]);
            let ids: Vec<u32> = cell
                .scenario
                .gnb
                .mobile_ues()
                .iter()
                .map(|(_, id, _)| *id)
                .collect();
            assert!(ids.len() >= 2);
            for (i, ue_id) in ids.iter().take(2).enumerate() {
                let (slice, ue) = cell.scenario.detach_ue(*ue_id).unwrap();
                exchange.in_transit.push(Departure {
                    msg: HandoverMsg {
                        slot: 0,
                        src_cell: 0,
                        // One departure aims past the fleet, one at a
                        // cell that faulted while it was in flight.
                        dst_cell: if i == 0 { 99 } else { 1 },
                        ue_id: *ue_id,
                        forced: true,
                    },
                    slice,
                    ue,
                });
            }
        }
        lock_recover(&d.cells[1]).faulted = true;

        lockstep_exchange(&d.cells, &mut exchange);

        assert_eq!(exchange.dropped, 2, "both unserviceable departures dropped");
        assert!(exchange.records.is_empty(), "nothing was admitted");
        assert_eq!(
            lock_recover(&d.cells[0])
                .mobility
                .as_ref()
                .unwrap()
                .counters
                .rejected_admissions,
            2,
            "drops attributed to the source cell"
        );
    }

    #[test]
    fn derived_seeds_are_distinct_and_stable() {
        let a = derive_seed(1, 0);
        let b = derive_seed(1, 1);
        assert_ne!(a, b);
        assert_eq!(a, derive_seed(1, 0));
    }

    #[test]
    fn parallel_run_matches_sequential_cells() {
        let seq = deployment(3, 0.2).run(1);
        let par = deployment(3, 0.2).run(2);
        assert_eq!(seq.cell_digests(), par.cell_digests());
        assert_eq!(seq.total_slots, par.total_slots);
        assert_eq!(seq.total_sched_calls, par.total_sched_calls);
        assert_eq!(seq.exec.count(), par.exec.count());
        assert!(par.total_sched_calls > 0);
    }

    #[test]
    fn cells_differ_unless_seeded_identically() {
        // Fading channels consume the per-cell RNG, so different derived
        // seeds must produce different measurements.
        let faded = |_| {
            SliceSpec::new("s", SchedKind::RoundRobin)
                .target_mbps(8.0)
                .ue(
                    crate::ChannelSpec::FadingGood,
                    crate::TrafficSpec::FullBuffer,
                )
                .ue(
                    crate::ChannelSpec::FadingCellEdge,
                    crate::TrafficSpec::FullBuffer,
                )
        };
        let mut d = MultiCellScenarioBuilder::new()
            .seconds(0.2)
            .base_seed(42)
            .cell(CellSpec::new("a").slice(faded(0)))
            .cell(CellSpec::new("b").slice(faded(1)))
            .build()
            .unwrap();
        let report = d.run(1);
        assert_ne!(
            report.cells[0].report.digest(),
            report.cells[1].report.digest()
        );

        let mut same = MultiCellScenarioBuilder::new()
            .seconds(0.2)
            .cell(
                CellSpec::new("a").seed(7).slice(
                    SliceSpec::new("s", SchedKind::RoundRobin)
                        .target_mbps(8.0)
                        .ues(2),
                ),
            )
            .cell(
                CellSpec::new("b").seed(7).slice(
                    SliceSpec::new("s", SchedKind::RoundRobin)
                        .target_mbps(8.0)
                        .ues(2),
                ),
            )
            .build()
            .unwrap();
        let report = same.run(2);
        assert_eq!(
            report.cells[0].report.digest(),
            report.cells[1].report.digest()
        );
    }

    fn mobile_deployment(cells: usize, seconds: f64) -> MultiCellScenarioBuilder {
        let mut b = MultiCellScenarioBuilder::new()
            .seconds(seconds)
            .base_seed(9)
            .mobility(
                MobilityAttachment::new()
                    .isd_m(60.0)
                    .exchange_period_slots(20)
                    .ttt_windows(1)
                    .hold_windows(1),
            );
        for i in 0..cells {
            b = b.cell(
                CellSpec::new(&format!("c{i}")).slice(
                    SliceSpec::new("s", SchedKind::RoundRobin)
                        .target_mbps(6.0)
                        .ue(
                            crate::ChannelSpec::Mobile { speed_mps: 60.0 },
                            crate::TrafficSpec::FullBuffer,
                        )
                        .ue(
                            crate::ChannelSpec::Mobile { speed_mps: 30.0 },
                            crate::TrafficSpec::FullBuffer,
                        )
                        .native(),
                ),
            );
        }
        b
    }

    #[test]
    fn lockstep_mobility_is_worker_count_independent() {
        let one = mobile_deployment(4, 0.3).build().unwrap().run(1);
        let two = mobile_deployment(4, 0.3).build().unwrap().run(2);
        assert_eq!(one.cell_digests(), two.cell_digests());
        let mob = one.mobility.as_ref().expect("mobility report present");
        assert!(
            mob.cross_cell_handovers > 0,
            "close cells + fast UEs must churn, got {mob:?}"
        );
        assert_eq!(
            mob.cross_cell_handovers,
            two.mobility.as_ref().unwrap().cross_cell_handovers
        );
        // One-window transit: interruption is exactly the exchange
        // period (20 slots of 1 ms).
        assert_eq!(mob.interruption.count, mob.cross_cell_handovers);
        assert!((mob.interruption.mean_ms - 20.0).abs() < 1e-9);
    }

    /// A native scheduler that answers its first `self.0` calls with empty
    /// grants, then panics: a logic bug inside one cell, at a slot that is
    /// a pure function of the simulation.
    struct PanicsAfter(u32);

    impl waran_ransim::sched::SliceScheduler for PanicsAfter {
        fn schedule(
            &mut self,
            _req: &waran_abi::sched::SchedRequest,
        ) -> Result<waran_abi::sched::SchedResponse, waran_ransim::sched::SchedulerFault> {
            self.0 = self.0.checked_sub(1).expect("injected scheduler panic");
            Ok(Default::default())
        }

        fn name(&self) -> &str {
            "panics-after"
        }
    }

    #[test]
    fn panicking_cell_is_fenced_off_and_the_deployment_finishes() {
        use waran_ric::comm::TlvCodec;
        use waran_ric::ric::NearRtRic;
        // RIC attached, 20-slot reporting; cell 1's scheduler panics at
        // slot 50, i.e. mid-chunk with a reply outstanding.
        let run = |mobility: bool, sabotage: bool, workers: usize| {
            let builder = if mobility {
                mobile_deployment(3, 0.2)
            } else {
                plain_deployment(3, 0.2)
            };
            let mut d = builder
                .ric(
                    RicAttachment::new(
                        Box::new(|| Box::new(TlvCodec)),
                        Box::new(|_| NearRtRic::new()),
                    )
                    .report_period_slots(20),
                )
                .build()
                .unwrap();
            if sabotage {
                lock_recover(&d.cells[1])
                    .scenario
                    .gnb
                    .swap_scheduler(0, Box::new(PanicsAfter(50)));
            }
            // Returning at all is the first property: no abort, no worker
            // left parked at a barrier.
            let report = d.run(workers);
            assert_eq!(report.faulted_cells(), u64::from(sabotage));
            assert_eq!(report.cells[1].faulted, sabotage);
            if sabotage {
                // The finish pass left the faulted cell alone: its
                // outstanding reply was never consumed.
                let cell = lock_recover(&d.cells[1]);
                let driver = cell.driver.as_ref().unwrap();
                assert_eq!(driver.indications_sent, 2, "boundaries at 20 and 40");
                assert_eq!(driver.action_batches_received, 1);
                assert_eq!(report.cells[1].report.slots, 50);
            }
            report.cell_digests()
        };

        for mobility in [false, true] {
            let one = run(mobility, true, 1);
            assert_eq!(one, run(mobility, true, 2), "mobility {mobility}");
        }
        // Without mobility cells share nothing: the fault cost its own
        // cell and nobody else's.
        let clean = run(false, false, 2);
        let faulted = run(false, true, 2);
        assert_ne!(clean[1], faulted[1]);
        assert_eq!((clean[0], clean[2]), (faulted[0], faulted[2]));
    }

    #[test]
    fn workers_clamped_and_recorded() {
        let report = deployment(2, 0.05).run(8);
        assert_eq!(report.requested_workers, 8);
        assert_eq!(report.workers, 2);
    }

    #[test]
    fn mobility_rejects_misaligned_ric_period() {
        use waran_ric::comm::TlvCodec;
        use waran_ric::ric::NearRtRic;
        let result = mobile_deployment(2, 0.1)
            .ric(
                RicAttachment::new(
                    Box::new(|| Box::new(TlvCodec)),
                    Box::new(|_| NearRtRic::new()),
                )
                .report_period_slots(30),
            )
            .build();
        assert!(
            matches!(result, Err(ScenarioError::Invalid(_))),
            "30 not a multiple of the 20-slot exchange window"
        );
    }

    #[test]
    fn per_cell_swap_is_isolated() {
        let mut d = deployment(2, 0.2);
        d.swap_plugin("cell0", "mvno", SchedKind::MaxThroughput)
            .unwrap();
        assert!(d
            .swap_plugin("nope", "mvno", SchedKind::MaxThroughput)
            .is_err());
        let report = d.run(2);
        assert_eq!(report.cells.len(), 2);
        // Both cells still served their UEs.
        for cell in &report.cells {
            assert!(cell.report.slice("mvno").unwrap().mean_rate_mbps() > 1.0);
        }
    }
}
