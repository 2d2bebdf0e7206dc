//! Design-space exploration as a first-class workload.
//!
//! The paper's argument is that a fast mixed-signal engine makes *design
//! studies* of harvester-powered systems practical. This module is that
//! consumer: a declarative [`GridSpec`] (a [`SweepGrid`] cross product plus
//! deterministic subsampling/refinement) driven by an [`Explorer`] that
//!
//! * executes whole warm-start chains (not single points, because a chain's
//!   points depend on each other — see below) from **one shared list**:
//!   every chain is known before the first one runs, so each worker pops the
//!   next chain until the list is empty, and nothing needs stealing. Chains
//!   are not jobs of the session slice pool: a pool job is one sliced,
//!   checkpointed, billed session, while a chain is several unsliced
//!   sessions handing a donor state along;
//! * **warm-starts** each point from its predecessor along the innermost
//!   grid axis: the donor's fast states (mechanical, coil, rail, intermediate
//!   Dickson stages) are adopted through
//!   [`crate::Session::adopt_initial_state`] under a validity guard, while
//!   the supercapacitor branches and the multiplier output stage keep the
//!   point's own pre-charge. The donor is *fixed by the grid*, not by
//!   execution order, so per-point results are bit-identical for any worker
//!   count — chain heads cold-start, everything else warm-starts;
//! * attributes per-point failures as [`CoreError::Scenario`] rows without
//!   aborting the grid;
//! * streams every finished point into a durable append-only **result
//!   store** — one `HVCK` frame per point (payload kind 3) carrying the grid
//!   digest, so [`Explorer::resume`] skips already-stored points, rejects a
//!   store written for a different grid, and resynchronises past corrupted
//!   bytes by scanning for the next verifiable frame;
//! * distils the rows into per-objective summaries and an exact **Pareto
//!   front** over (maximise harvested energy, minimise store-voltage dip,
//!   minimise engine steps). The step count stands in for run cost in the
//!   front because it is deterministic and machine-independent; the measured
//!   engine wall-time rides along in every row as the informational
//!   counterpart.
//!
//! `repro explore` wraps this into a CLI and emits `BENCH_explore.json`;
//! DESIGN.md §12 documents the model and the file format.

use std::collections::{HashMap, HashSet};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};

use crate::checkpoint::{
    self, fnv1a64, open_frame_with_kind, seal_frame_with_kind, ByteReader, ByteWriter,
    CheckpointError, CHECKPOINT_MAGIC, CHECKSUM_LEN, HEADER_LEN, KIND_EXPLORE_RECORD,
};
use crate::probe::{EnvelopeProbe, PowerProbe};
use crate::scenario::{ScenarioConfig, SweepGrid, SweepParameter};
use crate::session::Simulation;
use crate::store::StoreError;
use crate::CoreError;

/// A declarative description of a design-space grid: a base scenario, an
/// ordered axis list (cross product, last axis innermost/fastest), and a
/// deterministic point subsample. The innermost axis additionally defines
/// the **warm-start chains**: consecutive points along it share a chain and
/// each point's initial state is warm-started from its predecessor's final
/// state.
#[derive(Debug, Clone)]
pub struct GridSpec {
    base: ScenarioConfig,
    axes: Vec<(SweepParameter, Vec<f64>)>,
    subsample: f64,
    seed: u64,
}

impl GridSpec {
    /// Starts a grid over `base` with no axes (a single point).
    pub fn new(base: ScenarioConfig) -> Self {
        GridSpec { base, axes: Vec::new(), subsample: 1.0, seed: 0 }
    }

    /// Appends an axis; the axis added last is the innermost one (fastest
    /// varying, and the direction warm-start chains run along).
    pub fn axis(mut self, param: SweepParameter, values: &[f64]) -> Self {
        self.axes.push((param, values.to_vec()));
        self
    }

    /// Keeps a deterministic pseudo-random fraction of the grid (`0 < keep ≤
    /// 1`, seeded): point `i` is kept iff `splitmix64(seed, i)` lands below
    /// `keep`. Dropped points are counted as `skipped` in the report, so the
    /// accounting `offered == completed + failed + skipped` still balances.
    pub fn subsample(mut self, keep: f64, seed: u64) -> Self {
        self.subsample = keep;
        self.seed = seed;
        self
    }

    /// Refines the axis swept by `param` by inserting the midpoint between
    /// every pair of adjacent values (`n` values become `2n − 1`). An axis
    /// with fewer than two values is left unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfiguration`] if no axis sweeps `param`.
    pub fn refine(mut self, param: SweepParameter) -> Result<Self, CoreError> {
        let axis = self.axes.iter_mut().find(|(p, _)| *p == param).ok_or_else(|| {
            CoreError::InvalidConfiguration(format!(
                "cannot refine axis `{}`: the grid does not sweep it",
                param.label()
            ))
        })?;
        if axis.1.len() >= 2 {
            let mut refined = Vec::with_capacity(axis.1.len() * 2 - 1);
            for pair in axis.1.windows(2) {
                refined.push(pair[0]);
                refined.push(0.5 * (pair[0] + pair[1]));
            }
            refined.push(*axis.1.last().expect("len >= 2"));
            axis.1 = refined;
        }
        Ok(self)
    }

    /// The base configuration every point derives from.
    pub fn base(&self) -> &ScenarioConfig {
        &self.base
    }

    /// The axes in expansion order (last = innermost).
    pub fn axes(&self) -> &[(SweepParameter, Vec<f64>)] {
        &self.axes
    }

    /// Number of points in the full cross product, before subsampling.
    pub fn offered(&self) -> usize {
        self.axes.iter().map(|(_, values)| values.len()).product()
    }

    /// The [`SweepGrid`] this spec expands through — the same builder
    /// `repro table2 --sweep` uses, so the `scenario+p1=v1+p2=v2` label path
    /// is shared verbatim.
    fn sweep_grid(&self) -> SweepGrid {
        let mut grid = SweepGrid::new(self.base.clone());
        for (param, values) in &self.axes {
            grid = grid.axis(*param, values);
        }
        grid
    }

    /// Grid identity digest, stamped into every result-store frame header:
    /// FNV-1a over the encoded base configuration, the axis list and the
    /// subsample settings. [`Explorer::resume`] refuses a store whose frames
    /// carry a different digest — resuming someone else's grid would silently
    /// mix incompatible points.
    pub fn digest(&self) -> u64 {
        let mut w = ByteWriter::new();
        w.put_bytes(&checkpoint::encode_config(&self.base));
        w.put_usize(self.axes.len());
        for (param, values) in &self.axes {
            w.put_bytes(param.label().as_bytes());
            w.put_f64_slice(values);
        }
        w.put_f64(self.subsample);
        w.put_u64(self.seed);
        fnv1a64(&w.into_bytes())
    }

    /// Expands the kept points: the full cross product minus the subsampled
    /// ones, each carrying its full-grid index and per-axis values.
    fn plan(&self) -> Result<Vec<PointPlan>, CoreError> {
        if !(self.subsample > 0.0 && self.subsample <= 1.0) {
            return Err(CoreError::InvalidConfiguration(format!(
                "subsample keep fraction must be in (0, 1], got {}",
                self.subsample
            )));
        }
        let lens: Vec<usize> = self.axes.iter().map(|(_, values)| values.len()).collect();
        let configs = self.sweep_grid().expand();
        let mut plans = Vec::with_capacity(configs.len());
        for (index, config) in configs.into_iter().enumerate() {
            if self.subsample < 1.0 {
                // Keep iff the point's hash lands below the keep fraction
                // (53-bit uniform draw) — a pure function of (seed, index),
                // so the kept set is identical for any worker count.
                let draw =
                    (splitmix64(self.seed ^ index as u64) >> 11) as f64 / (1u64 << 53) as f64;
                if draw >= self.subsample {
                    continue;
                }
            }
            let mut values = Vec::with_capacity(self.axes.len());
            let mut rem = index;
            let mut coords = vec![0usize; self.axes.len()];
            for a in (0..self.axes.len()).rev() {
                coords[a] = rem % lens[a];
                rem /= lens[a];
            }
            for (a, (_, axis_values)) in self.axes.iter().enumerate() {
                values.push(axis_values[coords[a]]);
            }
            plans.push(PointPlan { index, config, values });
        }
        Ok(plans)
    }

    /// Points per warm-start chain: the innermost axis length (1 for an
    /// axis-free grid).
    fn chain_stride(&self) -> usize {
        self.axes.last().map(|(_, values)| values.len().max(1)).unwrap_or(1)
    }
}

/// SplitMix64 — the deterministic hash behind grid subsampling (same
/// generator family the fault-injection plans use).
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One kept grid point, ready to execute.
#[derive(Debug, Clone)]
struct PointPlan {
    /// Position in the *full* cross product (row-major, last axis fastest) —
    /// the stable identity a result-store record is keyed by.
    index: usize,
    config: ScenarioConfig,
    /// One value per axis, in axis order.
    values: Vec<f64>,
}

/// Measured objectives of one completed point.
#[derive(Debug, Clone, PartialEq)]
pub struct PointMetrics {
    /// Supercapacitor energy gained over the run, in joules (final minus
    /// initial stored energy — the *harvested energy* objective, maximised).
    pub energy_gain_j: f64,
    /// Store-voltage dip depth, in volts: first minus minimum envelope
    /// sample of the storage net (minimised).
    pub dip_v: f64,
    /// Engine wall-clock of the run, in seconds. Informational: wall time is
    /// not deterministic, so the Pareto front uses `steps` as the cost axis.
    pub wall_s: f64,
    /// Accepted engine steps — the deterministic, machine-independent run
    /// cost (minimised in the Pareto front).
    pub steps: usize,
    /// First storage-voltage envelope sample, in volts.
    pub v_first: f64,
    /// Final storage-voltage envelope sample, in volts.
    pub v_last: f64,
    /// RMS generator output power after the frequency step, in microwatts
    /// (from the streaming [`PowerProbe`]).
    pub rms_after_uw: f64,
    /// Final global state vector — the warm-start donor a resumed run adopts
    /// for the stored point's chain successor.
    pub final_state: Vec<f64>,
}

/// How a grid point ended.
#[derive(Debug, Clone, PartialEq)]
pub enum PointOutcome {
    /// The simulation ran to the end of its span.
    Completed(PointMetrics),
    /// The point failed; the string is the display form of the attributed
    /// [`CoreError::Scenario`] (label + underlying failure).
    Failed(String),
}

/// One grid point's result row — executed this run or recovered from the
/// result store.
#[derive(Debug, Clone, PartialEq)]
pub struct PointRecord {
    /// Full-grid point index (see [`GridSpec`]).
    pub index: usize,
    /// The point's `scenario+p1=v1+p2=v2` label path.
    pub label: String,
    /// One swept value per axis, in axis order.
    pub values: Vec<f64>,
    /// Whether the point adopted a warm-start donor (false = cold start).
    pub warm: bool,
    /// Whether this row was recovered from the result store instead of
    /// executed in this run.
    pub recovered: bool,
    /// The outcome.
    pub outcome: PointOutcome,
}

impl PointRecord {
    /// The metrics of a completed point, `None` for failures.
    pub fn metrics(&self) -> Option<&PointMetrics> {
        match &self.outcome {
            PointOutcome::Completed(metrics) => Some(metrics),
            PointOutcome::Failed(_) => None,
        }
    }

    /// The attributed error of a failed point, `None` for completions.
    pub fn error(&self) -> Option<&str> {
        match &self.outcome {
            PointOutcome::Completed(_) => None,
            PointOutcome::Failed(message) => Some(message),
        }
    }
}

/// Min/max/mean of one objective over the completed rows.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectiveSummary {
    /// Objective name (`energy_gain_j`, `dip_v`, `wall_s`, `steps`).
    pub objective: &'static str,
    /// Smallest value observed.
    pub min: f64,
    /// Largest value observed.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

/// The outcome of an exploration: every row, the scheduler/warm-start
/// counters, the balanced point accounting and the exact Pareto front.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// Label of the base configuration the grid derives from.
    pub base_label: String,
    /// Axis labels and values, in expansion order.
    pub axes: Vec<(String, Vec<f64>)>,
    /// Subsample keep fraction of the spec.
    pub subsample: f64,
    /// Subsample seed of the spec.
    pub seed: u64,
    /// Full cross-product size.
    pub offered: usize,
    /// Rows that completed (executed or recovered).
    pub completed: usize,
    /// Rows that failed (attributed, not grid-aborting).
    pub failed: usize,
    /// Points not run: subsampled out, or (report-only) not yet stored.
    /// Always `offered − completed − failed`, so the accounting balances.
    pub skipped: usize,
    /// Worker threads requested of the scheduler.
    pub workers: usize,
    /// Worker threads that executed at least one point this run.
    pub threads_used: usize,
    /// Always 0: the workers share one chain list and never steal. Kept
    /// because `perfbench` reads it; a benchmark change removes it.
    pub steals: usize,
    /// Points executed this run that adopted a warm-start donor.
    pub warm_hits: usize,
    /// Points executed this run from a cold start (chain heads, rejected
    /// donors, failure successors re-warmed from an older donor — see
    /// DESIGN.md §12).
    pub cold_starts: usize,
    /// Rows recovered from the result store instead of re-executed.
    pub resumed: usize,
    /// Corrupt result-store regions skipped while scanning (each region may
    /// have destroyed one or more records; the affected points re-ran).
    pub dropped_regions: usize,
    /// Every row, sorted by point index.
    pub rows: Vec<PointRecord>,
    /// Point indices of the exact Pareto front over (maximise
    /// `energy_gain_j`, minimise `dip_v`, minimise `steps`) among completed
    /// rows, ascending.
    pub pareto_front: Vec<usize>,
    /// Per-objective summaries over completed rows.
    pub summaries: Vec<ObjectiveSummary>,
}

/// How an [`Explorer`] invocation treats the result store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Run every kept point; truncate any existing store.
    Fresh,
    /// Recover intact stored rows, execute only the rest, append.
    Resume,
    /// Recover stored rows and report; execute nothing.
    ReportOnly,
}

/// Executes a [`GridSpec`] on worker threads that share one list of
/// warm-start chains, with an optional durable result store. See the module
/// docs for the model.
#[derive(Debug, Clone)]
pub struct Explorer {
    spec: GridSpec,
    workers: usize,
    warm_start: bool,
    store_path: Option<PathBuf>,
}

impl Explorer {
    /// Creates an explorer over `spec` with the default worker count:
    /// `max(2, available_parallelism)`. The explorer is a throughput
    /// workload: per-point wall-times are informational (the deterministic
    /// cost axis is the step count), so it fans out even on a single-core
    /// host.
    pub fn new(spec: GridSpec) -> Self {
        let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).max(2);
        Explorer { spec, workers, warm_start: true, store_path: None }
    }

    /// Overrides the worker count (clamped to at least 1).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Enables/disables warm starts (enabled by default). With warm starts
    /// off every point cold-starts — the reference the determinism tests
    /// compare warm-started runs against.
    pub fn warm_start(mut self, enabled: bool) -> Self {
        self.warm_start = enabled;
        self
    }

    /// Attaches a durable result store at `path`: every finished point is
    /// appended as its own sealed frame, so a killed run loses at most the
    /// frame being written.
    pub fn store(mut self, path: impl Into<PathBuf>) -> Self {
        self.store_path = Some(path.into());
        self
    }

    /// The grid this explorer executes.
    pub fn spec(&self) -> &GridSpec {
        &self.spec
    }

    /// Runs the grid from scratch (truncating the result store, if any).
    ///
    /// # Errors
    ///
    /// Propagates spec validation and store I/O failures. Per-point
    /// simulation failures do **not** error the grid — they come back as
    /// attributed [`PointOutcome::Failed`] rows.
    pub fn run(&self) -> Result<ExploreReport, CoreError> {
        self.execute(Mode::Fresh)
    }

    /// Resumes a killed exploration: recovers every intact record from the
    /// result store (skipping corrupt regions), executes only the missing
    /// points — warm-starting them from recovered neighbours where the chain
    /// provides one — and appends the new rows.
    ///
    /// A store whose frames carry a different grid digest is rejected with
    /// [`CheckpointError::DigestMismatch`]; a missing store file degrades to
    /// a fresh run.
    ///
    /// # Errors
    ///
    /// Requires a store path ([`Explorer::store`]); propagates store I/O and
    /// digest-mismatch failures.
    pub fn resume(&self) -> Result<ExploreReport, CoreError> {
        if self.store_path.is_none() {
            return Err(CoreError::InvalidConfiguration(
                "resume requires a result store path".into(),
            ));
        }
        self.execute(Mode::Resume)
    }

    /// Recomputes the report (summaries, Pareto front, accounting) from the
    /// result store without executing anything. Points not in the store are
    /// counted as `skipped`.
    ///
    /// # Errors
    ///
    /// Requires a store path; propagates store I/O and digest-mismatch
    /// failures.
    pub fn report_only(&self) -> Result<ExploreReport, CoreError> {
        if self.store_path.is_none() {
            return Err(CoreError::InvalidConfiguration(
                "report-only requires a result store path".into(),
            ));
        }
        self.execute(Mode::ReportOnly)
    }

    fn execute(&self, mode: Mode) -> Result<ExploreReport, CoreError> {
        let digest = self.spec.digest();
        let plans = self.spec.plan()?;
        let offered = self.spec.offered();

        // Recover intact rows from the store (resume / report-only).
        let mut recovered: Vec<PointRecord> = Vec::new();
        let mut dropped_regions = 0usize;
        if mode != Mode::Fresh {
            if let Some(path) = self.store_path.as_ref() {
                if path.exists() {
                    let bytes = std::fs::read(path).map_err(|err| io_error("read", path, err))?;
                    let (records, dropped) = scan_store_bytes(&bytes, digest)?;
                    recovered = records;
                    dropped_regions = dropped;
                }
            }
        }
        let planned: HashSet<usize> = plans.iter().map(|plan| plan.index).collect();
        recovered.retain(|record| planned.contains(&record.index));
        let recovered_indices: HashSet<usize> =
            recovered.iter().map(|record| record.index).collect();

        // Chain the kept points along the innermost axis; recovered rows
        // become donor slots so a resumed chain successor still warm-starts.
        let chains = if mode == Mode::ReportOnly {
            Vec::new()
        } else {
            build_chains(&plans, &recovered, &recovered_indices, self.spec.chain_stride())
        };

        let mut store_file = match (&self.store_path, mode) {
            (Some(path), Mode::Fresh) => {
                Some(std::fs::File::create(path).map_err(|err| io_error("create", path, err))?)
            }
            (Some(path), Mode::Resume) => Some(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                    .map_err(|err| io_error("append", path, err))?,
            ),
            _ => None,
        };

        // Greedy list scheduling: every chain is known up front, so the
        // workers share one list and each pops the next chain until it is
        // empty. Popping from the back is deliberate: later chains in grid
        // order hold the heavy points (the default study's last chains, at
        // 0.9 m/s² and 5 stages, are its heaviest), so they start first and
        // light chains fill the tail. Completed records stream back over a
        // channel and are appended (and flushed) to the store one frame at
        // a time, so a kill at any instant loses at most the frame in
        // flight.
        let worker_count = self.workers.min(chains.len());
        let chains = Mutex::new(chains);
        let engaged = AtomicUsize::new(0);
        let warm_enabled = self.warm_start;
        let mut executed: Vec<PointRecord> = Vec::new();
        let (tx, rx) = mpsc::channel::<PointRecord>();
        std::thread::scope(|scope| -> Result<(), CoreError> {
            for _ in 0..worker_count {
                let tx = tx.clone();
                let (chains, engaged) = (&chains, &engaged);
                scope.spawn(move || worker_loop(chains, warm_enabled, tx, engaged));
            }
            drop(tx);
            for record in rx {
                if let Some(file) = store_file.as_mut() {
                    let path = self.store_path.as_ref().expect("store file implies path");
                    append_record(file, path, digest, &record)?;
                }
                executed.push(record);
            }
            Ok(())
        })?;

        let warm_hits = executed.iter().filter(|record| record.warm).count();
        let cold_starts = executed.len() - warm_hits;
        let resumed = recovered.len();
        let mut rows = recovered;
        rows.extend(executed);
        rows.sort_by_key(|record| record.index);
        let completed = rows.iter().filter(|record| record.metrics().is_some()).count();
        let failed = rows.len() - completed;

        Ok(ExploreReport {
            base_label: self.spec.base.effective_label(),
            axes: self
                .spec
                .axes
                .iter()
                .map(|(param, values)| (param.label().to_string(), values.clone()))
                .collect(),
            subsample: self.spec.subsample,
            seed: self.spec.seed,
            offered,
            completed,
            failed,
            skipped: offered - completed - failed,
            workers: self.workers,
            threads_used: engaged.load(Ordering::Relaxed),
            steals: 0,
            warm_hits,
            cold_starts,
            resumed,
            dropped_regions,
            pareto_front: pareto_front(&rows),
            summaries: summarise(&rows),
            rows,
        })
    }
}

/// A warm-start chain: the kept points of one innermost-axis run, in grid
/// order, interleaved with the final states of rows recovered from the store
/// (donors for their chain successors). Executed sequentially by one worker
/// so every point's donor is ready when the point runs — which is what makes
/// warm-started results independent of the worker count.
type Chain = Vec<Slot>;

enum Slot {
    Run(Box<PointPlan>),
    /// The recovered final state of an already-stored completed point —
    /// donor material only, nothing to execute. `None` for recovered
    /// failures (a failure contributes no donor, matching the fresh-run
    /// rule).
    Donor(Option<Vec<f64>>),
}

fn build_chains(
    plans: &[PointPlan],
    recovered: &[PointRecord],
    recovered_indices: &HashSet<usize>,
    stride: usize,
) -> Vec<Chain> {
    let donors: HashMap<usize, Option<Vec<f64>>> = recovered
        .iter()
        .map(|record| (record.index, record.metrics().map(|metrics| metrics.final_state.clone())))
        .collect();
    let mut groups: Vec<(usize, Vec<Slot>)> = Vec::new();
    for plan in plans {
        let group = plan.index / stride;
        if groups.last().map(|(g, _)| *g) != Some(group) {
            groups.push((group, Vec::new()));
        }
        let slots = &mut groups.last_mut().expect("just pushed").1;
        if recovered_indices.contains(&plan.index) {
            slots.push(Slot::Donor(donors.get(&plan.index).cloned().flatten()));
        } else {
            slots.push(Slot::Run(Box::new(plan.clone())));
        }
    }
    groups
        .into_iter()
        .map(|(_, slots)| slots)
        .filter(|slots| slots.iter().any(|slot| matches!(slot, Slot::Run(_))))
        .collect()
}

/// Pops chains off the shared list until it is empty; counts itself in
/// `engaged` if it got at least one.
fn worker_loop(
    chains: &Mutex<Vec<Chain>>,
    warm_enabled: bool,
    tx: mpsc::Sender<PointRecord>,
    engaged: &AtomicUsize,
) {
    let mut next = std::iter::from_fn(|| chains.lock().expect("chain list lock").pop()).peekable();
    if next.peek().is_some() {
        engaged.fetch_add(1, Ordering::Relaxed);
    }
    for chain in next {
        execute_chain(chain, warm_enabled, &tx);
    }
}

fn execute_chain(chain: Chain, warm_enabled: bool, tx: &mpsc::Sender<PointRecord>) {
    // The running donor: the final state of the nearest *completed*
    // predecessor in the chain (failures leave it untouched, so a failure's
    // successor warm-starts from the last good neighbour — deterministic,
    // because the chain order is fixed by the grid).
    let mut donor: Option<Vec<f64>> = None;
    for slot in chain {
        match slot {
            Slot::Donor(state) => {
                if state.is_some() {
                    donor = state;
                }
            }
            Slot::Run(plan) => {
                let adopt = if warm_enabled { donor.as_deref() } else { None };
                let record = run_point(&plan, adopt);
                if let PointOutcome::Completed(metrics) = &record.outcome {
                    donor = Some(metrics.final_state.clone());
                }
                if tx.send(record).is_err() {
                    return;
                }
            }
        }
    }
}

fn run_point(plan: &PointPlan, donor: Option<&[f64]>) -> PointRecord {
    let label = plan.config.effective_label();
    match run_point_inner(plan, donor) {
        Ok((warm, metrics)) => PointRecord {
            index: plan.index,
            label,
            values: plan.values.clone(),
            warm,
            recovered: false,
            outcome: PointOutcome::Completed(metrics),
        },
        Err(err) => {
            let attributed = err.for_scenario(label.clone());
            PointRecord {
                index: plan.index,
                label,
                values: plan.values.clone(),
                warm: false,
                recovered: false,
                outcome: PointOutcome::Failed(attributed.to_string()),
            }
        }
    }
}

fn run_point_inner(
    plan: &PointPlan,
    donor: Option<&[f64]>,
) -> Result<(bool, PointMetrics), CoreError> {
    plan.config.validate()?;
    let mut session = Simulation::from_config(plan.config.clone()).start()?;
    // Stored-energy baseline from the point's own cold initial state; warm
    // adoption pins the supercapacitor branches to the same pre-charge, so
    // this is the correct reference either way.
    let initial = session.harvester().initial_state(plan.config.initial_supercap_voltage)?;
    let initial_energy = session.harvester().stored_energy(&initial);
    let warm = match donor {
        Some(state) => session.adopt_initial_state(state)?,
        None => false,
    };
    let vc = session.harvester().storage_voltage_net();
    let vm = session.harvester().generator_voltage_net();
    let im = session.harvester().generator_current_net();
    let envelope = session.add_probe(EnvelopeProbe::terminal(vc));
    let power = session.add_probe(PowerProbe::new(
        vm,
        im,
        plan.config.frequency_step_time_s,
        plan.config.duration_s,
    ));
    session.run_to_end()?;
    let report = session.report();
    let env = session.probe::<EnvelopeProbe>(envelope).expect("envelope keeps its type");
    let rms_after_uw = session
        .probe::<PowerProbe>(power)
        .expect("power probe keeps its type")
        .report()
        .rms_after_uw;
    let steps = report.engine_stats.state_space.steps.max(report.engine_stats.baseline.steps);
    let energy_gain_j = session.harvester().stored_energy(&report.final_state) - initial_energy;
    Ok((
        warm,
        PointMetrics {
            energy_gain_j,
            dip_v: (env.first() - env.min()).max(0.0),
            wall_s: report.engine_time().as_secs_f64(),
            steps,
            v_first: env.first(),
            v_last: env.last(),
            rms_after_uw,
            final_state: report.final_state.as_slice().to_vec(),
        },
    ))
}

/// The exact Pareto front over completed rows: maximise `energy_gain_j`,
/// minimise `dip_v`, minimise `steps`. O(n²) pairwise dominance scan — exact
/// by construction, and n is a grid size, not a waveform length. Returns the
/// non-dominated rows' point indices, ascending.
fn pareto_front(rows: &[PointRecord]) -> Vec<usize> {
    let completed: Vec<(&PointRecord, &PointMetrics)> =
        rows.iter().filter_map(|row| row.metrics().map(|metrics| (row, metrics))).collect();
    let dominates = |a: &PointMetrics, b: &PointMetrics| {
        let no_worse =
            a.energy_gain_j >= b.energy_gain_j && a.dip_v <= b.dip_v && a.steps <= b.steps;
        let better = a.energy_gain_j > b.energy_gain_j || a.dip_v < b.dip_v || a.steps < b.steps;
        no_worse && better
    };
    let mut front: Vec<usize> = completed
        .iter()
        .filter(|(_, mine)| !completed.iter().any(|(_, other)| dominates(other, mine)))
        .map(|(row, _)| row.index)
        .collect();
    front.sort_unstable();
    front
}

type ObjectiveFn = fn(&PointMetrics) -> f64;

fn summarise(rows: &[PointRecord]) -> Vec<ObjectiveSummary> {
    let metrics: Vec<&PointMetrics> = rows.iter().filter_map(PointRecord::metrics).collect();
    let objectives: [(&'static str, ObjectiveFn); 4] = [
        ("energy_gain_j", |m| m.energy_gain_j),
        ("dip_v", |m| m.dip_v),
        ("wall_s", |m| m.wall_s),
        ("steps", |m| m.steps as f64),
    ];
    objectives
        .iter()
        .map(|(name, extract)| {
            let values: Vec<f64> = metrics.iter().map(|m| extract(m)).collect();
            let (mut min, mut max, mut sum) = (f64::INFINITY, f64::NEG_INFINITY, 0.0);
            for &value in &values {
                min = min.min(value);
                max = max.max(value);
                sum += value;
            }
            let mean = if values.is_empty() { 0.0 } else { sum / values.len() as f64 };
            let (min, max) = if values.is_empty() { (0.0, 0.0) } else { (min, max) };
            ObjectiveSummary { objective: name, min, max, mean }
        })
        .collect()
}

// --- Result store: append-only HVCK frames, one per point -----------------

fn io_error(op: &'static str, path: &Path, err: std::io::Error) -> CoreError {
    CoreError::Store(StoreError::Io {
        op,
        path: path.display().to_string(),
        detail: err.to_string(),
    })
}

/// Encodes one record as a kind-3 frame payload (see DESIGN.md §12 for the
/// field table).
fn encode_record(record: &PointRecord) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_usize(record.index);
    w.put_bytes(record.label.as_bytes());
    w.put_f64_slice(&record.values);
    w.put_bool(record.warm);
    match &record.outcome {
        PointOutcome::Completed(metrics) => {
            w.put_u8(0);
            w.put_f64(metrics.energy_gain_j);
            w.put_f64(metrics.dip_v);
            w.put_f64(metrics.wall_s);
            w.put_f64(metrics.v_first);
            w.put_f64(metrics.v_last);
            w.put_f64(metrics.rms_after_uw);
            w.put_usize(metrics.steps);
            w.put_f64_slice(&metrics.final_state);
        }
        PointOutcome::Failed(message) => {
            w.put_u8(1);
            w.put_bytes(message.as_bytes());
        }
    }
    w.into_bytes()
}

fn decode_record(payload: &[u8]) -> Result<PointRecord, CheckpointError> {
    let mut r = ByteReader::new(payload);
    let index = r.take_usize()?;
    let label = String::from_utf8(r.take_bytes()?.to_vec())
        .map_err(|_| CheckpointError::Malformed("record label is not UTF-8".into()))?;
    let values = r.take_f64_vec()?;
    let warm = r.take_bool()?;
    let outcome = match r.take_u8()? {
        0 => {
            let energy_gain_j = r.take_f64()?;
            let dip_v = r.take_f64()?;
            let wall_s = r.take_f64()?;
            let v_first = r.take_f64()?;
            let v_last = r.take_f64()?;
            let rms_after_uw = r.take_f64()?;
            let steps = r.take_usize()?;
            let final_state = r.take_f64_vec()?;
            PointOutcome::Completed(PointMetrics {
                energy_gain_j,
                dip_v,
                wall_s,
                steps,
                v_first,
                v_last,
                rms_after_uw,
                final_state,
            })
        }
        1 => {
            let message = String::from_utf8(r.take_bytes()?.to_vec())
                .map_err(|_| CheckpointError::Malformed("record error is not UTF-8".into()))?;
            PointOutcome::Failed(message)
        }
        other => {
            return Err(CheckpointError::Malformed(format!("invalid record status byte {other}")))
        }
    };
    r.expect_end()?;
    Ok(PointRecord { index, label, values, warm, recovered: true, outcome })
}

fn append_record(
    file: &mut std::fs::File,
    path: &Path,
    digest: u64,
    record: &PointRecord,
) -> Result<(), CoreError> {
    let frame = seal_frame_with_kind(KIND_EXPLORE_RECORD, digest, &encode_record(record));
    file.write_all(&frame).map_err(|err| io_error("write", path, err))?;
    file.flush().map_err(|err| io_error("flush", path, err))
}

/// Scans a result-store byte string: yields every intact record (first
/// occurrence wins per point index) and the number of corrupt regions
/// skipped. Recovery is resynchronising: after a bad stretch the scanner
/// searches for the next `HVCK` magic and accepts a frame only if it
/// verifies end to end (length in bounds, checksum over every byte), so a
/// flipped or truncated region loses exactly the records it damaged — a
/// corrupt row is never resurrected.
///
/// # Errors
///
/// A frame that *verifies* but carries a different grid digest fails with
/// [`CheckpointError::DigestMismatch`]: the store belongs to another grid
/// and silently mixing points would be worse than refusing.
fn scan_store_bytes(
    bytes: &[u8],
    expected_digest: u64,
) -> Result<(Vec<PointRecord>, usize), CoreError> {
    let mut at = 0usize;
    let mut records: Vec<PointRecord> = Vec::new();
    let mut seen: HashSet<usize> = HashSet::new();
    let mut dropped = 0usize;
    let mut in_bad_region = false;
    while at < bytes.len() {
        let Some(start) = find_magic(bytes, at) else {
            in_bad_region = true;
            break;
        };
        if start > at {
            in_bad_region = true;
        }
        match try_frame(&bytes[start..], expected_digest)? {
            Some((record, frame_len)) => {
                if in_bad_region {
                    dropped += 1;
                    in_bad_region = false;
                }
                if seen.insert(record.index) {
                    records.push(record);
                }
                at = start + frame_len;
            }
            None => {
                in_bad_region = true;
                at = start + 1;
            }
        }
    }
    if in_bad_region {
        dropped += 1;
    }
    records.sort_by_key(|record| record.index);
    Ok((records, dropped))
}

fn find_magic(bytes: &[u8], from: usize) -> Option<usize> {
    bytes
        .get(from..)?
        .windows(CHECKPOINT_MAGIC.len())
        .position(|window| window == CHECKPOINT_MAGIC)
        .map(|pos| from + pos)
}

/// Attempts to read one verified frame at the start of `bytes`. `Ok(None)`
/// means "not a valid frame here" (corruption — resync); `Err` means a frame
/// verified end to end but belongs to a different grid.
fn try_frame(
    bytes: &[u8],
    expected_digest: u64,
) -> Result<Option<(PointRecord, usize)>, CoreError> {
    if bytes.len() < HEADER_LEN + CHECKSUM_LEN {
        return Ok(None);
    }
    let payload_len = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
    let Ok(payload_len) = usize::try_from(payload_len) else { return Ok(None) };
    let Some(total) =
        HEADER_LEN.checked_add(payload_len).and_then(|sum| sum.checked_add(CHECKSUM_LEN))
    else {
        return Ok(None);
    };
    if bytes.len() < total {
        return Ok(None);
    }
    let frame = &bytes[..total];
    let Ok((digest, payload)) = open_frame_with_kind(KIND_EXPLORE_RECORD, frame) else {
        return Ok(None);
    };
    if digest != expected_digest {
        // The checksum passed, so this is a *healthy* frame from a different
        // grid — a hard error, never silent mixing.
        return Err(CoreError::Checkpoint(CheckpointError::DigestMismatch {
            expected: expected_digest,
            found: digest,
        }));
    }
    match decode_record(payload) {
        Ok(record) => Ok(Some((record, total))),
        // A checksum-valid frame that fails decoding is treated as corrupt
        // (dropped, resync) rather than fatal — defence in depth.
        Err(_) => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_base() -> ScenarioConfig {
        let mut base = ScenarioConfig::scenario1();
        base.duration_s = 0.06;
        base.frequency_step_time_s = 0.02;
        base
    }

    fn quick_spec() -> GridSpec {
        GridSpec::new(quick_base())
            .axis(SweepParameter::AccelerationAmplitude, &[0.5, 0.7])
            .axis(SweepParameter::InitialSupercapVoltage, &[2.3, 2.5, 2.7])
    }

    #[test]
    fn grid_spec_counts_subsamples_and_refines() {
        let spec = quick_spec();
        assert_eq!(spec.offered(), 6);
        assert_eq!(spec.chain_stride(), 3);
        assert_eq!(spec.plan().unwrap().len(), 6);

        // Subsampling keeps a deterministic strict subset.
        let sub = quick_spec().subsample(0.5, 7);
        let kept = sub.plan().unwrap();
        assert!(kept.len() < 6);
        let again = quick_spec().subsample(0.5, 7).plan().unwrap();
        assert_eq!(kept.len(), again.len());
        for (a, b) in kept.iter().zip(&again) {
            assert_eq!(a.index, b.index);
        }
        // A different seed picks a (generally) different subset; still
        // deterministic.
        assert!(quick_spec().subsample(1.0, 0).plan().unwrap().len() == 6);
        assert!(quick_spec().subsample(1.5, 0).plan().is_err());
        assert!(quick_spec().subsample(0.0, 0).plan().is_err());

        // Refinement doubles an axis minus one and errors on unknown axes.
        let refined = quick_spec().refine(SweepParameter::InitialSupercapVoltage).unwrap();
        assert_eq!(refined.axes()[1].1, vec![2.3, 2.4, 2.5, 2.6, 2.7]);
        assert!(quick_spec().refine(SweepParameter::PwlSegments).is_err());

        // The digest tracks the spec identity.
        assert_eq!(quick_spec().digest(), quick_spec().digest());
        assert_ne!(quick_spec().digest(), quick_spec().subsample(0.5, 7).digest());
        assert_ne!(quick_spec().digest(), refined.digest());

        // Point plans carry their axis values in axis order.
        let plans = spec.plan().unwrap();
        assert_eq!(plans[4].index, 4);
        assert_eq!(plans[4].values, vec![0.7, 2.5]);
        assert!(plans[4].config.label.as_deref().unwrap().contains("acc=7e-1"));
    }

    #[test]
    fn record_roundtrip_and_store_scan() {
        let completed = PointRecord {
            index: 3,
            label: "scenario1+acc=7e-1+v0=2.5e0".into(),
            values: vec![0.7, 2.5],
            warm: true,
            recovered: false,
            outcome: PointOutcome::Completed(PointMetrics {
                energy_gain_j: 1.25e-4,
                dip_v: 0.002,
                wall_s: 0.01,
                steps: 1234,
                v_first: 2.5,
                v_last: 2.51,
                rms_after_uw: 117.0,
                final_state: vec![0.0, 1.0, -2.0],
            }),
        };
        let failed = PointRecord {
            index: 4,
            label: "scenario1+stages=0e0".into(),
            values: vec![0.0],
            warm: false,
            recovered: false,
            outcome: PointOutcome::Failed("scenario `scenario1+stages=0e0`: boom".into()),
        };
        let digest = 0xfeed_beef_u64;
        let mut file = Vec::new();
        for record in [&completed, &failed] {
            file.extend_from_slice(&seal_frame_with_kind(
                KIND_EXPLORE_RECORD,
                digest,
                &encode_record(record),
            ));
        }
        let (records, dropped) = scan_store_bytes(&file, digest).unwrap();
        assert_eq!(dropped, 0);
        assert_eq!(records.len(), 2);
        assert!(records[0].recovered && records[1].recovered);
        assert_eq!(records[0].outcome, completed.outcome);
        assert_eq!(records[0].label, completed.label);
        assert!(records[0].warm);
        assert_eq!(records[1].outcome, failed.outcome);

        // A flipped byte in the first frame drops exactly that record; the
        // scanner resynchronises on the second.
        let mut corrupt = file.clone();
        corrupt[40] ^= 0x01;
        let (survivors, dropped) = scan_store_bytes(&corrupt, digest).unwrap();
        assert_eq!(survivors.len(), 1);
        assert_eq!(survivors[0].index, 4);
        assert!(dropped >= 1);

        // Truncation mid-frame keeps the records before the cut.
        let cut = file.len() - 7;
        let (survivors, dropped) = scan_store_bytes(&file[..cut], digest).unwrap();
        assert_eq!(survivors.len(), 1);
        assert_eq!(survivors[0].index, 3);
        assert_eq!(dropped, 1);

        // A healthy frame from a different grid is a hard mismatch.
        assert!(matches!(
            scan_store_bytes(&file, digest ^ 1),
            Err(CoreError::Checkpoint(CheckpointError::DigestMismatch { .. }))
        ));
    }

    #[test]
    fn explorer_runs_a_small_grid_in_memory() {
        let report = Explorer::new(quick_spec()).workers(2).run().unwrap();
        assert_eq!(report.offered, 6);
        assert_eq!(report.completed, 6);
        assert_eq!(report.failed, 0);
        assert_eq!(report.skipped, 0);
        assert_eq!(report.rows.len(), 6);
        // Two chains of three points: one cold head each, the rest warm.
        assert_eq!(report.cold_starts, 2);
        assert_eq!(report.warm_hits, 4);
        assert!(report.threads_used >= 1);
        assert!(!report.pareto_front.is_empty());
        // Front members must be completed row indices.
        for index in &report.pareto_front {
            assert!(report.rows.iter().any(|row| row.index == *index && row.metrics().is_some()));
        }
        assert_eq!(report.summaries.len(), 4);
        // Rows arrive sorted by grid index whatever the completion order.
        for pair in report.rows.windows(2) {
            assert!(pair[0].index < pair[1].index);
        }

        // More workers than chains: at most one worker per chain engages,
        // and every deterministic field matches the 2-worker run.
        let wide = Explorer::new(quick_spec()).workers(5).run().unwrap();
        assert!(wide.threads_used <= 2);
        assert_eq!((report.steals, wide.steals), (0, 0));
        assert_eq!((wide.cold_starts, wide.warm_hits), (2, 4));
        assert_eq!(wide.rows.len(), report.rows.len());
        let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (a, b) in report.rows.iter().zip(&wide.rows) {
            assert_eq!(a.index, b.index);
            let (ma, mb) = (a.metrics().unwrap(), b.metrics().unwrap());
            assert_eq!(ma.steps, mb.steps);
            assert_eq!(ma.energy_gain_j.to_bits(), mb.energy_gain_j.to_bits());
            assert_eq!(ma.dip_v.to_bits(), mb.dip_v.to_bits());
            assert_eq!(bits(&ma.final_state), bits(&mb.final_state));
        }
    }

    #[test]
    fn failed_points_become_attributed_rows() {
        // Stage count 0 fails validation per point; the grid keeps going.
        let spec = GridSpec::new(quick_base())
            .axis(SweepParameter::MultiplierStages, &[0.0, 5.0])
            .axis(SweepParameter::InitialSupercapVoltage, &[2.4, 2.6]);
        let report = Explorer::new(spec).workers(2).run().unwrap();
        assert_eq!(report.offered, 4);
        assert_eq!(report.failed, 2);
        assert_eq!(report.completed, 2);
        let failure = report.rows.iter().find(|row| row.error().is_some()).unwrap();
        assert!(failure.error().unwrap().contains("stages=0e0"), "{:?}", failure.error());
        // Failures never enter the front.
        for index in &report.pareto_front {
            let row = report.rows.iter().find(|row| row.index == *index).unwrap();
            assert!(row.metrics().is_some());
        }
    }

    #[test]
    fn pareto_front_is_exact_on_a_known_set() {
        let mk = |index: usize, energy: f64, dip: f64, steps: usize| PointRecord {
            index,
            label: format!("p{index}"),
            values: Vec::new(),
            warm: false,
            recovered: false,
            outcome: PointOutcome::Completed(PointMetrics {
                energy_gain_j: energy,
                dip_v: dip,
                wall_s: 0.0,
                steps,
                v_first: 0.0,
                v_last: 0.0,
                rms_after_uw: 0.0,
                final_state: Vec::new(),
            }),
        };
        // p0 dominated by p1; p1, p2, p3 mutually non-dominated.
        let rows = vec![
            mk(0, 1.0, 0.5, 100),
            mk(1, 2.0, 0.5, 100),
            mk(2, 1.5, 0.1, 200),
            mk(3, 2.5, 0.9, 50),
        ];
        assert_eq!(pareto_front(&rows), vec![1, 2, 3]);
        // Identical points do not knock each other out.
        let twins = vec![mk(0, 1.0, 1.0, 10), mk(1, 1.0, 1.0, 10)];
        assert_eq!(pareto_front(&twins), vec![0, 1]);
        assert!(pareto_front(&[]).is_empty());
    }
}
