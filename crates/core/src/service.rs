//! The batch front of the session executor: [`SessionService`] schedules a
//! batch of resumable [`Session`](crate::session::Session)s to completion on
//! the crate's one slice pool — the same pool the front-door
//! [`crate::server::Server`] runs — and reports every job's outcome together
//! with the pool's ledgers.
//!
//! # Scheduling model
//!
//! Jobs are submitted as [`Simulation`] builders (a validated
//! [`crate::ScenarioConfig`] each) and admitted in submission order. A run
//! starts `min(workers, admitted)` scoped worker threads; each repeatedly
//! pops the next runnable job, advances it by one *time slice* of simulated
//! seconds ([`ServiceOptions::slice_s`]) via
//! [`Session::run_until_deadline`](crate::session::Session::run_until_deadline),
//! and requeues it, until every admitted job resolves. The queue is a set of
//! **scheduling classes** ([`JobClass`]: `interactive` > `batch` >
//! `best-effort`) popped in strict priority order, with
//! **earliest-deadline-first** ordering inside each class
//! ([`JobRequest::deadline_s`]; deadline-less jobs order FIFO behind every
//! deadline, so a single-class deadline-less batch — the
//! [`SessionService::run`] path — is a plain round-robin FIFO lane).
//! Cross-class starvation is bounded by **aging**: a class whose head job has
//! been passed over [`ServiceOptions::aging_passes`] times is promoted for one
//! pop.
//!
//! # Admission control
//!
//! A deadline must be non-negative and finite, else the job resolves with a
//! typed [`CoreError::InvalidConfiguration`]. [`ServiceOptions::class_capacity`]
//! bounds each class's admitted-and-unresolved jobs: jobs offered beyond it
//! are **shed at admission** with a typed [`ServiceError::Overloaded`] — zero
//! slices, zero billing — and counted per class, so `admitted + shed =
//! offered` holds exactly in [`ServiceReport::classes`]. The whole batch is
//! admitted before the first slice runs, so shedding depends only on the
//! submission order.
//!
//! Preemption happens only at accepted step boundaries (the slice target or
//! the watchdog deadline), never truncating an integration step, so a
//! scheduled run takes **exactly** the steps a sequential run takes —
//! results are bit-identical regardless of worker count, slice length,
//! eviction pattern or watchdog preemption.
//!
//! # Eviction under a memory budget
//!
//! Every preempted session is checkpointed ([`Session::checkpoint`](crate::session::Session::checkpoint)); the
//! frame length is the job's resident-footprint estimate. If keeping the live
//! session would push the sum of resident footprints past
//! [`ServiceOptions::resident_budget_bytes`], only the checkpoint bytes are
//! parked (*eviction*) and the next slice restores them. Checkpoint
//! round-trips are bit-identical, so eviction only trades memory for restore
//! time.
//!
//! # Billing
//!
//! Each slice bills the job the growth of its engine wall-clock
//! ([`SessionReport::engine_time`]). The counters ride inside the session and
//! its checkpoints, so the per-slice deltas telescope: a finished job's bill
//! equals its final report's engine time exactly, and the service total is
//! the sum of the job bills (pinned by `tests/service_stress.rs`). A job
//! re-admitted from the store books its frame-carried engine time on its
//! first slice, so this holds across restarts too.
//!
//! # Supervision & durability
//!
//! Every slice runs under `catch_unwind`. A panicking session is
//! **quarantined**: its outcome is a typed [`ServiceError::SessionPanicked`]
//! carrying the panic payload, its last good checkpoint is retained
//! ([`JobOutcome::last_checkpoint`], plus the store entry when one exists),
//! and the other jobs are unaffected. [`ServiceOptions::slice_timeout`] arms a
//! cooperative watchdog that preempts a runaway session at its next accepted
//! step boundary.
//!
//! With [`SessionService::run_with_store`], every preemption checkpoint is
//! also persisted to a crash-safe [`SessionStore`]; jobs whose ids have a
//! recovered frame resume from their last sealed slice instead of starting
//! over. Store failures degrade: after the store's bounded retries the slice
//! continues on its resident frame and [`JobOutcome::degraded_writes`] ticks.
//! An injected [`crate::fault::Fault::KillService`] "crashes" the run
//! mid-batch: workers stop dead, in-flight slices are lost, and unresolved
//! jobs report [`ServiceError::Interrupted`]; a following `run_with_store`
//! over the same store picks the batch back up.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

use crate::fault::FaultPlan;
#[cfg(test)]
use crate::fault::FaultSite;
use crate::pool::{Job, Parked, Pool, PoolOptions, Refusal};
use crate::session::{SessionReport, Simulation};
use crate::store::SessionStore;
use crate::CoreError;

/// A job's scheduling class. Classes are popped in strict priority order —
/// `Interactive` before `Batch` before `BestEffort` — with
/// [`ServiceOptions::aging_passes`] bounding how long a lower class can be
/// passed over (starvation-proof aging). Within a class, jobs order
/// earliest-deadline-first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobClass {
    /// Latency-sensitive work (probe reads, short interactive sessions):
    /// always scheduled first.
    Interactive,
    /// The default class for ordinary simulation jobs.
    Batch,
    /// Scavenger work that runs when nothing better is queued (subject to
    /// the aging bound).
    BestEffort,
}

impl JobClass {
    /// Number of distinct classes (array-index domain for the ledgers).
    pub const COUNT: usize = 3;

    /// Every class, in priority order.
    pub const ALL: [JobClass; JobClass::COUNT] =
        [JobClass::Interactive, JobClass::Batch, JobClass::BestEffort];

    /// Stable index in priority order (0 = highest priority).
    pub fn index(self) -> usize {
        match self {
            JobClass::Interactive => 0,
            JobClass::Batch => 1,
            JobClass::BestEffort => 2,
        }
    }

    /// The wire-protocol spelling of the class.
    pub fn as_str(self) -> &'static str {
        match self {
            JobClass::Interactive => "interactive",
            JobClass::Batch => "batch",
            JobClass::BestEffort => "best-effort",
        }
    }

    /// Parses the wire spelling ([`JobClass::as_str`]).
    pub fn parse(s: &str) -> Option<JobClass> {
        match s {
            "interactive" => Some(JobClass::Interactive),
            "batch" => Some(JobClass::Batch),
            "best-effort" => Some(JobClass::BestEffort),
            _ => None,
        }
    }
}

impl std::fmt::Display for JobClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One job offered to [`SessionService::run_jobs`]: the simulation plus its
/// scheduling class and optional deadline.
#[derive(Debug)]
pub struct JobRequest {
    /// The simulation to schedule.
    pub simulation: Simulation,
    /// Scheduling class (default [`JobClass::Batch`]).
    pub class: JobClass,
    /// Earliest-deadline-first key within the class, in seconds (any
    /// non-negative finite scale the caller likes — only the ordering
    /// matters). `None` orders FIFO behind every deadline-carrying job of
    /// the same class.
    pub deadline_s: Option<f64>,
}

impl JobRequest {
    /// A batch-class, deadline-less request (the [`SessionService::run`]
    /// default).
    pub fn new(simulation: Simulation) -> Self {
        JobRequest { simulation, class: JobClass::Batch, deadline_s: None }
    }

    /// Sets the scheduling class.
    pub fn class(mut self, class: JobClass) -> Self {
        self.class = class;
        self
    }

    /// Sets the EDF deadline key (seconds; non-negative and finite).
    pub fn deadline_s(mut self, deadline_s: f64) -> Self {
        self.deadline_s = Some(deadline_s);
        self
    }
}

/// Tuning knobs for a [`SessionService`].
#[derive(Debug, Clone)]
pub struct ServiceOptions {
    /// Worker thread count; `None` uses the machine's available parallelism
    /// (thread-per-core). The count is additionally capped by the job count.
    pub workers: Option<usize>,
    /// Simulated seconds each job advances per scheduling slice. Preemption
    /// happens at the first accepted-step boundary at or past the slice
    /// target, so smaller slices mean fairer interleaving and more
    /// checkpoint traffic.
    pub slice_s: f64,
    /// Budget for the summed resident footprint (checkpoint-frame bytes) of
    /// live parked sessions. When keeping a preempted session alive would
    /// exceed it, the session is evicted to its checkpoint bytes instead.
    /// `None` never evicts.
    pub resident_budget_bytes: Option<usize>,
    /// Cooperative per-slice wall-clock watchdog: a slice that overruns this
    /// budget is preempted at its next accepted step boundary (at least one
    /// step always completes, so a preempted job still makes progress).
    /// Preemption at step boundaries preserves bit-identical results.
    /// `None` disarms the watchdog.
    pub slice_timeout: Option<Duration>,
    /// Deterministic fault-injection schedule consulted at slice boundaries
    /// and checkpoint encode/decode (store I/O sites are armed on the store
    /// itself via [`SessionStore::set_fault_plan`]). `None` injects nothing.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Bounded per-class accept queue: jobs offered beyond this many
    /// admitted-and-unfinished jobs in their class are shed at admission
    /// with a typed [`ServiceError::Overloaded`]. `None` admits everything.
    pub class_capacity: Option<usize>,
    /// Starvation bound for the class scheduler: a non-empty class passed
    /// over this many consecutive pops is promoted for one pop. `0` means
    /// strict priority (lower classes may starve under sustained load).
    pub aging_passes: u64,
}

impl Default for ServiceOptions {
    fn default() -> Self {
        ServiceOptions {
            workers: None,
            slice_s: 0.05,
            resident_budget_bytes: None,
            slice_timeout: None,
            fault_plan: None,
            class_capacity: None,
            aging_passes: 8,
        }
    }
}

impl ServiceOptions {
    fn pool(&self) -> PoolOptions {
        PoolOptions {
            workers: self.workers,
            slice_s: self.slice_s,
            slice_timeout: self.slice_timeout,
            resident_budget_bytes: self.resident_budget_bytes,
            class_capacity: self.class_capacity,
            aging_passes: self.aging_passes,
            fault_plan: self.fault_plan.clone(),
        }
    }
}

/// How a scheduled job failed. Separates engine/model errors (which travel
/// as [`CoreError`]) from the supervision outcomes only a scheduler can
/// produce: quarantined panics and interrupted (service-killed) jobs.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServiceError {
    /// The session itself failed with an engine/model error (labelled via
    /// [`CoreError::for_scenario`] when the job carries a label).
    Session(CoreError),
    /// A panic escaped the session during one of its slices. The job is
    /// quarantined: its last good checkpoint is retained
    /// ([`JobOutcome::last_checkpoint`] and the store entry, when one
    /// exists), and no further slices are scheduled. `payload` is the
    /// stringified panic payload.
    SessionPanicked {
        /// The job's session id.
        id: String,
        /// Stringified panic payload.
        payload: String,
    },
    /// The service was killed (a crash, simulated by
    /// [`crate::fault::Fault::KillService`]) before this job resolved. With
    /// a [`SessionStore`], a later [`SessionService::run_with_store`]
    /// resumes the job from its last persisted checkpoint.
    Interrupted,
    /// The job was shed at admission: its class's accept queue was already
    /// at capacity ([`ServiceOptions::class_capacity`]). The job consumed
    /// zero slices and zero billing — resubmit it when load drops.
    Overloaded {
        /// The class whose queue was full.
        class: JobClass,
        /// Queue depth observed at the admission attempt.
        depth: usize,
        /// The configured per-class capacity.
        capacity: usize,
    },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Session(err) => write!(f, "{err}"),
            ServiceError::SessionPanicked { id, payload } => {
                write!(f, "session `{id}` panicked and was quarantined: {payload}")
            }
            ServiceError::Interrupted => {
                write!(f, "service was interrupted before the job resolved")
            }
            ServiceError::Overloaded { class, depth, capacity } => {
                write!(
                    f,
                    "service overloaded: class `{class}` queue at depth {depth} of capacity \
                     {capacity}; job shed at admission"
                )
            }
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Session(err) => Some(err),
            _ => None,
        }
    }
}

impl From<CoreError> for ServiceError {
    fn from(err: CoreError) -> Self {
        ServiceError::Session(err)
    }
}

/// Outcome of one scheduled job, in submission order within
/// [`ServiceReport::outcomes`].
#[derive(Debug)]
pub struct JobOutcome {
    /// The job's scenario label, if the configuration carried one.
    pub label: Option<String>,
    /// The job's session id: the label, or `job-<index>` when unlabelled.
    /// Keys the job's entry in a [`SessionStore`].
    pub id: String,
    /// The job's scheduling class.
    pub class: JobClass,
    /// The finished session's report, or the typed reason it did not finish.
    pub result: Result<SessionReport, ServiceError>,
    /// Engine wall-clock billed to this job, accumulated slice by slice.
    /// Equals the final report's [`SessionReport::engine_time`] for
    /// successful jobs (billing conservation) — including jobs re-admitted
    /// from a store, whose first slice books the frame-carried time.
    pub billed_engine_time: Duration,
    /// Scheduling slices the job received.
    pub slices: usize,
    /// Wall-clock time the job spent parked in the run queue, summed across
    /// its waits (push-to-pop). The per-class sums in
    /// [`ServiceReport::classes`] balance against these exactly.
    pub queue_latency: Duration,
    /// Global pop ordinal of the job's first slice (0-based), `None` if it
    /// was never scheduled. The aging test pins the starvation bound with
    /// this.
    pub first_scheduled_ordinal: Option<u64>,
    /// Times the job was evicted to checkpoint bytes under the memory budget.
    pub evictions: usize,
    /// Times the job was restored from checkpoint bytes (once per eviction,
    /// plus once if the job was re-admitted from the store).
    pub restores: usize,
    /// Whether the job was re-admitted from a [`SessionStore`] frame rather
    /// than started fresh.
    pub recovered: bool,
    /// Store persists that failed after retries and fell back to resident
    /// frozen bytes (graceful degradation; the job itself is unaffected).
    pub degraded_writes: usize,
    /// For jobs that did not finish cleanly (quarantined, failed, or
    /// interrupted): the last good checkpoint frame taken before the
    /// failure, restorable via [`crate::session::Session::restore`]. `None` for successful
    /// jobs and for jobs that never completed a slice.
    pub last_checkpoint: Option<Vec<u8>>,
}

/// Per-class accounting ledger. The admission identity
/// `admitted + shed == offered` and the balances
/// `billed == Σ outcome.billed_engine_time` /
/// `queue_latency == Σ outcome.queue_latency` over the class's outcomes hold
/// exactly (pinned by the class-scheduling suite).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassReport {
    /// Jobs offered to this class (admitted + shed).
    pub offered: usize,
    /// Jobs admitted into the class queue.
    pub admitted: usize,
    /// Jobs shed at admission with [`ServiceError::Overloaded`].
    pub shed: usize,
    /// Admitted jobs that finished with a report.
    pub finished: usize,
    /// Engine time billed to this class's jobs.
    pub billed: Duration,
    /// Wall-clock queue latency accumulated by this class's jobs.
    pub queue_latency: Duration,
}

/// Aggregate result of a [`SessionService::run`] /
/// [`SessionService::run_with_store`] call.
#[derive(Debug)]
pub struct ServiceReport {
    /// Per-job outcomes, in submission order.
    pub outcomes: Vec<JobOutcome>,
    /// Per-class ledgers, indexed by [`JobClass::index`].
    pub classes: [ClassReport; JobClass::COUNT],
    /// Jobs shed at admission across all classes (load control, not
    /// failure): `admitted + shed == offered` per class.
    pub shed: usize,
    /// Sum of the per-job billed engine times.
    pub total_billed: Duration,
    /// Total evictions across all jobs.
    pub evictions: usize,
    /// High-water sum of resident (live parked) session footprints, in
    /// checkpoint-frame bytes.
    pub peak_resident_bytes: usize,
    /// Worker threads the run actually used.
    pub workers: usize,
    /// Whether the run was cut short by a (fault-injected) service kill;
    /// unresolved jobs report [`ServiceError::Interrupted`].
    pub interrupted: bool,
    /// Jobs quarantined after a panic escaped one of their slices.
    pub quarantined: usize,
    /// Jobs re-admitted from the session store instead of starting fresh.
    pub recovered_jobs: usize,
    /// Store frames that existed at admission but failed to load (typed
    /// store error); those jobs restarted fresh.
    pub recovery_discarded: usize,
    /// Total store persists that fell back to resident bytes after retries.
    pub degraded_writes: usize,
}

/// The batch scheduler. Construction validates the options; one
/// [`SessionService::run`] call schedules one batch of jobs to completion.
///
/// ```
/// use harvsim_core::service::{ServiceOptions, SessionService};
/// use harvsim_core::session::Simulation;
///
/// # fn main() -> Result<(), harvsim_core::CoreError> {
/// let service = SessionService::new(ServiceOptions {
///     slice_s: 0.02,
///     resident_budget_bytes: Some(64 * 1024),
///     ..ServiceOptions::default()
/// })?;
/// let jobs: Vec<Simulation> = (0..4)
///     .map(|k| {
///         Simulation::scenario1()
///             .duration(0.05)
///             .frequency_step_at(0.02)
///             .label(format!("job{k}"))
///     })
///     .collect();
/// let report = service.run(jobs);
/// assert_eq!(report.outcomes.len(), 4);
/// for outcome in &report.outcomes {
///     let session_report = outcome.result.as_ref().expect("job finished");
///     assert!(session_report.finished);
///     // Billing conservation: slice deltas telescope to the final total.
///     assert_eq!(outcome.billed_engine_time, session_report.engine_time());
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SessionService {
    options: ServiceOptions,
}

impl SessionService {
    /// Creates a service with the given options.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfiguration`] for a non-positive slice, a zero
    /// worker count or a zero class capacity.
    pub fn new(options: ServiceOptions) -> Result<Self, CoreError> {
        options.pool().validate()?;
        Ok(SessionService { options })
    }

    /// Schedules `jobs` to completion across the worker pool and reports
    /// per-job outcomes plus the scheduler's own accounting. Job failures —
    /// including escaped panics, which are quarantined — are per-job
    /// ([`JobOutcome::result`]), never a panic or abort of the run. All jobs
    /// run as deadline-less [`JobClass::Batch`] (the single-class FIFO lane);
    /// use [`SessionService::run_jobs`] for classes and deadlines.
    pub fn run(&self, jobs: Vec<Simulation>) -> ServiceReport {
        self.run_jobs(jobs.into_iter().map(JobRequest::new).collect())
    }

    /// Like [`SessionService::run`], but with per-job scheduling classes and
    /// EDF deadlines ([`JobRequest`]), admission control
    /// ([`ServiceOptions::class_capacity`]) and per-class ledgers in the
    /// report.
    pub fn run_jobs(&self, jobs: Vec<JobRequest>) -> ServiceReport {
        let jobs = jobs
            .into_iter()
            .enumerate()
            .map(|(index, request)| {
                let mut job = fresh_job(index, request.simulation);
                job.class = request.class;
                job.deadline_s = request.deadline_s;
                job
            })
            .collect();
        self.run_inner(jobs, None, 0)
    }

    /// Like [`SessionService::run`], but crash-safe: every preemption
    /// checkpoint is persisted to `store` (keyed by the job's session id —
    /// its label, or `job-<index>`), completed jobs are removed from the
    /// store, and jobs whose id has a recovered frame in the store are
    /// **re-admitted from their last sealed slice** instead of starting
    /// over. Kill this process at any point and call `run_with_store` again
    /// with the same jobs over a re-opened store: the batch completes with
    /// results bit-identical to an uninterrupted run and billing conserved
    /// (`tests/service_recovery.rs` tortures exactly this loop).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfiguration`] if two jobs share a session id —
    /// ids key the store, so they must be unique within a batch.
    pub fn run_with_store(
        &self,
        jobs: Vec<Simulation>,
        store: &SessionStore,
    ) -> Result<ServiceReport, CoreError> {
        let mut seen: HashSet<String> = HashSet::with_capacity(jobs.len());
        let mut recovery_discarded = 0usize;
        let mut admitted = Vec::with_capacity(jobs.len());
        for (index, simulation) in jobs.into_iter().enumerate() {
            let mut job = fresh_job(index, simulation);
            if !seen.insert(job.id.clone()) {
                return Err(CoreError::InvalidConfiguration(format!(
                    "duplicate session id `{}` in batch: store-backed runs need unique ids",
                    job.id
                )));
            }
            if store.is_active(&job.id) {
                match store.get(&job.id) {
                    Ok(bytes) => {
                        job.parked = Parked::Frozen(Arc::new(bytes));
                        job.recovered = true;
                    }
                    // Typed store failure at admission: restart fresh rather
                    // than failing the job — a discarded recovery is always
                    // correct, just slower.
                    Err(_) => recovery_discarded += 1,
                }
            }
            admitted.push(job);
        }
        Ok(self.run_inner(admitted, Some(store), recovery_discarded))
    }

    fn run_inner(
        &self,
        jobs: Vec<Job>,
        store: Option<&SessionStore>,
        recovery_discarded: usize,
    ) -> ServiceReport {
        let pool: Pool<SessionReport, ()> = Pool::new(self.options.pool(), ());
        // Admission, in submission order, before the first pop: a class's
        // seats are then exactly its admitted-so-far count.
        let admitted = {
            let mut state = pool.lock();
            for job in jobs {
                match pool.refusal(&state, job.class, job.deadline_s, false) {
                    None => {
                        pool.admit(&mut state, job);
                    }
                    Some(refusal) => {
                        let error = match refusal {
                            Refusal::Deadline(detail) => {
                                ServiceError::Session(CoreError::InvalidConfiguration(detail))
                            }
                            Refusal::Overloaded { class, depth, capacity } => {
                                ServiceError::Overloaded { class, depth, capacity }
                            }
                            // A batch never drains.
                            Refusal::Draining => ServiceError::Interrupted,
                        };
                        state.refuse(job, error);
                    }
                }
            }
            state.seats.iter().sum::<usize>()
        };
        let workers = pool.options().worker_count().min(admitted.max(1));
        if admitted > 0 {
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope
                        .spawn(|| pool.work(store, |state| state.seats.iter().sum::<usize>() == 0));
                }
            });
        }
        let state = pool.into_state();
        let mut recovered_jobs = 0usize;
        let mut degraded_writes = 0usize;
        let mut classes = [ClassReport::default(); JobClass::COUNT];
        let mut shed = 0usize;
        let outcomes: Vec<JobOutcome> = state
            .entries
            .into_iter()
            .map(|entry| {
                // A job without a resolution was in flight (or queued) when
                // the run was killed: typed, not a panic.
                let result = entry.done.unwrap_or(Err(ServiceError::Interrupted));
                recovered_jobs += usize::from(entry.recovered);
                degraded_writes += entry.degraded_writes;
                let ledger = &mut classes[entry.class.index()];
                ledger.offered += 1;
                if matches!(result, Err(ServiceError::Overloaded { .. })) {
                    ledger.shed += 1;
                    shed += 1;
                } else {
                    ledger.admitted += 1;
                }
                ledger.finished += usize::from(result.is_ok());
                ledger.billed += entry.billed;
                ledger.queue_latency += entry.queue_latency;
                JobOutcome {
                    label: entry.label,
                    id: entry.id,
                    class: entry.class,
                    result,
                    billed_engine_time: entry.billed,
                    slices: entry.slices,
                    queue_latency: entry.queue_latency,
                    first_scheduled_ordinal: entry.first_pop_ordinal,
                    evictions: entry.evictions,
                    restores: entry.restores,
                    recovered: entry.recovered,
                    degraded_writes: entry.degraded_writes,
                    // The pool keeps a frame only for jobs that did not finish.
                    last_checkpoint: entry.last_frame.map(|frame| frame.as_ref().clone()),
                }
            })
            .collect();
        let total_billed = outcomes.iter().map(|o| o.billed_engine_time).sum();
        ServiceReport {
            outcomes,
            classes,
            shed,
            total_billed,
            evictions: state.evictions,
            peak_resident_bytes: state.peak_resident_bytes,
            workers,
            interrupted: state.killed,
            quarantined: state.quarantined,
            recovered_jobs,
            recovery_discarded,
            degraded_writes,
        }
    }
}

/// A batch-class, deadline-less, not-yet-started job keyed by its label, or
/// `job-<index>` when unlabelled.
fn fresh_job(index: usize, simulation: Simulation) -> Job {
    let label = simulation.config().label.clone();
    Job {
        id: label.clone().unwrap_or_else(|| format!("job-{index}")),
        label,
        class: JobClass::Batch,
        deadline_s: None,
        parked: Parked::Fresh(Box::new(simulation)),
        recovered: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScenarioConfig;

    fn quick_job(k: usize) -> Simulation {
        let mut config = ScenarioConfig::scenario1();
        config.duration_s = 0.06;
        config.frequency_step_time_s = 0.02;
        config.controller.watchdog_period_s = 0.02;
        config.controller.measurement_duration_s = 0.005;
        config.controller.tuning_update_interval_s = 0.004;
        config.controller.tuning_rate_hz_per_s = 10.0;
        config.controller.energy_threshold_v = 2.0;
        Simulation::from_config(config).label(format!("job{k}"))
    }

    fn options(workers: usize, slice_s: f64) -> ServiceOptions {
        ServiceOptions { workers: Some(workers), slice_s, ..ServiceOptions::default() }
    }

    #[test]
    fn rejects_bad_options() {
        assert!(SessionService::new(options(2, 0.0)).is_err(), "zero slice");
        assert!(SessionService::new(options(0, 0.02)).is_err(), "zero workers");
        assert!(SessionService::new(ServiceOptions::default()).is_ok());
    }

    #[test]
    fn empty_batch_is_a_clean_no_op() {
        let service = SessionService::new(options(2, 0.05)).unwrap();
        let report = service.run(Vec::new());
        assert!(report.outcomes.is_empty());
        assert_eq!(report.total_billed, Duration::ZERO);
        assert_eq!(report.evictions, 0);
        assert!(!report.interrupted);
        assert_eq!(report.quarantined, 0);
    }

    #[test]
    fn scheduled_results_match_sequential_and_billing_telescopes() {
        let jobs: Vec<Simulation> = (0..6).map(quick_job).collect();
        let sequential: Vec<SessionReport> = jobs
            .iter()
            .map(|job| {
                let mut session = job.start().unwrap();
                session.run_to_end().unwrap();
                session.report()
            })
            .collect();
        // A tiny budget forces evictions, so the checkpoint path is exercised.
        let service = SessionService::new(ServiceOptions {
            resident_budget_bytes: Some(1),
            ..options(2, 0.01)
        })
        .unwrap();
        let report = service.run(jobs);
        assert_eq!(report.outcomes.len(), 6);
        assert!(report.evictions > 0, "budget of 1 byte must evict every preemption");
        for (outcome, reference) in report.outcomes.iter().zip(&sequential) {
            let scheduled = outcome.result.as_ref().expect("job finished");
            assert!(scheduled.finished);
            assert_eq!(scheduled.final_state.as_slice(), reference.final_state.as_slice());
            assert_eq!(
                scheduled.engine_stats.state_space.steps,
                reference.engine_stats.state_space.steps
            );
            assert_eq!(scheduled.control_events, reference.control_events);
            assert_eq!(outcome.billed_engine_time, scheduled.engine_time());
            assert!(outcome.slices >= 2, "0.06 s span at 0.01 s slices takes several slices");
            assert_eq!(outcome.evictions, outcome.restores);
            assert!(outcome.last_checkpoint.is_none(), "successful jobs carry no frame");
        }
        let billed: Duration = report.outcomes.iter().map(|o| o.billed_engine_time).sum();
        assert_eq!(billed, report.total_billed);
    }

    #[test]
    fn per_job_failures_are_isolated_and_labelled() {
        let mut jobs: Vec<Simulation> = (0..2).map(quick_job).collect();
        jobs.push(quick_job(2).duration(-1.0).label("bad"));
        let service = SessionService::new(options(2, 0.02)).unwrap();
        let report = service.run(jobs);
        assert!(report.outcomes[0].result.is_ok());
        assert!(report.outcomes[1].result.is_ok());
        let err = report.outcomes[2].result.as_ref().unwrap_err();
        assert!(err.to_string().contains("bad"), "error must carry the job label: {err}");
        assert!(matches!(err, ServiceError::Session(_)));
    }

    #[test]
    fn watchdog_preemption_preserves_bit_identity() {
        let reference = {
            let mut session = quick_job(0).start().unwrap();
            session.run_to_end().unwrap();
            session.report()
        };
        // A zero timeout preempts after every accepted step batch — maximal
        // watchdog pressure, still bit-identical and billing-conserving.
        let service = SessionService::new(ServiceOptions {
            slice_timeout: Some(Duration::ZERO),
            ..options(1, 0.02)
        })
        .unwrap();
        let report = service.run(vec![quick_job(0)]);
        let outcome = &report.outcomes[0];
        let scheduled = outcome.result.as_ref().expect("watchdogged job still finishes");
        assert_eq!(scheduled.final_state.as_slice(), reference.final_state.as_slice());
        assert_eq!(
            scheduled.engine_stats.state_space.steps,
            reference.engine_stats.state_space.steps
        );
        assert_eq!(outcome.billed_engine_time, scheduled.engine_time());
        assert!(
            outcome.slices > 3,
            "a zero watchdog budget must preempt far more often than the 3 plain slices \
             (got {} slices)",
            outcome.slices
        );
    }

    #[test]
    fn injected_panic_quarantines_one_job_without_poisoning_the_pool() {
        let plan = Arc::new(FaultPlan::new(0xBEEF).with_site(FaultSite::SliceBoundary, 2, 1));
        let service =
            SessionService::new(ServiceOptions { fault_plan: Some(plan), ..options(1, 0.02) })
                .unwrap();
        let report = service.run((0..3).map(quick_job).collect());
        assert_eq!(report.quarantined, 1);
        assert!(!report.interrupted);
        let panicked: Vec<&JobOutcome> = report
            .outcomes
            .iter()
            .filter(|o| matches!(o.result, Err(ServiceError::SessionPanicked { .. })))
            .collect();
        assert_eq!(panicked.len(), 1);
        let quarantined = panicked[0];
        match &quarantined.result {
            Err(ServiceError::SessionPanicked { id, payload }) => {
                assert_eq!(id, &quarantined.id);
                assert!(payload.contains("injected fault"), "payload travels: {payload}");
            }
            other => panic!("expected SessionPanicked, got {other:?}"),
        }
        // The other jobs are untouched.
        assert_eq!(
            report.outcomes.iter().filter(|o| o.result.is_ok()).count(),
            2,
            "quarantine must not leak into neighbours"
        );
    }

    /// Slices that end inside an analogue segment bill the engine time they
    /// spent: four 0.02 s slices inside one 0.25 s watchdog segment, then a
    /// panic at the fifth slice boundary quarantines the job — its bill is
    /// the four slices' engine time, not zero.
    #[test]
    fn quarantined_mid_segment_job_bills_its_slices() {
        let mut config = ScenarioConfig::scenario1();
        config.duration_s = 0.5;
        config.frequency_step_time_s = 0.1;
        config.controller.watchdog_period_s = 0.25;
        let job = Simulation::from_config(config).label("mid-segment");
        let plan = Arc::new(FaultPlan::new(7).with_site(FaultSite::SliceBoundary, 5, 1));
        let service =
            SessionService::new(ServiceOptions { fault_plan: Some(plan), ..options(1, 0.02) })
                .unwrap();
        let report = service.run(vec![job.clone()]);
        assert_eq!(report.quarantined, 1);
        let outcome = &report.outcomes[0];
        assert!(matches!(outcome.result, Err(ServiceError::SessionPanicked { .. })));
        assert_eq!(outcome.slices, 5, "four slices ran, the fifth boundary panicked");
        // The same span inline never closes a segment, so the closed-segment
        // counters alone would bill nothing.
        let mut inline = job.start().unwrap();
        inline.run_until(0.08).unwrap();
        assert!(inline.engine_stats().state_space.cpu_time.is_zero());
        assert!(inline.report().engine_time() > Duration::ZERO);
        assert!(outcome.billed_engine_time > Duration::ZERO, "mid-segment slices must bill");
        assert_eq!(report.total_billed, outcome.billed_engine_time);
    }

    #[test]
    fn injected_kill_interrupts_unresolved_jobs_typed() {
        let plan = Arc::new(FaultPlan::new(1).with_kills(1, 1));
        let service = SessionService::new(ServiceOptions {
            fault_plan: Some(plan.clone()),
            ..options(1, 0.01)
        })
        .unwrap();
        let report = service.run((0..3).map(quick_job).collect());
        assert!(report.interrupted);
        assert_eq!(plan.kills(), 1);
        assert!(
            report.outcomes.iter().any(|o| matches!(o.result, Err(ServiceError::Interrupted))),
            "a killed service leaves interrupted jobs"
        );
    }
}
