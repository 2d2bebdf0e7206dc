//! A concurrent session scheduler: thread-per-core workers round-robinning
//! many (thousands of) resumable [`Session`]s with preemption at
//! [`Session::run_until`] boundaries, checkpoint-on-preempt, eviction under a
//! resident-memory budget, per-session engine-time billing — and, since the
//! durability layer, crash recovery from an on-disk [`SessionStore`], panic
//! quarantine, poison-proof locking, a per-slice wall-clock watchdog, and
//! deterministic fault injection.
//!
//! # Scheduling model
//!
//! Jobs are submitted as [`Simulation`] builders (a validated
//! [`crate::ScenarioConfig`] each) and enter a run queue. Every worker
//! thread repeatedly pops the next runnable job, advances it by one *time
//! slice* of simulated seconds ([`ServiceOptions::slice_s`]) via
//! [`Session::run_until_deadline`], and pushes it back. The queue is a set
//! of **scheduling classes** ([`JobClass`]: `interactive` > `batch` >
//! `best-effort`) popped in strict priority order, with
//! **earliest-deadline-first** ordering inside each class
//! ([`JobRequest::deadline_s`]; deadline-less jobs order FIFO behind every
//! deadline, so a single-class deadline-less batch — the [`SessionService::run`]
//! path — degenerates to exactly the old round-robin FIFO lane and keeps its
//! fairness bound). Cross-class starvation is bounded by **aging**: a class
//! whose head job has been passed over [`ServiceOptions::aging_passes`]
//! times is promoted for one pop, so even a flood of interactive work lets
//! best-effort jobs through at a provable rate.
//!
//! # Admission control
//!
//! [`ServiceOptions::class_capacity`] bounds the per-class accept queue:
//! jobs offered beyond a class's capacity are **shed at admission** with a
//! typed [`ServiceError::Overloaded`] outcome — zero slices, zero billing —
//! and counted per class, so `admitted + shed = offered` holds exactly in
//! [`ServiceReport::classes`]. Shedding is load *control*, not failure: the
//! report tells the caller precisely which jobs to resubmit.
//!
//! Preemption reuses the session facade's pause guarantee: slices stop at the
//! first accepted step boundary at or past the slice target (or past the
//! watchdog deadline), never truncating an integration step, so a scheduled
//! run takes **exactly** the steps a sequential run takes — results are
//! bit-identical regardless of worker count, slice length, eviction pattern,
//! or watchdog preemption.
//!
//! # Eviction under a memory budget
//!
//! Every preempted session is checkpointed ([`Session::checkpoint`]) — the
//! frame length is the job's resident-footprint estimate. If keeping the live
//! session would push the sum of resident footprints past
//! [`ServiceOptions::resident_budget_bytes`], the live session is dropped and
//! only the checkpoint bytes are parked (*eviction*); the next slice restores
//! it with [`Session::restore`]. Checkpoint round-trips are bit-identical, so
//! eviction is invisible in the results — it only trades memory for
//! restore time.
//!
//! # Billing
//!
//! Each slice bills the job the growth of its engine wall-clock
//! ([`SessionReport::engine_time`]) across the slice. The counters are
//! carried inside the session (and inside its checkpoints), so the per-slice
//! deltas telescope: when a job finishes, its billed total equals its final
//! report's engine time exactly, and the sum over jobs equals the total
//! engine time the service spent (billing conservation, pinned by
//! `tests/service_stress.rs`). A job re-admitted from the on-disk store books
//! its frame-carried engine time on its first slice, so conservation holds
//! across service restarts too.
//!
//! # Supervision & durability
//!
//! Every slice — materialisation, integration, checkpointing — runs under
//! `catch_unwind`. A panicking session is **quarantined**: its outcome is a
//! typed [`ServiceError::SessionPanicked`] carrying the panic payload, its
//! last good checkpoint is retained ([`JobOutcome::last_checkpoint`], plus
//! the store entry when one exists), and the remaining jobs are unaffected.
//! Scheduler locks recover from poisoning instead of aborting (the worker
//! never panics while holding the lock, and every critical section leaves
//! the state consistent, so `PoisonError::into_inner` is sound here).
//! [`ServiceOptions::slice_timeout`] arms a cooperative watchdog that
//! preempts a runaway session at its next accepted step boundary.
//!
//! With [`SessionService::run_with_store`], every preemption checkpoint is
//! also persisted to a crash-safe [`SessionStore`]; at startup, jobs whose
//! ids have a recovered frame resume from their last sealed slice instead of
//! starting over. Store failures degrade gracefully: after the store's
//! bounded retries, the slice continues on the resident frozen bytes and the
//! outcome's [`JobOutcome::degraded_writes`] counter ticks — a sick disk
//! slows recovery, it does not fail jobs. An injected
//! [`crate::fault::Fault::KillService`] "crashes" the service mid-batch:
//! workers stop dead, in-flight slices are lost (exactly as in a real kill),
//! and unresolved jobs report [`ServiceError::Interrupted`]; a following
//! `run_with_store` over the same store picks the batch back up.

use std::any::Any;
use std::collections::{BTreeMap, HashSet};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::fault::{Fault, FaultPlan, FaultSite};
use crate::session::{Session, SessionReport, Simulation};
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

/// Maps an optional deadline to a totally-ordered `u64` key: non-negative
/// finite deadlines order by value (IEEE-754 bit order), `None` sorts after
/// every real deadline. Ties order FIFO by push sequence.
fn deadline_key(deadline_s: Option<f64>) -> u64 {
    match deadline_s {
        // Valid deadlines are non-negative finite, whose bit patterns order
        // like the values; MAX is reserved for "no deadline".
        Some(d) => d.to_bits().min(u64::MAX - 1),
        None => u64::MAX,
    }
}

/// The class-aware run queue shared by the batch scheduler and the front-door
/// server: strict priority across classes, earliest-deadline-first (FIFO on
/// ties) within a class, and aging so no class starves. Not thread-safe —
/// callers hold their scheduler lock.
#[derive(Debug)]
pub(crate) struct ClassQueues<T> {
    queues: [BTreeMap<(u64, u64), T>; JobClass::COUNT],
    next_seq: u64,
    /// Consecutive pops in which a non-empty class was passed over.
    skips: [u64; JobClass::COUNT],
    aging_passes: u64,
}

impl<T> ClassQueues<T> {
    pub(crate) fn new(aging_passes: u64) -> Self {
        ClassQueues {
            queues: Default::default(),
            next_seq: 0,
            skips: [0; JobClass::COUNT],
            aging_passes,
        }
    }

    /// Enqueues `item` under `class` with the given deadline.
    pub(crate) fn push(&mut self, class: JobClass, deadline_s: Option<f64>, item: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queues[class.index()].insert((deadline_key(deadline_s), seq), item);
    }

    /// Jobs currently queued under `class`.
    pub(crate) fn depth(&self, class: JobClass) -> usize {
        self.queues[class.index()].len()
    }

    /// Pops the next runnable job: the starved-past-the-aging-bound class
    /// with the most skips if one exists, else the highest-priority
    /// non-empty class; within the class, the earliest deadline (FIFO on
    /// ties). Every other non-empty class's skip counter ages by one.
    pub(crate) fn pop(&mut self) -> Option<(JobClass, T)> {
        let chosen = if self.aging_passes > 0 {
            JobClass::ALL
                .into_iter()
                .filter(|c| !self.queues[c.index()].is_empty())
                .filter(|c| self.skips[c.index()] >= self.aging_passes)
                .max_by_key(|c| self.skips[c.index()])
        } else {
            None
        };
        let class = chosen
            .or_else(|| JobClass::ALL.into_iter().find(|c| !self.queues[c.index()].is_empty()))?;
        for other in JobClass::ALL {
            if other != class && !self.queues[other.index()].is_empty() {
                self.skips[other.index()] += 1;
            }
        }
        self.skips[class.index()] = 0;
        let key = *self.queues[class.index()].keys().next().expect("non-empty class queue");
        let item = self.queues[class.index()].remove(&key).expect("key just observed");
        Some((class, item))
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
    fn validate(&self) -> Result<(), CoreError> {
        if !(self.slice_s > 0.0) {
            return Err(CoreError::InvalidConfiguration(format!(
                "service slice must be positive, got {}",
                self.slice_s
            )));
        }
        if self.workers == Some(0) {
            return Err(CoreError::InvalidConfiguration(
                "service worker count must be at least 1".into(),
            ));
        }
        if self.class_capacity == Some(0) {
            return Err(CoreError::InvalidConfiguration(
                "class capacity must admit at least one job (use None for unbounded)".into(),
            ));
        }
        Ok(())
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
    /// failure, restorable via [`Session::restore`]. `None` for successful
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

/// A parked job between slices.
enum Parked {
    /// Not started yet.
    Fresh(Box<Simulation>),
    /// Live session kept resident; the second field is the footprint the
    /// budget accounting charged for it.
    Live(Box<Session>, usize),
    /// Evicted to checkpoint bytes (shared with [`JobSlot::last_frame`], so
    /// retaining the last good checkpoint costs no copy).
    Frozen(Arc<Vec<u8>>),
}

struct JobSlot {
    parked: Option<Parked>,
    id: String,
    label: Option<String>,
    class: JobClass,
    deadline_s: Option<f64>,
    billed: Duration,
    slices: usize,
    queue_latency: Duration,
    first_pop_ordinal: Option<u64>,
    evictions: usize,
    restores: usize,
    recovered: bool,
    degraded_writes: usize,
    /// The most recent sealed checkpoint frame — the resume point retained
    /// for quarantined/failed/interrupted jobs.
    last_frame: Option<Arc<Vec<u8>>>,
    done: Option<Result<SessionReport, ServiceError>>,
}

/// A run-queue entry: the job's slot index plus its push timestamp (the
/// queue-latency ledger's unit of account).
struct QueueToken {
    index: usize,
    enqueued_at: Instant,
}

struct SchedulerState {
    run_queue: ClassQueues<QueueToken>,
    jobs: Vec<JobSlot>,
    /// Jobs not yet finished or failed — the workers' exit condition.
    unfinished: usize,
    /// Global pop counter, stamping each job's first scheduling.
    pops: u64,
    /// A (fault-injected) service kill: workers stop dead, in-flight slices
    /// are discarded, unresolved jobs report interrupted.
    killed: bool,
    quarantined: usize,
    resident_bytes: usize,
    peak_resident_bytes: usize,
    total_evictions: usize,
}

struct Shared {
    state: Mutex<SchedulerState>,
    wake: Condvar,
}

/// A job popped from the run queue, ready for one slice.
struct Task {
    index: usize,
    parked: Parked,
    id: String,
    /// First slice of a store-recovered job: bill from zero so the
    /// frame-carried engine time is booked and conservation holds across
    /// restarts.
    carries_billing: bool,
}

/// What one supervised slice produced (built outside the scheduler lock).
enum SliceRun {
    /// Fault-injected service crash: discard everything, stop the pool.
    Killed,
    Failed {
        err: CoreError,
        restored: bool,
        billed: Duration,
        degraded: usize,
    },
    Finished {
        report: Box<SessionReport>,
        restored: bool,
        billed: Duration,
        degraded: usize,
    },
    Preempted {
        session: Box<Session>,
        frame: Arc<Vec<u8>>,
        restored: bool,
        billed: Duration,
        degraded: usize,
    },
}

/// The multi-session scheduler. Construction validates the options; one
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
    /// [`CoreError::InvalidConfiguration`] for a non-positive slice or a zero
    /// worker count.
    pub fn new(options: ServiceOptions) -> Result<Self, CoreError> {
        options.validate()?;
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
        let slots: Vec<JobSlot> = jobs
            .into_iter()
            .enumerate()
            .map(|(index, request)| {
                let label = request.simulation.config().label.clone();
                let id = label.clone().unwrap_or_else(|| format!("job-{index}"));
                let mut slot =
                    new_slot(Parked::Fresh(Box::new(request.simulation)), id, label, false);
                slot.class = request.class;
                slot.deadline_s = request.deadline_s;
                slot
            })
            .collect();
        self.run_inner(slots, None, 0)
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
        self.run_jobs_with_store(jobs.into_iter().map(JobRequest::new).collect(), store)
    }

    /// [`SessionService::run_with_store`] with per-job classes and deadlines.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfiguration`] if two jobs share a session id.
    pub fn run_jobs_with_store(
        &self,
        jobs: Vec<JobRequest>,
        store: &SessionStore,
    ) -> Result<ServiceReport, CoreError> {
        let mut seen: HashSet<String> = HashSet::with_capacity(jobs.len());
        let mut recovery_discarded = 0usize;
        let mut slots: Vec<JobSlot> = Vec::with_capacity(jobs.len());
        for (index, request) in jobs.into_iter().enumerate() {
            let JobRequest { simulation, class, deadline_s } = request;
            let label = simulation.config().label.clone();
            let id = label.clone().unwrap_or_else(|| format!("job-{index}"));
            if !seen.insert(id.clone()) {
                return Err(CoreError::InvalidConfiguration(format!(
                    "duplicate session id `{id}` in batch: store-backed runs need unique ids"
                )));
            }
            let mut slot = if store.is_active(&id) {
                match store.get(&id) {
                    Ok(bytes) => {
                        let frame = Arc::new(bytes);
                        let mut slot = new_slot(Parked::Frozen(frame.clone()), id, label, true);
                        slot.last_frame = Some(frame);
                        slot
                    }
                    Err(_) => {
                        // Typed store failure at admission: restart fresh
                        // rather than failing the job — a discarded recovery
                        // is always correct, just slower.
                        recovery_discarded += 1;
                        new_slot(Parked::Fresh(Box::new(simulation)), id, label, false)
                    }
                }
            } else {
                new_slot(Parked::Fresh(Box::new(simulation)), id, label, false)
            };
            slot.class = class;
            slot.deadline_s = deadline_s;
            slots.push(slot);
        }
        Ok(self.run_inner(slots, Some(store), recovery_discarded))
    }

    fn run_inner(
        &self,
        mut slots: Vec<JobSlot>,
        store: Option<&SessionStore>,
        recovery_discarded: usize,
    ) -> ServiceReport {
        // Admission pass, in submission order: validate the deadline, check
        // the class queue depth, then enqueue or shed. Shed jobs resolve
        // right here — zero slices, zero billing.
        let mut run_queue = ClassQueues::new(self.options.aging_passes);
        let mut admitted = 0usize;
        for (index, slot) in slots.iter_mut().enumerate() {
            if let Some(deadline) = slot.deadline_s {
                if !(deadline >= 0.0) || !deadline.is_finite() {
                    slot.done = Some(Err(ServiceError::Session(CoreError::InvalidConfiguration(
                        format!("job deadline must be non-negative and finite, got {deadline}"),
                    ))));
                    continue;
                }
            }
            // Nothing pops during admission, so the queue depth is exactly
            // the class's admitted-so-far count.
            let depth = run_queue.depth(slot.class);
            if let Some(capacity) = self.options.class_capacity {
                if depth >= capacity {
                    slot.done =
                        Some(Err(ServiceError::Overloaded { class: slot.class, depth, capacity }));
                    continue;
                }
            }
            admitted += 1;
            run_queue.push(
                slot.class,
                slot.deadline_s,
                QueueToken { index, enqueued_at: Instant::now() },
            );
        }
        let shared = Shared {
            state: Mutex::new(SchedulerState {
                run_queue,
                unfinished: admitted,
                pops: 0,
                killed: false,
                quarantined: 0,
                jobs: slots,
                resident_bytes: 0,
                peak_resident_bytes: 0,
                total_evictions: 0,
            }),
            wake: Condvar::new(),
        };
        let default_workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        let workers = self.options.workers.unwrap_or(default_workers).min(admitted.max(1)).max(1);
        if admitted > 0 {
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| self.worker(&shared, store));
                }
            });
        }
        let state = shared.state.into_inner().unwrap_or_else(PoisonError::into_inner);
        let interrupted = state.killed;
        let mut recovered_jobs = 0usize;
        let mut degraded_writes = 0usize;
        let mut classes = [ClassReport::default(); JobClass::COUNT];
        let mut shed = 0usize;
        let outcomes: Vec<JobOutcome> = state
            .jobs
            .into_iter()
            .map(|slot| {
                // A job without a resolution was in flight (or queued) when
                // the service died: typed, not a panic.
                let result = slot.done.unwrap_or(Err(ServiceError::Interrupted));
                recovered_jobs += usize::from(slot.recovered);
                degraded_writes += slot.degraded_writes;
                let ledger = &mut classes[slot.class.index()];
                ledger.offered += 1;
                if matches!(result, Err(ServiceError::Overloaded { .. })) {
                    ledger.shed += 1;
                    shed += 1;
                } else {
                    ledger.admitted += 1;
                }
                ledger.finished += usize::from(result.is_ok());
                ledger.billed += slot.billed;
                ledger.queue_latency += slot.queue_latency;
                let last_checkpoint = if result.is_err() {
                    slot.last_frame.map(|frame| frame.as_ref().clone())
                } else {
                    None
                };
                JobOutcome {
                    label: slot.label,
                    id: slot.id,
                    class: slot.class,
                    result,
                    billed_engine_time: slot.billed,
                    slices: slot.slices,
                    queue_latency: slot.queue_latency,
                    first_scheduled_ordinal: slot.first_pop_ordinal,
                    evictions: slot.evictions,
                    restores: slot.restores,
                    recovered: slot.recovered,
                    degraded_writes: slot.degraded_writes,
                    last_checkpoint,
                }
            })
            .collect();
        let total_billed = outcomes.iter().map(|o| o.billed_engine_time).sum();
        ServiceReport {
            outcomes,
            classes,
            shed,
            total_billed,
            evictions: state.total_evictions,
            peak_resident_bytes: state.peak_resident_bytes,
            workers,
            interrupted,
            quarantined: state.quarantined,
            recovered_jobs,
            recovery_discarded,
            degraded_writes,
        }
    }

    /// One worker thread: pop-front / run-one-supervised-slice / commit,
    /// until no unfinished jobs remain or the service is killed. The slice
    /// body runs under `catch_unwind`, so an escaped panic quarantines the
    /// one job instead of unwinding through the pool.
    fn worker(&self, shared: &Shared, store: Option<&SessionStore>) {
        loop {
            let Some(task) = self.next_job(shared) else { return };
            let Task { index, parked, id, carries_billing } = task;
            let run = panic::catch_unwind(AssertUnwindSafe(|| {
                self.run_slice(parked, &id, carries_billing, store)
            }));
            match run {
                Ok(slice) => self.commit_slice(shared, index, slice),
                Err(payload) => self.quarantine(shared, index, payload),
            }
        }
    }

    /// Blocks until a job is runnable (returning it) or the pool should stop
    /// (every job resolved, or the service was killed).
    fn next_job(&self, shared: &Shared) -> Option<Task> {
        let mut state = lock_state(shared);
        loop {
            if state.killed || state.unfinished == 0 {
                return None;
            }
            if let Some((_, token)) = state.run_queue.pop() {
                let QueueToken { index, enqueued_at } = token;
                let ordinal = state.pops;
                state.pops += 1;
                let waited = enqueued_at.elapsed();
                let slot = &mut state.jobs[index];
                slot.queue_latency += waited;
                slot.first_pop_ordinal.get_or_insert(ordinal);
                let parked = slot
                    .parked
                    .take()
                    .expect("queued job has a parked state (scheduler invariant)");
                let carries_billing = slot.recovered && slot.slices == 0;
                let id = slot.id.clone();
                if let Parked::Live(_, footprint) = &parked {
                    state.resident_bytes -= footprint;
                }
                return Some(Task { index, parked, id, carries_billing });
            }
            state = wait_state(shared, state);
        }
    }

    /// One scheduling slice, run outside the scheduler lock (and inside the
    /// worker's `catch_unwind`): materialise, advance, then either resolve
    /// or checkpoint. Store traffic degrades instead of failing the job.
    fn run_slice(
        &self,
        parked: Parked,
        id: &str,
        carries_billing: bool,
        store: Option<&SessionStore>,
    ) -> SliceRun {
        let plan = self.options.fault_plan.as_deref();
        match plan.and_then(|p| p.decide(FaultSite::SliceBoundary, 0)) {
            Some(Fault::KillService) => return SliceRun::Killed,
            Some(Fault::Panic) => panic!("{}", FaultPlan::PANIC_MESSAGE),
            _ => {}
        }
        // Materialise a live session (start fresh, reuse resident, or thaw
        // from checkpoint bytes).
        let restored = matches!(parked, Parked::Frozen(_));
        let session = match parked {
            Parked::Fresh(simulation) => simulation.start().map(Box::new),
            Parked::Live(session, _) => Ok(session),
            Parked::Frozen(bytes) => {
                if let Some(Fault::Panic) =
                    plan.and_then(|p| p.decide(FaultSite::CheckpointDecode, bytes.len()))
                {
                    panic!("{}", FaultPlan::PANIC_MESSAGE);
                }
                Session::restore(&bytes).map(Box::new)
            }
        };
        let mut session = match session {
            Ok(session) => session,
            Err(err) => {
                return SliceRun::Failed { err, restored, billed: Duration::ZERO, degraded: 0 }
            }
        };
        // Identity backstop for store-recovered frames: a frame whose
        // embedded scenario label disagrees with the id it was keyed under
        // must never run as that job (the manifest checksums make this
        // near-impossible; this catches the residual cases typed).
        if carries_billing {
            if let Some(label) = session.scenario_label() {
                if label != id {
                    return SliceRun::Failed {
                        err: CoreError::InvalidConfiguration(format!(
                            "recovered checkpoint keyed `{id}` belongs to scenario `{label}`"
                        )),
                        restored,
                        billed: Duration::ZERO,
                        degraded: 0,
                    };
                }
            }
        }
        let billed_before = if carries_billing { Duration::ZERO } else { engine_time(&session) };
        let deadline = self.options.slice_timeout.map(|budget| Instant::now() + budget);
        let target = session.time() + self.options.slice_s;
        let advanced = session.run_until_deadline(target, deadline);
        let billed = engine_time(&session).saturating_sub(billed_before);
        if let Err(err) = advanced {
            return SliceRun::Failed { err, restored, billed, degraded: 0 };
        }
        let mut degraded = 0usize;
        if session.is_finished() {
            // Completion: drop the store entry only after the result is in
            // hand; a failure here degrades (the entry is re-run after a
            // crash, idempotently) rather than failing the finished job.
            if let Some(store) = store {
                if store.is_active(id) && store.remove(id).is_err() {
                    degraded += 1;
                }
            }
            return SliceRun::Finished {
                report: Box::new(session.report()),
                restored,
                billed,
                degraded,
            };
        }
        // Checkpoint-on-preempt: the frame is the eviction currency, the
        // durable store payload, and the footprint estimate in one.
        if let Some(Fault::Panic) = plan.and_then(|p| p.decide(FaultSite::CheckpointEncode, 0)) {
            panic!("{}", FaultPlan::PANIC_MESSAGE);
        }
        let frame = match session.checkpoint() {
            Ok(bytes) => Arc::new(bytes),
            Err(err) => return SliceRun::Failed { err, restored, billed, degraded },
        };
        if let Some(store) = store {
            if store.put(id, &frame).is_err() {
                // Graceful degradation: the resident frozen bytes still
                // carry the job; only crash-recoverability of this slice is
                // lost.
                degraded += 1;
            }
        }
        SliceRun::Preempted { session, frame, restored, billed, degraded }
    }

    /// Books a slice's outcome into the scheduler state. After a service
    /// kill, in-flight results are discarded — exactly what a real crash
    /// does to work that never reached the store.
    fn commit_slice(&self, shared: &Shared, index: usize, run: SliceRun) {
        let mut state = lock_state(shared);
        if state.killed {
            return;
        }
        match run {
            SliceRun::Killed => {
                state.killed = true;
                shared.wake.notify_all();
            }
            SliceRun::Failed { err, restored, billed, degraded } => {
                let slot = book_slice(&mut state, index, restored, billed, degraded);
                let err = match &slot.label {
                    Some(label) => err.for_scenario(label.clone()),
                    None => err,
                };
                slot.done = Some(Err(ServiceError::Session(err)));
                state.unfinished -= 1;
                shared.wake.notify_all();
            }
            SliceRun::Finished { report, restored, billed, degraded } => {
                let slot = book_slice(&mut state, index, restored, billed, degraded);
                slot.done = Some(Ok(*report));
                state.unfinished -= 1;
                shared.wake.notify_all();
            }
            SliceRun::Preempted { session, frame, restored, billed, degraded } => {
                let footprint = frame.len();
                let evict = match self.options.resident_budget_bytes {
                    Some(budget) => state.resident_bytes + footprint > budget,
                    None => false,
                };
                let slot = book_slice(&mut state, index, restored, billed, degraded);
                slot.last_frame = Some(frame.clone());
                if evict {
                    slot.evictions += 1;
                    slot.parked = Some(Parked::Frozen(frame));
                    state.total_evictions += 1;
                } else {
                    slot.parked = Some(Parked::Live(session, footprint));
                    state.resident_bytes += footprint;
                    state.peak_resident_bytes = state.peak_resident_bytes.max(state.resident_bytes);
                }
                let (class, deadline_s) = {
                    let slot = &state.jobs[index];
                    (slot.class, slot.deadline_s)
                };
                state.run_queue.push(
                    class,
                    deadline_s,
                    QueueToken { index, enqueued_at: Instant::now() },
                );
                shared.wake.notify_one();
            }
        }
    }

    /// Quarantines a job whose slice panicked: typed outcome, last good
    /// checkpoint retained, neighbours unaffected. After a kill, the panic
    /// is discarded with the rest of the in-flight work.
    fn quarantine(&self, shared: &Shared, index: usize, payload: Box<dyn Any + Send>) {
        let payload = panic_payload(payload);
        let mut state = lock_state(shared);
        if state.killed {
            return;
        }
        let slot = &mut state.jobs[index];
        slot.slices += 1;
        slot.done = Some(Err(ServiceError::SessionPanicked { id: slot.id.clone(), payload }));
        state.quarantined += 1;
        state.unfinished -= 1;
        shared.wake.notify_all();
    }
}

fn new_slot(parked: Parked, id: String, label: Option<String>, recovered: bool) -> JobSlot {
    JobSlot {
        parked: Some(parked),
        id,
        label,
        class: JobClass::Batch,
        deadline_s: None,
        billed: Duration::ZERO,
        slices: 0,
        queue_latency: Duration::ZERO,
        first_pop_ordinal: None,
        evictions: 0,
        restores: 0,
        recovered,
        degraded_writes: 0,
        last_frame: None,
        done: None,
    }
}

/// Scheduler-lock acquisition that recovers from poisoning: a panicking
/// session is quarantined by design, and every critical section leaves the
/// state consistent, so inheriting the guard is sound — aborting the whole
/// pool (the old `expect`) is exactly what the supervision layer exists to
/// prevent.
fn lock_state(shared: &Shared) -> MutexGuard<'_, SchedulerState> {
    shared.state.lock().unwrap_or_else(PoisonError::into_inner)
}

fn wait_state<'a>(
    shared: &'a Shared,
    guard: MutexGuard<'a, SchedulerState>,
) -> MutexGuard<'a, SchedulerState> {
    shared.wake.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// Books one slice's common accounting and returns the slot for the
/// caller's outcome-specific writes. Callers hold the scheduler lock.
fn book_slice(
    state: &mut SchedulerState,
    index: usize,
    restored: bool,
    billed: Duration,
    degraded: usize,
) -> &mut JobSlot {
    let slot = &mut state.jobs[index];
    slot.slices += 1;
    slot.billed += billed;
    slot.degraded_writes += degraded;
    if restored {
        slot.restores += 1;
    }
    slot
}

/// Stringifies a caught panic payload (the common `&str`/`String` cases;
/// anything else gets a placeholder). Shared with [`crate::server`].
pub(crate) fn panic_payload(payload: Box<dyn Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(message) => *message,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(message) => (*message).to_string(),
            Err(_) => "non-string panic payload".into(),
        },
    }
}

/// The billing measure, shared with [`crate::server`]: the session report's
/// total engine time. It folds in the in-flight segment's pending engine
/// time, so a slice that ends inside an analogue segment still bills. The
/// total is carried inside checkpoints, so per-slice deltas telescope exactly
/// to the final report across preemption, eviction, restore — and service
/// restarts.
pub(crate) fn engine_time(session: &Session) -> Duration {
    session.report().engine_time()
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
