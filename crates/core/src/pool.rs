//! The one session executor behind both fronts.
//! [`crate::service::SessionService`] admits a batch into a [`Pool`] and runs
//! scoped workers until every job resolves; [`crate::server::Server`] maps
//! protocol commands onto a pool that long-lived workers serve.
//!
//! The pool owns everything the scheduling laws depend on: the class queues
//! (strict priority, EDF within a class, aging), the entry table, the one
//! admission rule, the worker loop, the supervised slice and its commit,
//! quarantine, the kill rule, billing, the queue-latency ledger and eviction
//! under a resident budget. Each law therefore has one implementation:
//!
//! - **Seats.** Every unresolved (queued, running or paused) entry holds one
//!   seat in its class; admission measures a class by its seats, and an
//!   entry gives its seat back exactly once, when it resolves.
//! - **Billing telescopes.** A slice bills the growth of the session's engine
//!   time, which rides inside checkpoints, so a job's bill equals its final
//!   report's engine time across preemption, eviction, thaw and restarts (a
//!   store-recovered job books its frame-carried time on its first slice).
//! - **Eviction/thaw balance.** Every eviction parks a frame that the next
//!   slice thaws.
//! - **Quarantine and kills.** A panic escaping a slice resolves that one
//!   entry as [`ServiceError::SessionPanicked`]; an injected kill stops every
//!   worker and discards the slices still in flight, as a real crash would.
//!
//! Preemption happens only at accepted step boundaries
//! ([`Session::run_until_deadline`]), so a scheduled session takes exactly
//! the steps a sequential run takes, on either front.

use std::any::Any;
use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::fault::{Fault, FaultPlan, FaultSite};
use crate::protocol::WireState;
use crate::service::{JobClass, ServiceError};
use crate::session::{Session, SessionReport, Simulation};
use crate::store::SessionStore;
use crate::CoreError;

/// Maps an optional deadline to a totally-ordered `u64` key: non-negative
/// finite deadlines order by value (IEEE-754 bit order), `None` sorts after
/// every real deadline. Ties order FIFO by push sequence.
fn deadline_key(deadline_s: Option<f64>) -> u64 {
    match deadline_s {
        // Admission only lets non-negative finite deadlines in, and their bit
        // patterns order like the values; MAX is reserved for "no deadline".
        Some(d) => d.to_bits().min(u64::MAX - 1),
        None => u64::MAX,
    }
}

/// The class-aware run queue: strict priority across classes,
/// earliest-deadline-first (FIFO on ties) within a class, and aging so no
/// class starves.
#[derive(Debug)]
struct ClassQueues<T> {
    queues: [BTreeMap<(u64, u64), T>; JobClass::COUNT],
    next_seq: u64,
    /// Consecutive pops in which a non-empty class was passed over.
    skips: [u64; JobClass::COUNT],
    aging_passes: u64,
}

impl<T> ClassQueues<T> {
    fn new(aging_passes: u64) -> Self {
        ClassQueues {
            queues: Default::default(),
            next_seq: 0,
            skips: [0; JobClass::COUNT],
            aging_passes,
        }
    }

    fn push(&mut self, class: JobClass, deadline_s: Option<f64>, item: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queues[class.index()].insert((deadline_key(deadline_s), seq), item);
    }

    /// Pops the next runnable job: the starved-past-the-aging-bound class
    /// with the most skips if one exists, else the highest-priority
    /// non-empty class; within the class, the earliest deadline (FIFO on
    /// ties). Every other non-empty class's skip counter ages by one.
    fn pop(&mut self) -> Option<(JobClass, T)> {
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

/// The options both fronts share, validated in one place.
#[derive(Debug, Clone)]
pub(crate) struct PoolOptions {
    pub(crate) workers: Option<usize>,
    pub(crate) slice_s: f64,
    pub(crate) slice_timeout: Option<Duration>,
    pub(crate) resident_budget_bytes: Option<usize>,
    pub(crate) class_capacity: Option<usize>,
    pub(crate) aging_passes: u64,
    pub(crate) fault_plan: Option<Arc<FaultPlan>>,
}

impl PoolOptions {
    pub(crate) fn validate(&self) -> Result<(), CoreError> {
        if !(self.slice_s > 0.0) {
            return Err(CoreError::InvalidConfiguration(format!(
                "scheduling slice must be positive, got {}",
                self.slice_s
            )));
        }
        if self.workers == Some(0) {
            return Err(CoreError::InvalidConfiguration("worker count must be at least 1".into()));
        }
        if self.class_capacity == Some(0) {
            return Err(CoreError::InvalidConfiguration(
                "class capacity must admit at least one job".into(),
            ));
        }
        Ok(())
    }

    /// Worker threads: the configured count, else one per available core.
    pub(crate) fn worker_count(&self) -> usize {
        self.workers
            .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
    }
}

/// A session between slices.
pub(crate) enum Parked {
    /// Not started yet.
    Fresh(Box<Simulation>),
    /// Live session kept resident; the footprint the budget charged for it.
    Live(Box<Session>, usize),
    /// Checkpoint bytes (shared with [`Entry::last_frame`], so retaining the
    /// last good checkpoint costs no copy).
    Frozen(Arc<Vec<u8>>),
    /// A server-recovered id: the first slice loads its frame from the store.
    Stored,
}

/// A job as a front hands it to the pool.
pub(crate) struct Job {
    /// Session id; keys the job's store entry.
    pub(crate) id: String,
    /// Scenario label that failures are attributed to.
    pub(crate) label: Option<String>,
    pub(crate) class: JobClass,
    pub(crate) deadline_s: Option<f64>,
    pub(crate) parked: Parked,
    /// Re-admitted from a store frame rather than started fresh.
    pub(crate) recovered: bool,
}

/// One entry of the table. `R` is what the pool keeps of a finished session.
pub(crate) struct Entry<R> {
    pub(crate) id: String,
    pub(crate) label: Option<String>,
    pub(crate) class: JobClass,
    deadline_s: Option<f64>,
    /// The entry's lifecycle; queue tokens whose entry is no longer `Queued`
    /// are stale and dropped at pop, which is how pause and cancel take
    /// effect without queue surgery.
    pub(crate) state: WireState,
    /// `None` while running and once resolved.
    parked: Option<Parked>,
    pub(crate) billed: Duration,
    pub(crate) slices: usize,
    pub(crate) queue_latency: Duration,
    pub(crate) first_pop_ordinal: Option<u64>,
    pub(crate) evictions: usize,
    pub(crate) restores: usize,
    pub(crate) recovered: bool,
    pub(crate) degraded_writes: usize,
    /// The most recent sealed checkpoint frame: the resume point kept for
    /// entries that did not finish.
    pub(crate) last_frame: Option<Arc<Vec<u8>>>,
    /// Simulated time and closed-segment steps reached so far.
    pub(crate) time_s: f64,
    pub(crate) steps: u64,
    /// The resolution of a finished or failed entry.
    pub(crate) done: Option<Result<R, ServiceError>>,
    pause_requested: bool,
    cancel_requested: bool,
}

/// Why admission refused a job.
pub(crate) enum Refusal {
    /// The deadline is negative or not finite.
    Deadline(String),
    /// The pool is draining.
    Draining,
    /// The class already holds `capacity` seats.
    Overloaded { class: JobClass, depth: usize, capacity: usize },
}

/// A run-queue token: the entry's position plus its push timestamp (the
/// queue-latency ledger's unit of account).
struct Token {
    index: usize,
    enqueued_at: Instant,
}

/// The entry table and the ledgers, under the pool lock. Fronts read these
/// fields; every transition goes through this module, so the laws above hold
/// here alone.
pub(crate) struct State<R, F> {
    /// Entries by position, in admission order.
    pub(crate) entries: Vec<Entry<R>>,
    queue: ClassQueues<Token>,
    /// Seats per class: unresolved entries, the admission measure.
    pub(crate) seats: [usize; JobClass::COUNT],
    /// Global pop counter, stamping each entry's first scheduling.
    pops: u64,
    /// Slices in flight on workers.
    running: usize,
    pub(crate) draining: bool,
    pub(crate) killed: bool,
    pub(crate) done: u64,
    /// Failed entries, quarantined ones included.
    pub(crate) failed: u64,
    pub(crate) cancelled: u64,
    pub(crate) quarantined: usize,
    resident_bytes: usize,
    pub(crate) peak_resident_bytes: usize,
    pub(crate) evictions: usize,
    pub(crate) queue_latency_ns: [u64; JobClass::COUNT],
    /// The front's own books, kept under the same lock.
    pub(crate) front: F,
}

impl<R, F> State<R, F> {
    /// Appends `job` parked and holding a seat but not queued: a
    /// store-recovered session awaiting its resubmission.
    pub(crate) fn adopt(&mut self, job: Job) -> usize {
        self.push(job, WireState::Paused, None)
    }

    /// Appends `job` resolved on the spot with the error that refused it: a
    /// batch reports every job's outcome in submission order.
    pub(crate) fn refuse(&mut self, job: Job, error: ServiceError) -> usize {
        self.push(job, WireState::Failed, Some(Err(error)))
    }

    fn push(&mut self, job: Job, state: WireState, done: Option<Result<R, ServiceError>>) -> usize {
        if done.is_none() {
            self.seats[job.class.index()] += 1;
        }
        let last_frame = match &job.parked {
            Parked::Frozen(frame) => Some(frame.clone()),
            _ => None,
        };
        self.entries.push(Entry {
            id: job.id,
            label: job.label,
            class: job.class,
            deadline_s: job.deadline_s,
            state,
            parked: done.is_none().then_some(job.parked),
            billed: Duration::ZERO,
            slices: 0,
            queue_latency: Duration::ZERO,
            first_pop_ordinal: None,
            evictions: 0,
            restores: 0,
            recovered: job.recovered,
            degraded_writes: 0,
            last_frame,
            time_s: 0.0,
            steps: 0,
            done,
            pause_requested: false,
            cancel_requested: false,
        });
        self.entries.len() - 1
    }

    /// Takes an entry's parked session, returning a live one's footprint to
    /// the resident budget.
    fn unpark(&mut self, index: usize) -> Option<Parked> {
        let parked = self.entries[index].parked.take();
        if let Some(Parked::Live(_, footprint)) = &parked {
            self.resident_bytes -= footprint;
        }
        parked
    }

    /// Resolves an entry as done (`Some(Ok)`), failed (`Some(Err)`) or
    /// cancelled (`None`): the one place a seat is given back. Only a failed
    /// entry keeps its last frame.
    fn resolve(&mut self, index: usize, done: Option<Result<R, ServiceError>>) {
        self.unpark(index);
        let entry = &mut self.entries[index];
        entry.state = match &done {
            Some(Ok(_)) => WireState::Done,
            Some(Err(_)) => WireState::Failed,
            None => WireState::Cancelled,
        };
        if entry.state != WireState::Failed {
            entry.last_frame = None;
        }
        entry.done = done;
        self.seats[entry.class.index()] -= 1;
        match entry.state {
            WireState::Done => self.done += 1,
            WireState::Failed => self.failed += 1,
            _ => self.cancelled += 1,
        }
    }

    /// `pause`: a queued entry parks where it is; a running one parks frozen
    /// at its slice boundary. `Err` carries a resolved entry's state.
    pub(crate) fn pause(&mut self, index: usize) -> Result<(), WireState> {
        let entry = &mut self.entries[index];
        match entry.state {
            WireState::Queued => entry.state = WireState::Paused,
            WireState::Running => entry.pause_requested = true,
            WireState::Paused => {}
            resolved => return Err(resolved),
        }
        Ok(())
    }

    /// `cancel`: a queued or paused entry ends now and leaves the store; a
    /// running one ends at its slice boundary.
    pub(crate) fn cancel(&mut self, index: usize, store: &SessionStore) -> Result<(), WireState> {
        match self.entries[index].state {
            WireState::Queued | WireState::Paused => self.end_cancelled(index, store),
            WireState::Running => self.entries[index].cancel_requested = true,
            WireState::Cancelled => {}
            resolved => return Err(resolved),
        }
        Ok(())
    }

    fn end_cancelled(&mut self, index: usize, store: &SessionStore) {
        self.resolve(index, None);
        // Best effort: a failed removal leaves a frame a restart would
        // re-adopt; the cancelled state still answers in this lifetime.
        let id = &self.entries[index].id;
        let _ = store.is_active(id) && store.remove(id).is_ok();
    }
}

/// A job popped from the queue, ready for one slice.
struct Task {
    index: usize,
    parked: Parked,
    id: String,
    /// First slice of a store-recovered job: bill from zero so the
    /// frame-carried engine time is booked.
    carries_billing: bool,
}

/// What one supervised slice produced, built outside the lock.
enum SliceRun<R> {
    /// Fault-injected service kill: discard everything, stop the pool.
    Killed,
    /// A panic escaped the slice; its stringified payload.
    Panicked(String),
    Ran(Tally, Result<End<R>, CoreError>),
}

/// A slice's bookkeeping, whatever its end.
#[derive(Default)]
struct Tally {
    restored: bool,
    billed: Duration,
    degraded: usize,
    time_s: f64,
    steps: u64,
}

enum End<R> {
    Finished(R),
    Preempted(Box<Session>, Arc<Vec<u8>>),
}

/// The pool: options, the locked table and one condition variable.
pub(crate) struct Pool<R, F> {
    options: PoolOptions,
    state: Mutex<State<R, F>>,
    /// Wakes workers (a queued token, a resolution, a drain or a kill) and a
    /// drain waiting for in-flight slices.
    wake: Condvar,
}

impl<R: From<SessionReport>, F> Pool<R, F> {
    pub(crate) fn new(options: PoolOptions, front: F) -> Self {
        let queue = ClassQueues::new(options.aging_passes);
        Pool {
            options,
            state: Mutex::new(State {
                entries: Vec::new(),
                queue,
                seats: [0; JobClass::COUNT],
                pops: 0,
                running: 0,
                draining: false,
                killed: false,
                done: 0,
                failed: 0,
                cancelled: 0,
                quarantined: 0,
                resident_bytes: 0,
                peak_resident_bytes: 0,
                evictions: 0,
                queue_latency_ns: [0; JobClass::COUNT],
                front,
            }),
            wake: Condvar::new(),
        }
    }

    pub(crate) fn options(&self) -> &PoolOptions {
        &self.options
    }

    /// The pool lock, recovering from poisoning: slices run outside it and
    /// every critical section leaves the table consistent, so inheriting the
    /// guard is sound — aborting the pool is what supervision prevents.
    pub(crate) fn lock(&self) -> MutexGuard<'_, State<R, F>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn into_state(self) -> State<R, F> {
        self.state.into_inner().unwrap_or_else(PoisonError::into_inner)
    }

    /// The one admission rule, in order: a non-negative finite deadline, no
    /// drain in progress, and a free seat in the class. An entry that already
    /// holds a seat (`holds_seat`) is not measured against the capacity.
    pub(crate) fn refusal(
        &self,
        state: &State<R, F>,
        class: JobClass,
        deadline_s: Option<f64>,
        holds_seat: bool,
    ) -> Option<Refusal> {
        if let Some(deadline) = deadline_s.filter(|d| !(*d >= 0.0) || !d.is_finite()) {
            return Some(Refusal::Deadline(format!(
                "job deadline must be non-negative and finite, got {deadline}"
            )));
        }
        if state.draining {
            return Some(Refusal::Draining);
        }
        let depth = state.seats[class.index()];
        match self.options.class_capacity {
            Some(capacity) if !holds_seat && depth >= capacity => {
                Some(Refusal::Overloaded { class, depth, capacity })
            }
            _ => None,
        }
    }

    /// Appends `job` queued and holding a seat; callers check
    /// [`Pool::refusal`] first.
    pub(crate) fn admit(&self, state: &mut State<R, F>, job: Job) -> usize {
        let index = state.push(job, WireState::Queued, None);
        self.enqueue(state, index);
        index
    }

    /// Re-admits a store-recovered entry under the class and deadline of its
    /// resubmission: its seat moves with it and it queues.
    pub(crate) fn readmit(
        &self,
        state: &mut State<R, F>,
        index: usize,
        class: JobClass,
        deadline_s: Option<f64>,
    ) {
        let entry = &mut state.entries[index];
        let previous = std::mem::replace(&mut entry.class, class);
        entry.deadline_s = deadline_s;
        state.seats[previous.index()] -= 1;
        state.seats[class.index()] += 1;
        self.enqueue(state, index);
    }

    /// `resume`: a paused entry queues again; a running one drops a pending
    /// pause. `Err` carries a resolved entry's state.
    pub(crate) fn resume(&self, state: &mut State<R, F>, index: usize) -> Result<(), WireState> {
        match state.entries[index].state {
            WireState::Paused => self.enqueue(state, index),
            WireState::Running => state.entries[index].pause_requested = false,
            WireState::Queued => {}
            resolved => return Err(resolved),
        }
        Ok(())
    }

    fn enqueue(&self, state: &mut State<R, F>, index: usize) {
        let entry = &mut state.entries[index];
        entry.state = WireState::Queued;
        let token = Token { index, enqueued_at: Instant::now() };
        state.queue.push(entry.class, entry.deadline_s, token);
        self.wake.notify_one();
    }

    /// One worker: pop, run one supervised slice outside the lock, commit —
    /// until `stop` holds or the pool is killed. The slice runs under
    /// `catch_unwind`, so an escaped panic quarantines one entry instead of
    /// unwinding through the pool.
    pub(crate) fn work(&self, store: Option<&SessionStore>, stop: impl Fn(&State<R, F>) -> bool) {
        while let Some(Task { index, parked, id, carries_billing }) = self.next(&stop) {
            let run = panic::catch_unwind(AssertUnwindSafe(|| {
                self.run_slice(parked, &id, carries_billing, store)
            }))
            .unwrap_or_else(|payload| SliceRun::Panicked(panic_payload(payload)));
            self.commit(index, run, store);
        }
    }

    /// Blocks until an entry is runnable (returning it) or the worker should
    /// stop. Stale tokens are dropped here.
    fn next(&self, stop: &impl Fn(&State<R, F>) -> bool) -> Option<Task> {
        let mut state = self.lock();
        loop {
            if state.killed || stop(&state) {
                return None;
            }
            let Some((class, Token { index, enqueued_at })) = state.queue.pop() else {
                state = self.wake.wait(state).unwrap_or_else(PoisonError::into_inner);
                continue;
            };
            if state.entries[index].state != WireState::Queued {
                continue;
            }
            let waited = enqueued_at.elapsed();
            state.queue_latency_ns[class.index()] +=
                u64::try_from(waited.as_nanos()).unwrap_or(u64::MAX);
            let ordinal = state.pops;
            state.pops += 1;
            state.running += 1;
            let parked = state.unpark(index).expect("a queued entry is parked");
            let entry = &mut state.entries[index];
            entry.queue_latency += waited;
            entry.first_pop_ordinal.get_or_insert(ordinal);
            entry.state = WireState::Running;
            let carries_billing = entry.recovered && entry.slices == 0;
            return Some(Task { index, parked, id: entry.id.clone(), carries_billing });
        }
    }

    /// One slice, outside the lock: consult the slice-boundary site,
    /// materialise, advance, then finish or preempt.
    fn run_slice(
        &self,
        parked: Parked,
        id: &str,
        carries_billing: bool,
        store: Option<&SessionStore>,
    ) -> SliceRun<R> {
        match self.decide(FaultSite::SliceBoundary, 0) {
            Some(Fault::KillService) => return SliceRun::Killed,
            Some(Fault::Panic) => panic!("{}", FaultPlan::PANIC_MESSAGE),
            _ => {}
        }
        let mut tally = Tally {
            restored: matches!(parked, Parked::Frozen(_) | Parked::Stored),
            ..Tally::default()
        };
        let end = self.advance(parked, id, carries_billing, store, &mut tally);
        SliceRun::Ran(tally, end)
    }

    fn advance(
        &self,
        parked: Parked,
        id: &str,
        carries_billing: bool,
        store: Option<&SessionStore>,
        tally: &mut Tally,
    ) -> Result<End<R>, CoreError> {
        let mut session = match parked {
            Parked::Fresh(simulation) => Box::new(simulation.start()?),
            Parked::Live(session, _) => session,
            Parked::Frozen(frame) => self.thaw(&frame)?,
            Parked::Stored => {
                let store = store.expect("stored entries exist only in store-backed pools");
                let frame = store.get(id).map_err(|err| {
                    CoreError::InvalidConfiguration(format!(
                        "store-backed session `{id}` failed to load: {err}"
                    ))
                })?;
                self.thaw(&frame)?
            }
        };
        // Identity backstop for store-recovered frames: a frame whose embedded
        // scenario label disagrees with the id it was keyed under must never
        // run as that job.
        if let Some(label) =
            session.scenario_label().filter(|label| carries_billing && *label != id)
        {
            return Err(CoreError::InvalidConfiguration(format!(
                "recovered checkpoint keyed `{id}` belongs to scenario `{label}`"
            )));
        }
        let billed_before = if carries_billing { Duration::ZERO } else { engine_time(&session) };
        let deadline = self.options.slice_timeout.map(|budget| Instant::now() + budget);
        let target = session.time() + self.options.slice_s;
        let advanced = session.run_until_deadline(target, deadline);
        tally.billed = engine_time(&session).saturating_sub(billed_before);
        tally.time_s = session.time();
        tally.steps = session.engine_stats().state_space.steps as u64;
        advanced?;
        if session.is_finished() {
            // Drop the store entry only once the result is in hand; a failure
            // degrades (a crash re-runs the entry idempotently).
            if let Some(store) = store {
                if store.is_active(id) && store.remove(id).is_err() {
                    tally.degraded += 1;
                }
            }
            return Ok(End::Finished(R::from(session.report())));
        }
        if let Some(Fault::Panic) = self.decide(FaultSite::CheckpointEncode, 0) {
            panic!("{}", FaultPlan::PANIC_MESSAGE);
        }
        let frame = seal(&session, id, store, &mut tally.degraded)?;
        Ok(End::Preempted(session, frame))
    }

    fn thaw(&self, frame: &[u8]) -> Result<Box<Session>, CoreError> {
        if let Some(Fault::Panic) = self.decide(FaultSite::CheckpointDecode, frame.len()) {
            panic!("{}", FaultPlan::PANIC_MESSAGE);
        }
        Session::restore(frame).map(Box::new)
    }

    fn decide(&self, site: FaultSite, len: usize) -> Option<Fault> {
        self.options.fault_plan.as_deref().and_then(|plan| plan.decide(site, len))
    }

    /// Books a slice into the table. After a kill, in-flight results are
    /// discarded: a killed process loses them.
    fn commit(&self, index: usize, run: SliceRun<R>, store: Option<&SessionStore>) {
        let mut guard = self.lock();
        let state = &mut *guard;
        state.running -= 1;
        if state.killed {
            return;
        }
        let (tally, end) = match run {
            SliceRun::Killed => {
                state.killed = true;
                self.wake.notify_all();
                return;
            }
            SliceRun::Panicked(payload) => {
                state.entries[index].slices += 1;
                let id = state.entries[index].id.clone();
                state.resolve(index, Some(Err(ServiceError::SessionPanicked { id, payload })));
                state.quarantined += 1;
                self.wake.notify_all();
                return;
            }
            SliceRun::Ran(tally, end) => (tally, end),
        };
        let entry = &mut state.entries[index];
        entry.slices += 1;
        entry.billed += tally.billed;
        entry.degraded_writes += tally.degraded;
        entry.restores += usize::from(tally.restored);
        entry.time_s = entry.time_s.max(tally.time_s);
        entry.steps = entry.steps.max(tally.steps);
        match end {
            Err(err) => {
                let err = match &entry.label {
                    Some(label) => err.for_scenario(label.clone()),
                    None => err,
                };
                state.resolve(index, Some(Err(ServiceError::Session(err))));
            }
            Ok(End::Finished(record)) => state.resolve(index, Some(Ok(record))),
            Ok(End::Preempted(session, frame)) => {
                entry.last_frame = Some(frame.clone());
                if entry.cancel_requested {
                    state.end_cancelled(index, store.expect("only a server cancels"));
                } else if entry.pause_requested || state.draining {
                    entry.pause_requested = false;
                    entry.parked = Some(Parked::Frozen(frame));
                    entry.state = WireState::Paused;
                } else {
                    let footprint = frame.len();
                    let evict = self
                        .options
                        .resident_budget_bytes
                        .is_some_and(|budget| state.resident_bytes + footprint > budget);
                    if evict {
                        entry.evictions += 1;
                        entry.parked = Some(Parked::Frozen(frame));
                        state.evictions += 1;
                    } else {
                        entry.parked = Some(Parked::Live(session, footprint));
                        state.resident_bytes += footprint;
                        state.peak_resident_bytes =
                            state.peak_resident_bytes.max(state.resident_bytes);
                    }
                    self.enqueue(state, index);
                    return;
                }
            }
        }
        // A resolution may be a batch's last; a parked slice may be the last
        // a drain waits for.
        self.wake.notify_all();
    }

    /// Stops scheduling for a drain: wakes every idle worker (they stop) and
    /// waits until the in-flight slices have committed, or a kill.
    pub(crate) fn quiesce<'a>(
        &'a self,
        mut state: MutexGuard<'a, State<R, F>>,
    ) -> MutexGuard<'a, State<R, F>> {
        state.draining = true;
        self.wake.notify_all();
        while state.running > 0 && !state.killed {
            state = self.wake.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
        state
    }

    /// Parks every unresolved entry durably after [`Pool::quiesce`]: live
    /// sessions go through the slice's checkpoint-and-persist step, frozen
    /// frames re-persist unless the store already holds them, stored ones
    /// count when the store still has them. Consults the slice-boundary kill
    /// schedule per entry, so a drain can be killed between two persists.
    /// Returns `(checkpointed, not_started)`, or `None` once killed.
    pub(crate) fn park_all(
        &self,
        state: &mut State<R, F>,
        store: &SessionStore,
    ) -> Option<(u64, u64)> {
        if state.killed {
            return None;
        }
        let (mut checkpointed, mut not_started) = (0u64, 0u64);
        for index in 0..state.entries.len() {
            if !matches!(state.entries[index].state, WireState::Queued | WireState::Paused) {
                continue;
            }
            if let Some(Fault::KillService) = self.decide(FaultSite::SliceBoundary, 0) {
                state.killed = true;
                self.wake.notify_all();
                return None;
            }
            let parked = state.unpark(index).expect("an unresolved, idle entry is parked");
            let id = state.entries[index].id.as_str();
            let (parked, durable) = match parked {
                Parked::Fresh(simulation) => {
                    not_started += 1;
                    (Parked::Fresh(simulation), false)
                }
                Parked::Live(session, _) => {
                    let mut degraded = 0;
                    match seal(&session, id, Some(store), &mut degraded) {
                        Ok(frame) => (Parked::Frozen(frame), degraded == 0),
                        Err(err) => {
                            state.resolve(index, Some(Err(ServiceError::Session(err))));
                            continue;
                        }
                    }
                }
                Parked::Frozen(frame) => {
                    let durable = store.is_active(id) || store.put(id, &frame).is_ok();
                    (Parked::Frozen(frame), durable)
                }
                Parked::Stored => (Parked::Stored, store.is_active(id)),
            };
            checkpointed += u64::from(durable);
            let entry = &mut state.entries[index];
            entry.parked = Some(parked);
            entry.state = WireState::Paused;
        }
        Some((checkpointed, not_started))
    }
}

/// The checkpoint-and-persist step: seals `session` into a frame (the
/// eviction currency, the durable payload and the footprint estimate in
/// one) and persists it when a store is attached. A failed put degrades: the
/// frame still carries the session; only this slice's crash-recoverability
/// is lost.
fn seal(
    session: &Session,
    id: &str,
    store: Option<&SessionStore>,
    degraded: &mut usize,
) -> Result<Arc<Vec<u8>>, CoreError> {
    let frame = Arc::new(session.checkpoint()?);
    if store.is_some_and(|store| store.put(id, &frame).is_err()) {
        *degraded += 1;
    }
    Ok(frame)
}

/// Stringifies a caught panic payload (the common `&str`/`String` cases;
/// anything else gets a placeholder).
fn panic_payload(payload: Box<dyn Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(message) => *message,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(message) => (*message).to_string(),
            Err(_) => "non-string panic payload".into(),
        },
    }
}

/// The billing measure: the session report's total engine time. It folds in
/// the in-flight segment's pending engine time, so a slice that ends inside
/// an analogue segment still bills, and it rides inside checkpoints, so the
/// per-slice deltas telescope to the final report.
fn engine_time(session: &Session) -> Duration {
    session.report().engine_time()
}
