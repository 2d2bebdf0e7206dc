//! The session executor behind [`crate::server::Server`]: the server maps
//! protocol commands onto a [`Pool`] that long-lived workers serve.
//!
//! The pool owns everything the scheduling laws depend on: the class queues
//! (strict priority, EDF within a class, aging), the entry table, the one
//! admission rule, the worker loop, the supervised slice and its commit,
//! quarantine, the kill rule, billing and the queue-latency ledger. Each law
//! therefore has one implementation:
//!
//! - **Seats.** Every unresolved (queued, running or paused) entry holds one
//!   seat in its class; admission measures a class by its seats, and an
//!   entry gives its seat back exactly once, when it resolves.
//! - **Billing telescopes.** A slice bills the growth of the session's engine
//!   time, which rides inside checkpoints, so a job's bill equals its
//!   report's engine time across preemption, pause, drain and restarts (a
//!   store-recovered job books its frame-carried time on its first slice).
//! - **Quarantine and kills.** A panic escaping a slice resolves that one
//!   entry as [`ServiceError::SessionPanicked`]; an injected kill stops every
//!   worker and discards the slices still in flight, as a real crash would.
//!
//! Preemption happens only at accepted step boundaries
//! ([`Session::run_until_deadline`]), so a scheduled session takes exactly
//! the steps a sequential run takes.

use std::any::Any;
use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::checkpoint::fnv1a64;
use crate::fault::{Fault, FaultPlan, FaultSite};
use crate::protocol::WireState;
use crate::scenario::ScenarioConfig;
use crate::server::{Book, ServerOptions};
use crate::service::{JobClass, ServiceError};
use crate::session::{Session, Simulation};
use crate::store::SessionStore;
use crate::CoreError;
use harvsim_linalg::DVector;

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

/// Starvation bound of the server's class scheduler: a non-empty class passed
/// over this many consecutive pops is promoted for one pop.
const AGING_PASSES: u64 = 8;

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

/// A session between slices.
pub(crate) enum Parked {
    /// Not started yet.
    Fresh(Box<Simulation>),
    /// Live session kept resident between slices.
    Live(Box<Session>),
    /// Checkpoint bytes: a session paused at its slice boundary or parked by
    /// a drain.
    Frozen(Vec<u8>),
    /// A store-recovered id: the first slice loads its frame from the store.
    Stored,
}

/// A job as the server hands it to the pool.
pub(crate) struct Job {
    /// Session id; keys the job's store entry.
    pub(crate) id: String,
    pub(crate) class: JobClass,
    pub(crate) deadline_s: Option<f64>,
    pub(crate) parked: Parked,
}

/// One entry of the table.
pub(crate) struct Entry {
    pub(crate) id: String,
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
    /// Recovered from a store frame rather than started fresh.
    pub(crate) recovered: bool,
    /// Simulated time and closed-segment steps reached so far.
    pub(crate) time_s: f64,
    pub(crate) steps: u64,
    /// The resolution of a finished or failed entry: the final-state digest
    /// ([`final_state_fnv`]), or the typed failure.
    pub(crate) done: Option<Result<u64, ServiceError>>,
    pause_requested: bool,
    cancel_requested: bool,
}

/// Why admission refused a job.
pub(crate) enum Refusal {
    /// The deadline is negative or not finite, or a fresh job's scenario
    /// fails validation: a malformed command.
    Malformed(String),
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

/// The entry table and the ledgers, under the pool lock. The server reads
/// these fields; every transition goes through this module, so the laws
/// above hold here alone.
pub(crate) struct State {
    /// Entries by position, in admission order.
    pub(crate) entries: Vec<Entry>,
    queue: ClassQueues<Token>,
    /// Seats per class: unresolved entries, the admission measure.
    pub(crate) seats: [usize; JobClass::COUNT],
    /// Slices in flight on workers.
    running: usize,
    pub(crate) draining: bool,
    pub(crate) killed: bool,
    pub(crate) done: u64,
    /// Failed entries, quarantined ones included.
    pub(crate) failed: u64,
    pub(crate) cancelled: u64,
    pub(crate) queue_latency_ns: [u64; JobClass::COUNT],
    /// The server's own books, kept under the same lock.
    pub(crate) book: Book,
}

impl State {
    /// Appends `job` parked and holding a seat but not queued: a
    /// store-recovered session awaiting its resubmission.
    pub(crate) fn adopt(&mut self, job: Job) -> usize {
        self.push(job, WireState::Paused)
    }

    fn push(&mut self, job: Job, state: WireState) -> usize {
        self.seats[job.class.index()] += 1;
        let recovered = matches!(job.parked, Parked::Stored);
        self.entries.push(Entry {
            id: job.id,
            class: job.class,
            deadline_s: job.deadline_s,
            state,
            parked: Some(job.parked),
            billed: Duration::ZERO,
            slices: 0,
            recovered,
            time_s: 0.0,
            steps: 0,
            done: None,
            pause_requested: false,
            cancel_requested: false,
        });
        self.entries.len() - 1
    }

    /// Resolves an entry as done (`Some(Ok)`), failed (`Some(Err)`) or
    /// cancelled (`None`): the one place a seat is given back.
    fn resolve(&mut self, index: usize, done: Option<Result<u64, ServiceError>>) {
        let entry = &mut self.entries[index];
        entry.parked = None;
        entry.state = match &done {
            Some(Ok(_)) => WireState::Done,
            Some(Err(_)) => WireState::Failed,
            None => WireState::Cancelled,
        };
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
enum SliceRun {
    /// Fault-injected kill: discard everything, stop the pool.
    Killed,
    /// A panic escaped the slice; its stringified payload.
    Panicked(String),
    Ran(Tally, Result<End, CoreError>),
}

/// A slice's bookkeeping, whatever its end.
#[derive(Default)]
struct Tally {
    billed: Duration,
    time_s: f64,
    steps: u64,
}

enum End {
    /// The final-state digest.
    Finished(u64),
    Preempted(Box<Session>, Vec<u8>),
}

/// The pool: the server's options and store, the locked table and one
/// condition variable.
pub(crate) struct Pool {
    options: ServerOptions,
    store: SessionStore,
    state: Mutex<State>,
    /// Wakes workers (a queued token, a drain or a kill) and a drain waiting
    /// for in-flight slices.
    wake: Condvar,
}

impl Pool {
    /// An empty pool over `store`; `options` are validated by the server.
    pub(crate) fn new(options: ServerOptions, store: SessionStore) -> Self {
        let queue = ClassQueues::new(AGING_PASSES);
        Pool {
            options,
            store,
            state: Mutex::new(State {
                entries: Vec::new(),
                queue,
                seats: [0; JobClass::COUNT],
                running: 0,
                draining: false,
                killed: false,
                done: 0,
                failed: 0,
                cancelled: 0,
                queue_latency_ns: [0; JobClass::COUNT],
                book: Book::default(),
            }),
            wake: Condvar::new(),
        }
    }

    pub(crate) fn options(&self) -> &ServerOptions {
        &self.options
    }

    pub(crate) fn store(&self) -> &SessionStore {
        &self.store
    }

    /// The pool lock, recovering from poisoning: slices run outside it and
    /// every critical section leaves the table consistent, so inheriting the
    /// guard is sound — aborting the pool is what supervision prevents.
    pub(crate) fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The one admission rule, in order: a non-negative finite deadline, a
    /// fresh job's scenario that validates, no drain in progress, and a free
    /// seat in the class. `fresh` carries a fresh job's scenario; a
    /// store-recovered entry passes `None`, because its frame is its recipe
    /// and it already holds a seat, so it is not measured against the
    /// capacity either.
    pub(crate) fn refusal(
        &self,
        state: &State,
        class: JobClass,
        deadline_s: Option<f64>,
        fresh: Option<&ScenarioConfig>,
    ) -> Option<Refusal> {
        if let Some(deadline) = deadline_s.filter(|d| !(*d >= 0.0) || !d.is_finite()) {
            return Some(Refusal::Malformed(format!(
                "job deadline must be non-negative and finite, got {deadline}"
            )));
        }
        if let Some(Err(err)) = fresh.map(ScenarioConfig::validate) {
            return Some(Refusal::Malformed(format!("scenario refused: {err}")));
        }
        if state.draining {
            return Some(Refusal::Draining);
        }
        let depth = state.seats[class.index()];
        let capacity = self.options.class_capacity;
        let full = fresh.is_some() && depth >= capacity;
        full.then_some(Refusal::Overloaded { class, depth, capacity })
    }

    /// Appends `job` queued and holding a seat; callers check
    /// [`Pool::refusal`] first.
    pub(crate) fn admit(&self, state: &mut State, job: Job) -> usize {
        let index = state.push(job, WireState::Queued);
        self.enqueue(state, index);
        index
    }

    /// Re-admits a store-recovered entry under the class and deadline of its
    /// resubmission: its seat moves with it and it queues.
    pub(crate) fn readmit(
        &self,
        state: &mut State,
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
    pub(crate) fn resume(&self, state: &mut State, index: usize) -> Result<(), WireState> {
        match state.entries[index].state {
            WireState::Paused => self.enqueue(state, index),
            WireState::Running => state.entries[index].pause_requested = false,
            WireState::Queued => {}
            resolved => return Err(resolved),
        }
        Ok(())
    }

    fn enqueue(&self, state: &mut State, index: usize) {
        let entry = &mut state.entries[index];
        entry.state = WireState::Queued;
        let token = Token { index, enqueued_at: Instant::now() };
        state.queue.push(entry.class, entry.deadline_s, token);
        self.wake.notify_one();
    }

    /// One worker: pop, run one supervised slice outside the lock, commit —
    /// until the pool drains or is killed. The slice runs under
    /// `catch_unwind`, so an escaped panic quarantines one entry instead of
    /// unwinding through the pool.
    pub(crate) fn work(&self) {
        while let Some(Task { index, parked, id, carries_billing }) = self.next() {
            let run = panic::catch_unwind(AssertUnwindSafe(|| {
                self.run_slice(parked, &id, carries_billing)
            }))
            .unwrap_or_else(|payload| SliceRun::Panicked(panic_payload(payload)));
            self.commit(index, run);
        }
    }

    /// Blocks until an entry is runnable (returning it) or the worker should
    /// stop. Stale tokens are dropped here.
    fn next(&self) -> Option<Task> {
        let mut state = self.lock();
        loop {
            if state.killed || state.draining {
                return None;
            }
            let Some((class, Token { index, enqueued_at })) = state.queue.pop() else {
                state = self.wake.wait(state).unwrap_or_else(PoisonError::into_inner);
                continue;
            };
            if state.entries[index].state != WireState::Queued {
                continue;
            }
            state.queue_latency_ns[class.index()] +=
                u64::try_from(enqueued_at.elapsed().as_nanos()).unwrap_or(u64::MAX);
            state.running += 1;
            let entry = &mut state.entries[index];
            let parked = entry.parked.take().expect("a queued entry is parked");
            entry.state = WireState::Running;
            let carries_billing = entry.recovered && entry.slices == 0;
            return Some(Task { index, parked, id: entry.id.clone(), carries_billing });
        }
    }

    /// One slice, outside the lock: consult the slice-boundary site,
    /// materialise, advance, then finish or preempt.
    fn run_slice(&self, parked: Parked, id: &str, carries_billing: bool) -> SliceRun {
        match self.decide(FaultSite::SliceBoundary, 0) {
            Some(Fault::KillService) => return SliceRun::Killed,
            Some(Fault::Panic) => panic!("{}", FaultPlan::PANIC_MESSAGE),
            _ => {}
        }
        let mut tally = Tally::default();
        let end = self.advance(parked, id, carries_billing, &mut tally);
        SliceRun::Ran(tally, end)
    }

    fn advance(
        &self,
        parked: Parked,
        id: &str,
        carries_billing: bool,
        tally: &mut Tally,
    ) -> Result<End, CoreError> {
        let mut session = match parked {
            Parked::Fresh(simulation) => Box::new(simulation.start()?),
            Parked::Live(session) => session,
            Parked::Frozen(frame) => self.thaw(&frame)?,
            Parked::Stored => {
                let frame = self.store.get(id).map_err(|err| {
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
            // Drop the store entry only once the result is in hand. A failed
            // removal leaves a frame a restart re-adopts, and re-running from
            // it reaches the same final state.
            if self.store.is_active(id) {
                let _ = self.store.remove(id);
            }
            return Ok(End::Finished(final_state_fnv(&session.report().final_state)));
        }
        if let Some(Fault::Panic) = self.decide(FaultSite::CheckpointEncode, 0) {
            panic!("{}", FaultPlan::PANIC_MESSAGE);
        }
        let (frame, _) = self.seal(&session, id)?;
        Ok(End::Preempted(session, frame))
    }

    fn thaw(&self, frame: &[u8]) -> Result<Box<Session>, CoreError> {
        if let Some(Fault::Panic) = self.decide(FaultSite::CheckpointDecode, frame.len()) {
            panic!("{}", FaultPlan::PANIC_MESSAGE);
        }
        Session::restore(frame).map(Box::new)
    }

    /// The checkpoint-and-persist step: seals `session` into a frame and puts
    /// it in the store, returning the frame and whether the put succeeded. A
    /// failed put degrades: the session carries on, and only this slice's
    /// crash-recoverability is lost.
    fn seal(&self, session: &Session, id: &str) -> Result<(Vec<u8>, bool), CoreError> {
        let frame = session.checkpoint()?;
        let durable = self.store.put(id, &frame).is_ok();
        Ok((frame, durable))
    }

    fn decide(&self, site: FaultSite, len: usize) -> Option<Fault> {
        self.options.fault_plan.as_deref().and_then(|plan| plan.decide(site, len))
    }

    /// Books a slice into the table. After a kill, in-flight results are
    /// discarded: a killed process loses them.
    fn commit(&self, index: usize, run: SliceRun) {
        let mut guard = self.lock();
        let state = &mut *guard;
        state.running -= 1;
        if state.killed {
            return;
        }
        match run {
            SliceRun::Killed => state.killed = true,
            SliceRun::Panicked(payload) => {
                state.entries[index].slices += 1;
                let id = state.entries[index].id.clone();
                state.resolve(index, Some(Err(ServiceError::SessionPanicked { id, payload })));
            }
            SliceRun::Ran(tally, end) => {
                let entry = &mut state.entries[index];
                entry.slices += 1;
                entry.billed += tally.billed;
                entry.time_s = entry.time_s.max(tally.time_s);
                entry.steps = entry.steps.max(tally.steps);
                match end {
                    Err(err) => state.resolve(index, Some(Err(ServiceError::Session(err)))),
                    Ok(End::Finished(digest)) => state.resolve(index, Some(Ok(digest))),
                    Ok(End::Preempted(_, _)) if entry.cancel_requested => {
                        state.end_cancelled(index, &self.store);
                    }
                    Ok(End::Preempted(_, frame)) if entry.pause_requested || state.draining => {
                        entry.pause_requested = false;
                        entry.parked = Some(Parked::Frozen(frame));
                        entry.state = WireState::Paused;
                    }
                    Ok(End::Preempted(session, _)) => {
                        entry.parked = Some(Parked::Live(session));
                        self.enqueue(state, index);
                        return;
                    }
                }
            }
        }
        // A kill stops every worker; a resolution or a parked slice may be
        // the last a drain waits for.
        self.wake.notify_all();
    }

    /// Stops scheduling for a drain: wakes every idle worker (they stop) and
    /// waits until the in-flight slices have committed, or a kill.
    pub(crate) fn quiesce<'a>(&'a self, mut state: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
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
    pub(crate) fn park_all(&self, state: &mut State) -> Option<(u64, u64)> {
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
            let entry = &mut state.entries[index];
            let parked = entry.parked.take().expect("an unresolved, idle entry is parked");
            let id = entry.id.as_str();
            let (parked, durable) = match parked {
                Parked::Fresh(simulation) => {
                    not_started += 1;
                    (Parked::Fresh(simulation), false)
                }
                Parked::Live(session) => match self.seal(&session, id) {
                    Ok((frame, durable)) => (Parked::Frozen(frame), durable),
                    Err(err) => {
                        state.resolve(index, Some(Err(ServiceError::Session(err))));
                        continue;
                    }
                },
                Parked::Frozen(frame) => {
                    let durable = self.store.is_active(id) || self.store.put(id, &frame).is_ok();
                    (Parked::Frozen(frame), durable)
                }
                Parked::Stored => (Parked::Stored, self.store.is_active(id)),
            };
            checkpointed += u64::from(durable);
            let entry = &mut state.entries[index];
            entry.parked = Some(parked);
            entry.state = WireState::Paused;
        }
        Some((checkpointed, not_started))
    }
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

/// The wire-level bit-identity witness: FNV-1a over the final state vector's
/// little-endian bytes. Two runs agree on this iff they agree on every bit
/// of the final state.
pub(crate) fn final_state_fnv(final_state: &DVector) -> u64 {
    let mut bytes = Vec::with_capacity(final_state.len() * 8);
    for value in final_state.as_slice() {
        bytes.extend_from_slice(&value.to_le_bytes());
    }
    fnv1a64(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pushes `(class, deadline)` items numbered by position and returns the
    /// numbers in pop order.
    fn pop_order(aging_passes: u64, items: &[(JobClass, Option<f64>)]) -> Vec<usize> {
        let mut queues = ClassQueues::new(aging_passes);
        for (k, &(class, deadline_s)) in items.iter().enumerate() {
            queues.push(class, deadline_s, k);
        }
        std::iter::from_fn(|| queues.pop().map(|(_, k)| k)).collect()
    }

    #[test]
    fn deadlines_order_scheduling_within_a_class() {
        // Pushed in reverse deadline order, with deadline-less items in the
        // middle: pops follow the deadlines, then the deadline-less items in
        // push (FIFO) order.
        let deadlines = [Some(9.0), Some(7.0), None, Some(1.0), None, Some(4.0), Some(0.5)];
        let items: Vec<_> = deadlines.iter().map(|&d| (JobClass::Batch, d)).collect();
        assert_eq!(pop_order(8, &items), [6, 3, 5, 1, 0, 2, 4]);
        // Equal deadlines tie FIFO.
        let ties = [(JobClass::Batch, Some(1.0)); 3];
        assert_eq!(pop_order(8, &ties), [0, 1, 2]);
    }

    #[test]
    fn classes_schedule_in_strict_priority_when_aging_is_lax() {
        // Pushed in inverted priority order; with a huge aging bound, or none,
        // the pop order is pure class priority, FIFO within each class.
        let items = [
            (JobClass::BestEffort, None),
            (JobClass::BestEffort, None),
            (JobClass::Batch, None),
            (JobClass::Batch, None),
            (JobClass::Interactive, None),
            (JobClass::Interactive, None),
        ];
        for aging_passes in [1_000_000, 0] {
            assert_eq!(pop_order(aging_passes, &items), [4, 5, 2, 3, 0, 1], "aging {aging_passes}");
        }
    }

    #[test]
    fn aging_bounds_starvation_of_lower_classes() {
        // One best-effort item pushed first, then a wall of interactive ones.
        // With `aging_passes = 2` it is passed over exactly twice and then
        // promoted for one pop; strict priority pops it dead last.
        const WALL: usize = 12;
        let mut items = vec![(JobClass::BestEffort, None)];
        items.extend([(JobClass::Interactive, None); WALL]);
        let position = |order: Vec<usize>| order.iter().position(|&k| k == 0).unwrap();
        assert_eq!(
            position(pop_order(2, &items)),
            2,
            "aging failed to rescue the best-effort item"
        );
        assert_eq!(position(pop_order(1_000_000, &items)), WALL, "strict priority control run");
        // The promotion resets the counter: the aged class waits its bound
        // again. Two best-effort items among interactive ones pop at 2 and 5.
        let mut items = vec![(JobClass::BestEffort, None); 2];
        items.extend([(JobClass::Interactive, None); WALL]);
        let order = pop_order(2, &items);
        let positions: Vec<usize> =
            [0, 1].iter().map(|k| order.iter().position(|j| j == k).unwrap()).collect();
        assert_eq!(positions, [2, 5]);
    }
}
