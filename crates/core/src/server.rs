//! The session service's front door: a long-lived server that admits,
//! schedules, checkpoints and bills [`Session`]s on behalf of external
//! clients speaking the [`crate::protocol`] wire grammar — over a unix
//! socket, over stdin/stdout, or in-process via [`Server::execute`].
//!
//! # Architecture
//!
//! A [`Server`] owns a crash-safe [`SessionStore`] and a worker pool that
//! advances admitted sessions one time slice at a time, exactly like the
//! batch [`crate::service::SessionService`] — same class queues
//! ([`JobClass`] priority, EDF within class, starvation-proof aging), same
//! checkpoint-on-preempt durability, same panic quarantine, same
//! deterministic [`FaultPlan`] hooks. The difference is lifecycle: sessions
//! arrive one `submit` at a time, can be paused/resumed/cancelled mid-run,
//! and survive server restarts — a new [`Server::start`] over the same
//! store directory re-adopts every session the manifest records, and a
//! resubmission of a known id is **idempotent**: it re-admits from the
//! stored frame (or just reports the live state), never double-admits and
//! never double-bills.
//!
//! # Hardening
//!
//! - **Admission control**: [`ServerOptions::class_capacity`] bounds each
//!   class's accept queue; submits beyond it are shed with a typed
//!   [`WireError::Overloaded`] and counted in [`ServerStats::shed`].
//! - **Graceful drain**: the `drain` command stops admissions, lets
//!   in-flight slices finish, persists every resident session through the
//!   store (sealing the manifest), and shuts the workers down — the
//!   [`DrainReport`] accounts for every entry. A (fault-injected or real)
//!   kill *during* drain is recoverable: the store is manifest-consistent
//!   after every individual persist, so a restart resumes bit-identically.
//! - **Protocol faults**: connection handlers run the fault-injected
//!   [`FrameReader`]/[`FrameWriter`]; hostile bytes produce typed errors and
//!   never touch admitted sessions.
//!
//! Commands execute atomically under one state lock; slices (the expensive
//! part) run outside it.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::checkpoint::fnv1a64;
use crate::fault::{Fault, FaultPlan, FaultSite};
use crate::protocol::{
    parse_command, Command, FrameReader, FrameWriter, ProtocolError, Response, ServerStats,
    StatusInfo, SubmitSpec, WireError, WireState, MAX_FRAME_LEN,
};
use crate::service::{engine_time, panic_payload, ClassQueues, JobClass};
use crate::session::{Session, SessionReport, Simulation};
use crate::store::SessionStore;
use crate::CoreError;

/// Tuning knobs for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Worker thread count; `None` uses available parallelism.
    pub workers: Option<usize>,
    /// Simulated seconds per scheduling slice (see
    /// [`crate::service::ServiceOptions::slice_s`]).
    pub slice_s: f64,
    /// Cooperative per-slice wall-clock watchdog; `None` disarms it.
    pub slice_timeout: Option<Duration>,
    /// Bounded per-class admission: at most this many **resident**
    /// (admitted, unresolved — queued, running or paused) sessions per
    /// class. The front door always has a bound — unbounded accept queues
    /// are how servers die under load. Submits beyond it are shed typed.
    pub class_capacity: usize,
    /// Starvation bound for the class scheduler (see
    /// [`crate::service::ServiceOptions::aging_passes`]).
    pub aging_passes: u64,
    /// Maximum wire frame length for connections handled by this server.
    pub max_frame_len: usize,
    /// Deterministic fault plan: slice boundaries ([`FaultSite::SliceBoundary`])
    /// and the wire sites ([`FaultSite::WireRead`] / [`FaultSite::WireWrite`]);
    /// arm store sites on the store itself.
    pub fault_plan: Option<Arc<FaultPlan>>,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            workers: None,
            slice_s: 0.05,
            slice_timeout: None,
            class_capacity: 64,
            aging_passes: 8,
            max_frame_len: MAX_FRAME_LEN,
            fault_plan: None,
        }
    }
}

impl ServerOptions {
    fn validate(&self) -> Result<(), CoreError> {
        if !(self.slice_s > 0.0) {
            return Err(CoreError::InvalidConfiguration(format!(
                "server slice must be positive, got {}",
                self.slice_s
            )));
        }
        if self.workers == Some(0) {
            return Err(CoreError::InvalidConfiguration(
                "server worker count must be at least 1".into(),
            ));
        }
        if self.class_capacity == 0 {
            return Err(CoreError::InvalidConfiguration(
                "server class capacity must admit at least one session".into(),
            ));
        }
        if self.max_frame_len < 64 {
            return Err(CoreError::InvalidConfiguration(format!(
                "server frame limit of {} bytes cannot fit the grammar (min 64)",
                self.max_frame_len
            )));
        }
        Ok(())
    }
}

/// What a completed drain accounted for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Resident sessions whose latest frame is durable in the store (persisted
    /// by the drain, or already manifest-consistent).
    pub checkpointed: u64,
    /// Admitted-but-never-started sessions: nothing to checkpoint, they
    /// restart fresh when resubmitted after the restart.
    pub not_started: u64,
    /// Wall-clock drain duration.
    pub duration: Duration,
}

/// A parked session between slices (the server-side mirror of the batch
/// scheduler's parking states).
enum EntryParked {
    /// Admitted, never ran.
    Fresh(Box<Simulation>),
    /// Live session kept resident for cheap resumption.
    Live(Box<Session>),
    /// Checkpoint bytes (a paused session, or one parked during drain).
    Frozen(Arc<Vec<u8>>),
}

impl std::fmt::Debug for EntryParked {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EntryParked::Fresh(_) => f.write_str("Fresh"),
            EntryParked::Live(_) => f.write_str("Live"),
            EntryParked::Frozen(frame) => write!(f, "Frozen({} bytes)", frame.len()),
        }
    }
}

/// Entry lifecycle. The entry map is the source of truth; queue tokens are
/// scheduling hints (a token whose entry is no longer `Queued` is dropped at
/// pop, which is how pause/cancel take effect without queue surgery).
#[derive(Debug, Clone, PartialEq)]
enum EntryState {
    Queued,
    Running,
    Paused,
    Done,
    Failed(String),
    Cancelled,
}

#[derive(Debug)]
struct Entry {
    class: JobClass,
    deadline_s: Option<f64>,
    state: EntryState,
    /// `None` while running, and for store-backed entries not yet
    /// materialised (recovered at startup; the first slice loads the frame).
    parked: Option<EntryParked>,
    billed: Duration,
    queue_latency: Duration,
    slices: u64,
    time_s: f64,
    steps: u64,
    final_state_fnv: Option<u64>,
    recovered: bool,
    pause_requested: bool,
    cancel_requested: bool,
}

impl Entry {
    fn wire_state(&self) -> WireState {
        match self.state {
            EntryState::Queued => WireState::Queued,
            EntryState::Running => WireState::Running,
            EntryState::Paused => WireState::Paused,
            EntryState::Done => WireState::Done,
            EntryState::Failed(_) => WireState::Failed,
            EntryState::Cancelled => WireState::Cancelled,
        }
    }
}

/// A run-queue token: the entry id plus its push timestamp (the unit of the
/// queue-latency ledger).
struct QueueItem {
    id: String,
    enqueued_at: Instant,
}

struct ServerState {
    entries: BTreeMap<String, Entry>,
    queue: ClassQueues<QueueItem>,
    /// Per-class resident (admitted, unresolved) session counts — the
    /// admission-control measure. Queue tokens can be stale; this cannot.
    resident: [u64; JobClass::COUNT],
    /// Slices currently advancing on workers.
    running: usize,
    draining: bool,
    drained: Option<DrainReport>,
    /// Workers exit; accept loops stop.
    shutdown: bool,
    /// A fault-injected service kill: like shutdown, but abrupt — in-flight
    /// work is discarded, drain aborts.
    killed: bool,
    offered: u64,
    admitted: u64,
    resubmitted: u64,
    shed: u64,
    done: u64,
    failed: u64,
    cancelled: u64,
    queue_latency_ns: [u64; JobClass::COUNT],
}

struct ServerShared {
    store: SessionStore,
    options: ServerOptions,
    state: Mutex<ServerState>,
    /// Wakes workers (new queue tokens, shutdown).
    work: Condvar,
    /// Wakes the drain waiter (a running slice retired).
    idle: Condvar,
}

/// What one supervised slice produced (built outside the state lock).
enum SliceOutcome {
    Killed,
    Failed {
        detail: String,
        billed: Duration,
        time_s: f64,
        steps: u64,
    },
    Finished {
        report: Box<SessionReport>,
        billed: Duration,
    },
    Preempted {
        session: Box<Session>,
        frame: Arc<Vec<u8>>,
        billed: Duration,
        time_s: f64,
        steps: u64,
    },
}

/// The front-door server. Cheap to clone (connection handlers share one
/// state); see the [module docs](self) for the architecture.
#[derive(Clone)]
pub struct Server {
    shared: Arc<ServerShared>,
    /// Worker handles, joined by [`Server::join`].
    workers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl Server {
    /// Starts a server over `store`: re-adopts every session the store's
    /// manifest records (as paused, resumable entries) and spawns the worker
    /// pool.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfiguration`] for invalid options.
    pub fn start(store: SessionStore, options: ServerOptions) -> Result<Server, CoreError> {
        options.validate()?;
        let mut entries = BTreeMap::new();
        let mut residents = [0u64; JobClass::COUNT];
        for id in store.active_ids() {
            residents[JobClass::Batch.index()] += 1;
            // Store-backed, not yet materialised: the frame loads lazily on
            // the first slice after a resume/resubmit. Class and deadline are
            // not persisted — the resubmission (or a plain `resume`, which
            // keeps the batch default) supplies them.
            entries.insert(
                id,
                Entry {
                    class: JobClass::Batch,
                    deadline_s: None,
                    state: EntryState::Paused,
                    parked: None,
                    billed: Duration::ZERO,
                    queue_latency: Duration::ZERO,
                    slices: 0,
                    time_s: 0.0,
                    steps: 0,
                    final_state_fnv: None,
                    recovered: true,
                    pause_requested: false,
                    cancel_requested: false,
                },
            );
        }
        let default_workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        let worker_count = options.workers.unwrap_or(default_workers).max(1);
        let aging = options.aging_passes;
        let shared = Arc::new(ServerShared {
            store,
            options,
            state: Mutex::new(ServerState {
                entries,
                queue: ClassQueues::new(aging),
                resident: residents,
                running: 0,
                draining: false,
                drained: None,
                shutdown: false,
                killed: false,
                offered: 0,
                admitted: 0,
                resubmitted: 0,
                shed: 0,
                done: 0,
                failed: 0,
                cancelled: 0,
                queue_latency_ns: [0; JobClass::COUNT],
            }),
            work: Condvar::new(),
            idle: Condvar::new(),
        });
        let workers = (0..worker_count)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Ok(Server { shared, workers: Arc::new(Mutex::new(workers)) })
    }

    /// The store directory this server persists into.
    pub fn store_dir(&self) -> std::path::PathBuf {
        self.shared.store.dir().to_path_buf()
    }

    /// Whether the server has stopped (drained, or fault-killed).
    pub fn is_shutdown(&self) -> bool {
        let state = lock(&self.shared);
        state.shutdown || state.killed
    }

    /// Joins the worker pool (call after a drain or kill).
    pub fn join(&self) {
        let handles: Vec<_> =
            self.workers.lock().unwrap_or_else(PoisonError::into_inner).drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
    }

    /// Executes one command against the server state. This is the in-process
    /// face of the protocol — every transport funnels here, and every
    /// command is atomic under the state lock. Total: never panics, every
    /// failure is a typed [`Response::Error`].
    pub fn execute(&self, command: Command) -> Response {
        match command {
            Command::Ping => Response::Pong,
            Command::Submit(spec) => self.submit(spec),
            Command::Pause { id } => self.pause(&id),
            Command::Resume { id } => self.resume(&id),
            Command::Cancel { id } => self.cancel(&id),
            Command::Status { id } => self.status(&id),
            Command::Bill { id } => self.bill(&id),
            Command::Stats => Response::Stats(self.stats()),
            Command::Drain => self.drain(),
        }
    }

    /// Idempotent admission: a known id is reported (and, when it is a
    /// store-recovered entry, re-admitted from its frame) without a second
    /// admission or a second billing; a fresh id passes admission control.
    fn submit(&self, spec: SubmitSpec) -> Response {
        let mut state = lock(&self.shared);
        state.offered += 1;
        if let Some(entry) = state.entries.get_mut(&spec.id) {
            // The idempotency contract: this path never creates a session,
            // so a client retrying a submit whose reply was dropped — or
            // resubmitting its batch after a server restart — is safe.
            if entry.state == EntryState::Paused && entry.recovered && entry.slices == 0 {
                // Store-recovered and never run in this lifetime: adopt the
                // resubmitted class/deadline and re-enqueue from the frame.
                let previous = entry.class;
                entry.class = spec.class;
                entry.deadline_s = spec.deadline_s;
                entry.state = EntryState::Queued;
                let (class, deadline_s, id) = (entry.class, entry.deadline_s, spec.id.clone());
                state.resident[previous.index()] -= 1;
                state.resident[class.index()] += 1;
                state.resubmitted += 1;
                state.queue.push(class, deadline_s, QueueItem { id, enqueued_at: Instant::now() });
                self.shared.work.notify_one();
                return Response::Resubmitted { id: spec.id, state: WireState::Queued };
            }
            let wire = entry.wire_state();
            state.resubmitted += 1;
            return Response::Resubmitted { id: spec.id, state: wire };
        }
        if state.draining {
            return Response::Error(WireError::Draining);
        }
        let class = spec.class;
        let depth = state.resident[class.index()];
        let capacity = self.shared.options.class_capacity as u64;
        if depth >= capacity {
            state.shed += 1;
            return Response::Error(WireError::Overloaded { class, depth, capacity });
        }
        state.admitted += 1;
        state.resident[class.index()] += 1;
        let simulation = Box::new(spec.simulation());
        state.entries.insert(
            spec.id.clone(),
            Entry {
                class,
                deadline_s: spec.deadline_s,
                state: EntryState::Queued,
                parked: Some(EntryParked::Fresh(simulation)),
                billed: Duration::ZERO,
                queue_latency: Duration::ZERO,
                slices: 0,
                time_s: 0.0,
                steps: 0,
                final_state_fnv: None,
                recovered: false,
                pause_requested: false,
                cancel_requested: false,
            },
        );
        state.queue.push(
            class,
            spec.deadline_s,
            QueueItem { id: spec.id.clone(), enqueued_at: Instant::now() },
        );
        self.shared.work.notify_one();
        Response::Submitted { id: spec.id, class, depth: depth + 1 }
    }

    fn pause(&self, id: &str) -> Response {
        let mut state = lock(&self.shared);
        let Some(entry) = state.entries.get_mut(id) else {
            return Response::Error(WireError::UnknownSession { id: id.into() });
        };
        match entry.state {
            EntryState::Queued => {
                // The queue token goes stale; the parked session stays put
                // (and stays resident — paused work still holds its seat).
                entry.state = EntryState::Paused;
                Response::Paused { id: id.into() }
            }
            EntryState::Running => {
                // Takes effect at the slice boundary — the session is parked
                // as checkpoint bytes instead of being requeued.
                entry.pause_requested = true;
                Response::Paused { id: id.into() }
            }
            EntryState::Paused => Response::Paused { id: id.into() },
            _ => Response::Error(WireError::InvalidState {
                id: id.into(),
                state: entry.wire_state(),
            }),
        }
    }

    fn resume(&self, id: &str) -> Response {
        let mut state = lock(&self.shared);
        if state.draining {
            return Response::Error(WireError::Draining);
        }
        let Some(entry) = state.entries.get_mut(id) else {
            return Response::Error(WireError::UnknownSession { id: id.into() });
        };
        match entry.state {
            EntryState::Paused => {
                entry.state = EntryState::Queued;
                let (class, deadline_s) = (entry.class, entry.deadline_s);
                state.queue.push(
                    class,
                    deadline_s,
                    QueueItem { id: id.into(), enqueued_at: Instant::now() },
                );
                self.shared.work.notify_one();
                Response::Resumed { id: id.into() }
            }
            EntryState::Running => {
                // Cancels a pending pause; idempotent otherwise.
                entry.pause_requested = false;
                Response::Resumed { id: id.into() }
            }
            EntryState::Queued => Response::Resumed { id: id.into() },
            _ => Response::Error(WireError::InvalidState {
                id: id.into(),
                state: entry.wire_state(),
            }),
        }
    }

    fn cancel(&self, id: &str) -> Response {
        let mut state = lock(&self.shared);
        let Some(entry) = state.entries.get_mut(id) else {
            return Response::Error(WireError::UnknownSession { id: id.into() });
        };
        match entry.state {
            EntryState::Queued | EntryState::Paused => {
                entry.state = EntryState::Cancelled;
                entry.parked = None;
                let class = entry.class;
                state.cancelled += 1;
                state.resident[class.index()] -= 1;
                // Best-effort: a failed removal leaves a frame a restart
                // would re-adopt; the cancelled state still answers status
                // in this lifetime.
                let _ = self.shared.store.is_active(id) && self.shared.store.remove(id).is_ok();
                Response::Cancelled { id: id.into() }
            }
            EntryState::Running => {
                entry.cancel_requested = true;
                Response::Cancelled { id: id.into() }
            }
            EntryState::Cancelled => Response::Cancelled { id: id.into() },
            _ => Response::Error(WireError::InvalidState {
                id: id.into(),
                state: entry.wire_state(),
            }),
        }
    }

    fn status(&self, id: &str) -> Response {
        let state = lock(&self.shared);
        let Some(entry) = state.entries.get(id) else {
            return Response::Error(WireError::UnknownSession { id: id.into() });
        };
        Response::Status(StatusInfo {
            id: id.into(),
            class: entry.class,
            state: entry.wire_state(),
            time_s: entry.time_s,
            steps: entry.steps,
            billed_ns: entry.billed.as_nanos(),
            recovered: entry.recovered,
            final_state_fnv: entry.final_state_fnv,
        })
    }

    fn bill(&self, id: &str) -> Response {
        let state = lock(&self.shared);
        let Some(entry) = state.entries.get(id) else {
            return Response::Error(WireError::UnknownSession { id: id.into() });
        };
        Response::Billed { id: id.into(), billed_ns: entry.billed.as_nanos() }
    }

    /// A point-in-time snapshot of the aggregate counters.
    pub fn stats(&self) -> ServerStats {
        let state = lock(&self.shared);
        let mut depths = [0u64; JobClass::COUNT];
        for class in JobClass::ALL {
            depths[class.index()] = state.resident[class.index()];
        }
        ServerStats {
            draining: state.draining,
            offered: state.offered,
            admitted: state.admitted,
            resubmitted: state.resubmitted,
            shed: state.shed,
            done: state.done,
            failed: state.failed,
            cancelled: state.cancelled,
            depths,
            queue_latency_ns: state.queue_latency_ns,
        }
    }

    /// Graceful drain: stop admissions and scheduling, wait out in-flight
    /// slices, persist every resident session (sealing the store manifest
    /// with each write), then shut the worker pool down. Idempotent — a
    /// second `drain` returns the same report.
    fn drain(&self) -> Response {
        let started = Instant::now();
        let mut state = lock(&self.shared);
        if let Some(report) = state.drained {
            return drained_response(report);
        }
        if state.killed {
            return Response::Error(WireError::Failed("server was killed".into()));
        }
        state.draining = true;
        // Workers stop popping once draining; wait for in-flight slices.
        while state.running > 0 && !state.killed {
            state = self.shared.idle.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
        if state.killed {
            return Response::Error(WireError::Failed("server was killed during drain".into()));
        }
        let plan = self.shared.options.fault_plan.as_deref();
        let mut checkpointed = 0u64;
        let mut not_started = 0u64;
        let ids: Vec<String> = state.entries.keys().cloned().collect();
        for id in ids {
            let entry = state.entries.get_mut(&id).expect("id just listed");
            if !matches!(entry.state, EntryState::Queued | EntryState::Paused) {
                continue;
            }
            // The kill-during-drain torture: a crash between two persists
            // leaves a manifest-consistent store either way.
            if let Some(Fault::KillService) =
                plan.and_then(|p| p.decide(FaultSite::SliceBoundary, 0))
            {
                state.killed = true;
                state.shutdown = true;
                self.shared.work.notify_all();
                self.shared.idle.notify_all();
                return Response::Error(WireError::Failed("server was killed during drain".into()));
            }
            match entry.parked.take() {
                Some(EntryParked::Fresh(simulation)) => {
                    // Never ran: no frame to persist; it restarts fresh when
                    // resubmitted after the restart.
                    not_started += 1;
                    entry.parked = Some(EntryParked::Fresh(simulation));
                    entry.state = EntryState::Paused;
                }
                Some(EntryParked::Live(session)) => match session.checkpoint() {
                    Ok(bytes) => {
                        let frame = Arc::new(bytes);
                        if self.shared.store.put(&id, &frame).is_ok() {
                            checkpointed += 1;
                        }
                        entry.parked = Some(EntryParked::Frozen(frame));
                        entry.state = EntryState::Paused;
                    }
                    Err(err) => {
                        entry.state = EntryState::Failed(format!("checkpoint failed: {err}"));
                        state.failed += 1;
                    }
                },
                Some(EntryParked::Frozen(frame)) => {
                    // Re-persist: heals any earlier degraded (failed) write.
                    if self.shared.store.is_active(&id)
                        || self.shared.store.put(&id, &frame).is_ok()
                    {
                        checkpointed += 1;
                    }
                    entry.parked = Some(EntryParked::Frozen(frame));
                    entry.state = EntryState::Paused;
                }
                None => {
                    // Store-backed (recovered, never materialised): already
                    // durable and manifest-consistent.
                    if self.shared.store.is_active(&id) {
                        checkpointed += 1;
                    }
                    entry.state = EntryState::Paused;
                }
            }
        }
        let report = DrainReport { checkpointed, not_started, duration: started.elapsed() };
        state.drained = Some(report);
        state.shutdown = true;
        self.shared.work.notify_all();
        drained_response(report)
    }

    /// Serves one connection: frames in, typed responses out, faults
    /// injected per the server's plan. Returns when the peer closes cleanly,
    /// the server shuts down, or the connection dies (typed).
    ///
    /// # Errors
    ///
    /// The [`ProtocolError`] that ended the connection, if it did not end
    /// cleanly. Malformed *commands* are not connection errors — they are
    /// answered with `err protocol …` and the connection continues; only
    /// transport-level failures (disconnect, truncation, a frame past the
    /// length bound) close it.
    pub fn handle_connection<R: Read, W: Write>(
        &self,
        read: R,
        write: W,
    ) -> Result<(), ProtocolError> {
        let plan = self.shared.options.fault_plan.clone();
        let mut reader = FrameReader::new(read, self.shared.options.max_frame_len, plan.clone());
        let mut writer = FrameWriter::new(write, plan);
        loop {
            let frame = match reader.next_frame() {
                Ok(Some(frame)) => frame,
                Ok(None) => return Ok(()),
                Err(err @ (ProtocolError::Disconnected | ProtocolError::Truncated)) => {
                    return Err(err)
                }
                Err(err) => {
                    // Framing is unrecoverable (oversized frame, bad UTF-8,
                    // transport error): answer typed, then close.
                    let reply = Response::Error(WireError::Protocol(err.to_string()));
                    let _ = writer.write_frame(&reply.to_line());
                    return Err(err);
                }
            };
            if frame.trim().is_empty() {
                continue;
            }
            let response = match parse_command(&frame) {
                Ok(command) => self.execute(command),
                Err(err) => Response::Error(WireError::Protocol(err.to_string())),
            };
            let drained = matches!(response, Response::Drained { .. });
            writer.write_frame(&response.to_line())?;
            if drained || self.is_shutdown() {
                return Ok(());
            }
        }
    }

    /// Serves stdin/stdout until the input closes or the server drains.
    ///
    /// # Errors
    ///
    /// The [`ProtocolError`] that ended the stream, as in
    /// [`Server::handle_connection`].
    pub fn serve_stdio(&self) -> Result<(), ProtocolError> {
        self.handle_connection(std::io::stdin().lock(), std::io::stdout().lock())
    }

    /// Binds `path` and serves unix-socket connections (one handler thread
    /// each) until the server shuts down (drain or kill). A stale socket
    /// file at `path` is replaced.
    ///
    /// # Errors
    ///
    /// The bind/accept error, if the listener itself fails.
    #[cfg(unix)]
    pub fn serve_unix(&self, path: &std::path::Path) -> std::io::Result<()> {
        let _ = std::fs::remove_file(path);
        let listener = std::os::unix::net::UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        while !self.is_shutdown() {
            match listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nonblocking(false);
                    let server = self.clone();
                    std::thread::spawn(move || {
                        let Ok(read_half) = stream.try_clone() else { return };
                        let _ = server.handle_connection(read_half, stream);
                    });
                }
                Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(err) if err.kind() == std::io::ErrorKind::Interrupted => {}
                Err(err) => {
                    let _ = std::fs::remove_file(path);
                    return Err(err);
                }
            }
        }
        let _ = std::fs::remove_file(path);
        Ok(())
    }
}

fn drained_response(report: DrainReport) -> Response {
    Response::Drained {
        checkpointed: report.checkpointed,
        not_started: report.not_started,
        duration_ms: report.duration.as_millis() as u64,
    }
}

fn lock(shared: &ServerShared) -> MutexGuard<'_, ServerState> {
    // Same poison-recovery argument as the batch scheduler: slices panic
    // outside the lock, critical sections stay consistent.
    shared.state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One worker: pop a token, validate it against the entry map, run one
/// supervised slice outside the lock, commit. Stale tokens (their entry
/// paused/cancelled since the push) are dropped here — that is the whole
/// pause/cancel mechanism.
fn worker_loop(shared: &ServerShared) {
    loop {
        let (id, parked, carries_billing) = {
            let mut state = lock(shared);
            loop {
                if state.shutdown || state.killed {
                    return;
                }
                if !state.draining {
                    if let Some((class, item)) = state.queue.pop() {
                        let Some(entry) = state.entries.get_mut(&item.id) else { continue };
                        if entry.state != EntryState::Queued {
                            continue; // stale token
                        }
                        let waited = item.enqueued_at.elapsed();
                        entry.queue_latency += waited;
                        entry.state = EntryState::Running;
                        let carries = entry.recovered && entry.slices == 0;
                        let parked = entry.parked.take();
                        state.queue_latency_ns[class.index()] +=
                            u64::try_from(waited.as_nanos()).unwrap_or(u64::MAX);
                        state.running += 1;
                        break (item.id, parked, carries);
                    }
                }
                state = shared.work.wait(state).unwrap_or_else(PoisonError::into_inner);
            }
        };
        let run = panic::catch_unwind(AssertUnwindSafe(|| {
            run_slice(shared, &id, parked, carries_billing)
        }));
        let outcome = run.unwrap_or_else(|payload| SliceOutcome::Failed {
            detail: format!("session panicked and was quarantined: {}", panic_payload(payload)),
            billed: Duration::ZERO,
            time_s: 0.0,
            steps: 0,
        });
        commit_slice(shared, &id, outcome);
    }
}

/// One scheduling slice, outside the lock: materialise (fresh start, live
/// reuse, thaw from bytes, or load from the store), advance one slice,
/// then finish or checkpoint-and-persist. Mirrors the batch scheduler's
/// slice discipline, so server results are bit-identical to sequential runs.
fn run_slice(
    shared: &ServerShared,
    id: &str,
    parked: Option<EntryParked>,
    carries_billing: bool,
) -> SliceOutcome {
    let options = &shared.options;
    let plan = options.fault_plan.as_deref();
    match plan.and_then(|p| p.decide(FaultSite::SliceBoundary, 0)) {
        Some(Fault::KillService) => return SliceOutcome::Killed,
        Some(Fault::Panic) => panic!("{}", FaultPlan::PANIC_MESSAGE),
        _ => {}
    }
    let session = match parked {
        Some(EntryParked::Fresh(simulation)) => simulation.start().map(Box::new),
        Some(EntryParked::Live(session)) => Ok(session),
        Some(EntryParked::Frozen(bytes)) => Session::restore(&bytes).map(Box::new),
        None => shared
            .store
            .get(id)
            .map_err(|err| {
                CoreError::InvalidConfiguration(format!(
                    "store-backed session `{id}` failed to load: {err}"
                ))
            })
            .and_then(|bytes| Session::restore(&bytes))
            .map(Box::new),
    };
    let mut session = match session {
        Ok(session) => session,
        Err(err) => {
            return SliceOutcome::Failed {
                detail: err.to_string(),
                billed: Duration::ZERO,
                time_s: 0.0,
                steps: 0,
            }
        }
    };
    // Identity backstop for recovered frames (same as the batch scheduler).
    if carries_billing {
        if let Some(label) = session.scenario_label() {
            if label != id {
                return SliceOutcome::Failed {
                    detail: format!(
                        "recovered checkpoint keyed `{id}` belongs to scenario `{label}`"
                    ),
                    billed: Duration::ZERO,
                    time_s: 0.0,
                    steps: 0,
                };
            }
        }
    }
    let billed_before = if carries_billing { Duration::ZERO } else { engine_time(&session) };
    let deadline = options.slice_timeout.map(|budget| Instant::now() + budget);
    let target = session.time() + options.slice_s;
    let advanced = session.run_until_deadline(target, deadline);
    let billed = engine_time(&session).saturating_sub(billed_before);
    let time_s = session.time();
    let steps = session.engine_stats().state_space.steps as u64;
    if let Err(err) = advanced {
        return SliceOutcome::Failed { detail: err.to_string(), billed, time_s, steps };
    }
    if session.is_finished() {
        let _ = shared.store.is_active(id) && shared.store.remove(id).is_ok();
        return SliceOutcome::Finished { report: Box::new(session.report()), billed };
    }
    let frame = match session.checkpoint() {
        Ok(bytes) => Arc::new(bytes),
        Err(err) => return SliceOutcome::Failed { detail: err.to_string(), billed, time_s, steps },
    };
    // Persist-on-preempt: the crash-recovery currency. A failed put degrades
    // (the resident frozen copy still carries the session).
    let _ = shared.store.put(id, &frame);
    SliceOutcome::Preempted { session, frame, billed, time_s, steps }
}

/// Books a slice's outcome and decides the entry's next state: requeue,
/// pause (requested or drain-parked), cancel, finish, or quarantine.
fn commit_slice(shared: &ServerShared, id: &str, outcome: SliceOutcome) {
    let mut state = lock(shared);
    state.running -= 1;
    match outcome {
        SliceOutcome::Killed => {
            state.killed = true;
            state.shutdown = true;
            shared.work.notify_all();
        }
        SliceOutcome::Failed { detail, billed, time_s, steps } => {
            if let Some(entry) = state.entries.get_mut(id) {
                entry.slices += 1;
                entry.billed += billed;
                entry.time_s = entry.time_s.max(time_s);
                entry.steps = entry.steps.max(steps);
                entry.state = EntryState::Failed(detail);
                entry.pause_requested = false;
                entry.cancel_requested = false;
                let class = entry.class;
                state.resident[class.index()] -= 1;
            }
            state.failed += 1;
        }
        SliceOutcome::Finished { report, billed } => {
            if let Some(entry) = state.entries.get_mut(id) {
                entry.slices += 1;
                entry.billed += billed;
                entry.time_s = report.time_s;
                entry.steps = report.engine_stats.state_space.steps as u64;
                entry.final_state_fnv = Some(final_state_fnv(&report));
                entry.state = EntryState::Done;
                entry.pause_requested = false;
                entry.cancel_requested = false;
                let class = entry.class;
                state.resident[class.index()] -= 1;
            }
            state.done += 1;
        }
        SliceOutcome::Preempted { session, frame, billed, time_s, steps } => {
            let mut requeue: Option<(JobClass, Option<f64>)> = None;
            let draining = state.draining;
            let mut cancelled = false;
            if let Some(entry) = state.entries.get_mut(id) {
                entry.slices += 1;
                entry.billed += billed;
                entry.time_s = time_s;
                entry.steps = steps;
                if entry.cancel_requested {
                    entry.cancel_requested = false;
                    entry.pause_requested = false;
                    entry.state = EntryState::Cancelled;
                    entry.parked = None;
                    let class = entry.class;
                    state.resident[class.index()] -= 1;
                    cancelled = true;
                } else if entry.pause_requested || draining {
                    entry.pause_requested = false;
                    // Frozen under pause/drain: the frame is already durable
                    // (persist-on-preempt), so a following drain or kill
                    // finds it manifest-consistent.
                    entry.parked = Some(EntryParked::Frozen(frame));
                    entry.state = EntryState::Paused;
                } else {
                    entry.parked = Some(EntryParked::Live(session));
                    entry.state = EntryState::Queued;
                    requeue = Some((entry.class, entry.deadline_s));
                }
            }
            if cancelled {
                state.cancelled += 1;
                let _ = shared.store.is_active(id) && shared.store.remove(id).is_ok();
            }
            if let Some((class, deadline_s)) = requeue {
                state.queue.push(
                    class,
                    deadline_s,
                    QueueItem { id: id.into(), enqueued_at: Instant::now() },
                );
                shared.work.notify_one();
            }
        }
    }
    if state.draining && state.running == 0 {
        shared.idle.notify_all();
    }
}

/// The wire-level bit-identity witness: FNV-1a over the final state vector's
/// little-endian bytes. Two runs agree on this iff they agree on every bit
/// of the final state.
fn final_state_fnv(report: &SessionReport) -> u64 {
    let mut bytes = Vec::with_capacity(report.final_state.len() * 8);
    for value in report.final_state.as_slice() {
        bytes.extend_from_slice(&value.to_le_bytes());
    }
    fnv1a64(&bytes)
}
