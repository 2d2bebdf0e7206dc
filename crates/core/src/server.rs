//! The session service's front door: a long-lived server that lets external
//! clients submit, steer and query [`Session`](crate::session::Session)s in
//! the [`crate::protocol`] wire grammar — over a unix socket, over
//! stdin/stdout, or in-process via [`Server::execute`]. It is the one way to
//! run many sessions at once; a grid of design points runs on the
//! [`crate::explore::Explorer`] instead.
//!
//! # Architecture
//!
//! A [`Server`] is a protocol adapter over the crate's slice pool. The pool
//! owns the crash-safe [`SessionStore`], the entry table its long-lived
//! workers serve, and the server's books, among them a map from session id
//! to pool entry; each command maps onto the pool: `submit` onto its
//! admission rule, `pause`/`resume`/`cancel` onto the entry lifecycle,
//! `drain` onto its quiesce-and-park step. The pool schedules
//! ([`JobClass`] priority, EDF within a class, starvation-proof aging),
//! checkpoints every preempted slice into the store, quarantines panics,
//! bills engine time and consults the [`FaultPlan`] hooks. Sessions arrive
//! one `submit` at a time, can be paused, resumed or cancelled mid-run, and
//! survive restarts — a new
//! [`Server::start`] over the same store directory re-adopts every session
//! the manifest records, and a resubmission of a known id is **idempotent**:
//! it re-admits from the stored frame (or just reports the live state), never
//! double-admits and never double-bills. A finished session keeps only what
//! `status` reports (time, steps and the final-state digest), so a
//! long-running server does not grow by a report per job.
//!
//! # Hardening
//!
//! - **Admission control**: [`ServerOptions::class_capacity`] bounds each
//!   class's resident sessions; submits beyond it are shed with a typed
//!   [`WireError::Overloaded`], and submits during a drain are refused with
//!   [`WireError::Draining`]. Both count in [`ServerStats::shed`], so every
//!   submit a client sends is one offer.
//! - **Graceful drain**: the `drain` command stops admissions, lets
//!   in-flight slices finish, persists every resident session through the
//!   store (sealing the manifest), and shuts the workers down — the
//!   [`DrainReport`] accounts for every entry. A (fault-injected or real)
//!   kill *during* drain is recoverable: the store is manifest-consistent
//!   after every individual persist, so a restart resumes bit-identically.
//! - **Protocol faults**: connection handlers run the fault-injected
//!   [`FrameReader`]/[`FrameWriter`]; hostile bytes produce typed errors and
//!   never touch admitted sessions.
//! - **Event-driven listener**: [`Server::serve_unix`] blocks in `accept`.
//!   Every transition into shutdown (a drain completing, a kill) connects
//!   once to each listening socket, and the listener re-checks the shutdown
//!   flag after every accepted connection, so an idle server never polls.
//!   Only a stale *socket* at the listening path is replaced; any other file
//!   there is refused and left on disk.
//!
//! Commands execute atomically under the pool lock; slices (the expensive
//! part) run outside it.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::fault::FaultPlan;
use crate::pool::{Job, Parked, Pool, Refusal, State};
use crate::protocol::{
    parse_command, Command, FrameReader, FrameWriter, ProtocolError, Response, ServerStats,
    StatusInfo, SubmitSpec, WireError, WireState, MAX_FRAME_LEN,
};
use crate::service::JobClass;
use crate::store::SessionStore;
use crate::CoreError;

/// Tuning knobs for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Worker thread count; `None` uses the machine's available parallelism
    /// (thread-per-core).
    pub workers: Option<usize>,
    /// Simulated seconds each session advances per scheduling slice.
    /// Preemption happens at the first accepted-step boundary at or past the
    /// slice target, so smaller slices mean fairer interleaving and more
    /// checkpoint traffic.
    pub slice_s: f64,
    /// Cooperative per-slice wall-clock watchdog: a slice that overruns this
    /// budget is preempted at its next accepted step boundary (at least one
    /// step always completes, so a preempted session still makes progress,
    /// and results stay bit-identical). `None` disarms it.
    pub slice_timeout: Option<Duration>,
    /// Bounded per-class admission: at most this many **resident**
    /// (admitted, unresolved — queued, running or paused) sessions per
    /// class. The front door always has a bound — unbounded accept queues
    /// are how servers die under load. Submits beyond it are shed typed.
    pub class_capacity: usize,
    /// Starvation bound for the class scheduler: a non-empty class passed
    /// over this many consecutive pops is promoted for one pop. `0` means
    /// strict priority (lower classes may starve under sustained load).
    pub aging_passes: u64,
    /// Maximum wire frame length for connections handled by this server.
    pub max_frame_len: usize,
    /// Deterministic fault plan: the pool's sites (slice boundaries, where it
    /// can also kill the server, and checkpoint encode/decode) and the wire
    /// sites ([`crate::fault::FaultSite::WireRead`] /
    /// [`crate::fault::FaultSite::WireWrite`]); arm store sites on the store
    /// itself ([`SessionStore::set_fault_plan`]).
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
                "scheduling slice must be positive, got {}",
                self.slice_s
            )));
        }
        if self.workers == Some(0) {
            return Err(CoreError::InvalidConfiguration("worker count must be at least 1".into()));
        }
        if self.class_capacity == 0 {
            return Err(CoreError::InvalidConfiguration(
                "class capacity must admit at least one job".into(),
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

    /// Worker threads: the configured count, else one per available core.
    fn worker_count(&self) -> usize {
        self.workers
            .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
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

/// The server's own books, kept under the pool lock so every command is
/// atomic.
#[derive(Default)]
pub(crate) struct Book {
    /// Pool entry of every known session id.
    ids: HashMap<String, usize>,
    offered: u64,
    admitted: u64,
    resubmitted: u64,
    shed: u64,
    drained: Option<DrainReport>,
    /// Socket paths whose listener is blocked in `accept`, taken by the
    /// shutdown wake.
    listeners: Vec<PathBuf>,
}

/// Whether the server has stopped: drained, or fault-killed.
fn shut_down(state: &State) -> bool {
    state.book.drained.is_some() || state.killed
}

/// Wakes every listener blocked in `accept` once the server has shut down:
/// one connection per recorded socket path, made outside the pool lock,
/// errors ignored. A no-op while the server runs, and idempotent — the paths
/// are taken, so each listener is woken once.
fn wake_listeners(pool: &Pool) {
    let paths = {
        let mut state = pool.lock();
        if !shut_down(&state) {
            return;
        }
        std::mem::take(&mut state.book.listeners)
    };
    for path in paths {
        #[cfg(unix)]
        let _ = std::os::unix::net::UnixStream::connect(path);
        #[cfg(not(unix))]
        let _ = path;
    }
}

/// The front-door server. Cheap to clone (connection handlers share one
/// state); see the [module docs](self) for the architecture.
#[derive(Clone)]
pub struct Server {
    pool: Arc<Pool>,
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
        let worker_count = options.worker_count();
        let pool = Arc::new(Pool::new(options, store));
        {
            let mut state = pool.lock();
            for id in pool.store().active_ids() {
                // Store-backed, not yet materialised: the frame loads on the
                // first slice after a resume or resubmit. Class and deadline
                // are not persisted — the resubmission (or a plain `resume`,
                // which keeps the batch default) supplies them.
                let index = state.adopt(Job {
                    id: id.clone(),
                    class: JobClass::Batch,
                    deadline_s: None,
                    parked: Parked::Stored,
                });
                state.book.ids.insert(id, index);
            }
        }
        let workers = (0..worker_count)
            .map(|_| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    pool.work();
                    // A fault-injected kill ends the worker loops without a
                    // drain (a drain wakes the listeners itself).
                    if pool.lock().killed {
                        wake_listeners(&pool);
                    }
                })
            })
            .collect();
        Ok(Server { pool, workers: Arc::new(Mutex::new(workers)) })
    }

    /// The store directory this server persists into.
    pub fn store_dir(&self) -> std::path::PathBuf {
        self.pool.store().dir().to_path_buf()
    }

    /// Whether the server has stopped (drained, or fault-killed).
    pub fn is_shutdown(&self) -> bool {
        shut_down(&self.pool.lock())
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
    /// admission or a second billing; a fresh id passes the pool's admission
    /// rule.
    fn submit(&self, spec: SubmitSpec) -> Response {
        let pool = &*self.pool;
        let mut state = pool.lock();
        let known = state.book.ids.get(&spec.id).copied();
        // The idempotency contract: a known id never creates a session, so a
        // client retrying a submit whose reply was dropped — or resubmitting
        // its batch after a restart — is safe. Only a store-recovered entry
        // that has not run in this lifetime is admitted again, under the
        // resubmitted class and deadline.
        let readmit = known.filter(|&index| {
            let entry = &state.entries[index];
            entry.state == WireState::Paused && entry.recovered && entry.slices == 0
        });
        if let (Some(index), None) = (known, readmit) {
            state.book.offered += 1;
            state.book.resubmitted += 1;
            return Response::Resubmitted { id: spec.id, state: state.entries[index].state };
        }
        let simulation = spec.simulation();
        let fresh = readmit.is_none().then(|| simulation.config());
        if let Some(refusal) = pool.refusal(&state, spec.class, spec.deadline_s, fresh) {
            // A malformed deadline or an invalid scenario is a malformed
            // command and books no offer; a drain or a full class sheds it.
            let error = match refusal {
                Refusal::Malformed(detail) => return Response::Error(WireError::Protocol(detail)),
                Refusal::Draining => WireError::Draining,
                Refusal::Overloaded { class, depth, capacity } => {
                    WireError::Overloaded { class, depth: depth as u64, capacity: capacity as u64 }
                }
            };
            state.book.offered += 1;
            state.book.shed += 1;
            return Response::Error(error);
        }
        state.book.offered += 1;
        if let Some(index) = readmit {
            pool.readmit(&mut state, index, spec.class, spec.deadline_s);
            state.book.resubmitted += 1;
            return Response::Resubmitted { id: spec.id, state: WireState::Queued };
        }
        let depth = state.seats[spec.class.index()] as u64 + 1;
        let job = Job {
            id: spec.id.clone(),
            class: spec.class,
            deadline_s: spec.deadline_s,
            parked: Parked::Fresh(Box::new(simulation)),
        };
        let index = pool.admit(&mut state, job);
        state.book.ids.insert(spec.id.clone(), index);
        state.book.admitted += 1;
        Response::Submitted { id: spec.id, class: spec.class, depth }
    }

    fn pause(&self, id: &str) -> Response {
        let mut state = self.pool.lock();
        let Some(&index) = state.book.ids.get(id) else { return unknown(id) };
        answer(id, state.pause(index), Response::Paused { id: id.into() })
    }

    fn resume(&self, id: &str) -> Response {
        let mut state = self.pool.lock();
        if state.draining {
            return Response::Error(WireError::Draining);
        }
        let Some(&index) = state.book.ids.get(id) else { return unknown(id) };
        let resumed = self.pool.resume(&mut state, index);
        answer(id, resumed, Response::Resumed { id: id.into() })
    }

    fn cancel(&self, id: &str) -> Response {
        let mut state = self.pool.lock();
        let Some(&index) = state.book.ids.get(id) else { return unknown(id) };
        answer(id, state.cancel(index, self.pool.store()), Response::Cancelled { id: id.into() })
    }

    fn status(&self, id: &str) -> Response {
        let state = self.pool.lock();
        let Some(&index) = state.book.ids.get(id) else { return unknown(id) };
        let entry = &state.entries[index];
        Response::Status(StatusInfo {
            id: id.into(),
            class: entry.class,
            state: entry.state,
            time_s: entry.time_s,
            steps: entry.steps,
            billed_ns: entry.billed.as_nanos(),
            recovered: entry.recovered,
            final_state_fnv: entry.done.as_ref().and_then(|done| done.as_ref().ok()).copied(),
        })
    }

    fn bill(&self, id: &str) -> Response {
        let state = self.pool.lock();
        let Some(&index) = state.book.ids.get(id) else { return unknown(id) };
        Response::Billed { id: id.into(), billed_ns: state.entries[index].billed.as_nanos() }
    }

    /// A point-in-time snapshot of the aggregate counters.
    pub fn stats(&self) -> ServerStats {
        let state = self.pool.lock();
        let book = &state.book;
        ServerStats {
            draining: state.draining,
            offered: book.offered,
            admitted: book.admitted,
            resubmitted: book.resubmitted,
            shed: book.shed,
            done: state.done,
            failed: state.failed,
            cancelled: state.cancelled,
            depths: state.seats.map(|seats| seats as u64),
            queue_latency_ns: state.queue_latency_ns,
        }
    }

    /// Graceful drain: stop admissions and scheduling, wait out in-flight
    /// slices, persist every resident session (sealing the store manifest
    /// with each write); the workers exit and the listeners are woken.
    /// Idempotent — a second `drain` returns the same report.
    fn drain(&self) -> Response {
        let started = Instant::now();
        let state = self.pool.lock();
        if let Some(report) = state.book.drained {
            return drained_response(report);
        }
        if state.killed {
            return Response::Error(WireError::Failed("server was killed".into()));
        }
        let mut state = self.pool.quiesce(state);
        let response = match self.pool.park_all(&mut state) {
            Some((checkpointed, not_started)) => {
                let report = DrainReport { checkpointed, not_started, duration: started.elapsed() };
                state.book.drained = Some(report);
                drained_response(report)
            }
            None => Response::Error(WireError::Failed("server was killed during drain".into())),
        };
        drop(state);
        wake_listeners(&self.pool);
        response
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
        let options = self.pool.options();
        let plan = options.fault_plan.clone();
        let mut reader = FrameReader::new(read, options.max_frame_len, plan.clone());
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
    /// each) until the server shuts down (drain or kill), then shuts the read
    /// side of every open connection, so idle handlers end, and removes the
    /// socket file. The listener blocks in `accept`; the shutdown wakes it
    /// with one connection. A stale socket file at `path` is replaced.
    ///
    /// # Errors
    ///
    /// [`std::io::ErrorKind::AlreadyExists`] if `path` holds anything but a
    /// socket (the file is left as it is), else the bind/accept error, if
    /// the listener itself fails.
    #[cfg(unix)]
    pub fn serve_unix(&self, path: &Path) -> std::io::Result<()> {
        remove_socket(path)?;
        let listener = std::os::unix::net::UnixListener::bind(path)?;
        let served = self.accept_until_shutdown(&listener, path);
        let _ = remove_socket(path);
        served
    }

    #[cfg(unix)]
    fn accept_until_shutdown(
        &self,
        listener: &std::os::unix::net::UnixListener,
        path: &Path,
    ) -> std::io::Result<()> {
        // Registered atomically with the shutdown check: a later shutdown
        // wakes this listener, an earlier one ends it here.
        {
            let mut state = self.pool.lock();
            if shut_down(&state) {
                return Ok(());
            }
            state.book.listeners.push(path.to_path_buf());
        }
        // Each running handler's connection, held so the shutdown can wake
        // a handler blocked in `read`; finished ones are dropped per accept.
        let mut handlers: Vec<(std::os::unix::net::UnixStream, std::thread::JoinHandle<()>)> =
            Vec::new();
        let served = loop {
            match listener.accept() {
                Ok(_) if self.is_shutdown() => break Ok(()),
                Ok((stream, _)) => {
                    handlers.retain(|(_, handler)| !handler.is_finished());
                    let Ok(held) = stream.try_clone() else { continue };
                    let server = self.clone();
                    let handler = std::thread::spawn(move || {
                        let _ = server.handle_connection(&stream, &stream);
                        // `held` keeps the socket open past this drop, so
                        // close the connection explicitly.
                        let _ = stream.shutdown(std::net::Shutdown::Both);
                    });
                    handlers.push((held, handler));
                }
                Err(err) if err.kind() == std::io::ErrorKind::Interrupted => {}
                Err(err) => break Err(err),
            }
        };
        self.pool.lock().book.listeners.retain(|listening| listening != path);
        // Read side only: the handler that ran the drain writes its reply
        // after this wake. Not joined, so a peer that stops reading cannot
        // hold up the return.
        for (held, _) in &handlers {
            let _ = held.shutdown(std::net::Shutdown::Read);
        }
        served
    }
}

/// Removes the socket file at `path`, if there is one. Anything else there
/// is refused and stays on disk, so a mistyped path cannot delete a file.
#[cfg(unix)]
fn remove_socket(path: &Path) -> std::io::Result<()> {
    use std::os::unix::fs::FileTypeExt;
    match std::fs::symlink_metadata(path) {
        Ok(meta) if meta.file_type().is_socket() => std::fs::remove_file(path),
        Ok(_) => Err(std::io::Error::new(
            std::io::ErrorKind::AlreadyExists,
            format!("{} exists and is not a socket; refusing to replace it", path.display()),
        )),
        Err(err) if err.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(err) => Err(err),
    }
}

fn unknown(id: &str) -> Response {
    Response::Error(WireError::UnknownSession { id: id.into() })
}

/// Answers a lifecycle command: `ok` on success, else the typed state error.
fn answer(id: &str, result: Result<(), WireState>, ok: Response) -> Response {
    match result {
        Ok(()) => ok,
        Err(state) => Response::Error(WireError::InvalidState { id: id.into(), state }),
    }
}

fn drained_response(report: DrainReport) -> Response {
    Response::Drained {
        checkpointed: report.checkpointed,
        not_started: report.not_started,
        duration_ms: report.duration.as_millis() as u64,
    }
}
