//! The session service's wire protocol: newline-framed, UTF-8, line-oriented
//! commands and responses, hardened against hostile and unlucky clients.
//!
//! # Frame & grammar
//!
//! A frame is one UTF-8 line terminated by `\n` (a trailing `\r` is
//! tolerated), at most [`MAX_FRAME_LEN`] bytes by default. Commands are
//! whitespace-separated tokens: a verb, positional arguments, then
//! `key=value` options in any order. The full grammar table lives in
//! DESIGN.md §11; the short form:
//!
//! ```text
//! ping
//! submit <id> [class=interactive|batch|best-effort] [deadline=<s>]
//!             [scenario=1|2] [duration=<s>] [step-at=<s>] [v0=<V>]
//! pause <id>        resume <id>       cancel <id>
//! status <id>       bill <id>         stats
//! drain
//! ```
//!
//! Responses are a single line starting `ok` or `err`. Both directions parse
//! with the same discipline: **arbitrary bytes in produce a typed
//! [`ProtocolError`], never a panic** — the fuzz battery in
//! `tests/protocol_fuzz.rs` pins every single-byte flip, truncation and
//! garbage stream of the grammar to that contract.
//!
//! # Fault injection
//!
//! [`FrameReader`] and [`FrameWriter`] consult an optional [`FaultPlan`] at
//! [`FaultSite::WireRead`] / [`FaultSite::WireWrite`]: frame truncation
//! (a client dying mid-write), garbage bytes (bit flips in flight),
//! mid-command disconnects, and slow/stalled peers are all injectable
//! deterministically, the same way the store's torn writes are.

use std::io::{Read, Write};
use std::sync::Arc;
use std::time::Duration;

use crate::fault::{apply_bit_flip, apply_stall, Fault, FaultPlan, FaultSite};
use crate::service::JobClass;
use crate::session::Simulation;
use crate::ScenarioConfig;

/// Default maximum frame length in bytes (including the newline). Frames
/// beyond the limit are rejected typed, never buffered unboundedly.
pub const MAX_FRAME_LEN: usize = 4096;

/// Maximum accepted session-id length on the wire (matches the store's
/// [`crate::store`] id bound).
const MAX_ID_LEN: usize = 512;

/// Longest failure cause a status line carries, in bytes: with a
/// [`MAX_ID_LEN`] id and every other field at its widest, the line stays
/// within [`MAX_FRAME_LEN`].
const MAX_CAUSE_LEN: usize = 1024;

/// A failure cause as a status line carries it: control characters become
/// spaces, so a newline in a panic payload cannot split the frame, and the
/// text is cut on a char boundary at [`MAX_CAUSE_LEN`] bytes.
pub(crate) fn wire_cause(text: &str) -> String {
    let mut end = text.len().min(MAX_CAUSE_LEN);
    while !text.is_char_boundary(end) {
        end -= 1;
    }
    text[..end].chars().map(|c| if c.is_control() { ' ' } else { c }).collect()
}

/// A typed protocol failure: parsing, framing, or transport. Everything a
/// hostile byte stream can do lands in exactly one of these variants.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ProtocolError {
    /// The line was empty (or whitespace only).
    Empty,
    /// A frame exceeded the reader's maximum length.
    FrameTooLong {
        /// Bytes buffered when the limit tripped.
        len: usize,
        /// The configured limit.
        max: usize,
    },
    /// The frame was not valid UTF-8.
    InvalidUtf8,
    /// The verb is not part of the grammar.
    UnknownCommand(String),
    /// A required argument was missing.
    MissingArgument {
        /// The command verb.
        command: &'static str,
        /// The missing argument.
        argument: &'static str,
    },
    /// An argument failed validation.
    InvalidArgument {
        /// The argument (or option key).
        argument: String,
        /// The offending value.
        value: String,
        /// Why it was rejected.
        reason: String,
    },
    /// The stream ended mid-frame (no terminating newline) — a client died
    /// mid-write, or an injected truncation.
    Truncated,
    /// The peer disconnected (or an injected mid-command disconnect).
    Disconnected,
    /// An underlying transport error, stringified.
    Io(String),
    /// A response line could not be parsed (client side).
    MalformedResponse(String),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Empty => write!(f, "empty command"),
            ProtocolError::FrameTooLong { len, max } => {
                write!(f, "frame of {len}+ bytes exceeds the {max}-byte limit")
            }
            ProtocolError::InvalidUtf8 => write!(f, "frame is not valid UTF-8"),
            ProtocolError::UnknownCommand(verb) => write!(f, "unknown command `{verb}`"),
            ProtocolError::MissingArgument { command, argument } => {
                write!(f, "`{command}` requires <{argument}>")
            }
            ProtocolError::InvalidArgument { argument, value, reason } => {
                write!(f, "invalid {argument} `{value}`: {reason}")
            }
            ProtocolError::Truncated => write!(f, "stream ended mid-frame"),
            ProtocolError::Disconnected => write!(f, "peer disconnected"),
            ProtocolError::Io(detail) => write!(f, "transport error: {detail}"),
            ProtocolError::MalformedResponse(line) => {
                write!(f, "malformed response line: {line}")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Everything a client can ask the front door to do.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Command {
    /// Liveness check.
    Ping,
    /// Admit (or idempotently re-admit) a session.
    Submit(SubmitSpec),
    /// Stop scheduling `id` after its current slice; state is retained.
    Pause {
        /// Session id.
        id: String,
    },
    /// Re-enqueue a paused (or store-recovered) session.
    Resume {
        /// Session id.
        id: String,
    },
    /// Cancel `id`: it stops after its current slice and its store entry is
    /// removed.
    Cancel {
        /// Session id.
        id: String,
    },
    /// One session's state line.
    Status {
        /// Session id.
        id: String,
    },
    /// Engine time billed to `id` so far.
    Bill {
        /// Session id.
        id: String,
    },
    /// Aggregate server counters (admission, sheds, depths, drain state).
    Stats,
    /// Graceful drain: stop admissions, checkpoint every resident session
    /// through the store, seal the manifest, and shut the workers down.
    Drain,
}

/// The `submit` command's payload: which scenario to run, how, and under
/// which scheduling class/deadline.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitSpec {
    /// Session id — the idempotency key: resubmitting an id the server
    /// already knows never double-admits or double-bills.
    pub id: String,
    /// Scheduling class (default [`JobClass::Batch`]).
    pub class: JobClass,
    /// EDF deadline within the class, seconds (non-negative, finite).
    pub deadline_s: Option<f64>,
    /// Paper scenario preset, 1 or 2 (default 1).
    pub scenario: u8,
    /// Simulated span override, seconds.
    pub duration_s: Option<f64>,
    /// Ambient-frequency step time override, seconds.
    pub step_at_s: Option<f64>,
    /// Initial supercapacitor voltage override, volts.
    pub initial_voltage: Option<f64>,
}

impl SubmitSpec {
    /// A batch-class submit of scenario 1 with no overrides.
    pub fn new(id: impl Into<String>) -> Self {
        SubmitSpec {
            id: id.into(),
            class: JobClass::Batch,
            deadline_s: None,
            scenario: 1,
            duration_s: None,
            step_at_s: None,
            initial_voltage: None,
        }
    }

    /// Materialises the spec into a labelled [`Simulation`] builder.
    pub fn simulation(&self) -> Simulation {
        let mut config = match self.scenario {
            2 => ScenarioConfig::scenario2(),
            _ => ScenarioConfig::scenario1(),
        };
        if let Some(duration) = self.duration_s {
            config.duration_s = duration;
        }
        if let Some(step_at) = self.step_at_s {
            config.frequency_step_time_s = step_at;
        }
        if let Some(v0) = self.initial_voltage {
            config.initial_supercap_voltage = v0;
        }
        config.label = Some(self.id.clone());
        Simulation::from_config(config)
    }

    /// Re-encodes the spec as its wire line (inverse of parsing).
    pub fn to_line(&self) -> String {
        let mut line = format!("submit {} class={}", self.id, self.class);
        if let Some(d) = self.deadline_s {
            line.push_str(&format!(" deadline={d}"));
        }
        line.push_str(&format!(" scenario={}", self.scenario));
        if let Some(d) = self.duration_s {
            line.push_str(&format!(" duration={d}"));
        }
        if let Some(s) = self.step_at_s {
            line.push_str(&format!(" step-at={s}"));
        }
        if let Some(v) = self.initial_voltage {
            line.push_str(&format!(" v0={v}"));
        }
        line
    }
}

/// A session's lifecycle state as reported over the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireState {
    /// Admitted, waiting in its class queue.
    Queued,
    /// Currently advancing a slice on a worker.
    Running,
    /// Parked by `pause` (or recovered from the store and not yet resumed).
    Paused,
    /// Finished with a report.
    Done,
    /// Failed typed (engine error or quarantined panic).
    Failed,
    /// Cancelled by the client.
    Cancelled,
}

impl WireState {
    /// Wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            WireState::Queued => "queued",
            WireState::Running => "running",
            WireState::Paused => "paused",
            WireState::Done => "done",
            WireState::Failed => "failed",
            WireState::Cancelled => "cancelled",
        }
    }

    /// Parses the wire spelling.
    pub fn parse(s: &str) -> Option<WireState> {
        match s {
            "queued" => Some(WireState::Queued),
            "running" => Some(WireState::Running),
            "paused" => Some(WireState::Paused),
            "done" => Some(WireState::Done),
            "failed" => Some(WireState::Failed),
            "cancelled" => Some(WireState::Cancelled),
            _ => None,
        }
    }
}

impl std::fmt::Display for WireState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One session's status line (the `status <id>` payload).
#[derive(Debug, Clone, PartialEq)]
pub struct StatusInfo {
    /// Session id.
    pub id: String,
    /// Scheduling class.
    pub class: JobClass,
    /// Lifecycle state.
    pub state: WireState,
    /// Simulated time reached, seconds.
    pub time_s: f64,
    /// Accepted integration steps so far (both engines).
    pub steps: u64,
    /// Engine time billed so far, nanoseconds.
    pub billed_ns: u128,
    /// Whether the session was re-admitted from a store frame.
    pub recovered: bool,
    /// FNV-1a-64 digest of the final state vector bytes — present once
    /// `Done`, the wire-level bit-identity witness.
    pub final_state_fnv: Option<u64>,
    /// Why the session failed — present once `Failed`: the display of its
    /// [`crate::ServiceError`], control characters replaced by spaces and
    /// cut to 1 KiB, so it fits one frame. On the wire it is the last field
    /// and runs to the end of the line.
    pub cause: Option<String>,
}

/// Aggregate server counters (the `stats` payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Whether a drain is in progress or completed.
    pub draining: bool,
    /// Submits offered. Conservation law: every offer resolves to exactly
    /// one of `admitted`, `shed` or `resubmitted`, so
    /// `admitted + shed + resubmitted == offered` always.
    pub offered: u64,
    /// Sessions admitted.
    pub admitted: u64,
    /// Submits shed at admission: refused by a class at capacity, or by a
    /// drain in progress.
    pub shed: u64,
    /// Offers answered idempotently for an already-known id: a client
    /// retrying a dropped reply, or a batch resubmitted after a restart.
    pub resubmitted: u64,
    /// Sessions finished with a report.
    pub done: u64,
    /// Sessions failed typed.
    pub failed: u64,
    /// Sessions cancelled.
    pub cancelled: u64,
    /// Per-class resident (admitted, unresolved) session counts — the
    /// admission-control measure — indexed by [`JobClass::index`].
    pub depths: [u64; JobClass::COUNT],
    /// Per-class queue-latency totals, nanoseconds.
    pub queue_latency_ns: [u64; JobClass::COUNT],
}

/// Everything the front door can answer with. One line each on the wire.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Response {
    /// `ping` reply.
    Pong,
    /// The session was admitted.
    Submitted {
        /// Session id.
        id: String,
        /// Class it was admitted under.
        class: JobClass,
        /// Class queue depth after admission.
        depth: u64,
    },
    /// Idempotent re-submit: the id was already known; nothing was admitted
    /// or billed twice.
    Resubmitted {
        /// Session id.
        id: String,
        /// The state the session was found in.
        state: WireState,
    },
    /// `pause` acknowledged.
    Paused {
        /// Session id.
        id: String,
    },
    /// `resume` acknowledged.
    Resumed {
        /// Session id.
        id: String,
    },
    /// `cancel` acknowledged.
    Cancelled {
        /// Session id.
        id: String,
    },
    /// One session's status.
    Status(StatusInfo),
    /// Billed engine time.
    Billed {
        /// Session id.
        id: String,
        /// Engine time billed, nanoseconds.
        billed_ns: u128,
    },
    /// Aggregate counters.
    Stats(ServerStats),
    /// Drain completed: admissions stopped, every resident session
    /// checkpointed, manifest sealed.
    Drained {
        /// Sessions whose frames were persisted (or already durable).
        checkpointed: u64,
        /// Admitted-but-never-started sessions (nothing to checkpoint; they
        /// restart fresh on resubmission).
        not_started: u64,
        /// Wall-clock drain duration, milliseconds.
        duration_ms: u64,
    },
    /// The command was syntactically valid but cannot be served.
    Error(WireError),
}

/// Typed `err` responses.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum WireError {
    /// The command line failed to parse.
    Protocol(String),
    /// Admission rejected: the class queue is full. Resubmit later.
    Overloaded {
        /// The full class.
        class: JobClass,
        /// Observed queue depth.
        depth: u64,
        /// Configured capacity.
        capacity: u64,
    },
    /// No session under this id.
    UnknownSession {
        /// The id looked up.
        id: String,
    },
    /// The server is draining; no new admissions.
    Draining,
    /// The command reached a session in a state that cannot serve it
    /// (e.g. `resume` of a running session).
    InvalidState {
        /// Session id.
        id: String,
        /// The state that refused the command.
        state: WireState,
    },
    /// The server failed internally (stringified typed error).
    Failed(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Protocol(detail) => write!(f, "protocol error: {detail}"),
            WireError::Overloaded { class, depth, capacity } => {
                write!(f, "overloaded: class `{class}` at depth {depth} of {capacity}")
            }
            WireError::UnknownSession { id } => write!(f, "unknown session `{id}`"),
            WireError::Draining => write!(f, "server is draining"),
            WireError::InvalidState { id, state } => {
                write!(f, "session `{id}` is {state}")
            }
            WireError::Failed(detail) => write!(f, "server failure: {detail}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Command parsing
// ---------------------------------------------------------------------------

/// Validates a wire session id: non-empty, bounded, no whitespace or control
/// bytes (the store's percent-encoding handles everything else safely).
fn validate_wire_id(id: &str) -> Result<(), ProtocolError> {
    if id.is_empty() {
        return Err(ProtocolError::InvalidArgument {
            argument: "id".into(),
            value: String::new(),
            reason: "empty".into(),
        });
    }
    if id.len() > MAX_ID_LEN {
        return Err(ProtocolError::InvalidArgument {
            argument: "id".into(),
            value: format!("{}…", &id[..id.char_indices().nth(32).map_or(id.len(), |(i, _)| i)]),
            reason: format!("longer than {MAX_ID_LEN} bytes"),
        });
    }
    if id.chars().any(|c| c.is_whitespace() || c.is_control() || c == '=') {
        return Err(ProtocolError::InvalidArgument {
            argument: "id".into(),
            value: id.into(),
            reason: "contains whitespace, control characters, or `=`".into(),
        });
    }
    Ok(())
}

fn parse_f64(argument: &str, value: &str) -> Result<f64, ProtocolError> {
    let parsed: f64 = value.parse().map_err(|_| ProtocolError::InvalidArgument {
        argument: argument.into(),
        value: value.into(),
        reason: "not a number".into(),
    })?;
    if !parsed.is_finite() {
        return Err(ProtocolError::InvalidArgument {
            argument: argument.into(),
            value: value.into(),
            reason: "not finite".into(),
        });
    }
    Ok(parsed)
}

/// Splits `token` as `key=value`.
fn key_value(token: &str) -> Option<(&str, &str)> {
    token.split_once('=')
}

fn single_id_command(command: &'static str, tokens: &[&str]) -> Result<String, ProtocolError> {
    let id = *tokens.first().ok_or(ProtocolError::MissingArgument { command, argument: "id" })?;
    if tokens.len() > 1 {
        return Err(ProtocolError::InvalidArgument {
            argument: "arguments".into(),
            value: tokens[1..].join(" "),
            reason: format!("`{command}` takes exactly one id"),
        });
    }
    validate_wire_id(id)?;
    Ok(id.to_string())
}

/// Parses one command line. Total: any `&str` yields `Ok` or a typed error,
/// never a panic.
pub fn parse_command(line: &str) -> Result<Command, ProtocolError> {
    let mut tokens = line.split_whitespace();
    let verb = tokens.next().ok_or(ProtocolError::Empty)?;
    let rest: Vec<&str> = tokens.collect();
    match verb {
        "ping" => Ok(Command::Ping),
        "stats" => Ok(Command::Stats),
        "drain" => Ok(Command::Drain),
        "pause" => Ok(Command::Pause { id: single_id_command("pause", &rest)? }),
        "resume" => Ok(Command::Resume { id: single_id_command("resume", &rest)? }),
        "cancel" => Ok(Command::Cancel { id: single_id_command("cancel", &rest)? }),
        "status" => Ok(Command::Status { id: single_id_command("status", &rest)? }),
        "bill" => Ok(Command::Bill { id: single_id_command("bill", &rest)? }),
        "submit" => {
            let id = *rest
                .first()
                .ok_or(ProtocolError::MissingArgument { command: "submit", argument: "id" })?;
            validate_wire_id(id)?;
            let mut spec = SubmitSpec::new(id);
            for token in &rest[1..] {
                let Some((key, value)) = key_value(token) else {
                    return Err(ProtocolError::InvalidArgument {
                        argument: "option".into(),
                        value: (*token).into(),
                        reason: "expected key=value".into(),
                    });
                };
                match key {
                    "class" => {
                        spec.class = JobClass::parse(value).ok_or_else(|| {
                            ProtocolError::InvalidArgument {
                                argument: "class".into(),
                                value: value.into(),
                                reason: "expected interactive|batch|best-effort".into(),
                            }
                        })?;
                    }
                    "deadline" => {
                        let deadline = parse_f64("deadline", value)?;
                        if deadline < 0.0 {
                            return Err(ProtocolError::InvalidArgument {
                                argument: "deadline".into(),
                                value: value.into(),
                                reason: "negative".into(),
                            });
                        }
                        spec.deadline_s = Some(deadline);
                    }
                    "scenario" => {
                        spec.scenario = match value {
                            "1" => 1,
                            "2" => 2,
                            _ => {
                                return Err(ProtocolError::InvalidArgument {
                                    argument: "scenario".into(),
                                    value: value.into(),
                                    reason: "expected 1 or 2".into(),
                                })
                            }
                        };
                    }
                    "duration" => {
                        let duration = parse_f64("duration", value)?;
                        if !(duration > 0.0) {
                            return Err(ProtocolError::InvalidArgument {
                                argument: "duration".into(),
                                value: value.into(),
                                reason: "must be positive".into(),
                            });
                        }
                        spec.duration_s = Some(duration);
                    }
                    "step-at" => spec.step_at_s = Some(parse_f64("step-at", value)?),
                    "v0" => spec.initial_voltage = Some(parse_f64("v0", value)?),
                    _ => {
                        return Err(ProtocolError::InvalidArgument {
                            argument: "option".into(),
                            value: (*token).into(),
                            reason: "unknown submit option".into(),
                        })
                    }
                }
            }
            Ok(Command::Submit(spec))
        }
        other => Err(ProtocolError::UnknownCommand(other.to_string())),
    }
}

impl Command {
    /// Re-encodes the command as its wire line.
    pub fn to_line(&self) -> String {
        match self {
            Command::Ping => "ping".into(),
            Command::Stats => "stats".into(),
            Command::Drain => "drain".into(),
            Command::Pause { id } => format!("pause {id}"),
            Command::Resume { id } => format!("resume {id}"),
            Command::Cancel { id } => format!("cancel {id}"),
            Command::Status { id } => format!("status {id}"),
            Command::Bill { id } => format!("bill {id}"),
            Command::Submit(spec) => spec.to_line(),
        }
    }
}

// ---------------------------------------------------------------------------
// Response encoding / parsing
// ---------------------------------------------------------------------------

impl Response {
    /// Encodes the response as its single wire line (no newline).
    pub fn to_line(&self) -> String {
        match self {
            Response::Pong => "ok pong".into(),
            Response::Submitted { id, class, depth } => {
                format!("ok submitted id={id} class={class} depth={depth}")
            }
            Response::Resubmitted { id, state } => {
                format!("ok resubmitted id={id} state={state}")
            }
            Response::Paused { id } => format!("ok paused id={id}"),
            Response::Resumed { id } => format!("ok resumed id={id}"),
            Response::Cancelled { id } => format!("ok cancelled id={id}"),
            Response::Billed { id, billed_ns } => {
                format!("ok billed id={id} ns={billed_ns}")
            }
            Response::Status(info) => {
                let mut line = format!(
                    "ok status id={} class={} state={} t={} steps={} billed-ns={} recovered={}",
                    info.id,
                    info.class,
                    info.state,
                    info.time_s,
                    info.steps,
                    info.billed_ns,
                    info.recovered,
                );
                if let Some(fnv) = info.final_state_fnv {
                    line.push_str(&format!(" fnv={fnv:#018x}"));
                }
                if let Some(cause) = &info.cause {
                    line.push_str(&format!(" cause={cause}"));
                }
                line
            }
            Response::Stats(stats) => {
                let mut line = format!(
                    "ok stats draining={} offered={} admitted={} shed={} resubmitted={} done={} \
                     failed={} cancelled={}",
                    stats.draining,
                    stats.offered,
                    stats.admitted,
                    stats.shed,
                    stats.resubmitted,
                    stats.done,
                    stats.failed,
                    stats.cancelled,
                );
                for class in JobClass::ALL {
                    line.push_str(&format!(
                        " depth-{}={} qlat-ns-{}={}",
                        class,
                        stats.depths[class.index()],
                        class,
                        stats.queue_latency_ns[class.index()],
                    ));
                }
                line
            }
            Response::Drained { checkpointed, not_started, duration_ms } => {
                format!(
                    "ok drained checkpointed={checkpointed} not-started={not_started} \
                     duration-ms={duration_ms}"
                )
            }
            Response::Error(err) => match err {
                WireError::Protocol(detail) => format!("err protocol {detail}"),
                WireError::Overloaded { class, depth, capacity } => {
                    format!("err overloaded class={class} depth={depth} capacity={capacity}")
                }
                WireError::UnknownSession { id } => format!("err unknown-session id={id}"),
                WireError::Draining => "err draining".into(),
                WireError::InvalidState { id, state } => {
                    format!("err invalid-state id={id} state={state}")
                }
                WireError::Failed(detail) => format!("err failed {detail}"),
            },
        }
    }

    /// Parses a response line (the client's half of the protocol). Total:
    /// typed errors only, never a panic.
    pub fn parse(line: &str) -> Result<Response, ProtocolError> {
        let malformed = || ProtocolError::MalformedResponse(line.to_string());
        // A status line's cause is free text running to the end of the line;
        // ids hold no whitespace, so the first ` cause=` is the field's own.
        let is_status = line.split_whitespace().take(2).eq(["ok", "status"]);
        let (fields, cause) = match line.split_once(" cause=") {
            Some((fields, cause)) if is_status => (fields, Some(cause.to_string())),
            _ => (line, None),
        };
        let mut tokens = fields.split_whitespace();
        let (status, kind) = (tokens.next().ok_or(ProtocolError::Empty)?, tokens.next());
        let rest: Vec<&str> = tokens.collect();
        let options = |rest: &[&str]| -> Vec<(String, String)> {
            rest.iter().filter_map(|t| key_value(t)).map(|(k, v)| (k.into(), v.into())).collect()
        };
        let find = |opts: &[(String, String)], key: &str| -> Option<String> {
            opts.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone())
        };
        match (status, kind) {
            ("ok", Some("pong")) => Ok(Response::Pong),
            ("ok", Some("submitted")) => {
                let opts = options(&rest);
                Ok(Response::Submitted {
                    id: find(&opts, "id").ok_or_else(malformed)?,
                    class: find(&opts, "class")
                        .and_then(|c| JobClass::parse(&c))
                        .ok_or_else(malformed)?,
                    depth: find(&opts, "depth")
                        .and_then(|d| d.parse().ok())
                        .ok_or_else(malformed)?,
                })
            }
            ("ok", Some("resubmitted")) => {
                let opts = options(&rest);
                Ok(Response::Resubmitted {
                    id: find(&opts, "id").ok_or_else(malformed)?,
                    state: find(&opts, "state")
                        .and_then(|s| WireState::parse(&s))
                        .ok_or_else(malformed)?,
                })
            }
            ("ok", Some("paused")) => {
                Ok(Response::Paused { id: find(&options(&rest), "id").ok_or_else(malformed)? })
            }
            ("ok", Some("resumed")) => {
                Ok(Response::Resumed { id: find(&options(&rest), "id").ok_or_else(malformed)? })
            }
            ("ok", Some("cancelled")) => {
                Ok(Response::Cancelled { id: find(&options(&rest), "id").ok_or_else(malformed)? })
            }
            ("ok", Some("billed")) => {
                let opts = options(&rest);
                Ok(Response::Billed {
                    id: find(&opts, "id").ok_or_else(malformed)?,
                    billed_ns: find(&opts, "ns")
                        .and_then(|n| n.parse().ok())
                        .ok_or_else(malformed)?,
                })
            }
            ("ok", Some("status")) => {
                let opts = options(&rest);
                Ok(Response::Status(StatusInfo {
                    id: find(&opts, "id").ok_or_else(malformed)?,
                    class: find(&opts, "class")
                        .and_then(|c| JobClass::parse(&c))
                        .ok_or_else(malformed)?,
                    state: find(&opts, "state")
                        .and_then(|s| WireState::parse(&s))
                        .ok_or_else(malformed)?,
                    time_s: find(&opts, "t").and_then(|t| t.parse().ok()).ok_or_else(malformed)?,
                    steps: find(&opts, "steps")
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(malformed)?,
                    billed_ns: find(&opts, "billed-ns")
                        .and_then(|b| b.parse().ok())
                        .ok_or_else(malformed)?,
                    recovered: find(&opts, "recovered")
                        .and_then(|r| r.parse().ok())
                        .ok_or_else(malformed)?,
                    final_state_fnv: match find(&opts, "fnv") {
                        Some(hex) => Some(
                            u64::from_str_radix(hex.trim_start_matches("0x"), 16)
                                .map_err(|_| malformed())?,
                        ),
                        None => None,
                    },
                    cause,
                }))
            }
            ("ok", Some("stats")) => {
                let opts = options(&rest);
                let mut stats = ServerStats {
                    draining: find(&opts, "draining")
                        .and_then(|d| d.parse().ok())
                        .ok_or_else(malformed)?,
                    offered: find(&opts, "offered")
                        .and_then(|o| o.parse().ok())
                        .ok_or_else(malformed)?,
                    admitted: find(&opts, "admitted")
                        .and_then(|a| a.parse().ok())
                        .ok_or_else(malformed)?,
                    shed: find(&opts, "shed").and_then(|s| s.parse().ok()).ok_or_else(malformed)?,
                    resubmitted: find(&opts, "resubmitted")
                        .and_then(|r| r.parse().ok())
                        .ok_or_else(malformed)?,
                    done: find(&opts, "done").and_then(|d| d.parse().ok()).ok_or_else(malformed)?,
                    failed: find(&opts, "failed")
                        .and_then(|x| x.parse().ok())
                        .ok_or_else(malformed)?,
                    cancelled: find(&opts, "cancelled")
                        .and_then(|c| c.parse().ok())
                        .ok_or_else(malformed)?,
                    ..Default::default()
                };
                for class in JobClass::ALL {
                    stats.depths[class.index()] = find(&opts, &format!("depth-{class}"))
                        .and_then(|d| d.parse().ok())
                        .ok_or_else(malformed)?;
                    stats.queue_latency_ns[class.index()] =
                        find(&opts, &format!("qlat-ns-{class}"))
                            .and_then(|q| q.parse().ok())
                            .ok_or_else(malformed)?;
                }
                Ok(Response::Stats(stats))
            }
            ("ok", Some("drained")) => {
                let opts = options(&rest);
                Ok(Response::Drained {
                    checkpointed: find(&opts, "checkpointed")
                        .and_then(|c| c.parse().ok())
                        .ok_or_else(malformed)?,
                    not_started: find(&opts, "not-started")
                        .and_then(|n| n.parse().ok())
                        .ok_or_else(malformed)?,
                    duration_ms: find(&opts, "duration-ms")
                        .and_then(|d| d.parse().ok())
                        .ok_or_else(malformed)?,
                })
            }
            ("err", Some("protocol")) => Ok(Response::Error(WireError::Protocol(rest.join(" ")))),
            ("err", Some("overloaded")) => {
                let opts = options(&rest);
                Ok(Response::Error(WireError::Overloaded {
                    class: find(&opts, "class")
                        .and_then(|c| JobClass::parse(&c))
                        .ok_or_else(malformed)?,
                    depth: find(&opts, "depth")
                        .and_then(|d| d.parse().ok())
                        .ok_or_else(malformed)?,
                    capacity: find(&opts, "capacity")
                        .and_then(|c| c.parse().ok())
                        .ok_or_else(malformed)?,
                }))
            }
            ("err", Some("unknown-session")) => Ok(Response::Error(WireError::UnknownSession {
                id: find(&options(&rest), "id").ok_or_else(malformed)?,
            })),
            ("err", Some("draining")) => Ok(Response::Error(WireError::Draining)),
            ("err", Some("invalid-state")) => {
                let opts = options(&rest);
                Ok(Response::Error(WireError::InvalidState {
                    id: find(&opts, "id").ok_or_else(malformed)?,
                    state: find(&opts, "state")
                        .and_then(|s| WireState::parse(&s))
                        .ok_or_else(malformed)?,
                }))
            }
            ("err", Some("failed")) => Ok(Response::Error(WireError::Failed(rest.join(" ")))),
            _ => Err(malformed()),
        }
    }
}

// ---------------------------------------------------------------------------
// Framing with fault hooks
// ---------------------------------------------------------------------------

/// Incremental newline framing over any [`Read`], with a frame-length bound
/// and [`FaultSite::WireRead`] injection. Partial reads (a slow client
/// dribbling one byte at a time) are handled by construction: bytes
/// accumulate until a newline arrives.
#[derive(Debug)]
pub struct FrameReader<R> {
    inner: R,
    buffer: Vec<u8>,
    max_frame: usize,
    /// An injected truncation ends the stream: everything after the cut is
    /// "lost", exactly as a dying client leaves it.
    truncated: bool,
    fault_plan: Option<Arc<FaultPlan>>,
}

impl<R: Read> FrameReader<R> {
    /// A reader with the given frame bound and optional fault plan.
    pub fn new(inner: R, max_frame: usize, fault_plan: Option<Arc<FaultPlan>>) -> Self {
        FrameReader { inner, buffer: Vec::new(), max_frame, truncated: false, fault_plan }
    }

    /// Reads the next frame: `Ok(Some(line))` without its terminator,
    /// `Ok(None)` on clean EOF at a frame boundary, typed errors otherwise.
    pub fn next_frame(&mut self) -> Result<Option<String>, ProtocolError> {
        loop {
            if let Some(at) = self.buffer.iter().position(|&b| b == b'\n') {
                let mut line: Vec<u8> = self.buffer.drain(..=at).collect();
                line.pop(); // the newline
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                let line = String::from_utf8(line).map_err(|_| ProtocolError::InvalidUtf8)?;
                return Ok(Some(line));
            }
            if self.buffer.len() > self.max_frame {
                return Err(ProtocolError::FrameTooLong {
                    len: self.buffer.len(),
                    max: self.max_frame,
                });
            }
            if self.truncated {
                return if self.buffer.is_empty() {
                    Ok(None)
                } else {
                    Err(ProtocolError::Truncated)
                };
            }
            let mut chunk = [0u8; 512];
            let mut n = match self.inner.read(&mut chunk) {
                Ok(n) => n,
                Err(err) if err.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(err) => return Err(ProtocolError::Io(err.to_string())),
            };
            match self.fault_plan.as_ref().and_then(|p| p.decide(FaultSite::WireRead, n)) {
                Some(Fault::IoError) => return Err(ProtocolError::Disconnected),
                Some(Fault::TornWrite { keep }) => {
                    // The peer died mid-write: keep a prefix, then EOF.
                    n = keep.min(n);
                    self.truncated = true;
                }
                Some(flip @ Fault::BitFlip { .. }) => {
                    apply_bit_flip(flip, &mut chunk[..n]);
                }
                Some(stall @ Fault::Stall { .. }) => {
                    apply_stall(stall);
                }
                _ => {}
            }
            if n == 0 && !self.truncated {
                // Real EOF.
                return if self.buffer.is_empty() {
                    Ok(None)
                } else {
                    Err(ProtocolError::Truncated)
                };
            }
            self.buffer.extend_from_slice(&chunk[..n]);
        }
    }
}

/// Newline framing over any [`Write`], with [`FaultSite::WireWrite`]
/// injection (dropped replies, stalled writes).
#[derive(Debug)]
pub struct FrameWriter<W> {
    inner: W,
    fault_plan: Option<Arc<FaultPlan>>,
}

impl<W: Write> FrameWriter<W> {
    /// A writer with an optional fault plan.
    pub fn new(inner: W, fault_plan: Option<Arc<FaultPlan>>) -> Self {
        FrameWriter { inner, fault_plan }
    }

    /// Writes `line` plus the frame terminator and flushes.
    pub fn write_frame(&mut self, line: &str) -> Result<(), ProtocolError> {
        match self.fault_plan.as_ref().and_then(|p| p.decide(FaultSite::WireWrite, line.len())) {
            Some(Fault::IoError) => return Err(ProtocolError::Disconnected),
            Some(stall @ Fault::Stall { .. }) => {
                apply_stall(stall);
            }
            _ => {}
        }
        self.inner
            .write_all(line.as_bytes())
            .and_then(|()| self.inner.write_all(b"\n"))
            .and_then(|()| self.inner.flush())
            .map_err(|err| ProtocolError::Io(err.to_string()))
    }
}

// ---------------------------------------------------------------------------
// Retrying client
// ---------------------------------------------------------------------------

/// Client-side retry policy: per-command reply deadline (enforced by the
/// transport's read timeout — see [`Client::new`]), bounded attempts, and
/// exponential backoff between them.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts per command (first try + retries). At least 1.
    pub attempts: usize,
    /// Reply deadline per attempt. Connectors should arm the transport's
    /// read timeout with this (e.g. `UnixStream::set_read_timeout`).
    pub deadline: Duration,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 3,
            deadline: Duration::from_secs(10),
            backoff: Duration::from_millis(20),
        }
    }
}

/// A retrying protocol client over any reconnectable byte stream.
///
/// `connect` opens a fresh stream (and should arm its read timeout with the
/// policy's deadline); the client reconnects and **resends** after a timeout
/// or mid-command disconnect. Resending is safe because every command is
/// idempotent: in particular a retried `submit` whose first reply was
/// dropped answers `resubmitted` — the server admits and bills exactly once
/// per session id.
pub struct Client<S, F> {
    connect: F,
    stream: Option<(FrameReader<S>, S)>,
    policy: RetryPolicy,
}

impl<S, F> Client<S, F>
where
    S: Read + Write,
    F: FnMut(&RetryPolicy) -> std::io::Result<(S, S)>,
{
    /// A client over `connect`, which returns a `(read_half, write_half)`
    /// pair of the same stream (e.g. a `UnixStream` and its `try_clone`).
    pub fn new(connect: F, policy: RetryPolicy) -> Self {
        Client { connect, stream: None, policy }
    }

    /// Sends `command` and returns the (typed) reply, retrying with
    /// reconnect + backoff per the policy.
    ///
    /// # Errors
    ///
    /// The last attempt's [`ProtocolError`] once the attempts are exhausted.
    pub fn send(&mut self, command: &Command) -> Result<Response, ProtocolError> {
        let line = command.to_line();
        let attempts = self.policy.attempts.max(1);
        let mut backoff = self.policy.backoff;
        let mut last = ProtocolError::Disconnected;
        for round in 0..attempts {
            if round > 0 {
                // Dropped reply or dead stream: reconnect and resend — the
                // command's idempotency makes the resend safe.
                self.stream = None;
                if !backoff.is_zero() {
                    std::thread::sleep(backoff);
                    backoff = backoff.saturating_mul(2);
                }
            }
            match self.attempt(&line) {
                Ok(response) => return Ok(response),
                Err(err) => last = err,
            }
        }
        Err(last)
    }

    fn attempt(&mut self, line: &str) -> Result<Response, ProtocolError> {
        if self.stream.is_none() {
            let (read_half, write_half) =
                (self.connect)(&self.policy).map_err(|err| ProtocolError::Io(err.to_string()))?;
            self.stream = Some((FrameReader::new(read_half, MAX_FRAME_LEN, None), write_half));
        }
        let (reader, writer) = self.stream.as_mut().expect("stream just connected");
        let mut writer = FrameWriter::new(writer, None);
        writer.write_frame(line)?;
        match reader.next_frame()? {
            Some(reply) => Response::parse(&reply),
            None => Err(ProtocolError::Disconnected),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn command_round_trips_through_its_wire_line() {
        let commands = vec![
            Command::Ping,
            Command::Stats,
            Command::Drain,
            Command::Pause { id: "job-1".into() },
            Command::Resume { id: "job-1".into() },
            Command::Cancel { id: "a%2Fb".into() },
            Command::Status { id: "x".into() },
            Command::Bill { id: "x".into() },
            Command::Submit(SubmitSpec {
                id: "sweep+load-2e4".into(),
                class: JobClass::Interactive,
                deadline_s: Some(0.5),
                scenario: 2,
                duration_s: Some(0.06),
                step_at_s: Some(0.02),
                initial_voltage: Some(2.5),
            }),
        ];
        for command in commands {
            let line = command.to_line();
            assert_eq!(parse_command(&line).unwrap(), command, "round trip of `{line}`");
        }
    }

    #[test]
    fn parse_rejects_bad_input_typed() {
        assert_eq!(parse_command(""), Err(ProtocolError::Empty));
        assert_eq!(parse_command("   "), Err(ProtocolError::Empty));
        assert!(matches!(parse_command("frobnicate"), Err(ProtocolError::UnknownCommand(_))));
        assert!(matches!(
            parse_command("pause"),
            Err(ProtocolError::MissingArgument { command: "pause", argument: "id" })
        ));
        assert!(matches!(parse_command("pause a b"), Err(ProtocolError::InvalidArgument { .. })));
        assert!(matches!(
            parse_command("submit job class=warp"),
            Err(ProtocolError::InvalidArgument { .. })
        ));
        assert!(matches!(
            parse_command("submit job deadline=-1"),
            Err(ProtocolError::InvalidArgument { .. })
        ));
        assert!(matches!(
            parse_command("submit job duration=nan"),
            Err(ProtocolError::InvalidArgument { .. })
        ));
        assert!(matches!(
            parse_command("submit job scenario=3"),
            Err(ProtocolError::InvalidArgument { .. })
        ));
        assert!(matches!(
            parse_command("submit job frobs=1"),
            Err(ProtocolError::InvalidArgument { .. })
        ));
        let long = format!("status {}", "x".repeat(MAX_ID_LEN + 1));
        assert!(matches!(parse_command(&long), Err(ProtocolError::InvalidArgument { .. })));
    }

    #[test]
    fn responses_round_trip_through_their_wire_lines() {
        let responses = vec![
            Response::Pong,
            Response::Submitted { id: "a".into(), class: JobClass::Batch, depth: 3 },
            Response::Resubmitted { id: "a".into(), state: WireState::Running },
            Response::Paused { id: "a".into() },
            Response::Resumed { id: "a".into() },
            Response::Cancelled { id: "a".into() },
            Response::Billed { id: "a".into(), billed_ns: 123_456_789_000 },
            Response::Status(StatusInfo {
                id: "a".into(),
                class: JobClass::Interactive,
                state: WireState::Done,
                time_s: 0.0625,
                steps: 420,
                billed_ns: 77,
                recovered: true,
                final_state_fnv: Some(0xDEAD_BEEF_0BAD_F00D),
                cause: None,
            }),
            Response::Status(StatusInfo {
                id: "b".into(),
                class: JobClass::Batch,
                state: WireState::Failed,
                time_s: 0.002,
                steps: 9,
                billed_ns: 5,
                recovered: false,
                final_state_fnv: None,
                // What the server makes of a panic payload holding a newline.
                cause: Some(wire_cause(
                    "session `b` panicked and was quarantined: a=b\nat slice 3",
                )),
            }),
            Response::Stats(ServerStats {
                draining: true,
                offered: 11,
                admitted: 7,
                shed: 3,
                resubmitted: 1,
                done: 5,
                failed: 1,
                cancelled: 1,
                depths: [1, 2, 3],
                queue_latency_ns: [100, 200, 300],
            }),
            Response::Drained { checkpointed: 4, not_started: 2, duration_ms: 17 },
            Response::Error(WireError::Protocol("unknown command `x`".into())),
            Response::Error(WireError::Overloaded {
                class: JobClass::BestEffort,
                depth: 64,
                capacity: 64,
            }),
            Response::Error(WireError::UnknownSession { id: "nope".into() }),
            Response::Error(WireError::Draining),
            Response::Error(WireError::InvalidState { id: "a".into(), state: WireState::Done }),
            Response::Error(WireError::Failed("store write failed".into())),
        ];
        for response in responses {
            let line = response.to_line();
            assert_eq!(Response::parse(&line).unwrap(), response, "round trip of `{line}`");
        }
        assert_eq!(
            wire_cause("panicked: a=b\nat\tslice 3\r"),
            "panicked: a=b at slice 3 ",
            "control characters travel as spaces, so the status stays one frame"
        );
    }

    /// A cause longer than its bound is cut on a char boundary, so a failed
    /// status with the longest id still fits one frame.
    #[test]
    fn a_long_cause_is_cut_to_fit_the_frame() {
        let cause = "é".repeat(3 * MAX_FRAME_LEN);
        let info = StatusInfo {
            id: "x".repeat(MAX_ID_LEN),
            class: JobClass::BestEffort,
            state: WireState::Failed,
            time_s: f64::MAX,
            steps: u64::MAX,
            billed_ns: u128::MAX,
            recovered: false,
            final_state_fnv: None,
            cause: Some(wire_cause(&cause)),
        };
        let line = Response::Status(info).to_line();
        assert!(line.len() < MAX_FRAME_LEN, "{} bytes", line.len());
        let Ok(Response::Status(parsed)) = Response::parse(&line) else {
            panic!("the cut line parses")
        };
        let parsed = parsed.cause.expect("cause kept");
        assert!(parsed.len() <= MAX_CAUSE_LEN && parsed.len() > MAX_CAUSE_LEN - 2);
        assert!(cause.starts_with(&parsed));
    }

    #[test]
    fn frame_reader_handles_partial_writes_and_bounds_frames() {
        // A reader that yields one byte per read call: maximal fragmentation.
        struct OneByte<'a>(&'a [u8], usize);
        impl Read for OneByte<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.1 >= self.0.len() {
                    return Ok(0);
                }
                buf[0] = self.0[self.1];
                self.1 += 1;
                Ok(1)
            }
        }
        let bytes = b"ping\nstatus job-1\r\n";
        let mut reader = FrameReader::new(OneByte(bytes, 0), 64, None);
        assert_eq!(reader.next_frame().unwrap().as_deref(), Some("ping"));
        assert_eq!(reader.next_frame().unwrap().as_deref(), Some("status job-1"));
        assert_eq!(reader.next_frame().unwrap(), None, "clean EOF at a frame boundary");

        // EOF mid-frame is a typed truncation.
        let mut reader = FrameReader::new(&b"submit job-1"[..], 64, None);
        assert_eq!(reader.next_frame(), Err(ProtocolError::Truncated));

        // Oversized frames trip the bound instead of buffering unboundedly.
        let huge = vec![b'x'; 1024];
        let mut reader = FrameReader::new(&huge[..], 64, None);
        assert!(matches!(reader.next_frame(), Err(ProtocolError::FrameTooLong { .. })));

        // Non-UTF-8 is typed.
        let mut reader = FrameReader::new(&[0xFF, 0xFE, b'\n'][..], 64, None);
        assert_eq!(reader.next_frame(), Err(ProtocolError::InvalidUtf8));
    }
}
