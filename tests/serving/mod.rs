//! Helpers shared by the batteries that drive the slice pool through
//! `Server::execute` over a real store: digests, store directories, and
//! polling for session states. Each test binary uses a subset of them.
#![allow(dead_code)]

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Once;
use std::time::{Duration, Instant};

use harvsim::linalg::DVector;
use harvsim::{
    fnv1a64, Command, Response, Server, ServerOptions, ServerStats, Session, SessionStore,
    StatusInfo, SubmitSpec, WireState,
};

/// FNV-1a-64 over the little-endian bytes of a final state vector: the
/// digest a served session's `status` reports once it is done.
pub fn state_fnv(state: &DVector) -> u64 {
    let bytes: Vec<u8> = state.iter().flat_map(|value| value.to_le_bytes()).collect();
    fnv1a64(&bytes)
}

/// The final-state digest of an uninterrupted sequential run of `spec`.
pub fn reference_fnv(spec: &SubmitSpec) -> u64 {
    let mut session = spec.simulation().start().expect("reference starts");
    session.run_to_end().expect("reference completes");
    state_fnv(&session.report().final_state)
}

/// A store directory unique to this process and call.
pub fn unique_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("harvsim-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Opens (or re-opens, running recovery) the store at `dir` and starts a
/// server over it.
pub fn start_server(dir: &PathBuf, options: ServerOptions) -> Server {
    Server::start(SessionStore::open(dir).expect("open store"), options).expect("start server")
}

/// Submits `spec`, requiring a fresh admission.
pub fn submit(server: &Server, spec: &SubmitSpec) {
    match server.execute(Command::Submit(spec.clone())) {
        Response::Submitted { .. } => {}
        other => panic!("submit of {} answered {other:?}", spec.id),
    }
}

/// The current `status` of `id`.
pub fn status(server: &Server, id: &str) -> StatusInfo {
    match server.execute(Command::Status { id: id.into() }) {
        Response::Status(info) => info,
        other => panic!("status of {id} answered {other:?}"),
    }
}

/// Polls `status` until `id` satisfies `reached`, with a generous deadline.
pub fn await_status(
    server: &Server,
    id: &str,
    reached: impl Fn(&StatusInfo) -> bool,
) -> StatusInfo {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let info = status(server, id);
        if reached(&info) {
            return info;
        }
        assert!(Instant::now() < deadline, "timed out waiting on {id}; last status {info:?}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Polls `status` until `id` reaches one of `want`.
pub fn await_state(server: &Server, id: &str, want: &[WireState]) -> StatusInfo {
    await_status(server, id, |info| want.contains(&info.state))
}

/// Polls `stats` until every admitted session has resolved or the server
/// has shut down (an injected kill), with a generous deadline.
pub fn await_resolved(server: &Server) -> ServerStats {
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let stats = server.stats();
        if server.is_shutdown() || stats.depths == [0, 0, 0] {
            return stats;
        }
        assert!(Instant::now() < deadline, "sessions stuck in flight: {stats:?}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The engine time, in nanoseconds, that the frame the store at `dir` holds
/// for `id` carries. Only call it once the server over `dir` has stopped.
pub fn stored_engine_ns(dir: &PathBuf, id: &str) -> u128 {
    let store = SessionStore::open(dir).expect("reopen store");
    let frame = store.get(id).expect("the store holds the session's frame");
    Session::restore(&frame).expect("stored frame restores").report().engine_time().as_nanos()
}

/// The number of files in `dir` whose names end in `suffix`.
pub fn count_files_with_suffix(dir: &PathBuf, suffix: &str) -> usize {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|entry| entry.ok())
                .filter(|entry| entry.file_name().to_string_lossy().ends_with(suffix))
                .count()
        })
        .unwrap_or(0)
}

/// Keeps deliberately injected panics out of the test output while leaving
/// the default hook in charge of every *real* panic (assertion failures
/// included).
pub fn silence_injected_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let message = payload
                .downcast_ref::<&str>()
                .copied()
                .map(String::from)
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            if !message.contains("injected fault") {
                default_hook(info);
            }
        }));
    });
}
