//! Scheduling classes and the typed failure of a served session: the
//! vocabulary the wire grammar ([`crate::protocol`]) and the slice pool behind
//! [`crate::server::Server`] share.

use crate::CoreError;

/// A job's scheduling class. Classes are popped in strict priority order —
/// `Interactive` before `Batch` before `BestEffort` — except that a
/// non-empty class passed over 8 consecutive pops is promoted for one pop
/// (starvation-proof aging; the bound is a constant of the server's slice
/// pool). Within a class, jobs order earliest-deadline-first.
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

/// How a served session failed. Separates engine/model errors (which travel
/// as [`CoreError`]) from the one supervision outcome only the scheduler can
/// produce: a quarantined panic. A failed session answers `failed` over the
/// wire.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServiceError {
    /// The session itself failed with an engine/model error, or its stored
    /// frame failed to load.
    Session(CoreError),
    /// A panic escaped the session during one of its slices. The session is
    /// quarantined: no further slices are scheduled, and the store keeps the
    /// frame its last preempted slice sealed. `payload` is the stringified
    /// panic payload.
    SessionPanicked {
        /// The session id.
        id: String,
        /// Stringified panic payload.
        payload: String,
    },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Session(err) => write!(f, "{err}"),
            ServiceError::SessionPanicked { id, payload } => {
                write!(f, "session `{id}` panicked and was quarantined: {payload}")
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

/// These tests drive the pool directly rather than through the wire, so they
/// can read what a status answer does not carry: a job's typed outcome, its
/// slice count, and the exact bill next to its stored frame.
#[cfg(test)]
mod tests {
    use super::*;
    use std::path::{Path, PathBuf};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use crate::fault::{FaultPlan, FaultSite};
    use crate::pool::{final_state_fnv, Job, Parked, Pool, State};
    use crate::protocol::{Command, Response, WireState};
    use crate::server::{Server, ServerOptions};
    use crate::session::{Session, SessionReport, Simulation};
    use crate::store::SessionStore;
    use crate::ScenarioConfig;

    /// Job `k`: a 0.06 s span whose 0.02 s watchdog wakes the controller
    /// twice, so digital wakes and a retune fall between preemptions.
    fn quick_job(k: usize) -> (String, Simulation) {
        let mut config = ScenarioConfig::scenario1();
        config.duration_s = 0.06;
        config.frequency_step_time_s = 0.02;
        config.controller.watchdog_period_s = 0.02;
        config.controller.measurement_duration_s = 0.005;
        config.controller.tuning_update_interval_s = 0.004;
        config.controller.tuning_rate_hz_per_s = 10.0;
        config.controller.energy_threshold_v = 2.0;
        let id = format!("job{k}");
        (id.clone(), Simulation::from_config(config).label(id))
    }

    fn sequential(job: &Simulation) -> SessionReport {
        let mut session = job.start().unwrap();
        session.run_to_end().unwrap();
        session.report()
    }

    fn options(workers: usize, slice_s: f64) -> ServerOptions {
        ServerOptions { workers: Some(workers), slice_s, ..ServerOptions::default() }
    }

    /// A store directory unique to this process and tag.
    fn store_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("harvsim-service-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Serves `jobs` (batch class, no deadline) on a pool over the store at
    /// `dir` until every job resolves or the plan kills the pool, then stops
    /// the workers. The pool comes back for inspection of its entries.
    fn serve(dir: &Path, options: ServerOptions, jobs: Vec<(String, Simulation)>) -> Pool {
        let workers = options.workers.unwrap_or(1);
        let pool = Pool::new(options, SessionStore::open(dir).expect("open store"));
        {
            let mut state = pool.lock();
            for (id, simulation) in jobs {
                let parked = Parked::Fresh(Box::new(simulation));
                pool.admit(
                    &mut state,
                    Job { id, class: JobClass::Batch, deadline_s: None, parked },
                );
            }
        }
        let settled = |state: &State| state.killed || state.seats == [0; JobClass::COUNT];
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| pool.work());
            }
            let deadline = Instant::now() + Duration::from_secs(120);
            let mut state = pool.lock();
            while !settled(&state) && Instant::now() < deadline {
                drop(state);
                std::thread::sleep(Duration::from_millis(2));
                state = pool.lock();
            }
            // Workers stop on a drain or a kill, so the scope can join them.
            drop(pool.quiesce(state));
        });
        assert!(settled(&pool.lock()), "jobs stuck in flight");
        pool
    }

    /// The engine time the frame the store holds for `id` carries.
    fn stored_engine_time(store: &SessionStore, id: &str) -> Duration {
        let frame = store.get(id).expect("the store holds the job's frame");
        Session::restore(&frame).expect("stored frame restores").report().engine_time()
    }

    #[test]
    fn scheduled_results_match_sequential_and_billing_telescopes() {
        let jobs: Vec<(String, Simulation)> = (0..6).map(quick_job).collect();
        let references: Vec<SessionReport> = jobs.iter().map(|(_, job)| sequential(job)).collect();
        for reference in &references {
            assert!(reference.digital_events > 0, "the watchdog must wake inside the span");
        }
        let ids: Vec<String> = jobs.iter().map(|(id, _)| id.clone()).collect();
        let dir = store_dir("telescopes");

        // One worker pops the six jobs round-robin and the 13th slice
        // boundary kills the pool: every job has run two 0.01 s slices, and
        // its bill telescopes to the engine time of the frame it sealed last.
        let plan = Arc::new(FaultPlan::new(0).with_kills(12, 1));
        let pool = serve(&dir, ServerOptions { fault_plan: Some(plan), ..options(1, 0.01) }, jobs);
        {
            let state = pool.lock();
            assert!(state.killed);
            for entry in &state.entries {
                assert_eq!(entry.slices, 2, "{}: round-robin slices", entry.id);
                assert!(entry.done.is_none(), "{} resolved before the kill", entry.id);
                assert!(entry.billed > Duration::ZERO);
                assert_eq!(
                    entry.billed,
                    stored_engine_time(pool.store(), &entry.id),
                    "{}",
                    entry.id
                );
            }
        }
        let billed_before: Vec<u128> =
            pool.lock().entries.iter().map(|entry| entry.billed.as_nanos()).collect();
        drop(pool);

        // Restart: the server re-adopts every stored job; resumed, each books
        // its frame-carried time on its first slice and finishes bit-identical
        // to its sequential run.
        let server = Server::start(SessionStore::open(&dir).unwrap(), options(2, 0.01)).unwrap();
        for id in &ids {
            assert!(matches!(
                server.execute(Command::Resume { id: id.clone() }),
                Response::Resumed { .. }
            ));
        }
        let deadline = Instant::now() + Duration::from_secs(120);
        while server.stats().depths != [0; JobClass::COUNT] {
            assert!(Instant::now() < deadline, "resumed jobs stuck in flight");
            std::thread::sleep(Duration::from_millis(2));
        }
        for ((id, reference), before) in ids.iter().zip(&references).zip(&billed_before) {
            let Response::Status(info) = server.execute(Command::Status { id: id.clone() }) else {
                panic!("status of {id}");
            };
            assert_eq!(info.state, WireState::Done, "{id}");
            assert!(info.recovered);
            assert_eq!(info.final_state_fnv, Some(final_state_fnv(&reference.final_state)), "{id}");
            assert_eq!(info.steps, reference.engine_stats.state_space.steps as u64, "{id}");
            assert!(info.billed_ns > *before, "{id}: the resumed bill continues the stored one");
        }
        server.execute(Command::Drain);
        server.join();
        assert!(SessionStore::open(&dir).unwrap().active_ids().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn watchdog_preemption_preserves_bit_identity() {
        let (id, job) = quick_job(0);
        let reference = sequential(&job);
        let dir = store_dir("watchdog");
        // A zero timeout preempts after every accepted step batch — maximal
        // watchdog pressure, still bit-identical.
        let pool = serve(
            &dir,
            ServerOptions { slice_timeout: Some(Duration::ZERO), ..options(1, 0.02) },
            vec![(id, job)],
        );
        let state = pool.lock();
        let entry = &state.entries[0];
        assert_eq!(entry.done, Some(Ok(final_state_fnv(&reference.final_state))));
        assert_eq!(entry.steps, reference.engine_stats.state_space.steps as u64);
        assert!(entry.billed > Duration::ZERO);
        assert!(
            entry.slices > 3,
            "a zero watchdog budget must preempt far more often than the 3 plain slices \
             (got {} slices)",
            entry.slices
        );
        drop(state);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_panic_quarantines_one_job_without_poisoning_the_pool() {
        let jobs: Vec<(String, Simulation)> = (0..3).map(quick_job).collect();
        let references: Vec<u64> =
            jobs.iter().map(|(_, job)| final_state_fnv(&sequential(job).final_state)).collect();
        let dir = store_dir("quarantine");
        let plan = Arc::new(FaultPlan::new(0xBEEF).with_site(FaultSite::SliceBoundary, 2, 1));
        let pool = serve(&dir, ServerOptions { fault_plan: Some(plan), ..options(1, 0.02) }, jobs);
        let state = pool.lock();
        assert!(!state.killed, "a quarantine is not a kill");
        assert_eq!((state.done, state.failed), (2, 1));
        let mut quarantined = 0;
        for (entry, reference) in state.entries.iter().zip(&references) {
            match &entry.done {
                Some(Err(ServiceError::SessionPanicked { id, payload })) => {
                    quarantined += 1;
                    assert_eq!(id, &entry.id);
                    assert!(payload.contains("injected fault"), "payload travels: {payload}");
                }
                // The other jobs are untouched.
                Some(Ok(digest)) => assert_eq!(digest, reference, "{} diverged", entry.id),
                other => panic!("{} resolved {other:?}", entry.id),
            }
        }
        assert_eq!(quarantined, 1);
        drop(state);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Slices that end inside an analogue segment bill the engine time they
    /// spent: four 0.02 s slices inside one 0.25 s watchdog segment, then a
    /// panic at the fifth slice boundary quarantines the job — its bill is
    /// the four slices' engine time, exactly what its stored frame carries.
    #[test]
    fn quarantined_mid_segment_job_bills_its_slices() {
        let mut config = ScenarioConfig::scenario1();
        config.duration_s = 0.5;
        config.frequency_step_time_s = 0.1;
        config.controller.watchdog_period_s = 0.25;
        let job = Simulation::from_config(config).label("mid-segment");
        let dir = store_dir("mid-segment");
        let plan = Arc::new(FaultPlan::new(7).with_site(FaultSite::SliceBoundary, 5, 1));
        let pool = serve(
            &dir,
            ServerOptions { fault_plan: Some(plan), ..options(1, 0.02) },
            vec![("mid-segment".into(), job.clone())],
        );
        let state = pool.lock();
        let entry = &state.entries[0];
        assert!(matches!(entry.done, Some(Err(ServiceError::SessionPanicked { .. }))));
        assert_eq!(entry.slices, 5, "four slices ran, the fifth boundary panicked");
        // The same span inline never closes a segment, so the closed-segment
        // counters alone would bill nothing.
        let mut inline = job.start().unwrap();
        inline.run_until(0.08).unwrap();
        assert!(inline.engine_stats().state_space.cpu_time.is_zero());
        assert!(inline.report().engine_time() > Duration::ZERO);
        assert!(entry.billed > Duration::ZERO, "mid-segment slices must bill");
        assert_eq!(entry.billed, stored_engine_time(pool.store(), &entry.id));
        drop(state);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
