//! Durable checkpoints and the session server, end to end:
//!
//! 1. run a session halfway, **save** its checkpoint to disk, and drop the
//!    live session entirely (a stand-in for a process kill or migration);
//! 2. **reload** the bytes, resume, and show the result is bit-identical to
//!    a run that was never interrupted;
//! 3. submit a small batch to a [`harvsim::Server`] over a
//!    [`harvsim::SessionStore`] and kill the server mid-run with an injected
//!    fault, then reopen the store and show a restarted server recovering
//!    the interrupted sessions from their last sealed frames — finishing
//!    bit-identically, each billed from its frame-carried engine time;
//! 4. open the **front door**: a [`harvsim::Server`] with a deliberately
//!    tiny per-class admission bound, an overload that sheds typed, the
//!    per-class queue-latency ledgers, and a graceful drain that parks
//!    every resident session durably in the store.
//!
//! ```bash
//! cargo run --release --example service_demo
//! ```

use std::sync::Arc;

use harvsim::linalg::DVector;
use harvsim::{
    fnv1a64, Command, FaultPlan, JobClass, Response, ScenarioConfig, Server, ServerOptions,
    Session, SessionStore, Simulation, SubmitSpec, WaveformProbe, WireError, WireState,
};

/// FNV-1a-64 over a final state's little-endian bytes: the digest `status`
/// reports for a finished session.
fn state_fnv(state: &DVector) -> u64 {
    let bytes: Vec<u8> = state.iter().flat_map(|value| value.to_le_bytes()).collect();
    fnv1a64(&bytes)
}

fn scenario(label: &str, v0: f64) -> ScenarioConfig {
    let mut scenario = ScenarioConfig::scenario1();
    scenario.duration_s = 0.12;
    scenario.frequency_step_time_s = 0.03;
    scenario.controller.watchdog_period_s = 0.04;
    scenario.controller.energy_threshold_v = 2.0;
    scenario.controller.measurement_duration_s = 0.01;
    scenario.controller.tuning_rate_hz_per_s = 10.0;
    scenario.controller.tuning_update_interval_s = 0.005;
    scenario.initial_supercap_voltage = v0;
    scenario.label = Some(label.into());
    scenario
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // -- 1. save to disk, "kill" the process stand-in ----------------------
    println!("== durable checkpoint: save, kill, reload, resume ==");
    let config = scenario("durable", 2.5);
    let mut session = Simulation::from_config(config.clone()).start()?;
    let interval = 1e-4;
    session.add_probe(WaveformProbe::new(interval));
    session.run_until(0.05)?;
    let frame = session.checkpoint()?;
    let path = std::env::temp_dir().join("harvsim_service_demo.ckpt");
    std::fs::write(&path, &frame)?;
    println!("  saved {} B at t = {:.3} s -> {}", frame.len(), session.time(), path.display());
    drop(session); // the live session is gone; only the file remains

    // -- 2. reload and resume ---------------------------------------------
    let bytes = std::fs::read(&path)?;
    let (mut resumed, ids) =
        Session::restore_with_probes(&bytes, vec![Box::new(WaveformProbe::new(interval))])?;
    println!("  reloaded at t = {:.3} s, resuming...", resumed.time());
    resumed.run_to_end()?;
    let resumed_report = resumed.report();

    // An uninterrupted control run of the same scenario: bit-identical.
    let mut control = Simulation::from_config(config).start()?;
    control.run_to_end()?;
    let control_report = control.report();
    assert_eq!(resumed_report.final_state, control_report.final_state);
    assert_eq!(
        resumed_report.engine_stats.state_space.steps,
        control_report.engine_stats.state_space.steps
    );
    let samples = resumed.probe::<WaveformProbe>(ids[0]).expect("typed").states().len();
    println!(
        "  resumed run: {} steps, {} probe samples, final state identical to an \
         uninterrupted run bit for bit",
        resumed_report.engine_stats.state_space.steps, samples
    );
    std::fs::remove_file(&path).ok();

    // -- 3. kill the server mid-batch, recover from the store ---------------
    println!("\n== crash recovery: kill mid-batch, reopen the store, finish ==");
    let store_dir = std::env::temp_dir().join("harvsim_service_demo_store");
    std::fs::remove_dir_all(&store_dir).ok(); // a fresh demo every run
    let specs: Vec<SubmitSpec> = (0..6)
        .map(|k| {
            let mut spec = SubmitSpec::new(format!("job-{k}"));
            spec.duration_s = Some(0.12);
            spec.step_at_s = Some(0.03);
            spec.initial_voltage = Some(2.5 + k as f64 * 0.01);
            spec
        })
        .collect();
    // The uninterrupted results every recovered session must reproduce.
    let uninterrupted: Vec<u64> = specs
        .iter()
        .map(|spec| {
            let mut session = spec.simulation().start()?;
            session.run_to_end()?;
            Ok(state_fnv(&session.report().final_state))
        })
        .collect::<Result<_, harvsim::CoreError>>()?;

    // A deterministic fault plan that kills the server at the 8th slice
    // boundary — the moral equivalent of `kill -9` mid-batch.
    let plan = Arc::new(FaultPlan::new(42).with_kills(8, 1));
    let recovery_options = ServerOptions { workers: Some(2), slice_s: 0.04, ..Default::default() };
    let server = Server::start(
        SessionStore::open(&store_dir)?,
        ServerOptions { fault_plan: Some(Arc::clone(&plan)), ..recovery_options.clone() },
    )?;
    for spec in &specs {
        server.execute(Command::Submit(spec.clone()));
    }
    while !server.is_shutdown() {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    server.join();
    let unresolved = specs
        .iter()
        .filter(|spec| {
            !matches!(
                server.execute(Command::Status { id: spec.id.clone() }),
                Response::Status(info) if info.state == WireState::Done
            )
        })
        .count();
    println!("  first run: killed, {unresolved} of {} sessions unresolved", specs.len());

    // Reopen the store — the recovery scan re-adopts the interrupted
    // sessions — and resubmit the same batch to a fresh server, faults
    // disarmed: a recovered id resumes from its frame, a lost one restarts.
    let store = SessionStore::open(&store_dir)?;
    println!(
        "  reopened store: {} recoverable frame(s), manifest rebuilt = {}",
        store.recovery().recovered.len(),
        store.recovery().manifest_rebuilt,
    );
    let server = Server::start(store, recovery_options)?;
    let mut resumed = 0;
    for spec in &specs {
        if let Response::Resubmitted { .. } = server.execute(Command::Submit(spec.clone())) {
            resumed += 1;
        }
    }
    for (spec, expected) in specs.iter().zip(&uninterrupted) {
        let info = loop {
            match server.execute(Command::Status { id: spec.id.clone() }) {
                Response::Status(info) if info.state == WireState::Done => break info,
                Response::Status(info) if info.state == WireState::Failed => {
                    return Err(format!("{} failed after recovery", spec.id).into());
                }
                _ => std::thread::sleep(std::time::Duration::from_millis(1)),
            }
        };
        assert_eq!(info.final_state_fnv, Some(*expected), "recovery must be bit-identical");
        println!(
            "  {:>6}: recovered = {:<5} billed {:>9.3} ms, final state identical to the \
             uninterrupted run",
            spec.id,
            info.recovered,
            info.billed_ns as f64 * 1e-6,
        );
    }
    server.execute(Command::Drain);
    server.join();
    println!(
        "  second run: {resumed} session(s) resumed from sealed frames, {} restarted fresh — \
         all bit-identical, store left clean ({} active id(s))",
        specs.len() - resumed,
        SessionStore::open(&store_dir)?.active_ids().len(),
    );
    std::fs::remove_dir_all(&store_dir).ok();

    // -- 4. the front door: overload shedding, classes, graceful drain ------
    println!("\n== front door: admission control, deadline classes, drain ==");
    let door_dir = std::env::temp_dir().join("harvsim_service_demo_door");
    std::fs::remove_dir_all(&door_dir).ok();
    let server = Server::start(
        SessionStore::open(&door_dir)?,
        ServerOptions {
            workers: Some(2),
            slice_s: 0.04,
            class_capacity: 2, // deliberately tiny: the overload is the point
            ..Default::default()
        },
    )?;
    // Five offers against a 2-per-class bound: the third interactive one is
    // shed typed at the door — nothing about it is retained or billed.
    let classes = [
        JobClass::Interactive,
        JobClass::Interactive,
        JobClass::Interactive,
        JobClass::Batch,
        JobClass::BestEffort,
    ];
    let mut admitted = Vec::new();
    for (k, class) in classes.iter().enumerate() {
        let mut spec = SubmitSpec::new(format!("door-{k}"));
        spec.class = *class;
        spec.deadline_s = Some(0.5 + k as f64 * 0.25);
        // Long enough (in wall-clock terms) that every admitted session is
        // still resident when the later offers arrive and the drain runs —
        // the drain parks them; nobody waits for them to finish.
        spec.duration_s = Some(30.0);
        spec.initial_voltage = Some(2.5 + k as f64 * 0.01);
        match server.execute(Command::Submit(spec)) {
            Response::Submitted { id, class, depth } => {
                println!("  admitted {id} ({class}, resident depth {depth})");
                admitted.push(id);
            }
            Response::Error(WireError::Overloaded { class, depth, capacity }) => {
                println!(
                    "  shed door-{k}: {class} already at {depth}/{capacity} resident — \
                     typed rejection, nothing leaked"
                );
            }
            other => println!("  unexpected submit answer: {other:?}"),
        }
    }
    // Let every admitted session run a slice, so the drain has live
    // sessions to park.
    for id in &admitted {
        while !matches!(
            server.execute(Command::Status { id: id.clone() }),
            Response::Status(info) if info.time_s > 0.0
        ) {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }
    let drained = match server.execute(Command::Drain) {
        Response::Drained { checkpointed, not_started, duration_ms } => {
            (checkpointed, not_started, duration_ms)
        }
        other => panic!("drain answered {other:?}"),
    };
    let stats = server.stats();
    assert_eq!(
        stats.admitted + stats.shed + stats.resubmitted,
        stats.offered,
        "the offer ledger must balance"
    );
    println!(
        "  books: offered {} = admitted {} + shed {} + resubmitted {}",
        stats.offered, stats.admitted, stats.shed, stats.resubmitted
    );
    for class in JobClass::ALL {
        println!(
            "  {class:>12}: {} resident, {:.3} ms total queue latency",
            stats.depths[class.index()],
            stats.queue_latency_ns[class.index()] as f64 * 1e-6,
        );
    }
    println!(
        "  drain parked {} session(s) durably ({} never started) in {} ms",
        drained.0, drained.1, drained.2
    );
    server.join();
    let store = SessionStore::open(&door_dir)?;
    println!(
        "  reopened store holds {} frame(s) — resubmit after a restart resumes them",
        store.active_ids().len()
    );
    std::fs::remove_dir_all(&door_dir).ok();
    Ok(())
}
