//! Deadline classes through the server, end to end: deterministic
//! per-class admission-control shedding with an exact offer and seat
//! ledger, typed rejection of malformed deadlines, and bit-identity of every
//! served result against its uninterrupted sequential run, classes and
//! deadlines notwithstanding. The pop-order laws themselves (EDF within a
//! class, strict priority, the aging bound) are unit tests of the pool's
//! class queues.

mod serving;

use harvsim::{Command, JobClass, Response, ServerOptions, SubmitSpec, WireError, WireState};
use serving::{
    await_resolved, await_state, reference_fnv, start_server, status, submit, unique_dir,
};

/// A quick session (a few slices at the tests' slice length).
fn quick_spec(k: usize) -> SubmitSpec {
    let mut spec = SubmitSpec::new(format!("class-job-{k}"));
    spec.duration_s = Some(0.012);
    spec.step_at_s = Some(0.004);
    spec.initial_voltage = Some(2.5 + k as f64 * 1e-4);
    spec
}

#[test]
fn per_class_ledgers_balance_exactly() {
    // A mixed-class batch against a capacity of 2. The sessions are long,
    // so every admitted one still holds its seat when the later offers
    // arrive: the third and later offers of each class are shed, and which
    // ones depends only on the submission order.
    let classes = [
        JobClass::Interactive,
        JobClass::Interactive,
        JobClass::Interactive, // shed
        JobClass::Batch,
        JobClass::Batch,
        JobClass::BestEffort,
        JobClass::BestEffort,
        JobClass::BestEffort, // shed
        JobClass::BestEffort, // shed
    ];
    let dir = unique_dir("classes-ledger");
    let server = start_server(
        &dir,
        ServerOptions {
            workers: Some(2),
            slice_s: 0.004,
            class_capacity: 2,
            ..ServerOptions::default()
        },
    );
    let mut admitted = [0u64; JobClass::COUNT];
    for (k, &class) in classes.iter().enumerate() {
        let mut spec = quick_spec(k);
        spec.class = class;
        spec.duration_s = Some(30.0);
        match server.execute(Command::Submit(spec)) {
            Response::Submitted { class: admitted_class, depth, .. } => {
                assert_eq!(admitted_class, class);
                admitted[class.index()] += 1;
                assert_eq!(depth, admitted[class.index()], "job {k}: depth counts the seats");
                assert!(![2usize, 7, 8].contains(&k), "job {k} must be shed");
            }
            Response::Error(WireError::Overloaded { class: shed_class, depth, capacity }) => {
                assert!([2usize, 7, 8].contains(&k), "job {k} must be admitted");
                assert_eq!(shed_class, class);
                assert_eq!((depth, capacity), (2, 2));
                // A shed session was never admitted: nothing to query or bill.
                assert!(matches!(
                    server.execute(Command::Bill { id: format!("class-job-{k}") }),
                    Response::Error(WireError::UnknownSession { .. })
                ));
            }
            other => panic!("job {k} answered {other:?}"),
        }
    }
    let stats = server.stats();
    assert_eq!((stats.offered, stats.admitted, stats.shed), (9, 6, 3));
    assert_eq!(stats.admitted + stats.shed + stats.resubmitted, stats.offered);
    assert_eq!(stats.depths, [2, 2, 2], "every admitted session holds its class seat");

    // Cancelling gives every seat back exactly once.
    for (k, _) in classes.iter().enumerate().filter(|(k, _)| ![2usize, 7, 8].contains(k)) {
        let id = format!("class-job-{k}");
        assert!(matches!(
            server.execute(Command::Cancel { id: id.clone() }),
            Response::Cancelled { .. }
        ));
        await_state(&server, &id, &[WireState::Cancelled]);
    }
    let stats = server.stats();
    assert_eq!((stats.cancelled, stats.done, stats.failed), (6, 0, 0));
    assert_eq!(stats.depths, [0, 0, 0]);
    server.execute(Command::Drain);
    server.join();
    let store = harvsim::SessionStore::open(&dir).expect("reopen store");
    assert!(store.active_ids().is_empty(), "cancelled sessions leave the store");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn class_mixes_do_not_disturb_bit_identity() {
    const JOBS: usize = 9;
    let specs: Vec<SubmitSpec> = (0..JOBS)
        .map(|k| {
            let mut spec = quick_spec(k);
            spec.class = JobClass::ALL[k % 3];
            spec.deadline_s = (k % 2 == 0).then_some(k as f64 * 0.25);
            spec
        })
        .collect();
    let references: Vec<u64> = specs.iter().map(reference_fnv).collect();
    let dir = unique_dir("classes-mix");
    let server = start_server(
        &dir,
        ServerOptions { workers: Some(3), slice_s: 0.003, ..ServerOptions::default() },
    );
    for spec in &specs {
        submit(&server, spec);
    }
    let stats = await_resolved(&server);
    assert_eq!((stats.done, stats.failed), (JOBS as u64, 0));
    for (spec, reference) in specs.iter().zip(&references) {
        let info = status(&server, &spec.id);
        assert_eq!(info.class, spec.class);
        assert_eq!(
            info.final_state_fnv,
            Some(*reference),
            "{}: scheduling class/deadline changed the numerics",
            spec.id
        );
    }
    assert!(
        stats.queue_latency_ns.iter().all(|&ns| ns > 0),
        "every class booked queue latency: {:?}",
        stats.queue_latency_ns
    );
    server.execute(Command::Drain);
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_deadlines_are_rejected_typed() {
    let dir = unique_dir("classes-deadline");
    let server = start_server(
        &dir,
        ServerOptions { workers: Some(1), slice_s: 0.004, ..ServerOptions::default() },
    );
    let mut healthy = quick_spec(1);
    healthy.deadline_s = Some(0.5);
    submit(&server, &healthy);
    for bad in [f64::NAN, -1.0, f64::INFINITY, f64::NEG_INFINITY] {
        let mut spec = quick_spec(0);
        spec.deadline_s = Some(bad);
        match server.execute(Command::Submit(spec.clone())) {
            Response::Error(WireError::Protocol(detail)) => {
                assert!(detail.contains("deadline"), "unhelpful rejection: {detail}");
            }
            other => panic!("deadline {bad} answered {other:?}"),
        }
        // Refused before admission: no session, no slices, no bill.
        assert!(matches!(
            server.execute(Command::Status { id: spec.id }),
            Response::Error(WireError::UnknownSession { .. })
        ));
    }
    // The healthy sibling is unaffected, and the refusals booked no offer.
    let info = await_state(&server, &healthy.id, &[WireState::Done]);
    assert_eq!(info.final_state_fnv, Some(reference_fnv(&healthy)));
    let stats = server.stats();
    assert_eq!((stats.offered, stats.admitted, stats.shed), (1, 1, 0));
    server.execute(Command::Drain);
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}
