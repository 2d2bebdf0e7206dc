//! Table I — CPU time to simulate the supercapacitor charging curve.
//!
//! Benchmarks one second of pure charging (controller kept asleep) with the
//! three Newton–Raphson baseline configurations standing in for the commercial
//! simulators, and with the proposed linearised state-space engine. The ratio
//! between the groups is the quantity Table I reports; run
//! `cargo run --release -p harvsim-bench --bin repro -- table1` for the
//! paper-style table over a longer span.

use criterion::{criterion_group, criterion_main, Criterion};
use harvsim_bench::{scenario1, DenseRun};
use harvsim_core::baseline::BaselineMethod;
use harvsim_core::{BaselineOptions, SimulationEngine};

fn charging_scenario() -> harvsim_core::scenario::ScenarioConfig {
    let mut scenario = scenario1(1.0);
    // Keep the microcontroller asleep: Table I measures the analogue charging only.
    scenario.controller.energy_threshold_v = 10.0;
    scenario
}

fn bench_table1(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1_supercap_charging");
    group.sample_size(10);

    group.bench_function("proposed_state_space", |b| {
        let scenario = charging_scenario();
        b.iter(|| DenseRun::run(&scenario).expect("state-space run succeeds"));
    });

    let baselines = [
        ("baseline_vhdl_ams_trapezoidal", BaselineMethod::Trapezoidal, 5e-5),
        ("baseline_pspice_backward_euler", BaselineMethod::BackwardEuler, 2.5e-5),
        ("baseline_systemc_a_tight", BaselineMethod::Trapezoidal, 5e-5),
    ];
    for (name, method, step) in baselines {
        let options = BaselineOptions {
            method,
            step,
            newton_tolerance: if name.ends_with("tight") { 1e-11 } else { 1e-9 },
        };
        group.bench_function(name, |b| {
            let scenario =
                charging_scenario().with_engine(SimulationEngine::NewtonRaphson(options));
            b.iter(|| DenseRun::run(&scenario).expect("baseline run succeeds"));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_table1);
criterion_main!(benches);
