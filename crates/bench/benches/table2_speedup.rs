//! Table II — CPU time of the existing (Newton–Raphson) vs proposed
//! (Adams–Bashforth state-space) technique for the two tuning scenarios.

use criterion::{criterion_group, criterion_main, Criterion};
use harvsim_bench::{scenario1, scenario2, DenseRun};
use harvsim_core::{BaselineOptions, SimulationEngine};

fn bench_table2(c: &mut Criterion) {
    let mut group = c.benchmark_group("table2_tuning_scenarios");
    group.sample_size(10);

    for (label, scenario) in [("scenario1_1hz", scenario1(1.0)), ("scenario2_14hz", scenario2(1.5))]
    {
        group.bench_function(format!("{label}_proposed"), |b| {
            let config = scenario.clone();
            b.iter(|| DenseRun::run(&config).expect("state-space run succeeds"));
        });
        group.bench_function(format!("{label}_newton_raphson"), |b| {
            let config = scenario
                .clone()
                .with_engine(SimulationEngine::NewtonRaphson(BaselineOptions::default()));
            b.iter(|| DenseRun::run(&config).expect("baseline run succeeds"));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_table2);
criterion_main!(benches);
