//! Fig. 9 — supercapacitor voltage for the wide (14 Hz) tuning scenario,
//! simulation vs the experimental surrogate.

use criterion::{criterion_group, criterion_main, Criterion};
use harvsim_bench::{scenario2, DenseRun};
use harvsim_core::measurement;

fn bench_fig9(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig9_supercap_voltage_wide");
    group.sample_size(10);

    group.bench_function("scenario2_sim_vs_surrogate", |b| {
        let scenario = scenario2(1.5);
        b.iter(|| {
            let simulation = DenseRun::run(&scenario).expect("simulation run");
            let surrogate =
                DenseRun::run(&scenario.experimental_surrogate()).expect("surrogate run");
            let vc = simulation.session().harvester().storage_voltage_net();
            measurement::compare_component(
                simulation.waveform().terminals(),
                surrogate.waveform().terminals(),
                vc,
                200,
            )
            .expect("waveform comparison")
        });
    });
    group.finish();
}

criterion_group!(benches, bench_fig9);
criterion_main!(benches);
