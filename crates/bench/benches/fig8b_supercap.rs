//! Fig. 8(b) — supercapacitor voltage during the 1 Hz tuning scenario,
//! simulation vs the experimental surrogate.

use criterion::{criterion_group, criterion_main, Criterion};
use harvsim_bench::{scenario1, DenseRun};
use harvsim_core::measurement;

fn bench_fig8b(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig8b_supercap_voltage");
    group.sample_size(10);

    group.bench_function("scenario1_sim_vs_surrogate", |b| {
        let scenario = scenario1(1.0);
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

criterion_group!(benches, bench_fig8b);
criterion_main!(benches);
