//! Ablation A3 — piecewise-linear diode-table granularity.
//!
//! Section III-B claims the lookup-table size "does not affect the simulation
//! speed" while accuracy can be made arbitrarily fine. This ablation runs the
//! same short scenario with diode tables of 16, 128 and 2048 segments.

use criterion::{criterion_group, criterion_main, Criterion};
use harvsim_bench::{scenario1, DenseRun};
use harvsim_core::measurement;

fn bench_pwl(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_pwl_granularity");
    group.sample_size(10);

    for segments in [16usize, 128, 2048] {
        group.bench_function(format!("table_segments_{segments}"), |b| {
            let mut scenario = scenario1(0.5);
            scenario.parameters.diode_table_segments = segments;
            b.iter(|| {
                let run = DenseRun::run(&scenario).expect("scenario run succeeds");
                let vc = run.session().harvester().storage_voltage_net();
                measurement::supercap_voltage_waveform(run.waveform().terminals(), vc).len()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pwl);
criterion_main!(benches);
