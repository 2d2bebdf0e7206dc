//! Fig. 8(a) — generator output power during the 1 Hz tuning process.
//!
//! Benchmarks the full scenario simulation plus the power post-processing that
//! produces the figure's waveform and RMS numbers.

use criterion::{criterion_group, criterion_main, Criterion};
use harvsim_bench::{scenario1, DenseRun};
use harvsim_core::measurement::{self, PowerReport};

fn power_report(run: &DenseRun, step_time_s: f64) -> PowerReport {
    let harvester = run.session().harvester();
    let (vm, im) = (harvester.generator_voltage_net(), harvester.generator_current_net());
    measurement::power_report(run.waveform().terminals(), vm, im, step_time_s)
        .expect("power report")
}

fn bench_fig8a(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig8a_power_waveform");
    group.sample_size(10);

    let scenario = scenario1(1.0);
    group.bench_function("scenario1_power_report", |b| {
        b.iter(|| {
            let run = DenseRun::run(&scenario).expect("scenario run succeeds");
            power_report(&run, scenario.frequency_step_time_s)
        });
    });

    // Post-processing alone, on a pre-computed run.
    let run = DenseRun::run(&scenario).expect("scenario run succeeds");
    let harvester = run.session().harvester();
    let (vm, im) = (harvester.generator_voltage_net(), harvester.generator_current_net());
    group.bench_function("power_postprocessing_only", |b| {
        b.iter(|| {
            let waveform = measurement::output_power_waveform(run.waveform().terminals(), vm, im);
            let report = power_report(&run, scenario.frequency_step_time_s);
            (waveform.len(), report.rms_before_uw)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_fig8a);
criterion_main!(benches);
