//! `explore`: the default 216-point design study, repeated within the run —
//! acceleration {0.45, 0.6, 0.75, 0.9} × Dickson stages {3, 4, 5} × watchdog
//! period {0.15, 0.3, 0.45} s × pre-charge {2.0 … 3.0 V in 0.2 V steps} on a
//! 0.4 s scenario-1 base, through `Explorer::run` with 2 workers, warm starts
//! and a result-store file.
//!
//! The grid is defined here, not taken from the CLI defaults, so a change to
//! `repro` cannot change the benchmark's inputs. The study is fixed; the seed
//! only orders traced and untraced repetitions in the traced run. Each grid
//! run is bracketed by reference bursts, on as many threads as it has
//! workers, taken while nothing else runs; its wall time is scaled by their
//! median.

use std::path::Path;
use std::time::Instant;

use harvsim_core::{ExploreReport, Explorer, GridSpec, ScenarioConfig, Simulation, SweepParameter};

use crate::checks::explore_failures;
use crate::host::{burst_us, factor, peak_rss_mb, HostClock};
use crate::layers;
use crate::stats::{median, percentile, Metric};
use crate::trace::Tracer;
use crate::{Options, Outcome, Rng};

const WORKERS: usize = 2;
/// Reference bursts per worker thread before and after each grid run (~4 ms
/// each side).
const BRACKET_BURSTS: usize = 20;
/// Set-up takes microseconds; it is repeated this many times per repetition
/// and the median kept.
const SETUP_ROUNDS: usize = 9;
const MIN_REPS: usize = 4;
/// Simulated span of every grid point, seconds.
const POINT_SPAN_S: f64 = 0.4;

fn base_scenario() -> ScenarioConfig {
    let mut base = ScenarioConfig::scenario1();
    base.duration_s = POINT_SPAN_S;
    base.frequency_step_time_s = 0.08;
    base
}

fn grid_spec() -> GridSpec {
    GridSpec::new(base_scenario())
        .axis(SweepParameter::AccelerationAmplitude, &[0.45, 0.6, 0.75, 0.9])
        .axis(SweepParameter::MultiplierStages, &[3.0, 4.0, 5.0])
        .axis(SweepParameter::WatchdogPeriod, &[0.15, 0.3, 0.45])
        .axis(SweepParameter::InitialSupercapVoltage, &[2.0, 2.2, 2.4, 2.6, 2.8, 3.0])
}

/// Everything the timed phase needs: the grid spec, the explorer and a
/// clean store path.
fn set_up(store: &Path) -> Result<Explorer, String> {
    let _ = std::fs::remove_file(store);
    if let Some(dir) = store.parent() {
        std::fs::create_dir_all(dir).map_err(|err| format!("create {}: {err}", dir.display()))?;
    }
    Ok(Explorer::new(grid_spec()).workers(WORKERS).store(store))
}

fn bursts(count: usize) -> Vec<f64> {
    (0..count).map(|_| burst_us()).collect()
}

/// `count` bursts on each of `WORKERS` threads at once: the grid's makespan
/// depends on the speed of every core its workers run on, not only this
/// thread's.
fn bracket_bursts(count: usize) -> Vec<f64> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WORKERS).map(|_| scope.spawn(move || bursts(count))).collect();
        handles
            .into_iter()
            .flat_map(|handle| handle.join().expect("a reference burst does not panic"))
            .collect()
    })
}

struct Rep {
    traced: bool,
    setup_s: f64,
    raw_setup_s: f64,
    raw_s: f64,
    /// Reference-speed scale of this repetition's grid run.
    scale: f64,
    report: ExploreReport,
    store_bytes: u64,
}

impl Rep {
    fn norm_s(&self) -> f64 {
        self.raw_s * self.scale
    }

    fn sim_s(&self) -> f64 {
        self.report.completed as f64 * POINT_SPAN_S
    }
}

/// The end-to-end figures over `reps`, with wall times from `wall`: one
/// grid run's time and the simulated seconds it completes per second.
fn figures(prefix: &str, reps: &[&Rep], wall: fn(&Rep) -> f64) -> [Metric; 2] {
    let walls: Vec<f64> = reps.iter().map(|rep| wall(rep)).collect();
    let rates: Vec<f64> = reps.iter().map(|rep| rep.sim_s() / wall(rep)).collect();
    [
        Metric::repeated(format!("{prefix}latency_s"), "s", &walls),
        Metric::repeated(format!("{prefix}sim_s_per_s"), "sim-s/s", &rates),
    ]
}

pub fn run(options: &Options, tracer: &mut Tracer, work: &Path) -> Result<Outcome, String> {
    let mut rng = Rng::new(options.seed);
    let mut outcome = Outcome::default();
    let mut reps: Vec<Rep> = Vec::new();
    let mut bursts_all = Vec::new();
    let started = Instant::now();
    // The traced run alternates traced and untraced repetitions, each pair
    // in a seeded order.
    let mut traced_first = rng.below(2) == 0;
    while reps.len() < MIN_REPS || started.elapsed().as_secs_f64() < options.seconds {
        let index = reps.len() as u64;
        let traced = options.trace && (index.is_multiple_of(2) == traced_first);
        if options.trace && index % 2 == 1 {
            traced_first = rng.below(2) == 0;
        }
        tracer.set_enabled(traced);
        let store = work.join(format!("grid-{index}.hvex"));

        let mut around = bursts(2);
        let mut setups = Vec::with_capacity(SETUP_ROUNDS);
        let mut explorer = None;
        for _ in 0..SETUP_ROUNDS {
            let setup_started = Instant::now();
            explorer = Some(set_up(&store)?);
            setups.push(setup_started.elapsed().as_secs_f64());
        }
        let explorer = explorer.expect("set up at least once");
        around.extend(bursts(2));
        let setup_scale = factor(median(&around));
        bursts_all.extend(around);

        let mut bracket = bracket_bursts(BRACKET_BURSTS);
        let run_started = Instant::now();
        let report = explorer.run().map_err(|err| err.to_string())?;
        let run_ended = Instant::now();
        bracket.extend(bracket_bursts(BRACKET_BURSTS));
        let scale = factor(median(&bracket));
        bursts_all.extend(bracket);
        tracer.record("Explorer::run", "216-point", index, None, run_started, run_ended);
        let store_bytes = std::fs::metadata(&store).map(|meta| meta.len()).unwrap_or(0);
        let _ = std::fs::remove_file(&store);

        outcome.attempted += report.offered as u64;
        let failed = explore_failures(&report, reps.first().map(|rep| &rep.report));
        if failed > 0 {
            println!("rep {index}: {failed} of {} points failed their checks", report.offered);
        }
        outcome.failed += failed as u64;
        let setup_raw = median(&setups);
        reps.push(Rep {
            traced,
            setup_s: setup_raw * setup_scale,
            raw_setup_s: setup_raw,
            raw_s: (run_ended - run_started).as_secs_f64(),
            scale,
            report,
            store_bytes,
        });
    }
    tracer.set_enabled(options.trace);

    let untraced: Vec<&Rep> = reps.iter().filter(|rep| !rep.traced).collect();
    let traced: Vec<&Rep> = reps.iter().filter(|rep| rep.traced).collect();
    let all: Vec<&Rep> = reps.iter().collect();
    let first = &reps[0].report;

    // Per-point and scheduler numbers, from every repetition's report.
    let mut steps = 0usize;
    let mut ns_per_step = Vec::new();
    let mut busy = Vec::new();
    let mut point_ms = Vec::new();
    let mut steals = Vec::new();
    for rep in &reps {
        let completed: Vec<_> = rep.report.rows.iter().filter_map(|row| row.metrics()).collect();
        let walls: Vec<f64> = completed.iter().map(|metrics| metrics.wall_s * rep.scale).collect();
        steps = completed.iter().map(|metrics| metrics.steps).sum();
        let point_total: f64 = walls.iter().sum();
        ns_per_step.push(point_total * 1e9 / steps.max(1) as f64);
        busy.push(point_total / (rep.report.workers as f64 * rep.norm_s()));
        point_ms.extend(walls.iter().map(|wall| wall * 1e3));
        steals.push(rep.report.steals as f64);
    }
    let d = &mut outcome.derived;
    d.push(Metric::repeated("explore.busy_frac", "frac", &busy));
    d.push(Metric::single("explore.point_p50_ms", "ms", percentile(&point_ms, 0.5)));
    d.push(Metric::single("explore.point_p95_ms", "ms", percentile(&point_ms, 0.95)));
    d.push(Metric::repeated("explore.steals", "count", &steals));
    d.push(Metric::single(
        "explore.warm_hit_rate",
        "frac",
        first.warm_hits as f64 / first.offered.max(1) as f64,
    ));
    d.push(Metric::single("explore.store_bytes", "bytes", reps[0].store_bytes as f64));

    let host = Metric::repeated("host.ref_us", "us", &bursts_all);
    let raw_setup = Metric::repeated(
        "raw.setup_s",
        "s",
        &reps.iter().map(|rep| rep.raw_setup_s).collect::<Vec<_>>(),
    );
    if !options.trace {
        outcome.derived.push(host);
        outcome.derived.push(raw_setup);
        outcome.derived.extend(figures("raw.", &untraced, |rep| rep.raw_s));
        let setup: Vec<f64> = untraced.iter().map(|rep| rep.setup_s).collect();
        outcome.metrics.push(Metric::repeated("setup_s", "s", &setup));
        outcome.metrics.push(Metric::single("peak_rss_mb", "MiB", peak_rss_mb()));
        outcome.metrics.extend(figures("", &untraced, Rep::norm_s));
        return Ok(outcome);
    }

    // Engine layers: the grid's base point marched inline on both engines
    // and replayed; durability layers on a fixed session.
    let marched = layers::march_both(&[Simulation::from_config(base_scenario())], tracer)?;
    let replay = layers::replay(&marched.captures(), tracer)?;
    let mut cpu = HostClock::new();
    let mut disk = HostClock::with_origin(cpu.origin());
    let wall = |set: &[&Rep]| median(&set.iter().map(|rep| rep.norm_s()).collect::<Vec<_>>());
    let m = &mut outcome.metrics;
    m.push(host);
    m.push(Metric::single("trace.overhead_frac", "frac", wall(&traced) / wall(&untraced) - 1.0));
    m.push(raw_setup);
    m.extend(figures("raw.", &all, |rep| rep.raw_s));
    m.push(Metric::repeated("solver.ns_per_step", "ns", &ns_per_step));
    m.push(Metric::single("solver.steps", "count", steps as f64));
    m.extend(layers::engine_metrics(&marched.runs, &replay, &marched.start_us)?);
    m.extend(layers::durability_metrics(work, &mut cpu, &mut disk)?);
    Ok(outcome)
}
