//! Regenerates the paper's tables and figures in one run and prints them in a
//! paper-style layout.
//!
//! ```bash
//! cargo run --release -p harvsim-bench --bin repro            # all experiments
//! cargo run --release -p harvsim-bench --bin repro -- table2  # one experiment
//! cargo run --release -p harvsim-bench --bin repro -- --long  # longer spans
//! cargo run --release -p harvsim-bench --bin repro -- table2 --sweep
//!                                # + a load × excitation sweep grid
//! cargo run --release -p harvsim-bench --bin repro -- accuracy
//!                                # work-precision against a reference
//! ```
//!
//! The Table II experiment additionally writes a machine-readable speed-up
//! record to `BENCH_table2.json` in the working directory, which the CI
//! perf-smoke job gates on and ROADMAP.md tracks across PRs. Each row's two
//! engines run on one thread, alternating in short simulated slices. With
//! `--sweep` the record gains one row per point of a sleep-load ×
//! acceleration grid, run the same way on streaming probes.
//!
//! The accuracy experiment measures both engines' store-voltage error
//! against a Richardson-extrapolated baseline reference on the Table II
//! scenarios and six held-out sweep points, at several tolerance settings
//! ([`harvsim_bench::accuracy`]), and writes `BENCH_accuracy.json`. Its spans
//! are fixed; `--long` does not apply to it.
//!
//! `repro explore` runs the design-space exploration subsystem
//! (DESIGN.md §12): a declarative grid over the extended sweep axes executed
//! on the warm-starting [`Explorer`] (whole chains from one shared list),
//! streamed into a durable result store and distilled into a Pareto report
//! (`BENCH_explore.json`):
//!
//! ```bash
//! cargo run --release -p harvsim-bench --bin repro -- \
//!     explore --store explore.hvck          # default 216-point grid
//! cargo run --release -p harvsim-bench --bin repro -- \
//!     explore --store explore.hvck --resume # continue a killed run
//! ```
//!
//! `repro serve` starts the session service's front door instead of running
//! experiments: a line-protocol server over a crash-safe store directory,
//! speaking on a unix socket (`--socket <path>`) or stdin/stdout
//! (`--stdio`, the default):
//!
//! ```bash
//! cargo run --release -p harvsim-bench --bin repro -- \
//!     serve --store /tmp/harvsim-store --socket /tmp/harvsim.sock
//! ```
//!
//! Unknown experiments or flags are rejected with a usage message and exit
//! code 2 — a typo must not silently run five experiments (or be ignored).

use std::path::PathBuf;
use std::process::ExitCode;

use harvsim_bench::{
    accuracy, scenario1, scenario2, seconds, table2_row, write_explore_json, write_table2_json,
    DenseRun, RowProbes,
};
use harvsim_core::measurement;
use harvsim_core::scenario::ScenarioConfig;
use harvsim_core::{
    BaselineOptions, CoreError, ExploreReport, Explorer, GridSpec, SimulationEngine, SweepGrid,
    SweepParameter,
};

const USAGE: &str = "usage:
  repro [table1|table2|fig8a|fig8b|fig9|accuracy]... [--long] [--sweep]
  repro explore [--scenario 1|2] [--duration <s>]
                [--load v,..] [--acc v,..] [--stages v,..] [--store-scale v,..]
                [--pwl v,..] [--wdt v,..] [--v0 v,..]
                [--subsample <keep>] [--seed <n>] [--refine <axis>]
                [--workers <n>] [--cold] [--store <file>] [--out <file>]
                [--resume] [--report-only]
  repro serve --store <dir> [--socket <path> | --stdio]
              [--slice <s>] [--workers <n>] [--capacity <n>]";

/// Typed CLI failure: a usage error (exit 2, prints the usage text) or a
/// propagated engine error (exit 1).
#[derive(Debug)]
enum ReproError {
    Usage(String),
    Core(CoreError),
}

impl From<CoreError> for ReproError {
    fn from(err: CoreError) -> Self {
        ReproError::Core(err)
    }
}

fn usage(message: impl Into<String>) -> ReproError {
    ReproError::Usage(message.into())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run_cli(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(ReproError::Usage(message)) => {
            eprintln!("error: {message}\n\n{USAGE}");
            ExitCode::from(2)
        }
        Err(ReproError::Core(err)) => {
            eprintln!("error: {err}");
            ExitCode::FAILURE
        }
    }
}

fn run_cli(args: &[String]) -> Result<(), ReproError> {
    match args.first().map(String::as_str) {
        Some("serve") => serve(&args[1..]),
        Some("explore") => explore(&args[1..]),
        _ => run_experiments(args),
    }
}

const EXPERIMENTS: [&str; 6] = ["table1", "table2", "fig8a", "fig8b", "fig9", "accuracy"];

/// Strict experiment selection: positional args must name experiments, flags
/// must be known. Returns `(long, sweep, selected)`; an empty selection means
/// "run everything".
fn parse_experiment_selection(
    args: &[String],
) -> Result<(bool, bool, Vec<&'static str>), ReproError> {
    let mut long = false;
    let mut sweep = false;
    let mut selected = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--long" => long = true,
            "--sweep" => sweep = true,
            name => match EXPERIMENTS.iter().find(|known| **known == name) {
                Some(known) => selected.push(*known),
                None => {
                    return Err(usage(format!(
                        "unknown {} `{name}`",
                        if name.starts_with("--") { "flag" } else { "experiment" }
                    )))
                }
            },
        }
    }
    Ok((long, sweep, selected))
}

fn run_experiments(args: &[String]) -> Result<(), ReproError> {
    let (long, sweep, selected) = parse_experiment_selection(args)?;
    let wanted = |name: &str| selected.is_empty() || selected.contains(&name);

    if wanted("table1") {
        table1(long)?;
    }
    if wanted("table2") {
        table2(long, sweep)?;
    }
    if wanted("fig8a") {
        fig8a(long)?;
    }
    if wanted("fig8b") {
        fig8b(long)?;
    }
    if wanted("fig9") {
        fig9(long)?;
    }
    if wanted("accuracy") {
        accuracy_study()?;
    }
    Ok(())
}

/// Pulls the value following a flag, advancing the cursor.
fn take_value<'a>(args: &'a [String], at: &mut usize, flag: &str) -> Result<&'a str, ReproError> {
    let value = args.get(*at).ok_or_else(|| usage(format!("{flag} expects a value")))?;
    *at += 1;
    Ok(value.as_str())
}

fn parse_f64(raw: &str, flag: &str) -> Result<f64, ReproError> {
    raw.parse::<f64>().map_err(|_| usage(format!("{flag} expects a number, got `{raw}`")))
}

fn parse_usize(raw: &str, flag: &str) -> Result<usize, ReproError> {
    raw.parse::<usize>().map_err(|_| usage(format!("{flag} expects an integer, got `{raw}`")))
}

fn parse_list(raw: &str, flag: &str) -> Result<Vec<f64>, ReproError> {
    let values: Result<Vec<f64>, ReproError> =
        raw.split(',').map(|piece| parse_f64(piece.trim(), flag)).collect();
    let values = values?;
    if values.is_empty() {
        return Err(usage(format!("{flag} expects at least one value")));
    }
    Ok(values)
}

// --- `repro serve` --------------------------------------------------------

/// `repro serve`: the session service's front door as a standalone process.
///
/// Flags: `--store <dir>` (required), `--socket <path>` or `--stdio`
/// (default), `--slice <simulated-s>`, `--workers <n>`, `--capacity <n>`.
/// The server admits, schedules, checkpoints and bills sessions over the
/// line protocol until a `drain` command (or EOF on stdio) shuts it down;
/// restarting over the same store directory resumes every admitted session.
fn serve(args: &[String]) -> Result<(), ReproError> {
    // Strict pass first: every argument must be a known flag (or its value).
    let mut at = 0usize;
    while at < args.len() {
        let flag = args[at].as_str();
        at += 1;
        match flag {
            "--store" | "--socket" | "--slice" | "--workers" | "--capacity" => {
                take_value(args, &mut at, flag)?;
            }
            "--stdio" => {}
            other => return Err(usage(format!("unknown serve argument `{other}`"))),
        }
    }
    let value_of = |flag: &str| -> Option<&str> {
        args.iter()
            .position(|arg| arg == flag)
            .and_then(|found| args.get(found + 1))
            .map(String::as_str)
    };
    let parse = |flag: &str| -> Result<Option<f64>, ReproError> {
        value_of(flag).map(|raw| parse_f64(raw, flag)).transpose()
    };
    let store_dir = value_of("--store").ok_or_else(|| usage("serve requires --store <dir>"))?;
    let store = harvsim_core::SessionStore::open(store_dir).map_err(CoreError::Store)?;

    let mut options = harvsim_core::ServerOptions::default();
    if let Some(slice) = parse("--slice")? {
        options.slice_s = slice;
    }
    if let Some(workers) = parse("--workers")? {
        options.workers = Some(workers as usize);
    }
    if let Some(capacity) = parse("--capacity")? {
        options.class_capacity = capacity as usize;
    }
    let server = harvsim_core::Server::start(store, options)?;
    eprintln!(
        "harvsim session server: store {store_dir}, {} recovered session(s)",
        server.stats().depths.iter().sum::<u64>()
    );

    let result = match value_of("--socket") {
        Some(path) => {
            eprintln!("listening on unix socket {path}");
            server.serve_unix(std::path::Path::new(path)).map_err(|err| {
                CoreError::InvalidConfiguration(format!("socket server failed: {err}"))
            })
        }
        None => {
            eprintln!("speaking the line protocol on stdin/stdout");
            server.serve_stdio().map_err(|err| {
                CoreError::InvalidConfiguration(format!("stdio server failed: {err}"))
            })
        }
    };
    if !server.is_shutdown() {
        // EOF without an explicit `drain`: drain anyway so every resident
        // session is persisted before the process exits.
        let _ = server.execute(harvsim_core::Command::Drain);
    }
    server.join();
    result.map_err(ReproError::Core)
}

// --- `repro explore` ------------------------------------------------------

/// Axis flags in canonical expansion order; `--v0` is deliberately last so
/// the supercap pre-charge is the innermost axis — the one warm-start chains
/// run along (adjacent points differ only in pre-charge, the best donors).
const AXIS_FLAGS: [(&str, &str); 7] = [
    ("--load", "load"),
    ("--acc", "acc"),
    ("--stages", "stages"),
    ("--store-scale", "store"),
    ("--pwl", "pwl"),
    ("--wdt", "wdt"),
    ("--v0", "v0"),
];

/// Parsed `repro explore` invocation.
struct ExploreOptions {
    scenario: usize,
    duration_s: f64,
    axes: Vec<(SweepParameter, Vec<f64>)>,
    subsample: f64,
    seed: u64,
    refine: Option<SweepParameter>,
    workers: Option<usize>,
    cold: bool,
    store: Option<PathBuf>,
    out: PathBuf,
    resume: bool,
    report_only: bool,
}

fn parse_explore_options(args: &[String]) -> Result<ExploreOptions, ReproError> {
    let mut options = ExploreOptions {
        scenario: 1,
        duration_s: 0.4,
        axes: Vec::new(),
        subsample: 1.0,
        seed: 0,
        refine: None,
        workers: None,
        cold: false,
        store: None,
        out: PathBuf::from("BENCH_explore.json"),
        resume: false,
        report_only: false,
    };
    let mut axis_values: [Option<Vec<f64>>; AXIS_FLAGS.len()] = Default::default();
    let mut at = 0usize;
    while at < args.len() {
        let flag = args[at].as_str();
        at += 1;
        match flag {
            "--scenario" => {
                options.scenario = match take_value(args, &mut at, flag)? {
                    "1" => 1,
                    "2" => 2,
                    other => {
                        return Err(usage(format!("--scenario expects 1 or 2, got `{other}`")))
                    }
                };
            }
            "--duration" => {
                options.duration_s = parse_f64(take_value(args, &mut at, flag)?, flag)?;
            }
            "--subsample" => {
                options.subsample = parse_f64(take_value(args, &mut at, flag)?, flag)?;
            }
            "--seed" => {
                let raw = take_value(args, &mut at, flag)?;
                options.seed = raw
                    .parse::<u64>()
                    .map_err(|_| usage(format!("--seed expects an integer, got `{raw}`")))?;
            }
            "--refine" => {
                let raw = take_value(args, &mut at, flag)?;
                options.refine = Some(SweepParameter::from_label(raw).ok_or_else(|| {
                    usage(format!("--refine expects a sweep axis label, got `{raw}`"))
                })?);
            }
            "--workers" => {
                options.workers = Some(parse_usize(take_value(args, &mut at, flag)?, flag)?);
            }
            "--cold" => options.cold = true,
            "--store" => options.store = Some(PathBuf::from(take_value(args, &mut at, flag)?)),
            "--out" => options.out = PathBuf::from(take_value(args, &mut at, flag)?),
            "--resume" => options.resume = true,
            "--report-only" => options.report_only = true,
            other => match AXIS_FLAGS.iter().position(|(name, _)| *name == other) {
                Some(axis) => {
                    axis_values[axis] = Some(parse_list(take_value(args, &mut at, other)?, other)?);
                }
                None => return Err(usage(format!("unknown explore argument `{other}`"))),
            },
        }
    }
    if options.resume && options.report_only {
        return Err(usage("--resume and --report-only are mutually exclusive"));
    }
    if (options.resume || options.report_only) && options.store.is_none() {
        return Err(usage("--resume/--report-only require --store <file>"));
    }
    // No axis flags: the default design study — multiplier depth × duty-cycle
    // period × excitation × pre-charge, 3·3·4·6 = 216 points.
    if axis_values.iter().all(Option::is_none) {
        axis_values[2] = Some(vec![3.0, 4.0, 5.0]);
        axis_values[5] = Some(vec![0.15, 0.30, 0.45]);
        axis_values[1] = Some(vec![0.45, 0.6, 0.75, 0.9]);
        axis_values[6] = Some(vec![2.0, 2.2, 2.4, 2.6, 2.8, 3.0]);
    }
    for (axis, values) in axis_values.into_iter().enumerate() {
        if let Some(values) = values {
            let param = SweepParameter::from_label(AXIS_FLAGS[axis].1)
                .expect("axis table labels are sweep labels");
            options.axes.push((param, values));
        }
    }
    Ok(options)
}

fn spec_for(options: &ExploreOptions) -> Result<GridSpec, ReproError> {
    let base = match options.scenario {
        2 => scenario2(options.duration_s),
        _ => scenario1(options.duration_s),
    };
    let mut spec = GridSpec::new(base).subsample(options.subsample, options.seed);
    for (param, values) in &options.axes {
        spec = spec.axis(*param, values);
    }
    if let Some(param) = options.refine {
        spec = spec.refine(param)?;
    }
    Ok(spec)
}

fn explore(args: &[String]) -> Result<(), ReproError> {
    let options = parse_explore_options(args)?;
    let spec = spec_for(&options)?;
    let mut explorer = Explorer::new(spec);
    if let Some(workers) = options.workers {
        explorer = explorer.workers(workers);
    }
    if options.cold {
        explorer = explorer.warm_start(false);
    }
    if let Some(path) = &options.store {
        explorer = explorer.store(path);
    }
    let report = if options.report_only {
        explorer.report_only()?
    } else if options.resume {
        explorer.resume()?
    } else {
        explorer.run()?
    };
    print_explore_report(&report);
    match write_explore_json(&options.out, &report) {
        Ok(()) => println!("(explore record written to {})", options.out.display()),
        Err(err) => eprintln!("warning: could not write {}: {err}", options.out.display()),
    }
    Ok(())
}

fn print_explore_report(report: &ExploreReport) {
    println!("== Design-space exploration ==\n");
    let axes: Vec<String> =
        report.axes.iter().map(|(param, values)| format!("{param}[{}]", values.len())).collect();
    println!(
        "base {}, axes {}  ->  {} points offered",
        report.base_label,
        axes.join(" x "),
        report.offered
    );
    println!(
        "completed {}, failed {}, skipped {}  (accounting: {} == {} + {} + {})",
        report.completed,
        report.failed,
        report.skipped,
        report.offered,
        report.completed,
        report.failed,
        report.skipped
    );
    println!(
        "workers {} ({} engaged), warm {} / cold {}, resumed {}, dropped regions {}",
        report.workers,
        report.threads_used,
        report.warm_hits,
        report.cold_starts,
        report.resumed,
        report.dropped_regions
    );
    println!("\nobjective summaries over completed points:");
    for summary in &report.summaries {
        println!(
            "  {:<14} min {:>12.6e}  max {:>12.6e}  mean {:>12.6e}",
            summary.objective, summary.min, summary.max, summary.mean
        );
    }
    println!(
        "\nPareto front (maximise energy gain, minimise dip, minimise steps): {} point(s)",
        report.pareto_front.len()
    );
    println!(
        "  {:>6} {:<44} {:>14} {:>10} {:>8} {:>9}",
        "index", "label", "energy [J]", "dip [V]", "steps", "wall [s]"
    );
    const SHOWN: usize = 12;
    for index in report.pareto_front.iter().take(SHOWN) {
        if let Some(row) = report.rows.iter().find(|row| row.index == *index) {
            if let Some(metrics) = row.metrics() {
                println!(
                    "  {:>6} {:<44} {:>14.6e} {:>10.6} {:>8} {:>9.3}",
                    row.index,
                    row.label,
                    metrics.energy_gain_j,
                    metrics.dip_v,
                    metrics.steps,
                    metrics.wall_s
                );
            }
        }
    }
    if report.pareto_front.len() > SHOWN {
        println!(
            "  ... {} more front point(s) in the JSON record",
            report.pareto_front.len() - SHOWN
        );
    }
    println!();
}

// --- experiments ----------------------------------------------------------

/// Table I: CPU time to simulate the supercapacitor-charging curve with
/// Newton–Raphson-based simulator configurations versus the proposed engine.
/// The three commercial tools are represented by three baseline configurations
/// that differ the way the tools do: integration formula and step policy.
fn table1(long: bool) -> Result<(), CoreError> {
    let span = if long { 20.0 } else { 5.0 };
    println!("== Table I: CPU times of different simulation environments ==");
    println!("   (supercapacitor charging, {span} s simulated span)\n");
    println!("{:<34} {:>14} {:>12}", "simulator stand-in", "CPU time [s]", "steps");

    let mut scenario = scenario1(span);
    // Pure charging: keep the controller asleep so only the analogue part runs.
    scenario.controller.energy_threshold_v = 10.0;

    let baselines = [
        (
            "VHDL-AMS-style (trapezoidal + NR)",
            BaselineOptions {
                method: harvsim_core::baseline::BaselineMethod::Trapezoidal,
                step: 5e-5,
                ..Default::default()
            },
        ),
        (
            "PSPICE-style (backward Euler + NR)",
            BaselineOptions {
                method: harvsim_core::baseline::BaselineMethod::BackwardEuler,
                step: 2.5e-5,
                ..Default::default()
            },
        ),
        (
            "SystemC-A-style (trapezoidal + NR, tight tol)",
            BaselineOptions {
                method: harvsim_core::baseline::BaselineMethod::Trapezoidal,
                step: 5e-5,
                newton_tolerance: 1e-11,
            },
        ),
    ];
    for (label, options) in baselines {
        let engine = SimulationEngine::NewtonRaphson(options);
        let run = DenseRun::run(&scenario.clone().with_engine(engine))?;
        let stats = run.session().report().engine_stats.baseline;
        println!("{:<34} {:>14} {:>12}", label, seconds(stats.cpu_time), stats.steps);
    }
    let run = DenseRun::run(&scenario)?;
    let stats = run.session().report().engine_stats.state_space;
    println!(
        "{:<34} {:>14} {:>12}",
        "proposed linearised state-space",
        seconds(stats.cpu_time),
        stats.steps
    );
    println!(
        "\n(paper, P4 2 GHz: 4h24m VHDL-AMS, 9h48m PSPICE, 6h40m SystemC-A for a full charge)\n"
    );
    Ok(())
}

/// Table II: CPU times of the existing (Newton–Raphson) and proposed
/// (Adams–Bashforth + exponential rail) techniques for the two tuning
/// scenarios, plus — with `--sweep` — a sleep-load × acceleration grid. Each
/// row's two engines alternate in short simulated slices on this one thread
/// ([`harvsim_bench::table2_row`]), so both wall times sample the same
/// stretch of host conditions.
fn table2(long: bool, sweep: bool) -> Result<(), CoreError> {
    let (d1, d2) = if long { (20.0, 30.0) } else { (5.0, 8.0) };
    println!("== Table II: CPU times of existing and proposed simulation techniques ==\n");
    println!(
        "{:<26} {:>18} {:>15} {:>9} {:>12} {:>24} {:>22}",
        "scenario",
        "Newton-Raphson [s]",
        "state-space [s]",
        "speed-up",
        "max dev [V]",
        "steps by AB order 1-4",
        "binding pole [1/s]"
    );
    let mut records = Vec::new();
    for scenario in [scenario1(d1), scenario2(d2)] {
        let record = table2_row(&scenario, RowProbes::Dense)?;
        println!(
            "{:<26} {:>18.3} {:>15.3} {:>8.1}x {:>12.4} {:>24} {:>10.0}{:+10.0}i",
            record.name,
            record.baseline_cpu_s,
            record.proposed_cpu_s,
            record.speedup,
            record.max_deviation_v,
            format!("{:?}", record.steps_by_order),
            record.binding_pole_re,
            record.binding_pole_im,
        );
        records.push(record);
    }

    if sweep {
        // Parameter-sweep grid: sleep-mode leakage × excitation amplitude on
        // a trimmed Scenario 1, expanded through the `SweepGrid` builder (the
        // same cross-product path `repro explore` uses). Every grid point's
        // sessions are observed by O(1) probes only (store envelope + step
        // histogram), no dense `Trajectory` anywhere, so the sweep's memory
        // footprint is independent of the simulated span. The recorded
        // `peak_probe_bytes` proves it per row; `max_deviation_v` for sweep
        // rows is the cross-engine difference of the *final* store voltage
        // (the streaming observable) rather than a dense waveform scan.
        let base = scenario1(if long { 8.0 } else { 2.5 });
        let loads = [1.0e9, 2.0e4];
        let accelerations = [0.45, 0.6, 0.75];
        let grid: Vec<ScenarioConfig> = SweepGrid::new(base.with_label("sweep"))
            .axis(SweepParameter::SleepLoadOhms, &loads)
            .axis(SweepParameter::AccelerationAmplitude, &accelerations)
            .expand();
        println!(
            "\n-- sweep grid: sleep load x acceleration ({} points, streaming) --",
            grid.len()
        );
        for config in &grid {
            let record = table2_row(config, RowProbes::Streaming)?;
            println!(
                "{:<34} {:>18.3} {:>15.3} {:>8.1}x {:>12.4} {:>12} B",
                record.name,
                record.baseline_cpu_s,
                record.proposed_cpu_s,
                record.speedup,
                record.max_deviation_v,
                record.peak_probe_bytes,
            );
            records.push(record);
        }
    }

    let json_path = std::path::Path::new("BENCH_table2.json");
    match write_table2_json(json_path, &records) {
        Ok(()) => println!("(speed-up record written to {})", json_path.display()),
        Err(err) => eprintln!("warning: could not write {}: {err}", json_path.display()),
    }
    println!("\n(paper: scenario 1 — 2185 s vs 20.3 s; scenario 2 — 7 h vs 228 s)\n");
    Ok(())
}

/// Accuracy against an independent reference: per configuration, the
/// Richardson reference's observed order and bound, then each engine
/// setting's steps, CPU time and store-voltage error, written to
/// `BENCH_accuracy.json`.
fn accuracy_study() -> Result<(), CoreError> {
    println!("== Accuracy: store-voltage error against a Richardson reference ==");
    println!(
        "   (trapezoidal NR at {:?} s, extrapolated from the two finest; {} matched samples)\n",
        accuracy::REFERENCE_STEPS,
        harvsim_bench::comparison::DEVIATION_SAMPLES
    );
    let mut records = Vec::new();
    for config in accuracy::configurations() {
        let record = accuracy::measure(&config)?;
        println!(
            "{} {}: observed order {:.2}, reference bound {:.2e} V",
            record.name, record.axes, record.observed_order, record.reference_bound_v
        );
        println!(
            "  {:<26} {:>9} {:>10} {:>12} {:>12}",
            "engine setting", "steps", "CPU [s]", "error [V]", "rms [V]"
        );
        let baseline = accuracy::REFERENCE_STEPS.iter().map(|h| format!("NR trapezoidal h={h:e}"));
        let proposed = accuracy::TOLERANCES.iter().map(|(r, a)| format!("state-space {r:e}/{a:e}"));
        let labelled = baseline.zip(&record.baseline).chain(proposed.zip(&record.proposed));
        for (label, point) in labelled {
            println!(
                "  {:<26} {:>9} {:>10.3} {:>12.3e} {:>12.3e}",
                label, point.steps, point.cpu_s, point.error_v, point.rms_error_v
            );
        }
        records.push(record);
    }
    let json_path = std::path::Path::new("BENCH_accuracy.json");
    match accuracy::write_accuracy_json(json_path, &records) {
        Ok(()) => println!("\n(accuracy record written to {})\n", json_path.display()),
        Err(err) => eprintln!("warning: could not write {}: {err}", json_path.display()),
    }
    Ok(())
}

/// Fig. 8(a): generator output power during the 1 Hz tuning process.
fn fig8a(long: bool) -> Result<(), CoreError> {
    let scenario = scenario_for_figures(scenario1(if long { 20.0 } else { 8.0 }));
    println!("== Fig. 8(a): output power from the microgenerator (1 Hz tuning) ==\n");
    let run = DenseRun::run(&scenario)?;
    let harvester = run.session().harvester();
    let (vm, im) = (harvester.generator_voltage_net(), harvester.generator_current_net());
    let terminals = run.waveform().terminals();
    let report = measurement::power_report(terminals, vm, im, scenario.frequency_step_time_s)?;
    println!("RMS power tuned at 70 Hz: {:8.1} uW   (paper: 118 uW)", report.rms_before_uw);
    println!(
        "RMS power tuned at 71 Hz: {:8.1} uW   (paper: 117 uW, measured 116 uW)",
        report.rms_after_uw
    );
    println!(
        "minimum power while detuned: {:5.1} uW (power drops then recovers after tuning)",
        report.dip_uw
    );
    let power = measurement::output_power_waveform(terminals, vm, im);
    print_series("cycle-averaged generator power [uW]", &averaged_power_series(&power, 40));
    Ok(())
}

/// Fig. 8(b): supercapacitor voltage, simulation vs experimental surrogate,
/// during the 1 Hz tuning scenario.
fn fig8b(long: bool) -> Result<(), CoreError> {
    figure_voltage("Fig. 8(b)", scenario_for_figures(scenario1(if long { 20.0 } else { 8.0 })))
}

/// Fig. 9: supercapacitor voltage for the 14 Hz tuning scenario.
fn fig9(long: bool) -> Result<(), CoreError> {
    figure_voltage("Fig. 9", scenario_for_figures(scenario2(if long { 30.0 } else { 12.0 })))
}

fn scenario_for_figures(mut scenario: ScenarioConfig) -> ScenarioConfig {
    scenario.frequency_step_time_s = (scenario.duration_s * 0.25).max(0.5);
    scenario
}

fn figure_voltage(label: &str, scenario: ScenarioConfig) -> Result<(), CoreError> {
    println!("== {label}: supercapacitor voltage, simulation vs experiment ==\n");
    let simulation = DenseRun::run(&scenario)?;
    let surrogate = DenseRun::run(&scenario.experimental_surrogate())?;
    let vc = simulation.session().harvester().storage_voltage_net();
    let (sim, sur) = (simulation.waveform().terminals(), surrogate.waveform().terminals());
    let comparison = measurement::compare_component(sim, sur, vc, 400)?;
    println!(
        "max |simulation - surrogate| = {:.3} V, rms = {:.3} V over {:.1} s",
        comparison.max_deviation, comparison.rms_deviation, comparison.compared_span_s
    );
    let sim = measurement::supercap_voltage_waveform(sim, vc);
    let sur = measurement::supercap_voltage_waveform(sur, vc);
    println!("\n{:>8} {:>14} {:>22}", "t [s]", "simulated [V]", "surrogate measured [V]");
    let stride = (sim.len() / 20).max(1);
    for (a, b) in sim.iter().zip(sur.iter()).step_by(stride) {
        println!("{:>8.2} {:>14.4} {:>22.4}", a.0, a.1, b.1);
    }
    println!();
    Ok(())
}

/// Cycle-averaged generator power series (window ≈ `windows` samples).
fn averaged_power_series(power: &[(f64, f64)], windows: usize) -> Vec<(f64, f64)> {
    if power.is_empty() {
        return Vec::new();
    }
    let chunk = (power.len() / windows).max(1);
    power
        .chunks(chunk)
        .map(|chunk_samples| {
            let t = chunk_samples[chunk_samples.len() / 2].0;
            let mean =
                chunk_samples.iter().map(|(_, p)| *p).sum::<f64>() / chunk_samples.len() as f64;
            (t, mean * 1e6)
        })
        .collect()
}

fn print_series(label: &str, series: &[(f64, f64)]) {
    println!("\n{label}:");
    let max = series.iter().fold(1e-12_f64, |acc, (_, v)| acc.max(*v));
    for (t, v) in series {
        let bars = ((v / max) * 50.0).max(0.0) as usize;
        println!("  t={t:6.2}s {v:8.1}  |{}", "#".repeat(bars));
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn unknown_arguments_are_rejected_not_ignored() {
        // An unknown positional arg used to silently mean "run everything".
        assert!(matches!(
            parse_experiment_selection(&strings(&["tabel2"])),
            Err(ReproError::Usage(message)) if message.contains("tabel2")
        ));
        // Unknown flags used to be silently ignored.
        assert!(matches!(
            parse_experiment_selection(&strings(&["table2", "--seep"])),
            Err(ReproError::Usage(message)) if message.contains("--seep")
        ));
        // Known selections still parse.
        let (long, sweep, selected) =
            parse_experiment_selection(&strings(&["table2", "fig9", "--long", "--sweep"])).unwrap();
        assert!(long && sweep);
        assert_eq!(selected, vec!["table2", "fig9"]);
        // No args = run everything.
        let (_, _, selected) = parse_experiment_selection(&[]).unwrap();
        assert!(selected.is_empty());

        // The same strictness covers the subcommands.
        assert!(matches!(
            run_cli(&strings(&["serve", "--stdoi"])),
            Err(ReproError::Usage(message)) if message.contains("--stdoi")
        ));
        assert!(matches!(
            run_cli(&strings(&["explore", "--warm"])),
            Err(ReproError::Usage(message)) if message.contains("--warm")
        ));
        assert!(matches!(
            run_cli(&strings(&["serve", "--socket"])),
            Err(ReproError::Usage(message)) if message.contains("expects a value")
        ));
    }

    #[test]
    fn explore_flags_parse_into_a_grid_spec() {
        // Defaults: the 216-point design study with v0 innermost.
        let options = parse_explore_options(&[]).unwrap();
        let spec = spec_for(&options).unwrap();
        assert_eq!(spec.offered(), 216);
        let labels: Vec<&str> = spec.axes().iter().map(|(p, _)| p.label()).collect();
        assert_eq!(labels, vec!["acc", "stages", "wdt", "v0"]);

        // Explicit axes override the default grid; order is canonical, not
        // flag order.
        let options = parse_explore_options(&strings(&[
            "--v0",
            "2.4,2.6",
            "--acc",
            "0.5, 0.7, 0.9",
            "--workers",
            "3",
            "--cold",
            "--subsample",
            "0.5",
            "--seed",
            "9",
        ]))
        .unwrap();
        let spec = spec_for(&options).unwrap();
        assert_eq!(spec.offered(), 6);
        let labels: Vec<&str> = spec.axes().iter().map(|(p, _)| p.label()).collect();
        assert_eq!(labels, vec!["acc", "v0"]);
        assert_eq!(options.workers, Some(3));
        assert!(options.cold);
        assert_eq!(options.subsample, 0.5);
        assert_eq!(options.seed, 9);

        // Refinement grows the named axis.
        let options =
            parse_explore_options(&strings(&["--acc", "0.5,0.7", "--refine", "acc"])).unwrap();
        assert_eq!(spec_for(&options).unwrap().offered(), 3);

        // Typed usage errors, not panics.
        assert!(matches!(
            parse_explore_options(&strings(&["--acc", "fast"])),
            Err(ReproError::Usage(_))
        ));
        assert!(matches!(
            parse_explore_options(&strings(&["--scenario", "3"])),
            Err(ReproError::Usage(_))
        ));
        assert!(matches!(
            parse_explore_options(&strings(&["--resume"])),
            Err(ReproError::Usage(message)) if message.contains("--store")
        ));
        assert!(matches!(
            parse_explore_options(&strings(&["--resume", "--report-only", "--store", "s"])),
            Err(ReproError::Usage(message)) if message.contains("mutually exclusive")
        ));
        assert!(matches!(
            parse_explore_options(&strings(&["--refine", "bogus"])),
            Err(ReproError::Usage(_))
        ));
    }
}
