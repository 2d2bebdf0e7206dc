//! `table2`: the paper's Table II — scenario 1 (70 → 71 Hz, 5 s) and
//! scenario 2 (70 → 84 Hz, 8 s), each on the proposed state-space engine and
//! on the exact-Shockley Newton–Raphson baseline.
//!
//! Every repetition's four sessions are built before the timed phase, and all
//! of them — repetitions included — are advanced round-robin on this one
//! thread in short simulated slices through `Session::run_until` (pausing
//! there is bit-identical). Each repetition therefore spans the whole run. A
//! reference burst follows every slice, and each slice is scaled by the
//! bursts around it. A pairing's time is the sum over rounds of the median,
//! across repetitions, of that round's scaled slice: the repetitions ran the
//! same round at nearly the same moment, so the median discards a slice that
//! a host hiccup hit. The seed only shuffles the order of the sessions within
//! each round.

use std::path::Path;
use std::time::Instant;

use harvsim_core::{
    BaselineOptions, Probe, ProbeId, ScenarioConfig, Session, Simulation, SolverOptions,
    TunableHarvester,
};
use harvsim_linalg::DVector;

use crate::checks::matched_deviation;
use crate::host::{burst_us, factor, peak_rss_mb, HostClock};
use crate::layers::{self, Capture, EngineRun};
use crate::stats::{median, Metric};
use crate::trace::Tracer;
use crate::{Options, Outcome, Rng};

/// Simulated seconds per interleaving slice.
const SLICE_S: f64 = 0.05;
/// Store-voltage samples compared between the engines, at matched times.
const MATCHED_SAMPLES: usize = 400;
/// Reference-speed wall seconds of one repetition (all four spans); sets how
/// many repetitions fit in `--seconds`.
const NOMINAL_REP_S: f64 = 4.5;
const MIN_REPS: usize = 3;
/// Set-up is ~0.1 ms; it is repeated at least this many times and the
/// median kept (the first builds are the timed repetitions' sessions).
const SETUP_BUILDS: usize = 31;
/// Bursts on each side of a slice that scale it (about ±1.5 s of the run).
/// The host's speed moves within a run, so one run-wide median tracks it
/// badly; a few bursts are too noisy. Measured run-to-run spreads of the
/// scaled times: ±3 bursts 4–9 %, ±200 bursts 2–8 %, whole run 9–19 %.
const BURST_WINDOW: usize = 200;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Engine {
    Proposed,
    Baseline,
}

impl Engine {
    fn name(self) -> &'static str {
        match self {
            Engine::Proposed => "proposed",
            Engine::Baseline => "baseline",
        }
    }
}

/// The four Table II columns: (scenario index, engine).
const PAIRINGS: [(usize, Engine); 4] =
    [(0, Engine::Proposed), (0, Engine::Baseline), (1, Engine::Proposed), (1, Engine::Baseline)];
const LABELS: [&str; 2] = ["s1", "s2"];

fn pairing_name(pairing: usize) -> String {
    let (scenario, engine) = PAIRINGS[pairing];
    format!("{}_{}", LABELS[scenario], engine.name())
}

/// The two Table II scenarios, defined here so that no change elsewhere can
/// change the benchmark's inputs.
fn scenario(index: usize) -> ScenarioConfig {
    let mut config =
        if index == 0 { ScenarioConfig::scenario1() } else { ScenarioConfig::scenario2() };
    if index == 0 {
        config.duration_s = 5.0;
        config.frequency_step_time_s = 1.0;
    } else {
        config.duration_s = 8.0;
        config.frequency_step_time_s = 1.6;
        config.initial_supercap_voltage = 2.6;
    }
    config
}

/// Samples the store voltage at fixed simulated times (linear interpolation
/// between accepted steps, so both engines are compared at the same instants
/// whatever steps they take) and, on the first repetition's proposed
/// marches, captures operating points for the layer replay.
struct MatchedProbe {
    net: usize,
    grid: Vec<f64>,
    values: Vec<f64>,
    previous: Option<(f64, f64)>,
    capture: Option<Capture>,
}

impl MatchedProbe {
    fn new(net: usize, span: f64, capture: bool) -> Self {
        let grid = (0..MATCHED_SAMPLES)
            .map(|k| span * (k as f64 + 0.5) / MATCHED_SAMPLES as f64)
            .collect();
        MatchedProbe {
            net,
            grid,
            values: Vec::with_capacity(MATCHED_SAMPLES),
            previous: None,
            capture: capture.then(Capture::new),
        }
    }
}

impl Probe for MatchedProbe {
    fn on_sample(&mut self, t: f64, states: &DVector, terminals: &DVector) {
        let v = terminals[self.net];
        while let Some(&at) = self.grid.get(self.values.len()) {
            if at > t {
                break;
            }
            let value = match self.previous {
                Some((t0, v0)) if t > t0 => v0 + (v - v0) * (at - t0) / (t - t0),
                _ => v,
            };
            self.values.push(value);
        }
        self.previous = Some((t, v));
        if let Some(capture) = self.capture.as_mut() {
            capture.record(t, states, terminals);
        }
    }
}

/// One session of the interleave.
struct Lane {
    rep: usize,
    pairing: usize,
    traced: bool,
    span: f64,
    session: Session,
    probe: ProbeId,
    /// Wall time of each round's slice, ns, raw and at reference host speed.
    raw_ns: Vec<f64>,
    norm_ns: Vec<f64>,
}

impl Lane {
    fn tag(&self) -> String {
        pairing_name(self.pairing)
    }

    fn matched(&self) -> &[f64] {
        &self.session.probe::<MatchedProbe>(self.probe).expect("probe keeps its type").values
    }
}

/// Builds one repetition's four sessions; returns them with each
/// `Simulation::start` time in µs.
fn build_set(
    rep: usize,
    traced: bool,
    tracer: &mut Tracer,
) -> Result<(Vec<Lane>, Vec<f64>), String> {
    let mut lanes = Vec::with_capacity(PAIRINGS.len());
    let mut start_us = Vec::with_capacity(PAIRINGS.len());
    for (pairing, &(index, engine)) in PAIRINGS.iter().enumerate() {
        let config = scenario(index);
        let span = config.duration_s;
        let simulation = Simulation::from_config(config);
        let simulation = match engine {
            Engine::Proposed => simulation.solver_options(SolverOptions::default()),
            Engine::Baseline => simulation.baseline_options(BaselineOptions::default()),
        };
        let started = Instant::now();
        let mut session = simulation.start().map_err(|err| err.to_string())?;
        let ended = Instant::now();
        start_us.push((ended - started).as_nanos() as f64 / 1e3);
        tracer.record("Simulation::start", pairing_name(pairing), rep as u64, None, started, ended);
        let net = session.harvester().storage_voltage_net();
        let capture = rep == 0 && engine == Engine::Proposed;
        let probe = session.add_probe(MatchedProbe::new(net, span, capture));
        lanes.push(Lane {
            rep,
            pairing,
            traced,
            span,
            session,
            probe,
            raw_ns: Vec::new(),
            norm_ns: Vec::new(),
        });
    }
    Ok((lanes, start_us))
}

/// A pairing's time over `lanes` (its repetitions), ns: the sum over rounds
/// of the median across repetitions.
fn robust_total(lanes: &[&Lane], series: fn(&Lane) -> &[f64]) -> f64 {
    let rounds = lanes.iter().map(|lane| series(lane).len()).min().unwrap_or(0);
    (0..rounds)
        .map(|round| median(&lanes.iter().map(|lane| series(lane)[round]).collect::<Vec<_>>()))
        .sum()
}

fn norm(lane: &Lane) -> &[f64] {
    &lane.norm_ns
}

fn raw(lane: &Lane) -> &[f64] {
    &lane.raw_ns
}

/// The exact work counts of one comparison, which every repetition must
/// reproduce bit for bit.
fn work_counts(proposed: &Lane, baseline: &Lane) -> [usize; 6] {
    let proposed_report = proposed.session.report();
    let solver = proposed_report.engine_stats.state_space;
    let baseline = baseline.session.report().engine_stats.baseline;
    [
        solver.steps,
        solver.linearisations,
        solver.factorisations,
        baseline.steps,
        baseline.newton_iterations,
        proposed_report.digital_events as usize,
    ]
}

/// A pairing's metric: the robust total over `lanes`, with the spread of the
/// per-repetition totals as its steadiness readout.
fn pairing_metric(name: String, lanes: &[&Lane], series: fn(&Lane) -> &[f64]) -> Metric {
    let per_rep: Vec<f64> =
        lanes.iter().map(|lane| series(lane).iter().sum::<f64>() / 1e9).collect();
    Metric::with_spread(name, "s", robust_total(lanes, series) / 1e9, &per_rep)
}

/// The two end-to-end figures over the repetitions `lanes_of` selects, from
/// `series`: the proposed column's time (S1 + S2 on the proposed engine) and
/// the whole table's simulated seconds per second (all four marches), each
/// with the spread of its per-repetition values.
fn figures<'a>(
    prefix: &str,
    lanes_of: impl Fn(usize) -> Vec<&'a Lane>,
    series: fn(&Lane) -> &[f64],
) -> [Metric; 2] {
    let table_sim_s = 2.0 * (scenario(0).duration_s + scenario(1).duration_s);
    let columns: Vec<Vec<&Lane>> = (0..PAIRINGS.len()).map(&lanes_of).collect();
    let totals: Vec<f64> = columns.iter().map(|lanes| robust_total(lanes, series)).collect();
    let rep_s =
        |pairing: usize, rep: usize| series(columns[pairing][rep]).iter().sum::<f64>() / 1e9;
    let reps = columns[0].len();
    let proposed: Vec<f64> = (0..reps).map(|rep| rep_s(0, rep) + rep_s(2, rep)).collect();
    let rate: Vec<f64> = (0..reps)
        .map(|rep| table_sim_s / (0..PAIRINGS.len()).map(|p| rep_s(p, rep)).sum::<f64>())
        .collect();
    [
        Metric::with_spread(
            format!("{prefix}latency_s"),
            "s",
            (totals[0] + totals[2]) / 1e9,
            &proposed,
        ),
        Metric::with_spread(
            format!("{prefix}sim_s_per_s"),
            "sim-s/s",
            table_sim_s * 1e9 / totals.iter().sum::<f64>(),
            &rate,
        ),
    ]
}

pub fn run(options: &Options, tracer: &mut Tracer, work: &Path) -> Result<Outcome, String> {
    let mut rng = Rng::new(options.seed);
    let reps = ((options.seconds / NOMINAL_REP_S) as usize).max(MIN_REPS);
    // The traced run traces a seeded half of the repetitions and leaves the
    // rest untraced, so the overhead is measured under the same host phases.
    let mut traced_reps: Vec<bool> = (0..reps).map(|rep| options.trace && rep < reps / 2).collect();
    rng.shuffle(&mut traced_reps);
    let mut outcome = Outcome::default();
    let mut bursts_all = Vec::new();

    // Set-up: build a repetition's four sessions many times, each between
    // reference bursts; the first `reps` builds are marched.
    let mut setup = Vec::new();
    let mut raw_setup = Vec::new();
    let mut start_us = Vec::new();
    let mut lanes: Vec<Lane> = Vec::new();
    for build in 0..SETUP_BUILDS.max(reps) {
        let mut around = vec![burst_us(), burst_us()];
        tracer.set_enabled(options.trace);
        let started = Instant::now();
        let (set, starts) =
            build_set(build, traced_reps.get(build).copied().unwrap_or(false), tracer)?;
        let elapsed = started.elapsed().as_secs_f64();
        around.extend([burst_us(), burst_us()]);
        let scale = factor(median(&around));
        bursts_all.extend(around);
        raw_setup.push(elapsed);
        setup.push(elapsed * scale);
        start_us.extend(starts.iter().map(|us| us * scale));
        if build < reps {
            lanes.extend(set);
        }
    }

    // Timed phase: every lane of every repetition, round-robin.
    let root = tracer.open("table2.interleave", format!("{reps} repetitions"), 0, None);
    let longest = lanes.iter().map(|lane| lane.span).fold(0.0, f64::max);
    let rounds = (longest / SLICE_S).ceil() as usize;
    let mut order: Vec<usize> = (0..lanes.len()).collect();
    let mut bursts = vec![burst_us()];
    let mut slices: Vec<(usize, f64)> = Vec::new();
    for round in 0..rounds {
        let target = (round + 1) as f64 * SLICE_S;
        rng.shuffle(&mut order);
        for &index in &order {
            let lane = &mut lanes[index];
            if lane.session.is_finished() {
                continue;
            }
            let started = Instant::now();
            let outcome = if target >= lane.span - 1e-9 {
                lane.session.run_to_end()
            } else {
                lane.session.run_until(target).map(|_| ())
            };
            let ended = Instant::now();
            outcome.map_err(|err| format!("{} at t = {target}: {err}", lane.tag()))?;
            slices.push((index, (ended - started).as_nanos() as f64));
            tracer.set_enabled(lane.traced);
            tracer.record("Session::run_until", lane.tag(), lane.rep as u64, root, started, ended);
            bursts.push(burst_us());
        }
    }
    tracer.set_enabled(options.trace);
    tracer.close(root);
    // Slice `s` ran between bursts `s` and `s + 1`.
    for (s, &(index, ns)) in slices.iter().enumerate() {
        let window =
            &bursts[s.saturating_sub(BURST_WINDOW - 1)..(s + BURST_WINDOW + 1).min(bursts.len())];
        let lane = &mut lanes[index];
        lane.raw_ns.push(ns);
        lane.norm_ns.push(ns * factor(median(window)));
    }
    bursts_all.extend(&bursts);

    // Checks: per repetition and scenario, the engines agree at matched
    // times and the work counts repeat the first repetition's exactly.
    let find = |rep: usize, pairing: usize| -> &Lane {
        lanes
            .iter()
            .find(|lane| lane.rep == rep && lane.pairing == pairing)
            .expect("every repetition has every pairing")
    };
    let mut deviations = [Vec::new(), Vec::new()];
    for rep in 0..reps {
        for (scenario, label) in LABELS.iter().enumerate() {
            let proposed = find(rep, 2 * scenario);
            let baseline = find(rep, 2 * scenario + 1);
            outcome.attempted += 1;
            let reference = work_counts(find(0, 2 * scenario), find(0, 2 * scenario + 1));
            let counts = work_counts(proposed, baseline);
            match matched_deviation(proposed.matched(), baseline.matched()) {
                Err(reason) => {
                    outcome.failed += 1;
                    println!("rep {rep} {label}: {reason}");
                }
                Ok(_) if counts != reference => {
                    outcome.failed += 1;
                    println!("rep {rep} {label}: work counts {counts:?} differ from {reference:?}");
                }
                Ok(deviation) => deviations[scenario].push(deviation),
            }
        }
    }

    let of = |pairing: usize, traced: Option<bool>| -> Vec<&Lane> {
        lanes
            .iter()
            .filter(|lane| lane.pairing == pairing && traced.is_none_or(|want| lane.traced == want))
            .collect()
    };
    let untraced = |pairing: usize| of(pairing, Some(false));
    // The Table II columns per scenario, for the reader.
    for pairing in 0..PAIRINGS.len() {
        let name = pairing_name(pairing);
        outcome.derived.push(pairing_metric(format!("table2.{name}_s"), &untraced(pairing), norm));
        outcome.derived.push(pairing_metric(format!("raw.{name}_s"), &untraced(pairing), raw));
    }
    for (scenario, label) in LABELS.iter().enumerate() {
        let proposed = untraced(2 * scenario);
        let baseline = untraced(2 * scenario + 1);
        let ratios: Vec<f64> = proposed
            .iter()
            .zip(&baseline)
            .map(|(p, b)| b.norm_ns.iter().sum::<f64>() / p.norm_ns.iter().sum::<f64>())
            .collect();
        let speedup = robust_total(&baseline, norm) / robust_total(&proposed, norm);
        let max_dev = deviations[scenario].iter().copied().fold(0.0, f64::max);
        outcome.derived.push(Metric::with_spread(
            format!("table2.{label}_speedup"),
            "x",
            speedup,
            &ratios,
        ));
        outcome.derived.push(Metric::single(format!("table2.{label}_max_dev_v"), "V", max_dev));
    }
    let host = Metric::repeated("host.ref_us", "us", &bursts_all);
    let raw_setup = Metric::repeated("raw.setup_s", "s", &raw_setup);
    if !options.trace {
        outcome.derived.push(host);
        outcome.derived.push(raw_setup);
        outcome.derived.extend(figures("raw.", untraced, raw));
        outcome.metrics.push(Metric::repeated("setup_s", "s", &setup));
        outcome.metrics.push(Metric::single("peak_rss_mb", "MiB", peak_rss_mb()));
        outcome.metrics.extend(figures("", untraced, norm));
        return Ok(outcome);
    }

    // Traced run: per-layer metrics. Counts come from the first repetition
    // (every repetition reproduces them), timings from all repetitions.
    let total = |traced: bool| -> f64 {
        (0..PAIRINGS.len()).map(|p| robust_total(&of(p, Some(traced)), norm)).sum()
    };
    let overhead = total(true) / total(false) - 1.0;
    let runs: Vec<EngineRun> = (0..LABELS.len())
        .map(|scenario| {
            let proposed = find(0, 2 * scenario).session.report();
            EngineRun {
                solver: proposed.engine_stats.state_space,
                digital_events: proposed.digital_events,
                baseline: find(0, 2 * scenario + 1).session.report().engine_stats.baseline,
                proposed_ns: robust_total(&of(2 * scenario, None), norm),
                baseline_ns: robust_total(&of(2 * scenario + 1, None), norm),
            }
        })
        .collect();
    let captures: Vec<(&TunableHarvester, &Capture)> = (0..LABELS.len())
        .map(|scenario| {
            let lane = find(0, 2 * scenario);
            let probe =
                lane.session.probe::<MatchedProbe>(lane.probe).expect("probe keeps its type");
            (lane.session.harvester(), probe.capture.as_ref().expect("rep 0 captures"))
        })
        .collect();
    let replay = layers::replay(&captures, tracer)?;
    let steps: f64 = runs.iter().map(|run| run.solver.steps as f64).sum();
    let proposed_ns: f64 = runs.iter().map(|run| run.proposed_ns).sum();
    let mut cpu = HostClock::new();
    let mut disk = HostClock::with_origin(cpu.origin());
    let m = &mut outcome.metrics;
    m.push(host);
    m.push(Metric::single("trace.overhead_frac", "frac", overhead));
    m.push(raw_setup);
    m.extend(figures("raw.", |p| of(p, None), raw));
    m.push(Metric::single("solver.ns_per_step", "ns", proposed_ns / steps));
    m.push(Metric::single("solver.steps", "count", steps));
    m.extend(layers::engine_metrics(&runs, &replay, &start_us)?);
    m.extend(layers::durability_metrics(work, &mut cpu, &mut disk)?);
    Ok(outcome)
}
