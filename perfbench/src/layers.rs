//! Per-layer measurements that every workload's traced run reports under the
//! same names, each from the workload's own inputs:
//!
//! * the engine layers `Session` hides — solver counters, the assembly,
//!   linear-algebra and ODE calls (timed by replaying operating points
//!   captured along a proposed-engine march), the digital kernel and the
//!   Newton–Raphson baseline;
//! * the durability layers — checkpoint encode/restore and fsync'd store
//!   writes and opens.

use std::path::Path;
use std::time::Instant;

use harvsim_core::baseline::BaselineStats;
use harvsim_core::{
    AnalogueSystem, BaselineOptions, Probe, ProbeId, Session, SessionStore, Simulation,
    SolverOptions, SolverStats, TerminalFactorisation, TunableHarvester,
};
use harvsim_linalg::{DMatrix, DVector};
use harvsim_ode::exponential::StiffExponential;
use harvsim_ode::stability::order_step_limits;

use crate::host::{burst_us, factor, fsync_probe_us, HostClock, FSYNC_NOMINAL_US};
use crate::stats::{median, percentile, Metric};
use crate::trace::Tracer;

/// Most operating points a capture holds; see [`Capture`].
const MAX_POINTS: usize = 1024;
/// Fewest replayed points a traced run accepts.
const MIN_REPLAY_POINTS: usize = 200;

/// An operating point of a proposed-engine march, kept for the replay.
#[derive(Debug, Clone)]
pub struct ReplayPoint {
    t: f64,
    x: DVector,
    y: DVector,
    /// The step the march took from this point (NaN until the next sample).
    h: f64,
}

/// Keeps every `stride`-th accepted step's operating point. Whenever
/// `MAX_POINTS` are held, every other one is dropped and the stride doubles,
/// so a march of any length leaves between half and all of `MAX_POINTS`.
#[derive(Debug)]
pub struct Capture {
    stride: usize,
    seen: usize,
    points: Vec<ReplayPoint>,
}

impl Capture {
    pub fn new() -> Self {
        Capture { stride: 1, seen: 0, points: Vec::new() }
    }

    pub fn record(&mut self, t: f64, states: &DVector, terminals: &DVector) {
        if let Some(last) = self.points.last_mut() {
            if last.h.is_nan() && t > last.t {
                last.h = t - last.t;
            }
        }
        if self.seen.is_multiple_of(self.stride) {
            if self.points.len() == MAX_POINTS {
                let mut index = 0;
                self.points.retain(|_| {
                    index += 1;
                    index % 2 == 1
                });
                self.stride *= 2;
            }
            if self.seen.is_multiple_of(self.stride) {
                self.points.push(ReplayPoint {
                    t,
                    x: states.clone(),
                    y: terminals.clone(),
                    h: f64::NAN,
                });
            }
        }
        self.seen += 1;
    }

    /// The captured points whose next step is known.
    fn points(&self) -> Vec<&ReplayPoint> {
        self.points.iter().filter(|point| point.h > 0.0).collect()
    }
}

impl Probe for Capture {
    fn on_sample(&mut self, t: f64, states: &DVector, terminals: &DVector) {
        self.record(t, states, terminals);
    }
}

/// One input marched once on each engine: the engines' exact counters and
/// their engine times at reference host speed.
#[derive(Debug, Clone)]
pub struct EngineRun {
    pub solver: SolverStats,
    pub digital_events: u64,
    pub baseline: BaselineStats,
    pub proposed_ns: f64,
    pub baseline_ns: f64,
}

/// Inputs marched inline by [`march_both`]: their counters, the proposed
/// sessions with their captures, and each `Simulation::start` in µs at
/// reference speed.
pub struct Marched {
    pub runs: Vec<EngineRun>,
    pub sessions: Vec<(Session, ProbeId)>,
    pub start_us: Vec<f64>,
}

impl Marched {
    pub fn captures(&self) -> Vec<(&TunableHarvester, &Capture)> {
        self.sessions
            .iter()
            .map(|(session, probe)| {
                let capture = session.probe::<Capture>(*probe).expect("probe keeps its type");
                (session.harvester(), capture)
            })
            .collect()
    }
}

/// Marches each simulation to its end on the proposed engine (capturing
/// operating points) and on the baseline, outside any timed phase. Each
/// march and start is scaled by the reference bursts on either side of it.
pub fn march_both(simulations: &[Simulation], tracer: &mut Tracer) -> Result<Marched, String> {
    let err = |e: harvsim_core::CoreError| e.to_string();
    let mut marched = Marched { runs: Vec::new(), sessions: Vec::new(), start_us: Vec::new() };
    for (index, simulation) in simulations.iter().enumerate() {
        let timed = |run: &mut dyn FnMut() -> Result<(), String>| -> Result<f64, String> {
            let before = [burst_us(), burst_us()];
            let started = Instant::now();
            run()?;
            let ns = started.elapsed().as_nanos() as f64;
            let after = [burst_us(), burst_us()];
            Ok(ns * factor(median(&[before[0], before[1], after[0], after[1]])))
        };
        let mut proposed = None;
        let start_ns = timed(&mut || {
            proposed = Some(
                simulation.clone().solver_options(SolverOptions::default()).start().map_err(err)?,
            );
            Ok(())
        })?;
        let mut session = proposed.expect("started");
        marched.start_us.push(start_ns / 1e3);
        let probe = session.add_probe(Capture::new());
        let started = Instant::now();
        let proposed_ns = timed(&mut || session.run_to_end().map_err(err))?;
        tracer.record(
            "Session::run_to_end",
            "proposed",
            index as u64,
            None,
            started,
            Instant::now(),
        );

        let mut baseline =
            simulation.clone().baseline_options(BaselineOptions::default()).start().map_err(err)?;
        let started = Instant::now();
        let baseline_ns = timed(&mut || baseline.run_to_end().map_err(err))?;
        tracer.record(
            "Session::run_to_end",
            "baseline",
            index as u64,
            None,
            started,
            Instant::now(),
        );

        let report = session.report();
        marched.runs.push(EngineRun {
            solver: report.engine_stats.state_space,
            digital_events: report.digital_events,
            baseline: baseline.report().engine_stats.baseline,
            proposed_ns,
            baseline_ns,
        });
        marched.sessions.push((session, probe));
    }
    Ok(marched)
}

/// Per-call timings (ns, at reference host speed) of the layers `Session`
/// hides, measured by replaying captured operating points.
pub struct Replay {
    points: usize,
    stamp_full_ns: Vec<f64>,
    stamp_skip_ns: Vec<f64>,
    terminal_ns: Vec<f64>,
    derivative_ns: Vec<f64>,
    plan_us: Vec<f64>,
    etd2_ns: Vec<f64>,
}

/// Cost of one `Instant::now()` pair, subtracted from each timed call.
fn timer_overhead_ns() -> f64 {
    let samples: Vec<f64> = (0..2000)
        .map(|_| {
            let a = Instant::now();
            let b = Instant::now();
            (b - a).as_nanos() as f64
        })
        .collect();
    median(&samples)
}

fn gather(a: &DMatrix, rows: &[usize], out: &mut DMatrix) {
    for (i, &r) in rows.iter().enumerate() {
        for (j, &c) in rows.iter().enumerate() {
            out[(i, j)] = a[(r, c)];
        }
    }
}

/// Replays captured operating points through the public per-layer calls
/// the march makes at every step. Each call is made twice where the march
/// mostly takes a cached path (stamp skip, terminal LU reuse, ϕ-propagator
/// memo), and the second call is the one timed.
pub fn replay(
    captures: &[(&TunableHarvester, &Capture)],
    tracer: &mut Tracer,
) -> Result<Replay, String> {
    let options = SolverOptions::default();
    let overhead = timer_overhead_ns();
    let mut bursts = vec![burst_us(), burst_us(), burst_us()];
    let mut replay = Replay {
        points: 0,
        stamp_full_ns: Vec::new(),
        stamp_skip_ns: Vec::new(),
        terminal_ns: Vec::new(),
        derivative_ns: Vec::new(),
        plan_us: Vec::new(),
        etd2_ns: Vec::new(),
    };
    let lap = |from: Instant, to: Instant| ((to - from).as_nanos() as f64 - overhead).max(0.0);
    let err = |e: harvsim_core::CoreError| e.to_string();
    for (index, (harvester, capture)) in captures.iter().enumerate() {
        let points = capture.points();
        let Some(first) = points.first() else { continue };
        let replay_started = Instant::now();
        let harvester = (*harvester).clone();
        let n = harvester.state_count();
        let stiff = harvester.stiff_states();
        let nonstiff: Vec<usize> = (0..n).filter(|i| !stiff.contains(i)).collect();
        let mut lin = harvester.linearise_global(first.t, &first.x, &first.y).map_err(err)?;
        let (_, nets, constraints) = lin.dimensions();
        let mut terminal = TerminalFactorisation::new();
        let mut rhs = DVector::zeros(constraints);
        let mut y = DVector::zeros(nets);
        let mut dx = DVector::zeros(n);
        let mut yy_inv_yx = DMatrix::zeros(constraints, n);
        let mut correction = DMatrix::zeros(n, n);
        let mut a_total = DMatrix::zeros(n, n);
        let mut a_ff = DMatrix::zeros(nonstiff.len(), nonstiff.len());
        let mut a_ss = DMatrix::zeros(stiff.len(), stiff.len());
        let mut exponential = StiffExponential::new();
        let mut x_s = vec![0.0; stiff.len()];
        let mut dx_s = vec![0.0; stiff.len()];
        for point in &points {
            // The first call restamps whatever changed since the previous
            // point; the second finds every PWL signature unchanged.
            let t0 = Instant::now();
            let first_pass = harvester
                .relinearise_global_into(point.t, &point.x, &point.y, &mut lin)
                .map_err(err)?;
            let t1 = Instant::now();
            let second_pass = harvester
                .relinearise_global_into(point.t, &point.x, &point.y, &mut lin)
                .map_err(err)?;
            let t2 = Instant::now();
            if first_pass.pwl_stamps_skipped == 0 {
                replay.stamp_full_ns.push(lap(t0, t1));
            }
            if second_pass.pwl_stamps_skipped > 0 {
                replay.stamp_skip_ns.push(lap(t1, t2));
            }

            terminal.refresh(&lin).map_err(err)?;
            let t0 = Instant::now();
            terminal.refresh(&lin).map_err(err)?;
            let lu = terminal.lu().expect("refresh succeeded");
            lin.solve_terminals_with(lu, &point.x, &mut rhs, &mut y).map_err(err)?;
            let t1 = Instant::now();
            replay.terminal_ns.push(lap(t0, t1));

            let t0 = Instant::now();
            lin.state_derivative_into(&point.x, &y, &mut dx);
            let t1 = Instant::now();
            replay.derivative_ns.push(lap(t0, t1));

            let t0 = Instant::now();
            lin.total_step_matrix_with(lu, &mut yy_inv_yx, &mut correction, &mut a_total)
                .map_err(err)?;
            gather(&a_total, &nonstiff, &mut a_ff);
            let plan = order_step_limits(
                &a_ff,
                options.stability_safety,
                options.max_step,
                options.ab_order,
            )
            .map_err(|e| e.to_string())?;
            let t1 = Instant::now();
            std::hint::black_box(&plan);
            replay.plan_us.push(lap(t0, t1) / 1e3);

            gather(&a_total, &stiff, &mut a_ss);
            exponential.set_matrix(&a_ss);
            let load = |x_s: &mut [f64], dx_s: &mut [f64]| {
                for (k, &s) in stiff.iter().enumerate() {
                    x_s[k] = point.x[s];
                    dx_s[k] = dx[s];
                }
            };
            load(&mut x_s, &mut dx_s);
            exponential.advance(point.h, &mut x_s, &dx_s).map_err(|e| e.to_string())?;
            load(&mut x_s, &mut dx_s);
            let t0 = Instant::now();
            exponential.advance(point.h, &mut x_s, &dx_s).map_err(|e| e.to_string())?;
            let t1 = Instant::now();
            replay.etd2_ns.push(lap(t0, t1));
            bursts.push(burst_us());
        }
        replay.points += points.len();
        tracer.record("replay", "proposed", index as u64, None, replay_started, Instant::now());
    }
    let scale = factor(median(&bursts));
    for series in [
        &mut replay.stamp_full_ns,
        &mut replay.stamp_skip_ns,
        &mut replay.terminal_ns,
        &mut replay.derivative_ns,
        &mut replay.plan_us,
        &mut replay.etd2_ns,
    ] {
        series.iter_mut().for_each(|value| *value *= scale);
    }
    Ok(replay)
}

/// The engine-layer metrics over `runs`: their exact counters, the replayed
/// per-call costs, each replayed call's cost times its exact count as a
/// share of the proposed engine's time, the digital kernel and the
/// baseline. `start_us` are `Simulation::start` times at reference speed.
/// Fails when the replay captured too few points to time.
pub fn engine_metrics(
    runs: &[EngineRun],
    replay: &Replay,
    start_us: &[f64],
) -> Result<Vec<Metric>, String> {
    if replay.points < MIN_REPLAY_POINTS {
        return Err(format!("only {} replay points captured", replay.points));
    }
    let sum = |value: fn(&EngineRun) -> f64| runs.iter().map(value).sum::<f64>();
    let mut m = vec![Metric::repeated("session.start_us", "us", start_us)];
    for order in 0..4 {
        let count: usize =
            runs.iter().map(|run| run.solver.steps_by_order.get(order).copied().unwrap_or(0)).sum();
        m.push(Metric::single(format!("solver.steps_ab{}", order + 1), "count", count as f64));
    }
    let linearisations = sum(|run| run.solver.linearisations as f64).max(1.0);
    let pwl_skipped = sum(|run| run.solver.pwl_stamps_skipped as f64);
    let exact = [
        ("solver.stability_updates", "count", sum(|run| run.solver.stability_updates as f64)),
        ("solver.factorisations", "count", sum(|run| run.solver.factorisations as f64)),
        ("solver.cached_solves", "count", sum(|run| run.solver.cached_solves as f64)),
        ("assembly.pwl_skip_rate", "frac", pwl_skipped / linearisations),
        (
            "assembly.constant_skip_rate",
            "frac",
            sum(|run| run.solver.constant_stamps_skipped as f64) / linearisations,
        ),
        ("digital.events", "count", sum(|run| run.digital_events as f64)),
    ];
    for (name, unit, value) in exact {
        m.push(Metric::single(name, unit, value));
    }
    for (name, unit, samples) in [
        ("assembly.stamp_full_ns", "ns", &replay.stamp_full_ns),
        ("assembly.stamp_skip_ns", "ns", &replay.stamp_skip_ns),
        ("linalg.terminal_solve_ns", "ns", &replay.terminal_ns),
        ("linalg.derivative_ns", "ns", &replay.derivative_ns),
        ("ode.stability_plan_us", "us", &replay.plan_us),
        ("ode.etd2_advance_ns", "ns", &replay.etd2_ns),
    ] {
        m.push(Metric::repeated(name, unit, samples));
    }
    let proposed_ns = sum(|run| run.proposed_ns);
    let full_stamps = linearisations - pwl_skipped;
    let shares = [
        (
            "replay.share_stamp",
            full_stamps * median(&replay.stamp_full_ns)
                + pwl_skipped * median(&replay.stamp_skip_ns),
        ),
        (
            "replay.share_terminal",
            sum(|run| (run.solver.factorisations + run.solver.cached_solves) as f64)
                * median(&replay.terminal_ns),
        ),
        (
            "replay.share_derivative",
            sum(|run| run.solver.steps as f64) * median(&replay.derivative_ns),
        ),
        (
            "replay.share_plan",
            sum(|run| run.solver.stability_updates as f64) * median(&replay.plan_us) * 1e3,
        ),
        (
            "replay.share_etd2",
            sum(|run| run.solver.stiff_exact_steps as f64) * median(&replay.etd2_ns),
        ),
    ];
    for (name, estimate_ns) in shares {
        m.push(Metric::single(name, "frac", estimate_ns / proposed_ns));
    }
    let iterations = sum(|run| run.baseline.newton_iterations as f64).max(1.0);
    m.push(Metric::single(
        "baseline.ns_per_newton_iter",
        "ns",
        sum(|run| run.baseline_ns) / iterations,
    ));
    m.push(Metric::single(
        "baseline.newton_iters_per_step",
        "ratio",
        iterations / sum(|run| run.baseline.steps as f64).max(1.0),
    ));
    m.push(Metric::single(
        "baseline.factorisations",
        "count",
        sum(|run| run.baseline.factorisations as f64),
    ));
    Ok(m)
}

/// Repetitions of each durability call.
const DURABILITY_CALLS: usize = 40;

/// Checkpoint and store costs on a fixed session, outside any timed phase:
/// frame size, encode and restore (µs at reference CPU speed), fsync'd
/// `put` and fresh-store `open` (at reference disk speed), and the disk
/// reference itself. CPU bursts go to `cpu`, disk probes to `disk`.
pub fn durability_metrics(
    work: &Path,
    cpu: &mut HostClock,
    disk: &mut HostClock,
) -> Result<Vec<Metric>, String> {
    let err = |e: harvsim_core::CoreError| e.to_string();
    let mut session =
        Simulation::scenario1().duration(0.3).frequency_step_at(0.1).start().map_err(err)?;
    session.run_until(0.1).map_err(err)?;
    let cpu_before = cpu.sample(5);
    let mut frame = Vec::new();
    let mut encode_us = Vec::new();
    for _ in 0..DURABILITY_CALLS {
        let started = Instant::now();
        frame = session.checkpoint().map_err(err)?;
        encode_us.push(started.elapsed().as_nanos() as f64 / 1e3);
    }
    let mut restore_us = Vec::new();
    for _ in 0..DURABILITY_CALLS {
        let started = Instant::now();
        std::hint::black_box(Session::restore(&frame).map_err(err)?);
        restore_us.push(started.elapsed().as_nanos() as f64 / 1e3);
    }
    let cpu_after = cpu.sample(5);
    let cpu_scale = factor(cpu.median_between(cpu_before, cpu_after + 5));

    let root = work.join("durability");
    std::fs::create_dir_all(&root).map_err(|e| format!("create {}: {e}", root.display()))?;
    let store = SessionStore::open(root.join("puts")).map_err(|e| e.to_string())?;
    let mut put_us = Vec::new();
    let mut open_ms = Vec::new();
    let mut probes = Vec::new();
    for call in 0..DURABILITY_CALLS {
        let started = Instant::now();
        store.put("probe-session", &frame).map_err(|e| e.to_string())?;
        put_us.push(started.elapsed().as_nanos() as f64 / 1e3);
        let started = Instant::now();
        drop(SessionStore::open(root.join(format!("open-{call}"))).map_err(|e| e.to_string())?);
        open_ms.push(started.elapsed().as_nanos() as f64 / 1e6);
        let probe = fsync_probe_us(&root).map_err(|e| e.to_string())?;
        disk.record(probe);
        probes.push(probe);
    }
    let _ = std::fs::remove_dir_all(&root);
    let disk_scale = FSYNC_NOMINAL_US / median(&probes);
    let scaled = |values: &[f64], by: f64| values.iter().map(|v| v * by).collect::<Vec<_>>();
    let put_us = scaled(&put_us, disk_scale);
    Ok(vec![
        Metric::repeated("host.fsync_us", "us", &disk.all_us()),
        Metric::single("checkpoint.frame_bytes", "bytes", frame.len() as f64),
        Metric::repeated("checkpoint.encode_us", "us", &scaled(&encode_us, cpu_scale)),
        Metric::repeated("checkpoint.restore_us", "us", &scaled(&restore_us, cpu_scale)),
        Metric::single("store.put_us_p50", "us", percentile(&put_us, 0.5)),
        Metric::single("store.put_us_p95", "us", percentile(&put_us, 0.95)),
        Metric::repeated("store.open_ms", "ms", &scaled(&open_ms, disk_scale)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_decimates_to_a_bounded_even_stride() {
        let mut capture = Capture::new();
        let x = DVector::zeros(2);
        for step in 0..5000 {
            capture.record(step as f64 * 1e-3, &x, &x);
        }
        let kept = capture.points();
        assert!((MAX_POINTS / 2..=MAX_POINTS).contains(&kept.len()), "{} kept", kept.len());
        let stride = kept[1].t - kept[0].t;
        assert!(kept.windows(2).all(|pair| (pair[1].t - pair[0].t - stride).abs() < 1e-9));
        assert!(kept.iter().all(|point| (point.h - 1e-3).abs() < 1e-12));
    }
}
