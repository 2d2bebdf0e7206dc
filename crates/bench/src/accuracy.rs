//! Accuracy against an independent reference: the work-precision study of
//! `repro accuracy` (Hairer, Nørsett & Wanner, *Solving ODEs I*, §II.10).
//!
//! The reference is the exact-Shockley trapezoidal Newton–Raphson baseline
//! at half and a quarter of its default step (25 and 12.5 µs),
//! Richardson-extrapolated at each matched sample with the formula's order
//! 2. A third run at the default step (50 µs) gives the observed order,
//! `log2(‖V_h − V_h/2‖ / ‖V_h/2 − V_h/4‖)`, and the reference's error bound is
//! the largest Richardson correction, `‖V_h/2 − V_h/4‖ / 3`: the estimated
//! error of the finest run, which bounds the extrapolated value's error while
//! the runs converge at order 2.
//!
//! Every run — the three reference runs and the proposed engine at each
//! tolerance setting — is sampled on the store-voltage net at the 400 times
//! the Table II deviation compares (`span·k/399`), interpolated linearly
//! between the run's own accepted points rather than from the 1 ms capture,
//! so the error of a run is its distance from the reference and not its
//! decimation. A run's error is the largest of its 400 distances; their
//! root mean square is recorded beside it, because one accepted point can
//! carry a terminal-voltage glitch that a matched time may or may not fall
//! next to (ROADMAP, "Fewer steps").

use std::io::Write;
use std::path::Path;

use harvsim_core::scenario::ScenarioConfig;
use harvsim_core::{
    BaselineOptions, CoreError, Probe, Simulation, SimulationEngine, SolverOptions, SweepParameter,
};
use harvsim_linalg::DVector;

use crate::comparison::DEVIATION_SAMPLES;
use crate::{json_number, scenario1, scenario2};

/// `(lte_relative_tolerance, lte_absolute_tolerance)` settings the proposed
/// engine runs at. They hold the defaults' pair and `(3e-6, 3e-13)`, the pair
/// the defaults held until the absolute floor was sized for volts; the last,
/// tightest, cross-checks the reference from the other engine.
pub const TOLERANCES: [(f64, f64); 6] =
    [(3e-6, 3e-6), (3e-6, 3e-13), (5e-7, 5e-7), (1e-6, 5e-8), (5e-7, 1.5e-7), (1e-7, 1e-7)];

/// Trapezoidal baseline steps of the reference runs: the default step `h`,
/// `h/2` and `h/4`. The last two are extrapolated; the first only measures
/// the observed order.
pub const REFERENCE_STEPS: [f64; 3] = [5e-5, 2.5e-5, 1.25e-5];

/// The formula order the extrapolation assumes (trapezoidal rule).
const REFERENCE_ORDER: u32 = 2;

/// One configuration of the study: a label, a short description of its axes
/// and the scenario.
#[derive(Debug, Clone)]
pub struct AccuracyConfig {
    /// Row label (`scenario1`, `scenario2`, `H1` … `H6`).
    pub name: &'static str,
    /// The sweep-axis values that set it apart from its base scenario.
    pub axes: String,
    /// The scenario run by every engine setting.
    pub scenario: ScenarioConfig,
}

/// Sweep-axis values a held-out configuration applies to its base scenario.
type HeldOutAxes = &'static [(SweepParameter, f64)];

/// The study's configurations: the two Table II scenarios on their `table2`
/// spans, and six held-out points of the sweep axes that took no part in
/// choosing the tolerance defaults. Each held-out point uses scenario 1's
/// 5 s span unless it is based on scenario 2.
pub fn configurations() -> Vec<AccuracyConfig> {
    use SweepParameter::{
        AccelerationAmplitude as Acc, InitialSupercapVoltage as V0, MultiplierStages as Stages,
        WatchdogPeriod as Wdt,
    };
    let held_out: [(&'static str, ScenarioConfig, HeldOutAxes); 6] = [
        ("H1", scenario1(5.0), &[(Stages, 3.0), (Acc, 0.45), (V0, 2.0)]),
        ("H2", scenario1(5.0), &[(Stages, 4.0), (Acc, 0.9), (V0, 3.0)]),
        ("H3", scenario1(5.0), &[(Stages, 5.0), (Acc, 0.9), (V0, 2.0)]),
        ("H4", scenario1(5.0), &[(Stages, 3.0), (Acc, 0.9), (V0, 2.6), (Wdt, 0.15)]),
        ("H5", scenario2(8.0), &[(Stages, 4.0), (Acc, 0.6)]),
        ("H6", scenario1(5.0), &[(Acc, 0.3), (V0, 1.0)]),
    ];
    let mut configs = vec![
        AccuracyConfig { name: "scenario1", axes: String::new(), scenario: scenario1(5.0) },
        AccuracyConfig { name: "scenario2", axes: String::new(), scenario: scenario2(8.0) },
    ];
    for (name, base, axes) in held_out {
        let mut scenario = base.clone().with_label(name);
        let mut described = vec![format!("{} {}s", base.effective_label(), base.duration_s)];
        for &(param, value) in axes {
            param.apply(&mut scenario, value);
            described.push(format!("{} {value}", param.label()));
        }
        configs.push(AccuracyConfig { name, axes: described.join(", "), scenario });
    }
    configs
}

/// The store voltage at fixed times, interpolated linearly between the
/// accepted points that bracket each time.
struct MatchedSamples {
    net: usize,
    times: Vec<f64>,
    values: Vec<f64>,
    previous: Option<(f64, f64)>,
}

impl Probe for MatchedSamples {
    fn on_sample(&mut self, t: f64, _states: &DVector, terminals: &DVector) {
        let v = terminals[self.net];
        while let Some(&tk) = self.times.get(self.values.len()) {
            if tk > t {
                break;
            }
            let value = match self.previous {
                Some((t0, v0)) if tk > t0 && tk < t => v0 + (v - v0) * ((tk - t0) / (t - t0)),
                _ => v,
            };
            self.values.push(value);
        }
        self.previous = Some((t, v));
    }
}

/// One run's work and its samples.
struct SampledRun {
    steps: usize,
    cpu_s: f64,
    values: Vec<f64>,
}

/// Runs `scenario` to the end on `engine`, sampling the store voltage at
/// `times`.
fn sampled_run(
    scenario: &ScenarioConfig,
    engine: SimulationEngine,
    times: &[f64],
) -> Result<SampledRun, CoreError> {
    let mut session = Simulation::from_config(scenario.clone()).engine(engine).start()?;
    let net = session.harvester().storage_voltage_net();
    let id = session.add_probe(MatchedSamples {
        net,
        times: times.to_vec(),
        values: Vec::with_capacity(times.len()),
        previous: None,
    });
    session.run_to_end()?;
    let probe = session.probe::<MatchedSamples>(id).expect("the sampler keeps its type");
    let mut values = probe.values.clone();
    // A last matched time a rounding past the final point clamps to it, as
    // the Table II comparison's interpolation does.
    let last = probe.previous.map_or(f64::NAN, |(_, v)| v);
    values.resize(times.len(), last);
    let stats = session.report().engine_stats;
    let (steps, cpu) = match engine {
        SimulationEngine::StateSpace(_) => (stats.state_space.steps, stats.state_space.cpu_time),
        SimulationEngine::NewtonRaphson(_) => (stats.baseline.steps, stats.baseline.cpu_time),
    };
    Ok(SampledRun { steps, cpu_s: cpu.as_secs_f64(), values })
}

/// Largest absolute difference of two sample sets.
fn max_distance(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
}

/// Root-mean-square difference of two sample sets of equal length.
fn rms_distance(a: &[f64], b: &[f64]) -> f64 {
    (a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>() / a.len() as f64).sqrt()
}

/// The Richardson reference of one configuration.
struct Reference {
    /// The extrapolated store voltage at each matched time, in volts.
    values: Vec<f64>,
    /// `log2(‖V_h − V_h/2‖ / ‖V_h/2 − V_h/4‖)` over the matched samples.
    observed_order: f64,
    /// The largest Richardson correction, in volts: the reference's own
    /// error bound.
    bound_v: f64,
}

impl Reference {
    /// Extrapolates from the baseline's samples at the three
    /// [`REFERENCE_STEPS`].
    fn from_runs(coarse: &[f64], half: &[f64], quarter: &[f64]) -> Self {
        let denominator = f64::from(2_u32.pow(REFERENCE_ORDER) - 1);
        let values: Vec<f64> =
            half.iter().zip(quarter).map(|(v2, v4)| v4 + (v4 - v2) / denominator).collect();
        let observed_order = (max_distance(coarse, half) / max_distance(half, quarter)).log2();
        Reference { bound_v: max_distance(&values, quarter), values, observed_order }
    }
}

/// One point of a work-precision set: an engine setting's work and its
/// store-voltage error against the reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkPoint {
    /// Accepted steps.
    pub steps: usize,
    /// Engine CPU time, in seconds.
    pub cpu_s: f64,
    /// Largest store-voltage distance from the reference over the matched
    /// samples, in volts.
    pub error_v: f64,
    /// Root mean square of the same distances, in volts.
    pub rms_error_v: f64,
}

/// One configuration's record.
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracyRecord {
    /// Row label.
    pub name: &'static str,
    /// Axis description (empty for the Table II scenarios).
    pub axes: String,
    /// Simulated span, in seconds.
    pub span_s: f64,
    /// Observed order of the reference runs.
    pub observed_order: f64,
    /// The reference's error bound, in volts.
    pub reference_bound_v: f64,
    /// The baseline at each of [`REFERENCE_STEPS`], in that order.
    pub baseline: Vec<WorkPoint>,
    /// The proposed engine at each of [`TOLERANCES`], in that order.
    pub proposed: Vec<WorkPoint>,
}

/// Builds the reference of `config` and measures every engine setting
/// against it.
///
/// # Errors
///
/// Propagates engine and kernel failures, labelled with the configuration's
/// name.
pub fn measure(config: &AccuracyConfig) -> Result<AccuracyRecord, CoreError> {
    let run = || {
        let span = config.scenario.duration_s;
        let last = (DEVIATION_SAMPLES - 1) as f64;
        let times: Vec<f64> = (0..DEVIATION_SAMPLES).map(|k| span * (k as f64) / last).collect();
        let baseline_runs = REFERENCE_STEPS
            .iter()
            .map(|&step| {
                let options = BaselineOptions { step, ..BaselineOptions::default() };
                sampled_run(&config.scenario, SimulationEngine::NewtonRaphson(options), &times)
            })
            .collect::<Result<Vec<_>, _>>()?;
        let reference = Reference::from_runs(
            &baseline_runs[0].values,
            &baseline_runs[1].values,
            &baseline_runs[2].values,
        );
        let point = |run: &SampledRun| WorkPoint {
            steps: run.steps,
            cpu_s: run.cpu_s,
            error_v: max_distance(&run.values, &reference.values),
            rms_error_v: rms_distance(&run.values, &reference.values),
        };
        let baseline = baseline_runs.iter().map(point).collect();
        let mut proposed = Vec::with_capacity(TOLERANCES.len());
        for (rtol, atol) in TOLERANCES {
            let options = SolverOptions {
                lte_relative_tolerance: rtol,
                lte_absolute_tolerance: atol,
                ..SolverOptions::default()
            };
            let run = sampled_run(&config.scenario, SimulationEngine::StateSpace(options), &times)?;
            proposed.push(point(&run));
        }
        Ok(AccuracyRecord {
            name: config.name,
            axes: config.axes.clone(),
            span_s: span,
            observed_order: reference.observed_order,
            reference_bound_v: reference.bound_v,
            baseline,
            proposed,
        })
    };
    run().map_err(|err: CoreError| err.for_scenario(config.name))
}

/// Serialises the study to `path` as `BENCH_accuracy.json`: the reference
/// method, the defaults' tolerance pair and, per configuration, the
/// reference's observed order and bound with both engines' work-precision
/// points.
///
/// # Errors
///
/// Propagates I/O failures from creating or writing the file.
pub fn write_accuracy_json(path: &Path, records: &[AccuracyRecord]) -> std::io::Result<()> {
    let defaults = SolverOptions::default();
    let mut file = std::fs::File::create(path)?;
    writeln!(file, "{{")?;
    writeln!(file, "  \"experiment\": \"accuracy\",")?;
    writeln!(file, "  \"samples\": {DEVIATION_SAMPLES},")?;
    writeln!(
        file,
        "  \"reference\": {{ \"engine\": \"trapezoidal NR, exact Shockley\", \"steps_s\": [{:e}, \
         {:e}, {:e}], \"extrapolated_order\": {REFERENCE_ORDER} }},",
        REFERENCE_STEPS[0], REFERENCE_STEPS[1], REFERENCE_STEPS[2]
    )?;
    writeln!(
        file,
        "  \"defaults\": {{ \"rtol\": {:e}, \"atol\": {:e} }},",
        defaults.lte_relative_tolerance, defaults.lte_absolute_tolerance
    )?;
    writeln!(file, "  \"configs\": [")?;
    for (i, record) in records.iter().enumerate() {
        writeln!(file, "    {{")?;
        writeln!(file, "      \"name\": \"{}\",", record.name)?;
        writeln!(file, "      \"axes\": \"{}\",", record.axes)?;
        writeln!(file, "      \"span_s\": {},", json_number(record.span_s))?;
        writeln!(file, "      \"observed_order\": {:.3},", json_number(record.observed_order))?;
        writeln!(
            file,
            "      \"reference_bound_v\": {:e},",
            json_number(record.reference_bound_v)
        )?;
        writeln!(file, "      \"baseline\": [")?;
        for (j, (step_s, point)) in REFERENCE_STEPS.iter().zip(&record.baseline).enumerate() {
            let comma = if j + 1 < record.baseline.len() { "," } else { "" };
            writeln!(
                file,
                "        {{ \"step_s\": {:e}, \"steps\": {}, \"cpu_s\": {:.6}, \"error_v\": {:e}, \
                 \"rms_error_v\": {:e} }}{comma}",
                step_s,
                point.steps,
                json_number(point.cpu_s),
                json_number(point.error_v),
                json_number(point.rms_error_v)
            )?;
        }
        writeln!(file, "      ],")?;
        writeln!(file, "      \"proposed\": [")?;
        for (j, ((rtol, atol), point)) in TOLERANCES.iter().zip(&record.proposed).enumerate() {
            let comma = if j + 1 < record.proposed.len() { "," } else { "" };
            writeln!(
                file,
                "        {{ \"rtol\": {:e}, \"atol\": {:e}, \"steps\": {}, \"cpu_s\": {:.6}, \
                 \"error_v\": {:e}, \"rms_error_v\": {:e} }}{comma}",
                rtol,
                atol,
                point.steps,
                json_number(point.cpu_s),
                json_number(point.error_v),
                json_number(point.rms_error_v)
            )?;
        }
        writeln!(file, "      ]")?;
        writeln!(file, "    }}{}", if i + 1 < records.len() { "," } else { "" })?;
    }
    writeln!(file, "  ]")?;
    writeln!(file, "}}")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The CI check finds the defaults' pair and the previous pair among the
    /// sweep's settings.
    #[test]
    fn the_sweep_holds_the_default_and_the_previous_pair() {
        let defaults = SolverOptions::default();
        let pair = (defaults.lte_relative_tolerance, defaults.lte_absolute_tolerance);
        assert!(TOLERANCES.contains(&pair), "{pair:?}");
        assert!(TOLERANCES.contains(&(3e-6, 3e-13)));
        assert!(TOLERANCES.len() >= 4);
    }

    /// On samples converging exactly at order 2, Richardson recovers the
    /// limit, the observed order reads 2 and the bound is the finest run's
    /// distance from the limit.
    #[test]
    fn richardson_recovers_an_order_two_limit() {
        let limit = [1.0, 2.0, -0.5];
        let at = |h: f64| -> Vec<f64> { limit.iter().map(|v| v + 3.0 * h * h).collect() };
        let reference = Reference::from_runs(&at(4e-3), &at(2e-3), &at(1e-3));
        for (value, expected) in reference.values.iter().zip(limit) {
            assert!((value - expected).abs() < 1e-15, "{value} vs {expected}");
        }
        assert!((reference.observed_order - 2.0).abs() < 1e-6);
        assert!((reference.bound_v - 3e-6).abs() < 1e-15);
    }

    /// Each matched time takes the value on the chord of the two accepted
    /// points around it; a time on a point takes that point's value, and a
    /// zero-width segment boundary never divides by zero.
    #[test]
    fn matched_samples_interpolate_between_accepted_points() {
        let mut probe = MatchedSamples {
            net: 0,
            times: vec![0.0, 0.25, 1.0, 1.5],
            values: Vec::new(),
            previous: None,
        };
        let states = DVector::zeros(1);
        for (t, v) in [(0.0, 1.0), (0.5, 2.0), (1.0, 4.0), (1.0, 4.5), (2.0, 5.5)] {
            probe.on_sample(t, &states, &DVector::from_slice(&[v]));
        }
        assert_eq!(probe.values, vec![1.0, 1.5, 4.0, 5.0]);
    }

    /// The held-out points differ from their base scenario in the axes
    /// they name, and the two Table II scenarios keep their `table2` spans.
    #[test]
    fn configurations_cover_the_table2_scenarios_and_six_held_out_points() {
        let configs = configurations();
        assert_eq!(configs.len(), 8);
        assert_eq!(configs[0].scenario.duration_s, 5.0);
        assert_eq!(configs[1].scenario.duration_s, 8.0);
        let h4 = &configs[5];
        assert_eq!(h4.name, "H4");
        assert_eq!(h4.scenario.parameters.multiplier_stages, 3);
        assert_eq!(h4.scenario.controller.watchdog_period_s, 0.15);
        assert_eq!(h4.scenario.initial_supercap_voltage, 2.6);
        assert_eq!(configs[6].scenario.duration_s, 8.0);
        for config in &configs {
            assert!(config.scenario.validate().is_ok(), "{}", config.name);
        }
    }
}
