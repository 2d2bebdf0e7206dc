//! Waveform post-processing for the paper's figures.
//!
//! * Fig. 8(a): microgenerator output power `p(t) = V_m·I_m` during the tuning
//!   process, with RMS power before and after the retune.
//! * Fig. 8(b) / Fig. 9: supercapacitor voltage against the experimental
//!   (surrogate) measurement.
//!
//! The functions here work on the terminal trajectory a dense
//! [`crate::probe::WaveformProbe`] records; the net indices come from
//! [`crate::TunableHarvester`] (`generator_voltage_net`,
//! `generator_current_net`, `storage_voltage_net`).
//!
//! These are the *post-hoc* measurement tools — they need dense recorded
//! waveforms. The streaming equivalents in [`crate::probe`] compute the same
//! figures live with O(1) memory ([`crate::probe::PowerProbe`] subsumes
//! [`power_report`] over the full accepted-step grid instead of the
//! decimated recording; [`crate::probe::EnvelopeProbe`] replaces min/max
//! scans); prefer them when a run does not otherwise need its trajectories
//! retained.

use harvsim_ode::Trajectory;

use crate::CoreError;

/// Generator output power summary for a tuning scenario (the quantities quoted
/// alongside the paper's Fig. 8(a)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerReport {
    /// RMS output power over the pre-step settling window, in microwatts.
    pub rms_before_uw: f64,
    /// RMS output power over the post-tuning window, in microwatts.
    pub rms_after_uw: f64,
    /// Minimum of the cycle-averaged power between the frequency step and the
    /// end of tuning (the dip while the generator is off-resonance), in µW.
    pub dip_uw: f64,
}

/// Deviation metrics between two waveforms (e.g. simulation vs experimental
/// surrogate for Fig. 8(b)/9, or proposed vs baseline engine for Table II).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaveformComparison {
    /// Maximum absolute deviation over the overlapping span.
    pub max_deviation: f64,
    /// RMS deviation over the overlapping span.
    pub rms_deviation: f64,
    /// Span used for the comparison, in seconds.
    pub compared_span_s: f64,
}

/// Instantaneous generator output power waveform `p(t) = V_m·I_m` in watts,
/// from the terminal trajectory and the generator voltage/current nets.
pub fn output_power_waveform(terminals: &Trajectory, vm: usize, im: usize) -> Vec<(f64, f64)> {
    terminals.times().iter().zip(terminals.states()).map(|(&t, y)| (t, y[vm] * y[im])).collect()
}

/// Supercapacitor terminal-voltage waveform `V_c(t)` in volts (the curve of
/// Fig. 8(b) and Fig. 9), from the terminal trajectory and the storage net.
pub fn supercap_voltage_waveform(terminals: &Trajectory, vc: usize) -> Vec<(f64, f64)> {
    terminals.times().iter().zip(terminals.states()).map(|(&t, y)| (t, y[vc])).collect()
}

/// RMS of the generator output power over `[t_start, t_end]`, in watts.
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfiguration`] for an empty window or a window
/// outside the recorded span.
fn rms_power_in_window(
    terminals: &Trajectory,
    vm: usize,
    im: usize,
    t_start: f64,
    t_end: f64,
) -> Result<f64, CoreError> {
    if !(t_end > t_start) {
        return Err(CoreError::InvalidConfiguration(format!(
            "power window must have positive length (got [{t_start}, {t_end}])"
        )));
    }
    let waveform = output_power_waveform(terminals, vm, im);
    if waveform.is_empty() {
        return Err(CoreError::InvalidConfiguration("no samples were recorded".into()));
    }
    // Mean of p(t) over the window (power is already an instantaneous product,
    // so the figure of merit quoted in the paper is its average over whole
    // cycles; we integrate trapezoidally over the recorded grid).
    let mut integral = 0.0;
    let mut previous: Option<(f64, f64)> = None;
    for &(t, p) in waveform.iter().filter(|(t, _)| *t >= t_start && *t <= t_end) {
        if let Some((t_prev, p_prev)) = previous {
            integral += 0.5 * (p + p_prev) * (t - t_prev);
        }
        previous = Some((t, p));
    }
    let span = previous.map(|(t, _)| t).unwrap_or(t_start) - t_start;
    if span <= 0.0 {
        return Err(CoreError::InvalidConfiguration(
            "the requested window contains no recorded samples".into(),
        ));
    }
    Ok(integral / span)
}

/// Builds the [`PowerReport`] for a tuning scenario whose ambient frequency
/// steps at `step_time_s`: RMS power in a window before the step and in a
/// window at the end of the run (after the controller has retuned), plus the
/// dip in between.
///
/// # Errors
///
/// Propagates window errors when the run is too short to contain the windows.
pub fn power_report(
    terminals: &Trajectory,
    vm: usize,
    im: usize,
    step_time_s: f64,
) -> Result<PowerReport, CoreError> {
    let rms = |t_start: f64, t_end: f64| rms_power_in_window(terminals, vm, im, t_start, t_end);
    let end = terminals.last_time();
    let before_start = (step_time_s * 0.2).max(terminals.first_time());
    let rms_before = rms(before_start, step_time_s.max(before_start + 1e-3))?;
    let after_start = end - (end - step_time_s) * 0.25;
    let rms_after = rms(after_start, end)?;

    // Dip: smallest 50 ms-averaged power between the step and the end. The
    // `rms_after` window lies inside the scanned span, so it participates as a
    // candidate directly — scanning it again from a floating-point-accumulated
    // start time can include a different boundary sample and come out slightly
    // above `rms_after`, which would let `dip` exceed both reference windows.
    let window = 0.05;
    let mut dip = rms_after;
    let mut t = step_time_s;
    while t + window <= end + 1e-9 {
        if let Ok(avg) = rms(t, (t + window).min(end)) {
            dip = dip.min(avg);
        }
        t += window;
    }
    Ok(PowerReport {
        rms_before_uw: rms_before * 1e6,
        rms_after_uw: rms_after * 1e6,
        dip_uw: dip * 1e6,
    })
}

/// Compares one component of two trajectories over their overlapping span.
///
/// # Errors
///
/// Propagates trajectory comparison failures (empty or non-overlapping data).
pub fn compare_component(
    a: &Trajectory,
    b: &Trajectory,
    component: usize,
    samples: usize,
) -> Result<WaveformComparison, CoreError> {
    let max_deviation = a.max_deviation(b, component, samples)?;
    let rms_deviation = a.rms_deviation(b, component, samples)?;
    let span = a.last_time().min(b.last_time()) - a.first_time().max(b.first_time());
    Ok(WaveformComparison { max_deviation, rms_deviation, compared_span_s: span })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::WaveformProbe;
    use crate::scenario::ScenarioConfig;
    use crate::session::Simulation;

    /// A short dense run: the terminal trajectory plus the generator voltage,
    /// generator current and storage nets.
    fn quick_run() -> (Trajectory, [usize; 3]) {
        let mut config = ScenarioConfig::scenario1();
        config.duration_s = 0.4;
        config.frequency_step_time_s = 0.2;
        let mut session = Simulation::from_config(config.clone()).start().unwrap();
        let capture = session.add_probe(WaveformProbe::new(config.engine.record_interval()));
        session.run_to_end().expect("short scenario run succeeds");
        let h = session.harvester();
        let nets = [h.generator_voltage_net(), h.generator_current_net(), h.storage_voltage_net()];
        (session.probe::<WaveformProbe>(capture).unwrap().terminals().clone(), nets)
    }

    #[test]
    fn power_and_voltage_waveforms_are_physical() {
        let (terminals, [vm, im, vc]) = quick_run();
        let power = output_power_waveform(&terminals, vm, im);
        assert_eq!(power.len(), terminals.len());
        // Average generated power must be positive (energy flows out of the
        // generator) and in the sub-milliwatt range for this device.
        let mean: f64 = power.iter().map(|(_, p)| *p).sum::<f64>() / power.len() as f64;
        assert!(mean > 0.0, "mean generated power {mean}");
        assert!(mean < 5e-3, "mean generated power {mean}");

        let store = supercap_voltage_waveform(&terminals, vc);
        assert_eq!(store.len(), terminals.len());
        assert!(
            store.iter().all(|(_, v)| *v > 1.5 && *v < 4.0),
            "supercap voltage stays near 2.5 V"
        );
    }

    #[test]
    fn rms_power_window_validation() {
        let (terminals, [vm, im, _]) = quick_run();
        assert!(rms_power_in_window(&terminals, vm, im, 0.2, 0.1).is_err());
        assert!(rms_power_in_window(&terminals, vm, im, 10.0, 11.0).is_err());
        let rms = rms_power_in_window(&terminals, vm, im, 0.05, 0.15).unwrap();
        assert!(rms > 0.0);
    }

    #[test]
    fn power_report_contains_consistent_windows() {
        let (terminals, [vm, im, _]) = quick_run();
        let report = power_report(&terminals, vm, im, 0.2).unwrap();
        assert!(report.rms_before_uw > 0.0);
        assert!(report.rms_after_uw > 0.0);
        assert!(report.dip_uw <= report.rms_before_uw.max(report.rms_after_uw) + 1e-9);
    }

    #[test]
    fn identical_runs_compare_equal() {
        let (terminals, [_, _, vc]) = quick_run();
        for component in [0, vc] {
            let comparison = compare_component(&terminals, &terminals, component, 50).unwrap();
            assert_eq!(comparison.max_deviation, 0.0);
            assert_eq!(comparison.rms_deviation, 0.0);
            assert!(comparison.compared_span_s > 0.0);
        }
    }
}
