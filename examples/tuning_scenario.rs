//! Scenario 1 of the paper (narrow, 1 Hz tuning): reproduces the data behind
//! Fig. 8(a) (generator output power before/during/after the retune) and
//! Fig. 8(b) (supercapacitor voltage, simulation vs experimental surrogate).
//!
//! ```bash
//! cargo run --release --example tuning_scenario
//! ```

use harvsim::core::measurement;
use harvsim::{PowerProbe, ScenarioConfig, Simulation, WaveformProbe};

fn main() -> Result<(), harvsim::CoreError> {
    let mut scenario = ScenarioConfig::scenario1();
    scenario.duration_s = 10.0;
    scenario.frequency_step_time_s = 2.0;
    // Dense captures keep one sample per millisecond.
    let record_interval = 1e-3;

    println!("== Scenario 1: 70 Hz -> 71 Hz (narrow tuning) ==");
    // The Fig. 8(a) power figures stream out of a live session probe — no
    // post-hoc waveform walk, and the windows integrate every accepted step
    // rather than the decimated recording. The Fig. 8(b) comparison needs
    // dense trajectories, so the same session also carries a dense capture.
    let mut session = Simulation::from_config(scenario.clone()).start()?;
    let vm = session.harvester().generator_voltage_net();
    let im = session.harvester().generator_current_net();
    let vc = session.harvester().storage_voltage_net();
    let power = session.add_probe(PowerProbe::new(
        vm,
        im,
        scenario.frequency_step_time_s,
        scenario.duration_s,
    ));
    let capture = session.add_probe(WaveformProbe::new(record_interval));
    session.run_to_end()?;
    let report = session.probe::<PowerProbe>(power).expect("typed probe").report();
    println!("Fig. 8(a) — generator output power (streaming probe):");
    println!("  RMS power tuned at 70 Hz (before the shift): {:8.1} uW", report.rms_before_uw);
    println!("  RMS power tuned at 71 Hz (after retuning):   {:8.1} uW", report.rms_after_uw);
    println!("  minimum cycle-averaged power while detuned:  {:8.1} uW", report.dip_uw);
    println!("  (paper: 118 uW at 70 Hz, 117 uW at 71 Hz, measured 116 uW)");

    println!("\nFig. 8(b) — supercapacitor voltage, simulation vs experiment:");
    let mut surrogate = Simulation::from_config(scenario.experimental_surrogate()).start()?;
    let surrogate_capture = surrogate.add_probe(WaveformProbe::new(record_interval));
    surrogate.run_to_end()?;
    let simulated = session.probe::<WaveformProbe>(capture).expect("typed probe").terminals();
    let measured =
        surrogate.probe::<WaveformProbe>(surrogate_capture).expect("typed probe").terminals();
    let comparison = measurement::compare_component(simulated, measured, vc, 400)?;
    println!(
        "  max |simulated - surrogate| = {:.3} V, rms = {:.3} V over {:.1} s",
        comparison.max_deviation, comparison.rms_deviation, comparison.compared_span_s
    );

    let sim_trace = measurement::supercap_voltage_waveform(simulated, vc);
    let ref_trace = measurement::supercap_voltage_waveform(measured, vc);
    println!("\n  t [s]    simulated [V]   surrogate 'measured' [V]");
    let stride = (sim_trace.len() / 15).max(1);
    for (sample, reference) in sim_trace.iter().zip(ref_trace.iter()).step_by(stride) {
        println!("  {:6.2}   {:10.4}      {:10.4}", sample.0, sample.1, reference.1);
    }

    println!("\ncontrol events:");
    for event in session.control_events() {
        println!(
            "  t = {:6.2} s  load = {:9}  resonance = {:6.2} Hz",
            event.time_s,
            event.load_mode.name(),
            event.resonant_frequency_hz
        );
    }
    Ok(())
}
