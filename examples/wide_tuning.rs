//! Scenario 2 of the paper (wide, 14 Hz tuning — the maximum range of the
//! design): reproduces the data behind Fig. 9.
//!
//! ```bash
//! cargo run --release --example wide_tuning
//! ```

use harvsim::core::measurement;
use harvsim::{EnvelopeProbe, PowerProbe, ScenarioConfig, Simulation, WaveformProbe};

fn main() -> Result<(), harvsim::CoreError> {
    let mut scenario = ScenarioConfig::scenario2();
    scenario.duration_s = 14.0;
    scenario.frequency_step_time_s = 2.0;
    // The wide retune costs more energy, so start with a little more margin.
    scenario.initial_supercap_voltage = 2.6;
    let record_interval = scenario.engine.record_interval();

    println!("== Scenario 2: 70 Hz -> 84 Hz (maximum tuning range) ==");
    // Stream the power figures and the store envelope off a live session;
    // a dense capture rides along for the Fig. 9 waveform comparison.
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
    let store = session.add_probe(EnvelopeProbe::terminal(vc));
    let capture = session.add_probe(WaveformProbe::new(record_interval));
    session.run_to_end()?;
    let power_report = session.probe::<PowerProbe>(power).expect("typed probe").report();
    let envelope = session.probe::<EnvelopeProbe>(store).expect("typed probe");
    println!("store envelope over the retune: [{:.3}, {:.3}] V", envelope.min(), envelope.max());
    println!(
        "resonance after the run: {:.2} Hz (target {:.2} Hz)",
        session.harvester().resonant_frequency_hz(),
        scenario.scenario.target_frequency_hz()
    );
    println!("RMS generated power before the shift: {:8.1} uW", power_report.rms_before_uw);
    println!("RMS generated power after retuning:   {:8.1} uW", power_report.rms_after_uw);
    println!("minimum power while detuned by 14 Hz: {:8.1} uW", power_report.dip_uw);

    println!("\nFig. 9 — supercapacitor voltage, simulation vs experimental surrogate:");
    let mut surrogate = Simulation::from_config(scenario.experimental_surrogate()).start()?;
    let surrogate_capture = surrogate.add_probe(WaveformProbe::new(record_interval));
    surrogate.run_to_end()?;
    let simulated = session.probe::<WaveformProbe>(capture).expect("typed probe").terminals();
    let measured =
        surrogate.probe::<WaveformProbe>(surrogate_capture).expect("typed probe").terminals();
    let comparison = measurement::compare_component(simulated, measured, vc, 400)?;
    println!(
        "  max |simulated - surrogate| = {:.3} V, rms = {:.3} V",
        comparison.max_deviation, comparison.rms_deviation
    );
    let sim_trace = measurement::supercap_voltage_waveform(simulated, vc);
    let ref_trace = measurement::supercap_voltage_waveform(measured, vc);
    println!("\n  t [s]    simulated [V]   surrogate 'measured' [V]");
    let stride = (sim_trace.len() / 15).max(1);
    for (sample, reference) in sim_trace.iter().zip(ref_trace.iter()).step_by(stride) {
        println!("  {:6.2}   {:10.4}      {:10.4}", sample.0, sample.1, reference.1);
    }

    println!("\ntuning timeline (controller events):");
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
