//! The Table II head-to-head: the proposed state-space engine against the
//! exact-Shockley Newton–Raphson baseline on the same scenario, each in its
//! own [`Session`], alternating in short simulated slices on one thread so
//! both engines' wall times sample the same stretch of host conditions.

use harvsim_core::measurement;
use harvsim_core::scenario::ScenarioConfig;
use harvsim_core::{
    BaselineOptions, CoreError, EnvelopeProbe, ProbeId, Session, Simulation, SimulationEngine,
    SolverOptions, StepHistogramProbe, WaveformProbe,
};

use crate::Table2Record;

/// Simulated seconds each engine of a Table II row advances before the other
/// engine takes its turn.
const SLICE_S: f64 = 0.05;

/// Store-voltage samples the dense Table II deviation compares.
pub const DEVIATION_SAMPLES: usize = 400;

/// How the two sessions of a Table II row are observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowProbes {
    /// One dense [`WaveformProbe`] per engine at its record interval; the
    /// row's deviation is the largest store-voltage difference over 400
    /// samples of the overlapping span.
    Dense,
    /// Streaming probes only (store envelope + step histogram), so the row
    /// holds O(1) probe memory whatever its span; the deviation is the
    /// store-voltage difference at the end of the span.
    Streaming,
}

/// Opens a session of `config` on `engine` with the probes `probes` selects,
/// returning it with the id of its store-voltage probe (the waveform or the
/// envelope).
fn open_session(
    config: &ScenarioConfig,
    engine: SimulationEngine,
    probes: RowProbes,
) -> Result<(Session, ProbeId), CoreError> {
    let mut session = Simulation::from_config(config.clone()).engine(engine).start()?;
    let store = match probes {
        RowProbes::Dense => session.add_probe(WaveformProbe::new(engine.record_interval())),
        RowProbes::Streaming => {
            let vc = session.harvester().storage_voltage_net();
            let envelope = session.add_probe(EnvelopeProbe::terminal(vc));
            session.add_probe(StepHistogramProbe::new());
            envelope
        }
    };
    Ok((session, store))
}

/// The `[proposed, baseline]` engines of every row, both at their defaults.
fn row_engines() -> [SimulationEngine; 2] {
    [
        SimulationEngine::StateSpace(SolverOptions::default()),
        SimulationEngine::NewtonRaphson(BaselineOptions::default()),
    ]
}

/// One Table II row: the proposed engine and the exact-Shockley
/// Newton–Raphson baseline, each in its own session of the same scenario.
struct EngineRow {
    config: ScenarioConfig,
    probes: RowProbes,
    /// `[proposed, baseline]`, each with its store-voltage probe.
    sessions: [(Session, ProbeId); 2],
}

impl EngineRow {
    /// Opens both sessions at `t = 0`.
    fn start(config: &ScenarioConfig, probes: RowProbes) -> Result<Self, CoreError> {
        let [proposed, baseline] = row_engines();
        Ok(EngineRow {
            config: config.clone(),
            probes,
            sessions: [
                open_session(config, proposed, probes)?,
                open_session(config, baseline, probes)?,
            ],
        })
    }

    /// Runs both sessions to the end on this thread, alternating in
    /// [`SLICE_S`] simulated slices through [`Session::run_until`]. Pausing
    /// there never truncates a step, so every number is bit-identical to
    /// uninterrupted runs; the alternation only makes both engines' wall
    /// times sample the same stretch of host conditions.
    fn run_interleaved(&mut self) -> Result<(), CoreError> {
        let span = self.config.duration_s;
        let slices = (span / SLICE_S).ceil() as usize;
        for slice in 1..=slices {
            let until = (slice as f64 * SLICE_S).min(span);
            for (session, _) in &mut self.sessions {
                session.run_until(until)?;
            }
        }
        for (session, _) in &mut self.sessions {
            session.run_to_end()?;
        }
        Ok(())
    }

    /// The row's record, from the sessions as they stand (final once both
    /// finished).
    fn record(&self) -> Result<Table2Record, CoreError> {
        let [(proposed, proposed_store), (baseline, baseline_store)] = &self.sessions;
        let max_deviation_v = match self.probes {
            RowProbes::Dense => {
                let proposed_capture =
                    proposed.probe::<WaveformProbe>(*proposed_store).expect("typed capture");
                let baseline_capture =
                    baseline.probe::<WaveformProbe>(*baseline_store).expect("typed capture");
                measurement::compare_component(
                    proposed_capture.terminals(),
                    baseline_capture.terminals(),
                    proposed.harvester().storage_voltage_net(),
                    DEVIATION_SAMPLES,
                )?
                .max_deviation
            }
            RowProbes::Streaming => {
                let last = |session: &Session, id: ProbeId| {
                    session.probe::<EnvelopeProbe>(id).expect("typed envelope").last()
                };
                (last(proposed, *proposed_store) - last(baseline, *baseline_store)).abs()
            }
        };
        let proposed = proposed.report();
        let engine = proposed.engine_stats.state_space;
        let proposed_cpu_s = engine.cpu_time.as_secs_f64();
        let baseline_cpu_s = baseline.report().engine_stats.baseline.cpu_time.as_secs_f64();
        Ok(Table2Record {
            name: self.config.effective_label(),
            simulated_span_s: self.config.duration_s,
            baseline_cpu_s,
            proposed_cpu_s,
            speedup: baseline_cpu_s / proposed_cpu_s.max(1e-9),
            max_deviation_v,
            steps: engine.steps,
            factorisations: engine.factorisations,
            cached_solves: engine.cached_solves,
            steps_by_order: engine.steps_by_order,
            stiff_exact_steps: engine.stiff_exact_steps,
            constant_stamps_skipped: engine.constant_stamps_skipped,
            pwl_stamps_skipped: engine.pwl_stamps_skipped,
            peak_probe_bytes: proposed.peak_probe_bytes,
            binding_pole_re: engine.binding_pole[0],
            binding_pole_im: engine.binding_pole[1],
        })
    }
}

/// Runs one Table II row of `config` — the proposed engine and the
/// exact-Shockley baseline alternating in 0.05 s simulated slices on this
/// thread — and returns its record.
///
/// # Errors
///
/// Propagates engine, kernel and waveform-comparison failures, labelled with
/// the configuration's [`ScenarioConfig::effective_label`].
pub fn table2_row(config: &ScenarioConfig, probes: RowProbes) -> Result<Table2Record, CoreError> {
    let run = || {
        let mut row = EngineRow::start(config, probes)?;
        row.run_interleaved()?;
        row.record()
    };
    run().map_err(|err| err.for_scenario(config.effective_label()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{scenario1, scenario2};

    /// A row pairs the proposed engine at its defaults (adaptive order up to
    /// AB4) with the baseline, opens both sessions at `t = 0` on the row's
    /// scenario, and refuses a scenario that cannot start.
    #[test]
    fn construction_and_accessors() {
        let [proposed, baseline] = row_engines();
        let SimulationEngine::StateSpace(options) = proposed else {
            panic!("the proposed engine is the state-space march");
        };
        assert_eq!(options.ab_order, 4);
        let SimulationEngine::NewtonRaphson(options) = baseline else {
            panic!("the reference engine is the Newton–Raphson baseline");
        };
        assert!(options.step > 0.0);

        let config = scenario1(0.2);
        let row = EngineRow::start(&config, RowProbes::Dense).unwrap();
        for (session, _) in &row.sessions {
            assert_eq!(session.time(), 0.0);
            assert_eq!(session.duration(), 0.2);
            assert!(!session.is_finished());
        }
        let mut bad = config;
        bad.duration_s = 0.0;
        assert!(EngineRow::start(&bad, RowProbes::Dense).is_err());
    }

    /// One row per scenario, each carrying its own scenario's label and span;
    /// a scenario that cannot run fails its row as an error.
    #[test]
    fn batched_comparisons_cover_every_scenario() {
        let mut first = scenario1(0.15);
        first.frequency_step_time_s = 0.05;
        let mut second = scenario2(0.2);
        second.frequency_step_time_s = 0.05;
        for config in [first, second] {
            let record = table2_row(&config, RowProbes::Dense).unwrap();
            assert_eq!(record.name, config.effective_label());
            assert_eq!(record.simulated_span_s, config.duration_s);
            assert!(record.max_deviation_v < 0.05);
            assert!(record.steps > 0);
            assert!(record.baseline_cpu_s > 0.0);
        }
        let mut bad = scenario1(0.2);
        bad.duration_s = 0.0;
        assert!(table2_row(&bad, RowProbes::Dense).is_err());
    }

    /// A very short head-to-head run: the proposed engine must agree with the
    /// baseline on the supercapacitor voltage and must not be slower.
    #[test]
    fn short_head_to_head_agrees_and_is_faster() {
        let mut config = scenario1(0.2);
        config.frequency_step_time_s = 0.05;
        let record = table2_row(&config, RowProbes::Dense).unwrap();
        // Accuracy: the two engines track each other closely on the store voltage.
        assert!(record.max_deviation_v < 0.05, "max deviation {} V", record.max_deviation_v);
        // Speed: the explicit engine avoids the per-step Newton iteration, so it
        // must come out ahead even on this tiny span.
        assert!(record.speedup > 1.0, "speed-up {}", record.speedup);
        assert!(record.proposed_cpu_s > 0.0);
        assert!(record.baseline_cpu_s > record.proposed_cpu_s);
    }

    /// Alternating the two engines in slices must not change a single
    /// deterministic number: the interleaved row equals the two sessions run
    /// uninterrupted, counter for counter and in deviation.
    #[test]
    fn interleaved_row_matches_uninterrupted_sessions() {
        let config = scenario1(0.2);
        let sans_timing = |record: Table2Record| Table2Record {
            baseline_cpu_s: 0.0,
            proposed_cpu_s: 0.0,
            speedup: 0.0,
            ..record
        };
        for probes in [RowProbes::Dense, RowProbes::Streaming] {
            let interleaved = table2_row(&config, probes).unwrap();
            let mut reference = EngineRow::start(&config, probes).unwrap();
            for (session, _) in &mut reference.sessions {
                session.run_to_end().unwrap();
            }
            let reference = reference.record().unwrap();
            assert!(interleaved.steps > 0 && interleaved.max_deviation_v > 0.0);
            assert_eq!(sans_timing(interleaved), sans_timing(reference), "{probes:?}");
        }
    }
}
