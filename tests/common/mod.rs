//! Helper shared by the integration tests: the dense reference run.
#![allow(dead_code)]

use harvsim::ode::Trajectory;
use harvsim::{ScenarioConfig, SessionReport, Simulation, TunableHarvester, WaveformProbe};

/// A scenario run to the end with one dense `WaveformProbe` at its engine's
/// record interval.
pub struct DenseRun {
    pub report: SessionReport,
    pub states: Trajectory,
    pub terminals: Trajectory,
    /// The harvester in its final state (retuned resonance, final load mode).
    pub harvester: TunableHarvester,
}

pub fn dense_run(scenario: &ScenarioConfig) -> DenseRun {
    let mut session = Simulation::from_config(scenario.clone()).start().expect("session starts");
    let capture = session.add_probe(WaveformProbe::new(scenario.engine.record_interval()));
    session.run_to_end().expect("scenario runs");
    let probe = session.probe::<WaveformProbe>(capture).expect("typed capture");
    let (states, terminals) = (probe.states().clone(), probe.terminals().clone());
    let (report, _, harvester) = session.into_parts();
    DenseRun { report, states, terminals, harvester }
}
