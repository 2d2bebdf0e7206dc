//! Helpers shared by the integration tests: the dense reference run, the
//! unpartitioned view of the harvester and the pre-session direct
//! mixed-signal loop. Each test binary uses a subset of them.
#![allow(dead_code)]

use harvsim::blocks::{ControllerConfig, HarvesterEnvironment, LoadMode, MicroController};
use harvsim::core::assembly::{AnalogueSystem, GlobalLinearisation, StampReport};
use harvsim::core::solver::SolverWorkspace;
use harvsim::core::{CoreError, StateSpaceSolver};
use harvsim::digital::{Kernel, SimTime};
use harvsim::linalg::DVector;
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

/// Delegating wrapper that hides the blocks' stiff-state declarations, so the
/// solver runs its classic unpartitioned path on the full harvester.
pub struct HideStiff<'a>(pub &'a TunableHarvester);

impl AnalogueSystem for HideStiff<'_> {
    fn state_count(&self) -> usize {
        self.0.state_count()
    }
    fn net_count(&self) -> usize {
        self.0.net_count()
    }
    fn state_names(&self) -> Vec<String> {
        self.0.state_names()
    }
    fn net_names(&self) -> Vec<String> {
        self.0.net_names()
    }
    fn linearise_global(
        &self,
        t: f64,
        x: &DVector,
        y: &DVector,
    ) -> Result<GlobalLinearisation, CoreError> {
        self.0.linearise_global(t, x, y)
    }
    fn linearise_global_into(
        &self,
        t: f64,
        x: &DVector,
        y: &DVector,
        out: &mut GlobalLinearisation,
    ) -> Result<(), CoreError> {
        self.0.linearise_global_into(t, x, y, out)
    }
    fn relinearise_global_into(
        &self,
        t: f64,
        x: &DVector,
        y: &DVector,
        out: &mut GlobalLinearisation,
    ) -> Result<StampReport, CoreError> {
        self.0.relinearise_global_into(t, x, y, out)
    }
    // Deliberately NOT forwarding `stiff_states`: the default (empty) hides
    // the partition.
}

/// The pre-session control mailbox, reproduced verbatim for the reference
/// loop.
#[derive(Debug, Clone, Default)]
struct Mailbox {
    supercap_voltage: f64,
    ambient_hz: f64,
    resonant_hz: f64,
    requested_load_mode: Option<LoadMode>,
    requested_resonance_hz: Option<f64>,
}

impl HarvesterEnvironment for Mailbox {
    fn supercapacitor_voltage(&self) -> f64 {
        self.supercap_voltage
    }
    fn ambient_frequency_hz(&self) -> f64 {
        self.ambient_hz
    }
    fn resonant_frequency_hz(&self) -> f64 {
        self.requested_resonance_hz.unwrap_or(self.resonant_hz)
    }
    fn set_load_mode(&mut self, mode: LoadMode) {
        self.requested_load_mode = Some(mode);
    }
    fn set_resonant_frequency(&mut self, frequency_hz: f64) {
        self.requested_resonance_hz = Some(frequency_hz);
    }
}

/// What the direct loop returns: `(states, terminals, final_state,
/// accepted_steps, control_events)`.
pub type DirectRunOutput = (Trajectory, Trajectory, DVector, usize, Vec<(f64, LoadMode, f64)>);

/// The pre-session mixed-signal driver: run-to-completion, dense trajectories, one
/// reused workspace, digital events processed at segment boundaries. With
/// `hide_stiff` every segment marches the harvester through [`HideStiff`],
/// i.e. on the unpartitioned path.
pub fn direct_mixed_loop(
    harvester: &mut TunableHarvester,
    controller_config: ControllerConfig,
    solver: &StateSpaceSolver,
    duration_s: f64,
    initial_supercap_voltage: f64,
    hide_stiff: bool,
) -> DirectRunOutput {
    let controller =
        MicroController::new(controller_config, harvester.resonant_frequency_hz()).unwrap();
    let mut kernel: Kernel<Mailbox> = Kernel::new();
    kernel.spawn_at(SimTime::from_secs_f64(controller_config.watchdog_period_s), controller);

    let mut states = Trajectory::new();
    let mut terminals = Trajectory::new();
    let mut workspace = SolverWorkspace::new();
    let mut control_events = Vec::new();
    let mut steps = 0usize;

    let mut t = 0.0_f64;
    let mut x = harvester.initial_state(initial_supercap_voltage).unwrap();

    while t < duration_s - 1e-9 {
        let next_event = kernel
            .next_event_time()
            .map(|time| time.as_secs_f64())
            .unwrap_or(duration_s)
            .min(duration_s);
        let segment_end = next_event.max(t + 1e-9);

        if segment_end > t + 1e-12 {
            let hidden = HideStiff(&*harvester);
            let system: &dyn AnalogueSystem = if hide_stiff { &hidden } else { &*harvester };
            let (x_end, stats) = solver
                .solve_into_with(
                    system,
                    t,
                    segment_end,
                    &x,
                    &mut states,
                    &mut terminals,
                    &mut workspace,
                )
                .expect("segment integrates");
            x = x_end;
            steps += stats.steps;
            t = segment_end;
        }

        if kernel.next_event_time().map(|time| time.as_secs_f64() <= t + 1e-12).unwrap_or(false) {
            let mut mailbox = Mailbox {
                supercap_voltage: harvester.supercapacitor_voltage(&x),
                ambient_hz: harvester.ambient_frequency_hz(t),
                resonant_hz: harvester.resonant_frequency_hz(),
                requested_load_mode: None,
                requested_resonance_hz: None,
            };
            kernel.run_until(SimTime::from_secs_f64(t), &mut mailbox).unwrap();
            let mut acted = false;
            if let Some(mode) = mailbox.requested_load_mode {
                harvester.set_load_mode(mode);
                acted = true;
            }
            if let Some(frequency) = mailbox.requested_resonance_hz {
                harvester.set_resonant_frequency(frequency);
                acted = true;
            }
            if acted {
                control_events.push((t, harvester.load_mode(), harvester.resonant_frequency_hz()));
            }
        }
    }

    (states, terminals, x, steps, control_events)
}
