//! The streaming simulation facade: a [`Simulation`] builder producing an
//! observable, resumable [`Session`] — the one driver of the mixed-signal
//! co-simulation.
//!
//! The analogue part (microgenerator, multiplier, supercapacitor) is marched
//! by the linearised state-space engine (or by the Newton–Raphson baseline);
//! the digital part (watchdog + microcontroller of Fig. 7) runs on the
//! event-driven kernel of `harvsim-digital`. The two sides meet only at the
//! digital event times: the analogue march integrates up to the next
//! scheduled event, the kernel then executes the due processes against a
//! snapshot of the analogue quantities, and any control actions (load-mode
//! switch, resonance retune) are applied to the blocks before the next
//! analogue segment starts. Because the analogue solution is obtained in a
//! single feed-forward sweep there is never any need to backtrack across a
//! digital event — the property the paper highlights as making the technique
//! easy to couple with a digital kernel.
//!
//! A `Session` is that co-simulation as a state machine the caller advances
//! explicitly — [`Session::run_until`], [`Session::run_until_deadline`],
//! [`Session::run_to_end`], all thin calls into one private advance loop (a
//! deadline that has already passed makes `run_until_deadline` do exactly one
//! unit of work, the finest granularity) — while typed [`Probe`]s observe
//! every accepted analogue point and every digital event as they happen.
//! Pausing is simply returning from `run_until`; resuming is calling it
//! again. It is the one way to run an engine: every session is opened by
//! [`Simulation::start`] from a [`ScenarioConfig`], which it keeps as the
//! rebuild recipe its checkpoints embed.
//!
//! Two properties are load-bearing (and pinned by tests):
//!
//! * **Pause/resume is bit-identical.** `run_until(t)` never truncates an
//!   integration step to land on `t`: it pauses at the first accepted step
//!   boundary at or past `t`, with the in-flight march (Adams–Bashforth
//!   history, step-ladder rung, stability plan, Newton iterate) kept alive in
//!   the session. The step sequence — and therefore every recorded number —
//!   is identical to an uninterrupted run, for both engines.
//! * **Streaming runs are O(1) in the simulated span.** A session whose
//!   probes are all streaming (envelope, power windows, histograms) allocates
//!   no dense [`harvsim_ode::Trajectory`]; the high-water probe footprint is
//!   reported as [`SessionReport::peak_probe_bytes`].
//!
//! Probes are the only way out of a session: the marches keep no output of
//! their own and offer every accepted point straight to them. Dense waveforms
//! are one probe away — a [`crate::probe::WaveformProbe`] at the caller's
//! sample spacing (1 ms in the examples and benches) records the decimated
//! state and terminal trajectories. See DESIGN.md §8 for the ownership
//! diagram and the probe dispatch cost budget.
//!
//! The module also holds the co-simulation's vocabulary, which checkpoints,
//! the service and the server record and report: [`SimulationEngine`] (the
//! analogue engine a session marches with), [`EngineStats`] (the work it
//! accumulates) and [`ControlEvent`] (one digital control action applied to
//! the blocks).

use std::any::Any;
use std::time::{Duration, Instant};

use harvsim_blocks::{HarvesterEnvironment, LoadMode, MicroController};
use harvsim_digital::{Kernel, SimTime};
use harvsim_linalg::DVector;

use crate::baseline::{BaselineMarch, BaselineOptions, BaselineStats, BaselineWorkspace};
use crate::checkpoint::{self, ByteReader, ByteWriter, CheckpointError};
use crate::harvester::TunableHarvester;
use crate::probe::{DigitalEvent, Probe};
use crate::scenario::ScenarioConfig;
use crate::solver::{SolverOptions, SolverStats, SolverWorkspace, StateSpaceMarch};
use crate::CoreError;

/// Which analogue engine drives a session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimulationEngine {
    /// The proposed linearised state-space technique (explicit Adams–Bashforth).
    StateSpace(SolverOptions),
    /// The Newton–Raphson implicit baseline (stand-in for the commercial tools).
    NewtonRaphson(BaselineOptions),
}

impl SimulationEngine {
    /// Human-readable name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            SimulationEngine::StateSpace(_) => "linearised-state-space",
            SimulationEngine::NewtonRaphson(_) => "newton-raphson-baseline",
        }
    }
}

/// Analogue work statistics of a mixed-signal run (one of the two variants is
/// populated depending on the engine).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineStats {
    /// Statistics of the state-space engine (zeroed for baseline runs).
    pub state_space: SolverStats,
    /// Statistics of the Newton–Raphson baseline (zeroed for state-space runs).
    pub baseline: BaselineStats,
}

/// A record of one digital control action applied during the run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlEvent {
    /// Simulation time of the action, in seconds.
    pub time_s: f64,
    /// Load mode in force after the action.
    pub load_mode: LoadMode,
    /// Resonant frequency in force after the action, in hertz.
    pub resonant_frequency_hz: f64,
}

/// Builder for a [`Session`]: a [`ScenarioConfig`] plus fluent overrides for
/// the knobs a caller usually touches (span, engine, solver options, label).
/// `Simulation` is cheap to clone and reusable — every [`Simulation::start`]
/// call produces an independent session.
///
/// ```
/// use harvsim_core::session::Simulation;
/// use harvsim_core::probe::EnvelopeProbe;
///
/// # fn main() -> Result<(), harvsim_core::CoreError> {
/// let mut session = Simulation::scenario1()
///     .duration(0.2)
///     .frequency_step_at(0.05)
///     .start()?;
/// let vc = session.harvester().storage_voltage_net();
/// let store = session.add_probe(EnvelopeProbe::terminal(vc));
/// session.run_to_end()?;
/// let envelope = session.probe::<EnvelopeProbe>(store).expect("probe kept its type");
/// assert!(envelope.min() > 1.5 && envelope.max() < 4.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Simulation {
    config: ScenarioConfig,
}

impl Simulation {
    /// Wraps an existing scenario configuration.
    pub fn from_config(config: ScenarioConfig) -> Self {
        Simulation { config }
    }

    /// Scenario 1 of the paper (70 → 71 Hz narrow tuning).
    pub fn scenario1() -> Self {
        Self::from_config(ScenarioConfig::scenario1())
    }

    /// Scenario 2 of the paper (70 → 84 Hz wide tuning).
    pub fn scenario2() -> Self {
        Self::from_config(ScenarioConfig::scenario2())
    }

    /// Sets the simulated span, in seconds.
    pub fn duration(mut self, duration_s: f64) -> Self {
        self.config.duration_s = duration_s;
        self
    }

    /// Sets the time of the ambient-frequency step, in seconds.
    pub fn frequency_step_at(mut self, time_s: f64) -> Self {
        self.config.frequency_step_time_s = time_s;
        self
    }

    /// Sets the initial supercapacitor pre-charge, in volts.
    pub fn initial_supercap_voltage(mut self, volts: f64) -> Self {
        self.config.initial_supercap_voltage = volts;
        self
    }

    /// Selects the analogue engine.
    pub fn engine(mut self, engine: SimulationEngine) -> Self {
        self.config.engine = engine;
        self
    }

    /// Shorthand for the state-space engine with explicit solver options.
    pub fn solver_options(self, options: SolverOptions) -> Self {
        self.engine(SimulationEngine::StateSpace(options))
    }

    /// Shorthand for the Newton–Raphson baseline with explicit options.
    pub fn baseline_options(self, options: BaselineOptions) -> Self {
        self.engine(SimulationEngine::NewtonRaphson(options))
    }

    /// Attaches a label carried into batch/sweep error attribution
    /// (see [`CoreError::Scenario`]).
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.config.label = Some(label.into());
        self
    }

    /// The wrapped configuration.
    pub fn config(&self) -> &ScenarioConfig {
        &self.config
    }

    /// Validates the configuration, builds the harvester and opens a session
    /// positioned at `t = 0`.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation and model assembly failures.
    pub fn start(&self) -> Result<Session, CoreError> {
        self.config.validate()?;
        Session::open(self.config.clone())
    }
}

/// Handle to a probe registered with [`Session::add_probe`], used to retrieve
/// it (typed) during or after the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeId(usize);

/// Snapshot of a session's outcome (valid at any time; final once
/// [`Session::is_finished`]).
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// Simulation time the report was taken at, in seconds.
    pub time_s: f64,
    /// Whether the configured span is complete.
    pub finished: bool,
    /// Global analogue state at report time (the final state once finished).
    pub final_state: DVector,
    /// Analogue-engine work statistics accumulated so far.
    pub engine_stats: EngineStats,
    /// Digital-kernel process activations executed so far.
    pub digital_events: u64,
    /// Control actions applied by the digital side so far.
    pub control_events: Vec<ControlEvent>,
    /// High-water sum of [`Probe::memory_bytes`] across all attached probes —
    /// the observable memory cost of observation. Streaming-only sessions
    /// keep this constant in the simulated duration.
    pub peak_probe_bytes: usize,
}

impl SessionReport {
    /// Total engine wall-clock accumulated so far, both engines combined —
    /// the per-session billing quantity a [`crate::server::Server`] draws.
    /// Monotone over a session's lifetime and carried across
    /// checkpoint/restore, so per-slice billing deltas telescope exactly to
    /// this final total (billing conservation).
    pub fn engine_time(&self) -> Duration {
        self.engine_stats.state_space.cpu_time + self.engine_stats.baseline.cpu_time
    }
}

/// The analogue engine behind a session: the engine options, the reusable
/// workspace, and — while an analogue segment is in flight (possibly paused)
/// — its resumable march.
enum EngineRuntime {
    StateSpace {
        options: SolverOptions,
        workspace: Box<SolverWorkspace>,
        march: Option<Box<StateSpaceMarch>>,
    },
    NewtonRaphson {
        options: BaselineOptions,
        workspace: Box<BaselineWorkspace>,
        march: Option<Box<BaselineMarch>>,
    },
}

impl EngineRuntime {
    fn march_time(&self) -> Option<f64> {
        match self {
            EngineRuntime::StateSpace { march, .. } => march.as_deref().map(StateSpaceMarch::time),
            EngineRuntime::NewtonRaphson { march, .. } => march.as_deref().map(BaselineMarch::time),
        }
    }

    fn march_active(&self) -> bool {
        self.march_time().is_some()
    }
}

/// Snapshot/mailbox through which the digital controller observes and
/// commands the analogue model. Reads are filled in from the analogue state
/// before every kernel activation; writes are collected and applied to the
/// blocks afterwards.
#[derive(Debug, Clone, Default)]
struct ControlMailbox {
    supercap_voltage: f64,
    ambient_hz: f64,
    resonant_hz: f64,
    requested_load_mode: Option<LoadMode>,
    requested_resonance_hz: Option<f64>,
}

impl HarvesterEnvironment for ControlMailbox {
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

/// A running (or paused, or finished) mixed-signal simulation.
///
/// Created by [`Simulation::start`] (or restored from a checkpoint). The
/// session owns the harvester, the digital kernel, the engine workspace and
/// the probes; advancing it interleaves resumable analogue march segments
/// with digital-kernel event processing.
pub struct Session {
    harvester: TunableHarvester,
    kernel: Kernel<ControlMailbox>,
    runtime: EngineRuntime,
    /// The scenario configuration the session was built from — the rebuild
    /// recipe a checkpoint embeds.
    config: ScenarioConfig,
    /// Committed time: the end of the last fully closed segment (the
    /// in-flight march, if any, is ahead of this).
    t: f64,
    /// Committed state matching `t`.
    x: DVector,
    /// End of the in-flight segment (meaningful while a march is active).
    segment_end: f64,
    probes: Vec<Box<dyn Probe>>,
    engine_stats: EngineStats,
    control_events: Vec<ControlEvent>,
    /// Engine wall-clock accumulated for the in-flight segment, booked into
    /// the segment's stats when it closes (pauses are not billed).
    pending_cpu: Duration,
    peak_probe_bytes: usize,
    finished: bool,
}

impl Session {
    /// Opens a session over the harvester `config` builds, on a configuration
    /// [`Simulation::start`] has validated. The digital controller is spawned
    /// on its watchdog schedule and the supercapacitor pre-charged to the
    /// configured voltage.
    fn open(config: ScenarioConfig) -> Result<Self, CoreError> {
        let mut harvester = config.build_harvester()?;
        // The baseline stands in for the commercial Newton–Raphson tools,
        // which evaluate the physical device equations at every iteration —
        // the PWL lookup table is the *proposed* technique's contribution, so
        // handing it to the baseline would let the comparison race the
        // technique against itself. Exact evaluation for the baseline, table
        // companions (the build default) for the state-space engine.
        let engine = config.engine;
        harvester.set_exact_diode_companions(matches!(engine, SimulationEngine::NewtonRaphson(_)));
        let runtime = match engine {
            SimulationEngine::StateSpace(options) => {
                options.validate()?;
                EngineRuntime::StateSpace { options, workspace: Box::default(), march: None }
            }
            SimulationEngine::NewtonRaphson(options) => {
                options.validate()?;
                EngineRuntime::NewtonRaphson {
                    options,
                    workspace: Box::new(BaselineWorkspace::new()),
                    march: None,
                }
            }
        };
        let controller =
            MicroController::new(config.controller, harvester.resonant_frequency_hz())?;
        let mut kernel: Kernel<ControlMailbox> = Kernel::new();
        kernel.spawn_at(SimTime::from_secs_f64(config.controller.watchdog_period_s), controller);
        let x = harvester.initial_state(config.initial_supercap_voltage)?;
        Ok(Session {
            harvester,
            kernel,
            runtime,
            config,
            t: 0.0,
            x,
            segment_end: 0.0,
            probes: Vec::new(),
            engine_stats: EngineStats::default(),
            control_events: Vec::new(),
            pending_cpu: Duration::ZERO,
            peak_probe_bytes: 0,
            finished: false,
        })
    }

    /// Adopts the **fast** states of a donor state vector as this session's
    /// initial condition — the warm-start path of the design-space explorer
    /// ([`crate::explore`]). The mechanical, coil, rail and intermediate
    /// Dickson-stage states are copied from `donor`; the supercapacitor
    /// branch states and the multiplier output stage keep this session's own
    /// configured pre-charge, so a warm start only skips the fast start-up
    /// transient and never imports the neighbouring point's stored energy —
    /// that is what keeps warm-started results within the deviation gate of
    /// cold-started references.
    ///
    /// Returns `true` when the donor was adopted and `false` when the
    /// validity guard rejected it (dimension mismatch, non-finite or
    /// implausibly large entries); on rejection the session keeps the cold
    /// initial state it already has.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfiguration`] if the session has already
    /// advanced: a warm start replaces the *initial* condition at `t = 0`,
    /// never a mid-run state.
    pub fn adopt_initial_state(&mut self, donor: &[f64]) -> Result<bool, CoreError> {
        if self.t != 0.0 || self.runtime.march_active() || self.finished {
            return Err(CoreError::InvalidConfiguration(
                "warm-start adoption is only valid before the session advances past t = 0".into(),
            ));
        }
        if donor.len() != self.x.len() {
            return Ok(false);
        }
        // Every physical state of the harvester (displacement, velocity,
        // current, stage voltage) lives well inside ±1e3 in SI units; a donor
        // entry outside that bound is a diverged or foreign run.
        const PLAUSIBLE_BOUND: f64 = 1.0e3;
        if donor.iter().any(|value| !value.is_finite() || value.abs() > PLAUSIBLE_BOUND) {
            return Ok(false);
        }
        let supercap = self.harvester.supercap_state_offset();
        let output_stage = self.harvester.multiplier_state_offset()
            + self.harvester.multiplier().stage_count()
            - 1;
        for (i, &value) in donor.iter().enumerate() {
            if i == output_stage || (supercap..supercap + 3).contains(&i) {
                continue;
            }
            self.x[i] = value;
        }
        Ok(true)
    }

    /// Registers a probe; the returned id retrieves it later through
    /// [`Session::probe`]. Probes added after the session has advanced only
    /// observe from the current time onward.
    pub fn add_probe<P: Probe>(&mut self, probe: P) -> ProbeId {
        self.probes.push(Box::new(probe));
        self.update_peak_probe_bytes();
        ProbeId(self.probes.len() - 1)
    }

    /// Typed access to a registered probe.
    pub fn probe<P: Probe>(&self, id: ProbeId) -> Option<&P> {
        let probe: &dyn Any = self.probes.get(id.0)?.as_ref();
        probe.downcast_ref::<P>()
    }

    /// The harvester model (retuned resonance, load mode evolve as the
    /// digital side acts). Net/state index lookups for probe construction
    /// live here.
    pub fn harvester(&self) -> &TunableHarvester {
        &self.harvester
    }

    /// Current simulation time, in seconds: the in-flight march position, or
    /// the last committed segment boundary.
    pub fn time(&self) -> f64 {
        self.runtime.march_time().unwrap_or(self.t)
    }

    /// Configured span, in seconds.
    pub fn duration(&self) -> f64 {
        self.config.duration_s
    }

    /// Whether the whole span has been simulated.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// The label of the scenario this session was built from, if its
    /// configuration carries one. Travels inside checkpoints, so a restored
    /// session still knows it — the server uses this to verify a recovered
    /// frame belongs to the job it is keyed under.
    pub fn scenario_label(&self) -> Option<&str> {
        self.config.label.as_deref()
    }

    /// Analogue-engine statistics accumulated over the closed segments.
    pub fn engine_stats(&self) -> &EngineStats {
        &self.engine_stats
    }

    /// Control actions applied so far.
    pub fn control_events(&self) -> &[ControlEvent] {
        &self.control_events
    }

    /// Runs until the simulation time reaches `target` seconds (clamped to
    /// the configured duration), then pauses and returns the actual time.
    ///
    /// Pausing never truncates an integration step: the session stops at the
    /// first accepted step boundary at or past `target`, keeping the
    /// in-flight march alive, so a paused-and-resumed run takes *exactly* the
    /// steps an uninterrupted run takes — bit-identical trajectories, stats
    /// and control actions. Resume by calling `run_until` (or
    /// [`Session::run_to_end`]) again. Reaching the configured duration
    /// marks the session finished.
    ///
    /// # Errors
    ///
    /// Propagates engine and kernel failures.
    pub fn run_until(&mut self, target: f64) -> Result<f64, CoreError> {
        self.advance(target, None)
    }

    /// [`Session::run_until`] with a cooperative wall-clock watchdog: the
    /// deadline is checked between units of work and after every *accepted*
    /// integration step, so an expired deadline pauses the session at a step
    /// boundary — never truncating a step — and a paused-then-resumed run
    /// stays bit-identical to an uninterrupted one. At least one unit of
    /// work is performed per call even if the deadline already passed, so a
    /// scheduler retrying a preempted session always makes progress; with a
    /// deadline already past, the call performs exactly one unit (opening the
    /// next analogue segment, taking one accepted integration step, or
    /// closing a completed segment and processing its due digital events),
    /// the finest observation granularity.
    ///
    /// Reaching the configured duration also closes the final segment
    /// bookkeeping (marking the session finished), so a slice-driven
    /// scheduler needs no separate run-to-end path.
    ///
    /// # Errors
    ///
    /// Propagates engine and kernel failures.
    pub fn run_until_deadline(
        &mut self,
        target: f64,
        deadline: Option<Instant>,
    ) -> Result<f64, CoreError> {
        self.advance(target, deadline)
    }

    /// Runs the remaining span to completion.
    ///
    /// # Errors
    ///
    /// Propagates engine and kernel failures.
    pub fn run_to_end(&mut self) -> Result<(), CoreError> {
        self.advance(self.config.duration_s, None)?;
        Ok(())
    }

    /// The one advance loop behind every public driver: performs units of
    /// work (open a segment, march the in-flight one, close it) until the
    /// time reaches `target` (clamped to the duration) or, once at least one
    /// unit is done, `deadline` passes; then closes the final bookkeeping if
    /// the whole span is simulated and returns the time.
    fn advance(&mut self, target: f64, deadline: Option<Instant>) -> Result<f64, CoreError> {
        let duration = self.config.duration_s;
        let target = target.min(duration);
        let mut did_work = false;
        while !self.finished && self.time() < target - 1e-12 {
            if did_work && deadline.is_some_and(|at| Instant::now() >= at) {
                break;
            }
            if self.runtime.march_active() {
                let clock = Instant::now();
                let segment_done = self.march_steps(target, deadline)?;
                self.pending_cpu += clock.elapsed();
                if segment_done {
                    self.close_segment()?;
                }
            } else if self.t >= duration - 1e-9 {
                self.finished = true;
            } else {
                self.open_segment()?;
            }
            did_work = true;
        }
        if !self.finished && !self.runtime.march_active() && self.t >= duration - 1e-9 {
            self.finished = true;
        }
        self.update_peak_probe_bytes();
        Ok(self.time())
    }

    /// Snapshot of the session outcome (final once the session finished).
    /// Mid-segment reports are current: the state and the engine statistics
    /// include the in-flight march's progress (with the segment's
    /// accumulated engine time billed provisionally), not just the last
    /// closed segment.
    pub fn report(&self) -> SessionReport {
        let mut engine_stats = self.engine_stats;
        let final_state = match &self.runtime {
            EngineRuntime::StateSpace { march: Some(march), .. } => {
                engine_stats.state_space.absorb(march.stats());
                engine_stats.state_space.cpu_time += self.pending_cpu;
                march.state().clone()
            }
            EngineRuntime::NewtonRaphson { march: Some(march), .. } => {
                engine_stats.baseline.absorb(march.stats());
                engine_stats.baseline.cpu_time += self.pending_cpu;
                march.state().clone()
            }
            _ => self.x.clone(),
        };
        SessionReport {
            time_s: self.time(),
            finished: self.finished,
            final_state,
            engine_stats,
            digital_events: self.kernel.events_processed(),
            control_events: self.control_events.clone(),
            peak_probe_bytes: self.peak_probe_bytes,
        }
    }

    /// Consumes the session, returning the report, the probes (for typed
    /// downcasting by the caller) and the harvester in its final state —
    /// with the diode-evaluation mode back at the build default, table
    /// companions (the engine policy the session applied is
    /// session-internal).
    pub fn into_parts(mut self) -> (SessionReport, Vec<Box<dyn Probe>>, TunableHarvester) {
        let report = self.report();
        self.harvester.set_exact_diode_companions(false);
        (report, self.probes, self.harvester)
    }

    /// Serialises the session into a self-contained, versioned checkpoint
    /// frame (wire format v1 — see [`crate::checkpoint`] for the layout and
    /// the version policy). The frame embeds the scenario configuration the
    /// session was built from, every loop-carried runtime datum (committed
    /// state, in-flight march, digital schedule and process state, stamp
    /// caches, statistics, billing) and each probe's observation state, so
    /// [`Session::restore`] resumes **bit-identically**: the resumed run
    /// takes exactly the steps the uninterrupted run takes. Only the
    /// wall-clock `cpu_time` statistics differ across a save/load boundary —
    /// they measure the host, not the model.
    ///
    /// Checkpoints may be taken at any time: at `t = 0`, paused mid-segment
    /// (the in-flight march travels in the frame), at a segment boundary, or
    /// after the session finished.
    ///
    /// # Errors
    ///
    /// None today: every session carries the configuration a checkpoint needs
    /// to rebuild the model, so encoding cannot fail. The `Result` leaves the
    /// format room to refuse a state it cannot encode.
    pub fn checkpoint(&self) -> Result<Vec<u8>, CoreError> {
        let rebuild = checkpoint::encode_config(&self.config);
        let digest = checkpoint::fnv1a64(&rebuild);
        let mut w = ByteWriter::new();
        w.put_bytes(&rebuild);
        // Harvester runtime: the tuning force is saved raw (not the derived
        // resonant frequency) because force → frequency goes through a square
        // root that does not round-trip bit-exactly.
        w.put_f64(self.harvester.tuning_force());
        checkpoint::encode_load_mode(&mut w, self.harvester.load_mode());
        w.put_bool(self.harvester.exact_diode_companions());
        // Former caller-companion slot: every session is built from its
        // configuration, whose harvester starts on table companions, so the
        // slot is always `false`.
        w.put_bool(false);
        // Session scalars and committed state.
        w.put_f64(self.t);
        w.put_f64(self.segment_end);
        w.put_bool(self.finished);
        w.put_usize(self.peak_probe_bytes);
        w.put_vector(&self.x);
        // Accumulated statistics and billing.
        self.engine_stats.state_space.encode(&mut w);
        self.engine_stats.baseline.encode(&mut w);
        w.put_u64(self.pending_cpu.as_nanos() as u64);
        w.put_usize(self.control_events.len());
        for event in &self.control_events {
            w.put_f64(event.time_s);
            checkpoint::encode_load_mode(&mut w, event.load_mode);
            w.put_f64(event.resonant_frequency_hz);
        }
        // Digital kernel: clock, counters, pending queue (canonical sorted
        // order with original tie-break sequence numbers), process blobs.
        w.put_u64(self.kernel.now().as_nanos());
        w.put_u64(self.kernel.sequence());
        w.put_u64(self.kernel.events_processed());
        let queue = self.kernel.queue_snapshot();
        w.put_usize(queue.len());
        for (time, sequence, process) in queue {
            w.put_u64(time.as_nanos());
            w.put_u64(sequence);
            w.put_usize(process);
        }
        w.put_usize(self.kernel.process_count());
        for index in 0..self.kernel.process_count() {
            let blob = self.kernel.process_state(index).unwrap_or_default();
            w.put_bytes(&blob);
        }
        // Per-block stamp caches: loop-carried inputs to the relinearisation
        // skip paths and the Eq. 3 monitor scale.
        let stamp_cache = self.harvester.assembly().stamp_cache();
        w.put_usize(stamp_cache.len());
        for (static_scale, segments, stamped) in stamp_cache {
            w.put_f64(static_scale);
            w.put_bool(segments.is_some());
            w.put_u64(segments.unwrap_or(0));
            w.put_bool(stamped);
        }
        // The in-flight march, if the session is paused mid-segment.
        match &self.runtime {
            EngineRuntime::StateSpace { workspace, march: Some(march), .. } => {
                w.put_u8(1);
                march.encode(workspace, &mut w);
            }
            EngineRuntime::NewtonRaphson { march: Some(march), .. } => {
                w.put_u8(2);
                march.encode(&mut w);
            }
            _ => w.put_u8(0),
        }
        // Probe observation state, in registration order.
        w.put_usize(self.probes.len());
        for probe in &self.probes {
            w.put_bytes(&probe.save_state());
        }
        Ok(checkpoint::seal_frame(digest, &w.into_bytes()))
    }

    /// Rebuilds a probe-less session from a checkpoint frame. Equivalent to
    /// [`Session::restore_with_probes`] with an empty probe list — a frame
    /// that carries probe state is rejected (typed, not silently dropped),
    /// because restoring it without the probes would lose observations.
    ///
    /// # Errors
    ///
    /// Typed [`CheckpointError`] (via [`CoreError::Checkpoint`]) for
    /// truncated, corrupted, version-skewed or digest-mismatched frames;
    /// model-rebuild failures propagate as their own [`CoreError`] variants.
    pub fn restore(bytes: &[u8]) -> Result<Session, CoreError> {
        Ok(Self::restore_with_probes(bytes, Vec::new())?.0)
    }

    /// Rebuilds a session from a checkpoint frame, re-attaching `probes` —
    /// fresh instances of the same types, in the same order, as when the
    /// checkpoint was taken — and restoring each one's saved observation
    /// state into them. Returns the session plus the probes' new
    /// [`ProbeId`]s (always `0..n` in supplied order).
    ///
    /// The resumed session is bit-identical to the saved one: same future
    /// steps, same recorded numbers, same control actions. Wall-clock
    /// (`cpu_time`) statistics restart from the saved totals.
    ///
    /// # Errors
    ///
    /// Typed [`CheckpointError`] (via [`CoreError::Checkpoint`]) when the
    /// frame is truncated, corrupted ([`CheckpointError::ChecksumMismatch`]),
    /// from another format version, taken against a different configuration
    /// encoding ([`CheckpointError::DigestMismatch`]), or internally
    /// inconsistent with the rebuilt model — including a probe count or type
    /// mismatch with `probes`. Configuration validation and model assembly
    /// failures propagate unchanged.
    pub fn restore_with_probes(
        bytes: &[u8],
        probes: Vec<Box<dyn Probe>>,
    ) -> Result<(Session, Vec<ProbeId>), CoreError> {
        let (digest, payload) = checkpoint::open_frame(bytes)?;
        let mut r = ByteReader::new(payload);
        let rebuild = r.take_bytes()?;
        let found = checkpoint::fnv1a64(rebuild);
        if found != digest {
            return Err(CheckpointError::DigestMismatch { expected: digest, found }.into());
        }
        let mut rebuild_reader = ByteReader::new(rebuild);
        let config = checkpoint::decode_config(&mut rebuild_reader)?;
        rebuild_reader.expect_end()?;
        let mut session = Simulation::from_config(config).start()?;
        // Harvester runtime.
        let tuning_force = r.take_f64()?;
        let load_mode = checkpoint::decode_load_mode(&mut r)?;
        let exact_companions = r.take_bool()?;
        if r.take_bool()? {
            return Err(checkpoint::malformed(
                "caller-companion slot is set; sessions are always built on table companions",
            )
            .into());
        }
        session.harvester.set_tuning_force(tuning_force);
        session.harvester.set_load_mode(load_mode);
        session.harvester.set_exact_diode_companions(exact_companions);
        // Session scalars and committed state.
        session.t = r.take_f64()?;
        session.segment_end = r.take_f64()?;
        session.finished = r.take_bool()?;
        session.peak_probe_bytes = r.take_usize()?;
        let x = r.take_vector()?;
        if x.len() != session.x.len() {
            return Err(checkpoint::malformed(format!(
                "saved state has {} entries, the rebuilt system has {}",
                x.len(),
                session.x.len()
            ))
            .into());
        }
        session.x = x;
        // Accumulated statistics and billing.
        session.engine_stats.state_space = SolverStats::decode(&mut r)?;
        session.engine_stats.baseline = BaselineStats::decode(&mut r)?;
        session.pending_cpu = Duration::from_nanos(r.take_u64()?);
        let event_count = r.take_usize()?;
        let mut control_events = Vec::new();
        for _ in 0..event_count {
            control_events.push(ControlEvent {
                time_s: r.take_f64()?,
                load_mode: checkpoint::decode_load_mode(&mut r)?,
                resonant_frequency_hz: r.take_f64()?,
            });
        }
        session.control_events = control_events;
        // Digital kernel.
        let now = SimTime::from_nanos(r.take_u64()?);
        let sequence = r.take_u64()?;
        let events_processed = r.take_u64()?;
        let queue_len = r.take_usize()?;
        let mut queue = Vec::new();
        for _ in 0..queue_len {
            let time = SimTime::from_nanos(r.take_u64()?);
            let seq = r.take_u64()?;
            let process = r.take_usize()?;
            queue.push((time, seq, process));
        }
        if !session.kernel.restore_schedule(now, sequence, events_processed, &queue) {
            return Err(checkpoint::malformed(
                "saved digital schedule is inconsistent with the rebuilt kernel",
            )
            .into());
        }
        let process_count = r.take_usize()?;
        if process_count != session.kernel.process_count() {
            return Err(checkpoint::malformed(format!(
                "checkpoint carries {process_count} digital process blobs, the rebuilt kernel \
                 has {} processes",
                session.kernel.process_count()
            ))
            .into());
        }
        for index in 0..process_count {
            let blob = r.take_bytes()?;
            if !session.kernel.restore_process_state(index, blob) {
                return Err(checkpoint::malformed(format!(
                    "digital process {index} rejected its saved state"
                ))
                .into());
            }
        }
        // Stamp caches.
        let cache_len = r.take_usize()?;
        let mut stamp_cache = Vec::new();
        for _ in 0..cache_len {
            let static_scale = r.take_f64()?;
            let has_segments = r.take_bool()?;
            let segments = r.take_u64()?;
            let stamped = r.take_bool()?;
            stamp_cache.push((static_scale, has_segments.then_some(segments), stamped));
        }
        if !session.harvester.assembly().restore_stamp_cache(&stamp_cache) {
            return Err(
                checkpoint::malformed("stamp cache does not match the rebuilt assembly").into()
            );
        }
        // The in-flight march. The tag must agree with the engine the
        // configuration selects — the config is digest-pinned, so a
        // disagreement means the runtime section was doctored.
        let march_tag = r.take_u8()?;
        {
            let Session { runtime, harvester, .. } = &mut session;
            match (march_tag, runtime) {
                (0, EngineRuntime::StateSpace { march, .. }) => *march = None,
                (0, EngineRuntime::NewtonRaphson { march, .. }) => *march = None,
                (1, EngineRuntime::StateSpace { options, workspace, march }) => {
                    *march = Some(Box::new(StateSpaceMarch::decode(
                        *options,
                        &*harvester,
                        workspace,
                        &mut r,
                    )?));
                }
                (2, EngineRuntime::NewtonRaphson { options, workspace, march }) => {
                    *march = Some(Box::new(BaselineMarch::decode(
                        *options,
                        &*harvester,
                        workspace,
                        &mut r,
                    )?));
                }
                (tag @ (1 | 2), _) => {
                    return Err(checkpoint::malformed(format!(
                        "march tag {tag} does not match the configured engine"
                    ))
                    .into());
                }
                (tag, _) => {
                    return Err(checkpoint::malformed(format!("unknown march tag {tag}")).into());
                }
            }
        }
        // Probes: the caller supplies fresh instances of the saved types (in
        // registration order); each restores its own observation state.
        let probe_count = r.take_usize()?;
        if probe_count != probes.len() {
            return Err(checkpoint::malformed(format!(
                "checkpoint carries {probe_count} probe blobs but {} probes were supplied",
                probes.len()
            ))
            .into());
        }
        session.probes = probes;
        let mut ids = Vec::with_capacity(session.probes.len());
        for (index, probe) in session.probes.iter_mut().enumerate() {
            let blob = r.take_bytes()?;
            if !probe.restore_state(blob) {
                return Err(checkpoint::malformed(format!(
                    "probe {index} rejected its saved state (wrong probe type supplied?)"
                ))
                .into());
            }
            ids.push(ProbeId(index));
        }
        r.expect_end()?;
        session.update_peak_probe_bytes();
        Ok((session, ids))
    }

    /// Opens the next analogue segment `[t, min(next_event, duration)]` and
    /// arms the engine march over it.
    fn open_segment(&mut self) -> Result<(), CoreError> {
        let clock = Instant::now();
        let next_event = self
            .kernel
            .next_event_time()
            .map(|time| time.as_secs_f64())
            .unwrap_or(self.config.duration_s)
            .min(self.config.duration_s);
        let segment_end = next_event.max(self.t + 1e-9);
        self.segment_end = segment_end;
        for probe in &mut self.probes {
            probe.on_segment(self.t, segment_end);
        }
        let Session { runtime, harvester, t, x, .. } = self;
        match runtime {
            EngineRuntime::StateSpace { options, workspace, march } => {
                *march = Some(Box::new(StateSpaceMarch::begin(
                    *options,
                    &*harvester,
                    *t,
                    segment_end,
                    x,
                    workspace,
                )?));
            }
            EngineRuntime::NewtonRaphson { options, workspace, march } => {
                *march = Some(Box::new(BaselineMarch::begin(
                    *options,
                    &*harvester,
                    *t,
                    segment_end,
                    x,
                    workspace,
                )?));
            }
        }
        self.pending_cpu += clock.elapsed();
        Ok(())
    }

    /// Advances the in-flight march until it completes its segment, its time
    /// reaches `target`, or (checked only *after* each accepted step, so at
    /// least one step of progress is always made) the wall-clock `deadline`
    /// passes. Returns whether the segment is complete.
    fn march_steps(&mut self, target: f64, deadline: Option<Instant>) -> Result<bool, CoreError> {
        let Session { runtime, harvester, probes, .. } = self;
        match runtime {
            EngineRuntime::StateSpace { workspace, march: Some(march), .. } => {
                while !march.is_done() && march.time() < target - 1e-12 {
                    march.step(&*harvester, workspace, probes)?;
                    if deadline.is_some_and(|at| Instant::now() >= at) {
                        break;
                    }
                }
                Ok(march.is_done())
            }
            EngineRuntime::NewtonRaphson { workspace, march: Some(march), .. } => {
                while !march.is_done() && march.time() < target - 1e-12 {
                    march.step(&*harvester, workspace, probes)?;
                    if deadline.is_some_and(|at| Instant::now() >= at) {
                        break;
                    }
                }
                Ok(march.is_done())
            }
            _ => Ok(true),
        }
    }

    /// Closes a completed segment: emits the forced segment-end sample,
    /// books the segment statistics (including the accumulated engine
    /// wall-clock), commits time and state, and processes the digital events
    /// due at the boundary.
    fn close_segment(&mut self) -> Result<(), CoreError> {
        let clock = Instant::now();
        {
            let Session { runtime, harvester, probes, x, engine_stats, .. } = self;
            match runtime {
                EngineRuntime::StateSpace { workspace, march, .. } => {
                    if let Some(march) = march.take() {
                        let (x_end, stats) = march.finish(&*harvester, workspace, probes)?;
                        *x = x_end;
                        engine_stats.state_space.absorb(&stats);
                    }
                }
                EngineRuntime::NewtonRaphson { march, .. } => {
                    if let Some(march) = march.take() {
                        let (x_end, stats) = march.finish(probes);
                        *x = x_end;
                        engine_stats.baseline.absorb(&stats);
                    }
                }
            }
        }
        // Bill the segment's accumulated engine time (march time + the open
        // and close bookkeeping) into the engine that ran it.
        let segment_cpu = self.pending_cpu + clock.elapsed();
        self.pending_cpu = Duration::ZERO;
        match &self.runtime {
            EngineRuntime::StateSpace { .. } => {
                self.engine_stats.state_space.cpu_time += segment_cpu
            }
            EngineRuntime::NewtonRaphson { .. } => {
                self.engine_stats.baseline.cpu_time += segment_cpu
            }
        }
        self.t = self.segment_end;
        self.update_peak_probe_bytes();
        self.process_due_events()?;
        if self.t >= self.config.duration_s - 1e-9 {
            self.finished = true;
        }
        Ok(())
    }

    /// Executes the digital-kernel events due at the current time, forwarding
    /// every activation and any resulting control action to the probes.
    fn process_due_events(&mut self) -> Result<(), CoreError> {
        let due = self
            .kernel
            .next_event_time()
            .map(|time| time.as_secs_f64() <= self.t + 1e-12)
            .unwrap_or(false);
        if !due {
            return Ok(());
        }
        let mut mailbox = ControlMailbox {
            supercap_voltage: self.harvester.supercapacitor_voltage(&self.x),
            ambient_hz: self.harvester.ambient_frequency_hz(self.t),
            resonant_hz: self.harvester.resonant_frequency_hz(),
            requested_load_mode: None,
            requested_resonance_hz: None,
        };
        {
            let Session { kernel, probes, t, .. } = self;
            kernel.run_until_with(SimTime::from_secs_f64(*t), &mut mailbox, |time, name| {
                let event = DigitalEvent::Activation {
                    time_s: time.as_secs_f64(),
                    process: name.to_string(),
                };
                for probe in probes.iter_mut() {
                    probe.on_event(&event);
                }
            })?;
        }
        let mut acted = false;
        if let Some(mode) = mailbox.requested_load_mode {
            self.harvester.set_load_mode(mode);
            acted = true;
        }
        if let Some(frequency) = mailbox.requested_resonance_hz {
            self.harvester.set_resonant_frequency(frequency);
            acted = true;
        }
        if acted {
            let event = ControlEvent {
                time_s: self.t,
                load_mode: self.harvester.load_mode(),
                resonant_frequency_hz: self.harvester.resonant_frequency_hz(),
            };
            self.control_events.push(event);
            let wrapped = DigitalEvent::Control(event);
            for probe in self.probes.iter_mut() {
                probe.on_event(&wrapped);
            }
        }
        Ok(())
    }

    fn update_peak_probe_bytes(&mut self) {
        let current: usize = self.probes.iter().map(|probe| probe.memory_bytes()).sum();
        self.peak_probe_bytes = self.peak_probe_bytes.max(current);
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("time_s", &self.time())
            .field("duration_s", &self.config.duration_s)
            .field("finished", &self.finished)
            .field("probes", &self.probes.len())
            .field("control_events", &self.control_events.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assembly::AnalogueSystem;
    use crate::probe::{EnvelopeProbe, StepHistogramProbe, WaveformProbe};
    use crate::solver::tests::{capture, march, HideStiff};
    use harvsim_blocks::ControllerConfig;
    use harvsim_ode::Trajectory;

    fn quick_simulation() -> Simulation {
        let mut config = ScenarioConfig::scenario1();
        config.duration_s = 0.2;
        config.frequency_step_time_s = 0.05;
        // Short watchdog so even sub-second spans exercise digital events.
        config.controller.watchdog_period_s = 0.08;
        config.controller.measurement_duration_s = 0.02;
        config.controller.tuning_update_interval_s = 0.01;
        config.controller.tuning_rate_hz_per_s = 10.0;
        config.controller.energy_threshold_v = 2.0;
        Simulation::from_config(config)
    }

    #[test]
    fn builder_round_trips_the_config() {
        let simulation = Simulation::scenario1()
            .duration(1.5)
            .frequency_step_at(0.25)
            .initial_supercap_voltage(2.4)
            .label("unit");
        assert_eq!(simulation.config().duration_s, 1.5);
        assert_eq!(simulation.config().frequency_step_time_s, 0.25);
        assert_eq!(simulation.config().initial_supercap_voltage, 2.4);
        assert_eq!(simulation.config().label.as_deref(), Some("unit"));
        assert!(Simulation::scenario2().config().duration_s > 0.0);
        // Invalid configurations fail at start, not at build.
        assert!(quick_simulation().duration(-1.0).start().is_err());
        let bad =
            quick_simulation().solver_options(SolverOptions { ab_order: 0, ..Default::default() });
        assert!(bad.start().is_err());
    }

    #[test]
    fn session_runs_to_end_and_reports() {
        let mut session = quick_simulation().start().unwrap();
        assert_eq!(session.time(), 0.0);
        assert!(!session.is_finished());
        let vc = session.harvester().storage_voltage_net();
        let envelope = session.add_probe(EnvelopeProbe::terminal(vc));
        let steps = session.add_probe(StepHistogramProbe::new());
        session.run_to_end().unwrap();
        assert!(session.is_finished());
        assert!((session.time() - 0.2).abs() < 1e-9);
        let report = session.report();
        assert!(report.finished);
        assert!(report.final_state.is_finite());
        assert!(report.engine_stats.state_space.steps > 100);
        assert!(report.digital_events > 0);
        assert!(report.peak_probe_bytes > 0);
        let envelope = session.probe::<EnvelopeProbe>(envelope).unwrap();
        // The storage-port voltage starts at the 2.5 V pre-charge and sags
        // under the tuning load, but stays positive and bounded.
        assert!(envelope.max() > 2.0 && envelope.max() < 4.0, "max {}", envelope.max());
        assert!(envelope.min() > 0.0, "min {}", envelope.min());
        assert!(envelope.samples() > 100);
        let histogram = session.probe::<StepHistogramProbe>(steps).unwrap();
        assert!(histogram.total_steps() > 0);
        assert!(histogram.min_dt() > 0.0 && histogram.max_dt() >= histogram.min_dt());
        // Wrong-typed retrieval is a clean None, not a panic.
        assert!(session.probe::<EnvelopeProbe>(steps).is_none());
        // Advancing a finished session changes nothing.
        let time = session.time();
        assert_eq!(session.run_until_deadline(f64::INFINITY, Some(Instant::now())).unwrap(), time);
        assert!(session.is_finished());
        assert_eq!(session.report().final_state, report.final_state);
        // The session billed the engine's wall clock.
        assert!(report.engine_time() > Duration::ZERO);
    }

    #[test]
    fn single_stepping_reaches_the_same_end() {
        let mut session =
            quick_simulation().duration(0.05).frequency_step_at(0.02).start().unwrap();
        let mut guard = 0usize;
        while !session.is_finished() {
            session.run_until_deadline(f64::INFINITY, Some(Instant::now())).unwrap();
            guard += 1;
            assert!(guard < 200_000, "session failed to finish");
        }
        assert!(session.is_finished());
        assert!((session.time() - 0.05).abs() < 1e-9);
    }

    #[test]
    fn run_until_pauses_and_resumes() {
        let mut session = quick_simulation().start().unwrap();
        let paused_at = session.run_until(0.07).unwrap();
        // Pausing overshoots to the next accepted boundary, never undershoots.
        assert!(paused_at >= 0.07 - 1e-12);
        assert!(!session.is_finished());
        let report = session.report();
        assert!(!report.finished);
        assert!(report.time_s >= 0.07 - 1e-12);
        session.run_to_end().unwrap();
        assert!(session.is_finished());
    }

    /// A report taken mid-segment must be *current*: the in-flight march's
    /// state and step count, not the last committed segment boundary.
    #[test]
    fn mid_segment_reports_include_the_in_flight_march() {
        let mut session = quick_simulation().start().unwrap();
        // The first watchdog event is at 0.08 s, so 0.03 s is mid-segment.
        session.run_until(0.03).unwrap();
        let report = session.report();
        assert!(report.time_s >= 0.03 - 1e-12);
        assert!(
            report.engine_stats.state_space.steps > 100,
            "mid-segment steps visible: {}",
            report.engine_stats.state_space.steps
        );
        // The state reflects the march position, not the t = 0 initial
        // conditions (the generator states have left rest by 30 ms).
        let moving: f64 = report.final_state.as_slice()[..3].iter().map(|value| value.abs()).sum();
        assert!(moving > 1e-9, "state still at initial conditions: {:?}", report.final_state);
        session.run_to_end().unwrap();
        let done = session.report();
        assert!(done.finished);
        assert!(done.engine_stats.state_space.steps > report.engine_stats.state_space.steps);
    }

    /// The engine's device-evaluation policy is session-internal: a baseline
    /// session runs on exact Shockley companions, but the harvester handed
    /// back by `into_parts` is on the build default, table companions.
    #[test]
    fn engine_evaluation_policy_does_not_leak_into_the_returned_harvester() {
        let simulation = quick_simulation()
            .duration(0.05)
            .frequency_step_at(0.02)
            .baseline_options(crate::BaselineOptions::default());
        let mut session = simulation.start().unwrap();
        // Live during the run: the baseline evaluates exactly.
        assert!(session.harvester().exact_diode_companions());
        session.run_to_end().unwrap();
        let (_, _, harvester) = session.into_parts();
        assert!(
            !harvester.exact_diode_companions(),
            "the harvester comes back on the build default, table companions"
        );
    }

    #[test]
    fn streaming_probe_memory_is_duration_independent() {
        let peak_for = |duration: f64| {
            let mut session = quick_simulation().duration(duration).start().unwrap();
            let vc = session.harvester().storage_voltage_net();
            session.add_probe(EnvelopeProbe::terminal(vc));
            session.add_probe(StepHistogramProbe::new());
            session.run_to_end().unwrap();
            session.report().peak_probe_bytes
        };
        let short = peak_for(0.1);
        let long = peak_for(0.3);
        assert_eq!(short, long, "streaming probes must be O(1) in the simulated span");
        assert!(short > 0);
    }

    /// A 70 → 71 Hz closed loop whose controller wakes every 0.4 s and
    /// retunes at 10 Hz/s, marched by the state-space engine.
    fn closed_loop(duration_s: f64, initial_v: f64) -> Simulation {
        let mut config = ScenarioConfig::scenario1();
        config.frequency_step_time_s = 0.05;
        config.controller = ControllerConfig {
            watchdog_period_s: 0.4,
            energy_threshold_v: 2.0,
            frequency_tolerance_hz: 0.25,
            measurement_duration_s: 0.05,
            tuning_rate_hz_per_s: 10.0,
            tuning_update_interval_s: 0.02,
        };
        Simulation::from_config(config).duration(duration_s).initial_supercap_voltage(initial_v)
    }

    /// What [`direct_segment_loop`] produced.
    struct DirectRun {
        states: Trajectory,
        terminals: Trajectory,
        final_state: DVector,
        steps: usize,
        control_events: Vec<ControlEvent>,
        harvester: TunableHarvester,
    }

    /// The segment loop a session runs, written out directly: one kernel, one
    /// reused workspace and one dense capture at 1 ms, a march per analogue
    /// segment, and the control actions applied between segments. With
    /// `hide_stiff` every segment marches the harvester through
    /// [`HideStiff`], on the unpartitioned path.
    fn direct_segment_loop(config: &ScenarioConfig, hide_stiff: bool) -> DirectRun {
        let SimulationEngine::StateSpace(options) = config.engine else {
            panic!("the direct loop marches the state-space engine")
        };
        let mut harvester = config.build_harvester().unwrap();
        let controller =
            MicroController::new(config.controller, harvester.resonant_frequency_hz()).unwrap();
        let mut kernel: Kernel<ControlMailbox> = Kernel::new();
        kernel.spawn_at(SimTime::from_secs_f64(config.controller.watchdog_period_s), controller);
        let mut workspace = SolverWorkspace::default();
        let mut probes: Vec<Box<dyn Probe>> = vec![Box::new(WaveformProbe::new(1e-3))];
        let (mut steps, mut control_events) = (0, Vec::new());
        let mut t = 0.0_f64;
        let mut x = harvester.initial_state(config.initial_supercap_voltage).unwrap();
        while t < config.duration_s - 1e-9 {
            let next_event = kernel
                .next_event_time()
                .map(|time| time.as_secs_f64())
                .unwrap_or(config.duration_s)
                .min(config.duration_s);
            let segment_end = next_event.max(t + 1e-9);
            let hidden = HideStiff(&harvester);
            let system: &dyn AnalogueSystem = if hide_stiff { &hidden } else { &harvester };
            let (x_end, stats) =
                march(options, system, t, segment_end, &x, &mut workspace, &mut probes).unwrap();
            (x, t) = (x_end, segment_end);
            steps += stats.steps;

            if kernel.next_event_time().is_some_and(|time| time.as_secs_f64() <= t + 1e-12) {
                let mut mailbox = ControlMailbox {
                    supercap_voltage: harvester.supercapacitor_voltage(&x),
                    ambient_hz: harvester.ambient_frequency_hz(t),
                    resonant_hz: harvester.resonant_frequency_hz(),
                    ..ControlMailbox::default()
                };
                kernel.run_until(SimTime::from_secs_f64(t), &mut mailbox).unwrap();
                let (mode, frequency) =
                    (mailbox.requested_load_mode, mailbox.requested_resonance_hz);
                if let Some(mode) = mode {
                    harvester.set_load_mode(mode);
                }
                if let Some(frequency) = frequency {
                    harvester.set_resonant_frequency(frequency);
                }
                if mode.is_some() || frequency.is_some() {
                    control_events.push(ControlEvent {
                        time_s: t,
                        load_mode: harvester.load_mode(),
                        resonant_frequency_hz: harvester.resonant_frequency_hz(),
                    });
                }
            }
        }
        let (states, terminals) = capture(probes[0].as_ref());
        DirectRun { states, terminals, final_state: x, steps, control_events, harvester }
    }

    #[test]
    fn engine_names_and_validation() {
        let state_space = SimulationEngine::StateSpace(SolverOptions::default());
        assert_eq!(state_space.name(), "linearised-state-space");
        let baseline = SimulationEngine::NewtonRaphson(BaselineOptions::default());
        assert_eq!(baseline.name(), "newton-raphson-baseline");
        let bad = SimulationEngine::StateSpace(SolverOptions { ab_order: 0, ..Default::default() });
        assert!(Simulation::scenario1().engine(bad).start().is_err());
    }

    #[test]
    fn rejects_non_positive_duration() {
        for duration in [0.0, -1.0, f64::NAN] {
            assert!(closed_loop(duration, 2.4).start().is_err(), "duration {duration}");
        }
    }

    /// A short but complete closed-loop run: the ambient frequency steps from
    /// 70 Hz to 71 Hz, the controller wakes on its watchdog, finds enough energy
    /// and retunes the resonance to follow the ambient frequency.
    #[test]
    fn controller_retunes_the_resonance_in_closed_loop() {
        let mut session = closed_loop(1.6, 2.6).start().unwrap();
        let capture = session.add_probe(WaveformProbe::new(2e-3));
        session.run_to_end().unwrap();
        let report = session.report();
        let h = session.harvester();
        // The resonance must have followed the ambient frequency.
        assert!(
            (h.resonant_frequency_hz() - 71.0).abs() < 0.2,
            "resonance ended at {}",
            h.resonant_frequency_hz()
        );
        // Control events were recorded and the kernel processed activity.
        assert!(!report.control_events.is_empty());
        assert!(report.digital_events > 0);
        assert!(report.engine_stats.state_space.steps > 100);
        // The run ends with the load back in sleep mode (tuning finished).
        assert_eq!(h.load_mode(), LoadMode::Sleep);
        // Trajectories cover the whole span on a common grid.
        let waveform = session.probe::<WaveformProbe>(capture).unwrap();
        assert!((waveform.states().last_time() - 1.6).abs() < 1e-6);
        assert_eq!(waveform.states().len(), waveform.terminals().len());
        assert!(report.final_state.is_finite());
    }

    #[test]
    fn low_energy_prevents_tuning() {
        // Start with the supercapacitor nearly empty: the controller must skip tuning.
        let mut session = closed_loop(1.0, 0.5).start().unwrap();
        session.run_to_end().unwrap();
        assert!((session.harvester().resonant_frequency_hz() - 70.0).abs() < 1e-9);
        // The only control action (if any) is the load returning to sleep.
        let report = session.report();
        assert!(report.control_events.iter().all(|event| event.load_mode == LoadMode::Sleep));
    }

    /// The partitioned engine drives the same closed loop (a retune to the
    /// new ambient frequency) as the unpartitioned march of that loop, in
    /// fewer than half its steps, and its stats record the partition's
    /// activity.
    #[test]
    fn closed_loop_scenario_retunes_identically_under_both_integrators() {
        let simulation = closed_loop(1.6, 2.5);
        let mut session = simulation.start().unwrap();
        session.run_to_end().unwrap();
        let unpartitioned = direct_segment_loop(simulation.config(), true);

        let tuned = session.harvester().resonant_frequency_hz();
        let tuned_reference = unpartitioned.harvester.resonant_frequency_hz();
        assert!((tuned - 71.0).abs() < 0.2, "partitioned retune ended at {tuned}");
        assert!((tuned - tuned_reference).abs() < 0.1, "engines disagree on the retune");
        let stats = session.report().engine_stats.state_space;
        assert_eq!(stats.stiff_exact_steps, stats.steps);
        assert!(stats.constant_stamps_skipped > 0);
        assert!(stats.steps < unpartitioned.steps / 2);
    }

    /// A session observed by one `WaveformProbe` at 1 ms produces
    /// bit-identical trajectories, work counts and control actions to the
    /// segment loop written out directly.
    #[test]
    fn session_matches_the_direct_segment_loop_bit_for_bit() {
        let mut config = ScenarioConfig::scenario1();
        config.duration_s = 0.9;
        config.frequency_step_time_s = 0.1;
        config.controller.watchdog_period_s = 0.25;
        config.controller.energy_threshold_v = 2.0;
        config.controller.measurement_duration_s = 0.05;
        config.controller.tuning_rate_hz_per_s = 10.0;
        config.controller.tuning_update_interval_s = 0.02;
        let mut session = Simulation::from_config(config.clone()).start().unwrap();
        let capture = session.add_probe(WaveformProbe::new(1e-3));
        session.run_to_end().unwrap();
        let direct = direct_segment_loop(&config, false);

        let report = session.report();
        let waveform = session.probe::<WaveformProbe>(capture).unwrap();
        assert_eq!(report.final_state, direct.final_state, "final state must match bit for bit");
        assert_eq!(report.engine_stats.state_space.steps, direct.steps, "same accepted steps");
        assert_eq!(waveform.states().times(), direct.states.times(), "same recorded grid");
        assert!(waveform.states() == &direct.states, "state samples differ");
        assert!(waveform.terminals() == &direct.terminals, "terminal samples differ");
        assert!(!direct.control_events.is_empty(), "the loop exercises the controller");
        assert_eq!(report.control_events, direct.control_events, "same control trajectory");
        let harvester = session.harvester();
        assert_eq!(harvester.resonant_frequency_hz(), direct.harvester.resonant_frequency_hz());
        assert_eq!(harvester.load_mode(), direct.harvester.load_mode());
    }

    /// The former caller-companion slot of a checkpoint is always written
    /// `false`; a frame carrying `true` is refused typed, not half-restored.
    #[test]
    fn a_set_caller_companion_slot_is_refused_typed() {
        let session = quick_simulation().duration(0.05).frequency_step_at(0.02).start().unwrap();
        let frame = session.checkpoint().unwrap();
        let (digest, payload) = checkpoint::open_frame(&frame).unwrap();
        // The length-prefixed configuration, the tuning force (8 bytes), the
        // load mode (1) and the live companion flag (1) precede the slot.
        let config_len = ByteReader::new(payload).take_bytes().unwrap().len();
        let slot = 8 + config_len + 8 + 1 + 1;
        assert_eq!(payload[slot], 0);
        assert!(Session::restore(&frame).is_ok());
        let mut altered = payload.to_vec();
        altered[slot] = 1;
        match Session::restore(&checkpoint::seal_frame(digest, &altered)) {
            Err(CoreError::Checkpoint(CheckpointError::Malformed(reason))) => {
                assert!(reason.contains("caller-companion"), "refused for another reason: {reason}")
            }
            other => panic!("expected a malformed-frame error, got {other:?}"),
        }
    }
}
