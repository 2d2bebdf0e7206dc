//! # harvsim
//!
//! A reproduction of *"Accelerated simulation of tunable vibration energy
//! harvesting systems using a linearised state-space technique"*
//! (Wang, Kazmierski, Al-Hashimi, Weddell, Merrett, Ayala Garcia — DATE 2011).
//!
//! This umbrella crate re-exports the workspace members so applications can
//! depend on a single crate:
//!
//! * [`linalg`] — dense linear algebra (LU, eigenvalues, diagonal dominance).
//! * [`ode`] — the march's integration kernels: variable-step
//!   Adams–Bashforth coefficients, the Eq. 7 stability limits and the exact
//!   exponential update of the stiff partition.
//! * [`digital`] — the event-driven digital kernel used for the
//!   microcontroller process.
//! * [`blocks`] — the harvester component-block models (microgenerator,
//!   Dickson multiplier, supercapacitor, controller, excitation).
//! * [`core`] — the linearised state-space engine, the complete harvester
//!   model, the mixed-signal co-simulation session, the evaluation scenarios
//!   and the Newton–Raphson baseline.
//!
//! The most common entry points are re-exported at the top level. The
//! primary way to run a simulation is the streaming [`Simulation`] builder:
//! it produces an observable, resumable [`Session`] whose typed [`Probe`]s
//! watch the run as it happens — so a long sweep point needs O(1) memory
//! instead of retaining dense waveforms.
//!
//! ```
//! use harvsim::{EnvelopeProbe, Simulation};
//!
//! # fn main() -> Result<(), harvsim::CoreError> {
//! // Scenario 1 (70 → 71 Hz retune), trimmed so the doc test stays fast.
//! let mut session = Simulation::scenario1()
//!     .duration(0.2)
//!     .frequency_step_at(0.05)
//!     .start()?;
//! // Watch the supercapacitor terminal with an O(1) streaming probe.
//! let vc = session.harvester().storage_voltage_net();
//! let store = session.add_probe(EnvelopeProbe::terminal(vc));
//! // Observe mid-run, pause at any boundary, resume — bit-identically.
//! session.run_until(0.1)?;
//! session.run_to_end()?;
//! let report = session.report();
//! let envelope = session.probe::<EnvelopeProbe>(store).expect("typed retrieval");
//! println!(
//!     "{} steps, store ended at {:.3} V, {} B of probe memory",
//!     report.engine_stats.state_space.steps,
//!     envelope.last(),
//!     report.peak_probe_bytes,
//! );
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use harvsim_blocks as blocks;
pub use harvsim_core as core;
pub use harvsim_digital as digital;
pub use harvsim_linalg as linalg;
pub use harvsim_ode as ode;

pub use harvsim_blocks::{
    HarvesterParameters, LoadMode, Scenario, StateSpaceBlock, VibrationExcitation,
};
pub use harvsim_core::{
    fnv1a64, BaselineOptions, CheckpointError, Client, Command, CoreError, DigitalEvent,
    DrainReport, EnvelopeProbe, ExploreReport, Explorer, Fault, FaultKind, FaultPlan, FaultSite,
    FrameReader, FrameWriter, GridSpec, JobClass, ObjectiveSummary, PointMetrics, PointOutcome,
    PointRecord, PowerProbe, Probe, ProtocolError, RecoveryReport, Response, RetryPolicy,
    ScenarioConfig, Server, ServerOptions, ServerStats, ServiceError, Session, SessionReport,
    SessionStatus, SessionStore, Simulation, SimulationEngine, SolverOptions, StatusInfo,
    StepHistogramProbe, StoreError, StoreOptions, SubmitSpec, SweepGrid, SweepParameter,
    TunableHarvester, WaveformProbe, WireError, WireState, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
};
