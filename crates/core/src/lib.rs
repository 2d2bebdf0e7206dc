//! # harvsim-core
//!
//! The linearised state-space simulation engine of
//! [Wang et al., *"Accelerated simulation of tunable vibration energy
//! harvesting systems using a linearised state-space technique"*, DATE 2011]
//! — the paper's primary contribution — together with the complete tunable
//! harvester system model, the mixed analogue/digital co-simulation, the
//! evaluation scenarios and the Newton–Raphson baseline it is compared against.
//!
//! ## How the technique works
//!
//! 1. The system is divided into component blocks (microgenerator, voltage
//!    multiplier, supercapacitor + load) described by local state equations and
//!    terminal variables (`harvsim-blocks`).
//! 2. [`assembly`] stacks the per-block linearisations into the global system
//!    of the paper's Eq. 2 and keeps track of which local terminals share a
//!    global net.
//! 3. At every time point the non-state (terminal) variables are eliminated by
//!    solving the algebraic part `Jyy·y = −(Jyx·x + g)` (Eq. 4).
//! 4. [`solver`] advances the state variables with the explicit, variable-step
//!    Adams–Bashforth formula (Eq. 5) at the order an order/step governor
//!    selects per step, limiting the step so the point total-step matrix
//!    satisfies the stability condition of Eq. 7 through exact per-eigenvalue
//!    region scans for every order 1–4, and monitoring the local
//!    linearisation error through Jacobian changes (Eq. 3).
//! 5. [`session`] interleaves those analogue segments with the event-driven
//!    digital kernel running the microcontroller process of Fig. 7, exchanging
//!    load-mode and retuning commands at synchronisation points.
//! 6. [`baseline`] solves the *same* assembled nonlinear model the way the
//!    commercial simulators in the paper's Tables I–II do — implicit
//!    integration with a Newton–Raphson solve of the full analogue system at
//!    every time step — so a session on either engine regenerates the
//!    speed-up and accuracy numbers.
//!
//! ## Quick start
//!
//! The streaming [`session`] facade is the primary entry point: a
//! [`Simulation`] builder produces a resumable [`Session`] observed by typed
//! [`probe`]s.
//!
//! ```
//! use harvsim_core::{EnvelopeProbe, Simulation};
//!
//! # fn main() -> Result<(), harvsim_core::CoreError> {
//! // A very short Scenario-1 style run (70 -> 71 Hz retune).
//! let mut session = Simulation::scenario1()
//!     .duration(0.25)                // keep the doc test fast
//!     .frequency_step_at(0.1)
//!     .start()?;
//! let vc = session.harvester().storage_voltage_net();
//! let store = session.add_probe(EnvelopeProbe::terminal(vc));
//! session.run_to_end()?;
//! assert!(session.report().engine_stats.state_space.steps > 10);
//! assert!(session.probe::<EnvelopeProbe>(store).expect("typed").samples() > 10);
//! # Ok(())
//! # }
//! ```
//!
//! [Wang et al.]: https://doi.org/10.1109/DATE.2011.5763084

#![forbid(unsafe_code)]
// `!(x > 0.0)`-style negated comparisons are the validation idiom throughout
// this workspace: unlike `x <= 0.0` they also reject NaN, which is exactly
// what the parameter checks need. Clippy's suggested `partial_cmp` rewrite
// obscures that intent.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![warn(missing_docs)]

pub mod assembly;
pub mod baseline;
pub mod checkpoint;
mod error;
pub mod explore;
pub mod fault;
pub mod harvester;
pub mod measurement;
mod pool;
pub mod probe;
pub mod protocol;
pub mod scenario;
pub mod server;
pub mod service;
pub mod session;
pub mod solver;
pub mod store;

pub use assembly::{
    AnalogueSystem, Assembly, AssemblyBuilder, GlobalLinearisation, StampReport,
    TerminalFactorisation,
};
pub use baseline::BaselineOptions;
pub use checkpoint::{fnv1a64, CheckpointError, CHECKPOINT_MAGIC, CHECKPOINT_VERSION};
pub use error::CoreError;
pub use explore::{
    ExploreReport, Explorer, GridSpec, ObjectiveSummary, PointMetrics, PointOutcome, PointRecord,
};
pub use fault::{Fault, FaultKind, FaultPlan, FaultSite};
pub use harvester::TunableHarvester;
pub use measurement::{PowerReport, WaveformComparison};
pub use probe::{
    DigitalEvent, EnvelopeProbe, PowerProbe, Probe, StepHistogramProbe, WaveformProbe,
};
pub use protocol::{
    Client, Command, FrameReader, FrameWriter, ProtocolError, Response, RetryPolicy, ServerStats,
    StatusInfo, SubmitSpec, WireError, WireState,
};
pub use scenario::{ScenarioConfig, SweepGrid, SweepParameter};
pub use server::{DrainReport, Server, ServerOptions};
pub use service::{JobClass, ServiceError};
pub use session::{ProbeId, Session, SessionReport, Simulation, SimulationEngine};
pub use solver::{SolverOptions, SolverStats};
pub use store::{RecoveryReport, SessionStore, StoreError, StoreOptions};

/// Convenient result alias used across the crate.
pub type Result<T, E = CoreError> = std::result::Result<T, E>;
