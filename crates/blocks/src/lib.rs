//! # harvsim-blocks
//!
//! Component-block models of the tunable vibration energy harvesting system
//! studied in [Wang et al., DATE 2011] (the autonomous tunable harvester of
//! Ayala-Garcia et al., PowerMEMS 2009).
//!
//! The paper divides the complete mixed-technology system into blocks whose
//! analogue parts are described by *local state equations* over state variables
//! and *terminal variables* that connect the blocks (Fig. 3 of the paper).
//! This crate provides those blocks:
//!
//! * [`Microgenerator`] — the tunable electromagnetic microgenerator
//!   (Eqs. 8–13): cantilever dynamics, electromagnetic coupling and the
//!   magnetic tuning mechanism that shifts the resonant frequency (Eq. 12).
//! * [`DicksonMultiplier`] — the 5-stage (generalised to N-stage) Dickson/
//!   Cockcroft–Walton voltage multiplier used as the power-processing circuit
//!   (Eq. 14), with its diodes represented by piecewise-linear companion models
//!   ([`pwl`], [`diode`]) exactly as Section III-B prescribes.
//! * [`Supercapacitor`] — the three-branch Zubieta–Bonert supercapacitor model
//!   together with the mode-dependent equivalent load resistor (Eqs. 15–16).
//! * [`TuningActuator`] and [`MicroController`] — the linear actuator and the
//!   digital control flow of Fig. 7 (watchdog wake-up, energy check, frequency
//!   check, tuning) expressed as a process for the `harvsim-digital` kernel.
//! * [`VibrationExcitation`] — ambient-vibration profiles (constant frequency,
//!   frequency steps as in the paper's Scenarios 1 and 2, sweeps and optional
//!   band-limited noise).
//! * [`HarvesterParameters`] — a complete, documented parameter set for the
//!   practical device, with the paper's two evaluation scenarios predefined.
//!
//! Every analogue block implements [`StateSpaceBlock`], which exposes the local
//! linearisation (Jacobian blocks and affine terms) the `harvsim-core`
//! assembler needs to build the global Eq. 2 system and eliminate the terminal
//! variables via Eq. 4.
//!
//! [Wang et al., DATE 2011]: https://doi.org/10.1109/DATE.2011.5763084

#![forbid(unsafe_code)]
// `!(x > 0.0)`-style negated comparisons are the validation idiom throughout
// this workspace: unlike `x <= 0.0` they also reject NaN, which is exactly
// what the parameter checks need. Clippy's suggested `partial_cmp` rewrite
// obscures that intent.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![warn(missing_docs)]

pub mod actuator;
pub mod block;
pub mod controller;
pub mod dickson;
pub mod diode;
pub mod excitation;
pub mod microgenerator;
pub mod params;
pub mod pwl;
pub mod supercapacitor;

pub use actuator::TuningActuator;
pub use block::{
    BlockError, Jacobian, JacobianPattern, JacobianStructure, LocalLinearisation, PwlDevices,
    StateSpaceBlock,
};
pub use controller::{ControllerConfig, ControllerState, HarvesterEnvironment, MicroController};
pub use dickson::DicksonMultiplier;
pub use diode::DiodeModel;
pub use excitation::{FrequencyProfile, VibrationExcitation};
pub use microgenerator::Microgenerator;
pub use params::{HarvesterParameters, LoadMode, Scenario};
pub use pwl::PiecewiseLinearTable;
pub use supercapacitor::Supercapacitor;
