//! # harvsim-ode
//!
//! The integration kernels of the linearised state-space march of
//! [Wang et al., DATE 2011]. The march loop itself lives in `harvsim-core`
//! (it re-linearises the model and adapts the step at every point); this
//! crate provides the pieces it is built from:
//!
//! * [`explicit`] — the variable-step Adams–Bashforth coefficients of orders
//!   1–4 (Eq. 5). Explicit methods advance the state in a single
//!   feed-forward sweep with no per-step nonlinear solve, which is the source
//!   of the paper's speed-up.
//! * [`stability`] — the explicit-stability step limit of Eq. 7, via the cheap
//!   diagonal-dominance rule or the exact per-eigenvalue region scan of every
//!   order.
//! * [`exponential`] — the exact (exponential-Euler / ETD2) update kernel for
//!   the stiff partition of a partitioned IMEX march, with a cached
//!   `h·ϕ₁(h·A_ss)` propagator.
//! * [`solution`] — [`Trajectory`], a sampled waveform, and its metrics
//!   (interpolation, maximum and RMS deviation between two waveforms).
//!
//! # Example: one variable-step Adams–Bashforth update
//!
//! ```
//! use harvsim_ode::explicit::adams_bashforth_coefficients;
//!
//! # fn main() -> Result<(), harvsim_ode::OdeError> {
//! // x' = -x with derivatives known at t = 0.0, -0.1 and -0.25 (newest
//! // first); advance x(0) = 1 by h = 0.05.
//! let times = [0.0, -0.1, -0.25];
//! let derivatives: Vec<f64> = times.iter().map(|t: &f64| -(-t).exp()).collect();
//! let coefficients = adams_bashforth_coefficients(&times, 0.05)?;
//! let x1 = 1.0 + coefficients.iter().zip(&derivatives).map(|(c, f)| c * f).sum::<f64>();
//! assert!((x1 - (-0.05f64).exp()).abs() < 1e-5);
//! # Ok(())
//! # }
//! ```
//!
//! [Wang et al., DATE 2011]: https://doi.org/10.1109/DATE.2011.5763084

#![forbid(unsafe_code)]
// `!(x > 0.0)`-style negated comparisons are the validation idiom throughout
// this workspace: unlike `x <= 0.0` they also reject NaN, which is exactly
// what the parameter checks need. Clippy's suggested `partial_cmp` rewrite
// obscures that intent.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![warn(missing_docs)]

mod error;
pub mod explicit;
pub mod exponential;
pub mod solution;
pub mod stability;

pub use error::OdeError;
pub use solution::Trajectory;

/// Convenient result alias used across the crate.
pub type Result<T, E = OdeError> = std::result::Result<T, E>;
