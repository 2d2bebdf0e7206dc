//! # harvsim-linalg
//!
//! Dense linear algebra primitives purpose-built for the linearised state-space
//! simulation engine of [Wang et al., DATE 2011].
//!
//! The matrices that arise when simulating a complete tunable vibration energy
//! harvester are small (the paper's case study is an 11 × 11 state matrix plus a
//! handful of terminal variables), so this crate favours simple, dependency-free,
//! cache-friendly dense storage over a general-purpose linear algebra stack.
//! It provides exactly the operations the simulation engine needs:
//!
//! * [`DVector`] / [`DMatrix`] — dense column vectors and row-major matrices with
//!   the usual arithmetic, block assembly and norm operations.
//! * [`LuDecomposition`] — LU factorisation with partial pivoting, used to solve
//!   the algebraic part of the linearised model, `Jyy · y = −Jyx · x` (Eq. 4 of
//!   the paper), and inside the Newton–Raphson baseline.
//! * [`eigen`] — spectral-radius machinery (a shifted-QR eigenvalue solver for
//!   small matrices) used to check the explicit-integration stability condition
//!   `ρ(I + h·A) < 1` (Eq. 7).
//! * [`dominance`] — the largest step size `h` that keeps `I + h·A` diagonally
//!   dominant; this is the cheap sufficient condition the paper uses in place
//!   of an exact spectral radius.
//! * [`expm`] — small dense matrix exponential and the ϕ₁/ϕ₂ functions, the
//!   kernels of the exponential integrator that advances the stiff partition
//!   of the state space exactly instead of explicitly.
//!
//! # Example
//!
//! ```
//! use harvsim_linalg::{DMatrix, DVector};
//!
//! # fn main() -> Result<(), harvsim_linalg::LinalgError> {
//! // Solve a small linear system A x = b, as the engine does for Eq. 4.
//! let a = DMatrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]])?;
//! let b = DVector::from_slice(&[1.0, 2.0]);
//! let x = a.lu()?.solve(&b)?;
//! assert!((a.mul_vector(&x) - &b).norm_inf() < 1e-12);
//! # Ok(())
//! # }
//! ```
//!
//! [Wang et al., DATE 2011]: https://doi.org/10.1109/DATE.2011.5763084

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dominance;
pub mod eigen;
mod error;
pub mod expm;
pub mod lu;
mod matrix;
mod vector;

pub use error::LinalgError;
pub use lu::LuDecomposition;
pub use matrix::{axpy_chunked, dot_unrolled, DMatrix};
pub use vector::DVector;

/// Convenient result alias used across the crate.
pub type Result<T, E = LinalgError> = std::result::Result<T, E>;

/// Default absolute tolerance used when comparing floating point quantities
/// inside this crate (singularity detection, convergence checks, …).
pub const DEFAULT_EPS: f64 = 1e-12;
