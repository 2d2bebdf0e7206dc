//! Spectral-radius and eigenvalue utilities for explicit-integration stability.
//!
//! The necessary condition for the forward march-in-time process of Eq. 5/6 to
//! be numerically stable is `ρ(I + h·A) < 1` (Eq. 7 of the paper), where `A` is
//! the point total-step matrix and `ρ` the spectral radius. The paper enforces
//! this cheaply through diagonal dominance (see [`crate::dominance`]); this
//! module provides the *exact* machinery — a small dense QR eigenvalue solver
//! and the spectral radius built on it — so the heuristic can be validated
//! and compared in the ablation benchmarks.

use crate::{DMatrix, DVector, LinalgError};

/// A complex eigenvalue expressed as `re + i·im`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Creates a complex number from real and imaginary parts.
    pub fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Magnitude (modulus) of the complex number.
    pub fn abs(&self) -> f64 {
        self.re.hypot(self.im)
    }
}

/// Computes all eigenvalues of a small dense matrix with the shifted QR
/// algorithm on the Hessenberg form (real Schur reduction via Givens-based
/// francis-like single/double steps, implemented as the classic unshifted +
/// Wilkinson-shifted QR on the Hessenberg matrix).
///
/// The state matrices of the complete harvester model are ~11 × 11, so an
/// `O(n³)`-per-iteration dense method is entirely adequate. Eigenvalues are
/// returned in no particular order.
///
/// # Errors
///
/// * [`LinalgError::NotSquare`] for non-square input.
/// * [`LinalgError::NoConvergence`] if deflation stalls.
pub fn eigenvalues(a: &DMatrix) -> Result<Vec<Complex>, LinalgError> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare { rows: a.rows(), cols: a.cols() });
    }
    let n = a.rows();
    if n == 0 {
        return Ok(Vec::new());
    }
    if n == 1 {
        return Ok(vec![Complex::new(a[(0, 0)], 0.0)]);
    }

    let mut h = hessenberg(a);
    let mut eigs = Vec::with_capacity(n);
    let mut high = n; // active block is rows/cols [0, high)
    let max_total_iterations = 200 * n;
    let mut iterations = 0usize;
    let eps = 1e-13;

    while high > 0 {
        if iterations > max_total_iterations {
            return Err(LinalgError::NoConvergence {
                algorithm: "QR eigenvalue iteration",
                iterations,
            });
        }
        if high == 1 {
            eigs.push(Complex::new(h[(0, 0)], 0.0));
            high = 0;
            continue;
        }
        // Check for a negligible sub-diagonal element to deflate.
        let mut deflated = false;
        for i in (1..high).rev() {
            let scale = h[(i - 1, i - 1)].abs() + h[(i, i)].abs();
            if h[(i, i - 1)].abs() <= eps * scale.max(1e-300) {
                h[(i, i - 1)] = 0.0;
                if i == high - 1 {
                    // 1x1 block at the bottom.
                    eigs.push(Complex::new(h[(high - 1, high - 1)], 0.0));
                    high -= 1;
                    deflated = true;
                    break;
                }
            }
        }
        if deflated {
            continue;
        }
        // 2x2 trailing block: solve its eigenvalues directly if it is isolated.
        if high >= 2 {
            let isolated = high == 2 || h[(high - 2, high - 3)].abs() < eps;
            let sub = h[(high - 1, high - 2)].abs();
            let scale = h[(high - 2, high - 2)].abs() + h[(high - 1, high - 1)].abs();
            // When the block is effectively isolated from the rest, extract it.
            if isolated && (high == 2 || sub <= scale) {
                let converged_2x2 = high == 2
                    || h[(high - 2, high - 3)].abs()
                        <= eps
                            * (h[(high - 3, high - 3)].abs() + h[(high - 2, high - 2)].abs())
                                .max(1e-300);
                if converged_2x2 && high == 2 {
                    let (l1, l2) = eig_2x2(h[(0, 0)], h[(0, 1)], h[(1, 0)], h[(1, 1)]);
                    eigs.push(l1);
                    eigs.push(l2);
                    high = 0;
                    continue;
                }
            }
        }
        // Check whether the trailing 2x2 block has converged (sub-diagonal above it ~ 0).
        if high >= 3 {
            let scale = (h[(high - 3, high - 3)].abs() + h[(high - 2, high - 2)].abs()).max(1e-300);
            if h[(high - 2, high - 3)].abs() <= eps * scale {
                let (l1, l2) = eig_2x2(
                    h[(high - 2, high - 2)],
                    h[(high - 2, high - 1)],
                    h[(high - 1, high - 2)],
                    h[(high - 1, high - 1)],
                );
                eigs.push(l1);
                eigs.push(l2);
                high -= 2;
                continue;
            }
        }

        // One Wilkinson-shifted QR step on the active block via Givens rotations.
        qr_step(&mut h, high);
        iterations += 1;
    }

    Ok(eigs)
}

/// Exact spectral radius computed from the full eigenvalue decomposition.
///
/// # Errors
///
/// Propagates errors from [`eigenvalues`].
pub fn spectral_radius(a: &DMatrix) -> Result<f64, LinalgError> {
    Ok(eigenvalues(a)?.iter().map(Complex::abs).fold(0.0, f64::max))
}

/// Checks the paper's explicit-integration stability condition (Eq. 7):
/// `ρ(I + h·A) < 1` for the point total-step matrix `A` and step size `h`.
///
/// # Errors
///
/// Propagates errors from [`spectral_radius`].
pub fn explicit_step_is_stable(a: &DMatrix, h: f64) -> Result<bool, LinalgError> {
    let m = &DMatrix::identity(a.rows()) + &a.scaled(h);
    Ok(spectral_radius(&m)? < 1.0)
}

/// Reduces `a` to upper Hessenberg form with Householder reflections.
fn hessenberg(a: &DMatrix) -> DMatrix {
    let n = a.rows();
    let mut h = a.clone();
    for k in 0..n.saturating_sub(2) {
        // Build the Householder vector for column k, rows k+1..n.
        let mut x = DVector::from_fn(n - k - 1, |i| h[(k + 1 + i, k)]);
        let alpha = -x[0].signum() * x.norm_two();
        if alpha == 0.0 {
            continue;
        }
        x[0] -= alpha;
        let norm = x.norm_two();
        if norm == 0.0 {
            continue;
        }
        x.scale_mut(1.0 / norm);
        // Apply H = I - 2 v vᵀ from the left: rows k+1..n.
        for c in 0..n {
            let mut dot = 0.0;
            for i in 0..x.len() {
                dot += x[i] * h[(k + 1 + i, c)];
            }
            for i in 0..x.len() {
                h[(k + 1 + i, c)] -= 2.0 * x[i] * dot;
            }
        }
        // Apply from the right: columns k+1..n.
        for r in 0..n {
            let mut dot = 0.0;
            for i in 0..x.len() {
                dot += x[i] * h[(r, k + 1 + i)];
            }
            for i in 0..x.len() {
                h[(r, k + 1 + i)] -= 2.0 * x[i] * dot;
            }
        }
    }
    // Clean out the below-sub-diagonal entries that should be exactly zero.
    for r in 2..n {
        for c in 0..r - 1 {
            h[(r, c)] = 0.0;
        }
    }
    h
}

/// Eigenvalues of a real 2x2 matrix `[[a, b], [c, d]]`.
fn eig_2x2(a: f64, b: f64, c: f64, d: f64) -> (Complex, Complex) {
    let trace = a + d;
    let det = a * d - b * c;
    let disc = trace * trace / 4.0 - det;
    if disc >= 0.0 {
        let sq = disc.sqrt();
        (Complex::new(trace / 2.0 + sq, 0.0), Complex::new(trace / 2.0 - sq, 0.0))
    } else {
        let sq = (-disc).sqrt();
        (Complex::new(trace / 2.0, sq), Complex::new(trace / 2.0, -sq))
    }
}

/// One Wilkinson-shifted QR step on the leading `high × high` block of the
/// Hessenberg matrix `h`, implemented with Givens rotations.
fn qr_step(h: &mut DMatrix, high: usize) {
    // Wilkinson shift: eigenvalue of the trailing 2x2 block closest to h[high-1, high-1].
    let a = h[(high - 2, high - 2)];
    let b = h[(high - 2, high - 1)];
    let c = h[(high - 1, high - 2)];
    let d = h[(high - 1, high - 1)];
    let (l1, l2) = eig_2x2(a, b, c, d);
    let shift = if l1.im != 0.0 {
        // Complex pair: use the real part (a real single-shift approximation).
        l1.re
    } else if (l1.re - d).abs() < (l2.re - d).abs() {
        l1.re
    } else {
        l2.re
    };

    // Shifted QR: factorise (H - shift I) = Q R with Givens rotations, then
    // form R Q + shift I.
    let n = high;
    for i in 0..n {
        h[(i, i)] -= shift;
    }
    // Record the rotations.
    let mut rotations = Vec::with_capacity(n.saturating_sub(1));
    for k in 0..n - 1 {
        let x = h[(k, k)];
        let y = h[(k + 1, k)];
        let r = x.hypot(y);
        let (cos, sin) = if r == 0.0 { (1.0, 0.0) } else { (x / r, y / r) };
        rotations.push((cos, sin));
        // Apply the rotation to rows k, k+1 (columns k..n).
        for c in k..n {
            let hk = h[(k, c)];
            let hk1 = h[(k + 1, c)];
            h[(k, c)] = cos * hk + sin * hk1;
            h[(k + 1, c)] = -sin * hk + cos * hk1;
        }
    }
    // Multiply by the rotations from the right: columns k, k+1 (rows 0..=k+1).
    for (k, (cos, sin)) in rotations.iter().enumerate() {
        for r in 0..(k + 2).min(n) {
            let hk = h[(r, k)];
            let hk1 = h[(r, k + 1)];
            h[(r, k)] = cos * hk + sin * hk1;
            h[(r, k + 1)] = -sin * hk + cos * hk1;
        }
    }
    for i in 0..n {
        h[(i, i)] += shift;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted_real_eigs(a: &DMatrix) -> Vec<f64> {
        let mut e: Vec<f64> = eigenvalues(a).unwrap().iter().map(|c| c.re).collect();
        e.sort_by(|x, y| x.partial_cmp(y).unwrap());
        e
    }

    #[test]
    fn complex_magnitude() {
        assert_eq!(Complex::new(3.0, 4.0).abs(), 5.0);
        assert_eq!(Complex::default().abs(), 0.0);
    }

    #[test]
    fn eigenvalues_of_diagonal_matrix() {
        let a = DMatrix::from_diagonal(&DVector::from_slice(&[1.0, -2.0, 3.5]));
        let e = sorted_real_eigs(&a);
        assert!((e[0] + 2.0).abs() < 1e-10);
        assert!((e[1] - 1.0).abs() < 1e-10);
        assert!((e[2] - 3.5).abs() < 1e-10);
    }

    #[test]
    fn eigenvalues_of_symmetric_matrix() {
        // Eigenvalues of [[2,1],[1,2]] are 1 and 3.
        let a = DMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]).unwrap();
        let e = sorted_real_eigs(&a);
        assert!((e[0] - 1.0).abs() < 1e-10);
        assert!((e[1] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn eigenvalues_of_rotationlike_matrix_are_complex() {
        // [[0,-1],[1,0]] has eigenvalues ±i.
        let a = DMatrix::from_rows(&[&[0.0, -1.0], &[1.0, 0.0]]).unwrap();
        let e = eigenvalues(&a).unwrap();
        assert_eq!(e.len(), 2);
        for eig in e {
            assert!(eig.re.abs() < 1e-10);
            assert!((eig.im.abs() - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn eigenvalues_of_oscillator_matrix() {
        // Damped oscillator companion matrix [[0, 1], [-w^2, -2 z w]]:
        // eigenvalues -z w ± i w sqrt(1 - z^2).
        let w = 2.0 * std::f64::consts::PI * 70.0;
        let z = 0.01;
        let a = DMatrix::from_rows(&[&[0.0, 1.0], &[-w * w, -2.0 * z * w]]).unwrap();
        let e = eigenvalues(&a).unwrap();
        for eig in e {
            assert!((eig.re - (-z * w)).abs() < 1e-6 * w);
            assert!((eig.im.abs() - w * (1.0 - z * z).sqrt()).abs() < 1e-6 * w);
        }
    }

    #[test]
    fn eigenvalues_of_larger_triangular_matrix() {
        let mut a = DMatrix::zeros(5, 5);
        for i in 0..5 {
            a[(i, i)] = (i + 1) as f64;
            for j in (i + 1)..5 {
                a[(i, j)] = 0.3 * (i as f64 - j as f64);
            }
        }
        let e = sorted_real_eigs(&a);
        for (i, val) in e.iter().enumerate() {
            assert!((val - (i + 1) as f64).abs() < 1e-8, "eig {i} = {val}");
        }
    }

    #[test]
    fn spectral_radius_matches_dominant_eigenvalue() {
        let a = DMatrix::from_rows(&[&[0.9, 0.5], &[0.0, -0.3]]).unwrap();
        assert!((spectral_radius(&a).unwrap() - 0.9).abs() < 1e-10);
    }

    #[test]
    fn explicit_step_stability_threshold() {
        // A = -100 I: forward Euler stable iff |1 - 100 h| < 1, i.e. h < 0.02.
        let a = DMatrix::from_diagonal(&DVector::from_slice(&[-100.0, -100.0]));
        assert!(explicit_step_is_stable(&a, 0.01).unwrap());
        assert!(!explicit_step_is_stable(&a, 0.03).unwrap());
    }

    #[test]
    fn empty_and_single_element() {
        assert!(eigenvalues(&DMatrix::zeros(0, 0)).unwrap().is_empty());
        let e = eigenvalues(&DMatrix::from_rows(&[&[4.2]]).unwrap()).unwrap();
        assert_eq!(e.len(), 1);
        assert!((e[0].re - 4.2).abs() < 1e-15);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn small_matrix(n: usize) -> impl Strategy<Value = DMatrix> {
        prop::collection::vec(-5.0f64..5.0, n * n)
            .prop_map(move |vals| DMatrix::from_row_major(n, n, vals).expect("size matches"))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn eigenvalue_sum_matches_trace(a in small_matrix(4)) {
            if let Ok(eigs) = eigenvalues(&a) {
                let trace: f64 = (0..4).map(|i| a[(i, i)]).sum();
                let sum: f64 = eigs.iter().map(|e| e.re).sum();
                prop_assert!((trace - sum).abs() < 1e-6 * trace.abs().max(1.0),
                    "trace {trace} vs eigen-sum {sum}");
            }
        }
    }
}
