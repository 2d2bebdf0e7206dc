//! Small dense matrix exponential and the ϕ-functions of exponential
//! integrators.
//!
//! The partitioned stiff/non-stiff march advances its stiff partition — the
//! three artificial fast states of the assembled harvester (coil current,
//! multiplier output stage and rail) — with the second-order exponential
//! update of the frozen-coupling linear system
//!
//! ```text
//! ẋ_s = A_ss·x_s + u
//! x_s(t + h) = x_s(t) + h·ϕ₁(h·A_ss)·ẋ_s(t) + h²·ϕ₂(h·A_ss)·u̇
//! ϕ₁(Z) = Z⁻¹·(e^Z − I),   ϕ₂(Z) = Z⁻²·(e^Z − I − Z)
//! ```
//!
//! so the primitives needed are `e^A`, `ϕ₁(A)` and `ϕ₂(A)` for small dense
//! matrices (the implementations below are exact for any dimension — the
//! scaling bound, not the dimension, is hard-coded).
//!
//! `e^A` uses classic scaling-and-squaring around a Taylor kernel: `A/2^s` is
//! brought under an ∞-norm of 1/2, where an 18-term Taylor series is accurate
//! to well below `f64` round-off (the 19th term of `e^{1/2}` is ≈ 8·10⁻²⁵),
//! and the result is squared `s` times. The ϕ-functions avoid the singular-`A`
//! special case entirely through augmented-matrix identities such as
//!
//! ```text
//! exp( [A  I] )  =  [e^A  ϕ₁(A)]
//!      [0  0]       [0      I  ]
//! ```
//!
//! which stay well-defined when `A` is singular (ϕ₁(0) = I).
//!
//! [`phi1_phi2`] is the dense reference: it exponentiates the `3n × 3n`
//! augmented matrix (9×9 for the harvester's 3-state partition).
//! [`phi1_phi2_into`] returns the same bits from the augmented matrix's
//! block-triangular structure on fixed-size stack storage for `n ≤ 4`, about
//! five times cheaper, and is what the stiff lane calls.

use crate::{DMatrix, LinalgError};

/// Number of Taylor terms in the scaled kernel; with `‖B‖_∞ ≤ 1/2` the first
/// omitted term is bounded by `0.5¹⁹/19! ≈ 1.6·10⁻²³`.
const TAYLOR_TERMS: usize = 18;

/// ∞-norm threshold below which the Taylor kernel is applied directly.
const SCALING_TARGET: f64 = 0.5;

/// Squarings `s` and scale `2^-s` that bring a matrix of ∞-norm `norm` under
/// the Taylor target (shared by [`expm`] and the structured ϕ kernel, whose
/// bit-identity depends on choosing the same `s`).
fn scaling(norm: f64) -> (u32, f64) {
    let squarings =
        if norm > SCALING_TARGET { ((norm / SCALING_TARGET).log2().ceil()) as u32 } else { 0 };
    (squarings, 0.5_f64.powi(squarings as i32))
}

fn non_finite() -> LinalgError {
    LinalgError::InvalidArgument("matrix exponential of a non-finite matrix".to_string())
}

/// The matrix exponential `e^A` by scaling-and-squaring with a Taylor kernel.
///
/// Exact to round-off for the small matrices the stiff lane produces (9×9
/// after the ϕ₂ augmentation of the 3-state partition); valid for any square
/// matrix, with cost `O(n³·(18 + s))` for `s = ⌈log₂(‖A‖_∞ / ½)⌉` squarings.
///
/// # Errors
///
/// Returns [`LinalgError::NotSquare`] for a non-square input and
/// [`LinalgError::InvalidArgument`] when the input contains NaN/∞ entries (a
/// non-finite stiff sub-matrix means the linearisation upstream already
/// failed, and squaring would silently turn it into NaN soup).
pub fn expm(a: &DMatrix) -> Result<DMatrix, LinalgError> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare { rows: a.rows(), cols: a.cols() });
    }
    let n = a.rows();
    if n == 0 {
        return Ok(DMatrix::zeros(0, 0));
    }
    if !a.is_finite() {
        return Err(non_finite());
    }

    // Scaling: bring ‖A/2^s‖_∞ under the Taylor target.
    let (squarings, c) = scaling(a.norm_inf());
    let scaled = a.scaled(c);

    // Taylor kernel by Horner's rule:
    // e^B ≈ I + B·(I + B/2·(I + B/3·(… (I + B/K) …))).
    let mut result = DMatrix::identity(n);
    let mut product = DMatrix::zeros(n, n);
    for k in (1..=TAYLOR_TERMS).rev() {
        // product = (B/k)·result, then result = I + product.
        scaled.mul_matrix_into(&result, &mut product)?;
        product.scale_mut(1.0 / k as f64);
        result.copy_from(&product);
        for i in 0..n {
            result.add_to(i, i, 1.0);
        }
    }

    // Undo the scaling: square s times, ping-ponging between the two
    // existing buffers instead of allocating per iteration.
    for _ in 0..squarings {
        result.mul_matrix_into(&result, &mut product)?;
        std::mem::swap(&mut result, &mut product);
    }
    Ok(result)
}

/// The first ϕ-function `ϕ₁(A) = A⁻¹·(e^A − I)` (entire in `A`, so also
/// defined for singular `A`, with `ϕ₁(0) = I`), computed through the
/// augmented-matrix identity `exp([[A, I], [0, 0]]) = [[e^A, ϕ₁(A)], [0, I]]`
/// — one `2n × 2n` [`expm`] call and a block extraction, no solve and no
/// special-casing of defective or singular inputs.
///
/// # Errors
///
/// Same failure modes as [`expm`].
pub fn phi1(a: &DMatrix) -> Result<DMatrix, LinalgError> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare { rows: a.rows(), cols: a.cols() });
    }
    let n = a.rows();
    if n == 0 {
        return Ok(DMatrix::zeros(0, 0));
    }
    let mut augmented = DMatrix::zeros(2 * n, 2 * n);
    augmented.set_block(0, 0, a);
    for i in 0..n {
        augmented.set(i, n + i, 1.0);
    }
    let exponential = expm(&augmented)?;
    Ok(exponential.block(0, n, n, n))
}

/// Both ϕ-functions of the second-order exponential integrator in one shot:
/// `ϕ₁(A) = A⁻¹·(e^A − I)` and `ϕ₂(A) = A⁻²·(e^A − I − A)` (entire, with
/// `ϕ₂(0) = I/2`), through the three-block extension of the [`phi1`]
/// identity,
///
/// ```text
/// exp( [A  I  0] )   [e^A  ϕ₁(A)  ϕ₂(A)]
///      [0  0  I]   = [0      I      I  ]
///      [0  0  0]     [0      0      I  ]
/// ```
///
/// (the top row of `M^k` is `[A^k, A^{k−1}, A^{k−2}]`, so the exponential's
/// top blocks sum exactly the two ϕ series). One `3n × 3n` [`expm`] call,
/// valid for singular and defective `A`.
///
/// # Errors
///
/// Same failure modes as [`expm`].
pub fn phi1_phi2(a: &DMatrix) -> Result<(DMatrix, DMatrix), LinalgError> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare { rows: a.rows(), cols: a.cols() });
    }
    let n = a.rows();
    if n == 0 {
        return Ok((DMatrix::zeros(0, 0), DMatrix::zeros(0, 0)));
    }
    let mut augmented = DMatrix::zeros(3 * n, 3 * n);
    augmented.set_block(0, 0, a);
    for i in 0..n {
        augmented.set(i, n + i, 1.0);
        augmented.set(n + i, 2 * n + i, 1.0);
    }
    let exponential = expm(&augmented)?;
    Ok((exponential.block(0, n, n, n), exponential.block(0, 2 * n, n, n)))
}

/// Widest matrix [`phi1_phi2_into`] evaluates through the structured
/// fixed-size kernel; wider inputs take the dense [`phi1_phi2`] path.
pub const STRUCTURED_MAX_DIM: usize = 4;

/// [`phi1_phi2`] on flat row-major storage: writes `ϕ₁(A)` and `ϕ₂(A)` of the
/// `n × n` matrix `a` into `phi1` and `phi2`, bit for bit what [`phi1_phi2`]
/// returns.
///
/// For `n ≤` [`STRUCTURED_MAX_DIM`] the augmented matrix is never formed.
/// Scaled by `c = 2^-s`, `M = [[A, I, 0], [0, 0, I], [0, 0, 0]]` keeps every
/// Horner iterate and every square in the form `[[X, Y, Z], [0, I, q·I],
/// [0, 0, I]]`, so each `3n × 3n` product reduces to three `n × n` ones on
/// stack arrays:
///
/// ```text
/// Horner step k:  X ← A′X/k + I    Y ← (A′Y + c·I)/k    Z ← (A′Z + c·q·I)/k    q ← c/k
/// squaring:       X ← X²           Y ← XY + Y           Z ← (XZ + q·Y) + Z     q ← 2q
/// ```
///
/// with `A′ = c·A`. The dense product accumulates each entry left to right
/// over its row from `+0`, without fused multiply-adds, so an accumulator
/// never holds `−0` and the terms the structure drops (a finite value times an
/// exact zero) add nothing. Keeping the remaining terms in the dense order —
/// the `A′`/`X` columns, then the identity/`Y` columns, then the `Z` columns —
/// reproduces every bit. The one exception is overflow in the squarings: there
/// a dense `∞ · 0` term can turn an entry into NaN that the structured
/// product never forms, so a non-finite structured result is recomputed on
/// the dense path. Wider inputs take the dense path directly (allocating).
///
/// # Errors
///
/// Returns [`LinalgError::DimensionMismatch`] when a slice does not hold
/// `n²` entries and [`LinalgError::InvalidArgument`] when `a` contains NaN/∞
/// entries, as [`phi1_phi2`] does.
pub fn phi1_phi2_into(
    a: &[f64],
    n: usize,
    phi1: &mut [f64],
    phi2: &mut [f64],
) -> Result<(), LinalgError> {
    for len in [a.len(), phi1.len(), phi2.len()] {
        if len != n * n {
            return Err(LinalgError::DimensionMismatch {
                operation: "phi1_phi2_into",
                left: (n, n),
                right: (len, 1),
            });
        }
    }
    if !a.iter().all(|x| x.is_finite()) {
        return Err(non_finite());
    }
    let finite = match n {
        0 => return Ok(()),
        1 => phi1_phi2_structured::<1>(a, phi1, phi2),
        2 => phi1_phi2_structured::<2>(a, phi1, phi2),
        3 => phi1_phi2_structured::<3>(a, phi1, phi2),
        4 => phi1_phi2_structured::<4>(a, phi1, phi2),
        _ => false,
    };
    if !finite {
        let (p1, p2) = phi1_phi2(&DMatrix::from_row_major(n, n, a.to_vec())?)?;
        phi1.copy_from_slice(p1.as_slice());
        phi2.copy_from_slice(p2.as_slice());
    }
    Ok(())
}

type Square<const N: usize> = [[f64; N]; N];

/// `l · r`, each entry accumulated from `+0` in column order of `l` — the
/// order [`DMatrix::mul_matrix_into`] uses.
#[inline(always)]
fn mul<const N: usize>(l: &Square<N>, r: &Square<N>) -> Square<N> {
    std::array::from_fn(|i| {
        std::array::from_fn(|j| {
            let mut acc = 0.0;
            for m in 0..N {
                acc += l[i][m] * r[m][j];
            }
            acc
        })
    })
}

/// The structured evaluation behind [`phi1_phi2_into`] for a finite `N × N`
/// row-major `a`. Returns whether the result is finite; when it is not, the
/// outputs hold garbage and the caller takes the dense path.
fn phi1_phi2_structured<const N: usize>(a: &[f64], phi1: &mut [f64], phi2: &mut [f64]) -> bool {
    let a: Square<N> = std::array::from_fn(|i| std::array::from_fn(|j| a[i * N + j]));
    // ‖M‖_∞: a top row sums |A| and then the identity's 1 (the zeros between
    // add exactly nothing); every other row sums to 1 or 0.
    let norm =
        a.iter().map(|row| row.iter().map(|x| x.abs()).sum::<f64>() + 1.0).fold(1.0, f64::max);
    let (squarings, c) = scaling(norm);
    let a = a.map(|row| row.map(|x| c * x));

    let mut x: Square<N> = std::array::from_fn(|i| std::array::from_fn(|j| f64::from(i == j)));
    let mut y = [[0.0; N]; N];
    let mut z = [[0.0; N]; N];
    let mut q = 0.0;
    for k in (1..=TAYLOR_TERMS).rev() {
        let inv_k = 1.0 / k as f64;
        let (ax, ay, az) = (mul(&a, &x), mul(&a, &y), mul(&a, &z));
        for i in 0..N {
            for j in 0..N {
                x[i][j] = ax[i][j] * inv_k;
                y[i][j] = ay[i][j] * inv_k;
                z[i][j] = az[i][j] * inv_k;
            }
            x[i][i] += 1.0;
            y[i][i] = (ay[i][i] + c) * inv_k;
            z[i][i] = (az[i][i] + c * q) * inv_k;
        }
        q = c * inv_k;
    }
    for _ in 0..squarings {
        let (xx, xy, xz) = (mul(&x, &x), mul(&x, &y), mul(&x, &z));
        for i in 0..N {
            for j in 0..N {
                // `a += b` is `b + a`: IEEE addition commutes exactly.
                z[i][j] += xz[i][j] + y[i][j] * q;
                y[i][j] += xy[i][j];
            }
        }
        x = xx;
        q += q;
    }

    let (y, z) = (y.as_flattened(), z.as_flattened());
    phi1.copy_from_slice(y);
    phi2.copy_from_slice(z);
    y.iter().chain(z).all(|v| v.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DVector;

    #[test]
    fn scalar_exponential_matches_exp() {
        for &x in &[-30.0, -4.1e4 * 2e-4, -1.0, -1e-9, 0.0, 0.3, 2.0] {
            let a = DMatrix::from_rows(&[&[x]]).unwrap();
            let e = expm(&a).unwrap();
            assert!(
                (e[(0, 0)] - x.exp()).abs() <= 1e-14 * x.exp().max(1.0),
                "exp({x}) = {} vs {}",
                e[(0, 0)],
                x.exp()
            );
        }
    }

    #[test]
    fn diagonal_exponential_is_elementwise() {
        let a = DMatrix::from_diagonal(&DVector::from_slice(&[-2.0, 3.0]));
        let e = expm(&a).unwrap();
        assert!((e[(0, 0)] - (-2.0f64).exp()).abs() < 1e-14);
        assert!((e[(1, 1)] - 3.0f64.exp()).abs() < 1e-13 * 3.0f64.exp());
        assert_eq!(e[(0, 1)], 0.0);
        assert_eq!(e[(1, 0)], 0.0);
    }

    #[test]
    fn rotation_generator_exponentiates_to_a_rotation() {
        let theta = 1.1_f64;
        let a = DMatrix::from_rows(&[&[0.0, -theta], &[theta, 0.0]]).unwrap();
        let e = expm(&a).unwrap();
        assert!((e[(0, 0)] - theta.cos()).abs() < 1e-14);
        assert!((e[(0, 1)] + theta.sin()).abs() < 1e-14);
        assert!((e[(1, 0)] - theta.sin()).abs() < 1e-14);
        assert!((e[(1, 1)] - theta.cos()).abs() < 1e-14);
    }

    #[test]
    fn nilpotent_exponential_truncates_exactly() {
        // exp([[0, 1], [0, 0]]) = [[1, 1], [0, 1]].
        let a = DMatrix::from_rows(&[&[0.0, 1.0], &[0.0, 0.0]]).unwrap();
        let e = expm(&a).unwrap();
        assert_eq!(e[(0, 0)], 1.0);
        assert!((e[(0, 1)] - 1.0).abs() < 1e-15);
        assert_eq!(e[(1, 0)], 0.0);
        assert_eq!(e[(1, 1)], 1.0);
    }

    #[test]
    fn semigroup_property_under_heavy_scaling() {
        // exp(A) must equal exp(A/2)², exercising the squaring path on a
        // stiff-scale matrix (the rail pole magnitude at a large step).
        let a = DMatrix::from_rows(&[&[-35.0, 4.0], &[1.0, -20.0]]).unwrap();
        let whole = expm(&a).unwrap();
        let half = expm(&a.scaled(0.5)).unwrap();
        let squared = half.mul_matrix(&half).unwrap();
        let scale = whole.max_abs().max(1e-30);
        assert!(whole.max_abs_diff(&squared).unwrap() / scale < 1e-12);
    }

    #[test]
    fn phi1_of_zero_is_identity() {
        let z = DMatrix::zeros(2, 2);
        let p = phi1(&z).unwrap();
        assert!(p.max_abs_diff(&DMatrix::identity(2)).unwrap() < 1e-15);
    }

    #[test]
    fn phi1_scalar_matches_closed_form() {
        for &x in &[-8.0, -1.0, -1e-8, 0.5, 3.0] {
            let a = DMatrix::from_rows(&[&[x]]).unwrap();
            let p = phi1(&a).unwrap();
            let exact = if x.abs() < 1e-6 { 1.0 + x / 2.0 + x * x / 6.0 } else { x.exp_m1() / x };
            assert!(
                (p[(0, 0)] - exact).abs() < 1e-13 * exact.abs().max(1.0),
                "phi1({x}) = {} vs {exact}",
                p[(0, 0)]
            );
        }
    }

    #[test]
    fn phi1_satisfies_its_defining_identity_on_invertible_input() {
        // A·ϕ₁(A) = e^A − I.
        let a = DMatrix::from_rows(&[&[-3.0, 1.0], &[0.5, -7.0]]).unwrap();
        let p = phi1(&a).unwrap();
        let lhs = a.mul_matrix(&p).unwrap();
        let mut rhs = expm(&a).unwrap();
        for i in 0..2 {
            rhs.add_to(i, i, -1.0);
        }
        assert!(lhs.max_abs_diff(&rhs).unwrap() < 1e-13);
    }

    #[test]
    fn exact_linear_step_reproduces_the_analytic_solution() {
        // ẋ = a·x + u with constant u: x(h) = e^{ah}·x0 + (e^{ah} − 1)/a·u,
        // and the ϕ₁ update x0 + h·ϕ₁(ha)·(a·x0 + u) must match it exactly —
        // this is the update formula the stiff rail integrator applies.
        let (a, u, x0, h) = (-4.1e4_f64, 3.7e3_f64, 1.9_f64, 1.5e-4_f64);
        let am = DMatrix::from_rows(&[&[a * h]]).unwrap();
        let p = phi1(&am).unwrap();
        let stepped = x0 + h * p[(0, 0)] * (a * x0 + u);
        let analytic = (a * h).exp() * x0 + (a * h).exp_m1() / a * u;
        assert!(
            (stepped - analytic).abs() < 1e-12 * analytic.abs().max(1.0),
            "{stepped} vs {analytic}"
        );
    }

    #[test]
    fn phi2_matches_its_series_and_phi1_agrees() {
        // ϕ₂(0) = I/2.
        let (p1, p2) = phi1_phi2(&DMatrix::zeros(2, 2)).unwrap();
        assert!(p1.max_abs_diff(&DMatrix::identity(2)).unwrap() < 1e-15);
        assert!(p2.max_abs_diff(&DMatrix::identity(2).scaled(0.5)).unwrap() < 1e-15);
        // Scalar closed forms, across the stiff-scale range.
        for &x in &[-9.0, -1.0, 0.7, 2.5] {
            let a = DMatrix::from_rows(&[&[x]]).unwrap();
            let (p1, p2) = phi1_phi2(&a).unwrap();
            let exact1 = x.exp_m1() / x;
            let exact2 = (x.exp_m1() - x) / (x * x);
            assert!((p1[(0, 0)] - exact1).abs() < 1e-13 * exact1.abs().max(1.0));
            assert!(
                (p2[(0, 0)] - exact2).abs() < 1e-13 * exact2.abs().max(1.0),
                "phi2({x}) = {} vs {exact2}",
                p2[(0, 0)]
            );
        }
        // The combined call's ϕ₁ block agrees with the standalone one.
        let a = DMatrix::from_rows(&[&[-3.0, 1.0], &[0.5, -7.0]]).unwrap();
        let (p1, p2) = phi1_phi2(&a).unwrap();
        assert!(p1.max_abs_diff(&phi1(&a).unwrap()).unwrap() < 1e-14);
        // Defining identity A²·ϕ₂(A) = e^A − I − A.
        let lhs = a.mul_matrix(&a.mul_matrix(&p2).unwrap()).unwrap();
        let mut rhs = expm(&a).unwrap();
        rhs -= &a;
        for i in 0..2 {
            rhs.add_to(i, i, -1.0);
        }
        assert!(lhs.max_abs_diff(&rhs).unwrap() < 1e-13);
    }

    /// Asserts that the structured kernel returns the dense reference's bits
    /// (`±0` accepted only where both sides are zero).
    fn assert_structured_matches_dense(a: &DMatrix) {
        let n = a.rows();
        let (dense1, dense2) = phi1_phi2(a).unwrap();
        let (mut phi1, mut phi2) = (vec![0.0; n * n], vec![0.0; n * n]);
        phi1_phi2_into(a.as_slice(), n, &mut phi1, &mut phi2).unwrap();
        for (dense, structured) in [(dense1.as_slice(), &phi1), (dense2.as_slice(), &phi2)] {
            for (d, s) in dense.iter().zip(structured) {
                assert!(
                    d.to_bits() == s.to_bits() || (*d == 0.0 && *s == 0.0),
                    "{a:?}: dense {d:e} vs structured {s:e}"
                );
            }
        }
    }

    #[test]
    fn structured_phi_matches_dense_on_edge_and_harvester_matrices() {
        for n in 1..=STRUCTURED_MAX_DIM + 1 {
            // The zero matrix (ϕ₁ = I, ϕ₂ = I/2), a nilpotent Jordan block and
            // a defective one with exact zeros off its two diagonals.
            assert_structured_matches_dense(&DMatrix::zeros(n, n));
            let jordan = |lambda: f64| {
                DMatrix::from_fn(n, n, |r, c| {
                    if c == r + 1 {
                        1.0
                    } else if r == c {
                        lambda
                    } else {
                        0.0
                    }
                })
            };
            assert_structured_matches_dense(&jordan(0.0));
            assert_structured_matches_dense(&jordan(-3.7));
            // Exact zeros and negative zeros scattered through a dense block.
            let sparse = DMatrix::from_fn(n, n, |r, c| match (r * 7 + c * 3) % 4 {
                0 => 0.0,
                1 => -0.0,
                2 => -2.5e2 / (1.0 + r as f64),
                _ => 3.1e-3 * (1.0 + c as f64),
            });
            assert_structured_matches_dense(&sparse);
        }
        // The harvester's stiff partition (coil current, output stage, rail)
        // at four operating points, scaled by every fifth ladder rung
        // `h = 4e-4·0.75^k`.
        for rail in [-5.829145045775684e2, -7.815091015746026e2, -2.458e2, -1.925861382462475e4] {
            let a_ss = DMatrix::from_rows(&[
                &[-7.5e3, 0.0, -5e1],
                &[0.0, -4.114444465024543e4, 0.0],
                &[2.127659574468085e6, 0.0, rail],
            ])
            .unwrap();
            for k in (0..40).step_by(5) {
                assert_structured_matches_dense(&a_ss.scaled(4e-4 * 0.75_f64.powi(k)));
            }
        }
        // Overflowing squarings fall back to the dense bits (here +∞).
        assert_structured_matches_dense(&DMatrix::from_rows(&[&[800.0]]).unwrap());
        assert_structured_matches_dense(
            &DMatrix::from_rows(&[&[700.0, 1e3], &[0.0, 1.0]]).unwrap(),
        );
    }

    #[test]
    fn structured_phi_rejects_what_the_dense_path_rejects() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let a = DMatrix::from_rows(&[&[-1.0, bad], &[0.0, 2.0]]).unwrap();
            let (mut phi1, mut phi2) = ([0.0; 4], [0.0; 4]);
            let err = phi1_phi2_into(a.as_slice(), 2, &mut phi1, &mut phi2).unwrap_err();
            assert!(matches!(err, LinalgError::InvalidArgument(_)));
            assert_eq!(Err(err), phi1_phi2(&a));
        }
        let (mut phi1, mut phi2) = ([0.0; 4], [0.0; 3]);
        assert!(matches!(
            phi1_phi2_into(&[0.0; 4], 2, &mut phi1, &mut phi2),
            Err(LinalgError::DimensionMismatch { .. })
        ));
        assert!(phi1_phi2_into(&[], 0, &mut [], &mut []).is_ok());
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(600))]

        /// Random 1–4-state matrices with entry magnitudes 1e-3…1e3, random
        /// signs and about one exact zero in five: the structured kernel
        /// returns the dense reference's bits.
        #[test]
        fn structured_phi_matches_dense_on_random_matrices(
            n in 1usize..=STRUCTURED_MAX_DIM,
            entries in proptest::collection::vec((-1.0f64..1.0, -3.0f64..3.0, 0usize..5), 16),
        ) {
            let values: Vec<f64> = entries
                .iter()
                .map(|&(sign, exponent, zero)| {
                    if zero == 0 { 0.0 } else { sign.signum() * 10f64.powf(exponent) }
                })
                .collect();
            assert_structured_matches_dense(&DMatrix::from_fn(n, n, |r, c| values[r * n + c]));
        }
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let rect = DMatrix::zeros(2, 3);
        assert!(expm(&rect).is_err());
        assert!(phi1(&rect).is_err());
        assert!(phi1_phi2(&rect).is_err());
        let mut bad = DMatrix::zeros(2, 2);
        bad.set(0, 1, f64::NAN);
        assert!(expm(&bad).is_err());
        // Empty matrices pass through untouched.
        assert_eq!(expm(&DMatrix::zeros(0, 0)).unwrap().shape(), (0, 0));
        assert_eq!(phi1(&DMatrix::zeros(0, 0)).unwrap().shape(), (0, 0));
    }
}
