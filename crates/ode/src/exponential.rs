//! Exact (exponential) integration of the stiff partition of a partitioned
//! state space.
//!
//! The partitioned IMEX march splits the global state into a small *stiff*
//! partition `x_s` (fast modes declared by the blocks — for the assembled
//! harvester three states: the microgenerator's coil current and the
//! multiplier's output stage and rail) and the *non-stiff* remainder `x_f`
//! that keeps the explicit Adams–Bashforth governor. Over one step `h` the
//! stiff partition obeys
//!
//! ```text
//! ẋ_s = A_ss·x_s + u(t),    u(t) = A_sf·x_f(t) + b_s(t)
//! ```
//!
//! and the second-order exponential (ETD2 / exponential Adams–Bashforth)
//! update
//!
//! ```text
//! x_s(t + h) = x_s + h·ϕ₁(h·A_ss)·ẋ_s(t) + h²·ϕ₂(h·A_ss)·u̇,
//! ϕ₁(Z) = Z⁻¹·(e^Z − I),   ϕ₂(Z) = Z⁻²·(e^Z − I − Z),
//! u̇ ≈ (u_n − u_{n−1}) / h_prev
//! ```
//!
//! integrates the homogeneous part *exactly* at any step size — no stability
//! constraint ever arises from `A_ss`, which is the whole point: the
//! −4.1·10⁴ s⁻¹ storage-interface and rail poles stop pricing the explicit
//! step limit. The ϕ₁ term alone (exponential Euler) freezes the coupling
//! `u` over the step; the ϕ₂ term restores second-order accuracy in the
//! coupling by extrapolating `u` linearly from its previous-step value,
//! which matters because after the partition removes the stiff poles the
//! governor's steps grow to ~10² µs where the 70 Hz coupling visibly moves
//! within one step. For a linear stiff system with *constant* forcing
//! `u_n = u_{n−1}` and the update reproduces the analytic solution to
//! round-off (the proptest below pins this). On the first step after a
//! history reset (segment start, Jacobian kink) no `u` difference exists and
//! the kernel gracefully degrades to exponential Euler for that one step —
//! mirroring exactly how the Adams–Bashforth lane regrows from order 1.
//!
//! [`StiffExponential`] owns the cached propagators `h·ϕ₁(h·A_ss)` and
//! `h²·ϕ₂(h·A_ss)` on flat storage: the ϕ evaluation
//! ([`phi1_phi2_into`], the structured form of the 9×9 augmented exponential
//! for the harvester's 3-state partition) runs only when the step size or the
//! stiff sub-matrix actually changes. That is still thousands of times per
//! Table II scenario (6 416 in S1, 4 331 in S2): each Eq. 3 refresh moves
//! `A_ss`, and the march then visits about ten ladder rungs before the next
//! one. Steps between misses pay a few multiply-adds per stiff state and no
//! matrix function.

use harvsim_linalg::expm::phi1_phi2_into;
use harvsim_linalg::DMatrix;

use crate::OdeError;

/// Memo entries kept before the propagator memo is cleared. The ladder bounds
/// the distinct step sizes, but an adversarial caller could feed arbitrary
/// `h` values; the cap keeps the memo from growing without bound.
const MEMO_CAPACITY: usize = 64;

/// Cached exact-update kernel for the stiff partition: applies the ETD2
/// update `x_s ← x_s + h·ϕ₁(h·A_ss)·ẋ_s + h²·ϕ₂(h·A_ss)·u̇` with the
/// propagator matrices recomputed only when `h` or `A_ss` changes and the
/// coupling slope `u̇` estimated from the previous step's forcing.
#[derive(Debug, Clone, Default)]
pub struct StiffExponential {
    /// The stiff sub-matrix the cached propagators were computed from
    /// (row-major; the forcing recovery reads its rows directly).
    a_ss: DMatrix,
    /// Propagator memo, one entry per step size seen since the last `A_ss`
    /// change, flat: entry `e` is `memo[e·w..(e + 1)·w]` with `w = 1 + 2n²`,
    /// holding `h`, then `h·ϕ₁(h·A_ss)` and `h²·ϕ₂(h·A_ss)` row-major. The
    /// partitioned march quantises its step to a geometric ladder, so the
    /// distinct `h` values number a few dozen at most and an exact-match
    /// linear scan is cheaper than any hashing — and crucially the march may
    /// *oscillate* between adjacent rungs (accuracy controller pushing down,
    /// growth pushing up) without ever re-evaluating a matrix exponential.
    /// Clearing keeps the capacity, so a miss allocates nothing once the memo
    /// has reached its working size.
    memo: Vec<f64>,
    /// `h·A_ss`, the ϕ argument of the latest miss (scratch).
    scaled: Vec<f64>,
    /// Forcing `u = ẋ_s − A_ss·x_s` observed at the previous step start.
    prev_u: Vec<f64>,
    /// Step size that led to the previous forcing sample.
    prev_h: f64,
    /// Whether `prev_u` is a valid basis for the slope estimate (false right
    /// after construction, [`StiffExponential::reset_history`], or an
    /// `A_ss` change).
    have_prev_u: bool,
    /// Scratch for the current forcing sample.
    u: Vec<f64>,
    /// Number of ϕ evaluations performed (cache misses), for diagnostics.
    recomputations: usize,
}

impl StiffExponential {
    /// Creates an empty kernel; the first [`StiffExponential::advance`] after
    /// [`StiffExponential::set_matrix`] computes the initial propagator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Dimension of the stiff partition the kernel is configured for.
    pub fn dim(&self) -> usize {
        self.a_ss.rows()
    }

    /// Number of ϕ₁ evaluations performed so far (cache misses). On a settled
    /// march this stays far below the step count — the observable analogue of
    /// the cached terminal factorisation's `factorisations` counter.
    pub fn recomputations(&self) -> usize {
        self.recomputations
    }

    /// Installs the stiff sub-matrix `A_ss`, invalidating the cached
    /// propagators only if the matrix actually changed (the solver calls this
    /// on every relinearisation refresh; between load-mode switches the
    /// interface sub-matrix is mostly bit-identical, so the cache survives).
    /// A genuine change also drops the coupling-slope history: the previous
    /// forcing sample was measured against the old operating point and would
    /// contaminate the `u̇` estimate (the next step runs exponential Euler,
    /// one-step regrowth exactly like the AB lane after a kink).
    ///
    /// # Panics
    ///
    /// Panics if `a_ss` is not square (the stiff partition is a square
    /// sub-block of the total-step matrix by construction).
    pub fn set_matrix(&mut self, a_ss: &DMatrix) {
        assert!(a_ss.is_square(), "stiff sub-matrix must be square");
        if self.a_ss.shape() == a_ss.shape() && self.a_ss == *a_ss {
            return;
        }
        if self.a_ss.shape() == a_ss.shape() {
            self.a_ss.copy_from(a_ss);
        } else {
            self.a_ss = a_ss.clone();
        }
        self.memo.clear();
        self.have_prev_u = false;
    }

    /// The loop-carried state of the kernel for checkpoint serialisation:
    /// `(A_ss, previous forcing sample, previous step, slope-basis validity)`.
    /// The ϕ propagator memo is deliberately excluded — it is pure derived
    /// data of `(h, A_ss)` and the ϕ evaluation is deterministic, so a restored
    /// kernel recomputes bit-identical propagators on first use.
    pub fn save_state(&self) -> (&DMatrix, &[f64], f64, bool) {
        (&self.a_ss, &self.prev_u, self.prev_h, self.have_prev_u)
    }

    /// Restores the state captured by [`StiffExponential::save_state`],
    /// dropping the (re-derivable) propagator memo.
    ///
    /// # Errors
    ///
    /// Returns [`OdeError::InvalidParameter`] if `a_ss` is not square or
    /// `prev_u` is neither empty nor matched to its dimension — symptoms of a
    /// corrupt checkpoint.
    pub fn restore_state(
        &mut self,
        a_ss: DMatrix,
        prev_u: Vec<f64>,
        prev_h: f64,
        have_prev_u: bool,
    ) -> Result<(), OdeError> {
        if !a_ss.is_square() {
            return Err(OdeError::InvalidParameter(format!(
                "stiff sub-matrix must be square, got {}x{}",
                a_ss.rows(),
                a_ss.cols()
            )));
        }
        if !prev_u.is_empty() && prev_u.len() != a_ss.rows() {
            return Err(OdeError::InvalidParameter(format!(
                "stiff partition has {} states but {} forcing samples were supplied",
                a_ss.rows(),
                prev_u.len()
            )));
        }
        // `u` is per-step scratch, but `advance` treats a length mismatch as
        // "partition changed" and resets the slope basis — so it must be
        // pre-sized to match the restored `prev_u`.
        self.u = vec![0.0; prev_u.len()];
        self.a_ss = a_ss;
        self.prev_u = prev_u;
        self.prev_h = prev_h;
        self.have_prev_u = have_prev_u;
        self.memo.clear();
        self.recomputations = 0;
        Ok(())
    }

    /// Drops the coupling-slope history (the `u̇` basis), so the next
    /// [`StiffExponential::advance`] runs plain exponential Euler. Called at
    /// segment starts and on Jacobian discontinuities, mirroring the
    /// derivative-ring truncation of the Adams–Bashforth lane: neither lane
    /// may extrapolate through a kink.
    pub fn reset_history(&mut self) {
        self.have_prev_u = false;
    }

    /// Applies the ETD2 update `x_s ← x_s + h·ϕ₁(h·A_ss)·dx_s +
    /// h²·ϕ₂(h·A_ss)·u̇`, where `dx_s` must be the stiff rows of the *full*
    /// state derivative at the step start (which equals `A_ss·x_s + u_n`, so
    /// the forcing sample `u_n` is recovered internally) and `u̇` is the
    /// finite difference of the last two forcing samples (omitted on the
    /// first step after a reset). Recomputes the propagators on an
    /// (`h`, `A_ss`) memo miss; other calls are a few multiply-adds per stiff
    /// state.
    ///
    /// # Errors
    ///
    /// Returns [`OdeError::InvalidParameter`] for a non-positive or
    /// non-finite step or mismatched slice lengths, and propagates ϕ
    /// evaluation failures (non-finite stiff sub-matrix).
    pub fn advance(&mut self, h: f64, x_s: &mut [f64], dx_s: &[f64]) -> Result<(), OdeError> {
        let n = self.a_ss.rows();
        if x_s.len() != n || dx_s.len() != n {
            return Err(OdeError::InvalidParameter(format!(
                "stiff partition has {n} states but {} values / {} derivatives were supplied",
                x_s.len(),
                dx_s.len()
            )));
        }
        if !(h > 0.0) || !h.is_finite() {
            return Err(OdeError::InvalidParameter(format!(
                "stiff exact step must be positive and finite, got {h}"
            )));
        }
        let nn = n * n;
        let width = 1 + 2 * nn;
        // Move-to-front memo: the march mostly repeats one step size (and
        // occasionally alternates between two adjacent ladder rungs), so the
        // match is almost always at entry 0 or 1.
        match self.memo.chunks_exact(width).position(|entry| entry[0] == h) {
            Some(0) => {}
            Some(index) => {
                let (front, back) = self.memo.split_at_mut(index * width);
                front[..width].swap_with_slice(&mut back[..width]);
            }
            None => {
                self.scaled.clear();
                self.scaled.extend(self.a_ss.as_slice().iter().map(|a| h * a));
                let start = self.memo.len();
                self.memo.resize(start + width, 0.0);
                let (phi1, phi2) = self.memo[start + 1..].split_at_mut(nn);
                if let Err(err) = phi1_phi2_into(&self.scaled, n, phi1, phi2) {
                    self.memo.truncate(start);
                    return Err(err.into());
                }
                phi1.iter_mut().for_each(|p| *p *= h);
                let h2 = h * h;
                phi2.iter_mut().for_each(|p| *p *= h2);
                self.memo[start] = h;
                self.recomputations += 1;
                if start >= MEMO_CAPACITY * width {
                    self.memo.drain(..start);
                } else if start > 0 {
                    let (front, back) = self.memo.split_at_mut(start);
                    front[..width].swap_with_slice(back);
                }
            }
        }
        // Invariant after the match above: the propagators for `h` are
        // memo entry 0.
        if self.u.len() != n {
            self.u = vec![0.0; n];
            self.prev_u = vec![0.0; n];
            self.have_prev_u = false;
        }
        // Recover the forcing sample u_n = ẋ_s − A_ss·x_s before x_s moves.
        let a_ss = self.a_ss.as_slice();
        for (i, (u, dx)) in self.u.iter_mut().zip(dx_s).enumerate() {
            let mut coupled = 0.0;
            for (a, x) in a_ss[i * n..(i + 1) * n].iter().zip(x_s.iter()) {
                coupled += a * x;
            }
            *u = dx - coupled;
        }
        let (propagator1, propagator2) = self.memo[1..width].split_at(nn);
        let inv_prev_h = 1.0 / self.prev_h;
        for (i, x) in x_s.iter_mut().enumerate() {
            let row = i * n..(i + 1) * n;
            let mut acc = 0.0;
            for (p, dx) in propagator1[row.clone()].iter().zip(dx_s) {
                acc += p * dx;
            }
            if self.have_prev_u {
                for ((p, u), prev) in propagator2[row].iter().zip(&self.u).zip(&self.prev_u) {
                    acc += p * (u - prev) * inv_prev_h;
                }
            }
            *x += acc;
        }
        std::mem::swap(&mut self.prev_u, &mut self.u);
        self.prev_h = h;
        self.have_prev_u = true;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harvsim_linalg::DVector;

    #[test]
    fn one_state_update_is_exact_at_any_step() {
        // The rail-regularisation scale: λ = −4.1e4 s⁻¹, forcing u = const.
        let (lambda, u, x0) = (-4.1e4_f64, 2.3e4_f64, 1.7_f64);
        let mut exp = StiffExponential::new();
        exp.set_matrix(&DMatrix::from_rows(&[&[lambda]]).unwrap());
        for &h in &[1e-7, 1e-5, 2e-4, 0.1] {
            let mut x = [x0];
            let dx = [lambda * x0 + u];
            exp.advance(h, &mut x, &dx).unwrap();
            let analytic = (lambda * h).exp() * x0 + (lambda * h).exp_m1() / lambda * u;
            assert!(
                (x[0] - analytic).abs() < 1e-12 * analytic.abs().max(1.0),
                "h = {h}: {} vs {analytic}",
                x[0]
            );
        }
    }

    #[test]
    fn propagator_cache_hits_on_repeated_steps() {
        let mut exp = StiffExponential::new();
        let a = DMatrix::from_rows(&[&[-100.0, 5.0], &[0.0, -2000.0]]).unwrap();
        exp.set_matrix(&a);
        assert_eq!(exp.dim(), 2);
        let mut x = [1.0, -0.5];
        for _ in 0..100 {
            let dx = [-100.0 * x[0] + 5.0 * x[1], -2000.0 * x[1]];
            exp.advance(1e-4, &mut x, &dx).unwrap();
        }
        assert_eq!(exp.recomputations(), 1, "constant (h, A_ss) must hit the cache");
        // Re-installing the identical matrix keeps the cache warm …
        exp.set_matrix(&a.clone());
        let dx = [0.0, 0.0];
        exp.advance(1e-4, &mut x, &dx).unwrap();
        assert_eq!(exp.recomputations(), 1);
        // … while a new step size or a changed matrix re-derives it.
        exp.advance(2e-4, &mut x, &dx).unwrap();
        assert_eq!(exp.recomputations(), 2);
        exp.set_matrix(&a.scaled(1.5));
        exp.advance(2e-4, &mut x, &dx).unwrap();
        assert_eq!(exp.recomputations(), 3);
    }

    /// A 5-state partition is wider than the structured ϕ kernel, so every
    /// miss runs the dense reference; the update must still be the ETD2
    /// formula applied to its propagators, and the memo must still hit.
    #[test]
    fn five_state_partition_takes_the_dense_path() {
        let a = DMatrix::from_fn(5, 5, |r, c| {
            if r == c {
                -2.0e3 * (1.0 + r as f64)
            } else {
                ((r * 5 + c) % 7) as f64 * 40.0 - 120.0
            }
        });
        let forcing = [3.0e2, -1.0e2, 0.0, 5.0e1, 2.0e2];
        let derivative = |x: &[f64; 5]| -> [f64; 5] {
            std::array::from_fn(|i| (0..5).map(|j| a[(i, j)] * x[j]).sum::<f64>() + forcing[i])
        };
        let mut exp = StiffExponential::new();
        exp.set_matrix(&a);
        let mut x = [0.3, -0.2, 0.1, 0.4, -0.5];
        let mut reference = x;
        let mut prev: Option<([f64; 5], f64)> = None;
        for &h in &[2e-4, 2e-4, 1e-4, 2e-4] {
            let dx = derivative(&x);
            exp.advance(h, &mut x, &dx).unwrap();

            let (p1, p2) = harvsim_linalg::expm::phi1_phi2(&a.scaled(h)).unwrap();
            let u: [f64; 5] = std::array::from_fn(|i| {
                let mut coupled = 0.0;
                for j in 0..5 {
                    coupled += a[(i, j)] * reference[j];
                }
                dx[i] - coupled
            });
            for (i, value) in reference.iter_mut().enumerate() {
                let mut acc = 0.0;
                for j in 0..5 {
                    acc += p1[(i, j)] * h * dx[j];
                }
                if let Some((prev_u, prev_h)) = prev {
                    for j in 0..5 {
                        acc += p2[(i, j)] * (h * h) * (u[j] - prev_u[j]) * (1.0 / prev_h);
                    }
                }
                *value += acc;
            }
            prev = Some((u, h));
            for (got, want) in x.iter().zip(&reference) {
                assert_eq!(got.to_bits(), want.to_bits(), "h = {h}: {got:e} vs {want:e}");
            }
        }
        // Two step sizes seen: the memo hit on the repeats and the return.
        assert_eq!(exp.recomputations(), 2);
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let mut exp = StiffExponential::new();
        exp.set_matrix(&DMatrix::from_rows(&[&[-1.0]]).unwrap());
        let mut x = [0.0];
        assert!(exp.advance(0.0, &mut x, &[0.0]).is_err());
        assert!(exp.advance(f64::NAN, &mut x, &[0.0]).is_err());
        assert!(exp.advance(1e-3, &mut x, &[0.0, 0.0]).is_err());
        let mut wrong = [0.0, 0.0];
        assert!(exp.advance(1e-3, &mut wrong, &[0.0]).is_err());
    }

    /// Marches a two-state linear system with piecewise-constant forcing via
    /// the exact kernel and via brute-force classic RK4 at a 200× finer step;
    /// the two must agree to the RK4 truncation floor.
    #[test]
    fn two_state_exact_march_matches_fine_rk4() {
        let a = DMatrix::from_rows(&[&[-3.0e4, 2.0e3], &[1.0e3, -5.0e4]]).unwrap();
        let u = DVector::from_slice(&[8.0e3, -4.0e3]);
        let mut exp = StiffExponential::new();
        exp.set_matrix(&a);

        let h = 5e-5;
        let steps = 40;
        let mut x_exact = [2.0_f64, -1.0];
        for _ in 0..steps {
            let dx = [
                a[(0, 0)] * x_exact[0] + a[(0, 1)] * x_exact[1] + u[0],
                a[(1, 0)] * x_exact[0] + a[(1, 1)] * x_exact[1] + u[1],
            ];
            exp.advance(h, &mut x_exact, &dx).unwrap();
        }

        let f = |x: &[f64; 2]| {
            [a[(0, 0)] * x[0] + a[(0, 1)] * x[1] + u[0], a[(1, 0)] * x[0] + a[(1, 1)] * x[1] + u[1]]
        };
        let fine = h / 200.0;
        let mut x_rk = [2.0_f64, -1.0];
        for _ in 0..steps * 200 {
            let k1 = f(&x_rk);
            let k2 = f(&[x_rk[0] + 0.5 * fine * k1[0], x_rk[1] + 0.5 * fine * k1[1]]);
            let k3 = f(&[x_rk[0] + 0.5 * fine * k2[0], x_rk[1] + 0.5 * fine * k2[1]]);
            let k4 = f(&[x_rk[0] + fine * k3[0], x_rk[1] + fine * k3[1]]);
            for i in 0..2 {
                x_rk[i] += fine / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
            }
        }
        for i in 0..2 {
            let scale = x_rk[i].abs().max(1.0);
            assert!(
                (x_exact[i] - x_rk[i]).abs() / scale < 1e-10,
                "state {i}: exact {} vs RK4 {}",
                x_exact[i],
                x_rk[i]
            );
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The exponential stiff-partition update matches brute-force
        /// fine-step RK4 marching on random *stable* one- and two-state
        /// linear systems (trace < 0, det > 0) with constant forcing, to
        /// ≤ 1e-10 relative error — the acceptance bound of the partitioned
        /// march: "exact" must mean exact, not merely A-stable.
        #[test]
        fn exact_update_matches_fine_rk_on_random_stable_systems(
            a11 in 5.0f64..300.0,
            a22 in 5.0f64..300.0,
            a12 in -4.0f64..4.0,
            a21 in -4.0f64..4.0,
            u1 in -50.0f64..50.0,
            u2 in -50.0f64..50.0,
            x1 in -2.0f64..2.0,
            x2 in -2.0f64..2.0,
            states in 1usize..=2,
        ) {
            // Diagonally dominant negative-definite construction keeps the
            // 2×2 spectrum strictly stable (a11·a22 > 16 ≥ a12·a21).
            let (a, x0, u) = if states == 2 {
                (
                    DMatrix::from_rows(&[&[-a11, a12], &[a21, -a22]]).unwrap(),
                    vec![x1, x2],
                    vec![u1, u2],
                )
            } else {
                (DMatrix::from_rows(&[&[-a11]]).unwrap(), vec![x1], vec![u1])
            };
            let n = x0.len();
            let mut exp = StiffExponential::new();
            exp.set_matrix(&a);

            // One exact macro step across ~1 stiff time constant.
            let h = 2.0 / (a11 + a22);
            let mut x_exact = x0.clone();
            let derivative = |x: &[f64]| -> Vec<f64> {
                (0..n).map(|i| {
                    (0..n).map(|j| a[(i, j)] * x[j]).sum::<f64>() + u[i]
                }).collect()
            };
            let dx = derivative(&x_exact);
            exp.advance(h, &mut x_exact, &dx).unwrap();

            // Brute-force reference: 4000 RK4 micro steps over the same span,
            // pushing the truncation error far below the 1e-10 target.
            let fine = h / 4000.0;
            let mut x_rk = x0;
            for _ in 0..4000 {
                let k1 = derivative(&x_rk);
                let mid1: Vec<f64> =
                    (0..n).map(|i| x_rk[i] + 0.5 * fine * k1[i]).collect();
                let k2 = derivative(&mid1);
                let mid2: Vec<f64> =
                    (0..n).map(|i| x_rk[i] + 0.5 * fine * k2[i]).collect();
                let k3 = derivative(&mid2);
                let end: Vec<f64> = (0..n).map(|i| x_rk[i] + fine * k3[i]).collect();
                let k4 = derivative(&end);
                for i in 0..n {
                    x_rk[i] += fine / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
                }
            }
            for i in 0..n {
                let scale = x_rk[i].abs().max(1e-3);
                prop_assert!(
                    (x_exact[i] - x_rk[i]).abs() / scale < 1e-10,
                    "state {}: exact {} vs RK4 {} (h = {h})",
                    i, x_exact[i], x_rk[i]
                );
            }
        }
    }
}
