//! Step-size limits for explicit integration stability (Eq. 7 of the paper).
//!
//! The paper's explicit march-in-time process is only stable while the spectral
//! radius of the point total-step matrix `I + h·A` stays inside the unit circle.
//! Because the analogue blocks of an energy harvester are passive, the paper
//! enforces this with the cheap sufficient condition of diagonal dominance; the
//! exact spectral-radius computation is also provided here so the heuristic can
//! be validated (ablation experiment A2 in DESIGN.md).

use harvsim_linalg::{dominance, eigen, DMatrix};

use crate::explicit::MAX_ADAMS_BASHFORTH_ORDER;
use crate::OdeError;

/// Strategy used to pick the largest stable explicit step for a given system
/// matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StabilityRule {
    /// The paper's heuristic: keep `I + h·A` strictly row-diagonally dominant
    /// (Gershgorin discs inside the unit circle). Cheap — one pass over the
    /// matrix — and sufficient for passive systems.
    DiagonalDominance {
        /// Safety factor in `(0, 1]` applied to the computed limit.
        safety: f64,
    },
    /// Exact rule: compute the eigenvalues of `A` and pick the largest `h` such
    /// that every `1 + h·λ` lies inside the unit circle. More expensive
    /// (O(n³) QR iteration) but never conservative.
    SpectralRadius {
        /// Safety factor in `(0, 1]` applied to the computed limit.
        safety: f64,
    },
    /// No stability analysis: always use the caller-provided step.
    FixedStep,
}

impl StabilityRule {
    /// Human-readable name used in benchmark reports.
    pub fn name(&self) -> &'static str {
        match self {
            StabilityRule::DiagonalDominance { .. } => "diagonal-dominance",
            StabilityRule::SpectralRadius { .. } => "spectral-radius",
            StabilityRule::FixedStep => "fixed-step",
        }
    }
}

impl Default for StabilityRule {
    fn default() -> Self {
        StabilityRule::DiagonalDominance { safety: 0.9 }
    }
}

/// Largest stable step size for the forward (explicit-Euler-like) update with
/// system matrix `a`, according to `rule`. Returns `None` when the rule cannot
/// bound the step (e.g. diagonal dominance on a matrix with a non-negative
/// diagonal entry, or [`StabilityRule::FixedStep`]); callers then keep their
/// requested step.
///
/// # Errors
///
/// Propagates linear-algebra failures (non-square input, QR non-convergence)
/// and rejects invalid safety factors.
pub fn max_stable_step(a: &DMatrix, rule: StabilityRule) -> Result<Option<f64>, OdeError> {
    match rule {
        StabilityRule::FixedStep => Ok(None),
        StabilityRule::DiagonalDominance { safety } => Ok(dominance::max_stable_step(a, safety)?),
        StabilityRule::SpectralRadius { safety } => {
            if !(safety > 0.0 && safety <= 1.0) {
                return Err(OdeError::InvalidParameter(format!(
                    "safety factor must be in (0, 1], got {safety}"
                )));
            }
            let eigs = eigen::eigenvalues(a)?;
            // For eigenvalue λ = α + iβ the forward-Euler region requires
            // |1 + hλ|² < 1  =>  h < -2α / (α² + β²)  (only meaningful for α < 0).
            let mut h_max = f64::INFINITY;
            for eig in eigs {
                let alpha = eig.re;
                let beta = eig.im;
                let magnitude_sq = alpha * alpha + beta * beta;
                if magnitude_sq == 0.0 {
                    continue; // zero eigenvalue (pure integrator) does not constrain h
                }
                if alpha >= 0.0 {
                    // Undamped or unstable mode: no explicit step is strictly stable.
                    return Ok(Some(0.0));
                }
                h_max = h_max.min(-2.0 * alpha / magnitude_sq);
            }
            if h_max.is_infinite() {
                Ok(None)
            } else {
                Ok(Some(safety * h_max))
            }
        }
    }
}

/// Whether the *uniform-step order-2 Adams–Bashforth* recurrence is stable for
/// the scalar mode `ẋ = λ·x` at step `h`, i.e. whether both roots of the
/// characteristic polynomial
///
/// ```text
/// ζ² − (1 + 3/2·μ)·ζ + 1/2·μ = 0,   μ = h·λ
/// ```
///
/// lie inside the closed unit disc (computed with the complex quadratic
/// formula — no iteration needed).
fn ab2_mode_is_stable(mu_re: f64, mu_im: f64) -> bool {
    // b = 1 + 1.5·μ (the root sum), c = 0.5·μ (the root product).
    let b_re = 1.0 + 1.5 * mu_re;
    let b_im = 1.5 * mu_im;
    let c_re = 0.5 * mu_re;
    let c_im = 0.5 * mu_im;
    // Discriminant d = b² − 4c.
    let d_re = b_re * b_re - b_im * b_im - 4.0 * c_re;
    let d_im = 2.0 * b_re * b_im - 4.0 * c_im;
    // Principal complex square root of d.
    let d_mag = (d_re * d_re + d_im * d_im).sqrt();
    let s_re = ((d_mag + d_re) * 0.5).max(0.0).sqrt();
    let s_im = ((d_mag - d_re) * 0.5).max(0.0).sqrt().copysign(d_im);
    // Roots (b ± s)/2.
    let r1 = ((b_re + s_re) * 0.5).powi(2) + ((b_im + s_im) * 0.5).powi(2);
    let r2 = ((b_re - s_re) * 0.5).powi(2) + ((b_im - s_im) * 0.5).powi(2);
    r1 <= 1.0 && r2 <= 1.0
}

/// Uniform-grid Adams–Bashforth coefficients `b_i` (newest first) for the
/// update `x_{n+1} = x_n + h·Σ b_i·f_{n−i}`, orders 1–4 (shared with the
/// solver's uniform fast path through [`crate::explicit`]).
fn ab_uniform_coefficients(order: usize) -> &'static [f64] {
    crate::explicit::adams_bashforth_uniform_coefficients(order)
}

/// Complex product `(a·b)` on `(re, im)` pairs.
#[inline]
fn cmul(a: (f64, f64), b: (f64, f64)) -> (f64, f64) {
    (a.0 * b.0 - a.1 * b.1, a.0 * b.1 + a.1 * b.0)
}

/// Whether every root of the order-`k` Adams–Bashforth characteristic
/// polynomial
///
/// ```text
/// ζ^k − (1 + μ·b₀)·ζ^{k−1} − μ·b₁·ζ^{k−2} − … − μ·b_{k−1} = 0,   μ = h·λ
/// ```
///
/// lies in the unit disc. Orders 1 and 2 use closed forms (linear /
/// quadratic, closed disc); orders 3 and 4 use the iteration-free Schur–Cohn
/// recursion of [`roots_inside_unit_disc`], whose strict (open-disc)
/// inequality treats exact boundary roots as unstable — the conservative
/// direction, and immaterial to the bisection callers.
fn abk_mode_is_stable(order: usize, mu_re: f64, mu_im: f64) -> bool {
    match order {
        1 => {
            // Forward Euler: the single root is 1 + μ.
            let r = 1.0 + mu_re;
            r * r + mu_im * mu_im <= 1.0
        }
        2 => ab2_mode_is_stable(mu_re, mu_im),
        3 | 4 => {
            // Ascending monic coefficients of the characteristic polynomial:
            // a[order] = 1, a[order−1] = 1 + μ·b₀, lower entries μ·b_i.
            let b = ab_uniform_coefficients(order);
            let mut a = [(0.0_f64, 0.0_f64); MAX_ADAMS_BASHFORTH_ORDER + 1];
            a[order] = (1.0, 0.0);
            a[order - 1] = (-(1.0 + mu_re * b[0]), -mu_im * b[0]);
            for i in 1..order {
                a[order - 1 - i] = (-mu_re * b[i], -mu_im * b[i]);
            }
            roots_inside_unit_disc(a, order)
        }
        _ => unreachable!("adams-bashforth order out of range"),
    }
}

/// Schur–Cohn test: whether every root of the complex polynomial
/// `Σ a_j·z^j` (ascending coefficients, degree `n`) lies strictly inside the
/// unit disc. Each stage requires `|a_n| > |a_0|` and reduces the degree by
/// one through the Schur transform
///
/// ```text
/// a'_j = conj(a_n)·a_{j+1} − a_0·conj(a_{n−1−j}),   j = 0 … n−1
/// ```
///
/// (the reversed-conjugate combination that cancels the constant term of
/// `conj(a_n)·p − a_0·p*` and divides by `z`). No iteration anywhere — for
/// the degree ≤ 4 polynomials of the step-limit scans this is a few dozen
/// multiplications, which is what lets the governor price the AB3/AB4
/// regions exactly at every relinearisation event. Boundary roots fail the
/// strict inequality and so count as unstable, the conservative direction.
fn roots_inside_unit_disc(
    mut a: [(f64, f64); MAX_ADAMS_BASHFORTH_ORDER + 1],
    mut n: usize,
) -> bool {
    while n > 0 {
        let an = a[n];
        let a0 = a[0];
        let margin = (an.0 * an.0 + an.1 * an.1) - (a0.0 * a0.0 + a0.1 * a0.1);
        if !(margin > 0.0) {
            return false;
        }
        let an_conj = (an.0, -an.1);
        let mut next = [(0.0_f64, 0.0_f64); MAX_ADAMS_BASHFORTH_ORDER + 1];
        for (j, slot) in next.iter_mut().enumerate().take(n) {
            let lead = cmul(an_conj, a[j + 1]);
            let rev = a[n - 1 - j];
            let tail = cmul(a0, (rev.0, -rev.1));
            *slot = (lead.0 - tail.0, lead.1 - tail.1);
        }
        a = next;
        n -= 1;
    }
    true
}

/// Largest `h ∈ (0, h_cap]` keeping the order-`order` formula stable on every
/// eigenmode in `eigs`, or `None` when no mode binds below the cap. This is
/// the boundary-locus scan along each eigenvalue's ray: the stability
/// boundary is the locus `|ζ_max(μ)| = 1`, and its intersection with the ray
/// `μ = h·λ` is located by bisection on the root-magnitude check. The scan
/// prunes with the running minimum — a mode that is stable at the current
/// best limit cannot lower it, so only the genuinely binding modes pay for a
/// bisection, and each bisection starts from an already-shrunk bracket.
///
/// Returns `Some((0.0, mode))` when an undamped/unstable mode admits no
/// stable step. The second tuple element is the *binding* eigenvalue — the
/// mode whose boundary crossing set the returned limit — so the caller can
/// record which pole actually prices the march (is the step bound by the 70 Hz
/// mechanical pole, a conduction pole, or a regularisation artifact?).
fn min_ray_limit(eigs: &[eigen::Complex], order: usize, h_cap: f64) -> Option<(f64, (f64, f64))> {
    let mut h_min = h_cap;
    let mut binding = (0.0_f64, 0.0_f64);
    let mut constrained = false;
    for eig in eigs {
        let (alpha, beta) = (eig.re, eig.im);
        if alpha == 0.0 && beta == 0.0 {
            continue; // zero eigenvalue (pure integrator) does not constrain h
        }
        if alpha >= 0.0 {
            // Undamped or unstable mode: no explicit step is strictly stable.
            return Some((0.0, (alpha, beta)));
        }
        if abk_mode_is_stable(order, h_min * alpha, h_min * beta) {
            continue; // this mode does not bind below the current minimum
        }
        constrained = true;
        binding = (alpha, beta);
        let mut lo = 0.0_f64;
        let mut hi = h_min;
        for _ in 0..48 {
            let mid = 0.5 * (lo + hi);
            if abk_mode_is_stable(order, mid * alpha, mid * beta) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        h_min = lo;
    }
    constrained.then_some((h_min, binding))
}

fn validate_safety_and_cap(safety: f64, h_cap: f64) -> Result<(), OdeError> {
    if !(safety > 0.0 && safety <= 1.0) {
        return Err(OdeError::InvalidParameter(format!(
            "safety factor must be in (0, 1], got {safety}"
        )));
    }
    if !(h_cap > 0.0) || !h_cap.is_finite() {
        return Err(OdeError::InvalidParameter(format!(
            "step cap must be positive and finite, got {h_cap}"
        )));
    }
    Ok(())
}

/// Per-order stable-step limits of one linearisation point — the plan the
/// order/step governor selects from at every accepted step.
///
/// Computed once per relinearisation event by [`order_step_limits`] from a
/// *single* eigenvalue decomposition of the total-step matrix (the spectral
/// scan is shared across all four orders), then cached by the solver exactly
/// like the former AB2-only limit. Each entry is already derated by the
/// safety factor and clamped to the step cap, so a selection is a handful of
/// comparisons.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrderStepLimits {
    /// Largest stable step per order (index `k − 1`), safety-derated and
    /// capped; `0.0` marks an order with no stable step (or above
    /// `max_order`, so it is never selected).
    limits: [f64; MAX_ADAMS_BASHFORTH_ORDER],
    /// The binding eigenvalue `(Re λ, Im λ)` per order — the mode whose
    /// stability-boundary crossing set the limit. Only meaningful where
    /// `constrained` is set.
    binding: [[f64; 2]; MAX_ADAMS_BASHFORTH_ORDER],
    /// Whether any eigenmode actually constrained the order below the cap.
    constrained: [bool; MAX_ADAMS_BASHFORTH_ORDER],
    /// Highest order the plan was computed for.
    max_order: usize,
}

impl OrderStepLimits {
    /// Decomposes the plan into its raw parts — `(limits, binding modes,
    /// constrained flags, max order)` — for checkpoint serialisation. The
    /// plan is pure derived data of one linearisation point, but the solver
    /// caches it across steps, so a bit-identical resume must carry the
    /// cached copy rather than recompute it at a different point.
    pub fn to_raw(
        &self,
    ) -> (
        [f64; MAX_ADAMS_BASHFORTH_ORDER],
        [[f64; 2]; MAX_ADAMS_BASHFORTH_ORDER],
        [bool; MAX_ADAMS_BASHFORTH_ORDER],
        usize,
    ) {
        (self.limits, self.binding, self.constrained, self.max_order)
    }

    /// Rebuilds a plan from [`OrderStepLimits::to_raw`] parts.
    ///
    /// # Errors
    ///
    /// Rejects a `max_order` outside `1..=MAX_ADAMS_BASHFORTH_ORDER` and
    /// non-finite or negative step limits (symptoms of a corrupt checkpoint,
    /// which must surface as a typed error rather than poison the governor).
    pub fn from_raw(
        limits: [f64; MAX_ADAMS_BASHFORTH_ORDER],
        binding: [[f64; 2]; MAX_ADAMS_BASHFORTH_ORDER],
        constrained: [bool; MAX_ADAMS_BASHFORTH_ORDER],
        max_order: usize,
    ) -> Result<Self, OdeError> {
        if max_order == 0 || max_order > MAX_ADAMS_BASHFORTH_ORDER {
            return Err(OdeError::InvalidParameter(format!(
                "adams-bashforth order must be 1..={MAX_ADAMS_BASHFORTH_ORDER}, got {max_order}"
            )));
        }
        if limits.iter().any(|h| !h.is_finite() || *h < 0.0) {
            return Err(OdeError::InvalidParameter(
                "stable-step limits must be finite and non-negative".into(),
            ));
        }
        Ok(OrderStepLimits { limits, binding, constrained, max_order })
    }

    /// The stable-step limit for `order` (safety-derated, capped at the plan's
    /// step cap; `0.0` when the order has no stable step or was not planned).
    ///
    /// # Panics
    ///
    /// Panics if `order` is outside `1..=MAX_ADAMS_BASHFORTH_ORDER`.
    pub fn limit(&self, order: usize) -> f64 {
        self.limits[order - 1]
    }

    /// Highest order this plan was computed for.
    pub fn max_order(&self) -> usize {
        self.max_order
    }

    /// The binding eigenvalue `(Re λ, Im λ)` for `order` — the mode whose
    /// stability-boundary crossing set [`OrderStepLimits::limit`] — or `None`
    /// when no mode constrained the order below the step cap. This is how the
    /// benchmark records make the march's bottleneck attributable: after the
    /// stiff rail pole moves to the exact exponential lane, the binding mode
    /// reported here must be a *physical* pole, not the −4.1·10⁴ s⁻¹
    /// regularisation artifact.
    ///
    /// # Panics
    ///
    /// Panics if `order` is outside `1..=MAX_ADAMS_BASHFORTH_ORDER`.
    pub fn binding_mode(&self, order: usize) -> Option<(f64, f64)> {
        self.constrained[order - 1]
            .then(|| (self.binding[order - 1][0], self.binding[order - 1][1]))
    }

    /// Picks the `(order, step limit)` pair maximising the step among the
    /// orders admissible with `available_history` derivative samples, the
    /// governor policy of the order-adaptive march:
    ///
    /// * an order is admissible only when the history ring holds enough
    ///   derivatives for it (after a load-mode switch or a Jacobian
    ///   discontinuity truncates the ring, the governor falls back to
    ///   AB1/AB2 automatically and regrows);
    /// * order 1 is selected only when the history forces it — its real-axis
    ///   interval is the widest of the family, but trading the multi-step
    ///   accuracy for raw step size would undermine the Eq. 3 error control
    ///   the paper builds on;
    /// * ties prefer the higher order (same step, better accuracy).
    fn select(&self, available_history: usize) -> (usize, f64) {
        let avail = available_history.clamp(1, self.max_order);
        if avail == 1 {
            return (1, self.limits[0]);
        }
        let mut best = (2, self.limits[1]);
        for order in 3..=avail {
            let limit = self.limits[order - 1];
            if limit >= best.1 {
                best = (order, limit);
            }
        }
        best
    }

    /// Picks the `(order, step limit)` pair for the step the caller is about
    /// to take, among the orders admissible with `available_history`
    /// derivative samples — the governor policy of the order-adaptive march.
    /// When `h_target` (the growth-, cap- or span-end-limited candidate step)
    /// already fits inside a higher order's region, that order is free
    /// accuracy at the same step, so the highest covering order ≥ 2 wins;
    /// only when no admissible order covers the target does the selection
    /// fall back to the order maximising the stable step (ties prefer the
    /// higher order). After a load-mode switch or a Jacobian discontinuity
    /// truncates the history, the admissible orders shrink and regrow. Order 1
    /// is reserved for the single-sample bootstrap — trading the multi-step
    /// accuracy for its wider forward-Euler interval is never worth one step
    /// of ~30 % extra length.
    pub fn select_for_target(&self, available_history: usize, h_target: f64) -> (usize, f64) {
        let avail = available_history.clamp(1, self.max_order);
        if avail >= 2 {
            for order in (2..=avail).rev() {
                let limit = self.limits[order - 1];
                if limit >= h_target {
                    return (order, limit);
                }
            }
        }
        self.select(avail)
    }
}

/// Computes the per-order exact stability limits for Adams–Bashforth orders
/// `1..=max_order` on the eigenmodes of `a`, sharing one eigenvalue
/// decomposition across all orders (the governor's spectral scan costs no
/// more matrix work than the former single-order check).
///
/// Unconstrained orders are reported at `h_cap`; an undamped/unstable
/// eigenmode zeroes every order.
///
/// Two approximations are priced in and absorbed by the caller's safety
/// factor (both inherited from the AB2-only predecessor): the region along a
/// ray is assumed to be an interval (the bisection finds *a* boundary
/// crossing), and the characteristic polynomial is the **uniform-grid** one,
/// while the march may take growing steps whose variable-step coefficients
/// shrink the true region somewhat (step ratios are bounded by the solver's
/// 1.5× growth cap, and the governor only selects the thin order-3/4 regions
/// for steps their limit already covers).
///
/// # Errors
///
/// Rejects invalid `max_order`/`safety`/`h_cap` and propagates eigenvalue
/// failures.
pub fn order_step_limits(
    a: &DMatrix,
    safety: f64,
    h_cap: f64,
    max_order: usize,
) -> Result<OrderStepLimits, OdeError> {
    if max_order == 0 || max_order > MAX_ADAMS_BASHFORTH_ORDER {
        return Err(OdeError::InvalidParameter(format!(
            "adams-bashforth order must be 1..={MAX_ADAMS_BASHFORTH_ORDER}, got {max_order}"
        )));
    }
    validate_safety_and_cap(safety, h_cap)?;
    let eigs = eigen::eigenvalues(a)?;
    let mut limits = [0.0_f64; MAX_ADAMS_BASHFORTH_ORDER];
    let mut binding = [[0.0_f64; 2]; MAX_ADAMS_BASHFORTH_ORDER];
    let mut constrained = [false; MAX_ADAMS_BASHFORTH_ORDER];
    for order in 1..=max_order {
        limits[order - 1] = match min_ray_limit(&eigs, order, h_cap) {
            Some((h, mode)) => {
                binding[order - 1] = [mode.0, mode.1];
                constrained[order - 1] = true;
                (safety * h).min(h_cap)
            }
            None => h_cap,
        };
    }
    Ok(OrderStepLimits { limits, binding, constrained, max_order })
}

/// Largest step `h ≤ h_cap` for which the order-`order` Adams–Bashforth
/// formula is stable on *every* eigenmode of `a`, through the exact
/// per-eigenvalue boundary-locus scan of `min_ray_limit`: the single-order
/// reference the tests check [`order_step_limits`] against.
///
/// Returns `None` when no eigenvalue constrains the step below `h_cap` and
/// `Some(0.0)` when an undamped/unstable mode admits no stable explicit step.
///
/// # Errors
///
/// Rejects invalid `order`/`safety`/`h_cap` and propagates eigenvalue
/// failures.
#[cfg(test)]
fn abk_max_stable_step(
    a: &DMatrix,
    order: usize,
    safety: f64,
    h_cap: f64,
) -> Result<Option<f64>, OdeError> {
    if order == 0 || order > MAX_ADAMS_BASHFORTH_ORDER {
        return Err(OdeError::InvalidParameter(format!(
            "adams-bashforth order must be 1..={MAX_ADAMS_BASHFORTH_ORDER}, got {order}"
        )));
    }
    validate_safety_and_cap(safety, h_cap)?;
    let eigs = eigen::eigenvalues(a)?;
    Ok(min_ray_limit(&eigs, order, h_cap).map(|(h, _)| safety * h))
}

#[cfg(test)]
mod tests {
    use super::*;
    use harvsim_linalg::DVector;

    fn damped_oscillator(omega: f64, zeta: f64) -> DMatrix {
        DMatrix::from_rows(&[&[0.0, 1.0], &[-omega * omega, -2.0 * zeta * omega]]).unwrap()
    }

    #[test]
    fn fixed_step_returns_none() {
        let a = DMatrix::identity(2);
        assert_eq!(max_stable_step(&a, StabilityRule::FixedStep).unwrap(), None);
        assert_eq!(StabilityRule::FixedStep.name(), "fixed-step");
    }

    #[test]
    fn spectral_rule_on_diagonal_decay() {
        let a = DMatrix::from_diagonal(&DVector::from_slice(&[-100.0, -10.0]));
        let h =
            max_stable_step(&a, StabilityRule::SpectralRadius { safety: 1.0 }).unwrap().unwrap();
        assert!((h - 0.02).abs() < 1e-9);
        assert!(eigen::explicit_step_is_stable(&a, 0.9 * h).unwrap());
        assert!(!eigen::explicit_step_is_stable(&a, 1.1 * h).unwrap());
    }

    #[test]
    fn spectral_rule_on_oscillator() {
        // 70 Hz, 1% damping: the stability limit is ~2ζ/ω — far below the
        // period, which is why the paper's fine sub-millisecond steps matter.
        let omega = 2.0 * std::f64::consts::PI * 70.0;
        let zeta = 0.01;
        let a = damped_oscillator(omega, zeta);
        let h =
            max_stable_step(&a, StabilityRule::SpectralRadius { safety: 1.0 }).unwrap().unwrap();
        let expected = 2.0 * zeta / omega; // -2α/|λ|² with α = -ζω, |λ| = ω
        assert!((h - expected).abs() < 0.05 * expected, "h = {h}, expected ≈ {expected}");
        assert!(eigen::explicit_step_is_stable(&a, 0.9 * h).unwrap());
    }

    #[test]
    fn undamped_mode_gives_zero_step() {
        let a = damped_oscillator(10.0, 0.0);
        let h =
            max_stable_step(&a, StabilityRule::SpectralRadius { safety: 0.9 }).unwrap().unwrap();
        assert_eq!(h, 0.0);
    }

    #[test]
    fn dominance_rule_delegates_to_linalg() {
        let a = DMatrix::from_diagonal(&DVector::from_slice(&[-50.0, -200.0]));
        let h =
            max_stable_step(&a, StabilityRule::DiagonalDominance { safety: 1.0 }).unwrap().unwrap();
        assert!((h - 0.01).abs() < 1e-12);
        // Oscillator matrix has a zero diagonal entry -> heuristic cannot bound it.
        let osc = damped_oscillator(10.0, 0.1);
        assert_eq!(
            max_stable_step(&osc, StabilityRule::DiagonalDominance { safety: 0.9 }).unwrap(),
            None
        );
    }

    #[test]
    fn dominance_is_never_less_conservative_than_spectral() {
        let a =
            DMatrix::from_rows(&[&[-300.0, 20.0, 0.0], &[10.0, -150.0, 5.0], &[0.0, 2.0, -800.0]])
                .unwrap();
        let dom =
            max_stable_step(&a, StabilityRule::DiagonalDominance { safety: 1.0 }).unwrap().unwrap();
        let spec =
            max_stable_step(&a, StabilityRule::SpectralRadius { safety: 1.0 }).unwrap().unwrap();
        assert!(dom <= spec * (1.0 + 1e-9), "dominance {dom} vs spectral {spec}");
    }

    #[test]
    fn ab2_limit_reproduces_the_real_axis_interval() {
        // Pure relaxation poles: AB2 is stable for h·|λ| < 1, so the slowest…
        // fastest pole at −500 binds the step at 1/500 = 2 ms.
        let a = DMatrix::from_diagonal(&DVector::from_slice(&[-100.0, -500.0]));
        let h = abk_max_stable_step(&a, 2, 1.0, 1.0).unwrap().unwrap();
        assert!((h - 1.0 / 500.0).abs() < 1e-6, "h = {h}");
        // Nothing binds below a small cap.
        assert_eq!(abk_max_stable_step(&a, 2, 1.0, 1e-4).unwrap(), None);
    }

    #[test]
    fn ab2_limit_beats_the_forward_euler_derate_on_oscillatory_modes() {
        // 70 Hz, lightly damped: the FE criterion gives h < 2ζ/ω ≈ 23 µs,
        // while the true AB2 region admits an order of magnitude more.
        let omega = 2.0 * std::f64::consts::PI * 70.0;
        let zeta = 0.005;
        let a = damped_oscillator(omega, zeta);
        let fe =
            max_stable_step(&a, StabilityRule::SpectralRadius { safety: 1.0 }).unwrap().unwrap();
        let ab2 = abk_max_stable_step(&a, 2, 1.0, 1.0).unwrap().unwrap();
        assert!(ab2 > 5.0 * fe, "AB2 limit {ab2} vs FE limit {fe}");
        // The claimed limit is genuinely stable and ~2× beyond it is not:
        // march the 2-step recurrence directly on the eigenmode.
        let eigs = harvsim_linalg::eigen::eigenvalues(&a).unwrap();
        let lambda = eigs.iter().find(|e| e.im > 0.0).unwrap();
        let marches = |h: f64| {
            // x_{n+1} = x_n + h·(1.5·λx_n − 0.5·λx_{n-1}) on the scalar mode.
            let (lr, li) = (lambda.re * h, lambda.im * h);
            let mut prev = (1.0_f64, 0.0_f64);
            let mut cur = (1.0 + lr, li); // one Euler step to start
            for _ in 0..20_000 {
                let fx = (1.5 * (lr * cur.0 - li * cur.1), 1.5 * (lr * cur.1 + li * cur.0));
                let fp = (0.5 * (lr * prev.0 - li * prev.1), 0.5 * (lr * prev.1 + li * prev.0));
                let next = (cur.0 + fx.0 - fp.0, cur.1 + fx.1 - fp.1);
                prev = cur;
                cur = next;
                if !(cur.0.is_finite() && cur.1.is_finite()) {
                    return f64::INFINITY;
                }
            }
            (cur.0 * cur.0 + cur.1 * cur.1).sqrt()
        };
        assert!(marches(0.9 * ab2) < 1.0, "below the limit the mode must decay");
        assert!(marches(2.5 * ab2) > 1e3, "far above the limit the mode must grow");
    }

    #[test]
    fn ab2_limit_flags_undamped_modes_and_bad_inputs() {
        let a = damped_oscillator(10.0, 0.0);
        assert_eq!(abk_max_stable_step(&a, 2, 0.9, 1.0).unwrap(), Some(0.0));
        let i = DMatrix::identity(2);
        assert!(abk_max_stable_step(&i, 2, 0.0, 1.0).is_err());
        assert!(abk_max_stable_step(&i, 2, 0.5, 0.0).is_err());
        // A zero matrix constrains nothing.
        assert_eq!(abk_max_stable_step(&DMatrix::zeros(2, 2), 2, 1.0, 1.0).unwrap(), None);
    }

    #[test]
    fn invalid_safety_rejected() {
        let a = DMatrix::identity(2);
        assert!(max_stable_step(&a, StabilityRule::SpectralRadius { safety: 0.0 }).is_err());
        assert!(max_stable_step(&a, StabilityRule::DiagonalDominance { safety: 2.0 }).is_err());
    }

    #[test]
    fn default_rule_is_diagonal_dominance() {
        assert!(matches!(StabilityRule::default(), StabilityRule::DiagonalDominance { .. }));
        assert_eq!(StabilityRule::default().name(), "diagonal-dominance");
    }

    /// Marches the scalar `k`-step recurrence `x_{n+1} = x_n + μ·Σ b_i·x_{n−i}`
    /// directly and returns the final magnitude (`∞` on overflow). The first
    /// `k − 1` points are bootstrapped with forward Euler, which excites every
    /// characteristic root.
    pub(crate) fn march_mode(order: usize, mu_re: f64, mu_im: f64, steps: usize) -> f64 {
        let b = ab_uniform_coefficients(order);
        let mu = (mu_re, mu_im);
        let mut xs: Vec<(f64, f64)> = vec![(1.0, 0.0)];
        for _ in 1..order {
            let last = *xs.last().unwrap();
            let f = cmul(mu, last);
            xs.push((last.0 + f.0, last.1 + f.1));
        }
        for _ in 0..steps {
            let n = xs.len();
            let mut next = xs[n - 1];
            for (i, &bi) in b.iter().enumerate() {
                let f = cmul(mu, xs[n - 1 - i]);
                next.0 += bi * f.0;
                next.1 += bi * f.1;
            }
            if !(next.0.is_finite() && next.1.is_finite()) {
                return f64::INFINITY;
            }
            xs.push(next);
            if xs.len() > 2 * MAX_ADAMS_BASHFORTH_ORDER {
                xs.drain(..MAX_ADAMS_BASHFORTH_ORDER);
            }
        }
        let last = *xs.last().unwrap();
        (last.0 * last.0 + last.1 * last.1).sqrt()
    }

    #[test]
    fn ab3_ab4_limits_reproduce_the_real_axis_intervals() {
        // Pure relaxation pole at −500: the classic real-axis stability
        // intervals are (0, 6/11) for AB3 and (0, ≈0.3) for AB4.
        let a = DMatrix::from_diagonal(&DVector::from_slice(&[-500.0]));
        let ab3 = abk_max_stable_step(&a, 3, 1.0, 1.0).unwrap().unwrap();
        assert!((ab3 * 500.0 - 6.0 / 11.0).abs() < 1e-3, "AB3 interval {}", ab3 * 500.0);
        let ab4 = abk_max_stable_step(&a, 4, 1.0, 1.0).unwrap().unwrap();
        assert!((ab4 * 500.0 - 0.3).abs() < 5e-3, "AB4 interval {}", ab4 * 500.0);
        // AB1 is forward Euler: interval (0, 2).
        let ab1 = abk_max_stable_step(&a, 1, 1.0, 1.0).unwrap().unwrap();
        assert!((ab1 * 500.0 - 2.0).abs() < 1e-6, "AB1 interval {}", ab1 * 500.0);
    }

    #[test]
    fn ab3_admits_larger_steps_than_ab2_on_the_lightly_damped_pole() {
        // The harvester's binding mode in sleep: 70 Hz, very light damping.
        // AB2's region is tangent to the imaginary axis at the origin, while
        // AB3's includes an imaginary-axis segment (|μ| ≲ 0.72), so along a
        // near-imaginary ray AB3 wins by a wide margin — the effect the
        // order/step governor exploits.
        let omega = 2.0 * std::f64::consts::PI * 70.0;
        let a = damped_oscillator(omega, 0.005);
        let ab2 = abk_max_stable_step(&a, 2, 1.0, 1.0).unwrap().unwrap();
        let ab3 = abk_max_stable_step(&a, 3, 1.0, 1.0).unwrap().unwrap();
        assert!(ab3 > 2.0 * ab2, "AB3 {ab3} vs AB2 {ab2}");
        assert!(ab3 * omega < 0.8, "AB3 limit must stay below the imaginary-axis crossing");
        // The claimed limit is genuinely stable and beyond it is not, by
        // marching the recurrence on the eigenmode directly.
        let eigs = harvsim_linalg::eigen::eigenvalues(&a).unwrap();
        let lambda = eigs.iter().find(|e| e.im > 0.0).unwrap();
        let below = march_mode(3, 0.9 * ab3 * lambda.re, 0.9 * ab3 * lambda.im, 40_000);
        assert!(below < 1.0, "below the limit the mode must decay, got {below}");
        let above = march_mode(3, 2.5 * ab3 * lambda.re, 2.5 * ab3 * lambda.im, 40_000);
        assert!(above > 1e3, "far above the limit the mode must grow, got {above}");
    }

    #[test]
    fn order_step_limits_plan_matches_the_single_order_scans() {
        let omega = 2.0 * std::f64::consts::PI * 70.0;
        let a = damped_oscillator(omega, 0.01);
        let plan = order_step_limits(&a, 0.8, 1.0, 4).unwrap();
        assert_eq!(plan.max_order(), 4);
        for order in 1..=4 {
            let standalone =
                abk_max_stable_step(&a, order, 0.8, 1.0).unwrap().unwrap_or(1.0).min(1.0);
            let planned = plan.limit(order);
            assert!(
                (planned - standalone).abs() <= 1e-12 * standalone.max(1.0),
                "order {order}: plan {planned} vs standalone {standalone}"
            );
        }
    }

    #[test]
    fn governor_select_maximises_the_step_and_respects_history() {
        let omega = 2.0 * std::f64::consts::PI * 70.0;
        let plan = order_step_limits(&damped_oscillator(omega, 0.005), 0.8, 1.0, 4).unwrap();
        // With one history sample only forward Euler is admissible.
        let (order, h) = plan.select(1);
        assert_eq!(order, 1);
        assert_eq!(h, plan.limit(1));
        // With a full ring the governor picks the order with the largest
        // limit — order ≥ 3 on this lightly damped pole.
        let (order, h) = plan.select(4);
        assert!(order >= 3, "selected order {order}");
        assert_eq!(h, plan.limit(order));
        assert!(h >= plan.limit(2));
        assert!(h >= plan.limit(3).max(plan.limit(4)) - 1e-18);
        // Partial history caps the order.
        let (order, _) = plan.select(2);
        assert_eq!(order, 2);
        // Over-long history is clamped to the planned maximum.
        let (order, _) = plan.select(9);
        assert!(order <= 4);
    }

    #[test]
    fn binding_mode_names_the_pole_that_prices_the_step() {
        // A fast real relaxation pole next to a slow one: the fast pole must
        // be reported as the binding mode for every constrained order.
        let a = DMatrix::from_diagonal(&DVector::from_slice(&[-50.0, -40_000.0]));
        let plan = order_step_limits(&a, 1.0, 1.0, 4).unwrap();
        for order in 1..=4 {
            let (re, im) = plan.binding_mode(order).expect("fast pole constrains every order");
            assert!((re + 40_000.0).abs() < 1e-6, "order {order} binding Re = {re}");
            assert_eq!(im, 0.0);
        }
        // With the fast pole removed (the partitioned march's a_ff view) the
        // slow pole binds instead — or nothing does below a small cap.
        let slow = DMatrix::from_diagonal(&DVector::from_slice(&[-50.0]));
        let plan = order_step_limits(&slow, 1.0, 1.0, 4).unwrap();
        let (re, _) = plan.binding_mode(2).expect("slow pole constrains AB2 below a 1 s cap");
        assert!((re + 50.0).abs() < 1e-9);
        let capped = order_step_limits(&slow, 1.0, 1e-4, 4).unwrap();
        assert_eq!(capped.binding_mode(2), None, "an unconstrained order has no binding mode");
        assert_eq!(capped.limit(2), 1e-4);
    }

    #[test]
    fn order_step_limits_flags_undamped_modes_and_bad_inputs() {
        let undamped = damped_oscillator(10.0, 0.0);
        let plan = order_step_limits(&undamped, 0.9, 1.0, 4).unwrap();
        for order in 1..=4 {
            assert_eq!(plan.limit(order), 0.0);
        }
        let i = DMatrix::identity(2);
        assert!(order_step_limits(&i, 0.0, 1.0, 4).is_err());
        assert!(order_step_limits(&i, 0.5, 0.0, 4).is_err());
        assert!(order_step_limits(&i, 0.5, 1.0, 0).is_err());
        assert!(order_step_limits(&i, 0.5, 1.0, 5).is_err());
        assert!(abk_max_stable_step(&i, 0, 0.5, 1.0).is_err());
        assert!(abk_max_stable_step(&i, 5, 0.5, 1.0).is_err());
        // A zero matrix constrains nothing: every order reports the cap.
        let plan = order_step_limits(&DMatrix::zeros(2, 2), 1.0, 1.0, 4).unwrap();
        for order in 1..=4 {
            assert_eq!(plan.limit(order), 1.0);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use harvsim_linalg::DVector;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// For random stable oscillatory modes, the AB3/AB4 limits returned by
        /// the exact regions keep the brute-force amplification below one on a
        /// 2× oversampled scan of the boundary interval (16 samples against
        /// the 8 the coarse region sweep would need), and the mode grows well
        /// beyond the boundary.
        #[test]
        fn ab3_ab4_exact_limits_bound_the_amplification(
            omega in 20.0f64..400.0,
            zeta in 0.003f64..0.8,
            order in 3usize..=4,
        ) {
            let a = DMatrix::from_rows(&[
                &[0.0, 1.0],
                &[-omega * omega, -2.0 * zeta * omega],
            ]).unwrap();
            let limit = abk_max_stable_step(&a, order, 1.0, 1.0).unwrap().unwrap();
            prop_assert!(limit > 0.0);
            let eigs = harvsim_linalg::eigen::eigenvalues(&a).unwrap();
            let lambda = eigs.iter().find(|e| e.im > 0.0).expect("complex pair");
            // 2× oversampled interior scan: every sampled step inside the
            // returned region keeps the marched mode bounded, and the samples
            // in the lower half must contract outright.
            for sample in 1..=16 {
                let h = limit * (sample as f64 / 16.0) * 0.999;
                let magnitude = super::tests::march_mode(order, h * lambda.re, h * lambda.im, 30_000);
                prop_assert!(magnitude < 50.0,
                    "h = {h} ({sample}/16 of limit {limit}): |x| = {magnitude}");
                if sample <= 8 {
                    prop_assert!(magnitude < 1.0,
                        "h = {h} ({sample}/16 of limit {limit}) should contract, |x| = {magnitude}");
                }
            }
            let grown = super::tests::march_mode(
                order, 2.5 * limit * lambda.re, 2.5 * limit * lambda.im, 30_000);
            prop_assert!(grown > 1e3, "2.5× the limit must amplify, got {grown}");
        }

        /// For random stable relaxation matrices the planned per-order limits
        /// are consistent (AB1 widest on the real axis, AB4 narrowest) and the
        /// governor never selects an order with insufficient history.
        #[test]
        fn governor_plan_is_consistent_on_relaxation_spectra(
            p1 in 10.0f64..5000.0,
            p2 in 10.0f64..5000.0,
            avail in 0usize..8,
        ) {
            let a = DMatrix::from_diagonal(&DVector::from_slice(&[-p1, -p2]));
            let plan = order_step_limits(&a, 0.9, 1.0, 4).unwrap();
            // Real-axis intervals shrink with the order.
            prop_assert!(plan.limit(1) >= plan.limit(2));
            prop_assert!(plan.limit(2) >= plan.limit(3));
            prop_assert!(plan.limit(3) >= plan.limit(4));
            let (order, h) = plan.select(avail);
            prop_assert!((1..=4).contains(&order));
            prop_assert!(order <= avail.max(1), "order {order} with {avail} history samples");
            prop_assert_eq!(h, plan.limit(order));
        }
    }
}
