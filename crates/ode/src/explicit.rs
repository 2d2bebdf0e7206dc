//! Adams–Bashforth coefficients for the explicit march.
//!
//! The heart of the paper's acceleration is the replacement of the per-step
//! Newton–Raphson solve with an *explicit* multi-step formula: once the model
//! has been linearised and the terminal variables eliminated, the state update
//! of Eq. 5 is a handful of matrix–vector products. This module provides the
//! variable-step Adams–Bashforth coefficients of orders 1–4 that formula
//! needs; the `harvsim-core` march-in-time engine runs its own loop around
//! them because it re-linearises the model and adapts the step at every
//! point.

use crate::OdeError;

/// Maximum Adams–Bashforth order supported by this crate.
pub const MAX_ADAMS_BASHFORTH_ORDER: usize = 4;

/// Uniform-grid Adams–Bashforth coefficients `b_i` (newest first) for the
/// update `x_{n+1} = x_n + h·Σ b_i·f_{n−i}`, orders 1–4 — the closed forms
/// the variable-step quadrature of
/// [`adams_bashforth_coefficients_into`] reduces to on an equispaced history.
/// The partitioned march's settled rungs hit exactly this case, so its hot
/// loop reads these constants instead of re-running the quadrature.
///
/// # Panics
///
/// Panics if `order` is outside `1..=MAX_ADAMS_BASHFORTH_ORDER`.
pub fn adams_bashforth_uniform_coefficients(order: usize) -> &'static [f64] {
    match order {
        1 => &[1.0],
        2 => &[1.5, -0.5],
        3 => &[23.0 / 12.0, -16.0 / 12.0, 5.0 / 12.0],
        4 => &[55.0 / 24.0, -59.0 / 24.0, 37.0 / 24.0, -9.0 / 24.0],
        _ => panic!("adams-bashforth order must be 1..={MAX_ADAMS_BASHFORTH_ORDER}, got {order}"),
    }
}

/// Computes the variable-step Adams–Bashforth coefficients `β_i` for the update
///
/// `x_{n+1} = x_n + Σ_i β_i · f(t_{n-i}, x_{n-i})`
///
/// where `history_times = [t_n, t_{n-1}, …, t_{n-k+1}]` are the (strictly
/// decreasing) times of the `k` most recent derivative evaluations and
/// `h_next = t_{n+1} − t_n` is the step about to be taken. The coefficients are
/// the integrals over `[t_n, t_{n+1}]` of the Lagrange basis polynomials through
/// the history points, evaluated with Gauss–Legendre quadrature that is exact
/// for the polynomial degrees involved (`k ≤ 4`).
///
/// With a uniform history the coefficients reduce to the textbook constants,
/// e.g. `k = 2` gives `h·[3/2, −1/2]` and `k = 4` gives
/// `h·[55, −59, 37, −9]/24`.
///
/// This is the routine the paper's Eq. 5 needs when the step size varies from
/// point to point ("whose values are dependent on the varying step-size").
///
/// # Errors
///
/// Returns [`OdeError::InvalidParameter`] if the history is empty, longer than
/// [`MAX_ADAMS_BASHFORTH_ORDER`], not strictly decreasing, or `h_next ≤ 0`.
pub fn adams_bashforth_coefficients(
    history_times: &[f64],
    h_next: f64,
) -> Result<Vec<f64>, OdeError> {
    let mut coefficients = vec![0.0; history_times.len().min(MAX_ADAMS_BASHFORTH_ORDER)];
    adams_bashforth_coefficients_into(history_times, h_next, &mut coefficients, None)?;
    Ok(coefficients)
}

/// Allocation-free variant of [`adams_bashforth_coefficients`]: writes the `k`
/// coefficients into the first `k` entries of a caller-owned slice (typically a
/// stack array of length [`MAX_ADAMS_BASHFORTH_ORDER`]). This is the routine
/// the `harvsim-core` march-in-time loop calls every accepted step.
///
/// With `lower`, the same pass also writes the order-`k − 1` coefficients (those
/// of `history_times[..k − 1]`) into its first `k − 1` entries — the pair the
/// march's embedded error estimate differences. Each order-`k − 1` basis
/// product is an exact prefix of its order-`k` one, because the oldest point's
/// factor is multiplied last, so both sets are bit-identical to two separate
/// calls.
///
/// # Errors
///
/// Same failure modes as [`adams_bashforth_coefficients`], plus
/// [`OdeError::InvalidParameter`] if `out` is shorter than the history or
/// `lower` shorter than the history less one.
pub fn adams_bashforth_coefficients_into(
    history_times: &[f64],
    h_next: f64,
    out: &mut [f64],
    mut lower: Option<&mut [f64]>,
) -> Result<(), OdeError> {
    let k = history_times.len();
    if k == 0 || k > MAX_ADAMS_BASHFORTH_ORDER {
        return Err(OdeError::InvalidParameter(format!(
            "adams-bashforth history length must be 1..={MAX_ADAMS_BASHFORTH_ORDER}, got {k}"
        )));
    }
    if out.len() < k {
        return Err(OdeError::InvalidParameter(format!(
            "coefficient buffer holds {} entries but the history has {k}",
            out.len()
        )));
    }
    if let Some(lower) = lower.as_deref().filter(|lower| lower.len() < k - 1) {
        return Err(OdeError::InvalidParameter(format!(
            "lower-order coefficient buffer holds {} entries but needs {}",
            lower.len(),
            k - 1
        )));
    }
    if !(h_next > 0.0) || !h_next.is_finite() {
        return Err(OdeError::InvalidParameter(format!(
            "next step size must be positive, got {h_next}"
        )));
    }
    for w in history_times.windows(2) {
        if !(w[0] > w[1]) {
            return Err(OdeError::InvalidParameter(
                "history times must be strictly decreasing (most recent first)".to_string(),
            ));
        }
    }
    let t_n = history_times[0];
    let t_next = t_n + h_next;

    // 3-point Gauss–Legendre quadrature on [t_n, t_next]: exact for degree ≤ 5,
    // more than enough for the degree ≤ 3 Lagrange basis polynomials.
    let half = 0.5 * (t_next - t_n);
    let mid = 0.5 * (t_next + t_n);
    let sqrt35 = (3.0f64 / 5.0).sqrt();
    let nodes = [mid - half * sqrt35, mid, mid + half * sqrt35];
    let weights = [5.0 / 9.0 * half, 8.0 / 9.0 * half, 5.0 / 9.0 * half];

    for i in 0..k {
        let with_lower = lower.is_some() && i + 1 < k;
        // The Lagrange basis denominator Π_{j≠i}(t_i − t_j) does not depend on
        // the quadrature node, so it is inverted once per coefficient instead
        // of dividing inside the node loop (divisions dominate this routine's
        // cost on the per-step hot path).
        let (denominator, lower_denominator) = basis_products(history_times, i, history_times[i]);
        let inv_denominator = 1.0 / denominator;
        let inv_lower_denominator = if with_lower { 1.0 / lower_denominator } else { 0.0 };
        let (mut integral, mut lower_integral) = (0.0, 0.0);
        for (&node, weight) in nodes.iter().zip(weights.iter()) {
            // Lagrange basis polynomial L_i evaluated at the quadrature node.
            let (numerator, lower_numerator) = basis_products(history_times, i, node);
            integral += weight * (numerator * inv_denominator);
            lower_integral += weight * (lower_numerator * inv_lower_denominator);
        }
        out[i] = integral;
        if let Some(lower) = lower.as_deref_mut().filter(|_| with_lower) {
            lower[i] = lower_integral;
        }
    }
    Ok(())
}

/// `Π_{j≠i}(x − t_j)` over the whole history, and the same product without
/// the oldest point's factor: multiplied last, so the second is an exact
/// prefix of the first (for `i` the oldest point, both are the full product).
#[inline]
fn basis_products(times: &[f64], i: usize, x: f64) -> (f64, f64) {
    let oldest = times.len() - 1;
    let mut prefix = 1.0;
    for (j, &tj) in times[..oldest].iter().enumerate() {
        if j != i {
            prefix *= x - tj;
        }
    }
    let full = if i == oldest { prefix } else { prefix * (x - times[oldest]) };
    (full, prefix)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Final error at `t = 1` of a fixed-step march of `x' = −2x, x(0) = 1`
    /// with the order-`order` coefficients, the history bootstrapped from the
    /// exact solution.
    fn decay_error(order: usize, h: f64) -> f64 {
        let exact = |t: f64| (-2.0 * t).exp();
        let steps = (1.0 / h).round() as usize;
        // Newest first: (t_i, f(t_i, x_i)).
        let mut history: Vec<(f64, f64)> = (0..order)
            .rev()
            .map(|k| {
                let t = k as f64 * h;
                (t, -2.0 * exact(t))
            })
            .collect();
        let mut x = exact((order - 1) as f64 * h);
        for n in order - 1..steps {
            let times: Vec<f64> = history.iter().map(|(t, _)| *t).collect();
            let coefficients = adams_bashforth_coefficients(&times, h).unwrap();
            x += coefficients.iter().zip(&history).map(|(c, (_, f))| c * f).sum::<f64>();
            history.insert(0, ((n + 1) as f64 * h, -2.0 * x));
            history.truncate(order);
        }
        (x - exact(1.0)).abs()
    }

    #[test]
    fn adams_bashforth_orders_converge() {
        for (order, expected_ratio_min, expected_ratio_max) in
            [(1usize, 1.6, 2.4), (2, 3.2, 4.8), (3, 6.5, 9.8), (4, 12.0, 20.0)]
        {
            let ratio = decay_error(order, 0.02) / decay_error(order, 0.01);
            assert!(
                ratio > expected_ratio_min && ratio < expected_ratio_max,
                "AB{order} convergence ratio {ratio}"
            );
        }
    }

    /// AB1 is forward Euler: halving the step halves the error.
    #[test]
    fn forward_euler_converges_first_order() {
        let ratio = decay_error(1, 0.01) / decay_error(1, 0.005);
        assert!(ratio > 1.7 && ratio < 2.3, "order-1 ratio {ratio}");
    }

    /// Orders outside `1..=4` are refused by every entry point; an admissible
    /// order yields one coefficient per history entry.
    #[test]
    fn adams_bashforth_rejects_bad_order() {
        let mut out = [0.0; MAX_ADAMS_BASHFORTH_ORDER + 1];
        assert!(adams_bashforth_coefficients_into(&[], 0.1, &mut out, None).is_err());
        let five = [0.0, -0.1, -0.2, -0.3, -0.4];
        assert!(adams_bashforth_coefficients_into(&five, 0.1, &mut out, None).is_err());
        for order in [0, MAX_ADAMS_BASHFORTH_ORDER + 1] {
            assert!(
                std::panic::catch_unwind(|| adams_bashforth_uniform_coefficients(order)).is_err()
            );
        }
        for order in 1..=MAX_ADAMS_BASHFORTH_ORDER {
            assert_eq!(adams_bashforth_uniform_coefficients(order).len(), order);
            let times: Vec<f64> = (0..order).map(|i| -0.1 * i as f64).collect();
            assert_eq!(adams_bashforth_coefficients(&times, 0.1).unwrap().len(), order);
        }
    }

    /// AB4 over one period of `x'' = −x` from `(1, 0)`: the uniform-grid
    /// constants carry the bulk of the march and the variable-step
    /// coefficients shorten the last step to land exactly on `2π`.
    #[test]
    fn adams_bashforth_tracks_oscillator() {
        let h = 1e-3;
        let t_end = 2.0 * std::f64::consts::PI;
        let f = |x: [f64; 2]| [x[1], -x[0]];
        let exact = |t: f64| [t.cos(), -t.sin()];
        // Newest first: (t_i, f(x_i)), bootstrapped from the exact solution.
        let mut history: Vec<(f64, [f64; 2])> =
            (0..4).rev().map(|k| (k as f64 * h, f(exact(k as f64 * h)))).collect();
        let mut t = 3.0 * h;
        let mut x = exact(t);
        let uniform = adams_bashforth_uniform_coefficients(4);
        while t < t_end - 1e-12 {
            let step = h.min(t_end - t);
            let coefficients: Vec<f64> = if step < h {
                let times: Vec<f64> = history.iter().map(|(ti, _)| *ti).collect();
                adams_bashforth_coefficients(&times, step).unwrap()
            } else {
                uniform.iter().map(|b| b * h).collect()
            };
            for (c, (_, derivative)) in coefficients.iter().zip(&history) {
                x[0] += c * derivative[0];
                x[1] += c * derivative[1];
            }
            t += step;
            history.insert(0, (t, f(x)));
            history.truncate(4);
        }
        assert!((t - t_end).abs() < 1e-12);
        assert!((x[0] - 1.0).abs() < 1e-5, "x = {x:?}");
        assert!(x[1].abs() < 1e-5, "x = {x:?}");
    }

    #[test]
    fn uniform_coefficients_match_textbook_values() {
        let h = 0.1;
        // AB2 on a uniform grid: h * [3/2, -1/2].
        let c2 = adams_bashforth_coefficients(&[0.0, -h], h).unwrap();
        assert!((c2[0] - 1.5 * h).abs() < 1e-12);
        assert!((c2[1] + 0.5 * h).abs() < 1e-12);
        // AB3: h * [23/12, -16/12, 5/12].
        let c3 = adams_bashforth_coefficients(&[0.0, -h, -2.0 * h], h).unwrap();
        assert!((c3[0] - 23.0 / 12.0 * h).abs() < 1e-12);
        assert!((c3[1] + 16.0 / 12.0 * h).abs() < 1e-12);
        assert!((c3[2] - 5.0 / 12.0 * h).abs() < 1e-12);
        // AB4: h * [55, -59, 37, -9] / 24.
        let c4 = adams_bashforth_coefficients(&[0.0, -h, -2.0 * h, -3.0 * h], h).unwrap();
        for (computed, expected) in c4.iter().zip([55.0, -59.0, 37.0, -9.0]) {
            assert!((computed - expected / 24.0 * h).abs() < 1e-12);
        }
        // AB1 is forward Euler.
        let c1 = adams_bashforth_coefficients(&[0.0], h).unwrap();
        assert!((c1[0] - h).abs() < 1e-14);
    }

    #[test]
    fn variable_step_coefficients_sum_to_step() {
        // Consistency: for f ≡ const the update must advance by exactly h_next.
        let times = [0.0, -0.13, -0.21, -0.4];
        let h_next = 0.07;
        let c = adams_bashforth_coefficients(&times, h_next).unwrap();
        let sum: f64 = c.iter().sum();
        assert!((sum - h_next).abs() < 1e-12);
    }

    #[test]
    fn coefficient_validation() {
        assert!(adams_bashforth_coefficients(&[], 0.1).is_err());
        assert!(adams_bashforth_coefficients(&[0.0, 0.0], 0.1).is_err());
        assert!(adams_bashforth_coefficients(&[0.0, -0.1], -0.1).is_err());
        assert!(adams_bashforth_coefficients(&[0.0, -0.1, -0.2, -0.3, -0.4], 0.1).is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// For any admissible (decreasing) history and positive step, the
        /// coefficients must integrate the constant function exactly: Σβ = h.
        #[test]
        fn ab_coefficients_are_consistent(
            gaps in prop::collection::vec(1e-4f64..0.5, 1..=3),
            h_next in 1e-4f64..0.5,
        ) {
            let mut times = vec![0.0];
            for g in &gaps {
                let last = *times.last().expect("non-empty");
                times.push(last - g);
            }
            let c = adams_bashforth_coefficients(&times, h_next).unwrap();
            let sum: f64 = c.iter().sum();
            prop_assert!((sum - h_next).abs() < 1e-10 * h_next.max(1.0));
        }

        /// The coefficients must also integrate linear functions exactly:
        /// Σ β_i · t_i = ∫_{t_n}^{t_n + h} t dt  (for history length ≥ 2).
        #[test]
        fn ab_coefficients_integrate_linear_functions(
            gaps in prop::collection::vec(1e-4f64..0.5, 1..=3),
            h_next in 1e-4f64..0.5,
        ) {
            let mut times = vec![0.0];
            for g in &gaps {
                let last = *times.last().expect("non-empty");
                times.push(last - g);
            }
            let c = adams_bashforth_coefficients(&times, h_next).unwrap();
            let weighted: f64 = c.iter().zip(&times).map(|(ci, ti)| ci * ti).sum();
            let exact = 0.5 * h_next * h_next; // ∫_0^h t dt with t_n = 0
            prop_assert!((weighted - exact).abs() < 1e-10);
        }

        /// The lower-order set a call fills alongside is bit for bit the one
        /// a separate call on the shortened history returns, and the main
        /// set is bit for bit the straightforward quadrature — on random,
        /// exactly uniform and 1e-12-perturbed uniform histories.
        #[test]
        fn coefficient_pair_matches_separate_calls_bit_for_bit(
            order in 1usize..=MAX_ADAMS_BASHFORTH_ORDER,
            shape in 0usize..3,
            exponents in prop::collection::vec(-6.0f64..-0.3, MAX_ADAMS_BASHFORTH_ORDER),
            wiggles in prop::collection::vec(-1.0f64..1.0, MAX_ADAMS_BASHFORTH_ORDER),
            t_n in 0.0f64..8.0,
            h_exponent in -6.0f64..-0.3,
        ) {
            let h_next = 10f64.powf(h_exponent);
            let times = history(order, shape, &exponents, &wiggles, t_n, h_next);
            let mut single = [f64::NAN; MAX_ADAMS_BASHFORTH_ORDER];
            adams_bashforth_coefficients_into(&times, h_next, &mut single, None).unwrap();
            let reference = reference_coefficients(&times, h_next);
            prop_assert_eq!(bits(&single[..order]), bits(&reference));

            let (mut high, mut lower) =
                ([f64::NAN; MAX_ADAMS_BASHFORTH_ORDER], [f64::NAN; MAX_ADAMS_BASHFORTH_ORDER]);
            adams_bashforth_coefficients_into(&times, h_next, &mut high, Some(&mut lower))
                .unwrap();
            prop_assert_eq!(bits(&high), bits(&single));
            if order >= 2 {
                let mut separate = [f64::NAN; MAX_ADAMS_BASHFORTH_ORDER];
                adams_bashforth_coefficients_into(&times[..order - 1], h_next, &mut separate, None)
                    .unwrap();
                prop_assert_eq!(bits(&lower), bits(&separate));
            } else {
                prop_assert_eq!(bits(&lower), bits(&[f64::NAN; MAX_ADAMS_BASHFORTH_ORDER]));
            }
        }

        /// Asking for the lower-order set changes no error case: every
        /// malformed history, step or buffer fails the same way with and
        /// without it, and only a lower buffer too short for it adds one.
        #[test]
        fn coefficient_pair_keeps_the_error_cases(
            order in 1usize..=MAX_ADAMS_BASHFORTH_ORDER,
            defect in 0usize..6,
            exponents in prop::collection::vec(-6.0f64..-0.3, MAX_ADAMS_BASHFORTH_ORDER),
            t_n in 0.0f64..8.0,
            h_exponent in -6.0f64..-0.3,
        ) {
            let mut h_next = 10f64.powf(h_exponent);
            let mut times = history(order, 0, &exponents, &[0.0; 4], t_n, h_next);
            let mut out_len = MAX_ADAMS_BASHFORTH_ORDER;
            match defect {
                0 => times.clear(),
                1 => times = (0..=MAX_ADAMS_BASHFORTH_ORDER).map(|i| t_n - i as f64).collect(),
                2 => times.push(*times.last().expect("non-empty")),
                3 => h_next = -h_next,
                4 => h_next = f64::INFINITY,
                _ => out_len = times.len() - 1,
            }
            let mut single = [0.0; MAX_ADAMS_BASHFORTH_ORDER];
            let (mut high, mut lower) = ([0.0; MAX_ADAMS_BASHFORTH_ORDER], [0.0; MAX_ADAMS_BASHFORTH_ORDER]);
            let alone = adams_bashforth_coefficients_into(&times, h_next, &mut single[..out_len], None);
            let paired = adams_bashforth_coefficients_into(
                &times,
                h_next,
                &mut high[..out_len],
                Some(&mut lower),
            );
            prop_assert!(alone.is_err(), "defect {} was accepted", defect);
            prop_assert_eq!(format!("{alone:?}"), format!("{paired:?}"));

            if order >= 2 {
                let valid = history(order, 0, &exponents, &[0.0; 4], t_n, 1e-3);
                let short = &mut lower[..order - 2];
                prop_assert!(
                    adams_bashforth_coefficients_into(&valid, 1e-3, &mut high, Some(short)).is_err()
                );
            }
        }
    }

    /// A strictly decreasing history of `order` times ending at `t_n`:
    /// random gaps (`shape` 0), gaps of exactly `h_next` (1), or those gaps
    /// perturbed by up to 1e-12 relative (2).
    fn history(
        order: usize,
        shape: usize,
        exponents: &[f64],
        wiggles: &[f64],
        t_n: f64,
        h_next: f64,
    ) -> Vec<f64> {
        let mut times = vec![t_n];
        for i in 1..order {
            let gap = match shape {
                0 => 10f64.powf(exponents[i]),
                1 => h_next,
                _ => h_next * (1.0 + 1e-12 * wiggles[i]),
            };
            times.push(times[i - 1] - gap);
        }
        times
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|value| value.to_bits()).collect()
    }

    /// The quadrature written out directly: each basis product in index
    /// order, one inverted denominator per coefficient.
    fn reference_coefficients(times: &[f64], h_next: f64) -> Vec<f64> {
        let t_n = times[0];
        let t_next = t_n + h_next;
        let half = 0.5 * (t_next - t_n);
        let mid = 0.5 * (t_next + t_n);
        let sqrt35 = (3.0f64 / 5.0).sqrt();
        let nodes = [mid - half * sqrt35, mid, mid + half * sqrt35];
        let weights = [5.0 / 9.0 * half, 8.0 / 9.0 * half, 5.0 / 9.0 * half];
        (0..times.len())
            .map(|i| {
                let mut denominator = 1.0;
                for (j, &tj) in times.iter().enumerate() {
                    if j != i {
                        denominator *= times[i] - tj;
                    }
                }
                let inv_denominator = 1.0 / denominator;
                let mut integral = 0.0;
                for (node, weight) in nodes.iter().zip(weights.iter()) {
                    let mut numerator = 1.0;
                    for (j, &tj) in times.iter().enumerate() {
                        if j != i {
                            numerator *= node - tj;
                        }
                    }
                    integral += weight * (numerator * inv_denominator);
                }
                integral
            })
            .collect()
    }
}
