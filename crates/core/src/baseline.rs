//! The Newton–Raphson baseline solver (the "existing technique" of the paper's
//! Tables I and II).
//!
//! The commercial simulators the paper measures — SystemVision (VHDL-AMS),
//! OrCAD PSPICE and a SystemC-A prototype — all share the same inner structure:
//! at every time step the complete nonlinear analogue system (differential
//! *and* algebraic equations together) is discretised with an implicit
//! integration formula and solved by Newton–Raphson iteration, which factorises
//! the full Jacobian one or more times per step. This module reproduces that
//! structure over the *same* assembled harvester model used by the proposed
//! technique, so speed and accuracy can be compared like-for-like:
//!
//! * unknowns per step: the next state `x_{n+1}` *and* the next terminal vector
//!   `y_{n+1}` (nothing is eliminated up front);
//! * residuals: the implicit integration formula for the states plus the
//!   algebraic constraints;
//! * inner loop: full-step Newton–Raphson with an `(N+M)×(N+M)` LU
//!   factorisation per iteration.

use std::time::Duration;

use harvsim_linalg::{DMatrix, DVector, LuDecomposition};

use crate::assembly::{AnalogueSystem, GlobalLinearisation};
use crate::checkpoint::{ByteReader, ByteWriter, CheckpointError};
use crate::probe::Probe;
use crate::solver::check_segment;
use crate::CoreError;

/// Implicit formula used by the baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselineMethod {
    /// First-order Backward Euler (the default of many SPICE engines).
    BackwardEuler,
    /// Second-order trapezoidal rule (the default of most VHDL-AMS solvers).
    Trapezoidal,
}

impl BaselineMethod {
    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            BaselineMethod::BackwardEuler => "backward-euler",
            BaselineMethod::Trapezoidal => "trapezoidal",
        }
    }
}

/// Options of the Newton–Raphson baseline.
///
/// The baseline always evaluates the harvester's nonlinear devices through
/// their *exact* physical equations (an `exp()` per diode per Newton
/// iteration), not the PWL companion tables: the commercial tools it stands
/// in for evaluate device equations exactly, and the lookup table is the
/// proposed technique's contribution — handing it to the baseline would let
/// the comparison race the technique against itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaselineOptions {
    /// Implicit integration formula.
    pub method: BaselineMethod,
    /// Fixed step size, in seconds. The baseline needs a step comparable to the
    /// proposed technique's to resolve the 70 Hz waveforms with similar
    /// accuracy — the cost difference is the per-step Newton iteration.
    pub step: f64,
    /// Newton residual tolerance.
    pub newton_tolerance: f64,
}

/// Newton iterations a baseline step may take before it fails with
/// `NewtonDidNotConverge`.
pub(crate) const MAX_NEWTON_ITERATIONS: usize = 30;

impl Default for BaselineOptions {
    fn default() -> Self {
        BaselineOptions { method: BaselineMethod::Trapezoidal, step: 5e-5, newton_tolerance: 1e-9 }
    }
}

impl BaselineOptions {
    /// Validates the option set.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfiguration`] for inconsistent values.
    pub fn validate(&self) -> Result<(), CoreError> {
        if !(self.step > 0.0) || !self.step.is_finite() {
            return Err(CoreError::InvalidConfiguration(format!(
                "baseline step must be positive, got {}",
                self.step
            )));
        }
        if !(self.newton_tolerance > 0.0) {
            return Err(CoreError::InvalidConfiguration(
                "newton tolerance must be positive".into(),
            ));
        }
        Ok(())
    }
}

/// Work statistics of a baseline run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BaselineStats {
    /// Accepted time steps.
    pub steps: usize,
    /// Total Newton iterations across all steps.
    pub newton_iterations: usize,
    /// Total `(N+M)×(N+M)` LU factorisations.
    pub factorisations: usize,
    /// Wall-clock time spent inside the solver.
    pub cpu_time: Duration,
}

impl BaselineStats {
    /// Merges another set of statistics into this one.
    pub fn absorb(&mut self, other: &BaselineStats) {
        self.steps += other.steps;
        self.newton_iterations += other.newton_iterations;
        self.factorisations += other.factorisations;
        self.cpu_time += other.cpu_time;
    }

    /// Serialises the counters into a checkpoint payload (`cpu_time` as
    /// nanoseconds; restored for billing continuity, excluded from
    /// bit-identity comparisons).
    pub(crate) fn encode(&self, w: &mut ByteWriter) {
        w.put_usize(self.steps);
        w.put_usize(self.newton_iterations);
        w.put_usize(self.factorisations);
        w.put_u64(self.cpu_time.as_nanos() as u64);
    }

    /// Inverse of [`BaselineStats::encode`].
    pub(crate) fn decode(r: &mut ByteReader<'_>) -> Result<Self, CheckpointError> {
        Ok(BaselineStats {
            steps: r.take_usize()?,
            newton_iterations: r.take_usize()?,
            factorisations: r.take_usize()?,
            cpu_time: Duration::from_nanos(r.take_u64()?),
        })
    }
}

/// Preallocated buffers for the baseline's Newton iteration. The baseline must
/// stay *honest* — it factorises the full `(N+M)×(N+M)` Jacobian at every
/// Newton iteration, exactly like the commercial tools it stands in for — but
/// it must not be artificially slowed by allocator noise either, or the
/// Table I/II comparison would measure `malloc` instead of linear algebra.
/// Every per-step and per-iteration temporary therefore lives here; the LU is
/// re-factorised through [`LuDecomposition::factor_into`], which reuses its
/// storage.
#[derive(Debug, Clone, Default)]
pub struct BaselineWorkspace {
    /// Linearisation at the accepted point `t` (for the θ-weighted explicit part).
    lin_now: GlobalLinearisation,
    /// Linearisation at the Newton iterate `(t_next, x_next, y_next)`.
    lin: GlobalLinearisation,
    /// Derivative at the accepted point.
    f_now: DVector,
    /// Derivative at the Newton iterate.
    f_next: DVector,
    /// Newton iterate for the next state.
    x_next: DVector,
    /// Newton iterate for the next terminal vector.
    y_next: DVector,
    /// Stacked residual `[states; constraints]`, length `N+M`.
    residual: DVector,
    /// Constraint-residual scratch, length `M`.
    constraint: DVector,
    /// Newton update, length `N+M`.
    delta: DVector,
    /// Full Newton Jacobian, `(N+M)×(N+M)`.
    jac: DMatrix,
    /// Reused LU storage (re-factorised every iteration).
    lu: Option<LuDecomposition>,
}

impl BaselineWorkspace {
    /// Creates an empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sizes every buffer for a system with `n` states and `m` nets, reusing
    /// existing storage when the dimensions already match.
    fn prepare(&mut self, n: usize, m: usize) {
        if self.lin.dimensions() != (n, m, m) || self.jac.rows() != n + m {
            self.lin_now = GlobalLinearisation::zeros(n, m, m);
            self.lin = GlobalLinearisation::zeros(n, m, m);
            self.f_now = DVector::zeros(n);
            self.f_next = DVector::zeros(n);
            self.x_next = DVector::zeros(n);
            self.y_next = DVector::zeros(m);
            self.residual = DVector::zeros(n + m);
            self.constraint = DVector::zeros(m);
            self.delta = DVector::zeros(n + m);
            self.jac = DMatrix::zeros(n + m, n + m);
        }
    }
}

/// The baseline's fixed-step implicit loop as a resumable state machine — the
/// Newton–Raphson mirror of [`crate::solver::StateSpaceMarch`], so a
/// [`crate::session::Session`] can pause and resume either engine at any
/// accepted-step boundary with bit-identical arithmetic. Every accepted point
/// goes straight to the session's probes.
#[derive(Debug)]
pub(crate) struct BaselineMarch {
    options: BaselineOptions,
    t_end: f64,
    t: f64,
    x: DVector,
    y: DVector,
    theta: f64,
    stats: BaselineStats,
}

impl BaselineMarch {
    /// Validates the span, prepares the workspace and solves the algebraic
    /// equations for consistent initial terminal values.
    ///
    /// # Errors
    ///
    /// Reports an empty span or an initial state of the wrong length, plus the
    /// failures of the initial terminal solve.
    pub(crate) fn begin(
        options: BaselineOptions,
        system: &dyn AnalogueSystem,
        t0: f64,
        t_end: f64,
        x0: &DVector,
        workspace: &mut BaselineWorkspace,
    ) -> Result<Self, CoreError> {
        check_segment(system, t0, t_end, x0)?;
        let n = system.state_count();
        let m = system.net_count();
        workspace.prepare(n, m);
        let theta = match options.method {
            BaselineMethod::BackwardEuler => 1.0,
            BaselineMethod::Trapezoidal => 0.5,
        };
        let x = x0.clone();
        // Consistent initial terminal values from the algebraic equations.
        let y = {
            workspace.y_next.fill(0.0);
            system.linearise_global_into(t0, &x, &workspace.y_next, &mut workspace.lin_now)?;
            workspace.lin_now.solve_terminals(&x)?
        };
        Ok(BaselineMarch { options, t_end, t: t0, x, y, theta, stats: BaselineStats::default() })
    }

    /// Serialises the march into a checkpoint payload. The baseline's
    /// workspace is pure per-step scratch (every buffer is rewritten before
    /// it is read), so the loop-carried state is just the march struct
    /// itself.
    pub(crate) fn encode(&self, w: &mut ByteWriter) {
        w.put_f64(self.t_end);
        w.put_f64(self.t);
        w.put_vector(&self.x);
        w.put_vector(&self.y);
        w.put_f64(self.theta);
        self.stats.encode(w);
    }

    /// Rebuilds a march serialised by [`BaselineMarch::encode`], preparing
    /// the workspace exactly as [`BaselineMarch::begin`] would.
    ///
    /// # Errors
    ///
    /// Typed [`CheckpointError`] (wrapped in [`CoreError::Checkpoint`]) on
    /// dimension mismatches against the system.
    pub(crate) fn decode(
        options: BaselineOptions,
        system: &dyn AnalogueSystem,
        workspace: &mut BaselineWorkspace,
        r: &mut ByteReader<'_>,
    ) -> Result<Self, CoreError> {
        let t_end = r.take_f64()?;
        let t = r.take_f64()?;
        let x = r.take_vector()?;
        let y = r.take_vector()?;
        let theta = r.take_f64()?;
        let stats = BaselineStats::decode(r)?;
        let n = system.state_count();
        let m = system.net_count();
        if x.len() != n || y.len() != m {
            return Err(crate::checkpoint::malformed(format!(
                "saved baseline march has {}/{} state/terminal entries, the system has {n}/{m}",
                x.len(),
                y.len()
            ))
            .into());
        }
        workspace.prepare(n, m);
        Ok(BaselineMarch { options, t_end, t, x, y, theta, stats })
    }

    /// Current integration time.
    pub(crate) fn time(&self) -> f64 {
        self.t
    }

    /// State at the current integration time (mid-segment view).
    pub(crate) fn state(&self) -> &DVector {
        &self.x
    }

    /// Work statistics accumulated so far in this segment (mid-segment view;
    /// `cpu_time` is tracked by the driver, not here).
    pub(crate) fn stats(&self) -> &BaselineStats {
        &self.stats
    }

    /// Whether the march has reached the span end.
    pub(crate) fn is_done(&self) -> bool {
        self.t >= self.t_end - 1e-12
    }

    /// Advances by one accepted implicit step, offering the pre-step point to
    /// every probe. Calling it on a finished march is a no-op.
    ///
    /// # Errors
    ///
    /// Reports Newton non-convergence, singular Jacobians and non-finite states.
    pub(crate) fn step(
        &mut self,
        system: &dyn AnalogueSystem,
        workspace: &mut BaselineWorkspace,
        probes: &mut [Box<dyn Probe>],
    ) -> Result<(), CoreError> {
        if self.is_done() {
            return Ok(());
        }
        let n = self.x.len();
        let m = self.y.len();
        let t = self.t;
        let theta = self.theta;
        for probe in probes.iter_mut() {
            probe.on_sample(t, &self.x, &self.y);
        }
        let h = self.options.step.min(self.t_end - t);
        let t_next = t + h;

        // Explicit part of the formula: θ-weighted derivative at (t, x, y).
        system.linearise_global_into(t, &self.x, &self.y, &mut workspace.lin_now)?;
        workspace.lin_now.state_derivative_into(&self.x, &self.y, &mut workspace.f_now);

        // Newton iteration on z = [x_next; y_next], initial guess = present values.
        workspace.x_next.copy_from(&self.x);
        workspace.y_next.copy_from(&self.y);
        let x = &self.x;
        let mut converged = false;
        for _iteration in 0..MAX_NEWTON_ITERATIONS {
            self.stats.newton_iterations += 1;
            system.linearise_global_into(
                t_next,
                &workspace.x_next,
                &workspace.y_next,
                &mut workspace.lin,
            )?;
            let ws = &mut *workspace;
            ws.lin.state_derivative_into(&ws.x_next, &ws.y_next, &mut ws.f_next);

            // Residuals.
            for i in 0..n {
                ws.residual[i] =
                    ws.x_next[i] - x[i] - h * (theta * ws.f_next[i] + (1.0 - theta) * ws.f_now[i]);
            }
            ws.lin.jyx.mul_vector_into(&ws.x_next, &mut ws.constraint);
            ws.lin.jyy.mul_vector_add_into(&ws.y_next, &mut ws.constraint);
            ws.constraint += &ws.lin.gy;
            for j in 0..m {
                ws.residual[n + j] = ws.constraint[j];
            }
            if ws.residual.norm_inf() < self.options.newton_tolerance {
                converged = true;
                break;
            }

            // Jacobian of the residual, stamped block by block into the
            // preallocated (N+M)² buffer; the four loops below assign
            // every entry, so no clearing pass is needed.
            let ht = h * theta;
            for i in 0..n {
                for j in 0..n {
                    let identity = if i == j { 1.0 } else { 0.0 };
                    ws.jac[(i, j)] = identity - ht * ws.lin.jxx[(i, j)];
                }
                for j in 0..m {
                    ws.jac[(i, n + j)] = -ht * ws.lin.jxy[(i, j)];
                }
            }
            for i in 0..m {
                for j in 0..n {
                    ws.jac[(n + i, j)] = ws.lin.jyx[(i, j)];
                }
                for j in 0..m {
                    ws.jac[(n + i, n + j)] = ws.lin.jyy[(i, j)];
                }
            }

            // Honest per-iteration factorisation, but into reused storage.
            let factorised = match ws.lu.as_mut() {
                Some(lu) => lu.factor_into(&ws.jac),
                None => ws.jac.lu().map(|lu| {
                    ws.lu = Some(lu);
                }),
            };
            factorised.map_err(|err| {
                CoreError::IllPosedSystem(format!("baseline Newton Jacobian is singular: {err}"))
            })?;
            self.stats.factorisations += 1;
            let lu = ws.lu.as_ref().expect("factorised above");
            ws.residual.scale_mut(-1.0);
            lu.solve_into(&ws.residual, &mut ws.delta)?;
            for i in 0..n {
                ws.x_next[i] += ws.delta[i];
            }
            for j in 0..m {
                ws.y_next[j] += ws.delta[n + j];
            }
            if !ws.x_next.is_finite() || !ws.y_next.is_finite() {
                return Err(CoreError::Ode(harvsim_ode::OdeError::NonFiniteState { time: t_next }));
            }
        }
        if !converged {
            return Err(CoreError::Ode(harvsim_ode::OdeError::NewtonDidNotConverge {
                iterations: MAX_NEWTON_ITERATIONS,
                residual: f64::NAN,
            }));
        }

        self.x.copy_from(&workspace.x_next);
        self.y.copy_from(&workspace.y_next);
        self.t = t_next;
        self.stats.steps += 1;
        Ok(())
    }

    /// Completes the span: offers the forced `t_end` sample to every probe
    /// and returns the final state and the segment statistics (`cpu_time`
    /// left at zero — wall-clock accounting belongs to the session).
    pub(crate) fn finish(self, probes: &mut [Box<dyn Probe>]) -> (DVector, BaselineStats) {
        debug_assert!(self.is_done(), "finish() called with the span incomplete");
        for probe in probes.iter_mut() {
            probe.on_final_sample(self.t, &self.x, &self.y);
        }
        (self.x, self.stats)
    }
}

#[cfg(test)]
mod tests {
    use harvsim_ode::Trajectory;

    use super::*;
    use crate::assembly::GlobalLinearisation;
    use crate::probe::WaveformProbe;
    use crate::solver::tests::{capture, march};
    use crate::solver::{SolverOptions, SolverWorkspace};

    /// What a [`run`] over one span produced.
    struct BaselineRun {
        states: Trajectory,
        final_state: DVector,
        stats: BaselineStats,
    }

    /// Drives a [`BaselineMarch`] over `[t0, t_end]` the way a session does
    /// (begin, step until done, finish), captured by a dense
    /// [`WaveformProbe`].
    fn run(
        options: BaselineOptions,
        system: &dyn AnalogueSystem,
        t0: f64,
        t_end: f64,
        x0: &DVector,
    ) -> Result<BaselineRun, CoreError> {
        options.validate()?;
        let mut workspace = BaselineWorkspace::new();
        let mut probes: Vec<Box<dyn Probe>> = vec![Box::new(WaveformProbe::new(0.0))];
        let mut march = BaselineMarch::begin(options, system, t0, t_end, x0, &mut workspace)?;
        while !march.is_done() {
            march.step(system, &mut workspace, &mut probes)?;
        }
        let (final_state, stats) = march.finish(&mut probes);
        let (states, _) = capture(probes[0].as_ref());
        Ok(BaselineRun { states, final_state, stats })
    }

    /// Nonlinear single-state test system with one terminal:
    /// ẋ = (y − x)/τ, algebraic constraint y = V0 − α·y³ + 0 (a soft-limited source),
    /// expressed through its Jacobians at the linearisation point.
    struct SoftSource {
        tau: f64,
        v0: f64,
        alpha: f64,
    }

    impl AnalogueSystem for SoftSource {
        fn state_count(&self) -> usize {
            1
        }
        fn net_count(&self) -> usize {
            1
        }
        fn state_names(&self) -> Vec<String> {
            vec!["x".into()]
        }
        fn net_names(&self) -> Vec<String> {
            vec!["v".into()]
        }
        fn linearise_global(
            &self,
            _t: f64,
            _x: &DVector,
            y: &DVector,
        ) -> Result<GlobalLinearisation, CoreError> {
            let yv = y[0];
            // Constraint r(y) = y + α·y³ − V0 = 0, linearised at yv:
            // ∂r/∂y = 1 + 3αy², affine term g = r(yv) − (∂r/∂y)·yv.
            let slope = 1.0 + 3.0 * self.alpha * yv * yv;
            let residual_at = yv + self.alpha * yv.powi(3) - self.v0;
            Ok(GlobalLinearisation {
                jxx: DMatrix::from_rows(&[&[-1.0 / self.tau]]).unwrap(),
                jxy: DMatrix::from_rows(&[&[1.0 / self.tau]]).unwrap(),
                ex: DVector::zeros(1),
                jyx: DMatrix::zeros(1, 1),
                jyy: DMatrix::from_rows(&[&[slope]]).unwrap(),
                gy: DVector::from_slice(&[residual_at - slope * yv]),
            })
        }
    }

    #[test]
    fn option_validation() {
        assert!(BaselineOptions::default().validate().is_ok());
        assert!(BaselineOptions { step: 0.0, ..Default::default() }.validate().is_err());
        assert!(BaselineOptions { newton_tolerance: 0.0, ..Default::default() }
            .validate()
            .is_err());
        assert!(BaselineOptions { newton_tolerance: f64::NAN, ..Default::default() }
            .validate()
            .is_err());
        assert_eq!(BaselineMethod::BackwardEuler.name(), "backward-euler");
        assert_eq!(BaselineMethod::Trapezoidal.name(), "trapezoidal");
    }

    #[test]
    fn baseline_converges_on_a_nonlinear_system() {
        let system = SoftSource { tau: 1e-3, v0: 2.0, alpha: 0.1 };
        let options = BaselineOptions { step: 2e-5, ..Default::default() };
        let result = run(options, &system, 0.0, 0.02, &DVector::zeros(1)).unwrap();
        // Steady state: x = y where y + 0.1·y³ = 2  ⇒  y ≈ 1.5945.
        let y_expected = 1.5945;
        assert!((result.final_state[0] - y_expected).abs() < 5e-3, "{:?}", result.final_state);
        assert!(result.stats.newton_iterations >= result.stats.steps);
        assert!(result.stats.factorisations > 0);
    }

    #[test]
    fn baseline_and_state_space_engine_agree() {
        let system = SoftSource { tau: 1e-3, v0: 1.5, alpha: 0.05 };
        let x0 = DVector::zeros(1);
        let options = BaselineOptions { step: 2e-5, ..Default::default() };
        let proposed = SolverOptions { initial_step: 2e-6, max_step: 2e-5, ..Default::default() };
        let reference = run(options, &system, 0.0, 0.01, &x0).unwrap();
        let mut probes: Vec<Box<dyn Probe>> = vec![Box::new(WaveformProbe::new(0.0))];
        let mut workspace = SolverWorkspace::default();
        march(proposed, &system, 0.0, 0.01, &x0, &mut workspace, &mut probes).unwrap();
        let (fast, _) = capture(probes[0].as_ref());
        let deviation = fast.max_deviation(&reference.states, 0, 200).unwrap();
        // The bound is dominated by the trapezoidal baseline's own
        // discretisation error at its 20 µs grid, not by the state-space
        // engine: the governor's order-4 march lands ~13× closer to the exact
        // solution than the old order-2 default, which happened to track the
        // baseline's error more closely.
        assert!(deviation < 8e-3, "waveform deviation {deviation}");
    }

    #[test]
    fn backward_euler_variant_also_works() {
        let system = SoftSource { tau: 1e-3, v0: 1.0, alpha: 0.0 };
        let options = BaselineOptions {
            method: BaselineMethod::BackwardEuler,
            step: 1e-5,
            ..Default::default()
        };
        let result = run(options, &system, 0.0, 0.01, &DVector::zeros(1)).unwrap();
        assert!((result.final_state[0] - 1.0).abs() < 1e-3);
    }

    #[test]
    fn invalid_inputs_rejected_and_stats_absorb() {
        let system = SoftSource { tau: 1e-3, v0: 1.0, alpha: 0.0 };
        let options = BaselineOptions::default();
        assert!(run(options, &system, 1.0, 0.5, &DVector::zeros(1)).is_err());
        assert!(run(options, &system, 0.0, 1.0, &DVector::zeros(2)).is_err());
        let mut a = BaselineStats { steps: 1, ..Default::default() };
        a.absorb(&BaselineStats { steps: 2, newton_iterations: 3, ..Default::default() });
        assert_eq!(a.steps, 3);
        assert_eq!(a.newton_iterations, 3);
    }
}
