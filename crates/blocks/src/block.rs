//! The state-space block abstraction (Fig. 3 / Eqs. 1–2 of the paper).
//!
//! Each analogue component block is described locally by
//!
//! ```text
//! ẋ_b = A_b·x_b + B_b·y_b + e_b          (state equations)
//! 0   = C_b·x_b + D_b·y_b + g_b          (algebraic / terminal constraints)
//! ```
//!
//! where `x_b` are the block's state variables (energy-storage quantities:
//! displacement, velocity, inductor current, capacitor voltages) and `y_b` are
//! the terminal variables it shares with its neighbours (port voltages and
//! currents). For nonlinear blocks the matrices are the Jacobians of the
//! block's equations at the current operating point — the *local
//! linearisation* of Eq. 2 — and the affine terms `e_b`, `g_b` absorb the
//! excitations and the piecewise-linear companion sources.
//!
//! The assembler in `harvsim-core` stacks the per-block matrices into the
//! global system of Eq. 2, eliminates the terminal variables by solving the
//! algebraic part (Eq. 4) and hands the resulting explicit ODE to the
//! Adams–Bashforth march-in-time loop (Eq. 5).

use std::fmt;

use harvsim_linalg::{DMatrix, DVector};

/// Errors produced while constructing or validating block models.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum BlockError {
    /// A physical parameter was outside its valid range.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// The rejected value.
        value: f64,
        /// Human-readable constraint, e.g. "must be positive".
        constraint: &'static str,
    },
    /// A linearisation was requested at an inconsistent state/terminal size.
    DimensionMismatch {
        /// Name of the block reporting the problem.
        block: String,
        /// Expected (state, terminal) dimensions.
        expected: (usize, usize),
        /// Provided (state, terminal) dimensions.
        provided: (usize, usize),
    },
}

impl fmt::Display for BlockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockError::InvalidParameter { name, value, constraint } => {
                write!(f, "invalid parameter {name} = {value}: {constraint}")
            }
            BlockError::DimensionMismatch { block, expected, provided } => write!(
                f,
                "block {block}: expected {} states / {} terminals, got {} / {}",
                expected.0, expected.1, provided.0, provided.1
            ),
        }
    }
}

impl std::error::Error for BlockError {}

/// The local linearisation of a block at one time point (the per-block slice of
/// the paper's Eq. 2).
#[derive(Debug, Clone, PartialEq)]
pub struct LocalLinearisation {
    /// `∂f_x/∂x` — state-to-state Jacobian (`n × n`).
    pub a: DMatrix,
    /// `∂f_x/∂y` — terminal-to-state Jacobian (`n × m`).
    pub b: DMatrix,
    /// Affine term of the state equations (excitations plus companion-model
    /// current sources), length `n`.
    pub e: DVector,
    /// `∂f_y/∂x` — state part of the algebraic constraints (`k × n`).
    pub c: DMatrix,
    /// `∂f_y/∂y` — terminal part of the algebraic constraints (`k × m`).
    pub d: DMatrix,
    /// Affine term of the algebraic constraints, length `k`.
    pub g: DVector,
}

impl LocalLinearisation {
    /// Creates an all-zero linearisation for a block with `states` state
    /// variables, `terminals` terminal variables and `constraints` algebraic
    /// constraint rows — the preallocated buffer that
    /// [`StateSpaceBlock::linearise_into`] fills on the solver hot path.
    pub fn zeros(states: usize, terminals: usize, constraints: usize) -> Self {
        LocalLinearisation {
            a: DMatrix::zeros(states, states),
            b: DMatrix::zeros(states, terminals),
            e: DVector::zeros(states),
            c: DMatrix::zeros(constraints, states),
            d: DMatrix::zeros(constraints, terminals),
            g: DVector::zeros(constraints),
        }
    }

    /// Resets every matrix and vector to zero (without changing dimensions),
    /// so a reused buffer can be re-stamped from scratch.
    pub fn clear(&mut self) {
        self.a.fill(0.0);
        self.b.fill(0.0);
        self.e.fill(0.0);
        self.c.fill(0.0);
        self.d.fill(0.0);
        self.g.fill(0.0);
    }

    /// Number of state variables described by this linearisation.
    pub fn state_count(&self) -> usize {
        self.a.rows()
    }

    /// Number of terminal variables referenced by this linearisation.
    pub fn terminal_count(&self) -> usize {
        self.b.cols()
    }

    /// Number of algebraic constraint rows contributed by the block.
    pub fn constraint_count(&self) -> usize {
        self.c.rows()
    }

    /// Checks that all matrix/vector dimensions are mutually consistent.
    pub fn is_consistent(&self) -> bool {
        let n = self.a.rows();
        let m = self.b.cols();
        let k = self.c.rows();
        self.a.cols() == n
            && self.b.rows() == n
            && self.e.len() == n
            && self.c.cols() == n
            && self.d.rows() == k
            && self.d.cols() == m
            && self.g.len() == k
    }

    /// Evaluates the state derivative `ẋ = A·x + B·y + e` for given local state
    /// and terminal values.
    ///
    /// # Panics
    ///
    /// Panics if `x`/`y` do not match the linearisation dimensions.
    pub fn state_derivative(&self, x: &DVector, y: &DVector) -> DVector {
        let mut dx = self.a.mul_vector(x);
        dx += &self.b.mul_vector(y);
        dx += &self.e;
        dx
    }

    /// The Jacobian `which` of this linearisation.
    fn jacobian(&self, which: Jacobian) -> &DMatrix {
        match which {
            Jacobian::A => &self.a,
            Jacobian::B => &self.b,
            Jacobian::C => &self.c,
            Jacobian::D => &self.d,
        }
    }
}

/// One of the four Jacobians of a [`LocalLinearisation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Jacobian {
    /// `A = ∂f_x/∂x` (`states × states`).
    A,
    /// `B = ∂f_x/∂y` (`states × terminals`).
    B,
    /// `C = ∂f_y/∂x` (`constraints × states`).
    C,
    /// `D = ∂f_y/∂y` (`constraints × terminals`).
    D,
}

impl Jacobian {
    /// All four Jacobians, in the order `A`, `B`, `C`, `D`.
    pub const ALL: [Jacobian; 4] = [Jacobian::A, Jacobian::B, Jacobian::C, Jacobian::D];

    /// `(rows, cols)` of this Jacobian for a block with `states` states,
    /// `terminals` terminals and `constraints` constraint rows.
    pub fn shape(self, states: usize, terminals: usize, constraints: usize) -> (usize, usize) {
        match self {
            Jacobian::A => (states, states),
            Jacobian::B => (states, terminals),
            Jacobian::C => (constraints, states),
            Jacobian::D => (constraints, terminals),
        }
    }
}

/// The structural nonzero pattern of a block's Jacobians: the
/// `(matrix, row, column)` entries its stamps may write anything but `+0.0`
/// to. Every entry outside the pattern must be exactly `+0.0` at every
/// operating point and in every configuration of the block, so the
/// assembler can restamp and monitor (Eq. 3) the pattern alone and leave the
/// rest of the global buffer as the segment-opening full stamp wrote it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JacobianPattern {
    /// Sorted, duplicate-free entries.
    entries: Vec<(Jacobian, usize, usize)>,
}

impl JacobianPattern {
    /// A pattern of the given entries (order and duplicates are irrelevant;
    /// entries already listed in sorted order skip the sort).
    pub fn new(mut entries: Vec<(Jacobian, usize, usize)>) -> Self {
        if !entries.windows(2).all(|pair| pair[0] < pair[1]) {
            entries.sort_unstable();
            entries.dedup();
        }
        JacobianPattern { entries }
    }

    /// Every entry of a block with `states` states, `terminals` terminals and
    /// `constraints` constraint rows — the conservative default.
    pub fn dense(states: usize, terminals: usize, constraints: usize) -> Self {
        let mut entries = Vec::with_capacity((states + constraints) * (states + terminals));
        for which in Jacobian::ALL {
            let (rows, cols) = which.shape(states, terminals, constraints);
            for row in 0..rows {
                entries.extend((0..cols).map(|col| (which, row, col)));
            }
        }
        JacobianPattern { entries }
    }

    /// The entries, sorted by matrix, then row, then column.
    pub fn entries(&self) -> &[(Jacobian, usize, usize)] {
        &self.entries
    }

    /// Number of structural nonzeros.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the pattern declares no entry at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether every entry of `lin`'s Jacobians outside the pattern is
    /// exactly `+0.0` (and every pattern entry lies inside the matrices) —
    /// the contract [`StateSpaceBlock::jacobian_pattern`] promises.
    pub fn admits(&self, lin: &LocalLinearisation) -> bool {
        // One merge pass: the sorted entries follow the row-major order of A,
        // B, C, D, so each matrix entry either is the next declared one or
        // must be +0.0. A declared entry outside the matrices is never
        // reached and is left over at the end.
        let mut declared = self.entries.iter().peekable();
        for which in Jacobian::ALL {
            let matrix = lin.jacobian(which);
            for (index, value) in matrix.as_slice().iter().enumerate() {
                let entry = (which, index / matrix.cols(), index % matrix.cols());
                if declared.next_if_eq(&&entry).is_none() && value.to_bits() != 0 {
                    return false;
                }
            }
        }
        declared.next().is_none()
    }
}

/// The piecewise-linear devices of a [`JacobianStructure::Pwl`] block as the
/// assembler tracks them between relinearisations: `count` devices (the
/// Dickson multiplier's diodes), each operating in one of `segments` lookup
/// table segments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PwlDevices {
    /// Number of devices.
    pub count: usize,
    /// Number of table segments a device can occupy (valid indices are
    /// `0..segments`).
    pub segments: usize,
}

/// How a block's Jacobian contribution evolves along a trajectory — the
/// structure contract the assembler uses to split the global stamp into a
/// cached constant part and a per-relinearisation delta.
///
/// The classification is about the Jacobian matrices `A`, `B`, `C`, `D` only;
/// the affine terms `e`, `g` (excitations, companion sources) may vary freely
/// in every class and are refreshed on every linearisation regardless.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JacobianStructure {
    /// The Jacobians are constant for the lifetime of one solver segment
    /// (between the digital control actions that reconfigure the block —
    /// retunes, load-mode switches). The assembler stamps them once at the
    /// segment-opening full linearisation and afterwards skips both the
    /// scatter and the Eq. 3 monitor on the block's rows, refreshing only the
    /// affine terms through [`StateSpaceBlock::affine_into`].
    Constant,
    /// Piecewise-linear: the Jacobians jump when the operating point crosses
    /// a PWL table segment boundary and are constant in between, and the
    /// whole stamp (affine terms included) is a function of the segment each
    /// device operates in. A block that declares its devices
    /// ([`StateSpaceBlock::pwl_devices`]) has them tracked per device: a
    /// relinearisation at which no device changed segment skips the block
    /// entirely, and one at which some did rewrites only what the movers
    /// feed ([`StateSpaceBlock::restamp_pwl_into`]). Its changes arrive as
    /// kinks — exactly the discontinuities the solver's Eq. 3 monitor turns
    /// into history truncations.
    Pwl,
    /// Smoothly state-dependent Jacobians: restamped on every linearisation,
    /// the conservative default.
    Nonlinear,
}

impl JacobianStructure {
    /// Human-readable name used in diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            JacobianStructure::Constant => "constant",
            JacobianStructure::Pwl => "piecewise-linear",
            JacobianStructure::Nonlinear => "nonlinear",
        }
    }
}

/// An analogue component block described by local state equations and terminal
/// variables, ready for composition into the complete harvester model.
pub trait StateSpaceBlock {
    /// Short, unique, human-readable block name (used in diagnostics).
    fn name(&self) -> &str;

    /// Number of local state variables.
    fn state_count(&self) -> usize;

    /// Number of terminal variables the block exposes.
    fn terminal_count(&self) -> usize;

    /// Number of algebraic constraint equations the block contributes. The
    /// assembled system is well-posed when the constraint count over all blocks
    /// equals the number of distinct terminal variables.
    fn constraint_count(&self) -> usize;

    /// Names of the state variables, in order (for waveform labelling).
    fn state_names(&self) -> Vec<String>;

    /// Names of the terminal variables, in order. The assembler connects blocks
    /// by mapping these local terminals onto shared global nets.
    fn terminal_names(&self) -> Vec<String>;

    /// Initial values of the state variables at `t = 0`.
    fn initial_state(&self) -> DVector;

    /// Local linearisation (Eq. 2) at time `t`, local state `x` and terminal
    /// values `y`.
    ///
    /// Implementations must return a consistent set of matrices (see
    /// [`LocalLinearisation::is_consistent`]); `x.len()` equals
    /// [`StateSpaceBlock::state_count`] and `y.len()` equals
    /// [`StateSpaceBlock::terminal_count`].
    fn linearise(&self, t: f64, x: &DVector, y: &DVector) -> LocalLinearisation;

    /// Writes the local linearisation into a caller-owned, correctly sized
    /// buffer (see [`LocalLinearisation::zeros`]) instead of allocating six
    /// fresh matrices. The march-in-time assembler calls this at every accepted
    /// step, so the hot blocks override it with an allocation-free stamping
    /// path; the default simply delegates to [`StateSpaceBlock::linearise`],
    /// which keeps every existing block implementation working unchanged.
    fn linearise_into(&self, t: f64, x: &DVector, y: &DVector, out: &mut LocalLinearisation) {
        *out = self.linearise(t, x, y);
    }

    /// How this block's Jacobian contribution evolves along a trajectory (see
    /// [`JacobianStructure`]). The default is the conservative
    /// [`JacobianStructure::Nonlinear`], which keeps every existing block
    /// implementation correct unchanged; blocks whose Jacobians are constant
    /// within a solver segment should override this so the assembler can skip
    /// their scatter and Eq. 3 monitoring on the relinearisation hot path.
    fn jacobian_structure(&self) -> JacobianStructure {
        JacobianStructure::Nonlinear
    }

    /// Local indices of state variables this block declares *stiff*: modes
    /// whose eigenvalue magnitude is a numerical artifact (regularisation
    /// shunts, interface parasitics) rather than physics, and which the
    /// partitioned solver should advance with the exact exponential update
    /// instead of letting them price the explicit step limit. Queried once
    /// per solver segment; the default declares none.
    fn stiff_states(&self) -> Vec<usize> {
        Vec::new()
    }

    /// The structural nonzero pattern of the block's Jacobians (see
    /// [`JacobianPattern`]): the entries the assembler's relinearisation
    /// scatters and feeds to the Eq. 3 monitor. Queried once, when the block
    /// is added to an assembly, so it must cover every configuration the
    /// block can be switched to afterwards. The default is dense, which is
    /// correct for any block.
    fn jacobian_pattern(&self) -> JacobianPattern {
        JacobianPattern::dense(self.state_count(), self.terminal_count(), self.constraint_count())
    }

    /// The devices of a [`JacobianStructure::Pwl`] block whose table
    /// segments fully determine its stamp — Jacobians *and* affine terms —
    /// or `None` when the block cannot be tracked per device in its present
    /// configuration. Returning `Some` promises that
    /// [`StateSpaceBlock::restamp_pwl_into`] implements the per-device
    /// contract. The assembler asks at every full stamp; the default
    /// declines, which keeps the block restamped on every relinearisation.
    fn pwl_devices(&self) -> Option<PwlDevices> {
        None
    }

    /// Per-device restamp under the [`JacobianStructure::Pwl`] contract.
    ///
    /// `segments` holds one table segment per device (the
    /// [`StateSpaceBlock::pwl_devices`] count): on entry the segments `out`
    /// was stamped from — or, with `rewrite_all`, any values at all, which
    /// serve only as search hints — and on exit the segments at `(t, x, y)`,
    /// exactly as a fresh lookup finds them. Returns whether any device
    /// changed segment.
    ///
    /// When none did and `rewrite_all` is false, `out` is left untouched: the
    /// segments determine the stamp, so it already holds the values at
    /// `(t, x, y)` bit for bit. Otherwise `out` ends equal to what
    /// [`StateSpaceBlock::linearise_into`] writes at `(t, x, y)`, bit for
    /// bit; without `rewrite_all` an implementation may rewrite only the
    /// entries the moved devices feed, relying on `out` holding the stamp of
    /// the entry segments. The default ignores `segments` and restamps in
    /// full, reporting a move.
    fn restamp_pwl_into(
        &self,
        t: f64,
        x: &DVector,
        y: &DVector,
        _segments: &mut [usize],
        _rewrite_all: bool,
        out: &mut LocalLinearisation,
    ) -> bool {
        self.linearise_into(t, x, y, out);
        true
    }

    /// Refreshes only the affine terms `e`/`g` of `out` at `(t, x, y)`,
    /// leaving the Jacobian matrices untouched. The assembler calls this on
    /// the relinearisation hot path for blocks whose
    /// [`StateSpaceBlock::jacobian_structure`] is
    /// [`JacobianStructure::Constant`], after a full
    /// [`StateSpaceBlock::linearise_into`] has populated `out` earlier in the
    /// same segment. The default performs a full restamp — correct for any
    /// block (a `Constant` block rewrites identical Jacobian values), just
    /// without the savings an override provides.
    fn affine_into(&self, t: f64, x: &DVector, y: &DVector, out: &mut LocalLinearisation) {
        self.linearise_into(t, x, y, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_linearisation() -> LocalLinearisation {
        LocalLinearisation {
            a: DMatrix::from_rows(&[&[-1.0, 0.0], &[0.0, -2.0]]).unwrap(),
            b: DMatrix::from_rows(&[&[1.0], &[0.0]]).unwrap(),
            e: DVector::from_slice(&[0.5, 0.0]),
            c: DMatrix::from_rows(&[&[1.0, 0.0]]).unwrap(),
            d: DMatrix::from_rows(&[&[-1.0]]).unwrap(),
            g: DVector::from_slice(&[0.0]),
        }
    }

    #[test]
    fn dimension_accessors_and_consistency() {
        let lin = sample_linearisation();
        assert_eq!(lin.state_count(), 2);
        assert_eq!(lin.terminal_count(), 1);
        assert_eq!(lin.constraint_count(), 1);
        assert!(lin.is_consistent());

        let mut broken = sample_linearisation();
        broken.e = DVector::zeros(3);
        assert!(!broken.is_consistent());
    }

    #[test]
    fn derivative_and_residual_evaluation() {
        let lin = sample_linearisation();
        let x = DVector::from_slice(&[2.0, 1.0]);
        let y = DVector::from_slice(&[3.0]);
        let dx = lin.state_derivative(&x, &y);
        // dx0 = -1*2 + 1*3 + 0.5 = 1.5 ; dx1 = -2*1 + 0 + 0 = -2
        assert!((dx[0] - 1.5).abs() < 1e-14);
        assert!((dx[1] + 2.0).abs() < 1e-14);
    }

    #[test]
    fn zeros_and_clear_preserve_dimensions() {
        let mut lin = LocalLinearisation::zeros(2, 1, 1);
        assert!(lin.is_consistent());
        assert_eq!(lin.state_count(), 2);
        assert_eq!(lin.terminal_count(), 1);
        assert_eq!(lin.constraint_count(), 1);
        lin.a[(0, 0)] = 3.0;
        lin.e[1] = -1.0;
        lin.g[0] = 2.0;
        lin.clear();
        assert_eq!(lin, LocalLinearisation::zeros(2, 1, 1));
    }

    #[test]
    fn default_linearise_into_delegates_to_linearise() {
        /// A block relying on the default `linearise_into`.
        struct Plain;
        impl StateSpaceBlock for Plain {
            fn name(&self) -> &str {
                "plain"
            }
            fn state_count(&self) -> usize {
                2
            }
            fn terminal_count(&self) -> usize {
                1
            }
            fn constraint_count(&self) -> usize {
                1
            }
            fn state_names(&self) -> Vec<String> {
                vec!["a".into(), "b".into()]
            }
            fn terminal_names(&self) -> Vec<String> {
                vec!["t".into()]
            }
            fn initial_state(&self) -> DVector {
                DVector::zeros(2)
            }
            fn linearise(&self, _t: f64, _x: &DVector, _y: &DVector) -> LocalLinearisation {
                sample_linearisation()
            }
        }
        let x = DVector::zeros(2);
        let y = DVector::zeros(1);
        let mut out = LocalLinearisation::zeros(2, 1, 1);
        Plain.linearise_into(0.0, &x, &y, &mut out);
        assert_eq!(out, Plain.linearise(0.0, &x, &y));
    }

    #[test]
    fn structure_contract_defaults_are_conservative() {
        /// A block relying on every contract default.
        struct Plain;
        impl StateSpaceBlock for Plain {
            fn name(&self) -> &str {
                "plain"
            }
            fn state_count(&self) -> usize {
                2
            }
            fn terminal_count(&self) -> usize {
                1
            }
            fn constraint_count(&self) -> usize {
                1
            }
            fn state_names(&self) -> Vec<String> {
                vec!["a".into(), "b".into()]
            }
            fn terminal_names(&self) -> Vec<String> {
                vec!["t".into()]
            }
            fn initial_state(&self) -> DVector {
                DVector::zeros(2)
            }
            fn linearise(&self, _t: f64, _x: &DVector, _y: &DVector) -> LocalLinearisation {
                sample_linearisation()
            }
        }
        // Defaults: restamp everything, declare nothing stiff, track no
        // devices, declare every entry structural.
        assert_eq!(Plain.jacobian_structure(), JacobianStructure::Nonlinear);
        assert!(Plain.stiff_states().is_empty());
        assert_eq!(Plain.pwl_devices(), None);
        assert_eq!(Plain.jacobian_pattern(), JacobianPattern::dense(2, 1, 1));
        assert_eq!(Plain.jacobian_pattern().len(), 4 + 2 + 2 + 1);
        // The default affine refresh is a full restamp, so it is always safe.
        let x = DVector::zeros(2);
        let y = DVector::zeros(1);
        let mut out = LocalLinearisation::zeros(2, 1, 1);
        Plain.affine_into(0.0, &x, &y, &mut out);
        assert_eq!(out, Plain.linearise(0.0, &x, &y));
        // So is the default per-device restamp: a full stamp reporting a move.
        let mut out = LocalLinearisation::zeros(2, 1, 1);
        assert!(Plain.restamp_pwl_into(0.0, &x, &y, &mut [], false, &mut out));
        assert_eq!(out, Plain.linearise(0.0, &x, &y));
        // Structure names for diagnostics.
        assert_eq!(JacobianStructure::Constant.name(), "constant");
        assert_eq!(JacobianStructure::Pwl.name(), "piecewise-linear");
        assert_eq!(JacobianStructure::Nonlinear.name(), "nonlinear");
    }

    #[test]
    fn patterns_admit_exactly_the_entries_outside_them_at_positive_zero() {
        let lin = sample_linearisation();
        // A dense pattern admits anything of the right shape.
        assert!(JacobianPattern::dense(2, 1, 1).admits(&lin));
        // The sample's nonzeros: A diagonal, B(0,0), C(0,0), D(0,0).
        let exact = JacobianPattern::new(vec![
            (Jacobian::D, 0, 0),
            (Jacobian::A, 1, 1),
            (Jacobian::A, 0, 0),
            (Jacobian::B, 0, 0),
            (Jacobian::C, 0, 0),
            (Jacobian::A, 0, 0),
        ]);
        assert_eq!(exact.len(), 5, "duplicates collapse");
        assert_eq!(exact.entries()[0], (Jacobian::A, 0, 0), "entries sort by matrix first");
        assert!(exact.admits(&lin));
        // Dropping a nonzero entry breaks the contract ...
        let missing = JacobianPattern::new(vec![(Jacobian::A, 0, 0), (Jacobian::A, 1, 1)]);
        assert!(!missing.admits(&lin));
        // ... and so does −0.0 outside the pattern: only +0.0 is structural.
        let mut signed = lin.clone();
        signed.a[(0, 1)] = -0.0;
        assert!(!exact.admits(&signed));
        // An entry outside the matrices is never admitted.
        let outside = JacobianPattern::new(vec![(Jacobian::A, 2, 0)]);
        assert!(!outside.admits(&LocalLinearisation::zeros(2, 1, 1)));
        assert!(JacobianPattern::new(Vec::new()).is_empty());
        assert_eq!(lin.jacobian(Jacobian::C), &lin.c);
    }

    #[test]
    fn error_display() {
        let err = BlockError::InvalidParameter {
            name: "proof_mass",
            value: -1.0,
            constraint: "must be positive",
        };
        assert!(err.to_string().contains("proof_mass"));
        let err = BlockError::DimensionMismatch {
            block: "microgenerator".into(),
            expected: (3, 2),
            provided: (2, 2),
        };
        assert!(err.to_string().contains("microgenerator"));
    }
}
