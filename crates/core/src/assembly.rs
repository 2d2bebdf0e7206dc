//! Composition of component blocks into the global linearised system (Eq. 2)
//! and elimination of the terminal variables (Eq. 4).
//!
//! Each block contributes local state equations and algebraic (terminal)
//! constraints; the assembler
//!
//! * concatenates the block state vectors into the global state `x`,
//! * maps every block terminal onto a shared *net* (the global non-state
//!   variables `y` — e.g. the generator output `Vm`/`Im` net is shared between
//!   the microgenerator and the multiplier),
//! * stacks the per-block Jacobians into the global `Jxx`, `Jxy`, `Jyx`, `Jyy`
//!   blocks of Eq. 2, and
//! * checks well-posedness: the total number of constraint rows must equal the
//!   number of nets, so that `Jyy` is square and Eq. 4 has a unique solution.

use std::cell::RefCell;

use harvsim_blocks::block::LocalLinearisation;
use harvsim_blocks::{Jacobian, JacobianPattern, JacobianStructure, PwlDevices, StateSpaceBlock};
use harvsim_linalg::{DMatrix, DVector, LuDecomposition};

use crate::CoreError;

/// Outcome of one fused relinearisation pass: the Eq. 3 monitor value plus
/// the work the per-block Jacobian-structure contract saved.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StampReport {
    /// Largest relative Jacobian change against the previous linearisation
    /// (the Eq. 3 local-linearisation-error monitor).
    pub change: f64,
    /// Number of blocks whose Jacobian scatter + monitor scan were skipped
    /// this pass because their [`JacobianStructure::Constant`] contract
    /// guarantees the stamped values could not have moved (only their affine
    /// terms were refreshed).
    pub constant_stamps_skipped: usize,
    /// Number of [`JacobianStructure::Pwl`] blocks whose *entire* stamp
    /// (scatter, monitor scan and affine refresh) was skipped this pass
    /// because none of their tracked devices changed table segment since the
    /// values already in the buffer were stamped — the contract guarantees a
    /// restamp would be bit-identical.
    pub pwl_stamps_skipped: usize,
}

/// The global linearisation of the complete analogue model at one time point —
/// the matrices of the paper's Eq. 2.
#[derive(Debug, Clone, Default)]
pub struct GlobalLinearisation {
    /// `∂f_x/∂x` over the global state vector.
    pub jxx: DMatrix,
    /// `∂f_x/∂y` over the global nets.
    pub jxy: DMatrix,
    /// Affine term of the state equations (excitations + companion sources).
    pub ex: DVector,
    /// `∂f_y/∂x` of the stacked algebraic constraints.
    pub jyx: DMatrix,
    /// `∂f_y/∂y` of the stacked algebraic constraints.
    pub jyy: DMatrix,
    /// Affine term of the algebraic constraints.
    pub gy: DVector,
}

impl GlobalLinearisation {
    /// Creates an all-zero linearisation for a system with `states` state
    /// variables, `nets` net (terminal) variables and `constraints` algebraic
    /// constraint rows — the preallocated buffer that
    /// [`AnalogueSystem::linearise_global_into`] refills at every accepted step.
    pub fn zeros(states: usize, nets: usize, constraints: usize) -> Self {
        GlobalLinearisation {
            jxx: DMatrix::zeros(states, states),
            jxy: DMatrix::zeros(states, nets),
            ex: DVector::zeros(states),
            jyx: DMatrix::zeros(constraints, states),
            jyy: DMatrix::zeros(constraints, nets),
            gy: DVector::zeros(constraints),
        }
    }

    /// Returns `(states, nets, constraints)` described by this linearisation.
    pub fn dimensions(&self) -> (usize, usize, usize) {
        (self.jxx.rows(), self.jxy.cols(), self.jyx.rows())
    }

    /// Resets every matrix and vector to zero without changing dimensions, so a
    /// reused buffer can be re-stamped from scratch.
    pub fn clear(&mut self) {
        self.jxx.fill(0.0);
        self.jxy.fill(0.0);
        self.ex.fill(0.0);
        self.jyx.fill(0.0);
        self.jyy.fill(0.0);
        self.gy.fill(0.0);
    }

    /// Eliminates the non-state variables by solving the algebraic part of
    /// Eq. 2 (the paper's Eq. 4 extended with the affine companion terms):
    /// `Jyy·y = −(Jyx·x + g)`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::IllPosedSystem`] if `Jyy` is singular (for example
    /// a floating net with no constraint that references it).
    pub fn solve_terminals(&self, x: &DVector) -> Result<DVector, CoreError> {
        let lu = self.jyy.lu().map_err(|err| {
            CoreError::IllPosedSystem(format!("terminal elimination failed: {err}"))
        })?;
        let mut rhs = DVector::zeros(self.jyx.rows());
        let mut y = DVector::zeros(self.jyy.cols());
        self.solve_terminals_with(&lu, x, &mut rhs, &mut y)?;
        Ok(y)
    }

    /// Allocation-free Eq. 4 solve using an already-computed factorisation of
    /// `Jyy`: fills `rhs` with `−(Jyx·x + g)` and writes the terminal values
    /// into `y`. The caller owns both buffers and the factorisation (see
    /// [`TerminalFactorisation`]), so steady-state steps touch no allocator.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` or `x` do not match this linearisation's dimensions
    /// (caller-owned workspace buffers are sized once; a mismatch is a
    /// programming error, not a recoverable condition).
    ///
    /// # Errors
    ///
    /// Returns a dimension mismatch error if the factorisation or `y` do not
    /// match this linearisation's dimensions.
    pub fn solve_terminals_with(
        &self,
        lu: &LuDecomposition,
        x: &DVector,
        rhs: &mut DVector,
        y: &mut DVector,
    ) -> Result<(), CoreError> {
        assert_eq!(rhs.len(), self.jyx.rows(), "terminal rhs buffer dimension mismatch");
        assert_eq!(x.len(), self.jyx.cols(), "state vector dimension mismatch");
        // `−(Jyx·x + g)` row by row, through the fixed-width row kernel.
        self.jyx.mul_vector_into(x, rhs);
        for (r, g) in rhs.as_mut_slice().iter_mut().zip(self.gy.as_slice()) {
            *r = -(*r + g);
        }
        lu.solve_into(rhs, y)?;
        Ok(())
    }

    /// Evaluates the state derivative `ẋ = Jxx·x + Jxy·y + e` for already-known
    /// terminal values.
    pub fn state_derivative(&self, x: &DVector, y: &DVector) -> DVector {
        let mut dx = DVector::zeros(self.jxx.rows());
        self.state_derivative_into(x, y, &mut dx);
        dx
    }

    /// Allocation-free variant of [`GlobalLinearisation::state_derivative`]
    /// writing into a caller-owned buffer.
    ///
    /// # Panics
    ///
    /// Panics if the vector dimensions do not match the linearisation.
    pub fn state_derivative_into(&self, x: &DVector, y: &DVector, dx: &mut DVector) {
        assert_eq!(dx.len(), self.jxx.rows(), "state derivative buffer dimension mismatch");
        assert_eq!(x.len(), self.jxx.cols(), "state vector dimension mismatch");
        assert_eq!(y.len(), self.jxy.cols(), "terminal vector dimension mismatch");
        // `(Jxx·x + Jxy·y) + e` per row, in that order, through the
        // fixed-width row kernel.
        self.jxx.mul_vector_into(x, dx);
        self.jxy.mul_vector_add_into(y, dx);
        for (d, e) in dx.as_mut_slice().iter_mut().zip(self.ex.as_slice()) {
            *d += e;
        }
    }

    /// The point total-step matrix `A = Jxx − Jxy·Jyy⁻¹·Jyx` that governs the
    /// explicit-integration stability condition of Eq. 7 (this is the Jacobian
    /// of the reduced system after terminal elimination).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::IllPosedSystem`] if `Jyy` is singular.
    pub fn total_step_matrix(&self) -> Result<DMatrix, CoreError> {
        let lu = self.jyy.lu().map_err(|err| {
            CoreError::IllPosedSystem(format!("terminal elimination failed: {err}"))
        })?;
        let n = self.jxx.rows();
        let mut yy_inv_yx = DMatrix::zeros(self.jyx.rows(), self.jyx.cols());
        let mut correction = DMatrix::zeros(n, n);
        let mut a_total = DMatrix::zeros(n, n);
        self.total_step_matrix_with(&lu, &mut yy_inv_yx, &mut correction, &mut a_total)?;
        Ok(a_total)
    }

    /// Allocation-free variant of [`GlobalLinearisation::total_step_matrix`]
    /// reusing an existing `Jyy` factorisation and caller-owned intermediates:
    /// `yy_inv_yx` receives `Jyy⁻¹·Jyx`, `correction` receives
    /// `Jxy·Jyy⁻¹·Jyx`, and `a_total` the final total-step matrix.
    ///
    /// # Panics
    ///
    /// Panics if `a_total` is not `states × states` (caller-owned workspace
    /// buffers are sized once; a mismatch is a programming error).
    ///
    /// # Errors
    ///
    /// Returns a dimension mismatch error if `yy_inv_yx`, `correction` or the
    /// factorisation do not match this linearisation's dimensions.
    pub fn total_step_matrix_with(
        &self,
        lu: &LuDecomposition,
        yy_inv_yx: &mut DMatrix,
        correction: &mut DMatrix,
        a_total: &mut DMatrix,
    ) -> Result<(), CoreError> {
        lu.solve_matrix_into(&self.jyx, yy_inv_yx)?;
        self.jxy.mul_matrix_into(yy_inv_yx, correction)?;
        a_total.copy_from(&self.jxx);
        *a_total -= &*correction;
        Ok(())
    }

    /// Largest relative change of any Jacobian entry with respect to a previous
    /// linearisation, used as the paper's local-linearisation-error monitor
    /// ("the LLE can be controlled by monitoring the changes in the Jacobian
    /// elements").
    ///
    /// # Errors
    ///
    /// Returns a dimension-mismatch error if the two linearisations describe
    /// differently sized systems.
    pub(crate) fn jacobian_change(&self, previous: &GlobalLinearisation) -> Result<f64, CoreError> {
        // One fused pass per Jacobian block computes both maxima the monitor
        // needs (this runs once per accepted solver step).
        let (s_xx, d_xx) = self.jxx.max_abs_and_diff(&previous.jxx)?;
        let (s_xy, d_xy) = self.jxy.max_abs_and_diff(&previous.jxy)?;
        let (s_yx, d_yx) = self.jyx.max_abs_and_diff(&previous.jyx)?;
        let (s_yy, d_yy) = self.jyy.max_abs_and_diff(&previous.jyy)?;
        let scale = s_xx.max(s_xy).max(s_yx).max(s_yy).max(1e-30);
        let change = d_xx.max(d_xy).max(d_yx).max(d_yy);
        Ok(change / scale)
    }
}

/// A cached LU factorisation of the terminal sub-matrix `Jyy`, keyed on the
/// exact contents of the factorised matrix.
///
/// The seed engine re-factorised `Jyy` at every accepted step even though, for
/// the assembled harvester, `Jyy` only ever changes when the digital side
/// switches the load mode: the diode companion conductances live in `Jxx`, not
/// in the constraint rows. [`TerminalFactorisation::refresh`] therefore
/// compares the incoming `Jyy` against the matrix it last factorised and
/// re-runs the (buffer-reusing, allocation-free) LU only when an entry actually
/// changed. For a constant-`Jyy` system the factorisation count collapses from
/// one per step to one per run segment — the asymmetry behind the paper's
/// Table II — while systems whose `Jyy` genuinely moves every step keep the
/// exact per-step behaviour of the seed, bit for bit.
///
/// Every factorisation records a solve plan
/// ([`LuDecomposition::plan_solves`]): it is reused for tens of thousands of
/// solves, and the harvester's `Jyy` factors into a row permutation with one
/// multiplier and unit pivots, so a planned solve is a handful of operations.
#[derive(Debug, Clone, Default)]
pub struct TerminalFactorisation {
    lu: Option<LuDecomposition>,
    /// Copy of the matrix the current `lu` was computed from (the cache key).
    factored_jyy: DMatrix,
}

impl TerminalFactorisation {
    /// Creates an empty cache; the first [`TerminalFactorisation::refresh`]
    /// performs the initial factorisation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Brings the cache up to date with `lin.jyy`. Returns `true` if a new LU
    /// factorisation was performed, `false` on a cache hit (identical `Jyy`).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::IllPosedSystem`] if `Jyy` is singular; the cache is
    /// invalidated in that case.
    pub fn refresh(&mut self, lin: &GlobalLinearisation) -> Result<bool, CoreError> {
        if self.lu.is_some() && self.factored_jyy == lin.jyy {
            return Ok(false);
        }
        let factored = match self.lu.as_mut() {
            Some(lu) => lu.factor_into(&lin.jyy),
            None => lin.jyy.lu().map(|lu| {
                self.lu = Some(lu);
            }),
        };
        if let Err(err) = factored {
            self.lu = None;
            return Err(CoreError::IllPosedSystem(format!("terminal elimination failed: {err}")));
        }
        self.lu.as_mut().expect("factorised above").plan_solves();
        if self.factored_jyy.shape() == lin.jyy.shape() {
            self.factored_jyy.copy_from(&lin.jyy);
        } else {
            self.factored_jyy = lin.jyy.clone();
        }
        Ok(true)
    }

    /// The current factorisation, if [`TerminalFactorisation::refresh`] has
    /// succeeded at least once.
    pub fn lu(&self) -> Option<&LuDecomposition> {
        self.lu.as_ref()
    }

    /// The matrix whose factorisation the cache currently holds — the only
    /// datum a checkpoint needs. The LU factors themselves are re-derived at
    /// restore ([`TerminalFactorisation::restore_from_key`]): elimination is
    /// deterministic (largest-magnitude pivot, tolerance recomputed from the
    /// matrix), so re-factoring the identical bits yields identical factors.
    pub(crate) fn cache_key(&self) -> Option<&DMatrix> {
        self.lu.is_some().then_some(&self.factored_jyy)
    }

    /// Rebuilds the cache from a checkpointed key matrix (or clears it for
    /// `None`), preserving the cache-hit behaviour — and therefore the
    /// `factorisations` / `cached_solves` statistics — of the saved run.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::IllPosedSystem`] if the key matrix does not
    /// factor — a checkpoint can only hold a matrix that factored when it was
    /// written, so this indicates corruption.
    pub(crate) fn restore_from_key(&mut self, key: Option<DMatrix>) -> Result<(), CoreError> {
        match key {
            None => {
                self.lu = None;
                self.factored_jyy = DMatrix::zeros(0, 0);
            }
            Some(matrix) => {
                let mut lu = LuDecomposition::new(&matrix).map_err(|err| {
                    CoreError::IllPosedSystem(format!(
                        "checkpointed terminal matrix does not factor: {err}"
                    ))
                })?;
                lu.plan_solves();
                self.lu = Some(lu);
                self.factored_jyy = matrix;
            }
        }
        Ok(())
    }
}

/// A complete analogue model that can be linearised at any time point — the
/// interface the march-in-time solver and the Newton–Raphson baseline operate
/// on. [`crate::TunableHarvester`] is the principal implementation.
pub trait AnalogueSystem {
    /// Number of global state variables.
    fn state_count(&self) -> usize;

    /// Number of global nets (non-state / terminal variables).
    fn net_count(&self) -> usize;

    /// Names of the global state variables.
    fn state_names(&self) -> Vec<String>;

    /// Names of the global nets.
    fn net_names(&self) -> Vec<String>;

    /// Global linearisation (Eq. 2) at time `t`, state `x` and net values `y`.
    ///
    /// # Errors
    ///
    /// Implementations may report ill-posed configurations.
    fn linearise_global(
        &self,
        t: f64,
        x: &DVector,
        y: &DVector,
    ) -> Result<GlobalLinearisation, CoreError>;

    /// Writes the global linearisation into a caller-owned, correctly sized
    /// buffer (see [`GlobalLinearisation::zeros`]). The march-in-time solver
    /// and the Newton–Raphson baseline call this at every accepted step, so
    /// systems on the hot path ([`crate::TunableHarvester`] via
    /// [`Assembly::linearise_global_into`]) override it with an
    /// allocation-free stamping pass; the default delegates to
    /// [`AnalogueSystem::linearise_global`], which keeps simple test systems
    /// working unchanged.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`AnalogueSystem::linearise_global`].
    fn linearise_global_into(
        &self,
        t: f64,
        x: &DVector,
        y: &DVector,
        out: &mut GlobalLinearisation,
    ) -> Result<(), CoreError> {
        *out = self.linearise_global(t, x, y)?;
        Ok(())
    }

    /// Relinearises in place and reports the Eq. 3 local-linearisation-error
    /// monitor in one operation: on entry `out` must hold the linearisation of
    /// *this* system at the previous accepted point; on exit it holds the
    /// linearisation at `(t, x, y)` and the returned report carries the
    /// relative Jacobian change between the two (the largest entry-wise change
    /// of the four Jacobian blocks over their largest entry) plus the number
    /// of constant-contract block stamps the pass skipped.
    ///
    /// This is the solver's steady-state entry point — fusing the change scan
    /// into the stamping pass lets hot implementations
    /// ([`Assembly::relinearise_global_into`]) avoid a second full pass over
    /// the Jacobians and a second buffer, and the per-block
    /// [`harvsim_blocks::JacobianStructure`] contract lets them skip the
    /// scatter + monitor for blocks whose Jacobians cannot have moved. The
    /// default delegates to [`AnalogueSystem::linearise_global`] and the
    /// dense monitor, which keeps simple test systems working unchanged.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`AnalogueSystem::linearise_global`], plus a
    /// dimension mismatch if `out` does not match this system.
    fn relinearise_global_into(
        &self,
        t: f64,
        x: &DVector,
        y: &DVector,
        out: &mut GlobalLinearisation,
    ) -> Result<StampReport, CoreError> {
        let fresh = self.linearise_global(t, x, y)?;
        let change = fresh.jacobian_change(out)?;
        *out = fresh;
        Ok(StampReport { change, constant_stamps_skipped: 0, pwl_stamps_skipped: 0 })
    }

    /// Global indices of the states this system declares *stiff* — the
    /// partition the solver advances with the exact exponential update
    /// instead of the explicit Adams–Bashforth march, so their (artificial)
    /// fast poles stop pricing the stability step limit. Queried once per
    /// solver segment; the default declares none, which keeps every simple
    /// test system on the classic unpartitioned path.
    fn stiff_states(&self) -> Vec<usize> {
        Vec::new()
    }
}

/// Placement bookkeeping for one block inside the assembled system.
#[derive(Debug, Clone, PartialEq, Eq)]
struct BlockSlot {
    name: String,
    state_offset: usize,
    state_count: usize,
    constraint_offset: usize,
    constraint_count: usize,
    /// Local terminal index → global net index.
    terminal_nets: Vec<usize>,
    /// The block's declared Jacobian-structure contract, recorded at
    /// registration so the relinearisation pass can skip the scatter +
    /// monitor for `Constant` contributions without re-asking the block.
    structure: JacobianStructure,
    /// The block's PWL devices at registration (`Pwl` blocks only): the
    /// shape a restored checkpoint's packed segments must fit.
    devices: Option<PwlDevices>,
    /// `Assembly::scatter[map[k]..map[k + 1]]` maps the block's Jacobian
    /// `Jacobian::ALL[k]`; filled in by [`AssemblyBuilder::build`] once
    /// every net is known.
    map: [usize; 5],
}

/// Appends `slot`'s structural nonzeros to `scatter` as flat `(local,
/// global)` index pairs into the row-major storage of the block's local
/// Jacobians and of the global ones they land in (`A → Jxx`, `B → Jxy`,
/// `C → Jyx`, `D → Jyy`), for a system of `states` states and `nets` nets,
/// and records where each Jacobian's run starts in `slot.map`.
fn append_scatter_map(
    scatter: &mut Vec<(usize, usize)>,
    slot: &mut BlockSlot,
    pattern: &JacobianPattern,
    states: usize,
    nets: usize,
) {
    let terminals = slot.terminal_nets.len();
    // Pattern entries are sorted by Jacobian, so each one's run is contiguous.
    for (start, which) in slot.map.iter_mut().zip(Jacobian::ALL) {
        *start = scatter.len() + pattern.entries().partition_point(|entry| entry.0 < which);
    }
    scatter.extend(pattern.entries().iter().map(|&(which, row, col)| match which {
        Jacobian::A => (
            row * slot.state_count + col,
            (slot.state_offset + row) * states + slot.state_offset + col,
        ),
        Jacobian::B => {
            (row * terminals + col, (slot.state_offset + row) * nets + slot.terminal_nets[col])
        }
        Jacobian::C => (
            row * slot.state_count + col,
            (slot.constraint_offset + row) * states + slot.state_offset + col,
        ),
        Jacobian::D => {
            (row * terminals + col, (slot.constraint_offset + row) * nets + slot.terminal_nets[col])
        }
    }));
    slot.map[4] = scatter.len();
}

/// Builder that wires blocks together net by net.
#[derive(Debug, Default)]
pub struct AssemblyBuilder {
    slots: Vec<BlockSlot>,
    net_names: Vec<String>,
    state_names: Vec<String>,
    state_count: usize,
    constraint_count: usize,
    /// Global indices of the states the blocks declared stiff, in ascending
    /// order (blocks are registered with increasing state offsets).
    stiff_states: Vec<usize>,
    /// Each registered block's structural nonzero pattern, turned into the
    /// assembly's scatter map at [`AssemblyBuilder::build`].
    patterns: Vec<JacobianPattern>,
}

impl AssemblyBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `block`, connecting its terminals (in declaration order) to the
    /// global nets named in `nets`. Nets are created on first use; two blocks
    /// naming the same net share the corresponding terminal variable.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfiguration`] if the net list length does
    /// not match the block's terminal count, or if the list names one net
    /// twice: the stamp writes each block terminal into its own net column.
    pub fn add_block(
        &mut self,
        block: &dyn StateSpaceBlock,
        nets: &[&str],
    ) -> Result<usize, CoreError> {
        if nets.len() != block.terminal_count() {
            return Err(CoreError::InvalidConfiguration(format!(
                "block {} has {} terminals but {} nets were supplied",
                block.name(),
                block.terminal_count(),
                nets.len()
            )));
        }
        if let Some(net) =
            nets.iter().enumerate().find_map(|(i, net)| nets[..i].contains(net).then_some(net))
        {
            return Err(CoreError::InvalidConfiguration(format!(
                "block {} wires two of its terminals to net {net}",
                block.name()
            )));
        }
        let mut terminal_nets = Vec::with_capacity(nets.len());
        for net in nets {
            let index = match self.net_names.iter().position(|existing| existing == net) {
                Some(index) => index,
                None => {
                    self.net_names.push((*net).to_string());
                    self.net_names.len() - 1
                }
            };
            terminal_nets.push(index);
        }
        let pattern = block.jacobian_pattern();
        if let Some(&(which, row, col)) = pattern.entries().iter().find(|&&(which, row, col)| {
            let (rows, cols) =
                which.shape(block.state_count(), block.terminal_count(), block.constraint_count());
            row >= rows || col >= cols
        }) {
            return Err(CoreError::InvalidConfiguration(format!(
                "block {} declares Jacobian pattern entry {which:?}({row}, {col}) outside its \
                 matrices",
                block.name()
            )));
        }
        for local in block.stiff_states() {
            if local >= block.state_count() {
                return Err(CoreError::InvalidConfiguration(format!(
                    "block {} declares stiff state {local} but has only {} states",
                    block.name(),
                    block.state_count()
                )));
            }
            let global = self.state_count + local;
            if !self.stiff_states.contains(&global) {
                self.stiff_states.push(global);
            }
        }
        let structure = block.jacobian_structure();
        let slot = BlockSlot {
            name: block.name().to_string(),
            state_offset: self.state_count,
            state_count: block.state_count(),
            constraint_offset: self.constraint_count,
            constraint_count: block.constraint_count(),
            terminal_nets,
            structure,
            devices: if structure == JacobianStructure::Pwl { block.pwl_devices() } else { None },
            map: [0; 5],
        };
        for state_name in block.state_names() {
            self.state_names.push(format!("{}.{}", block.name(), state_name));
        }
        self.state_count += block.state_count();
        self.constraint_count += block.constraint_count();
        self.slots.push(slot);
        self.patterns.push(pattern);
        Ok(self.slots.len() - 1)
    }

    /// Finalises the assembly.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::IllPosedSystem`] if the total constraint count does
    /// not equal the number of nets (the algebraic system of Eq. 4 would not be
    /// square) or no blocks were added.
    pub fn build(mut self) -> Result<Assembly, CoreError> {
        if self.slots.is_empty() {
            return Err(CoreError::IllPosedSystem("no blocks were added".to_string()));
        }
        if self.constraint_count != self.net_names.len() {
            return Err(CoreError::IllPosedSystem(format!(
                "{} algebraic constraints for {} nets: the terminal-variable system is not square",
                self.constraint_count,
                self.net_names.len()
            )));
        }
        let scratch = self
            .slots
            .iter()
            .map(|slot| BlockScratch {
                x: DVector::zeros(slot.state_count),
                y: DVector::zeros(slot.terminal_nets.len()),
                lin: LocalLinearisation::zeros(
                    slot.state_count,
                    slot.terminal_nets.len(),
                    slot.constraint_count,
                ),
                static_scale: 0.0,
                devices: DeviceTracker::new(slot.devices),
                lin_current: false,
                stamped: false,
            })
            .collect();
        let (states, nets) = (self.state_count, self.net_names.len());
        let mut scatter = Vec::with_capacity(self.patterns.iter().map(JacobianPattern::len).sum());
        for (slot, pattern) in self.slots.iter_mut().zip(&self.patterns) {
            append_scatter_map(&mut scatter, slot, pattern, states, nets);
        }
        Ok(Assembly {
            slots: self.slots,
            net_names: self.net_names,
            state_names: self.state_names,
            state_count: self.state_count,
            constraint_count: self.constraint_count,
            stiff_states: self.stiff_states,
            scatter,
            scratch: RefCell::new(scratch),
        })
    }
}

/// Preallocated per-block buffers used by [`Assembly::linearise_global_into`]:
/// the block's local state/terminal views and its local linearisation, all
/// sized once at [`AssemblyBuilder::build`] time and refilled at every step.
#[derive(Debug, Clone)]
struct BlockScratch {
    x: DVector,
    y: DVector,
    lin: LocalLinearisation,
    /// Largest |entry| over the block's Jacobians at the last full stamp —
    /// the skipped block's contribution to the Eq. 3 monitor's scale, so
    /// skipping a `Constant` or an unmoved `Pwl` block leaves the monitor
    /// value bit-identical to a full restamp (its diff contribution is
    /// exactly zero, its scale contribution is this cached maximum).
    static_scale: f64,
    /// The table segment of each PWL device behind the values in the global
    /// buffer (tracked `Pwl` blocks only).
    devices: DeviceTracker,
    /// Whether `lin` holds the stamp the global buffer holds. A checkpoint
    /// carries the tracked segments but not the local buffers, so after a
    /// restore the next per-device restamp rewrites every row.
    lin_current: bool,
    /// Whether a full stamp has populated `lin` (plus `static_scale` and the
    /// device segments) since construction — the precondition for both fast
    /// paths.
    stamped: bool,
}

/// Bits per device in the packed checkpoint slot of a tracked `Pwl` block
/// (table sizes up to 1 023 segments).
const SEGMENT_BITS: usize = 10;

/// Largest device count the 64-bit checkpoint slot packs at
/// [`SEGMENT_BITS`] bits each.
const MAX_PACKED_DEVICES: usize = 6;

/// Loop-carried per-device state of a [`JacobianStructure::Pwl`] block: the
/// table segment each device's stamp in the global buffer was computed from.
/// Tracking is limited to what the checkpoint's 64-bit slot encodes; a block
/// with more devices or larger tables is restamped on every relinearisation.
#[derive(Debug, Clone)]
struct DeviceTracker {
    /// Whether the segments are live: the last full stamp found the block
    /// declaring devices that fit the packing (or a checkpoint restored them).
    tracked: bool,
    /// Table segment per device.
    segments: Vec<usize>,
    /// The block's devices as last declared — at registration, then at every
    /// full stamp; `None` for a block without PWL devices.
    declared: Option<PwlDevices>,
}

impl DeviceTracker {
    fn new(declared: Option<PwlDevices>) -> Self {
        let count = declared.map_or(0, |devices| devices.count);
        DeviceTracker { tracked: false, segments: vec![0; count], declared }
    }

    /// Whether the checkpoint slot can encode these devices' segments.
    fn packable(devices: PwlDevices) -> bool {
        devices.count <= MAX_PACKED_DEVICES && devices.segments < 1 << SEGMENT_BITS
    }

    /// (Re)starts tracking at a full stamp when the block declares packable
    /// devices, and stops it otherwise. The present segments stay as search
    /// hints. Returns whether the devices are tracked.
    fn track(&mut self, declared: Option<PwlDevices>) -> bool {
        self.declared = declared;
        self.tracked = match declared {
            Some(devices) if Self::packable(devices) => {
                self.segments.resize(devices.count, 0);
                true
            }
            _ => false,
        };
        self.tracked
    }

    /// The checkpoint slot: the segments packed first device highest, or
    /// `None` when untracked.
    fn packed(&self) -> Option<u64> {
        self.tracked.then(|| {
            self.segments.iter().fold(0_u64, |bits, &segment| bits << SEGMENT_BITS | segment as u64)
        })
    }

    /// The segments `bits` packs for the declared devices, or `None` when
    /// they cannot describe them (no devices declared, too many devices or
    /// table segments for the packing, stray high bits, or a segment past
    /// the table).
    fn unpack(&self, bits: u64) -> Option<Vec<usize>> {
        let devices = self.declared.filter(|&devices| Self::packable(devices))?;
        if bits >> (devices.count * SEGMENT_BITS) != 0 {
            return None;
        }
        let segments: Vec<usize> = (0..devices.count)
            .map(|i| {
                (bits >> ((devices.count - 1 - i) * SEGMENT_BITS)) as usize
                    & ((1 << SEGMENT_BITS) - 1)
            })
            .collect();
        segments.iter().all(|&segment| segment < devices.segments).then_some(segments)
    }
}

/// The immutable wiring plan of the assembled system.
#[derive(Debug, Clone)]
pub struct Assembly {
    slots: Vec<BlockSlot>,
    net_names: Vec<String>,
    state_names: Vec<String>,
    state_count: usize,
    constraint_count: usize,
    /// Global indices of the states the blocks declared stiff (ascending) —
    /// the stiff side of the solver's partitioned state space.
    stiff_states: Vec<usize>,
    /// Every block's structural nonzeros as flat `(local, global)` index
    /// pairs (see `BlockSlot::map`) — what the relinearisation pass restamps
    /// and monitors instead of the dense rows.
    scatter: Vec<(usize, usize)>,
    /// Per-block hot-path buffers behind interior mutability, because the
    /// solver linearises through `&self` (the assembly is shared read-only
    /// between the engine and the measurement layer). The borrow is scoped to
    /// a single `linearise_global_into` call and never re-entered.
    scratch: RefCell<Vec<BlockScratch>>,
}

impl Assembly {
    /// Starts building an assembly.
    pub fn builder() -> AssemblyBuilder {
        AssemblyBuilder::new()
    }

    /// Exports the per-block stamp-cache triples `(static scale, packed PWL
    /// device segments, stamped)` for checkpointing. These are loop-carried:
    /// the relinearisation skip paths test devices against their segments and
    /// feed the cached scale into the Eq. 3 monitor, so a bit-identical resume
    /// (including the `constant/pwl_stamps_skipped` counters) must restore
    /// them rather than start cold. The segments of a tracked block travel
    /// packed [`SEGMENT_BITS`] bits per device, first device highest; an
    /// untracked block exports `None`. The block-local `lin` buffers are
    /// deliberately excluded — after a restore the first per-device restamp
    /// rewrites them in full.
    pub(crate) fn stamp_cache(&self) -> Vec<(f64, Option<u64>, bool)> {
        self.scratch
            .borrow()
            .iter()
            .map(|buffers| (buffers.static_scale, buffers.devices.packed(), buffers.stamped))
            .collect()
    }

    /// Restores the stamp cache exported by [`Assembly::stamp_cache`].
    /// Returns `false` (leaving the cache untouched) when the cache does not
    /// fit this assembly: a block-count mismatch, or packed segments that
    /// cannot describe the block's devices — the checkpoint was taken from a
    /// differently assembled system.
    pub(crate) fn restore_stamp_cache(&self, cache: &[(f64, Option<u64>, bool)]) -> bool {
        let mut scratch = self.scratch.borrow_mut();
        if scratch.len() != cache.len() {
            return false;
        }
        let mut restored = Vec::with_capacity(cache.len());
        for (buffers, &(_, packed, _)) in scratch.iter().zip(cache) {
            match packed.map(|bits| buffers.devices.unpack(bits)) {
                Some(None) => return false,
                segments => restored.push(segments.flatten()),
            }
        }
        for ((buffers, &(static_scale, _, stamped)), segments) in
            scratch.iter_mut().zip(cache).zip(restored)
        {
            buffers.static_scale = static_scale;
            buffers.stamped = stamped;
            buffers.lin_current = false;
            buffers.devices.tracked = segments.is_some();
            if let Some(segments) = segments {
                buffers.devices.segments = segments;
            }
        }
        true
    }

    /// Total number of global state variables.
    pub fn state_count(&self) -> usize {
        self.state_count
    }

    /// Number of global nets (terminal variables).
    pub fn net_count(&self) -> usize {
        self.net_names.len()
    }

    /// Number of blocks in the assembly.
    pub fn block_count(&self) -> usize {
        self.slots.len()
    }

    /// Names of the global state variables (`block.state`).
    pub fn state_names(&self) -> &[String] {
        &self.state_names
    }

    /// Names of the global nets.
    pub fn net_names(&self) -> &[String] {
        &self.net_names
    }

    /// Index of the net with the given name.
    pub fn net_index(&self, name: &str) -> Option<usize> {
        self.net_names.iter().position(|n| n == name)
    }

    /// Global indices of the states the blocks declared stiff (ascending
    /// order) — the stiff side of the partitioned state space, advanced by
    /// the solver's exact exponential lane instead of the explicit march.
    pub fn stiff_states(&self) -> &[usize] {
        &self.stiff_states
    }

    /// Number of registered blocks whose Jacobian contribution is declared
    /// [`JacobianStructure::Constant`] — the blocks the relinearisation pass
    /// can skip entirely (scatter + Eq. 3 monitor) after the segment-opening
    /// full stamp.
    pub fn constant_block_count(&self) -> usize {
        self.slots.iter().filter(|slot| slot.structure == JacobianStructure::Constant).count()
    }

    /// Offset of block `block_index`'s states within the global state vector.
    ///
    /// # Panics
    ///
    /// Panics if `block_index` is out of range.
    pub fn state_offset(&self, block_index: usize) -> usize {
        self.slots[block_index].state_offset
    }

    /// Builds the global initial state by concatenating the blocks' initial
    /// states (in registration order).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfiguration`] if the provided blocks do not
    /// match the registered slots.
    pub fn initial_state(&self, blocks: &[&dyn StateSpaceBlock]) -> Result<DVector, CoreError> {
        self.check_blocks(blocks)?;
        let mut x = DVector::zeros(self.state_count);
        for (slot, block) in self.slots.iter().zip(blocks) {
            x.set_segment(slot.state_offset, &block.initial_state());
        }
        Ok(x)
    }

    fn check_blocks(&self, blocks: &[&dyn StateSpaceBlock]) -> Result<(), CoreError> {
        if blocks.len() != self.slots.len() {
            return Err(CoreError::InvalidConfiguration(format!(
                "assembly has {} blocks but {} were provided",
                self.slots.len(),
                blocks.len()
            )));
        }
        for (slot, block) in self.slots.iter().zip(blocks) {
            if slot.state_count != block.state_count()
                || slot.terminal_nets.len() != block.terminal_count()
                || slot.constraint_count != block.constraint_count()
            {
                return Err(CoreError::InvalidConfiguration(format!(
                    "block {} no longer matches its registered dimensions",
                    block.name()
                )));
            }
        }
        Ok(())
    }

    /// The input checks both stamp entry points share: the blocks, the
    /// state/net vectors and the output buffer must match the assembly.
    fn check_stamp_inputs(
        &self,
        blocks: &[&dyn StateSpaceBlock],
        x: &DVector,
        y: &DVector,
        out: &GlobalLinearisation,
    ) -> Result<(), CoreError> {
        self.check_blocks(blocks)?;
        if x.len() != self.state_count || y.len() != self.net_count() {
            return Err(CoreError::InvalidConfiguration(format!(
                "state/net vector sizes ({}, {}) do not match the assembly ({}, {})",
                x.len(),
                y.len(),
                self.state_count,
                self.net_count()
            )));
        }
        if out.dimensions() != (self.state_count, self.net_count(), self.constraint_count) {
            return Err(CoreError::InvalidConfiguration(format!(
                "linearisation buffer dimensions {:?} do not match the assembly ({}, {}, {})",
                out.dimensions(),
                self.state_count,
                self.net_count(),
                self.constraint_count
            )));
        }
        Ok(())
    }

    /// Assembles the global linearisation (Eq. 2) at time `t`, global state `x`
    /// and net values `y`, by calling every block's local linearisation and
    /// scattering it into the global matrices.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfiguration`] if the blocks or vector
    /// dimensions do not match the assembly.
    pub fn linearise_global(
        &self,
        blocks: &[&dyn StateSpaceBlock],
        t: f64,
        x: &DVector,
        y: &DVector,
    ) -> Result<GlobalLinearisation, CoreError> {
        let mut out =
            GlobalLinearisation::zeros(self.state_count, self.net_count(), self.constraint_count);
        self.linearise_global_into(blocks, t, x, y, &mut out)?;
        Ok(out)
    }

    /// Assembles the global linearisation into a caller-owned buffer without
    /// allocating: each block writes its Jacobians into the assembly's
    /// preallocated per-block scratch through
    /// [`StateSpaceBlock::linearise_into`], and the scatter pass stamps them
    /// into the preallocated global matrices of `out`. This is the kernel the
    /// march-in-time solver calls at every accepted step.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfiguration`] if the blocks, vector
    /// dimensions or `out` dimensions do not match the assembly.
    pub fn linearise_global_into(
        &self,
        blocks: &[&dyn StateSpaceBlock],
        t: f64,
        x: &DVector,
        y: &DVector,
        out: &mut GlobalLinearisation,
    ) -> Result<(), CoreError> {
        self.check_stamp_inputs(blocks, x, y, out)?;
        out.clear();
        let mut scratch = self.scratch.borrow_mut();

        for ((slot, block), buffers) in self.slots.iter().zip(blocks).zip(scratch.iter_mut()) {
            buffers.x.copy_from_segment(x, slot.state_offset);
            for (i, &net) in slot.terminal_nets.iter().enumerate() {
                buffers.y[i] = y[net];
            }
            // A `Pwl` block whose devices fit the checkpoint packing stamps
            // through its per-device path, which records every device's
            // segment (the previous segments serve as search hints).
            let tracked = slot.structure == JacobianStructure::Pwl
                && buffers.devices.track(block.pwl_devices());
            if tracked {
                let segments = &mut buffers.devices.segments;
                block.restamp_pwl_into(t, &buffers.x, &buffers.y, segments, true, &mut buffers.lin);
            } else {
                block.linearise_into(t, &buffers.x, &buffers.y, &mut buffers.lin);
            }
            buffers.lin_current = true;
            let lin = &buffers.lin;
            debug_assert!(
                lin.is_consistent(),
                "block {} returned inconsistent matrices",
                slot.name
            );
            debug_assert!(
                self.maps_every_nonzero(slot, lin),
                "block {} stamped outside its declared Jacobian pattern",
                slot.name
            );
            if slot.structure != JacobianStructure::Nonlinear {
                // Record the block's Eq. 3 scale contribution once: the
                // relinearisation fast paths fold this cached maximum in
                // instead of rescanning Jacobians their contracts pin (the
                // `Constant` affine-only refresh and the unmoved `Pwl` skip
                // both need it).
                buffers.static_scale = jacobian_max(lin);
            }
            buffers.stamped = true;

            // Every destination entry is written by exactly one local entry
            // (a block's terminals map to distinct nets), so block rows land
            // as bulk slice copies and net columns as straight assignments
            // onto the cleared matrices.
            let states = slot.state_offset..slot.state_offset + slot.state_count;
            for row in 0..slot.state_count {
                let global_row = slot.state_offset + row;
                out.jxx.row_mut(global_row)[states.clone()].copy_from_slice(lin.a.row(row));
                let jxy_row = out.jxy.row_mut(global_row);
                let b_row = lin.b.row(row);
                for (local_terminal, &net) in slot.terminal_nets.iter().enumerate() {
                    jxy_row[net] = b_row[local_terminal];
                }
            }
            out.ex.as_mut_slice()[states.clone()].copy_from_slice(lin.e.as_slice());
            for row in 0..slot.constraint_count {
                let global_row = slot.constraint_offset + row;
                out.jyx.row_mut(global_row)[states.clone()].copy_from_slice(lin.c.row(row));
                let jyy_row = out.jyy.row_mut(global_row);
                let d_row = lin.d.row(row);
                for (local_terminal, &net) in slot.terminal_nets.iter().enumerate() {
                    jyy_row[net] = d_row[local_terminal];
                }
                out.gy[global_row] = lin.g[row];
            }
        }

        Ok(())
    }

    /// Whether the scatter map of `slot` holds every entry of `lin`'s
    /// Jacobians that is not exactly `+0.0` — the block's pattern contract,
    /// checked against what the relinearisation pass actually scatters.
    fn maps_every_nonzero(&self, slot: &BlockSlot, lin: &LocalLinearisation) -> bool {
        let nonzero = |value: f64| value.to_bits() != 0;
        [&lin.a, &lin.b, &lin.c, &lin.d].into_iter().enumerate().all(|(k, matrix)| {
            let values = matrix.as_slice();
            let map = &self.scatter[slot.map[k]..slot.map[k + 1]];
            // Map entries are distinct, so the counts agree exactly when no
            // entry outside the map differs from +0.0.
            map.iter().filter(|&&(local, _)| nonzero(values[local])).count()
                == values.iter().filter(|&&value| nonzero(value)).count()
        })
    }

    /// Fused relinearisation: re-stamps `out` in place — which must hold the
    /// linearisation this assembly produced at the previous accepted point —
    /// and computes the Eq. 3 relative Jacobian change against those previous
    /// contents during the same pass. A restamped block's Jacobians are
    /// scattered through its flat structural map ([`JacobianPattern`]):
    /// every mapped destination is read once (the previous value) and
    /// written once (the new value), so the steady-state solver step needs
    /// neither a second linearisation buffer nor a separate change-scan
    /// pass. Entries outside the patterns are `+0.0` in both linearisations
    /// and contribute nothing to either maximum, which makes the result
    /// identical to the dense change scan of two full buffers.
    ///
    /// Blocks under the [`JacobianStructure::Constant`] contract are not
    /// restamped at all: their Jacobian rows in `out` are already exact (the
    /// segment-opening full stamp wrote them and the contract pins them),
    /// their diff contribution to the monitor is identically zero, and their
    /// scale contribution is folded in from the maximum cached at the full
    /// stamp — so the returned monitor value is bit-identical to a full
    /// restamp while the pass touches only their affine terms (via
    /// [`StateSpaceBlock::affine_into`]). A [`JacobianStructure::Pwl`] block
    /// with tracked devices is handed its device segments
    /// ([`StateSpaceBlock::restamp_pwl_into`]): when no device changed
    /// segment it is skipped the same way, affine terms included; otherwise
    /// it rewrites only what its moved devices feed before the scatter. The
    /// report counts both kinds of skip.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Assembly::linearise_global_into`].
    pub fn relinearise_global_into(
        &self,
        blocks: &[&dyn StateSpaceBlock],
        t: f64,
        x: &DVector,
        y: &DVector,
        out: &mut GlobalLinearisation,
    ) -> Result<StampReport, CoreError> {
        self.check_stamp_inputs(blocks, x, y, out)?;
        let mut scratch = self.scratch.borrow_mut();

        // Four lanes each of max |new| and max |new − old| over every
        // restamped entry; a restamped block accumulates its scale in lanes
        // of its own first, so a `Pwl` block's cached scale comes out of the
        // same pass. Skipped blocks fold in their cached scale. Maxima are
        // order-independent, so the combined result is exact.
        let mut scale = [0.0_f64; 4];
        let mut diff = [0.0_f64; 4];
        let mut scale_cached = 0.0_f64;
        let mut constant_stamps_skipped = 0_usize;
        let mut pwl_stamps_skipped = 0_usize;
        for ((slot, block), buffers) in self.slots.iter().zip(blocks).zip(scratch.iter_mut()) {
            buffers.x.copy_from_segment(x, slot.state_offset);
            for (i, &net) in slot.terminal_nets.iter().enumerate() {
                buffers.y[i] = y[net];
            }
            let states = slot.state_offset..slot.state_offset + slot.state_count;

            if slot.structure == JacobianStructure::Constant && buffers.stamped {
                // Constant contract: the Jacobian rows already in `out` are
                // the current values, so only the affine terms need a
                // refresh. The monitor sees a zero diff and the cached scale.
                block.affine_into(t, &buffers.x, &buffers.y, &mut buffers.lin);
                out.ex.as_mut_slice()[states.clone()].copy_from_slice(buffers.lin.e.as_slice());
                for row in 0..slot.constraint_count {
                    out.gy[slot.constraint_offset + row] = buffers.lin.g[row];
                }
                scale_cached = scale_cached.max(buffers.static_scale);
                constant_stamps_skipped += 1;
                continue;
            }

            if buffers.devices.tracked && buffers.stamped {
                // Pwl contract: when no device changed segment since the
                // values in `out` were stamped, a restamp would reproduce
                // them bit for bit — Jacobians *and* affine terms — so the
                // whole stamp is skipped, and the monitor sees a zero diff
                // and the cached scale, exactly as a full restamp would
                // report. Otherwise the block has rewritten what its moved
                // devices feed, and the scatter below carries it over.
                let moved = block.restamp_pwl_into(
                    t,
                    &buffers.x,
                    &buffers.y,
                    &mut buffers.devices.segments,
                    !buffers.lin_current,
                    &mut buffers.lin,
                );
                buffers.lin_current = true;
                if !moved {
                    scale_cached = scale_cached.max(buffers.static_scale);
                    pwl_stamps_skipped += 1;
                    continue;
                }
            } else {
                block.linearise_into(t, &buffers.x, &buffers.y, &mut buffers.lin);
                buffers.lin_current = true;
            }
            let lin = &buffers.lin;
            debug_assert!(
                lin.is_consistent(),
                "block {} returned inconsistent matrices",
                slot.name
            );
            let mut block_scale = [0.0_f64; 4];
            let targets = [&mut out.jxx, &mut out.jxy, &mut out.jyx, &mut out.jyy];
            let sources = [&lin.a, &lin.b, &lin.c, &lin.d];
            for (k, (target, source)) in targets.into_iter().zip(sources).enumerate() {
                stamp_mapped(
                    target.as_mut_slice(),
                    source.as_slice(),
                    &self.scatter[slot.map[k]..slot.map[k + 1]],
                    &mut block_scale,
                    &mut diff,
                );
            }
            // Affine terms are not part of the Eq. 3 monitor: plain copies.
            out.ex.as_mut_slice()[states].copy_from_slice(lin.e.as_slice());
            for row in 0..slot.constraint_count {
                out.gy[slot.constraint_offset + row] = lin.g[row];
            }
            if slot.structure == JacobianStructure::Pwl {
                // Refresh the cached scale so the next unmoved skip folds in
                // this stamp's maximum: the lanes saw every structural
                // nonzero of `a`, `b`, `c` and `d`.
                buffers.static_scale = lanes_max(block_scale);
            }
            for (total, lane) in scale.iter_mut().zip(block_scale) {
                *total = total.max(lane);
            }
        }

        let scale = lanes_max(scale).max(scale_cached).max(1e-30);
        Ok(StampReport {
            change: lanes_max(diff) / scale,
            constant_stamps_skipped,
            pwl_stamps_skipped,
        })
    }
}

/// Largest |entry| over a block's four Jacobians — the Eq. 3 scale a
/// skipped block contributes.
fn jacobian_max(lin: &LocalLinearisation) -> f64 {
    let max = |m: &DMatrix| m.as_slice().iter().fold(0.0_f64, |a, v| a.max(v.abs()));
    max(&lin.a).max(max(&lin.b)).max(max(&lin.c)).max(max(&lin.d))
}

fn lanes_max(lanes: [f64; 4]) -> f64 {
    lanes[0].max(lanes[1]).max(lanes[2]).max(lanes[3])
}

/// Mapped stamp: for every `(local, global)` pair overwrites `dst[global]`
/// with `src[local]` while accumulating the two monitor maxima, `|new|` and
/// `|new − old|`, in four register-held lanes (independent dependency chains
/// for the max reductions; entry `k` of the map lands in lane `k mod 4`).
#[inline]
fn stamp_mapped(
    dst: &mut [f64],
    src: &[f64],
    map: &[(usize, usize)],
    scale: &mut [f64; 4],
    diff: &mut [f64; 4],
) {
    let (mut s, mut d) = (*scale, *diff);
    let mut stamp = |lane: usize, (local, global): (usize, usize)| {
        let new = src[local];
        let old = std::mem::replace(&mut dst[global], new);
        s[lane] = fold_max(s[lane], new.abs());
        d[lane] = fold_max(d[lane], (new - old).abs());
    };
    let mut chunks = map.chunks_exact(4);
    for chunk in &mut chunks {
        for (lane, &pair) in chunk.iter().enumerate() {
            stamp(lane, pair);
        }
    }
    for (lane, &pair) in chunks.remainder().iter().enumerate() {
        stamp(lane, pair);
    }
    (*scale, *diff) = (s, d);
}

/// `max(acc, value)` for a non-NaN accumulator `acc ≥ +0.0` and a `value`
/// that is `≥ +0.0` or NaN — exactly [`f64::max`] on that domain (a NaN
/// value leaves the accumulator, ties are the same bits), as one compare
/// instead of `f64::max`'s NaN-propagation fix-up.
#[inline]
fn fold_max(acc: f64, value: f64) -> f64 {
    if value > acc {
        value
    } else {
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harvsim_blocks::block::LocalLinearisation;

    /// A one-state RC block: ẋ = (V_port − x)/(R·C), constraint I_port = (V_port − x)/R.
    struct RcBlock {
        name: String,
        r: f64,
        c: f64,
    }

    impl StateSpaceBlock for RcBlock {
        fn name(&self) -> &str {
            &self.name
        }
        fn state_count(&self) -> usize {
            1
        }
        fn terminal_count(&self) -> usize {
            2
        }
        fn constraint_count(&self) -> usize {
            1
        }
        fn state_names(&self) -> Vec<String> {
            vec!["v_cap".to_string()]
        }
        fn terminal_names(&self) -> Vec<String> {
            vec!["V".to_string(), "I".to_string()]
        }
        fn initial_state(&self) -> DVector {
            DVector::zeros(1)
        }
        fn linearise(&self, _t: f64, _x: &DVector, _y: &DVector) -> LocalLinearisation {
            LocalLinearisation {
                a: DMatrix::from_rows(&[&[-1.0 / (self.r * self.c)]]).unwrap(),
                b: DMatrix::from_rows(&[&[1.0 / (self.r * self.c), 0.0]]).unwrap(),
                e: DVector::zeros(1),
                // I - (V - x)/R = 0
                c: DMatrix::from_rows(&[&[1.0 / self.r]]).unwrap(),
                d: DMatrix::from_rows(&[&[-1.0 / self.r, 1.0]]).unwrap(),
                g: DVector::zeros(1),
            }
        }
    }

    /// A source block: fixes its port voltage to a constant and contributes the
    /// constraint V_port − v0 = 0.
    struct SourceBlock {
        v0: f64,
    }

    impl StateSpaceBlock for SourceBlock {
        fn name(&self) -> &str {
            "source"
        }
        fn state_count(&self) -> usize {
            0
        }
        fn terminal_count(&self) -> usize {
            2
        }
        fn constraint_count(&self) -> usize {
            1
        }
        fn state_names(&self) -> Vec<String> {
            Vec::new()
        }
        fn terminal_names(&self) -> Vec<String> {
            vec!["V".to_string(), "I".to_string()]
        }
        fn initial_state(&self) -> DVector {
            DVector::zeros(0)
        }
        fn linearise(&self, _t: f64, _x: &DVector, _y: &DVector) -> LocalLinearisation {
            LocalLinearisation {
                a: DMatrix::zeros(0, 0),
                b: DMatrix::zeros(0, 2),
                e: DVector::zeros(0),
                c: DMatrix::zeros(1, 0),
                d: DMatrix::from_rows(&[&[1.0, 0.0]]).unwrap(),
                g: DVector::from_slice(&[-self.v0]),
            }
        }
    }

    fn rc_assembly() -> (Assembly, SourceBlock, RcBlock) {
        let source = SourceBlock { v0: 5.0 };
        let rc = RcBlock { name: "rc".to_string(), r: 1000.0, c: 1e-6 };
        let mut builder = Assembly::builder();
        builder.add_block(&source, &["vin", "iin"]).unwrap();
        builder.add_block(&rc, &["vin", "iin"]).unwrap();
        let assembly = builder.build().unwrap();
        (assembly, source, rc)
    }

    #[test]
    fn builder_tracks_dimensions_and_names() {
        let (assembly, ..) = rc_assembly();
        assert_eq!(assembly.state_count(), 1);
        assert_eq!(assembly.net_count(), 2);
        assert_eq!(assembly.block_count(), 2);
        assert_eq!(assembly.net_index("vin"), Some(0));
        assert_eq!(assembly.net_index("iin"), Some(1));
        assert_eq!(assembly.net_index("missing"), None);
        assert_eq!(assembly.state_names(), &["rc.v_cap".to_string()]);
        assert_eq!(assembly.state_offset(1), 0);
    }

    #[test]
    fn builder_rejects_bad_wiring() {
        let source = SourceBlock { v0: 1.0 };
        let mut builder = Assembly::builder();
        assert!(builder.add_block(&source, &["only-one"]).is_err());
        // Constraint/net mismatch: one block with 2 nets but only 1 constraint.
        let mut builder = Assembly::builder();
        builder.add_block(&source, &["a", "b"]).unwrap();
        assert!(builder.build().is_err());
        // Empty assembly.
        assert!(Assembly::builder().build().is_err());
    }

    /// The stamp writes each block terminal into its own net column, so a
    /// block that wires two of its terminals to one net is refused typed,
    /// and the builder is left as it was.
    #[test]
    fn a_block_wiring_two_terminals_to_one_net_is_refused() {
        let source = SourceBlock { v0: 1.0 };
        let mut builder = Assembly::builder();
        match builder.add_block(&source, &["v", "v"]) {
            Err(CoreError::InvalidConfiguration(detail)) => {
                assert!(detail.contains("net v"), "unhelpful rejection: {detail}");
            }
            other => panic!("a doubly wired net was answered {other:?}"),
        }
        assert_eq!(builder.add_block(&source, &["v", "i"]).unwrap(), 0);
    }

    #[test]
    fn terminal_elimination_solves_the_rc_divider() {
        let (assembly, source, rc) = rc_assembly();
        let blocks: [&dyn StateSpaceBlock; 2] = [&source, &rc];
        let x = assembly.initial_state(&blocks).unwrap();
        let y0 = DVector::zeros(2);
        let lin = assembly.linearise_global(&blocks, 0.0, &x, &y0).unwrap();
        // Solve Eq. 4: the port voltage must equal the source value and the
        // current must be (V - x)/R = 5 mA at x = 0.
        let y = lin.solve_terminals(&x).unwrap();
        let v = y[assembly.net_index("vin").unwrap()];
        let i = y[assembly.net_index("iin").unwrap()];
        assert!((v - 5.0).abs() < 1e-9);
        assert!((i - 5.0e-3).abs() < 1e-9);
        // State derivative: dx/dt = (5 - 0)/(RC) = 5000 V/s.
        let dx = lin.state_derivative(&x, &y);
        assert!((dx[0] - 5000.0).abs() < 1e-6);
        // Total-step matrix equals -1/(RC) for this single-state system.
        let a = lin.total_step_matrix().unwrap();
        assert!((a[(0, 0)] + 1000.0).abs() < 1e-6);
    }

    /// A piecewise-linear block with 5 states and 6 terminals and one
    /// tracked device whose segment `⌊x₀⌋ ∈ {0, 1, 2}` alone determines the
    /// Jacobians. The largest entry sits in `a`, in the scattered `b` or in
    /// the scattered `d` depending on the segment.
    struct PwlBlock;

    impl PwlBlock {
        fn segment(x: &DVector) -> usize {
            x[0].clamp(0.0, 2.0) as usize
        }
    }

    impl StateSpaceBlock for PwlBlock {
        fn name(&self) -> &str {
            "pwl"
        }
        fn state_count(&self) -> usize {
            5
        }
        fn terminal_count(&self) -> usize {
            6
        }
        fn constraint_count(&self) -> usize {
            6
        }
        fn state_names(&self) -> Vec<String> {
            (0..5).map(|i| format!("x{i}")).collect()
        }
        fn terminal_names(&self) -> Vec<String> {
            (0..6).map(|i| format!("y{i}")).collect()
        }
        fn initial_state(&self) -> DVector {
            DVector::zeros(5)
        }
        fn linearise(&self, _t: f64, x: &DVector, _y: &DVector) -> LocalLinearisation {
            let segment = Self::segment(x);
            let gain = 1.0 + segment as f64;
            let entry = |r: usize, c: usize| gain * (((r * 7 + c * 3) % 11) as f64 - 5.0);
            let mut lin = LocalLinearisation {
                a: DMatrix::from_fn(5, 5, entry),
                b: DMatrix::from_fn(5, 6, |r, c| entry(r + 5, c)),
                e: DVector::zeros(5),
                c: DMatrix::from_fn(6, 5, |r, c| entry(r + 1, c + 2)),
                d: DMatrix::from_fn(6, 6, |r, c| if r == c { 1.0 } else { 0.0 }),
                g: DVector::zeros(6),
            };
            match segment {
                0 => lin.a[(3, 2)] = -90.0,
                1 => lin.b[(4, 5)] = 120.0,
                _ => lin.d[(5, 4)] = -150.0,
            }
            lin
        }
        fn jacobian_structure(&self) -> JacobianStructure {
            JacobianStructure::Pwl
        }
        fn pwl_devices(&self) -> Option<PwlDevices> {
            Some(PwlDevices { count: 1, segments: 3 })
        }
        fn restamp_pwl_into(
            &self,
            t: f64,
            x: &DVector,
            y: &DVector,
            segments: &mut [usize],
            rewrite_all: bool,
            out: &mut LocalLinearisation,
        ) -> bool {
            let segment = Self::segment(x);
            let moved = segment != segments[0];
            segments[0] = segment;
            if moved || rewrite_all {
                *out = self.linearise(t, x, y);
            }
            moved
        }
    }

    #[test]
    fn restamped_pwl_scale_equals_a_rescan_of_its_jacobians() {
        let block = PwlBlock;
        let mut builder = Assembly::builder();
        let nets: Vec<String> = (0..6).map(|i| format!("n{i}")).collect();
        let nets: Vec<&str> = nets.iter().map(String::as_str).collect();
        builder.add_block(&block, &nets).unwrap();
        let assembly = builder.build().unwrap();
        let blocks: [&dyn StateSpaceBlock; 1] = [&block];
        let y = DVector::zeros(6);
        let at = |x0: f64| DVector::from_slice(&[x0, 0.0, 0.0, 0.0, 0.0]);
        let mut lin = assembly.linearise_global(&blocks, 0.0, &at(0.5), &y).unwrap();
        for x0 in [1.5, 2.5, 0.5, 2.5] {
            let x = at(x0);
            let previous = lin.clone();
            let report = assembly.relinearise_global_into(&blocks, 0.0, &x, &y, &mut lin).unwrap();
            assert_eq!(report.pwl_stamps_skipped, 0, "a new segment restamps");
            let rescan = jacobian_max(&block.linearise(0.0, &x, &y));
            let cache = assembly.stamp_cache()[0];
            assert_eq!(cache.0.to_bits(), rescan.to_bits(), "x0 = {x0}");
            assert_eq!(cache.1, Some(PwlBlock::segment(&x) as u64), "the device's segment");
            let fresh = assembly.linearise_global(&blocks, 0.0, &x, &y).unwrap();
            let change = fresh.jacobian_change(&previous).unwrap();
            assert_eq!(report.change.to_bits(), change.to_bits(), "x0 = {x0}");
            // The same segment again is skipped with a zero diff over the
            // cached scale.
            let again = assembly.relinearise_global_into(&blocks, 0.0, &x, &y, &mut lin).unwrap();
            assert_eq!((again.pwl_stamps_skipped, again.change), (1, 0.0));
        }
    }

    /// Deterministic splitmix64 stream for the seeded walks below.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[lo, hi)`.
    fn uniform(state: &mut u64, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (splitmix(state) >> 11) as f64 / (1_u64 << 53) as f64
    }

    /// Bit patterns of every entry of a global linearisation.
    fn global_bits(lin: &GlobalLinearisation) -> Vec<u64> {
        [lin.jxx.as_slice(), lin.jxy.as_slice(), lin.ex.as_slice()]
            .into_iter()
            .chain([lin.jyx.as_slice(), lin.jyy.as_slice(), lin.gy.as_slice()])
            .flatten()
            .map(|v| v.to_bits())
            .collect()
    }

    /// The harvester's diode voltages and segments at `x`, recomputed here
    /// the way the multiplier recovers its node voltages.
    fn diode_segments(h: &crate::TunableHarvester, x: &DVector) -> Vec<usize> {
        let m = h.multiplier();
        let (offset, n) = (h.multiplier_state_offset(), m.stage_count());
        let pump = |i: usize| if i % 2 == 1 && i != n { 1.0 } else { 0.0 };
        let node =
            |i: usize| if i == 0 { 0.0 } else { x[offset + i - 1] + pump(i) * x[offset + n] };
        (1..=n).map(|i| m.diode().companion_segment(node(i - 1) - node(i))).collect()
    }

    /// Sets the multiplier's states so its diode voltages are `vd` (up to
    /// rounding) with the rail at `vrail`.
    fn place_diodes(h: &crate::TunableHarvester, x: &mut DVector, vd: &[f64], vrail: f64) {
        let (offset, n) = (h.multiplier_state_offset(), vd.len());
        let mut node = 0.0;
        for (i, v) in (1..=n).zip(vd) {
            node -= v;
            let rail = if i % 2 == 1 && i != n { vrail } else { 0.0 };
            x[offset + i - 1] = node - rail;
        }
        x[offset + n] = vrail;
    }

    /// The per-device equivalence battery: seeded random walks of operating
    /// points (small drifts, kink crossings, large jumps, repeats and
    /// checkpoint-style cache restores) over 2–6 stages and tables of 16,
    /// 150, 600, 1 022 and 1 023 knee segments. After every
    /// `relinearise_global_into` the buffer and the report must equal a fresh
    /// `linearise_global` on an independent harvester plus
    /// `jacobian_change` bit for bit, and a skip must be counted exactly when
    /// no diode changed segment (never, for a table past the packing).
    #[test]
    fn per_device_restamps_match_fresh_stamps_bit_for_bit() {
        let mut rng = 0x0dd_ba11_u64;
        for stages in 2..=6 {
            for knee_segments in [16, 150, 600, 1022, 1023] {
                let mut params = harvsim_blocks::HarvesterParameters::practical_device();
                params.multiplier_stages = stages;
                params.diode_table_segments = knee_segments;
                let build = || {
                    crate::TunableHarvester::with_constant_excitation(params.clone(), 70.0).unwrap()
                };
                let (mut h, reference) = (build(), build());
                let tracked = h.multiplier().diode().total_segments() < 1 << SEGMENT_BITS;
                let label = format!("{stages} stages, {knee_segments} knee segments");

                let mut x = h.initial_state(2.5).unwrap();
                let mut vd: Vec<f64> = (0..stages).map(|_| uniform(&mut rng, -0.3, 0.25)).collect();
                let mut vrail = 1.0;
                place_diodes(&h, &mut x, &vd, vrail);
                let y = DVector::from_fn(h.net_count(), |i| 0.1 * i as f64);
                let mut t = 0.0;
                let mut lin = h.linearise_global(t, &x, &y).unwrap();
                let mut segments = diode_segments(&h, &x);
                let (mut skips, mut restamps) = (0, 0);
                for step in 0..300 {
                    let kind = uniform(&mut rng, 0.0, 1.0);
                    if kind < 0.4 {
                        // Small drift: usually inside every segment.
                        for v in &mut vd {
                            *v += uniform(&mut rng, -3e-5, 3e-5);
                        }
                        vrail += uniform(&mut rng, -1e-3, 1e-3);
                    } else if kind < 0.75 {
                        // Kink crossing: one diode moves a few (average
                        // knee) segments.
                        let i = (splitmix(&mut rng) % stages as u64) as usize;
                        let reach = 3.0 * 0.45 / knee_segments as f64;
                        vd[i] += uniform(&mut rng, -reach, reach);
                    } else if kind < 0.85 {
                        // Large jump: every diode to a new point, mostly
                        // across the knee grid, sometimes deep reverse or
                        // past the table's top.
                        for v in &mut vd {
                            *v = if uniform(&mut rng, 0.0, 1.0) < 0.8 {
                                uniform(&mut rng, -0.25, 0.22)
                            } else {
                                uniform(&mut rng, -1.5, 0.45)
                            };
                        }
                        vrail = uniform(&mut rng, -3.0, 3.0);
                    }
                    // (Otherwise a repeat of the same point.)
                    place_diodes(&h, &mut x, &vd, vrail);
                    x[h.supercap_state_offset()] += uniform(&mut rng, -1e-4, 1e-4);
                    t += 1e-5;
                    if step % 50 == 49 {
                        // A checkpoint restore: a freshly built harvester
                        // takes over the stamp cache (the segments) and the
                        // global buffer, but not the block-local buffers.
                        let restored = build();
                        let cache = h.assembly().stamp_cache();
                        assert!(restored.assembly().restore_stamp_cache(&cache), "{label}");
                        h = restored;
                    }

                    let previous = lin.clone();
                    let report = h.relinearise_global_into(t, &x, &y, &mut lin).unwrap();
                    let fresh = reference.linearise_global(t, &x, &y).unwrap();
                    assert_eq!(global_bits(&lin), global_bits(&fresh), "{label}, step {step}");
                    let change = fresh.jacobian_change(&previous).unwrap();
                    assert_eq!(report.change.to_bits(), change.to_bits(), "{label}, step {step}");
                    assert_eq!(report.constant_stamps_skipped, 1, "{label}, step {step}");
                    let now = diode_segments(&h, &x);
                    let unmoved = now == segments;
                    assert_eq!(
                        report.pwl_stamps_skipped,
                        usize::from(tracked && unmoved),
                        "{label}, step {step}: segments {segments:?} -> {now:?}"
                    );
                    segments = now;
                    skips += report.pwl_stamps_skipped;
                    restamps += usize::from(!unmoved);
                }
                assert!(restamps > 30, "{label}: the walk must move diodes ({restamps})");
                if tracked {
                    assert!(skips > 30, "{label}: the walk must also hold still ({skips})");
                } else {
                    assert_eq!(h.assembly().stamp_cache()[1].1, None, "{label}: untracked");
                }
            }
        }
    }

    /// Ladders and tables outside the checkpoint's 64-bit slot (7 diodes; a
    /// 2048-segment table) are not tracked: every relinearisation restamps
    /// them, and the checkpoint slot carries no segments.
    #[test]
    fn configurations_outside_the_packing_restamp_every_step() {
        for (stages, knee_segments) in [(7, 600), (5, 2048)] {
            let mut params = harvsim_blocks::HarvesterParameters::practical_device();
            params.multiplier_stages = stages;
            params.diode_table_segments = knee_segments;
            let h = crate::TunableHarvester::with_constant_excitation(params, 70.0).unwrap();
            let x = h.initial_state(2.5).unwrap();
            let y = DVector::zeros(h.net_count());
            let mut lin = h.linearise_global(0.0, &x, &y).unwrap();
            for _ in 0..3 {
                let report = h.relinearise_global_into(0.0, &x, &y, &mut lin).unwrap();
                assert_eq!(report.pwl_stamps_skipped, 0, "{stages} stages, {knee_segments}");
                assert_eq!(report.change, 0.0);
            }
            assert_eq!(h.assembly().stamp_cache()[1].1, None);
        }
        // Inside the packing the same repeat is skipped.
        let h = crate::TunableHarvester::with_constant_excitation(
            harvsim_blocks::HarvesterParameters::practical_device(),
            70.0,
        )
        .unwrap();
        let x = h.initial_state(2.5).unwrap();
        let y = DVector::zeros(h.net_count());
        let mut lin = h.linearise_global(0.0, &x, &y).unwrap();
        let report = h.relinearise_global_into(0.0, &x, &y, &mut lin).unwrap();
        assert_eq!(report.pwl_stamps_skipped, 1);
    }

    /// Restored stamp caches are validated: packed segments must describe
    /// the block's devices, and a mismatch leaves the cache untouched.
    #[test]
    fn stamp_cache_restores_only_segments_that_fit() {
        let h = crate::TunableHarvester::with_constant_excitation(
            harvsim_blocks::HarvesterParameters::practical_device(),
            70.0,
        )
        .unwrap();
        let x = h.initial_state(2.5).unwrap();
        let y = DVector::zeros(h.net_count());
        h.linearise_global(0.0, &x, &y).unwrap();
        let cache = h.assembly().stamp_cache();
        let packed = cache[1].1.expect("five diodes over 601 segments are tracked");
        assert_eq!(cache[0].1, None, "the microgenerator has no devices");
        let table = h.multiplier().diode().total_segments() as u64;
        for bad in [packed | 1 << 60, (packed & !0x3ff) | table, u64::MAX] {
            let mut doctored = cache.clone();
            doctored[1].1 = Some(bad);
            assert!(!h.assembly().restore_stamp_cache(&doctored), "{bad:#x}");
        }
        let mut doctored = cache.clone();
        doctored[0].1 = Some(0);
        assert!(!h.assembly().restore_stamp_cache(&doctored), "no devices to restore into");
        assert!(!h.assembly().restore_stamp_cache(&cache[..2]));
        assert_eq!(h.assembly().stamp_cache(), cache, "failed restores change nothing");
        assert!(h.assembly().restore_stamp_cache(&cache));
        assert_eq!(h.assembly().stamp_cache(), cache);
    }

    #[test]
    fn jacobian_change_monitor() {
        let (assembly, source, rc) = rc_assembly();
        let blocks: [&dyn StateSpaceBlock; 2] = [&source, &rc];
        let x = assembly.initial_state(&blocks).unwrap();
        let y = DVector::zeros(2);
        let lin1 = assembly.linearise_global(&blocks, 0.0, &x, &y).unwrap();
        let lin2 = assembly.linearise_global(&blocks, 1.0, &x, &y).unwrap();
        // The RC system is linear and time-invariant: no Jacobian change at all.
        assert!(lin1.jacobian_change(&lin2).unwrap() < 1e-15);
    }

    #[test]
    fn mismatched_inputs_are_rejected() {
        let (assembly, source, rc) = rc_assembly();
        let blocks: [&dyn StateSpaceBlock; 2] = [&source, &rc];
        let wrong_x = DVector::zeros(3);
        let y = DVector::zeros(2);
        assert!(assembly.linearise_global(&blocks, 0.0, &wrong_x, &y).is_err());
        let x = DVector::zeros(1);
        let wrong_y = DVector::zeros(1);
        assert!(assembly.linearise_global(&blocks, 0.0, &x, &wrong_y).is_err());
        let only_one: [&dyn StateSpaceBlock; 1] = [&source];
        assert!(assembly.initial_state(&only_one).is_err());
    }

    #[test]
    fn singular_terminal_system_is_reported() {
        // Two source blocks fighting over the same net make Jyy singular
        // (both constraints involve only the voltage net).
        let s1 = SourceBlock { v0: 1.0 };
        let s2 = SourceBlock { v0: 2.0 };
        let mut builder = Assembly::builder();
        builder.add_block(&s1, &["v", "i"]).unwrap();
        builder.add_block(&s2, &["v", "i"]).unwrap();
        let assembly = builder.build().unwrap();
        let blocks: [&dyn StateSpaceBlock; 2] = [&s1, &s2];
        let x = assembly.initial_state(&blocks).unwrap();
        let y = DVector::zeros(2);
        let lin = assembly.linearise_global(&blocks, 0.0, &x, &y).unwrap();
        assert!(matches!(lin.solve_terminals(&x), Err(CoreError::IllPosedSystem(_))));
    }
}
