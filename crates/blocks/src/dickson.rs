//! The Dickson (Greinacher/Cockcroft–Walton) voltage-multiplier block
//! (Section III-B, Eq. 14 of the paper).
//!
//! The power-processing circuit of the harvester is a 5-stage voltage
//! multiplier that rectifies and boosts the small AC voltage generated by the
//! coil before it charges the supercapacitor. The block's state variables are
//! the voltages across the stage capacitors (`V_1 … V_N`), its terminal
//! variables are the generator port (`V_m`, `I_m`) and the storage port
//! (`V_c`, `I_c`), and its diodes are represented by the piecewise-linear
//! companion models of [`crate::diode`]: at every linearisation point each
//! diode contributes a conductance `G_i` and a companion current source `J_i`
//! read from a lookup table instead of evaluated from the Shockley equation
//! (the paper's central modelling trick for the power processor). The stamp
//! is a function of the table segment each diode operates in, so the
//! assembler tracks the segments between relinearisations
//! ([`StateSpaceBlock::restamp_pwl_into`]): a step at which no diode changed
//! segment costs two comparisons per diode, one at which some did rewrites
//! only the rows the movers feed, and the closed-form segment lookup (one
//! `exp()`) runs only for first stamps and for diodes that jumped further than
//! a short breakpoint walk.
//!
//! # Topology
//!
//! The classic AC-driven charge-pump ladder is used:
//!
//! * capacitor `C_i` couples node `i` to the AC rail (`V_m`) for odd `i < N`
//!   ("pump" capacitors) and to ground for even `i` and for the final stage
//!   ("storage" capacitors);
//! * diode `D_i` points from node `i−1` to node `i`, with node 0 = ground;
//! * the storage terminal is node `N`, so `V_c = V_N`;
//! * a small shunt capacitor `C_in` loads the AC rail itself (the coil
//!   self-capacitance plus the lumped diode junction capacitances), so the
//!   rail voltage `V_rail` is the block's extra state and the generator port
//!   is never resistively open. Without it the port impedance collapses to
//!   `GMIN` whenever every diode is off and the coil-inductance mode becomes
//!   arbitrarily stiff, which defeats explicit integration entirely
//!   (DESIGN.md §3.2 discusses this regularisation).
//!
//! With ideal diodes the no-load DC output approaches
//! `2·⌊N/2⌋·V̂ − N·V_f`, i.e. boosting as well as rectification, which is what
//! lets a ~2 V EMF charge a multi-volt supercapacitor.

use harvsim_linalg::DVector;

use crate::block::{
    BlockError, Jacobian, JacobianPattern, JacobianStructure, LocalLinearisation, PwlDevices,
    StateSpaceBlock,
};
use crate::diode::DiodeModel;
use crate::params::HarvesterParameters;

/// The voltage-multiplier power-processing block.
#[derive(Debug, Clone)]
pub struct DicksonMultiplier {
    stages: usize,
    stage_capacitance: f64,
    input_capacitance: f64,
    diode: DiodeModel,
    /// Evaluate the diodes through the analytic Shockley equations instead of
    /// the PWL lookup table — the device-evaluation policy of the commercial
    /// Newton–Raphson tools the baseline stands in for. Off by default (the
    /// proposed technique's whole point is the table).
    exact_companions: bool,
}

impl DicksonMultiplier {
    /// Builds the multiplier from the shared parameter set.
    ///
    /// # Errors
    ///
    /// Returns [`BlockError::InvalidParameter`] if the parameters fail
    /// validation or fewer than two stages are requested.
    pub fn new(params: &HarvesterParameters) -> Result<Self, BlockError> {
        params.validate()?;
        // The lookup tables cover the diode's operating region in this
        // micro-power circuit (currents of microamps to a few milliamps). The
        // upper edge of the table bounds the companion conductance, exactly as
        // the paper's tabulated PWL model does: transient voltage spikes beyond
        // the characterised region extrapolate with the edge slope instead of
        // the raw exponential, which keeps the explicit integration step from
        // collapsing without affecting the resolved waveforms.
        let diode = DiodeModel::new(
            params.diode_saturation_current,
            0.02585,
            params.diode_emission_coefficient,
            (-6.0, 0.20),
            params.diode_table_segments,
        )?;
        let mut multiplier =
            Self::with_components(params.multiplier_stages, params.stage_capacitance, diode)?;
        multiplier.input_capacitance = params.input_capacitance;
        Ok(multiplier)
    }

    /// Builds the multiplier from explicit component values. The rail shunt
    /// capacitance defaults to 1 % of the stage capacitance; use
    /// [`DicksonMultiplier::new`] to set it explicitly from a full parameter
    /// set (the practical device uses 470 nF, see DESIGN.md §3.2).
    ///
    /// # Errors
    ///
    /// Returns [`BlockError::InvalidParameter`] for fewer than two stages or a
    /// non-positive capacitance.
    fn with_components(
        stages: usize,
        stage_capacitance: f64,
        diode: DiodeModel,
    ) -> Result<Self, BlockError> {
        if stages < 2 {
            return Err(BlockError::InvalidParameter {
                name: "stages",
                value: stages as f64,
                constraint: "the multiplier needs at least two stages",
            });
        }
        if !(stage_capacitance > 0.0) {
            return Err(BlockError::InvalidParameter {
                name: "stage_capacitance",
                value: stage_capacitance,
                constraint: "must be positive",
            });
        }
        Ok(DicksonMultiplier {
            stages,
            stage_capacitance,
            input_capacitance: stage_capacitance * 0.01,
            diode,
            exact_companions: false,
        })
    }

    /// Number of multiplier stages (capacitors / diodes).
    pub fn stage_count(&self) -> usize {
        self.stages
    }

    /// Per-stage capacitance in farads.
    pub fn stage_capacitance(&self) -> f64 {
        self.stage_capacitance
    }

    /// Shunt capacitance at the AC input rail in farads.
    pub fn input_capacitance(&self) -> f64 {
        self.input_capacitance
    }

    /// The diode model used by every stage.
    pub fn diode(&self) -> &DiodeModel {
        &self.diode
    }

    /// Switches between the PWL-table companions (default — the paper's
    /// technique) and exact analytic Shockley evaluation (the policy of the
    /// commercial tools the Newton–Raphson baseline reproduces; an `exp()`
    /// per diode per linearisation). In exact mode the block's Jacobians vary
    /// smoothly, so it reports [`JacobianStructure::Nonlinear`] and declines
    /// per-device segment tracking.
    pub fn set_exact_companions(&mut self, exact: bool) {
        self.exact_companions = exact;
    }

    /// Whether the diodes are evaluated through the exact Shockley equations.
    pub fn exact_companions(&self) -> bool {
        self.exact_companions
    }

    /// Whether stage capacitor `i` (1-based) couples to the AC rail (`true`) or
    /// to ground (`false`).
    fn is_pump_capacitor(&self, i: usize) -> bool {
        i % 2 == 1 && i != self.stages
    }

    /// Rail-coupling coefficient `s_i`: node voltage is `n_i = V_i + s_i·V_rail`.
    fn rail_coefficient(&self, i: usize) -> f64 {
        if i == 0 {
            0.0 // node 0 is ground
        } else if self.is_pump_capacitor(i) {
            1.0
        } else {
            0.0
        }
    }

    /// Replaces the diode model (the tests swap table granularities with it).
    #[cfg(test)]
    fn set_diode(&mut self, diode: DiodeModel) {
        self.diode = diode;
    }

    /// Diode voltage `V_{d,i} = n_{i−1} − n_i` for the present state (the rail
    /// voltage is the last state entry, `x[stages]`). The hot stamping path
    /// inlines this computation over a slice borrow; the method remains the
    /// readable reference the companion-accuracy tests check against.
    #[cfg(test)]
    fn diode_voltage(&self, i: usize, x: &DVector) -> f64 {
        let vrail = x[self.stages];
        let prev = if i == 1 { 0.0 } else { x[i - 2] + self.rail_coefficient(i - 1) * vrail };
        let this = x[i - 1] + self.rail_coefficient(i) * vrail;
        prev - this
    }

    /// Ideal no-load DC output estimate `2·⌊N/2⌋·v_amplitude − N·diode_drop`,
    /// the tests' sanity bound.
    #[cfg(test)]
    fn ideal_no_load_voltage(&self, v_amplitude: f64, diode_drop: f64) -> f64 {
        2.0 * (self.stages / 2) as f64 * v_amplitude - self.stages as f64 * diode_drop
    }

    /// Walks every diode's operating-point voltage `V_{d,i} = n_{i−1} − n_i`
    /// (1-based diode index), recovering the node voltages from the state
    /// slice exactly once. This is the single definition the full stamp and
    /// the per-device restamp share — the tracking contract ("unchanged
    /// segments ⇒ bit-identical stamp") requires both to see identical
    /// voltages, so the recovery must not be allowed to drift between copies.
    #[inline]
    fn for_each_diode_voltage(&self, xs: &[f64], mut visit: impl FnMut(usize, f64)) {
        let n = self.stages;
        let vrail = xs[n];
        for i in 1..=n {
            let prev_node =
                if i == 1 { 0.0 } else { xs[i - 2] + self.rail_coefficient(i - 1) * vrail };
            let this_node = xs[i - 1] + self.rail_coefficient(i) * vrail;
            visit(i, prev_node - this_node);
        }
    }

    /// The quotients of a diode with companion pair `(g, j)`.
    fn quotients(&self, (g, j): (f64, f64)) -> CompanionQuotients {
        CompanionQuotients {
            g_cap: g / self.stage_capacitance,
            j_cap: j / self.stage_capacitance,
            g_cin: g / self.input_capacitance,
            j_cin: j / self.input_capacitance,
        }
    }

    /// Runs `stamp` over a per-diode quotient scratch indexed by 1-based
    /// diode number (index 0 unused): on the stack for any physical ladder,
    /// on the heap beyond [`MAX_STACK_STAGES`].
    fn with_quotients<R>(&self, stamp: impl FnOnce(&mut [CompanionQuotients]) -> R) -> R {
        let n = self.stages;
        if n <= MAX_STACK_STAGES {
            let mut quotients = [CompanionQuotients::default(); MAX_STACK_STAGES + 1];
            stamp(&mut quotients[..=n])
        } else {
            stamp(&mut vec![CompanionQuotients::default(); n + 1])
        }
    }

    /// Rail-coefficient step `s_{i−1} − s_i` across diode `D_i`: +1 for even
    /// `i` (a pump node behind it, a grounded node ahead), −1 for odd `i < N`
    /// and 0 for an odd `i = N` (both ends grounded) — the closed form of
    /// `rail_coefficient(i − 1) − rail_coefficient(i)`.
    fn rail_step(&self, i: usize) -> f64 {
        if i.is_multiple_of(2) {
            1.0
        } else if i < self.stages {
            -1.0
        } else {
            0.0
        }
    }

    /// Rewrites stage row `row` (1-based) of `A` and `e` from the quotients
    /// of its inflow diode `D_row` and outflow diode `D_{row+1}`. Each entry
    /// is assigned once, as the sum of the diodes' contributions onto the
    /// cleared row's `+0.0` in inflow-then-outflow order (bit-identical to
    /// accumulating them in place); the row's other entries are structural
    /// zeros that no stamp ever writes.
    fn write_stage_row(&self, row: usize, q: &[CompanionQuotients], out: &mut LocalLinearisation) {
        // Partial derivatives of the diode current i_i = G_i·(n_{i-1} - n_i) + J_i
        // with node voltages n_i = V_i + s_i·V_rail (V_rail is state index n):
        //   ∂i_i/∂V_{i-1}  = +G_i, ∂i_i/∂V_i = -G_i,
        //   ∂i_i/∂V_rail   = G_i·(s_{i-1} - s_i).
        let n = self.stages;
        let r = row - 1;
        let a_row = out.a.row_mut(r);

        // Inflow diode D_row.
        let inflow = q[row];
        if row >= 2 {
            a_row[row - 2] = 0.0 + inflow.g_cap;
        }
        let mut diagonal = 0.0 + -inflow.g_cap;
        let mut rail = 0.0 + inflow.g_cap * self.rail_step(row);
        let mut e = 0.0 + inflow.j_cap;

        // Outflow diode D_{row+1}.
        if row < n {
            let outflow = q[row + 1];
            diagonal += -outflow.g_cap;
            a_row[row] = 0.0 + outflow.g_cap;
            rail += -outflow.g_cap * self.rail_step(row + 1);
            e -= outflow.j_cap;
        }
        a_row[r] = diagonal;
        a_row[n] = rail;
        out.e[r] = e;
    }

    /// Rewrites the rail row of `A` and `e`: C_in·dV_rail/dt = Im +
    /// Σ_{pump i} (i_i − i_{i+1}). Each pump capacitor's displacement current
    /// (i_i − i_{i+1} at its node plate) exits at its rail plate, so it adds
    /// to the generator current in the rail's KCL; with C_in → 0 this reduces
    /// to the algebraic input-current constraint the block previously imposed.
    /// As in [`Self::write_stage_row`], each entry is assigned once with the
    /// in-place accumulation's order: pump `i` (odd, `< N`) owns columns
    /// `i − 1` and `i`, and column `i` also takes the inflow term of pump
    /// `i + 2`.
    fn write_rail_row(&self, q: &[CompanionQuotients], out: &mut LocalLinearisation) {
        let n = self.stages;
        let a_rail = out.a.row_mut(n);
        let mut rail = 0.0;
        let mut e_rail = 0.0;
        // Column i − 2 as the previous pump left it.
        let mut carried = 0.0;
        let mut i = 1;
        while i < n {
            // + i_i terms.
            let inflow = q[i];
            if i >= 2 {
                a_rail[i - 2] = carried + inflow.g_cin;
            }
            rail += inflow.g_cin * self.rail_step(i);
            e_rail += inflow.j_cin;
            // − i_{i+1} terms.
            let outflow = q[i + 1];
            a_rail[i - 1] = (0.0 + -inflow.g_cin) + -outflow.g_cin;
            carried = 0.0 + outflow.g_cin;
            rail += -outflow.g_cin * self.rail_step(i + 1);
            e_rail -= outflow.j_cin;
            i += 2;
        }
        a_rail[i - 2] = carried;
        a_rail[n] = rail;
        out.e[n] = 0.0 + e_rail;
    }

    /// Writes the whole local linearisation from the per-diode quotients.
    fn stamp_all(&self, q: &[CompanionQuotients], out: &mut LocalLinearisation) {
        let n = self.stages;
        out.clear();
        for row in 1..=n {
            self.write_stage_row(row, q, out);
        }
        self.write_rail_row(q, out);
        // Output current leaves the final node; the generator current
        // charges the rail shunt capacitor.
        out.b[(n - 1, 3)] = -1.0 / self.stage_capacitance;
        out.b[(n, 1)] = 1.0 / self.input_capacitance;
        // Constraint 1: Vc - V_N = 0.
        out.c[(0, n - 1)] = -1.0;
        out.d[(0, 2)] = 1.0;
        // Constraint 2: Vm - V_rail = 0 (the port voltage is the rail state).
        out.d[(1, 0)] = 1.0;
        out.c[(1, n)] = -1.0;
    }
}

/// One diode's companion pair divided by the capacitances its current
/// charges: `G/C` and `J/C` for the stage rows, `G/C_in` and `J/C_in` for the
/// rail row, each formed once per stamp. Every entry the diode feeds is one
/// of them times a rail-coefficient difference of −1, 0 or 1, for which
/// `(G·d)/C` and `(G/C)·d` round identically, sign of zero included — so the
/// stamp is bit-identical to dividing once per entry.
#[derive(Debug, Clone, Copy, Default)]
struct CompanionQuotients {
    g_cap: f64,
    j_cap: f64,
    g_cin: f64,
    j_cin: f64,
}

/// Bits 1, 3, 5, …: the pump capacitors of any ladder, masked to `i < N`.
const ODD_BITS: u64 = 0xAAAA_AAAA_AAAA_AAAA;

/// Largest stage count for which the per-diode quotient scratch lives on the
/// stack; taller ladders (far beyond any physical design — the paper's device
/// has five stages) fall back to a heap-allocated scratch.
const MAX_STACK_STAGES: usize = 16;

impl StateSpaceBlock for DicksonMultiplier {
    fn name(&self) -> &str {
        "dickson-multiplier"
    }

    fn state_count(&self) -> usize {
        self.stages + 1
    }

    fn terminal_count(&self) -> usize {
        4
    }

    fn constraint_count(&self) -> usize {
        2
    }

    fn state_names(&self) -> Vec<String> {
        (1..=self.stages)
            .map(|i| format!("V{i}"))
            .chain(std::iter::once("Vrail".to_string()))
            .collect()
    }

    fn terminal_names(&self) -> Vec<String> {
        vec!["Vm".to_string(), "Im".to_string(), "Vc".to_string(), "Ic".to_string()]
    }

    fn initial_state(&self) -> DVector {
        DVector::zeros(self.stages + 1)
    }

    fn linearise(&self, t: f64, x: &DVector, y: &DVector) -> LocalLinearisation {
        let mut out = LocalLinearisation::zeros(self.stages + 1, 4, 2);
        self.linearise_into(t, x, y, &mut out);
        out
    }

    fn linearise_into(&self, _t: f64, x: &DVector, _y: &DVector, out: &mut LocalLinearisation) {
        self.with_quotients(|q| {
            self.for_each_diode_voltage(x.as_slice(), |i, vd| {
                q[i] = self.quotients(if self.exact_companions {
                    self.diode.exact_companion(vd)
                } else {
                    self.diode.companion(vd)
                });
            });
            self.stamp_all(q, out);
        });
    }

    /// The diode companion conductances come from piecewise-linear lookup
    /// tables: the block's Jacobians jump when a diode voltage crosses a
    /// table segment and are constant in between. In exact-evaluation mode
    /// they instead vary smoothly with the operating point — the conservative
    /// `Nonlinear` contract.
    fn jacobian_structure(&self) -> JacobianStructure {
        if self.exact_companions {
            JacobianStructure::Nonlinear
        } else {
            JacobianStructure::Pwl
        }
    }

    /// The diodes, tracked per device in table mode: the multiplier's entire
    /// local linearisation is a pure function of which lookup-table segment
    /// each diode operates in. The companion pairs `(G_i, J_i)` are segment
    /// chords (constant within a segment, see [`DiodeModel::companion`]),
    /// every Jacobian entry is a fixed combination of the `G_i` and the
    /// capacitor values, the affine terms are fixed combinations of the
    /// `J_i`, and the `B`/`C`/`D` stamps are constants. Exact-evaluation mode
    /// has no segments and declines.
    fn pwl_devices(&self) -> Option<PwlDevices> {
        (!self.exact_companions)
            .then(|| PwlDevices { count: self.stages, segments: self.diode.total_segments() })
    }

    /// Per-diode restamp: every diode voltage is tested against its recorded
    /// segment (two comparisons); a diode that left it is relocated by a
    /// short breakpoint walk from the old segment
    /// ([`DiodeModel::companion_segment_from`]). When some diode moved, only
    /// the rows it feeds are rewritten — stage rows `i − 1` and `i` for
    /// `D_i`, plus the rail row when `D_i` charges a pump capacitor.
    fn restamp_pwl_into(
        &self,
        t: f64,
        x: &DVector,
        y: &DVector,
        segments: &mut [usize],
        rewrite_all: bool,
        out: &mut LocalLinearisation,
    ) -> bool {
        if self.exact_companions {
            self.linearise_into(t, x, y, out);
            return true;
        }
        let n = self.stages;
        assert_eq!(segments.len(), n, "one tracked segment per diode");
        // Bit i marks a move of D_i; ladders too tall for the mask rewrite
        // every row on any move.
        let mut moved = 0_u64;
        let mut any_moved = false;
        self.for_each_diode_voltage(x.as_slice(), |i, vd| {
            let segment = &mut segments[i - 1];
            if !self.diode.segment_contains(*segment, vd) {
                let found = self.diode.companion_segment_from(*segment, vd);
                if found != *segment {
                    *segment = found;
                    any_moved = true;
                    moved |= 1_u64.checked_shl(i as u32).unwrap_or(0);
                }
            }
        });
        if !any_moved && !rewrite_all {
            return false;
        }
        let rewrite_all = rewrite_all || n >= u64::BITS as usize - 1;
        self.with_quotients(|q| {
            for (i, &segment) in segments.iter().enumerate() {
                q[i + 1] = self.quotients(self.diode.companion_in_segment(segment));
            }
            if rewrite_all {
                self.stamp_all(q, out);
                return;
            }
            // D_i feeds stage rows i − 1 and i (bit r marks row r), and the
            // rail row when it charges a pump capacitor C_i or C_{i−1}.
            let mut rows = (moved | moved >> 1) & !1;
            while rows != 0 {
                self.write_stage_row(rows.trailing_zeros() as usize, q, out);
                rows &= rows - 1;
            }
            let pumps = ODD_BITS & ((1 << n) - 1);
            if moved & (pumps | pumps << 1) != 0 {
                self.write_rail_row(q, out);
            }
        });
        any_moved
    }

    /// The ladder's structural nonzeros: each stage row couples its own node
    /// to its neighbours (and to the rail where a diode spans a pump and a
    /// grounded capacitor), the rail row couples every pump node, plus the
    /// constant port entries — 18/25/28/35 of the 48/63/80/99 entries for
    /// 3/4/5/6 stages. The pattern is the same in table and exact mode.
    fn jacobian_pattern(&self) -> JacobianPattern {
        let n = self.stages;
        // Listed in sorted order, as the row writers touch them.
        let mut entries = Vec::with_capacity(4 * n + 8);
        for row in 1..=n {
            let r = row - 1;
            if row >= 2 {
                entries.push((Jacobian::A, r, row - 2));
            }
            entries.push((Jacobian::A, r, r));
            if row < n {
                entries.push((Jacobian::A, r, row));
            }
            if self.rail_step(row) != 0.0 || (row < n && self.rail_step(row + 1) != 0.0) {
                entries.push((Jacobian::A, r, n));
            }
        }
        // The pump capacitors 1, 3, … below N cover columns 0 up to the last
        // pump's, and every pump diode spans a rail step.
        let last_pump = if n.is_multiple_of(2) { n - 1 } else { n - 2 };
        entries.extend((0..=last_pump).map(|col| (Jacobian::A, n, col)));
        entries.extend([
            (Jacobian::A, n, n),
            (Jacobian::B, n - 1, 3),
            (Jacobian::B, n, 1),
            (Jacobian::C, 0, n - 1),
            (Jacobian::C, 1, n),
            (Jacobian::D, 0, 2),
            (Jacobian::D, 1, 0),
        ]);
        JacobianPattern::new(entries)
    }

    /// The block's two *interface* states are stiff by construction, not by
    /// physics, and go to the partitioned solver's exact exponential lane:
    ///
    /// * `V_rail` (the last state) — the 470 nF regularisation capacitance of
    ///   DESIGN.md §3.2, an artifact of keeping the generator port
    ///   resistively closed when every diode is off (its pole reaches
    ///   −G_on/C_in ≈ −10⁵ s⁻¹ in conduction);
    /// * `V_N` (the output stage) — the 10 µF stage capacitor sitting
    ///   directly on the storage port, whose pole
    ///   `−(1/R_i + 1/R_d + 1/R_l + 1/R_load)/C_N ≈ −4.1·10⁴ s⁻¹` against
    ///   the supercapacitor's 2.5 Ω immediate branch is the mode PR 3
    ///   measured binding the explicit march in *every* scenario (DESIGN.md
    ///   §7 — the pole the roadmap attributed to the rail shunt is in fact
    ///   this storage-interface mode; the two are the same order of
    ///   magnitude and both are orders faster than any waveform of
    ///   interest).
    fn stiff_states(&self) -> Vec<usize> {
        vec![self.stages - 1, self.stages]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn multiplier() -> DicksonMultiplier {
        DicksonMultiplier::new(&HarvesterParameters::practical_device()).unwrap()
    }

    fn small_multiplier(stages: usize) -> DicksonMultiplier {
        // 1 µF stages settle quickly in the standalone integration tests below.
        DicksonMultiplier::with_components(stages, 1e-6, DiodeModel::schottky().unwrap()).unwrap()
    }

    #[test]
    fn block_metadata() {
        let m = multiplier();
        assert_eq!(m.name(), "dickson-multiplier");
        assert_eq!(m.stage_count(), 5);
        assert_eq!(m.state_count(), 6, "five stage voltages plus the rail state");
        assert_eq!(m.terminal_count(), 4);
        assert_eq!(m.constraint_count(), 2);
        assert_eq!(m.state_names(), vec!["V1", "V2", "V3", "V4", "V5", "Vrail"]);
        assert_eq!(m.terminal_names(), vec!["Vm", "Im", "Vc", "Ic"]);
        assert_eq!(m.initial_state().len(), 6);
        assert!(m.stage_capacitance() > 0.0);
        assert!(m.input_capacitance() > 0.0);
        assert!(m.input_capacitance() < m.stage_capacitance());
        assert!(m.diode().saturation_current() > 0.0);
    }

    #[test]
    fn construction_validation() {
        assert!(
            DicksonMultiplier::with_components(1, 1e-6, DiodeModel::schottky().unwrap()).is_err()
        );
        assert!(
            DicksonMultiplier::with_components(3, 0.0, DiodeModel::schottky().unwrap()).is_err()
        );
        let mut params = HarvesterParameters::practical_device();
        params.multiplier_stages = 1;
        assert!(DicksonMultiplier::new(&params).is_err());
    }

    #[test]
    fn pump_capacitor_pattern() {
        let m = multiplier();
        // 5 stages: caps 1 and 3 are pump (AC-coupled), 2, 4 and 5 ground-referenced.
        assert!(m.is_pump_capacitor(1));
        assert!(!m.is_pump_capacitor(2));
        assert!(m.is_pump_capacitor(3));
        assert!(!m.is_pump_capacitor(4));
        assert!(!m.is_pump_capacitor(5));
        let m4 = small_multiplier(4);
        assert!(m4.is_pump_capacitor(1));
        assert!(m4.is_pump_capacitor(3));
        assert!(!m4.is_pump_capacitor(4));
    }

    #[test]
    fn linearisation_is_consistent() {
        let m = multiplier();
        let lin = m.linearise(0.0, &DVector::zeros(6), &DVector::from_slice(&[1.0, 0.0, 0.0, 0.0]));
        assert!(lin.is_consistent());
        assert_eq!(lin.state_count(), 6);
        assert_eq!(lin.terminal_count(), 4);
        assert_eq!(lin.constraint_count(), 2);
        // Output-voltage constraint row: Vc - V5 = 0.
        assert_eq!(lin.c[(0, 4)], -1.0);
        assert_eq!(lin.d[(0, 2)], 1.0);
        // Port-voltage constraint row: Vm - Vrail = 0.
        assert_eq!(lin.d[(1, 0)], 1.0);
        assert_eq!(lin.c[(1, 5)], -1.0);
        // Output current enters the last stage row with -1/C.
        assert!((lin.b[(4, 3)] + 1.0 / m.stage_capacitance()).abs() < 1e-6);
        // The generator current charges the rail shunt capacitor.
        assert!((lin.b[(5, 1)] - 1.0 / m.input_capacitance()).abs() < 1e-6);
    }

    #[test]
    fn companion_linearisation_matches_nonlinear_currents() {
        // The affine model A·x + B·y + e must reproduce the exact nonlinear
        // state derivative at the linearisation point itself.
        let m = small_multiplier(5);
        // The rail state (last entry) matches the Vm terminal value.
        let x = DVector::from_slice(&[0.5, 1.2, 0.8, 2.0, 1.9, 1.5]);
        let y = DVector::from_slice(&[1.5, 0.0, 1.9, 1e-5]);
        let lin = m.linearise(0.0, &x, &y);
        let dx_lin = lin.state_derivative(&x, &y);

        // Exact derivative from the Shockley currents.
        let ic = y[3];
        let mut currents = [0.0; 7];
        for (i, current) in currents.iter_mut().enumerate().take(6).skip(1) {
            *current = m.diode().current(m.diode_voltage(i, &x));
        }
        for row in 1..=5usize {
            let outflow = if row < 5 { currents[row + 1] } else { 0.0 };
            let load = if row == 5 { ic } else { 0.0 };
            let exact = (currents[row] - outflow - load) / m.stage_capacitance();
            let relative_scale = exact.abs().max(1.0);
            assert!(
                (dx_lin[row - 1] - exact).abs() / relative_scale < 0.05,
                "row {row}: linearised {} vs exact {exact}",
                dx_lin[row - 1]
            );
        }
    }

    /// Standalone charge-pump integration: drive Vm with a sinusoid, leave the
    /// output unloaded, and verify the output voltage climbs above the input
    /// amplitude (i.e. the circuit boosts, not just rectifies).
    #[test]
    fn unloaded_multiplier_boosts_the_input_amplitude() {
        let m = small_multiplier(5);
        let amplitude = 2.0;
        let freq = 70.0;
        let h = 2e-6;
        let steps = (0.35 / h) as usize;
        let mut x = m.initial_state();
        for k in 0..steps {
            let t = k as f64 * h;
            let vm = amplitude * (2.0 * std::f64::consts::PI * freq * t).sin();
            // Drive the rail as an ideal source: pin the rail state to vm.
            x[5] = vm;
            let y = DVector::from_slice(&[vm, 0.0, x[4], 0.0]);
            let lin = m.linearise(t, &x, &y);
            let dx = lin.state_derivative(&x, &y);
            x.axpy(h, &dx).unwrap();
            assert!(x.is_finite(), "state must stay finite at step {k}");
        }
        let v_out = x[4];
        assert!(
            v_out > amplitude * 1.2,
            "multiplier should boost beyond the input amplitude, got {v_out}"
        );
        assert!(
            v_out < m.ideal_no_load_voltage(amplitude, 0.0) + 0.5,
            "output cannot exceed the ideal multiplication bound, got {v_out}"
        );
        // All internal stage voltages stay bounded by the ideal limit too.
        for i in 0..5 {
            assert!(x[i].abs() < 2.0 * (5.0 * amplitude), "stage {i} voltage {}", x[i]);
        }
    }

    #[test]
    fn two_stage_multiplier_approaches_doubler_voltage() {
        let m = small_multiplier(2);
        let amplitude = 2.0;
        let freq = 70.0;
        let h = 2e-6;
        let steps = (0.35 / h) as usize;
        let mut x = m.initial_state();
        for k in 0..steps {
            let t = k as f64 * h;
            let vm = amplitude * (2.0 * std::f64::consts::PI * freq * t).sin();
            // Drive the rail as an ideal source: pin the rail state to vm.
            x[2] = vm;
            let y = DVector::from_slice(&[vm, 0.0, x[1], 0.0]);
            let lin = m.linearise(t, &x, &y);
            let dx = lin.state_derivative(&x, &y);
            x.axpy(h, &dx).unwrap();
        }
        // Greinacher doubler: V_out → 2·V̂ − 2·V_f ≈ 3.4 V for a Schottky diode.
        assert!(x[1] > 2.5, "doubler output {}", x[1]);
        assert!(x[1] < 2.0 * amplitude, "doubler output bounded by 2·V̂, got {}", x[1]);
    }

    #[test]
    fn ideal_voltage_estimate() {
        let m = multiplier();
        assert_eq!(m.ideal_no_load_voltage(2.0, 0.0), 8.0);
        assert!((m.ideal_no_load_voltage(2.0, 0.3) - (8.0 - 1.5)).abs() < 1e-12);
        let m2 = small_multiplier(2);
        assert_eq!(m2.ideal_no_load_voltage(2.0, 0.0), 4.0);
    }

    /// Every diode's table segment at `x`, by the closed-form lookup.
    fn segments_at(m: &DicksonMultiplier, x: &DVector) -> Vec<usize> {
        (1..=m.stage_count()).map(|i| m.diode().companion_segment(m.diode_voltage(i, x))).collect()
    }

    /// Bit patterns of every entry, so `-0.0` and `+0.0` differ.
    fn bits(lin: &LocalLinearisation) -> Vec<u64> {
        [lin.a.as_slice(), lin.b.as_slice(), lin.e.as_slice()]
            .into_iter()
            .chain([lin.c.as_slice(), lin.d.as_slice(), lin.g.as_slice()])
            .flatten()
            .map(|v| v.to_bits())
            .collect()
    }

    /// The diode segments are an exact stamp key: equal segments must mean
    /// bit-identical linearisations, a diode crossing a table segment must
    /// change them, and the per-device restamp must land on the full stamp.
    #[test]
    fn diode_segments_key_the_stamp_exactly() {
        let m = multiplier();
        let y = DVector::from_slice(&[1.5, 0.0, 1.9, 1e-5]);
        let x_a = DVector::from_slice(&[0.5, 1.2, 0.8, 2.0, 1.9, 1.5]);
        let devices = m.pwl_devices().expect("table mode tracks its diodes");
        assert_eq!(devices, PwlDevices { count: 5, segments: m.diode().total_segments() });
        let seg_a = segments_at(&m, &x_a);
        // Nudge every state by much less than one table segment (~10 mV).
        let mut x_b = x_a.clone();
        for i in 0..6 {
            x_b[i] += 1e-6;
        }
        if seg_a == segments_at(&m, &x_b) {
            // The promise: equal segments ⇒ bit-identical stamp, and the
            // restamp reports no move and leaves its buffer alone.
            assert_eq!(bits(&m.linearise(0.0, &x_a, &y)), bits(&m.linearise(0.0, &x_b, &y)));
            let mut out = m.linearise(0.0, &x_a, &y);
            let mut segments = seg_a.clone();
            assert!(!m.restamp_pwl_into(0.0, &x_b, &y, &mut segments, false, &mut out));
            assert_eq!(segments, seg_a);
            assert_eq!(bits(&out), bits(&m.linearise(0.0, &x_a, &y)));
        }
        // Moving a forward-biased diode through the knee region crosses fine
        // segments and must change the segments (D5 sits at
        // vd = V4 − V5 = 0.1 V here, inside the fine knee grid) ...
        let mut x_c = x_a.clone();
        x_c[4] -= 0.05;
        let seg_c = segments_at(&m, &x_c);
        assert_ne!(seg_a, seg_c);
        // ... and the per-device restamp from the old stamp, rewriting only
        // the rows the movers feed, reproduces the full stamp bit for bit.
        let mut out = m.linearise(0.0, &x_a, &y);
        let mut segments = seg_a.clone();
        assert!(m.restamp_pwl_into(0.0, &x_c, &y, &mut segments, false, &mut out));
        assert_eq!(segments, seg_c);
        assert_eq!(bits(&out), bits(&m.linearise(0.0, &x_c, &y)));
        // With `rewrite_all` any hints and any buffer contents do.
        let mut out = LocalLinearisation::zeros(6, 4, 2);
        out.a.fill(7.0);
        let mut segments = vec![usize::MAX, 0, 3, 10_000, 1];
        m.restamp_pwl_into(0.0, &x_c, &y, &mut segments, true, &mut out);
        assert_eq!(segments, seg_c);
        assert_eq!(bits(&out), bits(&m.linearise(0.0, &x_c, &y)));
        // A deep-reverse swing stays inside one coarse segment: the segments
        // hold and the contract still guarantees a bit-identical stamp.
        let mut x_d = x_a.clone();
        x_d[5] += 0.3;
        if segments_at(&m, &x_d) == seg_a {
            assert_eq!(m.linearise(0.0, &x_a, &y).a, m.linearise(0.0, &x_d, &y).a);
        }
        // Exact-evaluation mode declines the contract entirely.
        let mut exact = multiplier();
        exact.set_exact_companions(true);
        assert_eq!(exact.pwl_devices(), None);
        assert_eq!(exact.jacobian_structure(), JacobianStructure::Nonlinear);
        // Any table size is declared; whether it fits the assembler's
        // checkpoint packing is the assembler's call (a 2048-segment table
        // does not, and is never skipped there).
        let fine = m.diode().with_table_segments(2048).unwrap();
        let mut wide = multiplier();
        wide.set_diode(fine);
        assert_eq!(wide.pwl_devices().map(|d| d.segments), Some(wide.diode().total_segments()));
    }

    /// The closed-form rail step the row writers and the pattern use is the
    /// difference of the rail coefficients it replaces, on every ladder.
    #[test]
    fn rail_steps_match_the_rail_coefficients() {
        for stages in 2..=12 {
            let m = small_multiplier(stages);
            for i in 1..=stages {
                let expected = m.rail_coefficient(i - 1) - m.rail_coefficient(i);
                assert_eq!(m.rail_step(i).to_bits(), expected.to_bits(), "{stages} stages, D{i}");
            }
        }
    }

    /// Ladders beyond the assembler's tracking (7 and 20 stages, the latter
    /// on the heap scratch) and past the 63-diode move mask still restamp per
    /// device bit-identically to a full stamp, diode move by diode move.
    #[test]
    fn per_device_restamp_matches_the_full_stamp_on_tall_ladders() {
        let y = DVector::from_slice(&[0.3, 0.0, 1.0, 0.0]);
        for stages in [7, 20, 64] {
            let m =
                DicksonMultiplier::with_components(stages, 1e-6, DiodeModel::schottky().unwrap())
                    .unwrap();
            // Every diode inside the knee grid, within ±0.05 V of zero.
            let mut x = DVector::from_fn(stages + 1, |i| 0.013 * (i % 3) as f64);
            let mut out = m.linearise(0.0, &x, &y);
            let mut segments = segments_at(&m, &x);
            let mut moves = 0;
            for k in 0..3 * stages {
                // Move one node at a time by a few millivolts (crossing knee
                // segments), alternating up and down.
                let node = (7 * k) % (stages + 1);
                x[node] += if k % 2 == 0 { 4e-3 } else { -2.5e-3 };
                let before = segments.clone();
                let moved = m.restamp_pwl_into(0.0, &x, &y, &mut segments, false, &mut out);
                assert_eq!(segments, segments_at(&m, &x), "{stages} stages, move {k}");
                assert_eq!(moved, segments != before, "{stages} stages, move {k}");
                assert_eq!(bits(&out), bits(&m.linearise(0.0, &x, &y)), "{stages}, move {k}");
                moves += usize::from(moved);
            }
            assert!(moves > stages, "{stages} stages: only {moves} restamps moved a diode");
        }
    }

    /// The declared pattern holds 18/25/28/35 entries for 3–6 stages and the
    /// stamp writes nothing outside it.
    #[test]
    fn jacobian_pattern_counts_and_covers_the_stamp() {
        for (stages, nonzeros) in [(3, 18), (4, 25), (5, 28), (6, 35)] {
            let m = small_multiplier(stages);
            let pattern = m.jacobian_pattern();
            assert_eq!(pattern.len(), nonzeros, "{stages} stages");
            let x = DVector::from_fn(stages + 1, |i| 0.37 * i as f64 - 0.2);
            let lin = m.linearise(0.0, &x, &DVector::from_slice(&[0.4, 0.0, 1.0, 0.0]));
            assert!(pattern.admits(&lin), "{stages} stages");
        }
        let supercap =
            crate::Supercapacitor::new(&HarvesterParameters::practical_device()).unwrap();
        assert_eq!(supercap.jacobian_pattern().len(), 11);
    }

    #[test]
    fn diode_table_granularity_can_be_swapped() {
        let mut m = multiplier();
        let coarse = m.diode().with_table_segments(16).unwrap();
        m.set_diode(coarse);
        assert_eq!(m.diode().table_segments(), 16);
        // The block still produces a consistent linearisation.
        let lin = m.linearise(0.0, &DVector::zeros(6), &DVector::from_slice(&[0.5, 0.0, 0.0, 0.0]));
        assert!(lin.is_consistent());
    }
}
