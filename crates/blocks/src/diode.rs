//! Shockley diode model and its piecewise-linear companion representation.
//!
//! The Dickson multiplier's diodes are the only strongly nonlinear devices in
//! the harvester. Section III-B of the paper linearises the Shockley equation
//! `Id = Is·(exp(Vd/Vt) − 1)` into a conductance `G` and a companion current
//! source `J` such that `Id ≈ G·Vd + J` around the operating point, with the
//! values stored in a lookup table so the march-in-time loop never evaluates
//! the device equations.
//!
//! The companion pair is the *chord* of the tabulated current curve's segment
//! containing `Vd`: the diode the solver actually integrates is the genuine
//! piecewise-linear curve through the table breakpoints, so `(G, J)` are
//! **constant while the operating point stays inside one segment** and jump
//! only at segment crossings. That invariant is what the paper's
//! `JacobianStructure::Pwl` contract promises, and it is what lets the
//! assembler track each diode's segment between relinearisations and skip
//! the Dickson block's stamp when no diode changed segment (the
//! `pwl_stamps_skipped` counter). The model error against the exact
//! Shockley curve is the table's interpolation error, which "can be
//! arbitrarily fine since the size of the look-up tables does not affect the
//! simulation speed".
//!
//! Finding a segment is not free of exponentials: the closed-form index of
//! the knee grid ([`DiodeModel::companion_segment`]) evaluates one `exp()`.
//! The march therefore calls it only for a diode's first stamp and when a
//! diode jumps further than a short breakpoint walk covers
//! ([`DiodeModel::companion_segment_from`]); every other relinearisation
//! costs two comparisons per diode ([`DiodeModel::segment_contains`]), plus
//! a few more for a diode that moved a handful of segments.

use crate::block::BlockError;
use crate::pwl::PiecewiseLinearTable;

/// Default minimum conductance added in parallel with every diode (the SPICE
/// `GMIN` device) so that the algebraic system of Eq. 4 stays non-singular when
/// all diodes are off.
const DEFAULT_GMIN: f64 = 1e-9;

/// Number of coarse segments covering the deep-reverse region of the lookup
/// table (below ~8·n·Vt, where the Shockley curve *is* the straight line
/// `−Is + GMIN·Vd` to within `Is·e⁻⁸`): exactly one, deliberately — a
/// reverse-swinging diode then never leaves its segment, which is what keeps
/// the Dickson block's diodes in place between conduction events (the
/// stamp-skip hit rate).
const COARSE_REVERSE_SEGMENTS: usize = 1;

/// Number of segments covering the overflow-limited region above
/// `limit_voltage`, where the model is linear by construction.
const LIMIT_SEGMENTS: usize = 2;

/// Largest number of breakpoints [`DiodeModel::companion_segment_from`] walks
/// before it falls back to the closed-form lookup. Within 8 segments the walk
/// covers about 90 % of the Dickson diodes' segment changes on Table II's
/// scenario 1 and 95 % on scenario 2.
const SEGMENT_WALK_BUDGET: usize = 8;

/// Grid-stretch exponent `p` of the knee zone: breakpoints are uniform in
/// `u = exp(Vd/(p·n·Vt))`. `p = 2` equalises the *absolute* chord error per
/// segment, `p → ∞` (uniform in `Vd`) equalises the *relative* error; `p = 4`
/// splits the difference — relative error still shrinks toward conduction
/// (∝ 1/√I) while sub-threshold segments stay several millivolts wide, which
/// is what keeps reverse-swinging diodes inside one segment between
/// conduction events (the stamp-skip hit rate).
const EXP_GRID_STRETCH: f64 = 4.0;

/// A companion lookup table together with the closed-form segment-index
/// recipe matching how its breakpoints were generated — so the hot path never
/// binary-searches.
#[derive(Debug, Clone)]
enum TableGrid {
    /// Uniformly sampled in `Vd` (fallback for degenerate ranges); the
    /// table's own O(1) uniform lookup applies.
    Uniform(PiecewiseLinearTable),
    /// Three-zone knee grid: [`COARSE_REVERSE_SEGMENTS`] uniform-in-`Vd`
    /// segments below `v_knee`, the full segment budget uniform in
    /// `u = exp(Vd/(p·n·Vt))` across the knee, and [`LIMIT_SEGMENTS`] above
    /// the overflow-limiting voltage where the curve is linear again. The
    /// index is a closed-form expression in every zone; it is verified
    /// against the breakpoints and adjusted by at most a step, so float
    /// rounding is harmless.
    KneeLog {
        table: PiecewiseLinearTable,
        v_knee: f64,
        v_hi_exp: f64,
        inv_stretched: f64,
        u_lo: f64,
        inv_du: f64,
        coarse_inv_step: f64,
        knee_segments: usize,
        v_min: f64,
    },
}

impl TableGrid {
    fn table(&self) -> &PiecewiseLinearTable {
        match self {
            TableGrid::Uniform(table) => table,
            TableGrid::KneeLog { table, .. } => table,
        }
    }

    fn segment_index(&self, v: f64) -> usize {
        match self {
            TableGrid::Uniform(table) => table.segment_index(v),
            TableGrid::KneeLog {
                table,
                v_knee,
                v_hi_exp,
                inv_stretched,
                u_lo,
                inv_du,
                coarse_inv_step,
                knee_segments,
                v_min,
            } => {
                let candidate = if v < *v_knee {
                    ((v - v_min) * coarse_inv_step).max(0.0) as usize
                } else if v < *v_hi_exp {
                    let u = (v * inv_stretched).exp();
                    COARSE_REVERSE_SEGMENTS + (((u - u_lo) * inv_du).max(0.0) as usize)
                } else {
                    // Limit zone (or extrapolation past it): start at its
                    // first segment and let the fix-up walk settle it.
                    COARSE_REVERSE_SEGMENTS + knee_segments
                };
                let points = table.breakpoints();
                let last = points.len() - 2;
                let mut i = candidate.min(last);
                while i > 0 && v < points[i].0 {
                    i -= 1;
                }
                while i < last && v >= points[i + 1].0 {
                    i += 1;
                }
                i
            }
        }
    }
}

/// A diode described by the Shockley equation with a piecewise-linear
/// companion-model lookup table.
///
/// # Example
///
/// ```
/// use harvsim_blocks::DiodeModel;
///
/// # fn main() -> Result<(), harvsim_blocks::BlockError> {
/// let diode = DiodeModel::schottky()?;
/// let (g, j) = diode.companion(0.3);
/// // The companion model reproduces the current at the linearisation point.
/// let id = g * 0.3 + j;
/// assert!((id - diode.current(0.3)).abs() / diode.current(0.3).abs() < 0.05);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DiodeModel {
    saturation_current: f64,
    thermal_voltage: f64,
    emission_coefficient: f64,
    gmin: f64,
    /// Lookup table of the total diode current `Id(Vd) + GMIN·Vd` plus the
    /// closed-form segment-index recipe for its grid; the chord of the
    /// segment containing `Vd` is the companion pair `(G, J)`.
    grid: TableGrid,
    /// Number of fine segments resolving the forward knee (the constructor's
    /// `table_segments` — the granularity axis of the PWL ablation).
    knee_segments: usize,
    /// Diode voltage above which the exponential is linearised to avoid
    /// overflow (standard limiting, ~ breakdown of the model validity).
    limit_voltage: f64,
}

impl DiodeModel {
    /// Creates a diode model.
    ///
    /// * `saturation_current` — `Is` in amperes.
    /// * `thermal_voltage` — `Vt` in volts (≈ 25.85 mV at 300 K).
    /// * `emission_coefficient` — ideality factor `n` (1–2).
    /// * `table_range` — the `(v_min, v_max)` span of the lookup tables.
    /// * `table_segments` — number of piecewise-linear segments.
    ///
    /// # Errors
    ///
    /// Returns [`BlockError::InvalidParameter`] for non-positive physical
    /// parameters or an empty table range.
    pub fn new(
        saturation_current: f64,
        thermal_voltage: f64,
        emission_coefficient: f64,
        table_range: (f64, f64),
        table_segments: usize,
    ) -> Result<Self, BlockError> {
        if !(saturation_current > 0.0) {
            return Err(BlockError::InvalidParameter {
                name: "saturation_current",
                value: saturation_current,
                constraint: "must be positive",
            });
        }
        if !(thermal_voltage > 0.0) {
            return Err(BlockError::InvalidParameter {
                name: "thermal_voltage",
                value: thermal_voltage,
                constraint: "must be positive",
            });
        }
        if !(emission_coefficient > 0.0) {
            return Err(BlockError::InvalidParameter {
                name: "emission_coefficient",
                value: emission_coefficient,
                constraint: "must be positive",
            });
        }
        let nvt = emission_coefficient * thermal_voltage;
        // Limit the exponential at a current of ~10 A to avoid overflow far
        // outside the physically relevant region.
        let limit_voltage = nvt * (10.0 / saturation_current).ln();

        let current = |v: f64| -> f64 {
            if v > limit_voltage {
                let i_limit = saturation_current * ((limit_voltage / nvt).exp() - 1.0);
                let g_limit = saturation_current / nvt * (limit_voltage / nvt).exp();
                i_limit + g_limit * (v - limit_voltage)
            } else {
                saturation_current * ((v / nvt).exp() - 1.0)
            }
        };
        let gmin = DEFAULT_GMIN;
        // One table of the total current Id(Vd) + GMIN·Vd; companions are the
        // segment chords, so the integrated device is the true piecewise-
        // linear curve through these breakpoints.
        //
        // The knee grid: breakpoints uniform in `u = exp(Vd/(p·n·Vt))` with
        // `p = EXP_GRID_STRETCH` (4) from `v_knee = −8·n·Vt` to the top of the
        // exponential region. `p = 2` would equalise the absolute chord error
        // per segment and `p → ∞` (uniform in `Vd`) the relative error; `p = 4`
        // is the compromise the march needs:
        //
        // * sub-threshold segments stay several millivolts wide (the curve is
        //   almost straight there), so a diode riding the rail oscillation
        //   stays inside one segment for much of a cycle — this is what gives
        //   the Dickson block's stamp skip its hit rate;
        // * conduction-edge segments are much finer than a uniform grid of the
        //   same size, which tightens the PWL model against the exact Shockley
        //   curve the Newton–Raphson baseline evaluates;
        // * the segment index is a closed-form expression (`u` is uniform),
        //   so a lookup is O(1) with no binary search, at the price of one
        //   `exp()`.
        //
        // Below `v_knee` the curve is `−Is + GMIN·Vd` to within `Is·e⁻⁸`, and
        // `COARSE_REVERSE_SEGMENTS` (one) uniform-in-`Vd` segment covers it;
        // above the overflow-limiting voltage `LIMIT_SEGMENTS` segments cover
        // the linear extrapolation.
        let stretched = EXP_GRID_STRETCH * nvt;
        let v_knee = -8.0 * nvt;
        let v_hi_exp = table_range.1.min(limit_voltage);
        let u_of = |v: f64| (v / stretched).exp();
        let (u_lo, u_hi) = (u_of(v_knee), u_of(v_hi_exp));
        let du = (u_hi - u_lo) / table_segments as f64;
        let grid = if v_knee > table_range.0
            && v_hi_exp > v_knee
            && table_segments >= 2
            && u_hi.is_finite()
        {
            let mut points =
                Vec::with_capacity(table_segments + COARSE_REVERSE_SEGMENTS + LIMIT_SEGMENTS + 2);
            // Zone R — deep reverse, uniform in Vd (the curve is the straight
            // line −Is + GMIN·Vd there).
            for k in 0..COARSE_REVERSE_SEGMENTS {
                let v = table_range.0
                    + (v_knee - table_range.0) * (k as f64) / (COARSE_REVERSE_SEGMENTS as f64);
                points.push((v, current(v) + gmin * v));
            }
            // Zone K — the knee, uniform in u (all `table_segments` of them).
            for j in 0..=table_segments {
                let v = if j == table_segments {
                    v_hi_exp
                } else {
                    stretched * (u_lo + du * j as f64).ln()
                };
                points.push((v, current(v) + gmin * v));
            }
            // Zone L — above the overflow-limiting voltage the curve is
            // linear again; a couple of segments cover it exactly.
            if table_range.1 > v_hi_exp + 1e-9 {
                for k in 1..=LIMIT_SEGMENTS {
                    let v = v_hi_exp
                        + (table_range.1 - v_hi_exp) * (k as f64) / (LIMIT_SEGMENTS as f64);
                    points.push((v, current(v) + gmin * v));
                }
            }
            TableGrid::KneeLog {
                table: PiecewiseLinearTable::new(points)?,
                v_knee,
                v_hi_exp,
                inv_stretched: 1.0 / stretched,
                u_lo,
                inv_du: 1.0 / du,
                coarse_inv_step: COARSE_REVERSE_SEGMENTS as f64 / (v_knee - table_range.0),
                knee_segments: table_segments,
                v_min: table_range.0,
            }
        } else {
            TableGrid::Uniform(PiecewiseLinearTable::from_function(
                table_range.0,
                table_range.1,
                table_segments,
                |v| current(v) + gmin * v,
            )?)
        };

        Ok(DiodeModel {
            saturation_current,
            thermal_voltage,
            emission_coefficient,
            gmin,
            grid,
            knee_segments: table_segments,
            limit_voltage,
        })
    }

    /// A low-drop Schottky diode typical of energy-harvesting rectifiers
    /// (`Is = 1 µA`, `n = 1.05`), tabulated over −5 V … +0.6 V with 600 segments.
    ///
    /// # Errors
    ///
    /// Propagates construction errors (cannot occur for these constants).
    pub fn schottky() -> Result<Self, BlockError> {
        DiodeModel::new(1e-6, 0.02585, 1.05, (-5.0, 0.6), 600)
    }

    /// Rebuilds the model with a different lookup-table granularity (used by the
    /// PWL-granularity ablation benchmark).
    ///
    /// # Errors
    ///
    /// Propagates construction errors.
    pub fn with_table_segments(&self, segments: usize) -> Result<Self, BlockError> {
        let (lo, hi) = self.grid.table().domain();
        DiodeModel::new(
            self.saturation_current,
            self.thermal_voltage,
            self.emission_coefficient,
            (lo, hi),
            segments,
        )
    }

    /// Saturation current `Is` in amperes.
    pub fn saturation_current(&self) -> f64 {
        self.saturation_current
    }

    /// Number of fine segments resolving the forward knee — the granularity
    /// the constructor was asked for and the axis the PWL ablation sweeps.
    /// The full table adds a few coarse deep-reverse segments on top; see
    /// [`DiodeModel::total_segments`].
    pub fn table_segments(&self) -> usize {
        self.knee_segments
    }

    /// Total number of table segments (knee + coarse reverse tail) — the
    /// range of [`DiodeModel::companion_segment`] indices.
    pub fn total_segments(&self) -> usize {
        self.grid.table().len() - 1
    }

    /// Exact Shockley current at diode voltage `vd` (including `GMIN` and the
    /// high-voltage limiting), used by tests and by the Newton–Raphson baseline.
    pub fn current(&self, vd: f64) -> f64 {
        let nvt = self.emission_coefficient * self.thermal_voltage;
        let exp_part = if vd > self.limit_voltage {
            let i_limit = self.saturation_current * ((self.limit_voltage / nvt).exp() - 1.0);
            let g_limit = self.saturation_current / nvt * (self.limit_voltage / nvt).exp();
            i_limit + g_limit * (vd - self.limit_voltage)
        } else {
            self.saturation_current * ((vd / nvt).exp() - 1.0)
        };
        exp_part + self.gmin * vd
    }

    /// Exact small-signal conductance `dId/dVd` at `vd` (including `GMIN`).
    pub fn conductance(&self, vd: f64) -> f64 {
        let nvt = self.emission_coefficient * self.thermal_voltage;
        let g = if vd > self.limit_voltage {
            self.saturation_current / nvt * (self.limit_voltage / nvt).exp()
        } else {
            self.saturation_current / nvt * (vd / nvt).exp()
        };
        g + self.gmin
    }

    /// Companion-model pair `(G, J)` such that `Id ≈ G·Vd + J` near the
    /// linearisation voltage `vd`.
    ///
    /// The pair is the chord of the current table's segment containing `vd`
    /// (see [`PiecewiseLinearTable::segment_chord`]): constant inside a
    /// segment, jumping only at crossings, and evaluating to exactly the
    /// tabulated piecewise-linear current at `vd`. One O(1) segment lookup
    /// serves both values.
    pub fn companion(&self, vd: f64) -> (f64, f64) {
        self.grid.table().segment_chord(self.grid.segment_index(vd))
    }

    /// Index of the lookup-table segment the operating point `vd` falls in,
    /// from the grid's closed-form recipe (one `exp()` in the knee zone). Two
    /// calls returning the same index are guaranteed to produce bit-identical
    /// [`DiodeModel::companion`] pairs.
    pub fn companion_segment(&self, vd: f64) -> usize {
        self.grid.segment_index(vd)
    }

    /// [`DiodeModel::companion_segment`] at `vd`, found by walking the
    /// breakpoints from segment `hint` (typically the segment the diode was
    /// last stamped in; out-of-range hints are clamped). The walk returns
    /// exactly what the closed-form lookup returns for every input; it falls
    /// back to that lookup when `vd` is NaN or lies more than 8 segments away
    /// from the hint, so a diode drifting across a few segments per step
    /// never pays the `exp()`.
    pub fn companion_segment_from(&self, hint: usize, vd: f64) -> usize {
        if vd.is_nan() {
            return self.companion_segment(vd);
        }
        let points = self.grid.table().breakpoints();
        let last = points.len() - 2;
        let mut segment = hint.min(last);
        let mut budget = SEGMENT_WALK_BUDGET;
        while segment > 0 && vd < points[segment].0 {
            if budget == 0 {
                return self.companion_segment(vd);
            }
            budget -= 1;
            segment -= 1;
        }
        while segment < last && vd >= points[segment + 1].0 {
            if budget == 0 {
                return self.companion_segment(vd);
            }
            budget -= 1;
            segment += 1;
        }
        segment
    }

    /// Companion pair of a known segment (skipping the index lookup): the
    /// chord of table segment `segment`. Pair with
    /// [`DiodeModel::companion_segment`] /
    /// [`DiodeModel::segment_contains`] on paths that track segments
    /// explicitly (the Dickson multiplier's per-device restamp).
    ///
    /// # Panics
    ///
    /// Panics if `segment >= self.total_segments()`.
    pub fn companion_in_segment(&self, segment: usize) -> (f64, f64) {
        self.grid.table().segment_chord(segment)
    }

    /// Whether [`DiodeModel::companion_segment`] at `vd` would return
    /// `segment` — a pure membership test (two comparisons), no lookup. The
    /// extrapolation regions belong to the first/last segment, mirroring the
    /// index clamping; an index past the last segment contains nothing, and
    /// neither does any segment of a multi-segment table contain NaN.
    pub fn segment_contains(&self, segment: usize, vd: f64) -> bool {
        let points = self.grid.table().breakpoints();
        let last = points.len() - 2;
        segment <= last
            && (segment == 0 || vd >= points[segment].0)
            && (segment == last || vd < points[segment + 1].0)
    }

    /// *Exact* companion pair `(G, J)` from the analytic Shockley equations
    /// (tangent at `vd`, high-voltage limiting included, no table): this is
    /// what the commercial Newton–Raphson tools the paper benchmarks against
    /// evaluate at every iteration, so the [`super::DicksonMultiplier`]'s
    /// exact-evaluation mode hands it to the baseline engine. Costs an
    /// `exp()` per call — the cost the lookup table exists to avoid.
    pub fn exact_companion(&self, vd: f64) -> (f64, f64) {
        let g = self.conductance(vd);
        (g, self.current(vd) - g * vd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parameter_validation() {
        assert!(DiodeModel::new(-1.0, 0.025, 1.0, (-1.0, 0.6), 10).is_err());
        assert!(DiodeModel::new(1e-9, 0.0, 1.0, (-1.0, 0.6), 10).is_err());
        assert!(DiodeModel::new(1e-9, 0.025, 0.0, (-1.0, 0.6), 10).is_err());
        assert!(DiodeModel::new(1e-9, 0.025, 1.0, (0.6, -1.0), 10).is_err());
        let d = DiodeModel::schottky().unwrap();
        assert!(d.saturation_current() > 0.0);
        assert!(d.thermal_voltage > 0.0);
        assert!(d.emission_coefficient >= 1.0);
        assert_eq!(d.gmin, DEFAULT_GMIN);
        assert_eq!(d.table_segments(), 600);
    }

    #[test]
    fn shockley_limits() {
        let d = DiodeModel::new(1e-14, 0.02585, 1.0, (-5.0, 0.9), 900).unwrap();
        // Strong reverse bias: current ≈ -Is (plus the tiny gmin term).
        assert!((d.current(-2.0) - (-1e-14 + DEFAULT_GMIN * -2.0)).abs() < 1e-12);
        // Zero bias: zero current.
        assert!(d.current(0.0).abs() < 1e-18);
        // Forward bias: large positive current and conductance.
        assert!(d.current(0.7) > 1e-3);
        assert!(d.conductance(0.7) > d.conductance(0.2));
    }

    #[test]
    fn companion_model_reproduces_current_near_linearisation_point() {
        let d = DiodeModel::schottky().unwrap();
        for vd in [-1.0, -0.1, 0.0, 0.1, 0.2, 0.3, 0.4] {
            let (g, j) = d.companion(vd);
            let approx = g * vd + j;
            let exact = d.current(vd);
            let tolerance = 1e-7 + 0.05 * exact.abs();
            assert!(
                (approx - exact).abs() < tolerance,
                "vd = {vd}: companion {approx} vs exact {exact}"
            );
        }
    }

    #[test]
    fn companion_conductance_is_positive_and_monotonic() {
        let d = DiodeModel::schottky().unwrap();
        let mut prev = 0.0;
        for k in 0..40 {
            let vd = -2.0 + 2.5 * (k as f64) / 39.0;
            let (g, _) = d.companion(vd);
            assert!(g >= DEFAULT_GMIN * 0.99, "gmin floor violated at {vd}");
            assert!(g + 1e-15 >= prev, "conductance must not decrease with vd");
            prev = g;
        }
    }

    /// The companion pair must be *constant* within a table segment and equal
    /// the chord of that segment — the invariant the assembler's per-device
    /// stamp skip relies on (two linearisations in the same segment produce
    /// bit-identical Jacobian contributions).
    #[test]
    fn companion_is_constant_within_a_segment() {
        let d = DiodeModel::schottky().unwrap();
        for vd in [-1.0, 0.05, 0.25, 0.4] {
            let segment = d.companion_segment(vd);
            let reference = d.companion(vd);
            // Probe a handful of points strictly inside the same segment.
            for probe in [vd, vd + 1e-5, vd + 2e-5] {
                if d.companion_segment(probe) != segment {
                    continue;
                }
                assert_eq!(d.companion(probe), reference, "companion moved inside a segment");
            }
        }
        // And the chord evaluates to the tabulated PWL current exactly.
        let (g, j) = d.companion(0.31);
        let err = (g * 0.31 + j - d.current(0.31)).abs();
        assert!(err < 1e-7 + 0.05 * d.current(0.31).abs(), "chord error {err}");
    }

    #[test]
    fn high_voltage_limiting_prevents_overflow() {
        let d = DiodeModel::new(1e-14, 0.02585, 1.0, (-5.0, 0.9), 900).unwrap();
        let huge = d.current(10.0);
        assert!(huge.is_finite());
        assert!(d.conductance(10.0).is_finite());
    }

    #[test]
    fn finer_tables_reduce_companion_error() {
        let coarse = DiodeModel::schottky().unwrap().with_table_segments(20).unwrap();
        let fine = DiodeModel::schottky().unwrap().with_table_segments(2000).unwrap();
        let mut err_coarse: f64 = 0.0;
        let mut err_fine: f64 = 0.0;
        for k in 0..200 {
            let vd = -0.5 + 1.0 * (k as f64) / 199.0;
            let exact = DiodeModel::schottky().unwrap().current(vd);
            let (gc, jc) = coarse.companion(vd);
            let (gf, jf) = fine.companion(vd);
            err_coarse = err_coarse.max((gc * vd + jc - exact).abs());
            err_fine = err_fine.max((gf * vd + jf - exact).abs());
        }
        assert!(err_fine < err_coarse, "fine {err_fine} vs coarse {err_coarse}");
        assert_eq!(coarse.table_segments(), 20);
        assert_eq!(fine.table_segments(), 2000);
    }

    /// Deterministic splitmix64 stream for the seeded searches below.
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

    /// The models the hinted search must agree with: knee grids of several
    /// sizes (with and without a limit zone, the harvester's own table
    /// included) and a degenerate range that falls back to a uniform grid.
    fn search_models() -> Vec<DiodeModel> {
        let practical = |segments| DiodeModel::new(1e-6, 0.02585, 1.05, (-6.0, 0.20), segments);
        let mut models = vec![
            DiodeModel::schottky().unwrap(),
            DiodeModel::new(1e-14, 0.02585, 1.0, (-5.0, 0.9), 900).unwrap(),
            DiodeModel::new(1e-6, 0.02585, 1.05, (0.1, 0.5), 50).unwrap(),
        ];
        for segments in [16, 150, 600, 1023] {
            models.push(practical(segments).unwrap());
        }
        assert!(matches!(models[2].grid, TableGrid::Uniform(_)), "degenerate range is uniform");
        models
    }

    /// Asserts the walk from every interesting hint lands on the closed-form
    /// segment of `vd`: the answer itself and its neighbours, hints beyond
    /// the walk budget on both sides, both table ends and out-of-range hints.
    fn assert_walk_agrees(d: &DiodeModel, vd: f64, extra_hint: usize) {
        let expected = d.companion_segment(vd);
        let last = d.total_segments() - 1;
        let mut hints = vec![0, 1, last, last + 1, usize::MAX, extra_hint];
        for offset in
            [1, 2, SEGMENT_WALK_BUDGET - 1, SEGMENT_WALK_BUDGET, SEGMENT_WALK_BUDGET + 1, 40]
        {
            hints.push(expected + offset);
            hints.push(expected.saturating_sub(offset));
        }
        hints.push(expected);
        for hint in hints {
            assert_eq!(d.companion_segment_from(hint, vd), expected, "vd = {vd:e}, hint {hint}");
        }
        if !vd.is_nan() {
            assert!(d.segment_contains(expected, vd), "vd = {vd:e} outside its own segment");
            assert!(!d.segment_contains(expected + 1, vd) || expected == last);
            assert!(expected == 0 || !d.segment_contains(expected - 1, vd));
        }
    }

    /// The hinted walk returns exactly `companion_segment(vd)` for random
    /// voltages and hints, at every breakpoint, beyond both table ends, for
    /// non-finite input and for jumps longer than the walk budget.
    #[test]
    fn hinted_segment_search_matches_the_closed_form() {
        let mut rng = 0x5eed_d10d_u64;
        for d in search_models() {
            let points = d.grid.table().breakpoints().to_vec();
            let (lo, hi) = (points[0].0, points[points.len() - 1].0);
            let segments = d.total_segments();
            // Random voltages over the table and a margin past both ends,
            // from random (including out-of-range) hints.
            for _ in 0..2_000 {
                let vd = uniform(&mut rng, lo - 1.0, hi + 1.0);
                let hint = (splitmix(&mut rng) % (segments as u64 + 8)) as usize;
                assert_walk_agrees(&d, vd, hint);
            }
            // Every breakpoint exactly, and the neighbouring floats.
            for &(v, _) in &points {
                for vd in [v, v.next_up(), v.next_down()] {
                    assert_walk_agrees(&d, vd, 0);
                }
            }
            // Far beyond both ends, and non-finite input.
            for vd in [lo - 100.0, hi + 100.0, f64::MAX, f64::MIN, f64::INFINITY] {
                assert_walk_agrees(&d, vd, segments / 2);
            }
            for vd in [f64::NEG_INFINITY, f64::NAN, -f64::NAN, 0.0, -0.0] {
                assert_walk_agrees(&d, vd, segments / 2);
            }
            // Jumps across the knee zone, far longer than the walk budget.
            for _ in 0..200 {
                let from = uniform(&mut rng, lo, hi);
                let to = uniform(&mut rng, lo, hi);
                assert_walk_agrees(&d, to, d.companion_segment(from));
            }
        }
    }

    /// Only a real index can contain a voltage: a hint past the table is
    /// never mistaken for the last segment.
    #[test]
    fn segment_membership_rejects_out_of_range_indices() {
        let d = DiodeModel::schottky().unwrap();
        let last = d.total_segments() - 1;
        assert!(d.segment_contains(last, 1e3));
        assert!(!d.segment_contains(last + 1, 1e3));
        assert!(!d.segment_contains(usize::MAX, 0.1));
        assert!(d.segment_contains(0, -1e3));
        assert!(!d.segment_contains(0, f64::NAN));
        assert!(!d.segment_contains(last, f64::NAN));
    }
}
