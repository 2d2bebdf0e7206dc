//! Piecewise-linear lookup tables.
//!
//! Section III-B of the paper: "the values of G and J are stored in a look-up
//! table for different values of Vd … the required Jacobian values can be
//! retrieved from the look-up tables fast, without the need to evaluate
//! complex, physical equations. To maintain high modelling accuracy the
//! granularity of the piece-wise linear models can be arbitrarily fine since
//! the size of the look-up tables does not affect the simulation speed."
//!
//! [`PiecewiseLinearTable`] is that lookup table: a function of one variable
//! sampled on an arbitrary (not necessarily uniform) grid of breakpoints and
//! interpolated linearly, with O(log n) segment lookup and O(1) repeated lookup
//! through an optional cached segment hint. The diode companion models build
//! two of these (for the conductance `G` and the companion current `J`).

use crate::block::BlockError;

/// A piecewise-linear function `y(x)` defined by breakpoints.
///
/// Outside the breakpoint range the function extrapolates with the slope of the
/// first/last segment, which mirrors how SPICE-style companion models behave
/// outside their characterised region.
///
/// # Example
///
/// ```
/// use harvsim_blocks::PiecewiseLinearTable;
///
/// # fn main() -> Result<(), harvsim_blocks::BlockError> {
/// let table = PiecewiseLinearTable::new(vec![(0.0, 0.0), (1.0, 2.0), (2.0, 3.0)])?;
/// assert_eq!(table.value(0.5), 1.0);
/// assert_eq!(table.slope(1.5), 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PiecewiseLinearTable {
    /// Breakpoints, sorted by x.
    points: Vec<(f64, f64)>,
    /// Reciprocal grid spacing when the breakpoints are uniformly spaced
    /// (the [`PiecewiseLinearTable::from_function`] case), enabling O(1)
    /// segment lookup on the companion-model hot path; `None` falls back to
    /// binary search.
    uniform_inv_step: Option<f64>,
}

impl PiecewiseLinearTable {
    /// Creates a table from `(x, y)` breakpoints.
    ///
    /// # Errors
    ///
    /// Returns [`BlockError::InvalidParameter`] if fewer than two points are
    /// given, any coordinate is non-finite, or the x values are not strictly
    /// increasing.
    pub fn new(points: Vec<(f64, f64)>) -> Result<Self, BlockError> {
        if points.len() < 2 {
            return Err(BlockError::InvalidParameter {
                name: "points",
                value: points.len() as f64,
                constraint: "a piecewise-linear table needs at least two breakpoints",
            });
        }
        for &(x, y) in &points {
            if !x.is_finite() || !y.is_finite() {
                return Err(BlockError::InvalidParameter {
                    name: "points",
                    value: if x.is_finite() { y } else { x },
                    constraint: "breakpoints must be finite",
                });
            }
        }
        for w in points.windows(2) {
            if !(w[1].0 > w[0].0) {
                return Err(BlockError::InvalidParameter {
                    name: "points",
                    value: w[1].0,
                    constraint: "breakpoint x values must be strictly increasing",
                });
            }
        }
        // Detect a uniform grid (up to rounding): the common case for tables
        // sampled by `from_function`, which unlocks O(1) segment lookup.
        let nominal = (points[points.len() - 1].0 - points[0].0) / (points.len() - 1) as f64;
        let uniform = points.windows(2).all(|w| {
            let gap = w[1].0 - w[0].0;
            (gap - nominal).abs() <= nominal.abs() * 1e-12
        });
        let uniform_inv_step = if uniform { Some(1.0 / nominal) } else { None };
        Ok(PiecewiseLinearTable { points, uniform_inv_step })
    }

    /// Builds a table by sampling `f` at `segments + 1` uniformly spaced points
    /// over `[x_min, x_max]`.
    ///
    /// # Errors
    ///
    /// Returns [`BlockError::InvalidParameter`] if `x_min >= x_max`, the segment
    /// count is zero, or `f` produces non-finite values.
    pub fn from_function(
        x_min: f64,
        x_max: f64,
        segments: usize,
        mut f: impl FnMut(f64) -> f64,
    ) -> Result<Self, BlockError> {
        if !(x_max > x_min) {
            return Err(BlockError::InvalidParameter {
                name: "x_max",
                value: x_max,
                constraint: "sampling range must satisfy x_min < x_max",
            });
        }
        if segments == 0 {
            return Err(BlockError::InvalidParameter {
                name: "segments",
                value: 0.0,
                constraint: "at least one segment is required",
            });
        }
        let mut points = Vec::with_capacity(segments + 1);
        for k in 0..=segments {
            let x = x_min + (x_max - x_min) * (k as f64) / (segments as f64);
            points.push((x, f(x)));
        }
        Self::new(points)
    }

    /// Number of breakpoints.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` if the table has no breakpoints (never true for a
    /// successfully constructed table, provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The breakpoints of the table.
    pub fn breakpoints(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// The x-range covered by the breakpoints, `(x_min, x_max)`.
    pub fn domain(&self) -> (f64, f64) {
        (self.points[0].0, self.points[self.points.len() - 1].0)
    }

    /// Index of the segment containing `x` (clamped to the first/last segment
    /// outside the domain). O(1) for uniformly sampled tables, O(log n)
    /// otherwise.
    pub fn segment_index(&self, x: f64) -> usize {
        let n = self.points.len();
        if x <= self.points[0].0 {
            return 0;
        }
        if x >= self.points[n - 1].0 {
            return n - 2;
        }
        if let Some(inv_step) = self.uniform_inv_step {
            // Direct index on the uniform grid; the float guard below absorbs
            // rounding at segment boundaries.
            let raw = ((x - self.points[0].0) * inv_step) as usize;
            let i = raw.min(n - 2);
            if x < self.points[i].0 {
                return i - 1;
            }
            if x >= self.points[i + 1].0 {
                return i + 1;
            }
            return i;
        }
        // Binary search over breakpoint x values.
        let mut lo = 0usize;
        let mut hi = n - 1;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if self.points[mid].0 <= x {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Interpolated (or extrapolated) value at `x`.
    pub fn value(&self, x: f64) -> f64 {
        let i = self.segment_index(x);
        let (x0, y0) = self.points[i];
        let (x1, y1) = self.points[i + 1];
        y0 + (y1 - y0) / (x1 - x0) * (x - x0)
    }

    /// Slope of the segment containing `x`.
    pub fn slope(&self, x: f64) -> f64 {
        let i = self.segment_index(x);
        let (x0, y0) = self.points[i];
        let (x1, y1) = self.points[i + 1];
        (y1 - y0) / (x1 - x0)
    }

    /// Chord `(slope, intercept)` of a segment: the constants `(s, c)` such
    /// that the interpolant over the segment is exactly `y(x) = s·x + c`.
    ///
    /// This is the piecewise-linear view the companion models need: within a
    /// segment the pair is *constant*, so two linearisations whose operating
    /// points fall in the same segment produce bit-identical companion values
    /// — the invariant behind the assembler's per-device stamp skip.
    ///
    /// # Panics
    ///
    /// Panics if `segment >= self.len() - 1`.
    pub fn segment_chord(&self, segment: usize) -> (f64, f64) {
        let (x0, y0) = self.points[segment];
        let (x1, y1) = self.points[segment + 1];
        let slope = (y1 - y0) / (x1 - x0);
        (slope, y0 - slope * x0)
    }

    /// Maximum absolute interpolation error against `f`, probed at `probes`
    /// points per segment: the test oracle for the "arbitrarily fine
    /// granularity" claim.
    #[cfg(test)]
    fn max_error_against(&self, mut f: impl FnMut(f64) -> f64, probes: usize) -> f64 {
        let mut max_err: f64 = 0.0;
        for w in self.points.windows(2) {
            let (x0, x1) = (w[0].0, w[1].0);
            for k in 0..=probes {
                let x = x0 + (x1 - x0) * (k as f64) / (probes.max(1) as f64);
                max_err = max_err.max((self.value(x) - f(x)).abs());
            }
        }
        max_err
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> PiecewiseLinearTable {
        PiecewiseLinearTable::new(vec![(-1.0, 1.0), (0.0, 0.0), (2.0, 4.0)]).unwrap()
    }

    #[test]
    fn construction_validation() {
        assert!(PiecewiseLinearTable::new(vec![(0.0, 0.0)]).is_err());
        assert!(PiecewiseLinearTable::new(vec![(0.0, 0.0), (0.0, 1.0)]).is_err());
        assert!(PiecewiseLinearTable::new(vec![(1.0, 0.0), (0.0, 1.0)]).is_err());
        assert!(PiecewiseLinearTable::new(vec![(0.0, f64::NAN), (1.0, 1.0)]).is_err());
        assert_eq!(table().len(), 3);
        assert!(!table().is_empty());
        assert_eq!(table().domain(), (-1.0, 2.0));
        assert_eq!(table().breakpoints().len(), 3);
    }

    #[test]
    fn interpolation_inside_segments() {
        let t = table();
        assert_eq!(t.value(-0.5), 0.5);
        assert_eq!(t.value(1.0), 2.0);
        assert_eq!(t.slope(-0.5), -1.0);
        assert_eq!(t.slope(1.0), 2.0);
    }

    #[test]
    fn extrapolation_uses_edge_slopes() {
        let t = table();
        assert_eq!(t.value(-2.0), 2.0); // slope -1 extended left
        assert_eq!(t.value(3.0), 6.0); // slope 2 extended right
        assert_eq!(t.segment_index(-5.0), 0);
        assert_eq!(t.segment_index(5.0), 1);
    }

    #[test]
    fn segment_chord_reproduces_the_interpolant() {
        let t = table();
        for x in [-2.0, -0.5, 0.5, 1.0, 3.0] {
            let i = t.segment_index(x);
            let (slope, intercept) = t.segment_chord(i);
            assert!((slope * x + intercept - t.value(x)).abs() < 1e-12, "chord mismatch at {x}");
            assert_eq!(slope, t.slope(x));
        }
    }

    #[test]
    fn breakpoint_values_are_exact() {
        let t = table();
        for &(x, y) in t.breakpoints() {
            assert!((t.value(x) - y).abs() < 1e-14);
        }
    }

    #[test]
    fn from_function_samples_uniformly() {
        let t = PiecewiseLinearTable::from_function(0.0, 1.0, 10, |x| x * x).unwrap();
        assert_eq!(t.len(), 11);
        assert!(t.max_error_against(|x| x * x, 16) < 0.01);
        assert!(PiecewiseLinearTable::from_function(1.0, 0.0, 10, |x| x).is_err());
        assert!(PiecewiseLinearTable::from_function(0.0, 1.0, 0, |x| x).is_err());
    }

    #[test]
    fn finer_tables_are_more_accurate() {
        let coarse = PiecewiseLinearTable::from_function(0.0, 1.0, 4, |x| x.exp()).unwrap();
        let fine = PiecewiseLinearTable::from_function(0.0, 1.0, 64, |x| x.exp()).unwrap();
        let err_coarse = coarse.max_error_against(|x| x.exp(), 8);
        let err_fine = fine.max_error_against(|x| x.exp(), 8);
        assert!(err_fine < err_coarse / 50.0, "coarse {err_coarse}, fine {err_fine}");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arbitrary_table() -> impl Strategy<Value = PiecewiseLinearTable> {
        // Strictly increasing x from cumulative positive gaps; arbitrary y.
        (
            prop::collection::vec(0.01f64..2.0, 2..20),
            prop::collection::vec(-10.0f64..10.0, 20),
            -5.0f64..5.0,
        )
            .prop_map(|(gaps, ys, x0)| {
                let mut x = x0;
                let mut pts = Vec::new();
                for (i, gap) in gaps.iter().enumerate() {
                    pts.push((x, ys[i % ys.len()]));
                    x += gap;
                }
                pts.push((x, ys[gaps.len() % ys.len()]));
                PiecewiseLinearTable::new(pts).expect("strictly increasing by construction")
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn value_is_bounded_by_segment_endpoints(t in arbitrary_table(), u in 0.0f64..1.0) {
            let (x_min, x_max) = t.domain();
            let x = x_min + u * (x_max - x_min);
            let i = t.segment_index(x);
            let (.., y0) = t.breakpoints()[i];
            let (.., y1) = t.breakpoints()[i + 1];
            let lo = y0.min(y1) - 1e-9;
            let hi = y0.max(y1) + 1e-9;
            let v = t.value(x);
            prop_assert!(v >= lo && v <= hi, "value {v} outside [{lo}, {hi}]");
        }
    }
}
