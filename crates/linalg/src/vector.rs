use std::fmt;
use std::iter::FromIterator;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, MulAssign, Neg, Sub, SubAssign};

use crate::LinalgError;

/// A dense, heap-allocated column vector of `f64` values.
///
/// `DVector` is the workhorse value type of the simulation engine: state vectors
/// `x(t)`, terminal-variable vectors `y(t)` and excitation vectors `e(t)` are all
/// `DVector`s. It supports the usual element-wise arithmetic, dot products,
/// norms and a small set of convenience constructors.
///
/// # Example
///
/// ```
/// use harvsim_linalg::DVector;
///
/// let v = DVector::from_slice(&[3.0, 4.0]);
/// assert_eq!(v.norm_two(), 5.0);
/// assert_eq!(v.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DVector {
    data: Vec<f64>,
}

impl DVector {
    /// Creates a vector of `len` zeros.
    pub fn zeros(len: usize) -> Self {
        DVector { data: vec![0.0; len] }
    }

    /// Creates a vector of `len` copies of `value`.
    pub fn filled(len: usize, value: f64) -> Self {
        DVector { data: vec![value; len] }
    }

    /// Creates a vector from a slice, copying its contents.
    pub fn from_slice(values: &[f64]) -> Self {
        DVector { data: values.to_vec() }
    }

    /// Creates a vector by taking ownership of `values`.
    pub fn from_vec(values: Vec<f64>) -> Self {
        DVector { data: values }
    }

    /// Creates a vector of `len` values produced by `f(i)`.
    pub fn from_fn(len: usize, mut f: impl FnMut(usize) -> f64) -> Self {
        DVector { data: (0..len).map(&mut f).collect() }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the vector has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the underlying storage as a slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Borrow the underlying storage as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Returns element `i`, or `None` if out of bounds.
    pub fn get(&self, i: usize) -> Option<f64> {
        self.data.get(i).copied()
    }

    /// Sets element `i` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn set(&mut self, i: usize, value: f64) {
        self.data[i] = value;
    }

    /// Iterator over the elements.
    pub fn iter(&self) -> std::slice::Iter<'_, f64> {
        self.data.iter()
    }

    /// Mutable iterator over the elements.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, f64> {
        self.data.iter_mut()
    }

    /// Fills every element with `value`.
    pub fn fill(&mut self, value: f64) {
        self.data.iter_mut().for_each(|x| *x = value);
    }

    /// Dot (inner) product with another vector, computed with the four-lane
    /// [`crate::dot_unrolled`] reduction shared by the matrix–vector kernels
    /// (same throughput, same — reordered but tolerance-irrelevant —
    /// summation).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the lengths differ.
    pub fn dot(&self, other: &DVector) -> Result<f64, LinalgError> {
        if self.len() != other.len() {
            return Err(LinalgError::DimensionMismatch {
                operation: "dot product",
                left: (self.len(), 1),
                right: (other.len(), 1),
            });
        }
        Ok(crate::dot_unrolled(&self.data, &other.data))
    }

    /// Euclidean (L2) norm.
    pub fn norm_two(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Maximum absolute value (infinity norm). Zero for an empty vector.
    pub fn norm_inf(&self) -> f64 {
        self.data.iter().fold(0.0, |acc, x| acc.max(x.abs()))
    }

    /// Root-mean-square of the elements. Zero for an empty vector.
    pub fn rms(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            (self.data.iter().map(|x| x * x).sum::<f64>() / self.data.len() as f64).sqrt()
        }
    }

    /// `self += alpha * other` (the classic `axpy` update), used heavily by
    /// the Adams–Bashforth march-in-time loop; runs on the four-lane
    /// [`crate::axpy_chunked`] kernel (element-wise, so bit-identical to the
    /// naive loop).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the lengths differ.
    pub fn axpy(&mut self, alpha: f64, other: &DVector) -> Result<(), LinalgError> {
        if self.len() != other.len() {
            return Err(LinalgError::DimensionMismatch {
                operation: "axpy",
                left: (self.len(), 1),
                right: (other.len(), 1),
            });
        }
        crate::axpy_chunked(&mut self.data, alpha, &other.data);
        Ok(())
    }

    /// Returns a vector scaled by `alpha`.
    pub fn scaled(&self, alpha: f64) -> DVector {
        DVector { data: self.data.iter().map(|x| alpha * x).collect() }
    }

    /// Scales every element in place by `alpha`.
    pub fn scale_mut(&mut self, alpha: f64) {
        self.data.iter_mut().for_each(|x| *x *= alpha);
    }

    /// Element-wise maximum absolute difference to another vector.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the lengths differ.
    pub fn max_abs_diff(&self, other: &DVector) -> Result<f64, LinalgError> {
        if self.len() != other.len() {
            return Err(LinalgError::DimensionMismatch {
                operation: "max_abs_diff",
                left: (self.len(), 1),
                right: (other.len(), 1),
            });
        }
        Ok(self.data.iter().zip(&other.data).fold(0.0, |acc, (a, b)| acc.max((a - b).abs())))
    }

    /// Concatenates two vectors, `[self; other]`, used when stacking block state
    /// vectors into the global state vector.
    pub fn concat(&self, other: &DVector) -> DVector {
        let mut data = Vec::with_capacity(self.len() + other.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        DVector { data }
    }

    /// Copies a contiguous segment `[offset, offset + len)` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if the segment extends past the end of the vector.
    pub fn segment(&self, offset: usize, len: usize) -> DVector {
        DVector::from_slice(&self.data[offset..offset + len])
    }

    /// Writes `values` into the contiguous segment starting at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if the segment extends past the end of the vector.
    pub fn set_segment(&mut self, offset: usize, values: &DVector) {
        self.data[offset..offset + values.len()].copy_from_slice(values.as_slice());
    }

    /// Copies the segment `[offset, offset + self.len())` of `source` into this
    /// vector (the gather counterpart of [`DVector::set_segment`], used to fill
    /// preallocated per-block state views without allocating).
    ///
    /// # Panics
    ///
    /// Panics if the segment extends past the end of `source`.
    pub fn copy_from_segment(&mut self, source: &DVector, offset: usize) {
        let len = self.data.len();
        self.data.copy_from_slice(&source.data[offset..offset + len]);
    }

    /// Overwrites this vector with the contents of `other`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn copy_from(&mut self, other: &DVector) {
        assert_eq!(self.len(), other.len(), "length mismatch in vector copy_from");
        self.data.copy_from_slice(&other.data);
    }

    /// Returns `true` if every element is finite (no NaN or infinity).
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

impl Index<usize> for DVector {
    type Output = f64;
    fn index(&self, i: usize) -> &f64 {
        &self.data[i]
    }
}

impl IndexMut<usize> for DVector {
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.data[i]
    }
}

impl fmt::Display for DVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.data.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:.6e}")?;
        }
        write!(f, "]")
    }
}

impl FromIterator<f64> for DVector {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        DVector { data: iter.into_iter().collect() }
    }
}

impl Extend<f64> for DVector {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        self.data.extend(iter);
    }
}

impl From<Vec<f64>> for DVector {
    fn from(data: Vec<f64>) -> Self {
        DVector { data }
    }
}

impl AsRef<[f64]> for DVector {
    fn as_ref(&self) -> &[f64] {
        &self.data
    }
}

impl<'a> IntoIterator for &'a DVector {
    type Item = &'a f64;
    type IntoIter = std::slice::Iter<'a, f64>;
    fn into_iter(self) -> Self::IntoIter {
        self.data.iter()
    }
}

impl IntoIterator for DVector {
    type Item = f64;
    type IntoIter = std::vec::IntoIter<f64>;
    fn into_iter(self) -> Self::IntoIter {
        self.data.into_iter()
    }
}

macro_rules! impl_elementwise_binop {
    ($trait:ident, $method:ident, $op:tt, $name:expr) => {
        impl $trait<&DVector> for &DVector {
            type Output = DVector;
            fn $method(self, rhs: &DVector) -> DVector {
                assert_eq!(
                    self.len(),
                    rhs.len(),
                    concat!("length mismatch in vector ", $name)
                );
                DVector {
                    data: self
                        .data
                        .iter()
                        .zip(&rhs.data)
                        .map(|(a, b)| a $op b)
                        .collect(),
                }
            }
        }

        impl $trait<DVector> for DVector {
            type Output = DVector;
            fn $method(self, rhs: DVector) -> DVector {
                (&self).$method(&rhs)
            }
        }

        impl $trait<&DVector> for DVector {
            type Output = DVector;
            fn $method(self, rhs: &DVector) -> DVector {
                (&self).$method(rhs)
            }
        }

        impl $trait<DVector> for &DVector {
            type Output = DVector;
            fn $method(self, rhs: DVector) -> DVector {
                self.$method(&rhs)
            }
        }
    };
}

impl_elementwise_binop!(Add, add, +, "addition");
impl_elementwise_binop!(Sub, sub, -, "subtraction");

impl AddAssign<&DVector> for DVector {
    fn add_assign(&mut self, rhs: &DVector) {
        assert_eq!(self.len(), rhs.len(), "length mismatch in vector +=");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }
}

impl SubAssign<&DVector> for DVector {
    fn sub_assign(&mut self, rhs: &DVector) {
        assert_eq!(self.len(), rhs.len(), "length mismatch in vector -=");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a -= b;
        }
    }
}

impl Mul<f64> for &DVector {
    type Output = DVector;
    fn mul(self, rhs: f64) -> DVector {
        self.scaled(rhs)
    }
}

impl Mul<f64> for DVector {
    type Output = DVector;
    fn mul(self, rhs: f64) -> DVector {
        self.scaled(rhs)
    }
}

impl Mul<&DVector> for f64 {
    type Output = DVector;
    fn mul(self, rhs: &DVector) -> DVector {
        rhs.scaled(self)
    }
}

impl Mul<DVector> for f64 {
    type Output = DVector;
    fn mul(self, rhs: DVector) -> DVector {
        rhs.scaled(self)
    }
}

impl MulAssign<f64> for DVector {
    fn mul_assign(&mut self, rhs: f64) {
        self.scale_mut(rhs);
    }
}

impl Neg for &DVector {
    type Output = DVector;
    fn neg(self) -> DVector {
        self.scaled(-1.0)
    }
}

impl Neg for DVector {
    type Output = DVector;
    fn neg(self) -> DVector {
        self.scaled(-1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(DVector::zeros(3).as_slice(), &[0.0, 0.0, 0.0]);
        assert_eq!(DVector::filled(2, 1.5).as_slice(), &[1.5, 1.5]);
        assert_eq!(DVector::from_fn(3, |i| i as f64).as_slice(), &[0.0, 1.0, 2.0]);
        assert!(DVector::zeros(0).is_empty());
    }

    #[test]
    fn indexing_and_set() {
        let mut v = DVector::zeros(2);
        v[0] = 1.0;
        v.set(1, 2.0);
        assert_eq!(v[0], 1.0);
        assert_eq!(v.get(1), Some(2.0));
        assert_eq!(v.get(2), None);
    }

    #[test]
    fn dot_and_norms() {
        let a = DVector::from_slice(&[1.0, 2.0, 2.0]);
        let b = DVector::from_slice(&[2.0, 1.0, 0.0]);
        assert_eq!(a.dot(&b).unwrap(), 4.0);
        assert_eq!(a.norm_two(), 3.0);
        assert_eq!(a.norm_inf(), 2.0);
        assert!((a.rms() - (9.0f64 / 3.0).sqrt()).abs() < 1e-15);
    }

    #[test]
    fn dot_dimension_mismatch() {
        let a = DVector::zeros(2);
        let b = DVector::zeros(3);
        assert!(matches!(a.dot(&b), Err(LinalgError::DimensionMismatch { .. })));
    }

    #[test]
    fn arithmetic_ops() {
        let a = DVector::from_slice(&[1.0, 2.0]);
        let b = DVector::from_slice(&[3.0, 5.0]);
        assert_eq!((&a + &b).as_slice(), &[4.0, 7.0]);
        assert_eq!((&b - &a).as_slice(), &[2.0, 3.0]);
        assert_eq!((2.0 * &a).as_slice(), &[2.0, 4.0]);
        assert_eq!((&a * 3.0).as_slice(), &[3.0, 6.0]);
        assert_eq!((-&a).as_slice(), &[-1.0, -2.0]);

        let mut c = a.clone();
        c += &b;
        assert_eq!(c.as_slice(), &[4.0, 7.0]);
        c -= &b;
        assert_eq!(c.as_slice(), &[1.0, 2.0]);
        c *= 2.0;
        assert_eq!(c.as_slice(), &[2.0, 4.0]);
    }

    #[test]
    fn axpy_updates_in_place() {
        let mut a = DVector::from_slice(&[1.0, 1.0]);
        let b = DVector::from_slice(&[2.0, 3.0]);
        a.axpy(0.5, &b).unwrap();
        assert_eq!(a.as_slice(), &[2.0, 2.5]);
        assert!(a.axpy(1.0, &DVector::zeros(3)).is_err());
    }

    #[test]
    fn segments_and_concat() {
        let a = DVector::from_slice(&[1.0, 2.0]);
        let b = DVector::from_slice(&[3.0]);
        let c = a.concat(&b);
        assert_eq!(c.as_slice(), &[1.0, 2.0, 3.0]);
        assert_eq!(c.segment(1, 2).as_slice(), &[2.0, 3.0]);

        let mut d = DVector::zeros(3);
        d.set_segment(1, &DVector::from_slice(&[7.0, 8.0]));
        assert_eq!(d.as_slice(), &[0.0, 7.0, 8.0]);
    }

    #[test]
    fn copy_from_variants() {
        let src = DVector::from_slice(&[1.0, 2.0, 3.0, 4.0]);
        let mut dst = DVector::zeros(4);
        dst.copy_from(&src);
        assert_eq!(dst.as_slice(), src.as_slice());
        let mut window = DVector::zeros(2);
        window.copy_from_segment(&src, 1);
        assert_eq!(window.as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn max_abs_diff_reports_largest_gap() {
        let a = DVector::from_slice(&[1.0, 2.0, 3.0]);
        let b = DVector::from_slice(&[1.0, 2.5, 2.0]);
        assert_eq!(a.max_abs_diff(&b).unwrap(), 1.0);
    }

    #[test]
    fn finiteness_check() {
        assert!(DVector::from_slice(&[1.0, 2.0]).is_finite());
        assert!(!DVector::from_slice(&[1.0, f64::NAN]).is_finite());
        assert!(!DVector::from_slice(&[f64::INFINITY]).is_finite());
    }

    #[test]
    fn iterators_and_conversions() {
        let v: DVector = (0..3).map(|i| i as f64).collect();
        assert_eq!(v.as_slice(), &[0.0, 1.0, 2.0]);
        let sum: f64 = (&v).into_iter().sum();
        assert_eq!(sum, 3.0);
        let owned: Vec<f64> = v.clone().into_iter().collect();
        assert_eq!(owned, vec![0.0, 1.0, 2.0]);
        let from_vec = DVector::from(vec![4.0]);
        assert_eq!(from_vec.as_slice(), &[4.0]);
        let mut ext = DVector::zeros(1);
        ext.extend([5.0]);
        assert_eq!(ext.as_slice(), &[0.0, 5.0]);
    }

    #[test]
    fn display_is_nonempty() {
        let v = DVector::from_slice(&[1.0, -2.0]);
        let s = format!("{v}");
        assert!(s.starts_with('['));
        assert!(s.contains("1.0"));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn add_panics_on_mismatch() {
        let _ = DVector::zeros(2) + DVector::zeros(3);
    }
}
