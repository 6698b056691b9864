//! The owning dense tensor type.

use crate::{Element, Shape, ShapeError, MAX_NDIM};

/// A dense, contiguous, row-of-x-major N-dimensional array.
///
/// This is the unit of data every cuZ-Checker component exchanges: dataset
/// generators produce them, compressors consume and reproduce them, and the
/// metric executors compare pairs of them.
#[derive(Clone, PartialEq)]
pub struct Tensor<T> {
    shape: Shape,
    data: Vec<T>,
}

impl<T: Element> Tensor<T> {
    /// A tensor filled with `value`.
    pub fn full(shape: Shape, value: T) -> Self {
        Tensor {
            shape,
            data: vec![value; shape.len()],
        }
    }

    /// A zero-filled tensor.
    pub fn zeros(shape: Shape) -> Self {
        Self::full(shape, T::ZERO)
    }

    /// Build a tensor by evaluating `f` at every coordinate `[x, y, z, w]`.
    pub fn from_fn(shape: Shape, mut f: impl FnMut([usize; MAX_NDIM]) -> T) -> Self {
        let mut data = Vec::with_capacity(shape.len());
        let [nx, ny, nz, nw] = shape.dims();
        for w in 0..nw {
            for z in 0..nz {
                for y in 0..ny {
                    for x in 0..nx {
                        data.push(f([x, y, z, w]));
                    }
                }
            }
        }
        Tensor { shape, data }
    }

    /// Wrap an existing buffer. Fails if the length doesn't match the shape.
    pub fn from_vec(shape: Shape, data: Vec<T>) -> Result<Self, ShapeError> {
        if data.len() != shape.len() {
            return Err(ShapeError::LenMismatch {
                expected: shape.len(),
                got: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// The tensor's shape.
    #[inline]
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Always `false` (shapes cannot be empty); for API completeness.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Payload size in bytes.
    #[inline]
    pub fn nbytes(&self) -> usize {
        self.len() * T::BYTES
    }

    /// Flat immutable access to the backing storage.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Flat mutable access to the backing storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Iterate over all elements in memory order.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.data.iter()
    }

    /// Element at `[x, y, z, w]`, bounds-checked in debug builds.
    #[inline]
    pub fn at(&self, idx: [usize; MAX_NDIM]) -> T {
        self.data[self.shape.linear(idx)]
    }

    /// Element at a 3D coordinate (w = 0).
    #[inline]
    pub fn at3(&self, x: usize, y: usize, z: usize) -> T {
        self.at([x, y, z, 0])
    }

    /// Checked element access: `None` when out of bounds.
    #[inline]
    pub fn get(&self, idx: [usize; MAX_NDIM]) -> Option<T> {
        if self.shape.contains(idx) {
            Some(self.data[self.shape.linear(idx)])
        } else {
            None
        }
    }

    /// Set the element at `[x, y, z, w]`.
    #[inline]
    pub fn set(&mut self, idx: [usize; MAX_NDIM], v: T) {
        let lin = self.shape.linear(idx);
        self.data[lin] = v;
    }

    /// Elementwise map into a new tensor (possibly of a different element
    /// type).
    pub fn map<U: Element>(&self, mut f: impl FnMut(T) -> U) -> Tensor<U> {
        Tensor {
            shape: self.shape,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Elementwise combination of two congruent tensors.
    ///
    /// Returns [`ShapeError::ShapeMismatch`] when shapes differ.
    pub fn zip_map<U: Element>(
        &self,
        other: &Tensor<T>,
        mut f: impl FnMut(T, T) -> U,
    ) -> Result<Tensor<U>, ShapeError> {
        if self.shape != other.shape {
            return Err(ShapeError::ShapeMismatch);
        }
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Tensor {
            shape: self.shape,
            data,
        })
    }

    /// True if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| v.is_non_finite())
    }

    /// Minimum and maximum values (NaNs are ignored; returns `None` if all
    /// elements are NaN).
    pub fn min_max(&self) -> Option<(T, T)> {
        let mut it = self.data.iter().copied().filter(|v| !v.is_non_finite());
        let first = it.next()?;
        let mut mn = first;
        let mut mx = first;
        for v in it {
            if v < mn {
                mn = v;
            }
            if v > mx {
                mx = v;
            }
        }
        Some((mn, mx))
    }
}

impl<T: Element> std::ops::Index<[usize; MAX_NDIM]> for Tensor<T> {
    type Output = T;
    #[inline]
    fn index(&self, idx: [usize; MAX_NDIM]) -> &T {
        &self.data[self.shape.linear(idx)]
    }
}

impl<T: Element> std::ops::IndexMut<[usize; MAX_NDIM]> for Tensor<T> {
    #[inline]
    fn index_mut(&mut self, idx: [usize; MAX_NDIM]) -> &mut T {
        let lin = self.shape.linear(idx);
        &mut self.data[lin]
    }
}

impl<T: Element> std::fmt::Debug for Tensor<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor<{}>{} [{} elems]", T::TAG, self.shape, self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp() -> Tensor<f32> {
        Tensor::from_fn(Shape::d3(4, 3, 2), |[x, y, z, _]| {
            (x + 4 * y + 12 * z) as f32
        })
    }

    #[test]
    fn from_fn_matches_memory_order() {
        let t = ramp();
        // from_fn should produce exactly the ramp 0..len in memory order.
        let expect: Vec<f32> = (0..24).map(|v| v as f32).collect();
        assert_eq!(t.as_slice(), &expect[..]);
    }

    #[test]
    fn indexing_and_set() {
        let mut t = ramp();
        assert_eq!(t[[3, 2, 1, 0]], 23.0);
        t.set([0, 0, 1, 0], -5.0);
        assert_eq!(t.at3(0, 0, 1), -5.0);
        assert_eq!(t.get([4, 0, 0, 0]), None);
        assert_eq!(t.get([3, 0, 0, 0]), Some(3.0));
    }

    #[test]
    fn from_vec_checks_len() {
        assert!(Tensor::from_vec(Shape::d1(3), vec![1.0f32, 2.0]).is_err());
        assert!(Tensor::from_vec(Shape::d1(2), vec![1.0f32, 2.0]).is_ok());
    }

    #[test]
    fn zip_map_requires_congruence() {
        let a = ramp();
        let b = Tensor::<f32>::zeros(Shape::d3(4, 3, 1));
        assert_eq!(
            a.zip_map(&b, |x, y| x + y).unwrap_err(),
            ShapeError::ShapeMismatch
        );
    }

    #[test]
    fn min_max_ignores_nan() {
        let mut t = ramp();
        t.set([0, 0, 0, 0], f32::NAN);
        let (mn, mx) = t.min_max().unwrap();
        assert_eq!(mn, 1.0);
        assert_eq!(mx, 23.0);
        assert!(t.has_non_finite());
    }

    #[test]
    fn all_nan_min_max_is_none() {
        let t = Tensor::full(Shape::d1(4), f32::NAN);
        assert!(t.min_max().is_none());
    }

    #[test]
    fn map_changes_element_type() {
        let t = ramp();
        let d: Tensor<f64> = t.map(|v| v as f64 * 2.0);
        assert_eq!(d.at3(1, 0, 0), 2.0);
        assert_eq!(d.nbytes(), 24 * 8);
    }
}
