//! Shapes: dimensioning, strides and index arithmetic for 1D–4D tensors.

use crate::ShapeError;
use std::fmt;

/// Maximum number of dimensions supported (matches Z-checker's 1D–4D range).
pub const MAX_NDIM: usize = 4;

/// A named axis of a tensor.
///
/// The paper's `(h, w, l)` corresponds to `(X, Y, Z)` here, with `X`
/// fastest-varying in memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Axis {
    /// Fastest-varying (contiguous) axis.
    X,
    /// Second axis.
    Y,
    /// Third axis; z-slabs (`(x,y)` planes) are contiguous.
    Z,
    /// Fourth axis (e.g. time or ensemble member).
    W,
}

impl Axis {
    /// Axis index in `[0, MAX_NDIM)`.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Axis::X => 0,
            Axis::Y => 1,
            Axis::Z => 2,
            Axis::W => 3,
        }
    }

    /// All axes in memory order.
    pub const ALL: [Axis; MAX_NDIM] = [Axis::X, Axis::Y, Axis::Z, Axis::W];
}

/// The extents of a tensor along each axis.
///
/// Internally always stores `MAX_NDIM` extents; trailing axes of a
/// lower-dimensional shape have extent 1 but are not counted in
/// [`Shape::ndim`]. Empty extents (0) are rejected at construction.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: [usize; MAX_NDIM],
    ndim: usize,
}

impl Shape {
    /// 1D shape of `nx` elements.
    #[inline]
    pub fn d1(nx: usize) -> Self {
        Self::new(&[nx]).expect("extent must be non-zero")
    }

    /// 2D shape `nx × ny`.
    #[inline]
    pub fn d2(nx: usize, ny: usize) -> Self {
        Self::new(&[nx, ny]).expect("extents must be non-zero")
    }

    /// 3D shape `nx × ny × nz`.
    #[inline]
    pub fn d3(nx: usize, ny: usize, nz: usize) -> Self {
        Self::new(&[nx, ny, nz]).expect("extents must be non-zero")
    }

    /// 4D shape `nx × ny × nz × nw`.
    #[inline]
    pub fn d4(nx: usize, ny: usize, nz: usize, nw: usize) -> Self {
        Self::new(&[nx, ny, nz, nw]).expect("extents must be non-zero")
    }

    /// Construct from a slice of 1–4 extents (fastest-varying first).
    ///
    /// Returns [`ShapeError::ZeroExtent`] if any extent is zero,
    /// [`ShapeError::TooManyDims`] for more than [`MAX_NDIM`] extents, and
    /// [`ShapeError::ElementCountOverflow`] if the element count does not
    /// fit in `usize` — so [`Shape::len`] never wraps.
    pub fn new(extents: &[usize]) -> Result<Self, ShapeError> {
        if extents.is_empty() || extents.len() > MAX_NDIM {
            return Err(ShapeError::TooManyDims(extents.len()));
        }
        if extents.contains(&0) {
            return Err(ShapeError::ZeroExtent);
        }
        extents
            .iter()
            .try_fold(1usize, |n, &e| n.checked_mul(e))
            .ok_or(ShapeError::ElementCountOverflow)?;
        let mut dims = [1usize; MAX_NDIM];
        dims[..extents.len()].copy_from_slice(extents);
        Ok(Shape {
            dims,
            ndim: extents.len(),
        })
    }

    /// Number of *declared* dimensions (1–4).
    #[inline]
    pub fn ndim(&self) -> usize {
        self.ndim
    }

    /// Extent along axis `a` (1 for axes beyond `ndim`).
    #[inline]
    pub fn extent(&self, a: Axis) -> usize {
        self.dims[a.index()]
    }

    /// Extent along the x axis.
    #[inline]
    pub fn nx(&self) -> usize {
        self.dims[0]
    }

    /// Extent along the y axis.
    #[inline]
    pub fn ny(&self) -> usize {
        self.dims[1]
    }

    /// Extent along the z axis.
    #[inline]
    pub fn nz(&self) -> usize {
        self.dims[2]
    }

    /// Extent along the w axis.
    #[inline]
    pub fn nw(&self) -> usize {
        self.dims[3]
    }

    /// All extents in memory order (trailing 1s for unused axes).
    #[inline]
    pub fn dims(&self) -> [usize; MAX_NDIM] {
        self.dims
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.dims.iter().product()
    }

    /// A shape is never empty (zero extents are rejected), so this is
    /// always `false`; provided for API completeness.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of elements in one z-slab (an `(x, y)` plane).
    #[inline]
    pub fn slab_len(&self) -> usize {
        self.nx() * self.ny()
    }

    /// Strides in elements for each axis (x stride is always 1).
    #[inline]
    pub fn strides(&self) -> [usize; MAX_NDIM] {
        let [nx, ny, nz, _] = self.dims;
        [1, nx, nx * ny, nx * ny * nz]
    }

    /// Linear index of the coordinate `[x, y, z, w]`.
    ///
    /// Debug builds assert the coordinate is in range.
    #[inline]
    pub fn linear(&self, idx: [usize; MAX_NDIM]) -> usize {
        debug_assert!(
            idx.iter().zip(self.dims.iter()).all(|(i, d)| i < d),
            "index {idx:?} out of bounds for shape {self}"
        );
        let [sx, sy, sz, sw] = self.strides();
        idx[0] * sx + idx[1] * sy + idx[2] * sz + idx[3] * sw
    }

    /// Inverse of [`Shape::linear`]: the coordinate of a linear offset.
    #[inline]
    pub fn unlinear(&self, mut lin: usize) -> [usize; MAX_NDIM] {
        debug_assert!(
            lin < self.len(),
            "offset {lin} out of bounds for shape {self}"
        );
        let [nx, ny, nz, _] = self.dims;
        let x = lin % nx;
        lin /= nx;
        let y = lin % ny;
        lin /= ny;
        let z = lin % nz;
        let w = lin / nz;
        [x, y, z, w]
    }

    /// Whether the coordinate lies inside the shape.
    #[inline]
    pub fn contains(&self, idx: [usize; MAX_NDIM]) -> bool {
        idx.iter().zip(self.dims.iter()).all(|(i, d)| i < d)
    }

    /// Shape with every extent divided by `factor` (clamped to at least 1),
    /// keeping the dimensionality. Used by the benchmark harness to run the
    /// paper's dataset shapes at reduced scale.
    pub fn scaled_down(&self, factor: usize) -> Shape {
        assert!(factor > 0, "scale factor must be positive");
        let mut dims = self.dims;
        for (i, d) in dims.iter_mut().enumerate() {
            if i < self.ndim {
                *d = (*d / factor).max(1);
            }
        }
        Shape {
            dims,
            ndim: self.ndim,
        }
    }

    /// Shape with each axis divided by its own factor (clamped to ≥ 1).
    pub fn scaled_down_axes(&self, factors: [usize; MAX_NDIM]) -> Shape {
        assert!(
            factors.iter().all(|&f| f > 0),
            "scale factors must be positive"
        );
        let mut dims = self.dims;
        for (i, d) in dims.iter_mut().enumerate() {
            if i < self.ndim {
                *d = (*d / factors[i]).max(1);
            }
        }
        Shape {
            dims,
            ndim: self.ndim,
        }
    }

    /// Total payload size in bytes for an element type of `elem_size` bytes.
    #[inline]
    pub fn nbytes(&self, elem_size: usize) -> usize {
        self.len() * elem_size
    }

    /// Iterator over every coordinate in memory order.
    pub fn coords(&self) -> impl Iterator<Item = [usize; MAX_NDIM]> + '_ {
        let shape = *self;
        (0..shape.len()).map(move |lin| shape.unlinear(lin))
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for i in 0..self.ndim {
            if i > 0 {
                write!(f, "×")?;
            }
            write!(f, "{}", self.dims[i])?;
        }
        write!(f, ")")
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shape{self}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_ndim_and_extents() {
        assert_eq!(Shape::d1(7).ndim(), 1);
        assert_eq!(Shape::d2(7, 3).ndim(), 2);
        let s = Shape::d3(100, 500, 500);
        assert_eq!(s.ndim(), 3);
        assert_eq!((s.nx(), s.ny(), s.nz(), s.nw()), (100, 500, 500, 1));
        assert_eq!(Shape::d4(2, 3, 4, 5).len(), 120);
    }

    #[test]
    fn zero_extent_rejected() {
        assert_eq!(Shape::new(&[4, 0, 2]), Err(ShapeError::ZeroExtent));
    }

    #[test]
    fn too_many_dims_rejected() {
        assert_eq!(
            Shape::new(&[1, 2, 3, 4, 5]),
            Err(ShapeError::TooManyDims(5))
        );
        assert_eq!(Shape::new(&[]), Err(ShapeError::TooManyDims(0)));
    }

    #[test]
    fn element_count_overflow_rejected() {
        let big = 1usize << (usize::BITS - 2);
        assert_eq!(Shape::new(&[big, 4]), Err(ShapeError::ElementCountOverflow));
        assert_eq!(
            Shape::new(&[1 << 16, 1 << 16, 1 << 16, 1 << 16]),
            Err(ShapeError::ElementCountOverflow)
        );
        // A product just below the limit is still a shape.
        assert_eq!(Shape::new(&[big, 3]).unwrap().len(), big * 3);
    }

    #[test]
    fn linear_roundtrip_all_coords() {
        let s = Shape::d4(3, 4, 5, 2);
        for lin in 0..s.len() {
            let idx = s.unlinear(lin);
            assert_eq!(s.linear(idx), lin);
        }
    }

    #[test]
    fn x_is_fastest() {
        let s = Shape::d3(10, 4, 2);
        assert_eq!(s.linear([1, 0, 0, 0]), 1);
        assert_eq!(s.linear([0, 1, 0, 0]), 10);
        assert_eq!(s.linear([0, 0, 1, 0]), 40);
        assert_eq!(s.strides(), [1, 10, 40, 80]);
    }

    #[test]
    fn slab_is_contiguous_plane() {
        let s = Shape::d3(6, 7, 8);
        assert_eq!(s.slab_len(), 42);
        assert_eq!(s.linear([0, 0, 3, 0]), 3 * 42);
    }

    #[test]
    fn scaled_down_keeps_ndim_and_clamps() {
        let s = Shape::d3(100, 500, 500).scaled_down(8);
        assert_eq!(s.dims(), [12, 62, 62, 1]);
        assert_eq!(s.ndim(), 3);
        let tiny = Shape::d2(3, 5).scaled_down(10);
        assert_eq!(tiny.dims(), [1, 1, 1, 1]);
        assert_eq!(tiny.ndim(), 2);
    }

    #[test]
    fn coords_cover_everything_in_memory_order() {
        let s = Shape::d2(3, 2);
        let cs: Vec<_> = s.coords().collect();
        assert_eq!(
            cs,
            vec![
                [0, 0, 0, 0],
                [1, 0, 0, 0],
                [2, 0, 0, 0],
                [0, 1, 0, 0],
                [1, 1, 0, 0],
                [2, 1, 0, 0]
            ]
        );
    }

    #[test]
    fn display_shows_declared_dims_only() {
        assert_eq!(Shape::d3(1, 2, 3).to_string(), "(1×2×3)");
        assert_eq!(Shape::d1(9).to_string(), "(9)");
    }
}
