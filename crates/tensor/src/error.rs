//! Error types for shape and tensor construction.

use std::fmt;

/// Errors raised when constructing shapes or tensors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShapeError {
    /// An extent of zero was supplied.
    ZeroExtent,
    /// More than [`crate::MAX_NDIM`] (or zero) extents were supplied.
    TooManyDims(usize),
    /// The product of the extents does not fit in `usize`.
    ElementCountOverflow,
    /// Backing buffer length does not match the shape's element count.
    LenMismatch {
        /// Elements implied by the shape.
        expected: usize,
        /// Elements actually supplied.
        got: usize,
    },
    /// Two tensors that must be congruent have different shapes.
    ShapeMismatch,
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShapeError::ZeroExtent => write!(f, "shape extents must be non-zero"),
            ShapeError::TooManyDims(n) => {
                write!(f, "expected 1..={} dimensions, got {n}", crate::MAX_NDIM)
            }
            ShapeError::ElementCountOverflow => {
                write!(f, "element count overflows the address space")
            }
            ShapeError::LenMismatch { expected, got } => {
                write!(
                    f,
                    "buffer length {got} does not match shape element count {expected}"
                )
            }
            ShapeError::ShapeMismatch => write!(f, "tensor shapes do not match"),
        }
    }
}

impl std::error::Error for ShapeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        assert!(ShapeError::ZeroExtent.to_string().contains("non-zero"));
        assert!(ShapeError::TooManyDims(9).to_string().contains('9'));
        let e = ShapeError::LenMismatch {
            expected: 10,
            got: 3,
        };
        assert!(e.to_string().contains("10") && e.to_string().contains('3'));
    }
}
