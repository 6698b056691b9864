//! # zc-tensor
//!
//! Dense N-dimensional array substrate for the cuZ-Checker reproduction.
//!
//! Z-checker (and therefore cuZ-Checker) operates on 1D–4D scientific
//! floating-point fields stored contiguously in memory. This crate provides
//! exactly that: a small, allocation-conscious tensor type with the access
//! patterns the three computational patterns of the paper need:
//!
//! * flat element access for *global reduction* metrics (pattern 1),
//! * multi-index access (`at`, `at3`, `Shape::linear`) for *stencil-like*
//!   metrics (pattern 2),
//! * overlapping sliding-window iteration for *SSIM* (pattern 3).
//!
//! ## Memory layout
//!
//! Dimensions are named `(x, y, z, w)` with **x fastest-varying**
//! (matching the paper's `(h, w, l)` notation where slices along the
//! z-axis are contiguous planes):
//!
//! ```text
//! linear(x, y, z, w) = x + nx * (y + ny * (z + nz * w))
//! ```
//!
//! A z-slab (an `(x, y)` plane) is therefore one contiguous chunk of
//! `nx * ny` elements — this is what pattern-1 assigns to a thread block.
//!
//! ## Example
//!
//! ```
//! use zc_tensor::{Shape, Tensor};
//!
//! let t = Tensor::from_fn(Shape::d3(4, 3, 2), |[x, y, z, _]| (x + 10 * y + 100 * z) as f32);
//! assert_eq!(t[[1, 2, 1, 0]], 121.0);
//! assert_eq!(t.shape().len(), 24);
//! let total: f32 = t.iter().sum();
//! assert!(total > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod element;
mod error;
mod shape;
mod tensor;
mod windows;

pub use element::Element;
pub use error::ShapeError;
pub use shape::{Axis, Shape, MAX_NDIM};
pub use tensor::Tensor;
pub use windows::{WindowSpec, Windows};
