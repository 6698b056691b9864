//! # zc-data
//!
//! Synthetic scientific dataset substrate for the cuZ-Checker reproduction.
//!
//! The paper evaluates on four SDRBench applications — Hurricane ISABEL,
//! NYX cosmology, SCALE-LETKF weather, and Miranda turbulence. Those
//! datasets are multi-gigabyte downloads that are unavailable in this
//! environment, so this crate synthesizes **seeded, deterministic stand-ins
//! with the same shapes, field counts and broad per-application character**
//! (documented per generator). The assessment kernels only observe shapes
//! and value statistics, so the substitution preserves every behaviour the
//! evaluation exercises (see DESIGN.md §2).
//!
//! ```
//! use zc_data::{AppDataset, GenOptions};
//!
//! let field = AppDataset::Miranda.generate_field(0, &GenOptions::scaled(16));
//! assert_eq!(field.data.shape().ndim(), 3);
//! assert!(!field.data.has_non_finite());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod catalog;
mod fields;
mod noise;
mod rng;
pub mod spectral;

pub use catalog::{catalog_fields, AppDataset, Field, GenOptions};
pub use fields::{synthesize_evolving, FieldKind, FieldRows};
pub use noise::{fbm3, value_noise3, FbmRows, NoiseSpec};
pub use rng::{Rng64, SplitMix64};
pub use spectral::{fft_1d, fft_3d, gaussian_random_field, GrfSpec};
