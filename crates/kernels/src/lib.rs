//! # zc-kernels
//!
//! The cuZ-Checker GPU kernels, implemented against the [`zc_gpusim`]
//! simulator:
//!
//! * [`P1FusedKernel`] / [`P1HistKernel`] — pattern 1, the fused global
//!   reduction of Algorithm 1 (all 14+ scalar metrics from one read, plus
//!   the fused three-histogram pass);
//! * [`P2FusedKernel`] — pattern 2, the shared-memory stencil cubes of
//!   Algorithm 2 (derivatives + divergence + Laplacian + autocorrelation
//!   from one cube load per stride);
//! * [`SsimFusedKernel`] — pattern 3, the sliding-window SSIM of
//!   Algorithm 3 with the shared-memory **FIFO buffer** (every z-slice read
//!   from global memory exactly once);
//! * [`mo`] — the *metric-oriented* (moZC) counterparts the paper builds
//!   as its GPU baseline: one kernel per metric, CUB-style two-launch
//!   reductions, per-axis derivative passes, and the no-FIFO SSIM ablation.
//!
//! The shared accumulator math lives in [`acc`] so every executor agrees on
//! metric definitions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod acc;
pub mod hist;
pub mod mo;
pub mod p1;
pub mod p2;
pub mod p3;
pub mod traffic;

pub use acc::{LaneAccum, P1Scalars, P2Stats, WindowMoments};
pub use hist::Histogram;
pub use p1::{P1FusedKernel, P1HistKernel, P1Histograms};
pub use p2::P2FusedKernel;
pub use p3::{SsimFusedKernel, SsimParams};

use zc_gpusim::{BlockCtx, BlockKernel, KernelClass, KernelResources};
use zc_tensor::{Shape, Tensor};

/// Kernels that keep their pre-SoA scalar implementation alongside the
/// vectorizable fast path.
///
/// `run_block` is the production path (struct-of-arrays lane emulation,
/// batched counter accounting); `run_block_reference` is the original
/// per-lane/per-access implementation. Both must produce the same partial
/// and charge the same counter totals — the differential property tests
/// launch each kernel through [`Reference`] and compare.
pub trait HasReferencePath: BlockKernel {
    /// Run one block through the scalar reference implementation.
    fn run_block_reference(&self, block: usize, ctx: &mut BlockCtx) -> Self::Partial;
}

impl<K: HasReferencePath> HasReferencePath for &K {
    fn run_block_reference(&self, block: usize, ctx: &mut BlockCtx) -> Self::Partial {
        (**self).run_block_reference(block, ctx)
    }
}

/// Adapter that launches a kernel through its scalar reference path:
/// `sim.launch(&Reference(&k), grid)` runs the pre-SoA baseline of
/// `sim.launch(&k, grid)` with identical outputs and counters.
pub struct Reference<K>(pub K);

impl<K: HasReferencePath> BlockKernel for Reference<K> {
    type Partial = K::Partial;
    type Output = K::Output;

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn resources(&self) -> KernelResources {
        self.0.resources()
    }

    fn class(&self) -> KernelClass {
        self.0.class()
    }

    fn cooperative(&self) -> bool {
        self.0.cooperative()
    }

    fn run_block(&self, block: usize, ctx: &mut BlockCtx) -> Self::Partial {
        self.0.run_block_reference(block, ctx)
    }

    fn finalize(&self, ctx: &mut BlockCtx, partials: Vec<Self::Partial>) -> Self::Output {
        self.0.finalize(ctx, partials)
    }
}

/// A borrowed `(original, decompressed)` field pair — the input of every
/// assessment kernel.
#[derive(Clone, Copy)]
pub struct FieldPair<'a> {
    /// The original field's backing storage.
    pub orig: &'a [f32],
    /// The decompressed field's backing storage.
    pub dec: &'a [f32],
    /// Common shape.
    pub shape: Shape,
}

impl<'a> FieldPair<'a> {
    /// Pair two congruent tensors (panics on shape mismatch — callers
    /// validate shapes at the API boundary).
    // zc-lint: exempt(charging/uncharged-access) — these are `Tensor`
    // (global-memory) views, not `SharedBuf` raw views; kernels charge
    // reads against them explicitly.
    pub fn new(orig: &'a Tensor<f32>, dec: &'a Tensor<f32>) -> Self {
        assert_eq!(orig.shape(), dec.shape(), "field pair must be congruent");
        FieldPair {
            orig: orig.as_slice(),
            dec: dec.as_slice(),
            shape: orig.shape(),
        }
    }

    /// Total elements.
    pub fn len(&self) -> usize {
        self.shape.len()
    }

    /// Always false (shapes are non-empty).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Payload bytes of one field.
    pub fn field_bytes(&self) -> u64 {
        self.shape.len() as u64 * 4
    }
}
