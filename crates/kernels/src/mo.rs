//! The **metric-oriented** (moZC) GPU baseline of the paper's evaluation.
//!
//! moZC implements each assessment metric as an individual kernel, the way
//! a straightforward CUDA port of Z-checker would: CUB-style two-launch
//! reductions for the pattern-1 metrics (10 kernels — RMSE/NRMSE ride on
//! MSE and PSNR on SNR, exactly the paper's §IV-B accounting), per-axis
//! finite-difference passes for derivatives (the "NVIDIA approach"), one
//! stencil launch per autocorrelation lag, and the no-FIFO SSIM ablation
//! ([`crate::p3::SsimFusedKernel`] with `fifo_in_shared = false`).
//!
//! Every moZC kernel computes the *same functional values* as the fused
//! cuZC kernels (they share the accumulator math), but charges the traffic
//! and launch pattern of the metric-oriented design — which is precisely
//! the difference Figs. 10–12 measure.

use crate::acc::P1Scalars;
use crate::hist::Histogram;
use crate::{FieldPair, HasReferencePath};
use zc_gpusim::{BlockCtx, BlockKernel, KernelClass, KernelResources, WARP};

/// The ten pattern-1 metric kernels of moZC.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MoP1Metric {
    /// Minimum signed error.
    MinErr,
    /// Maximum signed error.
    MaxErr,
    /// Mean absolute error.
    AvgErr,
    /// Error PDF (histogram kernel).
    ErrPdf,
    /// Minimum pointwise-relative error.
    MinPwr,
    /// Maximum pointwise-relative error.
    MaxPwr,
    /// Mean pointwise-relative error.
    AvgPwr,
    /// Pwr-error PDF (histogram kernel).
    PwrPdf,
    /// MSE (carries RMSE and NRMSE).
    Mse,
    /// SNR (carries PSNR).
    Snr,
}

impl MoP1Metric {
    /// The scalar (non-histogram) kernels, in the paper's Table-I order.
    pub const SCALARS: [MoP1Metric; 8] = [
        MoP1Metric::MinErr,
        MoP1Metric::MaxErr,
        MoP1Metric::AvgErr,
        MoP1Metric::MinPwr,
        MoP1Metric::MaxPwr,
        MoP1Metric::AvgPwr,
        MoP1Metric::Mse,
        MoP1Metric::Snr,
    ];

    /// ALU lane-ops this metric's kernel spends per element.
    fn flops_per_elem(self) -> u64 {
        match self {
            MoP1Metric::MinErr | MoP1Metric::MaxErr => 2,
            MoP1Metric::AvgErr => 3,
            MoP1Metric::MinPwr | MoP1Metric::MaxPwr | MoP1Metric::AvgPwr => 4,
            MoP1Metric::Mse => 3,
            MoP1Metric::Snr => 6, // Σx, Σx², Σe² in one kernel
            MoP1Metric::ErrPdf | MoP1Metric::PwrPdf => 6,
        }
    }

    /// Whether the kernel needs a pointwise division.
    fn divides(self) -> bool {
        matches!(
            self,
            MoP1Metric::MinPwr | MoP1Metric::MaxPwr | MoP1Metric::AvgPwr | MoP1Metric::PwrPdf
        )
    }
}

/// A single metric-oriented pattern-1 reduction kernel.
///
/// Functionally it produces the full [`P1Scalars`] (all executors agree on
/// values); the cost charged is that of computing *only* its metric — plus
/// the non-cooperative second launch CUB-style reductions pay.
pub struct MoP1Kernel<'a> {
    /// The field pair under assessment.
    pub fields: FieldPair<'a>,
    /// Which metric this launch computes.
    pub metric: MoP1Metric,
}

impl MoP1Kernel<'_> {
    /// Grid size: z-slab decomposition like the fused kernel.
    pub fn grid(&self) -> usize {
        crate::traffic::plane_grid(self.fields.shape)
    }
}

impl BlockKernel for MoP1Kernel<'_> {
    type Partial = P1Scalars;
    type Output = P1Scalars;

    fn name(&self) -> &'static str {
        "mo_p1"
    }

    fn resources(&self) -> KernelResources {
        // Lean single-purpose kernels: full occupancy.
        KernelResources {
            regs_per_thread: 24,
            smem_per_block: 256,
            threads_per_block: 256,
        }
    }

    fn class(&self) -> KernelClass {
        KernelClass::GlobalReduction
    }

    fn cooperative(&self) -> bool {
        false // CUB device reductions use a second launch, not grid sync
    }

    fn run_block(&self, block: usize, ctx: &mut BlockCtx) -> P1Scalars {
        let s = self.fields.shape;
        let slab = s.slab_len();
        let base = block * slab;
        let mut acc = P1Scalars::identity();
        ctx.note_iters(slab.div_ceil(256) as u64);
        // Fast path: walk the slab as two contiguous slices (same absorb
        // order as the reference) and charge the read traffic in bulk.
        let xs = &self.fields.orig[base..base + slab];
        let ys = &self.fields.dec[base..base + slab];
        for (&x, &y) in xs.iter().zip(ys) {
            acc.absorb(x as f64, y as f64);
        }
        ctx.charge_lane_reads(2 * slab as u64);
        ctx.flops(self.metric.flops_per_elem() * slab as u64);
        if self.metric.divides() {
            ctx.special(slab as u64);
        }
        // Warp + cross-warp reduction of ONE quantity (vs. 19 fused).
        ctx.charge_shuffles(5 + 3);
        ctx.flops((5 + 3) * WARP as u64);
        ctx.sync_threads();
        ctx.g_write_raw(8);
        acc
    }

    fn finalize(&self, ctx: &mut BlockCtx, partials: Vec<P1Scalars>) -> P1Scalars {
        ctx.g_read_raw(partials.len() as u64 * 8);
        ctx.flops(partials.len() as u64);
        let mut acc = P1Scalars::identity();
        for p in &partials {
            acc.combine(p);
        }
        acc
    }
}

impl HasReferencePath for MoP1Kernel<'_> {
    // Per-element implementation: every element is two charged `g_read`s.
    fn run_block_reference(&self, block: usize, ctx: &mut BlockCtx) -> P1Scalars {
        let s = self.fields.shape;
        let slab = s.slab_len();
        let base = block * slab;
        let mut acc = P1Scalars::identity();
        ctx.note_iters(slab.div_ceil(256) as u64);
        for i in base..base + slab {
            let x = ctx.g_read(self.fields.orig, i) as f64;
            let y = ctx.g_read(self.fields.dec, i) as f64;
            acc.absorb(x, y);
        }
        ctx.flops(self.metric.flops_per_elem() * slab as u64);
        if self.metric.divides() {
            ctx.special(slab as u64);
        }
        ctx.charge_shuffles(5 + 3);
        ctx.flops((5 + 3) * WARP as u64);
        ctx.sync_threads();
        ctx.g_write_raw(8);
        acc
    }
}

/// Which histogram a metric-oriented histogram kernel builds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MoHistKind {
    /// Signed-error PDF.
    ErrPdf,
    /// Pointwise-relative-error PDF.
    PwrPdf,
    /// Original-value distribution (entropy property).
    ValueHist,
}

/// A single metric-oriented histogram kernel.
pub struct MoHistKernel<'a> {
    /// The field pair under assessment.
    pub fields: FieldPair<'a>,
    /// Bounds from a preceding reduction pass.
    pub scalars: P1Scalars,
    /// Which histogram to build.
    pub kind: MoHistKind,
    /// Bins.
    pub bins: usize,
}

impl MoHistKernel<'_> {
    /// Grid size: z-slab decomposition.
    pub fn grid(&self) -> usize {
        crate::traffic::plane_grid(self.fields.shape)
    }

    fn make(&self) -> Histogram {
        match self.kind {
            MoHistKind::ErrPdf => Histogram::new(self.scalars.min_e, self.scalars.max_e, self.bins),
            MoHistKind::PwrPdf => Histogram::new(
                0.0,
                if self.scalars.n_rel > 0 {
                    self.scalars.max_rel
                } else {
                    0.0
                },
                self.bins,
            ),
            MoHistKind::ValueHist => {
                Histogram::new(self.scalars.min_x, self.scalars.max_x, self.bins)
            }
        }
    }
}

impl BlockKernel for MoHistKernel<'_> {
    type Partial = Histogram;
    type Output = Histogram;

    fn name(&self) -> &'static str {
        "mo_hist"
    }

    fn resources(&self) -> KernelResources {
        KernelResources {
            regs_per_thread: 24,
            smem_per_block: (self.bins * 4) as u32,
            threads_per_block: 256,
        }
    }

    fn class(&self) -> KernelClass {
        KernelClass::GlobalReduction
    }

    fn cooperative(&self) -> bool {
        false
    }

    fn run_block(&self, block: usize, ctx: &mut BlockCtx) -> Histogram {
        let s = self.fields.shape;
        let slab = s.slab_len();
        let base = block * slab;
        let mut h = self.make();
        let _shared: zc_gpusim::SharedBuf<u32> = ctx.shared_alloc(self.bins);
        ctx.note_iters(slab.div_ceil(256) as u64);
        // Fast path: one contiguous pass per kind with bulk charging —
        // ValueHist reads one field, the error PDFs read both.
        let xs = &self.fields.orig[base..base + slab];
        match self.kind {
            MoHistKind::ValueHist => {
                for &x in xs {
                    h.insert(x as f64);
                }
                ctx.charge_lane_reads(slab as u64);
            }
            MoHistKind::ErrPdf => {
                let ys = &self.fields.dec[base..base + slab];
                for (&x, &y) in xs.iter().zip(ys) {
                    h.insert(x as f64 - y as f64);
                }
                ctx.charge_lane_reads(2 * slab as u64);
            }
            MoHistKind::PwrPdf => {
                let ys = &self.fields.dec[base..base + slab];
                let mut n_rel: u64 = 0;
                for (&xf, &y) in xs.iter().zip(ys) {
                    let x = xf as f64;
                    if x != 0.0 {
                        h.insert(((x - y as f64) / x).abs());
                        n_rel += 1;
                    }
                }
                ctx.charge_lane_reads(2 * slab as u64);
                ctx.special(n_rel);
            }
        }
        ctx.flops(4 * slab as u64);
        ctx.charge_shared(slab as u64);
        ctx.sync_threads();
        ctx.g_write_raw(self.bins as u64 * 4);
        h
    }

    fn finalize(&self, ctx: &mut BlockCtx, partials: Vec<Histogram>) -> Histogram {
        ctx.g_read_raw(partials.len() as u64 * self.bins as u64 * 4);
        ctx.flops(partials.len() as u64 * self.bins as u64);
        let mut acc = self.make();
        for p in &partials {
            acc.merge(p);
        }
        acc
    }
}

impl HasReferencePath for MoHistKernel<'_> {
    // Per-element implementation with individually charged accesses.
    fn run_block_reference(&self, block: usize, ctx: &mut BlockCtx) -> Histogram {
        let s = self.fields.shape;
        let slab = s.slab_len();
        let base = block * slab;
        let mut h = self.make();
        let _shared: zc_gpusim::SharedBuf<u32> = ctx.shared_alloc(self.bins);
        ctx.note_iters(slab.div_ceil(256) as u64);
        for i in base..base + slab {
            let x = ctx.g_read(self.fields.orig, i) as f64;
            match self.kind {
                MoHistKind::ValueHist => h.insert(x),
                MoHistKind::ErrPdf => {
                    let y = ctx.g_read(self.fields.dec, i) as f64;
                    h.insert(x - y);
                }
                MoHistKind::PwrPdf => {
                    let y = ctx.g_read(self.fields.dec, i) as f64;
                    if x != 0.0 {
                        h.insert(((x - y) / x).abs());
                        ctx.special(1);
                    }
                }
            }
            ctx.flops(4);
            // Block-uniform histogram bump (shared atomics, race-free by
            // design — no warp attribution needed).
            ctx.charge_shared(1);
        }
        ctx.sync_threads();
        ctx.g_write_raw(self.bins as u64 * 4);
        h
    }
}

/// One derivative kernel of moZC — the paper's "moZC implements two CUDA
/// kernels for pattern 2" (order-1 and order-2; Divergence and Laplacian
/// are the summations of these, folded in the same launch). Each launch
/// re-stages the 3-slice neighbourhood of both fields that the fused cuZC
/// kernel stages once for everything.
pub struct MoDerivKernel<'a> {
    /// The field pair under assessment.
    pub fields: FieldPair<'a>,
    /// Derivative order (1 or 2). Functionally the order-1 launch carries
    /// all derivative statistics (the accumulator computes both orders from
    /// the same neighbourhood); the order-2 launch contributes cost only.
    pub order: usize,
    /// Lags carried by the merged stats vector.
    pub max_lag: usize,
}

impl MoDerivKernel<'_> {
    /// Grid size: z planes.
    pub fn grid(&self) -> usize {
        crate::traffic::plane_grid(self.fields.shape)
    }
}

impl BlockKernel for MoDerivKernel<'_> {
    type Partial = crate::acc::P2Stats;
    type Output = crate::acc::P2Stats;

    fn name(&self) -> &'static str {
        "mo_deriv"
    }

    fn resources(&self) -> KernelResources {
        // Same 16x16 tiling discipline as the fused stencil kernel.
        KernelResources {
            regs_per_thread: 9,
            smem_per_block: 8 * 1024,
            threads_per_block: 256,
        }
    }

    fn class(&self) -> KernelClass {
        KernelClass::Stencil
    }

    fn cooperative(&self) -> bool {
        false
    }

    fn run_block(&self, block: usize, ctx: &mut BlockCtx) -> crate::acc::P2Stats {
        use crate::acc::{deriv1_nd, deriv2_nd};
        let s = self.fields.shape;
        let ndim = s.ndim();
        let (nx, ny, nz) = (s.nx(), s.ny(), s.nz());
        let z = block % nz;
        let w4 = block / nz;
        let mut stats = crate::acc::P2Stats::identity(self.max_lag);
        if ndim >= 3 && (z == 0 || z + 1 >= nz) {
            return stats;
        }
        if nx < 3 || (ndim >= 2 && ny < 3) {
            return stats;
        }
        // Staging cost: both fields, 3 slices, 16x16 tiles with a 1-wide
        // halo (the same traffic the fused kernel pays once per stride).
        let slab = s.slab_len() as u64;
        let tiles = (nx.div_ceil(16) * ny.div_ceil(16)) as u64;
        let halo = (18 * 18) as f64 / (16 * 16) as f64;
        ctx.g_read_raw((2.0 * 3.0 * 4.0 * slab as f64 * halo) as u64);
        ctx.charge_shared(2 * 3 * slab + 14 * slab);
        ctx.flops(20 * slab);
        ctx.special(2 * slab);
        ctx.note_iters(tiles * 4);
        ctx.sync_threads();
        if self.order != 1 {
            // Order-2 launch: cost only (stats carried by the order-1 one).
            ctx.g_write_raw(64);
            return stats;
        }
        let (y_lo, y_hi) = if ndim >= 2 { (1, ny - 1) } else { (0, ny) };
        // Hoisted addressing: the stencil gets resolve by stride arithmetic
        // from the row base instead of a full linear() per neighbour.
        let sy = nx as isize;
        let sz = (nx * ny) as isize;
        for y in y_lo..y_hi {
            let row = s.linear([0, y, z, w4]) as isize;
            for x in 1..nx - 1 {
                let c = row + x as isize;
                let fo = |dx: isize, dy: isize, dz: isize| {
                    self.fields.orig[(c + dx + dy * sy + dz * sz) as usize] as f64
                };
                let fd = |dx: isize, dy: isize, dz: isize| {
                    self.fields.dec[(c + dx + dy * sy + dz * sz) as usize] as f64
                };
                stats.absorb_deriv(
                    deriv1_nd(fo, ndim),
                    deriv1_nd(fd, ndim),
                    deriv2_nd(fo, ndim),
                    deriv2_nd(fd, ndim),
                );
            }
        }
        ctx.g_write_raw((10 + 2 * self.max_lag as u64) * 8);
        stats
    }

    fn finalize(
        &self,
        ctx: &mut BlockCtx,
        partials: Vec<crate::acc::P2Stats>,
    ) -> crate::acc::P2Stats {
        let words = 10 + 2 * self.max_lag as u64;
        ctx.g_read_raw(partials.len() as u64 * words * 8);
        let mut acc = crate::acc::P2Stats::identity(self.max_lag);
        for p in &partials {
            acc.combine(p);
        }
        acc
    }
}

/// One autocorrelation-lag kernel of moZC, "following NVIDIA's approach":
/// a straightforward stencil that reads the point and its three `+lag`
/// neighbours of both fields directly from global memory (no shared-memory
/// blocking) — 32 B per valid point versus the fused kernel's ~17 B staged
/// cube traffic. This is the main reason cuZC's pattern-2 fusion wins ~2x.
pub struct MoAutocorrKernel<'a> {
    /// The field pair under assessment.
    pub fields: FieldPair<'a>,
    /// Spatial gap.
    pub lag: usize,
    /// Error mean from the pattern-1 pass.
    pub mean_e: f64,
    /// Lags carried by the merged stats vector.
    pub max_lag: usize,
}

impl MoAutocorrKernel<'_> {
    /// Grid size: z planes.
    pub fn grid(&self) -> usize {
        crate::traffic::plane_grid(self.fields.shape)
    }
}

impl BlockKernel for MoAutocorrKernel<'_> {
    type Partial = crate::acc::P2Stats;
    type Output = crate::acc::P2Stats;

    fn name(&self) -> &'static str {
        "mo_autocorr"
    }

    fn resources(&self) -> KernelResources {
        KernelResources {
            regs_per_thread: 16,
            smem_per_block: 256,
            threads_per_block: 256,
        }
    }

    fn class(&self) -> KernelClass {
        KernelClass::Stencil
    }

    fn cooperative(&self) -> bool {
        false
    }

    fn run_block(&self, block: usize, ctx: &mut BlockCtx) -> crate::acc::P2Stats {
        let s = self.fields.shape;
        let ndim = s.ndim();
        let (nx, ny, nz) = (s.nx(), s.ny(), s.nz());
        let z = block % nz;
        let w4 = block / nz;
        let lag = self.lag;
        let mut stats = crate::acc::P2Stats::identity(self.max_lag);
        if (ndim >= 3 && z + lag >= nz) || nx <= lag || (ndim >= 2 && ny <= lag) {
            return stats;
        }
        ctx.note_iters(s.slab_len().div_ceil(256) as u64);
        let y_max = if ndim >= 2 { ny - lag } else { ny };
        // Fast path: hoisted stride addressing and bulk charging — the
        // point count fixes the totals (44 read bytes + 12 flops each, as
        // the reference charges per point).
        let sy = nx;
        let sz = nx * ny;
        for y in 0..y_max {
            let row = s.linear([0, y, z, w4]);
            for x in 0..nx - lag {
                let e =
                    |i: usize| self.fields.orig[i] as f64 - self.fields.dec[i] as f64 - self.mean_e;
                let mut nb = [0.0f64; 3];
                let mut k = 0;
                nb[k] = e(row + x + lag);
                k += 1;
                if ndim >= 2 {
                    nb[k] = e(row + lag * sy + x);
                    k += 1;
                }
                if ndim >= 3 {
                    nb[k] = e(row + lag * sz + x);
                    k += 1;
                }
                stats.absorb_ac_nd(lag, e(row + x), &nb[..k]);
            }
        }
        let pts = (y_max * (nx - lag)) as u64;
        ctx.g_read_raw(44 * pts);
        ctx.flops(12 * pts);
        ctx.g_write_raw((2 * self.max_lag as u64) * 8);
        stats
    }

    fn finalize(
        &self,
        ctx: &mut BlockCtx,
        partials: Vec<crate::acc::P2Stats>,
    ) -> crate::acc::P2Stats {
        let words = 2 * self.max_lag as u64;
        ctx.g_read_raw(partials.len() as u64 * words * 8);
        let mut acc = crate::acc::P2Stats::identity(self.max_lag);
        for p in &partials {
            acc.combine(p);
        }
        acc
    }
}

impl HasReferencePath for MoAutocorrKernel<'_> {
    // Per-point implementation: full linear() addressing and per-point
    // traffic charges.
    fn run_block_reference(&self, block: usize, ctx: &mut BlockCtx) -> crate::acc::P2Stats {
        let s = self.fields.shape;
        let ndim = s.ndim();
        let (nx, ny, nz) = (s.nx(), s.ny(), s.nz());
        let z = block % nz;
        let w4 = block / nz;
        let lag = self.lag;
        let mut stats = crate::acc::P2Stats::identity(self.max_lag);
        if (ndim >= 3 && z + lag >= nz) || nx <= lag || (ndim >= 2 && ny <= lag) {
            return stats;
        }
        ctx.note_iters(s.slab_len().div_ceil(256) as u64);
        let y_max = if ndim >= 2 { ny - lag } else { ny };
        for y in 0..y_max {
            for x in 0..nx - lag {
                let e = |x: usize, y: usize, z: usize| {
                    let i = s.linear([x, y, z, w4]);
                    self.fields.orig[i] as f64 - self.fields.dec[i] as f64 - self.mean_e
                };
                // Four points x two fields, read straight from global;
                // the y/z/lag-strided neighbours mostly land in distinct
                // cache lines: ~5.5 effective line-touches per field pair.
                ctx.g_read_raw(44);
                ctx.flops(12);
                let mut nb = [0.0f64; 3];
                let mut k = 0;
                nb[k] = e(x + lag, y, z);
                k += 1;
                if ndim >= 2 {
                    nb[k] = e(x, y + lag, z);
                    k += 1;
                }
                if ndim >= 3 {
                    nb[k] = e(x, y, z + lag);
                    k += 1;
                }
                stats.absorb_ac_nd(lag, e(x, y, z), &nb[..k]);
            }
        }
        ctx.g_write_raw((2 * self.max_lag as u64) * 8);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::p1::P1FusedKernel;
    use zc_gpusim::GpuSim;
    use zc_tensor::{Shape, Tensor};

    fn fields(shape: Shape) -> (Tensor<f32>, Tensor<f32>) {
        let orig = Tensor::from_fn(shape, |[x, y, z, _]| {
            (x as f32 * 0.29).sin() + (y as f32 * 0.13).cos() + z as f32 * 0.01
        });
        let dec = orig.map(|v| v + 0.005 * (v * 71.0).sin());
        (orig, dec)
    }

    #[test]
    fn mo_kernel_values_match_fused_kernel() {
        let shape = Shape::d3(33, 17, 7);
        let (orig, dec) = fields(shape);
        let sim = GpuSim::v100();
        let fused = P1FusedKernel {
            fields: FieldPair::new(&orig, &dec),
        };
        let want = sim.launch(&fused, fused.grid()).output;
        let mo = MoP1Kernel {
            fields: FieldPair::new(&orig, &dec),
            metric: MoP1Metric::Mse,
        };
        let got = sim.launch(&mo, mo.grid()).output;
        assert_eq!(got.n, want.n);
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1e-30);
        assert!(close(got.mse(), want.mse()));
        assert_eq!(got.min_e, want.min_e);
    }

    #[test]
    fn ten_mo_kernels_cost_more_traffic_than_one_fused() {
        let shape = Shape::d3(64, 32, 8);
        let (orig, dec) = fields(shape);
        let sim = GpuSim::v100();
        let fused = P1FusedKernel {
            fields: FieldPair::new(&orig, &dec),
        };
        let fused_bytes = sim.launch(&fused, fused.grid()).counters.global_read_bytes;
        let mut mo_bytes = 0u64;
        for m in MoP1Metric::SCALARS {
            let k = MoP1Kernel {
                fields: FieldPair::new(&orig, &dec),
                metric: m,
            };
            mo_bytes += sim.launch(&k, k.grid()).counters.global_read_bytes;
        }
        // 8 scalar kernels each re-read the payload the fused kernel reads
        // once (the PDFs add two more in the full moZC pipeline).
        assert!(
            mo_bytes > 7 * fused_bytes,
            "mo {} vs fused {} bytes",
            mo_bytes,
            fused_bytes
        );
    }

    #[test]
    fn mo_kernels_pay_two_launches_each() {
        let shape = Shape::d3(16, 16, 4);
        let (orig, dec) = fields(shape);
        let sim = GpuSim::v100();
        let k = MoP1Kernel {
            fields: FieldPair::new(&orig, &dec),
            metric: MoP1Metric::MinErr,
        };
        let r = sim.launch(&k, k.grid());
        assert_eq!(r.counters.launches, 2);
        assert_eq!(r.counters.grid_syncs, 0);
    }

    #[test]
    fn mo_hist_matches_fused_hist() {
        let shape = Shape::d3(20, 20, 5);
        let (orig, dec) = fields(shape);
        let sim = GpuSim::v100();
        let fused = P1FusedKernel {
            fields: FieldPair::new(&orig, &dec),
        };
        let scalars = sim.launch(&fused, fused.grid()).output;
        let fk = crate::p1::P1HistKernel {
            fields: FieldPair::new(&orig, &dec),
            scalars,
            bins: 32,
        };
        let fused_h = sim.launch(&fk, fk.grid()).output;
        let mk = MoHistKernel {
            fields: FieldPair::new(&orig, &dec),
            scalars,
            kind: MoHistKind::ErrPdf,
            bins: 32,
        };
        let mo_h = sim.launch(&mk, mk.grid()).output;
        assert_eq!(mo_h.counts(), fused_h.err_pdf.counts());
    }

    #[test]
    fn mo_deriv_matches_fused_deriv() {
        let shape = Shape::d3(18, 15, 9);
        let (orig, dec) = fields(shape);
        let sim = GpuSim::v100();
        // The fused stride-1 launch's derivative stats.
        let fused = crate::p2::P2FusedKernel {
            fields: FieldPair::new(&orig, &dec),
            stride: 1,
            mean_e: 0.0,
            max_lag: 1,
        };
        let want = sim.launch(&fused, fused.grid()).output;
        let mo = MoDerivKernel {
            fields: FieldPair::new(&orig, &dec),
            order: 1,
            max_lag: 1,
        };
        let got = sim.launch(&mo, mo.grid()).output;
        assert_eq!(got.n_interior, want.n_interior);
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1e-12);
        assert!(close(got.sum_grad_x, want.sum_grad_x));
        assert!(close(got.sum_grad_err2, want.sum_grad_err2));
        // The order-2 launch contributes no statistics (cost only).
        let mo2 = MoDerivKernel {
            fields: FieldPair::new(&orig, &dec),
            order: 2,
            max_lag: 1,
        };
        let got2 = sim.launch(&mo2, mo2.grid()).output;
        assert_eq!(got2.n_interior, 0);
    }

    #[test]
    fn mo_autocorr_matches_fused_autocorr() {
        let shape = Shape::d3(17, 14, 10);
        let (orig, dec) = fields(shape);
        let sim = GpuSim::v100();
        let fused = crate::p2::P2FusedKernel {
            fields: FieldPair::new(&orig, &dec),
            stride: 2,
            mean_e: 0.001,
            max_lag: 2,
        };
        let want = sim.launch(&fused, fused.grid()).output;
        let mo = MoAutocorrKernel {
            fields: FieldPair::new(&orig, &dec),
            lag: 2,
            mean_e: 0.001,
            max_lag: 2,
        };
        let r = sim.launch(&mo, mo.grid());
        assert_eq!(r.output.ac_n, want.ac_n);
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1e-12);
        assert!(close(r.output.ac_num[1], want.ac_num[1]));
        // Direct global stencil: more payload traffic than the staged one.
        assert_eq!(r.counters.launches, 2);
    }
}
