//! Pattern 1 — the fused global-reduction kernel (paper Algorithm 1,
//! Fig. 6).
//!
//! Geometry: the field is divided into z-slabs; each slab is one thread
//! block of 32×8 threads (8 warps of 32 lanes). Every thread accumulates a
//! full fused [`P1Scalars`] over its strided subset, then the warps reduce
//! via `shfl_down` trees, cross-warp partials meet in shared memory, and a
//! cooperative grid phase folds the per-block partials — so **one read of
//! each element feeds all 14+ metrics**, which is the entire point of the
//! pattern-oriented design.

use crate::acc::{LaneAccum, P1Scalars};
use crate::hist::Histogram;
use crate::{FieldPair, HasReferencePath};
use zc_gpusim::{BlockCtx, BlockKernel, KernelClass, KernelResources, WARP};

/// Warps (rows of 32 threads) per pattern-1 block.
pub const P1_WARPS: usize = 8;

/// Per-element ALU lane-ops of the fused absorb (mirrors
/// [`P1Scalars::absorb`]: subtraction, five products, ten min/max/add
/// updates, guards).
pub(crate) const ABSORB_FLOPS: u64 = 25;

/// The fused pattern-1 scalar kernel (cuZC style).
pub struct P1FusedKernel<'a> {
    /// The field pair under assessment.
    pub fields: FieldPair<'a>,
}

impl P1FusedKernel<'_> {
    /// Grid size: one block per z-slab (times any 4th dimension).
    pub fn grid(&self) -> usize {
        crate::traffic::plane_grid(self.fields.shape)
    }
}

/// Shape-independent resource declaration of the fused pattern-1 scalar
/// kernel — the plan verifier's static footprint for a `P1Scalars` launch.
/// [`P1FusedKernel::resources`] delegates here so the static and instance
/// declarations cannot drift.
pub fn scalar_resources() -> KernelResources {
    // 56 regs/thread × 256 threads ≈ the paper's 14k Regs/TB; the
    // cross-warp staging area is 8 warps × 19 quantities × 8 B ≈ 0.4 KB
    // SMem/TB (Table II, pattern-1 rows).
    KernelResources {
        regs_per_thread: 56,
        smem_per_block: (P1_WARPS * P1Scalars::QUANTITIES as usize * 8) as u32,
        threads_per_block: (WARP * P1_WARPS) as u32,
    }
}

/// Shape-independent resource declaration of the pattern-1 histogram
/// kernel at a given bin count ([`P1HistKernel::resources`] delegates
/// here): three shared-memory histograms per block.
pub fn hist_resources(bins: usize) -> KernelResources {
    KernelResources {
        regs_per_thread: 28,
        smem_per_block: (3 * bins * 4) as u32,
        threads_per_block: (WARP * P1_WARPS) as u32,
    }
}

impl BlockKernel for P1FusedKernel<'_> {
    type Partial = P1Scalars;
    type Output = P1Scalars;

    fn name(&self) -> &'static str {
        "p1_fused"
    }

    fn resources(&self) -> KernelResources {
        scalar_resources()
    }

    fn class(&self) -> KernelClass {
        KernelClass::GlobalReduction
    }

    fn run_block(&self, block: usize, ctx: &mut BlockCtx) -> P1Scalars {
        let s = self.fields.shape;
        let (nx, ny) = (s.nx(), s.ny());
        let slab = s.slab_len();
        let base = block * slab;

        // Per-thread fused accumulation: thread (lane, warp) visits
        // x ≡ lane (mod 32), y ≡ warp (mod 8). The warp's 32 accumulators
        // live in struct-of-arrays form ([`LaneAccum`]) so the absorb loop
        // vectorizes; values and charge totals are identical to
        // [`HasReferencePath::run_block_reference`].
        let mut warp_partials = [P1Scalars::identity(); P1_WARPS];
        let thread_iters = nx.div_ceil(WARP) as u64 * ny.div_ceil(P1_WARPS) as u64;
        ctx.note_iters(thread_iters);
        // Cross-warp staging area allocated up front so each warp's lane-0
        // store can be attributed to its warp for race tracking.
        let q = P1Scalars::QUANTITIES as usize;
        let staging: zc_gpusim::SharedBuf<f64> = ctx.shared_alloc(P1_WARPS * q);
        for (w, wp) in warp_partials.iter_mut().enumerate() {
            ctx.warp_begin(w);
            let mut lanes = LaneAccum::identity();
            let mut y = w;
            while y < ny {
                let row = base + y * nx;
                let mut x0 = 0;
                while x0 < nx {
                    let xs = ctx.g_read_lanes(self.fields.orig, row + x0, 1, 0.0);
                    let ys = ctx.g_read_lanes(self.fields.dec, row + x0, 1, 0.0);
                    let valid = (nx - x0).min(WARP);
                    lanes.absorb_lanes(xs.as_array(), ys.as_array(), valid);
                    ctx.flops(ABSORB_FLOPS * WARP as u64);
                    ctx.special(WARP as u64); // the pwr-error division
                    x0 += WARP;
                }
                y += P1_WARPS;
            }
            // Warp-level reduction: a shfl_down tree per fused quantity
            // (Algorithm 1, lines 7-8). The SoA fold replays the same
            // butterfly; the five tree steps are charged in bulk.
            ctx.charge_shuffles(5 * P1Scalars::QUANTITIES);
            ctx.flops(5 * P1Scalars::QUANTITIES * WARP as u64);
            *wp = lanes.warp_reduce();
            // Lane 0 stages this warp's 19 quantities (Algorithm 1, line 9;
            // values travel in the functional partials, the marks charge the
            // traffic and feed race/init tracking).
            ctx.sh_mark_writes(&staging, w * q, q);
            ctx.warp_end();
        }

        // Cross-warp reduction (Algorithm 1, lines 10-15): after the
        // barrier, warp 0 reads every staged partial back.
        ctx.sync_threads();
        ctx.warp_begin(0);
        ctx.sh_mark_reads(&staging, 0, P1_WARPS * q);
        ctx.warp_end();
        let mut block_acc = P1Scalars::identity();
        for wp in &warp_partials {
            block_acc.combine(wp);
        }
        ctx.charge_shuffles(3 * P1Scalars::QUANTITIES); // log2(8) steps
                                                        // Block partial goes to global memory for the cooperative fold
                                                        // (Algorithm 1, line 16).
        ctx.g_write_raw(P1Scalars::QUANTITIES * 8);
        block_acc
    }

    fn finalize(&self, ctx: &mut BlockCtx, partials: Vec<P1Scalars>) -> P1Scalars {
        // Cooperative grid phase: block 0 re-reads every block's partial
        // (Algorithm 1, lines 18-23).
        ctx.g_read_raw(partials.len() as u64 * P1Scalars::QUANTITIES * 8);
        ctx.flops(partials.len() as u64 * P1Scalars::QUANTITIES);
        let mut acc = P1Scalars::identity();
        for p in &partials {
            acc.combine(p);
        }
        acc
    }
}

impl HasReferencePath for P1FusedKernel<'_> {
    // The pre-SoA per-lane implementation: an array of 32 scalar
    // accumulators per warp, absorbed one lane at a time, with every
    // shuffle / shared access charged individually.
    fn run_block_reference(&self, block: usize, ctx: &mut BlockCtx) -> P1Scalars {
        let s = self.fields.shape;
        let (nx, ny) = (s.nx(), s.ny());
        let slab = s.slab_len();
        let base = block * slab;

        let mut warp_partials = [P1Scalars::identity(); P1_WARPS];
        let thread_iters = nx.div_ceil(WARP) as u64 * ny.div_ceil(P1_WARPS) as u64;
        ctx.note_iters(thread_iters);
        for (w, wp) in warp_partials.iter_mut().enumerate() {
            ctx.warp_begin(w);
            let mut lanes = [P1Scalars::identity(); WARP];
            let mut y = w;
            while y < ny {
                let row = base + y * nx;
                let mut x0 = 0;
                while x0 < nx {
                    let xs = ctx.g_read_lanes(self.fields.orig, row + x0, 1, 0.0);
                    let ys = ctx.g_read_lanes(self.fields.dec, row + x0, 1, 0.0);
                    let valid = (nx - x0).min(WARP);
                    for (l, acc) in lanes.iter_mut().enumerate().take(valid) {
                        acc.absorb(xs.lane(l) as f64, ys.lane(l) as f64);
                    }
                    ctx.flops(ABSORB_FLOPS * WARP as u64);
                    ctx.special(WARP as u64); // the pwr-error division
                    x0 += WARP;
                }
                y += P1_WARPS;
            }
            // Warp-level reduction: a shfl_down tree per fused quantity
            // (Algorithm 1, lines 7-8).
            let mut offset = WARP / 2;
            while offset > 0 {
                for l in 0..offset {
                    let other = lanes[l + offset];
                    lanes[l].combine(&other);
                }
                ctx.charge_shuffles(P1Scalars::QUANTITIES);
                ctx.flops(P1Scalars::QUANTITIES * WARP as u64);
                offset /= 2;
            }
            *wp = lanes[0];
            ctx.warp_end();
        }

        // Cross-warp reduction through shared memory (Algorithm 1,
        // lines 9-15): each warp's lane 0 stages its partial, then warp 0
        // folds them after a barrier.
        let mut staging: zc_gpusim::SharedBuf<f64> =
            ctx.shared_alloc(P1_WARPS * P1Scalars::QUANTITIES as usize);
        for w in 0..P1_WARPS {
            ctx.warp_begin(w);
            for q in 0..P1Scalars::QUANTITIES as usize {
                // Stage quantity q of warp w (value itself travels in the
                // functional partials; we charge the traffic).
                ctx.sh_write(&mut staging, w * P1Scalars::QUANTITIES as usize + q, 0.0);
            }
            ctx.warp_end();
        }
        ctx.sync_threads();
        let mut block_acc = P1Scalars::identity();
        for wp in &warp_partials {
            block_acc.combine(wp);
        }
        ctx.warp_begin(0);
        for i in 0..P1_WARPS * P1Scalars::QUANTITIES as usize {
            let _ = ctx.sh_read(&staging, i); // warp-0 reads the staging
        }
        ctx.warp_end();
        ctx.charge_shuffles(3 * P1Scalars::QUANTITIES); // log2(8) steps
                                                        // Block partial goes to global memory for the cooperative fold
                                                        // (Algorithm 1, line 16).
        ctx.g_write_raw(P1Scalars::QUANTITIES * 8);
        block_acc
    }
}

/// Output of the fused histogram kernel.
#[derive(Clone, Debug)]
pub struct P1Histograms {
    /// PDF of signed compression errors over `[min_e, max_e]`.
    pub err_pdf: Histogram,
    /// PDF of pointwise-relative errors over `[0, max_rel]`.
    pub rel_pdf: Histogram,
    /// Distribution of original data values (drives the entropy property).
    pub value_hist: Histogram,
}

/// The fused pattern-1 histogram kernel: error PDF + pwr-error PDF + value
/// distribution in one pass (the bounds come from [`P1FusedKernel`]'s
/// output — Z-checker's PDF metrics are likewise two-phase).
pub struct P1HistKernel<'a> {
    /// The field pair under assessment.
    pub fields: FieldPair<'a>,
    /// Scalar results of the first pass (bounds).
    pub scalars: P1Scalars,
    /// Bins per histogram.
    pub bins: usize,
}

impl P1HistKernel<'_> {
    /// Grid size: one block per z-slab.
    pub fn grid(&self) -> usize {
        crate::traffic::plane_grid(self.fields.shape)
    }

    fn make_histograms(&self) -> P1Histograms {
        P1Histograms {
            err_pdf: Histogram::new(self.scalars.min_e, self.scalars.max_e, self.bins),
            rel_pdf: Histogram::new(
                0.0,
                if self.scalars.n_rel > 0 {
                    self.scalars.max_rel
                } else {
                    0.0
                },
                self.bins,
            ),
            value_hist: Histogram::new(self.scalars.min_x, self.scalars.max_x, self.bins),
        }
    }
}

impl BlockKernel for P1HistKernel<'_> {
    type Partial = P1Histograms;
    type Output = P1Histograms;

    fn name(&self) -> &'static str {
        "p1_hist"
    }

    fn resources(&self) -> KernelResources {
        hist_resources(self.bins)
    }

    fn class(&self) -> KernelClass {
        KernelClass::GlobalReduction
    }

    fn run_block(&self, block: usize, ctx: &mut BlockCtx) -> P1Histograms {
        let s = self.fields.shape;
        let slab = s.slab_len();
        let base = block * slab;
        let mut h = self.make_histograms();
        let _shared: zc_gpusim::SharedBuf<u32> = ctx.shared_alloc(3 * self.bins);
        ctx.note_iters(slab.div_ceil(WARP * P1_WARPS) as u64);
        // Fast path: walk the slab as two contiguous slices, charging
        // traffic in bulk — the reference charges the same totals one
        // access at a time.
        let xs = &self.fields.orig[base..base + slab];
        let ys = &self.fields.dec[base..base + slab];
        let mut n_rel: u64 = 0;
        // Chunked staging: the value/error conversions vectorize, the
        // pointwise-relative values are compressed past the zero guard,
        // and each histogram ingests its chunk in element order — the same
        // per-histogram insertion sequence as one element at a time.
        let (mut vals, mut errs, mut rels) = ([0f64; 64], [0f64; 64], [0f64; 64]);
        for (cxs, cys) in xs.chunks(64).zip(ys.chunks(64)) {
            let n = cxs.len();
            for i in 0..n {
                let x = cxs[i] as f64;
                vals[i] = x;
                errs[i] = x - cys[i] as f64;
            }
            let mut m = 0usize;
            for i in 0..n {
                if vals[i] != 0.0 {
                    rels[m] = (errs[i] / vals[i]).abs();
                    m += 1;
                }
            }
            h.err_pdf.insert_many(&errs[..n]);
            h.value_hist.insert_many(&vals[..n]);
            h.rel_pdf.insert_many(&rels[..m]);
            n_rel += m as u64;
        }
        ctx.charge_lane_reads(2 * slab as u64);
        ctx.flops(10 * slab as u64); // binning arithmetic for three inserts
        ctx.charge_shared(3 * slab as u64); // shared-memory atomics
        ctx.special(n_rel);
        ctx.sync_threads();
        // Per-block histograms flush to global for the grid fold.
        ctx.g_write_raw(3 * self.bins as u64 * 4);
        h
    }

    fn finalize(&self, ctx: &mut BlockCtx, partials: Vec<P1Histograms>) -> P1Histograms {
        ctx.g_read_raw(partials.len() as u64 * 3 * self.bins as u64 * 4);
        ctx.flops(partials.len() as u64 * 3 * self.bins as u64);
        let mut acc = self.make_histograms();
        for p in &partials {
            acc.err_pdf.merge(&p.err_pdf);
            acc.rel_pdf.merge(&p.rel_pdf);
            acc.value_hist.merge(&p.value_hist);
        }
        acc
    }
}

impl HasReferencePath for P1HistKernel<'_> {
    // Per-element implementation: one charged `g_read` per access, flops and
    // shared atomics charged per element.
    fn run_block_reference(&self, block: usize, ctx: &mut BlockCtx) -> P1Histograms {
        let s = self.fields.shape;
        let slab = s.slab_len();
        let base = block * slab;
        let mut h = self.make_histograms();
        let _shared: zc_gpusim::SharedBuf<u32> = ctx.shared_alloc(3 * self.bins);
        ctx.note_iters(slab.div_ceil(WARP * P1_WARPS) as u64);
        for i in base..base + slab {
            let x = ctx.g_read(self.fields.orig, i) as f64;
            let y = ctx.g_read(self.fields.dec, i) as f64;
            let e = x - y;
            h.err_pdf.insert(e);
            h.value_hist.insert(x);
            ctx.flops(10); // binning arithmetic for three inserts
                           // Shared-memory atomics: block-uniform (every warp hits the
                           // histogram concurrently but atomically, so no warp scope).
            ctx.charge_shared(3);
            if x != 0.0 {
                h.rel_pdf.insert((e / x).abs());
                ctx.special(1);
            }
        }
        ctx.sync_threads();
        // Per-block histograms flush to global for the grid fold.
        ctx.g_write_raw(3 * self.bins as u64 * 4);
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zc_gpusim::GpuSim;
    use zc_tensor::{Shape, Tensor};

    fn fields(shape: Shape) -> (Tensor<f32>, Tensor<f32>) {
        let orig = Tensor::from_fn(shape, |[x, y, z, _]| {
            ((x as f32) * 0.3).sin() + (y as f32) * 0.01 - (z as f32) * 0.02
        });
        let dec = orig.map(|v| v + 0.001 * (v * 37.0).sin());
        (orig, dec)
    }

    fn reference(orig: &Tensor<f32>, dec: &Tensor<f32>) -> P1Scalars {
        let mut acc = P1Scalars::identity();
        for (&x, &y) in orig.iter().zip(dec.iter()) {
            acc.absorb(x as f64, y as f64);
        }
        acc
    }

    #[test]
    fn fused_kernel_matches_scalar_reference() {
        let shape = Shape::d3(70, 33, 9);
        let (orig, dec) = fields(shape);
        let sim = GpuSim::v100();
        let k = P1FusedKernel {
            fields: FieldPair::new(&orig, &dec),
        };
        let r = sim.launch(&k, k.grid());
        let want = reference(&orig, &dec);
        assert_eq!(r.output.n, want.n);
        assert_eq!(r.output.min_x, want.min_x);
        assert_eq!(r.output.max_abs_e, want.max_abs_e);
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1e-30);
        assert!(close(r.output.sum_e2, want.sum_e2));
        assert!(close(r.output.sum_rel, want.sum_rel));
        assert!(close(r.output.psnr_db(), want.psnr_db()));
    }

    #[test]
    fn fused_kernel_reads_each_element_once() {
        let shape = Shape::d3(64, 32, 4);
        let (orig, dec) = fields(shape);
        let sim = GpuSim::v100();
        let k = P1FusedKernel {
            fields: FieldPair::new(&orig, &dec),
        };
        let r = sim.launch(&k, k.grid());
        // Two arrays, each element exactly once — the fusion claim.
        let payload = 2 * shape.len() as u64 * 4;
        assert!(r.counters.global_read_bytes >= payload);
        assert!(
            r.counters.global_read_bytes < payload + payload / 8,
            "read {} vs payload {payload}",
            r.counters.global_read_bytes
        );
        assert_eq!(r.counters.launches, 1);
        assert_eq!(r.counters.grid_syncs, 1);
    }

    #[test]
    fn iters_per_thread_matches_table_ii_formula() {
        // Miranda slab 384×384 with a 32×8 block → 12 × 48 = 576 (Table II).
        let shape = Shape::d3(384, 384, 2);
        let orig = Tensor::<f32>::zeros(shape);
        let dec = Tensor::<f32>::zeros(shape);
        let sim = GpuSim::v100();
        let k = P1FusedKernel {
            fields: FieldPair::new(&orig, &dec),
        };
        let r = sim.launch(&k, k.grid());
        assert_eq!(r.counters.iters_per_thread, 576);
    }

    #[test]
    fn occupancy_is_register_limited_at_four_blocks() {
        // Paper §IV-C: 64k / 14k → 4 concurrent pattern-1 TBs per SM.
        let shape = Shape::d3(16, 16, 4);
        let orig = Tensor::<f32>::zeros(shape);
        let dec = Tensor::<f32>::zeros(shape);
        let sim = GpuSim::v100();
        let k = P1FusedKernel {
            fields: FieldPair::new(&orig, &dec),
        };
        let r = sim.launch(&k, k.grid());
        assert_eq!(r.occupancy.blocks_per_sm, 4);
    }

    #[test]
    fn hist_kernel_bins_every_element() {
        let shape = Shape::d3(30, 20, 6);
        let (orig, dec) = fields(shape);
        let sim = GpuSim::v100();
        let scalars = reference(&orig, &dec);
        let k = P1HistKernel {
            fields: FieldPair::new(&orig, &dec),
            scalars,
            bins: 64,
        };
        let r = sim.launch(&k, k.grid());
        assert_eq!(r.output.err_pdf.total(), shape.len() as u64);
        assert_eq!(r.output.value_hist.total(), shape.len() as u64);
        let pdf_sum: f64 = r.output.err_pdf.pdf().iter().sum();
        assert!((pdf_sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn identical_fields_have_degenerate_error_pdf() {
        let shape = Shape::d3(16, 16, 2);
        let orig = Tensor::from_fn(shape, |[x, ..]| x as f32);
        let scalars = reference(&orig, &orig);
        let sim = GpuSim::v100();
        let k = P1HistKernel {
            fields: FieldPair::new(&orig, &orig),
            scalars,
            bins: 32,
        };
        let r = sim.launch(&k, k.grid());
        // All mass in bin 0 (degenerate zero-width error range).
        assert_eq!(r.output.err_pdf.counts()[0], shape.len() as u64);
    }
}
