//! Pattern 3 — the sliding-window SSIM kernel (paper Algorithm 3, Fig. 8).
//!
//! Geometry follows the paper: each thread block owns a group of `Y_NUM`
//! window rows along y and scans *all* window positions along x and z.
//! Within a warp, lane `l` is the window with x-origin `i + l`; the ghost
//! regions between x-adjacent windows are shared through `shfl_down`
//! chains. Along z, per-slice window moments are parked in a shared-memory
//! **FIFO buffer** of `wsize` slots; a window completes every `step` slices
//! by folding the buffered slots — so every slice of both fields is read
//! from global memory exactly once (the paper's headline pattern-3 claim).
//!
//! The metric-oriented ablation (`fifo_in_shared = false`, used by moZC)
//! runs the identical algorithm but spills the per-slice moments to global
//! memory instead of the shared FIFO, which is what the paper's "similar
//! ... but without the FIFO buffer" baseline costs.

use crate::acc::WindowMoments;
use crate::{FieldPair, HasReferencePath};
use zc_gpusim::{BlockCtx, BlockKernel, KernelClass, KernelResources, SharedBuf, WARP};

/// Window rows per thread block along y.
pub const Y_NUM: usize = 4;

/// Lane flops to score one completed window from its folded moments.
pub(crate) const SCORE_FLOPS: u64 = 30;

/// SSIM configuration (paper evaluation defaults: window 8, step 1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SsimParams {
    /// Window side length along every scanned axis.
    pub wsize: usize,
    /// Sliding step length.
    pub step: usize,
    /// Wang et al. `k1` constant.
    pub k1: f64,
    /// Wang et al. `k2` constant.
    pub k2: f64,
    /// Dynamic range `L` of the original data (from the pattern-1 pass).
    pub range: f64,
}

impl SsimParams {
    /// The paper's settings with a given data range.
    pub fn paper_defaults(range: f64) -> Self {
        SsimParams {
            wsize: 8,
            step: 1,
            k1: 0.01,
            k2: 0.03,
            range,
        }
    }

    /// Concurrent x-windows per warp (`xNum = warpSize − wsize + step`).
    pub fn x_num(&self) -> usize {
        (WARP + self.step).saturating_sub(self.wsize).clamp(1, WARP)
    }

    /// Scan positions along an axis of extent `n`.
    pub fn positions(&self, n: usize) -> usize {
        self.positions_with(n, self.wsize)
    }

    /// Scan positions for an axis-specific window side.
    pub fn positions_with(&self, n: usize, w: usize) -> usize {
        if n < w {
            0
        } else {
            (n - w) / self.step + 1
        }
    }

    /// Per-axis window sides for a given dimensionality: the window only
    /// extends along declared axes (Z-checker's 1D/2D SSIM behaviour).
    pub fn sides(&self, ndim: usize) -> [usize; 3] {
        [
            self.wsize,
            if ndim >= 2 { self.wsize } else { 1 },
            if ndim >= 3 { self.wsize } else { 1 },
        ]
    }
}

/// Mean-SSIM result: Σ local SSIM and window count.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SsimAcc {
    /// Sum of local window SSIMs.
    pub sum: f64,
    /// Number of windows folded.
    pub windows: u64,
}

impl SsimAcc {
    /// Mean SSIM (1.0 when no window fits — identical to Z-checker's
    /// degenerate-input behaviour).
    pub fn mean(&self) -> f64 {
        if self.windows == 0 {
            1.0
        } else {
            self.sum / self.windows as f64
        }
    }
}

/// The pattern-3 SSIM kernel.
pub struct SsimFusedKernel<'a> {
    /// The field pair under assessment.
    pub fields: FieldPair<'a>,
    /// Window configuration.
    pub params: SsimParams,
    /// `true` = cuZC (FIFO in shared memory); `false` = moZC ablation
    /// (per-slice moments spill to global memory).
    pub fifo_in_shared: bool,
}

impl SsimFusedKernel<'_> {
    /// Grid size: one block per `Y_NUM` window rows (× the 4th dimension).
    pub fn grid(&self) -> usize {
        crate::traffic::ssim_grid(self.fields.shape, self.params.wsize, self.params.step)
    }

    fn fifo_entries(&self) -> usize {
        self.params.x_num() * Y_NUM * self.params.wsize * WindowMoments::QUANTITIES as usize
    }
}

/// Shape-independent resource declaration of the SSIM kernel for a window
/// configuration — the plan verifier's static footprint for a `P3Ssim`
/// launch. [`SsimFusedKernel::resources`] delegates here so the static and
/// instance declarations cannot drift.
pub fn ssim_resources(wsize: usize, step: usize, fifo_in_shared: bool) -> KernelResources {
    // 86 regs × 128 threads ≈ the paper's 11k Regs/TB; the shared FIFO
    // (f32 moments) is ≈16 KB for the paper's window-8/step-1 setting.
    let x_num = (WARP + step).saturating_sub(wsize).clamp(1, WARP);
    let entries = x_num * Y_NUM * wsize * WindowMoments::QUANTITIES as usize;
    KernelResources {
        regs_per_thread: 86,
        smem_per_block: if fifo_in_shared {
            (entries * 4) as u32
        } else {
            256
        },
        threads_per_block: (WARP * Y_NUM) as u32,
    }
}

impl BlockKernel for SsimFusedKernel<'_> {
    type Partial = SsimAcc;
    type Output = SsimAcc;

    fn name(&self) -> &'static str {
        "p3_ssim"
    }

    fn resources(&self) -> KernelResources {
        ssim_resources(self.params.wsize, self.params.step, self.fifo_in_shared)
    }

    fn class(&self) -> KernelClass {
        KernelClass::SlidingWindow
    }

    fn cooperative(&self) -> bool {
        // The moZC ablation also lacks cooperative groups (second launch
        // for the grid fold).
        self.fifo_in_shared
    }

    fn run_block(&self, block: usize, ctx: &mut BlockCtx) -> SsimAcc {
        self.run_block_impl(block, ctx, true)
    }

    fn finalize(&self, ctx: &mut BlockCtx, partials: Vec<SsimAcc>) -> SsimAcc {
        ctx.g_read_raw(partials.len() as u64 * 16);
        ctx.flops(partials.len() as u64 * 2);
        let mut acc = SsimAcc::default();
        for p in &partials {
            acc.sum += p.sum;
            acc.windows += p.windows;
        }
        acc
    }
}

impl HasReferencePath for SsimFusedKernel<'_> {
    fn run_block_reference(&self, block: usize, ctx: &mut BlockCtx) -> SsimAcc {
        self.run_block_impl(block, ctx, false)
    }
}

/// `dst[w] = Σ_r rows[r][w]`, adding rows in ascending order.
///
/// Each window's accumulator receives its terms in exactly the given row
/// order, so the result is bit-identical to a per-window scalar loop — but
/// windows are processed eight at a time in register accumulators over
/// unit-stride sources, which vectorizes.
#[inline]
fn sum_rows_into<'a>(dst: &mut [f64], nrows: usize, row: impl Fn(usize) -> &'a [f64]) {
    const CH: usize = 8;
    let n = dst.len();
    let mut w0 = 0;
    while w0 + CH <= n {
        let mut acc = [0f64; CH];
        for r in 0..nrows {
            let src = &row(r)[w0..w0 + CH];
            for (a, s) in acc.iter_mut().zip(src) {
                *a += s;
            }
        }
        dst[w0..w0 + CH].copy_from_slice(&acc);
        w0 += CH;
    }
    for (w, d) in dst.iter_mut().enumerate().skip(w0) {
        let mut a = 0.0;
        for r in 0..nrows {
            a += row(r)[w];
        }
        *d = a;
    }
}

impl SsimFusedKernel<'_> {
    // The fast and reference paths share all geometry, charging and FIFO
    // logic; they differ only in how the per-row sliding window sums are
    // computed. `fast` stages each lane's products once into unit-stride
    // arrays (vectorizable, each product computed once); the reference
    // recomputes products per window. Both add the same values in the same
    // per-statistic order, so results are bit-identical.
    fn run_block_impl(&self, block: usize, ctx: &mut BlockCtx, fast: bool) -> SsimAcc {
        let s = self.fields.shape;
        let (nx, ny, nz) = (s.nx(), s.ny(), s.nz());
        let p = self.params;
        let (wsize, step) = (p.wsize, p.step);
        let [_, wy_size, wz_size] = p.sides(s.ndim());
        let x_num = p.x_num();
        let q = WindowMoments::QUANTITIES;

        let y_pos = p.positions_with(ny, wy_size);
        let gy = y_pos.div_ceil(Y_NUM).max(1);
        let wy_base = (block % gy) * Y_NUM;
        let w4 = block / gy;
        if wy_base >= y_pos || nx < wsize || nz < wz_size || !(2..=WARP).contains(&wsize) {
            return SsimAcc::default();
        }
        let y_wins: Vec<usize> = (0..Y_NUM)
            .map(|t| wy_base + t)
            .filter(|&wy| wy < y_pos)
            .collect();
        // Rows of y this block touches per slice.
        let row_lo = y_wins[0] * step;
        let row_hi = y_wins.last().unwrap() * step + wy_size; // exclusive
        let n_rows = row_hi - row_lo;

        // The FIFO, stored SoA: one plane per moment quantity, each plane
        // laid out [slot][ywin][lane] — folds then run unit-stride across
        // windows. Values are carried in f64 for numeric parity with the
        // reference; the footprint and traffic are charged at the f32 width
        // the real kernel stores.
        let fplane = self.fifo_entries() / WindowMoments::QUANTITIES as usize;
        let mut fifo = vec![0f64; self.fifo_entries()];
        let fifo_idx = |slot: usize, t: usize, lane: usize| (slot * Y_NUM + t) * x_num + lane;
        let shared: SharedBuf<f32> = if self.fifo_in_shared {
            ctx.shared_alloc(self.fifo_entries())
        } else {
            ctx.shared_alloc(64) // staging only
        };

        let mut acc = SsimAcc::default();
        // Per-quantity fold scratch; fully overwritten before each use.
        let mut folded = [[0f64; WARP]; 5];
        // Windows per x-sweep iteration: origins i, i+step, ... within the
        // 32-lane data span (equals x_num when step = 1).
        let wins_per_iter = (WARP - wsize) / step + 1;
        let adv = wins_per_iter * step;
        // Per-row sliding x-sums of this slice, SoA: one plane per quantity,
        // each plane [row][window] — the y reduction runs unit-stride
        // across windows.
        let rplane = n_rows * x_num;
        let mut row_sums = vec![0f64; 5 * rplane];

        let mut i = 0usize;
        while i + wsize <= nx {
            // Valid windows this sweep: origin i + w·step, fully in range.
            let wins_valid = wins_per_iter.min((nx - wsize - i) / step + 1);
            for k in 0..nz {
                ctx.note_iters(1);
                // ---- read one slice row-group and reduce along x --------
                for (r, row) in (row_lo..row_hi).enumerate() {
                    // Lane reads: x = i + lane for the warp's 32 lanes.
                    let valid = WARP.min(nx - i);
                    let base = s.linear([i, row, k, w4]);
                    ctx.g_read_raw(2 * 4 * valid as u64);
                    // Per-lane products, then sliding sums via shfl_down
                    // chains (wsize−1 shuffles per quantity).
                    ctx.flops(3 * WARP as u64);
                    ctx.charge_shuffles((wsize as u64 - 1) * q);
                    ctx.flops((wsize as u64 - 1) * q * WARP as u64);
                    // Every touched index is < valid: the furthest access is
                    // (wins_valid-1)·step + wsize - 1 ≤ nx - i - 1.
                    if fast {
                        let xs = &self.fields.orig[base..base + valid];
                        let ys = &self.fields.dec[base..base + valid];
                        let mut xa = [0f64; WARP];
                        let mut x2a = [0f64; WARP];
                        let mut ya = [0f64; WARP];
                        let mut y2a = [0f64; WARP];
                        let mut xya = [0f64; WARP];
                        for l in 0..valid {
                            let x = xs[l] as f64;
                            let y = ys[l] as f64;
                            xa[l] = x;
                            x2a[l] = x * x;
                            ya[l] = y;
                            y2a[l] = y * y;
                            xya[l] = x * y;
                        }
                        // Window-innermost accumulation: each window still
                        // adds its terms in ascending-dx order (bit-identical
                        // to the reference), but the inner loop runs across
                        // independent windows at stride `step` — unit stride
                        // for the paper's step = 1, so it vectorizes.
                        for (qi, arr) in [&xa, &x2a, &ya, &y2a, &xya].into_iter().enumerate() {
                            let rb = qi * rplane + r * x_num;
                            if step == 1 {
                                // Window w sums arr[w + dx] for ascending dx;
                                // (wins_valid−1)·step + wsize ≤ WARP keeps
                                // every row slice in bounds.
                                sum_rows_into(&mut row_sums[rb..rb + wins_valid], wsize, |dx| {
                                    &arr[dx..dx + wins_valid]
                                });
                            } else {
                                for w in 0..wins_valid {
                                    let lane = w * step;
                                    let mut sum = 0.0;
                                    for dx in 0..wsize {
                                        sum += arr[lane + dx];
                                    }
                                    row_sums[rb + w] = sum;
                                }
                            }
                        }
                    } else {
                        for w in 0..wins_valid {
                            let lane = w * step;
                            let mut sums = [0f64; 5];
                            for dx in 0..wsize {
                                let x = self.fields.orig[base + lane + dx] as f64;
                                let y = self.fields.dec[base + lane + dx] as f64;
                                sums[0] += x;
                                sums[1] += x * x;
                                sums[2] += y;
                                sums[3] += y * y;
                                sums[4] += x * y;
                            }
                            for (qi, &v) in sums.iter().enumerate() {
                                row_sums[qi * rplane + r * x_num + w] = v;
                            }
                        }
                    }
                }
                // ---- y reduction per window row-group -------------------
                // (cross-warp, through shared memory in the real kernel;
                // block-uniform staging traffic charged in bulk).
                ctx.charge_shared((n_rows * wins_valid) as u64 * q);
                ctx.sync_threads();
                let slot = k % wz_size;
                for (t, &wy) in y_wins.iter().enumerate() {
                    let r0 = wy * step - row_lo;
                    // Each (quantity, window) accumulator folds its rows in
                    // ascending-dy order, windows unit-stride innermost.
                    for qi in 0..5 {
                        let fb = qi * fplane + fifo_idx(slot, t, 0);
                        sum_rows_into(&mut fifo[fb..fb + wins_valid], wy_size, |dy| {
                            let rb = qi * rplane + (r0 + dy) * x_num;
                            &row_sums[rb..rb + wins_valid]
                        });
                    }
                }
                ctx.flops((y_wins.len() * wins_valid) as u64 * q * wy_size as u64);
                // ---- FIFO store ----------------------------------------
                // Warp t parks its y-window's five moment runs in its own
                // FIFO rows; the marks charge the same total the bulk
                // accounting did while feeding race/init tracking at the
                // exact stored positions.
                let store = (y_wins.len() * wins_valid) as u64 * q;
                if self.fifo_in_shared {
                    for t in 0..y_wins.len() {
                        ctx.warp_begin(t);
                        for qi in 0..WindowMoments::QUANTITIES as usize {
                            let fb = qi * fplane + fifo_idx(slot, t, 0);
                            ctx.sh_mark_writes(&shared, fb, wins_valid);
                        }
                        ctx.warp_end();
                    }
                } else {
                    // Per-window scattered spill to global memory.
                    ctx.g_scatter(store * 4);
                }
                // ---- window completion ---------------------------------
                if k + 1 >= wz_size && (k + 1 - wz_size) % step == 0 {
                    let fold = (y_wins.len() * wins_valid) as u64 * q * wz_size as u64;
                    if self.fifo_in_shared {
                        for t in 0..y_wins.len() {
                            ctx.warp_begin(t);
                            for qi in 0..WindowMoments::QUANTITIES as usize {
                                for sl in 0..wz_size {
                                    let fb = qi * fplane + fifo_idx(sl, t, 0);
                                    ctx.sh_mark_reads(&shared, fb, wins_valid);
                                }
                            }
                            ctx.warp_end();
                        }
                    } else {
                        ctx.g_scatter(fold * 4);
                    }
                    ctx.flops(fold + (y_wins.len() * wins_valid) as u64 * SCORE_FLOPS);
                    ctx.special(2 * (y_wins.len() * wins_valid) as u64);
                    for t in 0..y_wins.len() {
                        // Fold the FIFO slots per (quantity, window) in
                        // ascending-slot order, windows innermost
                        // (unit-stride), then score each window.
                        for (qi, f) in folded.iter_mut().enumerate() {
                            sum_rows_into(&mut f[..wins_valid], wz_size, |slot| {
                                let fb = qi * fplane + fifo_idx(slot, t, 0);
                                &fifo[fb..fb + wins_valid]
                            });
                        }
                        // Indexed on purpose: `w` reads across all five
                        // `folded` quantity slices at once.
                        #[allow(clippy::needless_range_loop)]
                        for w in 0..wins_valid {
                            let m = WindowMoments {
                                sum_x: folded[0][w],
                                sum_x2: folded[1][w],
                                sum_y: folded[2][w],
                                sum_y2: folded[3][w],
                                sum_xy: folded[4][w],
                                n: (wsize * wy_size * wz_size) as u64,
                            };
                            acc.sum += m.ssim(p.range, p.k1, p.k2);
                            acc.windows += 1;
                        }
                    }
                }
            }
            i += adv;
        }
        // Block partial (sum + count) to global for the grid fold.
        ctx.g_write_raw(16);
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zc_gpusim::GpuSim;
    use zc_tensor::{Shape, Tensor, WindowSpec, Windows};

    fn fields(shape: Shape) -> (Tensor<f32>, Tensor<f32>) {
        let orig = Tensor::from_fn(shape, |[x, y, z, _]| {
            (x as f32 * 0.23).sin() * (y as f32 * 0.19).cos() + (z as f32 * 0.07).sin()
        });
        let dec = orig.map(|v| v + 0.02 * (v * 53.0).cos());
        (orig, dec)
    }

    /// Scalar reference: iterate every window, absorb every element.
    fn reference(orig: &Tensor<f32>, dec: &Tensor<f32>, p: SsimParams) -> SsimAcc {
        let mut acc = SsimAcc::default();
        for [ox, oy, oz] in Windows::over(orig.shape(), WindowSpec::new(p.wsize, p.step)) {
            let mut m = WindowMoments::default();
            for dz in 0..p.wsize {
                for dy in 0..p.wsize {
                    for dx in 0..p.wsize {
                        m.absorb(
                            orig.at3(ox + dx, oy + dy, oz + dz) as f64,
                            dec.at3(ox + dx, oy + dy, oz + dz) as f64,
                        );
                    }
                }
            }
            acc.sum += m.ssim(p.range, p.k1, p.k2);
            acc.windows += 1;
        }
        acc
    }

    fn range_of(t: &Tensor<f32>) -> f64 {
        let (mn, mx) = t.min_max().unwrap();
        (mx - mn) as f64
    }

    #[test]
    fn fused_kernel_matches_scalar_reference() {
        let shape = Shape::d3(40, 21, 13);
        let (orig, dec) = fields(shape);
        let p = SsimParams::paper_defaults(range_of(&orig));
        let sim = GpuSim::v100();
        let k = SsimFusedKernel {
            fields: FieldPair::new(&orig, &dec),
            params: p,
            fifo_in_shared: true,
        };
        let got = sim.launch(&k, k.grid()).output;
        let want = reference(&orig, &dec, p);
        assert_eq!(got.windows, want.windows, "window count");
        assert!(
            (got.mean() - want.mean()).abs() < 1e-9,
            "mean ssim {} vs {}",
            got.mean(),
            want.mean()
        );
    }

    #[test]
    fn strided_windows_match_reference() {
        let shape = Shape::d3(37, 25, 17);
        let (orig, dec) = fields(shape);
        let p = SsimParams {
            wsize: 6,
            step: 3,
            k1: 0.01,
            k2: 0.03,
            range: range_of(&orig),
        };
        let sim = GpuSim::v100();
        let k = SsimFusedKernel {
            fields: FieldPair::new(&orig, &dec),
            params: p,
            fifo_in_shared: true,
        };
        let got = sim.launch(&k, k.grid()).output;
        let want = reference(&orig, &dec, p);
        assert_eq!(got.windows, want.windows);
        assert!((got.mean() - want.mean()).abs() < 1e-9);
    }

    #[test]
    fn identical_fields_score_one() {
        let shape = Shape::d3(24, 16, 10);
        let (orig, _) = fields(shape);
        let p = SsimParams::paper_defaults(range_of(&orig));
        let sim = GpuSim::v100();
        let k = SsimFusedKernel {
            fields: FieldPair::new(&orig, &orig),
            params: p,
            fifo_in_shared: true,
        };
        let got = sim.launch(&k, k.grid()).output;
        assert!((got.mean() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn heavy_distortion_scores_below_mild_distortion() {
        let shape = Shape::d3(32, 20, 12);
        let (orig, mild) = fields(shape);
        let heavy = orig.map(|v| v + 0.5 * (v * 17.0).sin());
        let p = SsimParams::paper_defaults(range_of(&orig));
        let sim = GpuSim::v100();
        let s_mild = sim
            .launch(
                &SsimFusedKernel {
                    fields: FieldPair::new(&orig, &mild),
                    params: p,
                    fifo_in_shared: true,
                },
                SsimFusedKernel {
                    fields: FieldPair::new(&orig, &mild),
                    params: p,
                    fifo_in_shared: true,
                }
                .grid(),
            )
            .output
            .mean();
        let k_heavy = SsimFusedKernel {
            fields: FieldPair::new(&orig, &heavy),
            params: p,
            fifo_in_shared: true,
        };
        let s_heavy = sim.launch(&k_heavy, k_heavy.grid()).output.mean();
        assert!(s_heavy < s_mild, "{s_heavy} !< {s_mild}");
    }

    #[test]
    fn no_fifo_ablation_is_functionally_identical_but_costlier_in_global_traffic() {
        let shape = Shape::d3(36, 22, 14);
        let (orig, dec) = fields(shape);
        let p = SsimParams::paper_defaults(range_of(&orig));
        let sim = GpuSim::v100();
        let with = SsimFusedKernel {
            fields: FieldPair::new(&orig, &dec),
            params: p,
            fifo_in_shared: true,
        };
        let without = SsimFusedKernel {
            fields: FieldPair::new(&orig, &dec),
            params: p,
            fifo_in_shared: false,
        };
        let r_with = sim.launch(&with, with.grid());
        let r_without = sim.launch(&without, without.grid());
        assert_eq!(r_with.output, r_without.output);
        assert!(
            r_without.counters.global_scatter_bytes > 0
                && r_with.counters.global_scatter_bytes == 0,
            "no-FIFO must spill moments to (scattered) global memory"
        );
        assert!(
            r_with.counters.shared_accesses > r_without.counters.shared_accesses,
            "FIFO lives in shared memory"
        );
    }

    #[test]
    fn each_slice_read_once_with_fifo() {
        // The pattern-3 headline claim: global reads ≈ both fields once per
        // x-block sweep. For nx ≤ 32 there is a single x iteration, so the
        // payload should be read exactly once (plus row-group overlap in y).
        let shape = Shape::d3(32, 8, 16);
        let (orig, dec) = fields(shape);
        let p = SsimParams::paper_defaults(range_of(&orig));
        let sim = GpuSim::v100();
        let k = SsimFusedKernel {
            fields: FieldPair::new(&orig, &dec),
            params: p,
            fifo_in_shared: true,
        };
        let r = sim.launch(&k, k.grid());
        let payload = 2 * shape.len() as u64 * 4;
        assert!(
            r.counters.global_read_bytes <= payload + payload / 4,
            "read {} vs payload {payload}",
            r.counters.global_read_bytes
        );
    }

    #[test]
    fn too_small_field_yields_no_windows() {
        let shape = Shape::d3(6, 6, 6);
        let (orig, dec) = fields(shape);
        let p = SsimParams::paper_defaults(1.0);
        let sim = GpuSim::v100();
        let k = SsimFusedKernel {
            fields: FieldPair::new(&orig, &dec),
            params: p,
            fifo_in_shared: true,
        };
        let got = sim.launch(&k, k.grid()).output;
        assert_eq!(got.windows, 0);
        assert_eq!(got.mean(), 1.0); // degenerate convention
    }

    #[test]
    fn resources_match_paper_profile() {
        let shape = Shape::d3(64, 64, 16);
        let (orig, dec) = fields(shape);
        let p = SsimParams::paper_defaults(1.0);
        let k = SsimFusedKernel {
            fields: FieldPair::new(&orig, &dec),
            params: p,
            fifo_in_shared: true,
        };
        let r = k.resources();
        assert_eq!(r.regs_per_block(), 11_008); // "11k" in Table II
        assert_eq!(r.smem_per_block, 16_000); // "16KB" in Table II
    }
}
