//! Pattern 2 — the fused stencil kernel (paper Algorithm 2, Fig. 7).
//!
//! One thread block per z output plane (the paper notes pattern-2's grid
//! size is decided by the z extent, which is exactly what drives its
//! per-dataset speedup differences in Fig. 12(b)). Each block walks 16×16
//! tiles of its plane; for every tile the needed slices of **both** fields
//! are staged into shared memory once, and from that single load the kernel
//! computes, per interior point:
//!
//! * first- and second-order derivatives, divergence and Laplacian of both
//!   fields plus the derivative-magnitude distortion (on the stride-1
//!   launch only),
//! * the lag-`stride` autocorrelation terms of the error field.
//!
//! The executor launches the kernel once per stride 1..=MAXLAG; stride 1
//! also carries the derivative metrics (the paper's `stride` doubles as
//! derivative order and autocorrelation gap). The block partials fold
//! through a cooperative grid sync. This is the one variant
//! [`crate::traffic::p2_stencil`] declares.

use crate::acc::{deriv1_nd, deriv2_nd, grad_mag, P2Stats};
use crate::{FieldPair, HasReferencePath};
use zc_gpusim::{BlockCtx, BlockKernel, KernelClass, KernelResources, SharedBuf, WARP};

/// Tile side length (threads per block = TILE²).
pub const TILE: usize = 16;

/// Warps per pattern-2 block (16×16 threads in 32-lane rows); staged tile
/// row `ly` belongs to warp `(ly / 2) % P2_WARPS` for race attribution.
const P2_WARPS: usize = TILE * TILE / WARP;

/// Lane flops per derivative point: two fields × (6 first- + 9
/// second-order terms) plus the gradient/divergence/Laplacian combine.
pub(crate) const DERIV_FLOPS: u64 = 2 * (6 + 9) + 24;

/// Lane flops per autocorrelation point.
pub(crate) const AC_FLOPS: u64 = 12;

/// The fused pattern-2 kernel for one stride.
pub struct P2FusedKernel<'a> {
    /// The field pair under assessment.
    pub fields: FieldPair<'a>,
    /// Autocorrelation spatial gap τ; the stride-1 launch also computes
    /// the derivative metrics.
    pub stride: usize,
    /// Mean of the error field (from the pattern-1 pass) — Eq. 2's μ.
    pub mean_e: f64,
    /// Total lags the merged [`P2Stats`] tracks.
    pub max_lag: usize,
}

impl P2FusedKernel<'_> {
    /// Grid size: one block per z plane (× the 4th dimension).
    pub fn grid(&self) -> usize {
        crate::traffic::plane_grid(self.fields.shape)
    }

    /// Whether this launch computes the derivative metrics.
    fn derivatives(&self) -> bool {
        self.stride == 1
    }

    /// Slices of each field staged per tile: z−1, z, z+1 for derivatives
    /// and z+τ for autocorrelation (deduplicated when τ = 1; 1D/2D fields
    /// stage only their own plane — the stencil has no z extent there).
    fn slice_offsets(&self) -> Vec<isize> {
        if self.fields.shape.ndim() < 3 {
            vec![0]
        } else if self.derivatives() {
            vec![0, -1, 1]
        } else {
            vec![0, self.stride as isize]
        }
    }

    /// Staged tile width: halo 1 low side (derivatives), max(1, τ) high.
    fn tile_width(&self) -> usize {
        TILE + 1 + self.stride.max(1)
    }
}

/// Shape-independent resource declaration of a stencil launch whose staged
/// tile carries a high-side halo of `halo` slices — the plan verifier
/// prices a `P2Stencil` pass at `halo = max_lag` (its widest launch)
/// before any field exists. [`P2FusedKernel::resources`] delegates here so
/// the static and instance declarations cannot drift.
pub fn stencil_resources(halo: usize) -> KernelResources {
    // The kernel reserves shared memory for its worst launch (3 staged
    // slices at the widest tile) so the allocation is stride-invariant
    // — which is why the paper's Table II shows a constant ~17 KB
    // SMem/TB for pattern 2. 9 regs × 256 threads ≈ the paper's 2.3k
    // Regs/TB.
    let w = TILE + 1 + halo.max(1);
    KernelResources {
        regs_per_thread: 9,
        smem_per_block: (2 * 3 * w * w * 4) as u32,
        threads_per_block: (TILE * TILE) as u32,
    }
}

impl BlockKernel for P2FusedKernel<'_> {
    type Partial = P2Stats;
    type Output = P2Stats;

    fn name(&self) -> &'static str {
        "p2_fused"
    }

    fn resources(&self) -> KernelResources {
        stencil_resources(self.tile_width() - TILE - 1)
    }

    fn class(&self) -> KernelClass {
        KernelClass::Stencil
    }

    fn run_block(&self, block: usize, ctx: &mut BlockCtx) -> P2Stats {
        let s = self.fields.shape;
        let ndim = s.ndim();
        let (nx, ny, nz) = (s.nx(), s.ny(), s.nz());
        let z0 = block % nz;
        let w4 = block / nz;
        let tau = self.stride;
        let offs = self.slice_offsets();
        let wdt = self.tile_width();
        let mut stats = P2Stats::identity(self.max_lag);

        let deriv_plane = self.derivatives() && (ndim < 3 || (z0 >= 1 && z0 + 1 < nz));
        let ac_plane = ndim < 3 || z0 + tau < nz;
        if !deriv_plane && !ac_plane {
            return stats;
        }

        // Active stencil axes (x, then y for 2-D, then z for 3-D): the
        // per-point shared-read totals charged in bulk below depend on it.
        let axes = ndim.min(3) as u64;

        // The real kernel stages tiles into shared memory. The fast path
        // keeps the allocation (footprint parity) and charges the exact
        // per-element staging traffic in closed form below, but reads the
        // very same f32 values straight from the global arrays — identical
        // inputs, so bit-identical results, without the physical copies.
        let _shared: SharedBuf<f32> = ctx.shared_alloc(2 * offs.len() * wdt * wdt);

        let tiles_x = nx.div_ceil(TILE);
        let tiles_y = ny.div_ceil(TILE);
        ctx.note_iters((tiles_x * tiles_y * (offs.len() + 1)) as u64);

        // Global row base of (y, z).
        let grow = |y: usize, z: usize| s.linear([0, y, z, w4]);

        for ty in 0..tiles_y {
            for tx in 0..tiles_x {
                // Tile anchor: coverage is [tx0-1, tx0+TILE+hi) per axis.
                let tx0 = tx * TILE;
                let ty0 = ty * TILE;

                // ---- shared-staging accounting (no physical copy) ------
                // Every staged element's traffic, in closed form: the valid
                // x-run is the same for every row of the tile, the valid
                // rows and slices depend only on (ty0, z0), and fresh global
                // columns are everything for the row's first tile, at most
                // TILE new columns afterwards (sliding-tile halo reuse) —
                // identical totals to the reference's per-element charges.
                let n_slices = offs
                    .iter()
                    .filter(|&&dz| {
                        let z = z0 as isize + dz;
                        z >= 0 && z < nz as isize
                    })
                    .count() as u64;
                let n_rows = {
                    let lo = if ty0 == 0 { 1 } else { 0 };
                    let hi = wdt.min(ny + 1 - ty0);
                    hi.saturating_sub(lo) as u64
                };
                let valid = {
                    let lo = if tx0 == 0 { 1 } else { 0 };
                    let hi = wdt.min(nx + 1 - tx0);
                    hi.saturating_sub(lo) as u64
                };
                let fresh = if tx == 0 {
                    valid
                } else {
                    valid.min(TILE as u64)
                };
                ctx.charge_shared(2 * n_slices * n_rows * valid);
                ctx.g_read_raw(2 * 4 * n_slices * n_rows * fresh);
                ctx.sync_threads();

                // ---- per-point computation from global memory ----------
                // Same f32 inputs the staged tile would hold; the
                // shared-get, flop and special-unit totals are charged in
                // bulk per tile from the deriv/ac point counts. Derivative
                // and autocorr points form contiguous x-runs, so the two
                // families split into separate row loops with hoisted row
                // bases — each statistic still absorbs its points in the
                // same (y, x) order as the reference, keeping values
                // bit-identical (absorb_deriv and absorb_ac_nd touch
                // disjoint fields).
                let (mut n_deriv, mut n_ac) = (0u64, 0u64);
                if deriv_plane {
                    // Interior x-run of this tile: x ∈ [1, nx−1).
                    let lx_lo = if tx0 == 0 { 1 } else { 0 };
                    let lx_hi = TILE.min(nx - 1 - tx0);
                    for ly in 0..TILE {
                        let y = ty0 + ly;
                        if y >= ny {
                            break;
                        }
                        if ndim >= 2 && (y < 1 || y + 1 >= ny) {
                            continue;
                        }
                        // Neighbour rows only sampled (and thus only
                        // computed) on axes the stencil actually has.
                        let rc = grow(y, z0);
                        let ru = if ndim >= 2 { grow(y - 1, z0) } else { rc };
                        let rd = if ndim >= 2 { grow(y + 1, z0) } else { rc };
                        let rzm = if ndim >= 3 { grow(y, z0 - 1) } else { rc };
                        let rzp = if ndim >= 3 { grow(y, z0 + 1) } else { rc };
                        // Two passes per row: an elementwise pass (stencil
                        // reads, derivative arithmetic, the two sqrts) that
                        // has no loop-carried dependency and vectorizes,
                        // then a scalar in-order accumulation — each of
                        // `absorb_deriv`'s accumulators still receives the
                        // identical term sequence, so the sums, maxes and
                        // squared errors stay bit-identical.
                        let cnt = lx_hi.saturating_sub(lx_lo);
                        let mut gq = [[0f64; TILE]; 2];
                        let mut dvq = [[0f64; TILE]; 2];
                        let mut lpq = [[0f64; TILE]; 2];
                        for (f, arr) in [self.fields.orig, self.fields.dec].into_iter().enumerate()
                        {
                            for i in 0..cnt {
                                let x = tx0 + lx_lo + i;
                                // Constant (dx, dy, dz) fold the base select
                                // once `deriv{1,2}_nd` inline.
                                let sl = |dx: isize, dy: isize, dz: isize| {
                                    let r = if dz < 0 {
                                        rzm
                                    } else if dz > 0 {
                                        rzp
                                    } else if dy < 0 {
                                        ru
                                    } else if dy > 0 {
                                        rd
                                    } else {
                                        rc
                                    };
                                    arr[((r + x) as isize + dx) as usize] as f64
                                };
                                let d1 = deriv1_nd(sl, ndim);
                                let d2v = deriv2_nd(sl, ndim);
                                gq[f][i] = grad_mag(d1);
                                dvq[f][i] = d1[0] + d1[1] + d1[2];
                                lpq[f][i] = (d2v[0] + d2v[1] + d2v[2]).abs();
                            }
                        }
                        stats.n_interior += cnt as u64;
                        for i in 0..cnt {
                            let (gx, gy) = (gq[0][i], gq[1][i]);
                            stats.sum_grad_x += gx;
                            stats.max_grad_x = stats.max_grad_x.max(gx);
                            stats.sum_grad_y += gy;
                            stats.max_grad_y = stats.max_grad_y.max(gy);
                            stats.sum_grad_err2 += (gx - gy) * (gx - gy);
                            stats.sum_div_x += dvq[0][i];
                            stats.sum_div_y += dvq[1][i];
                            stats.sum_lap_x += lpq[0][i];
                            stats.sum_lap_y += lpq[1][i];
                        }
                        n_deriv += cnt as u64;
                    }
                }
                if ac_plane {
                    // Autocorr x-run of this tile: x + τ < nx.
                    let lx_hi = TILE.min((nx - tx0).saturating_sub(tau));
                    for ly in 0..TILE {
                        let y = ty0 + ly;
                        if y >= ny {
                            break;
                        }
                        if ndim >= 2 && y + tau >= ny {
                            continue;
                        }
                        let r0 = grow(y, z0);
                        let ry = if ndim >= 2 { grow(y + tau, z0) } else { r0 };
                        let rz = if ndim >= 3 { grow(y, z0 + tau) } else { r0 };
                        // Elementwise pass, then in-order accumulation (see
                        // the derivative loop). The neighbour sum starts
                        // from 0.0 and adds x, y, z in that order — the
                        // exact association `absorb_ac_nd`'s `iter().sum()`
                        // uses, so every term is bit-identical.
                        let og = self.fields.orig;
                        let dg = self.fields.dec;
                        let kf = axes as f64;
                        let mut terms = [0f64; TILE];
                        for (i, t) in terms[..lx_hi].iter_mut().enumerate() {
                            let x = tx0 + i;
                            let e = |r: usize| og[r + x] as f64 - dg[r + x] as f64 - self.mean_e;
                            let e0 = e(r0);
                            let mut sum = 0.0 + e(r0 + tau);
                            if ndim >= 2 {
                                sum += e(ry);
                            }
                            if ndim >= 3 {
                                sum += e(rz);
                            }
                            *t = e0 * sum / kf;
                        }
                        for &t in &terms[..lx_hi] {
                            stats.ac_num[tau - 1] += t;
                        }
                        stats.ac_n[tau - 1] += lx_hi as u64;
                        n_ac += lx_hi as u64;
                    }
                }
                // Bulk charges: a deriv point makes 2 fields × (4·axes + 1)
                // shared gets, 54 flops and 2 sqrt; an ac point makes
                // 2·(1 + axes) shared gets and 12 flops — exactly what the
                // reference charges one access at a time.
                ctx.charge_shared(n_deriv * 2 * (4 * axes + 1));
                ctx.flops(n_deriv * DERIV_FLOPS);
                ctx.special(n_deriv * 2);
                ctx.charge_shared(n_ac * 2 * (1 + axes));
                ctx.flops(n_ac * AC_FLOPS);
                ctx.sync_threads();
            }
        }

        // Block partial to global for the grid fold.
        ctx.g_write_raw((10 + 2 * self.max_lag as u64) * 8);
        stats
    }

    fn finalize(&self, ctx: &mut BlockCtx, partials: Vec<P2Stats>) -> P2Stats {
        let words = 10 + 2 * self.max_lag as u64;
        ctx.g_read_raw(partials.len() as u64 * words * 8);
        ctx.flops(partials.len() as u64 * words);
        let mut acc = P2Stats::identity(self.max_lag);
        for p in &partials {
            acc.combine(p);
        }
        acc
    }
}

impl HasReferencePath for P2FusedKernel<'_> {
    // Per-access implementation: every staged element is an individually
    // charged `sh_write`, every stencil get an `sh_read`.
    fn run_block_reference(&self, block: usize, ctx: &mut BlockCtx) -> P2Stats {
        let s = self.fields.shape;
        let ndim = s.ndim();
        let (nx, ny, nz) = (s.nx(), s.ny(), s.nz());
        let z0 = block % nz;
        let w4 = block / nz;
        let tau = self.stride;
        let offs = self.slice_offsets();
        let wdt = self.tile_width();
        let mut stats = P2Stats::identity(self.max_lag);

        let deriv_plane = self.derivatives() && (ndim < 3 || (z0 >= 1 && z0 + 1 < nz));
        let ac_plane = ndim < 3 || z0 + tau < nz;
        if !deriv_plane && !ac_plane {
            return stats;
        }

        // Shared staging: [field][slice][wy][wx], x fastest.
        let mut shared: SharedBuf<f32> = ctx.shared_alloc(2 * offs.len() * wdt * wdt);
        let sh_idx = |f: usize, sl: usize, lx: usize, ly: usize| {
            ((f * offs.len() + sl) * wdt + ly) * wdt + lx
        };

        let tiles_x = nx.div_ceil(TILE);
        let tiles_y = ny.div_ceil(TILE);
        ctx.note_iters((tiles_x * tiles_y * (offs.len() + 1)) as u64);

        for ty in 0..tiles_y {
            for tx in 0..tiles_x {
                // Tile anchor: coverage is [tx0-1, tx0+TILE+hi) per axis.
                let tx0 = tx * TILE;
                let ty0 = ty * TILE;

                // ---- stage both fields' slices into shared memory ------
                // Global-read charging models the sliding-tile optimization:
                // the block sweeps tiles along x keeping the x-halo columns
                // resident, so only the first tile of a row pays for its
                // halo columns; subsequent tiles read TILE fresh columns.
                for (si, &dz) in offs.iter().enumerate() {
                    let z = z0 as isize + dz;
                    if z < 0 || z >= nz as isize {
                        continue;
                    }
                    for ly in 0..wdt {
                        let y = ty0 as isize + ly as isize - 1;
                        if y < 0 || y >= ny as isize {
                            continue;
                        }
                        // Staging is distributed over the block's warps by
                        // row; the barrier below makes the handoff to the
                        // consuming warps race-free.
                        ctx.warp_begin((ly / 2) % P2_WARPS);
                        let mut valid = 0u64;
                        for lx in 0..wdt {
                            let x = tx0 as isize + lx as isize - 1;
                            if x < 0 || x >= nx as isize {
                                continue;
                            }
                            valid += 1;
                            let lin = s.linear([x as usize, y as usize, z as usize, w4]);
                            // Values move without a per-access charge;
                            // traffic is accounted in bulk below.
                            let vo = self.fields.orig[lin];
                            let vd = self.fields.dec[lin];
                            ctx.sh_write(&mut shared, sh_idx(0, si, lx, ly), vo);
                            ctx.sh_write(&mut shared, sh_idx(1, si, lx, ly), vd);
                        }
                        // Fresh columns: everything for the row's first
                        // tile, at most TILE new columns afterwards.
                        let fresh = if tx == 0 {
                            valid
                        } else {
                            valid.min(TILE as u64)
                        };
                        ctx.g_read_raw(2 * 4 * fresh);
                        ctx.warp_end();
                    }
                }
                ctx.sync_threads();

                // ---- per-point computation from shared memory ----------
                // Slice index lookup (offset → staged position).
                let slice_of = |dz: isize| offs.iter().position(|&o| o == dz).unwrap();
                for ly in 0..TILE {
                    let y = ty0 + ly;
                    if y >= ny {
                        break;
                    }
                    // Thread (lx, ly) sits in warp ly/2; its stencil gets
                    // read rows other warps staged (cross-warp, next epoch).
                    ctx.warp_begin(ly / 2);
                    for lx in 0..TILE {
                        let x = tx0 + lx;
                        if x >= nx {
                            break;
                        }
                        // Shared coordinates of the point itself.
                        let (cx, cy) = (lx + 1, ly + 1);

                        let deriv_xy_ok =
                            x >= 1 && x + 1 < nx && (ndim < 2 || (y >= 1 && y + 1 < ny));
                        if deriv_plane && deriv_xy_ok {
                            let mut d = [[0.0f64; 3]; 2];
                            let mut d2v = [[0.0f64; 3]; 2];
                            for f in 0..2 {
                                let mut sl = |dx: isize, dy: isize, dz: isize| {
                                    let si = slice_of(dz);
                                    // 7-point neighbourhood lives in shared.
                                    shared_read(
                                        ctx,
                                        &shared,
                                        sh_idx(
                                            f,
                                            si,
                                            (cx as isize + dx) as usize,
                                            (cy as isize + dy) as usize,
                                        ),
                                    ) as f64
                                };
                                d[f] = deriv1_nd(&mut sl, ndim);
                                d2v[f] = deriv2_nd(&mut sl, ndim);
                            }
                            ctx.flops(DERIV_FLOPS);
                            ctx.special(2); // the two gradient magnitudes
                            stats.absorb_deriv(d[0], d[1], d2v[0], d2v[1]);
                        }

                        let ac_xy_ok = x + tau < nx && (ndim < 2 || y + tau < ny);
                        if ac_plane && ac_xy_ok {
                            let mut err_at = |dx: isize, dy: isize, dz: isize| {
                                let si = slice_of(dz);
                                let i = sh_idx(
                                    0,
                                    si,
                                    (cx as isize + dx) as usize,
                                    (cy as isize + dy) as usize,
                                );
                                let j = sh_idx(
                                    1,
                                    si,
                                    (cx as isize + dx) as usize,
                                    (cy as isize + dy) as usize,
                                );
                                shared_read(ctx, &shared, i) as f64
                                    - shared_read(ctx, &shared, j) as f64
                            };
                            let t = tau as isize;
                            let e0 = err_at(0, 0, 0) - self.mean_e;
                            let mut nb = [0.0f64; 3];
                            let mut k = 0;
                            nb[k] = err_at(t, 0, 0) - self.mean_e;
                            k += 1;
                            if ndim >= 2 {
                                nb[k] = err_at(0, t, 0) - self.mean_e;
                                k += 1;
                            }
                            if ndim >= 3 {
                                nb[k] = err_at(0, 0, t) - self.mean_e;
                                k += 1;
                            }
                            ctx.flops(AC_FLOPS);
                            stats.absorb_ac_nd(tau, e0, &nb[..k]);
                        }
                    }
                    ctx.warp_end();
                }
                ctx.sync_threads();
            }
        }

        // Block partial to global for the grid fold.
        ctx.g_write_raw((10 + 2 * self.max_lag as u64) * 8);
        stats
    }
}

/// Shared read via an immutable buffer handle (helper that charges the
/// access while working around the borrow of the closure captures).
// zc-lint: exempt(kernel/unscoped-shared) — every caller invokes this
// inside its own warp_begin/warp_end scope; the scope just isn't visible
// in this one-line helper.
#[inline]
fn shared_read(ctx: &mut BlockCtx, buf: &SharedBuf<f32>, i: usize) -> f32 {
    ctx.sh_read(buf, i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acc::{deriv1, deriv2, grad_mag, P1Scalars};
    use zc_gpusim::GpuSim;
    use zc_tensor::{Shape, Tensor};

    fn fields(shape: Shape) -> (Tensor<f32>, Tensor<f32>) {
        let orig = Tensor::from_fn(shape, |[x, y, z, _]| {
            (x as f32 * 0.31).sin() + (y as f32 * 0.17).cos() * (z as f32 * 0.11).sin()
        });
        let dec = orig.map(|v| v + 0.01 * ((v * 91.0).sin()));
        (orig, dec)
    }

    /// Scalar reference for the pattern-2 statistics.
    fn reference(orig: &Tensor<f32>, dec: &Tensor<f32>, max_lag: usize) -> P2Stats {
        let s = orig.shape();
        let mut p1 = P1Scalars::identity();
        for (&x, &y) in orig.iter().zip(dec.iter()) {
            p1.absorb(x as f64, y as f64);
        }
        let mu = p1.mean_e();
        let mut st = P2Stats::identity(max_lag);
        let (nx, ny, nz) = (s.nx(), s.ny(), s.nz());
        for z in 1..nz.saturating_sub(1) {
            for y in 1..ny - 1 {
                for x in 1..nx - 1 {
                    let gx = |dx: isize, dy: isize, dz: isize| {
                        orig.at3(
                            (x as isize + dx) as usize,
                            (y as isize + dy) as usize,
                            (z as isize + dz) as usize,
                        ) as f64
                    };
                    let gy = |dx: isize, dy: isize, dz: isize| {
                        dec.at3(
                            (x as isize + dx) as usize,
                            (y as isize + dy) as usize,
                            (z as isize + dz) as usize,
                        ) as f64
                    };
                    st.absorb_deriv(deriv1(&gx), deriv1(&gy), deriv2(&gx), deriv2(&gy));
                }
            }
        }
        for lag in 1..=max_lag {
            for z in 0..nz.saturating_sub(lag) {
                for y in 0..ny - lag {
                    for x in 0..nx - lag {
                        let e = |x: usize, y: usize, z: usize| {
                            orig.at3(x, y, z) as f64 - dec.at3(x, y, z) as f64 - mu
                        };
                        st.absorb_ac(
                            lag,
                            e(x, y, z),
                            [e(x + lag, y, z), e(x, y + lag, z), e(x, y, z + lag)],
                        );
                    }
                }
            }
        }
        st
    }

    fn run_fused(orig: &Tensor<f32>, dec: &Tensor<f32>, max_lag: usize) -> P2Stats {
        let mut p1 = P1Scalars::identity();
        for (&x, &y) in orig.iter().zip(dec.iter()) {
            p1.absorb(x as f64, y as f64);
        }
        let sim = GpuSim::v100();
        let mut acc = P2Stats::identity(max_lag);
        for stride in 1..=max_lag {
            let k = P2FusedKernel {
                fields: FieldPair::new(orig, dec),
                stride,
                mean_e: p1.mean_e(),
                max_lag,
            };
            let r = sim.launch(&k, k.grid());
            acc.combine(&r.output);
        }
        acc
    }

    #[test]
    fn fused_kernel_matches_scalar_reference() {
        let shape = Shape::d3(21, 19, 11);
        let (orig, dec) = fields(shape);
        let got = run_fused(&orig, &dec, 3);
        let want = reference(&orig, &dec, 3);
        assert_eq!(got.n_interior, want.n_interior);
        assert_eq!(got.ac_n, want.ac_n);
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1e-12);
        assert!(
            close(got.sum_grad_x, want.sum_grad_x),
            "{} {}",
            got.sum_grad_x,
            want.sum_grad_x
        );
        assert!(close(got.sum_lap_y, want.sum_lap_y));
        assert!(close(got.max_grad_x, want.max_grad_x));
        for lag in 1..=3 {
            assert!(
                close(got.ac_num[lag - 1], want.ac_num[lag - 1]),
                "lag {lag}: {} vs {}",
                got.ac_num[lag - 1],
                want.ac_num[lag - 1]
            );
        }
    }

    #[test]
    fn derivative_of_linear_field_is_constant() {
        let shape = Shape::d3(12, 12, 12);
        let lin = Tensor::from_fn(shape, |[x, y, z, _]| {
            (2 * x) as f32 + (3 * y) as f32 - (z as f32)
        });
        let got = run_fused(&lin, &lin, 1);
        let expect_mag = grad_mag([2.0, 3.0, -1.0]);
        let avg = got.sum_grad_x / got.n_interior as f64;
        assert!((avg - expect_mag).abs() < 1e-9);
        assert!(got.sum_lap_x.abs() < 1e-9);
        assert_eq!(got.sum_grad_err2, 0.0);
    }

    #[test]
    fn white_noise_errors_have_near_zero_autocorr() {
        let shape = Shape::d3(24, 24, 24);
        let orig = Tensor::from_fn(shape, |[x, y, z, _]| (x + y + z) as f32 * 0.1);
        // Pseudo-random error via a SplitMix-style mixer — uncorrelated.
        let dec = Tensor::from_fn(shape, |[x, y, z, _]| {
            let mut h = (x as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((y as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
                .wrapping_add((z as u64).wrapping_mul(0x94D0_49BB_1331_11EB));
            h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            h ^= h >> 27;
            (x + y + z) as f32 * 0.1 + (h % 1000) as f32 * 1e-5 - 5e-3
        });
        let got = run_fused(&orig, &dec, 4);
        let mut p1 = P1Scalars::identity();
        for (&x, &y) in orig.iter().zip(dec.iter()) {
            p1.absorb(x as f64, y as f64);
        }
        for lag in 1..=4 {
            let ac = got.autocorr(lag, p1.var_e());
            assert!(ac.abs() < 0.15, "lag {lag}: {ac}");
        }
    }

    #[test]
    fn correlated_errors_have_high_autocorr() {
        let shape = Shape::d3(20, 20, 20);
        let orig = Tensor::from_fn(shape, |[x, ..]| x as f32);
        // Smooth, slowly varying error field → strong lag-1 correlation.
        let dec = Tensor::from_fn(shape, |[x, y, z, _]| {
            x as f32 + 0.01 * ((x as f32 + y as f32 + z as f32) * 0.1).sin()
        });
        let got = run_fused(&orig, &dec, 1);
        let mut p1 = P1Scalars::identity();
        for (&x, &y) in orig.iter().zip(dec.iter()) {
            p1.absorb(x as f64, y as f64);
        }
        let ac = got.autocorr(1, p1.var_e());
        assert!(ac > 0.8, "expected strong autocorrelation, got {ac}");
    }

    #[test]
    fn grid_follows_z_extent() {
        let shape = Shape::d3(16, 16, 33);
        let (orig, dec) = fields(shape);
        let k = P2FusedKernel {
            fields: FieldPair::new(&orig, &dec),
            stride: 1,
            mean_e: 0.0,
            max_lag: 1,
        };
        assert_eq!(k.grid(), 33);
    }

    #[test]
    fn shared_memory_declaration_scales_with_stride() {
        let shape = Shape::d3(16, 16, 16);
        let (orig, dec) = fields(shape);
        let res_of = |stride: usize| {
            P2FusedKernel {
                fields: FieldPair::new(&orig, &dec),
                stride,
                mean_e: 0.0,
                max_lag: 10,
            }
            .resources()
            .smem_per_block
        };
        assert!(res_of(10) > res_of(1));
        // Largest stride stays within the V100 per-block limit.
        assert!(res_of(10) <= 48 * 1024);
    }

    #[test]
    fn tiny_fields_produce_no_stencil_output() {
        let shape = Shape::d3(2, 2, 2);
        let (orig, dec) = fields(shape);
        let got = run_fused(&orig, &dec, 2);
        assert_eq!(got.n_interior, 0); // no interior point exists
        assert_eq!(got.ac_n[1], 0); // lag 2 does not fit
        assert_eq!(got.ac_n[0], 1); // lag 1 fits exactly once
    }
}
