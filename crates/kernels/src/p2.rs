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
use std::ops::Range;
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

    /// Slices of each field staged per tile, as z offsets and their count:
    /// z, z−1, z+1 for derivatives and z, z+τ for autocorrelation
    /// (deduplicated when τ = 1; 1D/2D fields stage only their own plane —
    /// the stencil has no z extent there).
    fn slice_offsets(&self) -> ([isize; 3], usize) {
        if self.fields.shape.ndim() < 3 {
            ([0, 0, 0], 1)
        } else if self.derivatives() {
            ([0, -1, 1], 3)
        } else {
            ([0, self.stride as isize, 0], 2)
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
        // One body per stencil rank (x; x, y; x, y, z — a 4th axis only
        // picks the plane), chosen once per block.
        match self.fields.shape.ndim() {
            1 => self.run_block_fast::<1>(block, ctx),
            2 => self.run_block_fast::<2>(block, ctx),
            _ => self.run_block_fast::<3>(block, ctx),
        }
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

impl P2FusedKernel<'_> {
    /// The fast path over an `N`-axis stencil.
    ///
    /// The real kernel stages tiles into shared memory. The fast path keeps
    /// the allocation (footprint parity) and charges every tile's staging,
    /// shared-get, flop, special-unit and barrier traffic in closed form —
    /// the reference's per-access totals — but reads the very same f32
    /// values straight from the global arrays. Per band of `TILE` rows it
    /// runs whole-row elementwise passes (stencil reads, derivative
    /// arithmetic, the sqrts, the autocorrelation products) into band
    /// scratch, then absorbs the scratch tile by tile in the reference's
    /// `(ty, tx, ly, x)` order: every accumulator receives the identical
    /// term sequence, so the statistics are bit-identical.
    fn run_block_fast<const N: usize>(&self, block: usize, ctx: &mut BlockCtx) -> P2Stats {
        let s = self.fields.shape;
        let (nx, ny, nz) = (s.nx(), s.ny(), s.nz());
        let z0 = block % nz;
        let w4 = block / nz;
        let tau = self.stride;
        let (offs, n_offs) = self.slice_offsets();
        let wdt = self.tile_width();
        let mut stats = P2Stats::identity(self.max_lag);

        let deriv_plane = self.derivatives() && (N < 3 || (z0 >= 1 && z0 + 1 < nz));
        let ac_plane = N < 3 || z0 + tau < nz;
        if !deriv_plane && !ac_plane {
            return stats;
        }

        let _shared: SharedBuf<f32> = ctx.shared_alloc(2 * n_offs * wdt * wdt);
        let tiles_x = nx.div_ceil(TILE);
        let tiles_y = ny.div_ceil(TILE);
        ctx.note_iters((tiles_x * tiles_y * (n_offs + 1)) as u64);
        // Staged slices inside the field — fixed for the block's plane.
        let n_slices = offs[..n_offs]
            .iter()
            .filter(|&&dz| (0..nz as isize).contains(&(z0 as isize + dz)))
            .count() as u64;

        // Point sets as (x, y) ranges: the derivative stencil covers the
        // interior [1, n−1) of each axis it has; an autocorrelation point
        // keeps its +τ neighbour inside the field.
        let interior = |n: usize| 1..n.saturating_sub(1).max(1);
        let (dxs, dys) = points(
            deriv_plane,
            interior(nx),
            if N >= 2 { interior(ny) } else { 0..ny },
        );
        let (axs, ays) = points(
            ac_plane,
            0..nx.saturating_sub(tau),
            if N >= 2 {
                0..ny.saturating_sub(tau)
            } else {
                0..ny
            },
        );

        // Scratch, allocated once per block (empty for an absent family).
        let d_len = if dys.is_empty() { 0 } else { nx };
        let a_len = if ays.is_empty() { 0 } else { nx };
        // Per band row: |∇|, divergence and |Laplacian| of the original,
        // then of the decompressed field.
        let mut d_terms = vec![0f64; TILE * DERIV_ROWS * d_len];
        // Per band row: the autocorrelation terms.
        let mut a_terms = vec![0f64; TILE * a_len];
        // Centred errors of the block's plane, a ring of rows y mod
        // (TILE + τ): a band reads its own rows and τ more.
        let ring = TILE + tau;
        let mut e_plane = vec![0f64; ring * a_len];
        let mut e_done = 0;

        let mut sums = DerivSums::default();
        let mut ac = stats.ac_num[tau - 1];
        let (og, dg) = (self.fields.orig, self.fields.dec);
        let row = |y: usize, z: usize| s.linear([0, y, z, w4]);

        for ty in 0..tiles_y {
            let ty0 = ty * TILE;
            let band = ty0..(ty0 + TILE).min(ny);
            let d_rows = clamp(&dys, &band);
            let a_rows = clamp(&ays, &band);

            // ---- whole-row elementwise passes ---------------------------
            for y in d_rows.clone() {
                // Neighbour rows exist only on axes the stencil has.
                let rc = row(y, z0);
                let rows = [
                    rc,
                    if N >= 2 { row(y - 1, z0) } else { rc },
                    if N >= 2 { row(y + 1, z0) } else { rc },
                    if N >= 3 { row(y, z0 - 1) } else { rc },
                    if N >= 3 { row(y, z0 + 1) } else { rc },
                ];
                let out = &mut d_terms[(y - ty0) * DERIV_ROWS * nx..][..DERIV_ROWS * nx];
                let (o, d) = out.split_at_mut(DERIV_ROWS / 2 * nx);
                let rows = rows.map(|r| r + dxs.start);
                deriv_row::<N>(og, rows, o, &dxs);
                deriv_row::<N>(dg, rows, d, &dxs);
            }
            if !a_rows.is_empty() {
                // Plane errors up to the last row this band reads.
                let need = if N >= 2 { a_rows.end + tau } else { a_rows.end };
                for y in e_done.max(ty0)..need {
                    let r = row(y, z0);
                    let out = &mut e_plane[(y % ring) * nx..][..nx];
                    err_row(&og[r..][..nx], &dg[r..][..nx], self.mean_e, out);
                }
                e_done = need;
            }
            for y in a_rows.clone() {
                let e0 = &e_plane[(y % ring) * nx..][..nx];
                let ey = if N >= 2 {
                    &e_plane[((y + tau) % ring) * nx..][..nx]
                } else {
                    e0
                };
                let rz = if N >= 3 { row(y, z0 + tau) } else { row(y, z0) };
                let z = (&og[rz..][..nx], &dg[rz..][..nx]);
                let out = &mut a_terms[(y - ty0) * nx..][..axs.end];
                ac_row::<N>(e0, ey, z, self.mean_e, tau, out);
            }

            // ---- per-tile charges and in-order absorption ---------------
            // Staged rows of this band's tiles: the window [ty0−1,
            // ty0+wdt−1) clipped to the field.
            let n_rows = wdt.min(ny + 1 - ty0).saturating_sub(usize::from(ty0 == 0)) as u64;
            for tx in 0..tiles_x {
                let tx0 = tx * TILE;
                // Every staged element's traffic: the valid x-run is the
                // same for every staged row, and fresh global columns are
                // everything for the row's first tile, at most TILE new
                // columns afterwards (sliding-tile halo reuse).
                let valid = wdt.min(nx + 1 - tx0).saturating_sub(usize::from(tx0 == 0)) as u64;
                let fresh = if tx == 0 {
                    valid
                } else {
                    valid.min(TILE as u64)
                };
                ctx.charge_shared(2 * n_slices * n_rows * valid);
                ctx.g_read_raw(2 * 4 * n_slices * n_rows * fresh);
                ctx.sync_threads();

                let tile = tx0..tx0 + TILE;
                let dx = clamp(&dxs, &tile);
                let ax = clamp(&axs, &tile);
                for y in d_rows.clone() {
                    sums.absorb(
                        &d_terms[(y - ty0) * DERIV_ROWS * nx..][..DERIV_ROWS * nx],
                        &dx,
                    );
                }
                for y in a_rows.clone() {
                    for &t in &a_terms[(y - ty0) * nx..][ax.clone()] {
                        ac += t;
                    }
                }

                // A deriv point makes 2 fields × (4·N + 1) shared gets,
                // DERIV_FLOPS flops and 2 sqrts; an autocorr point makes
                // 2·(1 + N) shared gets and AC_FLOPS flops.
                let n_deriv = (d_rows.len() * dx.len()) as u64;
                let n_ac = (a_rows.len() * ax.len()) as u64;
                let axes = N as u64;
                ctx.charge_shared(n_deriv * 2 * (4 * axes + 1));
                ctx.flops(n_deriv * DERIV_FLOPS);
                ctx.special(n_deriv * 2);
                ctx.charge_shared(n_ac * 2 * (1 + axes));
                ctx.flops(n_ac * AC_FLOPS);
                ctx.sync_threads();
            }
        }

        stats.n_interior = (dys.len() * dxs.len()) as u64;
        sums.store(&mut stats);
        stats.ac_num[tau - 1] = ac;
        stats.ac_n[tau - 1] = (ays.len() * axs.len()) as u64;
        // Block partial to global for the grid fold.
        ctx.g_write_raw((10 + 2 * self.max_lag as u64) * 8);
        stats
    }
}

/// Band-scratch rows per derivative band row: |∇|, divergence and
/// |Laplacian| of the original, then of the decompressed field.
const DERIV_ROWS: usize = 6;

/// A point family's (x, y) ranges: both empty when the family is off or
/// has no point.
fn points(on: bool, xs: Range<usize>, ys: Range<usize>) -> (Range<usize>, Range<usize>) {
    if on && !xs.is_empty() && !ys.is_empty() {
        (xs, ys)
    } else {
        (0..0, 0..0)
    }
}

/// `r` clipped to `to` (empty when they do not meet).
fn clamp(r: &Range<usize>, to: &Range<usize>) -> Range<usize> {
    let lo = r.start.max(to.start);
    lo..r.end.min(to.end).max(lo)
}

/// One field's derivative terms along one row at x ∈ `xs`, written at
/// the same x into `out`'s three nx-long rows: |∇|, divergence and
/// |Laplacian|. `rows` are the linear indices, at x = `xs.start`, of the
/// row itself and of its y−1, y+1, z−1 and z+1 neighbours (the row itself
/// on absent axes). The arithmetic is [`deriv1_nd`], [`deriv2_nd`] and
/// [`P2Stats::absorb_deriv`]'s, term for term.
#[inline]
fn deriv_row<const N: usize>(f: &[f32], rows: [usize; 5], out: &mut [f64], xs: &Range<usize>) {
    let n = xs.len();
    let nx = out.len() / 3;
    let [rc, ru, rd, rzm, rzp] = rows;
    // The seven stencil taps as unit-stride runs.
    let [xm, xc, xp, ym, yp, zm, zp] = [rc - 1, rc, rc + 1, ru, rd, rzm, rzp].map(|r| &f[r..][..n]);
    let (g, rest) = out.split_at_mut(nx);
    let (dv, lp) = rest.split_at_mut(nx);
    let (g, dv, lp) = (
        &mut g[xs.start..][..n],
        &mut dv[xs.start..][..n],
        &mut lp[xs.start..][..n],
    );
    for i in 0..n {
        let get = |dx: isize, dy: isize, dz: isize| {
            (match (dx, dy, dz) {
                (-1, _, _) => xm[i],
                (1, _, _) => xp[i],
                (_, -1, _) => ym[i],
                (_, 1, _) => yp[i],
                (_, _, -1) => zm[i],
                (_, _, 1) => zp[i],
                _ => xc[i],
            }) as f64
        };
        let d1 = deriv1_nd(get, N);
        let d2 = deriv2_nd(get, N);
        g[i] = grad_mag(d1);
        dv[i] = d1[0] + d1[1] + d1[2];
        lp[i] = (d2[0] + d2[1] + d2[2]).abs();
    }
}

/// Centred errors `o − d − μ` of one row, elementwise.
#[inline]
fn err_row(o: &[f32], d: &[f32], mean: f64, out: &mut [f64]) {
    for ((e, &a), &b) in out.iter_mut().zip(o).zip(d) {
        *e = a as f64 - b as f64 - mean;
    }
}

/// One row's lag-τ autocorrelation terms `e0·(0 + ex + ey + ez)/N` into
/// `out` (one per x). `e0` is the point's own row of centred errors (its
/// +τ x neighbour is `e0[x + τ]`) and `ey` the row τ further in y; the row
/// τ further in z comes raw, as `(orig, dec)`, and is centred here by
/// `mean` (rows on absent axes are unused). The neighbour sum starts from
/// 0.0 and adds x, y, z in that order: the association
/// [`P2Stats::absorb_ac_nd`]'s sum uses, so each term is bit-identical.
#[inline]
fn ac_row<const N: usize>(
    e0: &[f64],
    ey: &[f64],
    (zo, zd): (&[f32], &[f32]),
    mean: f64,
    tau: usize,
    out: &mut [f64],
) {
    let m = out.len();
    let (e, ex, ey, zo, zd) = (&e0[..m], &e0[tau..][..m], &ey[..m], &zo[..m], &zd[..m]);
    let k = N as f64;
    for (i, t) in out.iter_mut().enumerate() {
        let mut sum = 0.0 + ex[i];
        if N >= 2 {
            sum += ey[i];
        }
        if N >= 3 {
            sum += zo[i] as f64 - zd[i] as f64 - mean;
        }
        *t = e[i] * sum / k;
    }
}

/// The derivative accumulators of [`P2Stats`] as (orig, dec) pairs, held
/// in locals across a block's absorption loops and stored once at its end.
#[derive(Clone, Copy, Default)]
struct DerivSums {
    sum_grad: [f64; 2],
    max_grad: [f64; 2],
    sum_grad_err2: f64,
    sum_div: [f64; 2],
    sum_lap: [f64; 2],
}

impl DerivSums {
    /// Absorb one band row's points at `xs`, in x order — the sequence
    /// [`P2Stats::absorb_deriv`] sees. `m.max(g)` is a compare-select
    /// here: `g` is a square root, never −0.0, and a NaN `g` leaves the
    /// running max alone either way, so the maxima are bit-identical. The
    /// sums run in a local copy so they stay in registers.
    #[inline]
    fn absorb(&mut self, terms: &[f64], xs: &Range<usize>) {
        let (nx, n) = (terms.len() / DERIV_ROWS, xs.len());
        let q = |k: usize| &terms[k * nx + xs.start..][..n];
        let [gx, dvx, lpx, gy, dvy, lpy] = [0, 1, 2, 3, 4, 5].map(q);
        let mut s = *self;
        for i in 0..n {
            let g = [gx[i], gy[i]];
            for ((sum, max), g) in s.sum_grad.iter_mut().zip(&mut s.max_grad).zip(g) {
                *sum += g;
                *max = if g > *max { g } else { *max };
            }
            s.sum_grad_err2 += (g[0] - g[1]) * (g[0] - g[1]);
            s.sum_div[0] += dvx[i];
            s.sum_div[1] += dvy[i];
            s.sum_lap[0] += lpx[i];
            s.sum_lap[1] += lpy[i];
        }
        *self = s;
    }

    fn store(&self, st: &mut P2Stats) {
        [st.sum_grad_x, st.sum_grad_y] = self.sum_grad;
        [st.max_grad_x, st.max_grad_y] = self.max_grad;
        st.sum_grad_err2 = self.sum_grad_err2;
        [st.sum_div_x, st.sum_div_y] = self.sum_div;
        [st.sum_lap_x, st.sum_lap_y] = self.sum_lap;
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
        let (offs, n_offs) = self.slice_offsets();
        let offs = &offs[..n_offs];
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
                // Staged position of z offset `dz` (see `slice_offsets`):
                // the point's own plane first, then z−1 or z+τ, then z+1.
                let slice_of = |dz: isize| match dz {
                    0 => 0,
                    -1 => 1,
                    _ => n_offs - 1,
                };
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
