//! Declared per-launch charges of the cuZC kernels.
//!
//! Each fused kernel declares, in closed form of the field shape and its
//! configuration, the exact [`Counters`] one launch charges and the grid it
//! launches over (paper Table II: a pattern's time is set by its counters,
//! its grid size and its occupancy). The declarations live *here*, next to
//! the kernels, and are the only copy of these formulas; everything else
//! reads them:
//!
//! * the kernels' `grid()` methods read the same shape functions;
//! * `zc_core::plan` prices jobs by feeding the declared launches through
//!   the simulator's own cost function, so a job is priced exactly as its
//!   run will be charged, and folds them into the per-pattern profiles
//!   (Regs/TB, SMem/TB, Iters/thread, TB/SM) a run reports;
//! * the paper's Table II prints that declared profile at the full dataset
//!   shapes, and the full-shape figures take their grids from
//!   [`plane_grid`] and [`ssim_grid`].
//!
//! Every declaration is O(1) in the shape — no loop over blocks, planes or
//! tiles — because the plan verifier and the job pricer evaluate them per
//! request. Declared counters equal a real launch's counters field for
//! field; the one data-dependent charge, the histogram pass's special ops
//! (one division per non-zero original value), is declared at its upper
//! bound. The tests pin every declaration of a real kernel to its launch.

use crate::acc::{P1Scalars, WindowMoments};
use crate::p1::{hist_resources, scalar_resources, ABSORB_FLOPS, P1_WARPS};
use crate::p2::{stencil_resources, AC_FLOPS, DERIV_FLOPS, TILE};
use crate::p3::{ssim_resources, SsimParams, SCORE_FLOPS, Y_NUM};
use zc_gpusim::{Counters, KernelClass, KernelResources, WARP};
use zc_tensor::Shape;

/// One declared kernel launch: the counters the simulator will charge, the
/// grid and resources it runs with, and its cost-model class.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Launch {
    /// Exact counters of the launch (histogram special ops: upper bound).
    pub counters: Counters,
    /// Grid size in thread blocks.
    pub grid: usize,
    /// Kernel resource declaration (drives occupancy).
    pub resources: KernelResources,
    /// Cost-model class.
    pub class: KernelClass,
}

/// Grid of the plane-per-block kernels (pattern 1, pattern 2 and their
/// metric-oriented counterparts): one block per z plane × the 4th dimension.
pub fn plane_grid(shape: Shape) -> usize {
    shape.nz() * shape.nw()
}

/// The window geometry of an SSIM launch (the moment constants and the
/// data range do not change its charge).
fn ssim_window(wsize: usize, step: usize) -> SsimParams {
    SsimParams {
        wsize,
        step,
        ..SsimParams::paper_defaults(1.0)
    }
}

/// Grid of the SSIM kernel: one block per `Y_NUM` window rows × the 4th
/// dimension.
pub fn ssim_grid(shape: Shape, wsize: usize, step: usize) -> usize {
    let p = ssim_window(wsize, step);
    let wy = p.positions_with(shape.ny(), p.sides(shape.ndim())[1]);
    wy.div_ceil(Y_NUM).max(1) * shape.nw()
}

/// `Σ_{t < count} min(cap, b − step·t)` in closed form — the extents of a
/// strided walk clipped at a tile or warp width. Requires `b ≥ step·(count−1)`.
fn sum_min(cap: u64, b: u64, step: u64, count: u64) -> u64 {
    // Terms with b − step·t ≥ cap are clipped: t ≤ (b − cap) / step.
    let clipped = if b >= cap {
        ((b - cap) / step + 1).min(count)
    } else {
        0
    };
    let rest = count - clipped;
    if rest == 0 {
        return cap * clipped;
    }
    // Σ_{t=clipped}^{count−1} (b − step·t).
    cap * clipped + rest * b - step * ((clipped + count - 1) * rest / 2)
}

/// Lanes of the pattern-1 row walk that fall past the end of the field:
/// warp reads start at `r·nx + 32c` for each of `rows` rows and each chunk
/// `c`, and a read stops at the end of the array, not of the row.
fn lane_shortfall(nx: u64, rows: u64) -> u64 {
    let w = WARP as u64;
    if nx >= w {
        // Only the last row's last read reaches the end.
        (w - nx % w) % w
    } else {
        // One read per row; the read k rows from the end sees k·nx values.
        let k = ((w - 1) / nx).min(rows);
        w * k - nx * k * (k + 1) / 2
    }
}

/// Pattern-1 fused scalar sweep ([`crate::P1FusedKernel`]): both fields
/// stream through once in 32-lane row reads, each warp folds its lanes with
/// shuffle trees, and a cooperative fold reads the block partials back.
pub fn p1_scalars(shape: Shape) -> Launch {
    let (nx, ny) = (shape.nx() as u64, shape.ny() as u64);
    let grid = plane_grid(shape) as u64;
    let (q, w, warps) = (P1Scalars::QUANTITIES, WARP as u64, P1_WARPS as u64);
    let chunks = nx.div_ceil(w);
    let rows = ny * grid;
    let reads = rows * chunks; // warp reads per field
    let partials = grid * q * 8;
    Launch {
        counters: Counters {
            global_read_bytes: 2 * 4 * (w * reads - lane_shortfall(nx, rows)) + partials,
            global_write_bytes: partials,
            shared_accesses: grid * 2 * warps * q,
            lane_flops: reads * ABSORB_FLOPS * w + grid * warps * 5 * q * w + grid * q,
            special_ops: reads * w,
            shuffles: grid * (5 * warps + 3) * q,
            syncs: grid,
            launches: 1,
            grid_syncs: 1,
            iters_per_thread: chunks * ny.div_ceil(warps),
            ..Counters::default()
        },
        grid: grid as usize,
        resources: scalar_resources(),
        class: KernelClass::GlobalReduction,
    }
}

/// Pattern-1 histogram sweep ([`crate::P1HistKernel`]): one more pass over
/// both fields binning three histograms through shared-memory atomics.
/// Special ops (the pointwise-relative division, one per non-zero original
/// value) are declared at their bound, one per element.
pub fn p1_hist(shape: Shape, bins: usize) -> Launch {
    let n = shape.len() as u64;
    let grid = plane_grid(shape) as u64;
    let partials = grid * 3 * bins as u64 * 4;
    Launch {
        counters: Counters {
            global_read_bytes: 8 * n + partials,
            global_write_bytes: partials,
            shared_accesses: 3 * n,
            lane_flops: 10 * n + grid * 3 * bins as u64,
            special_ops: n,
            syncs: grid,
            launches: 1,
            grid_syncs: 1,
            iters_per_thread: (shape.slab_len() as u64).div_ceil((WARP * P1_WARPS) as u64),
            ..Counters::default()
        },
        grid: grid as usize,
        resources: hist_resources(bins),
        class: KernelClass::GlobalReduction,
    }
}

/// The progressive prepass's strided gather over `sampled` elements: the
/// fused pattern-1 kernel, one sampled element per thread. A strided read
/// pulls whole 32-byte sectors, so the wasted bandwidth grows with the
/// stride up to the 8-element sector width. Modeled only — the prepass
/// values come from a shared host scan — so no test pins it to a launch.
pub fn p1_gather(sampled: u64, stride: usize) -> Launch {
    let waste = stride.clamp(1, 8) as u64;
    let resources = scalar_resources();
    Launch {
        counters: Counters {
            global_read_bytes: 8 * sampled * waste,
            lane_flops: 30 * sampled,
            launches: 1,
            ..Counters::default()
        },
        grid: (sampled as usize)
            .div_ceil(resources.threads_per_block as usize)
            .max(1),
        resources,
        class: KernelClass::GlobalReduction,
    }
}

/// One pattern-2 stencil launch of the cuZC coordinator
/// ([`crate::P2FusedKernel`] at gap `stride`, derivatives fused into the
/// stride-1 launch): each active plane stages its tiles' slices once
/// (sliding-tile halo reuse along x) and computes every interior point.
pub fn p2_stencil(shape: Shape, stride: usize, max_lag: usize) -> Launch {
    let ndim = shape.ndim();
    let [nx, ny, nz, nw] = [shape.nx(), shape.ny(), shape.nz(), shape.nw()].map(|v| v as u64);
    let (tau, derivatives) = (stride as u64, stride == 1);
    let grid = plane_grid(shape) as u64;
    let tile = TILE as u64;
    let wdt = tile + 1 + tau.max(1);
    // Planes per 4th-dimension step: a block is active when z + τ is in
    // range (autocorrelation), derivatives need an interior plane; 1-D/2-D
    // fields have one, always active, plane.
    let (active, deriv_planes, slices) = if ndim >= 3 {
        let a = nz.saturating_sub(tau);
        // Staged slices over the active planes: z itself, z+τ (always in
        // range) and, on the derivative launch, z−1 (τ = 1: z+1 = z+τ).
        let s = if derivatives {
            2 * a + a.saturating_sub(1)
        } else {
            2 * a
        };
        (a, nz.saturating_sub(2), s)
    } else {
        (nz, nz, nz)
    };
    let offsets = if ndim < 3 {
        1
    } else if derivatives {
        3
    } else {
        2
    };
    let active_blocks = active * nw;
    let (tiles_x, tiles_y) = (nx.div_ceil(tile), ny.div_ceil(tile));
    // Staged extents summed over the tiles (the low halo is clipped on the
    // first tile of each axis); fresh columns are everything for a row's
    // first tile and at most TILE afterwards.
    let rows = sum_min(wdt, ny + 1, tile, tiles_y) - 1;
    let cols = sum_min(wdt, nx + 1, tile, tiles_x) - 1;
    let fresh = wdt.min(nx + 1) - 1 + sum_min(tile, nx + 1, tile, tiles_x) - tile.min(nx + 1);
    let staged = slices * nw * rows;
    // Interior points per plane.
    let interior_y = |lo: u64| if ndim >= 2 { ny.saturating_sub(lo) } else { ny };
    let n_deriv = if derivatives {
        nx.saturating_sub(2) * interior_y(2) * deriv_planes * nw
    } else {
        0
    };
    let n_ac = nx.saturating_sub(tau) * interior_y(tau) * active * nw;
    let axes = ndim.min(3) as u64;
    let words = 10 + 2 * max_lag as u64;
    Launch {
        counters: Counters {
            global_read_bytes: 8 * staged * fresh + grid * words * 8,
            global_write_bytes: active_blocks * words * 8,
            shared_accesses: 2 * staged * cols
                + n_deriv * 2 * (4 * axes + 1)
                + n_ac * 2 * (1 + axes),
            lane_flops: n_deriv * DERIV_FLOPS + n_ac * AC_FLOPS + grid * words,
            special_ops: 2 * n_deriv,
            syncs: active_blocks * 2 * tiles_x * tiles_y,
            launches: 1,
            grid_syncs: 1,
            iters_per_thread: if active_blocks > 0 {
                tiles_x * tiles_y * (offsets + 1)
            } else {
                0
            },
            ..Counters::default()
        },
        grid: grid as usize,
        resources: stencil_resources(stride),
        class: KernelClass::Stencil,
    }
}

/// Pattern-3 sliding-window SSIM with the shared FIFO
/// ([`crate::SsimFusedKernel`]): each block sweeps its window rows across x
/// in 32-lane steps and down z, reading every slice once, and folds a
/// window every `step` slices.
pub fn p3_ssim(shape: Shape, wsize: usize, step: usize) -> Launch {
    let grid = ssim_grid(shape, wsize, step);
    let (nx, nz, nw) = (shape.nx(), shape.nz(), shape.nw() as u64);
    let p = ssim_window(wsize, step);
    let [_, wy, wz] = p.sides(shape.ndim());
    let y_pos = p.positions_with(shape.ny(), wy) as u64;
    // The cooperative grid fold; every other charge needs a window to fit.
    let mut counters = Counters {
        global_read_bytes: grid as u64 * 16,
        lane_flops: grid as u64 * 2,
        launches: 1,
        grid_syncs: 1,
        ..Counters::default()
    };
    if y_pos > 0 && nx >= wsize && nz >= wz && (2..=WARP).contains(&wsize) {
        let (w, st, q) = (wsize as u64, step as u64, WindowMoments::QUANTITIES);
        let (nx, nz, wy, wz) = (nx as u64, nz as u64, wy as u64, wz as u64);
        let wins_per_sweep = (WARP as u64 - w) / st + 1;
        let adv = wins_per_sweep * st;
        let sweeps = (nx - w) / adv + 1;
        let x_wins = p.positions(nx as usize) as u64;
        let lanes = sum_min(WARP as u64, nx, adv, sweeps);
        // Per 4th-dimension step: window rows and staged rows over the
        // blocks (the last block may hold fewer than Y_NUM window rows).
        let blocks = y_pos.div_ceil(Y_NUM as u64);
        let rows = ((y_pos - blocks) * st + blocks * wy) * nw;
        let y_wins = y_pos * nw;
        let folds = (nz - wz) / st + 1;
        let row_ops = nz * rows * sweeps;
        counters.global_read_bytes += nz * rows * 8 * lanes;
        counters.global_write_bytes += 16 * blocks * nw;
        counters.lane_flops += row_ops * (3 * WARP as u64 + (w - 1) * q * WARP as u64)
            + nz * y_wins * x_wins * q * wy
            + folds * y_wins * x_wins * (q * wz + SCORE_FLOPS);
        counters.shuffles += row_ops * (w - 1) * q;
        counters.shared_accesses +=
            nz * x_wins * q * (rows + y_wins) + folds * y_wins * q * wz * x_wins;
        counters.syncs += nz * sweeps * blocks * nw;
        counters.special_ops += 2 * folds * y_wins * x_wins;
        counters.iters_per_thread = sweeps * nz;
    }
    Launch {
        counters,
        grid,
        resources: ssim_resources(wsize, step, true),
        class: KernelClass::SlidingWindow,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        FieldPair, P1FusedKernel, P1HistKernel, P2FusedKernel, SsimFusedKernel, SsimParams,
    };
    use zc_gpusim::{BlockKernel, GpuSim, LaunchResult};
    use zc_tensor::Tensor;

    fn pair(shape: Shape) -> (Tensor<f32>, Tensor<f32>) {
        let orig: Vec<f32> = (0..shape.len()).map(|i| (i as f32 * 0.37).sin()).collect();
        let dec: Vec<f32> = orig.iter().map(|v| v + 1e-3).collect();
        (
            Tensor::from_vec(shape, orig).unwrap(),
            Tensor::from_vec(shape, dec).unwrap(),
        )
    }

    /// Deep enough along z for the window-8 SSIM scan to slide, plus the
    /// reduced-dimension and narrow-x edge cases.
    fn shapes() -> [Shape; 6] {
        [
            Shape::d3(24, 20, 12),
            Shape::d3(7, 5, 3),
            Shape::d1(45),
            Shape::d2(33, 18),
            Shape::d4(17, 9, 5, 3),
            Shape::d3(40, 12, 6),
        ]
    }

    /// A real launch charges exactly the declared counters on the declared
    /// grid; the histogram's special ops sit at or under their bound.
    fn check<K: BlockKernel>(
        sim: &GpuSim,
        k: &K,
        grid: usize,
        d: Launch,
    ) -> LaunchResult<K::Output> {
        assert_eq!(grid, d.grid);
        assert_eq!(k.resources(), d.resources);
        assert_eq!(k.class(), d.class);
        let r = sim.launch(k, grid);
        let measured = Counters {
            special_ops: d.counters.special_ops,
            ..r.counters
        };
        assert_eq!(measured, d.counters);
        assert!(r.counters.special_ops <= d.counters.special_ops);
        r
    }

    #[test]
    fn p1_scalars_declaration_matches_launch() {
        let sim = GpuSim::v100();
        for shape in shapes() {
            let (orig, dec) = pair(shape);
            let k = P1FusedKernel {
                fields: FieldPair::new(&orig, &dec),
            };
            let r = check(&sim, &k, k.grid(), p1_scalars(shape));
            assert_eq!(
                r.counters.special_ops,
                p1_scalars(shape).counters.special_ops
            );
        }
    }

    #[test]
    fn p1_hist_declaration_matches_launch() {
        let sim = GpuSim::v100();
        for shape in shapes() {
            let (orig, dec) = pair(shape);
            let fields = FieldPair::new(&orig, &dec);
            let p1 = P1FusedKernel { fields };
            let scalars = sim.launch(&p1, p1.grid()).output;
            let k = P1HistKernel {
                fields,
                scalars,
                bins: 32,
            };
            check(&sim, &k, k.grid(), p1_hist(shape, 32));
        }
    }

    #[test]
    fn p2_stencil_declaration_matches_launches() {
        let sim = GpuSim::v100();
        for shape in shapes() {
            let (orig, dec) = pair(shape);
            let fields = FieldPair::new(&orig, &dec);
            let p1 = P1FusedKernel { fields };
            let scalars = sim.launch(&p1, p1.grid()).output;
            let max_lag = 4;
            for stride in 1..=max_lag {
                let k = P2FusedKernel {
                    fields,
                    stride,
                    mean_e: scalars.mean_e(),
                    max_lag,
                };
                let r = check(&sim, &k, k.grid(), p2_stencil(shape, stride, max_lag));
                assert_eq!(
                    r.counters.special_ops,
                    p2_stencil(shape, stride, max_lag).counters.special_ops
                );
            }
        }
    }

    #[test]
    fn p3_ssim_declaration_matches_launch() {
        let sim = GpuSim::v100();
        for shape in shapes() {
            let (orig, dec) = pair(shape);
            let fields = FieldPair::new(&orig, &dec);
            let p1 = P1FusedKernel { fields };
            let scalars = sim.launch(&p1, p1.grid()).output;
            for (wsize, step) in [(8, 1), (4, 2), (7, 3)] {
                let params = SsimParams {
                    wsize,
                    step,
                    ..SsimParams::paper_defaults(scalars.value_range())
                };
                let k = SsimFusedKernel {
                    fields,
                    params,
                    fifo_in_shared: true,
                };
                let r = check(&sim, &k, k.grid(), p3_ssim(shape, wsize, step));
                assert_eq!(
                    r.counters.special_ops,
                    p3_ssim(shape, wsize, step).counters.special_ops
                );
            }
        }
    }

    #[test]
    fn sum_min_matches_the_walk_it_closes() {
        for cap in [1u64, 16, 19, 32] {
            for step in [1u64, 5, 16, 24] {
                for count in 0u64..6 {
                    for b in step * count.saturating_sub(1)..step * count + 40 {
                        let walk: u64 = (0..count).map(|t| cap.min(b - step * t)).sum();
                        assert_eq!(
                            sum_min(cap, b, step, count),
                            walk,
                            "{cap} {b} {step} {count}"
                        );
                    }
                }
            }
        }
    }
}
