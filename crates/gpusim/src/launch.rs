//! Kernel launching: parallel functional execution + cost assembly.
//!
//! Every launch runs through one block loop, [`GpuSim::launch_tiled`]: a
//! plain [`GpuSim::launch`] is its one-slab case.

use crate::block::BlockCtx;
use crate::cost::{gpu_time, GpuCalib, ModeledTime};
use crate::counters::Counters;
use crate::occupancy::{occupancy, KernelResources, Occupancy};
use crate::sanitizer::{self, SanitizeReport};
use crate::spec::DeviceSpec;

/// The computational-pattern class of a kernel (Table I of the paper),
/// selecting the calibrated achieved-efficiency band in the cost model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelClass {
    /// Pattern 1: global reductions.
    GlobalReduction,
    /// Pattern 2: stencil-like (shared-memory cubes).
    Stencil,
    /// Pattern 3: sliding-window (SSIM).
    SlidingWindow,
    /// Anything else.
    Generic,
}

/// A simulated CUDA kernel.
///
/// `run_block` executes one thread block's work (called once per block in
/// the grid, in parallel, each with a private [`BlockCtx`]); `finalize`
/// models the cooperative-grid phase that folds per-block partials (the
/// `cg::sync(grid)` + block-0 loop of the paper's Algorithm 1).
pub trait BlockKernel: Sync {
    /// Per-block result type.
    type Partial: Send;
    /// Final kernel output.
    type Output;

    /// Kernel name used in sanitizer diagnostics and trace output.
    fn name(&self) -> &'static str {
        "unnamed-kernel"
    }

    /// Compile-time resource usage (drives occupancy — Table II).
    fn resources(&self) -> KernelResources;

    /// Pattern class for the cost model.
    fn class(&self) -> KernelClass;

    /// Whether the kernel uses cooperative-groups grid sync (true, as in
    /// cuZC's pattern-1) or needs a second launch for the final fold
    /// (false — the moZC/CUB style).
    fn cooperative(&self) -> bool {
        true
    }

    /// Execute one thread block.
    fn run_block(&self, block_idx: usize, ctx: &mut BlockCtx) -> Self::Partial;

    /// Fold the per-block partials (grid-level reduction phase).
    fn finalize(&self, ctx: &mut BlockCtx, partials: Vec<Self::Partial>) -> Self::Output;
}

// A reference to a kernel is itself a kernel, so adapters (e.g. a
// reference-path wrapper) can borrow instead of consuming the kernel.
impl<K: BlockKernel> BlockKernel for &K {
    type Partial = K::Partial;
    type Output = K::Output;

    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn resources(&self) -> KernelResources {
        (**self).resources()
    }

    fn class(&self) -> KernelClass {
        (**self).class()
    }

    fn cooperative(&self) -> bool {
        (**self).cooperative()
    }

    fn run_block(&self, block_idx: usize, ctx: &mut BlockCtx) -> Self::Partial {
        (**self).run_block(block_idx, ctx)
    }

    fn finalize(&self, ctx: &mut BlockCtx, partials: Vec<Self::Partial>) -> Self::Output {
        (**self).finalize(ctx, partials)
    }
}

/// Result of a simulated launch.
#[derive(Clone, Debug)]
pub struct LaunchResult<O> {
    /// The kernel's functional output.
    pub output: O,
    /// Merged execution counters.
    pub counters: Counters,
    /// Occupancy achieved by the kernel's resource declaration.
    pub occupancy: Occupancy,
    /// Grid size used.
    pub grid_blocks: usize,
    /// Modeled execution time.
    pub modeled: ModeledTime,
}

/// One slab's share of a tiled launch (see [`GpuSim::launch_tiled`]): the
/// contiguous block range it covered, the counters charged to it, and its
/// modeled seconds. Merging every slab's counters reproduces the monolithic
/// launch counters **exactly** — the launch fee is attributed to the first
/// slab, the grid-fold (finalize) charges and the cooperative sync (or
/// second launch) to the last.
#[derive(Clone, Debug)]
pub struct TileCharge {
    /// First block of this slab's contiguous block range.
    pub block_start: usize,
    /// Number of blocks in the range.
    pub blocks: usize,
    /// Counters charged to this slab.
    pub counters: Counters,
    /// Modeled seconds for this slab, priced at the full grid's
    /// utilization: tiled execution models a persistent stream pipeline
    /// whose slab launches are enqueued back-to-back, so the device stays
    /// at steady state between slabs instead of draining.
    pub seconds: f64,
}

/// The simulated GPU device.
#[derive(Clone, Debug)]
pub struct GpuSim {
    /// Hardware description.
    pub dev: DeviceSpec,
    /// Cost-model calibration.
    pub calib: GpuCalib,
}

impl GpuSim {
    /// A V100 with default calibration (the paper's platform).
    pub fn v100() -> Self {
        GpuSim {
            dev: DeviceSpec::v100(),
            calib: GpuCalib::default(),
        }
    }

    /// Launch `kernel` over `grid_blocks` thread blocks: the one-slab case
    /// of [`GpuSim::launch_tiled`], with the single slab's charge dropped.
    ///
    /// Blocks run in parallel (functionally exact; block interleaving
    /// cannot be observed because cross-block communication happens only at
    /// the finalize phase). Counters are merged across blocks; the modeled
    /// time is assembled from the merged counters, the occupancy result and
    /// the grid geometry.
    ///
    /// When the sanitizer is globally enabled ([`sanitizer::set_enabled`] or
    /// `ZC_SANITIZE=1`) the launch runs checked and publishes its
    /// [`SanitizeReport`] to the global sink ([`sanitizer::drain`]);
    /// sanitized execution is observation-only, so the returned result is
    /// bit-identical either way.
    pub fn launch<K: BlockKernel>(
        &self,
        kernel: &K,
        grid_blocks: usize,
    ) -> LaunchResult<K::Output> {
        self.launch_tiled(kernel, grid_blocks, 1).0
    }

    /// Launch `kernel` in checked (sanitized) mode regardless of the global
    /// switch, returning the structured diagnostics alongside the result.
    /// The report is **not** published to the global sink.
    pub fn launch_checked<K: BlockKernel>(
        &self,
        kernel: &K,
        grid_blocks: usize,
    ) -> (LaunchResult<K::Output>, SanitizeReport) {
        let (result, _, report) = self.launch_tiled_checked(kernel, grid_blocks, 1);
        (result, report)
    }

    /// Launch `kernel` as `slabs` contiguous block ranges that stream
    /// through the device in ascending order (z-slab tiling: one block per
    /// z-plane in the P1/P2 grids, so a block range *is* a plane slab).
    ///
    /// Functionally this is the same launch — partials are collected in
    /// global block order and folded by one deferred finalize — so the
    /// output, merged counters and modeled time of the returned
    /// [`LaunchResult`] are bit-identical to [`GpuSim::launch`]. The extra
    /// [`TileCharge`] vector splits the charge per slab for the stream
    /// timeline: per-slab counters (launch fee on the first slab, the
    /// finalize and sync on the last) and per-slab seconds priced at the
    /// full grid's steady-state utilization.
    ///
    /// `slabs` is clamped to `[1, grid_blocks]`; degenerate requests
    /// (1-block grid, slab count ≥ grid) collapse to sensible tilings.
    pub fn launch_tiled<K: BlockKernel>(
        &self,
        kernel: &K,
        grid_blocks: usize,
        slabs: usize,
    ) -> (LaunchResult<K::Output>, Vec<TileCharge>) {
        let (result, tiles, report) =
            self.launch_tiled_impl(kernel, grid_blocks, slabs, sanitizer::enabled());
        if let Some(report) = report {
            sanitizer::publish(&report);
        }
        (result, tiles)
    }

    /// [`GpuSim::launch_tiled`] in checked (sanitized) mode regardless of
    /// the global switch. On top of the per-block shadow audit (fresh
    /// shadow state per block, so state resets between slabs by
    /// construction), the tiled path cross-checks that merging the
    /// per-slab charges reproduces the independently accumulated monolithic
    /// charge — a broken slab-attribution would surface as a
    /// [`Hazard::ChargeMismatch`](crate::Hazard::ChargeMismatch).
    pub fn launch_tiled_checked<K: BlockKernel>(
        &self,
        kernel: &K,
        grid_blocks: usize,
        slabs: usize,
    ) -> (LaunchResult<K::Output>, Vec<TileCharge>, SanitizeReport) {
        let (result, tiles, report) = self.launch_tiled_impl(kernel, grid_blocks, slabs, true);
        (
            result,
            tiles,
            report.expect("sanitized launch always yields a report"),
        )
    }

    fn launch_tiled_impl<K: BlockKernel>(
        &self,
        kernel: &K,
        grid_blocks: usize,
        slabs: usize,
        sanitize: bool,
    ) -> (
        LaunchResult<K::Output>,
        Vec<TileCharge>,
        Option<SanitizeReport>,
    ) {
        assert!(grid_blocks > 0, "empty grid");
        let slabs = slabs.clamp(1, grid_blocks);
        let smem = kernel.resources().smem_per_block;
        type Verdict = Option<(Vec<sanitizer::Diag>, u64)>;
        let mut report = sanitize.then(|| SanitizeReport {
            kernel: kernel.name().to_string(),
            grid_blocks,
            ..Default::default()
        });
        let mut partials = Vec::with_capacity(grid_blocks);
        let mut tiles: Vec<TileCharge> = Vec::with_capacity(slabs);
        // Independent accumulation of the whole-grid charge, cross-checked
        // against the per-slab charges below.
        let mut audit = Counters {
            launches: 1,
            ..Default::default()
        };

        // Even contiguous split: the first `rem` slabs are one block longer.
        let base = grid_blocks / slabs;
        let rem = grid_blocks % slabs;
        let mut start = 0usize;
        for s in 0..slabs {
            let len = base + usize::from(s < rem);
            let mut results: Vec<(Counters, K::Partial, Verdict)> = zc_par::par_map(len, |i| {
                let b = start + i;
                let mut ctx = if sanitize {
                    BlockCtx::sanitized(Some(b), smem)
                } else {
                    BlockCtx::new()
                };
                let partial = kernel.run_block(b, &mut ctx);
                // Under the sanitizer the footprint check is a structured
                // SmemOverflow diagnostic emitted at shared_alloc time.
                if !sanitize {
                    debug_assert!(
                        ctx.shared_bytes() <= smem as usize,
                        "block used {} shared bytes but declared {smem}",
                        ctx.shared_bytes(),
                    );
                }
                let verdict = ctx.finish_sanitize();
                (ctx.counters, partial, verdict)
            });
            let mut tc = Counters::default();
            if s == 0 {
                // The slab that opens the stream pays the launch fee.
                tc.launches = 1;
            }
            for (c, p, verdict) in results.drain(..) {
                tc.merge(&c);
                audit.merge(&c);
                partials.push(p);
                if let (Some(r), Some((diags, suppressed))) = (report.as_mut(), verdict) {
                    r.diags.extend(diags);
                    r.suppressed += suppressed;
                }
            }
            tiles.push(TileCharge {
                block_start: start,
                blocks: len,
                counters: tc,
                seconds: 0.0,
            });
            start += len;
        }

        // Grid-level fold runs once, after the last slab; partials are in
        // global block order, so the fold sees exactly what a monolithic
        // launch would. Its charges land on the last slab.
        let mut fctx = if sanitize {
            BlockCtx::sanitized(None, smem)
        } else {
            BlockCtx::new()
        };
        let output = kernel.finalize(&mut fctx, partials);
        let fverdict = fctx.finish_sanitize();
        audit.merge(&fctx.counters);
        if let (Some(r), Some((diags, suppressed))) = (report.as_mut(), fverdict) {
            r.diags.extend(diags);
            r.suppressed += suppressed;
        }
        let last = tiles.last_mut().expect("slabs >= 1");
        last.counters.merge(&fctx.counters);
        if kernel.cooperative() {
            last.counters.grid_syncs += 1;
            audit.grid_syncs += 1;
        } else {
            last.counters.launches += 1;
            audit.launches += 1;
        }

        let occ = occupancy(&self.dev, &kernel.resources());
        for t in tiles.iter_mut() {
            // Full-grid utilization, the slab's own traffic and overheads.
            t.seconds = gpu_time(
                &self.dev,
                &self.calib,
                &t.counters,
                &occ,
                grid_blocks,
                kernel.class(),
            )
            .total_s;
        }

        // Per-slab charge audit: the slab charges must re-merge to the
        // monolithic charge accumulated independently above.
        let counters = Counters::merged(tiles.iter().map(|t| &t.counters));
        if counters != audit {
            if let Some(r) = report.as_mut() {
                r.diags.push(sanitizer::Diag {
                    hazard: crate::sanitizer::Hazard::ChargeMismatch,
                    block: None,
                    warp: None,
                    epoch: 0,
                    buf: None,
                    index: None,
                    detail: format!(
                        "tiled launch: merged per-slab charges disagree with \
                         the monolithic charge ({slabs} slabs over {grid_blocks} blocks)"
                    ),
                });
            }
            debug_assert!(
                false,
                "tiled charge attribution lost or double-counted work"
            );
        }

        let modeled = gpu_time(
            &self.dev,
            &self.calib,
            &counters,
            &occ,
            grid_blocks,
            kernel.class(),
        );
        (
            LaunchResult {
                output,
                counters,
                occupancy: occ,
                grid_blocks,
                modeled,
            },
            tiles,
            report,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lanes::{Lanes, WARP};

    /// Toy kernel: each block sums a contiguous chunk of the input via a
    /// warp shuffle tree, then finalize folds the per-block sums.
    struct ChunkSum<'a> {
        data: &'a [f32],
        chunk: usize,
    }

    impl BlockKernel for ChunkSum<'_> {
        type Partial = f64;
        type Output = f64;

        fn resources(&self) -> KernelResources {
            KernelResources {
                regs_per_thread: 24,
                smem_per_block: 128,
                threads_per_block: 32,
            }
        }

        fn class(&self) -> KernelClass {
            KernelClass::GlobalReduction
        }

        fn run_block(&self, b: usize, ctx: &mut BlockCtx) -> f64 {
            let start = b * self.chunk;
            let end = ((b + 1) * self.chunk).min(self.data.len());
            let mut acc = Lanes::<f64>::splat(0.0);
            let mut i = start;
            while i < end {
                let lanes = ctx.g_read_lanes(self.data, i, 1, 0.0);
                // Guard the tail: lanes beyond `end` must not contribute.
                let valid = end - i;
                acc = Lanes::from_fn(|l| {
                    acc.lane(l) + if l < valid { lanes.lane(l) as f64 } else { 0.0 }
                });
                ctx.warp_op();
                ctx.note_iters(1);
                i += WARP;
            }
            let mut offset = WARP / 2;
            while offset > 0 {
                let sh = ctx.shfl_down(&acc, u32::MAX, offset);
                acc = acc.zip_with(&sh, |a, b| a + b);
                ctx.warp_op();
                offset /= 2;
            }
            acc.lane(0)
        }

        fn finalize(&self, ctx: &mut BlockCtx, partials: Vec<f64>) -> f64 {
            ctx.flops(partials.len() as u64);
            partials.into_iter().sum()
        }
    }

    #[test]
    fn functional_result_is_exact() {
        let data: Vec<f32> = (0..10_000).map(|i| (i % 7) as f32).collect();
        let expect: f64 = data.iter().map(|&v| v as f64).sum();
        let sim = GpuSim::v100();
        let k = ChunkSum {
            data: &data,
            chunk: 1024,
        };
        let r = sim.launch(&k, data.len().div_ceil(1024));
        assert_eq!(r.output, expect);
    }

    #[test]
    fn counters_match_expected_traffic() {
        let data: Vec<f32> = vec![1.0; 4096];
        let sim = GpuSim::v100();
        let k = ChunkSum {
            data: &data,
            chunk: 1024,
        };
        let r = sim.launch(&k, 4);
        // Every element read exactly once.
        assert_eq!(r.counters.global_read_bytes, 4096 * 4);
        // 5 shuffle steps per block.
        assert_eq!(r.counters.shuffles, 4 * 5);
        assert_eq!(r.counters.launches, 1);
        assert_eq!(r.counters.grid_syncs, 1);
        // 1024/32 = 32 sequential iterations per thread.
        assert_eq!(r.counters.iters_per_thread, 32);
    }

    #[test]
    fn launch_is_deterministic_despite_parallelism() {
        let data: Vec<f32> = (0..50_000).map(|i| (i as f32 * 0.001).sin()).collect();
        let sim = GpuSim::v100();
        let k = ChunkSum {
            data: &data,
            chunk: 2048,
        };
        let r1 = sim.launch(&k, data.len().div_ceil(2048));
        let r2 = sim.launch(&k, data.len().div_ceil(2048));
        assert_eq!(r1.output, r2.output);
        assert_eq!(r1.counters, r2.counters);
        assert_eq!(r1.modeled.total_s, r2.modeled.total_s);
    }

    #[test]
    fn modeled_time_is_positive_and_bounded() {
        let data: Vec<f32> = vec![0.5; 1 << 20];
        let sim = GpuSim::v100();
        let k = ChunkSum {
            data: &data,
            chunk: 4096,
        };
        let r = sim.launch(&k, data.len() / 4096);
        assert!(r.modeled.total_s > 0.0);
        // 4 MiB cannot take longer than a millisecond on a V100 model.
        assert!(r.modeled.total_s < 1e-3, "{}", r.modeled.total_s);
    }

    #[test]
    fn non_cooperative_kernel_pays_second_launch() {
        struct NonCoop<'a>(ChunkSum<'a>);
        impl BlockKernel for NonCoop<'_> {
            type Partial = f64;
            type Output = f64;
            fn resources(&self) -> KernelResources {
                self.0.resources()
            }
            fn class(&self) -> KernelClass {
                KernelClass::GlobalReduction
            }
            fn cooperative(&self) -> bool {
                false
            }
            fn run_block(&self, b: usize, ctx: &mut BlockCtx) -> f64 {
                self.0.run_block(b, ctx)
            }
            fn finalize(&self, ctx: &mut BlockCtx, p: Vec<f64>) -> f64 {
                self.0.finalize(ctx, p)
            }
        }
        let data: Vec<f32> = vec![1.0; 8192];
        let sim = GpuSim::v100();
        let coop = sim.launch(
            &ChunkSum {
                data: &data,
                chunk: 1024,
            },
            8,
        );
        let non = sim.launch(
            &NonCoop(ChunkSum {
                data: &data,
                chunk: 1024,
            }),
            8,
        );
        assert_eq!(coop.counters.launches, 1);
        assert_eq!(coop.counters.grid_syncs, 1);
        assert_eq!(non.counters.launches, 2);
        assert_eq!(non.counters.grid_syncs, 0);
        assert_eq!(coop.output, non.output);
    }

    #[test]
    fn tiled_launch_is_bit_identical_and_charges_sum() {
        let data: Vec<f32> = (0..50_000).map(|i| (i as f32 * 0.01).cos()).collect();
        let sim = GpuSim::v100();
        let k = ChunkSum {
            data: &data,
            chunk: 1024,
        };
        let grid = data.len().div_ceil(1024);
        let mono = sim.launch(&k, grid);
        for slabs in [1usize, 3, 7, grid, grid + 5] {
            let (tiled, tiles) = sim.launch_tiled(&k, grid, slabs);
            assert_eq!(
                mono.output.to_bits(),
                tiled.output.to_bits(),
                "slabs {slabs}"
            );
            assert_eq!(mono.counters, tiled.counters, "slabs {slabs}");
            assert_eq!(mono.modeled.total_s, tiled.modeled.total_s, "slabs {slabs}");
            assert_eq!(tiles.len(), slabs.min(grid));
            assert_eq!(tiles.iter().map(|t| t.blocks).sum::<usize>(), grid);
            assert_eq!(
                Counters::merged(tiles.iter().map(|t| &t.counters)),
                mono.counters,
                "slabs {slabs}: per-slab charges must re-merge to monolithic"
            );
            // Contiguous ascending coverage.
            let mut next = 0;
            for t in &tiles {
                assert_eq!(t.block_start, next);
                assert!(t.blocks > 0);
                assert!(t.seconds > 0.0);
                next += t.blocks;
            }
            // Steady-state pricing: the slab times sum to the monolithic
            // time up to per-slab roofline-bound selection — never less,
            // never wildly more.
            let sum: f64 = tiles.iter().map(|t| t.seconds).sum();
            assert!(sum >= mono.modeled.total_s * 0.999, "slabs {slabs}: {sum}");
            assert!(sum <= mono.modeled.total_s * 1.5, "slabs {slabs}: {sum}");
        }
    }

    #[test]
    fn tiled_checked_launch_is_clean_and_observation_only() {
        let data: Vec<f32> = vec![0.25; 16_384];
        let sim = GpuSim::v100();
        let k = ChunkSum {
            data: &data,
            chunk: 1024,
        };
        let grid = 16;
        let (plain, plain_tiles) = sim.launch_tiled(&k, grid, 4);
        let (checked, checked_tiles, report) = sim.launch_tiled_checked(&k, grid, 4);
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.grid_blocks, grid);
        assert_eq!(plain.output.to_bits(), checked.output.to_bits());
        assert_eq!(plain.counters, checked.counters);
        for (a, b) in plain_tiles.iter().zip(&checked_tiles) {
            assert_eq!(a.counters, b.counters);
            assert_eq!(a.seconds, b.seconds);
        }
    }

    #[test]
    fn checked_launch_is_observation_only_and_clean() {
        let data: Vec<f32> = (0..10_000).map(|i| ((i % 13) as f32).cos()).collect();
        let sim = GpuSim::v100();
        let k = ChunkSum {
            data: &data,
            chunk: 1024,
        };
        let grid = data.len().div_ceil(1024);
        let plain = sim.launch(&k, grid);
        let (checked, report) = sim.launch_checked(&k, grid);
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.grid_blocks, grid);
        assert_eq!(plain.output.to_bits(), checked.output.to_bits());
        assert_eq!(plain.counters, checked.counters);
        assert_eq!(plain.modeled.total_s, checked.modeled.total_s);
    }

    #[test]
    fn globally_enabled_sanitizer_publishes_to_sink() {
        let data: Vec<f32> = vec![1.0; 2048];
        let sim = GpuSim::v100();
        let k = ChunkSum {
            data: &data,
            chunk: 1024,
        };
        sanitizer::set_enabled(true);
        let r = sim.launch(&k, 2);
        sanitizer::clear_override();
        assert_eq!(r.output, 2048.0);
        // Other tests may also publish while the override is on; just
        // require that at least this launch was checked and clean.
        let summary = sanitizer::drain();
        assert!(summary.launches_checked >= 1);
        assert!(
            summary
                .reports
                .iter()
                .all(|r| r.kernel != "unnamed-kernel" || r.is_clean()),
            "toy kernel flagged: {summary:?}"
        );
    }
}
