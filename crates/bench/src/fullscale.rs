//! Volume extrapolation of measured counters to the full paper shapes.

use zc_core::exec::PatternRun;
use zc_core::{AssessConfig, Pattern};
use zc_gpusim::cost::{gpu_time, CpuModel};
use zc_gpusim::{occupancy, Counters, GpuSim};
use zc_kernels::p3::{SsimParams, Y_NUM};
use zc_tensor::Shape;

/// Multiply the volume-linear counters by `ratio`, keeping the launch
/// structure (launch and grid-sync counts do not grow with volume).
pub fn scale_counters(c: &Counters, ratio: f64) -> Counters {
    let s = |v: u64| (v as f64 * ratio).round() as u64;
    Counters {
        global_read_bytes: s(c.global_read_bytes),
        global_write_bytes: s(c.global_write_bytes),
        global_scatter_bytes: s(c.global_scatter_bytes),
        shared_accesses: s(c.shared_accesses),
        lane_flops: s(c.lane_flops),
        special_ops: s(c.special_ops),
        shuffles: s(c.shuffles),
        ballots: s(c.ballots),
        syncs: s(c.syncs),
        launches: c.launches,
        grid_syncs: c.grid_syncs,
        iters_per_thread: c.iters_per_thread,
    }
}

/// Grid size the pattern's dominant kernel would use at `shape`.
pub fn full_grid_blocks(pattern: Pattern, shape: Shape, cfg: &AssessConfig) -> usize {
    match pattern {
        // Patterns 1 and 2 decompose along z (one block per slab/plane).
        Pattern::GlobalReduction | Pattern::Stencil => shape.nz() * shape.nw(),
        Pattern::SlidingWindow => {
            let p = SsimParams {
                wsize: cfg.ssim.window,
                step: cfg.ssim.step,
                k1: cfg.ssim.k1,
                k2: cfg.ssim.k2,
                range: 1.0,
            };
            p.positions(shape.ny()).div_ceil(Y_NUM).max(1) * shape.nw()
        }
        Pattern::CompressionMeta => 1,
    }
}

/// One pattern run as it would be at the full shape: counters scale by
/// the element-count ratio and a GPU run takes the full shape's grid, while
/// the kernel's (scale-invariant) resource declaration carries over.
pub fn full_run(
    run: &PatternRun,
    scaled_shape: Shape,
    full_shape: Shape,
    cfg: &AssessConfig,
) -> PatternRun {
    let ratio = full_shape.len() as f64 / scaled_shape.len() as f64;
    PatternRun {
        counters: scale_counters(&run.counters, ratio),
        grid_blocks: run
            .resources
            .map_or(0, |_| full_grid_blocks(run.pattern, full_shape, cfg)),
        ..run.clone()
    }
}

/// Re-model one pattern run at the full shape ([`full_run`]): a GPU run
/// is priced on its occupancy and full grid, a CPU run on the Xeon model.
pub fn remodel_full(
    run: &PatternRun,
    scaled_shape: Shape,
    full_shape: Shape,
    cfg: &AssessConfig,
    sim: &GpuSim,
    cpu: &CpuModel,
) -> f64 {
    let run = full_run(run, scaled_shape, full_shape, cfg);
    match run.resources {
        Some(res) => {
            let occ = occupancy(&sim.dev, &res);
            gpu_time(
                &sim.dev,
                &sim.calib,
                &run.counters,
                &occ,
                run.grid_blocks,
                run.class,
            )
            .total_s
        }
        None => cpu.time(&run.counters).total_s,
    }
}

/// Analytic Iters/thread of the full shape, mirroring the kernels'
/// `note_iters` bookkeeping (validated against measured counters in tests).
pub fn full_iters_per_thread(pattern: Pattern, shape: Shape, cfg: &AssessConfig) -> u64 {
    let (nx, ny, nz) = (shape.nx(), shape.ny(), shape.nz());
    match pattern {
        Pattern::GlobalReduction => (nx.div_ceil(32) * ny.div_ceil(8)) as u64,
        Pattern::Stencil => {
            // max over strides of tiles × (slices + 1); the deepest launch
            // is stride 1, which stages 3 slices (z−1, z, z+1) for the
            // fused derivatives.
            let tiles = nx.div_ceil(16) * ny.div_ceil(16);
            (tiles * (3 + 1)) as u64
        }
        Pattern::SlidingWindow => {
            let w = cfg.ssim.window;
            let step = cfg.ssim.step;
            if nx < w || nz == 0 {
                return 0;
            }
            let wins_per_iter = (32 - w) / step + 1;
            let adv = wins_per_iter * step;
            let x_iters = (nx - w) / adv + 1;
            (x_iters * nz) as u64
        }
        Pattern::CompressionMeta => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zc_core::exec::Executor;
    use zc_core::plan::DevicePlacement;
    use zc_core::CuZc;
    use zc_data::{AppDataset, GenOptions};
    use zc_gpusim::MultiGpuModel;
    use zc_tensor::Tensor;

    #[test]
    fn scaling_counters_is_linear_and_keeps_launches() {
        let c = Counters {
            global_read_bytes: 1000,
            lane_flops: 500,
            launches: 7,
            grid_syncs: 2,
            iters_per_thread: 42,
            ..Default::default()
        };
        let s = scale_counters(&c, 8.0);
        assert_eq!(s.global_read_bytes, 8000);
        assert_eq!(s.lane_flops, 4000);
        assert_eq!(s.launches, 7);
        assert_eq!(s.grid_syncs, 2);
        assert_eq!(s.iters_per_thread, 42);
    }

    #[test]
    fn full_grids_match_paper_geometry() {
        let cfg = AssessConfig::default();
        let nyx = AppDataset::Nyx.full_shape();
        assert_eq!(full_grid_blocks(Pattern::GlobalReduction, nyx, &cfg), 512);
        assert_eq!(full_grid_blocks(Pattern::Stencil, nyx, &cfg), 512);
        // 505 y-window rows / 4 per block → 127 blocks.
        assert_eq!(full_grid_blocks(Pattern::SlidingWindow, nyx, &cfg), 127);
    }

    #[test]
    fn analytic_iters_match_measured_counters() {
        // Run cuZC on a small shape and compare the per-pattern measured
        // Iters/thread with the analytic formulas.
        let shape = Shape::d3(70, 44, 18);
        let orig = Tensor::from_fn(shape, |[x, y, ..]| (x + y) as f32 * 0.1);
        let dec = orig.map(|v| v + 0.001);
        let cfg = AssessConfig::default();
        let a = CuZc::default().assess(&orig, &dec, &cfg).unwrap();
        for p in &a.profiles {
            let analytic = full_iters_per_thread(p.pattern, shape, &cfg);
            assert_eq!(
                p.iters_per_thread, analytic,
                "{:?}: measured {} analytic {}",
                p.pattern, p.iters_per_thread, analytic
            );
        }
    }

    #[test]
    fn table_ii_iters_for_paper_shapes() {
        // Miranda pattern-1 row: 12 × 48 = 576 (exactly as printed).
        let cfg = AssessConfig::default();
        let miranda = AppDataset::Miranda.full_shape();
        assert_eq!(
            full_iters_per_thread(Pattern::GlobalReduction, miranda, &cfg),
            576
        );
        // NYX pattern-1: 16 × 64 = 1024 ≈ the paper's "1k".
        let nyx = AppDataset::Nyx.full_shape();
        assert_eq!(
            full_iters_per_thread(Pattern::GlobalReduction, nyx, &cfg),
            1024
        );
        // NYX has the deepest pattern-3 loops (paper observation (iii)).
        let others = [
            AppDataset::Hurricane,
            AppDataset::ScaleLetkf,
            AppDataset::Miranda,
        ];
        let nyx_p3 = full_iters_per_thread(Pattern::SlidingWindow, nyx, &cfg);
        for d in others {
            assert!(nyx_p3 > full_iters_per_thread(Pattern::SlidingWindow, d.full_shape(), &cfg));
        }
    }

    /// cuZC's runs of one dataset's first field at the `gen` shape.
    fn scaled_runs(ds: AppDataset, gen: &GenOptions, cfg: &AssessConfig) -> Vec<PatternRun> {
        let field = ds.generate_field(0, gen);
        let dec = field.data.map(|v| v + 1e-4);
        CuZc::default().assess(&field.data, &dec, cfg).unwrap().runs
    }

    #[test]
    fn one_device_placement_is_the_full_shape_remodel() {
        let gen = GenOptions::scaled_xy(8);
        let cfg = AssessConfig::default();
        let sim = GpuSim::v100();
        let cpu = CpuModel::xeon_6148();
        for ds in AppDataset::ALL {
            let (scaled, full) = (ds.shape(&gen), ds.full_shape());
            let runs = scaled_runs(ds, &gen, &cfg);
            let remodeled: f64 = runs
                .iter()
                .map(|r| remodel_full(r, scaled, full, &cfg, &sim, &cpu))
                .sum();
            let full_runs: Vec<PatternRun> = runs
                .iter()
                .map(|r| full_run(r, scaled, full, &cfg))
                .collect();
            for link in [MultiGpuModel::nvlink(1), MultiGpuModel::pcie(1)] {
                let placed = DevicePlacement { link, sim: &sim }
                    .pattern_times(&full_runs, full, &cfg)
                    .total();
                assert_eq!(placed.to_bits(), remodeled.to_bits(), "{}", ds.name());
            }
        }
    }

    #[test]
    fn full_nyx_scales_sublinearly_and_pcie_never_beats_nvlink() {
        let gen = GenOptions::scaled_xy(8);
        let cfg = AssessConfig::default();
        let sim = GpuSim::v100();
        let (scaled, full) = (AppDataset::Nyx.shape(&gen), AppDataset::Nyx.full_shape());
        let runs: Vec<PatternRun> = scaled_runs(AppDataset::Nyx, &gen, &cfg)
            .iter()
            .map(|r| full_run(r, scaled, full, &cfg))
            .collect();
        let time = |link: MultiGpuModel| {
            DevicePlacement { link, sim: &sim }
                .pattern_times(&runs, full, &cfg)
                .total()
        };
        let single = time(MultiGpuModel::nvlink(1));
        let mut prev = single;
        for g in [2u32, 4, 8] {
            let nv = time(MultiGpuModel::nvlink(g));
            let pcie = time(MultiGpuModel::pcie(g));
            assert!(nv < prev, "{g} GPUs {nv} !< {prev}");
            let efficiency = single / (g as f64 * nv);
            assert!(efficiency <= 1.0, "{g} GPUs: efficiency {efficiency}");
            assert!(pcie >= nv, "{g} GPUs: PCIe {pcie} < NVLink {nv}");
            prev = nv;
        }
    }

    #[test]
    fn remodel_shrinks_with_no_scale_change() {
        let shape = AppDataset::Miranda.full_shape().scaled_down(8);
        let field = AppDataset::Miranda.generate_field(0, &GenOptions::scaled(8));
        let dec = field.data.map(|v| v + 1e-4);
        let cfg = AssessConfig::default();
        let sim = GpuSim::v100();
        let cpu = CpuModel::xeon_6148();
        let a = CuZc::default().assess(&field.data, &dec, &cfg).unwrap();
        // Identity remodel (same shape) should approximately reproduce the
        // executor's own modeled time.
        let total: f64 = a
            .runs
            .iter()
            .map(|r| remodel_full(r, shape, shape, &cfg, &sim, &cpu))
            .sum();
        let rel = (total - a.modeled_seconds).abs() / a.modeled_seconds;
        assert!(rel < 0.2, "identity remodel off by {rel}");
    }
}
