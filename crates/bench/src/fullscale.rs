//! Full-shape modeling: the paper's tables and figures read the kernels'
//! own declarations at the full dataset shapes.
//!
//! Table II's profile comes straight from the job pricer's fold over the
//! declared launches ([`full_profiles`]). The figures' scaled functional
//! runs are re-modeled at the full shape ([`full_run`]): the measured
//! volume-linear counters are extrapolated, the grid is the one the kernels
//! declare for the full shape ([`traffic::plane_grid`],
//! [`traffic::ssim_grid`]), and a GPU run is priced by the one placement
//! cost model, [`DevicePlacement`], at one device.

use zc_core::exec::{PatternProfile, PatternRun};
use zc_core::plan::{estimate_job_cost, DevicePlacement};
use zc_core::{AssessConfig, AssessPlan, Pattern};
use zc_gpusim::cost::CpuModel;
use zc_gpusim::{Counters, GpuSim, MultiGpuModel};
use zc_kernels::traffic;
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

/// The Table-II profile of a full-metric cuZC run on a field of `shape`:
/// the job pricer's per-pattern fold over the declared launches, the same
/// fold a run's profiles come from. No field is generated and no executor
/// runs.
pub fn full_profiles(shape: Shape, cfg: &AssessConfig) -> Vec<PatternProfile> {
    let plan = AssessPlan::lower(cfg);
    estimate_job_cost(&plan, shape, cfg, 1, &MultiGpuModel::nvlink(1)).profiles
}

/// One pattern run as it would be at the full shape: counters scale by
/// the element-count ratio and a GPU run takes the grid its kernels declare
/// for the full shape, while the kernel's (scale-invariant) resource
/// declaration carries over.
pub fn full_run(
    run: &PatternRun,
    scaled_shape: Shape,
    full_shape: Shape,
    cfg: &AssessConfig,
) -> PatternRun {
    let ratio = full_shape.len() as f64 / scaled_shape.len() as f64;
    let grid = match run.pattern {
        Pattern::GlobalReduction | Pattern::Stencil => traffic::plane_grid(full_shape),
        Pattern::SlidingWindow => traffic::ssim_grid(full_shape, cfg.ssim.window, cfg.ssim.step),
        Pattern::CompressionMeta => 0,
    };
    PatternRun {
        counters: scale_counters(&run.counters, ratio),
        grid_blocks: run.resources.map_or(0, |_| grid),
        ..run.clone()
    }
}

/// Re-model one pattern run at the full shape ([`full_run`]): a GPU run
/// is priced by [`DevicePlacement`] on one device, a CPU run on the Xeon
/// model.
pub fn remodel_full(
    run: &PatternRun,
    scaled_shape: Shape,
    full_shape: Shape,
    cfg: &AssessConfig,
    sim: &GpuSim,
    cpu: &CpuModel,
) -> f64 {
    let run = full_run(run, scaled_shape, full_shape, cfg);
    if run.resources.is_none() {
        return cpu.time(&run.counters).total_s;
    }
    DevicePlacement {
        link: MultiGpuModel::nvlink(1),
        sim,
    }
    .pattern_times(&[run], full_shape, cfg)
    .total()
}

#[cfg(test)]
mod tests {
    use super::*;
    use zc_core::exec::Executor;
    use zc_core::{CuZc, PassKind};
    use zc_data::{AppDataset, GenOptions};
    use zc_gpusim::cost::gpu_time;
    use zc_gpusim::occupancy;
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

    /// cuZC's runs of one dataset's first field at the `gen` shape.
    fn scaled_runs(ds: AppDataset, gen: &GenOptions, cfg: &AssessConfig) -> Vec<PatternRun> {
        let field = ds.generate_field(0, gen);
        let dec = field.data.map(|v| v + 1e-4);
        CuZc::default().assess(&field.data, &dec, cfg).unwrap().runs
    }

    /// The Iters/thread of one pattern's full-shape profile.
    fn full_iters(ds: AppDataset, pattern: Pattern) -> u64 {
        full_profiles(ds.full_shape(), &AssessConfig::default())
            .iter()
            .find(|p| p.pattern == pattern)
            .expect("every pattern is planned")
            .iters_per_thread
    }

    #[test]
    fn full_grids_match_paper_geometry() {
        // The declared full-shape launches carry the paper's grids, and a
        // scaled run re-modeled at the full shape takes them.
        let cfg = AssessConfig::default();
        let nyx = AppDataset::Nyx.full_shape();
        let grid = |kind: PassKind| kind.launches(nyx, &cfg)[0].grid;
        assert_eq!(grid(PassKind::P1Scalars), 512);
        assert_eq!(grid(PassKind::P2Stencil), 512);
        // 505 y-window rows / 4 per block → 127 blocks.
        assert_eq!(grid(PassKind::P3Ssim), 127);
        let gen = GenOptions::scaled_xy(16);
        let scaled = AppDataset::Nyx.shape(&gen);
        for r in scaled_runs(AppDataset::Nyx, &gen, &cfg) {
            let kind = match r.pattern {
                Pattern::GlobalReduction => PassKind::P1Scalars,
                Pattern::Stencil => PassKind::P2Stencil,
                _ => PassKind::P3Ssim,
            };
            assert_eq!(full_run(&r, scaled, nyx, &cfg).grid_blocks, grid(kind));
        }
    }

    #[test]
    fn analytic_iters_match_measured_counters() {
        // Run cuZC on a small shape: the pricer's declared profile equals
        // the measured one in every column the tables print.
        let shape = Shape::d3(70, 44, 18);
        let orig = Tensor::from_fn(shape, |[x, y, ..]| (x + y) as f32 * 0.1);
        let dec = orig.map(|v| v + 0.001);
        let cfg = AssessConfig::default();
        let a = CuZc::default().assess(&orig, &dec, &cfg).unwrap();
        let declared = full_profiles(shape, &cfg);
        assert_eq!(declared.len(), a.profiles.len());
        for (d, m) in declared.iter().zip(&a.profiles) {
            let row = |p: &PatternProfile| {
                (
                    p.pattern,
                    p.regs_per_tb,
                    p.smem_per_tb,
                    p.iters_per_thread,
                    p.blocks_per_sm,
                    p.tbs_per_sm,
                )
            };
            assert_eq!(row(d), row(m), "{:?}", m.pattern);
        }
    }

    #[test]
    fn table_ii_iters_for_paper_shapes() {
        // Miranda pattern-1 row: 12 × 48 = 576 (exactly as printed).
        assert_eq!(
            full_iters(AppDataset::Miranda, Pattern::GlobalReduction),
            576
        );
        // NYX pattern-1: 16 × 64 = 1024 ≈ the paper's "1k".
        assert_eq!(full_iters(AppDataset::Nyx, Pattern::GlobalReduction), 1024);
        // NYX has the deepest pattern-3 loops (paper observation (iii)).
        let others = [
            AppDataset::Hurricane,
            AppDataset::ScaleLetkf,
            AppDataset::Miranda,
        ];
        let nyx_p3 = full_iters(AppDataset::Nyx, Pattern::SlidingWindow);
        for d in others {
            assert!(nyx_p3 > full_iters(d, Pattern::SlidingWindow));
        }
    }

    #[test]
    fn one_device_placement_is_the_full_shape_remodel() {
        // A one-device placement over either link prices a full-shape run
        // bit-identically to the launch model on its occupancy and grid.
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
            let launch_model: f64 = full_runs
                .iter()
                .map(|r| {
                    let occ = occupancy(&sim.dev, &r.resources.unwrap());
                    gpu_time(
                        &sim.dev,
                        &sim.calib,
                        &r.counters,
                        &occ,
                        r.grid_blocks,
                        r.class,
                    )
                    .total_s
                })
                .sum();
            assert_eq!(remodeled.to_bits(), launch_model.to_bits(), "{}", ds.name());
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
