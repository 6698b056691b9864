//! Multi-GPU cuZC — the paper's §VI future-work extension, made runnable.
//!
//! The field's thread-block grid is partitioned across `link.gpus` devices
//! along the launch dimension (z planes for patterns 1–2, y-window groups
//! for pattern 3). Because the single-GPU kernels already communicate only at
//! the cooperative fold, the functional result is *identical* to the
//! single-GPU executor by construction; what changes is the performance
//! model: per-device launch times (smaller grids → utilization effects),
//! neighbour halo exchange for the stencil/window patterns, and a ring
//! all-reduce of the scalar partials — the paper's "fine-grained
//! inter-GPU synchronization and communication".

use super::Executor;
use crate::exec::CuZc;
use crate::plan::{DevicePlacement, Pass, PassCtx, PassExecution};
use zc_gpusim::stream::HostLink;
use zc_gpusim::{Counters, MultiGpuModel};

/// The multi-device pattern-oriented executor.
#[derive(Clone, Debug)]
pub struct MultiCuZc {
    /// Device count (1 = identical to [`CuZc`]) and interconnect.
    pub link: MultiGpuModel,
    /// The per-device executor.
    pub inner: CuZc,
}

impl MultiCuZc {
    /// NVLink-connected V100s.
    pub fn nvlink(gpus: u32) -> Self {
        MultiCuZc {
            link: MultiGpuModel::nvlink(gpus),
            inner: CuZc::default(),
        }
    }

    /// PCIe-connected V100s.
    pub fn pcie(gpus: u32) -> Self {
        MultiCuZc {
            link: MultiGpuModel::pcie(gpus),
            inner: CuZc::default(),
        }
    }
}

/// Same passes as single-GPU cuZC — only the placement policy (grid
/// partitioning + interconnect pricing) differs, so counters and metric
/// values are identical by construction.
impl Executor for MultiCuZc {
    fn name(&self) -> &'static str {
        "cuZC-multi"
    }

    fn run_pass(&self, pass: &Pass, ctx: &PassCtx<'_>) -> PassExecution {
        self.inner.run_pass(pass, ctx)
    }

    fn transfer(&self) -> Option<HostLink> {
        self.inner.transfer()
    }

    fn device_capacity(&self) -> Option<u64> {
        self.inner.device_capacity()
    }

    fn placement(&self) -> Option<DevicePlacement<'_>> {
        Some(DevicePlacement {
            link: self.link,
            sim: &self.inner.sim,
        })
    }

    /// The group prepass: the single-device gather split across the gang
    /// (compute divides, the tiny partial all-reduce rides the link).
    fn prepass_charge(&self, sampled: u64, stride: usize) -> (Counters, f64) {
        let (counters, mut secs) = self.inner.prepass_charge(sampled, stride);
        let g = self.link.gpus;
        if g > 1 {
            secs = secs / g as f64 + self.link.allreduce_s();
        }
        (counters, secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AssessConfig;
    use crate::metrics::Metric;
    use zc_tensor::{Shape, Tensor};

    fn fields() -> (Tensor<f32>, Tensor<f32>) {
        let orig = Tensor::from_fn(Shape::d3(48, 40, 32), |[x, y, z, _]| {
            (x as f32 * 0.2).sin() + (y as f32 * 0.15).cos() + z as f32 * 0.01
        });
        let dec = orig.map(|v| v + 0.002 * (v * 7.0).cos());
        (orig, dec)
    }

    #[test]
    fn values_identical_to_single_gpu() {
        let (orig, dec) = fields();
        let cfg = AssessConfig::default();
        let single = CuZc::default().assess(&orig, &dec, &cfg).unwrap();
        let multi = MultiCuZc::nvlink(4).assess(&orig, &dec, &cfg).unwrap();
        for m in [
            Metric::Psnr,
            Metric::Ssim,
            Metric::Autocorrelation,
            Metric::Mse,
        ] {
            assert_eq!(single.report.scalar(m), multi.report.scalar(m), "{m}");
        }
    }

    #[test]
    fn placement_over_single_gpu_runs_is_the_ganged_executor() {
        let (orig, dec) = fields();
        let cfg = AssessConfig::default();
        let single = CuZc::default().assess(&orig, &dec, &cfg).unwrap();
        for g in [2u32, 4, 8] {
            for ex in [MultiCuZc::nvlink(g), MultiCuZc::pcie(g)] {
                let placed = DevicePlacement {
                    link: ex.link,
                    sim: &ex.inner.sim,
                }
                .pattern_times(&single.runs, orig.shape(), &cfg);
                let multi = ex.assess(&orig, &dec, &cfg).unwrap();
                for (a, b) in [
                    (placed.p1, multi.pattern_times.p1),
                    (placed.p2, multi.pattern_times.p2),
                    (placed.p3, multi.pattern_times.p3),
                ] {
                    assert_eq!(a.to_bits(), b.to_bits(), "{g} GPUs over {:?}", ex.link.link);
                }
            }
        }
    }

    #[test]
    fn more_gpus_reduce_modeled_time() {
        let (orig, dec) = fields();
        let cfg = AssessConfig::default();
        let t1 = MultiCuZc::nvlink(1)
            .assess(&orig, &dec, &cfg)
            .unwrap()
            .modeled_seconds;
        let t2 = MultiCuZc::nvlink(2)
            .assess(&orig, &dec, &cfg)
            .unwrap()
            .modeled_seconds;
        let t4 = MultiCuZc::nvlink(4)
            .assess(&orig, &dec, &cfg)
            .unwrap()
            .modeled_seconds;
        assert!(t2 < t1, "2 GPUs {t2} !< 1 GPU {t1}");
        assert!(t4 < t2, "4 GPUs {t4} !< 2 GPUs {t2}");
        // But never better than the ideal split.
        assert!(t4 > t1 / 4.0 * 0.5, "suspiciously superlinear");
    }

    #[test]
    fn one_gpu_degenerates_to_cuzc() {
        let (orig, dec) = fields();
        let cfg = AssessConfig::default();
        let single = CuZc::default().assess(&orig, &dec, &cfg).unwrap();
        let multi = MultiCuZc::nvlink(1).assess(&orig, &dec, &cfg).unwrap();
        assert_eq!(single.modeled_seconds, multi.modeled_seconds);
    }

    #[test]
    fn slower_interconnect_costs_more() {
        let (orig, dec) = fields();
        let cfg = AssessConfig::default();
        let nv = MultiCuZc::nvlink(8)
            .assess(&orig, &dec, &cfg)
            .unwrap()
            .modeled_seconds;
        let pcie = MultiCuZc::pcie(8)
            .assess(&orig, &dec, &cfg)
            .unwrap()
            .modeled_seconds;
        assert!(pcie >= nv);
    }
}
