//! The cuZC executor — the paper's pattern-oriented GPU assessment system.
//!
//! This is the "GPU module coordinator" of §III-A: it classifies the
//! requested metrics by pattern and invokes the corresponding *fused*
//! kernel once per pattern (pattern 2: once per stride, the stride-1 launch
//! carrying the derivative metrics), collecting counters, occupancy
//! profiles (Table II) and modeled times (Figs. 10–12).

use super::Executor;
use crate::plan::{
    gpu_prepass_charge, Pass, PassCtx, PassExecution, PassKind, PassLaunch, PassOutput,
};
use zc_gpusim::stream::HostLink;
use zc_gpusim::{Counters, GpuSim, LaunchResult, TileCharge};
use zc_kernels::p3::SsimParams;
use zc_kernels::{
    FieldPair, HasReferencePath, P1FusedKernel, P1HistKernel, P2FusedKernel, P2Stats, Reference,
    SsimFusedKernel,
};

/// The pattern-oriented GPU executor.
#[derive(Clone, Debug)]
pub struct CuZc {
    /// The simulated device.
    pub sim: GpuSim,
    /// Launch every kernel through its scalar reference path instead of the
    /// SoA fast path (differential testing / benchmarking; results and
    /// counters must be identical).
    pub reference_path: bool,
}

impl Default for CuZc {
    fn default() -> Self {
        CuZc {
            sim: GpuSim::v100(),
            reference_path: false,
        }
    }
}

impl CuZc {
    /// Launch a kernel slab-tiled (contiguous block ranges) through the
    /// configured lane path; one slab is a monolithic launch. The per-tile
    /// charges feed the stream timeline.
    fn launch_slabs<K: HasReferencePath>(
        &self,
        k: &K,
        grid: usize,
        slabs: usize,
    ) -> (LaunchResult<K::Output>, Vec<TileCharge>) {
        if self.reference_path {
            self.sim.launch_tiled(&Reference(k), grid, slabs)
        } else {
            self.sim.launch_tiled(k, grid, slabs)
        }
    }
}

impl Executor for CuZc {
    fn name(&self) -> &'static str {
        "cuZC"
    }

    fn run_pass(&self, pass: &Pass, ctx: &PassCtx<'_>) -> PassExecution {
        let f = FieldPair::new(ctx.orig, ctx.dec);
        let cfg = ctx.cfg;
        let slabs = ctx.slabs;
        let mut launches = Vec::new();
        match pass.kind {
            // ---- pattern 1: the fused scalar kernel ----------------------
            // Always launched (the pass is scheduled even when auxiliary):
            // μ/σ² feed pattern 2 and the dynamic range feeds pattern 3,
            // exactly as in the real coordinator.
            PassKind::P1Scalars => {
                let k = P1FusedKernel { fields: f };
                let (r, tiles) = self.launch_slabs(&k, k.grid(), slabs);
                launches.push(PassLaunch::from_gpu(&self.sim, &k, &r));
                let mut ex = PassExecution::new(PassOutput::Scalars(r.output), launches);
                ex.fold_tiles(slabs, &tiles);
                ex
            }
            // ---- pattern 1: the fused histogram kernel -------------------
            PassKind::P1Hist => {
                let k = P1HistKernel {
                    fields: f,
                    scalars: ctx.p1(),
                    bins: cfg.bins,
                };
                let (r, tiles) = self.launch_slabs(&k, k.grid(), slabs);
                launches.push(PassLaunch::from_gpu(&self.sim, &k, &r));
                let mut ex = PassExecution::new(PassOutput::Histograms(r.output), launches);
                ex.fold_tiles(slabs, &tiles);
                ex
            }
            // ---- pattern 2: one fused stencil launch per stride ----------
            PassKind::P2Stencil => {
                let mut stats = P2Stats::identity(cfg.max_lag);
                let mut stride_tiles = Vec::new();
                for stride in 1..=cfg.max_lag {
                    let k = P2FusedKernel {
                        fields: f,
                        stride,
                        mean_e: ctx.p1().mean_e(),
                        max_lag: cfg.max_lag,
                        derivatives: stride == 1,
                        autocorr: true,
                        cooperative: true,
                    };
                    let (r, tiles) = self.launch_slabs(&k, k.grid(), slabs);
                    launches.push(PassLaunch::from_gpu(&self.sim, &k, &r));
                    stats.combine(&r.output);
                    stride_tiles.push(tiles);
                }
                let mut ex = PassExecution::new(PassOutput::Stencil(stats), launches);
                for tiles in &stride_tiles {
                    ex.fold_tiles(slabs, tiles);
                }
                ex
            }
            // ---- pattern 3: the FIFO SSIM kernel -------------------------
            PassKind::P3Ssim => {
                let params = SsimParams {
                    wsize: cfg.ssim.window,
                    step: cfg.ssim.step,
                    k1: cfg.ssim.k1,
                    k2: cfg.ssim.k2,
                    range: ctx.p1().value_range(),
                };
                let k = SsimFusedKernel {
                    fields: f,
                    params,
                    fifo_in_shared: true,
                };
                let (r, tiles) = self.launch_slabs(&k, k.grid(), slabs);
                launches.push(PassLaunch::from_gpu(&self.sim, &k, &r));
                let mut ex = PassExecution::new(PassOutput::Ssim(r.output), launches);
                ex.fold_tiles(slabs, &tiles);
                ex
            }
            PassKind::CompressionMeta => unreachable!("meta pass is not executed"),
        }
    }

    fn transfer(&self) -> Option<HostLink> {
        Some(HostLink::pcie())
    }

    fn device_capacity(&self) -> Option<u64> {
        Some(self.sim.dev.mem_bytes)
    }

    /// The prepass on the pattern-oriented coordinator: the same fused P1
    /// reduction, launched over the subsample as a strided gather.
    fn prepass_charge(&self, sampled: u64, stride: usize) -> (Counters, f64) {
        gpu_prepass_charge(&self.sim, sampled, stride)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AssessConfig;
    use crate::exec::SerialZc;
    use crate::metrics::Pattern;
    use zc_tensor::{Shape, Tensor};

    fn fields() -> (Tensor<f32>, Tensor<f32>) {
        let orig = Tensor::from_fn(Shape::d3(40, 24, 16), |[x, y, z, _]| {
            (x as f32 * 0.27).sin() * (y as f32 * 0.33).cos() + z as f32 * 0.05
        });
        let dec = orig.map(|v| v + 0.003 * (v * 41.0).cos());
        (orig, dec)
    }

    #[test]
    fn cuzc_matches_serial_reference_on_every_section() {
        let (orig, dec) = fields();
        let cfg = AssessConfig::default();
        let s = SerialZc.assess(&orig, &dec, &cfg).unwrap();
        let c = CuZc::default().assess(&orig, &dec, &cfg).unwrap();
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1e-30);
        assert_eq!(c.report.p1.n, s.report.p1.n);
        assert!(close(c.report.p1.psnr_db(), s.report.p1.psnr_db()));
        assert!(close(c.report.p1.pearson(), s.report.p1.pearson()));
        // Histograms bit-identical.
        let (ch, sh) = (c.report.histograms.unwrap(), s.report.histograms.unwrap());
        assert_eq!(ch.err_pdf.counts(), sh.err_pdf.counts());
        // Stencil.
        let (cst, sst) = (c.report.stencil.unwrap(), s.report.stencil.unwrap());
        assert!(close(cst.avg_gradient_orig, sst.avg_gradient_orig));
        for (a, b) in cst.autocorr.values.iter().zip(sst.autocorr.values.iter()) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
        // SSIM.
        let (cs, ss) = (c.report.ssim.unwrap(), s.report.ssim.unwrap());
        assert_eq!(cs.windows, ss.windows);
        assert!(close(cs.mean_ssim, ss.mean_ssim));
    }

    #[test]
    fn profiles_cover_all_three_patterns() {
        let (orig, dec) = fields();
        let a = CuZc::default()
            .assess(&orig, &dec, &AssessConfig::default())
            .unwrap();
        assert_eq!(a.profiles.len(), 3);
        let p1 = &a.profiles[0];
        assert_eq!(p1.pattern, Pattern::GlobalReduction);
        assert!(
            p1.regs_per_tb >= 14_000,
            "paper: 14k regs/TB, got {}",
            p1.regs_per_tb
        );
        let p3 = &a.profiles[2];
        assert_eq!(p3.regs_per_tb, 11_008);
        assert!(a.modeled_seconds > 0.0);
    }

    #[test]
    fn reference_path_executor_is_identical() {
        let (orig, dec) = fields();
        let cfg = AssessConfig::default();
        let fast = CuZc::default().assess(&orig, &dec, &cfg).unwrap();
        let refr = CuZc {
            reference_path: true,
            ..Default::default()
        }
        .assess(&orig, &dec, &cfg)
        .unwrap();
        // Same outputs, same counters, same modeled time — only the host
        // wall-clock may differ.
        assert_eq!(fast.counters, refr.counters);
        assert_eq!(fast.modeled_seconds, refr.modeled_seconds);
        assert_eq!(
            fast.report.p1.psnr_db().to_bits(),
            refr.report.p1.psnr_db().to_bits()
        );
        let (fh, rh) = (
            fast.report.histograms.unwrap(),
            refr.report.histograms.unwrap(),
        );
        assert_eq!(fh.err_pdf.counts(), rh.err_pdf.counts());
        let (fs, rs) = (fast.report.ssim.unwrap(), refr.report.ssim.unwrap());
        assert_eq!(fs.windows, rs.windows);
        assert_eq!(fs.mean_ssim.to_bits(), rs.mean_ssim.to_bits());
    }

    #[test]
    fn pattern_selection_prunes_launches() {
        let (orig, dec) = fields();
        let cfg = AssessConfig {
            metrics: crate::metrics::MetricSelection::pattern(Pattern::SlidingWindow),
            ..Default::default()
        };
        let a = CuZc::default().assess(&orig, &dec, &cfg).unwrap();
        assert!(a.report.stencil.is_none());
        assert!(a.report.ssim.is_some());
        assert!(a.pattern_times.p2 == 0.0);
        assert!(a.pattern_times.p3 > 0.0);
    }
}
