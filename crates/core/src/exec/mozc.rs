//! The moZC executor — the paper's metric-oriented GPU baseline.
//!
//! Every metric is its own kernel: ten CUB-style pattern-1 reductions,
//! per-axis derivative passes plus a combine kernel, one stencil launch per
//! autocorrelation lag, and the no-FIFO SSIM. The values are identical to
//! cuZC's; the traffic and launch counts are the metric-oriented design's.

use super::Executor;
use crate::plan::{
    gpu_prepass_charge, Pass, PassCtx, PassExecution, PassKind, PassLaunch, PassOutput,
};
use zc_gpusim::stream::HostLink;
use zc_gpusim::{Counters, GpuSim, TileCharge};
use zc_kernels::mo::{
    MoAutocorrKernel, MoDerivKernel, MoHistKernel, MoHistKind, MoP1Kernel, MoP1Metric,
};
use zc_kernels::p3::SsimParams;
use zc_kernels::{FieldPair, P1Histograms, P2Stats, SsimFusedKernel};

/// The metric-oriented GPU executor.
#[derive(Clone, Debug)]
pub struct MoZc {
    /// The simulated device.
    pub sim: GpuSim,
}

impl Default for MoZc {
    fn default() -> Self {
        MoZc {
            sim: GpuSim::v100(),
        }
    }
}

impl Executor for MoZc {
    fn name(&self) -> &'static str {
        "moZC"
    }

    fn run_pass(&self, pass: &Pass, ctx: &PassCtx<'_>) -> PassExecution {
        let f = FieldPair::new(ctx.orig, ctx.dec);
        let cfg = ctx.cfg;
        let slabs = ctx.slabs;
        let mut launches = Vec::new();
        let mut kernel_tiles: Vec<Vec<TileCharge>> = Vec::new();
        match pass.kind {
            // ---- pattern 1: one kernel per metric ------------------------
            // The scalar moments are always needed (μ/σ²/range feed the
            // other patterns); moZC obtains them from its per-metric
            // kernels, so the launches happen even on an auxiliary pass.
            PassKind::P1Scalars => {
                let mut p1 = None;
                for metric in MoP1Metric::SCALARS {
                    let k = MoP1Kernel { fields: f, metric };
                    let (r, tiles) = self.sim.launch_tiled(&k, k.grid(), slabs);
                    launches.push(PassLaunch::from_gpu(&self.sim, &k, &r));
                    kernel_tiles.push(tiles);
                    p1 = Some(r.output);
                }
                let mut ex = PassExecution::new(
                    PassOutput::Scalars(p1.expect("at least one scalar kernel ran")),
                    launches,
                );
                for t in &kernel_tiles {
                    ex.fold_tiles(slabs, t);
                }
                ex
            }
            PassKind::P1Hist => {
                let mut outs = Vec::new();
                for kind in [
                    MoHistKind::ErrPdf,
                    MoHistKind::PwrPdf,
                    MoHistKind::ValueHist,
                ] {
                    let k = MoHistKernel {
                        fields: f,
                        scalars: ctx.p1(),
                        kind,
                        bins: cfg.bins,
                    };
                    let (r, tiles) = self.sim.launch_tiled(&k, k.grid(), slabs);
                    launches.push(PassLaunch::from_gpu(&self.sim, &k, &r));
                    kernel_tiles.push(tiles);
                    outs.push(r.output);
                }
                let value_hist = outs.pop().expect("three histogram kernels");
                let rel_pdf = outs.pop().expect("three histogram kernels");
                let err_pdf = outs.pop().expect("three histogram kernels");
                let mut ex = PassExecution::new(
                    PassOutput::Histograms(P1Histograms {
                        err_pdf,
                        rel_pdf,
                        value_hist,
                    }),
                    launches,
                );
                for t in &kernel_tiles {
                    ex.fold_tiles(slabs, t);
                }
                ex
            }
            // ---- pattern 2: per-axis derivative passes + per-lag stencils
            PassKind::P2Stencil => {
                // Two derivative kernels (order 1 and 2), each re-staging
                // the neighbourhood the fused kernel stages once.
                let mut stats = P2Stats::identity(cfg.max_lag);
                for order in [1usize, 2] {
                    let k = MoDerivKernel {
                        fields: f,
                        order,
                        max_lag: cfg.max_lag,
                    };
                    let (r, tiles) = self.sim.launch_tiled(&k, k.grid(), slabs);
                    launches.push(PassLaunch::from_gpu(&self.sim, &k, &r));
                    kernel_tiles.push(tiles);
                    stats.combine(&r.output);
                }
                // One direct-global stencil kernel per autocorrelation lag.
                for lag in 1..=cfg.max_lag {
                    let k = MoAutocorrKernel {
                        fields: f,
                        lag,
                        mean_e: ctx.p1().mean_e(),
                        max_lag: cfg.max_lag,
                    };
                    let (r, tiles) = self.sim.launch_tiled(&k, k.grid(), slabs);
                    launches.push(PassLaunch::from_gpu(&self.sim, &k, &r));
                    kernel_tiles.push(tiles);
                    stats.combine(&r.output);
                }
                let mut ex = PassExecution::new(PassOutput::Stencil(stats), launches);
                for t in &kernel_tiles {
                    ex.fold_tiles(slabs, t);
                }
                ex
            }
            // ---- pattern 3: SSIM without the FIFO buffer -----------------
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
                    fifo_in_shared: false,
                };
                let (r, tiles) = self.sim.launch_tiled(&k, k.grid(), slabs);
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

    /// The prepass on the metric-oriented GPU baseline: one strided-gather
    /// reduction launch, charged at the device's sector-wasteful strided
    /// bandwidth.
    fn prepass_charge(&self, sampled: u64, stride: usize) -> (Counters, f64) {
        gpu_prepass_charge(&self.sim, sampled, stride)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AssessConfig;
    use crate::exec::CuZc;
    use zc_tensor::{Shape, Tensor};

    fn fields() -> (Tensor<f32>, Tensor<f32>) {
        let orig = Tensor::from_fn(Shape::d3(36, 20, 15), |[x, y, z, _]| {
            (x as f32 * 0.22).cos() + (y as f32 * 0.31).sin() * (z as f32 * 0.12).cos()
        });
        let dec = orig.map(|v| v + 0.006 * (v * 29.0).sin());
        (orig, dec)
    }

    #[test]
    fn mozc_values_equal_cuzc_values() {
        let (orig, dec) = fields();
        let cfg = AssessConfig::default();
        let cu = CuZc::default().assess(&orig, &dec, &cfg).unwrap();
        let mo = MoZc::default().assess(&orig, &dec, &cfg).unwrap();
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1e-30);
        assert!(close(mo.report.p1.mse(), cu.report.p1.mse()));
        assert_eq!(
            mo.report.histograms.as_ref().unwrap().err_pdf.counts(),
            cu.report.histograms.as_ref().unwrap().err_pdf.counts()
        );
        let (ms, cs) = (mo.report.stencil.unwrap(), cu.report.stencil.unwrap());
        assert!(close(ms.avg_gradient_orig, cs.avg_gradient_orig));
        assert!(close(ms.autocorr.values[2], cs.autocorr.values[2]));
        assert_eq!(
            mo.report.ssim.unwrap().windows,
            cu.report.ssim.unwrap().windows
        );
        assert!(close(
            mo.report.ssim.unwrap().mean_ssim,
            cu.report.ssim.unwrap().mean_ssim
        ));
    }

    #[test]
    fn mozc_is_modeled_slower_than_cuzc() {
        let (orig, dec) = fields();
        let cfg = AssessConfig::default();
        let cu = CuZc::default().assess(&orig, &dec, &cfg).unwrap();
        let mo = MoZc::default().assess(&orig, &dec, &cfg).unwrap();
        assert!(
            mo.modeled_seconds > cu.modeled_seconds,
            "moZC {} !> cuZC {}",
            mo.modeled_seconds,
            cu.modeled_seconds
        );
        // Per pattern too.
        assert!(mo.pattern_times.p1 > cu.pattern_times.p1);
        assert!(mo.pattern_times.p2 > cu.pattern_times.p2);
        assert!(mo.pattern_times.p3 > cu.pattern_times.p3);
    }

    #[test]
    fn mozc_launches_many_more_kernels() {
        let (orig, dec) = fields();
        let cfg = AssessConfig::default();
        let cu = CuZc::default().assess(&orig, &dec, &cfg).unwrap();
        let mo = MoZc::default().assess(&orig, &dec, &cfg).unwrap();
        assert!(
            mo.counters.launches > 2 * cu.counters.launches,
            "mo {} vs cu {}",
            mo.counters.launches,
            cu.counters.launches
        );
    }
}
