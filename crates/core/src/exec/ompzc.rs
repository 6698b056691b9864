//! The ompZC executor — the paper's multithreaded CPU baseline.
//!
//! Functionally it computes every metric with zc-par threads (real, fast values);
//! for the figures it *charges* the metric-oriented cost of the original
//! OpenMP Z-checker — one pass over the arrays per metric, scalar
//! arithmetic per element — and converts the counters into modeled
//! dual-socket-Xeon-6148 time via [`zc_gpusim::cost::CpuModel`].

use super::{cpu_ref, Executor};
use crate::plan::{Pass, PassCtx, PassExecution, PassKind, PassLaunch, PassOutput};
use zc_gpusim::cost::CpuModel;
use zc_gpusim::{Counters, KernelClass};
use zc_kernels::FieldPair;

/// The multithreaded CPU executor.
#[derive(Clone, Debug)]
pub struct OmpZc {
    /// Host cost model (defaults to the paper's Xeon Gold 6148).
    pub model: CpuModel,
}

impl Default for OmpZc {
    fn default() -> Self {
        OmpZc {
            model: CpuModel::xeon_6148(),
        }
    }
}

/// Scalar metric passes Z-checker's CPU path performs for pattern 1
/// (13 category-I metrics + Pearson, metric-at-a-time).
const P1_SCALAR_PASSES: u64 = 14;
/// Histogram passes (error PDF, pwr PDF, value distribution).
const P1_HIST_PASSES: u64 = 3;

impl OmpZc {
    fn p1_scalar_counters(&self, n: u64) -> Counters {
        Counters {
            global_read_bytes: P1_SCALAR_PASSES * 8 * n,
            lane_flops: P1_SCALAR_PASSES * 6 * n,
            special_ops: 4 * n, // the pwr-error passes divide
            launches: P1_SCALAR_PASSES,
            ..Default::default()
        }
    }

    fn p1_hist_counters(&self, n: u64) -> Counters {
        Counters {
            global_read_bytes: P1_HIST_PASSES * 8 * n,
            lane_flops: P1_HIST_PASSES * 8 * n,
            launches: P1_HIST_PASSES,
            ..Default::default()
        }
    }

    fn p2_counters(&self, n: u64, max_lag: u64) -> Counters {
        Counters {
            // Two derivative passes + one pass per autocorrelation lag.
            // Scalar per-point cost includes the strided neighbour gathers
            // (address arithmetic + loads), which dominate Z-checker's CPU
            // stencil loops: ~40 ops per derivative point, ~20 per
            // autocorrelation point.
            global_read_bytes: (2 + max_lag) * 8 * n,
            lane_flops: 2 * 40 * n + max_lag * 20 * n,
            special_ops: 2 * 2 * n,
            launches: 2 + max_lag,
            ..Default::default()
        }
    }

    fn p3_counters(&self, n: u64, windows: u64, wsize: u64) -> Counters {
        Counters {
            global_read_bytes: 8 * n,
            // The naive per-window triple loop Z-checker runs.
            lane_flops: windows * wsize * wsize * wsize * 8,
            special_ops: windows * 6,
            launches: 1,
            ..Default::default()
        }
    }
}

impl OmpZc {
    /// One charged CPU pass: the modeled Z-checker cost of `c` as a single
    /// launch record.
    fn charge(&self, c: Counters, class: KernelClass) -> Vec<PassLaunch> {
        let secs = self.model.time(&c).total_s;
        vec![PassLaunch::from_cpu(c, secs, class)]
    }
}

impl Executor for OmpZc {
    fn name(&self) -> &'static str {
        "ompZC"
    }

    fn run_pass(&self, pass: &Pass, ctx: &PassCtx<'_>) -> PassExecution {
        let f = FieldPair::new(ctx.orig, ctx.dec);
        let n = f.len() as u64;
        // Slab-tiled dispatch: thread fork/join happens within each slab,
        // partials combine through a carried accumulator in the monolithic
        // order (bit-identical). The charged Z-checker cost stays the
        // closed-form whole-field model — tiling changes scheduling, not
        // the amount of work.
        let s = ctx.slabs;
        match pass.kind {
            // The scalar values are always computed (they feed the other
            // patterns), but Z-checker's metric-at-a-time CPU cost is only
            // charged when a pattern-1 scalar metric was actually asked for
            // — an auxiliary scalar pass rides along for free.
            PassKind::P1Scalars => PassExecution::new(
                PassOutput::Scalars(cpu_ref::p1_scan_par_tiled(&f, s)),
                if pass.is_auxiliary() {
                    Vec::new()
                } else {
                    self.charge(self.p1_scalar_counters(n), KernelClass::GlobalReduction)
                },
            ),
            PassKind::P1Hist => PassExecution::new(
                PassOutput::Histograms(cpu_ref::histograms_par_tiled(
                    &f,
                    &ctx.p1(),
                    ctx.cfg.bins,
                    s,
                )),
                self.charge(self.p1_hist_counters(n), KernelClass::GlobalReduction),
            ),
            PassKind::P2Stencil => PassExecution::new(
                PassOutput::Stencil(cpu_ref::p2_scan_par_tiled(
                    &f,
                    ctx.p1().mean_e(),
                    ctx.cfg.max_lag,
                    s,
                )),
                self.charge(
                    self.p2_counters(n, ctx.cfg.max_lag as u64),
                    KernelClass::Stencil,
                ),
            ),
            PassKind::P3Ssim => {
                let acc =
                    cpu_ref::ssim_scan_tiled(&f, &ctx.cfg.ssim, ctx.p1().value_range(), true, s);
                let c = self.p3_counters(n, acc.windows, ctx.cfg.ssim.window as u64);
                PassExecution::new(
                    PassOutput::Ssim(acc),
                    self.charge(c, KernelClass::SlidingWindow),
                )
            }
            PassKind::CompressionMeta => unreachable!("meta pass is not executed"),
        }
    }

    /// The prepass on the CPU baseline is one strided scalar sweep over the
    /// subsample — priced on the same Xeon model as the full passes.
    fn prepass_charge(&self, sampled: u64, _stride: usize) -> (Counters, f64) {
        let counters = Counters {
            global_read_bytes: 8 * sampled,
            lane_flops: 8 * sampled,
            special_ops: 2 * sampled, // the relative-error divides
            launches: 1,
            ..Default::default()
        };
        (counters, self.model.time(&counters).total_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AssessConfig;
    use crate::exec::SerialZc;
    use zc_tensor::{Shape, Tensor};

    fn fields() -> (Tensor<f32>, Tensor<f32>) {
        let orig = Tensor::from_fn(Shape::d3(20, 18, 14), |[x, y, z, _]| {
            (x as f32 * 0.3).sin() * (y as f32 * 0.21).cos() + z as f32 * 0.03
        });
        let dec = orig.map(|v| v + 0.004 * (v * 23.0).sin());
        (orig, dec)
    }

    #[test]
    fn values_match_serial_reference() {
        let (orig, dec) = fields();
        let cfg = AssessConfig::default();
        let s = SerialZc.assess(&orig, &dec, &cfg).unwrap();
        let o = OmpZc::default().assess(&orig, &dec, &cfg).unwrap();
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1e-30);
        assert!(close(o.report.p1.mse(), s.report.p1.mse()));
        assert_eq!(o.report.p1.min_e, s.report.p1.min_e);
        let (os, ss) = (o.report.ssim.unwrap(), s.report.ssim.unwrap());
        assert_eq!(os.windows, ss.windows);
        assert!(close(os.mean_ssim, ss.mean_ssim));
        let (ost, sst) = (o.report.stencil.unwrap(), s.report.stencil.unwrap());
        assert!(close(ost.avg_gradient_orig, sst.avg_gradient_orig));
        assert!(close(ost.autocorr.values[0], sst.autocorr.values[0]));
    }

    #[test]
    fn modeled_time_is_positive_and_pattern3_dominates() {
        // Needs a non-toy field: at tiny sizes per-pass overhead dominates
        // and pattern 1's 17 passes outweigh SSIM.
        let orig = Tensor::from_fn(Shape::d3(48, 48, 48), |[x, y, z, _]| {
            (x as f32 * 0.2).sin() + (y as f32 * 0.15).cos() + z as f32 * 0.01
        });
        let dec = orig.map(|v| v + 0.001);
        let a = OmpZc::default()
            .assess(&orig, &dec, &AssessConfig::default())
            .unwrap();
        assert!(a.modeled_seconds > 0.0);
        // SSIM is the most expensive pattern on the CPU (paper Fig. 11).
        assert!(a.pattern_times.p3 > a.pattern_times.p1);
        assert!(a.pattern_times.p3 > a.pattern_times.p2);
    }

    #[test]
    fn counters_reflect_metric_at_a_time_passes() {
        let (orig, dec) = fields();
        let a = OmpZc::default()
            .assess(&orig, &dec, &AssessConfig::default())
            .unwrap();
        // 17 p1 passes + 12 p2 passes + 1 p3 pass.
        assert_eq!(a.counters.launches, 17 + 12 + 1);
        let n = orig.len() as u64;
        assert!(a.counters.global_read_bytes > 17 * 8 * n);
    }
}
