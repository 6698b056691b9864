//! The scalar reference executor — Z-checker's single-threaded semantics.
//!
//! No cost model: it exists as ground truth for the §IV-B correctness
//! claim ("cuZ-Checker has the correct calculation on all assessment
//! metrics by comparing it with the Z-checker's output").

use super::Executor;
use crate::exec::cpu_ref;
use crate::plan::{Pass, PassCtx, PassExecution, PassKind, PassOutput};
use zc_kernels::FieldPair;

/// The serial reference executor.
#[derive(Clone, Copy, Debug, Default)]
pub struct SerialZc;

/// Ground truth charges nothing — no counters, no modeled time — for the
/// passes and (through the default hook) for the prepass alike.
impl Executor for SerialZc {
    fn name(&self) -> &'static str {
        "serial"
    }

    fn run_pass(&self, pass: &Pass, ctx: &PassCtx<'_>) -> PassExecution {
        let f = FieldPair::new(ctx.orig, ctx.dec);
        // Slab-tiled dispatch at the plan's slab count; the carried
        // accumulators keep every value bit-identical at any count (see
        // cpu_ref's `_tiled` docs).
        let s = ctx.slabs;
        let output = match pass.kind {
            // The scalar pass always runs: every derived metric and both
            // other patterns (autocorrelation's μ/σ², SSIM's dynamic range)
            // need it.
            PassKind::P1Scalars => PassOutput::Scalars(cpu_ref::p1_scan_tiled(&f, s)),
            PassKind::P1Hist => {
                PassOutput::Histograms(cpu_ref::histograms_tiled(&f, &ctx.p1(), ctx.cfg.bins, s))
            }
            PassKind::P2Stencil => PassOutput::Stencil(cpu_ref::p2_scan_tiled(
                &f,
                ctx.p1().mean_e(),
                ctx.cfg.max_lag,
                s,
            )),
            PassKind::P3Ssim => PassOutput::Ssim(cpu_ref::ssim_scan_tiled(
                &f,
                &ctx.cfg.ssim,
                ctx.p1().value_range(),
                false,
                s,
            )),
            PassKind::CompressionMeta => unreachable!("meta pass is not executed"),
        };
        // Ground truth charges nothing: no counters, no modeled time.
        PassExecution::new(output, Vec::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AssessConfig;
    use crate::exec::AssessError;
    use crate::metrics::{Metric, MetricSelection, Pattern};
    use zc_tensor::{Shape, Tensor};

    #[test]
    fn full_assessment_produces_all_sections() {
        let orig = Tensor::from_fn(Shape::d3(16, 16, 12), |[x, y, z, _]| {
            (x as f32 * 0.4).sin() + y as f32 * 0.02 + (z as f32 * 0.3).cos()
        });
        let dec = orig.map(|v| v + 0.002);
        let a = SerialZc
            .assess(&orig, &dec, &AssessConfig::default())
            .unwrap();
        assert!(a.report.histograms.is_some());
        assert!(a.report.stencil.is_some());
        assert!(a.report.ssim.is_some());
        // Constant error of 0.002.
        assert!((a.report.p1.avg_abs_e() - 0.002).abs() < 1e-6);
        assert!(a.report.scalar(Metric::Psnr).unwrap() > 30.0);
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let a = Tensor::<f32>::zeros(Shape::d2(4, 4));
        let b = Tensor::<f32>::zeros(Shape::d2(4, 5));
        assert_eq!(
            SerialZc
                .assess(&a, &b, &AssessConfig::default())
                .unwrap_err(),
            AssessError::ShapeMismatch
        );
    }

    #[test]
    fn invalid_config_is_rejected() {
        let t = Tensor::<f32>::zeros(Shape::d2(4, 4));
        let cfg = AssessConfig {
            ssim: crate::config::SsimSettings {
                window: 1,
                ..Default::default()
            },
            ..Default::default()
        };
        assert!(matches!(
            SerialZc.assess(&t, &t, &cfg).unwrap_err(),
            AssessError::BadConfig(_)
        ));
    }

    #[test]
    fn pattern_selection_skips_passes() {
        let orig = Tensor::from_fn(Shape::d3(12, 12, 12), |[x, ..]| x as f32);
        let dec = orig.clone();
        let cfg = AssessConfig {
            metrics: MetricSelection::pattern(Pattern::GlobalReduction),
            ..Default::default()
        };
        let a = SerialZc.assess(&orig, &dec, &cfg).unwrap();
        assert!(a.report.stencil.is_none());
        assert!(a.report.ssim.is_none());
        assert!(a.report.histograms.is_some());
    }

    #[test]
    fn nan_inputs_are_counted() {
        let mut orig = Tensor::<f32>::zeros(Shape::d2(8, 8));
        orig.set([1, 1, 0, 0], f32::NAN);
        let dec = Tensor::<f32>::zeros(Shape::d2(8, 8));
        let cfg = AssessConfig {
            metrics: MetricSelection::pattern(Pattern::GlobalReduction),
            ..Default::default()
        };
        let a = SerialZc.assess(&orig, &dec, &cfg).unwrap();
        assert_eq!(a.report.non_finite, 1);
    }
}
