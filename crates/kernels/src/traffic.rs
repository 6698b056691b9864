//! Declared per-pass device-traffic models.
//!
//! Each fused kernel declares, in closed form, how many global-memory
//! bytes, lane flops, and launches one sweep over an `n`-element field
//! pair costs. The declarations live *here*, next to the kernels, and are
//! the only copy of these formulas: the job cost estimator, the plan
//! footprint table and the capacity attribution in `zc_core::plan` all
//! read them (through `PassKind::traffic`), so the estimator prices
//! exactly what the kernels say about themselves.
//!
//! The models price *useful* traffic (the payload each pass must touch),
//! not staging amplification — the simulator's measured counters are
//! allowed to sit above the declaration by a bounded staging factor (the
//! stencil re-reads its halo slices, the prepass-charge path rounds
//! sector traffic up). The tolerance test below pins every declaration to
//! the measured counters of a real launch within that band, so the
//! declarations cannot drift from the code.

/// Closed-form device traffic of one pass over a field pair.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Traffic {
    /// Global-memory bytes the pass must move (payload, not staging).
    pub bytes: f64,
    /// Lane flops the pass performs.
    pub flops: f64,
    /// Kernel launches the pass issues.
    pub launches: f64,
}

/// Pattern-1 fused scalar sweep: both f32 fields stream through once
/// (8 B/element); ~30 flops/element keep the 19 lane quantities.
pub fn p1_scalars(n: f64) -> Traffic {
    Traffic {
        bytes: 8.0 * n,
        flops: 30.0 * n,
        launches: 1.0,
    }
}

/// Pattern-1 histogram sweep: one more pass over both fields, ~12
/// flops/element for the three binnings.
pub fn p1_hist(n: f64) -> Traffic {
    Traffic {
        bytes: 8.0 * n,
        flops: 12.0 * n,
        launches: 1.0,
    }
}

/// Pattern-2 stencil cubes: one cube-load sweep per lag (the shared-memory
/// tiles make each sweep read the payload once), ~24 flops/element/lag for
/// derivatives + divergence + Laplacian + autocorrelation.
pub fn p2_stencil(n: f64, lags: f64) -> Traffic {
    Traffic {
        bytes: 8.0 * n * lags,
        flops: 24.0 * n * lags,
        launches: lags.max(1.0),
    }
}

/// Pattern-3 sliding-window SSIM: the FIFO buffer reads every z-slice
/// exactly once (the paper's headline claim), with ~window incremental
/// moment updates per element.
pub fn p3_ssim(n: f64, window: f64) -> Traffic {
    Traffic {
        bytes: 8.0 * n,
        flops: 11.0 * n * window,
        launches: 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        FieldPair, P1FusedKernel, P1HistKernel, P2FusedKernel, SsimFusedKernel, SsimParams,
    };
    use zc_gpusim::GpuSim;
    use zc_tensor::{Shape, Tensor};

    fn pair() -> (Tensor<f32>, Tensor<f32>, Shape) {
        // Deep enough along z for the window-8 SSIM scan to slide.
        let shape = Shape::d3(24, 20, 12);
        let orig: Vec<f32> = (0..shape.len()).map(|i| (i as f32 * 0.37).sin()).collect();
        let dec: Vec<f32> = orig.iter().map(|v| v + 1e-3).collect();
        (
            Tensor::from_vec(shape, orig).unwrap(),
            Tensor::from_vec(shape, dec).unwrap(),
            shape,
        )
    }

    /// Measured counters of a real launch must bracket the declaration:
    /// reads at least the declared payload and at most a bounded staging
    /// factor above it; flops within a 4x band either way. The band is
    /// deliberately loose — the declaration pins the *scale* of each
    /// pass (catching a forgotten charge or a new uncharged sweep), not
    /// the exact constant.
    fn check(t: Traffic, bytes: u64, flops: u64, launches: u64) {
        assert!(
            bytes as f64 >= t.bytes,
            "measured {bytes} B under declared {} B",
            t.bytes
        );
        assert!(
            (bytes as f64) <= t.bytes * 4.0,
            "measured {bytes} B more than 4x declared {} B",
            t.bytes
        );
        assert!(
            flops as f64 >= t.flops / 4.0 && flops as f64 <= t.flops * 4.0,
            "measured {flops} flops outside 4x band of declared {}",
            t.flops
        );
        assert_eq!(launches as f64, t.launches);
    }

    #[test]
    fn p1_scalars_declaration_matches_launch() {
        let (orig, dec, shape) = pair();
        let fields = FieldPair::new(&orig, &dec);
        let sim = GpuSim::v100();
        let k = P1FusedKernel { fields };
        let r = sim.launch(&k, k.grid());
        let n = shape.len() as f64;
        check(
            p1_scalars(n),
            r.counters.global_read_bytes,
            r.counters.lane_flops,
            1,
        );
    }

    #[test]
    fn p1_hist_declaration_matches_launch() {
        let (orig, dec, shape) = pair();
        let fields = FieldPair::new(&orig, &dec);
        let sim = GpuSim::v100();
        let p1 = P1FusedKernel { fields };
        let scalars = sim.launch(&p1, p1.grid()).output;
        let k = P1HistKernel {
            fields,
            scalars,
            bins: 32,
        };
        let r = sim.launch(&k, k.grid());
        check(
            p1_hist(shape.len() as f64),
            r.counters.global_read_bytes,
            r.counters.lane_flops,
            1,
        );
    }

    #[test]
    fn p2_stencil_declaration_matches_launches() {
        let (orig, dec, shape) = pair();
        let fields = FieldPair::new(&orig, &dec);
        let sim = GpuSim::v100();
        let p1 = P1FusedKernel { fields };
        let scalars = sim.launch(&p1, p1.grid()).output;
        let max_lag = 2;
        let (mut bytes, mut flops, mut launches) = (0u64, 0u64, 0u64);
        for stride in 1..=max_lag {
            let k = P2FusedKernel {
                fields,
                stride,
                mean_e: scalars.mean_e(),
                max_lag,
                derivatives: stride == 1,
                autocorr: true,
                cooperative: true,
            };
            let r = sim.launch(&k, k.grid());
            bytes += r.counters.global_read_bytes;
            flops += r.counters.lane_flops;
            launches += 1;
        }
        check(
            p2_stencil(shape.len() as f64, max_lag as f64),
            bytes,
            flops,
            launches,
        );
    }

    #[test]
    fn p3_ssim_declaration_matches_launch() {
        let (orig, dec, shape) = pair();
        let fields = FieldPair::new(&orig, &dec);
        let sim = GpuSim::v100();
        let p1 = P1FusedKernel { fields };
        let scalars = sim.launch(&p1, p1.grid()).output;
        let params = SsimParams::paper_defaults(scalars.value_range());
        let k = SsimFusedKernel {
            fields,
            params,
            fifo_in_shared: true,
        };
        let r = sim.launch(&k, k.grid());
        check(
            p3_ssim(shape.len() as f64, params.wsize as f64),
            r.counters.global_read_bytes,
            r.counters.lane_flops,
            1,
        );
    }
}
