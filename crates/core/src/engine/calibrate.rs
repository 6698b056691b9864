//! A self-check of the job pricer: one probe job's measured span over its
//! prediction.
//!
//! The job pricer ([`crate::plan::estimate_job_cost`] on one device) prices
//! a job through the simulator's own cost function — the kernels' declared
//! launches, `gpu_time` and the stream timeline — so its prediction is
//! charged exactly as the run will be, and no production path corrects it.
//! (One uniform factor could not correct a per-job error anyway: the SSIM
//! share of a job's time differs from job to job.) [`CostCalibration::probe`]
//! measures the ratio on a small deterministic field pair, as a check that
//! the pricer tracks the modeled executor: its scale sits at 1.

use crate::campaign::FleetSpec;
use crate::config::AssessConfig;
use crate::exec::Executor;
use crate::plan::AssessPlan;
use zc_tensor::{Shape, Tensor};

/// The ratio of the modeled executor's measured span to the job pricer's
/// prediction on one probe job.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostCalibration {
    /// `measured span / predicted seconds` of the probe job.
    pub scale: f64,
}

impl CostCalibration {
    /// A unit ratio.
    pub fn identity() -> Self {
        CostCalibration { scale: 1.0 }
    }

    /// Probe extent: ~200k values — big enough to amortize per-launch
    /// constants the way real campaign jobs do, small enough to stay cheap.
    const PROBE: (usize, usize, usize) = (96, 64, 32);

    /// Measure the ratio for a fleet/config pair by assessing one
    /// deterministic synthetic field pair on the fleet's executor. Falls
    /// back to [`CostCalibration::identity`] if the probe cannot run.
    pub fn probe(fleet: &FleetSpec, cfg: &AssessConfig) -> Self {
        let (nx, ny, nz) = Self::PROBE;
        let orig = Tensor::from_fn(Shape::d3(nx, ny, nz), |[x, y, z, _]| {
            (x as f32 * 0.21).sin() + (y as f32 * 0.13).cos() + z as f32 * 0.01
        });
        let dec = orig.map(|v| v + 0.0015 * (v * 5.0).cos());
        let plan = AssessPlan::lower(cfg);
        let executor = fleet.executor();
        let Ok(a) = executor.run_plan(&plan, &orig, &dec, cfg) else {
            return Self::identity();
        };
        // The same span the campaign replay charges a device group for.
        let actual = crate::campaign::job::span_s(a.e2e.as_ref(), a.modeled_seconds);
        let (est, _) = super::job_cost(&plan, orig.shape(), cfg);
        if actual.is_finite() && actual > 0.0 && est > 0.0 {
            CostCalibration {
                scale: actual / est,
            }
        } else {
            Self::identity()
        }
    }

    /// Scale a predicted job cost by the measured ratio.
    pub fn apply(&self, seconds: f64) -> f64 {
        seconds * self.scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_finds_the_prediction_matches_its_run() {
        // One cost model: the monolithic probe's measured span is its
        // predicted one, up to the histogram's special-op bound.
        for fleet in [FleetSpec::nvlink(2), FleetSpec::pcie(4)] {
            let cal = CostCalibration::probe(&fleet, &AssessConfig::default());
            assert!((cal.scale - 1.0).abs() <= 0.01, "scale {}", cal.scale);
            assert_eq!(cal.apply(2.0), 2.0 * cal.scale);
        }
    }

    #[test]
    fn probe_is_deterministic() {
        let cfg = AssessConfig::default();
        let a = CostCalibration::probe(&FleetSpec::nvlink(4), &cfg);
        let b = CostCalibration::probe(&FleetSpec::nvlink(4), &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn identity_is_a_no_op() {
        let cal = CostCalibration::identity();
        assert_eq!(cal.apply(0.123), 0.123);
    }
}
