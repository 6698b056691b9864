//! Executors — the "execution model + module coordinator" of Fig. 2.
//!
//! Four implementations of one [`Executor`] contract. An executor supplies
//! only how it runs and prices *one* pass ([`Executor::run_pass`]), plus
//! optional hooks: its host↔device link, its device capacity and its price
//! for the subsample prepass. Ordering, dependency resolution,
//! counter merging, profile construction and [`Assessment`] assembly live
//! once in [`crate::plan::PlanRunner`], and the trait's provided methods
//! (`run_plan`, `run_plan_seeded`, `assess`, `prepass`) are written once:
//!
//! | name | paper role | backend engine |
//! |---|---|---|
//! | [`SerialZc`] | ground-truth reference (§IV-B correctness check) | scalar loops, uncharged |
//! | [`OmpZc`] | multithreaded CPU baseline "ompZC" | zc-par threads + Xeon cost model |
//! | [`MoZc`] | metric-oriented GPU baseline "moZC" | per-metric kernels on `zc-gpusim` |
//! | [`CuZc`] | the paper's pattern-oriented "cuZC" | fused pattern kernels on `zc-gpusim` |
//!
//! All four produce the same metric *values* (to floating-point reduction
//! tolerance); they differ in the counted work and the modeled time — which
//! is exactly what Figs. 10–12 compare.

pub mod cpu_ref;
mod cuzc;
mod mozc;
mod ompzc;
mod serial;

pub use cuzc::CuZc;
pub use mozc::MoZc;
pub use ompzc::OmpZc;
pub use serial::SerialZc;

use crate::config::{AssessConfig, ExecutorKind};
use crate::metrics::Pattern;
use crate::plan::{
    subsample_scan, AssessPlan, Pass, PassCtx, PassExecution, PlanRunner, PrepassRun, RunLegs,
};
use crate::report::AnalysisReport;
use std::fmt;
use zc_gpusim::stream::HostLink;
use zc_gpusim::{Counters, EndToEnd, KernelClass, KernelResources};
use zc_tensor::{Shape, Tensor};

/// One pattern's aggregated execution record: the merged counters plus the
/// dominant launch geometry — enough for the benchmark harness to re-model
/// the pattern's time at a different scale (full paper-shape figures are
/// regenerated from reduced-scale functional runs this way).
#[derive(Clone, Debug)]
pub struct PatternRun {
    /// Which pattern.
    pub pattern: Pattern,
    /// Merged counters of all this pattern's launches/passes.
    pub counters: Counters,
    /// Grid size of the dominant launch (0 for CPU executors).
    pub grid_blocks: usize,
    /// Resource declaration of the dominant kernel (GPU executors).
    pub resources: Option<KernelResources>,
    /// Cost-model class.
    pub class: KernelClass,
}

/// Per-pattern execution profile — one row of the paper's Table II.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PatternProfile {
    /// Which pattern.
    pub pattern: Pattern,
    /// Registers per thread block (Regs/TB).
    pub regs_per_tb: u32,
    /// Shared memory per thread block in bytes (SMem/TB).
    pub smem_per_tb: u32,
    /// Deepest sequential per-thread iteration count (Iters/thread).
    pub iters_per_thread: u64,
    /// Concurrent thread blocks per SM (TB(cncr.)/SM).
    pub blocks_per_sm: u32,
    /// Thread blocks assigned per SM for the largest launch (TB/SM).
    pub tbs_per_sm: u32,
    /// Modeled seconds spent in this pattern's launches.
    pub modeled_seconds: f64,
}

/// Modeled per-pattern times (drives Fig. 11/12 regeneration).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PatternTimes {
    /// Pattern-1 seconds.
    pub p1: f64,
    /// Pattern-2 seconds.
    pub p2: f64,
    /// Pattern-3 seconds.
    pub p3: f64,
}

impl PatternTimes {
    /// Sum over patterns.
    pub fn total(&self) -> f64 {
        self.p1 + self.p2 + self.p3
    }

    /// Time of one pattern.
    pub fn of(&self, p: Pattern) -> f64 {
        match p {
            Pattern::GlobalReduction => self.p1,
            Pattern::Stencil => self.p2,
            Pattern::SlidingWindow => self.p3,
            Pattern::CompressionMeta => 0.0,
        }
    }
}

/// How an assessment's metric values were obtained — full resolution, or
/// estimated from the progressive strided-subsample prepass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Confidence {
    /// Every selected metric was computed over the whole field.
    #[default]
    Full,
    /// The values are subsample-prepass estimates: the job early-exited
    /// because its verdict was already decidable far from the thresholds.
    Subsampled,
}

impl Confidence {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Confidence::Full => "full",
            Confidence::Subsampled => "subsampled",
        }
    }
}

/// The result of one assessment run.
#[derive(Clone, Debug)]
pub struct Assessment {
    /// Metric values.
    pub report: AnalysisReport,
    /// Merged execution counters (what work was actually performed).
    pub counters: Counters,
    /// Modeled execution time on the executor's platform model.
    pub modeled_seconds: f64,
    /// Modeled time per pattern.
    pub pattern_times: PatternTimes,
    /// Wall-clock seconds this simulation run took (host-side, for
    /// information only — figures use the modeled times).
    pub wall_seconds: f64,
    /// Per-pattern launch profiles (GPU executors only — Table II).
    pub profiles: Vec<PatternProfile>,
    /// Per-pattern execution records (all executors — figure harness).
    pub runs: Vec<PatternRun>,
    /// Modeled end-to-end time including host↔device transfer legs, as an
    /// overlapped stream makespan vs the serialized sum (device-resident
    /// backends only; `None` for host executors).
    pub e2e: Option<EndToEnd>,
    /// The copy and compute legs `e2e` was scheduled from, for a device
    /// group to replay beside its other jobs (`None` wherever `e2e` is).
    pub legs: Option<RunLegs>,
    /// Whether the metric values are full-resolution or subsample
    /// estimates (progressive early exit).
    pub confidence: Confidence,
}

impl Assessment {
    /// An early-exit assessment assembled from a subsample prepass: the
    /// pattern-1 scalars are the subsample estimates, every other report
    /// section is absent, and the result is marked
    /// [`Confidence::Subsampled`].
    pub fn from_prepass(shape: Shape, run: &PrepassRun, cfg: &AssessConfig) -> Assessment {
        let report =
            AnalysisReport::assemble(shape, 0, run.estimate.scalars, None, None, None, cfg);
        let runs = if run.counters.launches > 0 {
            vec![PatternRun {
                pattern: Pattern::GlobalReduction,
                counters: run.counters,
                grid_blocks: 0,
                resources: None,
                class: KernelClass::GlobalReduction,
            }]
        } else {
            Vec::new()
        };
        Assessment {
            report,
            counters: run.counters,
            modeled_seconds: run.modeled_seconds,
            pattern_times: PatternTimes {
                p1: run.modeled_seconds,
                ..Default::default()
            },
            wall_seconds: 0.0,
            profiles: Vec::new(),
            runs,
            e2e: None,
            legs: None,
            confidence: Confidence::Subsampled,
        }
    }

    /// Modeled assessment throughput in GB/s over one field's payload
    /// (the y-axis of Fig. 11).
    pub fn throughput_gbs(&self, pattern: Option<Pattern>) -> f64 {
        let bytes = self.report.shape.len() as f64 * 4.0;
        let secs = match pattern {
            Some(p) => self.pattern_times.of(p),
            None => self.modeled_seconds,
        };
        if secs <= 0.0 {
            0.0
        } else {
            bytes / secs / 1e9
        }
    }
}

/// Assessment errors.
#[derive(Clone, Debug, PartialEq)]
pub enum AssessError {
    /// Original and decompressed shapes differ.
    ShapeMismatch,
    /// The configuration failed validation.
    BadConfig(String),
    /// The field pair cannot be made resident under the backend's device
    /// memory with the configured tiling policy (out-of-core requires slab
    /// tiling; monolithic placement requires the whole pair to fit).
    Capacity {
        /// Bytes the configured placement would need resident at once.
        required: u64,
        /// Simulated device memory capacity in bytes.
        capacity: u64,
        /// The pass whose footprint dominates the resident requirement
        /// (from the plan verifier's static footprint computation; `None`
        /// when the error predates lowering, e.g. a bare slab resolution).
        pass: Option<crate::plan::PassKind>,
    },
    /// No element of the pair has both values finite: every metric would
    /// be NaN or infinite, so there is nothing to assess.
    NoFiniteElement,
}

impl AssessError {
    /// Attribute a capacity error to the dominating pass (no-op for other
    /// variants or when already attributed).
    pub fn with_pass(self, kind: Option<crate::plan::PassKind>) -> AssessError {
        match self {
            AssessError::Capacity {
                required,
                capacity,
                pass: None,
            } => AssessError::Capacity {
                required,
                capacity,
                pass: kind,
            },
            other => other,
        }
    }
}

impl fmt::Display for AssessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AssessError::ShapeMismatch => write!(f, "original/decompressed shape mismatch"),
            AssessError::BadConfig(msg) => write!(f, "bad configuration: {msg}"),
            AssessError::Capacity {
                required,
                capacity,
                pass,
            } => {
                write!(
                    f,
                    "field pair needs {required} resident bytes but the device has {capacity}"
                )?;
                if let Some(kind) = pass {
                    write!(f, " (largest field pass: {kind:?})")?;
                }
                write!(f, " — enable slab tiling or reduce the field")
            }
            AssessError::NoFiniteElement => {
                write!(f, "field pair has no element where both values are finite")
            }
        }
    }
}

impl std::error::Error for AssessError {}

/// The assessment contract every executor implements.
///
/// An executor supplies [`Executor::name`] and [`Executor::run_pass`] —
/// "given this pass, produce its output and the launches it cost" — and
/// may override the hooks that describe its platform: [`Executor::transfer`],
/// [`Executor::device_capacity`] and [`Executor::prepass_charge`]. Everything else is provided once:
/// [`Executor::run_plan`] and [`Executor::run_plan_seeded`] drive the
/// [`PlanRunner`], [`Executor::assess`] is "lower, then run the plan", and
/// [`Executor::prepass`] is the shared subsample scan plus the executor's
/// charge for it.
pub trait Executor {
    /// Executor name as used in the paper's figures.
    fn name(&self) -> &'static str;

    /// Execute one pass, returning partials + counters.
    fn run_pass(&self, pass: &Pass, ctx: &PassCtx<'_>) -> PassExecution;

    /// The modeled host↔device link, for executors whose inputs must be
    /// staged onto an accelerator (`None` = host-resident, no transfer
    /// legs, no end-to-end timeline).
    fn transfer(&self) -> Option<HostLink> {
        None
    }

    /// Device (global) memory capacity in bytes, for executors that stage
    /// fields onto an accelerator (`None` = host-resident, unconstrained).
    /// Field pairs larger than this are assessed out-of-core: the slab
    /// resolution forces enough tiles that the resident window fits.
    fn device_capacity(&self) -> Option<u64> {
        None
    }

    /// The platform model's price — counters and modeled seconds — for the
    /// strided prepass scan over `sampled` elements drawn at `stride`. The
    /// default charges nothing (the ground-truth reference).
    fn prepass_charge(&self, _sampled: u64, _stride: usize) -> (Counters, f64) {
        (Counters::default(), 0.0)
    }

    /// Execute a lowered assessment plan on a field pair.
    fn run_plan(
        &self,
        plan: &AssessPlan,
        orig: &Tensor<f32>,
        dec: &Tensor<f32>,
        cfg: &AssessConfig,
    ) -> Result<Assessment, AssessError> {
        PlanRunner::new(plan).run(self, orig, dec, cfg)
    }

    /// Execute a lowered (typically residual) plan with already-computed
    /// pattern-1 scalars fed forward through the plan's dependency edges
    /// instead of recomputing them — the partial-cache-hit path (see
    /// [`AssessPlan::residual`]). Because every dependent pass consumes
    /// exactly the scalars a cold run would have produced, the resulting
    /// sections are bit-identical to a cold full run's.
    fn run_plan_seeded(
        &self,
        plan: &AssessPlan,
        orig: &Tensor<f32>,
        dec: &Tensor<f32>,
        cfg: &AssessConfig,
        seed: zc_kernels::P1Scalars,
    ) -> Result<Assessment, AssessError> {
        PlanRunner::new(plan)
            .with_seed(seed)
            .run(self, orig, dec, cfg)
    }

    /// Assess a field pair under a configuration (lower + run the plan).
    fn assess(
        &self,
        orig: &Tensor<f32>,
        dec: &Tensor<f32>,
        cfg: &AssessConfig,
    ) -> Result<Assessment, AssessError> {
        let plan = AssessPlan::lower(cfg);
        self.run_plan(&plan, orig, dec, cfg)
    }

    /// Run the progressive strided-subsample pattern-1 prepass. The
    /// estimate is always the shared host scan ([`subsample_scan`]) — bit
    /// identical on every executor — while the modeled charge is the
    /// executor's own [`Executor::prepass_charge`].
    fn prepass(
        &self,
        orig: &Tensor<f32>,
        dec: &Tensor<f32>,
        stride: usize,
    ) -> Result<PrepassRun, AssessError> {
        if orig.shape() != dec.shape() {
            return Err(AssessError::ShapeMismatch);
        }
        let estimate = subsample_scan(orig, dec, stride);
        let (counters, modeled_seconds) = self.prepass_charge(estimate.sampled(), stride);
        Ok(PrepassRun {
            estimate,
            counters,
            modeled_seconds,
        })
    }
}

/// Instantiate an executor by configuration kind.
pub fn make_executor(kind: ExecutorKind) -> Box<dyn Executor> {
    make_executor_with_device_mem(kind, None)
}

/// Instantiate an executor with the simulated device memory overridden
/// (the CLI's `--device-mem`): fields whose pair exceeds it stream
/// out-of-core through the slab-tiled schedule. Host executors have no
/// device and ignore the override.
pub fn make_executor_with_device_mem(
    kind: ExecutorKind,
    mem_bytes: Option<u64>,
) -> Box<dyn Executor> {
    match kind {
        ExecutorKind::CuZc => {
            let mut e = CuZc::default();
            if let Some(m) = mem_bytes {
                e.sim.dev.mem_bytes = m;
            }
            Box::new(e)
        }
        ExecutorKind::MoZc => {
            let mut e = MoZc::default();
            if let Some(m) = mem_bytes {
                e.sim.dev.mem_bytes = m;
            }
            Box::new(e)
        }
        ExecutorKind::OmpZc => Box::new(OmpZc::default()),
        ExecutorKind::Serial => Box::new(SerialZc),
    }
}

/// Common validation performed by every executor.
pub(crate) fn validate(
    orig: &Tensor<f32>,
    dec: &Tensor<f32>,
    cfg: &AssessConfig,
) -> Result<u64, AssessError> {
    if orig.shape() != dec.shape() {
        return Err(AssessError::ShapeMismatch);
    }
    cfg.validate()
        .map_err(|e| AssessError::BadConfig(e.to_string()))?;
    let nf = orig.iter().filter(|v| !v.is_finite()).count()
        + dec.iter().filter(|v| !v.is_finite()).count();
    // Only a pair with non-finite values can lack a finite element, so the
    // common all-finite pair pays no second scan.
    if nf > 0
        && !orig
            .iter()
            .zip(dec.iter())
            .any(|(a, b)| a.is_finite() && b.is_finite())
    {
        return Err(AssessError::NoFiniteElement);
    }
    Ok(nf as u64)
}
