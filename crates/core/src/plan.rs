//! The assessment-plan IR — one scheduler behind every executor.
//!
//! The paper's core idea is that metric *selection* lowers to pattern
//! *passes* (Table I → Algorithms 1–3). This module makes that lowering a
//! first-class object instead of a convention each executor re-implements:
//!
//! 1. [`AssessPlan::lower`] turns a [`MetricSelection`] + [`AssessConfig`]
//!    into a small DAG of [`Pass`] nodes — pattern-1 scalars, pattern-1
//!    histograms (*depending on* the scalar min/max), the pattern-2
//!    stencil, the pattern-3 SSIM window sweep, and the compression-meta
//!    node — each tagged with its pattern, kernel class, input needs and
//!    the metrics it serves.
//! 2. An [`Executor`] knows how to execute *one* pass ("run this pass,
//!    return partials + counters"). [`SerialZc`], [`OmpZc`], [`MoZc`] and
//!    [`CuZc`] supply little more than that; [`MultiCuZc`] runs the
//!    [`CuZc`] passes and adds a [`DevicePlacement`] policy.
//! 3. [`PlanRunner`] owns everything else an executor needs:
//!    ordering, dependency resolution, counter merging, [`PatternRun`] /
//!    [`PatternProfile`] construction, the modeled stream timeline
//!    ([`zc_gpusim::stream`]) and the final [`Assessment`] assembly. There
//!    is one timeline builder, the slab schedule of DESIGN.md §6.8; a
//!    monolithic run is its one-slab case.
//!
//! The scalar pass is **always** scheduled, even when no pattern-1 metric
//! is selected: its mean error feeds the pattern-2 autocorrelation and its
//! value range feeds SSIM, exactly as in the real coordinator. A pass that
//! serves no selected metric is *auxiliary* ([`Pass::is_auxiliary`]);
//! backends that genuinely launch it (the GPU coordinators) still charge
//! for it, while the metric-at-a-time CPU baseline computes the values for
//! free as byproducts of the passes it does charge.
//!
//! [`SerialZc`]: crate::exec::SerialZc
//! [`OmpZc`]: crate::exec::OmpZc
//! [`MoZc`]: crate::exec::MoZc
//! [`CuZc`]: crate::exec::CuZc
//! [`MultiCuZc`]: crate::exec::MultiCuZc

pub mod verify;
pub use verify::{
    footprint, verify, verify_tile_schedule, BackendCaps, PassFootprint, PlanFootprint,
};

use crate::config::AssessConfig;
use crate::exec::{
    validate, AssessError, Assessment, Confidence, Executor, PatternProfile, PatternRun,
    PatternTimes,
};
use crate::metrics::{Metric, MetricSelection, Pattern};
use crate::report::AnalysisReport;
use std::time::Instant;
use zc_gpusim::cost::gpu_time;
use zc_gpusim::stream::{EndToEnd, Engine, HostLink, Timeline};
use zc_gpusim::{occupancy, Counters, GpuSim, KernelClass, KernelResources, MultiGpuModel};
use zc_kernels::p3::SsimAcc;
use zc_kernels::traffic::{self, Launch};
use zc_kernels::{P1Histograms, P1Scalars, P2Stats};
use zc_tensor::{Shape, Tensor};

/// The five node kinds an assessment plan can contain.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum PassKind {
    /// Fused pattern-1 scalar reductions (min/max/moments/errors).
    P1Scalars,
    /// Pattern-1 histograms — needs the scalar min/max first.
    P1Hist,
    /// Pattern-2 stencil sweep (derivatives + autocorrelation).
    P2Stencil,
    /// Pattern-3 sliding-window SSIM.
    P3Ssim,
    /// Compression-meta bookkeeping (ratio/throughputs) — no field pass.
    CompressionMeta,
}

impl PassKind {
    /// Every pass kind, in canonical schedule order.
    pub const ALL: [PassKind; 5] = [
        PassKind::P1Scalars,
        PassKind::P1Hist,
        PassKind::P2Stencil,
        PassKind::P3Ssim,
        PassKind::CompressionMeta,
    ];

    /// The pattern a pass belongs to.
    pub fn pattern(self) -> Pattern {
        match self {
            PassKind::P1Scalars | PassKind::P1Hist => Pattern::GlobalReduction,
            PassKind::P2Stencil => Pattern::Stencil,
            PassKind::P3Ssim => Pattern::SlidingWindow,
            PassKind::CompressionMeta => Pattern::CompressionMeta,
        }
    }

    /// The cost-model kernel class of the pass.
    pub fn class(self) -> KernelClass {
        match self {
            PassKind::P1Scalars | PassKind::P1Hist => KernelClass::GlobalReduction,
            PassKind::P2Stencil => KernelClass::Stencil,
            PassKind::P3Ssim => KernelClass::SlidingWindow,
            PassKind::CompressionMeta => KernelClass::Generic,
        }
    }

    /// The registry: which pass serves a metric. Total — every metric lands
    /// in exactly one pass.
    pub fn of(m: Metric) -> PassKind {
        match m {
            // The three distribution metrics need the binning pass; every
            // other global reduction comes out of the fused scalar pass.
            Metric::Entropy | Metric::ErrorPdf | Metric::PwrErrorPdf => PassKind::P1Hist,
            _ => match m.pattern() {
                Pattern::GlobalReduction => PassKind::P1Scalars,
                Pattern::Stencil => PassKind::P2Stencil,
                Pattern::SlidingWindow => PassKind::P3Ssim,
                Pattern::CompressionMeta => PassKind::CompressionMeta,
            },
        }
    }

    /// The pass's cuZC launches on a field of `shape` under a
    /// configuration, as the kernels declare them ([`zc_kernels::traffic`]:
    /// exact counters, grid, resources, class) — empty for the meta pass,
    /// which launches nothing. The job pricer, the footprint table and the
    /// capacity attribution all read this one mapping.
    pub fn launches(self, shape: Shape, cfg: &AssessConfig) -> Vec<Launch> {
        match self {
            PassKind::P1Scalars => vec![traffic::p1_scalars(shape)],
            PassKind::P1Hist => vec![traffic::p1_hist(shape, cfg.bins)],
            PassKind::P2Stencil => (1..=cfg.max_lag)
                .map(|stride| traffic::p2_stencil(shape, stride, cfg.max_lag))
                .collect(),
            PassKind::P3Ssim => vec![traffic::p3_ssim(shape, cfg.ssim.window, cfg.ssim.step)],
            PassKind::CompressionMeta => Vec::new(),
        }
    }

    /// The pass's declared launches merged into one counter set.
    pub fn declared(self, shape: Shape, cfg: &AssessConfig) -> Counters {
        Counters::merged(self.launches(shape, cfg).iter().map(|l| &l.counters))
    }
}

/// One node of the lowered plan DAG.
#[derive(Clone, Debug)]
pub struct Pass {
    /// Which pass.
    pub kind: PassKind,
    /// The pattern it belongs to (Table I classification).
    pub pattern: Pattern,
    /// The cost-model kernel class of its launches.
    pub class: KernelClass,
    /// Passes whose outputs this pass consumes (histograms need the scalar
    /// min/max; the stencil needs μₑ; SSIM needs the value range).
    pub deps: Vec<PassKind>,
    /// The selected metrics this pass serves. Empty = auxiliary: scheduled
    /// only because a dependent pass needs its output.
    pub metrics: MetricSelection,
    /// Whether the pass reads the two input field tensors.
    pub reads_fields: bool,
}

impl Pass {
    /// Does this pass serve no selected metric (dependency-only)?
    pub fn is_auxiliary(&self) -> bool {
        self.metrics.is_empty()
    }
}

/// A lowered assessment plan: [`Pass`] nodes in topological order.
#[derive(Clone, Debug)]
pub struct AssessPlan {
    passes: Vec<Pass>,
}

impl AssessPlan {
    /// Lower a configuration's metric selection into the pass DAG.
    ///
    /// * `P1Scalars` is always present (auxiliary if no scalar pattern-1
    ///   metric is selected) — both other patterns depend on it.
    /// * `P1Hist` is present iff a distribution metric (entropy, error
    ///   PDF, pwr-error PDF) is selected, and depends on `P1Scalars`.
    /// * `P2Stencil` / `P3Ssim` are present iff their pattern has a
    ///   selected metric; both depend on `P1Scalars`.
    /// * `CompressionMeta` is a dependency-free bookkeeping node.
    pub fn lower(cfg: &AssessConfig) -> AssessPlan {
        let sel = &cfg.metrics;
        let served = |kind: PassKind| {
            sel.iter()
                .filter(|&m| PassKind::of(m) == kind)
                .fold(MetricSelection::none(), MetricSelection::with)
        };
        let mut passes = Vec::new();
        for kind in PassKind::ALL {
            let metrics = served(kind);
            let scheduled = match kind {
                PassKind::P1Scalars => true,
                _ => !metrics.is_empty(),
            };
            if !scheduled {
                continue;
            }
            let deps = match kind {
                PassKind::P1Scalars | PassKind::CompressionMeta => Vec::new(),
                PassKind::P1Hist | PassKind::P2Stencil | PassKind::P3Ssim => {
                    vec![PassKind::P1Scalars]
                }
            };
            passes.push(Pass {
                kind,
                pattern: kind.pattern(),
                class: kind.class(),
                deps,
                metrics,
                reads_fields: kind != PassKind::CompressionMeta,
            });
        }
        AssessPlan { passes }
    }

    /// Build a plan directly from pass nodes, bypassing the lowering
    /// invariants — the verifier's seam for mutant plans `lower` can never
    /// produce (cycles, orphaned dependencies, dead passes). Production
    /// code lowers; anything built here should go through
    /// [`verify::verify`] before it is trusted.
    pub fn from_passes(passes: Vec<Pass>) -> AssessPlan {
        AssessPlan { passes }
    }

    /// Lower a configuration into the **residual** plan a partial cache
    /// hit executes: the full lowering minus the passes whose outputs are
    /// already available (`covered`).
    ///
    /// Dropping `P1Scalars` leaves its dependents with a dangling edge the
    /// runner can only satisfy from a seed — run residual plans through
    /// [`PlanRunner::with_seed`] (or [`Executor::run_plan_seeded`]) with
    /// the cached scalars. Because every dependent pass consumes exactly
    /// the `P1Scalars` values a cold run would have produced, the residual
    /// sections are bit-identical to the cold full run's.
    ///
    /// [`Executor::run_plan_seeded`]: crate::exec::Executor::run_plan_seeded
    pub fn residual(cfg: &AssessConfig, covered: &[PassKind]) -> AssessPlan {
        let full = AssessPlan::lower(cfg);
        AssessPlan {
            passes: full
                .passes
                .into_iter()
                .filter(|p| !covered.contains(&p.kind))
                .collect(),
        }
    }

    /// The passes, in topological (schedule) order.
    pub fn passes(&self) -> &[Pass] {
        &self.passes
    }

    /// Look up a pass node by kind.
    pub fn pass(&self, kind: PassKind) -> Option<&Pass> {
        self.passes.iter().find(|p| p.kind == kind)
    }

    /// Is a pass scheduled at all?
    pub fn contains(&self, kind: PassKind) -> bool {
        self.pass(kind).is_some()
    }
}

/// One modeled launch a backend performed for a pass: the counters plus
/// the geometry the runner needs for profiles and re-modeling. CPU
/// backends use `resources: None`, `grid_blocks: 0`.
#[derive(Clone, Copy, Debug)]
pub struct PassLaunch {
    /// Execution counters of the launch.
    pub counters: Counters,
    /// Modeled seconds of the launch on the backend's platform model.
    pub seconds: f64,
    /// Grid size in thread blocks (0 for CPU passes).
    pub grid_blocks: usize,
    /// Kernel resource declaration (GPU backends).
    pub resources: Option<KernelResources>,
    /// Achieved concurrent blocks per SM (GPU backends).
    pub blocks_per_sm: u32,
    /// Thread blocks assigned per SM for this launch (GPU backends).
    pub tbs_per_sm: u32,
    /// Cost-model class of the launched kernel.
    pub class: KernelClass,
}

impl PassLaunch {
    /// Build a launch record from a simulated GPU kernel launch.
    pub fn from_gpu<O>(
        sim: &GpuSim,
        k: &impl zc_gpusim::BlockKernel,
        r: &zc_gpusim::LaunchResult<O>,
    ) -> PassLaunch {
        PassLaunch {
            counters: r.counters,
            seconds: r.modeled.total_s,
            grid_blocks: r.grid_blocks,
            resources: Some(k.resources()),
            blocks_per_sm: r.occupancy.blocks_per_sm,
            tbs_per_sm: r.grid_blocks.div_ceil(sim.dev.sms as usize) as u32,
            class: k.class(),
        }
    }

    /// Price a declared launch exactly as [`GpuSim::launch`] prices the
    /// real one: the simulator's [`gpu_time`] over its counters, occupancy
    /// and grid.
    pub fn declared(sim: &GpuSim, l: &Launch) -> PassLaunch {
        let occ = occupancy(&sim.dev, &l.resources);
        let t = gpu_time(&sim.dev, &sim.calib, &l.counters, &occ, l.grid, l.class);
        PassLaunch {
            counters: l.counters,
            seconds: t.total_s,
            grid_blocks: l.grid,
            resources: Some(l.resources),
            blocks_per_sm: occ.blocks_per_sm,
            tbs_per_sm: l.grid.div_ceil(sim.dev.sms as usize) as u32,
            class: l.class,
        }
    }

    /// Build a launch record from a modeled CPU pass.
    pub fn from_cpu(counters: Counters, seconds: f64, class: KernelClass) -> PassLaunch {
        PassLaunch {
            counters,
            seconds,
            grid_blocks: 0,
            resources: None,
            blocks_per_sm: 0,
            tbs_per_sm: 0,
            class,
        }
    }
}

/// The functional result of one pass.
#[derive(Clone, Debug)]
pub enum PassOutput {
    /// Pattern-1 scalar accumulators.
    Scalars(P1Scalars),
    /// Pattern-1 histograms.
    Histograms(P1Histograms),
    /// Pattern-2 stencil statistics.
    Stencil(P2Stats),
    /// Pattern-3 SSIM accumulator.
    Ssim(SsimAcc),
}

/// What a backend returns for one executed pass.
#[derive(Clone, Debug)]
pub struct PassExecution {
    /// The functional partials.
    pub output: PassOutput,
    /// The launches performed (empty for uncharged passes).
    pub launches: Vec<PassLaunch>,
    /// Per-slab seconds of the pass, one entry per slab (summed across the
    /// pass's launches; a monolithic run has one). The stream timeline reads
    /// only this, so a backend with a host link must fill it; CPU backends
    /// leave it empty. The launches above stay merged whole-grid records —
    /// tiles only shape the stream timeline, never counters or profiles.
    pub tiles: Vec<f64>,
}

impl PassExecution {
    /// An execution with no tile record yet (CPU backends keep it so; GPU
    /// backends add their launches' charges with [`Self::fold_tiles`]).
    pub fn new(output: PassOutput, launches: Vec<PassLaunch>) -> Self {
        PassExecution {
            output,
            launches,
            tiles: Vec::new(),
        }
    }

    /// Fold one tiled launch's per-slab seconds into this pass's tile
    /// vector of `slabs` entries. Launches whose grid held fewer tiles
    /// than `slabs` spread their charge over the vector proportionally.
    pub fn fold_tiles(&mut self, slabs: usize, tiles: &[zc_gpusim::TileCharge]) {
        fold_slab_seconds(&mut self.tiles, slabs, tiles.iter().map(|t| t.seconds));
    }
}

/// [`PassExecution::fold_tiles`] over bare per-tile seconds.
fn fold_slab_seconds(
    into: &mut Vec<f64>,
    slabs: usize,
    seconds: impl ExactSizeIterator<Item = f64>,
) {
    let l = seconds.len();
    if l == 0 {
        return;
    }
    if into.len() < slabs {
        into.resize(slabs, 0.0);
    }
    let s = into.len();
    for (i, t) in seconds.enumerate() {
        into[i * s / l] += t;
    }
}

/// Read-only context a backend receives for each pass: the input tensors,
/// the configuration, and the outputs of already-completed dependencies.
pub struct PassCtx<'a> {
    /// Original field.
    pub orig: &'a Tensor<f32>,
    /// Decompressed field.
    pub dec: &'a Tensor<f32>,
    /// Assessment configuration.
    pub cfg: &'a AssessConfig,
    /// The pattern-1 scalar output, once `P1Scalars` has run.
    pub p1: Option<P1Scalars>,
    /// Resolved z-slab tile count for this run (1 = monolithic). Backends
    /// dispatch each pass slab-wise at this granularity, carrying their
    /// reduction state across slabs.
    pub slabs: usize,
}

impl PassCtx<'_> {
    /// The pattern-1 scalars a dependent pass is guaranteed to have.
    pub fn p1(&self) -> P1Scalars {
        self.p1
            .expect("plan topology guarantees P1Scalars runs before dependents")
    }
}

/// Target field-pair bytes per slab under [`TilingPolicy::Auto`] (~8 MiB
/// keeps a 256³ pair at 16 slabs).
///
/// [`TilingPolicy::Auto`]: crate::config::TilingPolicy::Auto
const SLAB_TARGET_BYTES: u64 = 8 << 20;

/// Below this pair size the Auto policy stays monolithic: tiling a field
/// whose upload lasts microseconds only adds per-event transfer latency.
const AUTO_TILING_MIN_BYTES: u64 = 16 << 20;

/// Out-of-core resident window, in slabs: the slab being computed, the
/// next one prefetching, plus halo/eviction slack. The slab count is
/// forced high enough that this window fits in device memory.
const RESIDENT_SLABS: u64 = 4;

/// Resolve a run's slab count from the tiling policy, the field-pair
/// footprint, the tileable extent (z-planes × w), and the backend's device
/// capacity. Degenerate inputs (1-plane fields, slab requests ≥ extent)
/// clamp rather than fail; an out-of-core pair under a `Monolithic` policy
/// (or one too large even for per-plane slabs) is an error.
///
/// Inside the library only [`SlabSchedule::resolve`] calls this; it stays
/// public for the benchmark harness, which reports a job's slab count
/// from a shape and a policy without a lowered plan at hand.
pub fn resolve_slabs(
    policy: crate::config::TilingPolicy,
    pair_bytes: u64,
    planes: usize,
    capacity: Option<u64>,
) -> Result<usize, AssessError> {
    use crate::config::TilingPolicy;
    let max_slabs = planes.max(1);
    let wanted = match policy {
        TilingPolicy::Monolithic => 1,
        TilingPolicy::Slabs(n) => n.max(1),
        TilingPolicy::Auto => {
            if pair_bytes < AUTO_TILING_MIN_BYTES {
                1
            } else {
                (pair_bytes / SLAB_TARGET_BYTES).clamp(2, 64) as usize
            }
        }
    };
    let mut slabs = wanted.clamp(1, max_slabs);
    if let Some(cap) = capacity.filter(|&cap| pair_bytes > cap) {
        // Out-of-core: RESIDENT_SLABS × ceil(pair / slabs) must fit.
        let min_slabs = (pair_bytes * RESIDENT_SLABS).div_ceil(cap.max(1)) as usize;
        if policy == TilingPolicy::Monolithic || min_slabs > max_slabs {
            return Err(AssessError::Capacity {
                required: if policy == TilingPolicy::Monolithic {
                    pair_bytes
                } else {
                    pair_bytes.div_ceil(max_slabs as u64) * RESIDENT_SLABS
                },
                capacity: cap,
                pass: None,
            });
        }
        slabs = slabs.max(min_slabs);
    }
    Ok(slabs)
}

/// A job's slab schedule (DESIGN.md §6.8): its field-pair bytes, tileable
/// plane count and slab count against one device capacity — the single
/// place a run's slab count, out-of-core state and resident window are
/// decided. The runner, the job pricer, the plan verifier and the CLI all
/// read this one value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlabSchedule {
    /// Field-pair bytes (both f32 fields).
    pub pair_bytes: u64,
    /// Tileable extent (z-planes × w), at least 1.
    pub planes: usize,
    /// Resolved slab count (1 = monolithic).
    pub slabs: usize,
    /// The device capacity the schedule was resolved against (`None` = a
    /// host-resident backend).
    pub capacity: Option<u64>,
}

impl SlabSchedule {
    /// Resolve `shape`'s schedule under `cfg.tiling` on a device of
    /// `capacity` bytes ([`resolve_slabs`]). A capacity error is
    /// attributed to the plan's heaviest field-reading pass.
    pub fn resolve(
        plan: &AssessPlan,
        shape: Shape,
        cfg: &AssessConfig,
        capacity: Option<u64>,
    ) -> Result<SlabSchedule, AssessError> {
        let one = SlabSchedule::one_slab(shape, capacity);
        let slabs = resolve_slabs(cfg.tiling, one.pair_bytes, one.planes, capacity)
            .map_err(|e| e.with_pass(verify::heaviest_field_pass(plan, shape, cfg)))?;
        Ok(SlabSchedule { slabs, ..one })
    }

    /// `shape` as one slab — what an unplaceable job is priced as.
    fn one_slab(shape: Shape, capacity: Option<u64>) -> SlabSchedule {
        SlabSchedule {
            pair_bytes: shape.len() as u64 * 4 * 2,
            planes: (shape.nz() * shape.nw()).max(1),
            slabs: 1,
            capacity,
        }
    }

    /// Whether the pair exceeds the device: every dependent pass then
    /// re-uploads the slabs it reads.
    pub fn out_of_core(&self) -> bool {
        self.capacity.is_some_and(|cap| self.pair_bytes > cap)
    }

    /// Resident device window in bytes: the whole pair for one slab,
    /// otherwise `RESIDENT_SLABS` mean slabs, capped at the larger of the
    /// device and the pair (`None` on a host backend).
    pub fn resident_bytes(&self) -> Option<u64> {
        let cap = self.capacity?;
        Some(if self.slabs == 1 {
            self.pair_bytes
        } else {
            let window = self.pair_bytes.div_ceil(self.slabs as u64) * RESIDENT_SLABS;
            window.min(cap.max(self.pair_bytes))
        })
    }

    /// Each slab's upload bytes, in slab order ([`slab_ranges`] over the
    /// planes).
    pub fn slab_bytes(&self) -> impl Iterator<Item = u64> {
        let plane_bytes = self.pair_bytes / self.planes as u64;
        slab_ranges(self.planes, self.slabs).map(move |(lo, hi)| (hi - lo) as u64 * plane_bytes)
    }
}

/// Split `n` sequential units (planes, plane tasks) into at most `slabs`
/// contiguous ranges, the first `n % slabs` one unit longer. Slab-tiled
/// dispatch iterates these in order with a carried accumulator, so any
/// fold that was sequential-in-order stays **bit-identical** under tiling.
pub fn slab_ranges(n: usize, slabs: usize) -> impl Iterator<Item = (usize, usize)> {
    let slabs = slabs.clamp(1, n.max(1));
    let (base, rem) = (n / slabs, n % slabs);
    (0..slabs).scan(0, move |lo, s| {
        let range = (*lo, *lo + base + usize::from(s < rem));
        *lo = range.1;
        Some(range)
    })
}

/// The last upload slab tile `i` of a pass tiled `tiles` ways covers when
/// the pair streams in `slabs` slabs.
fn slab_of(i: usize, tiles: usize, slabs: usize) -> usize {
    ((i + 1) * slabs).div_ceil(tiles) - 1
}

/// A job-level cost prediction derived from a lowered [`AssessPlan`] and
/// the field shape alone — no field data, no execution. The campaign list
/// scheduler ranks and balances jobs on [`CostEstimate::seconds`].
#[derive(Clone, Debug)]
pub struct CostEstimate {
    /// Predicted per-pass compute seconds, in plan order (after any
    /// multi-device re-pricing).
    pub pass_seconds: Vec<(PassKind, f64)>,
    /// Predicted overlapped end-to-end makespan: the pass seconds pushed
    /// through the same stream-timeline model the executors report `e2e`
    /// from, over the PCIe staging link they stage on.
    pub seconds: f64,
    /// The Table-II profile of each pattern's declared launches, folded
    /// exactly as [`PlanRunner::run`] folds executed ones.
    pub profiles: Vec<PatternProfile>,
    /// The slab count the run resolves on the priced device: its memory
    /// capacity forces an out-of-core pair into more slabs.
    pub slabs: usize,
}

/// Predict one job's assessment cost on `gpus` V100s joined by `link`
/// ([`DevicePlacement::price_job`]).
pub fn estimate_job_cost(
    plan: &AssessPlan,
    shape: Shape,
    cfg: &AssessConfig,
    gpus: u32,
    link: &MultiGpuModel,
) -> CostEstimate {
    let sim = GpuSim::v100();
    DevicePlacement {
        link: MultiGpuModel {
            gpus: gpus.max(1),
            ..*link
        },
        sim: &sim,
    }
    .price_job(plan, shape, cfg)
}

/// The strided-subsample pattern-1 prepass result (progressive
/// assessment): fused P1 moments over every `stride`-th element in flat
/// order. The scan itself is one shared host loop, so the estimate is
/// bit-identical on every executor — only the modeled *charge* differs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PrepassEstimate {
    /// Fused pattern-1 moments over the subsample.
    pub scalars: P1Scalars,
    /// Flat-index stride the subsample was drawn at.
    pub stride: usize,
    /// Full field length the subsample was drawn from.
    pub len: u64,
}

impl PrepassEstimate {
    /// Number of sampled elements.
    pub fn sampled(&self) -> u64 {
        self.scalars.n
    }

    /// Bytes of field data the prepass read (both f32 fields).
    pub fn sampled_bytes(&self) -> u64 {
        self.sampled() * 8
    }

    /// PSNR estimate over the subsample, in dB.
    pub fn psnr_db(&self) -> f64 {
        self.scalars.psnr_db()
    }

    /// Maximum absolute error seen in the subsample — a *lower bound* of
    /// the full-field maximum, so a violated absolute bound here is
    /// violated at full resolution too.
    pub fn max_abs_error(&self) -> f64 {
        self.scalars.max_abs_e
    }

    /// Maximum pointwise-relative error seen in the subsample (lower
    /// bound of the full-field maximum, like [`Self::max_abs_error`]).
    pub fn max_pwr_error(&self) -> f64 {
        self.scalars.max_rel
    }

    /// Value range of the sampled original data.
    pub fn value_range(&self) -> f64 {
        self.scalars.value_range()
    }

    /// Mean squared error over the subsample.
    pub fn mse(&self) -> f64 {
        self.scalars.mse()
    }
}

/// One executed prepass: the shared estimate plus what the backend's
/// platform model charges for the strided scan.
#[derive(Clone, Copy, Debug)]
pub struct PrepassRun {
    /// The (executor-independent) subsample estimate.
    pub estimate: PrepassEstimate,
    /// Modeled execution counters of the scan on this backend.
    pub counters: Counters,
    /// Modeled seconds of the scan on this backend's platform model.
    pub modeled_seconds: f64,
}

/// The shared host-side strided scan [`Executor::prepass`] runs on every
/// executor: element `0, stride, 2·stride, …` of both fields in flat order through
/// the exact [`P1Scalars::absorb`] sequence — one fixed order, so the
/// estimate carries no executor- or thread-count dependence.
pub fn subsample_scan(orig: &Tensor<f32>, dec: &Tensor<f32>, stride: usize) -> PrepassEstimate {
    let stride = stride.max(1);
    let (a, b) = (orig.as_slice(), dec.as_slice());
    let mut scalars = P1Scalars::identity();
    let mut i = 0;
    while i < a.len() {
        scalars.absorb(a[i] as f64, b[i] as f64);
        i += stride;
    }
    PrepassEstimate {
        scalars,
        stride,
        len: a.len() as u64,
    }
}

/// The modeled GPU charge for a strided-gather prepass over `sampled`
/// elements ([`traffic::p1_gather`]), priced by the simulator's
/// [`gpu_time`] like every other launch. Shared by the moZC and cuZC
/// `prepass_charge` hooks.
pub(crate) fn gpu_prepass_charge(sim: &GpuSim, sampled: u64, stride: usize) -> (Counters, f64) {
    let launch = traffic::p1_gather(sampled, stride);
    (launch.counters, PassLaunch::declared(sim, &launch).seconds)
}

/// A device-placement policy: grid-partition every pattern's launches over
/// the `link.gpus` devices `link` connects, re-pricing compute on the
/// per-device grid share and charging halo-exchange plus all-reduce
/// communication (the paper's §VI multi-GPU extension). This is the one
/// multi-GPU cost model: ganged executors, the job pricer
/// ([`DevicePlacement::price_job`]) and the full-shape figures all price
/// through [`DevicePlacement::pattern_times`].
#[derive(Clone, Copy, Debug)]
pub struct DevicePlacement<'a> {
    /// Device count and inter-device interconnect.
    pub link: MultiGpuModel,
    /// The per-device simulator (cost calibration + device spec).
    pub sim: &'a GpuSim,
}

impl DevicePlacement<'_> {
    /// Predict one job's assessment cost with the one cost model its run
    /// is charged by: every pass's declared launches ([`PassKind::launches`]
    /// — exact counters and grids from the field shape and the
    /// configuration) are priced by the simulator's [`gpu_time`], re-priced
    /// per pattern by [`Self::pattern_times`] when this placement spans
    /// more than one device, and overlapped through the stream timeline
    /// over the slab schedule the device's memory forces — the same fold,
    /// placement and timeline code [`PlanRunner::run`] applies to executed
    /// launches.
    pub fn price_job(&self, plan: &AssessPlan, shape: Shape, cfg: &AssessConfig) -> CostEstimate {
        let capacity = Some(self.sim.dev.mem_bytes);
        // An unplaceable job is priced as one (out-of-core) slab.
        let schedule = SlabSchedule::resolve(plan, shape, cfg, capacity)
            .unwrap_or_else(|_| SlabSchedule::one_slab(shape, capacity));
        let slabs = schedule.slabs;
        let mut charges = Charges::new();
        for pass in plan.passes() {
            let launches: Vec<PassLaunch> = pass
                .kind
                .launches(shape, cfg)
                .iter()
                .map(|l| PassLaunch::declared(self.sim, l))
                .collect();
            if launches.is_empty() {
                continue;
            }
            // Each launch tiles as the simulator tiles it — `slabs`
            // contiguous block ranges, at most one per block — with its
            // seconds split evenly over its tiles.
            let mut tiles = Vec::new();
            for l in &launches {
                let n = slabs.clamp(1, l.grid_blocks);
                fold_slab_seconds(&mut tiles, slabs, (0..n).map(|_| l.seconds / n as f64));
            }
            charges.add(pass.kind, &launches, tiles);
        }
        // The staging link is PCIe regardless of the intra-group
        // interconnect — matching `CuZc::transfer`, so predictions share a
        // basis with the per-job `e2e` the report aggregates.
        let (times, profiles, _, e2e) =
            charges.settle(Some(*self), Some(HostLink::pcie()), shape, cfg, &schedule);
        CostEstimate {
            pass_seconds: charges
                .pass_tiles
                .iter()
                .map(|(kind, tiles)| (*kind, tiles.iter().sum()))
                .collect(),
            seconds: e2e.map_or(times.total(), |e| e.overlapped_s),
            profiles,
            slabs,
        }
    }

    /// Halo bytes a device exchanges with one neighbour for a pattern.
    fn halo_bytes(&self, pattern: Pattern, shape: zc_tensor::Shape, cfg: &AssessConfig) -> u64 {
        let slab = shape.slab_len() as u64 * 4 * 2; // both fields
        match pattern {
            Pattern::GlobalReduction => 0,
            // Stencil needs the largest lag's worth of neighbour slices.
            Pattern::Stencil => slab * cfg.max_lag as u64,
            // SSIM blocks own y ranges; neighbours share window ghost rows.
            Pattern::SlidingWindow => {
                (shape.nx() * shape.nz()) as u64 * 4 * 2 * (cfg.ssim.window as u64 - 1)
            }
            Pattern::CompressionMeta => 0,
        }
    }

    /// Re-price the merged per-pattern runs on this placement. On one
    /// device nothing is exchanged, so each run costs its own launch model
    /// on its own grid.
    pub fn pattern_times(
        &self,
        runs: &[PatternRun],
        shape: zc_tensor::Shape,
        cfg: &AssessConfig,
    ) -> PatternTimes {
        let g = self.link.gpus as u64;
        let sim = self.sim;
        let mut times = PatternTimes::default();
        for run in runs {
            let Some(res) = run.resources else { continue };
            // Each device executes its share of the grid: the makespan
            // device holds ceil(grid / g) blocks and ~1/g of the counters.
            let grid_d = (run.grid_blocks as u64).div_ceil(g) as usize;
            let c = run.counters.div_ceil_by(g);
            let occ = occupancy(&sim.dev, &res);
            let t = gpu_time(&sim.dev, &sim.calib, &c, &occ, grid_d.max(1), run.class);
            // Communication: halo exchange with up to two neighbours plus
            // the ring all-reduce of scalar partials.
            let halo = self.halo_bytes(run.pattern, shape, cfg);
            let comm_s = if g > 1 && halo > 0 {
                2.0 * self.link.link.transfer_s(halo)
            } else {
                0.0
            } + self.link.allreduce_s();
            let total = t.total_s + comm_s;
            match run.pattern {
                Pattern::GlobalReduction => times.p1 += total,
                Pattern::Stencil => times.p2 += total,
                Pattern::SlidingWindow => times.p3 += total,
                Pattern::CompressionMeta => {}
            }
        }
        times
    }
}

/// Accumulates one pattern's launches into a Table-II profile row plus a
/// merged [`PatternRun`] record (moved here from the cuZC executor — the
/// runner owns profile construction for every backend).
struct PatternAcc {
    pattern: Pattern,
    regs: u32,
    smem: u32,
    iters: u64,
    blocks_per_sm: u32,
    tbs_per_sm: u32,
    seconds: f64,
    counters: Counters,
    grid_blocks: usize,
    resources: Option<KernelResources>,
    class: KernelClass,
    launches_seen: usize,
}

impl PatternAcc {
    fn new(pattern: Pattern) -> Self {
        PatternAcc {
            pattern,
            regs: 0,
            smem: 0,
            iters: 0,
            blocks_per_sm: 0,
            tbs_per_sm: 0,
            seconds: 0.0,
            counters: Counters::default(),
            grid_blocks: 0,
            resources: None,
            class: KernelClass::Generic,
            launches_seen: 0,
        }
    }

    fn add(&mut self, l: &PassLaunch) {
        self.launches_seen += 1;
        self.iters = self.iters.max(l.counters.iters_per_thread);
        self.tbs_per_sm = self.tbs_per_sm.max(l.tbs_per_sm);
        self.seconds += l.seconds;
        self.counters.merge(&l.counters);
        match l.resources {
            // Table II reports the pattern's *dominant* kernel (the fused
            // scalar/stencil/SSIM one — always the largest register user),
            // not a max over auxiliary launches.
            Some(res) => {
                if res.regs_per_block() >= self.regs || self.resources.is_none() {
                    self.regs = res.regs_per_block();
                    self.smem = self.smem.max(res.smem_per_block);
                    self.blocks_per_sm = l.blocks_per_sm;
                    self.resources = Some(res);
                    self.grid_blocks = l.grid_blocks;
                    self.class = l.class;
                }
            }
            // CPU passes have no resource declaration; they still label the
            // run with their pattern's class.
            None => self.class = l.class,
        }
    }

    fn run(&self) -> PatternRun {
        PatternRun {
            pattern: self.pattern,
            counters: self.counters,
            grid_blocks: self.grid_blocks,
            resources: self.resources,
            class: self.class,
        }
    }

    fn profile(&self) -> PatternProfile {
        PatternProfile {
            pattern: self.pattern,
            regs_per_tb: self.regs,
            smem_per_tb: self.smem,
            iters_per_thread: self.iters,
            blocks_per_sm: self.blocks_per_sm,
            tbs_per_sm: self.tbs_per_sm,
            modeled_seconds: self.seconds,
        }
    }
}

/// Modeled result read-back bytes per pass (scalar partial sets are tiny;
/// histograms are `3 × bins` 8-byte counters).
fn d2h_bytes(kind: PassKind, cfg: &AssessConfig) -> u64 {
    match kind {
        PassKind::P1Scalars => 256,
        PassKind::P1Hist => 3 * cfg.bins as u64 * 8,
        PassKind::P2Stencil => (4 * cfg.max_lag as u64 + 16) * 8,
        PassKind::P3Ssim => 16,
        PassKind::CompressionMeta => 0,
    }
}

/// The shared scheduler: drives any [`Executor`] through a lowered
/// [`AssessPlan`] and assembles the [`Assessment`].
pub struct PlanRunner<'a> {
    plan: &'a AssessPlan,
    seed: Option<P1Scalars>,
}

impl<'a> PlanRunner<'a> {
    /// A runner over a lowered plan.
    pub fn new(plan: &'a AssessPlan) -> Self {
        PlanRunner { plan, seed: None }
    }

    /// Feed already-computed pattern-1 scalars forward through the plan's
    /// dependency edges instead of recomputing them — the residual-plan
    /// path of a partial cache hit. The seed satisfies the `P1Scalars`
    /// dependency of every dependent pass (and the final report) exactly
    /// as if the pass had run, so a residual plan lowered without
    /// `P1Scalars` still assembles a complete report for its sections.
    pub fn with_seed(mut self, p1: P1Scalars) -> Self {
        self.seed = Some(p1);
        self
    }

    /// Execute the plan on an executor, re-pricing the modeled times under
    /// its multi-device placement when it has one.
    pub fn run(
        &self,
        backend: &(impl Executor + ?Sized),
        orig: &Tensor<f32>,
        dec: &Tensor<f32>,
        cfg: &AssessConfig,
    ) -> Result<Assessment, AssessError> {
        let non_finite = validate(orig, dec, cfg)?;
        let t0 = Instant::now();

        let schedule =
            SlabSchedule::resolve(self.plan, orig.shape(), cfg, backend.device_capacity())?;

        let mut ctx = PassCtx {
            orig,
            dec,
            cfg,
            p1: self.seed,
            slabs: schedule.slabs,
        };
        let mut charges = Charges::new();
        let mut hists = None;
        let mut p2 = None;
        let mut ssim = None;

        // A seeded run has the scalar dependency satisfied up front.
        let mut done: Vec<PassKind> = if self.seed.is_some() {
            vec![PassKind::P1Scalars]
        } else {
            Vec::new()
        };
        for pass in self.plan.passes() {
            if pass.pattern == Pattern::CompressionMeta {
                // Bookkeeping node: ratio/throughputs attach later via
                // `AnalysisReport::with_compression`, no field pass runs.
                done.push(pass.kind);
                continue;
            }
            debug_assert!(
                pass.deps.iter().all(|d| done.contains(d)),
                "plan not topologically ordered at {:?}",
                pass.kind
            );
            let ex = backend.run_pass(pass, &ctx);
            charges.add(pass.kind, &ex.launches, ex.tiles);
            match ex.output {
                PassOutput::Scalars(s) => ctx.p1 = Some(s),
                PassOutput::Histograms(h) => hists = Some(h),
                PassOutput::Stencil(s) => p2 = Some(s),
                PassOutput::Ssim(s) => ssim = Some(s),
            }
            done.push(pass.kind);
        }
        let (times, profiles, runs, e2e) = charges.settle(
            backend.placement(),
            backend.transfer(),
            orig.shape(),
            cfg,
            &schedule,
        );

        let p1 = ctx
            .p1
            .expect("P1Scalars is always scheduled (or seeded) and always runs");
        let report =
            AnalysisReport::assemble(orig.shape(), non_finite, p1, hists, p2.as_ref(), ssim, cfg);
        Ok(Assessment {
            report,
            counters: charges.counters,
            modeled_seconds: times.total(),
            pattern_times: times,
            wall_seconds: t0.elapsed().as_secs_f64(),
            profiles,
            runs,
            e2e,
            confidence: Confidence::Full,
        })
    }
}

/// Per-pass launch records folded per pattern — the one place a run is
/// priced, whether its launches were executed ([`PlanRunner::run`]) or
/// declared ([`DevicePlacement::price_job`]), so a prediction goes through
/// exactly the code its run will.
struct Charges {
    accs: [PatternAcc; 3],
    counters: Counters,
    pass_tiles: Vec<(PassKind, Vec<f64>)>,
}

impl Charges {
    fn new() -> Self {
        Charges {
            accs: [
                PatternAcc::new(Pattern::GlobalReduction),
                PatternAcc::new(Pattern::Stencil),
                PatternAcc::new(Pattern::SlidingWindow),
            ],
            counters: Counters::default(),
            pass_tiles: Vec::new(),
        }
    }

    /// Record one pass's launches and per-slab seconds.
    fn add(&mut self, kind: PassKind, launches: &[PassLaunch], tiles: Vec<f64>) {
        let acc = match kind.pattern() {
            Pattern::GlobalReduction => &mut self.accs[0],
            Pattern::Stencil => &mut self.accs[1],
            Pattern::SlidingWindow => &mut self.accs[2],
            Pattern::CompressionMeta => unreachable!("meta pass is not executed"),
        };
        for l in launches {
            self.counters.merge(&l.counters);
            acc.add(l);
        }
        self.pass_tiles.push((kind, tiles));
    }

    /// Per-pattern times, profiles and runs; re-priced under a multi-device
    /// `placement` (compute share + halo/all-reduce communication, scaling
    /// each pass's slab seconds in place — counters, runs and profiles are
    /// placement-invariant by construction); then the stream timeline of
    /// `schedule` over the backend's host `link`, if it has one.
    fn settle(
        &mut self,
        placement: Option<DevicePlacement<'_>>,
        link: Option<HostLink>,
        shape: Shape,
        cfg: &AssessConfig,
        schedule: &SlabSchedule,
    ) -> (
        PatternTimes,
        Vec<PatternProfile>,
        Vec<PatternRun>,
        Option<EndToEnd>,
    ) {
        let mut times = PatternTimes::default();
        let mut profiles = Vec::new();
        let mut runs = Vec::new();
        for acc in self.accs.iter().filter(|a| a.launches_seen > 0) {
            match acc.pattern {
                Pattern::GlobalReduction => times.p1 = acc.seconds,
                Pattern::Stencil => times.p2 = acc.seconds,
                Pattern::SlidingWindow => times.p3 = acc.seconds,
                Pattern::CompressionMeta => {}
            }
            if acc.resources.is_some() {
                profiles.push(acc.profile());
            }
            runs.push(acc.run());
        }

        if let Some(p) = placement.filter(|p| p.link.gpus > 1) {
            let placed = p.pattern_times(&runs, shape, cfg);
            // Tile durations scale with their pass.
            for (kind, tiles) in self.pass_tiles.iter_mut() {
                let pattern = kind.pattern();
                let (old, new) = (times.of(pattern), placed.of(pattern));
                if old > 0.0 {
                    for t in tiles.iter_mut() {
                        *t *= new / old;
                    }
                }
            }
            times = placed;
        }

        let e2e = link
            .filter(|_| times.total() > 0.0)
            .map(|link| timeline(&link, schedule, cfg, &self.pass_tiles));
        (times, profiles, runs, e2e)
    }
}

/// The modeled copy/compute stream timeline of a device-resident run
/// (DESIGN.md §6.8), built from each pass's per-slab seconds. The field
/// pair uploads one z-slab at a time; every pass's slab-`k` tile starts as
/// soon as the slabs it reads have landed, so H2D of slab *k+1* overlaps
/// compute of slab *k*, partial read-backs overlap both, and downstream
/// passes begin before upstream passes finish their last slab:
///
/// * P1 scalars tile *k* needs only upload slab *k* (stream 0);
/// * histogram tile *k* needs the *running* scalars (the latest P1 tile so
///   far) plus slab *k* — re-uploaded per tile when the field is
///   out-of-core;
/// * the stencil tile *k* additionally needs its forward halo — the
///   `max_lag` slices past the slab boundary, i.e. upload slabs up to
///   *k + span* (stream 1);
/// * the SSIM FIFO consumes slices in z order, so tile *k* needs the
///   running value range plus slab *k* (stream 2).
///
/// A monolithic run is the one-slab case: one upload leg, the passes one
/// after another on the compute engine (histograms, stencil and SSIM
/// behind the scalars), and one read-back leg per pass on its drain stream.
///
/// Downstream tiles deliberately consume the **prefix** scalars — the P1
/// tile covering their own slab, not the final one — modeling the standard
/// deferred-finalize streaming restructure (raw moments with an
/// end-of-stream fix-up; see §6.8). Waiting on the *last* P1 tile would
/// chain every heavy pass behind the complete upload and reduce the
/// schedule to the one-slab one.
///
/// Compute events serialize on the single device's compute engine **in
/// push order**, so rounds are pushed interleaved by slab (P1[k], hist[k],
/// stencil[k], SSIM[k], then slab k+1) — pushing one pass's full sweep
/// first would serialize every later pass behind it. Per-slab D2H events
/// drain each pass's running partials.
fn timeline(
    link: &HostLink,
    schedule: &SlabSchedule,
    cfg: &AssessConfig,
    pass_tiles: &[(PassKind, Vec<f64>)],
) -> EndToEnd {
    let SlabSchedule { planes, slabs, .. } = *schedule;
    // Slab k's upload bytes (even plane split, remainder up front —
    // matching the contiguous block split in `launch_tiled`).
    let slab_bytes: Vec<u64> = schedule.slab_bytes().collect();
    debug_assert_eq!(slab_bytes.iter().sum::<u64>(), schedule.pair_bytes);
    // The stencil's forward halo, in slabs.
    let span = cfg.max_lag.div_ceil((planes / slabs).max(1));

    // A pass's per-slab durations, if the plan ran it.
    let tiles_of = |kind: PassKind| -> Option<&[f64]> {
        pass_tiles
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, v)| v.as_slice())
    };

    // Copies live on their own streams: a compute tile enqueued on the
    // stream its input upload used would serialize behind the *whole*
    // upload queue (CUDA stream FIFO) — exactly the non-overlap this
    // schedule exists to fix. Cross-stream ordering is done with event
    // dependencies only.
    const UPLOAD_STREAM: usize = 8;
    const REUPLOAD_STREAM: usize = 9; // + pass stream
    const DRAIN_STREAM: usize = 12; // + pass stream

    let mut tl = Timeline::new();
    let h2d: Vec<_> = (0..slabs)
        .map(|k| {
            tl.push(
                UPLOAD_STREAM,
                Engine::H2D,
                link.transfer_s(slab_bytes[k]),
                &[],
            )
        })
        .collect();

    // Per-tile partial read-back on a dedicated drain stream: tiny
    // running partials leave the device while later tiles still compute.
    let drain = |tl: &mut Timeline, stream, kind, events: &[zc_gpusim::stream::EventId]| {
        if events.is_empty() {
            return;
        }
        let bytes = (d2h_bytes(kind, cfg) / events.len() as u64).max(1);
        for &ev in events {
            tl.push(
                DRAIN_STREAM + stream,
                Engine::D2H,
                link.transfer_s(bytes),
                &[ev],
            );
        }
    };

    // Dependent passes: (kind, stream, forward halo in slabs).
    struct Sched<'a> {
        kind: PassKind,
        stream: usize,
        halo: usize,
        tiles: &'a [f64],
        next: usize,
        events: Vec<zc_gpusim::stream::EventId>,
    }
    let mut dependents: Vec<Sched> = [
        (PassKind::P1Hist, 0usize, 0usize),
        (PassKind::P2Stencil, 1, span),
        (PassKind::P3Ssim, 2, 0),
    ]
    .into_iter()
    .filter_map(|(kind, stream, halo)| {
        Some(Sched {
            kind,
            stream,
            halo,
            tiles: tiles_of(kind)?,
            next: 0,
            events: Vec::new(),
        })
    })
    .collect();

    // Round k: the P1 tile for slab k runs as soon as the slab lands,
    // then every dependent pass's slab-k tile follows, consuming the
    // running scalars accumulated so far (`last_p1`).
    let p1 = tiles_of(PassKind::P1Scalars).unwrap_or_default();
    let mut p1_next = 0usize;
    let mut p1_events = Vec::new();
    let mut last_p1 = None;
    for k in 0..slabs {
        while p1_next < p1.len() && slab_of(p1_next, p1.len(), slabs) <= k {
            let (i, t) = (p1_next, p1[p1_next]);
            p1_next += 1;
            if t <= 0.0 {
                continue;
            }
            let ev = tl.push(0, Engine::Compute, t, &[h2d[slab_of(i, p1.len(), slabs)]]);
            p1_events.push(ev);
            last_p1 = Some(ev);
        }
        for s in dependents.iter_mut() {
            while s.next < s.tiles.len() && slab_of(s.next, s.tiles.len(), slabs) <= k {
                let (i, t) = (s.next, s.tiles[s.next]);
                s.next += 1;
                if t <= 0.0 {
                    continue;
                }
                let slab = slab_of(i, s.tiles.len(), slabs)
                    .saturating_add(s.halo)
                    .min(slabs - 1);
                let mut deps = Vec::with_capacity(2);
                // All three need a P1 output (running min/max, μₑ,
                // value range — finalized after the stream drains).
                if let Some(p1) = last_p1 {
                    deps.push(p1);
                }
                if schedule.out_of_core() {
                    // The slab was evicted after the P1 sweep:
                    // re-upload it (and its halo) on this pass's copy
                    // stream.
                    let bytes = slab_bytes[slab_of(i, s.tiles.len(), slabs)..=slab]
                        .iter()
                        .sum::<u64>();
                    deps.push(tl.push(
                        REUPLOAD_STREAM + s.stream,
                        Engine::H2D,
                        link.transfer_s(bytes),
                        &[],
                    ));
                } else {
                    deps.push(h2d[slab]);
                }
                s.events.push(tl.push(s.stream, Engine::Compute, t, &deps));
            }
        }
    }
    drain(&mut tl, 0, PassKind::P1Scalars, &p1_events);
    for s in &dependents {
        drain(&mut tl, s.stream, s.kind, &s.events);
    }

    EndToEnd {
        h2d_s: tl.engine_busy_s(Engine::H2D),
        d2h_s: tl.engine_busy_s(Engine::D2H),
        compute_s: tl.engine_busy_s(Engine::Compute),
        serialized_s: tl.serialized_s(),
        overlapped_s: tl.makespan_s(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zc_tensor::Shape;

    /// Each pass's seconds split evenly over `slabs` tiles.
    fn even(pass_seconds: &[(PassKind, f64)], slabs: usize) -> Vec<(PassKind, Vec<f64>)> {
        pass_seconds
            .iter()
            .map(|&(kind, secs)| (kind, vec![secs / slabs as f64; slabs]))
            .collect()
    }

    /// `shape` streamed in `slabs` slabs, device-resident or out-of-core.
    fn schedule(shape: Shape, slabs: usize, out_of_core: bool) -> SlabSchedule {
        SlabSchedule {
            slabs,
            ..SlabSchedule::one_slab(shape, out_of_core.then_some(0))
        }
    }

    /// A monolithic run is one slab: one upload leg for the whole pair, one
    /// read-back leg per pass, every pass's seconds on the compute engine,
    /// and a makespan between the upload-then-compute chain and the
    /// serialized sum.
    #[test]
    fn one_slab_timeline_pays_one_leg_per_transfer() {
        let shape = Shape::d3(64, 48, 32);
        let cfg = AssessConfig::default();
        let link = HostLink::pcie();
        let pass_seconds = [
            (PassKind::P1Scalars, 0.05e-3),
            (PassKind::P1Hist, 0.04e-3),
            (PassKind::P2Stencil, 0.6e-3),
            (PassKind::P3Ssim, 2.5e-3),
        ];
        let e2e = timeline(
            &link,
            &schedule(shape, 1, false),
            &cfg,
            &even(&pass_seconds, 1),
        );
        let pair = shape.len() as u64 * 4 * 2;
        assert_eq!(e2e.h2d_s, link.transfer_s(pair));
        let d2h: f64 = pass_seconds
            .iter()
            .map(|&(kind, _)| link.transfer_s(d2h_bytes(kind, &cfg)))
            .sum();
        assert_eq!(e2e.d2h_s, d2h);
        let compute: f64 = pass_seconds.iter().map(|&(_, s)| s).sum();
        assert_eq!(e2e.compute_s, compute);
        assert!(e2e.h2d_s + e2e.compute_s <= e2e.overlapped_s);
        assert!(e2e.overlapped_s <= e2e.serialized_s);
    }

    /// The scheduling property the slab dataflow exists for: when per-slab
    /// compute dwarfs the per-slab upload, the whole upload except the
    /// first slab hides under compute — the makespan collapses to compute
    /// plus one slab's transfer (plus the final partial drain).
    #[test]
    fn tiled_timeline_hides_the_upload_under_compute() {
        let shape = Shape::d3(256, 256, 256);
        let cfg = AssessConfig::default();
        let link = HostLink::pcie();
        let slabs = 16usize;
        // Compute totals shaped like the 256³ cuZC run: SSIM dominates.
        let pass_seconds = vec![
            (PassKind::P1Scalars, 0.2e-3),
            (PassKind::P1Hist, 0.2e-3),
            (PassKind::P2Stencil, 5.6e-3),
            (PassKind::P3Ssim, 147.4e-3),
        ];
        let e2e = timeline(
            &link,
            &schedule(shape, slabs, false),
            &cfg,
            &even(&pass_seconds, slabs),
        );
        assert!(e2e.overlapped_s <= e2e.serialized_s);
        let first_slab = link.transfer_s((shape.len() as u64 * 4 * 2).div_ceil(16));
        let slack = 1e-3; // halo stalls + final drain
        assert!(
            e2e.overlapped_s <= e2e.compute_s + first_slab + slack,
            "upload not hidden: makespan {:.4} ms vs compute {:.4} ms + slab {:.4} ms",
            e2e.overlapped_s * 1e3,
            e2e.compute_s * 1e3,
            first_slab * 1e3
        );
        // And a saving well over 5% vs serialized, the figure the tiling
        // tier also asserts on a real tiled run.
        assert!(e2e.saving() > 0.05, "saving {:.4}", e2e.saving());
    }

    /// Out-of-core schedules re-upload every dependent pass's slabs, so
    /// the H2D engine carries roughly four sweeps of the pair — the
    /// timeline must reflect that rather than assuming residency.
    #[test]
    fn out_of_core_timeline_pays_for_reuploads() {
        let shape = Shape::d3(64, 64, 64);
        let cfg = AssessConfig::default();
        let link = HostLink::pcie();
        let pass_seconds = vec![
            (PassKind::P1Scalars, 0.1e-3),
            (PassKind::P1Hist, 0.1e-3),
            (PassKind::P2Stencil, 1.0e-3),
            (PassKind::P3Ssim, 4.0e-3),
        ];
        let tiles = even(&pass_seconds, 16);
        let resident = timeline(&link, &schedule(shape, 16, false), &cfg, &tiles);
        let ooc = timeline(&link, &schedule(shape, 16, true), &cfg, &tiles);
        assert!(
            ooc.h2d_s > 3.0 * resident.h2d_s,
            "ooc h2d {:.4} ms vs resident {:.4} ms",
            ooc.h2d_s * 1e3,
            resident.h2d_s * 1e3
        );
        assert!(ooc.overlapped_s >= resident.overlapped_s);
        assert!(ooc.overlapped_s <= ooc.serialized_s);
    }
}
