//! The plan-time static verifier (DESIGN.md §6.10).
//!
//! [`verify`] checks a lowered [`AssessPlan`] against a field shape, a
//! configuration, and a backend's capability envelope *before anything
//! runs*, reporting through the same typed [`Diagnostic`] the kernel
//! lints use — so `cuzc --verify`, campaign admission and CI render one
//! diagnostic table for both halves of zc-analyze.
//!
//! Checks, each with a stable `plan/*` lint id:
//!
//! * **Graph shape** — duplicate producers (`plan/duplicate-producer`),
//!   dependencies on passes the plan never schedules
//!   (`plan/missing-producer`), cycles (`plan/cycle`), and passes listed
//!   before their dependencies (`plan/schedule-order` — [`PlanRunner`]
//!   executes in vector order, so topological order is load-bearing).
//! * **Dead passes** (`plan/dead-pass`) — a pass that serves no selected
//!   metric and feeds no scheduled dependent. `P1Scalars` is exempt: the
//!   lowering contract always schedules it and its scalars feed the
//!   report directly.
//! * **Static launch footprint** — per-pass [`KernelResources`] from the
//!   kernels' shape-independent declarations (`zc_kernels::{p1,p2,p3}`),
//!   checked against the backend envelope: `plan/smem-overflow`,
//!   `plan/regs-overflow`, `plan/launch-geometry`.
//! * **Device capacity** (`plan/capacity`) — the slab resolution and the
//!   resident-window arithmetic of [`resolve_slabs`], evaluated at plan
//!   time and attributed to the heaviest field-reading pass; the message
//!   is the same [`AssessError::Capacity`] rendering the runtime path
//!   produces, so both surfaces report identically.
//! * **Deferred finalize** (`plan/deferred-finalize`) — the tiled stream
//!   timeline's producer/consumer contract: no dependent tile may consume
//!   a prefix scalar its producer slab has not finalized yet
//!   ([`verify_tile_schedule`]).
//!
//! [`PlanRunner`]: super::PlanRunner

use super::{resolve_slabs, AssessPlan, Pass, PassKind, RESIDENT_SLABS};
use crate::config::{AssessConfig, ExecutorKind};
use crate::exec::AssessError;
use zc_gpusim::{Counters, DeviceSpec, KernelResources};
use zc_lint::{Diagnostic, Location, Severity};
use zc_tensor::Shape;

/// The capability envelope a plan is verified against — the static subset
/// of a backend's platform model the verifier can check launches against
/// without executing anything.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BackendCaps {
    /// Device (global) memory capacity; `None` = host-resident backend,
    /// unconstrained.
    pub device_mem_bytes: Option<u64>,
    /// Shared-memory limit per thread block in bytes.
    pub smem_per_block: u32,
    /// 32-bit registers per SM (a block cannot need more than one SM has).
    pub regs_per_sm: u32,
    /// Hard launch limit on threads per block.
    pub max_threads_per_block: u32,
}

impl BackendCaps {
    /// The envelope of a GPU device model.
    pub fn device(dev: &DeviceSpec) -> BackendCaps {
        BackendCaps {
            device_mem_bytes: Some(dev.mem_bytes),
            smem_per_block: dev.smem_per_block,
            regs_per_sm: dev.regs_per_sm,
            max_threads_per_block: dev.max_threads_per_block,
        }
    }

    /// The paper's evaluation GPU (both GPU executors simulate it).
    pub fn v100() -> BackendCaps {
        BackendCaps::device(&DeviceSpec::v100())
    }

    /// A host (CPU) backend: no device memory ceiling, no launch limits.
    pub fn host() -> BackendCaps {
        BackendCaps {
            device_mem_bytes: None,
            smem_per_block: u32::MAX,
            regs_per_sm: u32::MAX,
            max_threads_per_block: u32::MAX,
        }
    }

    /// The envelope of a configured executor kind, with the simulated
    /// device memory optionally overridden (the CLI's `--device-mem`, the
    /// campaign's per-fleet capacity).
    pub fn for_kind(kind: ExecutorKind, mem_bytes: Option<u64>) -> BackendCaps {
        match kind {
            ExecutorKind::CuZc | ExecutorKind::MoZc => {
                let mut caps = BackendCaps::v100();
                if let Some(m) = mem_bytes {
                    caps.device_mem_bytes = Some(m);
                }
                caps
            }
            ExecutorKind::OmpZc | ExecutorKind::Serial => BackendCaps::host(),
        }
    }
}

/// One pass's static footprint: the kernel resource declaration of its
/// worst launch plus its declared launch counters ([`PassKind::launches`],
/// the figures the job pricer charges).
#[derive(Clone, Debug)]
pub struct PassFootprint {
    /// Which pass.
    pub kind: PassKind,
    /// Its dependencies, as lowered.
    pub deps: Vec<PassKind>,
    /// Whether the pass serves no selected metric.
    pub auxiliary: bool,
    /// Worst-launch kernel resources (`None` for launch-free passes).
    pub resources: Option<KernelResources>,
    /// Declared counters merged across the pass's launches (zero for
    /// launch-free passes).
    pub declared: Counters,
}

/// The whole plan's static footprint — what `cuzc --explain-plan` prints
/// and the capacity diagnostics are sourced from.
#[derive(Clone, Debug)]
pub struct PlanFootprint {
    /// Per-pass footprints, in schedule order.
    pub passes: Vec<PassFootprint>,
    /// Field-pair bytes (both f32 fields).
    pub pair_bytes: u64,
    /// Tileable extent (z-planes × w).
    pub planes: usize,
    /// Resolved slab count under the configured tiling policy and the
    /// backend capacity, or the capacity error the runtime would hit.
    pub slabs: Result<usize, AssessError>,
    /// Resident device window in bytes under the resolved slab schedule
    /// (`None` for host backends or unresolvable slabs).
    pub resident_bytes: Option<u64>,
}

/// The static resource declaration of a pass's worst launch, from the
/// kernels' shape-independent resource functions.
pub fn pass_resources(kind: PassKind, cfg: &AssessConfig) -> Option<KernelResources> {
    match kind {
        PassKind::P1Scalars => Some(zc_kernels::p1::scalar_resources()),
        PassKind::P1Hist => Some(zc_kernels::p1::hist_resources(cfg.bins)),
        // The stencil's widest launch is the max_lag stride.
        PassKind::P2Stencil => Some(zc_kernels::p2::stencil_resources(cfg.max_lag)),
        PassKind::P3Ssim => Some(zc_kernels::p3::ssim_resources(
            cfg.ssim.window,
            cfg.ssim.step,
            true,
        )),
        PassKind::CompressionMeta => None,
    }
}

/// Compute the plan's static footprint table.
pub fn footprint(
    plan: &AssessPlan,
    shape: Shape,
    cfg: &AssessConfig,
    caps: &BackendCaps,
) -> PlanFootprint {
    let passes = plan
        .passes()
        .iter()
        .map(|p| PassFootprint {
            kind: p.kind,
            deps: p.deps.clone(),
            auxiliary: p.is_auxiliary(),
            resources: pass_resources(p.kind, cfg),
            declared: p.kind.declared(shape, cfg),
        })
        .collect();
    let pair_bytes = shape.len() as u64 * 4 * 2;
    let planes = (shape.nz() * shape.nw()).max(1);
    let slabs = plan_slabs(plan, shape, cfg, caps);
    let resident_bytes = match (&slabs, caps.device_mem_bytes) {
        (Ok(s), Some(cap)) => {
            let window = pair_bytes.div_ceil(*s as u64) * RESIDENT_SLABS;
            // Monolithic residency is the whole pair, not a slab window.
            Some(if *s == 1 {
                pair_bytes
            } else {
                window.min(cap.max(pair_bytes))
            })
        }
        _ => None,
    };
    PlanFootprint {
        passes,
        pair_bytes,
        planes,
        slabs,
        resident_bytes,
    }
}

/// The plan's slab count under the configured tiling policy and the
/// backend capacity, or the capacity error the runtime would hit,
/// attributed to its heaviest field pass.
fn plan_slabs(
    plan: &AssessPlan,
    shape: Shape,
    cfg: &AssessConfig,
    caps: &BackendCaps,
) -> Result<usize, AssessError> {
    let pair_bytes = shape.len() as u64 * 4 * 2;
    let planes = (shape.nz() * shape.nw()).max(1);
    resolve_slabs(cfg.tiling, pair_bytes, planes, caps.device_mem_bytes)
        .map_err(|e| e.with_pass(heaviest_field_pass(plan, shape, cfg)))
}

/// The field-reading pass with the largest declared device traffic — the
/// pass a capacity error is attributed to.
pub fn heaviest_field_pass(
    plan: &AssessPlan,
    shape: Shape,
    cfg: &AssessConfig,
) -> Option<PassKind> {
    plan.passes()
        .iter()
        .filter(|p| p.reads_fields)
        .max_by_key(|p| p.kind.declared(shape, cfg).global_bytes())
        .map(|p| p.kind)
}

fn diag(lint_id: &'static str, at: String, message: String) -> Diagnostic {
    Diagnostic {
        lint_id,
        severity: Severity::Error,
        location: Location { file: at, line: 0 },
        message,
    }
}

fn at(kind: PassKind) -> String {
    format!("plan:{kind:?}")
}

/// Validate the tiled stream timeline's deferred-finalize contract for one
/// producer/consumer pass pair: with `slabs` resolved slabs, the producer
/// finalizing its prefix scalar in `p1_tiles` tiles and the dependent
/// consuming in `dep_tiles` tiles, the dependent's first tile must not
/// cover a slab the producer has not finalized yet. Public as the
/// verifier's test seam; the production schedule always tiles both sides
/// at the slab count, which trivially satisfies the contract.
pub fn verify_tile_schedule(slabs: usize, p1_tiles: usize, dep_tiles: usize) -> Option<Diagnostic> {
    if slabs <= 1 || p1_tiles == 0 || dep_tiles == 0 {
        return None;
    }
    // Tile i of a pass with t tiles ends at this slab (matching the
    // timeline's `slab_of`).
    let slab_of = |i: usize, t: usize| ((i + 1) * slabs).div_ceil(t) - 1;
    let first_finalize = slab_of(0, p1_tiles);
    let first_consume = slab_of(0, dep_tiles);
    if first_finalize > first_consume {
        return Some(diag(
            "plan/deferred-finalize",
            "plan:timeline".to_string(),
            format!(
                "dependent tile 0 covers slabs ..={first_consume} but the producer's first \
                 prefix-scalar finalize lands at slab {first_finalize} — the tile would \
                 consume a scalar its producer slab hasn't finalized"
            ),
        ));
    }
    None
}

/// Verify a lowered plan against a shape, a configuration, and a backend
/// capability envelope. Returns every finding; error-severity findings
/// gate (`cuzc --verify` exits nonzero, campaign admission rejects the
/// job).
pub fn verify(
    plan: &AssessPlan,
    shape: Shape,
    cfg: &AssessConfig,
    caps: &BackendCaps,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let passes = plan.passes();

    // -- graph shape -------------------------------------------------------
    let mut kinds: Vec<PassKind> = Vec::new();
    for p in passes {
        if kinds.contains(&p.kind) {
            out.push(diag(
                "plan/duplicate-producer",
                at(p.kind),
                format!("{:?} is produced by more than one pass node", p.kind),
            ));
        } else {
            kinds.push(p.kind);
        }
    }
    for p in passes {
        for d in &p.deps {
            if !kinds.contains(d) {
                out.push(diag(
                    "plan/missing-producer",
                    at(p.kind),
                    format!("{:?} depends on {:?}, which no pass produces", p.kind, d),
                ));
            }
        }
    }
    // Kahn's algorithm over the kinds actually present; a self-dependency
    // or mutual dependency leaves nodes unresolved.
    {
        let dep_edges = |p: &Pass| {
            p.deps
                .iter()
                .filter(|d| kinds.contains(d))
                .copied()
                .collect::<Vec<_>>()
        };
        let mut resolved: Vec<PassKind> = Vec::new();
        loop {
            let next = passes.iter().find(|p| {
                !resolved.contains(&p.kind) && dep_edges(p).iter().all(|d| resolved.contains(d))
            });
            match next {
                Some(p) => resolved.push(p.kind),
                None => break,
            }
        }
        if resolved.len() < kinds.len() {
            let stuck: Vec<String> = kinds
                .iter()
                .filter(|k| !resolved.contains(k))
                .map(|k| format!("{k:?}"))
                .collect();
            out.push(diag(
                "plan/cycle",
                "plan".to_string(),
                format!(
                    "dependency cycle through {} — no topological order exists",
                    stuck.join(" → ")
                ),
            ));
        } else {
            // Only meaningful on acyclic plans: the stored order must
            // itself be topological, because the runner executes in order.
            let mut seen: Vec<PassKind> = Vec::new();
            for p in passes {
                if let Some(d) = dep_edges(p).iter().find(|d| !seen.contains(d)) {
                    out.push(diag(
                        "plan/schedule-order",
                        at(p.kind),
                        format!(
                            "{:?} is scheduled before its dependency {:?} — the runner \
                             executes passes in plan order",
                            p.kind, d
                        ),
                    ));
                }
                seen.push(p.kind);
            }
        }
    }

    // -- dead passes -------------------------------------------------------
    for p in passes {
        if !p.is_auxiliary() || p.kind == PassKind::P1Scalars {
            continue;
        }
        let feeds_someone = passes.iter().any(|q| q.deps.contains(&p.kind));
        if !feeds_someone {
            out.push(diag(
                "plan/dead-pass",
                at(p.kind),
                format!(
                    "{:?} serves no selected metric and feeds no dependent pass — its \
                     launches would be pure waste",
                    p.kind
                ),
            ));
        }
    }

    // -- static launch footprint ------------------------------------------
    for p in passes {
        let Some(r) = pass_resources(p.kind, cfg) else {
            continue;
        };
        if r.smem_per_block > caps.smem_per_block {
            out.push(diag(
                "plan/smem-overflow",
                at(p.kind),
                format!(
                    "{:?} declares {} B shared memory per block but the device caps \
                     blocks at {} B",
                    p.kind, r.smem_per_block, caps.smem_per_block
                ),
            ));
        }
        if r.regs_per_block() > caps.regs_per_sm {
            out.push(diag(
                "plan/regs-overflow",
                at(p.kind),
                format!(
                    "{:?} needs {} registers per block but one SM only has {}",
                    p.kind,
                    r.regs_per_block(),
                    caps.regs_per_sm
                ),
            ));
        }
        if r.threads_per_block > caps.max_threads_per_block {
            out.push(diag(
                "plan/launch-geometry",
                at(p.kind),
                format!(
                    "{:?} launches {} threads per block; the device limit is {}",
                    p.kind, r.threads_per_block, caps.max_threads_per_block
                ),
            ));
        }
    }

    // -- device capacity ---------------------------------------------------
    let reads_fields = passes.iter().any(|p| p.reads_fields);
    let slabs = plan_slabs(plan, shape, cfg, caps);
    if reads_fields && caps.device_mem_bytes.is_some() {
        if let Err(e) = &slabs {
            let at = match e {
                AssessError::Capacity {
                    pass: Some(kind), ..
                } => format!("plan:{kind:?}"),
                _ => "plan".to_string(),
            };
            out.push(diag("plan/capacity", at, e.to_string()));
        }
    }

    // -- deferred finalize -------------------------------------------------
    if let Ok(slabs) = slabs {
        for p in passes {
            if p.deps.contains(&PassKind::P1Scalars) {
                // The production schedule tiles producer and consumer at
                // the same slab count; the seam exists for mutant tilings.
                out.extend(verify_tile_schedule(slabs, slabs, slabs));
            }
        }
    }

    out
}
