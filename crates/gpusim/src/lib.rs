//! # zc-gpusim
//!
//! A deterministic, functionally-exact **GPU execution simulator** — the
//! substitute substrate for the CUDA/V100 environment the cuZ-Checker paper
//! runs on (see DESIGN.md §2 for the substitution argument).
//!
//! The simulator has two halves:
//!
//! 1. **Functional execution** ([`GpuSim::launch`]): kernels are Rust types
//!    implementing [`BlockKernel`] in *warp-synchronous* style — they
//!    manipulate whole 32-lane [`Lanes`] vectors with CUDA-faithful
//!    `shfl_down`/`shfl_up`/`shfl_xor`/`ballot` semantics, block-level
//!    [`SharedBuf`] shared memory with `sync_threads` barriers, and a
//!    cooperative-grid finalize phase (the `cg::sync(grid)` of the paper's
//!    Algorithm 1). Blocks execute in parallel on scoped threads; results are
//!    deterministic because inter-block communication only happens at the
//!    phase boundary, exactly as in a real cooperative kernel.
//!
//! 2. **Instrumented cost model** ([`cost`]): every primitive charges
//!    [`Counters`] (global-memory bytes, shared-memory accesses, lane-ops,
//!    shuffles, syncs, per-thread iteration depth). A calibrated roofline
//!    over those counters — plus the standard CUDA occupancy calculation
//!    ([`occupancy()`]) — converts counts into modeled kernel time on a
//!    V100-class [`DeviceSpec`]. A matching CPU model ([`cost::CpuModel`])
//!    converts the same counter kind collected from CPU executors into
//!    modeled Xeon-6148 time, which is how the paper's ompZC baseline rows
//!    are regenerated.
//!
//! The claims the paper makes (fusion saves global traffic, the FIFO buffer
//! reads each slice once, occupancy explains per-dataset speedup variance)
//! are claims about these *counts*, which the simulator measures exactly
//! while computing bit-identical metric values.
//!
//! A third, optional half is the [`sanitizer`]: a compute-sanitizer-style
//! checked execution mode ([`GpuSim::launch_checked`], or `ZC_SANITIZE=1`
//! for every launch) that shadows each instrumented access and reports
//! races, uninitialized shared reads, out-of-bounds indices, divergent
//! barriers and counter-charging bugs as structured diagnostics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod block;
pub mod cost;
mod counters;
pub mod fault;
mod lanes;
mod launch;
mod multi;
mod occupancy;
pub mod sanitizer;
mod spec;
pub mod stream;
pub mod trace;

pub use block::{BlockCtx, SharedBuf};
pub use counters::Counters;
pub use fault::{FaultDraw, FaultPlan};
pub use lanes::{Lanes, WARP};
pub use launch::{BlockKernel, GpuSim, KernelClass, LaunchResult, TileCharge};
pub use multi::MultiGpuModel;
pub use occupancy::{occupancy, KernelResources, Limiter, Occupancy};
pub use sanitizer::{Diag, Hazard, SanitizeReport};
pub use spec::{CpuSpec, DeviceSpec};
pub use stream::{EndToEnd, Engine, EngineCursors, HostLink, Timeline};
pub use trace::{fmt_bytes, fmt_seconds, launch_summary};
