//! # zc-core
//!
//! The cuZ-Checker assessment system — the paper's primary contribution.
//!
//! This crate ties the substrates together into the architecture of the
//! paper's Fig. 2:
//!
//! * [`metrics`] — the metric registry and the pattern classification
//!   (Table I);
//! * [`config`] — the configuration parser (Z-checker ini dialect);
//! * [`plan`] — the assessment-plan IR: metric selection lowers to a DAG
//!   of pattern passes, scheduled by one [`plan::PlanRunner`] behind every
//!   executor;
//! * [`exec`] — the execution models / module coordinator: the serial
//!   reference, the multithreaded-CPU `ompZC`, the metric-oriented GPU
//!   `moZC` and the pattern-oriented GPU `cuZC` — each an
//!   [`exec::Executor`];
//! * [`report`] — the analysis report (every metric value);
//! * [`campaign`] — sharded multi-field batch assessment over the
//!   simulated multi-GPU fleet (catalog × compressor sweep → aggregate
//!   [`campaign::CampaignReport`]);
//! * [`engine`] — the one batch executor behind campaigns, the service and
//!   recommendation: admission, host-parallel execution, the result cache
//!   and fleet placement;
//! * [`recommend`] — best-fit compressor selection: quality criteria
//!   checked over one engine batch of candidates, with optional
//!   prepass pruning;
//! * [`io`] / [`output`] — the input and output engines (raw binary
//!   fields, PGM visualization slices, CSV series);
//! * [`viz`] — the visualization engine: standalone HTML dashboards with
//!   inline SVG charts (the Z-server substitute).
//!
//! ## Quick example
//!
//! ```
//! use zc_core::config::AssessConfig;
//! use zc_core::exec::{CuZc, Executor};
//! use zc_core::metrics::Metric;
//! use zc_tensor::{Shape, Tensor};
//!
//! let orig = Tensor::from_fn(Shape::d3(32, 32, 16), |[x, y, z, _]| {
//!     (x as f32 * 0.2).sin() + (y as f32 * 0.1).cos() + z as f32 * 0.01
//! });
//! let dec = orig.map(|v| v + 1e-3);
//! let result = CuZc::default().assess(&orig, &dec, &AssessConfig::default()).unwrap();
//! assert!(result.report.scalar(Metric::Psnr).unwrap() > 40.0);
//! assert!(result.report.scalar(Metric::Ssim).unwrap() > 0.9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod config;
pub mod engine;
pub mod exec;
pub mod io;
pub mod metrics;
pub mod output;
pub mod plan;
pub mod recommend;
pub mod report;
pub mod viz;

pub use campaign::{CampaignReport, CampaignSpec, FieldRef, FleetSpec, LinkKind, Scheduler};
pub use config::{AssessConfig, ExecutorKind, RunConfig, SsimSettings, TilingPolicy};
pub use engine::{
    AssessRequest, BatchReport, CacheOutcome, CacheStats, CostCalibration, Engine, EngineError,
    JobResult, JobTicket, ResultCache,
};
pub use exec::{Assessment, CuZc, Executor, MoZc, OmpZc, PatternProfile, SerialZc};
pub use metrics::{Metric, MetricSelection, Pattern};
pub use plan::{AssessPlan, PassKind, PlanRunner};
pub use report::AnalysisReport;
