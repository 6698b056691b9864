//! Campaign jobs: one (field, compressor-config) pair and its isolated
//! outcome. The engine's drain executes them.

use crate::exec::{Confidence, PatternRun, PatternTimes};
use crate::metrics::Metric;
use zc_compress::CompressorSpec;
use zc_data::{AppDataset, Field, GenOptions};
use zc_gpusim::EndToEnd;
use zc_tensor::Shape;

/// A catalog field by reference: dataset + roster index + generation
/// options (+ an optional time-series extent). Cheap to clone; the data is
/// synthesized on demand.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct FieldRef {
    /// Source dataset.
    pub dataset: AppDataset,
    /// Roster index within the dataset.
    pub index: usize,
    /// Generation options (scale, seed).
    pub opts: GenOptions,
    /// Time steps along the 4th axis (1 = a single 3D snapshot; >1
    /// synthesizes an evolving series — the campaign's genuinely
    /// heterogeneous "big" jobs).
    pub steps: usize,
}

impl FieldRef {
    /// A single-snapshot field reference.
    pub fn new(dataset: AppDataset, index: usize, opts: GenOptions) -> Self {
        FieldRef {
            dataset,
            index,
            opts,
            steps: 1,
        }
    }

    /// A time-series reference: `steps` evolving snapshots stacked along
    /// the 4th axis.
    pub fn timeseries(dataset: AppDataset, index: usize, opts: GenOptions, steps: usize) -> Self {
        FieldRef {
            dataset,
            index,
            opts,
            steps: steps.max(1),
        }
    }

    /// Field name within the dataset roster.
    pub fn name(&self) -> &'static str {
        self.dataset.field_name(self.index)
    }

    /// `dataset/field` display name (e.g. `NYX/temperature`), with an
    /// `[xN]` suffix for time series.
    pub fn qualified_name(&self) -> String {
        if self.steps > 1 {
            format!("{}/{}[x{}]", self.dataset.name(), self.name(), self.steps)
        } else {
            format!("{}/{}", self.dataset.name(), self.name())
        }
    }

    /// The shape this reference will generate — available without
    /// synthesizing the data (the cost estimator prices jobs from it).
    pub fn shape(&self) -> Shape {
        let s = self.dataset.shape(&self.opts);
        if self.steps > 1 {
            Shape::new(&[s.nx(), s.ny(), s.nz(), self.steps])
                .expect("3D roster shape extends to 4D")
        } else {
            s
        }
    }

    /// Synthesize the field data.
    pub fn generate(&self) -> Field {
        if self.steps > 1 {
            self.dataset
                .generate_timeseries(self.index, self.steps, &self.opts)
        } else {
            self.dataset.generate_field(self.index, &self.opts)
        }
    }
}

/// One schedulable unit of a campaign.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Position in the campaign job list (shard key).
    pub id: usize,
    /// Index into the campaign's field list (shared field data).
    pub field_index: usize,
    /// The field under assessment.
    pub field: FieldRef,
    /// The compressor configuration under assessment.
    pub compressor: CompressorSpec,
}

/// The metric snapshot a completed job contributes to the campaign table.
#[derive(Clone, Debug)]
pub struct JobMetrics {
    /// Peak signal-to-noise ratio (dB).
    pub psnr: f64,
    /// Mean structural similarity.
    pub ssim: f64,
    /// Mean squared error.
    pub mse: f64,
    /// Pearson correlation original↔decompressed.
    pub pearson: f64,
    /// Lag-1 error autocorrelation (None if pattern 2 disabled).
    pub autocorr1: Option<f64>,
    /// Compression ratio achieved by the job's codec.
    pub compression_ratio: f64,
    /// Modeled single-job assessment seconds on the job's device group.
    pub modeled_seconds: f64,
    /// Modeled per-pattern split of `modeled_seconds`.
    pub pattern_times: PatternTimes,
    /// Per-pattern execution records (feed the campaign counter merge).
    pub runs: Vec<PatternRun>,
    /// Modeled end-to-end time (transfer legs + compute) as overlapped
    /// stream makespan vs serialized sum.
    pub e2e: Option<EndToEnd>,
    /// Whether the metrics come from a full-field assessment or a
    /// progressive subsample prepass that early-exited.
    pub confidence: Confidence,
    /// Bytes of field data the assessment actually read (per input field;
    /// a full job reads 8·len, a pruned one only its subsample).
    pub assessed_bytes: u64,
}

/// What happened to a job. Failures are data, not control flow: one failed
/// codec round-trip or assessment must never abort the campaign.
#[derive(Clone, Debug)]
pub enum JobOutcome {
    /// The job completed and produced metrics.
    Done(Box<JobMetrics>),
    /// The job failed; the message records which stage and why.
    Failed(String),
}

/// A job plus its shard assignment and outcome.
#[derive(Clone, Debug)]
pub struct JobRecord {
    /// The job that ran.
    pub spec: JobSpec,
    /// Device-group index the job was assigned to.
    pub group: u32,
    /// Result.
    pub outcome: JobOutcome,
    /// Execution attempts across the job's shard parts: one per part on a
    /// fault-free fleet (1 for a job that failed before the device);
    /// retries, interrupted attempts and split pieces raise it.
    pub attempts: u32,
}

impl JobMetrics {
    /// Seconds the job occupies its device group: its overlapped stream
    /// makespan (upload, compute and drain), or its modeled compute
    /// seconds on a host executor, which has no stream.
    pub fn span_s(&self) -> f64 {
        span_s(self.e2e.as_ref(), self.modeled_seconds)
    }
}

/// [`JobMetrics::span_s`] of any run's end-to-end legs and modeled seconds.
pub(crate) fn span_s(e2e: Option<&EndToEnd>, modeled_seconds: f64) -> f64 {
    e2e.map_or(modeled_seconds, |e| e.overlapped_s)
}

impl JobRecord {
    /// The metrics, if the job completed.
    pub fn metrics(&self) -> Option<&JobMetrics> {
        match &self.outcome {
            JobOutcome::Done(m) => Some(m),
            JobOutcome::Failed(_) => None,
        }
    }
}

/// Fold an assembled report (compression stats attached; possibly a cache
/// merge rather than one run's output) plus the execution accounting into
/// the metric snapshot.
#[allow(clippy::too_many_arguments)]
pub(crate) fn metrics_from_report(
    report: &crate::report::AnalysisReport,
    modeled_seconds: f64,
    pattern_times: PatternTimes,
    runs: Vec<PatternRun>,
    e2e: Option<EndToEnd>,
    confidence: Confidence,
    assessed_bytes: u64,
) -> JobMetrics {
    JobMetrics {
        psnr: report.scalar(Metric::Psnr).unwrap_or(f64::NAN),
        ssim: report.scalar(Metric::Ssim).unwrap_or(f64::NAN),
        mse: report.scalar(Metric::Mse).unwrap_or(f64::NAN),
        pearson: report
            .scalar(Metric::PearsonCorrelation)
            .unwrap_or(f64::NAN),
        autocorr1: report.scalar(Metric::Autocorrelation),
        compression_ratio: report.scalar(Metric::CompressionRatio).unwrap_or(0.0),
        modeled_seconds,
        pattern_times,
        runs,
        e2e,
        confidence,
        assessed_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qualified_names_are_stable() {
        let field = FieldRef::new(AppDataset::Miranda, 0, GenOptions::scaled(32));
        assert_eq!(field.qualified_name(), "MIRANDA/density");
    }
}
