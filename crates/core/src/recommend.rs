//! Best-fit compressor selection — the decision the paper's introduction
//! says assessment exists for: "comprehensively understanding the
//! compression quality ... is critical to selecting the best-fit
//! compressors and using them properly".
//!
//! Give [`recommend`] a field, a set of candidate compressor
//! configurations and your quality criteria. The candidates run as one
//! cache-off [`Engine`] batch: every candidate is round-tripped and
//! assessed host-parallel (or, with pruning, decided by the subsample
//! prepass when it can be), criteria are checked, and passing candidates
//! are ranked by compression ratio.

use crate::campaign::{FieldRef, FleetSpec, JobOutcome};
use crate::config::AssessConfig;
use crate::engine::{AssessRequest, Engine, EngineError};
use crate::exec::Confidence;
use crate::metrics::Metric;
use crate::plan::{AssessPlan, PrepassEstimate};
use crate::report::AnalysisReport;
use zc_compress::CompressorSpec;

/// Quality requirements a compressor configuration must satisfy.
#[derive(Clone, Copy, Debug, Default)]
pub struct QualityCriteria {
    /// Minimum PSNR in dB.
    pub min_psnr_db: Option<f64>,
    /// Minimum mean SSIM.
    pub min_ssim: Option<f64>,
    /// Maximum |autocorrelation| at lag 1 (white-noise-error requirement).
    pub max_autocorr_abs: Option<f64>,
    /// Maximum pointwise-relative error.
    pub max_pwr_error: Option<f64>,
    /// Maximum absolute error as a fraction of the value range.
    pub max_rel_range_error: Option<f64>,
}

impl QualityCriteria {
    /// A sensible visualization-grade default: PSNR ≥ 60 dB, SSIM ≥ 0.99.
    pub fn visualization() -> Self {
        QualityCriteria {
            min_psnr_db: Some(60.0),
            min_ssim: Some(0.99),
            ..Default::default()
        }
    }

    /// Strict analysis-grade criteria including error whiteness.
    pub fn analysis() -> Self {
        QualityCriteria {
            min_psnr_db: Some(80.0),
            min_ssim: Some(0.999),
            max_autocorr_abs: Some(0.1),
            max_rel_range_error: Some(1e-3),
            ..Default::default()
        }
    }

    /// The criteria `report` violates, as human-readable messages. A
    /// subsampled report carries only the prepass's pattern-1 scalars, so
    /// it is checked on PSNR and max pwr-error alone — the two criteria a
    /// prepass decides on.
    fn failures(&self, report: &AnalysisReport, confidence: Confidence) -> Vec<String> {
        let get = |m: Metric| report.scalar(m).unwrap_or(f64::NAN);
        let full = confidence == Confidence::Full;
        let mut failures = Vec::new();
        // NaN metric values must count as failures, hence the ordering.
        let fails_min = |v: f64, min: f64| v.is_nan() || v < min;
        let fails_max = |v: f64, max: f64| v.is_nan() || v > max;
        if let Some(min) = self.min_psnr_db {
            let psnr = get(Metric::Psnr);
            if fails_min(psnr, min) {
                failures.push(format!("PSNR {psnr:.2} < {min:.2} dB"));
            }
        }
        if let Some(min) = self.min_ssim.filter(|_| full) {
            let ssim = get(Metric::Ssim);
            // Z-checker reports SSIM 1.0 when no window fits the field;
            // that value is no evidence of quality.
            if report.ssim.is_some_and(|s| s.windows == 0) {
                failures.push("SSIM undefined (0 windows)".to_string());
            } else if fails_min(ssim, min) {
                failures.push(format!("SSIM {ssim:.5} < {min}"));
            }
        }
        if let Some(max) = self.max_autocorr_abs.filter(|_| full) {
            let ac1 = get(Metric::Autocorrelation).abs();
            if fails_max(ac1, max) {
                failures.push(format!("|autocorr(1)| {ac1:.4} > {max}"));
            }
        }
        if let Some(max) = self.max_pwr_error {
            let pwr = get(Metric::MaxPwrError);
            if fails_max(pwr, max) {
                failures.push(format!("max pwr err {pwr:.3e} > {max:.3e}"));
            }
        }
        if let Some(max) = self.max_rel_range_error.filter(|_| full) {
            let rel = get(Metric::MaxAbsError) / get(Metric::ValueRange).max(1e-300);
            if fails_max(rel, max) {
                failures.push(format!("max|e|/range {rel:.3e} > {max:.3e}"));
            }
        }
        failures
    }
}

/// The outcome of assessing one candidate.
#[derive(Clone, Debug)]
pub struct Verdict {
    /// Candidate label ([`CompressorSpec::label`]).
    pub name: String,
    /// Compression ratio achieved.
    pub ratio: f64,
    /// Bits per value.
    pub bit_rate: f64,
    /// PSNR (dB).
    pub psnr_db: f64,
    /// Mean SSIM.
    pub ssim: f64,
    /// Lag-1 error autocorrelation.
    pub autocorr1: f64,
    /// Whether every criterion passed.
    pub passes: bool,
    /// Human-readable criterion failures.
    pub failures: Vec<String>,
    /// Whether this verdict came from a full assessment or a progressive
    /// subsample prepass that was already decidable.
    pub confidence: Confidence,
}

/// The progressive-assessment policy: a strided-subsample prepass estimates
/// the pattern-1 scalars; candidates whose verdict is already decidable far
/// from every threshold skip the full assessment.
///
/// Soundness: the subsample maxima (pointwise-relative and absolute error)
/// are *lower bounds* of the full-field maxima, so a bound already violated
/// on the subsample is certainly violated on the full field — rejection on
/// that evidence never flips a verdict. PSNR pruning uses a symmetric
/// margin instead; estimates inside the margin go to the full assessment
/// ("frontier"), as does any candidate whose criteria include metrics the
/// prepass cannot bound (SSIM, autocorrelation, error/range).
#[derive(Clone, Copy, Debug)]
pub struct ProgressivePolicy {
    /// The criteria the prepass prunes against.
    pub criteria: QualityCriteria,
    /// Subsample stride (every `stride`-th element in flat order).
    pub stride: usize,
    /// PSNR estimates within this many dB of `min_psnr_db` are frontier
    /// cases and get the full assessment.
    pub psnr_margin_db: f64,
}

impl ProgressivePolicy {
    /// Default policy: stride 8, ±3 dB PSNR decision margin.
    pub fn new(criteria: QualityCriteria) -> Self {
        ProgressivePolicy {
            criteria,
            stride: 8,
            psnr_margin_db: 3.0,
        }
    }

    /// Decide a candidate from its prepass estimates.
    pub fn decide(&self, est: &PrepassEstimate) -> PrepassDecision {
        let c = &self.criteria;
        // Sound rejections first: subsample maxima lower-bound the field's.
        if c.max_pwr_error.is_some_and(|max| est.max_pwr_error() > max) {
            return PrepassDecision::Reject;
        }
        let psnr = est.psnr_db();
        if let Some(min) = c.min_psnr_db {
            if psnr.is_nan() {
                return PrepassDecision::Frontier;
            }
            if psnr < min - self.psnr_margin_db {
                return PrepassDecision::Reject;
            }
            if psnr < min + self.psnr_margin_db {
                return PrepassDecision::Frontier;
            }
        }
        // Accepting early requires every active criterion to be decidable
        // from the prepass. SSIM/autocorrelation aren't estimated at all,
        // and error/range is a ratio of two lower bounds (not monotone), so
        // any of them forces the full assessment. A present-but-unviolated
        // pwr-error bound also cannot be *cleared* from a lower bound.
        if c.min_ssim.is_some()
            || c.max_autocorr_abs.is_some()
            || c.max_rel_range_error.is_some()
            || c.max_pwr_error.is_some()
        {
            return PrepassDecision::Frontier;
        }
        PrepassDecision::Accept
    }
}

/// What the prepass concluded about a candidate.
#[derive(Clone, Debug, PartialEq)]
pub enum PrepassDecision {
    /// Every active criterion is cleared with margin; skip the full run.
    Accept,
    /// A criterion is certainly violated; skip the full run.
    Reject,
    /// Too close to a threshold (or criteria the prepass cannot bound):
    /// run the full assessment.
    Frontier,
}

impl PrepassDecision {
    /// True when the full assessment can be skipped.
    pub fn is_decided(&self) -> bool {
        !matches!(self, PrepassDecision::Frontier)
    }
}

/// Work accounting for a recommendation sweep.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Candidates considered.
    pub candidates: usize,
    /// Candidates decided by the prepass alone.
    pub pruned: usize,
    /// Field bytes actually read across all assessments (pair bytes for
    /// full runs, subsample bytes for prepasses).
    pub assessed_bytes: u64,
}

/// Errors from a recommendation sweep.
#[derive(Debug)]
pub enum RecommendError {
    /// The assessment configuration is invalid, or its plan does not fit
    /// the device envelope.
    Refused(EngineError),
    /// A candidate's round trip or assessment failed.
    Candidate {
        /// The candidate's [`CompressorSpec::label`].
        name: String,
        /// Which stage failed, and why.
        message: String,
    },
}

impl std::fmt::Display for RecommendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecommendError::Refused(e) => write!(f, "{e}"),
            RecommendError::Candidate { name, message } => {
                write!(f, "candidate '{name}': {message}")
            }
        }
    }
}

impl std::error::Error for RecommendError {}

/// Assess every candidate on `field` and rank them: passing candidates
/// first, by descending compression ratio; failing candidates after, also
/// by ratio. The candidates run as one engine batch on a single simulated
/// GPU, host-parallel.
///
/// With `prune`, each candidate first runs the strided-subsample prepass
/// under [`ProgressivePolicy::new`]`(*criteria)`, and a candidate whose
/// verdict the prepass already decides skips the full assessment. Pruning
/// keeps every accept/reject outcome; only the metric precision (marked
/// [`Confidence::Subsampled`]) and the bytes read differ.
pub fn recommend(
    field: &FieldRef,
    candidates: &[CompressorSpec],
    criteria: &QualityCriteria,
    cfg: &AssessConfig,
    prune: bool,
) -> Result<(Vec<Verdict>, SweepStats), RecommendError> {
    cfg.validate()
        .map_err(|e| RecommendError::Refused(EngineError::BadConfig(e.to_string())))?;
    let mut engine = Engine::open(FleetSpec::nvlink(1), 0);
    let plan = AssessPlan::lower(cfg);
    engine
        .admit_plan(&plan, field.shape(), cfg)
        .map_err(RecommendError::Refused)?;
    let reqs: Vec<AssessRequest> = candidates
        .iter()
        .map(|&compressor| AssessRequest {
            field: field.clone(),
            compressor,
            cfg: cfg.clone(),
        })
        .collect();
    let policy = prune.then(|| ProgressivePolicy::new(*criteria));
    let mut stats = SweepStats {
        candidates: candidates.len(),
        ..Default::default()
    };
    let resolved = engine.execute(&reqs, &vec![&plan; reqs.len()], policy.as_ref());
    let mut verdicts = Vec::with_capacity(candidates.len());
    for (spec, r) in candidates.iter().zip(resolved) {
        let name = spec.label();
        let job = match r.outcome {
            JobOutcome::Done(job) => job,
            JobOutcome::Failed(message) => return Err(RecommendError::Candidate { name, message }),
        };
        let report = r.report.expect("a completed job carries its report");
        let codec = report
            .compression
            .expect("engine reports carry codec stats");
        stats.assessed_bytes += job.assessed_bytes;
        if job.confidence == Confidence::Subsampled {
            stats.pruned += 1;
        }
        let failures = criteria.failures(&report, job.confidence);
        let get = |m: Metric| report.scalar(m).unwrap_or(f64::NAN);
        verdicts.push(Verdict {
            name,
            ratio: codec.ratio(),
            bit_rate: codec.bit_rate(4),
            psnr_db: get(Metric::Psnr),
            ssim: get(Metric::Ssim),
            autocorr1: get(Metric::Autocorrelation),
            passes: failures.is_empty(),
            failures,
            confidence: job.confidence,
        });
    }
    sort_verdicts(&mut verdicts);
    Ok((verdicts, stats))
}

/// Passing candidates first, by descending compression ratio; failing
/// candidates after, also by ratio.
fn sort_verdicts(verdicts: &mut [Verdict]) {
    verdicts.sort_by(|a, b| {
        b.passes.cmp(&a.passes).then(
            b.ratio
                .partial_cmp(&a.ratio)
                .unwrap_or(std::cmp::Ordering::Equal),
        )
    });
}

/// Render the ranking as an aligned text table.
pub fn render_ranking(verdicts: &[Verdict]) -> String {
    let mut out = format!(
        "{:<24} {:>8} {:>10} {:>10} {:>10} {:>8}  notes\n",
        "candidate", "ratio", "bits/val", "PSNR(dB)", "SSIM", "pass"
    );
    for v in verdicts {
        let mut notes = v.failures.join("; ");
        if v.confidence == Confidence::Subsampled {
            if !notes.is_empty() {
                notes.push_str("; ");
            }
            notes.push_str("[subsampled]");
        }
        out.push_str(&format!(
            "{:<24} {:>7.1}x {:>10.3} {:>10.2} {:>10.6} {:>8}  {}\n",
            v.name,
            v.ratio,
            v.bit_rate,
            v.psnr_db,
            v.ssim,
            if v.passes { "yes" } else { "NO" },
            notes
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use zc_compress::ErrorBound;
    use zc_data::{AppDataset, GenOptions};

    fn field() -> FieldRef {
        FieldRef::new(AppDataset::Nyx, 0, GenOptions::scaled(32))
    }

    fn run(
        field: &FieldRef,
        candidates: &[CompressorSpec],
        criteria: &QualityCriteria,
        prune: bool,
    ) -> (Vec<Verdict>, SweepStats) {
        recommend(field, candidates, criteria, &AssessConfig::default(), prune).unwrap()
    }

    #[test]
    fn ranking_prefers_passing_high_ratio() {
        let cands = [
            CompressorSpec::Sz(ErrorBound::Rel(1e-2)),
            CompressorSpec::Sz(ErrorBound::Rel(1e-5)),
            CompressorSpec::Zfp(2.0),
        ];
        let criteria = QualityCriteria {
            min_psnr_db: Some(60.0),
            ..Default::default()
        };
        let (v, _) = run(&field(), &cands, &criteria, false);
        // The coarse fixed-rate codec must fail the PSNR bar.
        let zfp = v.iter().find(|x| x.name.starts_with("zfp")).unwrap();
        assert!(!zfp.passes, "zfp rate=2 should fail: psnr {}", zfp.psnr_db);
        assert!(!zfp.failures.is_empty());
        // Winners are passing, ordered by ratio.
        assert!(v[0].passes);
        let passing: Vec<_> = v.iter().filter(|x| x.passes).collect();
        for w in passing.windows(2) {
            assert!(w[0].ratio >= w[1].ratio);
        }
        // Failing candidates sort after passing ones.
        let first_fail = v.iter().position(|x| !x.passes);
        if let Some(i) = first_fail {
            assert!(v[i..].iter().all(|x| !x.passes));
        }
    }

    #[test]
    fn empty_criteria_pass_everything() {
        let cands = [CompressorSpec::Sz(ErrorBound::Rel(1e-3))];
        let (v, _) = run(&field(), &cands, &QualityCriteria::default(), false);
        assert!(v[0].passes);
        assert!(v[0].failures.is_empty());
    }

    #[test]
    fn whiteness_criterion_is_enforced() {
        // ZFP at low rate produces correlated blocky errors.
        let sz = CompressorSpec::Sz(ErrorBound::Rel(1e-3));
        let cands = [CompressorSpec::Zfp(6.0), sz];
        let criteria = QualityCriteria {
            max_autocorr_abs: Some(0.2),
            ..Default::default()
        };
        let (v, _) = run(&field(), &cands, &criteria, false);
        let sz_v = v.iter().find(|x| x.name == sz.label()).unwrap();
        assert!(
            sz_v.passes,
            "sz errors are near-white on this field: ac1 = {}",
            sz_v.autocorr1
        );
    }

    #[test]
    fn table_renders_failures() {
        let verdicts = vec![Verdict {
            name: "x".into(),
            ratio: 5.0,
            bit_rate: 6.4,
            psnr_db: 50.0,
            ssim: 0.9,
            autocorr1: 0.2,
            passes: false,
            failures: vec!["PSNR 50.00 < 60.00 dB".into()],
            confidence: Confidence::Full,
        }];
        let t = render_ranking(&verdicts);
        assert!(t.contains("NO"));
        assert!(t.contains("PSNR 50.00"));
    }

    /// Pruning keeps every verdict and reads only the subsamples plus the
    /// pairs of the candidates the prepass could not decide.
    #[test]
    fn pruning_keeps_every_verdict_and_reads_less() {
        let field = field();
        let cands = [
            CompressorSpec::Sz(ErrorBound::Rel(1e-2)),
            CompressorSpec::Sz(ErrorBound::Rel(1e-3)),
            CompressorSpec::Sz(ErrorBound::Rel(1e-4)),
            CompressorSpec::Sz(ErrorBound::Rel(1e-5)),
            CompressorSpec::Zfp(4.0),
            CompressorSpec::Zfp(16.0),
        ];
        let criteria = QualityCriteria {
            min_psnr_db: Some(60.0),
            ..Default::default()
        };
        let (full, full_stats) = run(&field, &cands, &criteria, false);
        let (pruned, stats) = run(&field, &cands, &criteria, true);
        for v in &full {
            let p = pruned.iter().find(|p| p.name == v.name).unwrap();
            assert_eq!(v.passes, p.passes, "{}", v.name);
        }
        let n = field.shape().len() as u64;
        let sampled = n.div_ceil(ProgressivePolicy::new(criteria).stride as u64) * 8;
        let frontier = (stats.candidates - stats.pruned) as u64;
        assert_eq!(full_stats.pruned, 0);
        assert_eq!(full_stats.assessed_bytes, cands.len() as u64 * n * 8);
        assert!(stats.pruned > 0);
        assert_eq!(
            stats.assessed_bytes,
            cands.len() as u64 * sampled + frontier * n * 8
        );
    }

    /// One call round-trips the candidate and reports both its quality
    /// (PSNR, SSIM, lag-1 autocorrelation) and its compression performance
    /// (ratio and bit rate).
    #[test]
    fn one_call_yields_quality_and_performance_metrics() {
        let cands = [CompressorSpec::Sz(ErrorBound::Rel(1e-3))];
        let (v, stats) = run(&field(), &cands, &QualityCriteria::default(), false);
        assert_eq!(stats.candidates, 1);
        let v = &v[0];
        assert!(v.psnr_db > 40.0, "psnr {}", v.psnr_db);
        assert!(v.ssim > 0.0 && v.ssim <= 1.0, "ssim {}", v.ssim);
        assert!(v.autocorr1.is_finite());
        assert!(v.ratio > 1.0, "ratio {}", v.ratio);
        assert!(
            v.bit_rate > 0.0 && v.bit_rate < 32.0,
            "bit rate {}",
            v.bit_rate
        );
    }

    #[test]
    fn a_failing_codec_is_a_typed_error_naming_its_candidate() {
        let broken = CompressorSpec::FailDecode { every_nth: 1 };
        let cands = [CompressorSpec::Sz(ErrorBound::Rel(1e-3)), broken];
        let err = recommend(
            &field(),
            &cands,
            &QualityCriteria::default(),
            &AssessConfig::default(),
            false,
        )
        .unwrap_err();
        assert!(
            matches!(&err, RecommendError::Candidate { name, .. } if *name == broken.label()),
            "{err}"
        );
    }

    #[test]
    fn an_invalid_config_is_a_typed_error() {
        let cfg = AssessConfig {
            max_lag: 0,
            ..Default::default()
        };
        let cands = [CompressorSpec::Sz(ErrorBound::Rel(1e-3))];
        let err = recommend(&field(), &cands, &QualityCriteria::default(), &cfg, false);
        assert!(matches!(
            err,
            Err(RecommendError::Refused(EngineError::BadConfig(_)))
        ));
    }

    /// A field too thin for one 8-sided SSIM window reports Z-checker's
    /// SSIM of 1.0 over zero windows; that must not satisfy `min_ssim`.
    #[test]
    fn zero_ssim_windows_fail_min_ssim() {
        let field = FieldRef::new(AppDataset::Hurricane, 9, GenOptions::scaled(16));
        let criteria = QualityCriteria {
            min_ssim: Some(0.99),
            ..Default::default()
        };
        let cands = [CompressorSpec::Sz(ErrorBound::Rel(1e-3))];
        let (v, _) = run(&field, &cands, &criteria, false);
        assert_eq!(v[0].ssim, 1.0);
        assert!(!v[0].passes);
        assert_eq!(v[0].failures, ["SSIM undefined (0 windows)"]);
    }
}
