//! The metric registry — every assessment metric cuZ-Checker supports and
//! its computational-pattern classification (the paper's Table I).

use crate::config::ConfigError;
use std::collections::BTreeSet;
use std::fmt;

/// The three computational patterns (plus the cheap data-property pass).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Pattern {
    /// Category I: global reductions (3D array → scalar/histogram).
    GlobalReduction,
    /// Category II: stencil-like (derivatives, autocorrelation).
    Stencil,
    /// Category III: sliding window (SSIM).
    SlidingWindow,
    /// Compression-performance metrics measured by the compressor itself
    /// (ratio, throughputs) — no array pass needed.
    CompressionMeta,
}

impl Pattern {
    /// Paper-facing label.
    pub fn label(self) -> &'static str {
        match self {
            Pattern::GlobalReduction => "global reduction",
            Pattern::Stencil => "stencil-like",
            Pattern::SlidingWindow => "sliding window",
            Pattern::CompressionMeta => "compression meta",
        }
    }
}

/// Every metric the assessment system reports (Z-checker parity, 20+).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Metric {
    // -- data properties & category I (global reductions) -----------------
    /// Minimum original value.
    MinValue,
    /// Maximum original value.
    MaxValue,
    /// Value range of the original data.
    ValueRange,
    /// Mean of the original data.
    MeanValue,
    /// Variance of the original data.
    Variance,
    /// Shannon entropy of the binned value distribution.
    Entropy,
    /// Minimum signed compression error.
    MinError,
    /// Maximum signed compression error.
    MaxError,
    /// Mean absolute compression error.
    AvgError,
    /// Maximum absolute compression error.
    MaxAbsError,
    /// PDF of signed compression errors.
    ErrorPdf,
    /// Minimum pointwise-relative ("pwr") error.
    MinPwrError,
    /// Maximum pwr error.
    MaxPwrError,
    /// Mean pwr error.
    AvgPwrError,
    /// PDF of pwr errors.
    PwrErrorPdf,
    /// Mean squared error.
    Mse,
    /// Root mean squared error.
    Rmse,
    /// Range-normalized RMSE.
    Nrmse,
    /// Signal-to-noise ratio (dB).
    Snr,
    /// Peak signal-to-noise ratio (dB).
    Psnr,
    /// Pearson correlation between original and decompressed data.
    PearsonCorrelation,
    // -- category II (stencil-like) ----------------------------------------
    /// Mean first-derivative (gradient) magnitude of both fields and their
    /// distortion.
    Derivative1,
    /// Mean second-derivative magnitudes.
    Derivative2,
    /// Mean divergence (sum of first-derivative components).
    Divergence,
    /// Mean |Laplacian|.
    Laplacian,
    /// Autocorrelation of compression errors (lags 1..=MAXLAG).
    Autocorrelation,
    /// MSE between the gradient-magnitude fields of original and
    /// decompressed data (the "zfp and derivatives" distortion check).
    DerivativeMse,
    // -- category III (sliding window) -------------------------------------
    /// Structural similarity index (3D windowed).
    Ssim,
    // -- compression meta ---------------------------------------------------
    /// Compression ratio.
    CompressionRatio,
    /// Compression throughput.
    CompressionThroughput,
    /// Decompression throughput.
    DecompressionThroughput,
}

impl Metric {
    /// All metrics in registry order.
    pub const ALL: [Metric; 31] = [
        Metric::MinValue,
        Metric::MaxValue,
        Metric::ValueRange,
        Metric::MeanValue,
        Metric::Variance,
        Metric::Entropy,
        Metric::MinError,
        Metric::MaxError,
        Metric::AvgError,
        Metric::MaxAbsError,
        Metric::ErrorPdf,
        Metric::MinPwrError,
        Metric::MaxPwrError,
        Metric::AvgPwrError,
        Metric::PwrErrorPdf,
        Metric::Mse,
        Metric::Rmse,
        Metric::Nrmse,
        Metric::Snr,
        Metric::Psnr,
        Metric::PearsonCorrelation,
        Metric::Derivative1,
        Metric::Derivative2,
        Metric::Divergence,
        Metric::Laplacian,
        Metric::Autocorrelation,
        Metric::DerivativeMse,
        Metric::Ssim,
        Metric::CompressionRatio,
        Metric::CompressionThroughput,
        Metric::DecompressionThroughput,
    ];

    /// The paper's Table-I pattern classification.
    pub fn pattern(self) -> Pattern {
        use Metric::*;
        match self {
            MinValue | MaxValue | ValueRange | MeanValue | Variance | Entropy | MinError
            | MaxError | AvgError | MaxAbsError | ErrorPdf | MinPwrError | MaxPwrError
            | AvgPwrError | PwrErrorPdf | Mse | Rmse | Nrmse | Snr | Psnr | PearsonCorrelation => {
                Pattern::GlobalReduction
            }
            Derivative1 | Derivative2 | Divergence | Laplacian | Autocorrelation
            | DerivativeMse => Pattern::Stencil,
            Ssim => Pattern::SlidingWindow,
            CompressionRatio | CompressionThroughput | DecompressionThroughput => {
                Pattern::CompressionMeta
            }
        }
    }

    /// Configuration-file key for the metric.
    pub fn key(self) -> &'static str {
        use Metric::*;
        match self {
            MinValue => "min_value",
            MaxValue => "max_value",
            ValueRange => "value_range",
            MeanValue => "mean_value",
            Variance => "variance",
            Entropy => "entropy",
            MinError => "min_err",
            MaxError => "max_err",
            AvgError => "avg_err",
            MaxAbsError => "max_abs_err",
            ErrorPdf => "err_pdf",
            MinPwrError => "min_pwr_err",
            MaxPwrError => "max_pwr_err",
            AvgPwrError => "avg_pwr_err",
            PwrErrorPdf => "pwr_err_pdf",
            Mse => "mse",
            Rmse => "rmse",
            Nrmse => "nrmse",
            Snr => "snr",
            Psnr => "psnr",
            PearsonCorrelation => "pearson",
            Derivative1 => "derivative1",
            Derivative2 => "derivative2",
            Divergence => "divergence",
            Laplacian => "laplacian",
            Autocorrelation => "autocorr",
            DerivativeMse => "derivative_mse",
            Ssim => "ssim",
            CompressionRatio => "compression_ratio",
            CompressionThroughput => "compression_throughput",
            DecompressionThroughput => "decompression_throughput",
        }
    }

    /// Parse a configuration key back to a metric.
    pub fn from_key(key: &str) -> Option<Metric> {
        Metric::ALL.into_iter().find(|m| m.key() == key)
    }
}

impl fmt::Display for Metric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.key())
    }
}

/// Which metrics an assessment run computes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricSelection {
    enabled: BTreeSet<Metric>,
}

impl MetricSelection {
    /// Everything (the paper's Fig. 10 configuration).
    pub fn all() -> Self {
        MetricSelection {
            enabled: Metric::ALL.into_iter().collect(),
        }
    }

    /// Nothing — build up with [`MetricSelection::with`].
    pub fn none() -> Self {
        MetricSelection {
            enabled: BTreeSet::new(),
        }
    }

    /// Only the metrics of one pattern (the Fig. 11/12 configuration).
    pub fn pattern(p: Pattern) -> Self {
        MetricSelection {
            enabled: Metric::ALL
                .into_iter()
                .filter(|m| m.pattern() == p)
                .collect(),
        }
    }

    /// Add one metric.
    pub fn with(mut self, m: Metric) -> Self {
        self.enabled.insert(m);
        self
    }

    /// Is the metric enabled?
    pub fn contains(&self, m: Metric) -> bool {
        self.enabled.contains(&m)
    }

    /// Does the selection need a given pattern's pass at all?
    pub fn needs(&self, p: Pattern) -> bool {
        self.enabled.iter().any(|m| m.pattern() == p)
    }

    /// Iterate enabled metrics.
    pub fn iter(&self) -> impl Iterator<Item = Metric> + '_ {
        self.enabled.iter().copied()
    }

    /// Number of enabled metrics.
    pub fn len(&self) -> usize {
        self.enabled.len()
    }

    /// True when nothing is enabled.
    pub fn is_empty(&self) -> bool {
        self.enabled.is_empty()
    }

    /// Parse a selection: `all`, `pattern1` to `pattern3`, or a comma list
    /// of [`Metric::key`]s (empty items skipped) — one grammar for the ini's
    /// `metrics` key and the CLI. An unknown key lists every known key; an
    /// empty selection is refused.
    pub fn parse(spec: &str) -> Result<MetricSelection, ConfigError> {
        match spec.trim() {
            "all" => return Ok(MetricSelection::all()),
            "pattern1" => return Ok(MetricSelection::pattern(Pattern::GlobalReduction)),
            "pattern2" => return Ok(MetricSelection::pattern(Pattern::Stencil)),
            "pattern3" => return Ok(MetricSelection::pattern(Pattern::SlidingWindow)),
            _ => {}
        }
        let mut sel = MetricSelection::none();
        for key in spec.split(',').map(str::trim).filter(|k| !k.is_empty()) {
            let m = Metric::from_key(key).ok_or_else(|| {
                let known: Vec<&str> = Metric::ALL.iter().map(|m| m.key()).collect();
                ConfigError::Unknown(format!("metric '{key}' (known: {})", known.join(", ")))
            })?;
            sel = sel.with(m);
        }
        if sel.is_empty() {
            return Err(ConfigError::Invalid(format!(
                "metrics '{spec}' select nothing"
            )));
        }
        Ok(sel)
    }
}

impl Default for MetricSelection {
    fn default() -> Self {
        Self::all()
    }
}

/// Render the paper's Table I from the registry.
pub fn classification_table() -> String {
    let mut out = String::from("Pattern-oriented metrics classification (paper Table I)\n");
    for p in [
        Pattern::GlobalReduction,
        Pattern::Stencil,
        Pattern::SlidingWindow,
    ] {
        let members: Vec<&str> = Metric::ALL
            .iter()
            .filter(|m| m.pattern() == p)
            .map(|m| m.key())
            .collect();
        out.push_str(&format!("{:<18} | {}\n", p.label(), members.join(", ")));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_i_classification_matches_paper() {
        // The paper's category I list.
        for m in [
            Metric::MinError,
            Metric::MaxError,
            Metric::AvgError,
            Metric::ErrorPdf,
            Metric::MinPwrError,
            Metric::MaxPwrError,
            Metric::AvgPwrError,
            Metric::PwrErrorPdf,
            Metric::Mse,
            Metric::Rmse,
            Metric::Nrmse,
            Metric::Snr,
            Metric::Psnr,
        ] {
            assert_eq!(m.pattern(), Pattern::GlobalReduction, "{m}");
        }
        // Category II.
        for m in [
            Metric::Derivative1,
            Metric::Divergence,
            Metric::Laplacian,
            Metric::Autocorrelation,
        ] {
            assert_eq!(m.pattern(), Pattern::Stencil, "{m}");
        }
        // Category III: SSIM alone.
        assert_eq!(Metric::Ssim.pattern(), Pattern::SlidingWindow);
        let p3: Vec<_> = Metric::ALL
            .iter()
            .filter(|m| m.pattern() == Pattern::SlidingWindow)
            .collect();
        assert_eq!(p3.len(), 1);
    }

    #[test]
    fn key_roundtrip() {
        for m in Metric::ALL {
            assert_eq!(Metric::from_key(m.key()), Some(m));
        }
        assert_eq!(Metric::from_key("nope"), None);
    }

    #[test]
    fn selection_by_pattern() {
        let s = MetricSelection::pattern(Pattern::Stencil);
        assert!(s.contains(Metric::Autocorrelation));
        assert!(!s.contains(Metric::Ssim));
        assert!(s.needs(Pattern::Stencil));
        assert!(!s.needs(Pattern::SlidingWindow));
        assert_eq!(s.len(), 6);
    }

    #[test]
    fn all_selection_needs_every_pattern() {
        let s = MetricSelection::all();
        for p in [
            Pattern::GlobalReduction,
            Pattern::Stencil,
            Pattern::SlidingWindow,
        ] {
            assert!(s.needs(p));
        }
        assert_eq!(s.len(), Metric::ALL.len());
    }

    #[test]
    fn classification_table_mentions_every_pattern() {
        let t = classification_table();
        assert!(t.contains("global reduction"));
        assert!(t.contains("stencil-like"));
        assert!(t.contains("sliding window"));
        assert!(t.contains("ssim"));
    }
}
