//! Configuration parsing — the cuZ-Checker equivalent of Z-checker's
//! configuration parser module (Fig. 2 of the paper).
//!
//! The format is Z-checker's ini-style `key = value` file with sections:
//!
//! ```text
//! [assess]
//! executor = cuzc          # cuzc | mozc | ompzc | serial
//! metrics  = all           # or: pattern1 / pattern2 / pattern3 / key list
//! bins     = 256
//! max_lag  = 10
//!
//! [ssim]
//! window = 8
//! step   = 1
//!
//! [compressor]
//! kind      = sz           # sz | zfp | bitgroom | lossless
//! abs_bound = 1e-3
//! ```

use crate::metrics::MetricSelection;
use std::fmt;
use zc_compress::{CompressorSpec, ErrorBound};

/// SSIM settings (paper defaults: window 8, step 1, Wang constants).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SsimSettings {
    /// Window side length.
    pub window: usize,
    /// Sliding step.
    pub step: usize,
    /// Wang et al. k1.
    pub k1: f64,
    /// Wang et al. k2.
    pub k2: f64,
}

impl Default for SsimSettings {
    fn default() -> Self {
        SsimSettings {
            window: 8,
            step: 1,
            k1: 0.01,
            k2: 0.03,
        }
    }
}

/// How passes are split into z-slab tiles for streamed execution
/// (DESIGN.md §6.8). Tiling never changes metric values or merged
/// counters — it only refines the stream timeline and enables fields
/// larger than the simulated device memory.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TilingPolicy {
    /// Pick automatically: monolithic for small fields, ~8 MiB pair slabs
    /// for larger ones, forced tiling when the field pair exceeds device
    /// memory (out-of-core).
    #[default]
    Auto,
    /// Never tile. Out-of-core fields fail instead of streaming.
    Monolithic,
    /// Request this many slabs (clamped to the field's tileable extent).
    Slabs(usize),
}

impl TilingPolicy {
    /// Parse a policy: `auto`, `mono` or `monolithic`, or a slab count
    /// `N ≥ 1` — one grammar for the ini's `tiling` key and the CLI.
    pub fn parse(s: &str) -> Result<TilingPolicy, ConfigError> {
        match s.trim() {
            "auto" => Ok(TilingPolicy::Auto),
            "mono" | "monolithic" => Ok(TilingPolicy::Monolithic),
            n => match n.parse::<usize>() {
                Ok(v) if v > 0 => Ok(TilingPolicy::Slabs(v)),
                _ => Err(ConfigError::Invalid(format!(
                    "tiling '{s}' (auto, mono, monolithic or a slab count >= 1)"
                ))),
            },
        }
    }
}

/// Full assessment configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct AssessConfig {
    /// Enabled metrics.
    pub metrics: MetricSelection,
    /// Autocorrelation lags 1..=max_lag (paper evaluation: 10).
    pub max_lag: usize,
    /// Histogram bins for the PDF metrics.
    pub bins: usize,
    /// SSIM settings.
    pub ssim: SsimSettings,
    /// Slab-tiling policy for streamed execution.
    pub tiling: TilingPolicy,
}

impl Default for AssessConfig {
    fn default() -> Self {
        AssessConfig {
            metrics: MetricSelection::all(),
            max_lag: 10,
            bins: 256,
            ssim: SsimSettings::default(),
            tiling: TilingPolicy::default(),
        }
    }
}

impl AssessConfig {
    /// Validate parameter sanity (window/step bounds, bins, lags).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.ssim.window < 2 || self.ssim.window > 32 {
            return Err(ConfigError::Invalid("ssim window must be in 2..=32".into()));
        }
        if self.ssim.step == 0 || self.ssim.step > self.ssim.window {
            return Err(ConfigError::Invalid(
                "ssim step must be in 1..=window".into(),
            ));
        }
        if self.bins == 0 || self.bins > 1 << 16 {
            return Err(ConfigError::Invalid("bins must be in 1..=65536".into()));
        }
        if self.max_lag == 0 || self.max_lag > 64 {
            return Err(ConfigError::Invalid("max_lag must be in 1..=64".into()));
        }
        if self.tiling == TilingPolicy::Slabs(0) {
            return Err(ConfigError::Invalid("slab count must be positive".into()));
        }
        Ok(())
    }
}

/// Which executor a run uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecutorKind {
    /// Pattern-oriented GPU (the paper's contribution).
    CuZc,
    /// Metric-oriented GPU baseline.
    MoZc,
    /// Multithreaded CPU baseline.
    OmpZc,
    /// Scalar reference.
    Serial,
}

impl ExecutorKind {
    /// Parse a config value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "cuzc" => Some(ExecutorKind::CuZc),
            "mozc" => Some(ExecutorKind::MoZc),
            "ompzc" => Some(ExecutorKind::OmpZc),
            "serial" => Some(ExecutorKind::Serial),
            _ => None,
        }
    }
}

/// A fully parsed run configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct RunConfig {
    /// Assessment parameters.
    pub assess: AssessConfig,
    /// Executor to run.
    pub executor: ExecutorKind,
    /// Optional compressor to produce the decompressed field.
    pub compressor: Option<CompressorSpec>,
}

/// Configuration errors.
#[derive(Clone, Debug, PartialEq)]
pub enum ConfigError {
    /// Syntax error at a line.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// explanation.
        msg: String,
    },
    /// Unknown key/section/value.
    Unknown(String),
    /// Semantically invalid parameter.
    Invalid(String),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Syntax { line, msg } => write!(f, "line {line}: {msg}"),
            ConfigError::Unknown(what) => write!(f, "unknown {what}"),
            ConfigError::Invalid(what) => write!(f, "invalid value: {what}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Parse a configuration document.
pub fn parse(text: &str) -> Result<RunConfig, ConfigError> {
    let mut cfg = RunConfig {
        assess: AssessConfig::default(),
        executor: ExecutorKind::CuZc,
        compressor: None,
    };
    let mut section = String::from("assess");
    let mut comp_kind: Option<&str> = None;
    let mut abs_bound: Option<f64> = None;
    let mut rel_bound: Option<f64> = None;
    let mut rate: Option<f64> = None;
    let mut keep_bits: Option<usize> = None;

    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(sec) = line.strip_prefix('[') {
            let sec = sec
                .strip_suffix(']')
                .ok_or_else(|| ConfigError::Syntax {
                    line: lineno + 1,
                    msg: "unterminated section header".into(),
                })?
                .trim();
            if !["assess", "ssim", "compressor"].contains(&sec) {
                return Err(ConfigError::Unknown(format!("section [{sec}]")));
            }
            section = sec.to_string();
            continue;
        }
        let (key, value) = line.split_once('=').ok_or_else(|| ConfigError::Syntax {
            line: lineno + 1,
            msg: "expected key = value".into(),
        })?;
        let key = key.trim();
        let value = value.trim();
        let num = |v: &str| -> Result<f64, ConfigError> {
            v.parse::<f64>()
                .map_err(|_| ConfigError::Invalid(format!("{key} = {v}")))
        };
        let int = |v: &str| -> Result<usize, ConfigError> {
            v.parse::<usize>()
                .map_err(|_| ConfigError::Invalid(format!("{key} = {v}")))
        };
        match (section.as_str(), key) {
            ("assess", "executor") => {
                cfg.executor = ExecutorKind::parse(value)
                    .ok_or_else(|| ConfigError::Unknown(format!("executor '{value}'")))?;
            }
            ("assess", "metrics") => cfg.assess.metrics = MetricSelection::parse(value)?,
            ("assess", "bins") => cfg.assess.bins = int(value)?,
            ("assess", "max_lag") => cfg.assess.max_lag = int(value)?,
            ("assess", "tiling") => cfg.assess.tiling = TilingPolicy::parse(value)?,
            ("ssim", "window") => cfg.assess.ssim.window = int(value)?,
            ("ssim", "step") => cfg.assess.ssim.step = int(value)?,
            ("ssim", "k1") => cfg.assess.ssim.k1 = num(value)?,
            ("ssim", "k2") => cfg.assess.ssim.k2 = num(value)?,
            ("compressor", "kind") => {
                const KINDS: [&str; 4] = ["sz", "zfp", "bitgroom", "lossless"];
                let k = KINDS
                    .iter()
                    .find(|&&k| k == value)
                    .ok_or_else(|| ConfigError::Unknown(format!("compressor '{value}'")))?;
                comp_kind = Some(k);
            }
            ("compressor", "abs_bound") => abs_bound = Some(num(value)?),
            ("compressor", "rel_bound") => rel_bound = Some(num(value)?),
            ("compressor", "rate") => rate = Some(num(value)?),
            ("compressor", "keep_bits") => keep_bits = Some(int(value)?),
            (sec, key) => {
                return Err(ConfigError::Unknown(format!(
                    "key '{key}' in section [{sec}]"
                )))
            }
        }
    }

    cfg.compressor = match comp_kind {
        None => None,
        Some("sz") => {
            let bound = match (abs_bound, rel_bound) {
                (Some(a), None) => ErrorBound::Abs(a),
                (None, Some(r)) => ErrorBound::Rel(r),
                (None, None) => {
                    return Err(ConfigError::Invalid(
                        "sz needs abs_bound or rel_bound".into(),
                    ))
                }
                (Some(_), Some(_)) => {
                    return Err(ConfigError::Invalid(
                        "sz takes abs_bound or rel_bound, not both".into(),
                    ))
                }
            };
            match bound {
                ErrorBound::Abs(v) | ErrorBound::Rel(v) if v <= 0.0 || v.is_nan() => {
                    return Err(ConfigError::Invalid("error bound must be positive".into()))
                }
                _ => {}
            }
            Some(CompressorSpec::Sz(bound))
        }
        Some("zfp") => {
            let r = rate.ok_or_else(|| ConfigError::Invalid("zfp needs rate".into()))?;
            if !(r > 0.0 && r <= 30.0) {
                return Err(ConfigError::Invalid("zfp rate must be in (0, 30]".into()));
            }
            Some(CompressorSpec::Zfp(r))
        }
        Some("bitgroom") => {
            let k =
                keep_bits.ok_or_else(|| ConfigError::Invalid("bitgroom needs keep_bits".into()))?;
            if !(1..=23).contains(&k) {
                return Err(ConfigError::Invalid("keep_bits must be in 1..=23".into()));
            }
            Some(CompressorSpec::BitGroom(k as u32))
        }
        Some(_) => Some(CompressorSpec::Lossless),
    };

    cfg.assess.validate()?;
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metric;

    #[test]
    fn defaults_match_paper_settings() {
        let c = AssessConfig::default();
        assert_eq!(c.ssim.window, 8);
        assert_eq!(c.ssim.step, 1);
        assert_eq!(c.max_lag, 10);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn full_document_parses() {
        let doc = r#"
            # cuZ-Checker run
            [assess]
            executor = mozc
            metrics  = pattern3
            bins     = 512
            max_lag  = 4

            [ssim]
            window = 16
            step   = 2

            [compressor]
            kind      = sz
            abs_bound = 1e-3
        "#;
        let c = parse(doc).unwrap();
        assert_eq!(c.executor, ExecutorKind::MoZc);
        assert!(c.assess.metrics.contains(Metric::Ssim));
        assert!(!c.assess.metrics.contains(Metric::Psnr));
        assert_eq!(c.assess.bins, 512);
        assert_eq!(c.assess.ssim.window, 16);
        assert_eq!(
            c.compressor.map(|s| s.label()).as_deref(),
            Some("sz(abs=1e-3)")
        );
    }

    #[test]
    fn metric_list_selection() {
        let c = parse("[assess]\nmetrics = psnr, ssim, autocorr\n").unwrap();
        assert!(c.assess.metrics.contains(Metric::Psnr));
        assert!(c.assess.metrics.contains(Metric::Ssim));
        assert_eq!(c.assess.metrics.len(), 3);
    }

    #[test]
    fn zfp_rate_parses() {
        let c = parse("[compressor]\nkind = zfp\nrate = 8\n").unwrap();
        assert_eq!(
            c.compressor.map(|s| s.label()).as_deref(),
            Some("zfp(rate=8)")
        );
    }

    #[test]
    fn bitgroom_and_lossless_parse() {
        let c = parse("[compressor]\nkind = bitgroom\nkeep_bits = 10\n").unwrap();
        assert_eq!(
            c.compressor.map(|s| s.label()).as_deref(),
            Some("bitgroom(bits=10)")
        );
        let c = parse("[compressor]\nkind = lossless\n").unwrap();
        assert_eq!(c.compressor.map(|s| s.label()).as_deref(), Some("lossless"));
        // The fault-injection codec is a test fixture, not a config kind.
        assert!(matches!(
            parse("[compressor]\nkind = fail-decode\n"),
            Err(ConfigError::Unknown(_))
        ));
        assert!(matches!(
            parse("[compressor]\nkind = bitgroom\n"),
            Err(ConfigError::Invalid(_))
        ));
        assert!(matches!(
            parse("[compressor]\nkind = bitgroom\nkeep_bits = 40\n"),
            Err(ConfigError::Invalid(_))
        ));
    }

    #[test]
    fn tiling_policy_parses() {
        assert_eq!(
            parse("[assess]\ntiling = auto\n").unwrap().assess.tiling,
            TilingPolicy::Auto
        );
        assert_eq!(
            parse("[assess]\ntiling = monolithic\n")
                .unwrap()
                .assess
                .tiling,
            TilingPolicy::Monolithic
        );
        assert_eq!(
            parse("[assess]\ntiling = 16\n").unwrap().assess.tiling,
            TilingPolicy::Slabs(16)
        );
        assert!(matches!(
            parse("[assess]\ntiling = 0\n"),
            Err(ConfigError::Invalid(_))
        ));
        assert!(matches!(
            parse("[assess]\ntiling = sideways\n"),
            Err(ConfigError::Invalid(_))
        ));
    }

    #[test]
    fn errors_are_informative() {
        assert!(matches!(parse("[bogus]\n"), Err(ConfigError::Unknown(_))));
        assert!(matches!(
            parse("[assess]\nnot a kv line\n"),
            Err(ConfigError::Syntax { .. })
        ));
        assert!(matches!(
            parse("[assess]\nexecutor = gpuzc\n"),
            Err(ConfigError::Unknown(_))
        ));
        assert!(matches!(
            parse("[assess]\nbins = many\n"),
            Err(ConfigError::Invalid(_))
        ));
        assert!(matches!(
            parse("[compressor]\nkind = sz\n"),
            Err(ConfigError::Invalid(_))
        ));
        assert!(matches!(
            parse("[compressor]\nkind = sz\nabs_bound = -2\n"),
            Err(ConfigError::Invalid(_))
        ));
        assert!(matches!(
            parse("[ssim]\nwindow = 64\n"),
            Err(ConfigError::Invalid(_))
        ));
        assert!(matches!(
            parse("[ssim]\nwindow = 8\nstep = 9\n"),
            Err(ConfigError::Invalid(_))
        ));
    }

    #[test]
    fn ini_takes_the_cli_spellings() {
        assert_eq!(
            parse("[assess]\ntiling = mono\n").unwrap().assess.tiling,
            TilingPolicy::Monolithic
        );
        let c = parse("[assess]\nmetrics = psnr,, ssim,\n").unwrap();
        assert_eq!(
            c.assess.metrics,
            MetricSelection::parse("ssim,psnr").unwrap()
        );
        assert!(matches!(
            parse("[assess]\nmetrics = ,\n"),
            Err(ConfigError::Invalid(_))
        ));
        // A typo lists every known key, as on the command line.
        match parse("[assess]\nmetrics = psnr, pnsr\n") {
            Err(e @ ConfigError::Unknown(_)) => {
                let msg = e.to_string();
                assert!(msg.starts_with("unknown metric 'pnsr'"), "{msg}");
                assert!(msg.contains("autocorr") && msg.contains("ssim"), "{msg}");
            }
            other => panic!("expected an unknown metric, got {other:?}"),
        }
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let c = parse("\n# hello\n[assess]\nbins = 128 # trailing\n\n").unwrap();
        assert_eq!(c.assess.bins, 128);
    }
}
