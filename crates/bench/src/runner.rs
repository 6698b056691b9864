//! Dataset-loop driver shared by the figure binaries.

use crate::fullscale::remodel_full;
use zc_compress::{Compressor, ErrorBound, SzCompressor};
use zc_core::exec::{Executor, PatternRun};
use zc_core::{AssessConfig, CuZc, MoZc, OmpZc, Pattern};
use zc_data::{AppDataset, GenOptions};
use zc_gpusim::cost::CpuModel;
use zc_gpusim::GpuSim;

/// Harness options (CLI-parsed by the figure binaries).
#[derive(Clone, Debug)]
pub struct HarnessOpts {
    /// Axis-divide factor for the functional pass (1 = full size).
    pub scale: usize,
    /// Assess at most this many fields per dataset (None = all).
    pub max_fields: Option<usize>,
    /// Relative error bound for the SZ-like compressor producing the
    /// decompressed data under assessment.
    pub rel_bound: f64,
    /// Optional path for a machine-readable CSV copy of the figure data.
    pub csv: Option<std::path::PathBuf>,
    /// Assessment configuration.
    pub cfg: AssessConfig,
}

impl Default for HarnessOpts {
    fn default() -> Self {
        HarnessOpts {
            scale: 4,
            max_fields: None,
            rel_bound: 1e-3,
            csv: None,
            cfg: AssessConfig::default(),
        }
    }
}

impl HarnessOpts {
    /// Parse `--scale N`, `--fields N`, `--rel-bound X` style arguments.
    pub fn from_args(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut opts = HarnessOpts::default();
        let mut it = args.peekable();
        while let Some(arg) = it.next() {
            let mut take = |name: &str| -> Result<String, String> {
                it.next().ok_or_else(|| format!("{name} needs a value"))
            };
            match arg.as_str() {
                "--scale" => {
                    opts.scale = take("--scale")?
                        .parse()
                        .map_err(|_| "--scale must be a positive integer".to_string())?;
                    if opts.scale == 0 {
                        return Err("--scale must be >= 1".into());
                    }
                }
                "--fields" => {
                    opts.max_fields = Some(
                        take("--fields")?
                            .parse()
                            .map_err(|_| "--fields must be an integer".to_string())?,
                    );
                }
                "--rel-bound" => {
                    opts.rel_bound = take("--rel-bound")?
                        .parse()
                        .map_err(|_| "--rel-bound must be a float".to_string())?;
                }
                "--csv" => {
                    opts.csv = Some(std::path::PathBuf::from(take("--csv")?));
                }
                other => return Err(format!("unknown argument '{other}'")),
            }
        }
        Ok(opts)
    }
}

/// Modeled full-shape seconds per pattern for one system.
#[derive(Clone, Copy, Debug, Default)]
pub struct SystemTimes {
    /// Pattern 1 seconds.
    pub p1: f64,
    /// Pattern 2 seconds.
    pub p2: f64,
    /// Pattern 3 seconds.
    pub p3: f64,
}

impl SystemTimes {
    /// All patterns.
    pub fn total(&self) -> f64 {
        self.p1 + self.p2 + self.p3
    }

    /// By pattern.
    pub fn of(&self, p: Pattern) -> f64 {
        match p {
            Pattern::GlobalReduction => self.p1,
            Pattern::Stencil => self.p2,
            Pattern::SlidingWindow => self.p3,
            Pattern::CompressionMeta => 0.0,
        }
    }
}

/// Per-dataset harness result (averaged over the assessed fields).
#[derive(Clone, Debug)]
pub struct DatasetResult {
    /// Which dataset.
    pub dataset: AppDataset,
    /// Fields assessed.
    pub fields: usize,
    /// Modeled full-shape times per system.
    pub cuzc: SystemTimes,
    /// moZC times.
    pub mozc: SystemTimes,
    /// ompZC times.
    pub ompzc: SystemTimes,
    /// Representative cuZC pattern runs (for Table II).
    pub cuzc_runs: Vec<PatternRun>,
    /// Mean compression ratio of the SZ-like compressor across fields.
    pub mean_ratio: f64,
}

impl DatasetResult {
    /// Full-shape payload bytes of one field.
    pub fn field_bytes(&self) -> f64 {
        self.dataset.full_shape().len() as f64 * 4.0
    }

    /// Modeled throughput of a system on a pattern in GB/s (Fig. 11 axes).
    pub fn throughput_gbs(&self, times: &SystemTimes, p: Pattern) -> f64 {
        let secs = times.of(p);
        if secs <= 0.0 {
            0.0
        } else {
            self.field_bytes() / secs / 1e9
        }
    }
}

fn accumulate(
    acc: &mut SystemTimes,
    runs: &[PatternRun],
    scaled: zc_tensor::Shape,
    full: zc_tensor::Shape,
    cfg: &AssessConfig,
    sim: &GpuSim,
    cpu: &CpuModel,
) {
    for r in runs {
        let t = remodel_full(r, scaled, full, cfg, sim, cpu);
        match r.pattern {
            Pattern::GlobalReduction => acc.p1 += t,
            Pattern::Stencil => acc.p2 += t,
            Pattern::SlidingWindow => acc.p3 += t,
            Pattern::CompressionMeta => {}
        }
    }
}

/// Write CSV rows (with header) to the harness's `--csv` path, if set.
pub fn write_csv(opts: &HarnessOpts, header: &str, rows: &[String]) {
    let Some(path) = &opts.csv else { return };
    let mut text = String::from(header);
    text.push('\n');
    for r in rows {
        text.push_str(r);
        text.push('\n');
    }
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        eprintln!("wrote {}", path.display());
    }
}

/// Run the three systems over one dataset's fields: generate at
/// `opts.scale`, compress/decompress with the SZ-like codec, assess with
/// each executor, and re-model times at the full paper shape.
pub fn assess_dataset(dataset: AppDataset, opts: &HarnessOpts) -> DatasetResult {
    let gen = GenOptions::scaled_xy(opts.scale);
    let scaled_shape = dataset.shape(&gen);
    let full_shape = dataset.full_shape();
    let n_fields = opts
        .max_fields
        .unwrap_or(usize::MAX)
        .min(dataset.field_count());
    let sz = SzCompressor::new(ErrorBound::Rel(opts.rel_bound));
    let cuzc = CuZc::default();
    let mozc = MoZc::default();
    let ompzc = OmpZc::default();
    let sim = GpuSim::v100();
    let cpu = CpuModel::xeon_6148();

    let mut res = DatasetResult {
        dataset,
        fields: n_fields,
        cuzc: SystemTimes::default(),
        mozc: SystemTimes::default(),
        ompzc: SystemTimes::default(),
        cuzc_runs: Vec::new(),
        mean_ratio: 0.0,
    };

    for i in 0..n_fields {
        let field = dataset.generate_field(i, &gen);
        let (dec, stats) = sz.roundtrip(&field.data).expect("compressor roundtrip");
        res.mean_ratio += stats.ratio();

        let a_cu = cuzc
            .assess(&field.data, &dec, &opts.cfg)
            .expect("cuZC assess");
        let a_mo = mozc
            .assess(&field.data, &dec, &opts.cfg)
            .expect("moZC assess");
        let a_om = ompzc
            .assess(&field.data, &dec, &opts.cfg)
            .expect("ompZC assess");
        accumulate(
            &mut res.cuzc,
            &a_cu.runs,
            scaled_shape,
            full_shape,
            &opts.cfg,
            &sim,
            &cpu,
        );
        accumulate(
            &mut res.mozc,
            &a_mo.runs,
            scaled_shape,
            full_shape,
            &opts.cfg,
            &sim,
            &cpu,
        );
        accumulate(
            &mut res.ompzc,
            &a_om.runs,
            scaled_shape,
            full_shape,
            &opts.cfg,
            &sim,
            &cpu,
        );
        if i == 0 {
            res.cuzc_runs = a_cu.runs;
        }
    }
    // Average.
    let nf = n_fields.max(1) as f64;
    for t in [&mut res.cuzc, &mut res.mozc, &mut res.ompzc] {
        t.p1 /= nf;
        t.p2 /= nf;
        t.p3 /= nf;
    }
    res.mean_ratio /= nf;
    res
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opts_parse_and_reject() {
        let o = HarnessOpts::from_args(
            ["--scale", "8", "--fields", "2", "--rel-bound", "1e-4"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!(o.scale, 8);
        assert_eq!(o.max_fields, Some(2));
        assert!((o.rel_bound - 1e-4).abs() < 1e-18);
        assert!(HarnessOpts::from_args(["--bogus".to_string()].into_iter()).is_err());
        let o =
            HarnessOpts::from_args(["--csv", "/tmp/x.csv"].iter().map(|s| s.to_string())).unwrap();
        assert_eq!(o.csv.as_deref(), Some(std::path::Path::new("/tmp/x.csv")));
        assert!(
            HarnessOpts::from_args(["--scale".to_string(), "0".to_string()].into_iter()).is_err()
        );
    }

    #[test]
    fn one_dataset_one_field_runs_end_to_end() {
        let opts = HarnessOpts {
            scale: 16,
            max_fields: Some(1),
            ..Default::default()
        };
        let r = assess_dataset(AppDataset::Miranda, &opts);
        assert_eq!(r.fields, 1);
        assert!(r.mean_ratio > 1.0);
        assert!(r.cuzc.total() > 0.0);
        // Ordering: cuZC fastest, ompZC slowest overall.
        assert!(r.cuzc.total() < r.mozc.total());
        assert!(r.mozc.total() < r.ompzc.total());
        assert_eq!(r.cuzc_runs.len(), 3);
    }
}
