//! The dataset catalog: the four SDRBench applications of the paper's
//! evaluation (§IV-A), with their exact shapes and field rosters.

use crate::fields::{synthesize, synthesize_evolving, FieldKind};
use crate::rng::SplitMix64;
use zc_tensor::{Shape, Tensor};

/// One of the four applications evaluated by the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AppDataset {
    /// Hurricane ISABEL (IEEE Vis 2004 contest): 13 fields, 100×500×500.
    Hurricane,
    /// NYX cosmology: 6 fields, 512×512×512.
    Nyx,
    /// SCALE-LETKF weather: 6 fields, 98×1200×1200.
    ScaleLetkf,
    /// Miranda radiation hydrodynamics: 7 fields, 256×384×384.
    Miranda,
    /// CESM-ATM climate model (SDRBench): 2D fields, 1800×3600 — not part
    /// of the paper's evaluation, included to exercise the 1D/2D analysis
    /// modes Z-checker supports.
    CesmAtm,
}

/// Generation options shared by all fields of a dataset.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct GenOptions {
    /// Divide the x and y extents by this factor (≥1). 1 = paper shapes.
    pub scale: usize,
    /// Divide the z extent by this factor. Benchmarks scale z less than
    /// x/y because the z extent drives grid sizes and stencil-lag validity
    /// fractions (Table II effects), which must survive extrapolation.
    pub scale_z: usize,
    /// Extra seed XOR-ed into every field seed (vary to get fresh instances).
    pub seed: u64,
}

impl GenOptions {
    /// Full-size datasets (paper shapes), default seed.
    pub fn full() -> Self {
        GenOptions {
            scale: 1,
            scale_z: 1,
            seed: 0,
        }
    }

    /// Datasets scaled down by `scale` on every axis.
    pub fn scaled(scale: usize) -> Self {
        assert!(scale >= 1);
        GenOptions {
            scale,
            scale_z: scale,
            seed: 0,
        }
    }

    /// Benchmark scaling: x/y divided by `scale`, z by at most 2 (preserves
    /// the z-geometry the paper's per-dataset observations depend on).
    pub fn scaled_xy(scale: usize) -> Self {
        assert!(scale >= 1);
        GenOptions {
            scale,
            scale_z: scale.min(2),
            seed: 0,
        }
    }

    /// Same scale, different random instance.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for GenOptions {
    fn default() -> Self {
        Self::full()
    }
}

/// A generated field: name + data.
#[derive(Clone, Debug)]
pub struct Field {
    /// Field name as in the source application (e.g. `QCLOUD`).
    pub name: &'static str,
    /// The synthesized data.
    pub data: Tensor<f32>,
}

/// Field roster entry: name, recipe kind, physical range.
type Entry = (&'static str, FieldKind, (f64, f64));

impl AppDataset {
    /// The paper's four evaluation datasets, in presentation order.
    pub const ALL: [AppDataset; 4] = [
        AppDataset::Hurricane,
        AppDataset::Nyx,
        AppDataset::ScaleLetkf,
        AppDataset::Miranda,
    ];

    /// All datasets including the 2D CESM-ATM extension.
    pub const ALL_EXTENDED: [AppDataset; 5] = [
        AppDataset::Hurricane,
        AppDataset::Nyx,
        AppDataset::ScaleLetkf,
        AppDataset::Miranda,
        AppDataset::CesmAtm,
    ];

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            AppDataset::Hurricane => "Hurricane",
            AppDataset::Nyx => "NYX",
            AppDataset::ScaleLetkf => "SCALE-LETKF",
            AppDataset::Miranda => "MIRANDA",
            AppDataset::CesmAtm => "CESM-ATM",
        }
    }

    /// The full (unscaled) per-field shape from §IV-A.
    ///
    /// Extents are listed as `(nx, ny, nz)` with nx fastest-varying; the
    /// paper writes Hurricane as 100×500×500 with z the slowest dimension
    /// used for slab decomposition, and reports per-dataset behaviour keyed
    /// to the z extent (e.g. NYX's z = 512 drives pattern-3 iterations), so
    /// we orient shapes to match those z extents.
    pub fn full_shape(self) -> Shape {
        match self {
            AppDataset::Hurricane => Shape::d3(500, 500, 100),
            AppDataset::Nyx => Shape::d3(512, 512, 512),
            AppDataset::ScaleLetkf => Shape::d3(1200, 1200, 98),
            AppDataset::Miranda => Shape::d3(384, 384, 256),
            AppDataset::CesmAtm => Shape::d2(3600, 1800),
        }
    }

    /// Shape after applying `opts.scale` / `opts.scale_z`.
    pub fn shape(self, opts: &GenOptions) -> Shape {
        self.full_shape()
            .scaled_down_axes([opts.scale, opts.scale, opts.scale_z, 1])
    }

    fn roster(self) -> &'static [Entry] {
        match self {
            AppDataset::Hurricane => &[
                ("QCLOUD", FieldKind::Plume, (0.0, 3.3e-3)),
                ("QGRAUP", FieldKind::Plume, (0.0, 1.0e-2)),
                ("QICE", FieldKind::Plume, (0.0, 1.2e-3)),
                ("QRAIN", FieldKind::Plume, (0.0, 1.1e-2)),
                ("QSNOW", FieldKind::Plume, (0.0, 1.5e-3)),
                ("QVAPOR", FieldKind::Smooth, (0.0, 2.5e-2)),
                ("CLOUD", FieldKind::Plume, (0.0, 1.0)),
                ("PRECIP", FieldKind::Banded, (0.0, 2.0e-2)),
                ("P", FieldKind::Smooth, (-5000.0, 3000.0)),
                ("TC", FieldKind::Smooth, (-80.0, 30.0)),
                ("U", FieldKind::Vortex, (-80.0, 80.0)),
                ("V", FieldKind::Vortex, (-80.0, 80.0)),
                ("W", FieldKind::TurbulentVelocity, (-10.0, 10.0)),
            ],
            AppDataset::Nyx => &[
                ("baryon_density", FieldKind::LogClustered, (0.0, 5.0e4)),
                ("dark_matter_density", FieldKind::LogClustered, (0.0, 1.4e4)),
                ("temperature", FieldKind::LogSmooth, (0.0, 5.0e7)),
                ("velocity_x", FieldKind::TurbulentVelocity, (-4.0e7, 4.0e7)),
                ("velocity_y", FieldKind::TurbulentVelocity, (-4.0e7, 4.0e7)),
                ("velocity_z", FieldKind::TurbulentVelocity, (-4.0e7, 4.0e7)),
            ],
            AppDataset::ScaleLetkf => &[
                ("QC", FieldKind::Banded, (0.0, 2.0e-3)),
                ("QG", FieldKind::Banded, (0.0, 1.0e-2)),
                ("QI", FieldKind::Banded, (0.0, 1.0e-3)),
                ("QR", FieldKind::Banded, (0.0, 1.1e-2)),
                ("QS", FieldKind::Banded, (0.0, 5.0e-3)),
                ("QV", FieldKind::Smooth, (0.0, 2.0e-2)),
            ],
            AppDataset::Miranda => &[
                ("density", FieldKind::Turbulent, (0.98, 3.1)),
                ("diffusivity", FieldKind::Turbulent, (0.0, 1.2e-2)),
                ("pressure", FieldKind::Smooth, (0.8, 3.5)),
                ("velocityx", FieldKind::TurbulentVelocity, (-0.4, 0.4)),
                ("velocityy", FieldKind::TurbulentVelocity, (-0.3, 0.3)),
                ("velocityz", FieldKind::TurbulentVelocity, (-0.3, 0.3)),
                ("viscocity", FieldKind::Turbulent, (0.0, 2.0e-2)),
            ],
            AppDataset::CesmAtm => &[
                ("CLDHGH", FieldKind::Banded, (0.0, 1.0)),
                ("CLDLOW", FieldKind::Plume, (0.0, 1.0)),
                ("LHFLX", FieldKind::Turbulent, (-40.0, 500.0)),
                ("PS", FieldKind::Smooth, (51000.0, 103000.0)),
                ("TS", FieldKind::Smooth, (215.0, 315.0)),
            ],
        }
    }

    /// Number of fields (13 / 6 / 6 / 7 as in §IV-A).
    pub fn field_count(self) -> usize {
        self.roster().len()
    }

    /// Name of field `index` (panics if out of range).
    pub fn field_name(self, index: usize) -> &'static str {
        self.roster()[index].0
    }

    /// Deterministic per-(dataset, field, seed) generation seed.
    fn field_seed(self, index: usize, opts: &GenOptions) -> u64 {
        let tag = match self {
            AppDataset::Hurricane => 0x4855_5252u64,
            AppDataset::Nyx => 0x4E59_5800,
            AppDataset::ScaleLetkf => 0x5343_414C,
            AppDataset::Miranda => 0x4D49_5241,
            AppDataset::CesmAtm => 0x4345_534D,
        };
        SplitMix64::mix(tag ^ (index as u64) << 32 ^ opts.seed)
    }

    /// Generate field `index` (panics if out of range; see
    /// [`AppDataset::field_count`]).
    pub fn generate_field(self, index: usize, opts: &GenOptions) -> Field {
        let (name, kind, range) = self.roster()[index];
        let data = synthesize(kind, self.field_seed(index, opts), self.shape(opts), range);
        Field { name, data }
    }

    /// Generate a correlated time series of field `index` (4D tensor,
    /// `steps` snapshots along w). Hurricane ISABEL, for instance, is a
    /// 48-step time series in SDRBench; adjacent steps are strongly
    /// correlated, distant ones decorrelate.
    pub fn generate_timeseries(self, index: usize, steps: usize, opts: &GenOptions) -> Field {
        assert!(steps >= 1);
        let (name, kind, range) = self.roster()[index];
        let s3 = self.shape(opts);
        let shape =
            Shape::new(&[s3.nx(), s3.ny(), s3.nz(), steps]).expect("catalog shapes are valid");
        let data =
            synthesize_evolving(kind, self.field_seed(index, opts), shape, range, Some(0.04));
        Field { name, data }
    }
}

/// Lazily enumerate `(dataset, field_index, field_name)` across a set of
/// datasets, in roster order — the catalog axis of a batch-assessment
/// campaign. Nothing is generated until the caller asks for the data.
pub fn catalog_fields(
    datasets: &[AppDataset],
) -> impl Iterator<Item = (AppDataset, usize, &'static str)> + '_ {
    datasets
        .iter()
        .flat_map(|&ds| (0..ds.field_count()).map(move |i| (ds, i, ds.field_name(i))))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_shapes_and_field_counts() {
        assert_eq!(
            AppDataset::Hurricane.full_shape().dims(),
            [500, 500, 100, 1]
        );
        assert_eq!(AppDataset::Nyx.full_shape().dims(), [512, 512, 512, 1]);
        assert_eq!(
            AppDataset::ScaleLetkf.full_shape().dims(),
            [1200, 1200, 98, 1]
        );
        assert_eq!(AppDataset::Miranda.full_shape().dims(), [384, 384, 256, 1]);
        assert_eq!(AppDataset::Hurricane.field_count(), 13);
        assert_eq!(AppDataset::Nyx.field_count(), 6);
        assert_eq!(AppDataset::ScaleLetkf.field_count(), 6);
        assert_eq!(AppDataset::Miranda.field_count(), 7);
    }

    #[test]
    fn generation_is_deterministic_per_field() {
        let opts = GenOptions::scaled(32);
        let a = AppDataset::Nyx.generate_field(0, &opts);
        let b = AppDataset::Nyx.generate_field(0, &opts);
        assert_eq!(a.data.as_slice(), b.data.as_slice());
    }

    #[test]
    fn different_fields_differ() {
        let opts = GenOptions::scaled(32);
        let a = AppDataset::Hurricane.generate_field(0, &opts);
        let b = AppDataset::Hurricane.generate_field(1, &opts);
        assert_ne!(a.data.as_slice(), b.data.as_slice());
        assert_ne!(a.name, b.name);
    }

    #[test]
    fn seed_option_changes_instance() {
        let a = AppDataset::Miranda.generate_field(0, &GenOptions::scaled(32));
        let b = AppDataset::Miranda.generate_field(0, &GenOptions::scaled(32).with_seed(9));
        assert_ne!(a.data.as_slice(), b.data.as_slice());
    }

    #[test]
    fn scaled_shapes_divide_extents() {
        let s = AppDataset::ScaleLetkf.shape(&GenOptions::scaled(8));
        assert_eq!(s.dims(), [150, 150, 12, 1]);
    }

    #[test]
    fn timeseries_steps_are_correlated_but_evolving() {
        let f = AppDataset::Hurricane.generate_timeseries(9, 6, &GenOptions::scaled(16));
        let s = f.data.shape();
        assert_eq!(s.nw(), 6);
        let slab3 = s.nx() * s.ny() * s.nz();
        let step = |t: usize| &f.data.as_slice()[t * slab3..(t + 1) * slab3];
        let pearson = |a: &[f32], b: &[f32]| {
            let n = a.len() as f64;
            let (ma, mb) = (
                a.iter().map(|&v| v as f64).sum::<f64>() / n,
                b.iter().map(|&v| v as f64).sum::<f64>() / n,
            );
            let mut cov = 0.0;
            let mut va = 0.0;
            let mut vb = 0.0;
            for (&x, &y) in a.iter().zip(b.iter()) {
                cov += (x as f64 - ma) * (y as f64 - mb);
                va += (x as f64 - ma).powi(2);
                vb += (y as f64 - mb).powi(2);
            }
            cov / (va.sqrt() * vb.sqrt()).max(1e-30)
        };
        let near = pearson(step(0), step(1));
        let far = pearson(step(0), step(5));
        assert!(near > 0.8, "adjacent steps should correlate: {near}");
        assert!(far < near, "correlation must decay: {far} !< {near}");
        // Steps genuinely differ.
        assert_ne!(step(0), step(1));
    }

    #[test]
    fn cesm_is_2d_with_expected_roster() {
        let s = AppDataset::CesmAtm.full_shape();
        assert_eq!(s.ndim(), 2);
        assert_eq!(s.dims(), [3600, 1800, 1, 1]);
        assert_eq!(AppDataset::CesmAtm.field_count(), 5);
        let f = AppDataset::CesmAtm.generate_field(4, &GenOptions::scaled(32));
        assert!(!f.data.has_non_finite());
        let (mn, mx) = f.data.min_max().unwrap();
        assert!(
            mn >= 215.0 - 1.0 && mx <= 315.0 + 1.0,
            "TS range [{mn},{mx}]"
        );
    }

    #[test]
    fn all_fields_finite_at_small_scale() {
        let opts = GenOptions::scaled(48);
        for ds in AppDataset::ALL_EXTENDED {
            for i in 0..ds.field_count() {
                let f = ds.generate_field(i, &opts);
                assert!(!f.data.has_non_finite(), "{} {}", ds.name(), f.name);
            }
        }
    }
}
