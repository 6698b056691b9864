//! Per-field synthesis routines.
//!
//! Each application field is described by a [`FieldKind`] — the qualitative
//! character the metric kernels are sensitive to (smoothness, dynamic range,
//! clustering, anisotropy) — plus a physical value range. The synthesis maps
//! normalized coordinates in `[0,1]³` through deterministic fBm-based
//! recipes.

use crate::noise::{FbmRows, NoiseSpec};
use crate::rng::SplitMix64;
use zc_tensor::{Shape, Tensor};

/// Qualitative character of a synthetic field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FieldKind {
    /// Large-scale smooth scalar (e.g. temperature, pressure): low-octave fBm
    /// over a vertical ramp.
    Smooth,
    /// Rotational wind component around a central eye (hurricane U/V):
    /// tangential vortex velocity modulated by fBm.
    Vortex,
    /// Sparse, highly peaked moisture species (QCLOUD/QRAIN/…): fBm
    /// thresholded and exponentiated, mostly ~0 with localized plumes.
    Plume,
    /// Log-normally clustered cosmology density (NYX baryon/dark-matter):
    /// `exp(k · fBm)` giving orders-of-magnitude dynamic range.
    LogClustered,
    /// Weakly clustered large-scale scalar (NYX temperature): softened
    /// variant of [`FieldKind::LogClustered`].
    LogSmooth,
    /// Banded precipitation cells (SCALE-LETKF rain species): anisotropic
    /// fBm stretched along one horizontal axis, soft-thresholded.
    Banded,
    /// Fully developed multiscale turbulence (Miranda): high-octave fBm.
    Turbulent,
    /// Turbulent velocity component: signed, zero-mean high-octave fBm.
    TurbulentVelocity,
}

impl FieldKind {
    /// Evaluate the unit-amplitude recipe at normalized coordinates.
    ///
    /// `seed` decorrelates fields; output is in approximately `[-1, 1]` for
    /// signed kinds and `[0, 1]` for non-negative kinds. One sample of
    /// [`FieldKind::rows`].
    pub fn eval(self, seed: u64, u: f64, v: f64, w: f64) -> f64 {
        let mut out = [0.0];
        self.rows(seed, &[u]).eval(v, w, &mut out);
        out[0]
    }

    /// The recipe along rows that share the `us` coordinates:
    /// [`FieldRows::eval`] at `(v, w)` sets `out[i] = self.eval(seed, us[i],
    /// v, w)`, bit for bit.
    pub fn rows(self, seed: u64, us: &[f64]) -> FieldRows<'_> {
        let (spec, stretch_u, stretch_w) = self.noise(seed);
        let xs: Vec<f64> = us.iter().map(|&u| u * stretch_u).collect();
        FieldRows {
            kind: self,
            us,
            noise: FbmRows::new(&spec, &xs),
            stretch_w,
        }
    }

    /// The recipe's fBm and the stretch it applies to the `u` and `w`
    /// coordinates before sampling it.
    fn noise(self, seed: u64) -> (NoiseSpec, f64, f64) {
        let (frequency, octaves, stretch_u, stretch_w) = match self {
            FieldKind::Smooth => (3.0, 3, 1.0, 1.0),
            FieldKind::Vortex => (6.0, 4, 1.0, 1.0),
            FieldKind::Plume => (5.0, 5, 1.0, 1.0),
            FieldKind::LogClustered => (4.0, 6, 1.0, 1.0),
            FieldKind::LogSmooth => (3.0, 4, 1.0, 1.0),
            // Stretch u 6x relative to v: rain bands aligned with v.
            FieldKind::Banded => (4.0, 4, 6.0, 2.0),
            FieldKind::Turbulent | FieldKind::TurbulentVelocity => (4.0, 7, 1.0, 1.0),
        };
        (
            NoiseSpec::new(seed, frequency, octaves),
            stretch_u,
            stretch_w,
        )
    }

    /// Shape the recipe's noise value `n` at `(u, v, w)` into its output.
    fn shape(self, n: f64, u: f64, v: f64, w: f64) -> f64 {
        match self {
            FieldKind::Smooth => {
                // Vertical stratification + gentle horizontal variability,
                // kept in [0, 1] for the unsigned range mapping.
                (1.0 - w) * 0.7 + 0.15 * (n + 1.0)
            }
            FieldKind::Vortex => {
                // Tangential velocity of a Rankine-like vortex centred midway.
                let dx = u - 0.5;
                let dy = v - 0.5;
                let r = (dx * dx + dy * dy).sqrt().max(1e-6);
                let rc = 0.08; // eye-wall radius
                let vt = if r < rc { r / rc } else { rc / r };
                let theta_component = dx / r; // one cartesian component
                vt * theta_component * (1.0 + 0.25 * n)
            }
            FieldKind::Plume => {
                // Threshold: only the top of the noise survives; sharpen.
                let t = ((n - 0.25) / 0.75).max(0.0);
                t * t
            }
            // ~4 decades of dynamic range, like baryon density.
            FieldKind::LogClustered => (4.0 * n).exp() / 4.0f64.exp(),
            FieldKind::LogSmooth => (1.5 * n).exp() / 1.5f64.exp(),
            FieldKind::Banded => {
                let t = ((n + 0.1) / 1.1).max(0.0);
                t * t
            }
            FieldKind::Turbulent => 0.5 + 0.5 * n,
            FieldKind::TurbulentVelocity => n,
        }
    }

    /// Whether the recipe produces signed values.
    pub fn signed(self) -> bool {
        matches!(self, FieldKind::Vortex | FieldKind::TurbulentVelocity)
    }
}

/// A [`FieldKind`] recipe set up for rows that share their `u`
/// coordinates (see [`FieldKind::rows`]).
#[derive(Clone, Debug)]
pub struct FieldRows<'a> {
    kind: FieldKind,
    us: &'a [f64],
    noise: FbmRows,
    stretch_w: f64,
}

impl FieldRows<'_> {
    /// Evaluate the row at `(v, w)` into `out`, one value per `u`.
    pub fn eval(&self, v: f64, w: f64, out: &mut [f64]) {
        self.noise.eval(v, w * self.stretch_w, out);
        for (n, &u) in out.iter_mut().zip(self.us) {
            *n = self.kind.shape(*n, u, v, w);
        }
    }
}

/// Synthesize a field tensor.
///
/// `range = (lo, hi)` maps the recipe's unit output onto physical values;
/// for signed kinds `-1 → lo`, `+1 → hi`, for non-negative kinds `0 → lo`,
/// `1 → hi`. Fully deterministic from `seed`. For 4D shapes the hyper-slabs
/// are decorrelated (independent ensemble members).
pub fn synthesize(kind: FieldKind, seed: u64, shape: Shape, range: (f64, f64)) -> Tensor<f32> {
    synthesize_evolving(kind, seed, shape, range, None)
}

/// Synthesize with optional temporal evolution: when `drift = Some(d)`,
/// the 4th dimension is *time* and step `t` samples the same noise domain
/// advected by `t·d` in normalized coordinates — adjacent steps are highly
/// correlated, distant steps decorrelate, like consecutive simulation
/// snapshots. With `None`, hyper-slabs use independent seeds.
pub fn synthesize_evolving(
    kind: FieldKind,
    seed: u64,
    shape: Shape,
    range: (f64, f64),
    drift: Option<f64>,
) -> Tensor<f32> {
    let [nx, ny, nz, _] = shape.dims();
    let (lo, hi) = range;
    let inv = |n: usize| 1.0 / n.max(2).saturating_sub(1).max(1) as f64;
    let (ix, iy, iz) = (inv(nx), inv(ny), inv(nz));
    let mut data = vec![0f32; shape.len()];
    let slab = shape.slab_len();

    // One contiguous (x, y) slab per parallel task.
    zc_par::par_chunks_mut(&mut data, slab, |zi, chunk| {
        let z = zi % nz;
        let w4 = zi / nz; // hyper-slab index for 4D fields
        let (wseed, t_off) = match drift {
            Some(d) => (seed, w4 as f64 * d),
            None => (seed ^ SplitMix64::mix(w4 as u64 + 1), 0.0),
        };
        let wz = z as f64 * iz;
        let us: Vec<f64> = (0..nx).map(|x| x as f64 * ix + t_off).collect();
        let rows = kind.rows(wseed, &us);
        let mut units = vec![0f64; nx];
        for (y, row) in chunk.chunks_exact_mut(nx).enumerate() {
            let vy = y as f64 * iy;
            rows.eval(vy, wz, &mut units);
            for (dst, &unit) in row.iter_mut().zip(&units) {
                let t = if kind.signed() {
                    (unit + 1.0) * 0.5
                } else {
                    unit
                };
                *dst = (lo + (hi - lo) * t) as f32;
            }
        }
    });
    Tensor::from_vec(shape, data).expect("buffer sized from shape")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthesis_is_deterministic() {
        let s = Shape::d3(16, 16, 8);
        let a = synthesize(FieldKind::Turbulent, 7, s, (0.0, 10.0));
        let b = synthesize(FieldKind::Turbulent, 7, s, (0.0, 10.0));
        assert_eq!(a.as_slice(), b.as_slice());
        let c = synthesize(FieldKind::Turbulent, 8, s, (0.0, 10.0));
        assert_ne!(a.as_slice(), c.as_slice());
    }

    #[test]
    fn values_respect_range() {
        let s = Shape::d3(12, 12, 12);
        for kind in [
            FieldKind::Smooth,
            FieldKind::Vortex,
            FieldKind::Plume,
            FieldKind::LogClustered,
            FieldKind::Banded,
            FieldKind::Turbulent,
            FieldKind::TurbulentVelocity,
        ] {
            let t = synthesize(kind, 3, s, (-50.0, 50.0));
            assert!(!t.has_non_finite(), "{kind:?}");
            let (mn, mx) = t.min_max().unwrap();
            assert!(
                mn >= -50.0 - 1e-3 && mx <= 50.0 + 1e-3,
                "{kind:?}: [{mn},{mx}]"
            );
        }
    }

    #[test]
    fn plume_fields_are_sparse() {
        let s = Shape::d3(24, 24, 24);
        let t = synthesize(FieldKind::Plume, 2, s, (0.0, 1.0));
        let zeroish = t.iter().filter(|&&v| v < 0.01).count();
        assert!(
            zeroish * 2 > t.len(),
            "plume should be mostly near-zero, got {zeroish}/{}",
            t.len()
        );
    }

    #[test]
    fn log_clustered_has_large_dynamic_range() {
        let s = Shape::d3(32, 32, 16);
        let t = synthesize(FieldKind::LogClustered, 5, s, (0.0, 1.0));
        let (mn, mx) = t.min_max().unwrap();
        assert!(
            mx / mn.max(1e-12) > 1e2,
            "dynamic range too small: {mn}..{mx}"
        );
    }

    #[test]
    fn vortex_velocity_is_signed_and_zeroish_mean() {
        let s = Shape::d3(32, 32, 4);
        let t = synthesize(FieldKind::Vortex, 6, s, (-30.0, 30.0));
        let mean: f64 = t.iter().map(|&v| v as f64).sum::<f64>() / t.len() as f64;
        let (mn, mx) = t.min_max().unwrap();
        assert!(mn < 0.0 && mx > 0.0);
        assert!(mean.abs() < 6.0, "mean {mean}");
    }
}
