//! Lattice value noise and fractal Brownian motion (fBm) in 3D.
//!
//! All smooth structure in the synthetic datasets comes from fBm over hashed
//! lattice value noise: cheap (O(octaves · N)), fully deterministic from a
//! seed, and tunable from "large smooth blobs" (few octaves, low frequency —
//! hurricane moisture fields) to "fine-grained turbulence" (many octaves —
//! Miranda viscosity).

use crate::rng::SplitMix64;

/// Parameters of an fBm evaluation.
#[derive(Clone, Copy, Debug)]
pub struct NoiseSpec {
    /// Seed for the lattice hash.
    pub seed: u64,
    /// Base spatial frequency (cells per unit coordinate).
    pub frequency: f64,
    /// Number of octaves summed.
    pub octaves: u32,
    /// Frequency multiplier per octave (typically 2).
    pub lacunarity: f64,
    /// Amplitude multiplier per octave (typically 0.5).
    pub gain: f64,
}

impl NoiseSpec {
    /// Convenience constructor with lacunarity 2 and gain 0.5.
    pub fn new(seed: u64, frequency: f64, octaves: u32) -> Self {
        NoiseSpec {
            seed,
            frequency,
            octaves,
            lacunarity: 2.0,
            gain: 0.5,
        }
    }
}

/// Map a lattice hash input to a value in `[-1, 1]`.
#[inline]
fn lattice_value(key: u64) -> f64 {
    let h = SplitMix64::mix(key);
    // Top 53 bits → [0,1) → [-1,1].
    ((h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)) * 2.0 - 1.0
}

/// The x part of a lattice point's hash input. A point's input is
/// `seed ^ x part ^ y part ^ z part`, so the y and z parts of a row are
/// combined once and each sample adds only its x part.
#[inline]
fn x_part(ix: i64) -> u64 {
    (ix as u64).wrapping_mul(0x8DA6_B343)
}

/// Quintic smoothstep (C2-continuous interpolation weight).
#[inline]
fn smooth(t: f64) -> f64 {
    t * t * t * (t * (t * 6.0 - 15.0) + 10.0)
}

#[inline]
fn lerp(a: f64, b: f64, t: f64) -> f64 {
    a + (b - a) * t
}

/// One octave of value noise along an x-row: everything the samples of the
/// row share — the y/z cell's hash parts and interpolation weights.
struct NoiseRow {
    /// `seed ^ y part ^ z part` of the four (y, z) lattice corners, indexed
    /// `[dy][dz]`.
    keys: [[u64; 2]; 2],
    ty: f64,
    tz: f64,
}

/// The four lattice values of one x lattice plane of a row's cell,
/// indexed `[dy][dz]`.
type Plane = [[f64; 2]; 2];

impl NoiseRow {
    fn new(seed: u64, y: f64, z: f64) -> Self {
        let yf = y.floor();
        let zf = z.floor();
        let (iy, iz) = (yf as i64, zf as i64);
        let key = |dy: i64, dz: i64| {
            seed ^ ((iy + dy) as u64).wrapping_mul(0xD816_3841)
                ^ ((iz + dz) as u64).wrapping_mul(0xCB1A_B31F)
        };
        NoiseRow {
            keys: [[key(0, 0), key(0, 1)], [key(1, 0), key(1, 1)]],
            ty: smooth(y - yf),
            tz: smooth(z - zf),
        }
    }

    /// Lattice values of the x plane `ix`.
    fn plane(&self, ix: i64) -> Plane {
        let x = x_part(ix);
        self.keys.map(|k| k.map(|key| lattice_value(key ^ x)))
    }

    /// Trilinear blend of the cell between planes `p0` and `p1`: x first,
    /// then y, then z.
    #[inline]
    fn blend(&self, p0: &Plane, p1: &Plane, tx: f64) -> f64 {
        let x00 = lerp(p0[0][0], p1[0][0], tx);
        let x10 = lerp(p0[1][0], p1[1][0], tx);
        let x01 = lerp(p0[0][1], p1[0][1], tx);
        let x11 = lerp(p0[1][1], p1[1][1], tx);
        let y0 = lerp(x00, x10, self.ty);
        let y1 = lerp(x01, x11, self.ty);
        lerp(y0, y1, self.tz)
    }
}

/// Single-octave trilinear value noise at `(x, y, z)`, in `[-1, 1]`.
pub fn value_noise3(seed: u64, x: f64, y: f64, z: f64) -> f64 {
    let row = NoiseRow::new(seed, y, z);
    let xf = x.floor();
    let ix = xf as i64;
    row.blend(&row.plane(ix), &row.plane(ix + 1), smooth(x - xf))
}

/// Fractal Brownian motion: `octaves` of value noise summed with
/// progressively doubled frequency and halved amplitude, normalized back to
/// roughly `[-1, 1]`. One sample of [`FbmRows`].
pub fn fbm3(spec: &NoiseSpec, x: f64, y: f64, z: f64) -> f64 {
    let mut out = [0.0];
    FbmRows::new(spec, &[x]).eval(y, z, &mut out);
    out[0]
}

/// [`fbm3`] over x-rows that share their x coordinates: `eval(y, z, out)`
/// sets `out[i] = fbm3(spec, xs[i], y, z)`, bit for bit.
///
/// Each octave's x cells and smoothing weights are computed once, when the
/// rows are set up. Per row and octave, the y/z cell, its weights and its
/// lattice-hash parts are computed once, and a sample reuses the lattice
/// values of the previous sample's x cell (all eight while the cell is
/// unchanged, the shared face when it moves one cell on). Each sample's own
/// arithmetic runs in the same order as a lone [`fbm3`] call.
#[derive(Clone, Debug)]
pub struct FbmRows {
    /// Samples per row.
    len: usize,
    octaves: Vec<Octave>,
    /// Sum of the octave amplitudes.
    norm: f64,
}

/// One octave of [`FbmRows`]: its seed, frequency and amplitude, and the x
/// cell and smoothed x weight of every sample.
#[derive(Clone, Debug)]
struct Octave {
    seed: u64,
    freq: f64,
    amp: f64,
    cells: Vec<(i64, f64)>,
}

impl FbmRows {
    /// Set up `spec` for rows sampled at `xs`.
    pub fn new(spec: &NoiseSpec, xs: &[f64]) -> Self {
        let mut freq = spec.frequency;
        let mut amp = 1.0;
        let mut norm = 0.0;
        let mut octaves = Vec::with_capacity(spec.octaves as usize);
        for o in 0..spec.octaves {
            let cells = xs
                .iter()
                .map(|&x| {
                    let xo = x * freq;
                    let xf = xo.floor();
                    (xf as i64, smooth(xo - xf))
                })
                .collect();
            octaves.push(Octave {
                // Per-octave seed decorrelates octaves.
                seed: spec.seed.wrapping_add(0x9E37 * o as u64 + 1),
                freq,
                amp,
                cells,
            });
            norm += amp;
            freq *= spec.lacunarity;
            amp *= spec.gain;
        }
        FbmRows {
            len: xs.len(),
            octaves,
            norm,
        }
    }

    /// Evaluate the row at `(y, z)` into `out`, one value per x sample.
    pub fn eval(&self, y: f64, z: f64, out: &mut [f64]) {
        assert_eq!(out.len(), self.len, "one output per sample");
        out.fill(0.0);
        for oct in &self.octaves {
            let row = NoiseRow::new(oct.seed, y * oct.freq, z * oct.freq);
            // The current x cell and its two lattice planes.
            let mut cell: Option<(i64, Plane, Plane)> = None;
            for (&(ix, tx), sum) in oct.cells.iter().zip(out.iter_mut()) {
                let (p0, p1) = match cell {
                    Some((c, p0, p1)) if c == ix => (p0, p1),
                    Some((c, _, p1)) if c + 1 == ix => (p1, row.plane(ix + 1)),
                    _ => (row.plane(ix), row.plane(ix + 1)),
                };
                cell = Some((ix, p0, p1));
                *sum += oct.amp * row.blend(&p0, &p1, tx);
            }
        }
        for v in out.iter_mut() {
            *v = if self.norm > 0.0 { *v / self.norm } else { 0.0 };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noise_is_deterministic() {
        let a = value_noise3(1, 0.3, 7.2, -4.9);
        let b = value_noise3(1, 0.3, 7.2, -4.9);
        assert_eq!(a, b);
        assert_ne!(a, value_noise3(2, 0.3, 7.2, -4.9));
    }

    #[test]
    fn noise_in_range() {
        for i in 0..1000 {
            let t = i as f64 * 0.173;
            let v = value_noise3(9, t, t * 0.7, -t);
            assert!((-1.0..=1.0).contains(&v), "{v}");
        }
    }

    #[test]
    fn noise_interpolates_lattice_values() {
        // At integer coordinates the noise equals the lattice hash, which is
        // continuous under tiny perturbation.
        let v0 = value_noise3(3, 5.0, 5.0, 5.0);
        let v1 = value_noise3(3, 5.0 + 1e-9, 5.0, 5.0);
        assert!((v0 - v1).abs() < 1e-6);
    }

    #[test]
    fn fbm_in_range_and_smooth() {
        let spec = NoiseSpec::new(11, 0.05, 5);
        let mut prev = fbm3(&spec, 0.0, 0.0, 0.0);
        for i in 1..500 {
            let x = i as f64 * 0.25;
            let v = fbm3(&spec, x, 1.0, 2.0);
            assert!((-1.0..=1.0).contains(&v));
            // fBm at this frequency cannot jump by its full range over 0.25.
            assert!((v - prev).abs() < 0.8, "jump at {i}: {prev} -> {v}");
            prev = v;
        }
    }

    #[test]
    fn more_octaves_means_more_detail() {
        // Fine-step total variation should grow with octave count: the high
        // octaves add short-wavelength content that a single octave at the
        // base frequency cannot produce at this sampling distance.
        let rough = |oct| {
            let spec = NoiseSpec::new(5, 0.2, oct);
            let mut acc = 0.0;
            for i in 0..2000 {
                let x = i as f64 * 0.05;
                acc += (fbm3(&spec, x + 0.05, 3.0, 4.0) - fbm3(&spec, x, 3.0, 4.0)).abs();
            }
            acc
        };
        // Amplitude normalization damps the base octave in the 6-octave sum,
        // so the net fine-detail gain is moderate; 1.25x is the robust bound.
        assert!(
            rough(6) > rough(1) * 1.25,
            "rough(6)={}, rough(1)={}",
            rough(6),
            rough(1)
        );
    }
}
