//! Spectral synthesis: a from-scratch radix-2 FFT and Gaussian random
//! fields with power-law spectra.
//!
//! fBm value noise (the default generator) is cheap but has no controlled
//! power spectrum. Cosmology and turbulence fields are conventionally
//! synthesized as **Gaussian random fields** (GRFs) with a prescribed
//! `P(k) ∝ k^α` spectrum (α ≈ −5/3·... for Kolmogorov turbulence energy
//! spectra, α ≈ −1…−3 for large-scale structure). This module provides
//! that alternative generator for users who need spectrum-exact inputs —
//! e.g. to study how compression errors distribute across scales.

use crate::rng::Rng64;
use zc_tensor::{Shape, Tensor};

/// One complex value (re, im).
pub type Complex = (f64, f64);

#[inline]
fn c_add(a: Complex, b: Complex) -> Complex {
    (a.0 + b.0, a.1 + b.1)
}

#[inline]
fn c_sub(a: Complex, b: Complex) -> Complex {
    (a.0 - b.0, a.1 - b.1)
}

#[inline]
fn c_mul(a: Complex, b: Complex) -> Complex {
    (a.0 * b.0 - a.1 * b.1, a.0 * b.1 + a.1 * b.0)
}

/// In-place iterative radix-2 Cooley–Tukey FFT.
///
/// `data.len()` must be a power of two. `inverse` applies the conjugate
/// transform and the 1/N normalization.
pub fn fft_1d(data: &mut [Complex], inverse: bool) {
    let n = data.len();
    assert!(
        n.is_power_of_two(),
        "fft length must be a power of two, got {n}"
    );
    if n <= 1 {
        return;
    }
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i.reverse_bits() >> (usize::BITS - bits)) & (n - 1);
        if i < j {
            data.swap(i, j);
        }
    }
    // Butterflies.
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * std::f64::consts::TAU / len as f64;
        let wlen = (ang.cos(), ang.sin());
        for start in (0..n).step_by(len) {
            let mut w = (1.0, 0.0);
            for k in 0..len / 2 {
                let u = data[start + k];
                let v = c_mul(data[start + k + len / 2], w);
                data[start + k] = c_add(u, v);
                data[start + k + len / 2] = c_sub(u, v);
                w = c_mul(w, wlen);
            }
        }
        len <<= 1;
    }
    if inverse {
        let inv = 1.0 / n as f64;
        for v in data.iter_mut() {
            v.0 *= inv;
            v.1 *= inv;
        }
    }
}

/// 3D FFT over a `nx × ny × nz` complex grid (all power-of-two extents),
/// applied separably along each axis.
pub fn fft_3d(data: &mut [Complex], nx: usize, ny: usize, nz: usize, inverse: bool) {
    assert_eq!(data.len(), nx * ny * nz);
    let idx = |x: usize, y: usize, z: usize| x + nx * (y + ny * z);
    let mut scratch = vec![(0.0, 0.0); nx.max(ny).max(nz)];
    // x axis (contiguous).
    for z in 0..nz {
        for y in 0..ny {
            let base = idx(0, y, z);
            fft_1d(&mut data[base..base + nx], inverse);
        }
    }
    // y axis.
    for z in 0..nz {
        for x in 0..nx {
            for y in 0..ny {
                scratch[y] = data[idx(x, y, z)];
            }
            fft_1d(&mut scratch[..ny], inverse);
            for y in 0..ny {
                data[idx(x, y, z)] = scratch[y];
            }
        }
    }
    // z axis.
    for y in 0..ny {
        for x in 0..nx {
            for z in 0..nz {
                scratch[z] = data[idx(x, y, z)];
            }
            fft_1d(&mut scratch[..nz], inverse);
            for z in 0..nz {
                data[idx(x, y, z)] = scratch[z];
            }
        }
    }
}

/// Specification of a power-law Gaussian random field.
#[derive(Clone, Copy, Debug)]
pub struct GrfSpec {
    /// Stream seed.
    pub seed: u64,
    /// Spectral index α in `P(k) ∝ k^α` (e.g. −11/3 for Kolmogorov
    /// velocity fields, −2 for cosmological-ish density).
    pub alpha: f64,
    /// Low-k cutoff (modes with |k| < cutoff get zero power; kills the
    /// mean drift). In grid-frequency units.
    pub k_min: f64,
}

/// Synthesize a real Gaussian random field with spectrum `P(k) ∝ k^α`.
///
/// Works on the smallest power-of-two bounding grid and crops to `shape`;
/// output is normalized to zero mean and unit variance (then scale/offset
/// as needed). Deterministic in `spec.seed`.
pub fn gaussian_random_field(spec: &GrfSpec, shape: Shape) -> Tensor<f32> {
    let (nx, ny, nz) = (
        shape.nx().next_power_of_two().max(2),
        shape.ny().next_power_of_two().max(2),
        shape.nz().next_power_of_two().max(2),
    );
    let mut rng = Rng64::new(spec.seed);
    let mut grid = vec![(0.0f64, 0.0f64); nx * ny * nz];
    let kfreq = |i: usize, n: usize| -> f64 {
        // Signed grid frequency: 0, 1, ..., n/2, -(n/2-1), ..., -1.
        let k = if i <= n / 2 {
            i as isize
        } else {
            i as isize - n as isize
        };
        k as f64
    };
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let (kx, ky, kz) = (kfreq(x, nx), kfreq(y, ny), kfreq(z, nz));
                let k = (kx * kx + ky * ky + kz * kz).sqrt();
                let amp = if k < spec.k_min {
                    0.0
                } else {
                    k.powf(spec.alpha / 2.0)
                };
                // Complex Gaussian mode. Hermitian symmetry is not imposed
                // explicitly; taking the real part of the inverse transform
                // is equivalent for a field with independent modes.
                grid[x + nx * (y + ny * z)] = (rng.normal() * amp, rng.normal() * amp);
            }
        }
    }
    fft_3d(&mut grid, nx, ny, nz, true);
    // Crop + normalize the real part.
    let mut vals = Vec::with_capacity(shape.len());
    let [sx, sy, sz, sw] = shape.dims();
    for _w in 0..sw {
        for z in 0..sz {
            for y in 0..sy {
                for x in 0..sx {
                    vals.push(grid[x + nx * (y + ny * z)].0);
                }
            }
        }
    }
    let n = vals.len() as f64;
    let mean = vals.iter().sum::<f64>() / n;
    let var = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    let sd = var.sqrt().max(1e-30);
    let data: Vec<f32> = vals.iter().map(|v| ((v - mean) / sd) as f32).collect();
    Tensor::from_vec(shape, data).expect("sized from shape")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rand_signal(n: usize, seed: u64) -> Vec<Complex> {
        let mut rng = Rng64::new(seed);
        (0..n).map(|_| (rng.normal(), rng.normal())).collect()
    }

    #[test]
    fn fft_roundtrip_recovers_signal() {
        for n in [2usize, 8, 64, 256] {
            let orig = rand_signal(n, 42);
            let mut data = orig.clone();
            fft_1d(&mut data, false);
            fft_1d(&mut data, true);
            for (a, b) in orig.iter().zip(data.iter()) {
                assert!(
                    (a.0 - b.0).abs() < 1e-9 && (a.1 - b.1).abs() < 1e-9,
                    "n={n}"
                );
            }
        }
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut data = vec![(0.0, 0.0); 16];
        data[0] = (1.0, 0.0);
        fft_1d(&mut data, false);
        for v in &data {
            assert!((v.0 - 1.0).abs() < 1e-12 && v.1.abs() < 1e-12);
        }
    }

    #[test]
    fn fft_matches_dft_definition() {
        let orig = rand_signal(8, 7);
        let mut fast = orig.clone();
        fft_1d(&mut fast, false);
        for (k, f) in fast.iter().enumerate() {
            let mut acc = (0.0, 0.0);
            for (j, &v) in orig.iter().enumerate() {
                let ang = -std::f64::consts::TAU * (k * j) as f64 / 8.0;
                acc = c_add(acc, c_mul(v, (ang.cos(), ang.sin())));
            }
            assert!(
                (acc.0 - f.0).abs() < 1e-9 && (acc.1 - f.1).abs() < 1e-9,
                "bin {k}"
            );
        }
    }

    #[test]
    fn parseval_holds() {
        let orig = rand_signal(128, 3);
        let time_energy: f64 = orig.iter().map(|v| v.0 * v.0 + v.1 * v.1).sum();
        let mut freq = orig.clone();
        fft_1d(&mut freq, false);
        let freq_energy: f64 = freq.iter().map(|v| v.0 * v.0 + v.1 * v.1).sum::<f64>() / 128.0;
        assert!((time_energy - freq_energy).abs() < 1e-9 * time_energy);
    }

    #[test]
    fn fft_3d_roundtrip() {
        let orig = rand_signal(4 * 8 * 2, 11);
        let mut data = orig.clone();
        fft_3d(&mut data, 4, 8, 2, false);
        fft_3d(&mut data, 4, 8, 2, true);
        for (a, b) in orig.iter().zip(data.iter()) {
            assert!((a.0 - b.0).abs() < 1e-9);
        }
    }

    #[test]
    fn grf_is_deterministic_normalized_and_finite() {
        let shape = zc_tensor::Shape::d3(20, 20, 12);
        let spec = GrfSpec {
            seed: 5,
            alpha: -11.0 / 3.0,
            k_min: 1.0,
        };
        let a = gaussian_random_field(&spec, shape);
        let b = gaussian_random_field(&spec, shape);
        assert_eq!(a.as_slice(), b.as_slice());
        assert!(!a.has_non_finite());
        let n = a.len() as f64;
        let mean: f64 = a.iter().map(|&v| v as f64).sum::<f64>() / n;
        let var: f64 = a.iter().map(|&v| (v as f64 - mean).powi(2)).sum::<f64>() / n;
        assert!(mean.abs() < 1e-6);
        assert!((var - 1.0).abs() < 1e-6);
    }

    #[test]
    fn steeper_spectra_are_smoother() {
        // Total variation (lag-1 differences) falls as α decreases.
        let shape = zc_tensor::Shape::d3(32, 32, 16);
        let tv = |alpha: f64| {
            let t = gaussian_random_field(
                &GrfSpec {
                    seed: 9,
                    alpha,
                    k_min: 1.0,
                },
                shape,
            );
            let mut acc = 0.0f64;
            for z in 0..16 {
                for y in 0..32 {
                    for x in 0..31 {
                        acc += (t.at3(x + 1, y, z) - t.at3(x, y, z)).abs() as f64;
                    }
                }
            }
            acc
        };
        let rough = tv(-1.0);
        let smooth = tv(-4.0);
        assert!(smooth < rough * 0.6, "smooth {smooth} vs rough {rough}");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_fft_panics() {
        let mut data = vec![(0.0, 0.0); 12];
        fft_1d(&mut data, false);
    }
}
