//! Property-based tests for the dataset substrate, driven by a
//! deterministic inline RNG (no external property-testing dependency).

use zc_data::{fbm3, value_noise3, AppDataset, FbmRows, FieldKind, GenOptions, NoiseSpec, Rng64};

/// Deterministic splitmix64 case generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn usize(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo) as u64) as usize
    }

    fn f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next() >> 11) as f64 / (1u64 << 53) as f64)
    }
}

#[test]
fn rng_streams_are_deterministic_and_uniform() {
    let mut rng = Rng(0xd57e);
    for case in 0..64 {
        let seed = rng.next();
        let mut a = Rng64::new(seed);
        let mut b = Rng64::new(seed);
        let mut lo = 0usize;
        for _ in 0..256 {
            let u = a.uniform();
            assert_eq!(u, b.uniform(), "case {case}");
            assert!((0.0..1.0).contains(&u), "case {case}");
            if u < 0.5 {
                lo += 1;
            }
        }
        // Crude uniformity: the halves are not wildly unbalanced.
        assert!((64..=192).contains(&lo), "case {case}: lo = {lo}");
    }
}

#[test]
fn fbm_is_bounded_everywhere() {
    let mut rng = Rng(0xfb3);
    for case in 0..256 {
        let seed = rng.next();
        let freq = rng.f64(0.01, 10.0);
        let oct = rng.usize(1, 8) as u32;
        let x = rng.f64(-100.0, 100.0);
        let y = rng.f64(-100.0, 100.0);
        let z = rng.f64(-100.0, 100.0);
        let v = fbm3(&NoiseSpec::new(seed, freq, oct), x, y, z);
        assert!((-1.0..=1.0).contains(&v), "case {case}: fbm = {v}");
        // Deterministic.
        assert_eq!(
            v,
            fbm3(&NoiseSpec::new(seed, freq, oct), x, y, z),
            "case {case}"
        );
    }
}

#[test]
fn generated_fields_are_finite_and_in_catalog_shape() {
    let mut rng = Rng(0x6f1e1d);
    for case in 0..16 {
        let seed = rng.next();
        let ds = AppDataset::ALL[rng.usize(0, 4)];
        let field_idx = ((ds.field_count() - 1) as f64 * rng.f64(0.0, 1.0)) as usize;
        let opts = GenOptions::scaled(32).with_seed(seed);
        let f = ds.generate_field(field_idx, &opts);
        assert_eq!(f.data.shape(), ds.shape(&opts), "case {case}");
        assert!(!f.data.has_non_finite(), "case {case}");
        // Fields have nonzero content (not all equal).
        let (mn, mx) = f.data.min_max().unwrap();
        assert!(mx > mn, "case {case}: degenerate field {}", f.name);
    }
}

#[test]
fn seeds_decorrelate_instances() {
    let mut rng = Rng(0x5eed);
    for case in 0..8 {
        let seed = rng.next().max(1);
        let a = AppDataset::Nyx
            .generate_field(0, &GenOptions::scaled(64))
            .data;
        let b = AppDataset::Nyx
            .generate_field(0, &GenOptions::scaled(64).with_seed(seed))
            .data;
        assert_ne!(a.as_slice(), b.as_slice(), "case {case}");
    }
}

/// The scalar fBm the row evaluator replaced, kept verbatim as the
/// reference the row form must match bit for bit.
mod scalar {
    use zc_data::{NoiseSpec, SplitMix64};

    fn lattice(seed: u64, ix: i64, iy: i64, iz: i64) -> f64 {
        let h = SplitMix64::mix(
            seed ^ (ix as u64).wrapping_mul(0x8DA6_B343)
                ^ (iy as u64).wrapping_mul(0xD816_3841)
                ^ (iz as u64).wrapping_mul(0xCB1A_B31F),
        );
        ((h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)) * 2.0 - 1.0
    }

    fn smooth(t: f64) -> f64 {
        t * t * t * (t * (t * 6.0 - 15.0) + 10.0)
    }

    fn lerp(a: f64, b: f64, t: f64) -> f64 {
        a + (b - a) * t
    }

    pub fn value_noise3(seed: u64, x: f64, y: f64, z: f64) -> f64 {
        let xf = x.floor();
        let yf = y.floor();
        let zf = z.floor();
        let (ix, iy, iz) = (xf as i64, yf as i64, zf as i64);
        let (tx, ty, tz) = (smooth(x - xf), smooth(y - yf), smooth(z - zf));
        let c = |dx: i64, dy: i64, dz: i64| lattice(seed, ix + dx, iy + dy, iz + dz);
        let x00 = lerp(c(0, 0, 0), c(1, 0, 0), tx);
        let x10 = lerp(c(0, 1, 0), c(1, 1, 0), tx);
        let x01 = lerp(c(0, 0, 1), c(1, 0, 1), tx);
        let x11 = lerp(c(0, 1, 1), c(1, 1, 1), tx);
        let y0 = lerp(x00, x10, ty);
        let y1 = lerp(x01, x11, ty);
        lerp(y0, y1, tz)
    }

    pub fn fbm3(spec: &NoiseSpec, x: f64, y: f64, z: f64) -> f64 {
        let mut freq = spec.frequency;
        let mut amp = 1.0;
        let mut sum = 0.0;
        let mut norm = 0.0;
        for o in 0..spec.octaves {
            let s = spec.seed.wrapping_add(0x9E37 * o as u64 + 1);
            sum += amp * value_noise3(s, x * freq, y * freq, z * freq);
            norm += amp;
            freq *= spec.lacunarity;
            amp *= spec.gain;
        }
        if norm > 0.0 {
            sum / norm
        } else {
            0.0
        }
    }
}

/// A row of x coordinates the way synthesis lays them out (`x·step +
/// drift`), or scattered in random order to exercise every cell change.
fn x_row(rng: &mut Rng, n: usize, lo: f64, hi: f64) -> Vec<f64> {
    if rng.next().is_multiple_of(3) {
        (0..n).map(|_| rng.f64(lo, hi)).collect()
    } else {
        let step = (hi - lo) / n.max(2) as f64 * rng.f64(0.05, 3.0);
        let drift = rng.usize(0, 48) as f64 * 0.04;
        (0..n).map(|i| lo + i as f64 * step + drift).collect()
    }
}

#[test]
fn row_fbm_matches_the_scalar_reference_bit_for_bit() {
    let mut rng = Rng(0xf0b3);
    for case in 0..400 {
        let mut spec = NoiseSpec::new(rng.next(), rng.f64(0.01, 12.0), rng.usize(1, 9) as u32);
        if case % 4 == 3 {
            spec.lacunarity = rng.f64(1.1, 3.5);
            spec.gain = rng.f64(0.2, 0.9);
        }
        // Unit coordinates, negative ones, and large ones.
        let reach = [1.0, 100.0, 1.0e6][case % 3];
        let (lo, hi) = (rng.f64(-reach, 0.0), rng.f64(0.0, reach));
        let n = rng.usize(1, 80);
        let xs = x_row(&mut rng, n, lo, hi);
        // Several rows through one set-up, as synthesis evaluates them.
        let rows = FbmRows::new(&spec, &xs);
        let mut out = vec![f64::NAN; xs.len()];
        for row in 0..3 {
            let y = rng.f64(-reach, reach);
            let z = rng.f64(-reach, reach);
            rows.eval(y, z, &mut out);
            for (i, (&x, &got)) in xs.iter().zip(&out).enumerate() {
                let want = scalar::fbm3(&spec, x, y, z);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "case {case} row {row} sample {i}"
                );
                let one = fbm3(&spec, x, y, z);
                assert_eq!(one.to_bits(), want.to_bits(), "case {case}");
            }
        }
        let seed = rng.next();
        let (x, y, z) = (xs[0], rng.f64(-reach, reach), rng.f64(-reach, reach));
        let noise = value_noise3(seed, x, y, z);
        assert_eq!(
            noise.to_bits(),
            scalar::value_noise3(seed, x, y, z).to_bits()
        );
    }
}

#[test]
fn row_recipes_match_single_sample_evaluation() {
    const KINDS: [FieldKind; 8] = [
        FieldKind::Smooth,
        FieldKind::Vortex,
        FieldKind::Plume,
        FieldKind::LogClustered,
        FieldKind::LogSmooth,
        FieldKind::Banded,
        FieldKind::Turbulent,
        FieldKind::TurbulentVelocity,
    ];
    let mut rng = Rng(0x4ec1);
    for case in 0..128 {
        let kind = KINDS[case % KINDS.len()];
        let seed = rng.next();
        let n = rng.usize(1, 64);
        let us = x_row(&mut rng, n, -0.5, 1.5);
        let rows = kind.rows(seed, &us);
        let mut out = vec![f64::NAN; us.len()];
        for _ in 0..3 {
            let (v, w) = (rng.f64(-0.5, 1.5), rng.f64(-0.5, 1.5));
            rows.eval(v, w, &mut out);
            for (i, (&u, &got)) in us.iter().zip(&out).enumerate() {
                let want = kind.eval(seed, u, v, w);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "case {case} {kind:?} sample {i}"
                );
            }
        }
    }
}
