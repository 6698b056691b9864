//! Property-based tests for the tensor substrate, driven by a deterministic
//! inline RNG (no external property-testing dependency; the build is
//! offline-only). Every test sweeps a fixed number of random cases from a
//! fixed seed, so failures reproduce exactly.

use zc_tensor::{Shape, Tensor, WindowSpec, Windows};

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

    /// Uniform in `[lo, hi)`.
    fn usize(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo) as u64) as usize
    }

    /// Uniform in `[lo, hi)`.
    fn f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next() >> 11) as f64 / (1u64 << 53) as f64)
    }

    /// A random 1–4D shape (same distribution shape as the old strategies).
    fn shape(&mut self) -> Shape {
        match self.next() % 4 {
            0 => Shape::d1(self.usize(1, 500)),
            1 => Shape::d2(self.usize(1, 40), self.usize(1, 40)),
            2 => Shape::d3(self.usize(1, 20), self.usize(1, 20), self.usize(1, 20)),
            _ => Shape::d4(
                self.usize(1, 10),
                self.usize(1, 10),
                self.usize(1, 10),
                self.usize(1, 6),
            ),
        }
    }
}

#[test]
fn linear_unlinear_roundtrip() {
    let mut rng = Rng(0x7e4507);
    for case in 0..256 {
        let shape = rng.shape();
        let frac = rng.f64(0.0, 1.0);
        let lin = ((shape.len() - 1) as f64 * frac) as usize;
        let idx = shape.unlinear(lin);
        assert_eq!(shape.linear(idx), lin, "case {case}");
        assert!(shape.contains(idx), "case {case}");
    }
}

#[test]
fn coords_visit_each_linear_offset_once() {
    let mut rng = Rng(0xc002d5);
    let mut done = 0;
    while done < 64 {
        let shape = rng.shape();
        if shape.len() > 4096 {
            continue;
        }
        done += 1;
        let mut seen = vec![false; shape.len()];
        for c in shape.coords() {
            let lin = shape.linear(c);
            assert!(!seen[lin], "offset {lin} visited twice");
            seen[lin] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}

#[test]
fn from_fn_agrees_with_at() {
    let mut rng = Rng(0xf40f);
    let mut done = 0;
    while done < 64 {
        let shape = rng.shape();
        if shape.len() > 4096 {
            continue;
        }
        done += 1;
        let t = Tensor::from_fn(shape, |[x, y, z, w]| (x + 7 * y + 31 * z + 101 * w) as f32);
        for c in shape.coords() {
            assert_eq!(t.at(c), (c[0] + 7 * c[1] + 31 * c[2] + 101 * c[3]) as f32);
        }
    }
}

#[test]
fn windows_count_matches_closed_form() {
    let mut rng = Rng(0x31d0);
    for case in 0..256 {
        let (nx, ny, nz) = (rng.usize(1, 40), rng.usize(1, 40), rng.usize(1, 40));
        let size = rng.usize(1, 10);
        let step = rng.usize(1, 5);
        let shape = Shape::d3(nx, ny, nz);
        let spec = WindowSpec::new(size, step);
        let count = Windows::over(shape, spec).count();
        let pos = |n: usize| if n < size { 0 } else { (n - size) / step + 1 };
        assert_eq!(count, pos(nx) * pos(ny) * pos(nz), "case {case}");
    }
}

#[test]
fn windows_fit_inside_the_shape() {
    let mut rng = Rng(0xf17);
    for _ in 0..64 {
        let (nx, ny, nz) = (rng.usize(4, 30), rng.usize(4, 30), rng.usize(4, 30));
        let size = rng.usize(2, 8);
        let step = rng.usize(1, 4);
        let shape = Shape::d3(nx, ny, nz);
        for [ox, oy, oz] in Windows::over(shape, WindowSpec::new(size, step)) {
            assert!(ox + size <= nx && oy + size <= ny && oz + size <= nz);
            assert!(ox % step == 0 && oy % step == 0 && oz % step == 0);
        }
    }
}

#[test]
fn zip_map_is_elementwise() {
    let mut rng = Rng(0x217);
    let mut done = 0;
    while done < 64 {
        let shape = rng.shape();
        if shape.len() > 4096 {
            continue;
        }
        done += 1;
        let a = Tensor::from_fn(shape, |[x, ..]| x as f32);
        let b = Tensor::from_fn(shape, |[_, y, ..]| y as f32 * 2.0);
        let c = a.zip_map(&b, |u, v| u + v).unwrap();
        for coord in shape.coords() {
            assert_eq!(c.at(coord), coord[0] as f32 + coord[1] as f32 * 2.0);
        }
    }
}
