//! Fixed-range histograms: error PDF, pwr-error PDF, value distribution
//! (→ entropy).

/// A fixed-bin histogram over `[lo, hi]` with clamping at the edges.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Histogram with `bins` equal-width bins over `[lo, hi]`.
    ///
    /// A degenerate range (`hi <= lo`) still works: everything lands in
    /// bin 0 (Z-checker's behaviour for constant fields).
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        Histogram {
            lo,
            hi,
            bins: vec![0; bins],
            total: 0,
        }
    }

    /// Number of bins.
    pub fn bin_count(&self) -> usize {
        self.bins.len()
    }

    /// Range covered.
    pub fn range(&self) -> (f64, f64) {
        (self.lo, self.hi)
    }

    /// Total inserted samples.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Raw bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.bins
    }

    /// Bin index for a value (clamped; NaN goes to bin 0).
    #[inline]
    pub fn bin_of(&self, v: f64) -> usize {
        let w = self.hi - self.lo;
        if w <= 0.0 || w.is_nan() || !v.is_finite() {
            return 0;
        }
        let t = (v - self.lo) / w;
        ((t * self.bins.len() as f64) as isize).clamp(0, self.bins.len() as isize - 1) as usize
    }

    /// Insert one sample.
    #[inline]
    pub fn insert(&mut self, v: f64) {
        let b = self.bin_of(v);
        self.bins[b] += 1;
        self.total += 1;
    }

    /// Insert a batch of samples.
    ///
    /// Bin selection evaluates the exact [`bin_of`](Self::bin_of) expression
    /// per element — identical IEEE operations, so the resulting counts are
    /// bit-identical to inserting one sample at a time — but the
    /// range-degeneracy test is hoisted out of the loop and indices are
    /// computed in branch-free chunks the compiler can vectorize; only the
    /// scattered increments stay scalar.
    pub fn insert_many(&mut self, vs: &[f64]) {
        let w = self.hi - self.lo;
        self.total += vs.len() as u64;
        if w <= 0.0 || w.is_nan() {
            self.bins[0] += vs.len() as u64;
            return;
        }
        let nb = self.bins.len() as isize;
        let scale = self.bins.len() as f64;
        let mut idx = [0usize; 64];
        for chunk in vs.chunks(64) {
            for (b, &v) in idx.iter_mut().zip(chunk) {
                *b = if v.is_finite() {
                    let t = (v - self.lo) / w;
                    ((t * scale) as isize).clamp(0, nb - 1) as usize
                } else {
                    0
                };
            }
            for &b in &idx[..chunk.len()] {
                self.bins[b] += 1;
            }
        }
    }

    /// Merge another congruent histogram.
    pub fn merge(&mut self, o: &Histogram) {
        assert_eq!(self.bins.len(), o.bins.len(), "bin count mismatch");
        for (a, b) in self.bins.iter_mut().zip(o.bins.iter()) {
            *a += b;
        }
        self.total += o.total;
    }

    /// Normalized probability density (sums to 1 over bins).
    pub fn pdf(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.bins.len()];
        }
        self.bins
            .iter()
            .map(|&c| c as f64 / self.total as f64)
            .collect()
    }

    /// Shannon entropy of the binned distribution, in bits.
    pub fn entropy_bits(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let t = self.total as f64;
        self.bins
            .iter()
            .filter(|&&c| c > 0)
            .map(|&c| {
                let p = c as f64 / t;
                -p * p.log2()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binning_is_uniform_and_clamped() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.insert(0.5);
        h.insert(9.99);
        h.insert(-5.0); // clamps to bin 0
        h.insert(50.0); // clamps to last bin
        h.insert(10.0); // boundary clamps to last bin
        assert_eq!(h.counts()[0], 2);
        assert_eq!(h.counts()[9], 3);
        assert_eq!(h.total(), 5);
    }

    #[test]
    fn degenerate_range_collapses_to_bin_zero() {
        let mut h = Histogram::new(3.0, 3.0, 8);
        h.insert(3.0);
        h.insert(100.0);
        assert_eq!(h.counts()[0], 2);
    }

    #[test]
    fn nan_goes_to_bin_zero_not_panic() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.insert(f64::NAN);
        assert_eq!(h.total(), 1);
    }

    #[test]
    fn pdf_sums_to_one() {
        let mut h = Histogram::new(-1.0, 1.0, 16);
        for i in 0..1000 {
            h.insert(((i * 37) % 200) as f64 / 100.0 - 1.0);
        }
        let s: f64 = h.pdf().iter().sum();
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn entropy_of_uniform_and_point_mass() {
        let mut u = Histogram::new(0.0, 4.0, 4);
        for i in 0..4 {
            for _ in 0..25 {
                u.insert(i as f64 + 0.5);
            }
        }
        assert!((u.entropy_bits() - 2.0).abs() < 1e-12);
        let mut p = Histogram::new(0.0, 4.0, 4);
        for _ in 0..100 {
            p.insert(0.5);
        }
        assert_eq!(p.entropy_bits(), 0.0);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Histogram::new(0.0, 1.0, 4);
        let mut b = Histogram::new(0.0, 1.0, 4);
        a.insert(0.1);
        b.insert(0.9);
        b.insert(0.95);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.counts()[3], 2);
    }
}
