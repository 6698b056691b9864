//! Linear-scale quantization of prediction residuals (SZ's
//! "error-controlled quantization").

/// Result of quantizing one residual.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Quantized {
    /// Predictable: the Huffman symbol (centred at `radius`) and by
    /// construction `|reconstructed - original| <= eb`.
    Code(u32),
    /// Unpredictable: residual too large for the code range; the original
    /// value is stored verbatim.
    Outlier,
}

/// Linear quantizer with absolute error bound `eb` and `2·radius` code bins.
///
/// A residual `r = value - prediction` maps to the integer
/// `q = round(r / (2·eb))`; reconstruction is `prediction + 2·eb·q`,
/// which is within `eb` of the original by the rounding property.
#[derive(Clone, Copy, Debug)]
pub struct LinearQuantizer {
    eb: f64,
    radius: u32,
}

impl LinearQuantizer {
    /// Quantizer with bound `eb > 0` and the given code radius
    /// (SZ's default capacity is 65536 bins → radius 32768).
    pub fn new(eb: f64, radius: u32) -> Self {
        assert!(
            eb > 0.0 && eb.is_finite(),
            "error bound must be positive and finite"
        );
        assert!(radius >= 1);
        LinearQuantizer { eb, radius }
    }

    /// Number of distinct codes (`2 · radius`).
    #[inline]
    pub fn alphabet_len(&self) -> usize {
        (self.radius as usize) * 2
    }

    /// Quantize a residual.
    #[inline]
    pub fn quantize(&self, value: f64, prediction: f64) -> Quantized {
        let q = ((value - prediction) / (2.0 * self.eb)).round();
        if !q.is_finite() || q.abs() >= self.radius as f64 {
            return Quantized::Outlier;
        }
        Quantized::Code((q as i64 + self.radius as i64) as u32)
    }

    /// Reconstruct from a code produced by [`LinearQuantizer::quantize`].
    #[inline]
    pub fn reconstruct(&self, code: u32, prediction: f64) -> f64 {
        let q = code as i64 - self.radius as i64;
        prediction + 2.0 * self.eb * q as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_respects_bound() {
        let q = LinearQuantizer::new(0.01, 1024);
        let pred = 3.0;
        for i in -500..500 {
            let v = pred + i as f64 * 0.00317;
            match q.quantize(v, pred) {
                Quantized::Code(c) => {
                    let rec = q.reconstruct(c, pred);
                    assert!((rec - v).abs() <= 0.01 + 1e-12, "v={v} rec={rec}");
                }
                Quantized::Outlier => panic!("should be in range"),
            }
        }
    }

    #[test]
    fn out_of_range_becomes_outlier() {
        let q = LinearQuantizer::new(1e-6, 16);
        assert_eq!(q.quantize(1.0, 0.0), Quantized::Outlier);
        assert_eq!(q.quantize(-1.0, 0.0), Quantized::Outlier);
    }

    #[test]
    fn nan_residual_is_outlier() {
        let q = LinearQuantizer::new(0.1, 16);
        assert_eq!(q.quantize(f64::NAN, 0.0), Quantized::Outlier);
        assert_eq!(q.quantize(f64::INFINITY, 0.0), Quantized::Outlier);
    }

    #[test]
    fn zero_residual_maps_to_centre_code() {
        let q = LinearQuantizer::new(0.5, 256);
        match q.quantize(7.0, 7.0) {
            Quantized::Code(c) => assert_eq!(c, 256),
            _ => panic!(),
        }
    }

    #[test]
    #[should_panic(expected = "error bound must be positive")]
    fn zero_bound_rejected() {
        LinearQuantizer::new(0.0, 16);
    }
}
