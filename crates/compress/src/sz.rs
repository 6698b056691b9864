//! The SZ-1.4-class error-bounded compressor (the cuSZ stand-in).
//!
//! Pipeline (SZ 1.4's sequential one):
//!
//! 1. **Lorenzo prediction** over the progressively reconstructed field,
//!    element by element in storage order,
//! 2. **linear-scale quantization** of residuals with the user's error
//!    bound (out-of-range residuals become verbatim-stored outliers),
//! 3. **canonical Huffman coding** of the quantization codes.
//!
//! cuSZ keeps the same three stages but replaces the sequential
//! prediction-over-reconstruction loop with *dual quantization* (prequantize
//! the field, then predict on the prequantized values), which makes every
//! element independent and the loop parallel. That moves decompressed
//! values, so it is a ROADMAP item of its own rather than part of this
//! codec.
//!
//! The entropy stage costs O(n + the span of the codes that occur), never
//! the `2·radius + 1` alphabet (65,537 symbols at the default radius): see
//! [`crate::huffman`].
//!
//! The decompressor replays predictions over the same reconstruction, so
//! `|original - decompressed| <= eb` holds for every element (property-
//! tested in this crate and again at the assessment layer).

use crate::bitstream::{BitReader, BitWriter};
use crate::huffman::HuffmanCodec;
use crate::lorenzo::LorenzoPredictor;
use crate::quantizer::{LinearQuantizer, Quantized};
use crate::stats::CompressionStats;
use crate::{CodecError, Compressed, Compressor};
use zc_tensor::Tensor;

/// How the user expresses the error bound.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ErrorBound {
    /// Absolute bound: `|orig - dec| <= eb`.
    Abs(f64),
    /// Value-range-relative bound: `|orig - dec| <= rel · (max - min)`.
    Rel(f64),
}

impl ErrorBound {
    /// Resolve to an absolute bound for a concrete tensor.
    ///
    /// For constant fields a range-relative bound degenerates; we fall back
    /// to treating the relative figure as absolute (any positive bound
    /// reproduces a constant field exactly through Lorenzo prediction).
    pub fn resolve(&self, t: &Tensor<f32>) -> f64 {
        match *self {
            ErrorBound::Abs(eb) => eb,
            ErrorBound::Rel(rel) => {
                let range = match t.min_max() {
                    Some((mn, mx)) => (mx - mn) as f64,
                    None => 0.0,
                };
                if range > 0.0 {
                    rel * range
                } else {
                    rel
                }
            }
        }
    }
}

/// SZ-like error-bounded lossy compressor.
#[derive(Clone, Copy, Debug)]
pub struct SzCompressor {
    bound: ErrorBound,
    radius: u32,
}

/// Reserved Huffman symbol marking an unpredictable (verbatim) element.
const OUTLIER_SYMBOL: u32 = 0;

impl SzCompressor {
    /// Compressor with the default code radius (32768 bins each side,
    /// matching SZ's 65536-entry quantization capacity).
    pub fn new(bound: ErrorBound) -> Self {
        SzCompressor {
            bound,
            radius: 32768,
        }
    }

    /// Override the quantization radius (power of two recommended).
    pub fn with_radius(mut self, radius: u32) -> Self {
        assert!(radius >= 1);
        self.radius = radius;
        self
    }

    /// The configured bound.
    pub fn bound(&self) -> ErrorBound {
        self.bound
    }
}

impl Compressor for SzCompressor {
    fn name(&self) -> &'static str {
        "sz-like"
    }

    fn compress(&self, t: &Tensor<f32>) -> Compressed {
        let t0 = std::time::Instant::now();
        let shape = t.shape();
        let eb = self.bound.resolve(t).max(f64::MIN_POSITIVE);
        let quant = LinearQuantizer::new(eb, self.radius);
        let pred = LorenzoPredictor::new(shape);

        let n = shape.len();
        let mut rec = vec![0f32; n];
        let mut symbols = Vec::with_capacity(n);
        let mut outliers: Vec<f32> = Vec::new();
        let [nx, ny, nz, nw] = shape.dims();
        let src = t.as_slice();
        let mut lin = 0usize;
        for w in 0..nw {
            for z in 0..nz {
                for y in 0..ny {
                    for x in 0..nx {
                        let v = src[lin];
                        let p = pred.predict(&rec, x, y, z, w) as f64;
                        // The bound must hold on the *stored* f32: when eb
                        // approaches the value's f32 ulp, rounding the f64
                        // reconstruction can break it — demote to outlier
                        // then (SZ does the same check).
                        let quantized = match quant.quantize(v as f64, p) {
                            Quantized::Code(c) => {
                                let r = quant.reconstruct(c, p) as f32;
                                if ((v - r).abs() as f64) <= eb {
                                    Some((c, r))
                                } else {
                                    None
                                }
                            }
                            Quantized::Outlier => None,
                        };
                        match quantized {
                            Some((c, r)) => {
                                symbols.push(c + 1); // shift past outlier symbol
                                rec[lin] = r;
                            }
                            None => {
                                symbols.push(OUTLIER_SYMBOL);
                                outliers.push(v);
                                rec[lin] = v;
                            }
                        }
                        lin += 1;
                    }
                }
            }
        }

        // Entropy stage.
        // The outlier symbol is counted apart from the window of
        // quantization codes it would otherwise stretch to symbol 0.
        let codes = symbols.iter().copied().filter(|&s| s != OUTLIER_SYMBOL);
        let mut counts = HuffmanCodec::counts_of(codes);
        if !outliers.is_empty() {
            counts.insert(0, (OUTLIER_SYMBOL, outliers.len() as u64));
        }
        let alphabet = (quant.alphabet_len() + 1) as u32;
        let codec = HuffmanCodec::from_counts(alphabet, &counts).expect("non-empty symbol stream");
        let mut w = BitWriter::new();
        w.write_bits(eb.to_bits(), 64);
        w.write_bits(self.radius as u64, 32);
        w.write_bits(n as u64, 64);
        w.write_bits(outliers.len() as u64, 64);
        codec.write_codebook(&mut w);
        codec.encode(&symbols, &mut w).expect("all symbols counted");
        for &o in &outliers {
            w.write_bits(o.to_bits() as u64, 32);
        }
        let bytes = w.into_bytes();

        let stats = CompressionStats {
            original_bytes: t.nbytes(),
            compressed_bytes: bytes.len(),
            compress_seconds: t0.elapsed().as_secs_f64(),
            decompress_seconds: 0.0,
            outliers: outliers.len(),
        };
        Compressed {
            bytes,
            shape,
            stats,
        }
    }

    fn decompress(&self, c: &Compressed) -> Result<Tensor<f32>, CodecError> {
        let mut r = BitReader::new(&c.bytes);
        let eb = f64::from_bits(r.read_bits(64)?);
        if eb <= 0.0 || !eb.is_finite() {
            return Err(CodecError::Corrupt("bad error bound"));
        }
        let radius = r.read_bits(32)? as u32;
        if radius == 0 {
            return Err(CodecError::Corrupt("bad radius"));
        }
        let n = r.read_bits(64)? as usize;
        if n != c.shape.len() {
            return Err(CodecError::Corrupt("element count mismatch"));
        }
        let n_outliers = r.read_bits(64)? as usize;
        if n_outliers > n {
            return Err(CodecError::Corrupt("outlier count exceeds elements"));
        }
        let codec = HuffmanCodec::read_codebook(&mut r)?;
        let symbols = codec.decode(&mut r, n)?;
        let mut outliers = Vec::with_capacity(n_outliers);
        for _ in 0..n_outliers {
            outliers.push(f32::from_bits(r.read_bits(32)? as u32));
        }

        let quant = LinearQuantizer::new(eb, radius);
        let pred = LorenzoPredictor::new(c.shape);
        let mut rec = vec![0f32; n];
        let [nx, ny, nz, nw] = c.shape.dims();
        let mut lin = 0usize;
        let mut next_outlier = 0usize;
        for w in 0..nw {
            for z in 0..nz {
                for y in 0..ny {
                    for x in 0..nx {
                        let s = symbols[lin];
                        rec[lin] = if s == OUTLIER_SYMBOL {
                            let v = *outliers
                                .get(next_outlier)
                                .ok_or(CodecError::Corrupt("missing outlier value"))?;
                            next_outlier += 1;
                            v
                        } else {
                            let p = pred.predict(&rec, x, y, z, w) as f64;
                            quant.reconstruct(s - 1, p) as f32
                        };
                        lin += 1;
                    }
                }
            }
        }
        Tensor::from_vec(c.shape, rec).map_err(|_| CodecError::Corrupt("shape/buffer mismatch"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zc_tensor::Shape;

    fn smooth_field() -> Tensor<f32> {
        Tensor::from_fn(Shape::d3(20, 18, 16), |[x, y, z, _]| {
            (x as f32 * 0.21).sin() * (y as f32 * 0.17).cos() + z as f32 * 0.05
        })
    }

    #[test]
    fn abs_bound_holds_everywhere() {
        let t = smooth_field();
        for &eb in &[1e-2f64, 1e-3, 1e-4] {
            let sz = SzCompressor::new(ErrorBound::Abs(eb));
            let (rec, _) = sz.roundtrip(&t).unwrap();
            for (a, b) in t.iter().zip(rec.iter()) {
                assert!(
                    ((a - b).abs() as f64) <= eb * (1.0 + 1e-9) + 1e-12,
                    "eb={eb}: |{a}-{b}|"
                );
            }
        }
    }

    #[test]
    fn rel_bound_scales_with_range() {
        let t = smooth_field();
        let (mn, mx) = t.min_max().unwrap();
        let range = (mx - mn) as f64;
        let sz = SzCompressor::new(ErrorBound::Rel(1e-3));
        let (rec, _) = sz.roundtrip(&t).unwrap();
        for (a, b) in t.iter().zip(rec.iter()) {
            assert!(((a - b).abs() as f64) <= 1e-3 * range * (1.0 + 1e-9));
        }
    }

    #[test]
    fn smooth_data_compresses_well() {
        let t = smooth_field();
        let sz = SzCompressor::new(ErrorBound::Abs(1e-3));
        let out = sz.compress(&t);
        assert!(out.stats.ratio() > 4.0, "ratio {}", out.stats.ratio());
        assert_eq!(out.stats.original_bytes, t.nbytes());
    }

    #[test]
    fn tighter_bound_means_lower_ratio() {
        let t = smooth_field();
        let loose = SzCompressor::new(ErrorBound::Abs(1e-2))
            .compress(&t)
            .stats
            .ratio();
        let tight = SzCompressor::new(ErrorBound::Abs(1e-5))
            .compress(&t)
            .stats
            .ratio();
        assert!(loose > tight, "loose {loose} <= tight {tight}");
    }

    #[test]
    fn constant_field_roundtrips() {
        let t = Tensor::full(Shape::d3(8, 8, 8), 4.25f32);
        let sz = SzCompressor::new(ErrorBound::Rel(1e-4));
        let (rec, stats) = sz.roundtrip(&t).unwrap();
        for (a, b) in t.iter().zip(rec.iter()) {
            assert!((a - b).abs() <= 1e-4 + 1e-9);
        }
        // Mostly fixed header + codebook; payload is ~1 bit/elem.
        assert!(stats.ratio() > 10.0, "ratio {}", stats.ratio());
    }

    #[test]
    fn nan_elements_survive_as_outliers() {
        let mut t = smooth_field();
        t.set([3, 3, 3, 0], f32::NAN);
        t.set([4, 4, 4, 0], f32::INFINITY);
        let sz = SzCompressor::new(ErrorBound::Abs(1e-3));
        let (rec, stats) = sz.roundtrip(&t).unwrap();
        assert!(rec.at3(3, 3, 3).is_nan());
        assert_eq!(rec.at3(4, 4, 4), f32::INFINITY);
        assert!(stats.outliers >= 2);
    }

    #[test]
    fn small_radius_forces_outliers_but_preserves_bound() {
        let t = Tensor::from_fn(Shape::d2(64, 64), |[x, y, ..]| {
            ((x * 7919 + y * 104729) % 1000) as f32 // highly unpredictable
        });
        let sz = SzCompressor::new(ErrorBound::Abs(1e-4)).with_radius(8);
        let (rec, stats) = sz.roundtrip(&t).unwrap();
        assert!(stats.outliers > 0);
        for (a, b) in t.iter().zip(rec.iter()) {
            assert!((a - b).abs() <= 1e-4 + 1e-9);
        }
    }

    #[test]
    fn truncated_stream_is_detected() {
        let t = smooth_field();
        let sz = SzCompressor::new(ErrorBound::Abs(1e-3));
        let mut out = sz.compress(&t);
        out.bytes.truncate(out.bytes.len() / 2);
        assert!(sz.decompress(&out).is_err());
    }

    #[test]
    fn one_d_and_two_d_shapes_work() {
        for shape in [Shape::d1(300), Shape::d2(40, 30)] {
            let t = Tensor::from_fn(shape, |[x, y, ..]| (x as f32 * 0.1).sin() + y as f32 * 0.01);
            let sz = SzCompressor::new(ErrorBound::Abs(1e-3));
            let (rec, _) = sz.roundtrip(&t).unwrap();
            for (a, b) in t.iter().zip(rec.iter()) {
                assert!((a - b).abs() <= 1e-3 + 1e-9);
            }
        }
    }
}
