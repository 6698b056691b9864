//! A lossless floating-point baseline: byte-plane Huffman coding.
//!
//! The paper's introduction motivates error-bounded lossy compression by
//! noting that lossless floating-point compressors "generally suffer from
//! very low compression ratios (around 2:1 in most of cases)". This codec
//! reproduces that baseline honestly: each of the four bytes of every f32
//! is routed to its own plane (sign/exponent bytes are highly redundant on
//! smooth scientific data, low mantissa bytes are near-random) and each
//! plane is entropy-coded with the canonical Huffman machinery the SZ-like
//! codec already uses. Reconstruction is bit-exact.

use crate::bitstream::{BitReader, BitWriter};
use crate::huffman::HuffmanCodec;
use crate::stats::CompressionStats;
use crate::{CodecError, Compressed, Compressor};
use zc_tensor::Tensor;

/// Byte-plane Huffman lossless compressor for `f32` fields.
#[derive(Clone, Copy, Debug, Default)]
pub struct LosslessCompressor;

impl LosslessCompressor {
    /// Construct (stateless).
    pub fn new() -> Self {
        LosslessCompressor
    }
}

impl Compressor for LosslessCompressor {
    fn name(&self) -> &'static str {
        "lossless-huff"
    }

    fn compress(&self, t: &Tensor<f32>) -> Compressed {
        let t0 = std::time::Instant::now();
        let n = t.len();
        let mut w = BitWriter::new();
        w.write_bits(n as u64, 64);
        // Per plane: symbol counts → codebook → stream.
        for plane in 0..4usize {
            let symbols: Vec<u32> = t.iter().map(|&v| v.to_le_bytes()[plane] as u32).collect();
            let counts = HuffmanCodec::counts_of(symbols.iter().copied());
            let codec = HuffmanCodec::from_counts(256, &counts).expect("non-empty tensor");
            codec.write_codebook(&mut w);
            codec.encode(&symbols, &mut w).expect("all symbols counted");
        }
        let bytes = w.into_bytes();
        let stats = CompressionStats {
            original_bytes: t.nbytes(),
            compressed_bytes: bytes.len(),
            compress_seconds: t0.elapsed().as_secs_f64(),
            decompress_seconds: 0.0,
            outliers: 0,
        };
        Compressed {
            bytes,
            shape: t.shape(),
            stats,
        }
    }

    fn decompress(&self, c: &Compressed) -> Result<Tensor<f32>, CodecError> {
        let mut r = BitReader::new(&c.bytes);
        let n = r.read_bits(64)? as usize;
        if n != c.shape.len() {
            return Err(CodecError::Corrupt("element count mismatch"));
        }
        let mut planes: Vec<Vec<u32>> = Vec::with_capacity(4);
        for _ in 0..4 {
            let codec = HuffmanCodec::read_codebook(&mut r)?;
            planes.push(codec.decode(&mut r, n)?);
        }
        let data: Vec<f32> = (0..n)
            .map(|i| {
                f32::from_le_bytes([
                    planes[0][i] as u8,
                    planes[1][i] as u8,
                    planes[2][i] as u8,
                    planes[3][i] as u8,
                ])
            })
            .collect();
        Tensor::from_vec(c.shape, data).map_err(|_| CodecError::Corrupt("shape mismatch"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zc_tensor::Shape;

    fn smooth() -> Tensor<f32> {
        Tensor::from_fn(Shape::d3(24, 20, 16), |[x, y, z, _]| {
            1000.0 + (x as f32 * 0.1).sin() * 5.0 + y as f32 * 0.01 + z as f32 * 0.02
        })
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let t = smooth();
        let c = LosslessCompressor::new();
        let (rec, _) = c.roundtrip(&t).unwrap();
        // Bit-exact, not merely close.
        for (a, b) in t.iter().zip(rec.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn special_values_survive() {
        let mut t = smooth();
        t.set([0, 0, 0, 0], f32::NAN);
        t.set([1, 0, 0, 0], f32::INFINITY);
        t.set([2, 0, 0, 0], -0.0);
        t.set([3, 0, 0, 0], f32::MIN_POSITIVE / 2.0); // subnormal
        let c = LosslessCompressor::new();
        let (rec, _) = c.roundtrip(&t).unwrap();
        assert!(rec.at3(0, 0, 0).is_nan());
        assert_eq!(rec.at3(1, 0, 0), f32::INFINITY);
        assert_eq!(rec.at3(2, 0, 0).to_bits(), (-0.0f32).to_bits());
        assert_eq!(rec.at3(3, 0, 0), f32::MIN_POSITIVE / 2.0);
    }

    #[test]
    fn smooth_data_beats_one_but_stays_modest() {
        let t = smooth();
        let out = LosslessCompressor::new().compress(&t);
        let ratio = out.stats.ratio();
        // The paper's "around 2:1" lossless regime.
        assert!(ratio > 1.1, "ratio {ratio}");
        assert!(ratio < 4.0, "suspiciously high lossless ratio {ratio}");
    }

    #[test]
    fn random_mantissas_are_nearly_incompressible() {
        let t = Tensor::from_fn(Shape::d2(64, 64), |[x, y, ..]| {
            let mut h = (x as u64)
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add(y as u64);
            h = (h ^ (h >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            f32::from_bits(0x3F80_0000 | (h as u32 & 0x007F_FFFF))
        });
        let out = LosslessCompressor::new().compress(&t);
        // Exponent plane compresses; the three mantissa planes do not.
        assert!(out.stats.ratio() < 1.5, "ratio {}", out.stats.ratio());
        assert!(out.stats.ratio() > 1.0);
    }

    #[test]
    fn truncated_stream_is_detected() {
        let t = smooth();
        let c = LosslessCompressor::new();
        let mut out = c.compress(&t);
        out.bytes.truncate(out.bytes.len() / 3);
        assert!(c.decompress(&out).is_err());
    }
}
