//! Property-based tests for the compression substrate, driven by a
//! deterministic inline RNG (no external property-testing dependency).

use std::collections::BTreeMap;
use zc_compress::{
    BitReader, BitWriter, Compressor, ErrorBound, HuffmanCodec, SzCompressor, ZfpLikeCompressor,
};
use zc_tensor::{Shape, Tensor};

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

    fn f32(&mut self, lo: f32, hi: f32) -> f32 {
        self.f64(lo as f64, hi as f64) as f32
    }

    /// Arbitrary small-ish 1–3D shapes.
    fn shape(&mut self) -> Shape {
        match self.next() % 3 {
            0 => Shape::d1(self.usize(1, 200)),
            1 => Shape::d2(self.usize(1, 24), self.usize(1, 24)),
            _ => Shape::d3(self.usize(1, 12), self.usize(1, 12), self.usize(1, 12)),
        }
    }

    /// A tensor with values drawn from a mix of smooth and rough signals.
    fn tensor(&mut self) -> Tensor<f32> {
        let shape = self.shape();
        let offset = self.f32(-1.0e3, 1.0e3);
        let freq = self.f32(0.01, 2.0);
        let s = (self.next() as u32) as f32 * 1e-4;
        Tensor::from_fn(shape, |[x, y, z, _]| {
            offset
                + ((x as f32 + s) * freq).sin() * 50.0
                + (y as f32 * freq * 0.7).cos() * 20.0
                + z as f32 * 0.5
        })
    }
}

#[test]
fn sz_absolute_bound_always_holds() {
    let mut rng = Rng(0xab5);
    for case in 0..64 {
        let t = rng.tensor();
        let eb = 10f64.powi(-(rng.usize(2, 7) as i32));
        let sz = SzCompressor::new(ErrorBound::Abs(eb));
        let (rec, _) = sz.roundtrip(&t).unwrap();
        for (a, b) in t.iter().zip(rec.iter()) {
            assert!(
                ((a - b).abs() as f64) <= eb * (1.0 + 1e-9) + 1e-12,
                "case {case} eb={eb}: |{a} - {b}|"
            );
        }
    }
}

#[test]
fn sz_relative_bound_always_holds() {
    let mut rng = Rng(0x7e1);
    for case in 0..64 {
        let t = rng.tensor();
        let rel = 10f64.powi(-(rng.usize(3, 6) as i32));
        let (mn, mx) = t.min_max().unwrap();
        let range = (mx - mn) as f64;
        let bound = if range > 0.0 { rel * range } else { rel };
        let sz = SzCompressor::new(ErrorBound::Rel(rel));
        let (rec, _) = sz.roundtrip(&t).unwrap();
        for (a, b) in t.iter().zip(rec.iter()) {
            assert!(
                ((a - b).abs() as f64) <= bound * (1.0 + 1e-9) + 1e-12,
                "case {case}"
            );
        }
    }
}

#[test]
fn zfp_stream_size_is_rate_exact() {
    let mut rng = Rng(0x2f9);
    for case in 0..64 {
        let t = rng.tensor();
        let rate = rng.usize(1, 24) as u32;
        let zfp = ZfpLikeCompressor::new(rate as f64);
        let out = zfp.compress(&t);
        let s = t.shape();
        let blocks = s.nx().div_ceil(4) * s.ny().div_ceil(4) * s.nz().div_ceil(4) * s.nw();
        // Non-zero blocks spend exactly bits_per_block; zero blocks only the
        // header — so the stream never exceeds the fixed-rate budget.
        let max_bits = blocks * zfp.bits_per_block() as usize;
        assert!(out.bytes.len() <= max_bits.div_ceil(8), "case {case}");
        // And decompression always succeeds with the right shape.
        let rec = zfp.decompress(&out).unwrap();
        assert_eq!(rec.shape(), t.shape(), "case {case}");
        assert!(!rec.has_non_finite(), "case {case}");
    }
}

/// `(symbol, count)` of every used symbol, in symbol order, counted
/// independently of [`HuffmanCodec::counts_of`].
fn counts_of(symbols: &[u32]) -> Vec<(u32, u64)> {
    let mut counts = BTreeMap::new();
    for &s in symbols {
        *counts.entry(s).or_insert(0u64) += 1;
    }
    counts.into_iter().collect()
}

/// Write `codec`'s codebook and `symbols`, read both back, and return the
/// codebook as read with the decoded symbols.
fn huffman_roundtrip(codec: &HuffmanCodec, symbols: &[u32]) -> (HuffmanCodec, Vec<u32>) {
    let mut w = BitWriter::new();
    codec.write_codebook(&mut w);
    codec.encode(symbols, &mut w).unwrap();
    let bytes = w.into_bytes();
    let mut r = BitReader::new(&bytes);
    let read = HuffmanCodec::read_codebook(&mut r).unwrap();
    let decoded = read.decode(&mut r, symbols.len()).unwrap();
    (read, decoded)
}

#[test]
fn huffman_roundtrips_arbitrary_streams() {
    let mut rng = Rng(0x4ff);
    for case in 0..64 {
        let n = rng.usize(1, 2000);
        let symbols: Vec<u32> = (0..n).map(|_| rng.usize(0, 500) as u32).collect();
        let counts = HuffmanCodec::counts_of(symbols.iter().copied());
        assert_eq!(counts, counts_of(&symbols), "case {case}");
        let codec = HuffmanCodec::from_counts(500, &counts).unwrap();
        let (_, decoded) = huffman_roundtrip(&codec, &symbols);
        assert_eq!(decoded, symbols, "case {case}");
    }
}

#[test]
fn huffman_roundtrips_sz_shaped_alphabets() {
    // SZ's default alphabet: the outlier symbol 0 plus quantization codes
    // in a window around the zero-residual symbol 32,769.
    let mut rng = Rng(0x5a5a);
    for case in 0..48 {
        let half = rng.usize(0, 400);
        let outlier_rate = [0.0, 0.01, 0.3][case % 3];
        let n = rng.usize(1, 4000);
        let symbols: Vec<u32> = (0..n)
            .map(|_| {
                if rng.f64(0.0, 1.0) < outlier_rate {
                    0
                } else {
                    // Residual codes concentrate near the centre.
                    let r = rng.f64(-1.0, 1.0).powi(3) * half as f64;
                    (32_769 + r.round() as i64) as u32
                }
            })
            .collect();
        let counts = HuffmanCodec::counts_of(symbols.iter().copied());
        assert_eq!(counts, counts_of(&symbols), "case {case}");
        let codec = HuffmanCodec::from_counts(65_537, &counts).unwrap();
        let (read, decoded) = huffman_roundtrip(&codec, &symbols);
        assert_eq!(decoded, symbols, "case {case}");
        assert_eq!(read.alphabet_len(), 65_537, "case {case}");
    }
}

#[test]
fn huffman_roundtrips_single_symbol_streams() {
    let mut rng = Rng(0x51e);
    for case in 0..32 {
        let alphabet = rng.usize(1, 70_000) as u32;
        let s = rng.usize(0, alphabet as usize) as u32;
        let symbols = vec![s; rng.usize(1, 3000)];
        let codec = HuffmanCodec::from_counts(alphabet, &counts_of(&symbols)).unwrap();
        assert_eq!(codec.length_of(s), 1, "case {case}");
        let (_, decoded) = huffman_roundtrip(&codec, &symbols);
        assert_eq!(decoded, symbols, "case {case}");
    }
}

#[test]
fn huffman_limits_fibonacci_code_lengths() {
    // Fibonacci frequencies build the deepest possible Huffman tree: k
    // symbols reach depth k - 1, so k > 49 forces length limiting.
    let mut rng = Rng(0xf1b);
    for case in 0..16 {
        let k = rng.usize(50, 80);
        let mut fib = (1u64, 1u64);
        let mut symbol = 0u32;
        let counts: Vec<(u32, u64)> = (0..k)
            .map(|_| {
                symbol += rng.usize(1, 900) as u32;
                let f = fib.0;
                fib = (fib.1, fib.0 + fib.1);
                (symbol, f)
            })
            .collect();
        let codec = HuffmanCodec::from_counts(65_537, &counts).unwrap();
        let lengths: Vec<u32> = counts.iter().map(|&(s, _)| codec.length_of(s)).collect();
        assert!(
            lengths.iter().all(|&l| (1..=48).contains(&l)),
            "case {case}"
        );
        let kraft: u128 = lengths.iter().map(|&l| 1u128 << (48 - l)).sum();
        assert!(kraft <= 1 << 48, "case {case}");
        // Every symbol a few times, in a shuffled order.
        let mut symbols: Vec<u32> = counts.iter().flat_map(|&(s, _)| [s; 3]).collect();
        for i in (1..symbols.len()).rev() {
            symbols.swap(i, rng.usize(0, i + 1));
        }
        let (_, decoded) = huffman_roundtrip(&codec, &symbols);
        assert_eq!(decoded, symbols, "case {case}");
    }
}

#[test]
fn bitstream_roundtrips_mixed_width_writes() {
    let mut rng = Rng(0xb175);
    for case in 0..64 {
        let n = rng.usize(1, 200);
        let fields: Vec<(u64, u32)> = (0..n)
            .map(|_| (rng.next(), rng.usize(1, 64) as u32))
            .collect();
        let mut w = BitWriter::new();
        for &(v, n) in &fields {
            w.write_bits(v, n);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &(v, n) in &fields {
            let mask = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
            assert_eq!(r.read_bits(n).unwrap(), v & mask, "case {case}");
        }
    }
}

#[test]
fn sz_decompression_never_panics_on_corruption() {
    let mut rng = Rng(0xdead);
    for _ in 0..64 {
        let t = rng.tensor();
        let sz = SzCompressor::new(ErrorBound::Abs(1e-3));
        let mut out = sz.compress(&t);
        // Corrupt: truncate and flip a byte.
        let keep = ((out.bytes.len() as f64) * rng.f64(0.0, 1.0)) as usize;
        out.bytes.truncate(keep.max(1));
        let idx = (rng.next() as usize) % out.bytes.len();
        out.bytes[idx] ^= 0x5A;
        // Must return (Ok or Err) without panicking.
        let _ = sz.decompress(&out);
    }
}
