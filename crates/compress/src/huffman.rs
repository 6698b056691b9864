//! Canonical Huffman coding over `u32` symbols.
//!
//! This is the entropy stage of the SZ-like compressor (SZ 1.4 and cuSZ both
//! Huffman-encode their quantization codes). The codec is *canonical*: only
//! the code lengths are serialized, and both sides rebuild identical
//! codebooks, which keeps headers small and decode tables simple.
//!
//! A codebook holds the used symbols only. SZ draws its symbols from a
//! 65,537-symbol alphabet of which a field uses a few hundred, so no step —
//! counting, building, serializing, reading or either coding direction —
//! touches the alphabet: the stage costs O(n + used symbols) for `n` coded
//! symbols, plus the span the used symbols cover where they are counted and
//! looked up by the encoder (for SZ, the window of quantization codes that
//! occur; the encoder's table splits at the widest gap, so the far-off
//! outlier symbol does not widen it). Each code is written with one call,
//! and the decoder resolves codes of up to 11 bits with one table lookup.

use crate::bitstream::{BitReader, BitWriter};
use crate::CodecError;
use std::collections::BinaryHeap;

/// Errors specific to Huffman coding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HuffmanError {
    /// Encoder was given a symbol that was absent from the frequency table.
    UnknownSymbol(u32),
    /// The serialized codebook is malformed.
    BadCodebook,
    /// The bit stream does not decode to the declared symbol count.
    BadStream,
}

impl std::fmt::Display for HuffmanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HuffmanError::UnknownSymbol(s) => write!(f, "symbol {s} not in codebook"),
            HuffmanError::BadCodebook => write!(f, "malformed codebook"),
            HuffmanError::BadStream => write!(f, "malformed huffman stream"),
        }
    }
}

impl std::error::Error for HuffmanError {}

/// Maximum admitted code length. Length-limiting keeps decode state machine
/// small; 48 bits is far beyond what quantization-code distributions need.
const MAX_CODE_LEN: u32 = 48;

/// Serialized size of one `(symbol, length)` codebook pair, in bits.
const PAIR_BITS: usize = 32 + 6;

/// A canonical Huffman codebook over the used symbols of an alphabet
/// `0..alphabet_len`.
#[derive(Debug, Clone)]
pub struct HuffmanCodec {
    /// Size of the alphabet the symbols are drawn from.
    alphabet_len: u32,
    /// `(symbol, code length)` of every used symbol, sorted by
    /// (length, symbol) — canonical and decode order.
    sorted: Vec<(u32, u32)>,
    /// `count[l]` = number of symbols with code length `l`.
    count: Vec<u64>,
    /// `first_code[l]` = canonical code of the first length-`l` symbol.
    first_code: Vec<u64>,
    /// `first_index[l]` = index into `sorted` of that symbol.
    first_index: Vec<usize>,
}

impl HuffmanCodec {
    /// Build a codebook from the `(symbol, count)` pairs of the used
    /// symbols, in strictly increasing symbol order, over the alphabet
    /// `0..alphabet_len`.
    ///
    /// Every count must be non-zero and at least one symbol must be given.
    pub fn from_counts(alphabet_len: u32, counts: &[(u32, u64)]) -> Result<Self, HuffmanError> {
        let unordered = counts.windows(2).any(|p| p[0].0 >= p[1].0);
        if counts.is_empty() || unordered || counts.iter().any(|&(_, f)| f == 0) {
            return Err(HuffmanError::BadCodebook);
        }
        let mut lengths = vec![0u32; counts.len()];
        if counts.len() == 1 {
            // Degenerate alphabet: give the single symbol a 1-bit code.
            lengths[0] = 1;
        } else {
            // Standard heap-based Huffman over the used symbols.
            #[derive(PartialEq, Eq)]
            struct Node {
                weight: u64,
                id: usize,
            }
            impl Ord for Node {
                fn cmp(&self, o: &Self) -> std::cmp::Ordering {
                    // Min-heap by weight (ties by id for determinism).
                    o.weight.cmp(&self.weight).then(o.id.cmp(&self.id))
                }
            }
            impl PartialOrd for Node {
                fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
                    Some(self.cmp(o))
                }
            }
            // Tree stored as parent links; leaves are 0..n in symbol order,
            // internal nodes after.
            let mut parents = vec![usize::MAX; counts.len()];
            let mut heap: BinaryHeap<Node> = counts
                .iter()
                .enumerate()
                .map(|(id, &(_, weight))| Node { weight, id })
                .collect();
            while heap.len() > 1 {
                let a = heap.pop().unwrap();
                let b = heap.pop().unwrap();
                let id = parents.len();
                parents.push(usize::MAX);
                parents[a.id] = id;
                parents[b.id] = id;
                heap.push(Node {
                    weight: a.weight + b.weight,
                    id,
                });
            }
            for (leaf, len) in lengths.iter_mut().enumerate() {
                let mut cur = leaf;
                while parents[cur] != usize::MAX {
                    cur = parents[cur];
                    *len += 1;
                }
            }
            limit_lengths(&mut lengths, MAX_CODE_LEN);
        }
        let pairs = counts.iter().zip(lengths).map(|(&(s, _), l)| (s, l));
        Self::from_lengths(alphabet_len, pairs.collect())
    }

    /// `(symbol, count)` of every distinct symbol of `symbols`, in symbol
    /// order — the input [`HuffmanCodec::from_counts`] takes. Counts over
    /// the span of the symbols that occur, never over the alphabet; a caller
    /// with a known far-off symbol (SZ's outlier symbol 0) counts it itself.
    pub fn counts_of(symbols: impl Iterator<Item = u32> + Clone) -> Vec<(u32, u64)> {
        let (lo, hi) = symbols
            .clone()
            .fold((u32::MAX, 0), |(lo, hi), s| (lo.min(s), hi.max(s)));
        let mut span = vec![0u64; (hi as usize + 1).saturating_sub(lo as usize)];
        for s in symbols {
            span[(s - lo) as usize] += 1;
        }
        let counts = span.into_iter().zip(lo..).filter(|&(c, _)| c > 0);
        counts.map(|(c, s)| (s, c)).collect()
    }

    /// Rebuild a codebook from the `(symbol, code length)` pairs of the used
    /// symbols, in any order (the canonical construction).
    ///
    /// Rejects symbols outside the alphabet, a symbol given twice, lengths
    /// outside `1..=48` and length sets no prefix code can have.
    fn from_lengths(alphabet_len: u32, mut pairs: Vec<(u32, u32)>) -> Result<Self, HuffmanError> {
        pairs.sort_unstable();
        let duplicate = pairs.windows(2).any(|p| p[0].0 == p[1].0);
        let bad_pair = |&(s, l): &(u32, u32)| s >= alphabet_len || l == 0 || l > MAX_CODE_LEN;
        if pairs.is_empty() || duplicate || pairs.iter().any(bad_pair) {
            return Err(HuffmanError::BadCodebook);
        }
        // Kraft check.
        let kraft: u128 = pairs
            .iter()
            .map(|&(_, l)| 1u128 << (MAX_CODE_LEN - l))
            .sum();
        if kraft > 1u128 << MAX_CODE_LEN {
            return Err(HuffmanError::BadCodebook);
        }
        pairs.sort_unstable_by_key(|&(s, l)| (l, s));

        // Standard canonical construction over per-length symbol counts.
        let max_len = pairs.last().map_or(0, |p| p.1);
        let nl = (max_len + 1) as usize;
        let mut count = vec![0u64; nl];
        for &(_, l) in &pairs {
            count[l as usize] += 1;
        }
        let mut first_code = vec![0u64; nl];
        let mut first_index = vec![0usize; nl];
        let mut code = 0u64;
        let mut index = 0usize;
        for l in 1..nl {
            first_code[l] = code;
            first_index[l] = index;
            code = (code + count[l]) << 1;
            index += count[l] as usize;
        }
        Ok(HuffmanCodec {
            alphabet_len,
            sorted: pairs,
            count,
            first_code,
            first_index,
        })
    }

    /// Number of symbols in the alphabet.
    pub fn alphabet_len(&self) -> usize {
        self.alphabet_len as usize
    }

    /// Code length of `symbol` (0 if it has no code). Linear in the number
    /// of used symbols.
    pub fn length_of(&self, symbol: u32) -> u32 {
        self.sorted
            .iter()
            .find(|p| p.0 == symbol)
            .map_or(0, |p| p.1)
    }

    /// `(symbol, canonical code, length)` of every used symbol, in
    /// canonical order. Codes are MSB-first.
    fn codes(&self) -> impl Iterator<Item = (u32, u64, u32)> + '_ {
        self.sorted.iter().enumerate().map(|(i, &(s, len))| {
            let l = len as usize;
            (
                s,
                self.first_code[l] + (i - self.first_index[l]) as u64,
                len,
            )
        })
    }

    /// Encode a symbol sequence onto a bit writer.
    pub fn encode(&self, symbols: &[u32], w: &mut BitWriter) -> Result<(), HuffmanError> {
        let table = EncodeTable::new(self);
        for &s in symbols {
            let (code, len) = table.get(s).ok_or(HuffmanError::UnknownSymbol(s))?;
            w.write_bits(code, len);
        }
        Ok(())
    }

    /// Decode exactly `count` symbols from a bit reader.
    pub fn decode(&self, r: &mut BitReader<'_>, count: usize) -> Result<Vec<u32>, CodecError> {
        let table = DecodeTable::new(self);
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            let (symbol, len) = table.entries[r.peek_bits(table.bits) as usize];
            if len > 0 && len as usize <= r.remaining() {
                r.skip_bits(len);
                out.push(symbol);
            } else {
                out.push(self.decode_one(r)?);
            }
        }
        Ok(out)
    }

    /// Decode one symbol bit by bit: the canonical walk, for codes longer
    /// than the decode table and for streams that end or go wrong.
    fn decode_one(&self, r: &mut BitReader<'_>) -> Result<u32, CodecError> {
        let max_len = self.count.len() - 1;
        let mut code = 0u64;
        let mut len = 0usize;
        loop {
            code = (code << 1) | r.read_bit()? as u64;
            len += 1;
            if len > max_len {
                return Err(CodecError::Huffman(HuffmanError::BadStream));
            }
            // A valid length-`len` code satisfies
            // first_code[len] <= code < first_code[len] + count[len].
            let fc = self.first_code[len];
            if code >= fc && code - fc < self.count[len] {
                return Ok(self.sorted[self.first_index[len] + (code - fc) as usize].0);
            }
        }
    }

    /// Serialize the codebook sparsely: alphabet size, used-symbol count,
    /// then `(symbol, length)` pairs. Quantization-code alphabets are huge
    /// (SZ default: 65537 symbols) but only a few hundred are typically
    /// used, so sparse headers are orders of magnitude smaller than dense.
    pub fn write_codebook(&self, w: &mut BitWriter) {
        w.write_bits(self.alphabet_len as u64, 32);
        w.write_bits(self.sorted.len() as u64, 32);
        for &(s, l) in &self.sorted {
            w.write_bits(s as u64, 32);
            w.write_bits(l as u64, 6);
        }
    }

    /// Deserialize a codebook written by [`HuffmanCodec::write_codebook`].
    ///
    /// The header is untrusted: a used-symbol count the remaining stream
    /// cannot hold is refused before anything is allocated for it.
    pub fn read_codebook(r: &mut BitReader<'_>) -> Result<Self, CodecError> {
        let bad = CodecError::Huffman(HuffmanError::BadCodebook);
        let n = r.read_bits(32)? as u32;
        if n == 0 || n > (1 << 26) {
            return Err(bad);
        }
        let n_used = r.read_bits(32)? as usize;
        if n_used == 0 || n_used > n as usize || n_used * PAIR_BITS > r.remaining() {
            return Err(bad);
        }
        let mut pairs = Vec::with_capacity(n_used);
        for _ in 0..n_used {
            let s = r.read_bits(32)? as u32;
            let l = r.read_bits(6)? as u32;
            pairs.push((s, l));
        }
        Ok(Self::from_lengths(n, pairs)?)
    }

    /// Shannon-optimal size estimate in bits for a frequency table — used by
    /// compression-ratio diagnostics.
    pub fn entropy_bits(freqs: &[u64]) -> f64 {
        let total: u64 = freqs.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let tf = total as f64;
        freqs
            .iter()
            .filter(|&&f| f > 0)
            .map(|&f| {
                let p = f as f64 / tf;
                -(f as f64) * p.log2()
            })
            .sum()
    }
}

/// Symbol → code lookup for the encoder over two dense windows of the used
/// symbols, split at the widest gap between consecutive ones: SZ's outlier
/// symbol 0 sits far below its window of quantization codes, and would
/// otherwise stretch one window across half the alphabet. Each entry packs
/// the bit-reversed code (ready for the LSB-first [`BitWriter`]) in its low
/// bits and the code length in its top byte; 0 marks an unused symbol.
struct EncodeTable {
    /// `(first symbol, entries)` per window, in symbol order.
    windows: [(u32, Vec<u64>); 2],
}

impl EncodeTable {
    fn new(codec: &HuffmanCodec) -> Self {
        let mut symbols: Vec<u32> = codec.sorted.iter().map(|p| p.0).collect();
        symbols.sort_unstable();
        let split = symbols
            .windows(2)
            .max_by_key(|p| p[1] - p[0])
            .map_or(symbols[0], |p| p[1]);
        let (below, above) = symbols.split_at(symbols.partition_point(|&s| s < split));
        let window = |part: &[u32]| match (part.first(), part.last()) {
            (Some(&lo), Some(&hi)) => (lo, vec![0u64; (hi - lo) as usize + 1]),
            _ => (split, Vec::new()),
        };
        let mut table = EncodeTable {
            windows: [window(below), window(above)],
        };
        for (s, code, len) in codec.codes() {
            let reversed = code.reverse_bits() >> (64 - len);
            let (lo, entries) = &mut table.windows[(s >= split) as usize];
            entries[(s - *lo) as usize] = reversed | ((len as u64) << 56);
        }
        table
    }

    /// The bit-reversed code and length of `s`, if it is used.
    #[inline]
    fn get(&self, s: u32) -> Option<(u64, u32)> {
        let (lo, entries) = &self.windows[(s >= self.windows[1].0) as usize];
        let e = *entries.get(s.wrapping_sub(*lo) as usize)?;
        (e != 0).then_some((e & ((1 << 56) - 1), (e >> 56) as u32))
    }
}

/// Widest code the decode table resolves in one lookup.
const TABLE_BITS: u32 = 11;

/// Decode lookup over the next `bits` stream bits (first bit lowest):
/// entry `i` holds the symbol and length of the code those bits start with,
/// or length 0 when no code of at most `bits` bits does.
struct DecodeTable {
    bits: u32,
    entries: Vec<(u32, u32)>,
}

impl DecodeTable {
    fn new(codec: &HuffmanCodec) -> Self {
        let bits = (codec.count.len() as u32 - 1).min(TABLE_BITS);
        let mut entries = vec![(0, 0); 1 << bits];
        for (s, code, len) in codec.codes().filter(|c| c.2 <= bits) {
            // The code's first bit is its most significant one.
            let reversed = (code.reverse_bits() >> (64 - len)) as usize;
            for e in entries[reversed..].iter_mut().step_by(1 << len) {
                *e = (s, len);
            }
        }
        DecodeTable { bits, entries }
    }
}

/// Limit code lengths to `max` by shallowing over-deep leaves and repairing
/// the Kraft sum (simple heuristic, adequate for quantization codes).
fn limit_lengths(lengths: &mut [u32], max: u32) {
    if lengths.iter().all(|&l| l <= max) {
        return;
    }
    // Clamp, then fix Kraft by deepening the shallowest leaves as needed.
    for l in lengths.iter_mut() {
        if *l > max {
            *l = max;
        }
    }
    let unit = |l: u32| 1u128 << (max - l);
    let budget = 1u128 << max;
    let mut kraft: u128 = lengths.iter().filter(|&&l| l > 0).map(|&l| unit(l)).sum();
    while kraft > budget {
        // Deepen the shallowest deepenable symbol.
        let (idx, _) = lengths
            .iter()
            .enumerate()
            .filter(|(_, &l)| l > 0 && l < max)
            .min_by_key(|(_, &l)| l)
            .expect("kraft violation must be repairable");
        kraft -= unit(lengths[idx]) - unit(lengths[idx] + 1);
        lengths[idx] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(symbols: &[u32], alphabet: u32) {
        let counts = HuffmanCodec::counts_of(symbols.iter().copied());
        let codec = HuffmanCodec::from_counts(alphabet, &counts).unwrap();
        let mut w = BitWriter::new();
        codec.write_codebook(&mut w);
        codec.encode(symbols, &mut w).unwrap();
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        let codec2 = HuffmanCodec::read_codebook(&mut r).unwrap();
        let decoded = codec2.decode(&mut r, symbols.len()).unwrap();
        assert_eq!(decoded, symbols);
    }

    #[test]
    fn roundtrip_small() {
        roundtrip(&[0, 1, 2, 1, 0, 0, 0, 3, 2, 1, 0], 4);
    }

    #[test]
    fn roundtrip_single_symbol_alphabet() {
        roundtrip(&[5; 100], 8);
    }

    #[test]
    fn roundtrip_skewed_distribution() {
        let mut syms = vec![7u32; 10_000];
        for i in 0..100 {
            syms[i * 97] = (i % 30) as u32;
        }
        roundtrip(&syms, 32);
    }

    #[test]
    fn skewed_distribution_compresses() {
        let counts: Vec<(u32, u64)> = (0..16)
            .map(|s| (s, if s == 0 { 1_000_000 } else { 10 }))
            .collect();
        let codec = HuffmanCodec::from_counts(16, &counts).unwrap();
        assert_eq!(codec.length_of(0), 1);
        let total: u64 = counts.iter().map(|c| c.1).sum();
        let coded_bits: u64 = counts
            .iter()
            .map(|&(s, f)| f * codec.length_of(s) as u64)
            .sum();
        assert!(
            (coded_bits as f64) < 1.1 * total as f64,
            "should be ~1 bit/symbol"
        );
    }

    #[test]
    fn unknown_symbol_rejected() {
        let codec = HuffmanCodec::from_counts(3, &[(0, 5), (1, 5)]).unwrap();
        let mut w = BitWriter::new();
        assert_eq!(
            codec.encode(&[2], &mut w),
            Err(HuffmanError::UnknownSymbol(2))
        );
    }

    #[test]
    fn empty_frequency_table_rejected() {
        assert!(HuffmanCodec::from_counts(3, &[(0, 0), (2, 0)]).is_err());
        assert!(HuffmanCodec::from_counts(3, &[]).is_err());
    }

    #[test]
    fn entropy_matches_uniform() {
        let bits = HuffmanCodec::entropy_bits(&[1, 1, 1, 1]);
        assert!((bits - 8.0).abs() < 1e-9); // 4 symbols × 2 bits
    }

    #[test]
    fn canonical_codes_are_prefix_free() {
        let counts: Vec<(u32, u64)> = (0..).zip([50u64, 30, 10, 5, 3, 1, 1]).collect();
        let codec = HuffmanCodec::from_counts(7, &counts).unwrap();
        let codes: Vec<_> = codec.codes().collect();
        assert_eq!(codes.len(), counts.len());
        for &(a, ca, la) in &codes {
            for &(b, cb, lb) in &codes {
                if a != b && la <= lb {
                    assert_ne!(cb >> (lb - la), ca, "code {a} prefixes {b}");
                }
            }
        }
    }

    #[test]
    fn length_limiting_repairs_kraft() {
        let mut lengths = vec![60u32, 60, 2, 3, 3];
        limit_lengths(&mut lengths, 8);
        assert!(lengths.iter().all(|&l| l <= 8));
        let kraft: u128 = lengths.iter().map(|&l| 1u128 << (8 - l)).sum();
        assert!(kraft <= 1 << 8);
        // And the codebook still builds.
        let pairs = (0..).zip(lengths).collect();
        assert!(HuffmanCodec::from_lengths(5, pairs).is_ok());
    }

    /// A codebook header followed by `pairs`, as `write_codebook` lays it
    /// out, padded with `extra` zero bytes.
    fn header(alphabet: u32, n_used: u32, pairs: &[(u32, u32)], extra: usize) -> Vec<u8> {
        let mut w = BitWriter::new();
        w.write_bits(alphabet as u64, 32);
        w.write_bits(n_used as u64, 32);
        for &(s, l) in pairs {
            w.write_bits(s as u64, 32);
            w.write_bits(l as u64, 6);
        }
        let mut bytes = w.into_bytes();
        bytes.resize(bytes.len() + extra, 0);
        bytes
    }

    fn read(bytes: &[u8]) -> Result<HuffmanCodec, CodecError> {
        HuffmanCodec::read_codebook(&mut BitReader::new(bytes))
    }

    #[test]
    fn used_count_beyond_the_stream_is_refused() {
        // 16 bytes declaring 2^26 used symbols: 38 bits each cannot fit in
        // the 64 bits that follow the header.
        let bytes = header(1 << 26, 1 << 26, &[], 8);
        assert_eq!(bytes.len(), 16);
        let bad = CodecError::Huffman(HuffmanError::BadCodebook);
        assert_eq!(read(&bytes).unwrap_err(), bad);
        // One pair short of the declared count is refused too; exactly
        // enough bits parse.
        let pairs = [(0, 1), (3, 1)];
        assert_eq!(read(&header(4, 3, &pairs, 0)).unwrap_err(), bad);
        assert!(read(&header(4, 2, &pairs, 0)).is_ok());
    }

    #[test]
    fn duplicate_symbols_are_refused() {
        let bad = CodecError::Huffman(HuffmanError::BadCodebook);
        for pairs in [[(2, 2), (2, 2), (3, 1)], [(2, 1), (3, 2), (2, 2)]] {
            assert_eq!(read(&header(8, 3, &pairs, 0)).unwrap_err(), bad);
        }
    }

    #[test]
    fn out_of_alphabet_and_zero_length_pairs_are_refused() {
        let bad = CodecError::Huffman(HuffmanError::BadCodebook);
        assert_eq!(read(&header(4, 2, &[(1, 1), (4, 1)], 0)).unwrap_err(), bad);
        assert_eq!(read(&header(4, 2, &[(1, 1), (2, 0)], 0)).unwrap_err(), bad);
        // Three 1-bit codes violate Kraft.
        let over = [(0, 1), (1, 1), (2, 1)];
        assert_eq!(read(&header(4, 3, &over, 0)).unwrap_err(), bad);
    }

    #[test]
    fn counts_cover_the_span_of_the_symbols() {
        let symbols = [40_002u32, 39_998, 40_002, 40_000, 40_002];
        let counts = HuffmanCodec::counts_of(symbols.iter().copied());
        assert_eq!(counts, [(39_998, 1), (40_000, 1), (40_002, 3)]);
        assert!(HuffmanCodec::counts_of(std::iter::empty()).is_empty());
    }

    #[test]
    fn decode_table_resolves_every_short_code() {
        // A complete code (Kraft sum 1): every table entry starts with
        // exactly one codeword, the one whose bits it begins with.
        let counts: Vec<(u32, u64)> = (0..).zip([40u64, 20, 10, 5, 3, 2, 1, 1]).collect();
        let codec = HuffmanCodec::from_counts(8, &counts).unwrap();
        let table = DecodeTable::new(&codec);
        assert_eq!(table.bits, 7);
        for (i, &(symbol, len)) in table.entries.iter().enumerate() {
            let (s, code, l) = codec
                .codes()
                .find(|&(_, code, l)| (code.reverse_bits() >> (64 - l)) as usize == i % (1 << l))
                .unwrap();
            assert_eq!((symbol, len), (s, l), "entry {i:#b}, code {code:#b}");
        }
    }

    #[test]
    fn encode_table_splits_at_the_widest_gap() {
        // SZ's shape: the outlier symbol far below a window of codes.
        let counts = [(0, 3), (32_760, 5), (32_769, 90), (32_771, 7)];
        let codec = HuffmanCodec::from_counts(65_537, &counts).unwrap();
        let table = EncodeTable::new(&codec);
        assert_eq!(table.windows[0].0, 0);
        assert_eq!(table.windows[0].1.len(), 1);
        assert_eq!(table.windows[1].0, 32_760);
        assert_eq!(table.windows[1].1.len(), 12);
        for s in [1, 32_759, 32_761, 32_772, 65_536, u32::MAX] {
            assert_eq!(table.get(s), None, "symbol {s}");
        }
        for (s, code, len) in codec.codes() {
            let reversed = code.reverse_bits() >> (64 - len);
            assert_eq!(table.get(s), Some((reversed, len)), "symbol {s}");
        }
        roundtrip(&[32_769, 0, 32_760, 32_771, 32_769, 0, 32_769], 65_537);
    }
}
