//! LSB-first bit-level I/O used by the Huffman and ZFP-like codecs.

use crate::CodecError;

/// Widest access served in one step: a read starts at most 7 bits into a
/// byte, so 56 bits always fit the one `u64` it loads. Wider accesses split
/// in two.
const WIDE: u32 = 56;

/// Append-only bit sink. Bits are packed least-significant-bit-first within
/// each byte, so short writes of `n` bits store the low `n` bits of `value`.
#[derive(Default, Debug, Clone)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Bits not yet flushed to `bytes`, first bit lowest (fewer than 64).
    pending: u64,
    /// Number of bits in `pending`.
    n_pending: u32,
}

impl BitWriter {
    /// Empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append the low `n` bits of `value` (n ≤ 64).
    #[inline]
    pub fn write_bits(&mut self, value: u64, n: u32) {
        debug_assert!(n <= 64);
        if n > WIDE {
            self.write_bits(value, 32);
            self.write_bits(value >> 32, n - 32);
            return;
        }
        let value = value & ((1u64 << n) - 1);
        self.pending |= value << self.n_pending;
        let free = 64 - self.n_pending;
        if n < free {
            self.n_pending += n;
        } else {
            // `pending` is full: flush it and keep the bits that did not fit.
            self.bytes.extend_from_slice(&self.pending.to_le_bytes());
            self.pending = value >> free;
            self.n_pending = n - free;
        }
    }

    /// Append a single bit.
    #[inline]
    pub fn write_bit(&mut self, bit: bool) {
        self.write_bits(bit as u64, 1);
    }

    /// Total bits written so far.
    pub fn bit_len(&self) -> usize {
        self.bytes.len() * 8 + self.n_pending as usize
    }

    /// Finish, returning the packed bytes (final partial byte zero-padded).
    pub fn into_bytes(mut self) -> Vec<u8> {
        let tail = self.n_pending.div_ceil(8) as usize;
        self.bytes
            .extend_from_slice(&self.pending.to_le_bytes()[..tail]);
        self.bytes
    }
}

/// Bit-level reader matching [`BitWriter`]'s packing.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    pos_bits: usize,
}

impl<'a> BitReader<'a> {
    /// Read from the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, pos_bits: 0 }
    }

    /// Bits remaining.
    pub fn remaining(&self) -> usize {
        self.bytes.len() * 8 - self.pos_bits
    }

    /// The next `n` bits (n ≤ 56) as the low bits of the result, without
    /// consuming them. Bits past the end of the stream read as 0.
    #[inline]
    pub(crate) fn peek_bits(&self, n: u32) -> u64 {
        debug_assert!(n <= WIDE);
        let at = self.pos_bits / 8;
        let word = match self.bytes.get(at..at + 8) {
            Some(b) => u64::from_le_bytes(b.try_into().expect("8-byte slice")),
            None => {
                let mut b = [0u8; 8];
                let tail = &self.bytes[at..];
                b[..tail.len()].copy_from_slice(tail);
                u64::from_le_bytes(b)
            }
        };
        (word >> (self.pos_bits % 8)) & ((1u64 << n) - 1)
    }

    /// Consume `n` bits already inspected with `peek_bits` (n ≤ remaining).
    #[inline]
    pub(crate) fn skip_bits(&mut self, n: u32) {
        debug_assert!(n as usize <= self.remaining());
        self.pos_bits += n as usize;
    }

    /// Read `n` bits (n ≤ 64) as the low bits of the result.
    #[inline]
    pub fn read_bits(&mut self, n: u32) -> Result<u64, CodecError> {
        debug_assert!(n <= 64);
        if (n as usize) > self.remaining() {
            return Err(CodecError::Corrupt("bitstream exhausted"));
        }
        if n > WIDE {
            let low = self.read_bits(32)?;
            return Ok(low | self.read_bits(n - 32)? << 32);
        }
        let value = self.peek_bits(n);
        self.skip_bits(n);
        Ok(value)
    }

    /// Read a single bit.
    #[inline]
    pub fn read_bit(&mut self) -> Result<bool, CodecError> {
        Ok(self.read_bits(1)? != 0)
    }

    /// Current bit offset from the start.
    pub fn position(&self) -> usize {
        self.pos_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_mixed_widths() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0xDEAD_BEEF, 32);
        w.write_bit(true);
        w.write_bits(0x1FFF, 13);
        w.write_bits(u64::MAX, 64);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert_eq!(r.read_bits(32).unwrap(), 0xDEAD_BEEF);
        assert!(r.read_bit().unwrap());
        assert_eq!(r.read_bits(13).unwrap(), 0x1FFF);
        assert_eq!(r.read_bits(64).unwrap(), u64::MAX);
    }

    #[test]
    fn bit_len_tracks_writes() {
        let mut w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        w.write_bits(0, 5);
        assert_eq!(w.bit_len(), 5);
        w.write_bits(0, 8);
        assert_eq!(w.bit_len(), 13);
        assert_eq!(w.into_bytes().len(), 2);
    }

    #[test]
    fn masked_high_bits_do_not_leak() {
        let mut w = BitWriter::new();
        w.write_bits(u64::MAX, 4); // only low 4 bits should land
        w.write_bits(0, 4);
        let bytes = w.into_bytes();
        assert_eq!(bytes, vec![0x0F]);
    }

    #[test]
    fn exhaustion_is_an_error() {
        let mut w = BitWriter::new();
        w.write_bits(3, 2);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert!(r.read_bits(8).is_ok()); // padded byte is readable
        assert!(r.read_bits(1).is_err());
    }

    #[test]
    fn zero_width_reads_and_writes() {
        let mut w = BitWriter::new();
        w.write_bits(123, 0);
        assert_eq!(w.bit_len(), 0);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(0).unwrap(), 0);
    }

    #[test]
    fn many_single_bits() {
        let mut w = BitWriter::new();
        let pattern: Vec<bool> = (0..257).map(|i| i % 3 == 0).collect();
        for &b in &pattern {
            w.write_bit(b);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for (i, &b) in pattern.iter().enumerate() {
            assert_eq!(r.read_bit().unwrap(), b, "bit {i}");
        }
    }
}
