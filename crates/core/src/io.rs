//! Input engine: raw binary scientific data I/O (the format SDRBench
//! distributes — headerless little/big-endian float arrays).

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;
use zc_tensor::{Element, Shape, Tensor};

/// Byte order of a raw binary file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Endianness {
    /// Little-endian (SDRBench default).
    Little,
    /// Big-endian.
    Big,
}

/// I/O errors.
#[derive(Debug)]
pub enum IoError {
    /// Underlying filesystem error.
    Io(io::Error),
    /// File size does not match `shape.len() * elem_size`.
    SizeMismatch {
        /// Expected bytes.
        expected: u64,
        /// Actual bytes.
        got: u64,
    },
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::SizeMismatch { expected, got } => {
                write!(f, "file holds {got} bytes, shape expects {expected}")
            }
        }
    }
}

impl std::error::Error for IoError {}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Read a raw binary tensor of the given shape.
pub fn read_raw<T: Element>(
    path: &Path,
    shape: Shape,
    endian: Endianness,
) -> Result<Tensor<T>, IoError> {
    let file = File::open(path)?;
    // Saturating: a shape too large to address can never match a file.
    let expected = (shape.len() as u64).saturating_mul(T::BYTES as u64);
    let got = file.metadata()?.len();
    if got != expected {
        return Err(IoError::SizeMismatch { expected, got });
    }
    let mut rd = BufReader::new(file);
    let mut buf = vec![0u8; shape.len() * T::BYTES];
    rd.read_exact(&mut buf)?;
    let data: Vec<T> = buf
        .chunks_exact(T::BYTES)
        .map(|c| {
            if endian == Endianness::Little {
                T::from_le_slice(c)
            } else {
                let mut rev: Vec<u8> = c.to_vec();
                rev.reverse();
                T::from_le_slice(&rev)
            }
        })
        .collect();
    Ok(Tensor::from_vec(shape, data).expect("length checked"))
}

/// Write a tensor as raw binary.
pub fn write_raw<T: Element>(
    path: &Path,
    t: &Tensor<T>,
    endian: Endianness,
) -> Result<(), IoError> {
    let mut w = BufWriter::new(File::create(path)?);
    for &v in t.iter() {
        let mut bytes = v.to_le_bytes_vec();
        if endian == Endianness::Big {
            bytes.reverse();
        }
        w.write_all(&bytes)?;
    }
    w.flush()?;
    Ok(())
}

/// Write one z-slice of a tensor as an 8-bit PGM image (the Fig. 9
/// dataset-visualization output), normalizing values to the slice range.
pub fn write_pgm_slice(path: &Path, t: &Tensor<f32>, z: usize) -> Result<(), IoError> {
    let s = t.shape();
    assert!(z < s.nz(), "slice out of range");
    let (nx, ny) = (s.nx(), s.ny());
    let mut mn = f32::INFINITY;
    let mut mx = f32::NEG_INFINITY;
    for y in 0..ny {
        for x in 0..nx {
            let v = t.at3(x, y, z);
            if v.is_finite() {
                mn = mn.min(v);
                mx = mx.max(v);
            }
        }
    }
    let range = if mx > mn { mx - mn } else { 1.0 };
    let mut w = BufWriter::new(File::create(path)?);
    write!(w, "P5\n{nx} {ny}\n255\n")?;
    for y in 0..ny {
        for x in 0..nx {
            let v = t.at3(x, y, z);
            let g = if v.is_finite() {
                ((v - mn) / range * 255.0) as u8
            } else {
                0
            };
            w.write_all(&[g])?;
        }
    }
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("zc_io_test_{}_{name}", std::process::id()));
        p
    }

    #[test]
    fn raw_roundtrip_little_endian() {
        let t = Tensor::from_fn(Shape::d3(5, 4, 3), |[x, y, z, _]| {
            x as f32 + 10.0 * y as f32 - z as f32 * 0.5
        });
        let p = tmp("le.bin");
        write_raw(&p, &t, Endianness::Little).unwrap();
        let back: Tensor<f32> = read_raw(&p, t.shape(), Endianness::Little).unwrap();
        assert_eq!(back.as_slice(), t.as_slice());
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn raw_roundtrip_big_endian_f64() {
        let t = Tensor::from_fn(Shape::d2(7, 3), |[x, y, ..]| (x * 100 + y) as f64 * 0.125);
        let p = tmp("be.bin");
        write_raw(&p, &t, Endianness::Big).unwrap();
        let back: Tensor<f64> = read_raw(&p, t.shape(), Endianness::Big).unwrap();
        assert_eq!(back.as_slice(), t.as_slice());
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn size_mismatch_is_detected() {
        let t = Tensor::<f32>::zeros(Shape::d1(10));
        let p = tmp("short.bin");
        write_raw(&p, &t, Endianness::Little).unwrap();
        let r: Result<Tensor<f32>, _> = read_raw(&p, Shape::d1(11), Endianness::Little);
        assert!(matches!(r, Err(IoError::SizeMismatch { .. })));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn endianness_actually_differs() {
        let t = Tensor::from_vec(Shape::d1(1), vec![1.0f32]).unwrap();
        let (p1, p2) = (tmp("e1.bin"), tmp("e2.bin"));
        write_raw(&p1, &t, Endianness::Little).unwrap();
        write_raw(&p2, &t, Endianness::Big).unwrap();
        let b1 = std::fs::read(&p1).unwrap();
        let b2 = std::fs::read(&p2).unwrap();
        assert_ne!(b1, b2);
        let mut rev = b2.clone();
        rev.reverse();
        assert_eq!(b1, rev);
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p2).ok();
    }

    #[test]
    fn pgm_has_header_and_payload() {
        let t = Tensor::from_fn(Shape::d3(8, 6, 2), |[x, ..]| x as f32);
        let p = tmp("img.pgm");
        write_pgm_slice(&p, &t, 1).unwrap();
        let bytes = std::fs::read(&p).unwrap();
        assert!(bytes.starts_with(b"P5\n8 6\n255\n"));
        assert_eq!(bytes.len(), b"P5\n8 6\n255\n".len() + 48);
        std::fs::remove_file(&p).ok();
    }
}

// ---------------------------------------------------------------------------
// ZCF container format
// ---------------------------------------------------------------------------

/// Magic bytes of the ZCF container.
const ZCF_MAGIC: &[u8; 4] = b"ZCF1";

/// Errors specific to the ZCF container.
#[derive(Debug)]
pub enum ZcfError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Not a ZCF file / wrong version.
    BadMagic,
    /// Header fields are inconsistent (dtype, dims, payload size).
    BadHeader(&'static str),
    /// File holds a different element type than requested.
    WrongType {
        /// Tag stored in the file.
        stored: String,
        /// Tag requested by the reader.
        requested: &'static str,
    },
}

impl std::fmt::Display for ZcfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ZcfError::Io(e) => write!(f, "i/o error: {e}"),
            ZcfError::BadMagic => write!(f, "not a ZCF file"),
            ZcfError::BadHeader(msg) => write!(f, "bad ZCF header: {msg}"),
            ZcfError::WrongType { stored, requested } => {
                write!(f, "file stores {stored}, reader requested {requested}")
            }
        }
    }
}

impl std::error::Error for ZcfError {}

impl From<io::Error> for ZcfError {
    fn from(e: io::Error) -> Self {
        ZcfError::Io(e)
    }
}

/// Write a tensor as a self-describing ZCF file.
///
/// ZCF is this project's stand-in for the HDF5/NetCDF formats Z-checker's
/// input engine reads (those libraries are unavailable offline). Layout,
/// all little-endian:
///
/// ```text
/// offset 0   "ZCF1"
///        4   u8  dtype tag length, then the tag ("f32" / "f64")
///        .   u8  ndim (1..=4)
///        .   u64 × ndim extents (x fastest)
///        .   payload (len·elem_size bytes, little-endian values)
/// ```
pub fn write_zcf<T: Element>(path: &Path, t: &Tensor<T>) -> Result<(), ZcfError> {
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(ZCF_MAGIC)?;
    let tag = T::TAG.as_bytes();
    w.write_all(&[tag.len() as u8])?;
    w.write_all(tag)?;
    let s = t.shape();
    w.write_all(&[s.ndim() as u8])?;
    for i in 0..s.ndim() {
        w.write_all(&(s.dims()[i] as u64).to_le_bytes())?;
    }
    for &v in t.iter() {
        w.write_all(&v.to_le_bytes_vec())?;
    }
    w.flush()?;
    Ok(())
}

/// Read a ZCF file written by [`write_zcf`]. The element type must match
/// the stored tag.
pub fn read_zcf<T: Element>(path: &Path) -> Result<Tensor<T>, ZcfError> {
    let file = File::open(path)?;
    let file_len = file.metadata()?.len();
    let mut r = BufReader::new(file);
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != ZCF_MAGIC {
        return Err(ZcfError::BadMagic);
    }
    let mut b1 = [0u8; 1];
    r.read_exact(&mut b1)?;
    let tag_len = b1[0] as usize;
    if tag_len == 0 || tag_len > 16 {
        return Err(ZcfError::BadHeader("implausible dtype tag"));
    }
    let mut tag = vec![0u8; tag_len];
    r.read_exact(&mut tag)?;
    let stored = String::from_utf8_lossy(&tag).to_string();
    if stored != T::TAG {
        return Err(ZcfError::WrongType {
            stored,
            requested: T::TAG,
        });
    }
    r.read_exact(&mut b1)?;
    let ndim = b1[0] as usize;
    if !(1..=4).contains(&ndim) {
        return Err(ZcfError::BadHeader("ndim must be 1..=4"));
    }
    let mut dims = Vec::with_capacity(ndim);
    for _ in 0..ndim {
        let mut b8 = [0u8; 8];
        r.read_exact(&mut b8)?;
        let d = u64::from_le_bytes(b8) as usize;
        if d == 0 || d > (1 << 32) {
            return Err(ZcfError::BadHeader("implausible extent"));
        }
        dims.push(d);
    }
    let shape = Shape::new(&dims).map_err(|_| ZcfError::BadHeader("invalid shape"))?;
    if shape.len().checked_mul(T::BYTES).is_none() || shape.len() > (1 << 34) {
        return Err(ZcfError::BadHeader("payload too large"));
    }
    // Compare the declared payload with what the file holds before
    // allocating it: a short file or trailing garbage is a header/payload
    // inconsistency, not an allocation the header gets to size.
    let header_len = (4 + 1 + tag_len + 1 + 8 * ndim) as u64;
    let remaining = file_len.saturating_sub(header_len);
    if remaining != (shape.len() * T::BYTES) as u64 {
        return Err(ZcfError::BadHeader("payload length does not match header"));
    }
    let mut payload = vec![0u8; shape.len() * T::BYTES];
    r.read_exact(&mut payload)?;
    let data: Vec<T> = payload
        .chunks_exact(T::BYTES)
        .map(T::from_le_slice)
        .collect();
    Ok(Tensor::from_vec(shape, data).expect("length checked"))
}

#[cfg(test)]
mod zcf_tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("zcf_test_{}_{name}", std::process::id()));
        p
    }

    #[test]
    fn zcf_roundtrip_f32_3d() {
        let t = Tensor::from_fn(Shape::d3(7, 5, 3), |[x, y, z, _]| {
            (x * 100 + y * 10 + z) as f32 * 0.5
        });
        let p = tmp("a.zcf");
        write_zcf(&p, &t).unwrap();
        let back: Tensor<f32> = read_zcf(&p).unwrap();
        assert_eq!(back.shape(), t.shape());
        assert_eq!(back.as_slice(), t.as_slice());
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn zcf_roundtrip_f64_1d() {
        let t = Tensor::from_fn(Shape::d1(100), |[x, ..]| x as f64 * 1e-7);
        let p = tmp("b.zcf");
        write_zcf(&p, &t).unwrap();
        let back: Tensor<f64> = read_zcf(&p).unwrap();
        assert_eq!(back.as_slice(), t.as_slice());
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn zcf_shape_is_self_describing() {
        let t = Tensor::from_fn(Shape::d4(3, 4, 5, 2), |[x, ..]| x as f32);
        let p = tmp("c.zcf");
        write_zcf(&p, &t).unwrap();
        // No shape passed to the reader — it comes from the file.
        let back: Tensor<f32> = read_zcf(&p).unwrap();
        assert_eq!(back.shape().dims(), [3, 4, 5, 2]);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn zcf_type_mismatch_is_detected() {
        let t = Tensor::<f32>::zeros(Shape::d1(4));
        let p = tmp("d.zcf");
        write_zcf(&p, &t).unwrap();
        let r: Result<Tensor<f64>, _> = read_zcf(&p);
        assert!(matches!(r, Err(ZcfError::WrongType { .. })));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn zcf_rejects_garbage() {
        let p = tmp("e.zcf");
        std::fs::write(&p, b"not a zcf file at all").unwrap();
        let r: Result<Tensor<f32>, _> = read_zcf(&p);
        assert!(matches!(r, Err(ZcfError::BadMagic)));
        std::fs::remove_file(&p).ok();
    }

    /// A ZCF header for an `f32` tensor with `dims`, followed by `payload`.
    fn zcf_bytes(dims: &[u64], payload: &[u8]) -> Vec<u8> {
        let mut b = b"ZCF1".to_vec();
        b.push(3);
        b.extend_from_slice(b"f32");
        b.push(dims.len() as u8);
        for d in dims {
            b.extend_from_slice(&d.to_le_bytes());
        }
        b.extend_from_slice(payload);
        b
    }

    #[test]
    fn zcf_rejects_an_overflowing_element_count() {
        let p = tmp("g.zcf");
        std::fs::write(&p, zcf_bytes(&[1 << 32; 4], &[])).unwrap();
        let r: Result<Tensor<f32>, _> = read_zcf(&p);
        assert!(
            matches!(r, Err(ZcfError::BadHeader("invalid shape"))),
            "{r:?}"
        );
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn zcf_checks_the_declared_payload_before_allocating_it() {
        // 2^34 f32 elements (64 GiB) declared over a 4-byte payload, then
        // one element declared over five bytes of payload.
        let p = tmp("h.zcf");
        for (dims, payload) in [([1u64 << 17, 1 << 17], 4), ([1, 1], 5)] {
            std::fs::write(&p, zcf_bytes(&dims, &vec![0; payload])).unwrap();
            let r: Result<Tensor<f32>, _> = read_zcf(&p);
            assert!(
                matches!(
                    r,
                    Err(ZcfError::BadHeader("payload length does not match header"))
                ),
                "{r:?}"
            );
        }
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn zcf_rejects_truncated_payload() {
        let t = Tensor::<f32>::zeros(Shape::d2(10, 10));
        let p = tmp("f.zcf");
        write_zcf(&p, &t).unwrap();
        let bytes = std::fs::read(&p).unwrap();
        std::fs::write(&p, &bytes[..bytes.len() - 10]).unwrap();
        let r: Result<Tensor<f32>, _> = read_zcf(&p);
        assert!(r.is_err());
        std::fs::remove_file(&p).ok();
    }
}
