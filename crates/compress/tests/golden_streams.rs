//! Golden-value tier for the codecs: a digest of every compressed byte and
//! every decoded f32, pinned per codec on catalog fields.
//!
//! The property tests check that each codec keeps its bound and round-trips;
//! they do not notice an entropy-stage or predictor change that alters the
//! stream while still decoding correctly. Compressed sizes feed every
//! reported ratio and decoded values feed every metric, so the streams must
//! stay bit-stable: these pins fail on any drift.
//!
//! Digests are FNV-1a over the stream bytes and over the decoded f32 bits.
//! If a change is *supposed* to alter the streams, regenerate the constant
//! block with:
//!
//! ```text
//! cargo test -p zc-compress --test golden_streams regen -- --ignored --nocapture
//! ```

use zc_compress::{
    BitGroomCompressor, Compressor, ErrorBound, LosslessCompressor, SzCompressor, ZfpLikeCompressor,
};
use zc_data::{AppDataset, GenOptions};
use zc_tensor::{Shape, Tensor};

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Field 0 of every dataset at `scaled(32)` (the fields the serve
/// benchmarks draw), one catalog time series, and a field carrying NaN,
/// ±inf and spikes far beyond any quantization radius.
fn fields() -> Vec<(String, Tensor<f32>)> {
    let opts = GenOptions::scaled(32);
    let mut out: Vec<(String, Tensor<f32>)> = AppDataset::ALL_EXTENDED
        .iter()
        .map(|ds| (ds.name().to_string(), ds.generate_field(0, &opts).data))
        .collect();
    let series = AppDataset::Hurricane.generate_timeseries(9, 3, &opts);
    out.push(("Hurricane/TC[x3]".to_string(), series.data));
    let mut hostile = Tensor::from_fn(Shape::d3(17, 11, 6), |[x, y, z, _]| {
        (x as f32 * 0.3).sin() + (y as f32 * 0.2).cos() * 0.5 + z as f32 * 0.1
    });
    hostile.set([2, 3, 1, 0], f32::NAN);
    hostile.set([5, 3, 1, 0], f32::INFINITY);
    hostile.set([7, 4, 2, 0], f32::NEG_INFINITY);
    hostile.set([9, 5, 3, 0], 3.0e6);
    hostile.set([10, 5, 3, 0], -2.5e6);
    out.push(("outliers".to_string(), hostile));
    out
}

fn codecs() -> Vec<(&'static str, Box<dyn Compressor>)> {
    vec![
        ("sz-abs", Box::new(SzCompressor::new(ErrorBound::Abs(1e-2)))),
        ("sz-rel", Box::new(SzCompressor::new(ErrorBound::Rel(1e-3)))),
        (
            "sz-abs-r64",
            Box::new(SzCompressor::new(ErrorBound::Abs(1e-4)).with_radius(64)),
        ),
        ("zfp", Box::new(ZfpLikeCompressor::new(12.0))),
        ("lossless", Box::new(LosslessCompressor::new())),
        ("bitgroom", Box::new(BitGroomCompressor::new(10))),
    ]
}

/// `(label, compressed-bytes digest, decoded-bits digest)` per pair.
fn digests() -> Vec<(String, u64, u64)> {
    let mut out = Vec::new();
    for (field, t) in fields() {
        for (codec, c) in codecs() {
            let stream = c.compress(&t);
            let rec = c.decompress(&stream).expect("own stream decodes");
            out.push((
                format!("{field}/{codec}"),
                fnv1a(stream.bytes.iter().copied()),
                fnv1a(
                    rec.as_slice()
                        .iter()
                        .flat_map(|v| v.to_bits().to_le_bytes()),
                ),
            ));
        }
    }
    out
}

const GOLDEN_STREAMS: &[(&str, u64, u64)] = &[
    ("Hurricane/sz-abs", 0xc7ce1eacf9f6b827, 0xdeba9cc2b41f5695),
    ("Hurricane/sz-rel", 0x06da32b9c3554ede, 0xbcfc3f8350e57aba),
    (
        "Hurricane/sz-abs-r64",
        0xdca9750c6a515866,
        0x500ec5b9ba1400db,
    ),
    ("Hurricane/zfp", 0x447ecafe943bb80f, 0xac2d524e40421168),
    ("Hurricane/lossless", 0xc63cc58632f0fc56, 0x3c6ae84bbf9a7d73),
    ("Hurricane/bitgroom", 0xa88996f9247407db, 0x86ae44dbf1ba8635),
    ("NYX/sz-abs", 0xc99fc82bbb052cef, 0x6e8bbbcfe611185a),
    ("NYX/sz-rel", 0xa638554ed43eea82, 0xcac7e10ab57bc17e),
    ("NYX/sz-abs-r64", 0x4e820a64953aefae, 0x6f93d34efc2e44b5),
    ("NYX/zfp", 0xcd4f9585dd78c3ad, 0x37bcedb1d7e6f99c),
    ("NYX/lossless", 0x956af2de66cbd45c, 0x6f93d34efc2e44b5),
    ("NYX/bitgroom", 0x4e2a5b091f9205ef, 0x4b8fc70c4aceee10),
    ("SCALE-LETKF/sz-abs", 0x514c8825094f024b, 0x92103454bfeaef15),
    ("SCALE-LETKF/sz-rel", 0xca1aa2520300cf5d, 0xdfe6f9594d014d69),
    (
        "SCALE-LETKF/sz-abs-r64",
        0x960efac32a1a8133,
        0x582a7887b8a8c384,
    ),
    ("SCALE-LETKF/zfp", 0xcbf360f91c699f0c, 0x46b60762c4bf0b82),
    (
        "SCALE-LETKF/lossless",
        0xe84c22c972d44829,
        0x7a59e4d1412ae25e,
    ),
    (
        "SCALE-LETKF/bitgroom",
        0xdc4a356fff7262a4,
        0xe8f288c18cdd1e3e,
    ),
    ("MIRANDA/sz-abs", 0x76d6e890e3ed118b, 0x29b0692f9ebe9832),
    ("MIRANDA/sz-rel", 0xbdfd781f6bcfa693, 0x61aaff438804a3a1),
    ("MIRANDA/sz-abs-r64", 0xc8fd4f03dd880461, 0x2a0fa8c8da5ad3d6),
    ("MIRANDA/zfp", 0xa846320e72130332, 0x010065a36faedcf1),
    ("MIRANDA/lossless", 0x1971d5a08c599ed6, 0xbdefc55a03048329),
    ("MIRANDA/bitgroom", 0x4c8e03d5670840d6, 0xf03e9b3c5d292787),
    ("CESM-ATM/sz-abs", 0xbe4d10702c3833de, 0x29a783f9fb0c4ba4),
    ("CESM-ATM/sz-rel", 0xe52e58f62a53152a, 0x44958ce24731d9be),
    (
        "CESM-ATM/sz-abs-r64",
        0x84aef0395cccb5c8,
        0x3a911339437356b0,
    ),
    ("CESM-ATM/zfp", 0xa8fc50cfe556f174, 0x37e8295c79635964),
    ("CESM-ATM/lossless", 0xa9d2ef92e276fcab, 0xb87b60ae18714c36),
    ("CESM-ATM/bitgroom", 0x589a0560893473f4, 0xf5f7fb755896a65a),
    (
        "Hurricane/TC[x3]/sz-abs",
        0xbf3cd22772b10e56,
        0x6a9156f7c3846401,
    ),
    (
        "Hurricane/TC[x3]/sz-rel",
        0x04cd583c6d0212e7,
        0xba4794d8f8c5684f,
    ),
    (
        "Hurricane/TC[x3]/sz-abs-r64",
        0x08a5a452b7eda3b1,
        0x64d2b6380856757f,
    ),
    (
        "Hurricane/TC[x3]/zfp",
        0x4a7de67571e59a92,
        0x6307632a552be869,
    ),
    (
        "Hurricane/TC[x3]/lossless",
        0x4edb0bbc23f2140f,
        0xe89be68d4c4338df,
    ),
    (
        "Hurricane/TC[x3]/bitgroom",
        0x5738cd1a5ce8d683,
        0xb4ea4ee7aed396ba,
    ),
    ("outliers/sz-abs", 0xc405b3509b438b23, 0xb495d65ac2987bbf),
    ("outliers/sz-rel", 0x298731979e349840, 0xe1fd6b564327abf3),
    (
        "outliers/sz-abs-r64",
        0xab3ad573e25bc2bd,
        0xecd00cdd62badab1,
    ),
    ("outliers/zfp", 0x9572067b330e7cd8, 0xd0e383c52e6f470c),
    ("outliers/lossless", 0xb41dca78864806f1, 0x69fce90db31855d1),
    ("outliers/bitgroom", 0xba58e1a3549a46c0, 0x093d139680248fc7),
];

#[test]
fn codec_streams_match_golden_digests() {
    let got = digests();
    assert_eq!(got.len(), GOLDEN_STREAMS.len(), "pin every pair");
    for ((label, bytes, decoded), &(want_label, want_bytes, want_decoded)) in
        got.iter().zip(GOLDEN_STREAMS)
    {
        assert_eq!(label, want_label);
        assert_eq!(*bytes, want_bytes, "{label}: compressed bytes drifted");
        assert_eq!(*decoded, want_decoded, "{label}: decoded values drifted");
    }
}

#[test]
#[ignore = "regenerates the golden stream block; run with --nocapture"]
fn regen() {
    println!("const GOLDEN_STREAMS: &[(&str, u64, u64)] = &[");
    for (label, bytes, decoded) in digests() {
        println!("    ({label:?}, {bytes:#018x}, {decoded:#018x}),");
    }
    println!("];");
}
