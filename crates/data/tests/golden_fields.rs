//! Golden-value tier for field generation: a digest of every generated f32,
//! pinned per field recipe and per catalog dataset.
//!
//! The property and catalog tests check what generated fields look like
//! (range, sparsity, correlation); none of them notices a generator change
//! that moves values while keeping their character. The serve cache keys on
//! field digests and every codec and metric consumes these bits, so
//! generation must stay bit-stable: these pins fail on any drift.
//!
//! The digest is FNV-1a over the shape's four extents and then every f32's
//! bits, little-endian — the hash the engine's field digest uses. Values go
//! through libm (`exp`, `sqrt`) and are pinned on the reference CI
//! platform. If a change is *supposed* to alter generated values,
//! regenerate the constant block with:
//!
//! ```text
//! cargo test -p zc-data --test golden_fields regen -- --ignored --nocapture
//! ```

use zc_data::{synthesize_evolving, AppDataset, FieldKind, GenOptions};
use zc_tensor::{Shape, Tensor};

const KINDS: [FieldKind; 8] = [
    FieldKind::Smooth,
    FieldKind::Vortex,
    FieldKind::Plume,
    FieldKind::LogClustered,
    FieldKind::LogSmooth,
    FieldKind::Banded,
    FieldKind::Turbulent,
    FieldKind::TurbulentVelocity,
];

fn fnv1a(t: &Tensor<f32>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let s = t.shape();
    let extents = [s.nx(), s.ny(), s.nz(), s.nw()].map(|d| d as u64);
    let bytes = extents
        .iter()
        .flat_map(|d| d.to_le_bytes())
        .chain(t.as_slice().iter().flat_map(|v| v.to_bits().to_le_bytes()));
    for b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Every pinned field: a label and its data. Per kind, a 3-D field, a 4-D
/// series of independent hyper-slabs, a 4-D evolving series (the catalog's
/// drift) and a 2-D field of the CESM shape; then field 0 of every dataset
/// at `scaled(32)` (the fields the serve benchmarks draw) and one catalog
/// time series.
fn golden_fields() -> Vec<(String, Tensor<f32>)> {
    let cesm = AppDataset::CesmAtm.shape(&GenOptions::scaled(32));
    let shapes = [
        ("3d", Shape::d3(19, 13, 7), None),
        ("4d", Shape::new(&[11, 7, 5, 3]).unwrap(), None),
        ("4d-drift", Shape::new(&[11, 7, 5, 3]).unwrap(), Some(0.04)),
        ("cesm-2d", cesm, None),
    ];
    let mut out = Vec::new();
    for (k, &kind) in KINDS.iter().enumerate() {
        for (tag, shape, drift) in shapes {
            let seed = 0x601D_F1E1D ^ (k as u64) << 40;
            let t = synthesize_evolving(kind, seed, shape, (-3.0, 7.5), drift);
            out.push((format!("{kind:?}/{tag}"), t));
        }
    }
    let opts = GenOptions::scaled(32);
    for ds in AppDataset::ALL_EXTENDED {
        out.push((ds.name().to_string(), ds.generate_field(0, &opts).data));
    }
    let series = AppDataset::Hurricane.generate_timeseries(9, 3, &opts);
    out.push(("Hurricane/TC[x3]".to_string(), series.data));
    out
}

const GOLDEN_DIGESTS: &[(&str, u64)] = &[
    ("Smooth/3d", 0x1c9ddad4669e2630),
    ("Smooth/4d", 0xddd8414d2ebe80ff),
    ("Smooth/4d-drift", 0xa462ea2e0c6729a1),
    ("Smooth/cesm-2d", 0xb6263018e983c49f),
    ("Vortex/3d", 0xf3fe6625b8ff8350),
    ("Vortex/4d", 0x27d053b388c043ec),
    ("Vortex/4d-drift", 0xac0caba604a62cca),
    ("Vortex/cesm-2d", 0xbf9da752f87824b8),
    ("Plume/3d", 0x108e12e09549f601),
    ("Plume/4d", 0xcb534db42748f26d),
    ("Plume/4d-drift", 0x364e9260153de863),
    ("Plume/cesm-2d", 0x8064b50e40ddfc92),
    ("LogClustered/3d", 0xea372e0d8d3f5a20),
    ("LogClustered/4d", 0xa1c9b41f10e95178),
    ("LogClustered/4d-drift", 0xb2b89acf80bcdbff),
    ("LogClustered/cesm-2d", 0x9484b4dc538dba3b),
    ("LogSmooth/3d", 0x1e1f21c2d44b0bd6),
    ("LogSmooth/4d", 0xc8dff4ef04547162),
    ("LogSmooth/4d-drift", 0xfd1b41abc2b1529c),
    ("LogSmooth/cesm-2d", 0xfd08b02767072ee8),
    ("Banded/3d", 0xe0be4250ac6abc19),
    ("Banded/4d", 0x347f4a0e79097e3c),
    ("Banded/4d-drift", 0xe71a7849cd6cd0ff),
    ("Banded/cesm-2d", 0xe2fd5a58b7611645),
    ("Turbulent/3d", 0xe925e7a97a42da80),
    ("Turbulent/4d", 0x43673192b5fcba2b),
    ("Turbulent/4d-drift", 0x4c48a9fa71344b52),
    ("Turbulent/cesm-2d", 0xfcc20c8e2c628487),
    ("TurbulentVelocity/3d", 0xe48f234120c75280),
    ("TurbulentVelocity/4d", 0x978eeda2f7f6d449),
    ("TurbulentVelocity/4d-drift", 0x2eeb1b1c81f66a60),
    ("TurbulentVelocity/cesm-2d", 0x61899763f4e7cecd),
    ("Hurricane", 0xa2bb9dd60d53eb4d),
    ("NYX", 0xb77905e0d6d6b858),
    ("SCALE-LETKF", 0xcde65e5263eb6e44),
    ("MIRANDA", 0x7a49124cd61e9384),
    ("CESM-ATM", 0xe6b37c1c6bfc493e),
    ("Hurricane/TC[x3]", 0x50f0a2e37ec2061f),
];

#[test]
fn generated_fields_match_golden_digests() {
    let fields = golden_fields();
    assert_eq!(fields.len(), GOLDEN_DIGESTS.len(), "pin every field");
    for ((label, t), &(want_label, want)) in fields.iter().zip(GOLDEN_DIGESTS) {
        assert_eq!(label, want_label);
        assert_eq!(fnv1a(t), want, "{label} drifted");
    }
}

#[test]
#[ignore = "regenerates the golden digest block; run with --nocapture"]
fn regen() {
    println!("const GOLDEN_DIGESTS: &[(&str, u64)] = &[");
    for (label, t) in golden_fields() {
        println!("    ({label:?}, {:#018x}),", fnv1a(&t));
    }
    println!("];");
}
