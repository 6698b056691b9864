//! Differential properties of the SoA fast path.
//!
//! Every kernel that carries a scalar reference implementation
//! ([`zc_kernels::HasReferencePath`]) must produce **identical** outputs and
//! **identical** counter totals when launched through [`Reference`] — across
//! random shapes, including ragged extents not divisible by the warp width,
//! 1D/2D/3D fields, and fields containing exact zeros (the rel-error guard).

use zc_gpusim::GpuSim;
use zc_kernels::mo::{MoAutocorrKernel, MoHistKernel, MoHistKind, MoP1Kernel, MoP1Metric};
use zc_kernels::p3::SsimParams;
use zc_kernels::{
    FieldPair, HasReferencePath, P1FusedKernel, P1HistKernel, P2FusedKernel, Reference,
    SsimFusedKernel,
};
use zc_tensor::{Shape, Tensor};

/// SplitMix64 — deterministic, no external deps.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn f32(&mut self) -> f32 {
        (self.next() >> 40) as f32 / (1u64 << 24) as f32
    }

    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() as usize) % (hi - lo)
    }
}

/// Random field pair; roughly 1 in 12 original values is exactly zero so the
/// pointwise-relative-error guard takes both branches.
fn fields(shape: Shape, rng: &mut Rng) -> (Tensor<f32>, Tensor<f32>) {
    let n = shape.len();
    let mut orig = Vec::with_capacity(n);
    let mut dec = Vec::with_capacity(n);
    for _ in 0..n {
        let x = if rng.next().is_multiple_of(12) {
            0.0
        } else {
            rng.f32() * 2.0 - 1.0
        };
        orig.push(x);
        dec.push(x + (rng.f32() - 0.5) * 0.01);
    }
    (
        Tensor::from_vec(shape, orig).unwrap(),
        Tensor::from_vec(shape, dec).unwrap(),
    )
}

/// Random shapes exercising ragged x extents (not multiples of 32) and all
/// dimensionalities.
fn shapes(rng: &mut Rng) -> Vec<Shape> {
    vec![
        Shape::d1(rng.range(33, 150)),
        Shape::d2(rng.range(3, 70), rng.range(2, 20)),
        Shape::d3(rng.range(3, 70), rng.range(2, 20), rng.range(1, 8)),
        Shape::d3(32, rng.range(2, 20), rng.range(1, 6)), // exact warp width
        Shape::d3(rng.range(33, 100), rng.range(17, 25), rng.range(2, 6)),
    ]
}

/// Launch `k` through both lane paths and require identical outputs and
/// identical counters (the counter-equivalence invariant: batched charges
/// must sum to exactly the per-access totals).
fn assert_paths_agree<K>(k: &K, grid: usize, what: &str)
where
    K: HasReferencePath,
    K::Output: PartialEq + std::fmt::Debug,
{
    let sim = GpuSim::v100();
    let fast = sim.launch(k, grid);
    let refr = sim.launch(&Reference(k), grid);
    assert_eq!(fast.output, refr.output, "{what}: outputs diverge");
    assert_eq!(fast.counters, refr.counters, "{what}: counters diverge");
    assert_eq!(
        fast.modeled.total_s, refr.modeled.total_s,
        "{what}: modeled times diverge"
    );
}

#[test]
fn p1_fused_fast_path_matches_reference() {
    let mut rng = Rng(1);
    for round in 0..3 {
        for shape in shapes(&mut rng) {
            let (orig, dec) = fields(shape, &mut rng);
            let k = P1FusedKernel {
                fields: FieldPair::new(&orig, &dec),
            };
            assert_paths_agree(&k, k.grid(), &format!("p1 {shape:?} round {round}"));
        }
    }
}

#[test]
fn p1_fused_values_are_bit_identical() {
    let mut rng = Rng(2);
    let shape = Shape::d3(61, 19, 5);
    let (orig, dec) = fields(shape, &mut rng);
    let sim = GpuSim::v100();
    let k = P1FusedKernel {
        fields: FieldPair::new(&orig, &dec),
    };
    let fast = sim.launch(&k, k.grid()).output;
    let refr = sim.launch(&Reference(&k), k.grid()).output;
    // Spot-check bit patterns of accumulated sums (stronger than ==).
    assert_eq!(fast.sum_e2.to_bits(), refr.sum_e2.to_bits());
    assert_eq!(fast.sum_rel.to_bits(), refr.sum_rel.to_bits());
    assert_eq!(fast.sum_xy.to_bits(), refr.sum_xy.to_bits());
    assert_eq!(fast.max_abs_e.to_bits(), refr.max_abs_e.to_bits());
}

#[test]
fn p1_hist_fast_path_matches_reference() {
    let mut rng = Rng(3);
    for shape in shapes(&mut rng) {
        let (orig, dec) = fields(shape, &mut rng);
        let f = FieldPair::new(&orig, &dec);
        let sim = GpuSim::v100();
        let kf = P1FusedKernel { fields: f };
        let scalars = sim.launch(&kf, kf.grid()).output;
        let k = P1HistKernel {
            fields: f,
            scalars,
            bins: 48,
        };
        let grid = k.grid();
        let fast = sim.launch(&k, grid);
        let refr = sim.launch(&Reference(&k), grid);
        assert_eq!(fast.output.err_pdf, refr.output.err_pdf, "{shape:?}");
        assert_eq!(fast.output.rel_pdf, refr.output.rel_pdf, "{shape:?}");
        assert_eq!(fast.output.value_hist, refr.output.value_hist, "{shape:?}");
        assert_eq!(fast.counters, refr.counters, "{shape:?}");
    }
}

/// Pattern-2 shapes beyond [`shapes`]: a 4-D field (its blocks split as
/// `block / nz`), x extents of 1–3 and extents under the widest lag (empty
/// x-runs and rows), and a plane of several bands and tiles in x and y.
fn stencil_shapes(rng: &mut Rng) -> Vec<Shape> {
    vec![
        Shape::d4(
            rng.range(3, 40),
            rng.range(2, 12),
            rng.range(2, 5),
            rng.range(2, 4),
        ),
        Shape::d1(1),
        Shape::d1(2),
        Shape::d1(3),
        Shape::d2(rng.range(1, 4), rng.range(2, 30)),
        Shape::d3(rng.range(1, 4), rng.range(2, 20), rng.range(3, 6)),
        Shape::d2(rng.range(2, 10), rng.range(2, 10)),
        Shape::d3(rng.range(2, 10), rng.range(2, 10), rng.range(2, 10)),
        Shape::d3(rng.range(40, 70), rng.range(35, 60), 3),
    ]
}

#[test]
fn p2_fused_fast_path_matches_reference() {
    // Strides 1..=10 at `max_lag` 10: the default config's widest staged
    // tile.
    let max_lag = 10;
    let mut rng = Rng(4);
    for round in 0..3 {
        let mut cases = shapes(&mut rng);
        cases.extend(stencil_shapes(&mut rng));
        for shape in cases {
            let (orig, dec) = fields(shape, &mut rng);
            for stride in 1..=max_lag {
                let k = P2FusedKernel {
                    fields: FieldPair::new(&orig, &dec),
                    stride,
                    mean_e: 1.5e-4,
                    max_lag,
                };
                assert_paths_agree(
                    &k,
                    k.grid(),
                    &format!("p2 {shape:?} stride {stride} round {round}"),
                );
            }
        }
    }
}

#[test]
fn p3_ssim_fast_path_matches_reference() {
    let mut rng = Rng(5);
    let cases = [
        (8usize, 1usize, true),
        (6, 3, true),
        (4, 2, true),
        (8, 1, false),
    ];
    for shape in shapes(&mut rng) {
        let (orig, dec) = fields(shape, &mut rng);
        for &(wsize, step, fifo) in &cases {
            let params = SsimParams {
                wsize,
                step,
                k1: 0.01,
                k2: 0.03,
                range: 2.0,
            };
            let k = SsimFusedKernel {
                fields: FieldPair::new(&orig, &dec),
                params,
                fifo_in_shared: fifo,
            };
            assert_paths_agree(
                &k,
                k.grid(),
                &format!("p3 {shape:?} w{wsize} s{step} fifo={fifo}"),
            );
        }
    }
}

#[test]
fn mo_p1_fast_path_matches_reference() {
    let mut rng = Rng(6);
    for shape in shapes(&mut rng) {
        let (orig, dec) = fields(shape, &mut rng);
        for metric in MoP1Metric::SCALARS {
            let k = MoP1Kernel {
                fields: FieldPair::new(&orig, &dec),
                metric,
            };
            assert_paths_agree(&k, k.grid(), &format!("moP1 {shape:?} {metric:?}"));
        }
    }
}

#[test]
fn mo_hist_fast_path_matches_reference() {
    let mut rng = Rng(7);
    for shape in shapes(&mut rng) {
        let (orig, dec) = fields(shape, &mut rng);
        let f = FieldPair::new(&orig, &dec);
        let sim = GpuSim::v100();
        let kf = P1FusedKernel { fields: f };
        let scalars = sim.launch(&kf, kf.grid()).output;
        for kind in [
            MoHistKind::ErrPdf,
            MoHistKind::PwrPdf,
            MoHistKind::ValueHist,
        ] {
            let k = MoHistKernel {
                fields: f,
                scalars,
                kind,
                bins: 32,
            };
            assert_paths_agree(&k, k.grid(), &format!("moHist {shape:?} {kind:?}"));
        }
    }
}

#[test]
fn mo_autocorr_fast_path_matches_reference() {
    let mut rng = Rng(8);
    for shape in shapes(&mut rng) {
        let (orig, dec) = fields(shape, &mut rng);
        for lag in 1..=3usize {
            let k = MoAutocorrKernel {
                fields: FieldPair::new(&orig, &dec),
                lag,
                mean_e: -2.0e-4,
                max_lag: 3,
            };
            assert_paths_agree(&k, k.grid(), &format!("moAC {shape:?} lag {lag}"));
        }
    }
}
