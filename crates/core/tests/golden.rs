//! Golden-value regression tier: every scalar metric of the serial
//! reference executor on a fixed seeded 32³ field, pinned to exact `f64`
//! constants.
//!
//! Purpose: the differential tier (serial vs ompZC/moZC/cuZC)
//! catches executors drifting *apart*, but not all of them drifting
//! *together* — a kernel refactor that changes the math identically in
//! every executor passes differential testing while silently changing
//! metric values. This tier fails loudly on any such drift.
//!
//! The input pair is generated from the repo's own xoshiro256++ stream
//! (integer mixing + f64 scaling only — no transcendental functions), so
//! the *inputs* are bit-stable on every platform. The pinned outputs were
//! produced on the reference CI platform; metrics that involve `log`/
//! `sqrt` (entropy, SNR, PSNR) go through libm and are pinned to that
//! platform's libm.
//!
//! If a change is *supposed* to alter metric values, regenerate the
//! constant block with:
//!
//! ```text
//! cargo test -p zc-core --test golden regen -- --ignored --nocapture
//! ```

use zc_core::exec::{CuZc, Executor, MoZc, OmpZc, SerialZc};
use zc_core::{AssessConfig, Metric, TilingPolicy};
use zc_data::Rng64;
use zc_gpusim::Counters;
use zc_tensor::{Shape, Tensor};

/// The fixed pair: a seeded uniform field in [-1, 1) and a decompressed
/// twin offset by seeded uniform noise in [-1e-3, 1e-3).
fn golden_pair() -> (Tensor<f32>, Tensor<f32>) {
    let shape = Shape::d3(32, 32, 32);
    let mut rng = Rng64::new(0x5EED_601D);
    let orig: Vec<f32> = (0..shape.len())
        .map(|_| rng.uniform_in(-1.0, 1.0) as f32)
        .collect();
    let dec: Vec<f32> = orig
        .iter()
        .map(|&v| v + rng.uniform_in(-1e-3, 1e-3) as f32)
        .collect();
    (
        Tensor::from_vec(shape, orig).unwrap(),
        Tensor::from_vec(shape, dec).unwrap(),
    )
}

/// Every scalar metric pinned: (metric, exact serial value).
const GOLDEN_SCALARS: &[(Metric, f64)] = &[
    (Metric::MinValue, -0.9998397827148438),
    (Metric::MaxValue, 0.9999521374702454),
    (Metric::ValueRange, 1.9997919201850891),
    (Metric::MeanValue, -0.005119646874905431),
    (Metric::Variance, 0.33451547238736173),
    (Metric::Entropy, 7.993707651013099),
    (Metric::MinError, -0.0009999275207519531),
    (Metric::MaxError, 0.0009999275207519531),
    (Metric::AvgError, 0.0004969100299030138),
    (Metric::MaxAbsError, 0.0009999275207519531),
    (Metric::MinPwrError, 7.028925786844312e-8),
    (Metric::MaxPwrError, 8.392319084363864),
    (Metric::AvgPwrError, 0.005026079246094),
    (Metric::Mse, 3.299744592914618e-7),
    (Metric::Rmse, 0.0005744340338902822),
    (Metric::Nrmse, 0.000287246902086251),
    (Metric::Snr, 60.05935884163394),
    (Metric::Psnr, 70.83489292827494),
    (Metric::PearsonCorrelation, 0.9999995068009824),
    (Metric::Derivative1, 0.664529723520768),
    (Metric::Derivative2, 3.180843745380503),
    (Metric::Divergence, -0.0005988601925812502),
    (Metric::Laplacian, 3.180843745380503),
    (Metric::Autocorrelation, 0.0009076035842160374),
    (Metric::DerivativeMse, 1.6469943291395998e-7),
    (Metric::Ssim, 0.9999988223690665),
];

#[test]
fn serial_scalars_match_golden_constants_exactly() {
    let (orig, dec) = golden_pair();
    let a = SerialZc
        .assess(&orig, &dec, &AssessConfig::default())
        .unwrap();
    for &(m, want) in GOLDEN_SCALARS {
        let got = a.report.scalar(m).unwrap_or_else(|| panic!("{m} missing"));
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{m} drifted: got {got:?}, golden {want:?}"
        );
    }
    assert_eq!(a.report.ssim.unwrap().windows, 15625);
}

#[test]
#[ignore = "regenerates the golden constant block; run with --nocapture"]
fn regen() {
    let (orig, dec) = golden_pair();
    let a = SerialZc
        .assess(&orig, &dec, &AssessConfig::default())
        .unwrap();
    println!("const GOLDEN_SCALARS: &[(Metric, f64)] = &[");
    for &(m, _) in GOLDEN_SCALARS {
        println!("    (Metric::{m:?}, {:?}),", a.report.scalar(m).unwrap());
    }
    println!("];");
    println!("ssim windows = {}", a.report.ssim.unwrap().windows);
}

// ---------------------------------------------------------------------------
// Progressive-prepass golden pins: the stride-8 subsample estimates on the
// same fixed pair. The prepass is the basis of campaign early-exits, so its
// estimates are pinned exactly too, as is each executor's charge for it
// (same regen flow: the `regen_prepass` ignored test prints both blocks).

/// Stride used by the pinned prepass (the `ProgressivePolicy` default).
const GOLDEN_PREPASS_STRIDE: usize = 8;

/// (sampled count, PSNR dB, max |error|, max pwr error, value range, MSE).
const GOLDEN_PREPASS: (u64, f64, f64, f64, f64, f64) = (
    4096,
    70.83711901483098,
    0.0009998083114624023,
    1.6268005119591866,
    1.9992009401321411,
    3.296104659803227e-7,
);

#[test]
fn prepass_estimates_match_golden_constants_exactly() {
    let (orig, dec) = golden_pair();
    let run = SerialZc
        .prepass(&orig, &dec, GOLDEN_PREPASS_STRIDE)
        .unwrap();
    let e = run.estimate;
    let (sampled, psnr, max_abs, max_pwr, range, mse) = GOLDEN_PREPASS;
    assert_eq!(e.sampled(), sampled);
    for (name, got, want) in [
        ("psnr_db", e.psnr_db(), psnr),
        ("max_abs_error", e.max_abs_error(), max_abs),
        ("max_pwr_error", e.max_pwr_error(), max_pwr),
        ("value_range", e.value_range(), range),
        ("mse", e.mse(), mse),
    ] {
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "prepass {name} drifted: got {got:?}, golden {want:?}"
        );
    }
    // The estimate is executor-independent: the charged GPU prepass scans
    // the identical host subsample.
    let gpu = zc_core::exec::CuZc::default()
        .prepass(&orig, &dec, GOLDEN_PREPASS_STRIDE)
        .unwrap();
    assert_eq!(gpu.estimate.psnr_db().to_bits(), e.psnr_db().to_bits());
    assert!(gpu.modeled_seconds > 0.0 && run.modeled_seconds == 0.0);
}

/// On both sides of a PSNR threshold far from the estimate, the pruned
/// (prepass-only) verdict must agree with the full assessment's verdict —
/// the soundness contract progressive campaigns rely on.
#[test]
fn pruned_verdict_agrees_with_full_assessment_on_both_sides() {
    use zc_core::recommend::{PrepassDecision, ProgressivePolicy, QualityCriteria};
    let (orig, dec) = golden_pair();
    let run = SerialZc
        .prepass(&orig, &dec, GOLDEN_PREPASS_STRIDE)
        .unwrap();
    let full = SerialZc
        .assess(&orig, &dec, &AssessConfig::default())
        .unwrap();
    let full_psnr = full.report.scalar(Metric::Psnr).unwrap();
    // The golden pair sits near 70.8 dB; 40 and 100 are both far outside
    // the ±3 dB decision margin.
    for (min_psnr, expect_pass) in [(40.0, true), (100.0, false)] {
        let policy = ProgressivePolicy::new(QualityCriteria {
            min_psnr_db: Some(min_psnr),
            ..Default::default()
        });
        let decision = policy.decide(&run.estimate);
        let full_pass = full_psnr >= min_psnr;
        assert_eq!(full_pass, expect_pass, "test premise at {min_psnr} dB");
        match decision {
            PrepassDecision::Accept => assert!(expect_pass, "accepted a failing candidate"),
            PrepassDecision::Reject => assert!(!expect_pass, "rejected a passing candidate"),
            PrepassDecision::Frontier => {
                panic!(
                    "estimate {:.2} dB should be decidable at a {min_psnr} dB bar",
                    run.estimate.psnr_db()
                )
            }
        }
    }
}

/// The four executors whose stride-8 prepass charge is pinned, in the order
/// of [`GOLDEN_PREPASS_CHARGES`].
fn prepass_executors() -> Vec<Box<dyn Executor>> {
    vec![
        Box::new(SerialZc),
        Box::new(OmpZc::default()),
        Box::new(MoZc::default()),
        Box::new(CuZc::default()),
    ]
}

/// A pinned prepass charge's counters: (global read bytes, lane flops,
/// special ops, launches); every other counter is zero.
type Charge = (u64, u64, u64, u64);

/// (executor name, prepass counters, prepass `modeled_seconds` bits).
const GOLDEN_PREPASS_CHARGES: &[(&str, Charge, u64)] = &[
    ("serial", (0, 0, 0, 0), 0x0),
    ("ompZC", (32768, 32768, 8192, 1), 0x3f028de50e888635),
    ("moZC", (262144, 122880, 0, 1), 0x3ed431214adde070),
    ("cuZC", (262144, 122880, 0, 1), 0x3ed431214adde070),
];

/// The full counter set a pinned charge tuple stands for.
fn charge_counters((global_read_bytes, lane_flops, special_ops, launches): Charge) -> Counters {
    Counters {
        global_read_bytes,
        lane_flops,
        special_ops,
        launches,
        ..Default::default()
    }
}

#[test]
fn prepass_charges_match_golden_constants_exactly() {
    let (orig, dec) = golden_pair();
    let execs = prepass_executors();
    assert_eq!(execs.len(), GOLDEN_PREPASS_CHARGES.len());
    for (e, &(name, charge, secs_bits)) in execs.iter().zip(GOLDEN_PREPASS_CHARGES) {
        assert_eq!(e.name(), name);
        let run = e.prepass(&orig, &dec, GOLDEN_PREPASS_STRIDE).unwrap();
        assert_eq!(
            run.counters,
            charge_counters(charge),
            "{name} prepass counters drifted"
        );
        assert_eq!(
            run.modeled_seconds.to_bits(),
            secs_bits,
            "{name} prepass charge drifted: got {:?}, golden {:?}",
            run.modeled_seconds,
            f64::from_bits(secs_bits)
        );
    }
}

#[test]
#[ignore = "regenerates the prepass golden block; run with --nocapture"]
fn regen_prepass() {
    let (orig, dec) = golden_pair();
    let e = SerialZc
        .prepass(&orig, &dec, GOLDEN_PREPASS_STRIDE)
        .unwrap()
        .estimate;
    println!(
        "const GOLDEN_PREPASS: (u64, f64, f64, f64, f64, f64) = ({}, {:?}, {:?}, {:?}, {:?}, {:?});",
        e.sampled(),
        e.psnr_db(),
        e.max_abs_error(),
        e.max_pwr_error(),
        e.value_range(),
        e.mse()
    );
    println!("const GOLDEN_PREPASS_CHARGES: &[(&str, Charge, u64)] = &[");
    for ex in prepass_executors() {
        let run = ex.prepass(&orig, &dec, GOLDEN_PREPASS_STRIDE).unwrap();
        let c = run.counters;
        let charge = (c.global_read_bytes, c.lane_flops, c.special_ops, c.launches);
        assert_eq!(c, charge_counters(charge), "a new counter needs pinning");
        println!(
            "    ({:?}, {charge:?}, {:#x}),",
            ex.name(),
            run.modeled_seconds.to_bits()
        );
    }
    println!("];");
}

// ---------------------------------------------------------------------------
// End-to-end stream-timeline golden pins: every field of `Assessment::e2e`
// (H2D, D2H, compute, serialized, overlapped seconds, as f64 bits) for the
// three device-resident executors at three tiling policies. The counters and
// metric values above cannot see a change to the transfer legs or to how
// passes overlap them; these pins can (same regen flow: the `regen_e2e`
// ignored test prints the block).

/// The tiling policies whose timelines are pinned, in row order.
const E2E_TILINGS: [TilingPolicy; 3] = [
    TilingPolicy::Slabs(4),
    TilingPolicy::Slabs(16),
    TilingPolicy::Monolithic,
];

/// The device-resident executors whose timelines are pinned, in row order.
fn e2e_executors() -> Vec<Box<dyn Executor>> {
    vec![Box::new(CuZc::default()), Box::new(MoZc::default())]
}

/// (executor name, tiling, [h2d, d2h, compute, serialized, overlapped] bits).
#[rustfmt::skip]
const GOLDEN_E2E: &[(&str, TilingPolicy, [u64; 5])] = &[
    ("cuZC", TilingPolicy::Slabs(4), [0x3f1ab2b980f05b22, 0x3f35024e418a16a2, 0x3f4689c9b79f4240, 0x3f5230a404412c7b, 0x3f4e5545a7a7f76b]),
    ("cuZC", TilingPolicy::Slabs(16), [0x3f36673686e6a57f, 0x3f52082201fcf9dc, 0x3f4689d246863201, 0x3f61736c637cde18, 0x3f5a10c6c515e695]),
    ("cuZC", TilingPolicy::Monolithic, [0x3f05f062b48b98dc, 0x3f151f186b7e1fb8, 0x3f4689c9b79f4241, 0x3f4a8cb2f057bfc6, 0x3f4890986c31131d]),
    ("moZC", TilingPolicy::Slabs(4), [0x3f1ab2b980f05b22, 0x3f35024e418a16a2, 0x3f533475ce361072, 0x3f5a2034f6a79bcd, 0x3f55c54735a40d25]),
    ("moZC", TilingPolicy::Slabs(16), [0x3f36673686e6a57f, 0x3f52082201fcf9dc, 0x3f533475ce361071, 0x3f656b32b8f659db, 0x3f605860b0a301b4]),
    ("moZC", TilingPolicy::Monolithic, [0x3f05f062b48b98dc, 0x3f151f186b7e1fb8, 0x3f533475ce361073, 0x3f5535ea6a924f36, 0x3f5437dd287ef8e1]),
];

/// The five `EndToEnd` fields of one run, as f64 bits.
fn e2e_bits(
    e: &dyn Executor,
    orig: &Tensor<f32>,
    dec: &Tensor<f32>,
    tiling: TilingPolicy,
) -> [u64; 5] {
    let cfg = AssessConfig {
        tiling,
        ..AssessConfig::default()
    };
    let t = e
        .assess(orig, dec, &cfg)
        .unwrap()
        .e2e
        .expect("device executor");
    [
        t.h2d_s,
        t.d2h_s,
        t.compute_s,
        t.serialized_s,
        t.overlapped_s,
    ]
    .map(f64::to_bits)
}

#[test]
fn e2e_timelines_match_golden_constants_exactly() {
    let (orig, dec) = golden_pair();
    let execs = e2e_executors();
    assert_eq!(GOLDEN_E2E.len(), execs.len() * E2E_TILINGS.len());
    let mut rows = GOLDEN_E2E.iter();
    for e in &execs {
        for tiling in E2E_TILINGS {
            let &(name, want_tiling, want) = rows.next().unwrap();
            assert_eq!((e.name(), tiling), (name, want_tiling));
            let got = e2e_bits(e.as_ref(), &orig, &dec, tiling);
            assert_eq!(
                got,
                want,
                "{name} {tiling:?} e2e drifted: got {:?}, golden {:?}",
                got.map(f64::from_bits),
                want.map(f64::from_bits)
            );
        }
    }
}

#[test]
#[ignore = "regenerates the e2e golden block; run with --nocapture"]
fn regen_e2e() {
    let (orig, dec) = golden_pair();
    println!("const GOLDEN_E2E: &[(&str, TilingPolicy, [u64; 5])] = &[");
    for e in e2e_executors() {
        for tiling in E2E_TILINGS {
            let bits = e2e_bits(e.as_ref(), &orig, &dec, tiling);
            println!(
                "    ({:?}, TilingPolicy::{tiling:?}, [{}]),",
                e.name(),
                bits.map(|b| format!("{b:#x}")).join(", ")
            );
        }
    }
    println!("];");
}
