//! The paper's §IV-B correctness claim, systematized: on every dataset,
//! all four executors (serial reference, ompZC, moZC, cuZC) produce the
//! same value for every metric — scalars to floating-point reduction
//! tolerance, histograms bit-identically.

use cuz_checker::compress::{Compressor, ErrorBound, SzCompressor};
use cuz_checker::core::config::AssessConfig;
use cuz_checker::core::exec::{Assessment, Executor};
use cuz_checker::core::{CuZc, Metric, MoZc, OmpZc, SerialZc};
use cuz_checker::data::{AppDataset, GenOptions};

fn close(a: f64, b: f64, tol: f64) -> bool {
    if a == b {
        return true; // covers equal infinities
    }
    (a - b).abs() <= tol * b.abs().max(1e-30)
}

fn assess_all(ds: AppDataset, field_idx: usize) -> Vec<(&'static str, Assessment)> {
    let gen = GenOptions::scaled(16);
    let field = ds.generate_field(field_idx, &gen);
    let sz = SzCompressor::new(ErrorBound::Rel(1e-3));
    let (dec, _) = sz.roundtrip(&field.data).expect("roundtrip");
    let cfg = AssessConfig {
        max_lag: 4,
        ..Default::default()
    }; // keep the matrix fast; lags beyond 4 exercised elsewhere
    vec![
        ("serial", SerialZc.assess(&field.data, &dec, &cfg).unwrap()),
        (
            "ompZC",
            OmpZc::default().assess(&field.data, &dec, &cfg).unwrap(),
        ),
        (
            "moZC",
            MoZc::default().assess(&field.data, &dec, &cfg).unwrap(),
        ),
        (
            "cuZC",
            CuZc::default().assess(&field.data, &dec, &cfg).unwrap(),
        ),
    ]
}

#[test]
fn all_executors_agree_on_every_dataset() {
    for ds in AppDataset::ALL {
        let runs = assess_all(ds, 0);
        let (ref_name, reference) = &runs[0];
        assert_eq!(*ref_name, "serial");
        for (name, a) in &runs[1..] {
            // Every scalar metric of the registry.
            for m in Metric::ALL {
                let (r, v) = (reference.report.scalar(m), a.report.scalar(m));
                match (r, v) {
                    (None, None) => {}
                    (Some(r), Some(v)) => {
                        assert!(
                            close(v, r, 1e-6),
                            "{} {name}: {m} = {v} vs serial {r}",
                            ds.name()
                        );
                    }
                    _ => panic!("{} {name}: {m} presence mismatch", ds.name()),
                }
            }
            // Histograms are integer counts — must match exactly.
            let (rh, ah) = (
                reference.report.histograms.as_ref().unwrap(),
                a.report.histograms.as_ref().unwrap(),
            );
            assert_eq!(
                rh.err_pdf.counts(),
                ah.err_pdf.counts(),
                "{} {name}",
                ds.name()
            );
            assert_eq!(
                rh.rel_pdf.counts(),
                ah.rel_pdf.counts(),
                "{} {name}",
                ds.name()
            );
            assert_eq!(
                rh.value_hist.counts(),
                ah.value_hist.counts(),
                "{} {name}",
                ds.name()
            );
            // Full autocorrelation series.
            let (rs, as_) = (
                &reference.report.stencil.as_ref().unwrap().autocorr.values,
                &a.report.stencil.as_ref().unwrap().autocorr.values,
            );
            for (lag, (r, v)) in rs.iter().zip(as_.iter()).enumerate() {
                assert!(
                    (r - v).abs() < 1e-7,
                    "{} {name}: autocorr lag {} = {v} vs {r}",
                    ds.name(),
                    lag + 1
                );
            }
            // SSIM window counts must agree exactly.
            assert_eq!(
                reference.report.ssim.unwrap().windows,
                a.report.ssim.unwrap().windows,
                "{} {name}: window count",
                ds.name()
            );
        }
    }
}

#[test]
fn paper_iv_b_spot_check_first_hurricane_field() {
    // The paper's example: "with first field of the Hurricane dataset, both
    // cuZ-Checker and the CPU-based Z-checker yield [the same] first-order
    // derivative result".
    let runs = assess_all(AppDataset::Hurricane, 0);
    let serial = runs[0].1.report.stencil.as_ref().unwrap().avg_gradient_orig;
    let cuzc = runs[3].1.report.stencil.as_ref().unwrap().avg_gradient_orig;
    assert!(close(cuzc, serial, 1e-9), "{cuzc} vs {serial}");
}

#[test]
fn identical_inputs_yield_perfect_scores_everywhere() {
    let field = AppDataset::Nyx.generate_field(1, &GenOptions::scaled(16));
    let cfg = AssessConfig::default();
    for ex in [
        Box::new(SerialZc) as Box<dyn Executor>,
        Box::new(OmpZc::default()),
        Box::new(MoZc::default()),
        Box::new(CuZc::default()),
    ] {
        let a = ex.assess(&field.data, &field.data, &cfg).unwrap();
        assert_eq!(
            a.report.scalar(Metric::Psnr).unwrap(),
            f64::INFINITY,
            "{}",
            ex.name()
        );
        assert_eq!(a.report.scalar(Metric::Mse).unwrap(), 0.0);
        assert!((a.report.scalar(Metric::Ssim).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(a.report.scalar(Metric::PearsonCorrelation).unwrap(), 1.0);
    }
}

#[test]
fn two_dimensional_cesm_fields_agree_across_executors() {
    // The 2D analysis mode: dimension-aware stencils and square SSIM
    // windows must agree between the serial reference and every other
    // executor (and actually produce stencil output, unlike a naive 3D-only
    // implementation would).
    let runs = assess_all(AppDataset::CesmAtm, 0);
    let serial = &runs[0].1;
    let st = serial.report.stencil.as_ref().unwrap();
    assert!(
        st.avg_gradient_orig > 0.0,
        "2D derivatives must be computed"
    );
    assert!(
        serial.report.ssim.unwrap().windows > 0,
        "2D SSIM windows must exist"
    );
    for (name, a) in &runs[1..] {
        for m in [
            Metric::Psnr,
            Metric::Ssim,
            Metric::Derivative1,
            Metric::Autocorrelation,
            Metric::DerivativeMse,
        ] {
            let (r, v) = (
                serial.report.scalar(m).unwrap(),
                a.report.scalar(m).unwrap(),
            );
            let ok = (r == v) || (r - v).abs() <= 1e-6 * r.abs().max(1e-20);
            assert!(ok, "CESM 2D {name}: {m} = {v} vs serial {r}");
        }
        assert_eq!(
            serial.report.ssim.unwrap().windows,
            a.report.ssim.unwrap().windows,
            "CESM 2D {name}: window count"
        );
    }
}

#[test]
fn one_dimensional_fields_agree_across_executors() {
    use cuz_checker::tensor::{Shape, Tensor};
    let orig = Tensor::from_fn(Shape::d1(3000), |[x, ..]| {
        (x as f32 * 0.01).sin() * 5.0 + (x as f32 * 0.003).cos()
    });
    let sz = SzCompressor::new(ErrorBound::Rel(1e-3));
    let (dec, _) = sz.roundtrip(&orig).unwrap();
    let cfg = AssessConfig {
        max_lag: 3,
        ..Default::default()
    };
    let s = SerialZc.assess(&orig, &dec, &cfg).unwrap();
    assert!(s.report.stencil.as_ref().unwrap().avg_gradient_orig > 0.0);
    for ex in [
        Box::new(OmpZc::default()) as Box<dyn Executor>,
        Box::new(MoZc::default()),
        Box::new(CuZc::default()),
    ] {
        let a = ex.assess(&orig, &dec, &cfg).unwrap();
        for m in [Metric::Psnr, Metric::Derivative1, Metric::Autocorrelation] {
            let (r, v) = (s.report.scalar(m).unwrap(), a.report.scalar(m).unwrap());
            let ok = (r == v) || (r - v).abs() <= 1e-6 * r.abs().max(1e-20);
            assert!(ok, "1D {}: {m} = {v} vs serial {r}", ex.name());
        }
    }
}

#[test]
fn a_pair_without_one_finite_element_is_refused_by_every_executor() {
    use cuz_checker::core::exec::AssessError;
    use cuz_checker::tensor::{Shape, Tensor};
    let shape = Shape::d3(4, 4, 4);
    let nan = Tensor::from_fn(shape, |_| f32::NAN);
    // Finite originals do not help when every decompressed value is not.
    let mixed = Tensor::from_fn(
        shape,
        |[x, ..]| if x % 2 == 0 { 1.0 } else { f32::INFINITY },
    );
    let executors: Vec<(&str, Box<dyn Executor>)> = vec![
        ("serial", Box::new(SerialZc)),
        ("ompZC", Box::new(OmpZc::default())),
        ("moZC", Box::new(MoZc::default())),
        ("cuZC", Box::new(CuZc::default())),
    ];
    let cfg = AssessConfig::default();
    for (name, ex) in &executors {
        for (orig, dec) in [(&nan, &nan), (&mixed, &nan)] {
            assert_eq!(
                ex.assess(orig, dec, &cfg).unwrap_err(),
                AssessError::NoFiniteElement,
                "{name}"
            );
        }
        // One finite element is enough to assess (with a warning).
        let mut one = nan.clone();
        one.set([1, 2, 3, 0], 0.5);
        assert_eq!(
            ex.assess(&one, &one, &cfg).unwrap().report.non_finite,
            126,
            "{name}"
        );
    }
}
