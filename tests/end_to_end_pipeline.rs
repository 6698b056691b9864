//! End-to-end pipelines: generate → (disk) → compress → assess → report,
//! exercising the whole public surface the way a downstream user would.

use cuz_checker::compress::{
    Compressor, CompressorSpec, ErrorBound, SzCompressor, ZfpLikeCompressor,
};
use cuz_checker::core::config::{parse, AssessConfig, ExecutorKind};
use cuz_checker::core::exec::{make_executor, Executor};
use cuz_checker::core::io::{read_raw, write_raw, Endianness};
use cuz_checker::core::output::{histogram_csv, scalars_csv};
use cuz_checker::core::recommend::{recommend, QualityCriteria};
use cuz_checker::core::{AnalysisReport, CuZc, FieldRef, Metric, MetricSelection};
use cuz_checker::data::{AppDataset, GenOptions};
use cuz_checker::tensor::Tensor;

#[test]
fn sz_pipeline_bound_is_visible_in_the_assessment() {
    // The assessment itself must confirm the compressor's contract:
    // max |error| <= eb, and PSNR >= 20·log10(range/(2·eb)).
    let field = AppDataset::Miranda.generate_field(2, &GenOptions::scaled(16));
    let (mn, mx) = field.data.min_max().unwrap();
    let range = (mx - mn) as f64;
    let rel = 1e-3;
    let sz = SzCompressor::new(ErrorBound::Rel(rel));
    let (dec, stats) = sz.roundtrip(&field.data).unwrap();
    assert!(stats.ratio() > 1.0);

    let a = CuZc::default()
        .assess(&field.data, &dec, &AssessConfig::default())
        .unwrap();
    let max_abs = a.report.scalar(Metric::MaxAbsError).unwrap();
    assert!(
        max_abs <= rel * range * (1.0 + 1e-6),
        "bound violated: {max_abs}"
    );
    let psnr = a.report.scalar(Metric::Psnr).unwrap();
    let floor = 20.0 * (1.0 / (2.0 * rel)).log10();
    assert!(psnr >= floor, "psnr {psnr} below worst-case floor {floor}");
}

#[test]
fn zfp_pipeline_degrades_gracefully_with_rate() {
    let field = AppDataset::Hurricane.generate_field(9, &GenOptions::scaled(16));
    let cfg = AssessConfig::default();
    let mut last_psnr = f64::NEG_INFINITY;
    for rate in [4.0, 10.0, 16.0] {
        let zfp = ZfpLikeCompressor::new(rate);
        let (dec, stats) = zfp.roundtrip(&field.data).unwrap();
        let a = CuZc::default().assess(&field.data, &dec, &cfg).unwrap();
        let psnr = a.report.scalar(Metric::Psnr).unwrap();
        assert!(psnr > last_psnr, "rate {rate}: psnr {psnr} <= {last_psnr}");
        last_psnr = psnr;
        // Fixed rate: the measured bit rate tracks the requested one, up to
        // the 16-bit per-block exponent header and edge-block padding
        // (this shape is not a multiple of 4 on every axis).
        let br = stats.bit_rate(4);
        assert!(
            br >= rate && br <= rate * 1.6 + 1.0,
            "bit rate {br} for rate {rate}"
        );
    }
}

#[test]
fn disk_roundtrip_preserves_assessment_exactly() {
    let field = AppDataset::ScaleLetkf.generate_field(0, &GenOptions::scaled(16));
    let dir = std::env::temp_dir();
    let path = dir.join(format!("zc_e2e_{}.f32", std::process::id()));
    write_raw(&path, &field.data, Endianness::Big).unwrap();
    let loaded: Tensor<f32> = read_raw(&path, field.data.shape(), Endianness::Big).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded.as_slice(), field.data.as_slice());

    let sz = SzCompressor::new(ErrorBound::Abs(1e-4));
    let (dec, _) = sz.roundtrip(&loaded).unwrap();
    let cfg = AssessConfig::default();
    let from_disk = CuZc::default().assess(&loaded, &dec, &cfg).unwrap();
    let from_mem = CuZc::default().assess(&field.data, &dec, &cfg).unwrap();
    assert_eq!(
        from_disk.report.scalar(Metric::Psnr),
        from_mem.report.scalar(Metric::Psnr)
    );
}

#[test]
fn config_document_drives_the_full_run() {
    let doc = r#"
        [assess]
        executor = mozc
        metrics  = psnr, ssim, autocorr, err_pdf
        bins     = 64
        max_lag  = 3
        [compressor]
        kind      = zfp
        rate      = 12
    "#;
    let run = parse(doc).unwrap();
    assert_eq!(run.executor, ExecutorKind::MoZc);
    let field = AppDataset::Nyx.generate_field(3, &GenOptions::scaled(16));
    let (dec, stats) = run
        .compressor
        .unwrap()
        .build()
        .roundtrip(&field.data)
        .unwrap();
    let ex = make_executor(run.executor);
    let mut a = ex.assess(&field.data, &dec, &run.assess).unwrap();
    a.report = a.report.with_compression(stats);

    // The configured metrics appear in the outputs; others do not.
    let csv = scalars_csv(&a, &run.assess.metrics);
    assert!(csv.contains("psnr,"));
    assert!(csv.contains("ssim,"));
    assert!(!csv.contains("pearson,"));
    let h = a.report.histograms.as_ref().unwrap();
    assert_eq!(h.err_pdf.bin_count(), 64);
    let hist_csv = histogram_csv(&h.err_pdf);
    assert_eq!(hist_csv.lines().count(), 65);
    // Compression metrics attached.
    assert!(a.report.scalar(Metric::CompressionRatio).unwrap() > 1.0);
}

#[test]
fn four_dimensional_fields_assess_end_to_end() {
    use cuz_checker::tensor::Shape;
    // 4D (e.g. time-series of 3D states): pattern-1 handles the whole
    // hyper-volume, stencil/SSIM run per 3D sub-volume.
    let t = Tensor::from_fn(Shape::d4(24, 20, 12, 3), |[x, y, z, w]| {
        (x as f32 * 0.3).sin() + (y as f32 * 0.2).cos() + z as f32 * 0.01 + w as f32
    });
    let sz = SzCompressor::new(ErrorBound::Abs(1e-3));
    let (dec, _) = sz.roundtrip(&t).unwrap();
    let a = CuZc::default()
        .assess(&t, &dec, &AssessConfig::default())
        .unwrap();
    assert!(a.report.scalar(Metric::Psnr).unwrap() > 40.0);
    assert!(a.report.ssim.unwrap().windows > 0);
}

#[test]
fn one_and_two_dimensional_fields_assess_end_to_end() {
    use cuz_checker::tensor::Shape;
    let cfg = AssessConfig::default();
    for shape in [Shape::d1(4096), Shape::d2(96, 80)] {
        let t = Tensor::from_fn(shape, |[x, y, ..]| {
            (x as f32 * 0.05).sin() + y as f32 * 0.01
        });
        let sz = SzCompressor::new(ErrorBound::Abs(1e-4));
        let (dec, _) = sz.roundtrip(&t).unwrap();
        let mut c = cfg.clone();
        c.metrics = MetricSelection::all();
        let a = CuZc::default().assess(&t, &dec, &c).unwrap();
        assert!(a.report.scalar(Metric::Psnr).unwrap() > 40.0, "{shape:?}");
    }
}

#[test]
fn empty_metric_selection_is_effectively_a_noop_run() {
    use cuz_checker::core::metrics::MetricSelection;
    use cuz_checker::tensor::Shape;
    let t = Tensor::from_fn(Shape::d3(16, 16, 8), |[x, ..]| x as f32);
    let dec = t.map(|v| v + 1e-3);
    let cfg = AssessConfig {
        metrics: MetricSelection::none(),
        ..Default::default()
    };
    let a = CuZc::default().assess(&t, &dec, &cfg).unwrap();
    // The scalar pass always runs (it feeds everything else), but no
    // histograms, stencil, or SSIM work happens.
    assert!(a.report.histograms.is_none());
    assert!(a.report.stencil.is_none());
    assert!(a.report.ssim.is_none());
    assert_eq!(a.pattern_times.p2, 0.0);
    assert_eq!(a.pattern_times.p3, 0.0);
}

/// Whether `report` meets `criteria`, written out independently of
/// `recommend`: NaN never meets a bound, and zero SSIM windows never meet
/// `min_ssim`.
fn meets(criteria: &QualityCriteria, report: &AnalysisReport) -> bool {
    let get = |m: Metric| report.scalar(m).unwrap_or(f64::NAN);
    let at_least = |v: f64, min: Option<f64>| min.is_none_or(|min| v >= min);
    let at_most = |v: f64, max: Option<f64>| max.is_none_or(|max| v <= max);
    let ssim_windows = report.ssim.map_or(0, |s| s.windows);
    at_least(get(Metric::Psnr), criteria.min_psnr_db)
        && (criteria.min_ssim.is_none() || ssim_windows > 0)
        && at_least(get(Metric::Ssim), criteria.min_ssim)
        && at_most(
            get(Metric::Autocorrelation).abs(),
            criteria.max_autocorr_abs,
        )
        && at_most(get(Metric::MaxPwrError), criteria.max_pwr_error)
        && at_most(
            get(Metric::MaxAbsError) / get(Metric::ValueRange),
            criteria.max_rel_range_error,
        )
}

/// `recommend`'s engine batch equals the manual composition — each
/// candidate round-tripped by hand and assessed by cuZC — on the
/// `best_fit` example's field and candidates, under both presets. (The
/// serial reference agrees with cuZC only to reduction tolerance: its SSIM
/// differs in the last bits, as `correctness_cross_executors` allows.)
#[test]
fn seamless_pipeline_matches_manual_composition() {
    let field = FieldRef::new(AppDataset::Hurricane, 9, GenOptions::scaled(8));
    let cands = [
        CompressorSpec::Sz(ErrorBound::Rel(1e-2)),
        CompressorSpec::Sz(ErrorBound::Rel(1e-3)),
        CompressorSpec::Sz(ErrorBound::Rel(1e-4)),
        CompressorSpec::Zfp(8.0),
        CompressorSpec::Zfp(12.0),
        CompressorSpec::Zfp(16.0),
    ];
    let cfg = AssessConfig::default();
    let orig = field.generate().data;
    let manual: Vec<AnalysisReport> = cands
        .iter()
        .map(|spec| {
            let (dec, stats) = spec.build().roundtrip(&orig).unwrap();
            let a = CuZc::default().assess(&orig, &dec, &cfg).unwrap();
            a.report.with_compression(stats)
        })
        .collect();
    for criteria in [
        QualityCriteria::visualization(),
        QualityCriteria::analysis(),
    ] {
        let (verdicts, _) = recommend(&field, &cands, &criteria, &cfg, false).unwrap();
        for (spec, want) in cands.iter().zip(&manual) {
            let got = verdicts.iter().find(|v| v.name == spec.label()).unwrap();
            let bits = |m: Metric| want.scalar(m).unwrap().to_bits();
            let name = &got.name;
            assert_eq!(got.passes, meets(&criteria, want), "{name}");
            assert_eq!(got.psnr_db.to_bits(), bits(Metric::Psnr), "{name}");
            assert_eq!(got.ssim.to_bits(), bits(Metric::Ssim), "{name}");
            assert_eq!(
                got.autocorr1.to_bits(),
                bits(Metric::Autocorrelation),
                "{name}"
            );
            assert_eq!(
                got.ratio.to_bits(),
                bits(Metric::CompressionRatio),
                "{name}"
            );
        }
    }
}

#[test]
fn four_d_grids_partition_by_hyperslab() {
    use cuz_checker::tensor::{Shape, Tensor};
    // The launch grid for 4D fields is nz x nw; verify the profile agrees.
    let t = Tensor::from_fn(Shape::d4(16, 12, 6, 4), |[x, y, z, w]| {
        (x + y) as f32 * 0.1 + z as f32 + w as f32 * 10.0
    });
    let dec = t.map(|v| v + 1e-3);
    let a = CuZc::default()
        .assess(&t, &dec, &AssessConfig::default())
        .unwrap();
    let p1 = a
        .runs
        .iter()
        .find(|r| r.pattern == cuz_checker::core::Pattern::GlobalReduction)
        .unwrap();
    assert_eq!(p1.grid_blocks, 6 * 4);
}
