//! Shape-fidelity gates for the regenerated figures: the orderings and
//! bands the paper reports must hold when the harness runs (reduced scale,
//! modeled at full shapes). These are the automated version of
//! EXPERIMENTS.md's paper-vs-measured table.

use cuz_checker::core::Pattern;
use cuz_checker::data::AppDataset;
use zc_bench::paper;
use zc_bench::{assess_dataset, DatasetResult, HarnessOpts};

fn results() -> Vec<DatasetResult> {
    let opts = HarnessOpts {
        scale: 16,
        max_fields: Some(1),
        ..Default::default()
    };
    AppDataset::ALL
        .iter()
        .map(|&ds| assess_dataset(ds, &opts))
        .collect()
}

#[test]
fn fig10_overall_ordering_and_bands() {
    for r in results() {
        let vs_omp = r.ompzc.total() / r.cuzc.total();
        let vs_mo = r.mozc.total() / r.cuzc.total();
        // Strict ordering: cuZC beats moZC beats ompZC.
        assert!(vs_mo > 1.0, "{}: cuZC must beat moZC", r.dataset.name());
        assert!(
            vs_omp > vs_mo,
            "{}: ompZC must be slowest",
            r.dataset.name()
        );
        // Band membership with slack (coarser functional scale than the
        // calibrated fig10 run).
        assert!(
            paper::OVERALL_VS_OMPZC.contains_loose(vs_omp, 2.0),
            "{}: overall vs ompZC {vs_omp}",
            r.dataset.name()
        );
        assert!(
            paper::OVERALL_VS_MOZC.contains_loose(vs_mo, 2.0),
            "{}: overall vs moZC {vs_mo}",
            r.dataset.name()
        );
    }
}

#[test]
fn fig11_throughput_hierarchy() {
    for r in results() {
        for p in [
            Pattern::GlobalReduction,
            Pattern::Stencil,
            Pattern::SlidingWindow,
        ] {
            let om = r.throughput_gbs(&r.ompzc, p);
            let mo = r.throughput_gbs(&r.mozc, p);
            let cu = r.throughput_gbs(&r.cuzc, p);
            assert!(
                cu > mo && mo > om,
                "{} {:?}: hierarchy violated ({om} / {mo} / {cu})",
                r.dataset.name(),
                p
            );
        }
        // Pattern-1 throughput dwarfs pattern-3 (Fig. 11's GB/s vs MB/s).
        let p1 = r.throughput_gbs(&r.cuzc, Pattern::GlobalReduction);
        let p3 = r.throughput_gbs(&r.cuzc, Pattern::SlidingWindow);
        assert!(p1 > 50.0 * p3, "{}: p1 {p1} vs p3 {p3}", r.dataset.name());
    }
}

#[test]
fn fig12_pattern_bands_loose() {
    for r in results() {
        let p1 = r.ompzc.p1 / r.cuzc.p1;
        let p2 = r.ompzc.p2 / r.cuzc.p2;
        let p3 = r.ompzc.p3 / r.cuzc.p3;
        assert!(
            paper::P1_VS_OMPZC.contains_loose(p1, 2.0),
            "{}: p1 {p1}",
            r.dataset.name()
        );
        assert!(
            paper::P2_VS_OMPZC.contains_loose(p2, 2.0),
            "{}: p2 {p2}",
            r.dataset.name()
        );
        assert!(
            paper::P3_VS_OMPZC.contains_loose(p3, 2.0),
            "{}: p3 {p3}",
            r.dataset.name()
        );
        // Pattern-1 speedups are far larger than overall (paper Takeaway 1).
        let overall = r.ompzc.total() / r.cuzc.total();
        assert!(
            p1 > 3.0 * overall,
            "{}: p1 {p1} vs overall {overall}",
            r.dataset.name()
        );
        // moZC bands.
        let m1 = r.mozc.p1 / r.cuzc.p1;
        let m2 = r.mozc.p2 / r.cuzc.p2;
        let m3 = r.mozc.p3 / r.cuzc.p3;
        assert!(
            paper::P1_VS_MOZC.contains_loose(m1, 2.0),
            "{}: m1 {m1}",
            r.dataset.name()
        );
        assert!(
            paper::P2_VS_MOZC.contains_loose(m2, 1.5),
            "{}: m2 {m2}",
            r.dataset.name()
        );
        assert!(
            paper::P3_VS_MOZC.contains_loose(m3, 1.5),
            "{}: m3 {m3}",
            r.dataset.name()
        );
    }
}

#[test]
fn table2_per_dataset_structure() {
    use cuz_checker::core::AssessConfig;
    use zc_bench::fullscale::full_profiles;
    let cfg = AssessConfig::default();
    let iters = |ds: AppDataset, pattern: Pattern| {
        full_profiles(ds.full_shape(), &cfg)
            .iter()
            .find(|p| p.pattern == pattern)
            .expect("every pattern is profiled")
            .iters_per_thread
    };
    // Pattern-1 iters: Miranda smallest, SCALE-LETKF largest (Table II).
    let it = |ds: AppDataset| iters(ds, Pattern::GlobalReduction);
    assert!(it(AppDataset::Miranda) < it(AppDataset::Hurricane));
    assert!(it(AppDataset::Hurricane) <= it(AppDataset::Nyx));
    assert!(it(AppDataset::Nyx) < it(AppDataset::ScaleLetkf));
    // Pattern-3: NYX deepest (observation (iii)).
    let p3 = |ds: AppDataset| iters(ds, Pattern::SlidingWindow);
    for other in [
        AppDataset::Hurricane,
        AppDataset::ScaleLetkf,
        AppDataset::Miranda,
    ] {
        assert!(p3(AppDataset::Nyx) > p3(other));
    }
}
