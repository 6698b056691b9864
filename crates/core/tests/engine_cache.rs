//! Cache-semantics tier: the engine's content-addressed result cache must
//! be *invisible* in every metric value.
//!
//! The load-bearing property is the partial-hit path: a residual plan of
//! only the missing passes, seeded with cached pattern-1 scalars, must
//! produce sections bit-identical to a cold full run — on every executor,
//! since the cache sits above the executor choice. The remaining tests pin
//! the key semantics (metric selection is coverage, not key; value-affecting
//! knobs are key) and that LRU eviction only ever costs re-runs, never
//! correctness. The digest memo's tests pin that a full hit synthesizes
//! no field data and that the memo stays within the cache's budget
//! without moving a metric bit.

use zc_compress::{CompressorSpec, ErrorBound};
use zc_core::campaign::{FieldRef, FleetSpec, JobOutcome};
use zc_core::engine::{AssessRequest, CacheOutcome, Engine};
use zc_core::exec::{CuZc, Executor, MoZc, OmpZc, SerialZc};
use zc_core::metrics::{Metric, MetricSelection};
use zc_core::plan::{AssessPlan, PassKind};
use zc_core::{AnalysisReport, AssessConfig};
use zc_data::{AppDataset, GenOptions};
use zc_tensor::{Shape, Tensor};

fn small_field() -> Tensor<f32> {
    Tensor::from_fn(Shape::d3(24, 16, 12), |[x, y, z, _]| {
        (x as f32 * 0.23).sin() + (y as f32 * 0.11).cos() + z as f32 * 0.015
    })
}

fn full_cfg() -> AssessConfig {
    AssessConfig {
        max_lag: 3,
        bins: 32,
        metrics: MetricSelection::all(),
        ..Default::default()
    }
}

/// The coverage the cache would derive from a stored narrow report:
/// scalars and the meta pass always ride along, sections only if present.
fn covered_by(report: &zc_core::AnalysisReport, plan: &AssessPlan) -> Vec<PassKind> {
    plan.passes()
        .iter()
        .map(|p| p.kind)
        .filter(|&k| match k {
            PassKind::P1Scalars | PassKind::CompressionMeta => true,
            PassKind::P1Hist => report.histograms.is_some(),
            PassKind::P2Stencil => report.stencil.is_some(),
            PassKind::P3Ssim => report.ssim.is_some(),
        })
        .collect()
}

#[test]
fn seeded_residual_is_bit_identical_to_cold_on_every_executor() {
    let orig = small_field();
    let (dec, _stats) = CompressorSpec::Sz(ErrorBound::Rel(1e-3))
        .build()
        .roundtrip(&orig)
        .expect("roundtrip");
    let cfg = full_cfg();
    let narrow_cfg = AssessConfig {
        metrics: MetricSelection::none().with(Metric::Psnr),
        ..cfg.clone()
    };
    let full_plan = AssessPlan::lower(&cfg);
    let narrow_plan = AssessPlan::lower(&narrow_cfg);

    let serial = SerialZc;
    let omp = OmpZc::default();
    let mo = MoZc::default();
    let cu = CuZc::default();
    let multi = FleetSpec::nvlink(2).executor();
    let executors: [(&str, &dyn Executor); 5] = [
        ("serialZC", &serial),
        ("ompZC", &omp),
        ("moZC", &mo),
        ("cuZC", &cu),
        ("multi-cuZC", &multi),
    ];
    for (name, ex) in executors {
        // Cold: the full profile in one run.
        let cold = ex
            .run_plan(&full_plan, &orig, &dec, &cfg)
            .expect("cold run");
        // Warm path: a PSNR-only run first (what an earlier request left in
        // the cache), then the residual of the full profile, seeded with
        // the narrow run's pattern-1 scalars.
        let narrow = ex
            .run_plan(&narrow_plan, &orig, &dec, &narrow_cfg)
            .expect("narrow run");
        let covered = covered_by(&narrow.report, &full_plan);
        assert!(
            covered.contains(&PassKind::P1Scalars),
            "{name}: scalars always covered"
        );
        let residual = AssessPlan::residual(&cfg, &covered);
        assert!(
            !residual.passes().is_empty() && residual.passes().len() < full_plan.passes().len(),
            "{name}: residual must be a strict, non-empty subset of the full plan"
        );
        let warm = ex
            .run_plan_seeded(&residual, &orig, &dec, &cfg, narrow.report.p1)
            .expect("seeded residual run");
        // Bit-identity, section by section and scalar by scalar.
        assert_eq!(cold.report.p1, warm.report.p1, "{name}: p1 moments");
        assert_eq!(cold.report.stencil, warm.report.stencil, "{name}: stencil");
        assert_eq!(cold.report.ssim, warm.report.ssim, "{name}: ssim");
        for m in Metric::ALL {
            let (a, b) = (cold.report.scalar(m), warm.report.scalar(m));
            assert_eq!(
                a.map(f64::to_bits),
                b.map(f64::to_bits),
                "{name}: {m:?} differs between cold and seeded-residual runs: {a:?} vs {b:?}"
            );
        }
    }
}

fn request(metrics: MetricSelection, seed: u64) -> AssessRequest {
    AssessRequest {
        field: FieldRef::new(AppDataset::Nyx, 0, GenOptions::scaled(32).with_seed(seed)),
        compressor: CompressorSpec::Sz(ErrorBound::Rel(1e-3)),
        cfg: AssessConfig {
            metrics,
            ..full_cfg()
        },
    }
}

#[test]
fn cache_key_ignores_metric_selection_construction_order() {
    // The selection canonicalizes (it is a set), and the metric set is not
    // part of the physical key at all — so any construction order of the
    // same metrics must find the entry the first run stored.
    let forward = MetricSelection::none()
        .with(Metric::Psnr)
        .with(Metric::Mse)
        .with(Metric::Ssim);
    let backward = MetricSelection::none()
        .with(Metric::Ssim)
        .with(Metric::Mse)
        .with(Metric::Psnr);
    let mut engine = Engine::new(FleetSpec::nvlink(1)).unwrap();
    engine.submit(request(forward, 0)).unwrap();
    let first = engine.drain(0.0);
    assert_eq!(first.results[0].cache, CacheOutcome::Miss);
    engine.submit(request(backward, 0)).unwrap();
    let second = engine.drain(0.0);
    assert_eq!(second.results[0].cache, CacheOutcome::Hit);
}

#[test]
fn value_affecting_knobs_are_part_of_the_key() {
    let mut engine = Engine::new(FleetSpec::nvlink(1)).unwrap();
    engine.submit(request(MetricSelection::all(), 0)).unwrap();
    engine.drain(0.0);
    // Same field, same codec, different histogram resolution → the cached
    // PDFs would be wrong, so this must be a miss, not any kind of hit.
    let mut req = request(MetricSelection::all(), 0);
    req.cfg.bins = 64;
    engine.submit(req).unwrap();
    let batch = engine.drain(0.0);
    assert_eq!(batch.results[0].cache, CacheOutcome::Miss);
}

#[test]
fn eviction_never_changes_metric_values() {
    // A 1-entry cache thrashed by three alternating fields: every repeat
    // re-misses (its entry was evicted), and every metric value matches an
    // uncached engine bit for bit.
    let seeds = [0u64, 1, 2, 0, 1, 2];
    let mut tiny = Engine::new(FleetSpec::nvlink(1))
        .unwrap()
        .with_cache_entries(1);
    let mut uncached = Engine::new(FleetSpec::nvlink(1))
        .unwrap()
        .with_cache_entries(0);
    for &seed in &seeds {
        tiny.submit(request(MetricSelection::all(), seed)).unwrap();
        uncached
            .submit(request(MetricSelection::all(), seed))
            .unwrap();
        let a = tiny.drain(0.0);
        let b = uncached.drain(0.0);
        let (ma, mb) = match (&a.results[0].outcome, &b.results[0].outcome) {
            (JobOutcome::Done(ma), JobOutcome::Done(mb)) => (ma, mb),
            _ => panic!("seed {seed}: both engines must complete"),
        };
        assert_eq!(
            ma.psnr.to_bits(),
            mb.psnr.to_bits(),
            "seed {seed}: psnr differs under eviction pressure"
        );
        assert_eq!(
            ma.ssim.to_bits(),
            mb.ssim.to_bits(),
            "seed {seed}: ssim differs under eviction pressure"
        );
    }
    assert!(
        tiny.cache_stats().evictions > 0,
        "the 1-entry cache must actually have thrashed: {:?}",
        tiny.cache_stats()
    );
}

#[test]
fn eviction_inside_a_wave_never_weakens_a_partial_hit() {
    // K is cached with {psnr, ssim}. In the batch [full L, full K] both
    // look up in one wave (L misses, K is a partial hit); absorbing L then
    // evicts K from the 1-entry cache before K's residual result is
    // absorbed. K must still merge over the sections it looked up.
    let narrow = MetricSelection::none()
        .with(Metric::Psnr)
        .with(Metric::Ssim);
    let mut tiny = Engine::new(FleetSpec::nvlink(1))
        .unwrap()
        .with_cache_entries(1);
    tiny.submit(request(narrow, 0)).unwrap();
    tiny.drain(0.0);
    let mut uncached = Engine::new(FleetSpec::nvlink(1))
        .unwrap()
        .with_cache_entries(0);
    for engine in [&mut tiny, &mut uncached] {
        engine.submit(request(MetricSelection::all(), 1)).unwrap();
        engine.submit(request(MetricSelection::all(), 0)).unwrap();
    }
    let (a, b) = (tiny.drain(0.0), uncached.drain(0.0));
    let outcomes: Vec<_> = a.results.iter().map(|r| r.cache).collect();
    assert_eq!(outcomes, [CacheOutcome::Miss, CacheOutcome::Partial]);
    assert!(
        tiny.cache_stats().evictions >= 2,
        "{:?}",
        tiny.cache_stats()
    );
    for (ra, rb) in a.results.iter().zip(&b.results) {
        let (pa, pb) = (ra.report.as_ref().unwrap(), rb.report.as_ref().unwrap());
        // Every metric bit, bar the wall-clock codec throughputs.
        for m in Metric::ALL {
            if matches!(
                m,
                Metric::CompressionThroughput | Metric::DecompressionThroughput
            ) {
                continue;
            }
            let (va, vb) = (pa.scalar(m), pb.scalar(m));
            assert_eq!(
                va.map(f64::to_bits),
                vb.map(f64::to_bits),
                "{m:?}: {va:?} vs {vb:?}"
            );
        }
    }
    // The re-inserted entry holds every section, so a repeat is a full hit.
    tiny.submit(request(MetricSelection::all(), 0)).unwrap();
    assert_eq!(tiny.drain(0.0).results[0].cache, CacheOutcome::Hit);
}

/// Every metric of a report as exact bits, bar the wall-clock codec
/// throughputs.
fn metric_bits(report: &AnalysisReport) -> Vec<Option<u64>> {
    Metric::ALL
        .iter()
        .filter(|m| {
            !matches!(
                m,
                Metric::CompressionThroughput | Metric::DecompressionThroughput
            )
        })
        .map(|&m| report.scalar(m).map(f64::to_bits))
        .collect()
}

#[test]
fn a_batch_of_only_full_hits_generates_no_field() {
    let psnr = MetricSelection::none().with(Metric::Psnr);
    let mut engine = Engine::new(FleetSpec::nvlink(2)).unwrap();
    for seed in [0, 1, 2] {
        engine
            .submit(request(MetricSelection::all(), seed))
            .unwrap();
    }
    let first = engine.drain(0.0);
    assert_eq!(first.cache.fields_generated, 3);
    assert_eq!(first.cache.digests_reused, 0);

    // Full profiles and a subset of them, all cached: every request is a
    // full hit, keyed from the memo without synthesizing its field.
    for (metrics, seed) in [(MetricSelection::all(), 2), (psnr.clone(), 0), (psnr, 2)] {
        engine.submit(request(metrics, seed)).unwrap();
    }
    let hot = engine.drain(0.0);
    assert!(hot.results.iter().all(|r| r.cache == CacheOutcome::Hit));
    assert_eq!(hot.cache.fields_generated, first.cache.fields_generated);
    assert_eq!(
        hot.cache.digests_reused, 2,
        "two distinct fields, keyed once each"
    );
    let bits = |batch: &zc_core::engine::BatchReport, i: usize| {
        metric_bits(batch.results[i].report.as_ref().expect("completed"))
    };
    for (hit, cold) in [(0, 2), (1, 0), (2, 2)] {
        assert_eq!(
            bits(&hot, hit),
            bits(&first, cold),
            "hit {hit} vs first drain"
        );
    }
}

#[test]
fn the_digest_memo_stays_within_the_cache_budget() {
    // Seven distinct fields through a 2-entry session, some in one batch,
    // some repeated after eviction: the memo never outgrows the budget,
    // and every request matches a cache-off cold run bit for bit.
    let batches: [&[u64]; 5] = [&[0, 1, 2, 3], &[3, 4], &[0], &[4, 5, 6, 5], &[6, 1]];
    let mut small = Engine::new(FleetSpec::nvlink(1))
        .unwrap()
        .with_cache_entries(2);
    let mut cold = Engine::new(FleetSpec::nvlink(1))
        .unwrap()
        .with_cache_entries(0);
    for seeds in batches {
        for &seed in seeds {
            small.submit(request(MetricSelection::all(), seed)).unwrap();
            cold.submit(request(MetricSelection::all(), seed)).unwrap();
        }
        let (a, b) = (small.drain(0.0), cold.drain(0.0));
        assert!(
            small.remembered_digests() <= 2,
            "{seeds:?}: memo over budget"
        );
        for ((ra, rb), seed) in a.results.iter().zip(&b.results).zip(seeds) {
            let (pa, pb) = (ra.report.as_ref().unwrap(), rb.report.as_ref().unwrap());
            assert_eq!(metric_bits(pa), metric_bits(pb), "seed {seed} in {seeds:?}");
        }
    }
    let stats = small.cache_stats();
    assert!(stats.digests_reused > 0, "{stats:?}");
    assert!(stats.evictions > 0, "{stats:?}");
    assert_eq!(cold.remembered_digests(), 0);
}
