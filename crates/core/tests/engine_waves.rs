//! Wave-semantics tier: one drained batch resolves exactly as the same
//! requests drained one per batch, at every host worker count.
//!
//! Within a batch, a request whose cache key already appeared earlier
//! waits for the next wave, so an in-batch repeat still sees its
//! predecessor's absorbed result (a hit or partial hit, never a second
//! miss). Kept as a single `#[test]` because the `ZC_PAR_THREADS`
//! worker-count override is process-global.

use zc_compress::{CompressorSpec, ErrorBound};
use zc_core::campaign::{FieldRef, FleetSpec, JobOutcome};
use zc_core::engine::{AssessRequest, CacheOutcome, Engine, JobResult};
use zc_core::metrics::{Metric, MetricSelection};
use zc_core::AssessConfig;
use zc_data::{AppDataset, GenOptions};

fn request(metrics: MetricSelection, seed: u64) -> AssessRequest {
    AssessRequest {
        field: FieldRef::new(AppDataset::Nyx, 0, GenOptions::scaled(32).with_seed(seed)),
        compressor: CompressorSpec::Sz(ErrorBound::Rel(1e-3)),
        cfg: AssessConfig {
            max_lag: 3,
            bins: 32,
            metrics,
            ..Default::default()
        },
    }
}

/// [psnr-only K, full K, full K, full K′, never-decoding codec on K″].
fn wave_batch() -> Vec<AssessRequest> {
    let full = || request(MetricSelection::all(), 0);
    let mut failing = request(MetricSelection::all(), 2);
    failing.compressor = CompressorSpec::FailDecode { every_nth: 1 };
    vec![
        request(MetricSelection::none().with(Metric::Psnr), 0),
        full(),
        full(),
        request(MetricSelection::all(), 1),
        failing,
    ]
}

/// Cache outcome, plus every metric and accounting value as exact bits
/// (`None` for a failed job).
fn result_bits(r: &JobResult) -> (CacheOutcome, Option<Vec<u64>>) {
    let bits = match &r.outcome {
        JobOutcome::Done(m) => Some(vec![
            m.psnr.to_bits(),
            m.ssim.to_bits(),
            m.mse.to_bits(),
            m.pearson.to_bits(),
            m.autocorr1.map_or(0, f64::to_bits),
            m.compression_ratio.to_bits(),
            m.modeled_seconds.to_bits(),
            m.assessed_bytes,
        ]),
        JobOutcome::Failed(msg) => {
            assert!(msg.contains("codec"), "failure must name the stage: {msg}");
            None
        }
    };
    (r.cache, bits)
}

#[test]
fn one_batch_resolves_in_waves_like_one_request_per_batch() {
    // One request per batch: each sees every predecessor's absorbed result.
    let mut engine = Engine::new(FleetSpec::nvlink(2)).unwrap();
    let reference: Vec<_> = wave_batch()
        .into_iter()
        .map(|req| {
            engine.submit(req).unwrap();
            result_bits(&engine.drain().results[0])
        })
        .collect();
    let outcomes: Vec<_> = reference.iter().map(|(c, _)| *c).collect();
    use CacheOutcome::{Hit, Miss, Partial};
    assert_eq!(outcomes, [Miss, Partial, Hit, Miss, Miss]);
    assert!(
        reference[4].1.is_none(),
        "the never-decoding codec must fail"
    );

    // One batch: the repeats of K wait a wave each behind their
    // predecessor, so they resolve exactly as above, at any worker count.
    let drain_together = || {
        let mut engine = Engine::new(FleetSpec::nvlink(2)).unwrap();
        for req in wave_batch() {
            engine.submit(req).unwrap();
        }
        let results: Vec<_> = engine.drain().results.iter().map(result_bits).collect();
        results
    };
    std::env::set_var("ZC_PAR_THREADS", "1");
    assert_eq!(zc_par::max_threads(), 1, "override must be live");
    let one = drain_together();
    std::env::set_var("ZC_PAR_THREADS", "2");
    assert_eq!(zc_par::max_threads(), 2, "override must be live");
    let two = drain_together();
    std::env::remove_var("ZC_PAR_THREADS");
    let max = drain_together();
    assert_eq!(one, reference, "1 worker vs one request per batch");
    assert_eq!(two, reference, "2 workers vs one request per batch");
    assert_eq!(max, reference, "max workers vs one request per batch");
}
