//! Wave-semantics tier: one drained batch resolves exactly as the same
//! requests drained one per batch, at every host worker count.
//!
//! Within a batch, a request whose cache key already appeared earlier
//! waits for the next wave, so an in-batch repeat still sees its
//! predecessor's absorbed result (a hit or partial hit, never a second
//! miss). Re-drained on the warm session, the batch is answered from the
//! cache and keyed from the digest memo, so only the request that must
//! run again synthesizes its field. The memo is sound because field
//! generation is a pure, seeded function of the reference: the same test
//! draws references with SplitMix64 and checks their generated bits at
//! every worker count. Kept as a single `#[test]` because the
//! `ZC_PAR_THREADS` worker-count override is process-global.

use zc_compress::{CompressorSpec, ErrorBound};
use zc_core::campaign::{FieldRef, FleetSpec, JobOutcome};
use zc_core::engine::{AssessRequest, CacheOutcome, Engine, JobResult};
use zc_core::metrics::{Metric, MetricSelection};
use zc_core::AssessConfig;
use zc_data::{AppDataset, GenOptions, SplitMix64};

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

/// Generated bits of SplitMix64-drawn snapshot and time-series
/// references, each generated twice and checked equal.
fn drawn_field_bits() -> Vec<(FieldRef, Vec<u32>)> {
    let mut rng = SplitMix64::new(0x5eed);
    (0..12)
        .map(|_| {
            let mut pick = |n: usize| (rng.next_u64() % n as u64) as usize;
            let dataset = AppDataset::ALL[pick(AppDataset::ALL.len())];
            let index = pick(dataset.field_count());
            let opts = GenOptions::scaled([16, 32][pick(2)]).with_seed(pick(1 << 16) as u64);
            let field = match pick(2) {
                0 => FieldRef::new(dataset, index, opts),
                _ => FieldRef::timeseries(dataset, index, opts, 2 + pick(3)),
            };
            let bits = |f: &FieldRef| -> Vec<u32> {
                f.generate()
                    .data
                    .as_slice()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect()
            };
            let first = bits(&field);
            assert_eq!(first, bits(&field), "{field:?}: regeneration differs");
            (field, first)
        })
        .collect()
}

#[test]
fn one_batch_resolves_in_waves_like_one_request_per_batch() {
    // One request per batch: each sees every predecessor's absorbed result.
    let mut engine = Engine::new(FleetSpec::nvlink(2)).unwrap();
    let reference: Vec<_> = wave_batch()
        .into_iter()
        .map(|req| {
            engine.submit(req).unwrap();
            result_bits(&engine.drain(0.0).results[0])
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
    // Re-drained on the warm session, every completed request is a full
    // hit carrying its first drain's bits. The failing codec's request
    // misses again (failures are never cached), so its field is the only
    // one generated: every other field is keyed from the digest memo.
    let drain_together = || {
        let mut engine = Engine::new(FleetSpec::nvlink(2)).unwrap();
        let mut drain = || {
            for req in wave_batch() {
                engine.submit(req).unwrap();
            }
            let batch = engine.drain(0.0);
            let results: Vec<_> = batch.results.iter().map(result_bits).collect();
            (results, batch.cache.fields_generated)
        };
        let (cold, cold_generated) = drain();
        let (warm, warm_generated) = drain();
        assert_eq!(cold_generated, 3, "K, K′ and K″, once each");
        assert_eq!(warm_generated - cold_generated, 1, "only K″ regenerates");
        (cold, warm, drawn_field_bits())
    };
    std::env::set_var("ZC_PAR_THREADS", "1");
    assert_eq!(zc_par::max_threads(), 1, "override must be live");
    let one = drain_together();
    std::env::set_var("ZC_PAR_THREADS", "2");
    assert_eq!(zc_par::max_threads(), 2, "override must be live");
    let two = drain_together();
    std::env::remove_var("ZC_PAR_THREADS");
    let max = drain_together();
    assert_eq!(one.0, reference, "1 worker vs one request per batch");
    assert_eq!(two.0, reference, "2 workers vs one request per batch");
    assert_eq!(max.0, reference, "max workers vs one request per batch");

    let warm_outcomes: Vec<_> = one.1.iter().map(|(c, _)| *c).collect();
    assert_eq!(warm_outcomes, [Hit, Hit, Hit, Hit, Miss]);
    // A hit reports no device time and no assessed bytes; its metric bits
    // are the first drain's. The psnr-only request now reads K's full
    // entry, so it matches the full K request.
    let strip = |b: &Option<Vec<u64>>| b.as_ref().map(|v| v[..6].to_vec());
    for (i, cold) in [1, 1, 2, 3, 4].into_iter().enumerate() {
        assert_eq!(
            strip(&one.1[i].1),
            strip(&reference[cold].1),
            "request {i}: warm vs cold bits"
        );
    }
    assert_eq!(two.1, one.1, "warm drain: 2 vs 1 workers");
    assert_eq!(max.1, one.1, "warm drain: max vs 1 workers");

    // The memo's soundness precondition: generation is bit-reproducible
    // at every worker count.
    assert_eq!(two.2, one.2, "generated bits: 2 vs 1 workers");
    assert_eq!(max.2, one.2, "generated bits: max vs 1 workers");
}
