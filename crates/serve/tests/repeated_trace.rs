//! Cache tier, end to end through the service: one seeded trace replayed
//! three ways — cache off, cold cache, warm re-run on the same server —
//! assesses strictly fewer field bytes each time while every request's
//! PSNR stays bit-identical.
//!
//! Admission is wide open (no quota, no backlog watermark), so every
//! request completes in every run and the runs compare request for
//! request.

use zc_core::campaign::FleetSpec;
use zc_serve::{RequestTrace, ServeConfig, ServeReport, Server, Verdict};

/// The shortest seed-42 trace for which all of this holds: its fourth
/// request is the first to repeat a key, so the cold run saves bytes.
const REQUESTS: usize = 4;

fn open_cfg(cache_entries: usize) -> ServeConfig {
    ServeConfig {
        tenant_quota: usize::MAX,
        watermark_s: f64::INFINITY,
        cache_entries,
        ..ServeConfig::new(FleetSpec::nvlink(4))
    }
}

/// Per-request PSNR bits of a run in which every request completed.
fn psnr_bits(report: &ServeReport) -> Vec<u64> {
    report
        .verdicts
        .iter()
        .map(|v| match v {
            Verdict::Done { psnr_bits, .. } => *psnr_bits,
            other => panic!("open admission refused or failed a request: {other:?}"),
        })
        .collect()
}

#[test]
fn repeated_trace_assesses_less_each_run_with_identical_psnr() {
    let trace = RequestTrace::synthetic(42, REQUESTS);

    let baseline = Server::new(open_cfg(0))
        .expect("open service")
        .run_trace(&trace);
    let mut cached = Server::new(open_cfg(256)).expect("open service");
    let cold = cached.run_trace(&trace);
    let warm = cached.run_trace(&trace);

    let base_bits = psnr_bits(&baseline);
    assert_eq!(
        base_bits,
        psnr_bits(&cold),
        "the cold cached run changed a PSNR bit vs the cache-off run"
    );
    assert_eq!(
        base_bits,
        psnr_bits(&warm),
        "the warm re-run changed a PSNR bit vs the cache-off run"
    );
    let bytes = [
        baseline.assessed_bytes,
        cold.assessed_bytes,
        warm.assessed_bytes,
    ];
    assert!(
        bytes[0] > bytes[1] && bytes[1] > bytes[2],
        "assessed bytes must strictly fall cache-off -> cold -> warm: {bytes:?}"
    );
    assert!(
        warm.cache.hit_rate() > cold.cache.hit_rate(),
        "the warm re-run must raise the hit rate: {:?} vs {:?}",
        warm.cache,
        cold.cache
    );
}
