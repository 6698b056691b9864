//! Determinism tier: a served trace is bit-identical at every host worker
//! count.
//!
//! The engine generates batch fields and runs each wave of jobs
//! host-parallel but index-ordered, and touches the cache only between
//! waves in ticket order; the service loop adds only modeled time. So
//! the entire serve report — every verdict, every latency bit, every cache
//! counter — must be `==` at 1 worker, 2 workers, and the machine's full
//! parallelism. Kept as a single `#[test]` because the `ZC_PAR_THREADS`
//! override is process-global.

use zc_core::campaign::FleetSpec;
use zc_serve::{RequestTrace, ServeConfig, ServeReport, Server};

fn run_once() -> ServeReport {
    let mut server = Server::new(ServeConfig {
        batch: 4,
        ..ServeConfig::new(FleetSpec::nvlink(2))
    })
    .expect("open service");
    server.run_trace(&RequestTrace::synthetic(17, 24))
}

fn assert_reports_identical(a: &ServeReport, b: &ServeReport, ctx: &str) {
    assert_eq!(a.verdicts, b.verdicts, "{ctx}: verdicts");
    assert_eq!(a.completed, b.completed, "{ctx}: completed");
    assert_eq!(a.assessed_bytes, b.assessed_bytes, "{ctx}: assessed bytes");
    assert_eq!(a.cache, b.cache, "{ctx}: cache counters");
    for (name, va, vb) in [
        ("jobs_per_sec", a.jobs_per_sec, b.jobs_per_sec),
        ("p50", a.p50_latency_s, b.p50_latency_s),
        ("p99", a.p99_latency_s, b.p99_latency_s),
        ("makespan", a.makespan_s, b.makespan_s),
    ] {
        assert_eq!(
            va.to_bits(),
            vb.to_bits(),
            "{ctx}: {name} differs across worker counts: {va:?} vs {vb:?}"
        );
    }
}

#[test]
fn served_trace_is_bit_identical_across_worker_counts() {
    std::env::set_var("ZC_PAR_THREADS", "1");
    assert_eq!(zc_par::max_threads(), 1, "override must be live");
    let one = run_once();
    std::env::set_var("ZC_PAR_THREADS", "2");
    assert_eq!(zc_par::max_threads(), 2, "override must be live");
    let two = run_once();
    std::env::remove_var("ZC_PAR_THREADS");
    let max = run_once();
    assert_reports_identical(&one, &two, "1 vs 2 workers");
    assert_reports_identical(&one, &max, "1 vs max workers");
}
