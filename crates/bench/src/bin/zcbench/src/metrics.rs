//! The metric catalogue: every name the benchmark prints, its unit, which
//! direction is better, and the bound by which it may worsen before
//! `zcbench compare` calls it a regression.
//!
//! `BENCHMARK.json` at the repository root repeats the gated end-to-end
//! entries and the per-layer names; a unit test holds the two in step.

/// Which direction of change is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How far a metric may move the wrong way before it is a regression.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Bound {
    /// A share of the base median.
    Relative(f64),
    /// An absolute amount (`error_fraction` may not rise at all).
    Absolute(f64),
}

/// One end-to-end metric.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Bound,
    /// Reported by every workload and listed in `BENCHMARK.json`, so it
    /// appears in the result line of every untraced run.
    pub gated: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: Bound,
    gated: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        gated,
    }
}

use Better::{Higher, Lower};
use Bound::{Absolute, Relative};

/// End-to-end metrics. The gated four are defined for every workload and
/// their bounds allow for the spread between runs on different seeds and
/// for host noise. The rest are workload-specific, deterministic for a
/// given seed, and held to 1%.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", Lower, Relative(0.25), true),
    e2e("peak_rss_mb", "MiB", Lower, Relative(0.10), true),
    e2e("wall_jobs_per_s", "1/s", Higher, Relative(0.25), true),
    e2e("modeled_jobs_per_s", "1/s", Higher, Relative(0.20), true),
    e2e("error_fraction", "ratio", Lower, Absolute(0.0), false),
    e2e("modeled_gbs", "GB/s", Higher, Relative(0.01), false),
    e2e("modeled_p50_s.low", "s", Lower, Relative(0.01), false),
    e2e("modeled_p50_s.mid", "s", Lower, Relative(0.01), false),
    e2e("modeled_p50_s.high", "s", Lower, Relative(0.01), false),
    e2e("modeled_p99_s.low", "s", Lower, Relative(0.01), false),
    e2e("modeled_p99_s.mid", "s", Lower, Relative(0.01), false),
    e2e("modeled_p99_s.high", "s", Lower, Relative(0.01), false),
];

/// Per-layer metrics of the traced run: `(name, unit, better)`. Every
/// traced run reports every name; a layer the workload does not exercise
/// reports 0.
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    ("data.generate_ms", "ms", Lower),
    ("data.generate_calls", "count", Lower),
    ("data.generate_mb_per_s", "MB/s", Higher),
    ("compress.roundtrip_ms", "ms", Lower),
    ("compress.calls", "count", Lower),
    ("compress.mb_per_s", "MB/s", Higher),
    ("compress.ratio_mean", "ratio", Higher),
    ("cache.hit_rate", "ratio", Higher),
    ("cache.partial_rate", "ratio", Higher),
    ("cache.miss_rate", "ratio", Lower),
    ("cache.insertions", "count", Lower),
    ("cache.evictions", "count", Lower),
    ("cache.digest_ms", "ms", Lower),
    ("cache.assessed_mb", "MB", Lower),
    ("plan.lower_verify_us", "us", Lower),
    ("plan.slabs", "count", Higher),
    ("plan.pred_rel_error", "ratio", Lower),
    ("exec.run_plan_ms", "ms", Lower),
    ("exec.p1_wall_ms", "ms", Lower),
    ("exec.p2_wall_ms", "ms", Lower),
    ("exec.p3_wall_ms", "ms", Lower),
    ("kernels.p1_modeled_ms", "ms", Lower),
    ("kernels.p2_modeled_ms", "ms", Lower),
    ("kernels.p3_modeled_ms", "ms", Lower),
    ("kernels.global_mb", "MB", Lower),
    ("kernels.lane_gflop", "GFLOP", Lower),
    ("kernels.flops_per_byte", "flop/B", Higher),
    ("kernels.launches", "count", Lower),
    ("kernels.shared_accesses", "count", Lower),
    ("gpusim.h2d_ms", "ms", Lower),
    ("gpusim.d2h_ms", "ms", Lower),
    ("gpusim.compute_ms", "ms", Lower),
    ("gpusim.overlap_saving", "ratio", Higher),
    ("gpusim.h2d_busy", "ratio", Higher),
    ("gpusim.compute_busy", "ratio", Higher),
    ("gpusim.d2h_busy", "ratio", Higher),
    ("sched.plan_us", "us", Lower),
    ("sched.utilization", "ratio", Higher),
    ("recover.attempts", "count", Lower),
    ("recover.retries", "count", Lower),
    ("recover.reschedules", "count", Lower),
    ("recover.makespan_inflation", "ratio", Lower),
    ("recover.completion", "ratio", Higher),
    ("engine.drain_ms", "ms", Lower),
    ("engine.batches", "count", Lower),
    ("engine.batch_makespan_ms", "ms", Lower),
    ("serve.offer_us", "us", Lower),
    ("serve.refused_quota", "count", Lower),
    ("serve.refused_saturated", "count", Lower),
    ("serve.refused_admission", "count", Lower),
    ("serve.fill_wait_s.low", "s", Lower),
    ("serve.fill_wait_s.mid", "s", Lower),
    ("serve.fill_wait_s.high", "s", Lower),
    ("serve.queue_wait_s.low", "s", Lower),
    ("serve.queue_wait_s.mid", "s", Lower),
    ("serve.queue_wait_s.high", "s", Lower),
    ("serve.exec_s.low", "s", Lower),
    ("serve.exec_s.mid", "s", Lower),
    ("serve.exec_s.high", "s", Lower),
    ("trace.overhead", "ratio", Lower),
];

/// Unit and direction of any metric name, end-to-end or per-layer.
pub fn lookup(name: &str) -> Option<(&'static str, Better)> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| (m.unit, m.better))
        .or_else(|| {
            PER_LAYER
                .iter()
                .find(|(n, _, _)| *n == name)
                .map(|&(_, u, b)| (u, b))
        })
}

/// The end-to-end definition of a name, if it is one.
#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn benchmark_json() -> json::Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let b = benchmark_json();
        let listed = b.get("end_to_end").and_then(|v| v.as_array()).unwrap();
        let gated: Vec<&EndToEnd> = END_TO_END.iter().filter(|m| m.gated).collect();
        assert_eq!(listed.len(), gated.len());
        for (entry, def) in listed.iter().zip(gated) {
            assert_eq!(entry.get("name").and_then(|v| v.as_str()), Some(def.name));
            assert_eq!(entry.get("unit").and_then(|v| v.as_str()), Some(def.unit));
            assert_eq!(
                entry.get("better").and_then(|v| v.as_str()),
                Some(def.better.label())
            );
            assert_eq!(
                entry.get("bound").and_then(|v| v.as_f64()).map(Relative),
                Some(def.bound)
            );
        }
        let layers = b.get("per_layer").and_then(|v| v.as_array()).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (entry, (name, unit, better)) in layers.iter().zip(PER_LAYER) {
            assert_eq!(entry.get("name").and_then(|v| v.as_str()), Some(*name));
            assert_eq!(entry.get("unit").and_then(|v| v.as_str()), Some(*unit));
            assert_eq!(
                entry.get("better").and_then(|v| v.as_str()),
                Some(better.label())
            );
        }
        let workloads: Vec<&str> = b
            .get("workloads")
            .and_then(|v| v.as_array())
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).unwrap())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
