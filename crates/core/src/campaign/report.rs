//! Campaign-level aggregation: merged counters, fleet utilization, and the
//! per-field metrics table.

use super::job::JobRecord;
use super::shard::{FleetSpec, ShardPlan};
use crate::config::AssessConfig;
use crate::exec::PatternRun;
use crate::metrics::Pattern;
use zc_gpusim::Counters;

/// Campaign-wide counters, merged per pattern across every completed job
/// with the [`Counters::merge`] invariant (sums everywhere, `max` for the
/// per-thread serial depth).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PatternTotals {
    /// Pattern-1 (global reduction) totals.
    pub p1: Counters,
    /// Pattern-2 (stencil) totals.
    pub p2: Counters,
    /// Pattern-3 (sliding window) totals.
    pub p3: Counters,
}

impl PatternTotals {
    /// Merge one job's pattern runs into the totals.
    pub fn absorb(&mut self, runs: &[PatternRun]) {
        for run in runs {
            match run.pattern {
                Pattern::GlobalReduction => self.p1.merge(&run.counters),
                Pattern::Stencil => self.p2.merge(&run.counters),
                Pattern::SlidingWindow => self.p3.merge(&run.counters),
                Pattern::CompressionMeta => {}
            }
        }
    }

    /// Everything merged into one counter set.
    pub fn combined(&self) -> Counters {
        Counters::merged([&self.p1, &self.p2, &self.p3])
    }
}

/// Per-engine busy seconds summed across every completed job's stream
/// timeline — the campaign-level view of [`zc_gpusim::stream::Timeline::engine_busy_s`].
///
/// The fractions divide by the *schedule's* device-group-seconds
/// (`groups × makespan`), so they are recomputed per fleet: the same jobs
/// re-sharded over more groups with less balance show every engine less
/// busy. (An earlier version summed the fleet-independent per-job
/// makespans into `span_s`, which made the fractions identical across
/// fleet sizes — the regression `engine_fractions_are_recomputed_per_schedule`
/// pins the fix.)
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EngineBusy {
    /// Host-to-device upload seconds.
    pub h2d_s: f64,
    /// Kernel compute seconds.
    pub compute_s: f64,
    /// Device-to-host partial-drain seconds.
    pub d2h_s: f64,
    /// Total device-group-seconds of the schedule (`groups × makespan`) —
    /// the denominator of the fraction methods.
    pub span_s: f64,
}

impl EngineBusy {
    /// Add `scale` of each of a job's engine legs.
    pub(super) fn absorb(&mut self, scale: f64, e: &zc_gpusim::EndToEnd) {
        self.h2d_s += scale * e.h2d_s;
        self.compute_s += scale * e.compute_s;
        self.d2h_s += scale * e.d2h_s;
    }

    fn fraction(&self, busy: f64) -> f64 {
        if self.span_s > 0.0 {
            busy / self.span_s
        } else {
            0.0
        }
    }

    /// Fraction of the streamed makespan the upload engine was busy.
    pub fn h2d_fraction(&self) -> f64 {
        self.fraction(self.h2d_s)
    }

    /// Fraction of the streamed makespan the compute engine was busy.
    pub fn compute_fraction(&self) -> f64 {
        self.fraction(self.compute_s)
    }

    /// Fraction of the streamed makespan the drain engine was busy.
    pub fn d2h_fraction(&self) -> f64 {
        self.fraction(self.d2h_s)
    }

    /// True when the copy engines outweigh compute — the fleet's idle is
    /// transfer-bound and a faster link (or more overlap) pays off more
    /// than more SMs.
    pub fn transfer_bound(&self) -> bool {
        self.h2d_s + self.d2h_s > self.compute_s
    }
}

/// Modeled fleet-level throughput summary.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetUtilization {
    /// Total simulated devices.
    pub gpus: u32,
    /// Independent device groups (shard targets).
    pub groups: u32,
    /// Modeled busy seconds per group (assessment + per-job result gather).
    pub busy_s: Vec<f64>,
    /// Modeled campaign makespan: the busiest group's seconds.
    pub makespan_s: f64,
    /// Mean busy fraction across groups at the makespan (1.0 = perfectly
    /// balanced static shard).
    pub utilization: f64,
    /// Completed jobs per modeled second.
    pub jobs_per_sec: f64,
    /// Assessed field payload per modeled second, in GB/s.
    pub assessed_gbs: f64,
    /// Per-engine busy split of the jobs' stream timelines.
    pub engines: EngineBusy,
    /// The scheduler's cost-model-predicted makespan for this shard plan
    /// (seconds; 0 when the plan carried no prediction).
    pub predicted_makespan_s: f64,
    /// Relative prediction error, `(predicted − actual) / actual` (0 when
    /// either side is unavailable).
    pub makespan_rel_error: f64,
    /// Bytes of field data the assessments actually read: both fields in
    /// full for full-resolution jobs, the subsample only for jobs that
    /// early-exited through the progressive prepass.
    pub assessed_bytes: u64,
}

/// The aggregate result of a campaign run.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// Every job with its shard assignment and outcome, in job-id order.
    pub jobs: Vec<JobRecord>,
    /// Campaign-wide per-pattern counter totals (completed jobs only).
    pub totals: PatternTotals,
    /// Fleet utilization / modeled throughput.
    pub fleet: FleetUtilization,
    /// Fault-recovery accounting — `Some` only when the fleet carried a
    /// non-null [`zc_gpusim::FaultPlan`] and the chaos simulation ran.
    pub recovery: Option<super::recover::RecoveryReport>,
}

/// Modeled seconds to gather one completed job's results from its device
/// group over the fleet's link ([`crate::plan::gather_s`]).
pub(crate) fn gather_s(fleet: &FleetSpec, cfg: &AssessConfig) -> f64 {
    crate::plan::gather_s(&fleet.link.host_link(), cfg)
}

/// Modeled seconds one part of a job holds its device group: its `share`
/// of the job's `span_s` (see [`super::JobMetrics::span_s`]) plus the
/// part's own result gather.
pub(super) fn part_s(share: f64, span_s: f64, gather_s: f64) -> f64 {
    share * span_s + gather_s
}

/// The busiest group's seconds.
pub(super) fn makespan(busy_s: &[f64]) -> f64 {
    busy_s.iter().copied().fold(0.0, f64::max)
}

impl CampaignReport {
    /// Fold the completed jobs and the device groups' busy clocks into a
    /// report: counter totals, engine legs, payload and assessed bytes
    /// accumulate over the completed jobs in job order, on top of the last
    /// argument's engine legs and bytes, which no completed job accounts
    /// for; the makespan, utilization, throughput and prediction error
    /// derive from the clocks. The prediction books what the clocks book: each group's
    /// plan load plus one `gather_s` per part placed on it. The campaign
    /// replay ([`super::recover`]) ends here.
    pub(crate) fn from_busy_clocks(
        jobs: Vec<JobRecord>,
        fleet: &FleetSpec,
        plan: &ShardPlan,
        busy_s: Vec<f64>,
        gather_s: f64,
        (mut engines, mut assessed_bytes): (EngineBusy, u64),
    ) -> CampaignReport {
        let groups = busy_s.len();
        let mut totals = PatternTotals::default();
        let mut completed = 0usize;
        let mut payload_bytes = 0u64;
        for r in &jobs {
            if let Some(m) = r.metrics() {
                totals.absorb(&m.runs);
                if let Some(e2e) = &m.e2e {
                    engines.absorb(1.0, e2e);
                }
                completed += 1;
                payload_bytes += r.spec.field.shape().len() as u64 * 4;
                assessed_bytes += m.assessed_bytes;
            }
        }
        let makespan_s = makespan(&busy_s);
        let (utilization, jobs_per_sec, assessed_gbs) = if makespan_s > 0.0 {
            (
                busy_s.iter().sum::<f64>() / (groups as f64 * makespan_s),
                completed as f64 / makespan_s,
                payload_bytes as f64 / makespan_s / 1e9,
            )
        } else {
            (0.0, 0.0, 0.0)
        };
        // The engines' denominator is the schedule's total device-group
        // seconds, so the busy fractions are per-fleet quantities.
        engines.span_s = groups as f64 * makespan_s;
        let predicted_makespan_s = plan.predicted_makespan_with(gather_s);
        let makespan_rel_error = if makespan_s > 0.0 && predicted_makespan_s > 0.0 {
            (predicted_makespan_s - makespan_s) / makespan_s
        } else {
            0.0
        };
        CampaignReport {
            jobs,
            totals,
            fleet: FleetUtilization {
                gpus: fleet.gpus,
                groups: groups as u32,
                busy_s,
                makespan_s,
                utilization,
                jobs_per_sec,
                assessed_gbs,
                engines,
                predicted_makespan_s,
                makespan_rel_error,
                assessed_bytes,
            },
            recovery: None,
        }
    }

    /// Number of completed jobs.
    pub fn completed(&self) -> usize {
        self.jobs.iter().filter(|j| j.metrics().is_some()).count()
    }

    /// The failed jobs with their error messages.
    pub fn failures(&self) -> Vec<(&JobRecord, &str)> {
        self.jobs
            .iter()
            .filter_map(|j| match &j.outcome {
                super::job::JobOutcome::Failed(msg) => Some((j, msg.as_str())),
                super::job::JobOutcome::Done(_) => None,
            })
            .collect()
    }

    /// Render the per-field metrics table plus the fleet summary.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<28} {:<18} {:>4} {:>9} {:>8} {:>8} {:>11}\n",
            "field", "compressor", "dev", "psnr", "ssim", "ratio", "modeled(s)"
        ));
        for j in &self.jobs {
            match &j.outcome {
                super::job::JobOutcome::Done(m) => out.push_str(&format!(
                    "{:<28} {:<18} {:>4} {:>9.3} {:>8.5} {:>8.2} {:>11.5}{}\n",
                    j.spec.field.qualified_name(),
                    j.spec.compressor.label(),
                    j.group,
                    m.psnr,
                    m.ssim,
                    m.compression_ratio,
                    m.modeled_seconds,
                    if m.confidence == crate::exec::Confidence::Subsampled {
                        " (subsampled)"
                    } else {
                        ""
                    },
                )),
                super::job::JobOutcome::Failed(msg) => out.push_str(&format!(
                    "{:<28} {:<18} {:>4} FAILED: {msg}\n",
                    j.spec.field.qualified_name(),
                    j.spec.compressor.label(),
                    j.group,
                )),
            }
        }
        let f = &self.fleet;
        out.push_str(&format!(
            "fleet: {} GPUs in {} groups | makespan {:.5} s | utilization {:.1}% | {:.2} jobs/s | {:.2} GB/s\n",
            f.gpus,
            f.groups,
            f.makespan_s,
            f.utilization * 100.0,
            f.jobs_per_sec,
            f.assessed_gbs,
        ));
        if f.predicted_makespan_s > 0.0 {
            out.push_str(&format!(
                "schedule: predicted makespan {:.5} s ({:+.1}% vs actual)\n",
                f.predicted_makespan_s,
                f.makespan_rel_error * 100.0,
            ));
        }
        let e = &f.engines;
        out.push_str(&format!(
            "engines: h2d {:.1}% | compute {:.1}% | d2h {:.1}% busy ({}-bound)\n",
            e.h2d_fraction() * 100.0,
            e.compute_fraction() * 100.0,
            e.d2h_fraction() * 100.0,
            if e.transfer_bound() {
                "transfer"
            } else {
                "compute"
            },
        ));
        if let Some(r) = &self.recovery {
            out.push_str(&format!(
                "recovery: {} attempts | {} retries | {} reschedules | {} watchdog trips | \
                 {} flaps | {} dead device(s) | {} lost job(s) | completion {:.1}% | \
                 makespan {:+.1}% vs fault-free\n",
                r.attempts,
                r.retries,
                r.reschedules,
                r.watchdog_trips,
                r.link_flaps,
                r.dead_devices.len(),
                r.lost_jobs,
                r.completion * 100.0,
                r.makespan_inflation * 100.0,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::super::{CampaignSpec, FleetSpec};
    use crate::config::AssessConfig;
    use zc_compress::{CompressorSpec, ErrorBound};
    use zc_data::{AppDataset, GenOptions};

    fn spec(fleet: FleetSpec) -> CampaignSpec {
        CampaignSpec::over_datasets(
            &[AppDataset::ScaleLetkf],
            GenOptions::scaled(32),
            vec![CompressorSpec::Sz(ErrorBound::Rel(1e-3))],
            AssessConfig {
                max_lag: 3,
                bins: 32,
                ..Default::default()
            },
            fleet,
        )
    }

    #[test]
    fn totals_merge_all_completed_runs() {
        let report = spec(FleetSpec::nvlink(2)).run().unwrap();
        let t = report.totals;
        assert!(t.p1.global_read_bytes > 0);
        assert!(t.p2.global_read_bytes > 0);
        assert!(t.p3.global_read_bytes > 0);
        assert!(t.combined().global_read_bytes >= t.p1.global_read_bytes);
        // Launch counts accumulate across all 6 jobs.
        assert!(t.combined().launches >= 6);
    }

    #[test]
    fn utilization_is_a_fraction_and_makespan_bounds_busy() {
        let report = spec(FleetSpec::nvlink(4)).run().unwrap();
        let f = &report.fleet;
        assert!(f.utilization > 0.0 && f.utilization <= 1.0);
        for &b in &f.busy_s {
            assert!(b <= f.makespan_s + 1e-12);
        }
        assert!(f.assessed_gbs > 0.0);
    }

    #[test]
    fn render_table_lists_every_job_and_summary() {
        let report = spec(FleetSpec::pcie(2)).run().unwrap();
        let table = report.render_table();
        assert_eq!(table.matches("SCALE-LETKF/").count(), 6);
        assert!(table.contains("fleet: 2 GPUs"));
        assert!(table.contains("jobs/s"));
        assert!(table.contains("engines: h2d"));
    }

    #[test]
    fn engine_busy_splits_the_stream_makespan() {
        let report = spec(FleetSpec::nvlink(2)).run().unwrap();
        let e = report.fleet.engines;
        // Every completed job modeled a stream timeline, so every engine
        // saw traffic and no engine can be busier than the span.
        assert!(e.span_s > 0.0);
        for f in [e.h2d_fraction(), e.compute_fraction(), e.d2h_fraction()] {
            assert!(f > 0.0 && f <= 1.0, "fraction {f}");
        }
        // Scale-32 fields are tiny: the fixed link latency on the copy
        // legs dwarfs the modeled kernel time, so this campaign's idle is
        // transfer-bound — exactly the diagnosis the split exists to make.
        assert!(e.transfer_bound());
        // Each tiny job runs as one slab, so its pair uploads in exactly
        // one PCIe leg.
        let link = zc_gpusim::stream::HostLink::pcie();
        for job in &report.jobs {
            let m = job.metrics().expect("every job completes");
            let pair_bytes = job.spec.field.shape().len() as u64 * 4 * 2;
            let h2d = m.e2e.expect("device executor").h2d_s;
            assert_eq!(h2d.to_bits(), link.transfer_s(pair_bytes).to_bits());
        }
    }

    #[test]
    fn engine_fractions_are_recomputed_per_schedule() {
        // Same jobs, two fleets: engine *busy* totals are identical, but
        // the span each fraction divides by is the schedule's, so the
        // fractions must differ. (A past bug summed per-job spans during
        // absorb, which made every fleet report the same fractions.)
        let s = spec(FleetSpec::nvlink(1));
        let reports = s
            .run_on_fleets(&[FleetSpec::nvlink(1), FleetSpec::nvlink(8)])
            .unwrap();
        let (one, eight) = (&reports[0].fleet.engines, &reports[1].fleet.engines);
        assert_eq!(one.h2d_s.to_bits(), eight.h2d_s.to_bits());
        assert_eq!(one.compute_s.to_bits(), eight.compute_s.to_bits());
        // 8 groups holding 6 jobs leave engines idle that a single group
        // keeps saturated: every fraction strictly drops.
        assert!(eight.span_s > one.span_s);
        assert!(eight.compute_fraction() < one.compute_fraction());
        assert!(eight.h2d_fraction() < one.h2d_fraction());
        assert!(eight.d2h_fraction() < one.d2h_fraction());
    }
}
