//! Campaign descriptions — sharded multi-field batch assessment over the
//! simulated multi-GPU fleet.
//!
//! This module owns the campaign *description* layer: the spec types
//! ([`CampaignSpec`], [`FieldRef`], [`FleetSpec`], [`Scheduler`]), the job
//! cross product, and the report/aggregation types. Execution belongs to
//! [`crate::engine`]: a campaign's jobs run once through a cache-off
//! [`crate::engine::Engine`] session's executor — the steps of the drain
//! the resident `zc-serve` service feeds — and are then booked onto each
//! fleet by the campaign replay.
//!
//! Z-checker's original production shape (Di et al., IJHPCA 2017) is not
//! "assess one field": it is "assess a whole archive of fields under every
//! candidate compressor configuration and pick the best one". The paper's
//! §VI future-work plan is the matching hardware story: a multi-node
//! multi-GPU cuZ-Checker. This module joins the two: a **campaign** is the
//! cross product of a field catalog ([`zc_data::catalog_fields`]) and a set of
//! compressor configurations ([`zc_compress::CompressorSpec`]), sharded
//! across `N` simulated devices with *static deterministic* partitioning
//! and executed with host-side parallelism from `zc-par`.
//!
//! Design invariants (locked down by the differential/golden/determinism
//! test tiers — see `tests/README.md`):
//!
//! * **Determinism** — job order, shard assignment, and every metric value
//!   are independent of the host worker count (`zc-par` static spans +
//!   per-job isolation); campaign results are bit-identical at 1, 2, or
//!   max threads.
//! * **Failure isolation** — a codec or assessment error in one job is
//!   recorded in its [`JobRecord`] and never aborts the rest of the
//!   campaign.
//! * **Counter-merge invariant** — campaign-level per-pattern counters are
//!   the [`zc_gpusim::Counters::merge`] fold of every completed job's
//!   pattern runs (sums everywhere, `max` for the serial iteration depth),
//!   so fleet totals stay consistent with single-job accounting.

pub(crate) mod job;
pub(crate) mod recover;
mod report;
pub(crate) mod shard;

pub use job::{FieldRef, JobMetrics, JobOutcome, JobRecord, JobSpec};
pub use recover::{RecoveryPolicy, RecoveryReport};
pub(crate) use report::gather_s;
pub use report::{CampaignReport, EngineBusy, FleetUtilization, PatternTotals};
pub use shard::{FleetSpec, LinkKind, Scheduler, ShardPlan};

use crate::config::AssessConfig;
use crate::engine::{job_cost, AssessRequest, Engine};
use crate::plan::AssessPlan;
use crate::recommend::ProgressivePolicy;
use zc_compress::CompressorSpec;
use zc_data::{AppDataset, GenOptions};

/// A full campaign description: *what* to assess (field catalog), *under
/// which configurations* (compressor sweep), *how* (assessment config),
/// and *on what fleet* (shard/fleet spec).
#[derive(Clone, Debug)]
pub struct CampaignSpec {
    /// The fields to assess.
    pub fields: Vec<FieldRef>,
    /// The compressor configurations to sweep.
    pub compressors: Vec<CompressorSpec>,
    /// Assessment configuration shared by every job.
    pub cfg: AssessConfig,
    /// The simulated GPU fleet.
    pub fleet: FleetSpec,
    /// Job-placement policy over the fleet's device groups.
    pub scheduler: Scheduler,
    /// When set, every job runs the strided-subsample prepass first and
    /// early-exits (metrics marked subsampled) if the policy already
    /// decides its verdict.
    pub progressive: Option<ProgressivePolicy>,
    /// Retry/backoff policy for injected device faults (fixed constants),
    /// applied only when the fleet carries a non-null [`zc_gpusim::FaultPlan`].
    pub recovery: RecoveryPolicy,
}

/// Campaign-level errors (per-job failures are *not* errors — they are
/// recorded in the report; see [`JobOutcome`]).
#[derive(Clone, Debug, PartialEq)]
pub enum CampaignError {
    /// The fleet description is inconsistent.
    BadFleet(String),
    /// The shared assessment configuration failed validation.
    BadConfig(String),
    /// Fault injection permanently killed every device group before the
    /// campaign could finish — there is no surviving fleet to reschedule
    /// onto. Always a typed error, never a panic or a hang.
    AllDevicesDead {
        /// How many device groups the fleet had (all of them died).
        groups: u32,
    },
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::BadFleet(m) => write!(f, "bad fleet spec: {m}"),
            CampaignError::BadConfig(m) => write!(f, "bad assess config: {m}"),
            CampaignError::AllDevicesDead { groups } => write!(
                f,
                "all {groups} device group(s) died; no surviving fleet to reschedule onto"
            ),
        }
    }
}

impl std::error::Error for CampaignError {}

impl CampaignSpec {
    /// Campaign over every field of the given datasets.
    pub fn over_datasets(
        datasets: &[AppDataset],
        opts: GenOptions,
        compressors: Vec<CompressorSpec>,
        cfg: AssessConfig,
        fleet: FleetSpec,
    ) -> Self {
        let fields = zc_data::catalog_fields(datasets)
            .map(|(dataset, index, _)| FieldRef::new(dataset, index, opts))
            .collect();
        CampaignSpec {
            fields,
            compressors,
            cfg,
            fleet,
            scheduler: Scheduler::default(),
            progressive: None,
            recovery: RecoveryPolicy::default(),
        }
    }

    /// The job list: the (field × compressor) cross product in
    /// field-major order. Job ids are list positions; the shard plan and
    /// all result ordering key off them, so the list is deterministic by
    /// construction.
    pub fn jobs(&self) -> Vec<JobSpec> {
        let mut out = Vec::with_capacity(self.fields.len() * self.compressors.len());
        for (fi, field) in self.fields.iter().enumerate() {
            for compressor in &self.compressors {
                out.push(JobSpec {
                    id: out.len(),
                    field_index: fi,
                    field: field.clone(),
                    compressor: *compressor,
                });
            }
        }
        out
    }

    /// Execute the campaign: shard jobs over the fleet, run every job
    /// (isolating failures), and aggregate the report.
    pub fn run(&self) -> Result<CampaignReport, CampaignError> {
        let mut reports = self.run_on_fleets(std::slice::from_ref(&self.fleet))?;
        Ok(reports.pop().expect("one fleet in, one report out"))
    }

    /// Execute the campaign's jobs **once** and aggregate the outcomes
    /// under each of several fleets — the fleet-size sweep a capacity
    /// planner asks for ("how does this archive scale at 1/2/4/8 GPUs?")
    /// without re-running the functional work per fleet. Every device group
    /// is one device, so every fleet shares one job model.
    pub fn run_on_fleets(
        &self,
        fleets: &[FleetSpec],
    ) -> Result<Vec<CampaignReport>, CampaignError> {
        self.fleet.validate().map_err(CampaignError::BadFleet)?;
        self.cfg
            .validate()
            .map_err(|e| CampaignError::BadConfig(e.to_string()))?;
        for fleet in fleets {
            fleet.validate().map_err(CampaignError::BadFleet)?;
        }
        // One cache-off engine batch: the functional work runs once, then
        // is booked per fleet.
        let mut engine = Engine::open(self.fleet, 0);
        let plan = AssessPlan::lower(&self.cfg);
        // Admission: one verdict per field (jobs sharing a field share a
        // plan and a shape). A refused job skips the drain but still
        // occupies its slot in the shard plan as a failed record.
        let refused: Vec<Option<String>> = self
            .fields
            .iter()
            .map(|f| {
                let verdict = engine.admit_plan(&plan, f.shape(), &self.cfg);
                verdict.err().map(|e| e.to_string())
            })
            .collect();
        let jobs = self.jobs();
        let admitted: Vec<AssessRequest> = jobs
            .iter()
            .filter(|j| refused[j.field_index].is_none())
            .map(|j| AssessRequest {
                field: j.field.clone(),
                compressor: j.compressor,
                cfg: self.cfg.clone(),
            })
            .collect();
        let mut executed = engine
            .execute(
                &admitted,
                &vec![&plan; admitted.len()],
                self.progressive.as_ref(),
            )
            .into_iter();
        // The replay books each record's group and attempts per fleet.
        let records: Vec<JobRecord> = jobs
            .into_iter()
            .map(|spec| {
                let outcome = match &refused[spec.field_index] {
                    Some(msg) => JobOutcome::Failed(msg.clone()),
                    None => {
                        executed
                            .next()
                            .expect("one result per admitted job")
                            .outcome
                    }
                };
                JobRecord {
                    spec,
                    group: 0,
                    outcome,
                    attempts: 0,
                }
            })
            .collect();
        let (costs, splittable) = self.job_costs();
        fleets
            .iter()
            .map(|fleet| {
                let shard = self.scheduler.plan(&costs, &splittable, fleet.groups());
                recover::replay(records.clone(), fleet, &self.cfg, &shard, &costs)
            })
            .collect()
    }

    /// Predicted per-job costs (seconds) and split limits (resolved slab
    /// counts) the scheduler plans from — derived from each field's shape
    /// and the lowered pass DAG alone, before any field data exists. Jobs
    /// sharing a field share a cost (the codec config does not change the
    /// modeled assessment work).
    pub fn job_costs(&self) -> (Vec<f64>, Vec<usize>) {
        let plan = AssessPlan::lower(&self.cfg);
        self.jobs()
            .iter()
            .map(|j| job_cost(&plan, j.field.shape(), &self.cfg))
            .unzip()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zc_compress::ErrorBound;

    fn tiny_spec(gpus: u32) -> CampaignSpec {
        CampaignSpec::over_datasets(
            &[AppDataset::Nyx],
            GenOptions::scaled(32),
            vec![
                CompressorSpec::Sz(ErrorBound::Rel(1e-3)),
                CompressorSpec::Zfp(12.0),
            ],
            AssessConfig {
                max_lag: 3,
                bins: 32,
                ..Default::default()
            },
            FleetSpec::nvlink(gpus),
        )
    }

    #[test]
    fn cross_product_is_field_major_and_stable() {
        let spec = tiny_spec(2);
        let jobs = spec.jobs();
        assert_eq!(jobs.len(), 6 * 2);
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(j.id, i);
            assert_eq!(j.field_index, i / 2);
        }
        assert_eq!(
            jobs[0].field.qualified_name(),
            jobs[1].field.qualified_name()
        );
        assert_ne!(jobs[0].compressor.label(), jobs[1].compressor.label());
    }

    #[test]
    fn campaign_completes_every_job() {
        let report = tiny_spec(2).run().unwrap();
        assert_eq!(report.jobs.len(), 12);
        assert_eq!(report.completed(), 12);
        assert!(report.failures().is_empty());
        assert!(report.fleet.makespan_s > 0.0);
        assert!(report.fleet.jobs_per_sec > 0.0);
        // Round-robin over 2 groups: both devices got work.
        assert!(report.fleet.busy_s.iter().all(|&b| b > 0.0));
    }

    #[test]
    fn bad_fleet_is_rejected() {
        let mut spec = tiny_spec(2);
        spec.fleet.gpus = 0;
        assert!(matches!(spec.run(), Err(CampaignError::BadFleet(_))));
    }

    #[test]
    fn fleet_sweep_matches_direct_runs_and_scales() {
        let spec = tiny_spec(1);
        let fleets = [
            FleetSpec::nvlink(1),
            FleetSpec::nvlink(2),
            FleetSpec::nvlink(4),
        ];
        let reports = spec.run_on_fleets(&fleets).unwrap();
        assert!(reports[1].fleet.jobs_per_sec > reports[0].fleet.jobs_per_sec);
        assert!(reports[2].fleet.jobs_per_sec > reports[1].fleet.jobs_per_sec);
        // The sweep entry is bit-identical to a direct run on that fleet.
        let direct = CampaignSpec {
            fleet: FleetSpec::nvlink(2),
            ..tiny_spec(2)
        }
        .run()
        .unwrap();
        assert_eq!(direct.fleet.jobs_per_sec, reports[1].fleet.jobs_per_sec);
        assert_eq!(direct.fleet.busy_s, reports[1].fleet.busy_s);
        assert_eq!(direct.totals, reports[1].totals);
    }

    #[test]
    fn repeated_fields_keep_their_own_job_identity() {
        // The drain generates a field listed twice only once, but every
        // record still carries the campaign's own id and field index.
        let mut spec = tiny_spec(2);
        spec.fields.truncate(1);
        spec.fields.push(spec.fields[0].clone());
        let report = spec.run().unwrap();
        let ids: Vec<_> = report
            .jobs
            .iter()
            .map(|j| (j.spec.id, j.spec.field_index))
            .collect();
        assert_eq!(ids, [(0, 0), (1, 0), (2, 1), (3, 1)]);
        let psnr = |i: usize| report.jobs[i].metrics().unwrap().psnr.to_bits();
        assert_eq!((psnr(0), psnr(1)), (psnr(2), psnr(3)));
    }

    #[test]
    fn bad_config_is_rejected() {
        let mut spec = tiny_spec(1);
        spec.cfg.max_lag = 0;
        assert!(matches!(spec.run(), Err(CampaignError::BadConfig(_))));
    }
}
