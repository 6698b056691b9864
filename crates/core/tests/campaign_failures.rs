//! Failure-isolation tier: one bad job must never take down a campaign.
//!
//! A campaign is an archive-scale batch; in production one corrupt stream
//! or one misconfigured codec per thousand jobs is the normal case, not
//! the exception. The engine's contract is that per-job errors become
//! [`JobOutcome::Failed`] records in the report while every other job
//! completes — exercised here with the fault-injection codec
//! (`CompressorSpec::FailDecode`), plus the empty-campaign edge cases.

use zc_compress::{CompressorSpec, ErrorBound};
use zc_core::campaign::{
    CampaignError, CampaignSpec, FieldRef, FleetSpec, JobOutcome, RecoveryPolicy, Scheduler,
};
use zc_core::AssessConfig;
use zc_data::{AppDataset, GenOptions};
use zc_gpusim::FaultPlan;

fn fields(dataset: AppDataset, n: usize) -> Vec<FieldRef> {
    (0..n.min(dataset.field_count()))
        .map(|index| FieldRef::new(dataset, index, GenOptions::scaled(32)))
        .collect()
}

fn small_cfg() -> AssessConfig {
    AssessConfig {
        max_lag: 3,
        bins: 32,
        ..Default::default()
    }
}

#[test]
fn one_failing_codec_does_not_abort_the_campaign() {
    let spec = CampaignSpec {
        fields: fields(AppDataset::Hurricane, 3),
        compressors: vec![
            CompressorSpec::Sz(ErrorBound::Rel(1e-3)),
            CompressorSpec::FailDecode { every_nth: 1 },
        ],
        cfg: small_cfg(),
        scheduler: Scheduler::default(),
        progressive: None,
        recovery: RecoveryPolicy::default(),
        fleet: FleetSpec::nvlink(2),
    };
    let report = spec.run().unwrap();
    assert_eq!(report.jobs.len(), 6);
    // Every SZ job completed, every fault-injected job failed.
    assert_eq!(report.completed(), 3);
    let failures = report.failures();
    assert_eq!(failures.len(), 3);
    for (job, msg) in &failures {
        assert_eq!(
            job.spec.compressor,
            CompressorSpec::FailDecode { every_nth: 1 }
        );
        assert!(msg.contains("codec"), "failure must name the stage: {msg}");
        assert!(
            msg.contains("never decodes"),
            "failure must carry the codec error: {msg}"
        );
    }
    // Completed jobs carry real metrics; the failures contributed nothing
    // to the fleet model or the counter totals.
    for job in &report.jobs {
        if let JobOutcome::Done(m) = &job.outcome {
            assert!(m.psnr > 30.0);
            assert!(m.modeled_seconds > 0.0);
        }
    }
    assert!(report.fleet.makespan_s > 0.0);
    assert!(report.fleet.jobs_per_sec > 0.0);
    assert!(report.totals.combined().launches > 0);
    // The report surfaces the failures in its rendered table too.
    let table = report.render_table();
    assert_eq!(table.matches("FAILED").count(), 3);
}

#[test]
fn all_jobs_failing_still_produces_a_report() {
    let spec = CampaignSpec {
        fields: fields(AppDataset::Nyx, 2),
        compressors: vec![CompressorSpec::FailDecode { every_nth: 1 }],
        cfg: small_cfg(),
        scheduler: Scheduler::default(),
        progressive: None,
        recovery: RecoveryPolicy::default(),
        fleet: FleetSpec::nvlink(4),
    };
    let report = spec.run().unwrap();
    assert_eq!(report.completed(), 0);
    assert_eq!(report.failures().len(), 2);
    // No completed work: the fleet model degenerates to zeros, not NaNs.
    assert_eq!(report.fleet.makespan_s, 0.0);
    assert_eq!(report.fleet.jobs_per_sec, 0.0);
    assert_eq!(report.fleet.utilization, 0.0);
}

#[test]
fn admission_refusals_stay_failed_records_priced_into_the_plan() {
    // 65536 histogram bins are a valid config, but the histogram pass's
    // shared-memory bins overflow the device's per-block cap: admission
    // refuses every job before it runs. Refused jobs are records, not
    // errors, and the scheduler still prices them.
    let spec = CampaignSpec {
        fields: fields(AppDataset::Nyx, 2),
        compressors: vec![CompressorSpec::Sz(ErrorBound::Rel(1e-3))],
        cfg: AssessConfig {
            bins: 1 << 16,
            ..small_cfg()
        },
        scheduler: Scheduler::List,
        progressive: None,
        recovery: RecoveryPolicy::default(),
        fleet: FleetSpec::nvlink(2),
    };
    let report = spec.run().unwrap();
    assert_eq!(report.completed(), 0);
    assert_eq!(report.failures().len(), 2);
    for (job, msg) in report.failures() {
        assert!(msg.starts_with("admission: plan/"), "{msg}");
        assert_eq!(job.attempts, 1);
    }
    for (i, job) in report.jobs.iter().enumerate() {
        assert_eq!((job.spec.id, job.spec.field_index), (i, i));
    }
    assert!(report.fleet.predicted_makespan_s > 0.0);
    assert_eq!(report.fleet.makespan_s, 0.0);
}

#[test]
fn empty_catalog_campaign_is_a_clean_no_op() {
    let spec = CampaignSpec {
        fields: vec![],
        compressors: vec![CompressorSpec::Sz(ErrorBound::Rel(1e-3))],
        cfg: small_cfg(),
        scheduler: Scheduler::default(),
        progressive: None,
        recovery: RecoveryPolicy::default(),
        fleet: FleetSpec::nvlink(4),
    };
    let report = spec.run().unwrap();
    assert!(report.jobs.is_empty());
    assert_eq!(report.completed(), 0);
    assert!(report.failures().is_empty());
    assert_eq!(report.fleet.makespan_s, 0.0);
    assert_eq!(report.fleet.jobs_per_sec, 0.0);
    assert_eq!(report.fleet.utilization, 0.0);
    assert_eq!(report.fleet.busy_s, vec![0.0; 4]);
    // Renders a header + fleet summary without panicking.
    assert!(report.render_table().contains("fleet: 4 GPUs"));
}

#[test]
fn retry_exhaustion_loses_jobs_but_never_the_campaign() {
    // Every attempt takes a transient fault: each shard part burns its
    // full retry budget and the job is recorded lost — an `Ok` report with
    // failures, never an `Err`, a panic, or an unbounded retry loop.
    let spec = CampaignSpec {
        fields: fields(AppDataset::Nyx, 2),
        compressors: vec![CompressorSpec::Sz(ErrorBound::Rel(1e-3))],
        cfg: small_cfg(),
        scheduler: Scheduler::default(),
        progressive: None,
        recovery: RecoveryPolicy::default(),
        fleet: FleetSpec::nvlink(2).with_faults(FaultPlan::chaos(17, 1000)),
    };
    let report = spec.run().unwrap();
    assert_eq!(report.completed(), 0);
    assert_eq!(report.failures().len(), 2);
    for (job, msg) in report.failures() {
        assert!(msg.contains("retries"), "failure names the cause: {msg}");
        // First attempt plus the full retry budget, per part.
        assert_eq!(job.attempts, 1 + RecoveryPolicy::MAX_RETRIES);
    }
    let r = report.recovery.as_ref().expect("chaos replay ran");
    assert_eq!(r.lost_jobs, 2);
    assert_eq!(r.completion, 0.0);
    // Lost jobs pollute nothing, but their burnt attempts stay charged.
    assert_eq!(report.totals, Default::default());
    assert!(report.fleet.busy_s.iter().sum::<f64>() > 0.0);
}

#[test]
fn all_devices_dead_is_a_typed_error() {
    // Both device groups are dead on arrival: there is no surviving fleet
    // to reschedule onto, and the campaign must fail with the typed error
    // — not a panic, not a hang, not a silently empty report.
    let plan = FaultPlan::chaos(23, 0)
        .with_dead_device(0)
        .with_dead_device(1);
    let spec = CampaignSpec {
        fields: fields(AppDataset::Miranda, 2),
        compressors: vec![CompressorSpec::Sz(ErrorBound::Rel(1e-3))],
        cfg: small_cfg(),
        scheduler: Scheduler::default(),
        progressive: None,
        recovery: RecoveryPolicy::default(),
        fleet: FleetSpec::nvlink(2).with_faults(plan),
    };
    assert_eq!(
        spec.run().unwrap_err(),
        CampaignError::AllDevicesDead { groups: 2 }
    );
    // One surviving group out of two: degraded but alive — every job lands
    // on the survivor and completes.
    let mut spec = spec;
    spec.fleet = FleetSpec::nvlink(2).with_faults(FaultPlan::chaos(23, 0).with_dead_device(0));
    let report = spec.run().unwrap();
    assert_eq!(report.completed(), report.jobs.len());
    assert_eq!(report.fleet.busy_s[0], 0.0);
    assert!(report.fleet.busy_s[1] > 0.0);
}

#[test]
fn empty_compressor_sweep_is_a_clean_no_op() {
    let spec = CampaignSpec {
        fields: fields(AppDataset::Miranda, 2),
        compressors: vec![],
        cfg: small_cfg(),
        scheduler: Scheduler::default(),
        progressive: None,
        recovery: RecoveryPolicy::default(),
        fleet: FleetSpec::nvlink(1),
    };
    let report = spec.run().unwrap();
    assert!(report.jobs.is_empty());
    assert_eq!(report.fleet.jobs_per_sec, 0.0);
}
