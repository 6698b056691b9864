//! Chaos tier: seeded device-fault injection and the campaign's recovery
//! policy, pinned end to end.
//!
//! The invariants this tier locks down (see `campaign/recover.rs`):
//!
//! * **Determinism** — the same fault seed replays the same faults: two
//!   runs of the same chaos campaign are bit-identical, at every rate.
//! * **Golden metrics** — faults change *time*, never *values*: every job
//!   that completes under chaos carries metrics bit-identical to its
//!   fault-free run.
//! * **Unpolluted counters** — campaign totals merge exactly the surviving
//!   completed jobs' runs; failed attempts and lost jobs contribute
//!   nothing.
//! * **Per-attempt accounting** — retried attempts charge busy seconds and
//!   assessed bytes once per executed attempt, so a flaky fleet is
//!   measurably busier than a healthy one doing the same work.
//! * **Degraded mode** — a dead device's load reshards onto the survivors
//!   (on arrival or mid-attempt) and the campaign still completes
//!   everything.

use zc_compress::{CompressorSpec, ErrorBound};
use zc_core::campaign::{
    CampaignReport, CampaignSpec, FieldRef, FleetSpec, PatternTotals, Scheduler,
};
use zc_core::{AssessConfig, TilingPolicy};
use zc_data::{AppDataset, GenOptions};
use zc_gpusim::FaultPlan;

/// The 12-job test campaign: every Nyx field under two codecs, list
/// scheduling over the given fleet.
fn spec(fleet: FleetSpec) -> CampaignSpec {
    let mut s = CampaignSpec::over_datasets(
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
        fleet,
    );
    s.scheduler = Scheduler::List;
    s
}

/// Two of the test campaign's fields plus one 8-step Nyx time-series hog,
/// tiled into 8 slabs: the hog costs more than a balanced group's share, so
/// the list scheduler splits it into slab parts.
fn split_spec(fleet: FleetSpec) -> CampaignSpec {
    let mut s = spec(fleet);
    s.cfg.tiling = TilingPolicy::Slabs(8);
    s.fields.truncate(2);
    s.fields.push(FieldRef::timeseries(
        AppDataset::Nyx,
        0,
        GenOptions::scaled(16),
        8,
    ));
    s
}

fn fault_free(gpus: u32) -> CampaignReport {
    spec(FleetSpec::nvlink(gpus)).run().unwrap()
}

/// Bitwise equality of two chaos reports (metrics, clocks, bookkeeping).
fn assert_reports_identical(a: &CampaignReport, b: &CampaignReport, ctx: &str) {
    assert_eq!(a.jobs.len(), b.jobs.len(), "{ctx}: job count");
    for (ja, jb) in a.jobs.iter().zip(&b.jobs) {
        assert_eq!(ja.group, jb.group, "{ctx}: shard assignment");
        assert_eq!(ja.attempts, jb.attempts, "{ctx}: attempts");
        assert_eq!(
            ja.metrics().is_some(),
            jb.metrics().is_some(),
            "{ctx}: outcome kind"
        );
    }
    assert_eq!(a.totals, b.totals, "{ctx}: merged counters");
    assert_eq!(a.fleet.assessed_bytes, b.fleet.assessed_bytes, "{ctx}");
    for (ba, bb) in a.fleet.busy_s.iter().zip(&b.fleet.busy_s) {
        assert_eq!(ba.to_bits(), bb.to_bits(), "{ctx}: busy seconds");
    }
    assert_eq!(
        a.fleet.makespan_s.to_bits(),
        b.fleet.makespan_s.to_bits(),
        "{ctx}: makespan"
    );
    assert_eq!(
        a.fleet.utilization.to_bits(),
        b.fleet.utilization.to_bits(),
        "{ctx}: utilization"
    );
    assert_eq!(a.recovery, b.recovery, "{ctx}: recovery report");
}

/// Every completed chaos job's metrics must be the fault-free golden bits,
/// and the merged totals must be exactly the surviving jobs' fold.
fn assert_golden_metrics(chaos: &CampaignReport, golden: &CampaignReport, ctx: &str) {
    let mut expected = PatternTotals::default();
    for (jc, jg) in chaos.jobs.iter().zip(&golden.jobs) {
        let Some(mc) = jc.metrics() else { continue };
        let mg = jg
            .metrics()
            .expect("a chaos-completed job completed fault-free too");
        for (name, vc, vg) in [
            ("psnr", mc.psnr, mg.psnr),
            ("ssim", mc.ssim, mg.ssim),
            ("mse", mc.mse, mg.mse),
            ("pearson", mc.pearson, mg.pearson),
            ("ratio", mc.compression_ratio, mg.compression_ratio),
            ("modeled_s", mc.modeled_seconds, mg.modeled_seconds),
        ] {
            assert_eq!(
                vc.to_bits(),
                vg.to_bits(),
                "{ctx}: job {} {name} not golden",
                jc.spec.id
            );
        }
        assert_eq!(mc.assessed_bytes, mg.assessed_bytes, "{ctx}: job bytes");
        expected.absorb(&mc.runs);
    }
    assert_eq!(
        chaos.totals, expected,
        "{ctx}: totals polluted beyond surviving jobs"
    );
}

#[test]
fn null_fault_plan_skips_the_simulation() {
    let plain = fault_free(4);
    let nulled = spec(FleetSpec::nvlink(4).with_faults(FaultPlan::chaos(1, 0)))
        .run()
        .unwrap();
    assert!(nulled.recovery.is_none(), "null plan must not simulate");
    assert_eq!(plain.fleet.busy_s, nulled.fleet.busy_s);
    assert_eq!(plain.totals, nulled.totals);
}

#[test]
fn harmless_plan_replays_the_fault_free_bits() {
    // Non-null plan (device 63 is doomed) on a 4-group fleet where device
    // 63 does not exist: the chaos replay runs but injects nothing, so it
    // must reproduce the fault-free aggregation bit for bit — clocks,
    // engines, counters, bytes, everything — whole jobs and slab parts
    // alike. Each part is one attempt, healthy or not.
    for splits in [false, true] {
        let ctx = if splits { "split parts" } else { "whole jobs" };
        let make = if splits { split_spec } else { spec };
        let healthy = make(FleetSpec::nvlink(4));
        let (costs, splittable) = healthy.job_costs();
        let shard = Scheduler::List.plan(&costs, &splittable, 4);
        let parts: usize = (0..costs.len()).map(|j| shard.shares_of(j).len()).sum();
        assert_eq!(parts > costs.len(), splits, "{ctx}: parts {parts}");
        let golden = healthy.run().unwrap();
        for job in &golden.jobs {
            assert_eq!(
                job.attempts as usize,
                shard.shares_of(job.spec.id).len(),
                "{ctx}: healthy job {}",
                job.spec.id
            );
        }
        let plan = FaultPlan::chaos(7, 0).with_dead_device(63);
        let chaos = make(FleetSpec::nvlink(4).with_faults(plan)).run().unwrap();
        let r = chaos.recovery.as_ref().expect("chaos replay ran");
        assert_eq!(r.attempts, parts as u64, "{ctx}: one attempt per part");
        assert_eq!(r.retries, 0);
        assert_eq!(r.reschedules, 0);
        assert_eq!(r.lost_jobs, 0);
        assert!(r.dead_devices.is_empty());
        assert_eq!(r.completion, 1.0);
        assert_eq!(r.makespan_inflation, 0.0);
        for (a, b) in golden.fleet.busy_s.iter().zip(&chaos.fleet.busy_s) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{ctx}: zero-fault busy must be golden"
            );
        }
        assert_eq!(
            golden.fleet.makespan_s.to_bits(),
            chaos.fleet.makespan_s.to_bits()
        );
        assert_eq!(golden.fleet.assessed_bytes, chaos.fleet.assessed_bytes);
        assert_eq!(golden.fleet.engines, chaos.fleet.engines);
        assert_eq!(golden.totals, chaos.totals);
        for (jc, jg) in chaos.jobs.iter().zip(&golden.jobs) {
            assert_eq!(jc.attempts, jg.attempts, "{ctx}: job {}", jc.spec.id);
        }
        assert_golden_metrics(&chaos, &golden, ctx);
    }
}

#[test]
fn fault_rate_sweep_is_deterministic_and_golden() {
    let golden = fault_free(4);
    for rate in [10u32, 50, 100, 200] {
        let plan = FaultPlan::chaos(42, rate)
            .with_hangs(rate / 4)
            .with_flaps(rate / 2);
        let run = || spec(FleetSpec::nvlink(4).with_faults(plan)).run().unwrap();
        let (a, b) = (run(), run());
        let ctx = format!("rate {rate}‰");
        assert_reports_identical(&a, &b, &ctx);
        assert_golden_metrics(&a, &golden, &ctx);
        let r = a.recovery.as_ref().expect("chaos replay ran");
        assert!(
            (0.0..=1.0).contains(&r.completion),
            "{ctx}: completion {}",
            r.completion
        );
        assert!(r.attempts >= 12, "{ctx}: every job attempts at least once");
        // Fault time only ever adds to the timeline.
        assert!(
            a.fleet.makespan_s >= golden.fleet.makespan_s || r.retries == 0,
            "{ctx}: faults cannot shrink the makespan"
        );
    }
}

#[test]
fn retried_attempts_charge_busy_and_bytes_per_attempt() {
    let golden = fault_free(4);
    let chaos = spec(FleetSpec::nvlink(4).with_faults(FaultPlan::chaos(11, 300)))
        .run()
        .unwrap();
    let r = chaos.recovery.as_ref().expect("chaos replay ran");
    assert!(r.retries > 0, "30% transients must force retries");
    assert!(
        chaos.jobs.iter().any(|j| j.attempts > 1),
        "some job must record multiple attempts"
    );
    assert_eq!(
        r.attempts,
        chaos.jobs.iter().map(|j| j.attempts as u64).sum::<u64>(),
        "report attempts must equal the per-job sum"
    );
    // Per-attempt accounting: the flaky fleet burned strictly more device
    // time, and read strictly more field bytes, than the healthy one.
    let busy = |r: &CampaignReport| r.fleet.busy_s.iter().sum::<f64>();
    assert!(
        busy(&chaos) > busy(&golden),
        "failed attempts must stay charged: {} vs {}",
        busy(&chaos),
        busy(&golden)
    );
    assert!(
        chaos.fleet.assessed_bytes > golden.fleet.assessed_bytes,
        "partial attempt reads must count: {} vs {}",
        chaos.fleet.assessed_bytes,
        golden.fleet.assessed_bytes
    );
    assert!(r.backoff_s > 0.0, "retries charge backoff on the timeline");
    assert!(r.makespan_inflation > 0.0);
    assert_golden_metrics(&chaos, &golden, "retry accounting");
}

#[test]
fn hangs_trip_the_watchdog_and_flaps_reprice_transfers() {
    let golden = fault_free(2);
    let plan = FaultPlan::chaos(5, 0).with_hangs(150).with_flaps(300);
    let chaos = spec(FleetSpec::nvlink(2).with_faults(plan)).run().unwrap();
    let r = chaos.recovery.as_ref().expect("chaos replay ran");
    assert!(r.watchdog_trips > 0, "15% hang rate must trip the watchdog");
    assert!(r.link_flaps > 0, "30% flap rate must flap");
    // A watchdog trip holds the device until the part's deadline — twice
    // its priced hold — and the part then retries, so the makespan
    // inflates.
    assert!(chaos.fleet.makespan_s > golden.fleet.makespan_s);
    // Flapped legs surcharge the copy engines, never compute.
    assert!(chaos.fleet.engines.h2d_s > golden.fleet.engines.h2d_s);
    assert_golden_metrics(&chaos, &golden, "hangs and flaps");
}

#[test]
fn dead_device_reshards_onto_survivors_and_completes() {
    let golden = fault_free(4);
    let chaos = spec(FleetSpec::nvlink(4).with_faults(FaultPlan::chaos(9, 0).with_dead_device(1)))
        .run()
        .unwrap();
    let r = chaos.recovery.as_ref().expect("chaos replay ran");
    assert_eq!(r.dead_devices, vec![1], "device 1 died");
    assert!(r.reschedules > 0, "its parts moved to survivors");
    assert_eq!(r.lost_jobs, 0, "degraded mode loses no jobs");
    assert_eq!(r.completion, 1.0);
    assert_eq!(chaos.completed(), golden.completed());
    assert_eq!(
        chaos.fleet.busy_s[1], 0.0,
        "a device dead on arrival never works"
    );
    // Three groups now carry four groups' load.
    assert!(chaos.fleet.makespan_s >= golden.fleet.makespan_s);
    assert_golden_metrics(&chaos, &golden, "degraded mode");
}

#[test]
fn a_death_mid_attempt_stops_its_group_and_reshards_the_rest() {
    // A seeded death strikes inside the campaign, while group 0 is still
    // running an attempt: the attempt is lost, the group's clock stops at
    // the death instant, and its part and the parts still routed there
    // move to the survivors.
    let golden = fault_free(4);
    let plan = FaultPlan::chaos(2, 0).with_deaths(300);
    let chaos = spec(FleetSpec::nvlink(4).with_faults(plan)).run().unwrap();
    let r = chaos.recovery.as_ref().expect("chaos replay ran");
    assert_eq!(r.dead_devices, vec![0], "seed 2 dooms group 0 only");
    assert_eq!(r.lost_jobs, 0, "a death consumes no retry");
    assert!(r.reschedules > 0, "the interrupted part moved");
    assert_eq!(r.completion, 1.0);
    for &g in &r.dead_devices {
        let frac = plan.death_frac(g).expect("a dead group was doomed");
        assert!(frac > 0.0, "group {g} was not dead on arrival");
        assert_eq!(
            chaos.fleet.busy_s[g as usize].to_bits(),
            (frac * r.fault_free_makespan_s).to_bits(),
            "group {g} works until it dies, and not after"
        );
    }
    // The interrupted attempt's partial reads count on top of the work.
    assert!(chaos.fleet.assessed_bytes > golden.fleet.assessed_bytes);
    assert_golden_metrics(&chaos, &golden, "mid-attempt death");
}

#[test]
fn seeded_codec_faults_fail_jobs_not_the_campaign() {
    // The generalized FailDecode codec injects *functional* faults
    // mid-campaign: those jobs fail deterministically, are not retried
    // (retrying a deterministic error burns fleet time for nothing), and
    // the rest of the campaign completes normally under device chaos.
    let mut s = spec(FleetSpec::nvlink(2).with_faults(FaultPlan::chaos(3, 50)));
    s.compressors = vec![
        CompressorSpec::Sz(ErrorBound::Rel(1e-3)),
        CompressorSpec::FailDecode { every_nth: 2 },
    ];
    let report = s.run().unwrap();
    let failed = report.failures().len();
    assert!(failed > 0, "a 1-in-2 codec fault must hit some job");
    assert!(report.completed() >= 6, "every SZ job still completes");
    for (j, msg) in report.failures() {
        assert_eq!(j.attempts, 1, "functional failures are not retried");
        assert!(msg.contains("codec"), "{msg}");
    }
}
