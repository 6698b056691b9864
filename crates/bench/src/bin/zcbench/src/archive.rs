//! `archive-campaign`: a whole archive assessed under a codec sweep —
//! closed loop, one campaign at a time.
//!
//! The first three roster fields of each of the four paper datasets at
//! `GenOptions::scaled(8)`, plus an 8-step NYX time series (the one job big
//! enough to tile, so the list scheduler can split it), under {SZ rel 1e-3,
//! ZFP rate 12, SZ abs 1e-2}: 39 jobs, `Scheduler::List`, 8 NVLink GPUs.
//! One `run_on_fleets` call aggregates the same functional work on the
//! fault-free fleet and on the same fleet with 5% seeded transient faults.
//! Host time splits across generation, codec and assessment under
//! `par_map`; modeled throughput rests on list placement and the cost model
//! over jobs of different sizes. The cache and the service are bypassed.

use crate::stats::{mean, median, time, timed_loop};
use crate::{Outcome, RunCfg};
use std::time::Instant;
use zc_compress::{CompressorSpec, ErrorBound};
use zc_core::campaign::{
    CampaignReport, CampaignSpec, FieldRef, FleetSpec, RecoveryPolicy, Scheduler,
};
use zc_core::plan::{resolve_slabs, verify, BackendCaps};
use zc_core::{AssessConfig, AssessPlan, CostCalibration, Executor, Metric};
use zc_data::{AppDataset, GenOptions};
use zc_gpusim::{Counters, FaultPlan};

/// Set-up samples taken before each timed repetition.
const SETUP_PER_REP: usize = 3;

fn spec(seed: u64) -> CampaignSpec {
    let opts = GenOptions::scaled(8).with_seed(seed);
    let mut fields: Vec<FieldRef> = AppDataset::ALL
        .iter()
        .flat_map(|&ds| (0..3).map(move |i| FieldRef::new(ds, i, opts)))
        .collect();
    fields.push(FieldRef::timeseries(AppDataset::Nyx, 0, opts, 8));
    CampaignSpec {
        fields,
        compressors: vec![
            CompressorSpec::Sz(ErrorBound::Rel(1e-3)),
            CompressorSpec::Zfp(12.0),
            CompressorSpec::Sz(ErrorBound::Abs(1e-2)),
        ],
        cfg: AssessConfig::default(),
        fleet: FleetSpec::nvlink(8),
        scheduler: Scheduler::List,
        progressive: None,
        recovery: RecoveryPolicy::default(),
    }
}

/// Per-job (psnr, ssim, mse) bits; `None` for a failed job.
fn job_bits(r: &CampaignReport) -> Vec<Option<[u64; 3]>> {
    r.jobs
        .iter()
        .map(|j| {
            j.metrics()
                .map(|m| [m.psnr.to_bits(), m.ssim.to_bits(), m.mse.to_bits()])
        })
        .collect()
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let spec = spec(cfg.seed);
    let fleets = [
        spec.fleet,
        spec.fleet.with_faults(FaultPlan::chaos(cfg.seed, 50)),
    ];
    let jobs = spec.jobs().len();

    let mut first: Option<Vec<CampaignReport>> = None;
    let (mut mismatches, mut errors, mut failed_jobs) = (0usize, Vec::new(), 0u64);
    let mut setup = Vec::new();
    let loop_s = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let samples = timed_loop(loop_s, 3, || {
        // Set-up: the calibration probe `run_campaign` performs before
        // placing jobs, sampled between repetitions.
        setup.extend((0..SETUP_PER_REP).map(|_| {
            time(|| std::hint::black_box(CostCalibration::probe(&spec.fleet, &spec.cfg))).0
        }));
        let (s, r) = time(|| spec.run_on_fleets(&fleets));
        match r {
            Ok(reports) => {
                failed_jobs += reports[0].failures().len() as u64;
                match &first {
                    None => first = Some(reports),
                    Some(f) => {
                        let same = job_bits(&reports[0]) == job_bits(&f[0])
                            && reports[0].fleet.jobs_per_sec.to_bits()
                                == f[0].fleet.jobs_per_sec.to_bits()
                            && reports[1].fleet.makespan_s.to_bits()
                                == f[1].fleet.makespan_s.to_bits();
                        mismatches += usize::from(!same);
                    }
                }
            }
            Err(e) => errors.push(e.to_string()),
        }
        s
    });
    out.attempted = (jobs * samples.len()) as u64;
    out.failed = failed_jobs + (jobs * errors.len()) as u64;
    let Some(reports) = first else {
        out.check("campaign_runs", false, errors.join("; "));
        return out;
    };
    let (clean, faulted) = (&reports[0], &reports[1]);
    out.check(
        "repetitions_bit_identical",
        mismatches == 0 && errors.is_empty(),
        format!("{mismatches} mismatched, {} errors", errors.len()),
    );
    out.check(
        "every_job_completes_fault_free",
        clean.completed() == jobs,
        format!("{} of {jobs}", clean.completed()),
    );
    let (cb, fb) = (job_bits(clean), job_bits(faulted));
    let differing = cb
        .iter()
        .zip(&fb)
        .filter(|(c, f)| f.is_some() && c != f)
        .count();
    out.check(
        "faulted_values_equal_fault_free",
        differing == 0,
        format!("{differing} completed faulted jobs differ"),
    );

    if !cfg.trace {
        out.metric("setup_s", median(&setup), setup.len());
        out.metric(
            "wall_jobs_per_s",
            jobs as f64 / median(&samples),
            samples.len(),
        );
        out.metric("modeled_jobs_per_s", clean.fleet.jobs_per_sec, 1);
        out.metric(
            "modeled_gbs",
            clean.fleet.assessed_bytes as f64 / clean.fleet.makespan_s / 1e9,
            1,
        );
        return out;
    }
    traced(
        &mut out,
        &spec,
        clean,
        faulted,
        jobs as f64 / median(&samples),
    );
    out
}

/// The traced run: the campaign's calls replayed serially, one span each —
/// generation per field, then codec, lower + verify and `run_plan` per job,
/// then costing, calibration and placement.
fn traced(
    out: &mut Outcome,
    spec: &CampaignSpec,
    clean: &CampaignReport,
    faulted: &CampaignReport,
    untraced_jps: f64,
) {
    let tr = &mut out.tracer;
    let t0 = Instant::now();
    let fields: Vec<_> = spec
        .fields
        .iter()
        .enumerate()
        .map(|(i, f)| tr.span("data", "generate", Some(i as u64), |_| f.generate().data))
        .collect();
    let executor = spec.fleet.executor();
    let caps = BackendCaps::v100();
    let (mut ratios, mut replay_bits, mut slabs) = (Vec::new(), Vec::new(), 0usize);
    for job in spec.jobs() {
        let orig = &fields[job.field_index];
        let bits = tr.span("engine", "job", Some(job.id as u64), |tr| {
            let (dec, stats) = tr
                .span("compress", "roundtrip", Some(job.id as u64), |_| {
                    job.compressor.build().roundtrip(orig)
                })
                .ok()?;
            ratios.push(stats.ratio());
            let plan = tr.span("plan", "lower_verify", Some(job.id as u64), |_| {
                let plan = AssessPlan::lower(&spec.cfg);
                std::hint::black_box(verify(&plan, orig.shape(), &spec.cfg, &caps));
                plan
            });
            let a = tr
                .span("exec", "run_plan", Some(job.id as u64), |_| {
                    executor.run_plan(&plan, orig, &dec, &spec.cfg)
                })
                .ok()?;
            let m = |k| a.report.scalar(k).unwrap_or(f64::NAN).to_bits();
            Some([m(Metric::Psnr), m(Metric::Ssim), m(Metric::Mse)])
        });
        replay_bits.push(bits);
        let s = orig.shape();
        slabs = slabs.max(
            resolve_slabs(spec.cfg.tiling, s.len() as u64 * 8, s.nz() * s.nw(), None).unwrap_or(1),
        );
    }
    let (costs, splittable) = tr.span("plan", "job_costs", None, |_| spec.job_costs());
    tr.span("engine", "calibrate", None, |_| {
        std::hint::black_box(CostCalibration::probe(&spec.fleet, &spec.cfg))
    });
    tr.span("sched", "plan", None, |_| {
        std::hint::black_box(
            spec.scheduler
                .plan(&costs, &splittable, spec.fleet.groups()),
        )
    });
    let traced_jps = replay_bits.len() as f64 / t0.elapsed().as_secs_f64();
    out.check(
        "serial_replay_matches_campaign",
        replay_bits == job_bits(clean),
        "per-job psnr/ssim/mse bits",
    );

    let tr = &out.tracer;
    let gen = tr.durations("data", "generate");
    let rt = tr.durations("compress", "roundtrip");
    let gen_bytes: f64 = fields.iter().map(|f| f.shape().len() as f64 * 4.0).sum();
    let rt_bytes: f64 = spec
        .jobs()
        .iter()
        .map(|j| fields[j.field_index].shape().len() as f64 * 4.0)
        .sum();
    let done: Vec<_> = clean.jobs.iter().filter_map(|j| j.metrics()).collect();
    let e2es: Vec<_> = done.iter().filter_map(|m| m.e2e).collect();
    let sum = |f: fn(&zc_gpusim::EndToEnd) -> f64| e2es.iter().map(f).sum::<f64>();
    let serialized = sum(|e| e.serialized_s);
    let c: Counters = clean.totals.combined();
    let f = &clean.fleet;
    let rec = faulted.recovery.clone().unwrap_or_default();
    let n = |v: &[f64]| v.len();
    let rows = [
        ("data.generate_ms", mean(&gen) * 1e3, n(&gen)),
        ("data.generate_calls", gen.len() as f64, 1),
        (
            "data.generate_mb_per_s",
            gen_bytes / 1e6 / gen.iter().sum::<f64>(),
            n(&gen),
        ),
        ("compress.roundtrip_ms", mean(&rt) * 1e3, n(&rt)),
        ("compress.calls", rt.len() as f64, 1),
        (
            "compress.mb_per_s",
            rt_bytes / 1e6 / rt.iter().sum::<f64>(),
            n(&rt),
        ),
        ("compress.ratio_mean", mean(&ratios), ratios.len()),
        (
            "plan.lower_verify_us",
            mean(&tr.durations("plan", "lower_verify")) * 1e6,
            n(&rt),
        ),
        ("plan.slabs", slabs as f64, 1),
        ("plan.pred_rel_error", f.makespan_rel_error.abs(), 1),
        (
            "exec.run_plan_ms",
            mean(&tr.durations("exec", "run_plan")) * 1e3,
            n(&rt),
        ),
        (
            "kernels.p1_modeled_ms",
            done.iter().map(|m| m.pattern_times.p1).sum::<f64>() * 1e3,
            1,
        ),
        (
            "kernels.p2_modeled_ms",
            done.iter().map(|m| m.pattern_times.p2).sum::<f64>() * 1e3,
            1,
        ),
        (
            "kernels.p3_modeled_ms",
            done.iter().map(|m| m.pattern_times.p3).sum::<f64>() * 1e3,
            1,
        ),
        ("kernels.global_mb", c.global_bytes() as f64 / 1e6, 1),
        ("kernels.lane_gflop", c.lane_flops as f64 / 1e9, 1),
        (
            "kernels.flops_per_byte",
            c.lane_flops as f64 / c.global_bytes().max(1) as f64,
            1,
        ),
        ("kernels.launches", c.launches as f64, 1),
        ("kernels.shared_accesses", c.shared_accesses as f64, 1),
        ("gpusim.h2d_ms", f.engines.h2d_s * 1e3, 1),
        ("gpusim.d2h_ms", f.engines.d2h_s * 1e3, 1),
        ("gpusim.compute_ms", f.engines.compute_s * 1e3, 1),
        (
            "gpusim.overlap_saving",
            1.0 - sum(|e| e.overlapped_s) / serialized,
            1,
        ),
        ("gpusim.h2d_busy", f.engines.h2d_fraction(), 1),
        ("gpusim.compute_busy", f.engines.compute_fraction(), 1),
        ("gpusim.d2h_busy", f.engines.d2h_fraction(), 1),
        ("sched.plan_us", tr.durations("sched", "plan")[0] * 1e6, 1),
        ("sched.utilization", f.utilization, 1),
        ("recover.attempts", rec.attempts as f64, 1),
        ("recover.retries", rec.retries as f64, 1),
        ("recover.reschedules", rec.reschedules as f64, 1),
        ("recover.makespan_inflation", rec.makespan_inflation, 1),
        ("recover.completion", rec.completion, 1),
        ("trace.overhead", 1.0 - traced_jps / untraced_jps, 1),
    ];
    for (name, value, samples) in rows {
        out.metric(name, value, samples);
    }
}
