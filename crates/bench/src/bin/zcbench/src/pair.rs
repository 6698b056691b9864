//! `pair-256`: one 256³ field pair assessed again and again — closed loop,
//! one outstanding request.
//!
//! NYX/baryon_density at `GenOptions::scaled(2)` (256³: 64 MiB per array,
//! a 128 MiB pair, more than a 105 MiB last-level cache), SZ at a 1e-3
//! relative bound, the full 31-metric profile with `max_lag 4`,
//! `CuZc::default()` with auto tiling (16 slabs). Generation and the codec run once, outside the timed
//! loop, so host wall here is plan execution — the kernels and the
//! simulator's lane emulation — and nothing else. A kernel or simulator
//! change shows on this workload and nowhere else.

use crate::stats::{median, time, timed_loop};
use crate::{Outcome, RunCfg};
use std::hint::black_box;
use zc_compress::{CompressorSpec, ErrorBound};
use zc_core::campaign::{FieldRef, FleetSpec, LinkKind};
use zc_core::exec::Assessment;
use zc_core::plan::{estimate_job_cost, resolve_slabs, subsample_scan, verify, BackendCaps};
use zc_core::{
    AssessConfig, AssessPlan, CostCalibration, CuZc, Executor, Metric, MetricSelection, PassKind,
};
use zc_data::{AppDataset, GenOptions};
use zc_lint::Severity;

/// Calls per set-up sample: one set-up takes microseconds, so each sample
/// times a batch and reports the per-call mean.
const SETUP_BATCH: usize = 200;
/// Set-up samples taken before each timed repetition.
const SETUP_PER_REP: usize = 3;

/// The bits that must repeat on every run of the same pair.
fn fingerprint(a: &Assessment) -> Vec<u64> {
    let r = &a.report;
    let mut v: Vec<u64> = [
        Metric::Psnr,
        Metric::Mse,
        Metric::Ssim,
        Metric::Autocorrelation,
    ]
    .iter()
    .map(|&m| r.scalar(m).unwrap_or(f64::NAN).to_bits())
    .collect();
    v.push(a.modeled_seconds.to_bits());
    if let Some(e) = a.e2e {
        v.push(e.overlapped_s.to_bits());
    }
    v
}

fn rel_diff(a: f64, b: f64) -> f64 {
    (a - b).abs() / b.abs().max(f64::MIN_POSITIVE)
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let field = FieldRef::new(
        AppDataset::Nyx,
        0,
        GenOptions::scaled(2).with_seed(cfg.seed),
    );
    let codec = CompressorSpec::Sz(ErrorBound::Rel(1e-3));
    let acfg = AssessConfig {
        max_lag: 4,
        ..Default::default()
    };
    let orig = out
        .tracer
        .span("data", "generate", None, |_| field.generate())
        .data;
    let roundtrip = out.tracer.span("compress", "roundtrip", None, |_| {
        codec.build().roundtrip(&orig)
    });
    let (dec, cstats) = match roundtrip {
        Ok(r) => r,
        Err(e) => {
            out.attempted = 1;
            out.failed = 1;
            out.check("codec_roundtrip", false, e.to_string());
            return out;
        }
    };
    let shape = orig.shape();
    let caps = BackendCaps::v100();

    // Set-up: the executor, the lowered plan and its static verification —
    // everything the loop needs before its first assessment. Sampled
    // between the timed repetitions, so it sees the same host conditions.
    let setup_sample = || {
        let (s, ()) = time(|| {
            for _ in 0..SETUP_BATCH {
                let plan = AssessPlan::lower(black_box(&acfg));
                black_box(verify(&plan, shape, &acfg, &caps));
                black_box((CuZc::default(), plan));
            }
        });
        s / SETUP_BATCH as f64
    };
    let ex = CuZc::default();
    let plan = AssessPlan::lower(&acfg);
    let errors: Vec<String> = verify(&plan, shape, &acfg, &caps)
        .into_iter()
        .filter(|d| d.severity == Severity::Error)
        .map(|d| d.message)
        .collect();
    out.check("plan_verifies", errors.is_empty(), errors.join("; "));

    // Warm-up: the reference result every timed repetition must reproduce.
    let first = match ex.run_plan(&plan, &orig, &dec, &acfg) {
        Ok(a) => a,
        Err(e) => {
            out.attempted = 1;
            out.failed = 1;
            out.check("assessment_runs", false, e.to_string());
            return out;
        }
    };
    let want = fingerprint(&first);
    let (mut mismatches, mut failures, mut setup) = (0usize, 0u64, Vec::new());
    let mut rep = || {
        setup.extend((0..SETUP_PER_REP).map(|_| setup_sample()));
        let (s, r) = time(|| ex.run_plan(&plan, &orig, &dec, &acfg));
        match r {
            Ok(a) => mismatches += usize::from(fingerprint(&a) != want),
            Err(_) => failures += 1,
        }
        s
    };

    let loop_s = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let samples = timed_loop(loop_s, 3, &mut rep);
    let mut traced = Vec::new();
    if cfg.trace {
        let tr = &mut out.tracer;
        tr.span("plan", "lower_verify", None, |_| {
            black_box(verify(&AssessPlan::lower(&acfg), shape, &acfg, &caps))
        });
        let mut i = 0u64;
        traced = timed_loop(loop_s, 3, || {
            i += 1;
            tr.span("exec", "run_plan", Some(i - 1), |_| rep())
        });
    }
    out.attempted = 1 + (samples.len() + traced.len()) as u64;
    out.failed = failures;
    out.check(
        "repetitions_bit_identical",
        mismatches == 0 && failures == 0,
        format!("{mismatches} mismatched, {failures} failed"),
    );

    // Output checks against the independent host scan.
    let scan = subsample_scan(&orig, &dec, 1);
    let scalar = |m| first.report.scalar(m).unwrap_or(f64::NAN);
    let (dp, dm) = (
        rel_diff(scalar(Metric::Psnr), scan.psnr_db()),
        rel_diff(scalar(Metric::Mse), scan.mse()),
    );
    out.check(
        "psnr_mse_match_host_scan",
        dp <= 1e-9 && dm <= 1e-9,
        format!("relative difference psnr {dp:.3e}, mse {dm:.3e}"),
    );
    let ssim = scalar(Metric::Ssim);
    out.check(
        "ssim_in_unit_interval",
        ssim > 0.0 && ssim <= 1.0,
        format!("ssim {ssim}"),
    );

    let e2e = first
        .e2e
        .expect("cuZC models the end-to-end stream timeline");
    if !cfg.trace {
        out.metric("setup_s", median(&setup), setup.len());
        out.metric("wall_jobs_per_s", 1.0 / median(&samples), samples.len());
        out.metric("modeled_jobs_per_s", 1.0 / e2e.overlapped_s, 1);
        out.metric(
            "modeled_gbs",
            shape.len() as f64 * 8.0 / e2e.overlapped_s / 1e9,
            1,
        );
        return out;
    }

    // ---- traced: per-pattern host wall by difference -------------------
    // PSNR lowers to P1 only; autocorrelation adds the P2 stencil; SSIM
    // adds the P3 window pass.
    let singles = [
        ("run_plan.p1", Metric::Psnr, None),
        (
            "run_plan.p1p2",
            Metric::Autocorrelation,
            Some(PassKind::P2Stencil),
        ),
        ("run_plan.p1p3", Metric::Ssim, Some(PassKind::P3Ssim)),
    ];
    let mut shapes_ok = true;
    for (name, metric, extra) in singles {
        let c = AssessConfig {
            metrics: MetricSelection::none().with(metric),
            ..acfg.clone()
        };
        let p = AssessPlan::lower(&c);
        let kinds: Vec<PassKind> = p.passes().iter().map(|x| x.kind).collect();
        shapes_ok &= kinds.contains(&PassKind::P1Scalars)
            && [PassKind::P2Stencil, PassKind::P3Ssim]
                .iter()
                .all(|k| kinds.contains(k) == (extra == Some(*k)));
        for i in 0..3 {
            out.tracer.span("exec", name, Some(i), |_| {
                black_box(ex.run_plan(&p, &orig, &dec, &c).is_ok())
            });
        }
    }
    out.check(
        "single_pattern_plans",
        shapes_ok,
        "psnr -> P1, autocorrelation -> P1+P2, ssim -> P1+P3",
    );

    let tr = &out.tracer;
    let once = |layer, name| tr.durations(layer, name).first().copied().unwrap_or(0.0);
    let wall = |name| median(&tr.durations("exec", name));
    let p1 = wall("run_plan.p1");
    let (p2, p3) = (
        (wall("run_plan.p1p2") - p1).max(0.0),
        (wall("run_plan.p1p3") - p1).max(0.0),
    );
    let (gen_s, rt_s, lv_s) = (
        once("data", "generate"),
        once("compress", "roundtrip"),
        once("plan", "lower_verify"),
    );
    let bytes = shape.len() as f64 * 4.0;
    let est = estimate_job_cost(&plan, shape, &acfg, 1, &LinkKind::NvLink.model(1)).seconds;
    let predicted = CostCalibration::probe(&FleetSpec::nvlink(1), &acfg).apply(est);
    let slabs = resolve_slabs(
        acfg.tiling,
        shape.len() as u64 * 8,
        shape.nz() * shape.nw(),
        Some(ex.sim.dev.mem_bytes),
    )
    .unwrap_or(0);
    let c = first.counters;
    let pt = first.pattern_times;
    let rows = [
        ("data.generate_ms", gen_s * 1e3, 1),
        ("data.generate_calls", 1.0, 1),
        ("data.generate_mb_per_s", bytes / 1e6 / gen_s, 1),
        ("compress.roundtrip_ms", rt_s * 1e3, 1),
        ("compress.calls", 1.0, 1),
        ("compress.mb_per_s", bytes / 1e6 / rt_s, 1),
        ("compress.ratio_mean", cstats.ratio(), 1),
        ("plan.lower_verify_us", lv_s * 1e6, 1),
        ("plan.slabs", slabs as f64, 1),
        (
            "plan.pred_rel_error",
            rel_diff(predicted, e2e.overlapped_s),
            1,
        ),
        ("exec.run_plan_ms", median(&traced) * 1e3, traced.len()),
        ("exec.p1_wall_ms", p1 * 1e3, 3),
        ("exec.p2_wall_ms", p2 * 1e3, 3),
        ("exec.p3_wall_ms", p3 * 1e3, 3),
        ("kernels.p1_modeled_ms", pt.p1 * 1e3, 1),
        ("kernels.p2_modeled_ms", pt.p2 * 1e3, 1),
        ("kernels.p3_modeled_ms", pt.p3 * 1e3, 1),
        ("kernels.global_mb", c.global_bytes() as f64 / 1e6, 1),
        ("kernels.lane_gflop", c.lane_flops as f64 / 1e9, 1),
        (
            "kernels.flops_per_byte",
            c.lane_flops as f64 / c.global_bytes().max(1) as f64,
            1,
        ),
        ("kernels.launches", c.launches as f64, 1),
        ("kernels.shared_accesses", c.shared_accesses as f64, 1),
        ("gpusim.h2d_ms", e2e.h2d_s * 1e3, 1),
        ("gpusim.d2h_ms", e2e.d2h_s * 1e3, 1),
        ("gpusim.compute_ms", e2e.compute_s * 1e3, 1),
        ("gpusim.overlap_saving", e2e.saving(), 1),
        ("gpusim.h2d_busy", e2e.h2d_s / e2e.overlapped_s, 1),
        ("gpusim.compute_busy", e2e.compute_s / e2e.overlapped_s, 1),
        ("gpusim.d2h_busy", e2e.d2h_s / e2e.overlapped_s, 1),
        (
            "trace.overhead",
            1.0 - median(&samples) / median(&traced),
            traced.len(),
        ),
    ];
    for (name, value, n) in rows {
        out.metric(name, value, n);
    }
    out
}
