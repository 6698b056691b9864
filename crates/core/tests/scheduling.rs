//! Scheduler tier: the cost-model list scheduler's placement properties,
//! pinned property-test style with the repo's inline SplitMix64 generator
//! (no external property-testing dependency).
//!
//! What this tier locks down:
//!
//! * **Never predicted-worse** — `Scheduler::List` prices both the LPT and
//!   the round-robin placement and keeps the better, so its predicted
//!   makespan is ≤ round-robin's on *every* campaign, including the
//!   adversarial cost patterns where pure LPT loses.
//! * **Work conservation** — with at least as many jobs as groups and
//!   positive costs, no device group is left idle by the plan.
//! * **Graham bound** — the predicted makespan never exceeds the balanced
//!   share plus one largest part (greedy list scheduling's classic bound).
//! * **Split bookkeeping** — every job's `(group, share)` parts sum to
//!   exactly 1 and stay inside the group range.
//! * **Scheduling is placement-only** — switching schedulers changes
//!   *which group* a job runs on, never any metric bit or merged counter.
//! * **Prepass uniformity** — the progressive subsample estimates are
//!   bit-identical across all four executors (the estimate is the shared
//!   host scan; only the modeled charge differs).

use zc_compress::CompressorSpec;
use zc_core::campaign::{
    CampaignReport, CampaignSpec, FieldRef, FleetSpec, RecoveryPolicy, Scheduler,
};
use zc_core::exec::{CuZc, Executor, MoZc, OmpZc, SerialZc};
use zc_core::recommend::{ProgressivePolicy, QualityCriteria};
use zc_core::AssessConfig;
use zc_data::{AppDataset, GenOptions};
use zc_tensor::{Shape, Tensor};

/// SplitMix64 case generator (same idiom as the determinism tier).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[test]
fn list_plans_hold_their_properties_on_generated_campaigns() {
    let mut rng = Rng(0x5C4E_D01E);
    for case in 0..128 {
        let groups = 1 + (rng.next() % 8) as u32;
        let n = groups as usize + (rng.next() % 24) as usize;
        let costs: Vec<f64> = (0..n)
            .map(|_| (1 + rng.next() % 10_000) as f64 / 100.0)
            .collect();
        let splittable: Vec<usize> = (0..n).map(|_| 1 + (rng.next() % 8) as usize).collect();
        let ctx = format!("case {case}: {n} jobs on {groups} groups");
        let rr = Scheduler::RoundRobin.plan(&costs, &splittable, groups);
        let list = Scheduler::List.plan(&costs, &splittable, groups);

        // Never predicted-worse than round-robin (by construction: the
        // list scheduler prices both and keeps the better plan).
        assert!(
            list.predicted_makespan() <= rr.predicted_makespan() + 1e-12,
            "{ctx}: list {} > rr {}",
            list.predicted_makespan(),
            rr.predicted_makespan()
        );

        // Work conservation: at least as many jobs as groups, all costs
        // positive — no group may idle while another holds the work.
        for (g, &busy) in list.predicted_busy().iter().enumerate() {
            assert!(busy > 0.0, "{ctx}: group {g} left idle");
        }

        // Graham bound: makespan <= balanced share + one largest job.
        let total: f64 = costs.iter().sum();
        let max_cost = costs.iter().copied().fold(0.0, f64::max);
        assert!(
            list.predicted_makespan() <= total / groups as f64 + max_cost + 1e-9,
            "{ctx}: makespan {} breaks the Graham bound",
            list.predicted_makespan()
        );

        // Shares: each job's parts sum to exactly one job, on real groups.
        for (i, _) in costs.iter().enumerate() {
            let parts = list.shares_of(i);
            assert!(!parts.is_empty(), "{ctx}: job {i} unplaced");
            let sum: f64 = parts.iter().map(|(_, s)| s).sum();
            assert!((sum - 1.0).abs() < 1e-9, "{ctx}: job {i} shares sum {sum}");
            for &(g, share) in parts {
                assert!(g < groups, "{ctx}: job {i} on phantom group {g}");
                assert!(share > 0.0, "{ctx}: job {i} zero-share part");
            }
            assert_eq!(
                parts.len(),
                parts
                    .iter()
                    .map(|(g, _)| g)
                    .collect::<std::collections::HashSet<_>>()
                    .len(),
                "{ctx}: job {i} has duplicate group parts"
            );
        }

        // Predicted busy is consistent with the shares it was built from.
        let mut rebuilt = vec![0.0f64; groups as usize];
        for (i, &c) in costs.iter().enumerate() {
            for &(g, share) in list.shares_of(i) {
                rebuilt[g as usize] += c * share;
            }
        }
        for (a, b) in rebuilt.iter().zip(list.predicted_busy()) {
            assert!((a - b).abs() < 1e-6, "{ctx}: busy mismatch {a} vs {b}");
        }
    }
}

/// A small genuinely mixed-size campaign: a 4-step time series next to
/// snapshots a quarter its size.
fn mixed_spec(fleet: FleetSpec, scheduler: Scheduler) -> CampaignSpec {
    CampaignSpec {
        fields: vec![
            FieldRef::timeseries(AppDataset::Hurricane, 9, GenOptions::scaled(32), 4),
            FieldRef::new(AppDataset::Nyx, 2, GenOptions::scaled(32)),
            FieldRef::new(AppDataset::Miranda, 0, GenOptions::scaled(32)),
        ],
        compressors: vec![
            CompressorSpec::Sz(zc_compress::ErrorBound::Rel(1e-3)),
            CompressorSpec::Zfp(12.0),
        ],
        cfg: AssessConfig {
            max_lag: 3,
            bins: 32,
            ..Default::default()
        },
        fleet,
        scheduler,
        progressive: None,
        recovery: RecoveryPolicy::default(),
    }
}

fn assert_same_results(a: &CampaignReport, b: &CampaignReport, ctx: &str) {
    assert_eq!(a.jobs.len(), b.jobs.len(), "{ctx}: job count");
    for (ja, jb) in a.jobs.iter().zip(&b.jobs) {
        let (ma, mb) = (
            ja.metrics().expect("completed"),
            jb.metrics().expect("completed"),
        );
        for (name, va, vb) in [
            ("psnr", ma.psnr, mb.psnr),
            ("ssim", ma.ssim, mb.ssim),
            ("mse", ma.mse, mb.mse),
            ("pearson", ma.pearson, mb.pearson),
            ("modeled_s", ma.modeled_seconds, mb.modeled_seconds),
        ] {
            assert_eq!(
                va.to_bits(),
                vb.to_bits(),
                "{ctx}: job {} {name} changed under the scheduler",
                ja.spec.id
            );
        }
    }
    assert_eq!(a.totals, b.totals, "{ctx}: merged counters");
    assert_eq!(
        a.fleet.assessed_bytes, b.fleet.assessed_bytes,
        "{ctx}: assessed bytes"
    );
}

#[test]
fn scheduler_choice_changes_placement_only() {
    let fleet = FleetSpec::nvlink(4);
    let rr = mixed_spec(fleet, Scheduler::RoundRobin).run().unwrap();
    let list = mixed_spec(fleet, Scheduler::List).run().unwrap();
    assert_eq!(rr.completed(), rr.jobs.len(), "rr completion");
    assert_eq!(list.completed(), list.jobs.len(), "list completion");
    assert_same_results(&rr, &list, "4 GPUs");
    // The list schedule's prediction is recorded on the report.
    assert!(list.fleet.predicted_makespan_s > 0.0);
}

#[test]
fn prepass_estimates_are_bit_identical_across_all_five_executors() {
    let orig = Tensor::from_fn(Shape::d3(40, 28, 18), |[x, y, z, _]| {
        (x as f32 * 0.23).sin() * 2.0 + (y as f32 * 0.31).cos() + z as f32 * 0.04
    });
    let dec = orig.map(|v| v + 0.004 * (v * 13.0).sin());
    let executors: Vec<Box<dyn Executor>> = vec![
        Box::new(SerialZc),
        Box::new(OmpZc::default()),
        Box::new(MoZc::default()),
        Box::new(CuZc::default()),
    ];
    for stride in [1usize, 3, 8, 17] {
        let reference = executors[0].prepass(&orig, &dec, stride).unwrap();
        for ex in &executors[1..] {
            let run = ex.prepass(&orig, &dec, stride).unwrap();
            for (name, a, b) in [
                ("psnr", reference.estimate.psnr_db(), run.estimate.psnr_db()),
                (
                    "max_abs",
                    reference.estimate.max_abs_error(),
                    run.estimate.max_abs_error(),
                ),
                (
                    "max_pwr",
                    reference.estimate.max_pwr_error(),
                    run.estimate.max_pwr_error(),
                ),
                ("mse", reference.estimate.mse(), run.estimate.mse()),
            ] {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "stride {stride}: {name} differs on {}",
                    ex.name()
                );
            }
            assert_eq!(reference.estimate.sampled(), run.estimate.sampled());
        }
    }
}

#[test]
fn progressive_campaign_prunes_without_flipping_anything_it_decides() {
    // A PSNR-only bar far below real lossy quality: every job's prepass
    // estimate clears it by miles, so the whole campaign early-exits.
    let mut spec = mixed_spec(FleetSpec::nvlink(2), Scheduler::List);
    let full = spec.run().unwrap();
    spec.progressive = Some(ProgressivePolicy::new(QualityCriteria {
        min_psnr_db: Some(20.0),
        ..Default::default()
    }));
    let prog = spec.run().unwrap();
    assert_eq!(prog.completed(), prog.jobs.len());
    for (f, p) in full.jobs.iter().zip(&prog.jobs) {
        let (mf, mp) = (f.metrics().unwrap(), p.metrics().unwrap());
        assert_eq!(
            mp.confidence,
            zc_core::exec::Confidence::Subsampled,
            "job {} should have early-exited",
            p.spec.id
        );
        // The estimate must stay within the policy's decision margin of
        // the full-field value it stands in for (the golden tier pins the
        // exact estimate bits).
        assert!(
            (mf.psnr - mp.psnr).abs() < 3.0,
            "job {}: estimate {} far from full {}",
            p.spec.id,
            mp.psnr,
            mf.psnr
        );
        assert!(mp.assessed_bytes < mf.assessed_bytes);
        assert!(mp.modeled_seconds < mf.modeled_seconds);
    }
    // Stride-8 subsampling reads 1/8 of the bytes of a full assessment.
    assert!(prog.fleet.assessed_bytes <= full.fleet.assessed_bytes / 8 + 64);
    let table = prog.render_table();
    assert!(table.contains("(subsampled)"));
}
