//! Determinism tier: campaign results are bit-identical at every host
//! worker count.
//!
//! `zc-par` partitions statically and the campaign isolates jobs, so the
//! whole report — every metric scalar, every counter, every fleet number —
//! must be `==` whether the campaign ran on 1 worker, 2 workers, or the
//! machine's full parallelism. The `ZC_PAR_THREADS` override added for
//! exactly this test makes the property *runnable* instead of vacuous.
//!
//! Property-test style: a deterministic inline RNG draws campaign shapes
//! (dataset, field subset, compressor subset, fleet size); each drawn
//! campaign is executed at the three worker counts and compared bitwise.
//! Kept as a single `#[test]` because the worker-count override is
//! process-global.

use zc_compress::{CompressorSpec, ErrorBound};
use zc_core::campaign::{
    CampaignReport, CampaignSpec, FieldRef, FleetSpec, RecoveryPolicy, Scheduler,
};
use zc_core::recommend::{recommend, QualityCriteria, SweepStats, Verdict};
use zc_core::AssessConfig;
use zc_data::{AppDataset, GenOptions};

/// SplitMix64 case generator (no external property-testing dependency).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn pick<T: Copy>(&mut self, options: &[T]) -> T {
        options[(self.next() % options.len() as u64) as usize]
    }
}

fn draw_campaign(rng: &mut Rng) -> CampaignSpec {
    let dataset = rng.pick(&AppDataset::ALL);
    let opts = GenOptions::scaled(32).with_seed(rng.next() % 8);
    let n_fields = 1 + (rng.next() % 2) as usize;
    // The first drawn field is sometimes a 4D time series, so the
    // determinism property covers the heterogeneous-size path too.
    let steps = rng.pick(&[1usize, 1, 4]);
    let fields = (0..dataset.field_count().min(n_fields))
        .map(|index| {
            if index == 0 {
                FieldRef::timeseries(dataset, index, opts, steps)
            } else {
                FieldRef::new(dataset, index, opts)
            }
        })
        .collect();
    let all_compressors = [
        CompressorSpec::Sz(ErrorBound::Rel(1e-3)),
        CompressorSpec::Zfp(12.0),
        CompressorSpec::BitGroom(8),
    ];
    let n_comp = 1 + (rng.next() % 2) as usize;
    let compressors = (0..n_comp).map(|_| rng.pick(&all_compressors)).collect();
    // Half the drawn campaigns run under a seeded fault plan, so the
    // worker-count independence property covers the chaos replay too (the
    // fault simulation is a post-functional pass, but its inputs must not
    // depend on how many workers executed the jobs).
    let mut fleet = FleetSpec::nvlink(rng.pick(&[1u32, 2, 4]));
    if rng.next().is_multiple_of(2) {
        fleet = fleet.with_faults(
            zc_gpusim::FaultPlan::chaos(rng.next(), 30 + (rng.next() % 100) as u32)
                .with_hangs((rng.next() % 20) as u32)
                .with_flaps((rng.next() % 50) as u32),
        );
    }
    CampaignSpec {
        fields,
        compressors,
        cfg: AssessConfig {
            max_lag: 3,
            bins: 32,
            ..Default::default()
        },
        fleet,
        scheduler: rng.pick(&[Scheduler::RoundRobin, Scheduler::List]),
        progressive: None,
        recovery: RecoveryPolicy::default(),
    }
}

/// Bitwise equality over everything a campaign reports.
fn assert_reports_identical(a: &CampaignReport, b: &CampaignReport, ctx: &str) {
    assert_eq!(a.jobs.len(), b.jobs.len(), "{ctx}: job count");
    for (ja, jb) in a.jobs.iter().zip(&b.jobs) {
        assert_eq!(ja.group, jb.group, "{ctx}: shard assignment");
        assert_eq!(ja.attempts, jb.attempts, "{ctx}: attempt count");
        assert_eq!(
            ja.spec.compressor.label(),
            jb.spec.compressor.label(),
            "{ctx}: job order"
        );
        match (ja.metrics(), jb.metrics()) {
            (Some(ma), Some(mb)) => {
                let scalars = [
                    ("psnr", ma.psnr, mb.psnr),
                    ("ssim", ma.ssim, mb.ssim),
                    ("mse", ma.mse, mb.mse),
                    ("pearson", ma.pearson, mb.pearson),
                    ("ratio", ma.compression_ratio, mb.compression_ratio),
                    ("modeled_s", ma.modeled_seconds, mb.modeled_seconds),
                    (
                        "autocorr1",
                        ma.autocorr1.unwrap_or(f64::NAN),
                        mb.autocorr1.unwrap_or(f64::NAN),
                    ),
                ];
                for (name, va, vb) in scalars {
                    assert_eq!(
                        va.to_bits(),
                        vb.to_bits(),
                        "{ctx}: {name} differs across worker counts: {va:?} vs {vb:?}"
                    );
                }
                assert_eq!(ma.pattern_times, mb.pattern_times, "{ctx}: pattern times");
            }
            (None, None) => {}
            _ => panic!("{ctx}: outcome kind differs across worker counts"),
        }
    }
    assert_eq!(a.totals, b.totals, "{ctx}: merged counters");
    assert_eq!(
        a.fleet.assessed_bytes, b.fleet.assessed_bytes,
        "{ctx}: assessed bytes"
    );
    assert_eq!(
        a.fleet.busy_s, b.fleet.busy_s,
        "{ctx}: per-group busy seconds"
    );
    for (name, va, vb) in [
        ("makespan", a.fleet.makespan_s, b.fleet.makespan_s),
        ("jobs_per_sec", a.fleet.jobs_per_sec, b.fleet.jobs_per_sec),
        ("utilization", a.fleet.utilization, b.fleet.utilization),
        ("assessed_gbs", a.fleet.assessed_gbs, b.fleet.assessed_gbs),
        (
            "predicted_makespan",
            a.fleet.predicted_makespan_s,
            b.fleet.predicted_makespan_s,
        ),
        (
            "makespan_rel_error",
            a.fleet.makespan_rel_error,
            b.fleet.makespan_rel_error,
        ),
    ] {
        assert_eq!(va.to_bits(), vb.to_bits(), "{ctx}: fleet {name}");
    }
    assert_eq!(a.recovery, b.recovery, "{ctx}: recovery report");
}

/// A recommend sweep with and without pruning, reduced to comparable bits:
/// every verdict field (floats by bit pattern) plus the work accounting.
type SweepBits = Vec<(Vec<(String, bool, [u64; 5], Vec<String>)>, SweepStats)>;

fn recommend_sweeps() -> SweepBits {
    let field = FieldRef::new(AppDataset::Nyx, 0, GenOptions::scaled(32));
    let mut candidates = CompressorSpec::standard_sweep();
    candidates.push(CompressorSpec::BitGroom(8));
    let cfg = AssessConfig {
        max_lag: 3,
        bins: 32,
        ..Default::default()
    };
    let bits = |v: &Verdict| {
        let floats = [v.ratio, v.bit_rate, v.psnr_db, v.ssim, v.autocorr1].map(f64::to_bits);
        (v.name.clone(), v.passes, floats, v.failures.clone())
    };
    [false, true]
        .into_iter()
        .map(|prune| {
            let (verdicts, stats) = recommend(
                &field,
                &candidates,
                &QualityCriteria::visualization(),
                &cfg,
                prune,
            )
            .unwrap();
            (verdicts.iter().map(bits).collect(), stats)
        })
        .collect()
}

#[test]
fn campaign_is_bit_identical_across_worker_counts() {
    let mut rng = Rng(0xCA3B_A161 ^ 0xDE7E_2417);
    for case in 0..4 {
        let spec = draw_campaign(&mut rng);
        let ctx = format!(
            "case {case} ({} fields x {} configs, {} GPUs)",
            spec.fields.len(),
            spec.compressors.len(),
            spec.fleet.gpus
        );
        std::env::set_var("ZC_PAR_THREADS", "1");
        assert_eq!(zc_par::max_threads(), 1, "override must be live");
        let one = spec.run().unwrap();
        std::env::set_var("ZC_PAR_THREADS", "2");
        assert_eq!(zc_par::max_threads(), 2, "override must be live");
        let two = spec.run().unwrap();
        std::env::remove_var("ZC_PAR_THREADS");
        let max = spec.run().unwrap();
        assert_reports_identical(&one, &two, &format!("{ctx}, 1 vs 2 workers"));
        assert_reports_identical(&one, &max, &format!("{ctx}, 1 vs max workers"));
    }
    // A recommend sweep is one engine batch: its verdicts are as
    // worker-count independent as a campaign's records.
    std::env::set_var("ZC_PAR_THREADS", "1");
    let one = recommend_sweeps();
    std::env::set_var("ZC_PAR_THREADS", "2");
    let two = recommend_sweeps();
    std::env::remove_var("ZC_PAR_THREADS");
    let max = recommend_sweeps();
    assert_eq!(one, two, "recommend, 1 vs 2 workers");
    assert_eq!(one, max, "recommend, 1 vs max workers");
}
