//! Campaign throughput bench: modeled multi-field batch-assessment
//! throughput of the simulated GPU fleet — jobs/sec and assessed GB/s at
//! 1/2/4/8 devices, NVLink vs PCIe.
//!
//! Three sections:
//!
//! 1. **Uniform** — the (catalog × compressor-sweep) cross product over the
//!    paper's four datasets at one scale; jobs execute **once** and are
//!    re-sharded and re-aggregated per fleet
//!    (`CampaignSpec::run_on_fleets`), so the sweep costs one functional
//!    pass.
//! 2. **Mixed-size** — a deliberately heterogeneous campaign (a time-series
//!    hog plus small snapshots) run under both schedulers; asserts the list
//!    scheduler reaches ≥ 0.9 utilization at 8 GPUs and never loses to
//!    round-robin on makespan, and that every predicted makespan is within
//!    ±10% of the modeled one.
//! 3. **Progressive** — a recommend sweep with and without the
//!    subsample-prepass early exit; asserts the pass/fail verdicts agree
//!    while the assessed bytes shrink.
//!
//! Emits `BENCH_campaign.json` at the repo root (hand-rolled JSON, no
//! serde). Usage: `campaign [--scale N] [--fields K] [--rel-bound X]` —
//! scale defaults to 4 (axes divided by 4), fields to 2 per dataset.

use zc_bench::HarnessOpts;
use zc_compress::{CompressorSpec, ErrorBound};
use zc_core::campaign::{CampaignSpec, FieldRef, FleetSpec, LinkKind, RecoveryPolicy, Scheduler};
use zc_core::recommend::{recommend, QualityCriteria};
use zc_core::{AssessConfig, TilingPolicy};
use zc_data::{catalog_fields, AppDataset, GenOptions};

fn main() {
    let opts = match HarnessOpts::from_args(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("campaign: {e}; usage: campaign [--scale N] [--fields K] [--rel-bound X]");
            std::process::exit(2);
        }
    };
    let per_dataset = opts.max_fields.unwrap_or(2);
    let gen = GenOptions::scaled_xy(opts.scale);
    let fields: Vec<FieldRef> = catalog_fields(&AppDataset::ALL)
        .filter(|&(_, index, _)| index < per_dataset)
        .map(|(dataset, index, _)| FieldRef::new(dataset, index, gen))
        .collect();
    let compressors = vec![
        CompressorSpec::Sz(ErrorBound::Rel(opts.rel_bound)),
        CompressorSpec::Zfp(12.0),
    ];
    let cfg = AssessConfig {
        max_lag: 4,
        ..opts.cfg
    };
    let spec = CampaignSpec {
        fields,
        compressors: compressors.clone(),
        cfg: cfg.clone(),
        fleet: FleetSpec::nvlink(1),
        scheduler: Scheduler::RoundRobin,
        progressive: None,
        recovery: RecoveryPolicy::default(),
    };
    let n_jobs = spec.jobs().len();
    eprintln!(
        "campaign: {} fields x {} configs = {n_jobs} jobs (scale {})",
        spec.fields.len(),
        compressors.len(),
        opts.scale
    );

    let gpu_counts = [1u32, 2, 4, 8];
    let links = [LinkKind::NvLink, LinkKind::Pcie];
    let fleets: Vec<FleetSpec> = links
        .iter()
        .flat_map(|&link| {
            gpu_counts.iter().map(move |&gpus| FleetSpec {
                gpus,
                link,
                faults: None,
            })
        })
        .collect();
    let reports = spec.run_on_fleets(&fleets).expect("campaign run");

    // Per-field metrics table from the single-GPU NVLink report.
    println!("{}", reports[0].render_table());
    println!(
        "{:<8} {:>5} {:>12} {:>14} {:>13} {:>12} {:>21}",
        "link",
        "GPUs",
        "jobs/sec",
        "assessed GB/s",
        "makespan (s)",
        "utilization",
        "h2d/compute/d2h busy"
    );
    let mut fleet_json = Vec::new();
    for (fleet, report) in fleets.iter().zip(&reports) {
        let f = &report.fleet;
        let e = &f.engines;
        println!(
            "{:<8} {:>5} {:>12.3} {:>14.3} {:>13.5} {:>11.1}% {:>6.1}% {:>6.1}% {:>5.1}%",
            fleet.link.label(),
            fleet.gpus,
            f.jobs_per_sec,
            f.assessed_gbs,
            f.makespan_s,
            f.utilization * 100.0,
            e.h2d_fraction() * 100.0,
            e.compute_fraction() * 100.0,
            e.d2h_fraction() * 100.0,
        );
        fleet_json.push(format!(
            "    {{\"link\": \"{}\", \"gpus\": {}, \"jobs_per_sec\": {:.6}, \"assessed_gbs\": {:.6}, \"makespan_s\": {:.8}, \"utilization\": {:.6}, \"h2d_busy_fraction\": {:.6}, \"compute_busy_fraction\": {:.6}, \"d2h_busy_fraction\": {:.6}, \"transfer_bound\": {}, \"completed\": {}, \"failed\": {}}}",
            fleet.link.label(),
            fleet.gpus,
            f.jobs_per_sec,
            f.assessed_gbs,
            f.makespan_s,
            f.utilization,
            e.h2d_fraction(),
            e.compute_fraction(),
            e.d2h_fraction(),
            e.transfer_bound(),
            report.completed(),
            report.failures().len(),
        ));
    }

    // Sanity: throughput must scale monotonically 1 -> 4 GPUs per link.
    for (li, link) in links.iter().enumerate() {
        let jps: Vec<f64> = reports[li * gpu_counts.len()..(li + 1) * gpu_counts.len()]
            .iter()
            .map(|r| r.fleet.jobs_per_sec)
            .collect();
        assert!(
            jps[0] < jps[1] && jps[1] < jps[2],
            "{}: jobs/sec must scale monotonically 1->4 GPUs: {jps:?}",
            link.label()
        );
    }

    // ---- mixed-size section: list vs round-robin schedulers ------------
    let mixed_json = run_mixed_section(opts.scale, &cfg, &gpu_counts);

    // ---- progressive section: prepass-pruned recommend sweep -----------
    let progressive_json = run_progressive_section(opts.scale, &cfg);

    let out = format!(
        "{{\n  \"scale\": {},\n  \"fields_per_dataset\": {per_dataset},\n  \"jobs\": {n_jobs},\n  \"compressors\": [{}],\n  \"max_lag\": {},\n  \"fleets\": [\n{}\n  ],\n  \"mixed_fleets\": [\n{}\n  ],\n  \"progressive\": {}\n}}\n",
        opts.scale,
        compressors.iter().map(|c| format!("\"{}\"", c.label())).collect::<Vec<_>>().join(", "),
        spec.cfg.max_lag,
        fleet_json.join(",\n"),
        mixed_json.join(",\n"),
        progressive_json,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_campaign.json");
    std::fs::write(path, &out).expect("write BENCH_campaign.json");
    println!("{out}");
    eprintln!("wrote {path}");

    // Under ZC_SANITIZE=1 every simulated launch above ran checked; fail
    // the bench (exit 3) if any kernel tripped the sanitizer.
    if zc_gpusim::sanitizer::enabled() {
        let s = zc_gpusim::sanitizer::drain();
        for r in &s.reports {
            eprint!("{}", r.render());
        }
        eprintln!(
            "========= ZC SANITIZER: {} launch(es) checked, {} hazard(s)",
            s.launches_checked, s.hazards
        );
        if !s.is_clean() {
            std::process::exit(3);
        }
    }
}

/// The deliberately heterogeneous campaign: one time-series hog (8 evolving
/// Hurricane TC snapshots) next to small single snapshots, so round-robin's
/// cost-blind placement leaves most groups idle while one grinds the hog.
fn mixed_fields(scale: usize) -> Vec<FieldRef> {
    let s2 = scale * 2;
    vec![
        FieldRef::timeseries(AppDataset::Hurricane, 9, GenOptions::scaled_xy(scale), 8),
        FieldRef::new(AppDataset::ScaleLetkf, 0, GenOptions::scaled(s2)),
        FieldRef::new(AppDataset::Nyx, 3, GenOptions::scaled(s2)),
        FieldRef::new(AppDataset::Miranda, 0, GenOptions::scaled(s2)),
        FieldRef::new(AppDataset::Hurricane, 5, GenOptions::scaled(s2)),
    ]
}

fn run_mixed_section(scale: usize, cfg: &AssessConfig, gpu_counts: &[u32]) -> Vec<String> {
    // Slab-tile every job so the scheduler can split the hog across
    // groups; tiled execution is bit-identical to monolithic.
    let cfg = AssessConfig {
        tiling: TilingPolicy::Slabs(32),
        ..cfg.clone()
    };
    let compressors = vec![
        CompressorSpec::Sz(ErrorBound::Rel(1e-3)),
        CompressorSpec::Zfp(12.0),
    ];
    let fleets: Vec<FleetSpec> = gpu_counts.iter().map(|&g| FleetSpec::nvlink(g)).collect();
    println!(
        "\nmixed-size campaign ({} jobs):\n{:<12} {:>5} {:>13} {:>15} {:>10} {:>12}",
        mixed_fields(scale).len() * compressors.len(),
        "scheduler",
        "GPUs",
        "makespan (s)",
        "predicted (s)",
        "pred err",
        "utilization"
    );
    let mut json = Vec::new();
    let mut by_sched = Vec::new();
    for scheduler in [Scheduler::RoundRobin, Scheduler::List] {
        let spec = CampaignSpec {
            fields: mixed_fields(scale),
            compressors: compressors.clone(),
            cfg: cfg.clone(),
            fleet: FleetSpec::nvlink(1),
            scheduler,
            progressive: None,
            recovery: RecoveryPolicy::default(),
        };
        let reports = spec.run_on_fleets(&fleets).expect("mixed campaign run");
        for (fleet, report) in fleets.iter().zip(&reports) {
            let f = &report.fleet;
            println!(
                "{:<12} {:>5} {:>13.5} {:>15.5} {:>9.1}% {:>11.1}%",
                scheduler.label(),
                fleet.gpus,
                f.makespan_s,
                f.predicted_makespan_s,
                f.makespan_rel_error * 100.0,
                f.utilization * 100.0,
            );
            json.push(format!(
                "    {{\"scheduler\": \"{}\", \"gpus\": {}, \"makespan_s\": {:.8}, \"predicted_makespan_s\": {:.8}, \"makespan_rel_error\": {:.6}, \"utilization\": {:.6}, \"jobs_per_sec\": {:.6}, \"completed\": {}}}",
                scheduler.label(),
                fleet.gpus,
                f.makespan_s,
                f.predicted_makespan_s,
                f.makespan_rel_error,
                f.utilization,
                f.jobs_per_sec,
                report.completed(),
            ));
        }
        by_sched.push(reports);
    }
    // The tentpole claims, asserted: the list scheduler keeps 8 GPUs ≥ 90%
    // busy on this mix, and never loses to round-robin on actual makespan.
    let (rr, list) = (&by_sched[0], &by_sched[1]);
    // One cost model: jobs are priced through the simulator's own cost
    // function, so every predicted makespan must land within ±10% of the
    // modeled one.
    for reports in &by_sched {
        for r in reports.iter() {
            let err = r.fleet.makespan_rel_error;
            assert!(
                err.abs() <= 0.10,
                "makespan prediction error must stay within ±10%, got {:.1}% at {} GPUs",
                err * 100.0,
                r.fleet.gpus
            );
        }
    }
    let at8 = &list[gpu_counts.len() - 1].fleet;
    assert!(
        at8.utilization >= 0.9,
        "list scheduler utilization at 8 GPUs must be >= 0.9, got {:.3}",
        at8.utilization
    );
    for (r, l) in rr.iter().zip(list.iter()) {
        assert!(
            l.fleet.makespan_s <= r.fleet.makespan_s * 1.05,
            "list makespan {} must not exceed round-robin {} at {} GPUs",
            l.fleet.makespan_s,
            r.fleet.makespan_s,
            l.fleet.gpus
        );
    }
    json
}

fn run_progressive_section(scale: usize, cfg: &AssessConfig) -> String {
    let field = FieldRef::new(AppDataset::Nyx, 2, GenOptions::scaled(scale * 2));
    let candidates = [
        CompressorSpec::Sz(ErrorBound::Rel(1e-2)),
        CompressorSpec::Sz(ErrorBound::Rel(1e-3)),
        CompressorSpec::Sz(ErrorBound::Rel(1e-4)),
        CompressorSpec::Sz(ErrorBound::Rel(1e-5)),
        CompressorSpec::Zfp(4.0),
        CompressorSpec::Zfp(16.0),
    ];
    let criteria = QualityCriteria {
        min_psnr_db: Some(60.0),
        ..Default::default()
    };
    let (full, full_stats) =
        recommend(&field, &candidates, &criteria, cfg, false).expect("full sweep");
    let (prog, stats) =
        recommend(&field, &candidates, &criteria, cfg, true).expect("progressive sweep");
    let full_bytes = full_stats.assessed_bytes;
    println!(
        "\nprogressive sweep: {}/{} candidates pruned by the prepass, {} -> {} bytes assessed",
        stats.pruned, stats.candidates, full_bytes, stats.assessed_bytes
    );
    // The soundness claim, asserted: pruning must not flip any
    // accept/reject verdict, and it must actually save work.
    for v in &full {
        let p = prog
            .iter()
            .find(|p| p.name == v.name)
            .expect("candidate present in both sweeps");
        assert_eq!(
            v.passes, p.passes,
            "progressive verdict flipped for {}: full={} progressive={}",
            v.name, v.passes, p.passes
        );
    }
    assert!(
        stats.assessed_bytes < full_bytes,
        "progressive sweep must reduce assessed bytes: {} vs {full_bytes}",
        stats.assessed_bytes
    );
    assert!(
        stats.pruned > 0,
        "expected at least one prepass-decided candidate"
    );
    format!(
        "{{\"candidates\": {}, \"pruned\": {}, \"full_assessed_bytes\": {full_bytes}, \"progressive_assessed_bytes\": {}, \"bytes_saved_fraction\": {:.6}}}",
        stats.candidates,
        stats.pruned,
        stats.assessed_bytes,
        1.0 - stats.assessed_bytes as f64 / full_bytes as f64,
    )
}
