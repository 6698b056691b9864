//! Chaos bench: fault-rate sweep of the campaign recovery engine on the
//! 8-GPU demo fleet — completion, retry/reschedule traffic, and makespan
//! inflation versus the fault-free run.
//!
//! Every fleet is one entry of a single `CampaignSpec::run_on_fleets` call:
//! the functional work runs once, and each fleet only replays recovery.
//! Three sections, all asserted:
//!
//! 1. **Transient sweep** — rates 10‰ to 200‰, each under `SEEDS` fault
//!    seeds: one seed fires few faults on eight jobs, and a fixed seed's
//!    draws are nested in the rate, so one seed cannot tell rates apart.
//!    Each rate reports the mean and spread of attempts, retries and
//!    makespan inflation; rates are ordered only where spreads separate.
//!    At 5%, seed 42 and the seeds' mean must complete ≥ 99% of jobs with
//!    at most 50% inflation. Completed-job metrics must equal the
//!    fault-free golden bits under every plan.
//! 2. **Mixed faults** — hangs (watchdog trips) and link flaps on top of
//!    transients; everything still completes or fails typed, within one
//!    watchdog timeout.
//! 3. **Degraded mode** — one device dead on arrival; the survivors absorb
//!    its load, lose nothing, and inflate the makespan at most 50%.
//!
//! The whole sweep runs twice and must replay bit-identically. Emits
//! `BENCH_chaos.json` at the repo root (hand-rolled JSON, no serde).
//! Usage: `chaos [--scale N]` — scale divides the demo field axes.

use zc_bench::HarnessOpts;
use zc_compress::{CompressorSpec, ErrorBound};
use zc_core::campaign::{
    CampaignReport, CampaignSpec, FieldRef, FleetSpec, RecoveryPolicy, RecoveryReport, Scheduler,
};
use zc_core::AssessConfig;
use zc_data::{AppDataset, GenOptions};
use zc_gpusim::FaultPlan;

/// Fault seeds drawn per transient rate: `FIRST_SEED..FIRST_SEED + SEEDS`.
const SEEDS: u64 = 32;
const FIRST_SEED: u64 = 42;
/// Transient launch-fault rates of the sweep (per mille).
const RATES: [u32; 4] = [10, 50, 100, 200];
/// The headline rate the completion and inflation gates apply to.
const GATED_RATE: u32 = 50;
const GPUS: u32 = 8;

/// The `cuzc --demo --fleet 8` campaign: a 4-step time series next to
/// three snapshots, two codecs, list scheduling.
fn demo_spec(scale: usize) -> CampaignSpec {
    CampaignSpec {
        fields: vec![
            FieldRef::timeseries(AppDataset::Hurricane, 9, GenOptions::scaled(scale), 4),
            FieldRef::new(AppDataset::Nyx, 2, GenOptions::scaled(scale)),
            FieldRef::new(AppDataset::Miranda, 0, GenOptions::scaled(scale)),
            FieldRef::new(AppDataset::Hurricane, 5, GenOptions::scaled(scale)),
        ],
        compressors: vec![
            CompressorSpec::Sz(ErrorBound::Rel(1e-3)),
            CompressorSpec::Zfp(12.0),
        ],
        cfg: AssessConfig {
            max_lag: 3,
            bins: 32,
            ..Default::default()
        },
        fleet: FleetSpec::nvlink(GPUS),
        scheduler: Scheduler::List,
        progressive: None,
        recovery: RecoveryPolicy::default(),
    }
}

/// A report's recovery section; a fault-free run has none, so it reads as
/// everything completed in the baseline makespan with zero fault traffic.
fn recovery(report: &CampaignReport) -> RecoveryReport {
    report.recovery.clone().unwrap_or(RecoveryReport {
        completion: 1.0,
        fault_free_makespan_s: report.fleet.makespan_s,
        ..Default::default()
    })
}

fn recovery_json(rate_permille: u32, report: &CampaignReport) -> String {
    let f = &report.fleet;
    let r = recovery(report);
    format!(
        "    {{\"rate_permille\": {rate_permille}, \"completed\": {}, \"failed\": {}, \"completion\": {:.6}, \"attempts\": {}, \"retries\": {}, \"reschedules\": {}, \"watchdog_trips\": {}, \"link_flaps\": {}, \"dead_devices\": {}, \"lost_jobs\": {}, \"backoff_s\": {:.8}, \"makespan_s\": {:.8}, \"fault_free_makespan_s\": {:.8}, \"makespan_inflation\": {:.6}, \"utilization\": {:.6}, \"assessed_bytes\": {}}}",
        report.completed(),
        report.failures().len(),
        r.completion,
        r.attempts,
        r.retries,
        r.reschedules,
        r.watchdog_trips,
        r.link_flaps,
        r.dead_devices.len(),
        r.lost_jobs,
        r.backoff_s,
        f.makespan_s,
        r.fault_free_makespan_s,
        r.makespan_inflation,
        f.utilization,
        f.assessed_bytes,
    )
}

/// A quantity each swept rate reports, and how to read it from one replay.
type Quantity = (&'static str, fn(&RecoveryReport) -> f64);
const QUANTITIES: [Quantity; 3] = [
    ("attempts", |r| r.attempts as f64),
    ("retries", |r| r.retries as f64),
    ("makespan_inflation", |r| r.makespan_inflation),
];

/// A quantity's mean over a rate's seeds, and its spread: the interval
/// mean ± 2 standard errors, about a 95% interval for the mean.
#[derive(Clone, Copy, Debug)]
struct Spread {
    mean: f64,
    lo: f64,
    hi: f64,
}

impl Spread {
    fn of(xs: &[f64]) -> Spread {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0).max(1.0);
        let half = 2.0 * (var / n).sqrt();
        Spread {
            mean,
            lo: mean - half,
            hi: mean + half,
        }
    }
}

fn main() {
    let opts = match HarnessOpts::from_args(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("chaos: {e}\nusage: chaos [--scale N]");
            std::process::exit(2);
        }
    };
    let scale = opts.scale.max(2);
    let spec = demo_spec(scale);

    // Fleet 0 is fault-free, then RATES × SEEDS transient fleets, then the
    // mixed-fault and degraded-mode fleets.
    let healthy = FleetSpec::nvlink(GPUS);
    let mut fleets = vec![healthy];
    for &rate in &RATES {
        for seed in FIRST_SEED..FIRST_SEED + SEEDS {
            fleets.push(healthy.with_faults(FaultPlan::chaos(seed, rate)));
        }
    }
    // Seed 7 draws both hangs and flaps at these rates.
    let mixed_plan = FaultPlan::chaos(7, 50).with_hangs(150).with_flaps(300);
    fleets.push(healthy.with_faults(mixed_plan));
    fleets.push(healthy.with_faults(FaultPlan::chaos(FIRST_SEED, 0).with_dead_device(0)));

    let reports = spec.run_on_fleets(&fleets).expect("chaos sweep");
    let replay = spec.run_on_fleets(&fleets).expect("chaos sweep replay");
    for (i, (a, b)) in reports.iter().zip(&replay).enumerate() {
        assert_eq!(
            a.fleet.makespan_s.to_bits(),
            b.fleet.makespan_s.to_bits(),
            "fleet {i}: same seed must replay the same makespan"
        );
        assert_eq!(
            a.recovery, b.recovery,
            "fleet {i}: same seed, same recovery"
        );
    }

    let golden = &reports[0];
    let n_jobs = golden.jobs.len();
    eprintln!(
        "chaos: {n_jobs} demo jobs on {GPUS} simulated GPUs (scale {scale}), {} fleets in one run",
        fleets.len()
    );
    // Completed-job metrics are the fault-free golden bits under every
    // fault plan — chaos moves time, never values.
    for (i, report) in reports.iter().enumerate() {
        for (jc, jg) in report.jobs.iter().zip(&golden.jobs) {
            if let (Some(mc), Some(mg)) = (jc.metrics(), jg.metrics()) {
                assert_eq!(
                    mc.psnr.to_bits(),
                    mg.psnr.to_bits(),
                    "fleet {i}: job {} psnr not golden",
                    jc.spec.id
                );
                assert_eq!(mc.assessed_bytes, mg.assessed_bytes);
            }
        }
    }

    // ---- transient sweep ------------------------------------------------
    let n = SEEDS as usize;
    let sweep: Vec<Vec<RecoveryReport>> = (0..RATES.len())
        .map(|k| {
            reports[1 + k * n..1 + (k + 1) * n]
                .iter()
                .map(recovery)
                .collect()
        })
        .collect();
    let spreads: Vec<Vec<Spread>> = sweep
        .iter()
        .map(|runs| {
            QUANTITIES
                .iter()
                .map(|(_, q)| Spread::of(&runs.iter().map(q).collect::<Vec<_>>()))
                .collect()
        })
        .collect();
    let min_completion = |k: usize| sweep[k].iter().map(|r| r.completion).fold(1.0, f64::min);
    let sweep_json: Vec<String> = RATES
        .iter()
        .enumerate()
        .map(|(k, rate)| {
            let cells: Vec<String> = QUANTITIES
                .iter()
                .zip(&spreads[k])
                .map(|((name, _), s)| {
                    let (mean, lo, hi) = (s.mean, s.lo, s.hi);
                    format!("\"{name}\": {{\"mean\": {mean:.6}, \"lo\": {lo:.6}, \"hi\": {hi:.6}}}")
                })
                .collect();
            let completion = min_completion(k);
            format!(
                "    {{\"rate_permille\": {rate}, \"completion_min\": {completion:.6}, {}}}",
                cells.join(", ")
            )
        })
        .collect();

    // The headline gates at the 5% rate: >= 99% completion and at most 50%
    // makespan inflation, on the seed the sweep has always gated
    // (FIRST_SEED) and on the mean over all seeds (upper end of its
    // spread). Seeds whose own inflation exceeds 50% are reported.
    let k = RATES
        .iter()
        .position(|&r| r == GATED_RATE)
        .expect("gated rate swept");
    let (first, inflation) = (&sweep[k][0], spreads[k][2]);
    assert!(
        first.completion >= 0.99 && min_completion(k) >= 0.99,
        "5% chaos must complete >= 99% of jobs: seed {FIRST_SEED} {}, worst seed {}",
        first.completion,
        min_completion(k)
    );
    assert!(
        first.makespan_inflation <= 0.5 && inflation.hi <= 0.5,
        "5% chaos must keep makespan inflation <= 50%: seed {FIRST_SEED} {}, over seeds {inflation:?}",
        first.makespan_inflation
    );
    let over: Vec<String> = (FIRST_SEED..)
        .zip(&sweep[k])
        .filter(|(_, r)| r.makespan_inflation > 0.5)
        .map(|(seed, r)| {
            format!(
                "{{\"seed\": {seed}, \"makespan_inflation\": {:.6}}}",
                r.makespan_inflation
            )
        })
        .collect();
    println!(
        "5% gates hold (seed {FIRST_SEED} inflates {:.1}%); seeds inflating beyond 50%: [{}]",
        first.makespan_inflation * 100.0,
        over.join(", ")
    );

    // Order two rates on a quantity only where their spreads separate; a
    // higher rate whose spread lies entirely below a lower one's fails.
    let separated = |i: usize, j: usize, q: usize| {
        let (a, b) = (spreads[i][q], spreads[j][q]);
        let name = QUANTITIES[q].0;
        assert!(b.hi >= a.lo, "{name}: {}‰ below {}‰", RATES[j], RATES[i]);
        b.lo > a.hi
    };
    let mut orderings = Vec::new();
    for (i, lo) in RATES.iter().enumerate() {
        for (j, hi) in RATES.iter().enumerate().skip(i + 1) {
            for (q, (name, _)) in QUANTITIES.iter().enumerate() {
                if separated(i, j, q) {
                    orderings.push(format!("\"{name}: {lo}‰ < {hi}‰\""));
                }
            }
        }
    }
    println!("separated: {}", orderings.join(", "));
    // A sweep that cannot tell its lowest rate from its highest is too
    // small a sample to report at all.
    assert!(
        separated(0, RATES.len() - 1, 1),
        "{SEEDS} seeds cannot separate the retries of the lowest and highest rates"
    );

    // ---- mixed faults: hangs + flaps on top of transients ---------------
    let mixed = &reports[fleets.len() - 2];
    let mr = recovery(mixed);
    assert!(
        mr.watchdog_trips > 0,
        "the mixed plan must trip the watchdog"
    );
    assert!(mr.link_flaps > 0, "the mixed plan must flap a link");
    // Hangs are reclaimed at a deadline priced from the part, so the whole
    // mixed campaign ends before a single watchdog timeout would.
    let watchdog_s = healthy.executor().sim.dev.watchdog_timeout_s;
    assert!(
        mixed.fleet.makespan_s < watchdog_s,
        "mixed faults take {} s, over one {watchdog_s} s watchdog timeout",
        mixed.fleet.makespan_s
    );
    println!(
        "\nmixed faults (50‰ transient, 150‰ hang, 300‰ flap): completion {:.1}%, {} watchdog trips, {} flaps, makespan {:+.1}%",
        mr.completion * 100.0,
        mr.watchdog_trips,
        mr.link_flaps,
        mr.makespan_inflation * 100.0,
    );

    // ---- degraded mode: one device dead on arrival ----------------------
    let degraded = &reports[fleets.len() - 1];
    let dr = recovery(degraded);
    assert_eq!(dr.lost_jobs, 0, "degraded mode must lose nothing");
    assert_eq!(dr.dead_devices, vec![0]);
    assert_eq!(
        degraded.fleet.busy_s[0], 0.0,
        "a dead-on-arrival device never works"
    );
    assert_eq!(degraded.completed(), golden.completed());
    assert!(
        dr.makespan_inflation <= 0.5,
        "the survivors must absorb a dead device's part within 50%: {}",
        dr.makespan_inflation
    );
    println!(
        "degraded mode (device 0 dead): completion {:.1}%, {} reschedules, makespan {:+.1}%",
        dr.completion * 100.0,
        dr.reschedules,
        dr.makespan_inflation * 100.0,
    );

    let out = format!(
        "{{\n  \"scale\": {scale},\n  \"gpus\": {GPUS},\n  \"jobs\": {n_jobs},\n  \"max_retries\": {},\n  \"spread\": \"mean +/- 2 standard errors over seeds {FIRST_SEED}..{}\",\n  \"fault_free\": [\n{}\n  ],\n  \"transient_sweep\": [\n{}\n  ],\n  \"separated\": [{}],\n  \"gated_seeds_over_50pct_inflation\": [{}],\n  \"mixed_faults\": [\n{}\n  ],\n  \"degraded_mode\": [\n{}\n  ]\n}}\n",
        RecoveryPolicy::MAX_RETRIES,
        FIRST_SEED + SEEDS,
        recovery_json(0, golden),
        sweep_json.join(",\n"),
        orderings.join(", "),
        over.join(", "),
        recovery_json(50, mixed),
        recovery_json(0, degraded),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_chaos.json");
    std::fs::write(path, &out).expect("write BENCH_chaos.json");
    println!("\n{out}");
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
