//! Plan differential tier: running the shared plan must reproduce what the
//! four hand-scheduled executors produced before the plan-IR refactor.
//!
//! Two pins on the seeded golden 32³ pair:
//!
//! - **Counters**: the exact [`Counters`] each executor accumulates, for the
//!   full selection and for each single-pattern selection, captured from the
//!   pre-refactor executors. Integer byte/op/launch counts are compared with
//!   `==` — the refactor moved scheduling, not work.
//! - **Metric values**: the serial reference stays bit-identical to the
//!   `golden.rs` constants, and every executor's headline metrics are pinned
//!   to exact `f64` bits so all of them drifting together is caught.

use zc_core::exec::{CuZc, Executor, MoZc, OmpZc, SerialZc};
use zc_core::metrics::{Metric, MetricSelection, Pattern};
use zc_core::plan::AssessPlan;
use zc_core::AssessConfig;
use zc_data::Rng64;
use zc_gpusim::Counters;
use zc_tensor::{Shape, Tensor};

/// The same fixed pair as `golden.rs`: seeded uniform field in [-1, 1) and
/// a twin offset by seeded uniform noise in [-1e-3, 1e-3).
fn golden_pair() -> (Tensor<f32>, Tensor<f32>) {
    let shape = Shape::d3(32, 32, 32);
    let mut rng = Rng64::new(0x5EED_601D);
    let orig: Vec<f32> = (0..shape.len())
        .map(|_| rng.uniform_in(-1.0, 1.0) as f32)
        .collect();
    let dec: Vec<f32> = orig
        .iter()
        .map(|&v| v + rng.uniform_in(-1e-3, 1e-3) as f32)
        .collect();
    (
        Tensor::from_vec(shape, orig).unwrap(),
        Tensor::from_vec(shape, dec).unwrap(),
    )
}

fn executors() -> Vec<(&'static str, Box<dyn Executor>)> {
    vec![
        ("serial", Box::new(SerialZc)),
        ("ompzc", Box::new(OmpZc::default())),
        ("mozc", Box::new(MoZc::default())),
        ("cuzc", Box::new(CuZc::default())),
    ]
}

fn selections() -> [(&'static str, MetricSelection); 4] {
    [
        ("full", MetricSelection::all()),
        ("p1", MetricSelection::pattern(Pattern::GlobalReduction)),
        ("p2", MetricSelection::pattern(Pattern::Stencil)),
        ("p3", MetricSelection::pattern(Pattern::SlidingWindow)),
    ]
}

#[allow(clippy::too_many_arguments)]
fn counters(
    read: u64,
    write: u64,
    scatter: u64,
    shared: u64,
    flops: u64,
    special: u64,
    shuffles: u64,
    syncs: u64,
    launches: u64,
    grid_syncs: u64,
    iters: u64,
) -> Counters {
    Counters {
        global_read_bytes: read,
        global_write_bytes: write,
        global_scatter_bytes: scatter,
        shared_accesses: shared,
        lane_flops: flops,
        special_ops: special,
        shuffles,
        ballots: 0,
        syncs,
        launches,
        grid_syncs,
        iters_per_thread: iters,
    }
}

/// Pre-refactor counters: (executor, selection, counters, runs, profiles).
/// Captured from the hand-scheduled executors at the commit before the
/// plan-IR refactor; `ballots` was 0 everywhere.
#[rustfmt::skip]
fn pinned() -> Vec<(&'static str, &'static str, Counters, usize, usize)> {
    vec![
        ("serial", "full", counters(0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), 0, 0),
        ("serial", "p1",   counters(0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), 0, 0),
        ("serial", "p2",   counters(0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), 0, 0),
        ("serial", "p3",   counters(0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), 0, 0),
        ("ompzc",  "full", counters(7_864_320, 0, 0, 0, 76_713_984, 355_894, 0, 0, 30, 0, 0), 3, 0),
        ("ompzc",  "p1",   counters(4_456_448, 0, 0, 0, 3_538_944, 131_072, 0, 0, 17, 0, 0), 1, 0),
        ("ompzc",  "p2",   counters(3_145_728, 0, 0, 0, 9_175_040, 131_072, 0, 0, 12, 0, 0), 1, 0),
        ("ompzc",  "p3",   counters(262_144, 0, 0, 0, 64_000_000, 93_750, 0, 0, 1, 0, 0), 1, 0),
        ("mozc",   "full", counters(13_868_804, 151_984, 2_900_000, 1_623_104, 9_715_000, 285_202, 84_928, 636, 48, 0, 32), 3, 3),
        ("mozc",   "p1",   counters(2_852_864, 100_352, 0, 98_304, 1_401_088, 131_072, 2_048, 352, 22, 0, 4), 1, 1),
        ("mozc",   "p2",   counters(12_508_820, 53_568, 0, 1_228_800, 4_523_956, 221_184, 2_048, 316, 40, 0, 16), 2, 2),
        ("mozc",   "p3",   counters(2_705_520, 2_160, 2_900_000, 296_000, 5_756_548, 129_554, 84_928, 480, 18, 0, 32), 2, 2),
        ("cuzc",   "full", counters(7_636_016, 166_880, 0, 4_996_152, 10_503_016, 150_786, 109_024, 2_408, 13, 13, 32), 3, 3),
        ("cuzc",   "p1",   counters(627_456, 103_168, 0, 108_032, 1_950_304, 65_536, 26_144, 64, 2, 2, 4), 1, 1),
        ("cuzc",   "p2",   counters(6_669_248, 68_464, 0, 3_876_848, 5_377_508, 86_768, 26_144, 2_152, 11, 11, 16), 2, 2),
        ("cuzc",   "p3",   counters(873_328, 4_976, 0, 1_030_728, 6_371_300, 64_018, 109_024, 256, 2, 2, 32), 2, 2),
    ]
}

#[test]
fn plan_driven_counters_equal_the_pre_refactor_executors() {
    let (orig, dec) = golden_pair();
    let pins = pinned();
    for (sname, sel) in selections() {
        let cfg = AssessConfig {
            metrics: sel,
            ..Default::default()
        };
        let plan = AssessPlan::lower(&cfg);
        for (ename, ex) in executors() {
            let a = ex.run_plan(&plan, &orig, &dec, &cfg).unwrap();
            let (_, _, want, runs, profiles) = pins
                .iter()
                .find(|(e, s, ..)| *e == ename && *s == sname)
                .unwrap_or_else(|| panic!("no pin for {ename}/{sname}"));
            assert_eq!(a.counters, *want, "{ename}/{sname} counters");
            assert_eq!(a.runs.len(), *runs, "{ename}/{sname} runs");
            assert_eq!(a.profiles.len(), *profiles, "{ename}/{sname} profiles");
        }
    }
}

/// Headline metrics pinned per executor on the full default config:
/// (executor, psnr, ssim, autocorr(1), mse).
const PINNED_SCALARS: &[(&str, f64, f64, f64, f64)] = &[
    (
        "serial",
        70.83489292827494,
        0.9999988223690665,
        0.0009076035842160374,
        3.299744592914618e-7,
    ),
    (
        "ompzc",
        70.83489292827493,
        0.9999988223690665,
        0.0009076035842160349,
        3.299744592914627e-7,
    ),
    (
        "mozc",
        70.83489292827493,
        0.999998822369074,
        0.0009076035842160349,
        3.299744592914627e-7,
    ),
    (
        "cuzc",
        70.83489292827493,
        0.999998822369074,
        0.0009076035842160322,
        3.299744592914627e-7,
    ),
];

#[test]
fn plan_driven_metric_values_are_bit_pinned_per_executor() {
    let (orig, dec) = golden_pair();
    let cfg = AssessConfig::default();
    let plan = AssessPlan::lower(&cfg);
    for (ename, ex) in executors() {
        let a = ex.run_plan(&plan, &orig, &dec, &cfg).unwrap();
        let &(_, psnr, ssim, ac1, mse) = PINNED_SCALARS.iter().find(|(e, ..)| *e == ename).unwrap();
        for (metric, want) in [
            (Metric::Psnr, psnr),
            (Metric::Ssim, ssim),
            (Metric::Autocorrelation, ac1),
            (Metric::Mse, mse),
        ] {
            let got = a.report.scalar(metric).unwrap();
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{ename} {metric}: got {got:?}, pinned {want:?}"
            );
        }
    }
}

#[test]
fn explicit_plan_path_equals_the_default_assess_path() {
    // `Executor::assess` is now sugar for lower + run_plan; both entry
    // points must be indistinguishable.
    let (orig, dec) = golden_pair();
    for (_, sel) in selections() {
        let cfg = AssessConfig {
            metrics: sel,
            ..Default::default()
        };
        let plan = AssessPlan::lower(&cfg);
        for (ename, ex) in executors() {
            let via_plan = ex.run_plan(&plan, &orig, &dec, &cfg).unwrap();
            let via_assess = ex.assess(&orig, &dec, &cfg).unwrap();
            assert_eq!(via_plan.counters, via_assess.counters, "{ename}");
            assert_eq!(
                via_plan.report.scalar(Metric::Psnr).map(f64::to_bits),
                via_assess.report.scalar(Metric::Psnr).map(f64::to_bits),
                "{ename}"
            );
        }
    }
}
