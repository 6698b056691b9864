//! Pricing tier: the job pricer charges exactly what the run will.
//!
//! Every cuZC pass declares its launches in closed form
//! (`zc_kernels::traffic`, read through [`PassKind::launches`]). This tier
//! runs the real cuZC passes on a SplitMix64 sweep of shapes — 1-D, 2-D,
//! 3-D with fewer planes than the SSIM window, 4-D — and on the field
//! shapes the service, archive and campaign workloads assess, and pins:
//!
//! * **Counters** — each pass's declared counters equal the counters its
//!   launches charge, field for field, except the histogram pass's special
//!   ops (one per non-zero original value), which stay under their bound;
//! * **Seconds** — each pass's priced seconds ([`estimate_job_cost`]) are
//!   within 5% of its launches' modeled seconds.

use zc_core::campaign::FieldRef;
use zc_core::exec::{CuZc, Executor};
use zc_core::plan::{estimate_job_cost, AssessPlan, PassCtx, PassKind, PassOutput};
use zc_core::{AssessConfig, TilingPolicy};
use zc_data::{AppDataset, GenOptions, SplitMix64};
use zc_gpusim::{Counters, MultiGpuModel};
use zc_tensor::{Shape, Tensor};

/// A deterministic pair with exact zeros in the original, so the
/// histogram's data-dependent division count sits below its bound.
fn pair(shape: Shape) -> (Tensor<f32>, Tensor<f32>) {
    let orig = Tensor::from_fn(shape, |[x, y, z, w]| {
        if (x + y + z + w) % 7 == 0 {
            0.0
        } else {
            (x as f32 * 0.31).sin() + (y as f32 * 0.17).cos() + z as f32 * 0.05 + w as f32
        }
    });
    let dec = orig.map(|v| v + 1e-3 * (v * 29.0).sin());
    (orig, dec)
}

/// The sweep: random reduced-dimension, shallow and 4-D shapes, then the
/// shapes the benchmark workloads assess.
fn shapes() -> Vec<Shape> {
    let mut rng = SplitMix64::new(0xDEC1_A2ED);
    let mut draw = |lo: u64, hi: u64| (lo + rng.next_u64() % (hi - lo + 1)) as usize;
    let mut out = Vec::new();
    for _ in 0..4 {
        out.push(Shape::d1(draw(1, 300)));
        out.push(Shape::d2(draw(1, 90), draw(1, 60)));
        // Fewer z planes than the window-8 SSIM scan needs.
        out.push(Shape::d3(draw(1, 70), draw(1, 50), draw(1, 7)));
        out.push(Shape::d3(draw(8, 60), draw(8, 40), draw(8, 20)));
        out.push(Shape::d4(draw(1, 40), draw(1, 30), draw(1, 12), draw(2, 4)));
    }
    let serve = GenOptions::scaled(32);
    let archive = GenOptions::scaled(8);
    for ds in AppDataset::ALL {
        out.push(FieldRef::new(ds, 0, serve).shape());
        out.push(FieldRef::new(ds, 0, archive).shape());
        out.push(FieldRef::new(ds, 0, GenOptions::scaled(16)).shape());
    }
    out.push(FieldRef::timeseries(AppDataset::Nyx, 0, archive, 8).shape());
    out.push(FieldRef::timeseries(AppDataset::Hurricane, 9, GenOptions::scaled_xy(8), 8).shape());
    out.sort_by_key(|s| format!("{s}"));
    out.dedup();
    out
}

#[test]
fn declared_launches_are_the_launches_cuzc_runs() {
    let cuzc = CuZc::default();
    for shape in shapes() {
        let cfg = AssessConfig {
            max_lag: 4,
            tiling: TilingPolicy::Monolithic,
            ..Default::default()
        };
        let plan = AssessPlan::lower(&cfg);
        let est = estimate_job_cost(&plan, shape, &cfg, 1, &MultiGpuModel::nvlink(1));
        let (orig, dec) = pair(shape);
        let mut ctx = PassCtx {
            orig: &orig,
            dec: &dec,
            cfg: &cfg,
            p1: None,
            slabs: 1,
        };
        for pass in plan.passes() {
            if pass.kind == PassKind::CompressionMeta {
                continue;
            }
            let ex = cuzc.run_pass(pass, &ctx);
            let measured = Counters::merged(ex.launches.iter().map(|l| &l.counters));
            let declared = pass.kind.declared(shape, &cfg);
            let at = format!("{:?} on {shape}", pass.kind);
            assert_eq!(
                Counters {
                    special_ops: declared.special_ops,
                    ..measured
                },
                declared,
                "{at}"
            );
            if pass.kind == PassKind::P1Hist {
                assert!(measured.special_ops <= declared.special_ops, "{at}");
            } else {
                assert_eq!(measured.special_ops, declared.special_ops, "{at}");
            }
            let run_s: f64 = ex.launches.iter().map(|l| l.seconds).sum();
            let (_, priced_s) = est
                .pass_seconds
                .iter()
                .find(|(k, _)| *k == pass.kind)
                .copied()
                .expect("every field pass is priced");
            assert!(
                (priced_s - run_s).abs() <= 0.05 * run_s,
                "{at}: priced {priced_s:e} s vs run {run_s:e} s"
            );
            if let PassOutput::Scalars(s) = ex.output {
                ctx.p1 = Some(s);
            }
        }
    }
}
