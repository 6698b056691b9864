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
//!   within 5% of its launches' modeled seconds;
//! * **One device** — a one-device price is bit for bit the one the
//!   pricer gave before the multi-device model existed;
//! * **Parts** — a job over n devices is n plane-range parts that cover
//!   the field once, in order, and the paper's full shapes price faster
//!   on more devices and slower over PCIe than over NVLink.

use zc_core::campaign::FieldRef;
use zc_core::exec::{CuZc, Executor};
use zc_core::plan::{
    estimate_job_cost, plane_parts, AssessPlan, PassCtx, PassKind, PassOutput, PlanePart,
};
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

/// FNV-1a 64 over a stream of words.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        w.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
    })
}

#[test]
fn one_gpu_degenerates_to_the_one_device_price() {
    // Every one-device price on the sweep, under a monolithic and an
    // auto-tiled configuration, folded bit for bit: seconds, each pass's
    // seconds and the slab count. The pinned digest is the one-device
    // pricer's before the multi-device model priced plane-range parts.
    let mut words = Vec::new();
    for shape in shapes() {
        for tiling in [TilingPolicy::Monolithic, TilingPolicy::Auto] {
            let cfg = AssessConfig {
                tiling,
                ..Default::default()
            };
            let plan = AssessPlan::lower(&cfg);
            let est = estimate_job_cost(&plan, shape, &cfg, 1, &MultiGpuModel::nvlink(1));
            let pcie = estimate_job_cost(&plan, shape, &cfg, 1, &MultiGpuModel::pcie(1));
            assert_eq!(est.seconds.to_bits(), pcie.seconds.to_bits(), "{shape}");
            words.push(est.seconds.to_bits());
            words.extend(est.pass_seconds.iter().map(|(_, s)| s.to_bits()));
            words.push(est.slabs as u64);
        }
    }
    assert_eq!(fnv1a(words), 0x5699_a938_f3fb_1847);
}

#[test]
fn plane_parts_cover_the_field_once_in_order() {
    let cfg = AssessConfig::default();
    let plan = AssessPlan::lower(&cfg);
    let reach = cfg.max_lag.max(cfg.ssim.window - 1);
    for shape in shapes() {
        let planes = shape.nz() * shape.nw();
        for gpus in 1..=9u32 {
            let parts: Vec<PlanePart> = plane_parts(&plan, shape, &cfg, gpus).collect();
            assert_eq!(parts.len(), planes.min(gpus as usize), "{shape} on {gpus}");
            let mut next = 0;
            for p in &parts {
                assert_eq!(p.lo, next, "{shape} on {gpus}: {p:?}");
                assert!(p.hi > p.lo, "{shape} on {gpus}: {p:?}");
                assert_eq!(p.halo, reach.min(planes - p.hi), "{shape} on {gpus}: {p:?}");
                next = p.hi;
            }
            assert_eq!(next, planes, "{shape} on {gpus}");
            // Even planes, the remainder up front.
            let longest = parts[0].hi - parts[0].lo;
            assert!(parts.iter().all(|p| longest - (p.hi - p.lo) <= 1));
        }
    }
}

/// The modeled seconds of a full-metric job on a paper dataset's full
/// shape over `gpus` devices of one interconnect.
fn full_shape_s(ds: AppDataset, gpus: u32, link: fn(u32) -> MultiGpuModel) -> f64 {
    let cfg = AssessConfig::default();
    let plan = AssessPlan::lower(&cfg);
    estimate_job_cost(&plan, ds.full_shape(), &cfg, gpus, &link(gpus)).seconds
}

#[test]
fn more_gpus_reduce_modeled_time() {
    for ds in AppDataset::ALL {
        let t1 = full_shape_s(ds, 1, MultiGpuModel::nvlink);
        let mut prev = t1;
        for gpus in [2u32, 4, 8] {
            let t = full_shape_s(ds, gpus, MultiGpuModel::nvlink);
            assert!(t < prev, "{}: {gpus} GPUs {t} !< {prev}", ds.name());
            // But never better than the ideal split.
            assert!(
                t > t1 / gpus as f64 * 0.5,
                "{}: suspiciously superlinear",
                ds.name()
            );
            prev = t;
        }
    }
}

#[test]
fn slower_interconnect_costs_more() {
    for ds in AppDataset::ALL {
        for gpus in [2u32, 4, 8] {
            let nv = full_shape_s(ds, gpus, MultiGpuModel::nvlink);
            let pcie = full_shape_s(ds, gpus, MultiGpuModel::pcie);
            assert!(
                pcie > nv,
                "{}: {gpus} GPUs PCIe {pcie} !> NVLink {nv}",
                ds.name()
            );
        }
    }
}
