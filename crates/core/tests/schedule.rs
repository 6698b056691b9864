//! Schedule tier: the plan verifier, the job pricer and the runner resolve
//! one slab schedule.
//!
//! A SplitMix64 sweep of shapes (1-D, 2-D, one z-plane, 3-D, 4-D and the
//! 48×48×32 demo pair) under every tiling policy and four device
//! capacities — none, at least the pair, under the pair, and too small for
//! even per-plane slabs — pins:
//!
//! * the footprint's slab count is the count [`DevicePlacement::price_job`]
//!   prices on a device of that memory (an unplaceable job is priced as
//!   one slab);
//! * a capacity error renders in `plan/capacity` exactly as the cuZC
//!   runner's [`AssessError::Capacity`] does for the same run, and no
//!   `plan/capacity` finding fires on a schedule that resolves;
//! * a resolved schedule's resident window fits the device.

use zc_core::config::TilingPolicy;
use zc_core::exec::{AssessError, CuZc, Executor};
use zc_core::plan::{footprint, verify, AssessPlan, BackendCaps, DevicePlacement};
use zc_core::AssessConfig;
use zc_data::SplitMix64;
use zc_gpusim::{GpuSim, MultiGpuModel};
use zc_tensor::{Shape, Tensor};

#[test]
fn verifier_pricer_and_runner_agree_on_one_schedule() {
    let mut rng = SplitMix64::new(0x51AB_5C4E);
    let mut draw = |lo: u64, hi: u64| lo + rng.next_u64() % (hi - lo + 1);
    let mut shapes = vec![Shape::d3(48, 48, 32)];
    for _ in 0..3 {
        let mut d = |lo, hi| draw(lo, hi) as usize;
        shapes.push(Shape::d1(d(1, 4000)));
        shapes.push(Shape::d2(d(1, 90), d(1, 60)));
        shapes.push(Shape::d3(d(1, 70), d(1, 50), 1));
        shapes.push(Shape::d3(d(8, 60), d(8, 40), d(8, 20)));
        shapes.push(Shape::d4(d(1, 40), d(1, 30), d(1, 12), d(2, 4)));
    }

    // Resolved device-resident, resolved out-of-core, refused.
    let mut outcomes = [0usize; 3];
    for shape in shapes {
        let pair = shape.len() as u64 * 4 * 2;
        let planes = shape.nz() * shape.nw();
        // The smallest device that fits per-plane slabs.
        let per_plane = pair.div_ceil(planes as u64) * 4;
        let capacities = [
            None,
            Some(draw(pair, 2 * pair)),
            Some(draw(per_plane.min(pair - 1), pair - 1)),
            Some(draw(1, per_plane - 1)),
        ];
        let policies = [
            TilingPolicy::Monolithic,
            TilingPolicy::Slabs(1),
            TilingPolicy::Slabs(3),
            TilingPolicy::Slabs(planes + 5),
            TilingPolicy::Auto,
        ];
        for capacity in capacities {
            for tiling in policies {
                let case = format!("{shape} {tiling:?} capacity {capacity:?}");
                let cfg = AssessConfig {
                    tiling,
                    ..Default::default()
                };
                let plan = AssessPlan::lower(&cfg);
                let caps = BackendCaps {
                    device_mem_bytes: capacity,
                    ..BackendCaps::v100()
                };
                let fp = footprint(&plan, shape, &cfg, &caps);

                let mut sim = GpuSim::v100();
                if let Some(m) = capacity {
                    sim.dev.mem_bytes = m;
                }
                let priced = DevicePlacement {
                    link: MultiGpuModel::nvlink(1),
                    sim: &sim,
                }
                .price_job(&plan, shape, &cfg);

                let capacity_diags: Vec<String> = verify(&plan, shape, &cfg, &caps)
                    .into_iter()
                    .filter(|d| d.lint_id == "plan/capacity")
                    .map(|d| d.message)
                    .collect();

                match fp.schedule {
                    Ok(s) => {
                        outcomes[usize::from(s.out_of_core())] += 1;
                        assert_eq!(s.slabs, priced.slabs, "{case}");
                        assert_eq!((s.pair_bytes, s.planes), (pair, planes), "{case}");
                        assert!(capacity_diags.is_empty(), "{case}: {capacity_diags:?}");
                        if let (Some(resident), Some(cap)) = (s.resident_bytes(), capacity) {
                            assert!(resident <= cap, "{case}: resident {resident} B");
                        }
                    }
                    Err(e) => {
                        outcomes[2] += 1;
                        assert!(matches!(e, AssessError::Capacity { .. }), "{case}: {e:?}");
                        assert_eq!(priced.slabs, 1, "{case}");
                        let (orig, dec) = pair_of(shape);
                        let run = CuZc { sim }
                            .run_plan(&plan, &orig, &dec, &cfg)
                            .expect_err("the runner must refuse what the verifier refuses");
                        assert_eq!(run, e, "{case}");
                        assert_eq!(capacity_diags, [run.to_string()], "{case}");
                    }
                }
            }
        }
    }
    // Every outcome of the sweep is exercised.
    assert!(outcomes.iter().all(|&n| n >= 10), "{outcomes:?}");
}

fn pair_of(shape: Shape) -> (Tensor<f32>, Tensor<f32>) {
    let orig = Tensor::from_fn(shape, |[x, y, z, w]| {
        (x as f32 * 0.31).sin() + (y as f32 * 0.17).cos() + z as f32 * 0.05 + w as f32
    });
    let dec = orig.map(|v| v + 1e-3);
    (orig, dec)
}
