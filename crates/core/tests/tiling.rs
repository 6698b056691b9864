//! Tiling tier: slab-tiled streaming execution must be a pure scheduling
//! transform.
//!
//! Three pins:
//!
//! - **Bit-identity**: every executor × every slab count produces the same
//!   metric bits, merged counters and modeled seconds as the monolithic
//!   path — tiling moves work between stream events, it never changes the
//!   work or the floating-point fold order.
//! - **Out-of-core**: a field pair larger than the simulated device memory
//!   assesses successfully once the slab count makes the resident window
//!   fit, and matches the unconstrained (32 GiB) reference bit-for-bit.
//!   A `Monolithic` policy over capacity is a typed [`AssessError::Capacity`].
//! - **Degenerate slabs**: 1-plane fields and slab requests ≥ the tileable
//!   extent clamp to valid schedules instead of failing.

use zc_core::config::TilingPolicy;
use zc_core::exec::{AssessError, Assessment, CuZc, Executor, MoZc, OmpZc, SerialZc};
use zc_core::metrics::Metric;
use zc_core::AssessConfig;
use zc_data::Rng64;
use zc_tensor::{Shape, Tensor};

/// Seeded pair: uniform field in [-1, 1) plus uniform noise in [-1e-3, 1e-3).
fn seeded_pair(shape: Shape) -> (Tensor<f32>, Tensor<f32>) {
    let mut rng = Rng64::new(0x7113_D515);
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

fn cfg_with(tiling: TilingPolicy) -> AssessConfig {
    AssessConfig {
        tiling,
        ..Default::default()
    }
}

/// Every comparison the tier makes between a tiled and a monolithic run.
fn assert_bit_identical(name: &str, slabs: usize, tiled: &Assessment, mono: &Assessment) {
    assert_eq!(
        tiled.counters, mono.counters,
        "{name}/slabs={slabs}: merged counters drifted"
    );
    assert_eq!(
        tiled.modeled_seconds.to_bits(),
        mono.modeled_seconds.to_bits(),
        "{name}/slabs={slabs}: modeled time drifted"
    );
    for m in [
        Metric::Psnr,
        Metric::Mse,
        Metric::Ssim,
        Metric::Autocorrelation,
    ] {
        let (t, s) = (tiled.report.scalar(m), mono.report.scalar(m));
        assert_eq!(
            t.map(f64::to_bits),
            s.map(f64::to_bits),
            "{name}/slabs={slabs}: {m} bits drifted"
        );
    }
    let (th, mh) = (
        tiled.report.histograms.as_ref().unwrap(),
        mono.report.histograms.as_ref().unwrap(),
    );
    assert_eq!(
        th.err_pdf.counts(),
        mh.err_pdf.counts(),
        "{name}/slabs={slabs}"
    );
    assert_eq!(
        th.value_hist.counts(),
        mh.value_hist.counts(),
        "{name}/slabs={slabs}"
    );
}

#[test]
fn tiled_is_bit_identical_across_executors_and_slab_counts() {
    let (orig, dec) = seeded_pair(Shape::d3(40, 24, 16));
    for (name, exec) in executors() {
        let mono = exec
            .assess(&orig, &dec, &cfg_with(TilingPolicy::Monolithic))
            .unwrap();
        for slabs in [2usize, 5, 16] {
            let tiled = exec
                .assess(&orig, &dec, &cfg_with(TilingPolicy::Slabs(slabs)))
                .unwrap();
            assert_bit_identical(name, slabs, &tiled, &mono);
        }
    }
}

#[test]
fn tiled_gpu_run_populates_streaming_timeline() {
    let (orig, dec) = seeded_pair(Shape::d3(40, 24, 16));
    let tiled = CuZc::default()
        .assess(&orig, &dec, &cfg_with(TilingPolicy::Slabs(8)))
        .unwrap();
    let e2e = tiled.e2e.expect("GPU executor models end-to-end time");
    assert!(e2e.overlapped_s > 0.0);
    assert!(
        e2e.overlapped_s <= e2e.serialized_s,
        "overlapped makespan must never exceed the serialized sum"
    );
    // The streaming claim: slab tiles overlap transfers with compute
    // enough to hide more than 5% of the serialized time.
    assert!(
        e2e.saving() > 0.05,
        "tiled overlap saving must exceed 5%, got {:.2}% ({e2e:?})",
        e2e.saving() * 100.0
    );
}

#[test]
fn out_of_core_matches_unconstrained_reference_on_every_executor() {
    // 64×48×40 pair = 983 040 B (40 planes of 24 576 B) against a 256 KiB
    // device: four resident largest slabs must fit, so a slab holds at
    // most 2 planes and the window forces 20 slabs.
    let (orig, dec) = seeded_pair(Shape::d3(64, 48, 40));
    let cap = 256 * 1024;
    let cfg = AssessConfig::default(); // Auto tiling

    let reference = CuZc::default().assess(&orig, &dec, &cfg).unwrap();

    let mut cu = CuZc::default();
    cu.sim.dev.mem_bytes = cap;
    let mut mo = MoZc::default();
    mo.sim.dev.mem_bytes = cap;

    for (name, a) in [
        ("cuzc-ooc", cu.assess(&orig, &dec, &cfg).unwrap()),
        ("mozc-ooc", mo.assess(&orig, &dec, &cfg).unwrap()),
    ] {
        let mono = match name {
            "mozc-ooc" => MoZc::default().assess(&orig, &dec, &cfg).unwrap(),
            _ => reference.clone(),
        };
        assert_bit_identical(name, 0, &a, &mono);
        // An out-of-core schedule cannot keep the pair resident: it must
        // actually have tiled.
        assert!(a.e2e.is_some());
    }

    // The host executors have no device memory, but the same slab count the
    // GPU schedule was forced to is still bit-identical for them.
    for (name, exec) in [
        ("serial-ooc", Box::new(SerialZc) as Box<dyn Executor>),
        ("ompzc-ooc", Box::new(OmpZc::default())),
    ] {
        let mono = exec.assess(&orig, &dec, &cfg).unwrap();
        let tiled = exec
            .assess(&orig, &dec, &cfg_with(TilingPolicy::Slabs(20)))
            .unwrap();
        assert_bit_identical(name, 20, &tiled, &mono);
    }
}

#[test]
fn monolithic_policy_over_capacity_is_a_typed_error() {
    let (orig, dec) = seeded_pair(Shape::d3(64, 48, 40));
    let mut cu = CuZc::default();
    cu.sim.dev.mem_bytes = 256 * 1024;
    let err = cu
        .assess(&orig, &dec, &cfg_with(TilingPolicy::Monolithic))
        .unwrap_err();
    match err {
        AssessError::Capacity {
            required,
            capacity,
            pass,
        } => {
            assert_eq!(required, orig.len() as u64 * 4 * 2);
            assert_eq!(capacity, 256 * 1024);
            // The runtime path attributes the error to the heaviest
            // field-reading pass — the stencil under the default metrics.
            assert_eq!(pass, Some(zc_core::plan::PassKind::P2Stencil));
        }
        other => panic!("expected Capacity, got {other:?}"),
    }
}

#[test]
fn hopelessly_small_device_is_a_capacity_error_even_under_auto() {
    // Even one-plane slabs leave the resident window over a 1 KiB device.
    let (orig, dec) = seeded_pair(Shape::d3(64, 48, 40));
    let mut cu = CuZc::default();
    cu.sim.dev.mem_bytes = 1024;
    assert!(matches!(
        cu.assess(&orig, &dec, &AssessConfig::default())
            .unwrap_err(),
        AssessError::Capacity { .. }
    ));
}

#[test]
fn degenerate_slabs_clamp_and_stay_identical() {
    // A single-plane field: any slab request clamps to one slab.
    let (orig, dec) = seeded_pair(Shape::d2(48, 32));
    for (name, exec) in executors() {
        let mono = exec
            .assess(&orig, &dec, &cfg_with(TilingPolicy::Monolithic))
            .unwrap();
        let tiled = exec
            .assess(&orig, &dec, &cfg_with(TilingPolicy::Slabs(8)))
            .unwrap();
        assert_bit_identical(name, 8, &tiled, &mono);
    }
    // Slab request far beyond the tileable extent: clamps to one slab per
    // plane.
    let (orig, dec) = seeded_pair(Shape::d3(16, 12, 4));
    for (name, exec) in executors() {
        let mono = exec
            .assess(&orig, &dec, &cfg_with(TilingPolicy::Monolithic))
            .unwrap();
        let tiled = exec
            .assess(&orig, &dec, &cfg_with(TilingPolicy::Slabs(64)))
            .unwrap();
        assert_bit_identical(name, 64, &tiled, &mono);
    }
}

#[test]
fn out_of_core_paper_scale_field_assesses_bit_identically() {
    // The ISSUE's headline scenario scaled to test time: a 128×128×96 pair
    // (12.6 MB) on a 1 MiB device — > 12× over capacity, like 512×256×256
    // against 64 MiB — restricted to pattern 1 to keep the tier fast.
    let shape = Shape::d3(128, 128, 96);
    let (orig, dec) = seeded_pair(shape);
    let cfg = AssessConfig {
        metrics: zc_core::metrics::MetricSelection::none().with(Metric::Psnr),
        ..Default::default()
    };
    let reference = CuZc::default().assess(&orig, &dec, &cfg).unwrap();
    let mut cu = CuZc::default();
    cu.sim.dev.mem_bytes = 1024 * 1024;
    let ooc = cu.assess(&orig, &dec, &cfg).unwrap();
    assert_eq!(ooc.counters, reference.counters);
    assert_eq!(
        ooc.report.scalar(Metric::Psnr).map(f64::to_bits),
        reference.report.scalar(Metric::Psnr).map(f64::to_bits)
    );
}
