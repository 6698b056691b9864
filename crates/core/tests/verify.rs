//! Static-verifier tier (DESIGN.md §6.10): mutant plans the lowering can
//! never produce must each be rejected with the expected lint id, and —
//! the property the whole tier protects — every plan that executes cleanly
//! on all four executors verifies with zero error diagnostics.
//!
//! Mutants are built through [`AssessPlan::from_passes`], the verifier's
//! seam that bypasses the lowering invariants; the timeline mutant goes
//! through the [`verify_tile_schedule`] seam because the production
//! schedule is honest by construction.

use zc_core::config::TilingPolicy;
use zc_core::exec::{CuZc, Executor, MoZc, OmpZc, SerialZc};
use zc_core::metrics::{Metric, MetricSelection, Pattern};
use zc_core::plan::{verify, verify_tile_schedule, AssessPlan, BackendCaps, Pass, PassKind};
use zc_core::AssessConfig;
use zc_lint::Severity;
use zc_tensor::Shape;

/// Build one mutant pass node. `metrics` empty = auxiliary.
fn node(kind: PassKind, deps: Vec<PassKind>, metrics: MetricSelection) -> Pass {
    Pass {
        kind,
        pattern: kind.pattern(),
        class: kind.class(),
        deps,
        metrics,
        reads_fields: kind != PassKind::CompressionMeta,
    }
}

fn only(m: Metric) -> MetricSelection {
    MetricSelection::none().with(m)
}

fn errors_with_id(plan: &AssessPlan, cfg: &AssessConfig, id: &str) -> Vec<String> {
    verify(plan, Shape::d3(32, 32, 32), cfg, &BackendCaps::v100())
        .into_iter()
        .filter(|d| d.severity == Severity::Error && d.lint_id == id)
        .map(|d| d.message)
        .collect()
}

// -- the five mutants --------------------------------------------------------

#[test]
fn cycle_mutant_is_rejected_with_plan_cycle() {
    let plan = AssessPlan::from_passes(vec![
        node(
            PassKind::P1Scalars,
            vec![PassKind::P2Stencil],
            only(Metric::Psnr),
        ),
        node(
            PassKind::P2Stencil,
            vec![PassKind::P1Scalars],
            only(Metric::Autocorrelation),
        ),
    ]);
    let hits = errors_with_id(&plan, &AssessConfig::default(), "plan/cycle");
    assert_eq!(hits.len(), 1, "expected exactly one plan/cycle finding");
    assert!(hits[0].contains("P1Scalars") && hits[0].contains("P2Stencil"));
}

#[test]
fn orphaned_dependency_mutant_is_rejected_with_missing_producer() {
    // P3Ssim declares a dependency on a histogram pass the plan never
    // schedules.
    let plan = AssessPlan::from_passes(vec![
        node(PassKind::P1Scalars, vec![], only(Metric::Psnr)),
        node(
            PassKind::P3Ssim,
            vec![PassKind::P1Scalars, PassKind::P1Hist],
            only(Metric::Ssim),
        ),
    ]);
    let hits = errors_with_id(&plan, &AssessConfig::default(), "plan/missing-producer");
    assert_eq!(hits.len(), 1);
    assert!(hits[0].contains("P1Hist"));
}

#[test]
fn dead_pass_mutant_is_rejected_with_plan_dead_pass() {
    // An auxiliary histogram pass nobody consumes: no selected metric,
    // no dependent.
    let plan = AssessPlan::from_passes(vec![
        node(PassKind::P1Scalars, vec![], only(Metric::Psnr)),
        node(
            PassKind::P1Hist,
            vec![PassKind::P1Scalars],
            MetricSelection::none(),
        ),
    ]);
    let hits = errors_with_id(&plan, &AssessConfig::default(), "plan/dead-pass");
    assert_eq!(hits.len(), 1);
    assert!(hits[0].contains("P1Hist"));
    // P1Scalars itself is exempt even when auxiliary: the lowering always
    // schedules it and its scalars feed the report directly.
    let aux_scalars = AssessPlan::from_passes(vec![node(
        PassKind::P1Scalars,
        vec![],
        MetricSelection::none(),
    )]);
    assert!(errors_with_id(&aux_scalars, &AssessConfig::default(), "plan/dead-pass").is_empty());
}

#[test]
fn oversized_slab_window_mutant_is_rejected_with_plan_capacity() {
    // A 128³ pair (16 MiB) pinned monolithic on an 8 MiB device: the
    // resident window cannot fit and the policy forbids tiling.
    let cfg = AssessConfig {
        tiling: TilingPolicy::Monolithic,
        ..Default::default()
    };
    let plan = AssessPlan::lower(&cfg);
    let caps = BackendCaps {
        device_mem_bytes: Some(8 << 20),
        ..BackendCaps::v100()
    };
    let diags = verify(&plan, Shape::d3(128, 128, 128), &cfg, &caps);
    let hit = diags
        .iter()
        .find(|d| d.lint_id == "plan/capacity")
        .expect("plan/capacity must fire");
    assert_eq!(hit.severity, Severity::Error);
    // Both byte counts in one message, attributed to the heaviest
    // field-reading pass (the stencil under the default selection).
    assert!(
        hit.message.contains("16777216"),
        "required bytes: {}",
        hit.message
    );
    assert!(
        hit.message.contains("8388608"),
        "capacity bytes: {}",
        hit.message
    );
    assert_eq!(hit.location.file, "plan:P2Stencil");
}

#[test]
fn deferred_finalize_mutant_is_rejected() {
    // Producer finalizes its prefix scalar in 2 coarse tiles over 16
    // slabs (first finalize at slab 7) while the dependent consumes
    // slab-by-slab from slab 0: tile 0 would read an unfinalized scalar.
    let d = verify_tile_schedule(16, 2, 16).expect("coarse producer tiling must fire");
    assert_eq!(d.lint_id, "plan/deferred-finalize");
    assert_eq!(d.severity, Severity::Error);
    // The production schedule tiles both sides at the slab count: clean.
    assert!(verify_tile_schedule(16, 16, 16).is_none());
    // Untiled plans have no timeline contract to violate.
    assert!(verify_tile_schedule(1, 1, 1).is_none());
}

// -- the clean-plan property -------------------------------------------------

#[test]
fn plans_that_execute_cleanly_verify_cleanly() {
    let shape = Shape::d3(16, 16, 16);
    let (orig, dec) = {
        let mut rng = zc_data::Rng64::new(0x7E57_FACE);
        let o: Vec<f32> = (0..shape.len())
            .map(|_| rng.uniform_in(-1.0, 1.0) as f32)
            .collect();
        let d: Vec<f32> = o
            .iter()
            .map(|&v| v + rng.uniform_in(-1e-3, 1e-3) as f32)
            .collect();
        (
            zc_tensor::Tensor::from_vec(shape, o).unwrap(),
            zc_tensor::Tensor::from_vec(shape, d).unwrap(),
        )
    };
    let executors: Vec<(&str, Box<dyn Executor>)> = vec![
        ("serial", Box::new(SerialZc)),
        ("ompzc", Box::new(OmpZc::default())),
        ("mozc", Box::new(MoZc::default())),
        ("cuzc", Box::new(CuZc::default())),
    ];
    for sel in [
        MetricSelection::all(),
        MetricSelection::pattern(Pattern::GlobalReduction),
        MetricSelection::pattern(Pattern::Stencil),
        MetricSelection::pattern(Pattern::SlidingWindow),
    ] {
        let cfg = AssessConfig {
            metrics: sel,
            ..Default::default()
        };
        let plan = AssessPlan::lower(&cfg);
        for (name, ex) in &executors {
            ex.run_plan(&plan, &orig, &dec, &cfg)
                .unwrap_or_else(|e| panic!("{name} failed cleanly-executing plan: {e}"));
        }
        for caps in [BackendCaps::v100(), BackendCaps::host()] {
            let errs: Vec<_> = verify(&plan, shape, &cfg, &caps)
                .into_iter()
                .filter(|d| d.severity == Severity::Error)
                .collect();
            assert!(errs.is_empty(), "clean plan flagged: {errs:?}");
        }
    }
}

#[test]
fn out_of_core_catalog_plan_verifies_clean() {
    // The catalog's out-of-core case: a 512×256×256 pair (256 MiB) on a
    // 64 MiB device streams under Auto tiling and must verify clean —
    // capacity pressure alone is not a defect when the policy can tile.
    let cfg = AssessConfig::default();
    let plan = AssessPlan::lower(&cfg);
    let caps = BackendCaps {
        device_mem_bytes: Some(64 << 20),
        ..BackendCaps::v100()
    };
    let diags = verify(&plan, Shape::d3(512, 256, 256), &cfg, &caps);
    assert!(diags.is_empty(), "out-of-core plan flagged: {diags:?}");
}

#[test]
fn duplicate_and_misordered_schedules_are_rejected() {
    // Two producers of the same pass kind.
    let dup = AssessPlan::from_passes(vec![
        node(PassKind::P1Scalars, vec![], only(Metric::Psnr)),
        node(PassKind::P1Scalars, vec![], only(Metric::Mse)),
    ]);
    assert_eq!(
        errors_with_id(&dup, &AssessConfig::default(), "plan/duplicate-producer").len(),
        1
    );
    // Acyclic but listed backwards: the runner executes in plan order.
    let swapped = AssessPlan::from_passes(vec![
        node(
            PassKind::P3Ssim,
            vec![PassKind::P1Scalars],
            only(Metric::Ssim),
        ),
        node(PassKind::P1Scalars, vec![], only(Metric::Psnr)),
    ]);
    assert_eq!(
        errors_with_id(&swapped, &AssessConfig::default(), "plan/schedule-order").len(),
        1
    );
}
