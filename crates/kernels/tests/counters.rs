//! Counter-exactness tests: the simulator's event counts — the quantities
//! the whole performance argument rests on — match closed-form expectations
//! for each pattern kernel.

use zc_gpusim::GpuSim;
use zc_kernels::mo::{MoP1Kernel, MoP1Metric};
use zc_kernels::p3::{SsimFusedKernel, SsimParams};
use zc_kernels::{FieldPair, P1FusedKernel, P1Scalars, P2FusedKernel};
use zc_tensor::{Shape, Tensor};

fn pair(shape: Shape) -> (Tensor<f32>, Tensor<f32>) {
    let orig = Tensor::from_fn(shape, |[x, y, z, _]| {
        (x as f32 * 0.3).sin() + y as f32 * 0.05 - z as f32 * 0.02
    });
    let dec = orig.map(|v| v + 1e-3);
    (orig, dec)
}

#[test]
fn p1_reads_exactly_both_payloads_plus_partials() {
    let shape = Shape::d3(96, 64, 10);
    let (orig, dec) = pair(shape);
    let sim = GpuSim::v100();
    let k = P1FusedKernel {
        fields: FieldPair::new(&orig, &dec),
    };
    let r = sim.launch(&k, k.grid());
    let payload = 2 * shape.len() as u64 * 4;
    // Partial traffic: each block writes 19 f64 quantities once, block 0
    // re-reads them all in the cooperative fold.
    let partials = shape.nz() as u64 * P1Scalars::QUANTITIES * 8;
    assert_eq!(r.counters.global_read_bytes, payload + partials);
    assert_eq!(r.counters.global_write_bytes, partials);
    assert_eq!(r.counters.launches, 1);
    assert_eq!(r.counters.grid_syncs, 1);
    assert_eq!(r.counters.global_scatter_bytes, 0);
}

#[test]
fn p1_shuffle_count_is_blocks_times_tree_depth() {
    let shape = Shape::d3(64, 32, 7);
    let (orig, dec) = pair(shape);
    let sim = GpuSim::v100();
    let k = P1FusedKernel {
        fields: FieldPair::new(&orig, &dec),
    };
    let r = sim.launch(&k, k.grid());
    // Per block: 8 warps × 5-step shfl tree × 19 quantities, plus the
    // 3-step cross-warp stage × 19.
    let per_block = 8 * 5 * P1Scalars::QUANTITIES + 3 * P1Scalars::QUANTITIES;
    assert_eq!(r.counters.shuffles, shape.nz() as u64 * per_block);
}

#[test]
fn mo_p1_traffic_is_a_clean_multiple_of_fused() {
    let shape = Shape::d3(64, 64, 8);
    let (orig, dec) = pair(shape);
    let sim = GpuSim::v100();
    let payload = 2 * shape.len() as u64 * 4;
    for metric in MoP1Metric::SCALARS {
        let k = MoP1Kernel {
            fields: FieldPair::new(&orig, &dec),
            metric,
        };
        let r = sim.launch(&k, k.grid());
        // Each metric-oriented kernel re-reads the full payload.
        assert!(r.counters.global_read_bytes >= payload, "{metric:?}");
        assert!(
            r.counters.global_read_bytes < payload + payload / 16,
            "{metric:?}: {}",
            r.counters.global_read_bytes
        );
        assert_eq!(r.counters.launches, 2, "{metric:?} is a CUB-style 2-launch");
    }
}

#[test]
fn p2_fused_traffic_is_bounded_by_slices_staged() {
    let shape = Shape::d3(64, 64, 16);
    let (orig, dec) = pair(shape);
    let sim = GpuSim::v100();
    // Stride 1 stages z−1, z, z+1 for the fused derivatives; stride 4
    // stages z and z+4.
    for (stride, slices) in [(1usize, 3u64), (4, 2)] {
        let k = P2FusedKernel {
            fields: FieldPair::new(&orig, &dec),
            stride,
            mean_e: 0.0,
            max_lag: 4,
        };
        let r = sim.launch(&k, k.grid());
        let payload = 2 * shape.len() as u64 * 4;
        // Lower bound: every valid output plane stages `slices` slices of
        // both fields at least once. Upper bound: plus halo re-reads along
        // y (< 2x with these dimensions).
        assert!(
            r.counters.global_read_bytes > payload * slices / 2,
            "stride {stride}: {} too low",
            r.counters.global_read_bytes
        );
        assert!(
            r.counters.global_read_bytes < payload * slices * 2,
            "stride {stride}: {} too high",
            r.counters.global_read_bytes
        );
    }
}

#[test]
fn p3_fifo_reads_payload_about_once_per_x_sweep() {
    let shape = Shape::d3(57, 40, 24); // 2 x-sweeps (57 > 32)
    let (orig, dec) = pair(shape);
    let sim = GpuSim::v100();
    let p = SsimParams::paper_defaults(1.0);
    let k = SsimFusedKernel {
        fields: FieldPair::new(&orig, &dec),
        params: p,
        fifo_in_shared: true,
    };
    let r = sim.launch(&k, k.grid());
    let payload = 2 * shape.len() as u64 * 4;
    // Two x-sweeps re-read the 32-lane spans; y row-groups overlap between
    // blocks by wsize-1 rows. Reads must stay within small constant factors
    // of the payload — the FIFO claim.
    assert!(r.counters.global_read_bytes >= payload);
    assert!(
        r.counters.global_read_bytes < 4 * payload,
        "{} vs payload {payload}",
        r.counters.global_read_bytes
    );
}

#[test]
fn p3_no_fifo_scatter_matches_moment_count() {
    let shape = Shape::d3(32, 16, 16);
    let (orig, dec) = pair(shape);
    let sim = GpuSim::v100();
    let p = SsimParams::paper_defaults(1.0);
    let k = SsimFusedKernel {
        fields: FieldPair::new(&orig, &dec),
        params: p,
        fifo_in_shared: false,
    };
    let r = sim.launch(&k, k.grid());
    // Store: 5 moments per (window-column, y-window, slice);
    // fold: wsize x 5 per completed window. All scattered, 4 bytes each.
    let x_wins = 32 - 8 + 1; // 25
    let y_wins = 16 - 8 + 1; // 9
    let stores = (x_wins * y_wins * 16) as u64 * 5;
    let folds = (x_wins * y_wins * (16 - 8 + 1)) as u64 * 5 * 8;
    assert_eq!(r.counters.global_scatter_bytes, (stores + folds) * 4);
}

#[test]
fn counters_are_independent_of_block_execution_order() {
    // Launch twice; worker threads interleave differently but merged counters
    // must be identical (they are per-block sums).
    let shape = Shape::d3(48, 48, 12);
    let (orig, dec) = pair(shape);
    let sim = GpuSim::v100();
    let k = P1FusedKernel {
        fields: FieldPair::new(&orig, &dec),
    };
    let a = sim.launch(&k, k.grid());
    let b = sim.launch(&k, k.grid());
    assert_eq!(a.counters, b.counters);
    assert_eq!(a.output, b.output);
}
