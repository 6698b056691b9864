//! zc-sancheck validation (DESIGN.md §6.6).
//!
//! Three claims are tested here:
//!
//! 1. **Production cleanliness** — all seven production kernels (fast and
//!    reference paths, both p3 FIFO placements) run hazard-free under the
//!    sanitizer across random shapes.
//! 2. **Observation-only** — sanitized execution returns bit-identical
//!    outputs, `==` counters and `==` modeled time versus a plain launch.
//! 3. **Mutant detection** — deliberately-broken kernels seeded with the
//!    bug classes the checker exists for (dropped cross-warp sync, FIFO
//!    index off-by-one, uncharged bulk raw-slice read, direct counter
//!    pokes, SMem over-allocation, divergent barriers, OOB indices) are
//!    each flagged with the expected hazard class.

use zc_gpusim::{BlockCtx, BlockKernel, GpuSim, Hazard, KernelClass, KernelResources, SharedBuf};
use zc_kernels::mo::{
    MoAutocorrKernel, MoDerivKernel, MoHistKernel, MoHistKind, MoP1Kernel, MoP1Metric,
};
use zc_kernels::p3::SsimParams;
use zc_kernels::{
    FieldPair, P1FusedKernel, P1HistKernel, P2FusedKernel, Reference, SsimFusedKernel,
};
use zc_tensor::{Shape, Tensor};

/// SplitMix64 — deterministic, no external deps.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn f32(&mut self) -> f32 {
        (self.next() >> 40) as f32 / (1u64 << 24) as f32
    }

    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() as usize) % (hi - lo)
    }
}

fn fields(shape: Shape, rng: &mut Rng) -> (Tensor<f32>, Tensor<f32>) {
    let n = shape.len();
    let mut orig = Vec::with_capacity(n);
    let mut dec = Vec::with_capacity(n);
    for _ in 0..n {
        let x = if rng.next().is_multiple_of(12) {
            0.0
        } else {
            rng.f32() * 2.0 - 1.0
        };
        orig.push(x);
        dec.push(x + (rng.f32() - 0.5) * 0.01);
    }
    (
        Tensor::from_vec(shape, orig).unwrap(),
        Tensor::from_vec(shape, dec).unwrap(),
    )
}

fn shapes(rng: &mut Rng) -> Vec<Shape> {
    vec![
        Shape::d1(rng.range(33, 150)),
        Shape::d2(rng.range(3, 70), rng.range(2, 20)),
        Shape::d3(rng.range(3, 70), rng.range(2, 20), rng.range(1, 8)),
        Shape::d3(32, rng.range(2, 20), rng.range(1, 6)),
        Shape::d3(rng.range(33, 100), rng.range(17, 25), rng.range(2, 6)),
    ]
}

/// Launch `k` plain and checked: the report must be clean and the checked
/// run must be observation-only (identical output/counters/modeled time).
fn assert_clean_and_observation_only<K>(k: &K, grid: usize, what: &str)
where
    K: BlockKernel,
    K::Output: PartialEq + std::fmt::Debug,
{
    let sim = GpuSim::v100();
    let plain = sim.launch(k, grid);
    let (checked, report) = sim.launch_checked(k, grid);
    assert!(report.is_clean(), "{what}:\n{}", report.render());
    assert_eq!(
        report.kernel,
        k.name(),
        "{what}: report names the wrong kernel"
    );
    assert_eq!(
        plain.output, checked.output,
        "{what}: outputs diverge under sanitizer"
    );
    assert_eq!(
        plain.counters, checked.counters,
        "{what}: counters diverge under sanitizer"
    );
    assert_eq!(
        plain.modeled.total_s, checked.modeled.total_s,
        "{what}: modeled times diverge under sanitizer"
    );
}

// ---------------------------------------------------------------------------
// 1 + 2: production kernels are clean, and checking is observation-only
// ---------------------------------------------------------------------------

#[test]
fn p1_fused_is_sanitizer_clean_both_paths() {
    let mut rng = Rng(0x5A11);
    for shape in shapes(&mut rng) {
        let (orig, dec) = fields(shape, &mut rng);
        let k = P1FusedKernel {
            fields: FieldPair::new(&orig, &dec),
        };
        assert_clean_and_observation_only(&k, k.grid(), &format!("p1 fast {shape:?}"));
        assert_clean_and_observation_only(&Reference(&k), k.grid(), &format!("p1 ref {shape:?}"));
    }
}

#[test]
fn p1_hist_is_sanitizer_clean_both_paths() {
    let mut rng = Rng(0x5A12);
    for shape in shapes(&mut rng) {
        let (orig, dec) = fields(shape, &mut rng);
        let f = FieldPair::new(&orig, &dec);
        let sim = GpuSim::v100();
        let kf = P1FusedKernel { fields: f };
        let scalars = sim.launch(&kf, kf.grid()).output;
        let k = P1HistKernel {
            fields: f,
            scalars,
            bins: 48,
        };
        // P1Histograms has no PartialEq: compare the component histograms.
        let plain = sim.launch(&k, k.grid());
        let (checked, report) = sim.launch_checked(&k, k.grid());
        assert!(report.is_clean(), "p1 hist {shape:?}:\n{}", report.render());
        assert_eq!(plain.output.err_pdf, checked.output.err_pdf, "{shape:?}");
        assert_eq!(plain.output.rel_pdf, checked.output.rel_pdf, "{shape:?}");
        assert_eq!(
            plain.output.value_hist, checked.output.value_hist,
            "{shape:?}"
        );
        assert_eq!(plain.counters, checked.counters, "{shape:?}");
        let (_, ref_report) = sim.launch_checked(&Reference(&k), k.grid());
        assert!(
            ref_report.is_clean(),
            "p1 hist ref {shape:?}:\n{}",
            ref_report.render()
        );
    }
}

#[test]
fn p2_fused_is_sanitizer_clean_both_paths() {
    let mut rng = Rng(0x5A13);
    for shape in shapes(&mut rng) {
        let (orig, dec) = fields(shape, &mut rng);
        for stride in 1..=2usize {
            let k = P2FusedKernel {
                fields: FieldPair::new(&orig, &dec),
                stride,
                mean_e: 1.5e-4,
                max_lag: 3,
            };
            let what = format!("p2 {shape:?} stride {stride}");
            assert_clean_and_observation_only(&k, k.grid(), &format!("{what} fast"));
            assert_clean_and_observation_only(&Reference(&k), k.grid(), &format!("{what} ref"));
        }
    }
}

#[test]
fn p3_ssim_is_sanitizer_clean_both_paths_and_fifo_modes() {
    let mut rng = Rng(0x5A14);
    let cases = [(8usize, 1usize, true), (6, 3, true), (8, 1, false)];
    for shape in shapes(&mut rng) {
        let (orig, dec) = fields(shape, &mut rng);
        for &(wsize, step, fifo) in &cases {
            let params = SsimParams {
                wsize,
                step,
                k1: 0.01,
                k2: 0.03,
                range: 2.0,
            };
            let k = SsimFusedKernel {
                fields: FieldPair::new(&orig, &dec),
                params,
                fifo_in_shared: fifo,
            };
            let what = format!("p3 {shape:?} w{wsize} s{step} fifo={fifo}");
            assert_clean_and_observation_only(&k, k.grid(), &format!("{what} fast"));
            assert_clean_and_observation_only(&Reference(&k), k.grid(), &format!("{what} ref"));
        }
    }
}

#[test]
fn mo_kernels_are_sanitizer_clean() {
    let mut rng = Rng(0x5A15);
    for shape in shapes(&mut rng) {
        let (orig, dec) = fields(shape, &mut rng);
        let f = FieldPair::new(&orig, &dec);
        let sim = GpuSim::v100();
        for metric in [MoP1Metric::Mse, MoP1Metric::MaxPwr] {
            let k = MoP1Kernel { fields: f, metric };
            let what = format!("moP1 {shape:?} {metric:?}");
            assert_clean_and_observation_only(&k, k.grid(), &format!("{what} fast"));
            assert_clean_and_observation_only(&Reference(&k), k.grid(), &format!("{what} ref"));
        }
        let scalars = {
            let kf = P1FusedKernel { fields: f };
            sim.launch(&kf, kf.grid()).output
        };
        for kind in [MoHistKind::ErrPdf, MoHistKind::ValueHist] {
            let k = MoHistKernel {
                fields: f,
                scalars,
                kind,
                bins: 32,
            };
            let what = format!("moHist {shape:?} {kind:?}");
            assert_clean_and_observation_only(&k, k.grid(), &format!("{what} fast"));
            assert_clean_and_observation_only(&Reference(&k), k.grid(), &format!("{what} ref"));
        }
        let k = MoAutocorrKernel {
            fields: f,
            lag: 2,
            mean_e: -2.0e-4,
            max_lag: 3,
        };
        assert_clean_and_observation_only(&k, k.grid(), &format!("moAC {shape:?} fast"));
        assert_clean_and_observation_only(&Reference(&k), k.grid(), &format!("moAC {shape:?} ref"));
        for order in [1usize, 2] {
            // MoDeriv has no reference path: fast only.
            let k = MoDerivKernel {
                fields: f,
                order,
                max_lag: 1,
            };
            assert_clean_and_observation_only(
                &k,
                k.grid(),
                &format!("moDeriv {shape:?} order {order}"),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// 3: mutant-kernel suite — each seeded bug is flagged with its hazard class
// ---------------------------------------------------------------------------

/// P1-style staging with the cross-warp barrier optionally dropped: four
/// warps park partials in shared staging rows, warp 0 folds them. Without
/// the `sync_threads` the fold reads words other warps wrote in the same
/// epoch — the exact bug racecheck exists for.
struct DroppedSyncMutant {
    sync: bool,
}

impl BlockKernel for DroppedSyncMutant {
    type Partial = f64;
    type Output = f64;

    fn name(&self) -> &'static str {
        "mutant_dropped_sync"
    }

    fn resources(&self) -> KernelResources {
        KernelResources {
            regs_per_thread: 32,
            smem_per_block: 4096,
            threads_per_block: 128,
        }
    }

    fn class(&self) -> KernelClass {
        KernelClass::GlobalReduction
    }

    fn run_block(&self, _b: usize, ctx: &mut BlockCtx) -> f64 {
        let mut staging: SharedBuf<f64> = ctx.shared_alloc(4 * 8);
        for w in 0..4 {
            ctx.warp_begin(w);
            for q in 0..8 {
                ctx.sh_write(&mut staging, w * 8 + q, (w * 8 + q) as f64);
            }
            ctx.warp_end();
        }
        if self.sync {
            ctx.sync_threads();
        }
        ctx.warp_begin(0);
        let mut s = 0.0;
        for i in 0..32 {
            s += ctx.sh_read(&staging, i);
        }
        ctx.warp_end();
        s
    }

    fn finalize(&self, _ctx: &mut BlockCtx, partials: Vec<f64>) -> f64 {
        partials.into_iter().sum()
    }
}

#[test]
fn dropped_cross_warp_sync_is_a_read_write_race() {
    let sim = GpuSim::v100();
    let (r, report) = sim.launch_checked(&DroppedSyncMutant { sync: false }, 2);
    assert!(!report.is_clean());
    assert!(report.has(Hazard::RaceReadWrite), "{}", report.render());
    // Warp 0 reading its own row is not a race: 24 hazardous words per block.
    assert_eq!(report.hazards(), 2 * 24, "{}", report.render());
    // Output still functionally correct — the sanitizer observes, not fixes.
    assert_eq!(r.output, 2.0 * (0..32).sum::<usize>() as f64);
    // The same kernel with the barrier present is clean.
    let (_, fixed) = sim.launch_checked(&DroppedSyncMutant { sync: true }, 2);
    assert!(fixed.is_clean(), "{}", fixed.render());
}

/// P3-style FIFO with an off-by-one read base: every fold reads one word
/// past its slot row, and the last slot's range runs off the buffer end.
struct FifoOffByOneMutant {
    bug: bool,
}

const FIFO_DEPTH: usize = 4;
const FIFO_WIDTH: usize = 8;

impl BlockKernel for FifoOffByOneMutant {
    type Partial = u64;
    type Output = u64;

    fn name(&self) -> &'static str {
        "mutant_fifo_off_by_one"
    }

    fn resources(&self) -> KernelResources {
        KernelResources {
            regs_per_thread: 32,
            smem_per_block: 4096,
            threads_per_block: 128,
        }
    }

    fn class(&self) -> KernelClass {
        KernelClass::SlidingWindow
    }

    fn run_block(&self, _b: usize, ctx: &mut BlockCtx) -> u64 {
        let fifo: SharedBuf<f64> = ctx.shared_alloc(FIFO_DEPTH * FIFO_WIDTH);
        for slot in 0..FIFO_DEPTH {
            ctx.sync_threads();
            ctx.warp_begin(0);
            ctx.sh_mark_writes(&fifo, slot * FIFO_WIDTH, FIFO_WIDTH);
            ctx.warp_end();
        }
        ctx.sync_threads();
        ctx.warp_begin(0);
        for slot in 0..FIFO_DEPTH {
            let base = slot * FIFO_WIDTH + usize::from(self.bug);
            ctx.sh_mark_reads(&fifo, base, FIFO_WIDTH);
        }
        ctx.warp_end();
        0
    }

    fn finalize(&self, _ctx: &mut BlockCtx, _partials: Vec<u64>) -> u64 {
        0
    }
}

#[test]
fn fifo_read_off_by_one_is_diagnosed_oob() {
    let sim = GpuSim::v100();
    let (_, report) = sim.launch_checked(&FifoOffByOneMutant { bug: true }, 1);
    assert!(!report.is_clean());
    assert!(report.has(Hazard::OobShared), "{}", report.render());
    let oob = report
        .diags
        .iter()
        .find(|d| d.hazard == Hazard::OobShared)
        .unwrap();
    assert_eq!(
        oob.index,
        Some(FIFO_DEPTH * FIFO_WIDTH),
        "{}",
        report.render()
    );
    let (_, fixed) = sim.launch_checked(&FifoOffByOneMutant { bug: false }, 1);
    assert!(fixed.is_clean(), "{}", fixed.render());
}

/// FIFO fold that runs before the last slot was ever filled: initcheck
/// catches the `Default`-zero leak a real kernel would silently absorb.
struct UnderfilledFifoMutant;

impl BlockKernel for UnderfilledFifoMutant {
    type Partial = u64;
    type Output = u64;

    fn name(&self) -> &'static str {
        "mutant_underfilled_fifo"
    }

    fn resources(&self) -> KernelResources {
        KernelResources {
            regs_per_thread: 32,
            smem_per_block: 4096,
            threads_per_block: 128,
        }
    }

    fn class(&self) -> KernelClass {
        KernelClass::SlidingWindow
    }

    fn run_block(&self, _b: usize, ctx: &mut BlockCtx) -> u64 {
        let fifo: SharedBuf<f64> = ctx.shared_alloc(FIFO_DEPTH * FIFO_WIDTH);
        ctx.warp_begin(0);
        for slot in 0..FIFO_DEPTH - 1 {
            ctx.sh_mark_writes(&fifo, slot * FIFO_WIDTH, FIFO_WIDTH);
        }
        ctx.warp_end();
        ctx.sync_threads();
        ctx.warp_begin(0);
        ctx.sh_mark_reads(&fifo, 0, FIFO_DEPTH * FIFO_WIDTH);
        ctx.warp_end();
        0
    }

    fn finalize(&self, _ctx: &mut BlockCtx, _partials: Vec<u64>) -> u64 {
        0
    }
}

#[test]
fn underfilled_fifo_fold_is_an_uninit_read() {
    let sim = GpuSim::v100();
    let (_, report) = sim.launch_checked(&UnderfilledFifoMutant, 1);
    assert!(report.has(Hazard::UninitRead), "{}", report.render());
    assert_eq!(report.hazards(), FIFO_WIDTH as u64, "{}", report.render());
}

/// A "fast path" that bulk-reads shared memory through a raw slice view
/// without charging — exactly what the SoA optimizations must not do.
struct UnchargedBulkReadMutant;

impl BlockKernel for UnchargedBulkReadMutant {
    type Partial = f64;
    type Output = f64;

    fn name(&self) -> &'static str {
        "mutant_uncharged_bulk_read"
    }

    fn resources(&self) -> KernelResources {
        KernelResources {
            regs_per_thread: 32,
            smem_per_block: 4096,
            threads_per_block: 128,
        }
    }

    fn class(&self) -> KernelClass {
        KernelClass::GlobalReduction
    }

    fn run_block(&self, _b: usize, ctx: &mut BlockCtx) -> f64 {
        let mut buf: SharedBuf<f64> = ctx.shared_alloc(16);
        for i in 0..16 {
            ctx.sh_write(&mut buf, i, i as f64);
        }
        ctx.sync_threads();
        // BUG: bypasses sh_read/sh_mark_reads — zero shared charges.
        buf.as_slice().iter().sum()
    }

    fn finalize(&self, _ctx: &mut BlockCtx, partials: Vec<f64>) -> f64 {
        partials.into_iter().sum()
    }
}

#[test]
fn uncharged_bulk_slice_read_is_flagged() {
    let sim = GpuSim::v100();
    let (_, report) = sim.launch_checked(&UnchargedBulkReadMutant, 1);
    assert!(report.has(Hazard::UnchargedAccess), "{}", report.render());
}

/// Direct `ctx.counters` mutation instead of the charge APIs: the shadow
/// tally re-derived from the access log disagrees at block end.
struct CounterPokeMutant;

impl BlockKernel for CounterPokeMutant {
    type Partial = u64;
    type Output = u64;

    fn name(&self) -> &'static str {
        "mutant_counter_poke"
    }

    fn resources(&self) -> KernelResources {
        KernelResources {
            regs_per_thread: 32,
            smem_per_block: 256,
            threads_per_block: 128,
        }
    }

    fn class(&self) -> KernelClass {
        KernelClass::GlobalReduction
    }

    fn run_block(&self, _b: usize, ctx: &mut BlockCtx) -> u64 {
        ctx.charge_shared(5);
        ctx.counters.shared_accesses += 7; // BUG: uncharged poke
        0
    }

    fn finalize(&self, _ctx: &mut BlockCtx, _partials: Vec<u64>) -> u64 {
        0
    }
}

#[test]
fn direct_counter_poke_is_a_charge_mismatch() {
    let sim = GpuSim::v100();
    let (_, report) = sim.launch_checked(&CounterPokeMutant, 1);
    assert!(report.has(Hazard::ChargeMismatch), "{}", report.render());
    let d = report
        .diags
        .iter()
        .find(|d| d.hazard == Hazard::ChargeMismatch)
        .unwrap();
    assert!(d.detail.contains("shared_accesses"), "{}", d.detail);
    assert!(
        d.detail.contains('5') && d.detail.contains("12"),
        "{}",
        d.detail
    );
}

/// Allocates more shared memory than the kernel's resource declaration —
/// the figure the Table-II occupancy calculation consumed.
struct SmemHogMutant;

impl BlockKernel for SmemHogMutant {
    type Partial = u64;
    type Output = u64;

    fn name(&self) -> &'static str {
        "mutant_smem_hog"
    }

    fn resources(&self) -> KernelResources {
        KernelResources {
            regs_per_thread: 32,
            smem_per_block: 256,
            threads_per_block: 128,
        }
    }

    fn class(&self) -> KernelClass {
        KernelClass::Generic
    }

    fn run_block(&self, _b: usize, ctx: &mut BlockCtx) -> u64 {
        let _buf: SharedBuf<f64> = ctx.shared_alloc(1024); // 8 KiB vs 256 B declared
        0
    }

    fn finalize(&self, _ctx: &mut BlockCtx, _partials: Vec<u64>) -> u64 {
        0
    }
}

#[test]
fn smem_over_allocation_is_flagged() {
    let sim = GpuSim::v100();
    let (_, report) = sim.launch_checked(&SmemHogMutant, 1);
    assert!(report.has(Hazard::SmemOverflow), "{}", report.render());
}

/// Barrier issued inside a warp scope (only some warps reach it on a real
/// GPU: classic deadlock) plus a scope left open at block end.
struct DivergentSyncMutant;

impl BlockKernel for DivergentSyncMutant {
    type Partial = u64;
    type Output = u64;

    fn name(&self) -> &'static str {
        "mutant_divergent_sync"
    }

    fn resources(&self) -> KernelResources {
        KernelResources {
            regs_per_thread: 32,
            smem_per_block: 256,
            threads_per_block: 128,
        }
    }

    fn class(&self) -> KernelClass {
        KernelClass::Generic
    }

    fn run_block(&self, _b: usize, ctx: &mut BlockCtx) -> u64 {
        ctx.warp_begin(1);
        ctx.sync_threads(); // BUG: divergent barrier
        ctx.warp_end();
        ctx.warp_begin(2); // BUG: never closed
        0
    }

    fn finalize(&self, _ctx: &mut BlockCtx, _partials: Vec<u64>) -> u64 {
        0
    }
}

#[test]
fn divergent_barrier_and_open_scope_are_flagged() {
    let sim = GpuSim::v100();
    let (_, report) = sim.launch_checked(&DivergentSyncMutant, 1);
    assert!(report.has(Hazard::DivergentSync), "{}", report.render());
    assert!(
        report.has(Hazard::UnbalancedWarpScope),
        "{}",
        report.render()
    );
}

/// Global read one element past the slice end: a raw-slice panic in normal
/// mode, a located diagnostic under the sanitizer.
struct GlobalOobMutant<'a> {
    data: &'a [f32],
}

impl BlockKernel for GlobalOobMutant<'_> {
    type Partial = f64;
    type Output = f64;

    fn name(&self) -> &'static str {
        "mutant_global_oob"
    }

    fn resources(&self) -> KernelResources {
        KernelResources {
            regs_per_thread: 32,
            smem_per_block: 256,
            threads_per_block: 128,
        }
    }

    fn class(&self) -> KernelClass {
        KernelClass::GlobalReduction
    }

    fn run_block(&self, _b: usize, ctx: &mut BlockCtx) -> f64 {
        let ok = ctx.g_read(self.data, self.data.len() - 1) as f64;
        let bad = ctx.g_read(self.data, self.data.len()) as f64; // BUG
        ok + bad
    }

    fn finalize(&self, _ctx: &mut BlockCtx, partials: Vec<f64>) -> f64 {
        partials.into_iter().sum()
    }
}

#[test]
fn global_oob_read_is_diagnosed_not_a_panic() {
    let data = vec![2.5f32; 64];
    let sim = GpuSim::v100();
    let (r, report) = sim.launch_checked(&GlobalOobMutant { data: &data }, 1);
    assert!(report.has(Hazard::OobGlobal), "{}", report.render());
    let d = report
        .diags
        .iter()
        .find(|d| d.hazard == Hazard::OobGlobal)
        .unwrap();
    assert_eq!(d.index, Some(64));
    // The diagnosed read yields 0.0 instead of aborting the assessment.
    assert_eq!(r.output, 2.5);
}

// ---------------------------------------------------------------------------
// Tiled launches: production kernels stay clean slab-by-slab, per-slab
// charges audit against the merged total, and a slab-halo bug is caught
// ---------------------------------------------------------------------------

#[test]
fn production_kernels_are_sanitizer_clean_under_tiled_launch() {
    let mut rng = Rng(0x5A16);
    let sim = GpuSim::v100();
    for shape in shapes(&mut rng) {
        let (orig, dec) = fields(shape, &mut rng);
        let f = FieldPair::new(&orig, &dec);
        let k1 = P1FusedKernel { fields: f };
        let k2 = P2FusedKernel {
            fields: f,
            stride: 1,
            mean_e: 1.5e-4,
            max_lag: 3,
        };
        for slabs in [2usize, 5] {
            let (r1, t1, rep1) = sim.launch_tiled_checked(&k1, k1.grid(), slabs);
            assert!(rep1.is_clean(), "p1 tiled {shape:?}:\n{}", rep1.render());
            let (r2, t2, rep2) = sim.launch_tiled_checked(&k2, k2.grid(), slabs);
            assert!(rep2.is_clean(), "p2 tiled {shape:?}:\n{}", rep2.render());
            // The per-slab charge audit: tile charges merge to exactly the
            // monolithic counters (checked internally too — a mismatch
            // would be a ChargeMismatch diagnostic, failing is_clean).
            for (r, tiles, mono) in [
                (&r1.counters, &t1, sim.launch(&k1, k1.grid()).counters),
                (&r2.counters, &t2, sim.launch(&k2, k2.grid()).counters),
            ] {
                assert_eq!(
                    zc_gpusim::Counters::merged(tiles.iter().map(|t| &t.counters)),
                    mono,
                    "{shape:?}/slabs={slabs}: per-slab charges lost work"
                );
                assert_eq!(*r, mono, "{shape:?}/slabs={slabs}");
            }
        }
    }
}

/// A tiled P2-style stencil whose slab halo is off by one: each plane block
/// reads its own plane plus a one-plane halo, but the buggy variant reads
/// the halo unconditionally — the final plane's halo read runs one plane
/// past the field end. Exactly the bug class slab tiling introduces.
struct SlabHaloMutant<'a> {
    data: &'a [f32],
    plane: usize,
    bug: bool,
}

impl BlockKernel for SlabHaloMutant<'_> {
    type Partial = f64;
    type Output = f64;

    fn name(&self) -> &'static str {
        "mutant_slab_halo_off_by_one"
    }

    fn resources(&self) -> KernelResources {
        KernelResources {
            regs_per_thread: 32,
            smem_per_block: 256,
            threads_per_block: 128,
        }
    }

    fn class(&self) -> KernelClass {
        KernelClass::Stencil
    }

    fn run_block(&self, b: usize, ctx: &mut BlockCtx) -> f64 {
        let planes = self.data.len() / self.plane;
        let mut s = 0.0;
        for i in 0..self.plane {
            s += ctx.g_read(self.data, b * self.plane + i) as f64;
        }
        // Halo: the first row of the next plane.
        let halo = if self.bug {
            b + 1 // BUG: runs past the last plane
        } else {
            (b + 1).min(planes - 1)
        };
        s += ctx.g_read(self.data, halo * self.plane) as f64;
        s
    }

    fn finalize(&self, _ctx: &mut BlockCtx, partials: Vec<f64>) -> f64 {
        partials.into_iter().sum()
    }
}

#[test]
fn slab_halo_off_by_one_is_caught_in_tiled_launch() {
    let plane = 16;
    let data = vec![1.25f32; 8 * plane];
    let sim = GpuSim::v100();
    let k = SlabHaloMutant {
        data: &data,
        plane,
        bug: true,
    };
    // The bug lives in the last slab's final plane: the tiled run finds it.
    let (_, tiles, report) = sim.launch_tiled_checked(&k, 8, 4);
    assert_eq!(tiles.len(), 4);
    assert!(report.has(Hazard::OobGlobal), "{}", report.render());
    let d = report
        .diags
        .iter()
        .find(|d| d.hazard == Hazard::OobGlobal)
        .unwrap();
    assert_eq!(d.index, Some(data.len()), "{}", report.render());
    assert_eq!(d.block, Some(7), "{}", report.render());
    // The clamped-halo variant is clean under the same tiling.
    let fixed = SlabHaloMutant {
        data: &data,
        plane,
        bug: false,
    };
    let (_, _, report) = sim.launch_tiled_checked(&fixed, 8, 4);
    assert!(report.is_clean(), "{}", report.render());
}

#[test]
fn mutant_reports_render_with_tool_and_kernel_names() {
    let sim = GpuSim::v100();
    let (_, report) = sim.launch_checked(&DroppedSyncMutant { sync: false }, 1);
    let text = report.render();
    assert!(text.contains("mutant_dropped_sync"), "{text}");
    assert!(text.contains("racecheck"), "{text}");
    assert!(text.contains("block 0"), "{text}");
}
