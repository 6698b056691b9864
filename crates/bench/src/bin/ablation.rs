//! Design-choice ablations (DESIGN.md §8) — the paper's optimizations
//! measured one at a time on one representative dataset:
//!
//! 1. FIFO vs no-FIFO SSIM (the paper's ~50% claim, Takeaway 1),
//! 2. fused vs per-metric pattern-1 kernels,
//! 3. SSIM window/step sweeps (user-visible cost of window choices),
//! 4. autocorrelation lag-count sweep.

use zc_bench::fullscale::remodel_full;
use zc_bench::HarnessOpts;
use zc_compress::{Compressor, ErrorBound, SzCompressor};
use zc_core::exec::Executor;
use zc_core::metrics::{MetricSelection, Pattern};
use zc_core::{CuZc, MoZc};
use zc_data::{AppDataset, GenOptions};
use zc_gpusim::cost::CpuModel;
use zc_gpusim::GpuSim;

fn main() {
    let opts = match HarnessOpts::from_args(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("ablation: {e}; usage: ablation [--scale N]");
            std::process::exit(2);
        }
    };
    let ds = AppDataset::Miranda;
    let gen = GenOptions::scaled_xy(opts.scale);
    let field = ds.generate_field(0, &gen);
    let sz = SzCompressor::new(ErrorBound::Rel(opts.rel_bound));
    let (dec, _) = sz.roundtrip(&field.data).unwrap();
    let sim = GpuSim::v100();
    let cpu = CpuModel::xeon_6148();
    let scaled = ds.shape(&gen);
    let full = ds.full_shape();

    let time_of = |cfg: &zc_core::AssessConfig, ex: &dyn Executor, pattern: Pattern| -> f64 {
        let a = ex.assess(&field.data, &dec, cfg).unwrap();
        a.runs
            .iter()
            .filter(|r| r.pattern == pattern)
            .map(|r| remodel_full(r, scaled, full, cfg, &sim, &cpu))
            .sum()
    };

    println!(
        "Ablations on {} (field {}, full shape {})\n",
        ds.name(),
        field.name,
        full
    );

    // 1. FIFO (cuZC SSIM) vs no-FIFO (moZC SSIM).
    let mut cfg = opts.cfg.clone();
    cfg.metrics = MetricSelection::pattern(Pattern::SlidingWindow);
    let with_fifo = time_of(&cfg, &CuZc::default(), Pattern::SlidingWindow);
    let without = time_of(&cfg, &MoZc::default(), Pattern::SlidingWindow);
    println!("FIFO buffer (pattern 3):");
    println!("  with FIFO    {with_fifo:10.4} s");
    println!(
        "  without FIFO {without:10.4} s   (x{:.2}; paper: ~1.5x)",
        without / with_fifo
    );

    // 2. Fused vs per-metric pattern-1.
    let mut cfg = opts.cfg.clone();
    cfg.metrics = MetricSelection::pattern(Pattern::GlobalReduction);
    let fused = time_of(&cfg, &CuZc::default(), Pattern::GlobalReduction);
    let split = time_of(&cfg, &MoZc::default(), Pattern::GlobalReduction);
    println!("\nKernel fusion (pattern 1):");
    println!("  fused (1+1 kernels)   {fused:10.5} s");
    println!(
        "  per-metric (10+ kern) {split:10.5} s   (x{:.2}; paper: 3.5-6.4x)",
        split / fused
    );

    // 3. SSIM window sweep.
    println!("\nSSIM window sweep (cuZC, step 1):");
    for window in [4usize, 6, 8, 12, 16] {
        let mut cfg = opts.cfg.clone();
        cfg.metrics = MetricSelection::pattern(Pattern::SlidingWindow);
        cfg.ssim.window = window;
        let t = time_of(&cfg, &CuZc::default(), Pattern::SlidingWindow);
        println!("  window {window:>2}: {t:10.4} s");
    }

    // 4. SSIM step sweep.
    println!("\nSSIM step sweep (cuZC, window 8):");
    for step in [1usize, 2, 4, 8] {
        let mut cfg = opts.cfg.clone();
        cfg.metrics = MetricSelection::pattern(Pattern::SlidingWindow);
        cfg.ssim.step = step;
        let t = time_of(&cfg, &CuZc::default(), Pattern::SlidingWindow);
        println!("  step {step}: {t:10.4} s");
    }

    // 5. Autocorrelation lag sweep.
    println!("\nAutocorrelation max-lag sweep (cuZC pattern 2):");
    for max_lag in [1usize, 2, 5, 10, 20] {
        let mut cfg = opts.cfg.clone();
        cfg.metrics = MetricSelection::pattern(Pattern::Stencil);
        cfg.max_lag = max_lag;
        let t = time_of(&cfg, &CuZc::default(), Pattern::Stencil);
        println!("  lags 1..={max_lag:<2}: {t:10.4} s");
    }
}
