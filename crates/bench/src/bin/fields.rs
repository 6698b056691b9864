//! Batch per-field assessment: the Z-checker workflow of sweeping every
//! field of every dataset through the compressor + assessor and tabulating
//! quality — the operational use the paper's tool exists for (not a paper
//! figure; a user-facing report).

use zc_bench::HarnessOpts;
use zc_compress::{Compressor, ErrorBound, SzCompressor};
use zc_core::exec::Executor;
use zc_core::{CuZc, Metric};
use zc_data::{AppDataset, GenOptions};

fn main() {
    let opts = match HarnessOpts::from_args(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("fields: {e}; usage: fields [--scale N] [--rel-bound X]");
            std::process::exit(2);
        }
    };
    let sz = SzCompressor::new(ErrorBound::Rel(opts.rel_bound));
    let cuzc = CuZc::default();
    println!(
        "Per-field assessment, SZ-like rel bound {:.0e}, scale 1/{} (x/y)\n",
        opts.rel_bound, opts.scale
    );
    for ds in AppDataset::ALL_EXTENDED {
        println!("== {} {} ==", ds.name(), ds.full_shape());
        println!(
            "{:<22} {:>8} {:>10} {:>10} {:>12} {:>12}",
            "field", "ratio", "PSNR(dB)", "SSIM", "autocorr(1)", "max|e|/range"
        );
        let gen = GenOptions::scaled_xy(opts.scale);
        let n = opts.max_fields.unwrap_or(usize::MAX).min(ds.field_count());
        for i in 0..n {
            let field = ds.generate_field(i, &gen);
            let (dec, stats) = sz.roundtrip(&field.data).expect("roundtrip");
            let a = cuzc.assess(&field.data, &dec, &opts.cfg).expect("assess");
            let range = a.report.scalar(Metric::ValueRange).unwrap().max(1e-30);
            println!(
                "{:<22} {:>7.1}x {:>10.2} {:>10.6} {:>12.5} {:>12.3e}",
                field.name,
                stats.ratio(),
                a.report.scalar(Metric::Psnr).unwrap(),
                a.report.scalar(Metric::Ssim).unwrap(),
                a.report.scalar(Metric::Autocorrelation).unwrap(),
                a.report.scalar(Metric::MaxAbsError).unwrap() / range,
            );
        }
        println!();
    }
}
