//! Best-fit compressor selection: sweep candidate configurations over a
//! field, enforce quality criteria, rank the survivors by ratio — the
//! paper's §I "select the best-fit compressors" workflow, automated.
//!
//! ```text
//! cargo run --release --example best_fit
//! ```

use cuz_checker::compress::{CompressorSpec, ErrorBound};
use cuz_checker::core::config::AssessConfig;
use cuz_checker::core::recommend::{recommend, render_ranking, QualityCriteria};
use cuz_checker::core::FieldRef;
use cuz_checker::data::{AppDataset, GenOptions};

fn main() {
    let field = FieldRef::new(AppDataset::Hurricane, 9, GenOptions::scaled(8)); // TC
    println!("field: Hurricane {} at 1/8 scale\n", field.name());

    let candidates = [
        CompressorSpec::Sz(ErrorBound::Rel(1e-2)),
        CompressorSpec::Sz(ErrorBound::Rel(1e-3)),
        CompressorSpec::Sz(ErrorBound::Rel(1e-4)),
        CompressorSpec::Zfp(8.0),
        CompressorSpec::Zfp(12.0),
        CompressorSpec::Zfp(16.0),
    ];

    for (label, criteria) in [
        (
            "visualization-grade (PSNR ≥ 60 dB, SSIM ≥ 0.99)",
            QualityCriteria::visualization(),
        ),
        (
            "analysis-grade (PSNR ≥ 80 dB, SSIM ≥ 0.999, white errors)",
            QualityCriteria::analysis(),
        ),
    ] {
        println!("criteria: {label}");
        let (ranking, _) = recommend(
            &field,
            &candidates,
            &criteria,
            &AssessConfig::default(),
            false,
        )
        .expect("recommendation sweep");
        print!("{}", render_ranking(&ranking));
        match ranking.iter().find(|v| v.passes) {
            Some(best) => println!("→ best fit: {} at {:.1}x\n", best.name, best.ratio),
            None => println!("→ no candidate satisfies the criteria\n"),
        }
    }
}
