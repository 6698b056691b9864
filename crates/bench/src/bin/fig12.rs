//! Fig. 12 — per-pattern speedups of cuZC over ompZC and moZC.

use zc_bench::paper::{
    against, P1_VS_MOZC, P1_VS_OMPZC, P2_VS_MOZC, P2_VS_OMPZC, P3_VS_MOZC, P3_VS_OMPZC,
};
use zc_bench::{assess_dataset, DatasetResult, HarnessOpts};
use zc_core::Pattern;
use zc_data::AppDataset;

fn main() {
    let opts = match HarnessOpts::from_args(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("fig12: {e}; usage: fig12 [--scale N] [--fields N] [--rel-bound X]");
            std::process::exit(2);
        }
    };
    println!("Fig. 12 — per-pattern cuZC speedups, modeled at full paper shapes\n");
    let results: Vec<DatasetResult> = AppDataset::ALL
        .iter()
        .map(|&ds| assess_dataset(ds, &opts))
        .collect();

    let bands = [
        (
            "(a) pattern-1",
            Pattern::GlobalReduction,
            P1_VS_OMPZC,
            P1_VS_MOZC,
        ),
        ("(b) pattern-2", Pattern::Stencil, P2_VS_OMPZC, P2_VS_MOZC),
        (
            "(c) pattern-3 (SSIM)",
            Pattern::SlidingWindow,
            P3_VS_OMPZC,
            P3_VS_MOZC,
        ),
    ];
    for (title, pattern, band_omp, band_mo) in bands {
        println!("{title}");
        println!(
            "{:<12} {:>34} {:>34}",
            "dataset", "speedup vs ompZC", "speedup vs moZC"
        );
        for r in &results {
            let cu = r.cuzc.of(pattern);
            let vs_omp = r.ompzc.of(pattern) / cu;
            let vs_mo = r.mozc.of(pattern) / cu;
            println!(
                "{:<12} {:>34} {:>34}",
                r.dataset.name(),
                against(vs_omp, band_omp),
                against(vs_mo, band_mo)
            );
        }
        println!();
    }
}
