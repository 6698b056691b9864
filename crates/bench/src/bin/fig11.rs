//! Fig. 11 — absolute assessment throughput (GB/s of field payload) of
//! ompZC, moZC and cuZC running each pattern's metrics in isolation.

use zc_bench::paper::{
    against, P1_CUZC_GBS, P1_MOZC_GBS, P1_OMPZC_GBS, P3_CUZC_GBS, P3_MOZC_GBS, P3_OMPZC_GBS,
};
use zc_bench::{assess_dataset, DatasetResult, HarnessOpts};
use zc_core::Pattern;
use zc_data::AppDataset;

fn row(r: &DatasetResult, p: Pattern) -> (f64, f64, f64) {
    (
        r.throughput_gbs(&r.ompzc, p),
        r.throughput_gbs(&r.mozc, p),
        r.throughput_gbs(&r.cuzc, p),
    )
}

fn main() {
    let opts = match HarnessOpts::from_args(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("fig11: {e}; usage: fig11 [--scale N] [--fields N] [--rel-bound X]");
            std::process::exit(2);
        }
    };
    println!("Fig. 11 — per-pattern throughput (GB/s), modeled at full paper shapes\n");
    let results: Vec<DatasetResult> = AppDataset::ALL
        .iter()
        .map(|&ds| assess_dataset(ds, &opts))
        .collect();

    for (title, pattern) in [
        ("(a) pattern-1 metrics", Pattern::GlobalReduction),
        ("(b) pattern-2 metrics", Pattern::Stencil),
        ("(c) pattern-3 metrics (SSIM)", Pattern::SlidingWindow),
    ] {
        println!("{title}");
        println!(
            "{:<12} {:>12} {:>12} {:>12}",
            "dataset", "ompZC", "moZC", "cuZC"
        );
        for r in &results {
            let (om, mo, cu) = row(r, pattern);
            println!("{:<12} {om:>12.3} {mo:>12.3} {cu:>12.3}", r.dataset.name());
        }
        println!();
    }

    // Paper-band summary for the two patterns the paper quotes numerically.
    let span = |f: &dyn Fn(&DatasetResult) -> f64| {
        let vals: Vec<f64> = results.iter().map(f).collect();
        (
            vals.iter().cloned().fold(f64::INFINITY, f64::min),
            vals.iter().cloned().fold(0.0f64, f64::max),
        )
    };
    println!("paper-band check (min over datasets shown against each band):");
    let (p1_om, _) = span(&|r| r.throughput_gbs(&r.ompzc, Pattern::GlobalReduction));
    let (p1_mo, _) = span(&|r| r.throughput_gbs(&r.mozc, Pattern::GlobalReduction));
    let (p1_cu, _) = span(&|r| r.throughput_gbs(&r.cuzc, Pattern::GlobalReduction));
    println!("  p1 ompZC {}", against(p1_om, P1_OMPZC_GBS));
    println!("  p1 moZC  {}", against(p1_mo, P1_MOZC_GBS));
    println!("  p1 cuZC  {}", against(p1_cu, P1_CUZC_GBS));
    let (p3_om, _) = span(&|r| r.throughput_gbs(&r.ompzc, Pattern::SlidingWindow));
    let (p3_mo, _) = span(&|r| r.throughput_gbs(&r.mozc, Pattern::SlidingWindow));
    let (p3_cu, _) = span(&|r| r.throughput_gbs(&r.cuzc, Pattern::SlidingWindow));
    println!("  p3 ompZC {}", against(p3_om, P3_OMPZC_GBS));
    println!("  p3 moZC  {}", against(p3_mo, P3_MOZC_GBS));
    println!("  p3 cuZC  {}", against(p3_cu, P3_CUZC_GBS));
}
