//! Fig. 10 — overall performance comparison: cuZC speedups over ompZC and
//! moZC with **all metrics enabled**, averaged over every field of each
//! dataset (derivative orders 1–2, autocorrelation gaps 1..10, SSIM window
//! 8 / step 1, exactly the paper's settings).

use zc_bench::paper::{against, OVERALL_VS_MOZC, OVERALL_VS_OMPZC};
use zc_bench::runner::{take_csv, write_csv};
use zc_bench::{assess_dataset, HarnessOpts};
use zc_data::AppDataset;

fn main() {
    let parsed = take_csv(std::env::args().skip(1))
        .and_then(|(csv, rest)| Ok((csv, HarnessOpts::from_args(rest.into_iter())?)));
    let (csv, opts) = match parsed {
        Ok(p) => p,
        Err(e) => {
            eprintln!(
                "fig10: {e}; usage: fig10 [--scale N] [--fields N] [--rel-bound X] [--csv FILE]"
            );
            std::process::exit(2);
        }
    };
    println!("Fig. 10 — overall cuZC speedups (all metrics, avg over fields)");
    println!(
        "functional scale: 1/{} per axis; modeled at full paper shapes\n",
        opts.scale
    );
    println!(
        "{:<12} {:>7} {:>10} {:>34} {:>34}",
        "dataset", "fields", "ratio", "speedup vs ompZC", "speedup vs moZC"
    );
    let mut worst_omp = f64::INFINITY;
    let mut best_omp: f64 = 0.0;
    let mut csv_rows = Vec::new();
    for ds in AppDataset::ALL {
        let r = assess_dataset(ds, &opts);
        let vs_omp = r.ompzc.total() / r.cuzc.total();
        let vs_mo = r.mozc.total() / r.cuzc.total();
        worst_omp = worst_omp.min(vs_omp);
        best_omp = best_omp.max(vs_omp);
        println!(
            "{:<12} {:>7} {:>9.1}x {:>34} {:>34}",
            ds.name(),
            r.fields,
            r.mean_ratio,
            against(vs_omp, OVERALL_VS_OMPZC),
            against(vs_mo, OVERALL_VS_MOZC)
        );
        csv_rows.push(format!(
            "{},{},{:.3},{:.4},{:.4},{:.6e},{:.6e},{:.6e}",
            ds.name(),
            r.fields,
            r.mean_ratio,
            vs_omp,
            vs_mo,
            r.cuzc.total(),
            r.mozc.total(),
            r.ompzc.total()
        ));
    }
    if let Some(path) = &csv {
        write_csv(
            path,
            "dataset,fields,mean_ratio,speedup_vs_ompzc,speedup_vs_mozc,cuzc_s,mozc_s,ompzc_s",
            &csv_rows,
        );
    }
    println!(
        "\nmeasured overall band vs ompZC: {worst_omp:.1}x – {best_omp:.1}x (paper: 22.6x – 31.2x)"
    );

    // The paper's S I in-situ motivation: CPU-side assessment of
    // GPU-resident data must first move both fields over PCIe.
    println!("\nin-situ note: assessing GPU-resident data on the CPU additionally pays a");
    println!("device-to-host transfer of both fields (~12 GB/s PCIe3 x16):");
    for ds in AppDataset::ALL {
        let bytes = 2.0 * ds.full_shape().len() as f64 * 4.0;
        println!(
            "  {:<12} {:6.1} MB -> {:7.1} ms per field pair",
            ds.name(),
            bytes / 1e6,
            bytes / 12e9 * 1e3
        );
    }
}
