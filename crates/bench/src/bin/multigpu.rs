//! §VI future work — multi-GPU scaling: the assessment time of a
//! full-metric cuZC job on each paper dataset's full shape over K devices,
//! priced by the one multi-device model ([`zc_bench::fullscale::spread_s`]):
//! each device assesses a contiguous plane range plus the halo planes its
//! stencil and SSIM windows read, then gathers its results over the link,
//! and the job takes as long as its slowest part. Every price reads the
//! kernels' declared launches: no field is generated and no executor runs.

use zc_bench::fullscale::spread_s;
use zc_core::AssessConfig;
use zc_data::AppDataset;
use zc_gpusim::MultiGpuModel;

fn main() {
    // Every figure is a full-shape price under the default config, so no
    // argument could change it.
    if std::env::args().len() > 1 {
        eprintln!("usage: multigpu");
        std::process::exit(2);
    }
    let cfg = AssessConfig::default();
    println!("Multi-GPU scaling model (paper SVI future work)\n");
    println!(
        "{:<12} {:>6} {:>12} {:>12} {:>12} {:>10}",
        "dataset", "GPUs", "NVLink (s)", "PCIe (s)", "ideal (s)", "NVLink eff"
    );
    for ds in AppDataset::ALL {
        let time = |link: MultiGpuModel| spread_s(ds.full_shape(), &cfg, link);
        let single = time(MultiGpuModel::nvlink(1));
        for gpus in [1u32, 2, 4, 8] {
            let nv = time(MultiGpuModel::nvlink(gpus));
            let pcie = time(MultiGpuModel::pcie(gpus));
            println!(
                "{:<12} {:>6} {:>12.4} {:>12.4} {:>12.4} {:>9.1}%",
                if gpus == 1 { ds.name() } else { "" },
                gpus,
                nv,
                pcie,
                single / gpus as f64,
                single / (gpus as f64 * nv) * 100.0
            );
        }
    }
}
