//! §VI future work — multi-GPU scaling: the assessment time of a
//! full-metric cuZC run over K devices, priced by the same
//! `DevicePlacement` that `MultiCuZc` runs use: each device re-runs
//! its share of the full-shape grid, pattern 2/3 exchange halo slabs with
//! their neighbours, and every pattern ends in a ring all-reduce.

use zc_bench::fullscale::full_run;
use zc_bench::HarnessOpts;
use zc_compress::{Compressor, ErrorBound, SzCompressor};
use zc_core::exec::{Executor, PatternRun};
use zc_core::plan::DevicePlacement;
use zc_core::CuZc;
use zc_data::{AppDataset, GenOptions};
use zc_gpusim::{GpuSim, MultiGpuModel};

fn main() {
    let opts = match HarnessOpts::from_args(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("multigpu: {e}\nusage: multigpu [--scale N]");
            std::process::exit(2);
        }
    };
    let sim = GpuSim::v100();
    println!("Multi-GPU scaling model (paper SVI future work)\n");
    println!(
        "{:<12} {:>6} {:>12} {:>12} {:>12} {:>10}",
        "dataset", "GPUs", "NVLink (s)", "PCIe (s)", "ideal (s)", "NVLink eff"
    );
    for ds in AppDataset::ALL {
        let gen = GenOptions::scaled_xy(opts.scale);
        let field = ds.generate_field(0, &gen);
        let sz = SzCompressor::new(ErrorBound::Rel(opts.rel_bound));
        let (dec, _) = sz.roundtrip(&field.data).unwrap();
        let a = CuZc::default()
            .assess(&field.data, &dec, &opts.cfg)
            .unwrap();
        let (scaled, full) = (ds.shape(&gen), ds.full_shape());
        let runs: Vec<PatternRun> = a
            .runs
            .iter()
            .map(|r| full_run(r, scaled, full, &opts.cfg))
            .collect();
        let time = |link: MultiGpuModel| {
            DevicePlacement { link, sim: &sim }
                .pattern_times(&runs, full, &opts.cfg)
                .total()
        };
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
