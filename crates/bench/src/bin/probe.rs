//! Calibration probe: per-pattern roofline breakdown of each system at
//! full paper shapes (not a paper figure; a developer tool).

use zc_bench::fullscale::full_run;
use zc_bench::HarnessOpts;
use zc_compress::{Compressor, ErrorBound, SzCompressor};
use zc_core::exec::Executor;
use zc_core::{CuZc, MoZc, OmpZc};
use zc_data::{AppDataset, GenOptions};
use zc_gpusim::cost::{gpu_time, CpuModel};
use zc_gpusim::{occupancy, GpuSim};

fn main() {
    let opts = HarnessOpts::from_args(std::env::args().skip(1)).unwrap_or_default();
    let sim = GpuSim::v100();
    let cpu = CpuModel::xeon_6148();
    for ds in AppDataset::ALL {
        let gen = GenOptions::scaled_xy(opts.scale);
        let field = ds.generate_field(0, &gen);
        let sz = SzCompressor::new(ErrorBound::Rel(opts.rel_bound));
        let (dec, _) = sz.roundtrip(&field.data).unwrap();
        let full = ds.full_shape();
        let scaled = ds.shape(&gen);
        println!(
            "=== {} (full {}, bytes/field {:.0} MB) ===",
            ds.name(),
            full,
            full.len() as f64 * 4.0 / 1e6
        );
        for ex in [
            &CuZc::default() as &dyn Executor,
            &MoZc::default(),
            &OmpZc::default(),
        ] {
            let a = ex.assess(&field.data, &dec, &opts.cfg).unwrap();
            for r in &a.runs {
                let r = full_run(r, scaled, full, &opts.cfg);
                match r.resources {
                    Some(res) => {
                        let occ = occupancy(&sim.dev, &res);
                        let t = gpu_time(
                            &sim.dev,
                            &sim.calib,
                            &r.counters,
                            &occ,
                            r.grid_blocks,
                            r.class,
                        );
                        print!(
                            "{}",
                            zc_gpusim::launch_summary(
                                &format!("{} {:?}", ex.name(), r.pattern),
                                r.grid_blocks,
                                &r.counters,
                                &occ,
                                &t
                            )
                        );
                    }
                    None => {
                        let t = cpu.time(&r.counters);
                        println!(
                            "{:7} {:?}: total={:9.3e} mem={:9.3e} cmp={:9.3e} {:?}",
                            ex.name(),
                            r.pattern,
                            t.total_s,
                            t.mem_s,
                            t.compute_s,
                            t.bound
                        );
                    }
                }
            }
        }
    }
}
