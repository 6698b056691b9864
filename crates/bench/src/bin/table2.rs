//! Table II — cuZC runtime profiling: Regs/TB, SMem/TB, Iters/thread and
//! TB(concurrent)/SM per pattern per dataset, at the full paper shapes.
//!
//! Every column is read from the job pricer's profile of the declared
//! full-shape launches (`zc_kernels::traffic`, folded per pattern exactly
//! as a run's profiles are): no field is generated and no executor runs.
//! TB/SM is the grid spread over the SMs; the concurrent count is the
//! occupancy limit, capped by that assignment.

use zc_bench::fullscale::full_profiles;
use zc_bench::HarnessOpts;
use zc_core::Pattern;
use zc_data::AppDataset;

fn main() {
    let opts = match HarnessOpts::from_args(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("table2: {e}\nusage: table2 [--scale N]");
            std::process::exit(2);
        }
    };
    let rows: Vec<_> = AppDataset::ALL
        .iter()
        .map(|&ds| (ds, full_profiles(ds.full_shape(), &opts.cfg)))
        .collect();
    println!("Table II — cuZC runtime profiling (full paper shapes)\n");
    for (title, pattern) in [
        ("Pattern-1", Pattern::GlobalReduction),
        ("Pattern-2", Pattern::Stencil),
        ("Pattern-3", Pattern::SlidingWindow),
    ] {
        println!("{title}");
        println!(
            "{:<12} {:>9} {:>9} {:>13} {:>14}",
            "", "Regs/TB", "SMem/TB", "Iters/thread", "TB(cncr.)/SM"
        );
        for (ds, profiles) in &rows {
            let p = profiles
                .iter()
                .find(|p| p.pattern == pattern)
                .expect("a full-metric plan profiles every pattern");
            println!(
                "{:<12} {:>8.1}k {:>8.1}KB {:>13} {:>8}({})",
                ds.name(),
                p.regs_per_tb as f64 / 1000.0,
                p.smem_per_tb as f64 / 1024.0,
                p.iters_per_thread,
                p.tbs_per_sm,
                p.blocks_per_sm.min(p.tbs_per_sm.max(1))
            );
        }
        println!();
    }
    println!("paper reference rows: p1 14k/0.4KB, p2 2.3k/17KB, p3 11k/16KB;");
    println!("p1 iters 977/1k/6.3k/576; p3 deepest for NYX (z=512).");
}
