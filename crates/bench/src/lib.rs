//! # zc-bench
//!
//! The benchmark harness that regenerates **every table and figure** of the
//! cuZ-Checker paper's evaluation (§IV). See DESIGN.md §5 for the
//! experiment index. Binaries:
//!
//! * `table1` — the pattern classification table,
//! * Fig. 9 — dataset visualization (PGM slices; the `dataset_gallery` example),
//! * `fig10` — overall cuZC speedups vs ompZC and moZC,
//! * `fig11` — per-pattern absolute throughput of all three systems,
//! * `fig12` — per-pattern speedups,
//! * `table2` — the runtime profile (Regs/TB, SMem/TB, Iters/thread, TB/SM),
//! * `ablation` — design-choice ablations (FIFO, fusion, cube size, window),
//! * `multigpu` — the §VI future-work multi-GPU scaling, priced by the
//!   device placement ganged `MultiCuZc` runs use.
//!
//! Beyond the paper, `campaign` and `chaos` write `BENCH_campaign.json`
//! and `BENCH_chaos.json` (modeled fleet throughput, fault recovery).
//! Host wall-clock performance is measured only by zcbench, the benchmark
//! of record, a package of its own in `src/bin/zcbench/` (see its README).
//!
//! ## Scaled execution, full-shape modeling
//!
//! Functional simulation of full paper-sized fields (up to 1.4 GB each) is
//! needlessly slow, so the figure harness runs the *functional* pass at a
//! reduced `--scale` (default 4: every axis divided by 4) and then
//! **re-models the launch at the full paper shape**: the measured
//! per-pattern counters are volume-extrapolated (they are exactly linear in
//! element count up to halo effects), the grid is the one the kernels
//! declare for the full shape (`zc_kernels::traffic`), and each GPU run is
//! priced by the one-device `DevicePlacement`. Figures therefore reflect the
//! paper's actual dataset geometries (which drive the Table II effects)
//! at a small fraction of the simulation cost. `--scale 1` runs the real
//! thing end-to-end. Table II itself needs no functional pass: it prints
//! the job pricer's profile of the declared full-shape launches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fullscale;
pub mod paper;
pub mod runner;

pub use fullscale::{full_profiles, full_run, remodel_full, scale_counters};
pub use runner::{assess_dataset, DatasetResult, HarnessOpts, SystemTimes};
