//! Configuration-driven run: the Z-checker workflow — a `.cfg` document
//! selects the compressor, the executor and the metric set; the raw field
//! round-trips through the input/output engines on disk.
//!
//! ```text
//! cargo run --release --example config_driven
//! ```

use cuz_checker::core::config::parse;
use cuz_checker::core::exec::make_executor;
use cuz_checker::core::io::{read_raw, write_raw, Endianness};
use cuz_checker::data::{AppDataset, GenOptions};
use cuz_checker::tensor::Tensor;

const CONFIG: &str = r#"
# cuZ-Checker run configuration (Z-checker ini dialect)
[assess]
executor = cuzc
metrics  = all
bins     = 128
max_lag  = 5

[ssim]
window = 8
step   = 1

[compressor]
kind      = sz
rel_bound = 1e-3
"#;

fn main() {
    let run = parse(CONFIG).expect("config parses");
    println!(
        "executor: {:?}   compressor: {:?}",
        run.executor, run.compressor
    );

    // Input engine: write the field to a raw binary file and read it back,
    // exactly how real SDRBench data enters the tool.
    let field = AppDataset::ScaleLetkf.generate_field(5, &GenOptions::scaled(8));
    let path = std::env::temp_dir().join("cuz_checker_demo_field.f32");
    write_raw(&path, &field.data, Endianness::Little).expect("write raw");
    let orig: Tensor<f32> =
        read_raw(&path, field.data.shape(), Endianness::Little).expect("read raw");
    println!("loaded {} from {}", orig.shape(), path.display());

    // Run the configured compressor.
    let spec = run.compressor.expect("config names a compressor");
    let (dec, stats) = spec.build().roundtrip(&orig).expect("codec roundtrip");
    println!("compression ratio: {:.1}x", stats.ratio());

    // Run the configured executor and render the configured metrics.
    let executor = make_executor(run.executor);
    let mut a = executor.assess(&orig, &dec, &run.assess).expect("assess");
    a.report = a.report.with_compression(stats);
    print!("\n{}", a.report.render(&run.assess.metrics));
    std::fs::remove_file(&path).ok();
}
