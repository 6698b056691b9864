//! Hardware specifications of the paper's evaluation platforms (§IV).

/// A GPU device model. Defaults describe the paper's NVIDIA Tesla V100
/// (Volta, 80 SMs, 32 GB HBM2).
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceSpec {
    /// Marketing name for reports.
    pub name: &'static str,
    /// Streaming multiprocessors.
    pub sms: u32,
    /// FP32 lanes (CUDA cores) per SM.
    pub fp32_lanes_per_sm: u32,
    /// Sustained SM clock in GHz.
    pub clock_ghz: f64,
    /// 32-bit registers per SM.
    pub regs_per_sm: u32,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: u32,
    /// Maximum resident thread blocks per SM.
    pub max_blocks_per_sm: u32,
    /// Maximum threads in a single thread block (1024 on every CUDA
    /// device since compute 2.0) — a launch-time hard limit, checked by
    /// the plan verifier before any launch exists.
    pub max_threads_per_block: u32,
    /// Shared memory per SM in bytes.
    pub smem_per_sm: u32,
    /// Shared memory limit per thread block in bytes.
    pub smem_per_block: u32,
    /// Warp size (32 on every CUDA device).
    pub warp_size: u32,
    /// Peak global-memory bandwidth in GB/s.
    pub hbm_bw_gbs: f64,
    /// Shared-memory bytes per clock per SM.
    pub smem_bytes_per_clk_per_sm: f64,
    /// Device (global) memory capacity in bytes. Fields whose resident
    /// working set exceeds this must be assessed out-of-core (slab-tiled).
    pub mem_bytes: u64,
    /// Modeled watchdog (TDR-style) timeout in seconds: a hung launch
    /// occupies the device at most this long before the driver reclaims
    /// it — the cap on what a [`crate::fault::FaultDraw::Hang`] charges on
    /// the campaign timeline.
    pub watchdog_timeout_s: f64,
}

impl DeviceSpec {
    /// The paper's evaluation GPU: Tesla V100-SXM2-32GB.
    pub fn v100() -> Self {
        DeviceSpec {
            name: "Tesla V100",
            sms: 80,
            fp32_lanes_per_sm: 64,
            clock_ghz: 1.53,
            regs_per_sm: 65_536,
            max_threads_per_sm: 2_048,
            max_blocks_per_sm: 32,
            max_threads_per_block: 1024,
            smem_per_sm: 96 * 1024,
            smem_per_block: 48 * 1024,
            warp_size: 32,
            hbm_bw_gbs: 900.0,
            smem_bytes_per_clk_per_sm: 128.0,
            mem_bytes: 32 * 1024 * 1024 * 1024,
            watchdog_timeout_s: 2.0,
        }
    }

    /// Peak FP32 throughput in operations per second.
    pub fn peak_flops(&self) -> f64 {
        self.sms as f64 * self.fp32_lanes_per_sm as f64 * self.clock_ghz * 1e9
    }

    /// Peak aggregate shared-memory bandwidth in bytes per second.
    pub fn peak_smem_bw(&self) -> f64 {
        self.sms as f64 * self.smem_bytes_per_clk_per_sm * self.clock_ghz * 1e9
    }
}

/// A CPU host model. Defaults describe the paper's Intel Xeon Gold 6148
/// (20 cores @ 2.40 GHz base, 27.5 MB L3).
#[derive(Clone, Debug, PartialEq)]
pub struct CpuSpec {
    /// Marketing name for reports.
    pub name: &'static str,
    /// Physical cores.
    pub cores: u32,
    /// Base clock in GHz.
    pub clock_ghz: f64,
    /// Sustained stream (memory) bandwidth in GB/s.
    pub stream_bw_gbs: f64,
}

impl CpuSpec {
    /// The paper's evaluation host CPU.
    pub fn xeon_6148() -> Self {
        CpuSpec {
            name: "Xeon Gold 6148",
            cores: 20,
            clock_ghz: 2.40,
            stream_bw_gbs: 100.0,
        }
    }

    /// Aggregate scalar issue rate in operations per second (one op per
    /// core-cycle — Z-checker's analysis loops are scalar, not vectorized).
    pub fn scalar_ops_rate(&self) -> f64 {
        self.cores as f64 * self.clock_ghz * 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v100_headline_numbers() {
        let d = DeviceSpec::v100();
        assert_eq!(d.sms, 80);
        assert_eq!(d.sms * d.fp32_lanes_per_sm, 5120); // paper: 5,120 cores
                                                       // ~15.7 TFLOPS FP32.
        assert!((d.peak_flops() / 1e12 - 7.83).abs() < 0.1);
        assert!(d.peak_smem_bw() > 10e12);
        assert_eq!(d.mem_bytes, 32 << 30); // paper: 32 GB HBM2
        assert!(d.watchdog_timeout_s > 0.0); // TDR-style hang reclaim
    }

    #[test]
    fn xeon_matches_paper_description() {
        let c = CpuSpec::xeon_6148();
        assert_eq!(c.cores, 20);
        assert!((c.clock_ghz - 2.4).abs() < 1e-9);
        assert!(c.scalar_ops_rate() > 4e10);
    }
}
