//! Multi-GPU interconnect description — the paper's §VI future-work
//! extension.
//!
//! The paper plans a multi-node multi-GPU cuZ-Checker built on the
//! single-GPU kernels, noting that inter-GPU synchronization and
//! communication dominate the design. A [`MultiGpuModel`] states the two
//! inputs of that extension once: how many devices a job is spread over,
//! and the [`HostLink`] that connects them. `zc_core::plan::estimate_job_cost`
//! prices a job on it: each device assesses a contiguous plane range of the
//! field plus the halo planes its stencil and SSIM windows read, then
//! gathers its results over the link.

use crate::stream::HostLink;

/// Device count and interconnect of a multi-GPU run.
#[derive(Clone, Copy, Debug)]
pub struct MultiGpuModel {
    /// Number of devices.
    pub gpus: u32,
    /// The link between devices.
    pub link: HostLink,
}

impl MultiGpuModel {
    /// NVLink-class interconnect over `gpus` devices.
    pub fn nvlink(gpus: u32) -> Self {
        assert!(gpus >= 1);
        MultiGpuModel {
            gpus,
            link: HostLink::nvlink(),
        }
    }

    /// PCIe-class interconnect over `gpus` devices.
    pub fn pcie(gpus: u32) -> Self {
        assert!(gpus >= 1);
        MultiGpuModel {
            gpus,
            link: HostLink::pcie(),
        }
    }
}
