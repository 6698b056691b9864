//! Multi-GPU interconnect description — the paper's §VI future-work
//! extension.
//!
//! The paper plans a multi-node multi-GPU cuZ-Checker built on the
//! single-GPU kernels, noting that inter-GPU synchronization and
//! communication dominate the design. A [`MultiGpuModel`] states the two
//! inputs of that extension once: how many devices a field is split over,
//! and the [`HostLink`] that connects them. `zc_core::plan::DevicePlacement`
//! prices a run on it: each device re-runs its share of the grid, pattern
//! 2/3 exchange halo slabs with their neighbours over the link, and every
//! pattern ends in the ring all-reduce of [`MultiGpuModel::allreduce_s`].

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

    /// Modeled seconds of the ring all-reduce of the devices' scalar
    /// partials: `2(g−1)` latency-bound steps, 0 on one device.
    pub fn allreduce_s(&self) -> f64 {
        2.0 * self.gpus.saturating_sub(1) as f64 * self.link.latency_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allreduce_is_free_on_one_device_and_a_latency_ring_otherwise() {
        assert_eq!(MultiGpuModel::nvlink(1).allreduce_s(), 0.0);
        assert_eq!(MultiGpuModel::pcie(1).allreduce_s(), 0.0);
        for g in [2u32, 4, 8] {
            for m in [MultiGpuModel::nvlink(g), MultiGpuModel::pcie(g)] {
                assert_eq!(m.allreduce_s(), 2.0 * (g - 1) as f64 * m.link.latency_s);
            }
        }
    }
}
