//! IOMMU / IOTLB model: host congestion *before* the IIO.
//!
//! The paper's §6 highlights a second source of host congestion the IIO
//! occupancy signal cannot capture: "PCIe underutilization due to
//! bottlenecks within hardware devices for memory protection (e.g.,
//! IOMMU)" — every DMA must translate its I/O virtual address, and an
//! IOTLB miss stalls the transaction for a page-table walk [1, 6, 9, 28,
//! 33]. Crucially, this bottleneck sits on the NIC side of the IIO: the
//! IIO buffer stays *empty* while the NIC overflows, so hostCC's `I_S`
//! signal never fires — the paper's motivation for "additional congestion
//! signals to capture IOMMU-induced host congestion".
//!
//! Model: DMA proceeds TLP by TLP; a fraction `miss_rate` of TLPs pay a
//! page-walk latency, stretching the effective PCIe streaming rate to
//! `tlp_bytes / (tlp_time + miss_rate × walk_latency)`. The miss rate
//! follows the classic working-set form `1 − entries/footprint`: the DMA
//! buffer pool's page footprint vs the IOTLB capacity.

use hostcc_sim::{Nanos, Rate};

/// IOMMU configuration for one host.
#[derive(Debug, Clone)]
pub struct IommuConfig {
    /// Whether DMA remapping is enabled at all.
    pub(crate) enabled: bool,
    /// IOTLB capacity in entries (one entry maps one I/O page).
    pub(crate) iotlb_entries: u64,
    /// Pages in the driver's DMA buffer pool working set (rings × ring
    /// size × buffers-per-slot; grows with flow count and buffer tuning).
    pub(crate) footprint_pages: u64,
    /// Latency of one page-table walk on an IOTLB miss.
    pub(crate) walk_latency: Nanos,
    /// PCIe TLP payload size (the unit that pays the translation).
    pub(crate) tlp_bytes: u64,
}

impl IommuConfig {
    /// IOMMU disabled (the paper's testbed default — and the common
    /// datacenter configuration precisely *because* of this bottleneck).
    pub(crate) fn disabled() -> Self {
        IommuConfig {
            enabled: false,
            iotlb_entries: 128,
            footprint_pages: 256,
            walk_latency: Nanos::from_nanos(250),
            tlp_bytes: 512,
        }
    }

    /// An enabled IOMMU with a working set of `footprint_pages` I/O pages.
    pub fn with_footprint(footprint_pages: u64) -> Self {
        IommuConfig {
            enabled: true,
            footprint_pages,
            ..Self::disabled()
        }
    }

    /// Steady-state IOTLB miss probability: `max(0, 1 − entries/footprint)`
    /// (uniform reuse over the working set).
    pub(crate) fn miss_rate(&self) -> f64 {
        if !self.enabled || self.footprint_pages == 0 {
            return 0.0;
        }
        (1.0 - self.iotlb_entries as f64 / self.footprint_pages as f64).clamp(0.0, 1.0)
    }

    /// The effective PCIe streaming rate once translation stalls are
    /// accounted: `tlp / (tlp/raw_rate + miss_rate × walk)`.
    pub(crate) fn effective_rate(&self, raw: Rate) -> Rate {
        let m = self.miss_rate();
        if m == 0.0 {
            return raw;
        }
        let tlp_time = self.tlp_bytes as f64 / raw.as_bytes_per_ns();
        let stalled = tlp_time + m * self.walk_latency.as_nanos() as f64;
        Rate::bytes_per_ns(self.tlp_bytes as f64 / stalled)
    }
}

impl Default for IommuConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_transparent() {
        let i = IommuConfig::disabled();
        assert_eq!(i.miss_rate(), 0.0);
        let raw = Rate::gbps(128.0);
        assert_eq!(i.effective_rate(raw).as_gbps(), raw.as_gbps());
    }

    #[test]
    fn small_working_set_fits_the_iotlb() {
        let mut i = IommuConfig::with_footprint(100);
        i.iotlb_entries = 128;
        assert_eq!(i.miss_rate(), 0.0);
    }

    #[test]
    fn miss_rate_follows_working_set() {
        let i = IommuConfig::with_footprint(256);
        assert!((i.miss_rate() - 0.5).abs() < 1e-12);
        let i = IommuConfig::with_footprint(1280);
        assert!((i.miss_rate() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn large_footprint_collapses_pcie_throughput() {
        // At 90% miss rate: per-512B-TLP time = 32 ns + 0.9·250 ns = 257 ns
        // → ~2 GB/s ≈ 16 Gbps: the collapse reported for IOMMU-enabled
        // high-bandwidth receive [9].
        let i = IommuConfig::with_footprint(1280);
        let eff = i.effective_rate(Rate::gbps(128.0));
        assert!(
            (14.0..18.0).contains(&eff.as_gbps()),
            "effective rate = {eff}"
        );
    }

    #[test]
    fn effective_rate_monotone_in_footprint() {
        let raw = Rate::gbps(128.0);
        let mut last = f64::INFINITY;
        for fp in [64u64, 128, 256, 512, 1024, 4096] {
            let eff = IommuConfig::with_footprint(fp)
                .effective_rate(raw)
                .as_gbps();
            assert!(eff <= last + 1e-9, "footprint {fp}: {eff} > {last}");
            last = eff;
        }
    }
}
