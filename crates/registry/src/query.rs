//! Device queries: what a function instance asks of the allocator.

/// The compatibility requirements a function declares (vendor, platform,
/// accelerator) — the inputs of `filterby_compatibility` in Algorithm 1.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeviceQuery {
    /// Required vendor substring (`None` = any).
    pub vendor: Option<String>,
    /// Required platform substring (`None` = any).
    pub platform: Option<String>,
    /// Required accelerator: the bitstream id the function's kernels live
    /// in (`None` = any).
    pub accelerator: Option<String>,
}

impl DeviceQuery {
    /// Matches any device.
    pub fn any() -> Self {
        Self::default()
    }

    /// Requires a specific accelerator bitstream.
    pub fn for_accelerator(bitstream: impl Into<String>) -> Self {
        DeviceQuery {
            accelerator: Some(bitstream.into()),
            ..Default::default()
        }
    }

    /// Additionally requires a vendor.
    pub fn with_vendor(mut self, vendor: impl Into<String>) -> Self {
        self.vendor = Some(vendor.into());
        self
    }

    /// Additionally requires a platform.
    pub fn with_platform(mut self, platform: impl Into<String>) -> Self {
        self.platform = Some(platform.into());
        self
    }

    /// Hardware compatibility: vendor and platform match (the accelerator
    /// is *soft* — a mismatch is fixable by reconfiguration and only
    /// affects ordering, per Algorithm 1).
    pub fn hardware_matches(&self, vendor: &str, platform: &str) -> bool {
        let v_ok = self.vendor.as_deref().is_none_or(|v| vendor.contains(v));
        let p_ok = self
            .platform
            .as_deref()
            .is_none_or(|p| platform.contains(p));
        v_ok && p_ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn any_matches_everything() {
        let q = DeviceQuery::any();
        assert!(q.hardware_matches("Intel", "FPGA SDK"));
    }

    #[test]
    fn hardware_filters_are_substrings() {
        let q = DeviceQuery::any()
            .with_vendor("Intel")
            .with_platform("FPGA");
        assert!(q.hardware_matches("Intel Corp.", "Intel(R) FPGA SDK"));
        assert!(!q.hardware_matches("Xilinx", "Vitis"));
        assert!(!q.hardware_matches("Intel Corp.", "Vitis"));
    }
}
