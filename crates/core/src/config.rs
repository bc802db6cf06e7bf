//! Top-level iCOIL configuration.

use icoil_adapt::SafetyConfig;
use icoil_co::CoConfig;
use icoil_hsa::HsaConfig;
use icoil_perception::BevConfig;
use serde::{Deserialize, Serialize};

/// Bundles the configuration of every iCOIL submodule.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ICoilConfig {
    /// CO-module (MPC) parameters.
    pub co: CoConfig,
    /// HSA (mode-switching) parameters.
    pub hsa: HsaConfig,
    /// BEV geometry used by perception and the IL model.
    pub bev: BevConfig,
    /// Safety projection applied to IL-mode actions (disabled by
    /// default; absent in configs serialized before it existed).
    #[serde(default)]
    pub safety: SafetyConfig,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_consistent() {
        let c = ICoilConfig::default();
        assert!(c.co.validate().is_ok());
        assert_eq!(
            c.hsa.complexity.horizon, c.co.horizon,
            "HSA complexity model should reflect the CO horizon"
        );
        assert!(c.bev.size % 8 == 0);
        assert!(
            !c.safety.enabled,
            "safety projection must be opt-in so existing trajectories stay bit-identical"
        );
    }

    #[test]
    fn serde_roundtrip() {
        let c = ICoilConfig::default();
        let s = serde_json::to_string(&c).unwrap();
        let d: ICoilConfig = serde_json::from_str(&s).unwrap();
        assert_eq!(c, d);
    }
}
