//! Runtime configuration from the environment.
//!
//! The paper's §3.4: configuration lives in environment variables set by the
//! developer locally, by an IDE, or by the HPC scheduler prolog — never in
//! program source. On top of the QRMI variables this adds
//! `HPCQC_QPU=<resource-id>`, the `--qpu` switch (overrides the default).

use crate::client::DaemonResource;
use crate::runtime::{Runtime, RuntimeError};
use hpcqc_qpu::VirtualQpu;
use hpcqc_qrmi::{QrmiConfig, ResourceFactory, ResourceType};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Fully parsed runtime configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeConfig {
    pub qrmi: QrmiConfig,
    /// `HPCQC_QPU` selection, if set.
    pub qpu_selection: Option<String>,
}

impl RuntimeConfig {
    /// Parse from an explicit map (testable).
    pub fn from_map(env: &BTreeMap<String, String>) -> Result<Self, hpcqc_qrmi::ConfigError> {
        let qrmi = if env.contains_key("QRMI_RESOURCES") {
            QrmiConfig::from_map(env)?
        } else {
            QrmiConfig::development_default()
        };
        Ok(RuntimeConfig {
            qrmi,
            qpu_selection: env.get("HPCQC_QPU").cloned(),
        })
    }

    /// Parse from the process environment; falls back to the zero-setup
    /// development default when no QRMI variables are present (§3.2's
    /// works-on-a-laptop experience).
    pub fn from_process_env() -> Result<Self, hpcqc_qrmi::ConfigError> {
        Self::from_map(&std::env::vars().collect())
    }

    /// Materialize into a [`Runtime`]. `qpus` supplies devices for any
    /// `qpu:*` resources in the configuration; `daemon` entries become
    /// [`DaemonResource`]s.
    pub fn build_runtime(
        &self,
        seed: u64,
        qpus: Vec<(String, VirtualQpu)>,
    ) -> Result<Runtime, RuntimeError> {
        let mut factory = ResourceFactory::new(seed);
        for (name, qpu) in qpus {
            factory = factory.with_qpu(name, qpu);
        }
        let mut registry = factory.build_registry(&self.qrmi)?;
        for rc in &self.qrmi.resources {
            if rc.rtype == ResourceType::Daemon {
                registry.register(Arc::new(DaemonResource::from_config(rc)?));
            }
        }
        let rt = Runtime::new(registry);
        Ok(match &self.qpu_selection {
            Some(sel) => rt.with_qpu(sel.clone()),
            None => rt,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcqc_program::{ProgramIr, Pulse, Register, SequenceBuilder};

    fn ir() -> ProgramIr {
        let reg = Register::linear(2, 6.0).unwrap();
        let mut b = SequenceBuilder::new(reg);
        b.add_global_pulse(Pulse::constant(0.5, 4.0, 0.0, 0.0).unwrap());
        ProgramIr::new(b.build().unwrap(), 10, "test")
    }

    #[test]
    fn empty_env_falls_back_to_development_default() {
        let cfg = RuntimeConfig::from_map(&BTreeMap::new()).unwrap();
        assert!(cfg.qpu_selection.is_none());
        let rt = cfg.build_runtime(1, vec![]).unwrap();
        let report = rt.run(&ir()).unwrap();
        assert_eq!(report.resource_id, "emu-local");
    }

    #[test]
    fn hpcqc_qpu_overrides_default() {
        let mut env = BTreeMap::new();
        env.insert("HPCQC_QPU".to_string(), "mock".to_string());
        let cfg = RuntimeConfig::from_map(&env).unwrap();
        let rt = cfg.build_runtime(1, vec![]).unwrap();
        let report = rt.run(&ir()).unwrap();
        assert_eq!(report.resource_id, "mock");
    }

    #[test]
    fn full_qrmi_env_with_device() {
        let mut env = BTreeMap::new();
        for (k, v) in [
            ("QRMI_RESOURCES", "fresnel-1"),
            ("QRMI_DEFAULT_RESOURCE", "fresnel-1"),
            ("QRMI_RESOURCE_FRESNEL_1_TYPE", "qpu:direct"),
        ] {
            env.insert(k.to_string(), v.to_string());
        }
        let cfg = RuntimeConfig::from_map(&env).unwrap();
        let rt = cfg
            .build_runtime(
                1,
                vec![("fresnel-1".into(), VirtualQpu::new("fresnel-1", 3))],
            )
            .unwrap();
        let report = rt.run(&ir()).unwrap();
        assert_eq!(report.resource_id, "fresnel-1");
    }

    #[test]
    fn missing_device_surfaces_config_error() {
        let mut env = BTreeMap::new();
        for (k, v) in [
            ("QRMI_RESOURCES", "fresnel-1"),
            ("QRMI_RESOURCE_FRESNEL_1_TYPE", "qpu:direct"),
        ] {
            env.insert(k.to_string(), v.to_string());
        }
        let cfg = RuntimeConfig::from_map(&env).unwrap();
        assert!(cfg.build_runtime(1, vec![]).is_err());
    }
}
