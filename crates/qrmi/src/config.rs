//! Environment-variable configuration and the resource registry.
//!
//! QRMI is configured through environment variables (paper §3.4), which can
//! be set by the developer locally, by an IDE, or injected by the HPC
//! scheduler prolog. The scheme:
//!
//! ```text
//! QRMI_RESOURCES=fresnel-1,emu-local,emu-cloud     # comma-separated ids
//! QRMI_DEFAULT_RESOURCE=emu-local                  # used when -qpu is absent
//! QRMI_RESOURCE_<ID>_TYPE=qpu:direct|qpu:cloud|emulator:cloud|emulator:local|daemon
//! QRMI_RESOURCE_<ID>_BACKEND=emu-sv|emu-mps|emu-mps-mock   # emulators only
//! QRMI_RESOURCE_<ID>_CHI=16                        # emu-mps bond dimension
//! QRMI_RESOURCE_<ID>_QUEUE_POLLS=3                 # cloud resources only
//! QRMI_RESOURCE_<ID>_DEVICE=fresnel-1              # qpu resources: device name
//! QRMI_RESOURCE_<ID>_ADDR=host:7777                # daemon: address (+ _USER, _CLASS)
//! ```
//!
//! `<ID>` is the resource id uppercased with `-` → `_`. Parsing works from
//! any key/value map so tests don't mutate process environment.

use crate::backends::{CloudEngine, CloudResource, LocalEmulatorResource, QpuDirectResource};
use crate::resource::{QuantumResource, ResourceType};
use hpcqc_emulator::{Emulator, MpsBackend, MpsConfig, SvBackend};
use hpcqc_qpu::VirtualQpu;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Parsed configuration of one resource.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceConfig {
    pub id: String,
    pub rtype: ResourceType,
    /// Extra parameters (backend, chi, queue_polls, device).
    pub params: BTreeMap<String, String>,
}

impl ResourceConfig {
    /// The environment key of parameter `name` (`QRMI_RESOURCE_<ID>_<NAME>`).
    pub fn key(&self, name: &str) -> String {
        let id = env_fragment(&self.id);
        format!("QRMI_RESOURCE_{id}_{}", name.to_uppercase())
    }
}

/// The full QRMI configuration.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QrmiConfig {
    pub resources: Vec<ResourceConfig>,
    pub default_resource: Option<String>,
}

/// Errors produced while parsing or building configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    MissingKey(String),
    BadValue {
        key: String,
        value: String,
        expected: &'static str,
    },
    UnknownResource(String),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::MissingKey(k) => write!(f, "missing configuration key {k}"),
            ConfigError::BadValue {
                key,
                value,
                expected,
            } => {
                write!(f, "bad value {value:?} for {key}: expected {expected}")
            }
            ConfigError::UnknownResource(r) => write!(f, "unknown resource {r:?}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Resource id → environment-key fragment.
fn env_fragment(id: &str) -> String {
    id.to_uppercase().replace('-', "_")
}

impl QrmiConfig {
    /// Parse from an explicit key/value map (testable form).
    pub fn from_map(env: &BTreeMap<String, String>) -> Result<Self, ConfigError> {
        let list = env
            .get("QRMI_RESOURCES")
            .ok_or_else(|| ConfigError::MissingKey("QRMI_RESOURCES".into()))?;
        let mut resources = Vec::new();
        for id in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let frag = env_fragment(id);
            let tkey = format!("QRMI_RESOURCE_{frag}_TYPE");
            let tval = env
                .get(&tkey)
                .ok_or_else(|| ConfigError::MissingKey(tkey.clone()))?;
            let rtype = ResourceType::parse(tval).ok_or_else(|| ConfigError::BadValue {
                key: tkey,
                value: tval.clone(),
                expected: "qpu:direct | qpu:cloud | emulator:cloud | emulator:local | daemon",
            })?;
            let prefix = format!("QRMI_RESOURCE_{frag}_");
            let params: BTreeMap<String, String> = env
                .iter()
                .filter(|(k, _)| k.starts_with(&prefix) && !k.ends_with("_TYPE"))
                .map(|(k, v)| (k[prefix.len()..].to_lowercase(), v.clone()))
                .collect();
            resources.push(ResourceConfig {
                id: id.to_string(),
                rtype,
                params,
            });
        }
        let default_resource = env.get("QRMI_DEFAULT_RESOURCE").cloned();
        if let Some(d) = &default_resource {
            if !resources.iter().any(|r| &r.id == d) {
                return Err(ConfigError::UnknownResource(d.clone()));
            }
        }
        Ok(QrmiConfig {
            resources,
            default_resource,
        })
    }

    /// A ready-to-use development default: local SV emulator + product-state
    /// mock, defaulting to the SV emulator — the "works on a laptop with zero
    /// setup" experience §3.2 targets.
    pub fn development_default() -> Self {
        QrmiConfig {
            resources: vec![
                ResourceConfig {
                    id: "emu-local".into(),
                    rtype: ResourceType::EmulatorLocal,
                    params: [("backend".to_string(), "emu-sv".to_string())].into(),
                },
                ResourceConfig {
                    id: "mock".into(),
                    rtype: ResourceType::EmulatorLocal,
                    params: [("backend".to_string(), "emu-mps-mock".to_string())].into(),
                },
            ],
            default_resource: Some("emu-local".into()),
        }
    }
}

/// Builds live resources from configuration.
///
/// QPU-backed resource types need a device to wrap: register them with
/// [`ResourceFactory::with_qpu`] keyed by the `device` parameter.
pub struct ResourceFactory {
    qpus: HashMap<String, VirtualQpu>,
    seed: u64,
}

impl ResourceFactory {
    pub fn new(seed: u64) -> Self {
        ResourceFactory {
            qpus: HashMap::new(),
            seed,
        }
    }

    /// Provide a device for `qpu:*` resources referencing it by name.
    pub fn with_qpu(mut self, name: impl Into<String>, qpu: VirtualQpu) -> Self {
        self.qpus.insert(name.into(), qpu);
        self
    }

    fn build_emulator(&self, cfg: &ResourceConfig) -> Result<Arc<dyn Emulator>, ConfigError> {
        let backend = cfg
            .params
            .get("backend")
            .map(String::as_str)
            .unwrap_or("emu-sv");
        match backend {
            "emu-sv" => Ok(Arc::new(SvBackend::default())),
            "emu-mps" => {
                let chi = match cfg.params.get("chi") {
                    None => 16,
                    Some(v) => v.parse::<usize>().map_err(|_| ConfigError::BadValue {
                        key: cfg.key("chi"),
                        value: v.clone(),
                        expected: "positive integer",
                    })?,
                };
                Ok(Arc::new(MpsBackend {
                    config: MpsConfig {
                        chi_max: chi.max(1),
                        ..MpsConfig::default()
                    },
                    ..MpsBackend::default()
                }))
            }
            "emu-mps-mock" => Ok(Arc::new(MpsBackend::product_state_mock())),
            other => Err(ConfigError::BadValue {
                key: cfg.key("backend"),
                value: other.to_string(),
                expected: "emu-sv | emu-mps | emu-mps-mock",
            }),
        }
    }

    /// Build one resource.
    pub fn build(&self, cfg: &ResourceConfig) -> Result<Arc<dyn QuantumResource>, ConfigError> {
        match cfg.rtype {
            ResourceType::EmulatorLocal => {
                let emu = self.build_emulator(cfg)?;
                Ok(Arc::new(LocalEmulatorResource::new(
                    &cfg.id, emu, self.seed,
                )))
            }
            ResourceType::EmulatorCloud => {
                let emu = self.build_emulator(cfg)?;
                let polls = parse_u32(cfg, "queue_polls", 3)?;
                Ok(Arc::new(CloudResource::new(
                    &cfg.id,
                    CloudEngine::Emulator(emu),
                    polls,
                    self.seed,
                )))
            }
            ResourceType::QpuDirect => {
                let qpu = self.lookup_qpu(cfg)?;
                Ok(Arc::new(QpuDirectResource::new(&cfg.id, qpu, self.seed)))
            }
            ResourceType::QpuCloud => {
                let qpu = self.lookup_qpu(cfg)?;
                let polls = parse_u32(cfg, "queue_polls", 5)?;
                Ok(Arc::new(CloudResource::new(
                    &cfg.id,
                    CloudEngine::Qpu(qpu),
                    polls,
                    self.seed,
                )))
            }
            ResourceType::Daemon => Err(ConfigError::BadValue {
                key: cfg.key("type"),
                value: "daemon".into(),
                expected: "a device type: hpcqc-core's RuntimeConfig builds daemon entries",
            }),
        }
    }

    fn lookup_qpu(&self, cfg: &ResourceConfig) -> Result<VirtualQpu, ConfigError> {
        let device = cfg
            .params
            .get("device")
            .map(String::as_str)
            .unwrap_or(cfg.id.as_str());
        self.qpus
            .get(device)
            .cloned()
            .ok_or_else(|| ConfigError::UnknownResource(device.to_string()))
    }

    /// Build every configured resource but the `daemon` entries into a
    /// registry (`hpcqc-core` holds the REST client those need).
    pub fn build_registry(&self, cfg: &QrmiConfig) -> Result<ResourceRegistry, ConfigError> {
        let mut reg = ResourceRegistry::new();
        for rc in &cfg.resources {
            if rc.rtype != ResourceType::Daemon {
                reg.register(self.build(rc)?);
            }
        }
        reg.default_resource = cfg.default_resource.clone();
        Ok(reg)
    }
}

fn parse_u32(cfg: &ResourceConfig, key: &str, default: u32) -> Result<u32, ConfigError> {
    match cfg.params.get(key) {
        None => Ok(default),
        Some(v) => v.parse::<u32>().map_err(|_| ConfigError::BadValue {
            key: cfg.key(key),
            value: v.clone(),
            expected: "non-negative integer",
        }),
    }
}

/// The set of resources a runtime / daemon can dispatch to.
#[derive(Default)]
pub struct ResourceRegistry {
    resources: HashMap<String, Arc<dyn QuantumResource>>,
    /// Resource used when the client doesn't pass `--qpu`.
    pub default_resource: Option<String>,
}

impl ResourceRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a resource (replaces an existing one with the same id).
    pub fn register(&mut self, res: Arc<dyn QuantumResource>) {
        self.resources.insert(res.resource_id().to_string(), res);
    }

    /// Look up by id.
    pub fn get(&self, id: &str) -> Option<Arc<dyn QuantumResource>> {
        self.resources.get(id).cloned()
    }

    /// Resolve an optional `--qpu` selection against the default.
    pub fn resolve(
        &self,
        selection: Option<&str>,
    ) -> Result<Arc<dyn QuantumResource>, ConfigError> {
        let id = selection
            .map(str::to_string)
            .or_else(|| self.default_resource.clone())
            .ok_or_else(|| ConfigError::MissingKey("QRMI_DEFAULT_RESOURCE".into()))?;
        self.get(&id).ok_or(ConfigError::UnknownResource(id))
    }

    /// Sorted resource ids.
    pub fn ids(&self) -> Vec<String> {
        let mut v: Vec<String> = self.resources.keys().cloned().collect();
        v.sort();
        v
    }

    /// Number of registered resources.
    pub fn len(&self) -> usize {
        self.resources.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.resources.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env() -> BTreeMap<String, String> {
        [
            ("QRMI_RESOURCES", "fresnel-1,emu-local,emu-cloud"),
            ("QRMI_DEFAULT_RESOURCE", "emu-local"),
            ("QRMI_RESOURCE_FRESNEL_1_TYPE", "qpu:direct"),
            ("QRMI_RESOURCE_FRESNEL_1_DEVICE", "fresnel-1"),
            ("QRMI_RESOURCE_EMU_LOCAL_TYPE", "emulator:local"),
            ("QRMI_RESOURCE_EMU_LOCAL_BACKEND", "emu-mps"),
            ("QRMI_RESOURCE_EMU_LOCAL_CHI", "8"),
            ("QRMI_RESOURCE_EMU_CLOUD_TYPE", "emulator:cloud"),
            ("QRMI_RESOURCE_EMU_CLOUD_QUEUE_POLLS", "2"),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
    }

    #[test]
    fn parses_full_configuration() {
        let cfg = QrmiConfig::from_map(&env()).unwrap();
        assert_eq!(cfg.resources.len(), 3);
        assert_eq!(cfg.default_resource.as_deref(), Some("emu-local"));
        let emu = cfg.resources.iter().find(|r| r.id == "emu-local").unwrap();
        assert_eq!(emu.rtype, ResourceType::EmulatorLocal);
        assert_eq!(emu.params["backend"], "emu-mps");
        assert_eq!(emu.params["chi"], "8");
    }

    #[test]
    fn missing_resources_key_fails() {
        let e = BTreeMap::new();
        assert!(matches!(
            QrmiConfig::from_map(&e),
            Err(ConfigError::MissingKey(_))
        ));
    }

    #[test]
    fn missing_type_fails() {
        let mut e = env();
        e.remove("QRMI_RESOURCE_EMU_LOCAL_TYPE");
        assert!(matches!(
            QrmiConfig::from_map(&e),
            Err(ConfigError::MissingKey(k)) if k.contains("EMU_LOCAL_TYPE")
        ));
    }

    #[test]
    fn bad_type_fails() {
        let mut e = env();
        e.insert("QRMI_RESOURCE_EMU_LOCAL_TYPE".into(), "abacus".into());
        assert!(matches!(
            QrmiConfig::from_map(&e),
            Err(ConfigError::BadValue { .. })
        ));
    }

    #[test]
    fn default_must_be_configured_resource() {
        let mut e = env();
        e.insert("QRMI_DEFAULT_RESOURCE".into(), "ghost".into());
        assert!(matches!(
            QrmiConfig::from_map(&e),
            Err(ConfigError::UnknownResource(r)) if r == "ghost"
        ));
    }

    #[test]
    fn factory_builds_all_types() {
        let cfg = QrmiConfig::from_map(&env()).unwrap();
        let factory =
            ResourceFactory::new(7).with_qpu("fresnel-1", VirtualQpu::new("fresnel-1", 3));
        let reg = factory.build_registry(&cfg).unwrap();
        assert_eq!(reg.len(), 3);
        assert_eq!(
            reg.get("fresnel-1").unwrap().resource_type(),
            ResourceType::QpuDirect
        );
        assert_eq!(
            reg.get("emu-cloud").unwrap().resource_type(),
            ResourceType::EmulatorCloud
        );
    }

    #[test]
    fn factory_fails_without_device() {
        let cfg = QrmiConfig::from_map(&env()).unwrap();
        let factory = ResourceFactory::new(7); // no QPU registered
        assert!(matches!(
            factory.build_registry(&cfg),
            Err(ConfigError::UnknownResource(_))
        ));
    }

    #[test]
    fn registry_resolution_uses_default_and_override() {
        let cfg = QrmiConfig::from_map(&env()).unwrap();
        let factory =
            ResourceFactory::new(7).with_qpu("fresnel-1", VirtualQpu::new("fresnel-1", 3));
        let reg = factory.build_registry(&cfg).unwrap();
        // default: emu-local
        assert_eq!(reg.resolve(None).unwrap().resource_id(), "emu-local");
        // explicit --qpu=fresnel-1: the single-switch backend change of §3.2
        assert_eq!(
            reg.resolve(Some("fresnel-1")).unwrap().resource_id(),
            "fresnel-1"
        );
        assert!(matches!(
            reg.resolve(Some("ghost")),
            Err(ConfigError::UnknownResource(_))
        ));
    }

    #[test]
    fn development_default_works_out_of_the_box() {
        let cfg = QrmiConfig::development_default();
        let reg = ResourceFactory::new(1).build_registry(&cfg).unwrap();
        assert!(reg.get("emu-local").is_some());
        assert!(reg.get("mock").is_some());
        let r = reg.resolve(None).unwrap();
        assert_eq!(r.resource_id(), "emu-local");
    }

    #[test]
    fn bad_chi_value_fails() {
        let mut e = env();
        e.insert("QRMI_RESOURCE_EMU_LOCAL_CHI".into(), "many".into());
        let cfg = QrmiConfig::from_map(&e).unwrap();
        let factory =
            ResourceFactory::new(7).with_qpu("fresnel-1", VirtualQpu::new("fresnel-1", 3));
        assert!(matches!(
            factory.build_registry(&cfg),
            Err(ConfigError::BadValue { .. })
        ));
    }
}
