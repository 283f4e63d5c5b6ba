//! `hpcqcd` — the middleware daemon as a standalone service.
//!
//! The deployable form of the paper's §3.3 component: reads QRMI
//! configuration from the environment, fronts the configured resource
//! (creating virtual QPUs for `qpu:*` resources), journals every state
//! transition under `HPCQCD_JOURNAL` (default `hpcqcd-journal` in the
//! working directory) and recovers from it on boot, serves the REST API on
//! `HPCQCD_PORT` (default 7777; 0 picks a free port) with the dispatcher
//! that drains its queue running behind it (a [`Site`]). A value of it or
//! of `HPCQCD_SEED` (the virtual devices' seed) that does not parse is refused.
//!
//! ```text
//! QRMI_RESOURCES=fresnel-1 QRMI_DEFAULT_RESOURCE=fresnel-1 \
//! QRMI_RESOURCE_FRESNEL_1_TYPE=qpu:direct \
//! HPCQCD_JOURNAL=/var/lib/hpcqcd HPCQCD_PORT=7777 cargo run --release --bin hpcqcd
//! ```
//!
//! With no QRMI variables set it fronts a virtual QPU named `fresnel-1` —
//! the zero-setup way to try the multi-user stack: `cargo run --bin hpcqcd`,
//! then reach it from `hpcqc` as a `daemon` resource:
//! `QRMI_RESOURCES=site QRMI_RESOURCE_SITE_TYPE=daemon
//! QRMI_RESOURCE_SITE_ADDR=127.0.0.1:7777 cargo run --bin hpcqc -- target --qpu site`.
//! A `daemon` entry cannot be the resource `hpcqcd` itself fronts.

use hpcqc::middleware::{DaemonConfig, MiddlewareService, Site};
use hpcqc::qpu::VirtualQpu;
use hpcqc::qrmi::{QrmiConfig, ResourceConfig, ResourceFactory, ResourceType};
use std::collections::BTreeMap;
use std::str::FromStr;

fn default_config() -> QrmiConfig {
    QrmiConfig {
        resources: vec![ResourceConfig {
            id: "fresnel-1".into(),
            rtype: ResourceType::QpuDirect,
            params: [("device".to_string(), "fresnel-1".to_string())].into(),
        }],
        default_resource: Some("fresnel-1".into()),
    }
}

/// The variable `name` parsed, `or` when it is unset.
fn parsed<T: FromStr>(env: &BTreeMap<String, String>, name: &str, or: T) -> Result<T, String> {
    let refuse = |v| format!("{name}={v} does not parse");
    env.get(name)
        .map_or(Ok(or), |v| v.parse().map_err(|_| refuse(v)))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let env: BTreeMap<String, String> = std::env::vars().collect();
    let port: u16 = parsed(&env, "HPCQCD_PORT", 7777)?;
    let seed: u64 = parsed(&env, "HPCQCD_SEED", 0xda3)?;
    let cfg = if env.contains_key("QRMI_RESOURCES") {
        QrmiConfig::from_map(&env)?
    } else {
        eprintln!("hpcqcd: no QRMI_RESOURCES set; fronting a virtual QPU `fresnel-1`");
        default_config()
    };

    // create a virtual device for every qpu-typed resource
    let mut factory = ResourceFactory::new(seed);
    let mut admin_qpu: Option<VirtualQpu> = None;
    for rc in &cfg.resources {
        if matches!(rc.rtype, ResourceType::QpuDirect | ResourceType::QpuCloud) {
            let device = rc
                .params
                .get("device")
                .cloned()
                .unwrap_or_else(|| rc.id.clone());
            let qpu = VirtualQpu::new(&device, seed ^ 0x51);
            if admin_qpu.is_none() {
                admin_qpu = Some(qpu.clone());
            }
            factory = factory.with_qpu(device, qpu);
        }
    }
    let front = cfg
        .default_resource
        .clone()
        .ok_or("QRMI_DEFAULT_RESOURCE must name the resource the daemon fronts")?;
    let fronted = cfg.resources.iter().find(|r| r.id == front);
    if fronted.is_some_and(|r| r.rtype == ResourceType::Daemon) {
        return Err(format!("{front:?} is a daemon resource: hpcqcd fronts a device").into());
    }
    // `daemon` entries are built by the runtime, not the factory, so other
    // ones in the list are left out here
    let registry = factory.build_registry(&cfg)?;
    let resource = registry
        .get(&front)
        .ok_or_else(|| format!("default resource {front:?} not configured"))?;

    let journal = env
        .get("HPCQCD_JOURNAL")
        .map_or("hpcqcd-journal", String::as_str);
    let mut service = MiddlewareService::recover(journal, resource, DaemonConfig::default())?;
    if let Some(qpu) = admin_qpu {
        service = service.with_qpu_admin(qpu);
    }
    let site = Site::spawn(service, port)?;
    println!(
        "hpcqcd: fronting {front:?}, journal {journal:?}, REST on http://{}",
        site.addr()
    );
    println!("hpcqcd: dispatcher running; Ctrl-C to stop");
    loop {
        std::thread::park();
    }
}
