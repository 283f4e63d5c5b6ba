//! `hpcqcd` — the middleware daemon as a standalone service.
//!
//! The deployable form of the paper's §3.3 component: reads QRMI
//! configuration from the environment, fronts the configured resource
//! (creating virtual QPUs for `qpu:*` resources), journals every state
//! transition under `HPCQCD_JOURNAL` (default `hpcqcd-journal` in the
//! working directory) and recovers from it on boot, serves the REST API on
//! `HPCQCD_PORT` (default 7777; 0 picks a free port) and runs a background
//! dispatcher.
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

use hpcqc::middleware::rest::serve_on;
use hpcqc::middleware::{DaemonConfig, MiddlewareService};
use hpcqc::qpu::VirtualQpu;
use hpcqc::qrmi::{QrmiConfig, ResourceConfig, ResourceFactory, ResourceType};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

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

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let env: BTreeMap<String, String> = std::env::vars().collect();
    let cfg = if env.contains_key("QRMI_RESOURCES") {
        QrmiConfig::from_map(&env)?
    } else {
        eprintln!("hpcqcd: no QRMI_RESOURCES set; fronting a virtual QPU `fresnel-1`");
        default_config()
    };

    // create a virtual device for every qpu-typed resource
    let seed: u64 = env
        .get("HPCQCD_SEED")
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xda3);
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
    let service = Arc::new(service);
    // The interval is idle housekeeping (journal sync, session expiry), not
    // a latency floor: submits wake the dispatcher.
    let _dispatcher = service.spawn_dispatcher(Duration::from_millis(20));

    let port: u16 = env
        .get("HPCQCD_PORT")
        .and_then(|s| s.parse().ok())
        .unwrap_or(7777);
    let server = serve_on(Arc::clone(&service), port)?;
    println!(
        "hpcqcd: fronting {front:?}, journal {journal:?}, REST on http://{}",
        server.addr()
    );
    println!("hpcqcd: dispatcher running; Ctrl-C to stop");
    loop {
        std::thread::park();
    }
}
