//! The replicated control plane in one run: two shards behind the
//! consistent-hash gateway, a real HTTP workload over localhost sockets,
//! then shard 0's leader dies — the prober notices, the shipped follower is
//! promoted onto the shard's failover address, and the dead shard's session
//! tokens keep working because their opens were replicated before the kill.
//!
//! Run: `cargo run --release --example replicated_site`

use hpcqc::emulator::SvBackend;
use hpcqc::middleware::{
    DaemonConfig, FollowerReplica, Gateway, GatewayConfig, HttpClient, MiddlewareService,
    ShardConfig, Site,
};
use hpcqc::qrmi::LocalEmulatorResource;
use std::sync::Arc;
use std::time::Duration;

fn resource() -> Arc<LocalEmulatorResource> {
    Arc::new(LocalEmulatorResource::new(
        "emu",
        Arc::new(SvBackend::default()),
        1,
    ))
}

fn post(addr: &str, path: &str, body: &str) -> (u16, String) {
    HttpClient::new(addr)
        .request("POST", path, Some(body))
        .expect("http request")
}

fn get(addr: &str, path: &str) -> (u16, String) {
    HttpClient::new(addr)
        .request("GET", path, None)
        .expect("http request")
}

fn main() {
    // Shard 0: leader with a shipping follower. Shard 1: plain leader.
    let dir_l = std::env::temp_dir().join(format!("verify-gw-leader-{}", std::process::id()));
    let dir_f = std::env::temp_dir().join(format!("verify-gw-follower-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir_l);
    let _ = std::fs::remove_dir_all(&dir_f);

    // Each shard runs the dispatcher `hpcqcd` would run.
    let leader = MiddlewareService::recover(&dir_l, resource(), DaemonConfig::default())
        .expect("leader recovers");
    leader.enable_shipping().expect("shipping enables");
    let site_a = Site::spawn(leader, 0).expect("shard 0 serves");
    let pump = site_a.service().spawn_shipper(
        FollowerReplica::open(&dir_f).expect("replica opens"),
        "standby",
        Duration::from_millis(2),
    );
    let plain = MiddlewareService::new(resource(), DaemonConfig::default());
    let site_b = Site::spawn(plain, 0).expect("shard 1 serves");

    // Reserve the port the promoted follower will come up on.
    let reserved = std::net::TcpListener::bind("127.0.0.1:0").expect("reserve port");
    let follower_addr = reserved.local_addr().expect("addr").to_string();

    let gw = Arc::new(Gateway::new(GatewayConfig {
        shards: vec![
            ShardConfig {
                name: "s0".into(),
                primary: site_a.addr(),
                follower: Some(follower_addr.clone()),
            },
            ShardConfig {
                name: "s1".into(),
                primary: site_b.addr(),
                follower: None,
            },
        ],
    }));
    let gw_server = gw.serve(0).expect("gateway serves");
    let gw_addr = gw_server.addr();
    println!(
        "gateway on {gw_addr}, shards s0={} s1={}",
        site_a.addr(),
        site_b.addr()
    );

    // A real workload through the gateway: open sessions, submit, wait.
    let mut tokens = Vec::new();
    for u in 0..8 {
        let (status, body) = post(
            &gw_addr,
            "/v1/sessions",
            &format!(r#"{{"user":"user-{u}","class":"test"}}"#),
        );
        assert_eq!(status, 201, "session opens via gateway: {body}");
        let token = body
            .split("\"token\":\"")
            .nth(1)
            .and_then(|s| s.split('"').next())
            .expect("token in body")
            .to_string();
        tokens.push(token);
    }
    println!("PASS: 8 sessions opened through the gateway");

    let (status, body) = get(&gw_addr, "/v1/sessions");
    assert_eq!(status, 200);
    assert_eq!(
        body.matches("\"user\":").count(),
        8,
        "aggregated view: {body}"
    );
    println!("PASS: cross-shard session aggregation sees all 8");

    let (status, body) = get(&gw_addr, "/metrics");
    assert!(status == 200 && body.contains("# shard: s0") && body.contains("# shard: s1"));
    println!("PASS: /metrics aggregates both shards");

    // Pick a token the ring placed on shard 0 — that's the one whose route
    // must flip to the promoted follower.
    let (_, s0_sessions) = get(&site_a.addr(), "/v1/sessions");
    let s0_token = tokens
        .iter()
        .find(|t| s0_sessions.contains(t.as_str()))
        .expect("at least one session landed on shard 0")
        .clone();

    // Kill shard 0's leader abruptly; its sessions dangle until failover.
    let report = site_a.service().shutdown(Duration::from_millis(200));
    println!(
        "shard 0 leader down (dispatched {} on the way out)",
        report.dispatched
    );
    drop(pump.stop());
    let last_acked = site_a.service().last_acked();
    drop(site_a);

    // Free the reserved port first: the prober would wait out its 30 s read
    // timeout on a bound socket that never accepts.
    drop(reserved);
    let probes = gw.probe_once();
    let (status, _) = get(&gw_addr, "/v1/readyz");
    println!("after kill: {probes}/2 shards ready, gateway readyz {status}");
    assert_eq!(probes, 1);

    // Promote the shipped follower onto the reserved address and reprobe.
    let port = follower_addr.rsplit(':').next().unwrap().parse().unwrap();
    let promoted =
        MiddlewareService::promote(&dir_f, resource(), DaemonConfig::default(), last_acked)
            .expect("promotion succeeds");
    let _site_f = Site::spawn(promoted, port).expect("promoted serves");
    assert_eq!(gw.probe_once(), 2);
    println!("PASS: follower promoted, prober flipped s0 to {follower_addr}");

    // The shard 0 session token still routes — closed on the replica, which
    // only knows it because the open was shipped before the kill.
    let (status, body) = HttpClient::new(&gw_addr)
        .request("DELETE", &format!("/v1/sessions/{s0_token}"), None)
        .expect("http request");
    assert_eq!(status, 200, "session survives failover: {body}");
    let (status, _) = post(
        &gw_addr,
        "/v1/sessions",
        r#"{"user":"late-user","class":"test"}"#,
    );
    assert_eq!(status, 201);
    println!("PASS: pre-kill session token served by the promoted replica; new sessions admitted");

    let _ = std::fs::remove_dir_all(&dir_l);
    let _ = std::fs::remove_dir_all(&dir_f);
    println!("replicated_site: all checks passed");
}
