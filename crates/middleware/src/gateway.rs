//! Consistent-hash gateway: one front door over N replicated shards.
//!
//! The replication layer (journal shipping + [`promote`]) makes a *single*
//! shard survivable; this module makes the fleet usable. The gateway owns a
//! consistent-hash ring of shards — each a leader daemon plus an optional
//! follower — and:
//!
//! * **routes** REST traffic by session placement: the session token (path,
//!   query, or JSON request body) or the submitting user hashes onto the
//!   ring, so a session's whole lifetime lands on one shard and virtual
//!   nodes keep the load spread even. Bodies proxy as opaque bytes — binary
//!   wire frames and batch payloads are never parsed here; their placement
//!   key is the `?token=` query parameter,
//! * **health-checks** shards via their `GET /v1/readyz` probes — readiness,
//!   not liveness: a draining leader or an unpromoted follower answers 503
//!   there while `healthz` stays green,
//! * **fails over**: when a shard's active replica stops being ready, the
//!   gateway probes the configured follower and — once that follower is
//!   promoted and answers ready — moves the shard's traffic to it,
//! * **aggregates** `GET /metrics` and the `GET /v1/sessions` quota view
//!   across every shard, so operators keep one pane of glass.
//!
//! The gateway itself serves on the same epoll event-loop server as the
//! daemons ([`crate::server`]), so the whole fleet speaks one transport.
//!
//! [`promote`]: crate::daemon::MiddlewareService::promote

use crate::http::{Handler, HttpClient, Request, Response};
use crate::protocol::Codec;
use crate::server::{HttpServer, ServerConfig};
use hpcqc_sync::{rank, TrackedMutex};
use hpcqc_telemetry::{catalog, labels, Registry};
use std::sync::Arc;

/// One shard: a leader daemon and (optionally) its warm-standby follower.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Stable shard name — the ring hashes this, so renaming a shard moves
    /// its sessions.
    pub name: String,
    /// `host:port` of the shard's leader.
    pub primary: String,
    /// `host:port` where the shard's follower serves once promoted.
    pub follower: Option<String>,
}

/// Gateway configuration.
#[derive(Debug, Clone, Default)]
pub struct GatewayConfig {
    pub shards: Vec<ShardConfig>,
}

/// Points per shard on the hash ring: enough that every shard's arcs add
/// up to a fair share of the sessions
/// (`ring_spreads_sessions_and_placement_is_sticky` checks three shards),
/// few enough that building the ring is free. No deployment, example or
/// benchmark has used another value.
const VIRTUAL_NODES: usize = 64;

/// Live routing state for one shard.
struct ShardState {
    cfg: ShardConfig,
    /// Address currently receiving this shard's traffic.
    active: String,
    /// Last probe verdict (readyz 200 on `active`).
    ready: bool,
    /// Pooled keep-alive client to `active`.
    client: Arc<HttpClient>,
}

/// The routing table guarded by one lock ([`rank::GATEWAY_ROUTES`] — the
/// outermost rank in the hierarchy: the guard is always dropped before any
/// proxy I/O, and never held across a daemon call).
struct RouteTable {
    shards: Vec<ShardState>,
    /// Sorted `(hash point, shard index)` ring.
    ring: Vec<(u64, usize)>,
    /// Cursor for keyless requests (spread over ready shards).
    round_robin: u64,
    /// Sticky placement: session token → shard index, learned from session
    /// creation responses. Tokens are minted by the shard, so the hash ring
    /// alone cannot recover where a session lives — this table can. Entries
    /// are dropped when the session closes through the gateway; on a gateway
    /// restart the table rebuilds as sessions are recreated (stale tokens
    /// fall back to the ring and get the shard's own 401).
    sessions: std::collections::HashMap<String, usize>,
}

/// How a request names its placement on the ring.
enum RouteKey {
    /// An existing session's token: must reach the shard that minted it.
    Token(String),
    /// A session-creating user: any ready shard, chosen by consistent hash
    /// so one user's sessions (and quota) colocate.
    User(String),
    /// No placement information: spread over ready shards.
    Keyless,
}

/// 64-bit FNV-1a with a murmur-style avalanche (ring placement; unrelated to
/// the WAL's 32-bit frame CRC). Raw FNV clusters on short, similar strings
/// like `s0#17` / `s1#17` — the finalizer spreads the vnode points so arc
/// lengths (and thus session placement) stay even.
fn hash64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// The consistent-hash gateway. Cheap to share: wrap in an [`Arc`] and hand
/// clones of the [`handler`](Self::handler) to the server.
pub struct Gateway {
    routes: TrackedMutex<RouteTable>,
    registry: Registry,
}

impl Gateway {
    pub fn new(cfg: GatewayConfig) -> Self {
        let mut ring = Vec::with_capacity(cfg.shards.len() * VIRTUAL_NODES);
        for (i, shard) in cfg.shards.iter().enumerate() {
            for v in 0..VIRTUAL_NODES {
                ring.push((hash64(format!("{}#{v}", shard.name).as_bytes()), i));
            }
        }
        ring.sort_unstable();
        let shards = cfg
            .shards
            .into_iter()
            .map(|cfg| ShardState {
                active: cfg.primary.clone(),
                // Optimistic until the first probe: a gateway brought up
                // before its shards must not blackhole the initial requests.
                ready: true,
                client: Arc::new(HttpClient::new(cfg.primary.clone())),
                cfg,
            })
            .collect();
        Gateway {
            routes: TrackedMutex::new(
                "middleware.gateway.routes",
                rank::GATEWAY_ROUTES,
                RouteTable {
                    shards,
                    ring,
                    round_robin: 0,
                    sessions: Default::default(),
                },
            ),
            registry: Registry::new(),
        }
    }

    /// The gateway's own metrics registry (probes, failovers, routing).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The session-placement key for `req`: the session token from the path
    /// (`/v1/sessions/{token}`), the `token` query parameter, or — for JSON
    /// bodies only — the request body (`token`, else `user` for session
    /// creation, else the first element's `token` for batch arrays — so all
    /// of a user's sessions land on one shard and its quota view stays
    /// local). The SDK puts `?token=` on every session-scoped call in
    /// either codec, so its submits are placed without parsing the program
    /// body; the sniff serves clients that omit the query. Binary wire
    /// bodies are never sniffed.
    fn placement_key(req: &Request) -> RouteKey {
        let segs: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
        if let ["v1", "sessions", token] = segs.as_slice() {
            return RouteKey::Token((*token).to_string());
        }
        if let Some(token) = req.query.get("token") {
            return RouteKey::Token(token.clone());
        }
        let content_type = req.headers.get("content-type").map_or("", String::as_str);
        if Codec::named(content_type) == Some(Codec::Binary) {
            return RouteKey::Keyless;
        }
        if let Ok(body) = req.body_str() {
            if let Ok(v) = serde_json::from_str::<serde_json::Value>(body) {
                if let Some(token) = v["token"].as_str().or_else(|| v[0]["token"].as_str()) {
                    return RouteKey::Token(token.to_string());
                }
                if let Some(user) = v["user"].as_str() {
                    return RouteKey::User(user.to_string());
                }
            }
        }
        RouteKey::Keyless
    }

    /// Pick the shard for `key`. Returns the shard's index, name, client and
    /// readiness; the routing lock is released before any I/O.
    fn pick(&self, key: &RouteKey) -> Option<(usize, String, Arc<HttpClient>, bool)> {
        let mut t = self.routes.lock();
        if t.shards.is_empty() {
            return None;
        }
        let ring_start = |t: &RouteTable, k: &str| {
            let h = hash64(k.as_bytes());
            match t.ring.binary_search(&(h, usize::MAX)) {
                Ok(i) | Err(i) => i % t.ring.len(),
            }
        };
        let idx = match key {
            // A token is pinned: its session state lives on exactly one
            // shard, so an unready shard means 503-and-retry, never a
            // spill to a shard that has no idea who this token is.
            RouteKey::Token(token) => match t.sessions.get(token) {
                Some(&i) => i,
                None => t.ring[ring_start(&t, token)].1,
            },
            // Users and keyless requests may spill: walk the ring from the
            // hash point to the first *ready* shard — consistent hashing's
            // natural failover, only the failed shard's keys move. If
            // nothing is ready, keep the original pick and let the proxy
            // surface the 503.
            RouteKey::User(_) | RouteKey::Keyless => {
                let start = match key {
                    RouteKey::User(user) => ring_start(&t, user),
                    _ => {
                        t.round_robin = t.round_robin.wrapping_add(1);
                        (t.round_robin as usize).wrapping_mul(t.ring.len() / t.shards.len().max(1))
                            % t.ring.len()
                    }
                };
                let mut idx = t.ring[start].1;
                for step in 0..t.ring.len() {
                    let (_, i) = t.ring[(start + step) % t.ring.len()];
                    if t.shards[i].ready {
                        idx = i;
                        break;
                    }
                }
                idx
            }
        };
        let s = &t.shards[idx];
        Some((idx, s.cfg.name.clone(), Arc::clone(&s.client), s.ready))
    }

    /// Mark `shard` unready after a transport failure (next probe may
    /// restore it or fail it over).
    fn mark_unready(&self, shard: &str) {
        let mut t = self.routes.lock();
        if let Some(s) = t.shards.iter_mut().find(|s| s.cfg.name == shard) {
            s.ready = false;
        }
    }

    /// Probe every shard's `readyz` once; fail traffic over to the follower
    /// when the active replica is not ready but the follower is. Returns the
    /// number of ready shards. Run periodically (see [`spawn_prober`]).
    ///
    /// [`spawn_prober`]: Self::spawn_prober
    pub fn probe_once(&self) -> usize {
        let targets: Vec<(String, String, Option<String>)> = {
            let t = self.routes.lock();
            t.shards
                .iter()
                .map(|s| (s.cfg.name.clone(), s.active.clone(), s.cfg.follower.clone()))
                .collect()
        };
        let mut ready_count = 0;
        for (name, active, follower) in targets {
            let active_ready = probe_ready(&active);
            let ready = if active_ready { "yes" } else { "no" };
            self.registry.inc(
                &catalog::GATEWAY_PROBES,
                labels(&[("shard", &name), ("ready", ready)]),
                1.0,
            );
            if active_ready {
                ready_count += 1;
                self.set_ready(&name, true);
                continue;
            }
            // Active replica is out. If a follower exists, is not already
            // the active address, and answers ready (i.e. it was promoted),
            // move the shard's traffic over.
            let promoted = follower.filter(|f| *f != active).filter(|f| probe_ready(f));
            match promoted {
                Some(addr) => {
                    self.fail_over(&name, &addr);
                    ready_count += 1;
                }
                None => self.set_ready(&name, false),
            }
        }
        ready_count
    }

    fn set_ready(&self, shard: &str, ready: bool) {
        let mut t = self.routes.lock();
        if let Some(s) = t.shards.iter_mut().find(|s| s.cfg.name == shard) {
            s.ready = ready;
        }
    }

    fn fail_over(&self, shard: &str, addr: &str) {
        let mut t = self.routes.lock();
        if let Some(s) = t.shards.iter_mut().find(|s| s.cfg.name == shard) {
            s.active = addr.to_string();
            s.client = Arc::new(HttpClient::new(addr.to_string()));
            s.ready = true;
        }
        drop(t);
        self.registry.inc(
            &catalog::GATEWAY_SHARD_FAILOVERS,
            labels(&[("shard", shard)]),
            1.0,
        );
    }

    /// Route one request. Aggregation routes (`/metrics`, `/v1/sessions`,
    /// the gateway's own healthz/readyz) are answered here; everything else
    /// proxies to its shard.
    pub fn route(&self, req: &Request) -> Response {
        let segs: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
        match (req.method.as_str(), segs.as_slice()) {
            ("GET", ["v1", "healthz"]) => Response::json(200, r#"{"status":"ok"}"#),
            ("GET", ["v1", "readyz"]) => self.readyz(),
            ("GET", ["metrics"]) => self.aggregate_metrics(),
            ("GET", ["v1", "sessions"]) => self.aggregate_sessions(),
            _ => self.proxy(req),
        }
    }

    /// Gateway readiness: 200 while at least one shard can take traffic,
    /// with the per-shard routing table in the body.
    fn readyz(&self) -> Response {
        let t = self.routes.lock();
        let shards: Vec<serde_json::Value> = t
            .shards
            .iter()
            .map(|s| {
                serde_json::json!({
                    "name": s.cfg.name,
                    "active": s.active,
                    "ready": s.ready,
                })
            })
            .collect();
        let any_ready = t.shards.iter().any(|s| s.ready);
        drop(t);
        let body = serde_json::json!({ "ready": any_ready, "shards": shards }).to_string();
        Response::json(if any_ready { 200 } else { 503 }, body)
    }

    /// One exposition for the whole fleet: the gateway's own registry plus
    /// every reachable shard's `/metrics`, delimited by shard comments.
    fn aggregate_metrics(&self) -> Response {
        let targets: Vec<(String, Arc<HttpClient>)> = {
            let t = self.routes.lock();
            t.shards
                .iter()
                .map(|s| (s.cfg.name.clone(), Arc::clone(&s.client)))
                .collect()
        };
        let mut out = self.registry.expose();
        for (name, client) in targets {
            match client.request("GET", "/metrics", None) {
                Ok((200, body)) => {
                    out.push_str(&format!("# shard: {name}\n"));
                    out.push_str(&body);
                    if !body.ends_with('\n') {
                        out.push('\n');
                    }
                }
                _ => out.push_str(&format!("# shard: {name} (unreachable)\n")),
            }
        }
        Response::text(200, out)
    }

    /// The fleet-wide session/quota view: every shard's `GET /v1/sessions`
    /// merged into one array. Unreachable shards degrade the view rather
    /// than failing it (their sessions are listed once they return).
    fn aggregate_sessions(&self) -> Response {
        let targets: Vec<Arc<HttpClient>> = {
            let t = self.routes.lock();
            t.shards.iter().map(|s| Arc::clone(&s.client)).collect()
        };
        let mut all = Vec::new();
        for client in targets {
            if let Ok((200, body)) = client.request("GET", "/v1/sessions", None) {
                if let Ok(serde_json::Value::Array(items)) = serde_json::from_str(&body) {
                    all.extend(items);
                }
            }
        }
        Response::json(200, serde_json::Value::Array(all).to_string())
    }

    /// Proxy `req` to its shard by consistent-hash placement.
    fn proxy(&self, req: &Request) -> Response {
        let key = Self::placement_key(req);
        let Some((idx, shard, client, ready)) = self.pick(&key) else {
            return Response::json(503, r#"{"error":"no shards configured"}"#);
        };
        if !ready {
            return Response::json(
                503,
                format!(r#"{{"error":"shard {shard} has no ready replica"}}"#),
            );
        }
        self.registry.inc(
            &catalog::GATEWAY_REQUESTS,
            labels(&[("shard", &shard)]),
            1.0,
        );
        let mut path = req.path.clone();
        if !req.query.is_empty() {
            let qs: Vec<String> = req.query.iter().map(|(k, v)| format!("{k}={v}")).collect();
            path = format!("{path}?{}", qs.join("&"));
        }
        // Bodies forward as raw bytes with the client's own content-type and
        // accept headers: binary wire frames and JSON alike pass through
        // without a parse (or a UTF-8 gate) at the gateway.
        let content_type = req
            .headers
            .get("content-type")
            .map(String::as_str)
            .unwrap_or("application/json");
        let accept = req.headers.get("accept").map(String::as_str);
        let body = (!req.body.is_empty()).then_some(req.body.as_slice());
        match client.request_bytes_accept(&req.method, &path, content_type, accept, body) {
            Ok(raw) => {
                self.note_session_change(req, &key, idx, raw.status, &raw.body);
                Response::bytes(raw.status, static_content_type(&raw.content_type), raw.body)
            }
            Err(e) => {
                // Transport failure: quarantine the shard until the next
                // probe and tell the client to retry (503, same contract as
                // a draining daemon — `Runtime::run_recovered` retries it).
                self.mark_unready(&shard);
                Response::json(
                    503,
                    serde_json::json!({ "error": format!("shard {shard} unreachable: {e}") })
                        .to_string(),
                )
            }
        }
    }

    /// Keep the sticky table in step with session lifecycle: a 2xx session
    /// creation pins the minted token to the shard that answered; a 2xx
    /// close (or an expired/unknown token's 401) unpins it. Only session
    /// *creation responses* (always JSON) are parsed — sticky learning never
    /// needs to look inside a submit body, so binary and batch traffic stays
    /// opaque end to end.
    fn note_session_change(
        &self,
        req: &Request,
        key: &RouteKey,
        idx: usize,
        status: u16,
        body: &[u8],
    ) {
        let creating = req.method == "POST"
            && req.path.trim_end_matches('/') == "/v1/sessions"
            && (200..300).contains(&status);
        if creating {
            if let Ok(v) = serde_json::from_slice::<serde_json::Value>(body) {
                if let Some(token) = v["token"].as_str() {
                    self.routes.lock().sessions.insert(token.to_string(), idx);
                }
            }
            return;
        }
        if let RouteKey::Token(token) = key {
            let closed = req.method == "DELETE" && (200..300).contains(&status);
            if closed || status == 401 {
                self.routes.lock().sessions.remove(token);
            }
        }
    }

    /// A [`Handler`] routing into this gateway (for serving or testing).
    pub fn handler(self: &Arc<Self>) -> Handler {
        let gw = Arc::clone(self);
        Arc::new(move |req: Request| gw.route(&req))
    }

    /// Serve the gateway on `port` (0 = ephemeral) over the epoll event-loop
    /// server.
    pub fn serve(self: &Arc<Self>, port: u16) -> std::io::Result<HttpServer> {
        HttpServer::spawn_with(port, self.handler(), ServerConfig::default())
    }

    /// Run [`probe_once`](Self::probe_once) every `interval` until the
    /// returned handle is stopped.
    pub fn spawn_prober(self: &Arc<Self>, interval: std::time::Duration) -> ProberHandle {
        let gw = Arc::clone(self);
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            while !stop2.load(std::sync::atomic::Ordering::Relaxed) {
                gw.probe_once();
                std::thread::sleep(interval);
            }
        });
        ProberHandle { stop, thread }
    }
}

/// Map a proxied response's `content-type` onto the static strings
/// [`Response`] carries. The REST API only ever answers in one of its two
/// codecs or with Prometheus text; unknown or absent types default to JSON
/// (the API's own default).
fn static_content_type(ct: &str) -> &'static str {
    match Codec::named(ct) {
        Some(codec) => codec.content_type(),
        None if ct.starts_with("text/plain") => "text/plain; version=0.0.4",
        None => "application/json",
    }
}

/// How long a readiness probe waits to connect, and then for the answer.
const PROBE_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(1);

/// One-shot readiness probe (a fresh client has no pooled connection: a
/// probe must never be fooled by — or wedge on — a stale socket to a dead
/// process; a socket that is bound but never answers costs it
/// [`PROBE_TIMEOUT`]).
fn probe_ready(addr: &str) -> bool {
    let client = HttpClient::with_timeout(addr, PROBE_TIMEOUT);
    matches!(client.request("GET", "/v1/readyz", None), Ok((200, _)))
}

/// Handle to a background probe loop ([`Gateway::spawn_prober`]).
pub struct ProberHandle {
    stop: Arc<std::sync::atomic::AtomicBool>,
    thread: std::thread::JoinHandle<()>,
}

impl ProberHandle {
    pub fn stop(self) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let _ = self.thread.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::{DaemonConfig, MiddlewareService, ReplicaRole};
    use crate::rest::serve_on;
    use hpcqc_emulator::SvBackend;
    use hpcqc_qrmi::LocalEmulatorResource;

    fn resource() -> Arc<LocalEmulatorResource> {
        Arc::new(LocalEmulatorResource::new(
            "emu",
            Arc::new(SvBackend::default()),
            1,
        ))
    }

    fn shard_daemon() -> (Arc<MiddlewareService>, HttpServer) {
        let svc = Arc::new(MiddlewareService::new(resource(), DaemonConfig::default()));
        let server = serve_on(Arc::clone(&svc), 0).unwrap();
        (svc, server)
    }

    fn get(gw: &Arc<Gateway>, path: &str) -> (u16, String) {
        let req = Request {
            method: "GET".into(),
            path: path.split('?').next().unwrap().to_string(),
            query: path
                .split_once('?')
                .map(|(_, q)| {
                    q.split('&')
                        .filter_map(|kv| kv.split_once('='))
                        .map(|(k, v)| (k.to_string(), v.to_string()))
                        .collect()
                })
                .unwrap_or_default(),
            headers: Default::default(),
            body: Vec::new(),
        };
        let resp = gw.route(&req);
        (resp.status, String::from_utf8(resp.body).unwrap())
    }

    fn post(gw: &Arc<Gateway>, path: &str, body: &str) -> (u16, String) {
        let req = Request {
            method: "POST".into(),
            path: path.to_string(),
            query: Default::default(),
            headers: Default::default(),
            body: body.as_bytes().to_vec(),
        };
        let resp = gw.route(&req);
        (resp.status, String::from_utf8(resp.body).unwrap())
    }

    #[test]
    fn ring_spreads_sessions_and_placement_is_sticky() {
        let gw = Gateway::new(GatewayConfig {
            shards: vec![
                ShardConfig {
                    name: "s0".into(),
                    primary: "127.0.0.1:1".into(),
                    follower: None,
                },
                ShardConfig {
                    name: "s1".into(),
                    primary: "127.0.0.1:2".into(),
                    follower: None,
                },
                ShardConfig {
                    name: "s2".into(),
                    primary: "127.0.0.1:3".into(),
                    follower: None,
                },
            ],
        });
        let mut counts = std::collections::HashMap::new();
        for i in 0..300 {
            let key = RouteKey::User(format!("user-{i}"));
            let (_, a, _, _) = gw.pick(&key).unwrap();
            let (_, b, _, _) = gw.pick(&key).unwrap();
            assert_eq!(a, b, "placement must be deterministic");
            *counts.entry(a).or_insert(0) += 1;
        }
        assert_eq!(counts.len(), 3, "all shards take sessions: {counts:?}");
        for (shard, n) in &counts {
            assert!(
                (50..=200).contains(n),
                "virtual nodes keep placement roughly even, {shard} got {n}"
            );
        }
    }

    #[test]
    fn routes_sessions_end_to_end_and_aggregates_views() {
        let (_svc_a, server_a) = shard_daemon();
        let (_svc_b, server_b) = shard_daemon();
        let gw = Arc::new(Gateway::new(GatewayConfig {
            shards: vec![
                ShardConfig {
                    name: "a".into(),
                    primary: server_a.addr().to_string(),
                    follower: None,
                },
                ShardConfig {
                    name: "b".into(),
                    primary: server_b.addr().to_string(),
                    follower: None,
                },
            ],
        }));
        // open enough sessions that both shards see some
        let mut tokens = Vec::new();
        for i in 0..8 {
            let (st, body) = post(
                &gw,
                "/v1/sessions",
                &format!(r#"{{"user":"u{i}","class":"test"}}"#),
            );
            assert_eq!(st, 201, "{body}");
            let v: serde_json::Value = serde_json::from_str(&body).unwrap();
            tokens.push(v["token"].as_str().unwrap().to_string());
        }
        // the aggregated quota view sees every session, whichever shard
        let (st, body) = get(&gw, "/v1/sessions");
        assert_eq!(st, 200);
        let v: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v.as_array().unwrap().len(), 8, "{body}");
        // token-keyed routes reach the session's shard (close succeeds)
        for token in &tokens {
            let req = Request {
                method: "DELETE".into(),
                path: format!("/v1/sessions/{token}"),
                query: Default::default(),
                headers: Default::default(),
                body: Vec::new(),
            };
            let resp = gw.route(&req);
            assert_eq!(resp.status, 200, "session must close via its shard");
        }
        // aggregated metrics carry both shard expositions + gateway counters
        let (st, body) = get(&gw, "/metrics");
        assert_eq!(st, 200);
        assert!(body.contains("# shard: a\n"), "missing shard a section");
        assert!(body.contains("# shard: b\n"), "missing shard b section");
        assert!(body.contains("gateway_requests_total"));
    }

    #[test]
    fn probe_fails_over_to_promoted_follower_and_routes_there() {
        let (svc_a, server_a) = shard_daemon();
        let (svc_b, server_b) = shard_daemon();
        // b starts as an unpromoted follower: alive, not ready
        svc_b.set_role(ReplicaRole::Follower);
        let gw = Arc::new(Gateway::new(GatewayConfig {
            shards: vec![ShardConfig {
                name: "s0".into(),
                primary: server_a.addr().to_string(),
                follower: Some(server_b.addr().to_string()),
            }],
        }));
        assert_eq!(gw.probe_once(), 1, "primary serving");
        let (st, _) = post(&gw, "/v1/sessions", r#"{"user":"u","class":"test"}"#);
        assert_eq!(st, 201);
        // leader drains; follower not yet promoted → shard has no ready
        // replica and the gateway says so on its own readyz
        svc_a.shutdown(std::time::Duration::from_millis(20));
        assert_eq!(gw.probe_once(), 0);
        let (st, body) = get(&gw, "/v1/readyz");
        assert_eq!(st, 503, "{body}");
        // promotion flips the follower's readyz; the next probe moves traffic
        svc_b.set_role(ReplicaRole::Leader);
        assert_eq!(gw.probe_once(), 1);
        let (st, body) = get(&gw, "/v1/readyz");
        assert_eq!(st, 200, "{body}");
        assert!(body.contains(&format!(r#""active":"{}""#, server_b.addr())));
        let (st, _) = post(&gw, "/v1/sessions", r#"{"user":"u2","class":"test"}"#);
        assert_eq!(st, 201, "traffic flows to the promoted follower");
        let text = gw.registry().expose();
        assert!(text.contains(r#"gateway_shard_failovers_total{shard="s0"} 1"#));
        assert!(text.contains(r#"gateway_probes_total{ready="no",shard="s0"} 2"#));
    }

    /// A primary whose socket is bound but never answers costs the probe
    /// its timeout, not the SDK client's 30 s, before it fails over.
    #[test]
    fn probe_fails_over_from_a_primary_that_never_answers() {
        let mute = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let (_svc, follower) = shard_daemon();
        let gw = Gateway::new(GatewayConfig {
            shards: vec![ShardConfig {
                name: "s0".into(),
                primary: mute.local_addr().unwrap().to_string(),
                follower: Some(follower.addr().to_string()),
            }],
        });
        let t0 = std::time::Instant::now();
        assert_eq!(gw.probe_once(), 1, "failed over to the follower");
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(5),
            "{:?}",
            t0.elapsed()
        );
    }

    /// One request with arbitrary headers and a raw byte body (query split
    /// off the path like the real parser does).
    fn raw_req(method: &str, path: &str, headers: &[(&str, &str)], body: Vec<u8>) -> Request {
        let (p, q) = path.split_once('?').unwrap_or((path, ""));
        Request {
            method: method.into(),
            path: p.to_string(),
            query: q
                .split('&')
                .filter(|s| !s.is_empty())
                .filter_map(|kv| kv.split_once('='))
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            headers: headers
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            body,
        }
    }

    /// Binary submits, batch submits (binary and JSON), and binary status
    /// reads flow through the gateway across a two-shard ring. Placement
    /// comes from `?token=` (requests) and the sticky table (learned from
    /// session-creation *responses*) — never from parsing the proxied body:
    /// a misrouted frame would surface as the foreign shard's 401.
    #[test]
    fn binary_and_batch_bodies_proxy_opaquely_across_two_shards() {
        use hpcqc_program::{ProgramIr, Pulse, Register, SequenceBuilder};
        use hpcqc_wire as wire;

        fn ir(shots: u32) -> ProgramIr {
            let reg = Register::linear(2, 6.0).unwrap();
            let mut b = SequenceBuilder::new(reg);
            b.add_global_pulse(Pulse::constant(0.5, 4.0, 0.0, 0.0).unwrap());
            ProgramIr::new(b.build().unwrap(), shots, "gw-bin-test")
        }

        let (_svc_a, server_a) = shard_daemon();
        let (_svc_b, server_b) = shard_daemon();
        let gw = Arc::new(Gateway::new(GatewayConfig {
            shards: vec![
                ShardConfig {
                    name: "a".into(),
                    primary: server_a.addr().to_string(),
                    follower: None,
                },
                ShardConfig {
                    name: "b".into(),
                    primary: server_b.addr().to_string(),
                    follower: None,
                },
            ],
        }));

        // Sessions opened through the gateway spread over both shards (the
        // split is deterministic: fixed user names, fixed hash).
        let mut tokens = Vec::new();
        for i in 0..16 {
            let (st, body) = post(
                &gw,
                "/v1/sessions",
                &format!(r#"{{"user":"w{i}","class":"production"}}"#),
            );
            assert_eq!(st, 201, "{body}");
            let v: serde_json::Value = serde_json::from_str(&body).unwrap();
            tokens.push(v["token"].as_str().unwrap().to_string());
        }
        for addr in [server_a.addr(), server_b.addr()] {
            let (st, body) = HttpClient::new(&addr)
                .request("GET", "/v1/sessions", None)
                .unwrap();
            assert_eq!(st, 200);
            let v: serde_json::Value = serde_json::from_str(&body).unwrap();
            assert!(
                !v.as_array().unwrap().is_empty(),
                "both shards must hold sessions for an end-to-end ring test"
            );
        }

        // Every token's binary submit reaches its own shard with the body
        // untouched (sticky placement via ?token=, not body parsing).
        let mut task_ids = Vec::new();
        for token in &tokens {
            let frame = wire::SubmitFrame {
                token: token.clone(),
                hint: None,
                idempotency_key: None,
                ir: ir(5),
            };
            let resp = gw.route(&raw_req(
                "POST",
                &format!("/v1/tasks?token={token}"),
                &[("content-type", wire::CONTENT_TYPE_BIN)],
                wire::encode_submit(&frame),
            ));
            assert_eq!(
                resp.status,
                201,
                "binary submit via gateway: {}",
                String::from_utf8_lossy(&resp.body)
            );
            assert_eq!(resp.content_type, wire::CONTENT_TYPE_BIN);
            task_ids.push((
                token.clone(),
                wire::decode_task_id(&resp.body).expect("TaskId frame"),
            ));
        }

        // A binary batch proxies as one opaque body; every slot lands.
        let token = &tokens[0];
        let frames: Vec<wire::SubmitFrame> = (0..3)
            .map(|i| wire::SubmitFrame {
                token: token.clone(),
                hint: None,
                idempotency_key: Some(format!("gw-batch-{i}")),
                ir: ir(5),
            })
            .collect();
        let resp = gw.route(&raw_req(
            "POST",
            &format!("/v1/tasks:batch?token={token}"),
            &[("content-type", wire::CONTENT_TYPE_BIN)],
            wire::encode_submit_batch(&frames),
        ));
        assert_eq!(
            resp.status,
            200,
            "batch via gateway: {}",
            String::from_utf8_lossy(&resp.body)
        );
        assert_eq!(resp.content_type, wire::CONTENT_TYPE_BIN);
        let slots = wire::decode_batch_reply(&resp.body).expect("BatchReply frame");
        assert_eq!(slots.len(), 3);
        for slot in &slots {
            assert!(matches!(slot, wire::BatchSlot::Ok { .. }), "{slot:?}");
        }

        // A JSON batch routes by its first frame's token (body sniff still
        // works for JSON), no ?token= needed.
        let ir_json = serde_json::to_string(&ir(5)).unwrap();
        let json_batch = format!(
            r#"[{{"token":"{token}","ir":{ir_json},"idempotency_key":"gw-json-b0"}},{{"token":"{token}","ir":{ir_json},"idempotency_key":"gw-json-b1"}}]"#
        );
        let (st, body) = post(&gw, "/v1/tasks:batch", &json_batch);
        assert_eq!(st, 200, "{body}");
        let v: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v.as_array().unwrap().len(), 2, "{body}");

        // Binary status reads follow the same placement and come back as
        // opaque Status frames (Accept pass-through).
        for (token, id) in &task_ids {
            let resp = gw.route(&raw_req(
                "GET",
                &format!("/v1/tasks/{id}?token={token}"),
                &[("accept", wire::CONTENT_TYPE_BIN)],
                Vec::new(),
            ));
            assert_eq!(resp.status, 200);
            assert_eq!(resp.content_type, wire::CONTENT_TYPE_BIN);
            wire::decode_status(&resp.body).expect("Status frame");
        }
    }

    #[test]
    fn transport_failure_quarantines_the_shard_until_reprobed() {
        let (_svc, server) = shard_daemon();
        let dead = ShardConfig {
            name: "dead".into(),
            primary: "127.0.0.1:1".into(), // nothing listens here
            follower: Some(server.addr().to_string()),
        };
        let gw = Arc::new(Gateway::new(GatewayConfig { shards: vec![dead] }));
        // optimistic start: first request hits the dead primary, gets 503,
        // and marks the shard unready
        let (st, body) = post(&gw, "/v1/sessions", r#"{"user":"u","class":"test"}"#);
        assert_eq!(st, 503, "{body}");
        let (st, _) = post(&gw, "/v1/sessions", r#"{"user":"u","class":"test"}"#);
        assert_eq!(st, 503, "still quarantined");
        // the probe finds the (already-serving-leader) follower and fails over
        assert_eq!(gw.probe_once(), 1);
        let (st, body) = post(&gw, "/v1/sessions", r#"{"user":"u","class":"test"}"#);
        assert_eq!(st, 201, "{body}");
    }
}
