//! The deployable daemon (paper §3.3): the REST front door and the
//! dispatcher that drains its queue, started in one place. A server without
//! its dispatcher admits every task and runs none.

use crate::daemon::{DispatcherHandle, MiddlewareService};
use crate::rest::serve_on;
use crate::server::HttpServer;
use std::sync::Arc;
use std::time::Duration;

/// Idle housekeeping (journal sync, session expiry), not a latency floor: a
/// submit wakes the dispatcher.
const IDLE_POLL: Duration = Duration::from_millis(20);

/// A daemon serving REST with its dispatcher running, as `hpcqcd` runs it.
/// Fields drop in order: the server stops, then the dispatcher is joined.
pub struct Site {
    server: HttpServer,
    _dispatcher: DispatcherHandle,
    svc: Arc<MiddlewareService>,
}

impl Site {
    /// Serve `svc` on localhost `port` (0 = ephemeral). The dispatcher
    /// starts before the server accepts its first request.
    pub fn spawn(svc: MiddlewareService, port: u16) -> std::io::Result<Site> {
        let svc = Arc::new(svc);
        let _dispatcher = svc.spawn_dispatcher(IDLE_POLL);
        let server = serve_on(Arc::clone(&svc), port)?;
        Ok(Site {
            server,
            _dispatcher,
            svc,
        })
    }

    /// The `host:port` the REST API listens on.
    pub fn addr(&self) -> String {
        self.server.addr()
    }

    /// The daemon behind the API.
    pub fn service(&self) -> &Arc<MiddlewareService> {
        &self.svc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DaemonConfig, HttpClient, PriorityClass};
    use hpcqc_emulator::SvBackend;
    use hpcqc_program::{ProgramIr, Pulse, Register, SequenceBuilder};
    use hpcqc_qrmi::LocalEmulatorResource;

    /// A task sent over REST completes with no in-process `pump`, and
    /// dropping the site joins both threads: each held a service clone.
    #[test]
    fn a_site_runs_what_it_admits_and_joins_its_threads_on_drop() {
        let emu = LocalEmulatorResource::new("emu", Arc::new(SvBackend::default()), 1);
        let svc = MiddlewareService::new(Arc::new(emu), DaemonConfig::default());
        let site = Site::spawn(svc, 0).unwrap();
        let client = HttpClient::new(site.addr());
        let token = site.service().open_session("ada", PriorityClass::Test);
        let mut b = SequenceBuilder::new(Register::linear(2, 6.0).unwrap());
        b.add_global_pulse(Pulse::constant(0.5, 4.0, 0.0, 0.0).unwrap());
        let ir = ProgramIr::new(b.build().unwrap(), 25, "site-test");
        let submit = serde_json::json!({ "token": token.unwrap(), "ir": ir }).to_string();
        let (st, body) = client.request("POST", "/v1/tasks", Some(&submit)).unwrap();
        assert_eq!(st, 201, "{body}");
        let id = serde_json::from_str::<serde_json::Value>(&body).unwrap()["task_id"].clone();
        let status = format!("/v1/tasks/{id}");
        let done = (0..500).any(|_| {
            std::thread::sleep(Duration::from_millis(10));
            let (_, body) = client.request("GET", &status, None).unwrap();
            body.contains("Completed")
        });
        assert!(done, "the dispatcher never ran task {id}");
        let svc = Arc::clone(site.service());
        drop(site);
        assert_eq!(Arc::strong_count(&svc), 1);
    }
}
