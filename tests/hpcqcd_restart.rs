//! The shipped daemon survives a restart: `hpcqcd` journals under
//! `HPCQCD_JOURNAL`, so a task acknowledged before the process is killed is
//! known to the next process on the same directory, and resubmitting its
//! idempotency key returns the same task id instead of enqueuing a new one.
//! And the shipped CLI reaches it as a QRMI resource, through `--qpu`.

use hpcqc::core::DaemonClient;
use hpcqc::middleware::PriorityClass;
use hpcqc::program::{ProgramIr, Pulse, Register, SequenceBuilder};
use hpcqc::scheduler::PatternHint;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A running `hpcqcd`, killed on drop. Its stdout stays open for the
/// daemon's lifetime: a closed pipe would fail the daemon's next print.
struct Daemon {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Daemon {
    /// Start `hpcqcd` over `journal` on a free port, with `env` on top of
    /// no QRMI configuration, and read the address it prints.
    fn start(journal: &Path, env: &[(&str, &str)]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_hpcqcd"))
            .env("HPCQCD_JOURNAL", journal)
            .env("HPCQCD_PORT", "0")
            .env_remove("QRMI_RESOURCES")
            .envs(env.iter().copied())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("hpcqcd starts");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut addr = None;
        let mut line = String::new();
        while addr.is_none() {
            line.clear();
            let n = stdout.read_line(&mut line).expect("hpcqcd stdout");
            assert!(n > 0, "hpcqcd exited before printing its address");
            addr = line
                .split_once("REST on http://")
                .map(|(_, a)| a.trim().to_string());
        }
        Daemon {
            child,
            _stdout: stdout,
            addr: addr.expect("address read"),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn program() -> ProgramIr {
    let reg = Register::linear(2, 6.0).expect("valid register");
    let mut b = SequenceBuilder::new(reg);
    b.add_global_pulse(Pulse::constant(0.5, 4.0, 0.0, 0.0).expect("valid pulse"));
    ProgramIr::new(b.build().expect("valid sequence"), 20, "restart")
}

#[test]
fn acked_task_and_its_idempotency_key_survive_a_kill() {
    let journal = std::env::temp_dir().join(format!("hpcqcd-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&journal);

    let first = Daemon::start(&journal, &[]);
    let session = DaemonClient::new(first.addr.clone())
        .open_session("ada", PriorityClass::Production)
        .expect("session opens");
    // Two tasks, so a daemon that forgot everything cannot hand the keyed
    // one's id to a fresh submit by coincidence.
    session
        .submit(&program(), PatternHint::None)
        .expect("first submit");
    let id = session
        .submit_keyed(&program(), PatternHint::None, Some("restart-key"))
        .expect("keyed submit acked");
    drop(first); // SIGKILL: no drain, no final snapshot

    let second = Daemon::start(&journal, &[]);
    let session = DaemonClient::new(second.addr.clone())
        .open_session("ada", PriorityClass::Production)
        .expect("session opens after restart");
    session
        .status(id)
        .unwrap_or_else(|e| panic!("task {id} acked before the kill is unknown: {e}"));
    let again = session
        .submit_keyed(&program(), PatternHint::None, Some("restart-key"))
        .expect("resubmit");
    assert_eq!(
        again, id,
        "the idempotency key must resolve to the original task"
    );

    drop(second);
    let _ = std::fs::remove_dir_all(&journal);
}

/// `hpcqc run|target --qpu site` reach the shipped daemon through the same
/// runtime call as every other backend; the option it replaced is gone.
/// `hpcqcd` boots beside a `daemon` entry in its QRMI list and refuses to
/// front one.
#[test]
fn cli_reaches_the_daemon_through_the_qpu_switch() {
    let journal = std::env::temp_dir().join(format!("hpcqcd-cli-{}", std::process::id()));
    let file = journal.with_extension("hqc");
    let _ = std::fs::remove_dir_all(&journal);
    let text = "register ring 4 6.0\npulse duration=1.5 omega=5 delta=-2\nshots 40\n";
    std::fs::write(&file, text).expect("program written");
    let qrmi = [
        ("QRMI_RESOURCES", "fresnel-1,site"),
        ("QRMI_DEFAULT_RESOURCE", "fresnel-1"),
        ("QRMI_RESOURCE_FRESNEL_1_TYPE", "qpu:direct"),
        ("QRMI_RESOURCE_SITE_TYPE", "daemon"),
        ("QRMI_RESOURCE_SITE_ADDR", "127.0.0.1:1"),
    ];
    let daemon = Daemon::start(&journal, &qrmi);
    let hpcqc = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_hpcqc"))
            .args(args)
            .env("QRMI_RESOURCES", "site")
            .env("QRMI_RESOURCE_SITE_TYPE", "daemon")
            .env("QRMI_RESOURCE_SITE_ADDR", &daemon.addr)
            .output()
            .expect("hpcqc runs")
    };
    let file = file.to_str().expect("utf-8 path");
    let run = hpcqc(&["run", file, "--qpu", "site"]);
    assert!(run.status.success(), "{run:?}");
    assert!(String::from_utf8_lossy(&run.stdout).contains("40 shots on"));
    let target = hpcqc(&["target", "--qpu", "site"]);
    assert!(target.status.success(), "{target:?}");
    let gone = hpcqc(&["run", file, "--daemon", &daemon.addr]);
    assert_eq!(gone.status.code(), Some(2), "{gone:?}");

    let refused = Command::new(env!("CARGO_BIN_EXE_hpcqcd"))
        .env("HPCQCD_JOURNAL", &journal)
        .envs(qrmi)
        .env("QRMI_DEFAULT_RESOURCE", "site")
        .output()
        .expect("hpcqcd runs");
    assert!(!refused.status.success(), "{refused:?}");
    assert!(String::from_utf8_lossy(&refused.stderr).contains("is a daemon resource"));
    drop(daemon);
    let _ = std::fs::remove_dir_all(&journal);
    let _ = std::fs::remove_file(file);
}

/// `hpcqcd` refuses an environment value that does not parse, naming it; one
/// that took the default would serve until killed, so a deadline bounds the wait.
#[test]
fn hpcqcd_refuses_an_unparseable_environment_value() {
    for var in ["HPCQCD_PORT", "HPCQCD_SEED"] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_hpcqcd"))
            .env(
                "HPCQCD_JOURNAL",
                std::env::temp_dir().join("hpcqcd-refused"),
            )
            .envs([("HPCQCD_PORT", "0"), (var, "x")])
            .env_remove("QRMI_RESOURCES")
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("hpcqcd starts");
        let deadline = Instant::now() + Duration::from_secs(30);
        while child.try_wait().expect("hpcqcd polled").is_none() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        let _ = child.kill(); // nothing to do for one that exited
        let out = child.wait_with_output().expect("hpcqcd reaped");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            !out.status.success() && stderr.contains(var),
            "{var}: {stderr}"
        );
    }
}
