//! Fault-injecting QRMI decorator.
//!
//! [`FaultInjector`] wraps any [`QuantumResource`] and injects deterministic,
//! seeded faults at the QRMI boundary so the recovery machinery above it —
//! runtime retries, graceful degradation, daemon requeues — can be exercised
//! reproducibly. It covers the failure surface a real cloud/on-prem resource
//! exposes (wrap a [`crate::QpuDirectResource`] to add the simulated device
//! timing its `VirtualQpu` stamps on every result):
//!
//! * **acquisition denials** — `acquire` rejected (busy device, quota),
//! * **transient task failures** — a started task reports
//!   [`TaskStatus::Failed`]; resubmission draws fresh, so retries succeed,
//! * **stuck tasks** — a started task reports [`TaskStatus::Running`]
//!   forever, exercising the caller's poll-budget/timeout path,
//! * **result-fetch errors** — `task_result` of a completed task fails
//!   transiently; the next fetch draws fresh.
//!
//! Fault pressure is configured per [`ResourceType`] via [`FaultProfile`]:
//! base per-operation rates, plus an MTBF-driven *burst* model (an outage
//! window every `mtbf_ops` operations on average, during which rates are
//! multiplied) so recovery logic sees correlated failures, not just i.i.d.
//! coin flips. Doomed tasks never reach the wrapped backend — no device
//! seconds are spent on work whose outcome is predetermined.

use crate::resource::{
    AcquisitionToken, QrmiError, QuantumResource, ResourceType, TaskId, TaskStatus,
};
use hpcqc_emulator::SampleResult;
use hpcqc_program::{DeviceSpec, ProgramIr};
use hpcqc_sync::{rank, TrackedMutex as Mutex};
use hpcqc_telemetry::{catalog, labels, Registry};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Per-resource-type fault pressure.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultProfile {
    /// Probability an `acquire` is denied.
    pub acquire_denial_rate: f64,
    /// Probability a started task later reports `Failed` (transient: the
    /// resubmitted task draws fresh).
    pub task_failure_rate: f64,
    /// Probability a started task sticks in `Running` forever.
    pub stuck_task_rate: f64,
    /// Probability a `task_result` fetch fails (transient per fetch).
    pub result_fetch_failure_rate: f64,
    /// Mean operations between fault bursts (0 disables bursts).
    pub mtbf_ops: f64,
    /// Operations a burst lasts once it starts.
    pub burst_len: u32,
    /// Rate multiplier while a burst is active (effective rates clamp to 1).
    pub burst_multiplier: f64,
}

impl FaultProfile {
    /// No injected faults.
    pub fn none() -> Self {
        FaultProfile {
            acquire_denial_rate: 0.0,
            task_failure_rate: 0.0,
            stuck_task_rate: 0.0,
            result_fetch_failure_rate: 0.0,
            mtbf_ops: 0.0,
            burst_len: 0,
            burst_multiplier: 1.0,
        }
    }

    /// A moderately unreliable resource: the acceptance profile used in the
    /// integration suite (≥20% transient task failures plus intermittent
    /// acquisition denials and result-fetch errors, no bursts).
    pub fn flaky() -> Self {
        FaultProfile {
            acquire_denial_rate: 0.2,
            task_failure_rate: 0.25,
            stuck_task_rate: 0.0,
            result_fetch_failure_rate: 0.1,
            ..FaultProfile::none()
        }
    }

    /// All probabilities in range, burst parameters sane.
    pub fn is_valid(&self) -> bool {
        let unit = |p: f64| (0.0..=1.0).contains(&p);
        unit(self.acquire_denial_rate)
            && unit(self.task_failure_rate)
            && unit(self.stuck_task_rate)
            && unit(self.result_fetch_failure_rate)
            && self.task_failure_rate + self.stuck_task_rate <= 1.0
            && self.mtbf_ops >= 0.0
            && self.mtbf_ops.is_finite()
            && self.burst_multiplier >= 0.0
            && self.burst_multiplier.is_finite()
    }

    /// The rate in effect for this operation, given burst state.
    fn effective(&self, base: f64, in_burst: bool) -> f64 {
        if in_burst {
            (base * self.burst_multiplier).min(1.0)
        } else {
            base
        }
    }
}

/// What was decided for a doomed task at start time.
#[derive(Debug, Clone)]
enum InjectedFate {
    /// Polls report `Failed(msg)`.
    FailOnPoll(String),
    /// Polls report `Running` forever.
    StuckRunning,
    /// The caller gave up and stopped it.
    Cancelled,
}

/// Everything the injector draws and remembers, behind one lock. The
/// wrapped resource is only called once the guard is dropped.
struct FaultState {
    rng: ChaCha8Rng,
    /// Operations left in the active burst window (0: none active).
    burst_left: u32,
    /// Fates of tasks that never reached the wrapped backend.
    injected: HashMap<String, InjectedFate>,
    /// Number of the next injected task id.
    next_injected: u64,
    counts: BTreeMap<&'static str, u64>,
}

impl FaultState {
    /// Advance the burst process one operation; true while a burst is active.
    fn tick(&mut self, profile: &FaultProfile) -> bool {
        if self.burst_left > 0 {
            self.burst_left -= 1;
            return true;
        }
        if profile.mtbf_ops > 0.0
            && profile.burst_len > 0
            && self.rng.gen_bool((1.0 / profile.mtbf_ops).min(1.0))
        {
            self.burst_left = profile.burst_len;
            return true;
        }
        false
    }

    fn count(&mut self, kind: &'static str) {
        *self.counts.entry(kind).or_insert(0) += 1;
    }

    /// Tick, then draw against `base` (scaled inside a burst); a hit is
    /// counted as `kind`.
    fn roll(&mut self, profile: &FaultProfile, base: f64, kind: &'static str) -> bool {
        let p = profile.effective(base, self.tick(profile));
        let hit = p > 0.0 && self.rng.gen::<f64>() < p;
        if hit {
            self.count(kind);
        }
        hit
    }
}

/// The decorator. See the module docs for the fault model.
pub struct FaultInjector {
    inner: Arc<dyn QuantumResource>,
    profile: FaultProfile,
    state: Mutex<FaultState>,
    metrics: Option<Registry>,
}

impl FaultInjector {
    /// Wrap `inner`, injecting faults per `profile`, seeded for determinism.
    pub fn new(inner: Arc<dyn QuantumResource>, profile: FaultProfile, seed: u64) -> Self {
        assert!(profile.is_valid(), "invalid fault profile: {profile:?}");
        let state = FaultState {
            rng: ChaCha8Rng::seed_from_u64(seed),
            burst_left: 0,
            injected: HashMap::new(),
            next_injected: 0,
            counts: BTreeMap::new(),
        };
        FaultInjector {
            inner,
            profile,
            state: Mutex::new("qrmi.fault", rank::QRMI_FAULT, state),
            metrics: None,
        }
    }

    /// Wrap `inner` with the profile registered for its [`ResourceType`]
    /// (no faults when the map has no entry for it).
    pub fn per_type(
        inner: Arc<dyn QuantumResource>,
        profiles: &BTreeMap<ResourceType, FaultProfile>,
        seed: u64,
    ) -> Self {
        let profile = profiles
            .get(&inner.resource_type())
            .copied()
            .unwrap_or_else(FaultProfile::none);
        FaultInjector::new(inner, profile, seed)
    }

    /// Count injected faults into `metrics`.
    pub fn with_metrics(mut self, metrics: Registry) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// The active profile.
    pub fn profile(&self) -> &FaultProfile {
        &self.profile
    }

    /// Injected-fault counts by kind (`acquire_denied`, `task_failed`,
    /// `task_stuck`, `result_fetch`), for assertions without a registry.
    pub fn fault_counts(&self) -> BTreeMap<&'static str, u64> {
        self.state.lock().counts.clone()
    }

    /// Total injected faults across all kinds.
    pub fn total_faults(&self) -> u64 {
        self.state.lock().counts.values().sum()
    }

    /// Export one injected fault (already counted in the state).
    fn export(&self, kind: &'static str) {
        if let Some(m) = &self.metrics {
            let l = labels(&[("resource", self.inner.resource_id()), ("kind", kind)]);
            m.inc(&catalog::QRMI_FAULTS_INJECTED, l, 1.0);
        }
    }
}

impl QuantumResource for FaultInjector {
    fn resource_id(&self) -> &str {
        self.inner.resource_id()
    }

    fn resource_type(&self) -> ResourceType {
        self.inner.resource_type()
    }

    fn acquire(&self) -> Result<AcquisitionToken, QrmiError> {
        let (kind, p) = ("acquire_denied", &self.profile);
        let denied = self.state.lock().roll(p, p.acquire_denial_rate, kind);
        if denied {
            self.export(kind);
            return Err(QrmiError::AcquisitionDenied(
                "injected fault: device busy".into(),
            ));
        }
        self.inner.acquire()
    }

    fn release(&self, token: &AcquisitionToken) -> Result<(), QrmiError> {
        self.inner.release(token)
    }

    fn target(&self) -> Result<DeviceSpec, QrmiError> {
        self.inner.target()
    }

    fn task_start(&self, token: &AcquisitionToken, ir: &ProgramIr) -> Result<TaskId, QrmiError> {
        let doomed = {
            let mut s = self.state.lock();
            let (p, in_burst) = (&self.profile, s.tick(&self.profile));
            let p_fail = p.effective(p.task_failure_rate, in_burst);
            let p_stuck = p.effective(p.stuck_task_rate, in_burst);
            let draw = s.rng.gen::<f64>();
            let fate = if draw < p_fail {
                Some((
                    InjectedFate::FailOnPoll("injected fault: task lost by backend".into()),
                    "task_failed",
                ))
            } else if draw < p_fail + p_stuck {
                Some((InjectedFate::StuckRunning, "task_stuck"))
            } else {
                None
            };
            fate.map(|(fate, kind)| {
                // doomed: never reaches the backend, no device time wasted
                s.count(kind);
                let id = format!("injected-{}", s.next_injected);
                s.next_injected += 1;
                s.injected.insert(id.clone(), fate);
                (TaskId(id), kind)
            })
        };
        match doomed {
            None => self.inner.task_start(token, ir),
            Some((id, kind)) => {
                self.export(kind);
                Ok(id)
            }
        }
    }

    fn task_status(&self, task: &TaskId) -> Result<TaskStatus, QrmiError> {
        if let Some(fate) = self.state.lock().injected.get(&task.0) {
            return Ok(match fate {
                InjectedFate::FailOnPoll(m) => TaskStatus::Failed(m.clone()),
                InjectedFate::StuckRunning => TaskStatus::Running,
                InjectedFate::Cancelled => TaskStatus::Cancelled,
            });
        }
        self.inner.task_status(task)
    }

    fn task_stop(&self, task: &TaskId) -> Result<(), QrmiError> {
        if let Some(fate) = self.state.lock().injected.get_mut(&task.0) {
            *fate = InjectedFate::Cancelled;
            return Ok(());
        }
        self.inner.task_stop(task)
    }

    fn task_result(&self, task: &TaskId) -> Result<SampleResult, QrmiError> {
        let kind = "result_fetch";
        let fetch_failed = {
            let mut s = self.state.lock();
            if let Some(fate) = s.injected.get(&task.0) {
                return Err(match fate {
                    InjectedFate::FailOnPoll(m) => QrmiError::Backend(m.clone()),
                    _ => QrmiError::InvalidState("task not completed".into()),
                });
            }
            s.roll(&self.profile, self.profile.result_fetch_failure_rate, kind)
        };
        if fetch_failed {
            self.export(kind);
            return Err(QrmiError::Backend(
                "injected fault: result fetch failed".into(),
            ));
        }
        self.inner.task_result(task)
    }

    fn metadata(&self) -> BTreeMap<String, String> {
        let mut m = self.inner.metadata();
        m.insert("fault_injector".into(), "true".into());
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends::LocalEmulatorResource;
    use crate::resource::run_to_completion;
    use hpcqc_emulator::SvBackend;
    use hpcqc_program::{Pulse, Register, SequenceBuilder};

    fn ir(shots: u32) -> ProgramIr {
        let reg = Register::linear(2, 6.0).unwrap();
        let mut b = SequenceBuilder::new(reg);
        b.add_global_pulse(Pulse::constant(0.2, 4.0, 0.0, 0.0).unwrap());
        ProgramIr::new(b.build().unwrap(), shots, "fault-test")
    }

    fn wrapped(profile: FaultProfile, seed: u64) -> FaultInjector {
        let inner = Arc::new(LocalEmulatorResource::new(
            "emu",
            Arc::new(SvBackend::default()),
            1,
        ));
        FaultInjector::new(inner, profile, seed)
    }

    #[test]
    fn no_faults_is_transparent() {
        let r = wrapped(FaultProfile::none(), 1);
        let tok = r.acquire().unwrap();
        let res = run_to_completion(&r, &tok, &ir(30), 10).unwrap();
        assert_eq!(res.shots, 30);
        r.release(&tok).unwrap();
        assert_eq!(r.total_faults(), 0);
        assert_eq!(r.metadata()["fault_injector"], "true");
    }

    #[test]
    fn transient_task_failures_fail_then_succeed_on_retry() {
        let profile = FaultProfile {
            task_failure_rate: 0.5,
            ..FaultProfile::none()
        };
        let r = wrapped(profile, 3);
        let tok = r.acquire().unwrap();
        let mut failed = 0;
        let mut completed = 0;
        for _ in 0..100 {
            let t = r.task_start(&tok, &ir(2)).unwrap();
            match r.task_status(&t).unwrap() {
                TaskStatus::Failed(m) => {
                    assert!(m.contains("injected"));
                    assert!(matches!(r.task_result(&t), Err(QrmiError::Backend(_))));
                    failed += 1;
                }
                TaskStatus::Completed => {
                    assert_eq!(r.task_result(&t).unwrap().shots, 2);
                    completed += 1;
                }
                other => panic!("unexpected status {other:?}"),
            }
        }
        assert!(
            failed > 20 && completed > 20,
            "failed={failed} completed={completed}"
        );
        assert_eq!(r.fault_counts()["task_failed"], failed);
    }

    #[test]
    fn stuck_tasks_report_running_forever_and_can_be_stopped() {
        let profile = FaultProfile {
            stuck_task_rate: 1.0,
            ..FaultProfile::none()
        };
        let r = wrapped(profile, 4);
        let tok = r.acquire().unwrap();
        let t = r.task_start(&tok, &ir(2)).unwrap();
        for _ in 0..50 {
            assert_eq!(r.task_status(&t).unwrap(), TaskStatus::Running);
        }
        assert!(
            matches!(
                run_to_completion(&r, &tok, &ir(2), 5),
                Err(QrmiError::InvalidState(_))
            ),
            "poll budget must expire on a stuck task"
        );
        r.task_stop(&t).unwrap();
        assert_eq!(r.task_status(&t).unwrap(), TaskStatus::Cancelled);
        assert_eq!(r.fault_counts()["task_stuck"], 2);
    }

    #[test]
    fn result_fetch_errors_are_transient() {
        let profile = FaultProfile {
            result_fetch_failure_rate: 0.5,
            ..FaultProfile::none()
        };
        let r = wrapped(profile, 5);
        let tok = r.acquire().unwrap();
        let t = r.task_start(&tok, &ir(2)).unwrap();
        assert_eq!(r.task_status(&t).unwrap(), TaskStatus::Completed);
        // keep fetching: transient failures eventually give way to the result
        let mut fetch_errors = 0;
        let res = loop {
            match r.task_result(&t) {
                Ok(res) => break res,
                Err(QrmiError::Backend(m)) => {
                    assert!(m.contains("result fetch"));
                    fetch_errors += 1;
                    assert!(fetch_errors < 100, "fetch never succeeded");
                }
                Err(other) => panic!("unexpected error {other}"),
            }
        };
        assert_eq!(res.shots, 2);
    }

    #[test]
    fn acquisition_denials_seeded_and_deterministic() {
        let profile = FaultProfile {
            acquire_denial_rate: 0.4,
            ..FaultProfile::none()
        };
        let denials = |seed: u64| {
            let r = wrapped(profile, seed);
            (0..100).filter(|_| r.acquire().is_err()).count()
        };
        let a = denials(9);
        assert!(a > 10 && a < 80, "denials {a}");
        assert_eq!(a, denials(9), "same seed, same faults");
        assert_ne!(denials(9), denials(10), "different seed, different stream");
    }

    #[test]
    fn bursts_concentrate_failures() {
        // base rate 0 — faults can only fire inside a burst window
        let profile = FaultProfile {
            task_failure_rate: 0.01,
            mtbf_ops: 20.0,
            burst_len: 5,
            burst_multiplier: 100.0,
            ..FaultProfile::none()
        };
        let r = wrapped(profile, 6);
        let tok = r.acquire().unwrap();
        let outcomes: Vec<bool> = (0..300)
            .map(|_| {
                let t = r.task_start(&tok, &ir(1)).unwrap();
                matches!(r.task_status(&t), Ok(TaskStatus::Failed(_)))
            })
            .collect();
        let failures = outcomes.iter().filter(|&&f| f).count();
        assert!(
            failures > 10,
            "bursts should produce failures, got {failures}"
        );
        // correlation: a failure is far more likely right after a failure
        // than unconditionally (burst windows cluster them)
        let pairs = outcomes.windows(2).filter(|w| w[0]).count();
        let after_failure = outcomes.windows(2).filter(|w| w[0] && w[1]).count();
        let p_cond = after_failure as f64 / pairs.max(1) as f64;
        let p_base = failures as f64 / outcomes.len() as f64;
        assert!(
            p_cond > 2.0 * p_base,
            "expected clustering: P(fail|fail)={p_cond:.2} vs P(fail)={p_base:.2}"
        );
    }

    #[test]
    fn per_type_profile_selection() {
        let mut profiles = BTreeMap::new();
        profiles.insert(
            ResourceType::QpuCloud,
            FaultProfile {
                acquire_denial_rate: 1.0,
                ..FaultProfile::none()
            },
        );
        // local emulator has no entry → no faults
        let inner = Arc::new(LocalEmulatorResource::new(
            "emu",
            Arc::new(SvBackend::default()),
            1,
        ));
        let r = FaultInjector::per_type(inner, &profiles, 1);
        assert_eq!(r.profile(), &FaultProfile::none());
        assert!(r.acquire().is_ok());
    }

    #[test]
    fn metrics_reported_when_attached() {
        let metrics = Registry::new();
        let profile = FaultProfile {
            acquire_denial_rate: 1.0,
            ..FaultProfile::none()
        };
        let inner = Arc::new(LocalEmulatorResource::new(
            "emu",
            Arc::new(SvBackend::default()),
            1,
        ));
        let r = FaultInjector::new(inner, profile, 1).with_metrics(metrics.clone());
        assert!(r.acquire().is_err());
        assert!(metrics
            .expose()
            .contains("qrmi_faults_injected_total{kind=\"acquire_denied\",resource=\"emu\"} 1"));
    }

    #[test]
    #[should_panic(expected = "invalid fault profile")]
    fn invalid_profile_rejected() {
        wrapped(
            FaultProfile {
                task_failure_rate: 0.7,
                stuck_task_rate: 0.7,
                ..FaultProfile::none()
            },
            1,
        );
    }
}
