//! The portable hybrid runtime.
//!
//! [`Runtime`] is what application code links against: it resolves a QRMI
//! resource from configuration (never from source code), re-validates the
//! program against the *live* device spec at the point of execution, and
//! runs it. Switching from a laptop emulator to the HPC tensor-network
//! emulator to the QPU is the `--qpu=<resource>` flag / `HPCQC_QPU`
//! environment variable — the program is untouched (paper §3.2, Figure 1).

use crate::retry::RetryPolicy;
use hpcqc_analysis::{AnalysisReport, Analyzer, Diagnostic};
use hpcqc_emulator::{SampleResult, SweepPoint};
use hpcqc_middleware::PriorityClass;
use hpcqc_program::{DeviceSpec, ProgramIr, Violation};
use hpcqc_qrmi::{ConfigError, QrmiError, QuantumResource, ResourceRegistry, ResourceType};
use hpcqc_telemetry::{catalog, labels, Registry};
use std::sync::Arc;

/// Errors surfaced by the runtime.
#[derive(Debug)]
pub enum RuntimeError {
    /// Resource selection/config problem.
    Config(ConfigError),
    /// The program does not fit the selected device's current spec.
    Validation(Vec<Violation>),
    /// QRMI-level failure.
    Qrmi(QrmiError),
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::Config(e) => write!(f, "configuration: {e}"),
            RuntimeError::Validation(v) => {
                write!(f, "program invalid for target ({} violations): ", v.len())?;
                for viol in v {
                    write!(f, "[{viol}] ")?;
                }
                Ok(())
            }
            RuntimeError::Qrmi(e) => write!(f, "resource: {e}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<ConfigError> for RuntimeError {
    fn from(e: ConfigError) -> Self {
        RuntimeError::Config(e)
    }
}

impl From<QrmiError> for RuntimeError {
    fn from(e: QrmiError) -> Self {
        RuntimeError::Qrmi(e)
    }
}

/// `ir`'s hard violations of `spec`, as an error.
fn check(ir: &ProgramIr, spec: &DeviceSpec) -> Result<(), RuntimeError> {
    match hpcqc_program::validate(&ir.sequence, spec) {
        v if v.is_empty() => Ok(()),
        v => Err(RuntimeError::Validation(v)),
    }
}

/// Metadata attached to every execution for reproducibility records.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// The result itself.
    pub result: SampleResult,
    /// Resource id the program ran on.
    pub resource_id: String,
    /// Device-spec revision at execution time.
    pub spec_revision: u64,
    /// Program fingerprint (content hash).
    pub program_fingerprint: u64,
}

/// Outcome of a recovery-aware run: the report plus what the recovery cost.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredRun {
    /// The successful run's report.
    pub report: RunReport,
    /// Attempts spent on the resource that finally produced the result.
    pub attempts: u32,
    /// Backoff seconds paid on that resource (slept only against a daemon).
    pub backoff_secs: f64,
    /// `Some(id)` when graceful degradation moved the run off the primary.
    pub fallback_resource: Option<String>,
    /// Warning-level pre-flight diagnostics (empty when pre-flight is off or
    /// the program is clean).
    pub preflight_warnings: Vec<Diagnostic>,
}

/// The runtime environment.
pub struct Runtime {
    registry: ResourceRegistry,
    /// `--qpu` selection; `None` = registry default.
    selection: Option<String>,
    /// Poll budget for queued (cloud) backends.
    pub max_polls: usize,
    /// Retry posture; [`RetryPolicy::none`] by default (opt in explicitly).
    retry: RetryPolicy,
    /// Priority class selecting the attempt/backoff budget.
    class: PriorityClass,
    /// Allow falling back to a local emulator when the primary's budget runs out.
    fallback: bool,
    /// Recovery telemetry sink.
    metrics: Option<Registry>,
    /// Client-side static-analysis pipeline run before execution.
    analyzer: Analyzer,
    /// Pre-flight switch: analyze before attempting, fail fast on Errors.
    preflight: bool,
}

impl Runtime {
    /// Build over an existing registry (the common path: registry from
    /// [`hpcqc_qrmi::QrmiConfig`] + [`hpcqc_qrmi::ResourceFactory`]).
    pub fn new(registry: ResourceRegistry) -> Self {
        Runtime {
            registry,
            selection: None,
            max_polls: 100_000,
            retry: RetryPolicy::none(),
            class: PriorityClass::Development,
            fallback: false,
            metrics: None,
            analyzer: Analyzer::standard(),
            preflight: true,
        }
    }

    /// Enable/disable the client-side pre-flight analysis (on by default).
    pub fn with_preflight(mut self, enabled: bool) -> Self {
        self.preflight = enabled;
        self
    }

    /// Enable retries under `policy` (budgets chosen by the priority class).
    pub fn with_retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Select the priority class whose attempt/backoff budget applies.
    pub fn with_priority_class(mut self, class: PriorityClass) -> Self {
        self.class = class;
        self
    }

    /// Permit graceful degradation to a local emulator after the primary
    /// resource's retry budget is exhausted on a transient failure.
    pub fn with_fallback(mut self, enabled: bool) -> Self {
        self.fallback = enabled;
        self
    }

    /// Count retries, backoff and fallbacks into `metrics`.
    pub fn with_fault_metrics(mut self, metrics: Registry) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// The `--qpu=<resource>` switch. The *only* thing that changes between
    /// development and production runs.
    pub fn with_qpu(mut self, selection: impl Into<String>) -> Self {
        self.selection = Some(selection.into());
        self
    }

    /// The resource the next run would use.
    pub fn resource(&self) -> Result<Arc<dyn QuantumResource>, RuntimeError> {
        Ok(self.registry.resolve(self.selection.as_deref())?)
    }

    /// Fetch the current target spec (for pre-validation and display).
    pub fn target(&self) -> Result<DeviceSpec, RuntimeError> {
        Ok(self.resource()?.target()?)
    }

    /// Validate a program against the live target spec without running it.
    pub fn validate(&self, ir: &ProgramIr) -> Result<DeviceSpec, RuntimeError> {
        let spec = self.target()?;
        check(ir, &spec)?;
        Ok(spec)
    }

    /// Run the full static-analysis pipeline against the live target spec
    /// without executing — every diagnostic, not just hard violations.
    pub fn analyze(&self, ir: &ProgramIr) -> Result<AnalysisReport, RuntimeError> {
        let spec = self.target()?;
        Ok(self.analyzer.analyze(ir, Some(&spec)))
    }

    /// Validate then execute, returning result + provenance. Honors the
    /// configured [`RetryPolicy`] (none by default) — see [`Runtime::run_recovered`]
    /// for the recovery accounting.
    pub fn run(&self, ir: &ProgramIr) -> Result<RunReport, RuntimeError> {
        Ok(self.run_recovered(ir)?.report)
    }

    /// Like [`Runtime::run`], but reports what recovery cost: attempts,
    /// backoff paid, and whether graceful degradation moved the run to a
    /// local emulator.
    pub fn run_recovered(&self, ir: &ProgramIr) -> Result<RecoveredRun, RuntimeError> {
        let primary = self.resource()?;
        // Client-side pre-flight: fail fast on Error diagnostics before any
        // acquisition attempt; carry Warnings through to the caller.
        let mut preflight_warnings: Vec<Diagnostic> = Vec::new();
        if self.preflight {
            if let Ok(spec) = primary.target() {
                let report = self.analyzer.analyze(ir, Some(&spec));
                if report.has_errors() {
                    return Err(RuntimeError::Validation(report.error_violations()));
                }
                preflight_warnings = report.warnings().into_iter().cloned().collect();
            }
        }
        let primary_err = match self.run_with_retries(&primary, ir) {
            Ok((report, attempts, backoff_secs)) => {
                return Ok(RecoveredRun {
                    report,
                    attempts,
                    backoff_secs,
                    fallback_resource: None,
                    preflight_warnings,
                })
            }
            Err(e) => e,
        };
        // Graceful degradation: a transient failure survived the whole
        // budget. If allowed, re-run on a local emulator with a fresh budget
        // (development continues while the device recovers).
        if self.fallback
            && Self::retryable(&primary_err)
            && primary.resource_type() != ResourceType::EmulatorLocal
        {
            let alt = self
                .registry
                .ids()
                .into_iter()
                .filter_map(|id| self.registry.get(&id))
                .find(|r| r.resource_type() == ResourceType::EmulatorLocal);
            if let Some(alt) = alt {
                if let Some(m) = &self.metrics {
                    let l = labels(&[("from", primary.resource_id()), ("to", alt.resource_id())]);
                    m.inc(&catalog::RUNTIME_FALLBACKS, l, 1.0);
                }
                let (report, attempts, backoff_secs) = self.run_with_retries(&alt, ir)?;
                return Ok(RecoveredRun {
                    report,
                    attempts,
                    backoff_secs,
                    fallback_resource: Some(alt.resource_id().to_string()),
                    preflight_warnings,
                });
            }
        }
        Err(primary_err)
    }

    /// Transient failures worth retrying: a busy device, a backend hiccup,
    /// or a task that never left `Running`/`Queued` within the poll budget.
    /// Token/task identity errors and validation failures are deterministic
    /// and retrying them would only burn budget.
    fn retryable(e: &RuntimeError) -> bool {
        matches!(
            e,
            RuntimeError::Qrmi(
                QrmiError::AcquisitionDenied(_)
                    | QrmiError::Backend(_)
                    | QrmiError::InvalidState(_)
            )
        )
    }

    /// Run on one resource under the retry budget for the configured class.
    fn run_with_retries(
        &self,
        res: &Arc<dyn QuantumResource>,
        ir: &ProgramIr,
    ) -> Result<(RunReport, u32, f64), RuntimeError> {
        let mut backoff = self.retry.backoff(self.class);
        let on_resource = || labels(&[("resource", res.resource_id())]);
        loop {
            match self.attempt_once(res, ir) {
                Ok(report) => return Ok((report, backoff.attempts(), backoff.total_backoff())),
                Err(e) if Self::retryable(&e) => match backoff.next_delay() {
                    Some(delay) => {
                        // a daemon is a live service: its backoff is real time
                        if res.resource_type() == ResourceType::Daemon {
                            std::thread::sleep(std::time::Duration::from_secs_f64(delay));
                        }
                        if let Some(m) = &self.metrics {
                            let op = match &e {
                                RuntimeError::Qrmi(QrmiError::AcquisitionDenied(_)) => "acquire",
                                _ => "execute",
                            };
                            let l = labels(&[("resource", res.resource_id()), ("op", op)]);
                            m.inc(&catalog::RUNTIME_RETRIES, l, 1.0);
                            m.inc(&catalog::RUNTIME_BACKOFF_SECONDS, on_resource(), delay);
                        }
                    }
                    None => {
                        if let Some(m) = &self.metrics {
                            m.inc(&catalog::RUNTIME_RETRY_BUDGET_EXHAUSTED, on_resource(), 1.0);
                        }
                        return Err(e);
                    }
                },
                Err(e) => return Err(e),
            }
        }
    }

    /// One validate-acquire-execute-release attempt on `res`.
    fn attempt_once(
        &self,
        res: &Arc<dyn QuantumResource>,
        ir: &ProgramIr,
    ) -> Result<RunReport, RuntimeError> {
        let spec = res.target()?;
        check(ir, &spec)?;
        let stamped = ir.clone().with_validation_revision(spec.revision);
        let lease = res.acquire()?;
        let out = hpcqc_qrmi::run_to_completion(res.as_ref(), &lease, &stamped, self.max_polls);
        res.release(&lease)?;
        Ok(RunReport {
            result: out?,
            resource_id: res.resource_id().to_string(),
            spec_revision: spec.revision,
            program_fingerprint: ir.fingerprint(),
        })
    }

    /// Run a parameter sweep — `points.len()` variations of one program
    /// template — on the current backend under a single acquisition.
    ///
    /// Every materialized point passes the same gate [`Runtime::run`] applies
    /// before anything runs: when pre-flight is on, the analyzer's Error
    /// diagnostics, then validation against the live spec (a scaled point
    /// can violate limits the template satisfies). Then the points run as
    /// ordinary tasks, in order, under one lease — so they draw the seeds,
    /// and return the results, of `points.len()` [`Runtime::run`] calls.
    ///
    /// The sweep is atomic: one invalid point fails the call before the
    /// acquisition, and one failed task fails it without running the rest.
    pub fn run_sweep(
        &self,
        template: &ProgramIr,
        points: &[SweepPoint],
    ) -> Result<Vec<RunReport>, RuntimeError> {
        let res = self.resource()?;
        let spec = res.target()?;
        let mut programs = Vec::with_capacity(points.len());
        for p in points {
            let mut ir = template.clone();
            ir.sequence = p.materialize(&template.sequence);
            if self.preflight {
                let report = self.analyzer.analyze(&ir, Some(&spec));
                if report.has_errors() {
                    return Err(RuntimeError::Validation(report.error_violations()));
                }
            }
            check(&ir, &spec)?;
            programs.push(ir.with_validation_revision(spec.revision));
        }
        let lease = res.acquire()?;
        let out: Result<Vec<SampleResult>, QrmiError> = programs
            .iter()
            .map(|ir| hpcqc_qrmi::run_to_completion(res.as_ref(), &lease, ir, self.max_polls))
            .collect();
        res.release(&lease)?;
        Ok(out?
            .into_iter()
            .zip(&programs)
            .map(|(result, ir)| RunReport {
                result,
                resource_id: res.resource_id().to_string(),
                spec_revision: spec.revision,
                program_fingerprint: ir.fingerprint(),
            })
            .collect())
    }

    /// Run the same program on several resources (the Figure-1 portability
    /// sweep). Returns `(resource_id, report-or-error)` per target.
    pub fn run_everywhere(
        &self,
        ir: &ProgramIr,
        resources: &[&str],
    ) -> Vec<(String, Result<RunReport, RuntimeError>)> {
        resources
            .iter()
            .map(|&id| {
                let report = match self.registry.get(id) {
                    Some(res) => self.attempt_once(&res, ir),
                    None => Err(ConfigError::UnknownResource(id.to_string()).into()),
                };
                (id.to_string(), report)
            })
            .collect()
    }

    /// Resource ids available to this runtime.
    pub fn available_resources(&self) -> Vec<String> {
        self.registry.ids()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcqc_program::{Pulse, Register, SequenceBuilder};
    use hpcqc_qpu::VirtualQpu;
    use hpcqc_qrmi::{QrmiConfig, ResourceFactory};

    fn registry_with_qpu() -> ResourceRegistry {
        let mut env: std::collections::BTreeMap<String, String> = Default::default();
        for (k, v) in [
            ("QRMI_RESOURCES", "emu-local,mock,fresnel-1"),
            ("QRMI_DEFAULT_RESOURCE", "emu-local"),
            ("QRMI_RESOURCE_EMU_LOCAL_TYPE", "emulator:local"),
            ("QRMI_RESOURCE_MOCK_TYPE", "emulator:local"),
            ("QRMI_RESOURCE_MOCK_BACKEND", "emu-mps-mock"),
            ("QRMI_RESOURCE_FRESNEL_1_TYPE", "qpu:direct"),
        ] {
            env.insert(k.into(), v.into());
        }
        let cfg = QrmiConfig::from_map(&env).unwrap();
        ResourceFactory::new(11)
            .with_qpu("fresnel-1", VirtualQpu::new("fresnel-1", 5))
            .build_registry(&cfg)
            .unwrap()
    }

    fn ir(shots: u32) -> ProgramIr {
        let reg = Register::linear(2, 6.0).unwrap();
        let mut b = SequenceBuilder::new(reg);
        b.add_global_pulse(Pulse::constant(0.5, 4.0, 0.0, 0.0).unwrap());
        ProgramIr::new(b.build().unwrap(), shots, "test")
    }

    #[test]
    fn default_resource_used_without_selection() {
        let rt = Runtime::new(registry_with_qpu());
        let report = rt.run(&ir(50)).unwrap();
        assert_eq!(report.resource_id, "emu-local");
        assert_eq!(report.result.shots, 50);
        assert_eq!(report.program_fingerprint, ir(50).fingerprint());
    }

    #[test]
    fn qpu_switch_changes_backend_not_program() {
        let program = ir(20);
        let rt = Runtime::new(registry_with_qpu());
        let local = rt.run(&program).unwrap();
        let rt = rt.with_qpu("fresnel-1");
        let qpu = rt.run(&program).unwrap();
        assert_eq!(local.resource_id, "emu-local");
        assert_eq!(qpu.resource_id, "fresnel-1");
        assert_eq!(
            local.program_fingerprint, qpu.program_fingerprint,
            "identical program"
        );
    }

    #[test]
    fn unknown_selection_is_config_error() {
        let rt = Runtime::new(registry_with_qpu()).with_qpu("ghost");
        assert!(matches!(rt.run(&ir(5)), Err(RuntimeError::Config(_))));
    }

    #[test]
    fn validation_against_live_spec() {
        let rt = Runtime::new(registry_with_qpu()).with_qpu("mock");
        // 2 µm spacing violates the production limits the mock enforces
        let reg = Register::linear(2, 2.0).unwrap();
        let mut b = SequenceBuilder::new(reg);
        b.add_global_pulse(Pulse::constant(0.5, 4.0, 0.0, 0.0).unwrap());
        let bad = ProgramIr::new(b.build().unwrap(), 10, "test");
        assert!(matches!(
            rt.validate(&bad),
            Err(RuntimeError::Validation(_))
        ));
        assert!(matches!(rt.run(&bad), Err(RuntimeError::Validation(_))));
        // but the permissive local emulator takes it
        let rt = rt.with_qpu("emu-local");
        assert!(rt.run(&bad).is_ok());
    }

    #[test]
    fn run_everywhere_portability_sweep() {
        let rt = Runtime::new(registry_with_qpu());
        let program = ir(200);
        let results = rt.run_everywhere(&program, &["emu-local", "mock", "fresnel-1"]);
        assert_eq!(results.len(), 3);
        for (id, r) in &results {
            let report = r.as_ref().unwrap_or_else(|e| panic!("{id} failed: {e}"));
            assert_eq!(report.result.shots, 200);
        }
        // unknown resource reports an error, not a panic
        let res = rt.run_everywhere(&program, &["nope"]);
        assert!(matches!(res[0].1, Err(RuntimeError::Config(_))));
    }

    #[test]
    fn run_sweep_matches_sequential_runs() {
        let points: Vec<SweepPoint> = (0..4)
            .map(|k| SweepPoint {
                omega_scale: 0.6 + 0.1 * k as f64,
                delta_scale: 1.0,
                phase_offset: 0.15 * k as f64,
            })
            .collect();
        let template = ir(40);
        let swept = Runtime::new(registry_with_qpu())
            .run_sweep(&template, &points)
            .unwrap();
        // A fresh twin registry starts from the same seed, so per-point
        // sequential runs are the bit-exact reference for the batch.
        let rt = Runtime::new(registry_with_qpu());
        assert_eq!(swept.len(), points.len());
        for (k, p) in points.iter().enumerate() {
            let mut ir_k = template.clone();
            ir_k.sequence = p.materialize(&template.sequence);
            let solo = rt.run(&ir_k).unwrap();
            assert_eq!(swept[k].result, solo.result, "point {k}");
            assert_eq!(swept[k].program_fingerprint, ir_k.fingerprint());
            assert_eq!(swept[k].resource_id, "emu-local");
            assert_eq!(swept[k].spec_revision, solo.spec_revision);
        }
    }

    #[test]
    fn run_sweep_validates_each_materialized_point() {
        // The template is fine; scaling Ω by 100 pushes one point past even
        // the permissive local-emulator amplitude cap. Nothing may run.
        let rt = Runtime::new(registry_with_qpu());
        let points = [
            SweepPoint::identity(),
            SweepPoint {
                omega_scale: 100.0,
                ..SweepPoint::identity()
            },
        ];
        assert!(matches!(
            rt.run_sweep(&ir(10), &points),
            Err(RuntimeError::Validation(_))
        ));
    }

    #[test]
    fn run_sweep_with_no_points_is_empty() {
        let rt = Runtime::new(registry_with_qpu());
        assert!(rt.run_sweep(&ir(10), &[]).unwrap().is_empty());
    }

    #[test]
    fn spec_revision_recorded() {
        let rt = Runtime::new(registry_with_qpu()).with_qpu("fresnel-1");
        let report = rt.run(&ir(5)).unwrap();
        assert_eq!(report.spec_revision, 1);
    }

    #[test]
    fn preflight_blocks_out_of_range_shots() {
        // `validate()` only checks the sequence; the shot range is a
        // pre-flight (HQ0108) catch. Without it this run would grind through
        // ten million shots before the backend noticed anything.
        let rt = Runtime::new(registry_with_qpu());
        let big = ir(10_000_000);
        let points = [SweepPoint::identity(), SweepPoint::identity()];
        for blocked in [
            rt.run(&big).map(|_| ()),
            rt.run_sweep(&big, &points).map(|_| ()),
        ] {
            match blocked {
                Err(RuntimeError::Validation(v)) => {
                    assert!(v.iter().any(|viol| {
                        viol.kind == hpcqc_program::ViolationKind::ShotsOutOfRange
                    }));
                }
                other => panic!("expected validation error, got {other:?}"),
            }
        }
    }

    #[test]
    fn preflight_warnings_carried_on_the_run() {
        let rt = Runtime::new(registry_with_qpu()).with_qpu("fresnel-1");
        let stale = ir(5).with_validation_revision(42);
        let run = rt.run_recovered(&stale).unwrap();
        assert!(
            run.preflight_warnings
                .iter()
                .any(|d| d.code.as_str() == "HQ0701"),
            "{:?}",
            run.preflight_warnings
        );
        // switching pre-flight off silences the record (and the gate)
        let rt = rt.with_preflight(false);
        let run = rt.run_recovered(&stale).unwrap();
        assert!(run.preflight_warnings.is_empty());
    }

    #[test]
    fn analyze_reports_against_live_spec() {
        let rt = Runtime::new(registry_with_qpu()).with_qpu("fresnel-1");
        let report = rt.analyze(&ir(5000)).unwrap();
        assert!(
            report.has_errors(),
            "5000 shots exceed the production range"
        );
        let clean = rt.analyze(&ir(100)).unwrap();
        assert!(!clean.has_errors());
        assert!(clean.facts.est_qpu_secs > 0.0);
    }

    #[test]
    fn available_resources_sorted() {
        let rt = Runtime::new(registry_with_qpu());
        assert_eq!(
            rt.available_resources(),
            vec![
                "emu-local".to_string(),
                "fresnel-1".to_string(),
                "mock".to_string()
            ]
        );
    }

    mod recovery {
        use super::*;
        use crate::retry::AttemptBudget;
        use hpcqc_emulator::SvBackend;
        use hpcqc_qrmi::{FaultInjector, FaultProfile, LocalEmulatorResource};

        /// Registry with a fault-injected primary (flaky) plus a clean local
        /// emulator fallback.
        fn flaky_registry(profile: FaultProfile) -> ResourceRegistry {
            let mut registry = ResourceRegistry::new();
            let backend = Arc::new(SvBackend::default());
            registry.register(Arc::new(FaultInjector::new(
                Arc::new(hpcqc_qrmi::CloudResource::new(
                    "flaky-cloud",
                    hpcqc_qrmi::CloudEngine::Emulator(backend.clone()),
                    2,
                    7,
                )),
                profile,
                17,
            )));
            registry.register(Arc::new(LocalEmulatorResource::new(
                "emu-local",
                backend,
                1,
            )));
            registry.default_resource = Some("flaky-cloud".into());
            registry
        }

        #[test]
        fn retries_ride_through_transient_faults() {
            let metrics = Registry::new();
            let rt = Runtime::new(flaky_registry(FaultProfile::flaky()))
                .with_retry_policy(RetryPolicy::default())
                .with_priority_class(PriorityClass::Production)
                .with_fault_metrics(metrics.clone());
            let mut recovered_any = false;
            for _ in 0..10 {
                let run = rt.run_recovered(&ir(10)).unwrap();
                assert_eq!(run.report.resource_id, "flaky-cloud");
                assert_eq!(run.report.result.shots, 10);
                recovered_any |= run.attempts > 1;
            }
            assert!(recovered_any, "a 25%-failure resource must cost retries");
            let text = metrics.expose();
            assert!(text.contains("runtime_retries_total"));
            assert!(text.contains("runtime_backoff_seconds_total"));
        }

        #[test]
        fn fallback_to_local_emulator_after_budget_exhaustion() {
            // the primary always denies acquisition: budget cannot succeed
            let profile = FaultProfile {
                acquire_denial_rate: 1.0,
                ..FaultProfile::none()
            };
            let metrics = Registry::new();
            let rt = Runtime::new(flaky_registry(profile))
                .with_retry_policy(RetryPolicy::default().with_budget(
                    PriorityClass::Development,
                    AttemptBudget {
                        max_attempts: 3,
                        max_backoff_secs: 60.0,
                    },
                ))
                .with_fallback(true)
                .with_fault_metrics(metrics.clone());
            let run = rt.run_recovered(&ir(10)).unwrap();
            assert_eq!(run.fallback_resource.as_deref(), Some("emu-local"));
            assert_eq!(run.report.resource_id, "emu-local");
            assert!(metrics
                .expose()
                .contains("runtime_fallbacks_total{from=\"flaky-cloud\",to=\"emu-local\"} 1"));
            assert!(metrics
                .expose()
                .contains("runtime_retry_budget_exhausted_total{resource=\"flaky-cloud\"} 1"));
        }

        #[test]
        fn budget_exhaustion_without_fallback_surfaces_the_error() {
            let profile = FaultProfile {
                acquire_denial_rate: 1.0,
                ..FaultProfile::none()
            };
            let rt =
                Runtime::new(flaky_registry(profile)).with_retry_policy(RetryPolicy::default());
            match rt.run_recovered(&ir(5)) {
                Err(RuntimeError::Qrmi(QrmiError::AcquisitionDenied(_))) => {}
                other => panic!("expected denial, got {other:?}"),
            }
        }

        #[test]
        fn fatal_errors_do_not_retry() {
            // validation failure is deterministic — must fail on attempt 1
            // even under a deep retry budget (more qubits than the sv
            // emulator spec admits)
            let registry = flaky_registry(FaultProfile::none());
            let rt = Runtime::new(registry)
                .with_retry_policy(RetryPolicy::default())
                .with_priority_class(PriorityClass::Production)
                .with_qpu("flaky-cloud");
            let reg = hpcqc_program::Register::linear(30, 6.0).unwrap();
            let mut b = hpcqc_program::SequenceBuilder::new(reg);
            b.add_global_pulse(hpcqc_program::Pulse::constant(0.5, 4.0, 0.0, 0.0).unwrap());
            let bad = ProgramIr::new(b.build().unwrap(), 10, "bad");
            assert!(matches!(
                rt.run_recovered(&bad),
                Err(RuntimeError::Validation(_))
            ));
        }
    }
}
