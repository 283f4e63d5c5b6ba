//! A small hybrid workflow engine over the runtime.
//!
//! The paper's future work calls for "workflow engine integrations" on top
//! of the runtime/middleware split (§4). This module provides the runtime
//! side of that integration: a dependency graph of named steps — *quantum*
//! steps producing programs the runtime executes, and *classical* steps
//! computing over upstream outputs — executed in topological order with
//! per-step retry for transient backend failures (exactly the failures
//! [`hpcqc_qrmi::InstrumentedResource`] injects during testing).
//!
//! The engine is deliberately synchronous and deterministic: an external
//! workflow manager (or the batch scheduler) owns parallelism across jobs;
//! within one job, a predictable step order is a feature.

use crate::runtime::{Runtime, RuntimeError};
use hpcqc_emulator::SampleResult;
use hpcqc_program::ProgramIr;
use std::collections::{BTreeMap, BTreeSet};

/// Output of one step.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Measurement samples from a quantum step.
    Samples(SampleResult),
    /// A scalar from a classical step.
    Number(f64),
    /// Free-form text/JSON from a classical step.
    Text(String),
}

impl Value {
    /// The samples, if this value carries them.
    pub fn as_samples(&self) -> Option<&SampleResult> {
        match self {
            Value::Samples(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this value carries one.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }
}

/// Completed step outputs, keyed by step name.
#[derive(Debug, Clone, Default)]
pub struct Outputs(BTreeMap<String, Value>);

impl Outputs {
    /// Output of `step`; panics if the step hasn't run (dependencies are
    /// validated before execution, so inside a step closure every declared
    /// dependency is present).
    pub fn get(&self, step: &str) -> &Value {
        self.0.get(step).unwrap_or_else(|| {
            panic!("step {step:?} not executed — is it declared as a dependency?")
        })
    }

    /// Samples of a quantum dependency.
    pub fn samples(&self, step: &str) -> &SampleResult {
        self.get(step)
            .as_samples()
            .unwrap_or_else(|| panic!("step {step:?} did not produce samples"))
    }

    /// Number of a classical dependency.
    pub fn number(&self, step: &str) -> f64 {
        self.get(step)
            .as_number()
            .unwrap_or_else(|| panic!("step {step:?} did not produce a number"))
    }

    /// All outputs, in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.0.iter()
    }
}

/// Workflow-level errors.
#[derive(Debug)]
pub enum WorkflowError {
    /// Step name registered twice.
    DuplicateStep(String),
    /// A declared dependency does not exist.
    UnknownDependency { step: String, dependency: String },
    /// The dependency graph has a cycle through this step.
    Cycle(String),
    /// A quantum step kept failing after its retry budget.
    StepFailed {
        step: String,
        attempts: u32,
        source: RuntimeError,
    },
    /// A classical step reported an error.
    Classical { step: String, message: String },
}

impl std::fmt::Display for WorkflowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkflowError::DuplicateStep(s) => write!(f, "duplicate step {s:?}"),
            WorkflowError::UnknownDependency { step, dependency } => {
                write!(f, "step {step:?} depends on unknown step {dependency:?}")
            }
            WorkflowError::Cycle(s) => write!(f, "dependency cycle through {s:?}"),
            WorkflowError::StepFailed {
                step,
                attempts,
                source,
            } => {
                write!(
                    f,
                    "step {step:?} failed after {attempts} attempt(s): {source}"
                )
            }
            WorkflowError::Classical { step, message } => {
                write!(f, "classical step {step:?} failed: {message}")
            }
        }
    }
}

impl std::error::Error for WorkflowError {}

type QuantumFn = Box<dyn Fn(&Outputs) -> ProgramIr + Send>;
type ClassicalFn = Box<dyn Fn(&Outputs) -> Result<Value, String> + Send>;

enum StepKind {
    Quantum { build: QuantumFn, max_retries: u32 },
    Classical(ClassicalFn),
}

struct StepDef {
    deps: Vec<String>,
    kind: StepKind,
}

/// A hybrid workflow under construction.
#[derive(Default)]
pub struct Workflow {
    steps: BTreeMap<String, StepDef>,
    order_hint: Vec<String>,
}

/// Execution trace entry.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEntry {
    pub step: String,
    /// 1 for a clean run; >1 when retries were needed.
    pub attempts: u32,
    /// Simulated device seconds (quantum steps; 0 for classical).
    pub device_secs: f64,
}

impl Workflow {
    pub fn new() -> Self {
        Self::default()
    }

    fn add(
        &mut self,
        name: &str,
        deps: &[&str],
        kind: StepKind,
    ) -> Result<&mut Self, WorkflowError> {
        if self.steps.contains_key(name) {
            return Err(WorkflowError::DuplicateStep(name.into()));
        }
        self.steps.insert(
            name.to_string(),
            StepDef {
                deps: deps.iter().map(|s| s.to_string()).collect(),
                kind,
            },
        );
        self.order_hint.push(name.to_string());
        Ok(self)
    }

    /// Add a quantum step: `build` constructs the program from upstream
    /// outputs; the runtime executes it, retrying transient failures up to
    /// `max_retries` extra attempts.
    pub fn quantum(
        &mut self,
        name: &str,
        deps: &[&str],
        max_retries: u32,
        build: impl Fn(&Outputs) -> ProgramIr + Send + 'static,
    ) -> Result<&mut Self, WorkflowError> {
        self.add(
            name,
            deps,
            StepKind::Quantum {
                build: Box::new(build),
                max_retries,
            },
        )
    }

    /// Add a classical step computing a [`Value`] from upstream outputs.
    pub fn classical(
        &mut self,
        name: &str,
        deps: &[&str],
        f: impl Fn(&Outputs) -> Result<Value, String> + Send + 'static,
    ) -> Result<&mut Self, WorkflowError> {
        self.add(name, deps, StepKind::Classical(Box::new(f)))
    }

    /// Topological order (stable: insertion order among ready steps).
    fn toposort(&self) -> Result<Vec<String>, WorkflowError> {
        for (name, def) in &self.steps {
            for d in &def.deps {
                if !self.steps.contains_key(d) {
                    return Err(WorkflowError::UnknownDependency {
                        step: name.clone(),
                        dependency: d.clone(),
                    });
                }
            }
        }
        let mut done: BTreeSet<String> = BTreeSet::new();
        let mut order = Vec::with_capacity(self.steps.len());
        while order.len() < self.steps.len() {
            let mut progressed = false;
            for name in &self.order_hint {
                if done.contains(name) {
                    continue;
                }
                let def = &self.steps[name];
                if def.deps.iter().all(|d| done.contains(d)) {
                    done.insert(name.clone());
                    order.push(name.clone());
                    progressed = true;
                }
            }
            if !progressed {
                let stuck = self
                    .order_hint
                    .iter()
                    .find(|n| !done.contains(*n))
                    .expect("some step is stuck")
                    .clone();
                return Err(WorkflowError::Cycle(stuck));
            }
        }
        Ok(order)
    }

    /// Execute against `runtime`; returns all outputs plus the trace.
    pub fn run(&self, runtime: &Runtime) -> Result<(Outputs, Vec<TraceEntry>), WorkflowError> {
        let order = self.toposort()?;
        let mut outputs = Outputs::default();
        let mut trace = Vec::with_capacity(order.len());
        for name in order {
            let def = &self.steps[&name];
            match &def.kind {
                StepKind::Quantum { build, max_retries } => {
                    let ir = build(&outputs);
                    let mut attempts = 0;
                    let report = loop {
                        attempts += 1;
                        match runtime.run(&ir) {
                            Ok(r) => break r,
                            Err(e @ RuntimeError::Validation(_))
                            | Err(e @ RuntimeError::Config(_)) => {
                                // not transient: retrying cannot help
                                return Err(WorkflowError::StepFailed {
                                    step: name.clone(),
                                    attempts,
                                    source: e,
                                });
                            }
                            Err(e) => {
                                if attempts > *max_retries {
                                    return Err(WorkflowError::StepFailed {
                                        step: name.clone(),
                                        attempts,
                                        source: e,
                                    });
                                }
                            }
                        }
                    };
                    trace.push(TraceEntry {
                        step: name.clone(),
                        attempts,
                        device_secs: report.result.execution_secs,
                    });
                    outputs.0.insert(name, Value::Samples(report.result));
                }
                StepKind::Classical(f) => {
                    let value = f(&outputs).map_err(|message| WorkflowError::Classical {
                        step: name.clone(),
                        message,
                    })?;
                    trace.push(TraceEntry {
                        step: name.clone(),
                        attempts: 1,
                        device_secs: 0.0,
                    });
                    outputs.0.insert(name, value);
                }
            }
        }
        Ok((outputs, trace))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcqc_program::{Pulse, Register, SequenceBuilder};
    use hpcqc_qrmi::{
        FaultInjector, FaultProfile, InstrumentedResource, LocalEmulatorResource, QrmiConfig,
        ResourceFactory, ResourceRegistry, TimingModel,
    };
    use std::sync::Arc;

    fn runtime() -> Runtime {
        let reg = ResourceFactory::new(1)
            .build_registry(&QrmiConfig::development_default())
            .unwrap();
        Runtime::new(reg)
    }

    fn pulse_ir(duration: f64, shots: u32) -> ProgramIr {
        let reg = Register::from_coords(&[(0.0, 0.0)]).unwrap();
        let mut b = SequenceBuilder::new(reg);
        b.add_global_pulse(Pulse::constant(duration, 4.0, 0.0, 0.0).unwrap());
        ProgramIr::new(b.build().unwrap(), shots, "wf-test")
    }

    #[test]
    fn linear_pipeline_runs_in_order() {
        let mut wf = Workflow::new();
        wf.quantum("probe", &[], 0, |_| pulse_ir(0.3, 500)).unwrap();
        wf.classical("estimate", &["probe"], |o| {
            Ok(Value::Number(o.samples("probe").occupation(0)))
        })
        .unwrap();
        wf.quantum("refine", &["estimate"], 0, |o| {
            // use the estimate to pick the next duration (contrived but
            // exercises data flow)
            let p = o.number("estimate");
            pulse_ir(0.3 + 0.1 * p, 500)
        })
        .unwrap();
        let (outputs, trace) = wf.run(&runtime()).unwrap();
        assert_eq!(trace.len(), 3);
        assert_eq!(trace[0].step, "probe");
        assert_eq!(trace[1].step, "estimate");
        assert_eq!(trace[2].step, "refine");
        assert!(outputs.get("refine").as_samples().is_some());
        assert!((0.0..=1.0).contains(&outputs.number("estimate")));
    }

    #[test]
    fn diamond_dependencies_resolve() {
        let mut wf = Workflow::new();
        wf.quantum("a", &[], 0, |_| pulse_ir(0.2, 100)).unwrap();
        wf.classical("left", &["a"], |o| {
            Ok(Value::Number(o.samples("a").occupation(0)))
        })
        .unwrap();
        wf.classical("right", &["a"], |o| {
            Ok(Value::Number(o.samples("a").mean_excitations()))
        })
        .unwrap();
        wf.classical("join", &["left", "right"], |o| {
            Ok(Value::Number(o.number("left") + o.number("right")))
        })
        .unwrap();
        let (outputs, trace) = wf.run(&runtime()).unwrap();
        assert_eq!(trace.last().unwrap().step, "join");
        assert!(outputs.number("join") > 0.0);
    }

    #[test]
    fn duplicate_and_unknown_deps_rejected() {
        let mut wf = Workflow::new();
        wf.classical("x", &[], |_| Ok(Value::Number(1.0))).unwrap();
        assert!(matches!(
            wf.classical("x", &[], |_| Ok(Value::Number(2.0))),
            Err(WorkflowError::DuplicateStep(_))
        ));
        wf.classical("y", &["ghost"], |_| Ok(Value::Number(0.0)))
            .unwrap();
        assert!(matches!(
            wf.run(&runtime()),
            Err(WorkflowError::UnknownDependency { .. })
        ));
    }

    #[test]
    fn cycles_detected() {
        let mut wf = Workflow::new();
        wf.classical("a", &["b"], |_| Ok(Value::Number(0.0)))
            .unwrap();
        wf.classical("b", &["a"], |_| Ok(Value::Number(0.0)))
            .unwrap();
        assert!(matches!(wf.run(&runtime()), Err(WorkflowError::Cycle(_))));
    }

    #[test]
    fn classical_failure_propagates_with_step_name() {
        let mut wf = Workflow::new();
        wf.classical("boom", &[], |_| Err("kaput".into())).unwrap();
        match wf.run(&runtime()) {
            Err(WorkflowError::Classical { step, message }) => {
                assert_eq!(step, "boom");
                assert_eq!(message, "kaput");
            }
            other => panic!("expected classical failure, got {other:?}"),
        }
    }

    #[test]
    fn quantum_retries_recover_from_injected_faults() {
        // a simulated-timing resource that loses ~50% of started tasks: with
        // 16 retries the step almost surely succeeds; with 0 it likely fails.
        let flaky = || -> Runtime {
            let inner = Arc::new(LocalEmulatorResource::new(
                "emu",
                Arc::new(hpcqc_emulator::SvBackend::default()),
                1,
            ));
            let timed = InstrumentedResource::new(inner, TimingModel::production_1hz());
            let profile = FaultProfile {
                task_failure_rate: 0.5,
                ..FaultProfile::none()
            };
            let mut reg = ResourceRegistry::new();
            reg.register(Arc::new(FaultInjector::new(Arc::new(timed), profile, 42)));
            reg.default_resource = Some("emu".into());
            Runtime::new(reg)
        };
        let mut wf = Workflow::new();
        wf.quantum("q", &[], 16, |_| pulse_ir(0.2, 10)).unwrap();
        let (outputs, trace) = wf.run(&flaky()).unwrap();
        assert!(outputs.get("q").as_samples().is_some());
        assert!(trace[0].attempts >= 1);
        // simulated timing flowed through: 3s overhead + 10 shots at 1 Hz
        assert!((trace[0].device_secs - 13.0).abs() < 1e-9);
    }

    #[test]
    fn validation_failures_are_not_retried() {
        let rt = {
            let reg = ResourceFactory::new(1)
                .build_registry(&QrmiConfig::development_default())
                .unwrap();
            Runtime::new(reg).with_qpu("mock") // enforces production limits
        };
        let mut wf = Workflow::new();
        wf.quantum("bad", &[], 10, |_| {
            // 2 µm spacing violates the mock's production envelope
            let reg = Register::linear(2, 2.0).unwrap();
            let mut b = SequenceBuilder::new(reg);
            b.add_global_pulse(Pulse::constant(0.2, 4.0, 0.0, 0.0).unwrap());
            ProgramIr::new(b.build().unwrap(), 10, "wf-test")
        })
        .unwrap();
        match wf.run(&rt) {
            Err(WorkflowError::StepFailed { step, attempts, .. }) => {
                assert_eq!(step, "bad");
                assert_eq!(attempts, 1, "no retry for deterministic failures");
            }
            other => panic!("expected StepFailed, got {other:?}"),
        }
    }
}
