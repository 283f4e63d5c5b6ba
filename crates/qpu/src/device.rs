//! The virtual QPU device.
//!
//! [`VirtualQpu`] is the stand-in for the physical neutral-atom machine: it
//! executes programs through an internal high-χ MPS emulation *distorted by
//! the current calibration* (Rabi-scale error, detuning offset, SPAM noise),
//! takes wall-clock time proportional to the shot count at the calibrated
//! shot rate, exposes an operational status, and publishes telemetry. The
//! rest of the stack talks to it exactly as it would to hardware: submit,
//! wait, fetch — plus the admin/low-level surface the middleware daemon
//! mediates (§2.5).

use crate::calibration::Calibration;
use hpcqc_emulator::{Emulator, MpsBackend, MpsConfig, SampleResult, SpamNoise, SvBackend};
use hpcqc_program::{DeviceSpec, ProgramIr, Sequence, Violation};
use hpcqc_sync::{rank, TrackedMutex as Mutex};
use hpcqc_telemetry::{catalog, labels, Registry, TimeSeriesDb};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Operational status of the device, as surfaced to operators and users.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QpuStatus {
    /// Accepting and running jobs.
    Operational,
    /// Running an internal calibration; jobs queue but don't start.
    Calibrating,
    /// Scheduled maintenance window; jobs rejected.
    Maintenance,
    /// Fault state; jobs rejected.
    Down,
}

/// Errors surfaced by the device.
#[derive(Debug, Clone, PartialEq)]
pub enum QpuError {
    /// Device is not accepting work.
    Unavailable(QpuStatus),
    /// The program fails validation against the *current* spec revision.
    Invalid(Vec<Violation>),
    /// Shot count outside device limits.
    BadShots(String),
}

impl std::fmt::Display for QpuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QpuError::Unavailable(s) => write!(f, "QPU unavailable: {s:?}"),
            QpuError::Invalid(v) => write!(
                f,
                "program invalid on current calibration: {} violation(s)",
                v.len()
            ),
            QpuError::BadShots(m) => write!(f, "bad shot request: {m}"),
        }
    }
}

impl std::error::Error for QpuError {}

/// A completed QPU execution with its timing.
#[derive(Debug, Clone)]
pub struct QpuExecution {
    pub result: SampleResult,
    /// Simulated seconds the run occupied the device.
    pub device_secs: f64,
    /// Calibration revision the job ran under.
    pub calibration_revision: u64,
}

struct Inner {
    calibration: Calibration,
    status: QpuStatus,
    rng: ChaCha8Rng,
    /// Simulated time of the device clock (seconds).
    now: f64,
    jobs_completed: u64,
    shots_taken: u64,
    busy_secs: f64,
}

/// The virtual neutral-atom QPU.
///
/// Thread-safe and clonable (the middleware daemon and the telemetry
/// collector share one device).
#[derive(Clone)]
pub struct VirtualQpu {
    inner: Arc<Mutex<Inner>>,
    base_spec: DeviceSpec,
    registry: Registry,
    tsdb: TimeSeriesDb,
    name: String,
    /// Fixed per-job overhead (s): register loading, rearrangement.
    pub job_overhead_secs: f64,
}

impl VirtualQpu {
    /// A production-profile QPU with seeded drift.
    pub fn new(name: impl Into<String>, seed: u64) -> Self {
        VirtualQpu {
            inner: Arc::new(Mutex::new(
                "qpu.device",
                rank::QPU_DEVICE,
                Inner {
                    calibration: Calibration::nominal(),
                    status: QpuStatus::Operational,
                    rng: ChaCha8Rng::seed_from_u64(seed),
                    now: 0.0,
                    jobs_completed: 0,
                    shots_taken: 0,
                    busy_secs: 0.0,
                },
            )),
            base_spec: DeviceSpec::analog_production(),
            registry: Registry::new(),
            tsdb: TimeSeriesDb::new(),
            name: name.into(),
            job_overhead_secs: 3.0,
        }
    }

    /// Use a custom base spec (e.g. a faster roadmap device at 100 Hz).
    pub fn with_base_spec(mut self, spec: DeviceSpec) -> Self {
        self.base_spec = spec;
        self
    }

    /// Device name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Telemetry registry the device publishes into (Prometheus exposition).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The time-series database with calibration history.
    pub fn tsdb(&self) -> &TimeSeriesDb {
        &self.tsdb
    }

    /// Current status.
    pub fn status(&self) -> QpuStatus {
        self.inner.lock().status
    }

    /// Operator/admin: set the device status (maintenance windows etc.).
    pub fn set_status(&self, s: QpuStatus) {
        self.inner.lock().status = s;
        self.registry.set(
            &catalog::QPU_UP,
            labels(&[("device", &self.name)]),
            if s == QpuStatus::Operational {
                1.0
            } else {
                0.0
            },
        );
    }

    /// The spec as currently calibrated (revision reflects recalibrations).
    pub fn current_spec(&self) -> DeviceSpec {
        let inner = self.inner.lock();
        inner.calibration.effective_spec(&self.base_spec)
    }

    /// Simulated device clock (seconds).
    pub fn now(&self) -> f64 {
        self.inner.lock().now
    }

    /// Advance simulated time by `dt` seconds: calibration drifts and the
    /// telemetry collector records the new state.
    pub fn advance_time(&self, dt: f64) {
        let mut inner = self.inner.lock();
        inner.now += dt;
        let mut rng = inner.rng.clone();
        inner.calibration.step(dt, &mut rng);
        inner.rng = rng;
        let now = inner.now;
        let cal = inner.calibration.clone();
        drop(inner);
        self.record_telemetry(now, &cal);
    }

    /// Admin/low-level: inject a fault (observability experiments).
    pub fn inject_rabi_fault(&self, fraction: f64) {
        let mut inner = self.inner.lock();
        inner.calibration.inject_rabi_fault(fraction);
        let now = inner.now;
        let cal = inner.calibration.clone();
        drop(inner);
        self.record_telemetry(now, &cal);
    }

    /// Admin/low-level: recalibrate (bumps the spec revision). Takes
    /// `duration_secs` of device time during which status is `Calibrating`.
    pub fn recalibrate(&self, duration_secs: f64) {
        let mut inner = self.inner.lock();
        inner.now += duration_secs;
        let now = inner.now;
        inner.calibration.recalibrate(now);
        let cal = inner.calibration.clone();
        drop(inner);
        self.registry.inc(
            &catalog::QPU_RECALIBRATIONS,
            labels(&[("device", &self.name)]),
            1.0,
        );
        self.record_telemetry(now, &cal);
    }

    fn record_telemetry(&self, now: f64, cal: &Calibration) {
        let l = labels(&[("device", &self.name)]);
        let reg = &self.registry;
        reg.set(&catalog::QPU_RABI_SCALE, l.clone(), cal.rabi_scale.current);
        reg.set(
            &catalog::QPU_DETUNING_OFFSET,
            l.clone(),
            cal.detuning_offset.current,
        );
        reg.set(
            &catalog::QPU_DETECTION_ERROR,
            l.clone(),
            cal.detection_epsilon.current,
        );
        reg.set(&catalog::QPU_SPEC_REVISION, l, cal.revision as f64);
        self.tsdb
            .append("qpu_rabi_scale", now, cal.rabi_scale.current);
        self.tsdb
            .append("qpu_detuning_offset", now, cal.detuning_offset.current);
        self.tsdb
            .append("qpu_detection_error", now, cal.detection_epsilon.current);
        self.tsdb.append(
            "qpu_detection_error_prime",
            now,
            cal.detection_epsilon_prime.current,
        );
    }

    /// Apply the calibration distortion to a program: what the hardware
    /// *actually plays* differs from what was requested.
    fn distort(seq: &Sequence, cal: &Calibration) -> Sequence {
        let mut out = seq.clone();
        for tp in &mut out.pulses {
            tp.pulse.amplitude = tp.pulse.amplitude.scaled(cal.rabi_scale.current);
            if cal.detuning_offset.current.abs() > 0.0 {
                // additive offset: represent as composite of original + constant
                let d = tp.pulse.detuning.duration();
                let offset = hpcqc_program::Waveform::constant(d, cal.detuning_offset.current)
                    .expect("positive duration");
                // detuning' = detuning + offset: emulate by summing samples via
                // an interpolated waveform at 1 ns resolution.
                let base = tp.pulse.detuning.discretize(0.001);
                let off = offset.discretize(0.001);
                let vals: Vec<f64> = base
                    .iter()
                    .zip(
                        off.iter()
                            .chain(std::iter::repeat(&cal.detuning_offset.current)),
                    )
                    .map(|(a, b)| a + b)
                    .collect();
                tp.pulse.detuning =
                    hpcqc_program::Waveform::interpolated(d, vals).expect("valid interpolation");
            }
        }
        out
    }

    /// Execute a program. Blocks for (simulated) `device_secs`; the caller —
    /// normally the middleware daemon — decides when to call this, which is
    /// exactly the serialization point a real QPU queue imposes.
    pub fn execute(&self, ir: &ProgramIr, seed: u64) -> Result<QpuExecution, QpuError> {
        let (cal, status) = {
            let inner = self.inner.lock();
            (inner.calibration.clone(), inner.status)
        };
        if status != QpuStatus::Operational {
            return Err(QpuError::Unavailable(status));
        }
        let spec = cal.effective_spec(&self.base_spec);
        let violations = hpcqc_program::validate(&ir.sequence, &spec);
        if !violations.is_empty() {
            self.registry.inc(
                &catalog::QPU_JOBS_REJECTED,
                labels(&[("device", &self.name)]),
                1.0,
            );
            return Err(QpuError::Invalid(violations));
        }
        if let Some(v) = hpcqc_program::validate::validate_shots(ir.shots, &spec) {
            return Err(QpuError::BadShots(v.message));
        }

        // Hardware plays the distorted program with calibrated SPAM noise.
        let played = Self::distort(&ir.sequence, &cal);
        let noise = SpamNoise {
            epsilon: cal.detection_epsilon.current,
            epsilon_prime: cal.detection_epsilon_prime.current,
        };
        let distorted_ir = ProgramIr {
            sequence: played,
            ..ir.clone()
        };
        let n = distorted_ir.sequence.num_qubits();
        let mut result = if n <= 12 {
            let backend = SvBackend {
                max_qubits: 12,
                noise,
                ..SvBackend::default()
            };
            run_unvalidated_sv(&backend, &distorted_ir, seed)
        } else {
            let backend = MpsBackend {
                max_qubits: 100,
                config: MpsConfig {
                    chi_max: 24,
                    ..MpsConfig::default()
                },
                noise,
            };
            run_unvalidated_mps(&backend, &distorted_ir, seed)
        };
        result.backend = self.name.clone();

        let device_secs = self.job_overhead_secs + spec.shots_wallclock_secs(ir.shots);
        result.execution_secs = device_secs;

        {
            let mut inner = self.inner.lock();
            inner.now += device_secs;
            inner.jobs_completed += 1;
            inner.shots_taken += ir.shots as u64;
            inner.busy_secs += device_secs;
            // drift also happens while running
            let mut rng = inner.rng.clone();
            inner.calibration.step(device_secs, &mut rng);
            inner.rng = rng;
        }
        let l = labels(&[("device", &self.name)]);
        self.registry.inc(&catalog::QPU_JOBS, l.clone(), 1.0);
        self.registry
            .inc(&catalog::QPU_SHOTS, l.clone(), ir.shots as f64);
        self.registry
            .inc(&catalog::QPU_BUSY_SECONDS, l, device_secs);

        Ok(QpuExecution {
            result,
            device_secs,
            calibration_revision: cal.revision,
        })
    }

    /// Lifetime utilization: busy seconds / device clock.
    pub fn utilization(&self) -> f64 {
        let inner = self.inner.lock();
        if inner.now > 0.0 {
            inner.busy_secs / inner.now
        } else {
            0.0
        }
    }

    /// (jobs_completed, shots_taken) counters.
    pub fn stats(&self) -> (u64, u64) {
        let inner = self.inner.lock();
        (inner.jobs_completed, inner.shots_taken)
    }
}

/// Run on the SV backend bypassing its (emulator) spec validation — the
/// device already validated against its own calibrated spec, and the
/// *distorted* program may legitimately exceed the requested envelope.
fn run_unvalidated_sv(backend: &SvBackend, ir: &ProgramIr, seed: u64) -> SampleResult {
    // The SV backend's own spec is permissive (emulator limits), so plain
    // run() only rejects size. Distortion never changes qubit count.
    backend
        .run(ir, seed)
        .expect("device-validated program runs on SV")
}

fn run_unvalidated_mps(backend: &MpsBackend, ir: &ProgramIr, seed: u64) -> SampleResult {
    backend
        .run(ir, seed)
        .expect("device-validated program runs on MPS")
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcqc_program::{Pulse, Register, SequenceBuilder};

    fn pi_pulse_ir(n: usize, shots: u32) -> ProgramIr {
        let reg = Register::linear(n, 6.0).unwrap();
        let omega = 4.0;
        let mut b = SequenceBuilder::new(reg);
        b.add_global_pulse(Pulse::constant(std::f64::consts::PI / omega, omega, 0.0, 0.0).unwrap());
        ProgramIr::new(b.build().unwrap(), shots, "test")
    }

    #[test]
    fn execute_returns_result_and_timing() {
        let qpu = VirtualQpu::new("qpu0", 1);
        let ex = qpu.execute(&pi_pulse_ir(2, 100), 7).unwrap();
        assert_eq!(ex.result.shots, 100);
        assert_eq!(ex.result.backend, "qpu0");
        // 1 Hz shot rate + 3 s overhead
        assert!((ex.device_secs - 103.0).abs() < 1e-9);
        assert_eq!(qpu.stats(), (1, 100));
        assert!(qpu.now() >= 103.0);
        assert!(
            (qpu.utilization() - 1.0).abs() < 1e-9,
            "only busy time so far"
        );
    }

    #[test]
    fn pi_pulse_occupation_high_but_spam_limited() {
        let qpu = VirtualQpu::new("qpu0", 1);
        let ex = qpu.execute(&pi_pulse_ir(1, 1000), 3).unwrap();
        let occ = ex.result.occupation(0);
        // ideal 1.0, SPAM ε′=0.03 pulls it to ~0.97
        assert!(occ > 0.9 && occ < 1.0, "occupation {occ}");
    }

    #[test]
    fn rejects_when_down_or_maintenance() {
        let qpu = VirtualQpu::new("qpu0", 1);
        qpu.set_status(QpuStatus::Maintenance);
        assert!(matches!(
            qpu.execute(&pi_pulse_ir(1, 10), 1),
            Err(QpuError::Unavailable(QpuStatus::Maintenance))
        ));
        qpu.set_status(QpuStatus::Down);
        assert!(matches!(
            qpu.execute(&pi_pulse_ir(1, 10), 1),
            Err(QpuError::Unavailable(QpuStatus::Down))
        ));
        qpu.set_status(QpuStatus::Operational);
        assert!(qpu.execute(&pi_pulse_ir(1, 10), 1).is_ok());
    }

    #[test]
    fn invalid_program_rejected_with_violations() {
        let qpu = VirtualQpu::new("qpu0", 1);
        let reg = Register::linear(2, 2.0).unwrap(); // violates 5 µm minimum
        let mut b = SequenceBuilder::new(reg);
        b.add_global_pulse(Pulse::constant(0.5, 4.0, 0.0, 0.0).unwrap());
        let ir = ProgramIr::new(b.build().unwrap(), 10, "test");
        match qpu.execute(&ir, 1) {
            Err(QpuError::Invalid(v)) => assert!(!v.is_empty()),
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn shot_limits_enforced() {
        let qpu = VirtualQpu::new("qpu0", 1);
        assert!(matches!(
            qpu.execute(&pi_pulse_ir(1, 100_000), 1),
            Err(QpuError::BadShots(_))
        ));
    }

    #[test]
    fn drift_changes_results_over_time() {
        let qpu = VirtualQpu::new("qpu0", 42);
        let ir = pi_pulse_ir(1, 2000);
        let fresh = qpu.execute(&ir, 5).unwrap();
        let base_max = DeviceSpec::analog_production().channels[0].max_amplitude;
        // Drift one week at a time. The OU processes are stationary at this
        // horizon so each week is an essentially independent draw; the effect
        // must become observable within a few draws no matter which side of
        // nominal the first sample lands on (the spec clamp hides rabi_scale
        // excursions above 1.0, so a single draw is a coin flip).
        let mut moved = false;
        for _ in 0..20 {
            qpu.advance_time(600_000.0);
            let drifted_cal_dev = {
                let spec = qpu.current_spec();
                (spec.channels[0].max_amplitude - base_max).abs()
            };
            let drifted = qpu.execute(&ir, 5).unwrap();
            // With percent-level Rabi error the π-pulse is slightly off; the
            // two occupations should differ beyond pure shot noise *or* the
            // effective spec visibly moved — either evidences the drift path.
            if (fresh.result.occupation(0) - drifted.result.occupation(0)).abs() > 1e-3
                || drifted_cal_dev > 1e-6
            {
                moved = true;
                break;
            }
        }
        assert!(moved, "no observable drift effect after 20 weeks");
    }

    #[test]
    fn fault_injection_visible_in_results_and_telemetry() {
        let qpu = VirtualQpu::new("qpu0", 1);
        qpu.inject_rabi_fault(0.3); // 30% laser power drop
        let ex = qpu.execute(&pi_pulse_ir(1, 2000), 9).unwrap();
        // π-pulse becomes 0.7π: P = sin²(0.35π) ≈ 0.79, well below 0.95
        let occ = ex.result.occupation(0);
        assert!(occ < 0.9, "fault should reduce transfer, got {occ}");
        // telemetry shows it
        let last = qpu.tsdb().last("qpu_rabi_scale").unwrap();
        assert!((last.value - 0.7).abs() < 1e-9);
    }

    #[test]
    fn recalibration_bumps_spec_revision_and_restores() {
        let qpu = VirtualQpu::new("qpu0", 1);
        let rev0 = qpu.current_spec().revision;
        qpu.inject_rabi_fault(0.5);
        qpu.recalibrate(1800.0);
        let spec = qpu.current_spec();
        assert_eq!(spec.revision, rev0 + 1);
        assert_eq!(
            spec.channels[0].max_amplitude,
            DeviceSpec::analog_production().channels[0].max_amplitude
        );
    }

    #[test]
    fn prometheus_exposition_includes_qpu_metrics() {
        let qpu = VirtualQpu::new("fresnel-1", 1);
        qpu.execute(&pi_pulse_ir(1, 5), 1).unwrap();
        qpu.advance_time(1.0);
        let text = qpu.registry().expose();
        assert!(text.contains("qpu_jobs_total{device=\"fresnel-1\"} 1"));
        assert!(text.contains("qpu_shots_total{device=\"fresnel-1\"} 5"));
        assert!(text.contains("qpu_rabi_scale"));
        assert!(text.contains("# TYPE qpu_rabi_scale gauge"));
    }

    #[test]
    fn faster_roadmap_device_runs_shots_faster() {
        let mut spec = DeviceSpec::analog_production();
        spec.shot_rate_hz = 100.0;
        let qpu = VirtualQpu::new("roadmap", 1).with_base_spec(spec);
        let ex = qpu.execute(&pi_pulse_ir(1, 100), 1).unwrap();
        assert!(
            (ex.device_secs - 4.0).abs() < 1e-9,
            "3s overhead + 1s shots"
        );
    }
}
