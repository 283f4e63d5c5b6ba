//! Quality-assurance (QA) jobs.
//!
//! Hosting sites and the device itself periodically schedule diagnostic
//! programs against the QPU (paper §3.4). The canonical probe is a
//! single-atom resonant π-pulse: its transfer probability is a direct,
//! model-free measurement of the combined calibration quality, and the
//! measured value feeds the drift detectors of the observability stack.

use crate::device::{QpuError, VirtualQpu};
use hpcqc_program::{ProgramIr, Pulse, Register, SequenceBuilder};
use serde::{Deserialize, Serialize};

/// Result of one QA probe.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QaReport {
    /// Measured π-pulse transfer probability.
    pub transfer_probability: f64,
    /// Expected value under nominal calibration (1 − ε′ for ideal transfer).
    pub expected: f64,
    /// `measured − expected`.
    pub deficit: f64,
    /// Health score in [0, 1]: 1 means at/above expectation.
    pub health: f64,
    /// Device time consumed by the probe (s).
    pub device_secs: f64,
    /// Calibration revision probed.
    pub calibration_revision: u64,
}

/// The canonical single-atom π-pulse QA program.
pub fn qa_program(shots: u32) -> ProgramIr {
    let reg = Register::from_coords(&[(0.0, 0.0)]).expect("single-site register");
    let omega = 4.0; // well within any calibrated envelope
    let mut b = SequenceBuilder::new(reg);
    b.add_global_pulse(
        Pulse::constant(std::f64::consts::PI / omega, omega, 0.0, 0.0).expect("valid probe pulse"),
    );
    ProgramIr::new(b.build().expect("non-empty"), shots, "qa")
}

/// Run a QA probe on the device and score it.
///
/// `nominal_epsilon_prime` is the readout false-negative rate the site
/// accepts as baseline; the expected transfer is `1 − ε′`.
pub fn run_qa(
    qpu: &VirtualQpu,
    shots: u32,
    nominal_epsilon_prime: f64,
    seed: u64,
) -> Result<QaReport, QpuError> {
    let ir = qa_program(shots);
    let ex = qpu.execute(&ir, seed)?;
    let measured = ex.result.occupation(0);
    let expected = 1.0 - nominal_epsilon_prime;
    let deficit = measured - expected;
    let health = (measured / expected).clamp(0.0, 1.0);
    // publish for the observability stack
    qpu.tsdb().append("qpu_qa_transfer", qpu.now(), measured);
    qpu.registry().set(
        &hpcqc_telemetry::catalog::QPU_QA_HEALTH,
        hpcqc_telemetry::labels(&[("device", qpu.name())]),
        health,
    );
    Ok(QaReport {
        transfer_probability: measured,
        expected,
        deficit,
        health,
        device_secs: ex.device_secs,
        calibration_revision: ex.calibration_revision,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qa_program_is_single_atom_pi_pulse() {
        let ir = qa_program(100);
        assert_eq!(ir.sequence.num_qubits(), 1);
        assert_eq!(ir.shots, 100);
        assert_eq!(ir.sdk, "qa");
        // pulse area ≈ π
        let area = ir.sequence.pulses[0].pulse.amplitude.integral();
        assert!((area - std::f64::consts::PI).abs() < 1e-9);
    }

    #[test]
    fn healthy_device_scores_high() {
        let qpu = VirtualQpu::new("qpu0", 1);
        let report = run_qa(&qpu, 1000, 0.03, 5).unwrap();
        assert!(report.health > 0.97, "health {}", report.health);
        assert!(report.deficit.abs() < 0.03);
        assert_eq!(report.calibration_revision, 1);
    }

    #[test]
    fn faulty_device_scores_low() {
        let qpu = VirtualQpu::new("qpu0", 1);
        qpu.inject_rabi_fault(0.3);
        let report = run_qa(&qpu, 1000, 0.03, 5).unwrap();
        assert!(
            report.health < 0.9,
            "fault must degrade health: {}",
            report.health
        );
        assert!(report.deficit < -0.05);
    }

    #[test]
    fn qa_publishes_telemetry() {
        let qpu = VirtualQpu::new("qpu0", 1);
        run_qa(&qpu, 200, 0.03, 5).unwrap();
        assert!(!qpu.tsdb().is_empty("qpu_qa_transfer"));
        assert!(qpu.registry().expose().contains("qpu_qa_health"));
    }

    #[test]
    fn qa_detects_recovery_after_recalibration() {
        let qpu = VirtualQpu::new("qpu0", 1);
        qpu.inject_rabi_fault(0.3);
        let sick = run_qa(&qpu, 1000, 0.03, 5).unwrap();
        qpu.recalibrate(600.0);
        let healthy = run_qa(&qpu, 1000, 0.03, 6).unwrap();
        assert!(healthy.health > sick.health);
        assert_eq!(healthy.calibration_revision, sick.calibration_revision + 1);
    }
}
