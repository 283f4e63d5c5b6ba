//! Batched parameter-sweep execution over one program template.
//!
//! Hybrid workloads (variational loops, phase-diagram scans, QAOA-style
//! parameter searches) run the *same* program shape many times with
//! different drive parameters. Submitting each point as an independent run
//! repeats work that depends only on the template: building the
//! [`RydbergHamiltonian`] (fixed by the register) and allocating the RK4
//! workspace. [`BatchRunner`] executes a whole sweep with those two shared
//! and nothing else: every point's schedule is discretized from its own
//! materialized sequence, exactly as an independent run would.
//!
//! The defining contract, asserted bit-for-bit by the tests: a sweep over
//! `N` points with base seed `s` returns exactly what `N` independent
//! [`Emulator::run`] calls on the materialized programs with seeds
//! `s, s+1, …, s+N−1` would return — per-point validation, integration
//! grids and the counter-derived per-shot RNG streams included.

use crate::backend::{sample_outcomes, sampling_distribution, Emulator, EmulatorError, SvBackend};
use crate::hamiltonian::RydbergHamiltonian;
use crate::result::SampleResult;
use crate::statevector::{evolve_sequence_ws_h, SvWorkspace, SV_MAX_QUBITS};
use hpcqc_program::{ProgramIr, Pulse, Sequence, TimedPulse};
use rand::distributions::Distribution;
use serde::{Deserialize, Serialize};

/// One parameter assignment of a sweep: a pointwise transform applied to a
/// template [`Sequence`]. Durations and geometry are never changed, so every
/// materialized program shares the template's register, schedule timing, and
/// Hamiltonian structure.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Multiplier on the Rabi amplitude waveform Ω(t).
    pub omega_scale: f64,
    /// Multiplier on the detuning waveform δ(t).
    pub delta_scale: f64,
    /// Additive offset on every pulse's carrier phase (rad).
    pub phase_offset: f64,
}

impl SweepPoint {
    /// The point that materializes the template unchanged.
    pub fn identity() -> Self {
        SweepPoint {
            omega_scale: 1.0,
            delta_scale: 1.0,
            phase_offset: 0.0,
        }
    }

    /// Apply this point to a template: scale amplitude and detuning
    /// waveforms pointwise, offset each pulse's phase. Channels, start
    /// times, durations, register, and measurement basis are untouched.
    pub fn materialize(&self, template: &Sequence) -> Sequence {
        Sequence {
            register: template.register.clone(),
            measurement_basis: template.measurement_basis.clone(),
            pulses: template
                .pulses
                .iter()
                .map(|tp| TimedPulse {
                    channel: tp.channel.clone(),
                    start: tp.start,
                    pulse: Pulse {
                        amplitude: tp.pulse.amplitude.scaled(self.omega_scale),
                        detuning: tp.pulse.detuning.scaled(self.delta_scale),
                        phase: tp.pulse.phase + self.phase_offset,
                    },
                })
                .collect(),
        }
    }
}

/// Executes sweeps on a state-vector backend with template-level work
/// shared across points: one Hamiltonian build and one workspace allocation.
pub struct BatchRunner<'a> {
    backend: &'a SvBackend,
}

impl<'a> BatchRunner<'a> {
    /// A runner borrowing the backend's configuration, noise, and limits.
    pub fn new(backend: &'a SvBackend) -> Self {
        BatchRunner { backend }
    }

    /// Run `template` at every sweep point, seeds `seed_base + k`.
    ///
    /// Fails fast with the first point's error (the same error `N`
    /// sequential runs would hit first): every point is validated against
    /// the device spec individually, because a scaled drive can violate
    /// limits the template satisfies.
    pub fn run_sweep(
        &self,
        template: &ProgramIr,
        points: &[SweepPoint],
        seed_base: u64,
    ) -> Result<Vec<SampleResult>, EmulatorError> {
        let seq = &template.sequence;
        let n = seq.num_qubits();
        let limit = self.backend.max_qubits.min(SV_MAX_QUBITS);
        if n > limit {
            return Err(EmulatorError::TooLarge { qubits: n, limit });
        }
        let spec = self.backend.spec();
        let h = RydbergHamiltonian::new(&seq.register, spec.c6_coefficient);
        let mut ws = SvWorkspace::new();
        let mut results = Vec::with_capacity(points.len());
        for (k, point) in points.iter().enumerate() {
            let seq_k = point.materialize(seq);
            let violations = hpcqc_program::validate(&seq_k, &spec);
            if !violations.is_empty() {
                return Err(EmulatorError::Validation(violations));
            }
            let state = evolve_sequence_ws_h(&h, &seq_k, &self.backend.config, &mut ws);
            let dist = sampling_distribution(&state.probabilities())?;
            let seed = seed_base.wrapping_add(k as u64);
            let outcomes = sample_outcomes(template.shots, n, seed, &self.backend.noise, |rng| {
                dist.sample(rng) as u64
            });
            results.push(SampleResult::from_shots(n, &outcomes, self.backend.name()));
        }
        Ok(results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::SpamNoise;
    use hpcqc_program::sequence::GLOBAL_CHANNEL;
    use hpcqc_program::{Register, SequenceBuilder, Waveform};

    /// QAOA-style all-constant template: alternating drive layers with
    /// distinct phases on a blockaded chain.
    fn constant_template(n: usize, shots: u32) -> ProgramIr {
        let reg = Register::linear(n, 10.0).unwrap();
        let mut b = SequenceBuilder::new(reg);
        b.add_global_pulse(Pulse::constant(0.1, 4.0, 1.0, 0.0).unwrap());
        b.add_global_pulse(Pulse::constant(0.1, 3.0, -2.0, 0.7).unwrap());
        b.add_global_pulse(Pulse::constant(0.1, 4.0, 1.5, 1.9).unwrap());
        ProgramIr::new(b.build().unwrap(), shots, "batch-test")
    }

    /// Template with ramps: sampled waveforms instead of stored constants.
    fn ramp_template(n: usize, shots: u32) -> ProgramIr {
        let reg = Register::linear(n, 10.0).unwrap();
        let mut b = SequenceBuilder::new(reg);
        b.add_global_pulse(
            Pulse::new(
                Waveform::ramp(0.2, 0.0, 4.0).unwrap(),
                Waveform::ramp(0.2, -2.0, 2.0).unwrap(),
                0.3,
            )
            .unwrap(),
        );
        ProgramIr::new(b.build().unwrap(), shots, "batch-test")
    }

    fn grid_points(n: usize) -> Vec<SweepPoint> {
        (0..n)
            .map(|k| SweepPoint {
                omega_scale: 0.5 + 0.05 * k as f64,
                delta_scale: -1.5 + 0.1 * k as f64,
                phase_offset: 0.2 * k as f64,
            })
            .collect()
    }

    fn sequential_reference(
        backend: &SvBackend,
        template: &ProgramIr,
        points: &[SweepPoint],
        seed_base: u64,
    ) -> Vec<SampleResult> {
        points
            .iter()
            .enumerate()
            .map(|(k, p)| {
                let mut ir = template.clone();
                ir.sequence = p.materialize(&template.sequence);
                backend
                    .run(&ir, seed_base.wrapping_add(k as u64))
                    .expect("sequential run succeeds")
            })
            .collect()
    }

    #[test]
    fn identity_point_materializes_template_unchanged() {
        let tpl = constant_template(3, 10).sequence;
        assert_eq!(SweepPoint::identity().materialize(&tpl), tpl);
        let tpl = ramp_template(3, 10).sequence;
        assert_eq!(SweepPoint::identity().materialize(&tpl), tpl);
    }

    #[test]
    fn materialize_scales_values_not_timing() {
        let tpl = constant_template(2, 10).sequence;
        let p = SweepPoint {
            omega_scale: 0.5,
            delta_scale: -2.0,
            phase_offset: 1.0,
        };
        let m = p.materialize(&tpl);
        assert_eq!(m.duration(), tpl.duration());
        assert_eq!(m.pulses.len(), tpl.pulses.len());
        for (a, b) in m.pulses.iter().zip(&tpl.pulses) {
            assert_eq!(a.start, b.start);
            assert_eq!(a.pulse.duration(), b.pulse.duration());
            assert_eq!(a.pulse.phase, b.pulse.phase + 1.0);
        }
        let (o, d, _) = m.drive_at(GLOBAL_CHANNEL, 0.05);
        assert_eq!(o, 4.0 * 0.5);
        assert_eq!(d, 1.0 * -2.0);
    }

    #[test]
    fn batched_constant_sweep_matches_sequential_runs_bit_for_bit() {
        // The tentpole contract: a 32-point sweep through the BatchRunner
        // equals 32 independent backend runs exactly — same counts, same
        // per-shot streams.
        let backend = SvBackend::default();
        let tpl = constant_template(6, 64);
        let points = grid_points(32);
        let seed_base = 1234;
        let batched = BatchRunner::new(&backend)
            .run_sweep(&tpl, &points, seed_base)
            .unwrap();
        let sequential = sequential_reference(&backend, &tpl, &points, seed_base);
        assert_eq!(batched.len(), 32);
        assert_eq!(batched, sequential);
    }

    #[test]
    fn batched_ramp_sweep_matches_sequential_runs_bit_for_bit() {
        // Ramp waveforms: same contract.
        let backend = SvBackend::default();
        let tpl = ramp_template(4, 50);
        let points = grid_points(6);
        let batched = BatchRunner::new(&backend)
            .run_sweep(&tpl, &points, 9)
            .unwrap();
        let sequential = sequential_reference(&backend, &tpl, &points, 9);
        assert_eq!(batched, sequential);
    }

    #[test]
    fn batched_sweep_with_noise_matches_sequential() {
        // SPAM draws come from the same per-shot streams as the outcome
        // draw; the batch path must reproduce them too.
        let backend = SvBackend {
            noise: SpamNoise {
                epsilon: 0.03,
                epsilon_prime: 0.07,
            },
            ..SvBackend::default()
        };
        let tpl = constant_template(4, 100);
        let points = grid_points(5);
        let batched = BatchRunner::new(&backend)
            .run_sweep(&tpl, &points, 77)
            .unwrap();
        let sequential = sequential_reference(&backend, &tpl, &points, 77);
        assert_eq!(batched, sequential);
    }

    #[test]
    fn emulator_trait_sweep_agrees_with_batch_runner() {
        // `SvBackend::run_sweep` routes through the BatchRunner; the trait's
        // default (sequential) implementation must agree with it.
        let backend = SvBackend::default();
        let tpl = constant_template(5, 40);
        let points = grid_points(8);
        let via_trait = backend.run_sweep(&tpl, &points, 5).unwrap();
        let sequential = sequential_reference(&backend, &tpl, &points, 5);
        assert_eq!(via_trait, sequential);
    }

    #[test]
    fn scaled_point_can_violate_spec_template_satisfies() {
        // Ω scaled past the emulator channel limit: the *point* must be
        // validated, not just the template.
        let backend = SvBackend::default();
        let tpl = constant_template(3, 10);
        assert!(hpcqc_program::validate(&tpl.sequence, &backend.spec()).is_empty());
        let bad = [SweepPoint {
            omega_scale: 100.0, // 4.0 → 400 rad/µs, limit is 125.7
            ..SweepPoint::identity()
        }];
        match BatchRunner::new(&backend).run_sweep(&tpl, &bad, 1) {
            Err(EmulatorError::Validation(v)) => assert!(!v.is_empty()),
            other => panic!("expected Validation, got {other:?}"),
        }
    }

    #[test]
    fn oversized_register_rejected_before_any_work() {
        let backend = SvBackend::default();
        let tpl = constant_template(21, 10);
        match BatchRunner::new(&backend).run_sweep(&tpl, &[SweepPoint::identity()], 1) {
            Err(EmulatorError::TooLarge {
                qubits: 21,
                limit: 20,
            }) => {}
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn empty_sweep_returns_no_results() {
        let backend = SvBackend::default();
        let tpl = constant_template(3, 10);
        let res = BatchRunner::new(&backend).run_sweep(&tpl, &[], 1).unwrap();
        assert!(res.is_empty());
    }
}
