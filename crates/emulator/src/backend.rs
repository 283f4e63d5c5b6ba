//! The emulator backends behind a single execution interface.
//!
//! [`Emulator`] is the contract shared by the state-vector backend
//! ([`SvBackend`]) and the tensor-network backend ([`MpsBackend`]). The QRMI
//! layer wraps these as resources; the runtime environment picks one at
//! configuration time — never in source code.

use crate::mps::{evolve_sequence_mps, MpsConfig};
use crate::noise::SpamNoise;
use crate::par;
use crate::result::SampleResult;
use crate::statevector::{evolve_sequence, SvConfig, SV_MAX_QUBITS};
use hpcqc_program::{DeviceSpec, ProgramIr};
use rand::distributions::{Distribution, WeightedIndex};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Errors from emulator execution.
#[derive(Debug, Clone, PartialEq)]
pub enum EmulatorError {
    /// The program violates this backend's device spec.
    Validation(Vec<hpcqc_program::Violation>),
    /// The register is too large for the backend's method.
    TooLarge { qubits: usize, limit: usize },
    /// The integrated state produced a probability vector unusable for
    /// sampling (non-finite, negative, or all-zero weights) — the signature
    /// of a pathological integration rather than a user error.
    DegenerateDistribution { detail: String },
}

impl std::fmt::Display for EmulatorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EmulatorError::Validation(v) => {
                write!(f, "program invalid for device: {} violation(s)", v.len())
            }
            EmulatorError::TooLarge { qubits, limit } => {
                write!(
                    f,
                    "register of {qubits} qubits exceeds backend limit {limit}"
                )
            }
            EmulatorError::DegenerateDistribution { detail } => {
                write!(f, "degenerate sampling distribution: {detail}")
            }
        }
    }
}

impl std::error::Error for EmulatorError {}

/// SplitMix64 finalizer — decorrelates nearby integers into independent
/// 64-bit seeds.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Counter-derived RNG stream for one shot: mixing `(seed, shot)` gives
/// every shot its own independent deterministic stream, so shots can be
/// drawn in any order — or concurrently — with bit-identical results.
fn shot_rng(seed: u64, shot: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(splitmix64(
        seed.wrapping_add(shot.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
    ))
}

/// Draw the outcomes of shots `base..base + chunk.len()`, each from its own
/// counter-derived RNG stream. `draw` produces the raw bitstring; SPAM noise
/// is applied from the same per-shot stream.
fn sample_chunk<F>(base: usize, chunk: &mut [u64], n: usize, seed: u64, noise: &SpamNoise, draw: &F)
where
    F: Fn(&mut ChaCha8Rng) -> u64,
{
    for (k, slot) in chunk.iter_mut().enumerate() {
        let mut rng = shot_rng(seed, (base + k) as u64);
        let raw = draw(&mut rng);
        *slot = noise.apply(raw, n, &mut rng);
    }
}

/// Draw `shots` outcomes, chunked by [`par::for_each_chunk`].
fn sample_outcomes<F>(shots: u32, n: usize, seed: u64, noise: &SpamNoise, draw: F) -> Vec<u64>
where
    F: Fn(&mut ChaCha8Rng) -> u64 + Sync,
{
    let mut outcomes = vec![0u64; shots as usize];
    par::for_each_chunk(
        &mut outcomes,
        par::SHOT_CHUNK,
        par::SHOT_FORK_AT,
        |base, chunk| sample_chunk(base, chunk, n, seed, noise, &draw),
    );
    outcomes
}

/// Build the shot-sampling distribution from a probability vector,
/// renormalizing integrator drift and rejecting pathological states
/// instead of panicking.
pub fn sampling_distribution(probs: &[f64]) -> Result<WeightedIndex, EmulatorError> {
    let mut total = 0.0f64;
    for &p in probs {
        if !p.is_finite() || p < 0.0 {
            return Err(EmulatorError::DegenerateDistribution {
                detail: format!("invalid probability {p}"),
            });
        }
        total += p;
    }
    if !total.is_finite() || total <= 0.0 {
        return Err(EmulatorError::DegenerateDistribution {
            detail: format!("total weight {total}"),
        });
    }
    WeightedIndex::new(probs.iter().map(|p| p / total)).map_err(|e| {
        EmulatorError::DegenerateDistribution {
            detail: e.to_string(),
        }
    })
}

/// A classical backend that can execute analog programs.
pub trait Emulator: Send + Sync {
    /// Stable backend name used in results and telemetry.
    fn name(&self) -> &str;

    /// The device spec this backend enforces.
    fn spec(&self) -> DeviceSpec;

    /// Execute the program for `ir.shots` shots with a deterministic seed.
    fn run(&self, ir: &ProgramIr, seed: u64) -> Result<SampleResult, EmulatorError>;
}

/// Where one [`SvBackend::run_timed`] call spent its wall-clock,
/// milliseconds. Both phases are measured inside the *same* run, so
/// `total_ms = evolve_ms + sample_ms` holds exactly and the decomposition
/// is monotone by construction — unlike subtracting two independently
/// min-timed runs, where machine noise can make the "total" land below the
/// "evolve" and the difference clamp to zero.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SvPhaseTimings {
    /// Hamiltonian build + RK4 integration of the full schedule.
    pub evolve_ms: f64,
    /// Distribution build + shot sampling + SPAM + counting.
    pub sample_ms: f64,
    /// The whole run (`evolve_ms + sample_ms`).
    pub total_ms: f64,
}

/// Exact state-vector backend (EMU-SV stand-in). Limit ~20 qubits.
#[derive(Debug, Clone)]
pub struct SvBackend {
    /// Qubit cap enforced before exponential blow-up.
    pub max_qubits: usize,
    /// Integrator settings.
    pub config: SvConfig,
    /// Optional SPAM noise rehearsal.
    pub noise: SpamNoise,
}

impl Default for SvBackend {
    fn default() -> Self {
        SvBackend {
            max_qubits: 20,
            config: SvConfig::default(),
            noise: SpamNoise::none(),
        }
    }
}

impl SvBackend {
    /// [`Emulator::run`] with per-phase wall-clock attribution. One run,
    /// instrumented at the evolve/sample boundary — see [`SvPhaseTimings`]
    /// for why the phases must come from a single run.
    pub fn run_timed(
        &self,
        ir: &ProgramIr,
        seed: u64,
    ) -> Result<(SampleResult, SvPhaseTimings), EmulatorError> {
        let n = ir.sequence.num_qubits();
        let limit = self.max_qubits.min(SV_MAX_QUBITS);
        if n > limit {
            return Err(EmulatorError::TooLarge { qubits: n, limit });
        }
        let spec = self.spec();
        let violations = hpcqc_program::validate(&ir.sequence, &spec);
        if !violations.is_empty() {
            return Err(EmulatorError::Validation(violations));
        }
        let t0 = std::time::Instant::now();
        let state = evolve_sequence(&ir.sequence, spec.c6_coefficient, &self.config);
        let evolve_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t1 = std::time::Instant::now();
        let probs = state.probabilities();
        let dist = sampling_distribution(&probs)?;
        let outcomes = sample_outcomes(ir.shots, n, seed, &self.noise, |rng| {
            dist.sample(rng) as u64
        });
        let result = SampleResult::from_shots(n, &outcomes, self.name());
        let sample_ms = t1.elapsed().as_secs_f64() * 1e3;
        Ok((
            result,
            SvPhaseTimings {
                evolve_ms,
                sample_ms,
                total_ms: evolve_ms + sample_ms,
            },
        ))
    }
}

impl Emulator for SvBackend {
    fn name(&self) -> &str {
        "emu-sv"
    }

    fn spec(&self) -> DeviceSpec {
        // The advertised cap never exceeds what the dense method can hold:
        // a misconfigured `max_qubits > 26` must surface as `TooLarge`, not
        // as a panic in `StateVector::ground`.
        DeviceSpec::emulator("emu-sv", self.max_qubits.min(SV_MAX_QUBITS))
    }

    fn run(&self, ir: &ProgramIr, seed: u64) -> Result<SampleResult, EmulatorError> {
        self.run_timed(ir, seed).map(|(res, _)| res)
    }
}

/// Tensor-network backend (EMU-MPS stand-in); scales to larger registers at
/// controlled accuracy via the bond dimension.
#[derive(Debug, Clone)]
pub struct MpsBackend {
    /// Qubit cap (sampling is `u64` bitstrings: ≤ 64).
    pub max_qubits: usize,
    /// TEBD / truncation settings, including `chi_max`.
    pub config: MpsConfig,
    /// Optional SPAM noise rehearsal.
    pub noise: SpamNoise,
}

impl Default for MpsBackend {
    fn default() -> Self {
        MpsBackend {
            max_qubits: 64,
            config: MpsConfig::default(),
            noise: SpamNoise::none(),
        }
    }
}

impl MpsBackend {
    /// The χ=1 product-state "mock" backend from the paper's footnote 3:
    /// cheap enough to stand in for the QPU in end-to-end tests while
    /// enforcing production device limits.
    pub fn product_state_mock() -> Self {
        MpsBackend {
            max_qubits: 100,
            config: MpsConfig {
                chi_max: 1,
                max_dt: 5e-3,
                ..MpsConfig::default()
            },
            noise: SpamNoise::none(),
        }
    }
}

impl Emulator for MpsBackend {
    fn name(&self) -> &str {
        if self.config.chi_max == 1 {
            "emu-mps-mock"
        } else {
            "emu-mps"
        }
    }

    fn spec(&self) -> DeviceSpec {
        if self.config.chi_max == 1 {
            // mock mode validates against production limits (footnote 3)
            DeviceSpec::mock_of_production()
        } else {
            DeviceSpec::emulator("emu-mps", self.max_qubits)
        }
    }

    fn run(&self, ir: &ProgramIr, seed: u64) -> Result<SampleResult, EmulatorError> {
        let n = ir.sequence.num_qubits();
        if n > self.max_qubits {
            return Err(EmulatorError::TooLarge {
                qubits: n,
                limit: self.max_qubits,
            });
        }
        let spec = self.spec();
        let violations = hpcqc_program::validate(&ir.sequence, &spec);
        if !violations.is_empty() {
            return Err(EmulatorError::Validation(violations));
        }
        let mut mps = evolve_sequence_mps(&ir.sequence, spec.c6_coefficient, &self.config);
        let trunc = mps.truncation_error;
        // Canonicalize and normalize once; per-shot draws are then read-only
        // and run concurrently on independent counter-derived streams.
        mps.prepare_sampling();
        let mps = &mps;
        let outcomes = sample_outcomes(ir.shots, n, seed, &self.noise, |rng| {
            mps.sample_prepared(rng)
        });
        let mut res = SampleResult::from_shots(n, &outcomes, self.name());
        res.truncation_error = trunc;
        Ok(res)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcqc_program::{Pulse, Register, SequenceBuilder};

    fn pi_pulse_ir(n: usize, spacing: f64, shots: u32) -> ProgramIr {
        let reg = Register::linear(n, spacing).unwrap();
        let omega = 4.0;
        let mut b = SequenceBuilder::new(reg);
        b.add_global_pulse(Pulse::constant(std::f64::consts::PI / omega, omega, 0.0, 0.0).unwrap());
        ProgramIr::new(b.build().unwrap(), shots, "test")
    }

    #[test]
    fn sv_backend_pi_pulse_excites_isolated_atom() {
        let ir = pi_pulse_ir(1, 6.0, 200);
        let res = SvBackend::default().run(&ir, 1).unwrap();
        assert_eq!(res.shots, 200);
        assert!(res.occupation(0) > 0.99, "π pulse: {}", res.occupation(0));
        assert_eq!(res.backend, "emu-sv");
    }

    #[test]
    fn sv_backend_rejects_oversized_register() {
        let ir = pi_pulse_ir(21, 6.0, 10);
        match SvBackend::default().run(&ir, 1) {
            Err(EmulatorError::TooLarge {
                qubits: 21,
                limit: 20,
            }) => {}
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn sv_and_mps_agree_on_distribution() {
        let ir = pi_pulse_ir(3, 9.0, 4000);
        let sv = SvBackend::default().run(&ir, 11).unwrap();
        let mps = MpsBackend {
            config: MpsConfig {
                chi_max: 16,
                max_dt: 5e-4,
                ..MpsConfig::default()
            },
            ..MpsBackend::default()
        }
        .run(&ir, 12)
        .unwrap();
        let tv = sv.total_variation_distance(&mps);
        assert!(tv < 0.06, "backends disagree: TV = {tv}");
    }

    #[test]
    fn results_are_seed_deterministic() {
        let ir = pi_pulse_ir(2, 7.0, 100);
        let b = SvBackend::default();
        let r1 = b.run(&ir, 99).unwrap();
        let r2 = b.run(&ir, 99).unwrap();
        assert_eq!(r1, r2);
        let r3 = b.run(&ir, 100).unwrap();
        assert_ne!(r1.counts, r3.counts, "different seed, different samples");
    }

    #[test]
    fn mock_backend_enforces_production_limits() {
        // 3 µm spacing violates the production min distance of 5 µm: the
        // mock catches it even though a generic emulator would accept it.
        let ir = pi_pulse_ir(3, 3.0, 10);
        let mock = MpsBackend::product_state_mock();
        match mock.run(&ir, 1) {
            Err(EmulatorError::Validation(v)) => {
                assert!(!v.is_empty());
            }
            other => panic!("expected validation failure, got {other:?}"),
        }
        assert_eq!(mock.name(), "emu-mps-mock");
        // And a conforming program passes.
        let ok = pi_pulse_ir(3, 6.0, 10);
        assert!(mock.run(&ok, 1).is_ok());
    }

    #[test]
    fn noisy_backend_biases_occupation() {
        let b = SvBackend {
            noise: SpamNoise {
                epsilon: 0.0,
                epsilon_prime: 0.2,
            },
            ..Default::default()
        };
        let ir = pi_pulse_ir(1, 6.0, 5000);
        let res = b.run(&ir, 5).unwrap();
        // true occupation 1.0, measured ~0.8
        assert!(
            (res.occupation(0) - 0.8).abs() < 0.03,
            "got {}",
            res.occupation(0)
        );
    }

    #[test]
    fn sv_cap_above_dense_limit_errors_instead_of_panicking() {
        // Regression: a misconfigured cap above the dense method's 26-qubit
        // ceiling used to reach `StateVector::ground` and panic; it must
        // surface as `TooLarge` clamped to the real limit.
        let b = SvBackend {
            max_qubits: 32,
            ..Default::default()
        };
        assert_eq!(b.spec().max_qubits, SV_MAX_QUBITS);
        let ir = pi_pulse_ir(27, 6.0, 4);
        match b.run(&ir, 1) {
            Err(EmulatorError::TooLarge {
                qubits: 27,
                limit: 26,
            }) => {}
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn sampling_distribution_rejects_pathological_inputs() {
        for probs in [
            &[0.5, f64::NAN][..],
            &[0.5, f64::INFINITY][..],
            &[0.2, -0.1][..],
            &[0.0, 0.0][..],
        ] {
            match sampling_distribution(probs) {
                Err(EmulatorError::DegenerateDistribution { .. }) => {}
                other => panic!("expected DegenerateDistribution for {probs:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn sampling_distribution_renormalizes_drifted_probs() {
        // Integrator drift leaves the vector slightly sub-normalized; the
        // distribution renormalizes instead of rejecting or skewing.
        let dist = sampling_distribution(&[0.2, 0.1]).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let hits = (0..3000).filter(|_| dist.sample(&mut rng) == 0).count();
        let frac = hits as f64 / 3000.0;
        assert!((frac - 2.0 / 3.0).abs() < 0.05, "got {frac}");
    }

    /// `sample_outcomes` with the fork forced, whatever the shot count.
    fn forked_outcomes<F>(shots: u32, n: usize, seed: u64, noise: &SpamNoise, draw: &F) -> Vec<u64>
    where
        F: Fn(&mut ChaCha8Rng) -> u64 + Sync,
    {
        let mut outcomes = vec![0u64; shots as usize];
        par::forked(&mut outcomes, par::SHOT_CHUNK, |base, chunk| {
            sample_chunk(base, chunk, n, seed, noise, draw)
        });
        outcomes
    }

    #[test]
    fn sv_parallel_sampling_matches_serial_reference() {
        // The sampler's forked arm (called directly: 500 shots are below
        // SHOT_FORK_AT) and the arm `run` takes must both reproduce a plain
        // serial loop over the same per-shot streams exactly, including the
        // SPAM draws.
        let ir = pi_pulse_ir(3, 9.0, 500);
        let b = SvBackend {
            noise: SpamNoise {
                epsilon: 0.02,
                epsilon_prime: 0.05,
            },
            ..Default::default()
        };
        let seed = 42;
        let res = b.run(&ir, seed).unwrap();
        let spec = b.spec();
        let state = evolve_sequence(&ir.sequence, spec.c6_coefficient, &b.config);
        let dist = sampling_distribution(&state.probabilities()).unwrap();
        let n = ir.sequence.num_qubits();
        let outcomes: Vec<u64> = (0..ir.shots as u64)
            .map(|shot| {
                let mut rng = shot_rng(seed, shot);
                let raw = dist.sample(&mut rng) as u64;
                b.noise.apply(raw, n, &mut rng)
            })
            .collect();
        let reference = SampleResult::from_shots(n, &outcomes, b.name());
        assert_eq!(res.counts, reference.counts);
        let draw = |rng: &mut ChaCha8Rng| dist.sample(rng) as u64;
        assert_eq!(
            forked_outcomes(ir.shots, n, seed, &b.noise, &draw),
            outcomes
        );
    }

    #[test]
    fn mps_parallel_sampling_matches_serial_reference() {
        let ir = pi_pulse_ir(4, 6.0, 300);
        let b = MpsBackend::default();
        let seed = 7;
        let res = b.run(&ir, seed).unwrap();
        let spec = b.spec();
        let mut mps = evolve_sequence_mps(&ir.sequence, spec.c6_coefficient, &b.config);
        mps.prepare_sampling();
        let n = ir.sequence.num_qubits();
        let outcomes: Vec<u64> = (0..ir.shots as u64)
            .map(|shot| {
                let mut rng = shot_rng(seed, shot);
                let raw = mps.sample_prepared(&mut rng);
                b.noise.apply(raw, n, &mut rng)
            })
            .collect();
        let reference = SampleResult::from_shots(n, &outcomes, b.name());
        assert_eq!(res.counts, reference.counts);
        let draw = |rng: &mut ChaCha8Rng| mps.sample_prepared(rng);
        assert_eq!(
            forked_outcomes(ir.shots, n, seed, &b.noise, &draw),
            outcomes
        );
    }

    #[test]
    fn run_timed_phases_sum_to_total_and_match_run() {
        let ir = pi_pulse_ir(4, 6.0, 300);
        let b = SvBackend::default();
        let (timed_res, t) = b.run_timed(&ir, 42).unwrap();
        assert_eq!(timed_res, b.run(&ir, 42).unwrap());
        assert!(t.evolve_ms > 0.0 && t.evolve_ms.is_finite());
        assert!(t.sample_ms >= 0.0 && t.sample_ms.is_finite());
        assert_eq!(t.total_ms, t.evolve_ms + t.sample_ms);
        assert!(
            t.total_ms >= t.evolve_ms,
            "single-run phase decomposition is monotone by construction"
        );
    }

    #[test]
    fn mps_reports_truncation_error() {
        let ir = pi_pulse_ir(6, 5.5, 50);
        let tight = MpsBackend {
            config: MpsConfig {
                chi_max: 1,
                max_dt: 1e-3,
                ..MpsConfig::default()
            },
            max_qubits: 64,
            noise: SpamNoise::none(),
        };
        let res = tight.run(&ir, 3).unwrap();
        assert!(
            res.truncation_error > 0.0,
            "χ=1 on an entangling program truncates"
        );
    }
}
