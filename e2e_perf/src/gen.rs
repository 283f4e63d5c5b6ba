//! Seeded input generation. `--seed` drives the pulse parameters of every
//! program (and nothing else); the program under test only ever sees the
//! generated `ProgramIr`s. Parameters are a pure function of
//! `(seed, workload, k)`, so two runs with one seed submit the same programs
//! in the same order however fast either run goes, and the printed hash of
//! the table shows it.

use crate::stats::{fnv1a64, FNV_OFFSET};
use hpcqc_emulator::SampleResult;
use hpcqc_program::{ProgramIr, Register};
use hpcqc_sdk::AnalogProgram;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Atom spacing of every register, µm (the `qaoa_template` geometry of
/// `emulator_perf`).
const SPACING_UM: f64 = 10.0;
/// Duration of each of the four constant pulses, µs.
const PULSE_US: f64 = 0.1;

/// The first driver and cost layers, the same in every program. They carry
/// the strongest drive of the schedule, and the emulator sizes its time step
/// from exactly that — so every program of a given size costs the same
/// number of integrator steps whatever the seed drew for the second layers.
/// (With all five parameters free, one seed's programs cost up to a third
/// more than another's, and seeds could not be compared.)
const OMEGA_MAX: f64 = 5.0;
const DELTA_MAX: f64 = 4.0;

/// Ω₂, φ₂, δ₂ of the second driver/cost layers: what the seed varies.
pub type Params = [f64; 3];

const LO: Params = [3.0, 0.0, 2.0];
const HI: Params = [OMEGA_MAX, 1.2, DELTA_MAX];

/// Size of one generated program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    pub qubits: usize,
    pub shots: u32,
}

/// Pre-drawn parameters for one stream of programs of one shape.
pub struct ProgramTable {
    pub shape: Shape,
    rows: Vec<Params>,
}

impl ProgramTable {
    /// A bounded random walk: each row is the previous one plus a seeded
    /// step — the classical optimiser's next parameters in the loop
    /// workloads. The measured energy is computed and tallied but does not
    /// steer the walk, which keeps the program set independent of timing.
    pub fn walk(seed: u64, stream: u64, shape: Shape, rows: usize) -> Self {
        let mut rng = stream_rng(seed, stream);
        let mut cur: Params = std::array::from_fn(|i| rng.gen_range(LO[i]..HI[i]));
        let rows = (0..rows)
            .map(|_| {
                for i in 0..cur.len() {
                    let step = 0.05 * (HI[i] - LO[i]) * rng.gen_range(-1.0..1.0);
                    cur[i] = (cur[i] + step).clamp(LO[i], HI[i]);
                }
                cur
            })
            .collect();
        ProgramTable { shape, rows }
    }

    /// Independent draws: the distinct points of a parameter sweep.
    pub fn scatter(seed: u64, stream: u64, shape: Shape, rows: usize) -> Self {
        let mut rng = stream_rng(seed, stream);
        let rows = (0..rows)
            .map(|_| std::array::from_fn(|i| rng.gen_range(LO[i]..HI[i])))
            .collect();
        ProgramTable { shape, rows }
    }

    /// Build program `k` through the analog SDK (wraps around a table far
    /// longer than any window can consume).
    pub fn program(&self, k: usize) -> ProgramIr {
        let p = &self.rows[k % self.rows.len()];
        let register =
            Register::linear(self.shape.qubits, SPACING_UM).expect("a linear register is valid");
        AnalogProgram::on(register)
            .pulse(PULSE_US, OMEGA_MAX, 0.0, 0.0)
            .pulse(PULSE_US, 0.0, DELTA_MAX, 0.0)
            .pulse(PULSE_US, p[0], 0.0, p[1])
            .pulse(PULSE_US, 0.0, p[2], 0.0)
            .to_ir(self.shape.shots)
            .expect("constant pulses inside the emulator's limits build")
    }

    /// Detuning of the last cost layer of program `k`, used by the classical
    /// energy estimate.
    pub fn cost_detuning(&self, k: usize) -> f64 {
        self.rows[k % self.rows.len()][2]
    }

    /// FNV-1a over the shape and every parameter's bit pattern.
    pub fn fold_hash(&self, mut h: u64) -> u64 {
        h = fnv1a64(h, &(self.shape.qubits as u64).to_le_bytes());
        h = fnv1a64(h, &self.shape.shots.to_le_bytes());
        for row in &self.rows {
            for v in row {
                h = fnv1a64(h, &v.to_bits().to_le_bytes());
            }
        }
        h
    }
}

/// Hash of a workload's whole generated program set.
pub fn program_set_hash(tables: &[&ProgramTable]) -> u64 {
    tables.iter().fold(FNV_OFFSET, |h, t| t.fold_hash(h))
}

fn stream_rng(seed: u64, stream: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The classical half of a hybrid iteration: a Rydberg-chain energy estimate
/// from the measured counts (detuning reward per excitation, blockade
/// penalty per adjacent excited pair).
pub fn energy_from_counts(result: &SampleResult, detuning: f64) -> f64 {
    const BLOCKADE: f64 = 8.0;
    let total: f64 = result
        .counts
        .iter()
        .map(|(&bits, &count)| {
            let excited = bits.count_ones() as f64;
            let adjacent = (bits & (bits >> 1)).count_ones() as f64;
            count as f64 * (BLOCKADE * adjacent - detuning * excited)
        })
        .sum();
    total / result.shots.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: Shape = Shape {
        qubits: 4,
        shots: 50,
    };

    #[test]
    fn one_seed_one_program_set() {
        let a = ProgramTable::walk(7, 1, SHAPE, 64);
        let b = ProgramTable::walk(7, 1, SHAPE, 64);
        assert_eq!(program_set_hash(&[&a]), program_set_hash(&[&b]));
        assert_eq!(a.program(5), b.program(5));
        let other_seed = ProgramTable::walk(8, 1, SHAPE, 64);
        let other_stream = ProgramTable::walk(7, 2, SHAPE, 64);
        assert_ne!(program_set_hash(&[&a]), program_set_hash(&[&other_seed]));
        assert_ne!(program_set_hash(&[&a]), program_set_hash(&[&other_stream]));
    }

    #[test]
    fn programs_stay_inside_the_parameter_box_and_differ() {
        for table in [
            ProgramTable::walk(3, 1, SHAPE, 256),
            ProgramTable::scatter(3, 1, SHAPE, 256),
        ] {
            for row in &table.rows {
                for i in 0..row.len() {
                    assert!((LO[i]..=HI[i]).contains(&row[i]), "{row:?}");
                }
            }
            let ir = table.program(0);
            assert_eq!(ir.shots, 50);
            assert_eq!(ir.sequence.num_qubits(), 4);
            assert_ne!(
                table.program(0).fingerprint(),
                table.program(1).fingerprint()
            );
            assert_eq!(table.program(0), table.program(256), "wraps around");
        }
    }

    #[test]
    fn energy_counts_excitations_and_blockade() {
        // 0b011: two adjacent excitations; 0b101: two, not adjacent
        let r = SampleResult::from_shots(3, &[0b011, 0b101], "test");
        let e = energy_from_counts(&r, 3.0);
        assert_eq!(e, ((8.0 - 6.0) + (0.0 - 6.0)) / 2.0);
    }
}
