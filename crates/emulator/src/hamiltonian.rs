//! The Rydberg Hamiltonian driving the analog emulators.
//!
//! For `n` atoms with positions from the [`Register`], the Hamiltonian of the
//! globally driven analog device is (ħ = 1, units rad/µs):
//!
//! ```text
//! H(t) = Σ_i Ω(t)/2 (cos φ σ_x^i − sin φ σ_y^i)  −  δ(t) Σ_i n_i
//!        + Σ_{i<j} C6/r_ij^6 · n_i n_j
//! ```
//!
//! where `n_i = |r⟩⟨r|_i` is the Rydberg-number operator. Bit `i` of a basis
//! index set to 1 denotes atom `i` in the Rydberg state.

use hpcqc_program::sequence::GLOBAL_CHANNEL;
use hpcqc_program::{Register, Sequence};

/// Precomputed time-independent structure of the Rydberg Hamiltonian.
///
/// The diagonal splits into the interaction part (fixed by geometry) and the
/// occupation count (multiplied by −δ(t) at evolution time); the off-diagonal
/// drive couples states differing by one bit with strength Ω(t)/2·e^{±iφ}.
#[derive(Debug, Clone)]
pub struct RydbergHamiltonian {
    /// Number of atoms.
    pub n: usize,
    /// Interaction energy of every basis state: `interaction[b] = Σ_{i<j∈b} U_ij`.
    pub interaction_diag: Vec<f64>,
    /// Popcount of every basis state (cached; −δ(t)·popcount term).
    pub occupation: Vec<u32>,
    /// Pairwise interaction strengths `U_ij = C6 / r_ij^6` (upper triangle).
    pub pair_u: Vec<(usize, usize, f64)>,
}

impl RydbergHamiltonian {
    /// Build the static parts from geometry. `c6` in rad·µs⁻¹·µm⁶.
    ///
    /// Memory is `O(2^n)`; callers (the state-vector backend) bound `n`.
    pub fn new(register: &Register, c6: f64) -> Self {
        let n = register.len();
        assert!(
            n <= 26,
            "state-vector Hamiltonian limited to 26 qubits, got {n}"
        );
        let dim = 1usize << n;
        let pair_u: Vec<(usize, usize, f64)> = register
            .pairs()
            .into_iter()
            .map(|(i, j, r)| (i, j, c6 / r.powi(6)))
            .collect();

        let mut interaction_diag = vec![0.0f64; dim];
        let mut occupation = vec![0u32; dim];
        for b in 0..dim {
            occupation[b] = (b as u64).count_ones();
            let mut e = 0.0;
            for &(i, j, u) in &pair_u {
                if (b >> i) & 1 == 1 && (b >> j) & 1 == 1 {
                    e += u;
                }
            }
            interaction_diag[b] = e;
        }
        RydbergHamiltonian {
            n,
            interaction_diag,
            occupation,
            pair_u,
        }
    }

    /// Hilbert-space dimension `2^n`.
    pub fn dim(&self) -> usize {
        1 << self.n
    }

    /// Full diagonal at drive detuning `delta`: `interaction − δ·occupation`.
    pub fn diagonal(&self, delta: f64) -> Vec<f64> {
        self.interaction_diag
            .iter()
            .zip(&self.occupation)
            .map(|(&u, &k)| u - delta * k as f64)
            .collect()
    }

    /// A conservative bound on the spectral norm at drive `(omega, delta)`:
    /// used to pick stable integrator steps.
    pub fn energy_scale(&self, omega: f64, delta: f64) -> f64 {
        let max_int = self.interaction_diag.iter().cloned().fold(0.0f64, f64::max);
        max_int + delta.abs() * self.n as f64 + omega.abs() * self.n as f64 / 2.0
    }
}

/// The drive values of a [`Sequence`] discretized on a fixed grid, ready for
/// time stepping. Samples are taken at step midpoints (midpoint rule), which
/// matches the 2nd-order accuracy of the Trotter/RK interiors.
#[derive(Debug, Clone)]
pub struct DiscretizedDrive {
    /// Step size in µs.
    pub dt: f64,
    /// Per-step `(omega, delta, phase)` at the step midpoint.
    pub steps: Vec<(f64, f64, f64)>,
}

impl DiscretizedDrive {
    /// Number of steps a grid capped at `max_dt` needs for `total` µs.
    fn steps_for(total: f64, max_dt: f64) -> usize {
        (total / max_dt).ceil().max(1.0) as usize
    }

    /// Discretize the global channel of `seq` into steps of at most `max_dt`.
    pub fn from_sequence(seq: &Sequence, max_dt: f64) -> Self {
        let total = seq.duration();
        let nsteps = Self::steps_for(total, max_dt);
        let dt = total / nsteps as f64;
        let steps = (0..nsteps)
            .map(|k| {
                let t = (k as f64 + 0.5) * dt;
                seq.drive_at(GLOBAL_CHANNEL, t)
            })
            .collect();
        DiscretizedDrive { dt, steps }
    }

    /// Reuse this discretization if a `max_dt` cap of `dt_bound` would
    /// produce the same grid, otherwise re-discretize `seq` on the finer
    /// grid. The grid is fully determined by the step count, so the reuse
    /// case is exact — callers avoid sampling the whole schedule twice.
    pub fn refined(self, seq: &Sequence, dt_bound: f64) -> Self {
        if Self::steps_for(seq.duration(), dt_bound) == self.steps.len() {
            self
        } else {
            Self::from_sequence(seq, dt_bound)
        }
    }

    /// The largest |Ω| and |δ| over the schedule — used for step control.
    pub fn max_drive(&self) -> (f64, f64) {
        let mut om = 0.0f64;
        let mut de = 0.0f64;
        for &(o, d, _) in &self.steps {
            om = om.max(o.abs());
            de = de.max(d.abs());
        }
        (om, de)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcqc_program::units::C6_COEFF;
    use hpcqc_program::{Pulse, SequenceBuilder};

    fn chain(n: usize, spacing: f64) -> Register {
        Register::linear(n, spacing).unwrap()
    }

    #[test]
    fn interaction_diag_counts_pairs() {
        let h = RydbergHamiltonian::new(&chain(3, 10.0), C6_COEFF);
        let u_nn = C6_COEFF / 10.0f64.powi(6);
        let u_nnn = C6_COEFF / 20.0f64.powi(6);
        assert_eq!(h.dim(), 8);
        assert_eq!(h.interaction_diag[0b000], 0.0);
        assert_eq!(h.interaction_diag[0b001], 0.0, "single excitation: no pair");
        assert!((h.interaction_diag[0b011] - u_nn).abs() < 1e-12);
        assert!((h.interaction_diag[0b101] - u_nnn).abs() < 1e-12);
        assert!(
            (h.interaction_diag[0b111] - (2.0 * u_nn + u_nnn)).abs() < 1e-12,
            "all three atoms: two NN pairs + one NNN pair"
        );
    }

    #[test]
    fn occupation_is_popcount() {
        let h = RydbergHamiltonian::new(&chain(4, 8.0), C6_COEFF);
        assert_eq!(h.occupation[0b0000], 0);
        assert_eq!(h.occupation[0b1011], 3);
        assert_eq!(h.occupation[0b1111], 4);
    }

    #[test]
    fn diagonal_applies_detuning() {
        let h = RydbergHamiltonian::new(&chain(2, 10.0), C6_COEFF);
        let d = h.diagonal(2.0);
        assert_eq!(d[0b00], 0.0);
        assert!((d[0b01] + 2.0).abs() < 1e-12);
        let u = C6_COEFF / 1e6;
        assert!((d[0b11] - (u - 4.0)).abs() < 1e-9);
    }

    #[test]
    fn energy_scale_bounds_diagonal() {
        let h = RydbergHamiltonian::new(&chain(3, 6.0), C6_COEFF);
        let scale = h.energy_scale(5.0, 10.0);
        for (k, &u) in h.interaction_diag.iter().enumerate() {
            let e = (u - 10.0 * h.occupation[k] as f64).abs();
            assert!(e <= scale + 1e-9, "state {k}: |E|={e} > bound {scale}");
        }
    }

    #[test]
    fn discretized_drive_covers_sequence() {
        let reg = chain(2, 8.0);
        let mut b = SequenceBuilder::new(reg);
        b.add_global_pulse(Pulse::constant(1.0, 4.0, -1.0, 0.5).unwrap());
        b.add_global_pulse(Pulse::constant(1.0, 2.0, 1.0, 0.0).unwrap());
        let seq = b.build().unwrap();
        let dd = DiscretizedDrive::from_sequence(&seq, 0.01);
        assert!((dd.dt * dd.steps.len() as f64 - 2.0).abs() < 1e-9);
        // first half drives (4, -1, 0.5), second half (2, 1, 0)
        let first = dd.steps[dd.steps.len() / 4];
        assert_eq!(first, (4.0, -1.0, 0.5));
        let second = dd.steps[3 * dd.steps.len() / 4];
        assert_eq!(second, (2.0, 1.0, 0.0));
        assert_eq!(dd.max_drive(), (4.0, 1.0));
    }

    #[test]
    fn refined_reuses_or_rebuilds_grid() {
        let reg = chain(2, 8.0);
        let mut b = SequenceBuilder::new(reg);
        b.add_global_pulse(Pulse::constant(1.0, 2.0, 0.0, 0.0).unwrap());
        let seq = b.build().unwrap();
        let coarse = DiscretizedDrive::from_sequence(&seq, 1e-2);
        // Same cap → same step count → the grid is reused as-is.
        let same = coarse.clone().refined(&seq, 1e-2);
        assert_eq!(same.steps.len(), coarse.steps.len());
        assert_eq!(same.dt, coarse.dt);
        // Tighter cap → re-discretized, exactly matching a direct build.
        let finer = coarse.refined(&seq, 1e-3);
        let direct = DiscretizedDrive::from_sequence(&seq, 1e-3);
        assert_eq!(finer.steps.len(), 1000);
        assert_eq!(finer.dt, direct.dt);
        assert_eq!(finer.steps, direct.steps);
    }

    #[test]
    #[should_panic(expected = "26 qubits")]
    fn too_many_qubits_panics() {
        let reg = chain(27, 6.0);
        RydbergHamiltonian::new(&reg, C6_COEFF);
    }
}
