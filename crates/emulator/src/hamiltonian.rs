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
use hpcqc_program::{Register, Sequence, Waveform};

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

/// The global drive of a [`Sequence`] on a grid that follows the program:
/// the schedule is cut wherever the drive may jump (every pulse start and
/// end, every `Composite` part boundary) and each segment gets equal steps
/// of its own, so no step straddles a jump and the midpoint sample of each
/// step keeps the integrator's order.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscretizedDrive {
    /// Every step as `(dt, (omega, delta, phase))`, the drive sampled at the
    /// step's midpoint, in time order.
    pub steps: Vec<(f64, (f64, f64, f64))>,
}

/// Every time the global drive may jump, sorted: the schedule's start and
/// end, each global pulse's start and end, and each `Composite` part
/// boundary of its amplitude or detuning. Edges within 1e-9 µs are one, so
/// part durations that sum differently in the last bits leave no sliver.
fn drive_edges(seq: &Sequence) -> Vec<f64> {
    fn part_boundaries(w: &Waveform, mut t: f64, out: &mut Vec<f64>) {
        if let Waveform::Composite { parts } = w {
            for part in parts {
                out.push(t);
                part_boundaries(part, t, out);
                t += part.duration();
            }
        }
    }
    let mut edges = vec![0.0, seq.duration()];
    for tp in seq.pulses.iter().filter(|tp| tp.channel == GLOBAL_CHANNEL) {
        edges.push(tp.start);
        part_boundaries(&tp.pulse.amplitude, tp.start, &mut edges);
        part_boundaries(&tp.pulse.detuning, tp.start, &mut edges);
        edges.push(tp.start + tp.pulse.duration());
    }
    edges.sort_by(f64::total_cmp);
    edges.dedup_by(|later, kept| *later - *kept <= 1e-9);
    edges
}

impl DiscretizedDrive {
    /// Give each segment between two drive edges `ceil(length / dt_bound)`
    /// equal steps (a length a rounding error past a whole number of steps
    /// gets no extra one).
    pub fn aligned(seq: &Sequence, dt_bound: f64) -> Self {
        let mut steps = Vec::new();
        for w in drive_edges(seq).windows(2) {
            let n = ((w[1] - w[0]) / dt_bound - 1e-9).ceil().max(1.0) as usize;
            let dt = (w[1] - w[0]) / n as f64;
            steps.extend((0..n).map(|k| {
                let mid = w[0] + (k as f64 + 0.5) * dt;
                (dt, seq.drive_at(GLOBAL_CHANNEL, mid))
            }));
        }
        DiscretizedDrive { steps }
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
        let steps = DiscretizedDrive::aligned(&seq, 0.01).steps;
        let total: f64 = steps.iter().map(|(dt, _)| dt).sum();
        assert!((total - 2.0).abs() < 1e-9);
        assert_eq!(steps.len(), 200);
        // first half drives (4, -1, 0.5), second half (2, 1, 0)
        assert!(steps[..100].iter().all(|s| s.1 == (4.0, -1.0, 0.5)));
        assert!(steps[100..].iter().all(|s| s.1 == (2.0, 1.0, 0.0)));
    }

    #[test]
    fn every_pulse_edge_and_composite_boundary_is_a_step_boundary() {
        // Durations off any round grid; the amplitude and the detuning of
        // the second pulse are composites with different part boundaries,
        // one of them nested; a delay leaves a drive-free gap.
        let mut b = SequenceBuilder::new(chain(3, 9.0));
        b.add_global_pulse(Pulse::constant(0.1234, 5.0, 0.0, 0.0).unwrap());
        let amp = Waveform::composite(vec![
            Waveform::ramp(0.0517, 0.0, 4.0).unwrap(),
            Waveform::composite(vec![
                Waveform::constant(0.03, 4.0).unwrap(),
                Waveform::constant(0.0213, 3.0).unwrap(),
            ])
            .unwrap(),
        ])
        .unwrap();
        let det = Waveform::composite(vec![
            Waveform::constant(0.07, -3.0).unwrap(),
            Waveform::ramp(0.033, -3.0, 3.0).unwrap(),
        ])
        .unwrap();
        b.add_global_pulse(Pulse::new(amp, det, 0.6).unwrap());
        b.add_delay(GLOBAL_CHANNEL, 0.0411);
        b.add_global_pulse(Pulse::constant(0.0777, 0.0, 2.0, 0.0).unwrap());
        let seq = b.build().unwrap();

        let (p1, p2) = (0.1234, 0.1234 + 0.103);
        let (p3, end) = (p2 + 0.0411, p2 + 0.0411 + 0.0777);
        let want = [0.0, p1, p1 + 0.0517, p1 + 0.07, p1 + 0.0817, p2, p3, end];
        let edges = drive_edges(&seq);
        assert_eq!(edges.len(), want.len(), "{edges:?}");
        let dt_bound = 7e-3;
        let steps = DiscretizedDrive::aligned(&seq, dt_bound).steps;
        // Walk the steps: every wanted edge is where one step ends, no step
        // is longer than the bound, and each samples the drive at its middle.
        let mut t = 0.0;
        let mut boundaries = vec![t];
        for &(dt, drive) in &steps {
            assert!(dt <= dt_bound);
            let (o, d, p) = seq.drive_at(GLOBAL_CHANNEL, t + dt / 2.0);
            let off = (drive.0 - o).abs() + (drive.1 - d).abs() + (drive.2 - p).abs();
            assert!(off < 1e-9, "at {t}: {drive:?} vs {:?}", (o, d, p));
            t += dt;
            boundaries.push(t);
        }
        for (edge, w) in edges.iter().zip(want) {
            assert!((edge - w).abs() < 1e-12, "edge {edge} vs {w}");
            let hit = boundaries.iter().any(|b| (b - w).abs() < 1e-12);
            assert!(hit, "no step boundary at {w}");
        }
    }

    #[test]
    #[should_panic(expected = "26 qubits")]
    fn too_many_qubits_panics() {
        let reg = chain(27, 6.0);
        RydbergHamiltonian::new(&reg, C6_COEFF);
    }
}
