//! Matrix-product-state (tensor network) emulator — the EMU-MPS stand-in.
//!
//! The state of `n` atoms is stored as a chain of rank-3 tensors
//! `A[i] ∈ ℂ^{χ_l × 2 × χ_r}` with a movable orthogonality center. Evolution
//! uses second-order Trotter steps: exact single-site rotations for the drive
//! and diagonal two-site gates `exp(−i U_ij dt · n_i n_j)` for the van der
//! Waals interaction, applied through swap networks for non-adjacent pairs
//! within the interaction cutoff.
//!
//! The maximum bond dimension `χ` bounds the entanglement the emulator can
//! represent: `χ = 1` is the product-state "mock" mode from the paper's
//! footnote 3 (2 complex numbers per qubit — inaccurate but exercises every
//! code path end-to-end), while growing `χ` converges to the exact state
//! vector. Truncation discards the smallest Schmidt weights and records the
//! accumulated discarded probability in [`Mps::truncation_error`].

use crate::hamiltonian::DiscretizedDrive;
use crate::linalg::{expm_2x2_hermitian, svd, CMatrix};
use hpcqc_program::{Register, Sequence};
use num_complex::Complex64;
use rand::Rng;

/// One site tensor with shape `(dl, 2, dr)`, row-major `(l, p, r)`.
#[derive(Debug, Clone)]
struct Tensor3 {
    dl: usize,
    dr: usize,
    data: Vec<Complex64>,
}

impl Tensor3 {
    fn zeros(dl: usize, dr: usize) -> Self {
        Tensor3 {
            dl,
            dr,
            data: vec![Complex64::new(0.0, 0.0); dl * 2 * dr],
        }
    }

    #[inline]
    fn at(&self, l: usize, p: usize, r: usize) -> Complex64 {
        self.data[(l * 2 + p) * self.dr + r]
    }

    #[inline]
    fn at_mut(&mut self, l: usize, p: usize, r: usize) -> &mut Complex64 {
        &mut self.data[(l * 2 + p) * self.dr + r]
    }
}

/// Configuration of the MPS evolution.
#[derive(Debug, Clone)]
pub struct MpsConfig {
    /// Maximum bond dimension χ. 1 = product-state mock mode.
    pub chi_max: usize,
    /// Relative Schmidt-value cutoff: singular values below
    /// `svd_cutoff * s_max` are discarded even when χ allows them.
    pub svd_cutoff: f64,
    /// Trotter step cap in µs, within each segment of the drive grid
    /// (`DiscretizedDrive::aligned`).
    pub max_dt: f64,
    /// Interactions between chain positions farther apart than this are
    /// dropped (their 1/r⁶ strength is negligible at typical spacings).
    pub max_interaction_range: usize,
}

impl Default for MpsConfig {
    fn default() -> Self {
        MpsConfig {
            chi_max: 16,
            svd_cutoff: 1e-10,
            max_dt: 1e-3,
            max_interaction_range: 3,
        }
    }
}

/// Reusable TEBD scratch: the two-site `theta` tensors and the SVD input
/// matrix grow to the working size once and stay allocated across the whole
/// sweep instead of being reallocated at every gate.
#[derive(Debug, Clone, Default)]
struct TebdScratch {
    theta: Vec<Complex64>,
    theta2: Vec<Complex64>,
    mat: Vec<Complex64>,
}

/// A matrix product state over `n` qubits.
#[derive(Debug, Clone)]
pub struct Mps {
    /// Number of sites.
    pub n: usize,
    tensors: Vec<Tensor3>,
    /// Current orthogonality center (tensors left of it are left-canonical,
    /// right of it right-canonical).
    center: usize,
    /// Accumulated discarded Schmidt weight over all truncations.
    pub truncation_error: f64,
    cfg: MpsConfig,
    scratch: TebdScratch,
}

impl Mps {
    /// The all-ground product state.
    pub fn ground(n: usize, cfg: MpsConfig) -> Self {
        assert!(n >= 1, "MPS needs at least one site");
        assert!(cfg.chi_max >= 1, "bond dimension must be >= 1");
        let tensors = (0..n)
            .map(|_| {
                let mut t = Tensor3::zeros(1, 1);
                *t.at_mut(0, 0, 0) = Complex64::new(1.0, 0.0);
                t
            })
            .collect();
        Mps {
            n,
            tensors,
            center: 0,
            truncation_error: 0.0,
            cfg,
            scratch: TebdScratch::default(),
        }
    }

    /// Largest bond dimension currently in use.
    pub fn max_bond(&self) -> usize {
        self.tensors.iter().map(|t| t.dr).max().unwrap_or(1)
    }

    /// ⟨ψ|ψ⟩ by full transfer-matrix contraction.
    pub fn norm_sqr(&self) -> f64 {
        // E starts as 1x1 identity; E' = Σ_p A[p]† E A[p]
        let mut e = CMatrix::identity(1);
        for t in &self.tensors {
            let mut e2 = CMatrix::zeros(t.dr, t.dr);
            for p in 0..2 {
                // M_p is dl x dr slice
                for r1 in 0..t.dr {
                    for r2 in 0..t.dr {
                        let mut acc = Complex64::new(0.0, 0.0);
                        for l1 in 0..t.dl {
                            for l2 in 0..t.dl {
                                acc += t.at(l1, p, r1).conj() * e[(l1, l2)] * t.at(l2, p, r2);
                            }
                        }
                        e2[(r1, r2)] += acc;
                    }
                }
            }
            e = e2;
        }
        e[(0, 0)].re
    }

    /// Move the orthogonality center one site right via SVD.
    fn shift_center_right(&mut self) {
        let i = self.center;
        assert!(i + 1 < self.n);
        let t = &self.tensors[i];
        let (dl, dr) = (t.dl, t.dr);
        let mut m = CMatrix::zeros(dl * 2, dr);
        for l in 0..dl {
            for p in 0..2 {
                for r in 0..dr {
                    m[(l * 2 + p, r)] = t.at(l, p, r);
                }
            }
        }
        let (u, s, vt) = svd(&m);
        let k = s.len();
        let mut a = Tensor3::zeros(dl, k);
        for l in 0..dl {
            for p in 0..2 {
                for r in 0..k {
                    *a.at_mut(l, p, r) = u[(l * 2 + p, r)];
                }
            }
        }
        // absorb S·Vt into the right neighbour
        let next = &self.tensors[i + 1];
        let mut b = Tensor3::zeros(k, next.dr);
        for m2 in 0..k {
            for mp in 0..dr {
                let w = Complex64::new(s[m2], 0.0) * vt[(m2, mp)];
                if w.norm_sqr() == 0.0 {
                    continue;
                }
                for p in 0..2 {
                    for r in 0..next.dr {
                        *b.at_mut(m2, p, r) += w * next.at(mp, p, r);
                    }
                }
            }
        }
        self.tensors[i] = a;
        self.tensors[i + 1] = b;
        self.center = i + 1;
    }

    /// Move the orthogonality center one site left via SVD.
    fn shift_center_left(&mut self) {
        let i = self.center;
        assert!(i >= 1);
        let t = &self.tensors[i];
        let (dl, dr) = (t.dl, t.dr);
        let mut m = CMatrix::zeros(dl, 2 * dr);
        for l in 0..dl {
            for p in 0..2 {
                for r in 0..dr {
                    m[(l, p * dr + r)] = t.at(l, p, r);
                }
            }
        }
        let (u, s, vt) = svd(&m);
        let k = s.len();
        let mut b = Tensor3::zeros(k, dr);
        for l in 0..k {
            for p in 0..2 {
                for r in 0..dr {
                    *b.at_mut(l, p, r) = vt[(l, p * dr + r)];
                }
            }
        }
        let prev = &self.tensors[i - 1];
        let mut a = Tensor3::zeros(prev.dl, k);
        for mp in 0..dl {
            for m2 in 0..k {
                let w = u[(mp, m2)] * Complex64::new(s[m2], 0.0);
                if w.norm_sqr() == 0.0 {
                    continue;
                }
                for l in 0..prev.dl {
                    for p in 0..2 {
                        *a.at_mut(l, p, m2) += prev.at(l, p, mp) * w;
                    }
                }
            }
        }
        self.tensors[i] = b;
        self.tensors[i - 1] = a;
        self.center = i - 1;
    }

    /// Move the center to site `to`.
    fn move_center(&mut self, to: usize) {
        while self.center < to {
            self.shift_center_right();
        }
        while self.center > to {
            self.shift_center_left();
        }
    }

    /// Apply a single-site unitary `u` (2×2) to site `i`, in place — the
    /// physical index is contracted pairwise, so no new tensor is needed.
    pub fn apply_one_site(&mut self, i: usize, u: &CMatrix) {
        let (u00, u01) = (u[(0, 0)], u[(0, 1)]);
        let (u10, u11) = (u[(1, 0)], u[(1, 1)]);
        let t = &mut self.tensors[i];
        for l in 0..t.dl {
            for r in 0..t.dr {
                let p0 = t.at(l, 0, r);
                let p1 = t.at(l, 1, r);
                *t.at_mut(l, 0, r) = u00 * p0 + u01 * p1;
                *t.at_mut(l, 1, r) = u10 * p0 + u11 * p1;
            }
        }
    }

    /// Apply a two-site gate (4×4, basis |p_i p_{i+1}⟩ with the left qubit
    /// as the most-significant bit) on adjacent sites `(i, i+1)`.
    /// `absorb_right` controls where the center lands (i+1 if true, i if false).
    pub fn apply_two_site(&mut self, i: usize, gate: &CMatrix, absorb_right: bool) {
        assert!(i + 1 < self.n);
        self.move_center(i);
        let a = &self.tensors[i];
        let b = &self.tensors[i + 1];
        let (dl, dm, dr) = (a.dl, a.dr, b.dr);
        debug_assert_eq!(dm, b.dl);

        // theta[l, p1, p2, r] — scratch reused across the whole TEBD sweep
        let idx = |p1: usize, p2: usize| p1 * 2 + p2;
        let mut theta = std::mem::take(&mut self.scratch.theta);
        theta.clear();
        theta.resize(dl * 4 * dr, Complex64::new(0.0, 0.0));
        let th = |l: usize, p1: usize, p2: usize, r: usize| (l * 4 + idx(p1, p2)) * dr + r;
        for l in 0..dl {
            for p1 in 0..2 {
                for m in 0..dm {
                    let av = a.at(l, p1, m);
                    if av.norm_sqr() == 0.0 {
                        continue;
                    }
                    for p2 in 0..2 {
                        for r in 0..dr {
                            theta[th(l, p1, p2, r)] += av * b.at(m, p2, r);
                        }
                    }
                }
            }
        }
        // gate application (every element is assigned, so no zeroing needed)
        let mut theta2 = std::mem::take(&mut self.scratch.theta2);
        theta2.resize(dl * 4 * dr, Complex64::new(0.0, 0.0));
        for l in 0..dl {
            for r in 0..dr {
                for q1 in 0..2 {
                    for q2 in 0..2 {
                        let mut acc = Complex64::new(0.0, 0.0);
                        for p1 in 0..2 {
                            for p2 in 0..2 {
                                acc += gate[(idx(q1, q2), idx(p1, p2))] * theta[th(l, p1, p2, r)];
                            }
                        }
                        theta2[th(l, q1, q2, r)] = acc;
                    }
                }
            }
        }
        // matricize to (l q1) x (q2 r) and SVD-truncate; the matrix buffer
        // is scratch too (every element is assigned below)
        let mut mdata = std::mem::take(&mut self.scratch.mat);
        mdata.resize(dl * 2 * 2 * dr, Complex64::new(0.0, 0.0));
        let mut m = CMatrix {
            rows: dl * 2,
            cols: 2 * dr,
            data: mdata,
        };
        for l in 0..dl {
            for q1 in 0..2 {
                for q2 in 0..2 {
                    for r in 0..dr {
                        m[(l * 2 + q1, q2 * dr + r)] = theta2[th(l, q1, q2, r)];
                    }
                }
            }
        }
        let (u, s, vt) = svd(&m);
        self.scratch.theta = theta;
        self.scratch.theta2 = theta2;
        self.scratch.mat = m.data;
        let total: f64 = s.iter().map(|x| x * x).sum();
        let smax = s.first().copied().unwrap_or(0.0);
        let mut keep = s
            .iter()
            .take(self.cfg.chi_max)
            .filter(|&&x| x > self.cfg.svd_cutoff * smax)
            .count();
        keep = keep.max(1);
        let kept: f64 = s[..keep].iter().map(|x| x * x).sum();
        if total > 0.0 {
            self.truncation_error += (total - kept) / total;
        }
        // renormalize the kept Schmidt spectrum to preserve the state norm
        let rescale = if kept > 0.0 {
            (total / kept).sqrt()
        } else {
            1.0
        };

        let mut at = Tensor3::zeros(dl, keep);
        let mut bt = Tensor3::zeros(keep, dr);
        for k in 0..keep {
            let sk = Complex64::new(s[k] * rescale, 0.0);
            if absorb_right {
                for l in 0..dl {
                    for q1 in 0..2 {
                        *at.at_mut(l, q1, k) = u[(l * 2 + q1, k)];
                    }
                }
                for q2 in 0..2 {
                    for r in 0..dr {
                        *bt.at_mut(k, q2, r) = sk * vt[(k, q2 * dr + r)];
                    }
                }
            } else {
                for l in 0..dl {
                    for q1 in 0..2 {
                        *at.at_mut(l, q1, k) = u[(l * 2 + q1, k)] * sk;
                    }
                }
                for q2 in 0..2 {
                    for r in 0..dr {
                        *bt.at_mut(k, q2, r) = vt[(k, q2 * dr + r)];
                    }
                }
            }
        }
        self.tensors[i] = at;
        self.tensors[i + 1] = bt;
        self.center = if absorb_right { i + 1 } else { i };
    }

    /// Apply a two-site gate between arbitrary chain positions `i < j` by
    /// swapping `j` down next to `i`, applying, and swapping back.
    pub fn apply_gate_ranged(&mut self, i: usize, j: usize, gate: &CMatrix) {
        assert!(i < j && j < self.n);
        let swap = swap_gate();
        // bring j down to i+1
        for k in (i + 1..j).rev() {
            self.apply_two_site(k, &swap, false);
        }
        self.apply_two_site(i, gate, true);
        for k in i + 1..j {
            self.apply_two_site(k, &swap, true);
        }
    }

    /// Expectation value of a single-site operator at site `i`.
    pub fn expectation_one_site(&mut self, i: usize, op: &CMatrix) -> f64 {
        self.move_center(i);
        let t = &self.tensors[i];
        let mut num = Complex64::new(0.0, 0.0);
        let mut den = 0.0f64;
        for l in 0..t.dl {
            for r in 0..t.dr {
                for q in 0..2 {
                    for p in 0..2 {
                        num += t.at(l, q, r).conj() * op[(q, p)] * t.at(l, p, r);
                    }
                    den += t.at(l, q, r).norm_sqr();
                }
            }
        }
        if den > 0.0 {
            num.re / den
        } else {
            0.0
        }
    }

    /// Probability that atom `i` is in the Rydberg state.
    pub fn rydberg_population(&mut self, i: usize) -> f64 {
        let mut n_op = CMatrix::zeros(2, 2);
        n_op[(1, 1)] = Complex64::new(1.0, 0.0);
        self.expectation_one_site(i, &n_op)
    }

    /// Canonicalize for sampling: move the center to site 0 and normalize
    /// it, so every subsequent [`Self::sample_prepared`] call is read-only
    /// (and therefore safe to run concurrently with per-shot RNG streams).
    pub fn prepare_sampling(&mut self) {
        self.move_center(0);
        // normalize the center so conditionals are true probabilities
        let nrm = self.norm_sqr().sqrt();
        if (nrm - 1.0).abs() > 1e-12 && nrm > 0.0 {
            let inv = Complex64::new(1.0 / nrm, 0.0);
            for v in &mut self.tensors[0].data {
                *v *= inv;
            }
        }
    }

    /// Draw one bitstring sample (bit `i` = Rydberg state of atom `i`).
    ///
    /// Uses the exact sequential algorithm: with the center at site 0 the
    /// remaining tensors are right-canonical, so conditionals are local.
    pub fn sample<R: Rng>(&mut self, rng: &mut R) -> u64 {
        self.prepare_sampling();
        self.sample_prepared(rng)
    }

    /// Read-only sampling draw; requires [`Self::prepare_sampling`] first.
    pub fn sample_prepared<R: Rng>(&self, rng: &mut R) -> u64 {
        assert_eq!(self.center, 0, "call prepare_sampling before sampling");
        let mut out: u64 = 0;
        // left boundary vector, dim = current dl (starts at 1)
        let mut lvec = vec![Complex64::new(1.0, 0.0)];
        for i in 0..self.n {
            let t = &self.tensors[i];
            debug_assert_eq!(lvec.len(), t.dl);
            let mut w = [
                vec![Complex64::new(0.0, 0.0); t.dr],
                vec![Complex64::new(0.0, 0.0); t.dr],
            ];
            for (p, wp) in w.iter_mut().enumerate() {
                for (r, slot) in wp.iter_mut().enumerate() {
                    *slot = lvec
                        .iter()
                        .enumerate()
                        .map(|(l, lv)| lv * t.at(l, p, r))
                        .sum();
                }
            }
            let p0: f64 = w[0].iter().map(|z| z.norm_sqr()).sum();
            let p1: f64 = w[1].iter().map(|z| z.norm_sqr()).sum();
            let tot = p0 + p1;
            let pick1 = if tot > 0.0 {
                rng.gen::<f64>() < p1 / tot
            } else {
                false
            };
            let (chosen, pp) = if pick1 { (&w[1], p1) } else { (&w[0], p0) };
            if pick1 {
                out |= 1 << i;
            }
            let inv = if pp > 0.0 { 1.0 / pp.sqrt() } else { 0.0 };
            lvec = chosen.iter().map(|z| z * inv).collect();
        }
        out
    }

    /// Contract the full MPS into a dense state vector (testing; n ≤ 20).
    pub fn to_statevector(&self) -> Vec<Complex64> {
        assert!(self.n <= 20, "dense contraction limited to 20 qubits");
        // amps over prefix, indexed by bitstring of the prefix; each entry is
        // a boundary vector of dim dr.
        let mut partial: Vec<Vec<Complex64>> = vec![vec![Complex64::new(1.0, 0.0)]];
        for t in &self.tensors {
            let mut next: Vec<Vec<Complex64>> = Vec::with_capacity(partial.len() * 2);
            // bit ordering: site i is bit i (LSB-first), so iterate p as the
            // *new high bit* appended at position i — build accordingly below.
            for p in 0..2 {
                for v in &partial {
                    let mut w = vec![Complex64::new(0.0, 0.0); t.dr];
                    for (r, slot) in w.iter_mut().enumerate() {
                        *slot = v.iter().enumerate().map(|(l, lv)| lv * t.at(l, p, r)).sum();
                    }
                    next.push(w);
                }
            }
            partial = next;
        }
        partial.into_iter().map(|v| v[0]).collect()
    }
}

/// The SWAP gate in the two-site basis used by [`Mps::apply_two_site`].
pub fn swap_gate() -> CMatrix {
    let mut g = CMatrix::zeros(4, 4);
    let one = Complex64::new(1.0, 0.0);
    g[(0b00, 0b00)] = one;
    g[(0b01, 0b10)] = one;
    g[(0b10, 0b01)] = one;
    g[(0b11, 0b11)] = one;
    g
}

/// Diagonal interaction gate `exp(−i u dt · n⊗n)`.
pub fn interaction_gate(u: f64, dt: f64) -> CMatrix {
    let mut g = CMatrix::identity(4);
    g[(0b11, 0b11)] = Complex64::from_polar(1.0, -u * dt);
    g
}

/// Single-site drive Hamiltonian `Ω/2 (cosφ σx − sinφ σy) − δ n` as a 2×2.
pub fn drive_hamiltonian(omega: f64, delta: f64, phase: f64) -> CMatrix {
    let mut h = CMatrix::zeros(2, 2);
    // |g⟩=0, |r⟩=1: cos φ σx − sin φ σy has ⟨r|H|g⟩ = Ω/2 e^{−iφ}, the
    // state-vector kernel's creation coefficient.
    h[(0, 1)] = Complex64::from_polar(omega / 2.0, phase);
    h[(1, 0)] = Complex64::from_polar(omega / 2.0, -phase);
    h[(1, 1)] = Complex64::new(-delta, 0.0);
    h
}

/// Evolve a full sequence with second-order Trotter TEBD and return the MPS.
pub fn evolve_sequence_mps(seq: &Sequence, c6: f64, cfg: &MpsConfig) -> Mps {
    let reg: &Register = &seq.register;
    let n = reg.len();
    let mut mps = Mps::ground(n, cfg.clone());
    // chain-ordered interactions within range
    let pairs: Vec<(usize, usize, f64)> = reg
        .pairs()
        .into_iter()
        .filter(|&(i, j, _)| j - i <= cfg.max_interaction_range)
        .map(|(i, j, r)| (i, j, c6 / r.powi(6)))
        .collect();

    // The grid `SvBackend` steps, with `max_dt` as the Trotter cap of each
    // segment. Segments of one length share a step size, and so the gates.
    let drive = DiscretizedDrive::aligned(seq, cfg.max_dt);
    let mut gates: Vec<(usize, usize, CMatrix)> = Vec::new();
    let mut gates_dt = f64::NAN;
    // Constant-drive plateaus repeat the same (Ω, δ, φ) for many steps:
    // cache the last single-site half-step unitary.
    let mut cached: Option<((f64, f64, f64, f64), CMatrix)> = None;
    for (dt, (omega, delta, phase)) in drive.steps {
        if dt != gates_dt {
            gates = pairs
                .iter()
                .map(|&(i, j, u)| (i, j, interaction_gate(u, dt)))
                .collect();
            gates_dt = dt;
        }
        let key = (omega, delta, phase, dt);
        let u_half = match &cached {
            Some((k, u)) if *k == key => u.clone(),
            _ => {
                let u = expm_2x2_hermitian(&drive_hamiltonian(omega, delta, phase), dt / 2.0);
                cached = Some((key, u.clone()));
                u
            }
        };
        for i in 0..n {
            mps.apply_one_site(i, &u_half);
        }
        for (i, j, g) in &gates {
            if *j == *i + 1 {
                mps.apply_two_site(*i, g, true);
            } else {
                mps.apply_gate_ranged(*i, *j, g);
            }
        }
        for i in 0..n {
            mps.apply_one_site(i, &u_half);
        }
    }
    mps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::statevector::{evolve_sequence, SvConfig};
    use hpcqc_program::units::C6_COEFF;
    use hpcqc_program::{Pulse, SequenceBuilder};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn chain_seq(n: usize, spacing: f64, duration: f64, omega: f64, delta: f64) -> Sequence {
        let reg = Register::linear(n, spacing).unwrap();
        let mut b = SequenceBuilder::new(reg);
        b.add_global_pulse(Pulse::constant(duration, omega, delta, 0.0).unwrap());
        b.build().unwrap()
    }

    #[test]
    fn ground_state_norm_is_one() {
        let mps = Mps::ground(5, MpsConfig::default());
        assert!((mps.norm_sqr() - 1.0).abs() < 1e-12);
        assert_eq!(mps.max_bond(), 1);
    }

    #[test]
    fn one_site_gate_rabi_flip() {
        let mut mps = Mps::ground(2, MpsConfig::default());
        // π-pulse on site 0
        let h = drive_hamiltonian(2.0, 0.0, 0.0);
        let u = expm_2x2_hermitian(&h, std::f64::consts::PI / 2.0);
        mps.apply_one_site(0, &u);
        assert!((mps.rydberg_population(0) - 1.0).abs() < 1e-12);
        assert!(mps.rydberg_population(1).abs() < 1e-12);
        assert!((mps.norm_sqr() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn swap_gate_moves_excitation() {
        let mut mps = Mps::ground(3, MpsConfig::default());
        let h = drive_hamiltonian(2.0, 0.0, 0.0);
        let u = expm_2x2_hermitian(&h, std::f64::consts::PI / 2.0);
        mps.apply_one_site(0, &u);
        mps.apply_two_site(0, &swap_gate(), true);
        assert!(mps.rydberg_population(0).abs() < 1e-10);
        assert!((mps.rydberg_population(1) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn ranged_gate_equals_dense_result() {
        // Apply interaction between sites 0 and 2 of a 3-site chain prepared
        // in |+ + +⟩ and compare against dense linear algebra.
        let cfg = MpsConfig {
            chi_max: 8,
            ..MpsConfig::default()
        };
        let mut mps = Mps::ground(3, cfg);
        let had = {
            // R_y-like: (|0> + |1>)/sqrt2 from |0>
            let mut m = CMatrix::zeros(2, 2);
            let s = 1.0 / 2f64.sqrt();
            m[(0, 0)] = Complex64::new(s, 0.0);
            m[(0, 1)] = Complex64::new(s, 0.0);
            m[(1, 0)] = Complex64::new(s, 0.0);
            m[(1, 1)] = Complex64::new(-s, 0.0);
            m
        };
        for i in 0..3 {
            mps.apply_one_site(i, &had);
        }
        let u = 1.7;
        let dt = 0.3;
        mps.apply_gate_ranged(0, 2, &interaction_gate(u, dt));
        let sv = mps.to_statevector();
        // dense expectation: amplitude of |101⟩ (bits 0 and 2 set) gains the
        // phase e^{-i u dt}, all amplitudes have |a| = 1/sqrt(8)
        let a = 1.0 / 8f64.sqrt();
        for (b, amp) in sv.iter().enumerate() {
            let expect_phase = if b & 0b101 == 0b101 { -u * dt } else { 0.0 };
            let expected = Complex64::from_polar(a, expect_phase);
            assert!(
                (amp - expected).norm() < 1e-9,
                "basis {b:03b}: {amp:?} vs {expected:?}"
            );
        }
        assert!((mps.norm_sqr() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn mps_matches_statevector_small_chain() {
        // 4 atoms, blockade-regime drive: high-χ MPS must agree with the
        // exact state vector on local observables.
        let seq = chain_seq(4, 6.0, 0.3, 4.0, 2.0);
        let sv = evolve_sequence(&seq, C6_COEFF, &SvConfig::default());
        let mut mps = evolve_sequence_mps(
            &seq,
            C6_COEFF,
            &MpsConfig {
                chi_max: 16,
                max_dt: 2e-4,
                ..MpsConfig::default()
            },
        );
        for i in 0..4 {
            let p_sv = sv.rydberg_population(i);
            let p_mps = mps.rydberg_population(i);
            assert!(
                (p_sv - p_mps).abs() < 5e-3,
                "site {i}: sv={p_sv:.5} mps={p_mps:.5}"
            );
        }
        assert!((mps.norm_sqr() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn mps_matches_statevector_distribution_across_pulse_phases() {
        // A relative phase between pulses is physical: a drive term whose
        // phase sign differs from the state-vector kernel's turns the third
        // pulse about the mirrored axis, 0.13 TV away on this program.
        let mut b = SequenceBuilder::new(Register::linear(4, 10.0).unwrap());
        for (omega, delta, phase) in [(5.0, 0.0, 0.0), (0.0, 4.0, 0.0), (4.0, 0.0, 0.6)] {
            b.add_global_pulse(Pulse::constant(0.1, omega, delta, phase).unwrap());
        }
        let seq = b.build().unwrap();
        let sv = evolve_sequence(&seq, C6_COEFF, &SvConfig::default()).probabilities();
        let mps = evolve_sequence_mps(&seq, C6_COEFF, &MpsConfig::default());
        let tv: f64 = 0.5
            * mps
                .to_statevector()
                .iter()
                .zip(&sv)
                .map(|(a, p)| (a.norm_sqr() - p).abs())
                .sum::<f64>();
        assert!(tv < 1e-4, "TV {tv:.3e}");
    }

    #[test]
    fn chi_one_is_product_state_mock() {
        let seq = chain_seq(4, 6.0, 0.3, 4.0, 0.0);
        let mut mps = evolve_sequence_mps(
            &seq,
            C6_COEFF,
            &MpsConfig {
                chi_max: 1,
                ..MpsConfig::default()
            },
        );
        assert_eq!(mps.max_bond(), 1, "χ=1 keeps the state a product state");
        // It still runs end to end and produces probabilities in [0,1].
        for i in 0..4 {
            let p = mps.rydberg_population(i);
            assert!((0.0..=1.0).contains(&p), "site {i}: {p}");
        }
    }

    #[test]
    fn truncation_error_grows_with_smaller_chi() {
        let seq = chain_seq(6, 5.5, 0.4, 6.0, 0.0);
        let lo = evolve_sequence_mps(
            &seq,
            C6_COEFF,
            &MpsConfig {
                chi_max: 2,
                max_dt: 1e-3,
                ..MpsConfig::default()
            },
        );
        let hi = evolve_sequence_mps(
            &seq,
            C6_COEFF,
            &MpsConfig {
                chi_max: 32,
                max_dt: 1e-3,
                ..MpsConfig::default()
            },
        );
        assert!(
            lo.truncation_error >= hi.truncation_error,
            "χ=2 err {} < χ=32 err {}",
            lo.truncation_error,
            hi.truncation_error
        );
    }

    #[test]
    fn sampling_distribution_matches_populations() {
        let seq = chain_seq(3, 6.0, 0.25, 4.0, 0.0);
        let mut mps = evolve_sequence_mps(&seq, C6_COEFF, &MpsConfig::default());
        let pops: Vec<f64> = (0..3).map(|i| mps.rydberg_population(i)).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let shots = 20_000;
        let mut counts = [0u32; 3];
        for _ in 0..shots {
            let s = mps.sample(&mut rng);
            for (i, c) in counts.iter_mut().enumerate() {
                if (s >> i) & 1 == 1 {
                    *c += 1;
                }
            }
        }
        for i in 0..3 {
            let freq = counts[i] as f64 / shots as f64;
            assert!(
                (freq - pops[i]).abs() < 0.02,
                "site {i}: sampled {freq:.4} vs expected {:.4}",
                pops[i]
            );
        }
    }

    #[test]
    fn sample_of_product_state_is_deterministic() {
        let mut mps = Mps::ground(4, MpsConfig::default());
        let h = drive_hamiltonian(2.0, 0.0, 0.0);
        let u = expm_2x2_hermitian(&h, std::f64::consts::PI / 2.0);
        mps.apply_one_site(1, &u);
        mps.apply_one_site(3, &u);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..20 {
            assert_eq!(mps.sample(&mut rng), 0b1010);
        }
    }

    #[test]
    fn to_statevector_of_ground_state() {
        let mps = Mps::ground(3, MpsConfig::default());
        let sv = mps.to_statevector();
        assert_eq!(sv.len(), 8);
        assert!((sv[0].re - 1.0).abs() < 1e-12);
        assert!(sv[1..].iter().all(|a| a.norm() < 1e-12));
    }
}
